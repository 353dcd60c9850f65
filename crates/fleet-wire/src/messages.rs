//! Typed payloads for every [`FrameType`], with allocation-free
//! framing and one decoder per message.
//!
//! The fixed-layout control messages ([`Hello`], [`ProgressBeat`],
//! [`FinalReport`]) are each declared once, as the rows of a
//! `wire_message!` table that generates the struct, the encoder and the
//! decoder. A metrics delta is a routing head followed by the cell's
//! [`FleetMetrics`] JSON — the serialization every digest is already
//! computed over — so the metrics have one encoding and one validating
//! decoder. Worker and coordinator decode every frame through
//! [`Frame::decode`], the decoder `tests/codec.rs` attacks.
//!
//! Decoding a delta is **transactional** by construction: the JSON
//! decodes into a staged `FleetMetrics`, and only a value that decoded
//! completely is merged. A malformed frame therefore leaves the
//! coordinator's accumulators untouched — which matters because the
//! rejoin path re-runs uncommitted cells, and a half-applied delta
//! would double-count.

use crate::frame::{read_frame, FrameBuf, FrameType, PayloadReader, WireError};
use fleet::shard::CellSpec;
use fleet::{FleetConfig, FleetMetrics};
use std::io::Read;

/// `worker_id` + `cell`: the routing prefix of a metrics delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHead {
    pub worker_id: u32,
    pub cell: u64,
}

/// A fixed-layout message, declared once: the rows are its wire fields in
/// wire order (little-endian integers, nothing else). The struct, its
/// encoder and its bounds-checked decoder — which refuses trailing bytes —
/// are generated from the same rows, so the three cannot disagree about a
/// field's place or width. `$what` names the message in decode errors.
macro_rules! wire_message {
    (
        $(#[$meta:meta])*
        $name:ident = FrameType::$ftype:ident, $what:literal, $encode:ident, $decode:ident {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ident, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        pub fn $encode(fb: &mut FrameBuf, msg: &$name) {
            fb.begin(FrameType::$ftype);
            $( fb.put_bytes(&msg.$field.to_le_bytes()); )*
        }

        fn $decode(payload: &[u8]) -> Result<$name, WireError> {
            let mut r = PayloadReader::new(payload);
            let msg = $name {
                $( $field: r.$ty(concat!($what, " ", stringify!($field)))?, )*
            };
            r.expect_end(concat!("trailing bytes after ", $what))?;
            Ok(msg)
        }
    };
}

wire_message! {
    /// Worker → coordinator, first frame on every connection.
    Hello = FrameType::Hello, "hello", encode_hello, decode_hello {
        worker_id: u32,
        /// OS process id, for crash diagnostics only.
        pid: u32,
    }
}

wire_message! {
    /// Worker → coordinator heartbeat: how far the cell loop has got.
    ProgressBeat = FrameType::Progress, "progress", encode_progress, decode_progress {
        worker_id: u32,
        cells_done: u32,
        cells_total: u32,
        users_done: u64,
    }
}

wire_message! {
    /// Worker → coordinator, after `Drain`: execution facts plus the digest
    /// handshake value.
    FinalReport = FrameType::FinalReport, "final report", encode_final_report, decode_final_report {
        worker_id: u32,
        cells: u64,
        users: u64,
        sim_events: u64,
        wall_micros: u64,
        /// Heap allocations in *this worker process* (0 unless built with
        /// `alloc-count`); the coordinator sums these instead of measuring
        /// its own process, so the distributed alloc gate reflects
        /// simulation work.
        allocs: u64,
        alloc_bytes: u64,
        /// FNV-1a of the worker-local merged metrics JSON
        /// ([`fleet::fnv1a`]); the coordinator recomputes it from the deltas
        /// it committed for this worker and refuses the run on mismatch.
        digest: u64,
        /// The hot threshold `fleet::population` resolved from the pushed
        /// config, which this worker's cells ran with. Every worker must
        /// report the same one; the coordinator refuses the run otherwise.
        hot_threshold: u64,
    }
}

/// Coordinator → worker: the resolved configuration (JSON — control
/// plane, sent once) and the cells the worker is to run, in order.
#[derive(Debug)]
pub struct ConfigPush {
    pub config: FleetConfig,
    pub cells: Vec<CellSpec>,
}

/// A fully-decoded frame. [`Frame::decode`] is the one decoder of every
/// frame on both sides of the wire.
#[derive(Debug)]
pub enum Frame {
    Hello(Hello),
    ConfigPush(ConfigPush),
    Progress(ProgressBeat),
    // Boxed: the accumulators dwarf every other variant.
    MetricsDelta {
        head: DeltaHead,
        metrics: Box<FleetMetrics>,
    },
    Drain,
    FinalReport(FinalReport),
}

impl Frame {
    /// Read the next frame off `r` (through `payload`, reused) and decode
    /// it; `Ok(None)` is a clean end-of-stream between frames.
    pub fn read(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<Option<Frame>, WireError> {
        let ftype = read_frame(r, payload)?;
        ftype.map(|t| Frame::decode(t, payload)).transpose()
    }

    /// Decode a received payload of known `ftype`. Never panics on
    /// arbitrary bytes.
    pub fn decode(ftype: FrameType, payload: &[u8]) -> Result<Frame, WireError> {
        Ok(match ftype {
            FrameType::Hello => Frame::Hello(decode_hello(payload)?),
            FrameType::ConfigPush => Frame::ConfigPush(decode_config_push(payload)?),
            FrameType::Progress => Frame::Progress(decode_progress(payload)?),
            FrameType::MetricsDelta => {
                let (head, metrics) = decode_metrics_delta(payload)?;
                Frame::MetricsDelta {
                    head,
                    metrics: Box::new(metrics),
                }
            }
            FrameType::Drain => {
                PayloadReader::new(payload).expect_end("drain carries no payload")?;
                Frame::Drain
            }
            FrameType::FinalReport => Frame::FinalReport(decode_final_report(payload)?),
        })
    }
}

// ---------------------------------------------------------- config push

pub fn encode_config_push(fb: &mut FrameBuf, config: &FleetConfig, cells: &[CellSpec]) {
    fb.begin(FrameType::ConfigPush);
    let json = serde_json::to_string(config).expect("fleet config serializes");
    fb.put_u32(json.len() as u32);
    fb.put_bytes(json.as_bytes());
    fb.put_u32(cells.len() as u32);
    for c in cells {
        fb.put_u64(c.cell);
        fb.put_u64(c.first_user);
        fb.put_u64(c.users);
    }
}

fn decode_config_push(payload: &[u8]) -> Result<ConfigPush, WireError> {
    let mut r = PayloadReader::new(payload);
    let json_len = r.u32("config json length")? as usize;
    let json = r.bytes(json_len, "config json")?;
    let json = std::str::from_utf8(json).map_err(|_| WireError::BadPayload {
        context: "config json is not utf-8",
    })?;
    let config: FleetConfig = serde_json::from_str(json).map_err(|_| WireError::BadPayload {
        context: "config json does not parse",
    })?;
    // A coordinator is not trusted to have range-checked what it pushes: a
    // zero `cell_users` or `window_secs` would panic the worker mid-run.
    let config = config.in_range().map_err(|_| WireError::BadPayload {
        context: "config value out of its option's range",
    })?;
    let n = r.u32("cell count")? as usize;
    // 24 bytes per cell must fit in what remains — checked implicitly by
    // the bounded reads below, so a huge count fails fast as Truncated.
    let mut cells = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        cells.push(CellSpec {
            cell: r.u64("cell id")?,
            first_user: r.u64("cell first_user")?,
            users: r.u64("cell users")?,
        });
    }
    r.expect_end("trailing bytes after config push")?;
    Ok(ConfigPush { config, cells })
}

// -------------------------------------------------------- metrics delta

/// Encode one finished cell's metrics: the head, then the bytes of
/// [`FleetMetrics::to_json`] — the form every digest is computed over,
/// attribution included when it was recorded.
pub fn encode_metrics_delta(fb: &mut FrameBuf, head: DeltaHead, m: &FleetMetrics) {
    fb.begin(FrameType::MetricsDelta);
    fb.put_u32(head.worker_id);
    fb.put_u64(head.cell);
    fb.put_bytes(m.to_json().as_bytes());
}

/// Decode a delta into a staged value. Validation is the JSON decoder's:
/// a histogram no recording could produce, an unknown key or a value out
/// of range is an error like a syntax error is.
fn decode_metrics_delta(payload: &[u8]) -> Result<(DeltaHead, FleetMetrics), WireError> {
    let mut r = PayloadReader::new(payload);
    let head = DeltaHead {
        worker_id: r.u32("delta worker_id")?,
        cell: r.u64("delta cell")?,
    };
    let json = std::str::from_utf8(r.rest()).map_err(|_| WireError::BadPayload {
        context: "metrics json is not utf-8",
    })?;
    let metrics = serde_json::from_str(json).map_err(|_| WireError::BadPayload {
        context: "metrics json does not decode",
    })?;
    Ok((head, metrics))
}

/// Decode `payload` completely, then merge it into `target`. On any
/// error the target is untouched.
pub fn apply_metrics_delta(payload: &[u8], target: &FleetMetrics) -> Result<DeltaHead, WireError> {
    let (head, staged) = decode_metrics_delta(payload)?;
    target.merge_from(&staged);
    Ok(head)
}

// ---------------------------------------------------------------- drain

pub fn encode_drain(fb: &mut FrameBuf) {
    fb.begin(FrameType::Drain);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_apply_leaves_the_target_untouched() {
        let m = FleetMetrics::default();
        m.polls_sent.add(3);
        m.t2a_micros.record(1234);
        let mut fb = FrameBuf::new();
        encode_metrics_delta(
            &mut fb,
            DeltaHead {
                worker_id: 1,
                cell: 9,
            },
            &m,
        );
        let frame = fb.finish().to_vec();
        // Drop the JSON's closing brace: everything before it decodes.
        let mut bad = frame[crate::frame::HEADER_LEN..].to_vec();
        bad.truncate(bad.len() - 1);

        let target = FleetMetrics::default();
        assert!(apply_metrics_delta(&bad, &target).is_err());
        assert_eq!(target, FleetMetrics::default(), "partial apply leaked");
    }
}
