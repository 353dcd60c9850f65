//! Typed payloads for every [`FrameType`], with allocation-free
//! encoding and **apply-style** decoding.
//!
//! The fixed-layout control messages ([`Hello`], [`ProgressBeat`],
//! [`FinalReport`]) are each declared once, as the rows of a
//! `wire_message!` table that generates the struct, the encoder and the
//! decoder; worker and coordinator both decode control frames through
//! [`Frame::decode`], the decoder `tests/codec.rs` attacks.
//!
//! The hot-path frames (`MetricsDelta`, `AttributionDelta`) never build
//! an intermediate message object: the worker encodes straight out of
//! its per-cell [`FleetMetrics`] accumulator via the canonical
//! `wire_counters()` / `wire_histograms()` arrays, and the coordinator
//! decodes straight *into* its merge targets with
//! [`apply_metrics_delta`] / [`apply_attribution_delta`]. Both
//! directions walk the same accessor arrays, so the layout cannot drift
//! between encoder and decoder.
//!
//! Apply functions are **transactional**: every payload is fully
//! validated (bounds, ordering, summary consistency) before the first
//! merge touches the target. A malformed frame therefore leaves the
//! coordinator's accumulators untouched — which matters because the
//! rejoin path re-runs uncommitted cells, and a half-applied delta
//! would double-count.

use crate::frame::{read_frame, FrameBuf, FrameType, PayloadReader, WireError};
use fleet::shard::CellSpec;
use fleet::{AttributionStages, FleetConfig, FleetMetrics, Histogram};
use std::io::Read;

/// `worker_id` + `cell`: the routing prefix shared by both delta frames.
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
    }
}

/// Coordinator → worker: the resolved configuration (JSON — control
/// plane, sent once) and the cells the worker is to run, in order.
#[derive(Debug)]
pub struct ConfigPush {
    pub config: FleetConfig,
    pub cells: Vec<CellSpec>,
}

/// A fully-decoded frame. [`Frame::decode`] is the one decoder of the
/// control frames (`Hello`, `ConfigPush`, `Progress`, `Drain`,
/// `FinalReport`) on both sides of the wire. The coordinator applies the
/// two delta frames straight into its accumulators with the `apply_*`
/// functions instead; their owned form here is for tests and tooling, and
/// decodes through the same `apply_*` code.
#[derive(Debug)]
pub enum Frame {
    Hello(Hello),
    ConfigPush(ConfigPush),
    Progress(ProgressBeat),
    // Boxed: the accumulators dwarf every other variant, and this owned
    // form travels through test helpers by value.
    MetricsDelta {
        head: DeltaHead,
        metrics: Box<FleetMetrics>,
    },
    AttributionDelta {
        head: DeltaHead,
        stages: Box<AttributionStages>,
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
                let metrics = Box::new(FleetMetrics::default());
                let head = apply_metrics_delta(payload, &metrics)?;
                Frame::MetricsDelta { head, metrics }
            }
            FrameType::AttributionDelta => {
                let stages = Box::new(AttributionStages::default());
                let head = apply_attribution_delta(payload, &stages)?;
                Frame::AttributionDelta { head, stages }
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

// ------------------------------------------------------------ histogram

/// Histogram wire form: `count:u64`, then — only when nonzero —
/// `sum:u64 min:u64 max:u64 nbuckets:u16 (index:u16 count:u64)*`, with
/// bucket indices strictly increasing and their counts summing to
/// `count`. Walked directly off the atomics; no snapshot allocation.
fn put_histogram(fb: &mut FrameBuf, h: &Histogram) {
    let count = h.count();
    fb.put_u64(count);
    if count == 0 {
        return;
    }
    fb.put_u64(h.sum());
    fb.put_u64(h.min());
    fb.put_u64(h.max());
    let mut nonzero = 0u16;
    h.for_each_bucket(|_, _| nonzero += 1);
    fb.put_u16(nonzero);
    h.for_each_bucket(|i, c| {
        fb.put_u16(i as u16);
        fb.put_u64(c);
    });
}

/// One validate-or-apply walk over a histogram section. With
/// `target: None` nothing is mutated (the validation pass); with a
/// target, buckets and summary merge into it. Both passes run the same
/// code, so what was validated is exactly what gets applied.
fn walk_histogram(r: &mut PayloadReader<'_>, target: Option<&Histogram>) -> Result<(), WireError> {
    let count = r.u64("histogram count")?;
    if count == 0 {
        return Ok(());
    }
    let sum = r.u64("histogram sum")?;
    let min = r.u64("histogram min")?;
    let max = r.u64("histogram max")?;
    if min > max {
        return Err(WireError::BadPayload {
            context: "histogram min exceeds max",
        });
    }
    let nbuckets = r.u16("histogram bucket count")?;
    let mut last: Option<u16> = None;
    let mut total = 0u64;
    for _ in 0..nbuckets {
        let idx = r.u16("bucket index")?;
        let n = r.u64("bucket count")?;
        if (idx as usize) >= fleet::metrics::BUCKETS {
            return Err(WireError::BadPayload {
                context: "bucket index out of range",
            });
        }
        if last.is_some_and(|l| idx <= l) {
            return Err(WireError::BadPayload {
                context: "bucket indices not strictly increasing",
            });
        }
        if n == 0 {
            return Err(WireError::BadPayload {
                context: "zero-count bucket entry",
            });
        }
        last = Some(idx);
        total = total.checked_add(n).ok_or(WireError::BadPayload {
            context: "bucket counts overflow",
        })?;
        if let Some(h) = target {
            let ok = h.merge_bucket(idx as usize, n);
            debug_assert!(ok, "validated index rejected by merge_bucket");
        }
    }
    if total != count {
        return Err(WireError::BadPayload {
            context: "bucket counts disagree with summary count",
        });
    }
    if let Some(h) = target {
        h.merge_summary(count, sum, min, max);
    }
    Ok(())
}

// -------------------------------------------------------- metrics delta

// The counter section spends one byte on the entry count and one on each
// index; the `as u8` casts in the encoder are exact only under this bound.
const _: () = assert!(FleetMetrics::N_COUNTERS <= u8::MAX as usize);

/// Encode one finished cell's metrics. Counter section: `n:u8`, then `n`
/// `(index:u8, value:u64)` pairs over the nonzero entries of
/// [`FleetMetrics::wire_counters`], indices strictly increasing; then
/// the two [`FleetMetrics::wire_histograms`] sections.
pub fn encode_metrics_delta(fb: &mut FrameBuf, head: DeltaHead, m: &FleetMetrics) {
    fb.begin(FrameType::MetricsDelta);
    fb.put_u32(head.worker_id);
    fb.put_u64(head.cell);
    let counters = m.wire_counters();
    let nonzero = counters.iter().filter(|c| c.get() > 0).count() as u8;
    fb.put_u8(nonzero);
    for (i, c) in counters.iter().enumerate() {
        let v = c.get();
        if v > 0 {
            fb.put_u8(i as u8);
            fb.put_u64(v);
        }
    }
    for h in m.wire_histograms() {
        put_histogram(fb, h);
    }
}

fn walk_metrics_delta(
    payload: &[u8],
    target: Option<&FleetMetrics>,
) -> Result<DeltaHead, WireError> {
    let mut r = PayloadReader::new(payload);
    let head = DeltaHead {
        worker_id: r.u32("delta worker_id")?,
        cell: r.u64("delta cell")?,
    };
    let n = r.u8("counter count")?;
    let mut last: Option<u8> = None;
    for _ in 0..n {
        let idx = r.u8("counter index")?;
        let v = r.u64("counter value")?;
        // A frame from a build with a newer counter set fails loudly here
        // instead of merging into the wrong instrument.
        if (idx as usize) >= FleetMetrics::N_COUNTERS {
            return Err(WireError::BadPayload {
                context: "counter index out of range",
            });
        }
        if last.is_some_and(|l| idx <= l) {
            return Err(WireError::BadPayload {
                context: "counter indices not strictly increasing",
            });
        }
        if v == 0 {
            return Err(WireError::BadPayload {
                context: "zero-value counter entry",
            });
        }
        last = Some(idx);
        if let Some(m) = target {
            m.wire_counters()[idx as usize].add(v);
        }
    }
    let n_hists = target.map_or(2, |m| m.wire_histograms().len());
    for i in 0..n_hists {
        walk_histogram(&mut r, target.map(|m| m.wire_histograms()[i]))?;
    }
    r.expect_end("trailing bytes after metrics delta")?;
    Ok(head)
}

/// Validate `payload` completely, then merge it into `target`. On any
/// error the target is untouched.
pub fn apply_metrics_delta(payload: &[u8], target: &FleetMetrics) -> Result<DeltaHead, WireError> {
    walk_metrics_delta(payload, None)?;
    walk_metrics_delta(payload, Some(target))
}

/// Validate without applying — the coordinator's first look at a delta
/// whose commit is deferred (and the cheap path for duplicates).
pub fn validate_metrics_delta(payload: &[u8]) -> Result<DeltaHead, WireError> {
    walk_metrics_delta(payload, None)
}

// ---------------------------------------------------- attribution delta

/// Encode one finished cell's per-stage attribution: `unmatched:u64`,
/// then the six [`AttributionStages::wire_histograms`] sections.
pub fn encode_attribution_delta(fb: &mut FrameBuf, head: DeltaHead, a: &AttributionStages) {
    fb.begin(FrameType::AttributionDelta);
    fb.put_u32(head.worker_id);
    fb.put_u64(head.cell);
    fb.put_u64(a.unmatched.get());
    for h in a.wire_histograms() {
        put_histogram(fb, h);
    }
}

fn walk_attribution_delta(
    payload: &[u8],
    target: Option<&AttributionStages>,
) -> Result<DeltaHead, WireError> {
    let mut r = PayloadReader::new(payload);
    let head = DeltaHead {
        worker_id: r.u32("attr worker_id")?,
        cell: r.u64("attr cell")?,
    };
    let unmatched = r.u64("attr unmatched")?;
    if let Some(a) = target {
        a.unmatched.add(unmatched);
    }
    let n_hists = target.map_or(6, |a| a.wire_histograms().len());
    for i in 0..n_hists {
        walk_histogram(&mut r, target.map(|a| a.wire_histograms()[i]))?;
    }
    r.expect_end("trailing bytes after attribution delta")?;
    Ok(head)
}

/// Validate `payload` completely, then merge it into `target`. On any
/// error the target is untouched.
pub fn apply_attribution_delta(
    payload: &[u8],
    target: &AttributionStages,
) -> Result<DeltaHead, WireError> {
    walk_attribution_delta(payload, None)?;
    walk_attribution_delta(payload, Some(target))
}

/// Validate without applying — used when the coordinator stashes an
/// attribution payload until its cell's `MetricsDelta` commits.
pub fn validate_attribution_delta(payload: &[u8]) -> Result<DeltaHead, WireError> {
    walk_attribution_delta(payload, None)
}

// ---------------------------------------------------------------- drain

pub fn encode_drain(fb: &mut FrameBuf) {
    fb.begin(FrameType::Drain);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_counter_width_matches_the_canonical_array() {
        // The counter width is `FleetMetrics::N_COUNTERS` by type; the
        // histogram counts the validation pass assumes are checked here.
        assert_eq!(FleetMetrics::default().wire_histograms().len(), 2);
        assert_eq!(AttributionStages::default().wire_histograms().len(), 6);
    }

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
        // Corrupt the tail so validation fails after the counters parse.
        let mut bad = frame[crate::frame::HEADER_LEN..].to_vec();
        bad.truncate(bad.len() - 1);

        let target = FleetMetrics::default();
        assert!(apply_metrics_delta(&bad, &target).is_err());
        assert_eq!(target, FleetMetrics::default(), "partial apply leaked");
    }
}
