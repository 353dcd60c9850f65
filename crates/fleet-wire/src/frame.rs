//! The frame layer: a length-prefixed, version-tagged binary framing for
//! coordinator↔worker TCP streams (DESIGN.md §13).
//!
//! Every frame is an 8-byte header followed by `len` payload bytes:
//!
//! ```text
//! offset  size  field
//!      0     1  protocol version (PROTOCOL_VERSION)
//!      1     1  frame type       (FrameType as u8)
//!      2     2  flags, little-endian (must be zero)
//!      4     4  payload length, little-endian (≤ MAX_PAYLOAD)
//! ```
//!
//! Two properties matter more than the layout itself:
//!
//! * **Decoding never panics.** Every malformed input — truncated
//!   header or payload, oversized length prefix, unknown version or
//!   frame type, garbage payload bytes — surfaces as a typed
//!   [`WireError`]; a hostile or corrupt peer cannot take the
//!   coordinator down. `fleet-wire/tests/codec.rs` pins this.
//! * **Framing does not allocate per frame.** [`FrameBuf`] encodes
//!   header and payload into one reusable `Vec<u8>` (the worker keeps
//!   one for its cell loop's whole life), and [`read_frame`] reads
//!   payloads into a caller-owned buffer that amortizes to its
//!   high-water mark. What a payload costs to build is the message's
//!   own business (a metrics delta serializes its cell's JSON).

use std::io::{self, Read, Write};

/// Protocol version tag carried in every frame header. Bumped whenever
/// any payload layout changes; peers reject mismatches outright rather
/// than guessing. Version 2: a metrics delta carries the cell's metrics
/// JSON, attribution included, and frame type 5 is retired. Version 3:
/// `FinalReport` carries the hot threshold the worker resolved.
pub const PROTOCOL_VERSION: u8 = 3;

/// Bytes in a frame header.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a payload. The largest legitimate frames are a
/// `ConfigPush` carrying the cell list — 24 bytes per cell, so ~480 KiB
/// for the million-user run's 20k cells — and a metrics delta with every
/// bucket of its eight histograms set, ~420 KiB of JSON. 16 MiB leaves
/// two orders of magnitude of headroom while making a corrupt length
/// prefix (which would otherwise demand up to 4 GiB) fail fast.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// The frame-type table: one row per frame, variant and on-wire byte
/// spelled once. The enum and [`FrameType::from_u8`] are both generated
/// from the rows, so a byte cannot encode as one type and decode as another.
macro_rules! frame_types {
    ($( $(#[$doc:meta])* $name:ident = $byte:literal, )*) => {
        /// Every frame the protocol speaks. The discriminants are the
        /// on-wire bytes — stable, never reused.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum FrameType {
            $( $(#[$doc])* $name = $byte, )*
        }

        impl FrameType {
            /// Decode a wire byte; `None` for unassigned values.
            pub fn from_u8(b: u8) -> Option<FrameType> {
                match b {
                    $( $byte => Some(FrameType::$name), )*
                    _ => None,
                }
            }
        }
    };
}

frame_types! {
    /// Worker → coordinator, once, on connect: who am I.
    Hello = 1,
    /// Coordinator → worker: the resolved run configuration plus the
    /// cells this worker owns (its round-robin deal, or a lost worker's
    /// uncommitted remainder).
    ConfigPush = 2,
    /// Worker → coordinator: the heartbeat that keeps crash detection
    /// from false-tripping on long cells and on the wait for `Drain`.
    Progress = 3,
    /// Worker → coordinator: one finished cell's metrics, attribution
    /// included, exactly mergeable. The coordinator's commit point for
    /// that cell. (5 carried attribution separately in version 1; it is
    /// retired, not reused.)
    MetricsDelta = 4,
    /// Coordinator → worker: all cells are committed; report and exit.
    Drain = 6,
    /// Worker → coordinator: execution facts plus the worker-local
    /// digest for the end-of-run handshake.
    FinalReport = 7,
}

/// Everything that can go wrong on the wire. Decoders return these —
/// they never panic on peer-controlled bytes.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes read timeouts, which the
    /// coordinator treats as a crashed worker).
    Io(io::Error),
    /// The stream ended inside a frame, or a payload declared more bytes
    /// than it contains.
    Truncated { context: &'static str },
    /// A length prefix exceeded [`MAX_PAYLOAD`].
    Oversized { len: u32 },
    /// The header's version byte is not [`PROTOCOL_VERSION`].
    BadVersion { got: u8 },
    /// The header's frame-type byte is unassigned.
    BadFrameType { got: u8 },
    /// The payload decoded but its contents are invalid (bad index,
    /// trailing bytes, malformed JSON, nonzero flags, …).
    BadPayload { context: &'static str },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Truncated { context } => write!(f, "truncated frame: {context}"),
            WireError::Oversized { len } => {
                write!(f, "length prefix {len} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "protocol version {got} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::BadFrameType { got } => write!(f, "unknown frame type {got}"),
            WireError::BadPayload { context } => write!(f, "malformed payload: {context}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        // `read_exact` reports a mid-frame disconnect as UnexpectedEof;
        // that is a truncation fact, not a socket configuration problem.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated {
                context: "stream ended mid-frame",
            }
        } else {
            WireError::Io(e)
        }
    }
}

/// A reusable encode buffer holding exactly one frame (header +
/// payload). `begin` → `put_*` → `finish` yields the bytes to write;
/// the buffer's capacity survives across frames, so steady-state
/// encoding performs zero allocations.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Start a frame of `ftype`; the length field is patched by
    /// [`FrameBuf::finish`].
    pub fn begin(&mut self, ftype: FrameType) {
        self.buf.clear();
        self.buf.push(PROTOCOL_VERSION);
        self.buf.push(ftype as u8);
        self.buf.extend_from_slice(&0u16.to_le_bytes()); // flags
        self.buf.extend_from_slice(&0u32.to_le_bytes()); // len placeholder
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Patch the length field and return the complete frame.
    ///
    /// # Panics
    /// Panics if the payload outgrew [`MAX_PAYLOAD`] — encoder-side
    /// frames are built from our own data, so that is a programming
    /// error, not a peer-input error.
    pub fn finish(&mut self) -> &[u8] {
        let len = self.buf.len() - HEADER_LEN;
        assert!(
            len <= MAX_PAYLOAD as usize,
            "encoded frame exceeds MAX_PAYLOAD"
        );
        self.buf[4..8].copy_from_slice(&(len as u32).to_le_bytes());
        &self.buf
    }
}

/// Read one frame into `payload` (cleared and reused). Returns the frame
/// type, or `Ok(None)` on a clean end-of-stream *between* frames — a
/// disconnect inside a frame is [`WireError::Truncated`].
pub fn read_frame(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
) -> Result<Option<FrameType>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "peer hung up between frames" (clean, Ok(None)) from
    // "peer hung up inside a header" (truncation): probe one byte first.
    match r.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            return read_frame(r, payload);
        }
        Err(e) => return Err(WireError::Io(e)),
    }
    r.read_exact(&mut header[1..])?;

    if header[0] != PROTOCOL_VERSION {
        return Err(WireError::BadVersion { got: header[0] });
    }
    let ftype = FrameType::from_u8(header[1]).ok_or(WireError::BadFrameType { got: header[1] })?;
    if u16::from_le_bytes([header[2], header[3]]) != 0 {
        return Err(WireError::BadPayload {
            context: "nonzero flags in frame header",
        });
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized { len });
    }
    payload.clear();
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    Ok(Some(ftype))
}

/// Write one finished frame.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), WireError> {
    w.write_all(frame).map_err(WireError::Io)
}

/// A bounds-checked cursor over a received payload; every getter returns
/// [`WireError::Truncated`] instead of panicking when the payload runs
/// short.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Truncated { context })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    pub fn u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, context)
    }

    /// Everything not yet read, for a payload that ends in one body.
    pub(crate) fn rest(self) -> &'a [u8] {
        // `take` never moves `pos` past the end.
        &self.buf[self.pos..]
    }

    /// Assert the payload is fully consumed — trailing bytes mean the
    /// peer and we disagree about the layout, which must not pass
    /// silently.
    pub fn expect_end(&self, context: &'static str) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadPayload { context })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_types_round_trip_and_unknowns_are_rejected() {
        for t in [
            FrameType::Hello,
            FrameType::ConfigPush,
            FrameType::Progress,
            FrameType::MetricsDelta,
            FrameType::Drain,
            FrameType::FinalReport,
        ] {
            assert_eq!(FrameType::from_u8(t as u8), Some(t));
        }
        assert_eq!(FrameType::from_u8(0), None);
        assert_eq!(FrameType::from_u8(5), None, "retired in version 2");
        assert_eq!(FrameType::from_u8(8), None);
        assert_eq!(FrameType::from_u8(255), None);
    }

    #[test]
    fn encode_read_round_trip_reuses_buffers() {
        let mut fb = FrameBuf::new();
        fb.begin(FrameType::Progress);
        fb.put_u32(7);
        fb.put_u64(0xdead_beef);
        let frame = fb.finish().to_vec();

        let mut payload = Vec::new();
        let mut cursor = io::Cursor::new(&frame);
        let ftype = read_frame(&mut cursor, &mut payload).unwrap().unwrap();
        assert_eq!(ftype, FrameType::Progress);
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.u32("a").unwrap(), 7);
        assert_eq!(r.u64("b").unwrap(), 0xdead_beef);
        r.expect_end("tail").unwrap();

        // Clean EOF between frames is Ok(None), not an error.
        assert!(read_frame(&mut cursor, &mut payload).unwrap().is_none());
    }

    #[test]
    fn payload_reader_reports_truncation_not_panic() {
        let mut r = PayloadReader::new(&[1, 2, 3]);
        assert_eq!(r.u16("head").unwrap(), 0x0201);
        assert!(matches!(r.u64("tail"), Err(WireError::Truncated { .. })));
    }
}
