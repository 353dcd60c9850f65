//! # fleet-wire — distributed fleet execution over a framed TCP protocol
//!
//! The fleet crate proves the repo's central determinism claim across
//! *threads*: merged metrics, and therefore the report digest, are
//! invariant to how cells are dealt across shards. This crate extends
//! the same claim across **processes**: `ifttt-lab fleet --distributed N`
//! spawns `fleet-shard` workers, deals the cells across them round-robin
//! (the in-process runner's deal) over a version-tagged, length-prefixed
//! TCP frame protocol, streams back per-cell metric deltas, and
//! assembles a [`fleet::FleetReport`] whose
//! digest is **byte-for-byte equal** to the in-process run's
//! (`fleet-wire/tests/distributed.rs` pins this against the golden
//! digests in `fleet::test_support`).
//!
//! The layering, bottom up:
//!
//! * [`frame`] — the 8-byte header (version, type, flags, length), the
//!   typed [`frame::WireError`], reusable encode/decode buffers. Never
//!   panics on peer bytes; never allocates per frame at steady state.
//! * [`messages`] — typed payloads. The fixed-layout control messages
//!   are one row list each (struct, encoder and decoder generated); a
//!   metrics delta carries its cell's `FleetMetrics` JSON, the form the
//!   digest is computed over. Both sides decode every frame through
//!   [`Frame::decode`], and a delta is decoded whole into a staged value
//!   before the first merge, so a bad one applies nothing.
//! * [`worker`] — the `fleet-shard` runtime: a cell loop that encodes
//!   into one buffer and writes its own frames (the blocking socket
//!   write is the backpressure), a heartbeat thread beside it sharing
//!   the write half under one lock, chaos hooks.
//! * [`coordinator`] — spawn/accept/push one worker at a time; reader
//!   threads that only forward frames; and a main loop that owns the
//!   commit state machine: sender and ownership checks, exactly-once
//!   cell commit, deterministic rejoin (a lost worker's uncommitted
//!   cells re-run on a replacement), the drain and per-worker digest
//!   handshake. Crash detection is by EOF or read timeout; alloc
//!   accounting is worker-summed.
//!
//! A thread exists only where something blocks independently: one reader
//! per socket on the coordinator, the heartbeat on the worker. All state
//! has one owning thread; the only lock is the worker's write half.
//!
//! DESIGN.md §13 documents the protocol and the determinism argument.

pub mod coordinator;
pub mod frame;
pub mod messages;
pub mod worker;

pub use coordinator::{
    run_fleet_distributed, run_fleet_distributed_with_progress, DistributedConfig,
    DistributedError, DistributedOutcome, WorkerChaos,
};
pub use frame::{FrameBuf, FrameType, WireError, MAX_PAYLOAD, PROTOCOL_VERSION};
pub use messages::{FinalReport, Frame, Hello, ProgressBeat};
