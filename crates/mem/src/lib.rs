//! Hot-path memory primitives shared by the simulation kernel and the
//! engine (DESIGN.md §12).
//!
//! Three things live here, all dependency-free:
//!
//! * [`Slab`] / [`Arena`] — generation-checked slot arenas with a LIFO
//!   free list. The engine's in-flight tables (runs, pending
//!   batches) and the kernel's request table hand out *handles*
//!   instead of hashing sequence numbers: the per-event lookup is an
//!   index and a generation compare, not a SipHash probe.
//! * [`FxHasher`] and the [`FxHashMap`] / [`FxHashSet`] aliases — the
//!   rustc-hash multiply-rotate hasher for interior maps that must stay
//!   maps. Iteration order of these maps is never observable in reports
//!   or digests (the same rule that allows symbol interning), so the
//!   hasher swap is determinism-neutral.
//! * the global allocator of every process that links this crate: small
//!   blocks recycle through a per-thread cache in front of `malloc`
//!   (§12.5). With the `alloc-count` feature it also counts
//!   allocations, so allocations/event is a tracked regression metric
//!   (`BENCH_alloc.json`), not a guess ([`alloc_counts`]).

mod alloc;
mod fx;
mod slab;

pub use alloc::alloc_counts;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use slab::{Arena, Handle, Slab};
