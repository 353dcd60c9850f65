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
//! * the `alloc-count` feature — a counting [`std::alloc::GlobalAlloc`]
//!   wrapper so allocations/event is a tracked regression metric
//!   (`BENCH_alloc.json`), not a guess.

mod fx;
mod slab;

pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use slab::{Arena, Handle, Slab};

#[cfg(feature = "alloc-count")]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// Forwards to the system allocator, counting every allocation path
    /// that returns fresh memory (alloc, alloc_zeroed, and growth via
    /// realloc). Deallocations are not counted: the metric is "how often
    /// did we go to the allocator", not live heap.
    pub struct CountingAlloc;

    // SAFETY: pure forwarding to `System`; the counters are side effects.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn counts() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
}

/// Cumulative `(allocations, bytes requested)` since process start, or
/// `None` when the `alloc-count` feature is off. Callers diff two
/// snapshots around a region of interest.
pub fn alloc_counts() -> Option<(u64, u64)> {
    #[cfg(feature = "alloc-count")]
    {
        Some(alloc_count::counts())
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        None
    }
}
