//! The process's global allocator: a per-thread cache of small blocks in
//! front of the system `malloc` (DESIGN.md §12.5), with the optional
//! `alloc-count` counters folded in.
//!
//! A small request — at most [`MAX_SMALL`] bytes, aligned to at most 16 —
//! is rounded up to its *class*, one of glibc's own chunk sizes
//! (16k + 8 usable bytes, 24 to 1,032). A block of a class is always
//! obtained from `System` at exactly the class size, so it is the chunk
//! `malloc` would have returned anyway. When it is freed it goes onto the
//! freeing thread's list for its class, threaded through the block
//! itself, until the thread caches [`CACHE_BYTES`]; the next request of
//! the class pops it. Every cached block is a real `malloc` chunk, so any
//! thread may cache or `free` any block and no lock is needed. Everything
//! else — larger sizes, larger alignments — goes straight to `System`.
//!
//! At thread exit the cache's destructor hands its blocks back to
//! `System`. std registers that destructor on a thread's first allocation;
//! on Linux with glibc it does so through `__cxa_thread_atexit_impl`,
//! which allocates with C's `malloc`, not through this allocator.
//!
//! All of the crate's `unsafe` allocator code is in this module.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr;

/// The largest request served from a class: glibc's usable size of a
/// 1,040-byte chunk.
const MAX_SMALL: usize = 1_032;

/// The most bytes (summed class sizes) one thread keeps cached. About
/// 1.5× the live heap of one running 50-user cell; the sweep behind the
/// number is in DESIGN.md §12.5.
const CACHE_BYTES: usize = 512 * 1024;

/// Classes 24, 40, …, 1,032.
const CLASSES: usize = (MAX_SMALL - 8) / 16;

/// Every class block has this alignment: `malloc`'s own.
const BLOCK_ALIGN: usize = 16;

/// The class of a request, or `None` when it goes straight to `System`.
#[inline]
fn class_of(layout: Layout) -> Option<usize> {
    if layout.size() > MAX_SMALL || layout.align() > BLOCK_ALIGN {
        return None;
    }
    Some(((layout.size() + 7) >> 4).max(1) - 1)
}

/// Usable bytes of a block of class `class`.
#[inline]
const fn class_size(class: usize) -> usize {
    16 * (class + 1) + 8
}

#[inline]
fn class_layout(class: usize) -> Layout {
    // SAFETY: the size is at least 24 and at most `MAX_SMALL`, the
    // alignment a power of two well below it, so the layout is valid.
    unsafe { Layout::from_size_align_unchecked(class_size(class), BLOCK_ALIGN) }
}

/// One thread's free lists: the head of each class's list, and the bytes
/// cached over all of them. The first word of a cached block points to
/// the next block of its list.
struct Cache {
    heads: [Cell<*mut u8>; CLASSES],
    bytes: Cell<usize>,
    /// Set by the tests that watch this thread's cache empty at exit.
    #[cfg(test)]
    watched: Cell<bool>,
}

impl Cache {
    /// Pop a block of `class`, or null when its list is empty.
    #[inline]
    fn pop(&self, class: usize) -> *mut u8 {
        let head = self.heads[class].get();
        if !head.is_null() {
            // SAFETY: a non-null head is a cached block of at least 24
            // bytes, 16-aligned, owned by this list alone; its first word
            // was written by `push`.
            self.heads[class].set(unsafe { head.cast::<*mut u8>().read() });
            self.bytes.set(self.bytes.get() - class_size(class));
        }
        head
    }

    /// Cache `block` of `class`, or return `false` when the cache is full.
    #[inline]
    fn push(&self, block: *mut u8, class: usize) -> bool {
        let bytes = self.bytes.get() + class_size(class);
        if bytes > CACHE_BYTES {
            return false;
        }
        // SAFETY: the caller gives up `block`, a live block of at least
        // `class_size(class)` ≥ 24 bytes aligned to 16, so its first word
        // is ours to write.
        unsafe { block.cast::<*mut u8>().write(self.heads[class].get()) };
        self.heads[class].set(block);
        self.bytes.set(bytes);
        true
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        #[cfg(test)]
        let held = self.bytes.get();
        for class in 0..CLASSES {
            loop {
                let block = self.pop(class);
                if block.is_null() {
                    break;
                }
                // SAFETY: every cached block came from `System` with this
                // class's layout, and popping it removed it from the list.
                unsafe { System.dealloc(block, class_layout(class)) };
            }
        }
        #[cfg(test)]
        if self.watched.get() {
            tests::record_exit(held, self.bytes.get());
        }
    }
}

thread_local! {
    static CACHE: Cache = const {
        Cache {
            heads: [const { Cell::new(ptr::null_mut()) }; CLASSES],
            bytes: Cell::new(0),
            #[cfg(test)]
            watched: Cell::new(false),
        }
    };
}

/// A block of `class`: popped from this thread's cache, else fresh from
/// `System` (also once the thread's cache has been destroyed at exit).
#[inline]
fn alloc_small(class: usize) -> *mut u8 {
    let block = CACHE.try_with(|c| c.pop(class)).unwrap_or(ptr::null_mut());
    if !block.is_null() {
        return block;
    }
    // SAFETY: `class_layout` has a non-zero size.
    unsafe { System.alloc(class_layout(class)) }
}

/// Give back `block` of `class`: to this thread's cache while it has room,
/// else to `System`.
///
/// # Safety
/// `block` must be a live block of `class` (any thread's), not used again.
#[inline]
unsafe fn dealloc_small(block: *mut u8, class: usize) {
    if !CACHE.try_with(|c| c.push(block, class)).unwrap_or(false) {
        // SAFETY: the block came from `System` with this class's layout
        // (directly, or via `realloc` of a block of the same class).
        unsafe { System.dealloc(block, class_layout(class)) };
    }
}

/// The global allocator every process linking `mem` runs on. With the
/// `alloc-count` feature it also counts each `alloc`, `alloc_zeroed` and
/// `realloc` call and the bytes each asked for (a `realloc`'s growth
/// only). Deallocations are not counted: the metric is how often we go
/// to the allocator, not live heap.
struct CachingAlloc;

#[global_allocator]
static GLOBAL: CachingAlloc = CachingAlloc;

// SAFETY: every block handed out is either a `System` block of the
// caller's layout (`class_of` is `None`) or a `System` block of the class
// layout, which is at least as large and as aligned as the request. A
// layout's class is a function of the layout alone, so `dealloc` and
// `realloc` (which receive the layout the block was allocated with) find
// the same path the allocation took.
unsafe impl GlobalAlloc for CachingAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as u64);
        match class_of(layout) {
            Some(class) => alloc_small(class),
            // SAFETY: the caller's layout, passed through.
            None => unsafe { System.alloc(layout) },
        }
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as u64);
        match class_of(layout) {
            Some(class) => {
                let block = alloc_small(class);
                if !block.is_null() {
                    // SAFETY: the block has at least `layout.size()` bytes.
                    unsafe { ptr::write_bytes(block, 0, layout.size()) };
                }
                block
            }
            // SAFETY: the caller's layout, passed through (a large zeroed
            // buffer still comes from `calloc`).
            None => unsafe { System.alloc_zeroed(layout) },
        }
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        match class_of(layout) {
            // SAFETY: allocated by `alloc_small(class)` for this layout.
            Some(class) => unsafe { dealloc_small(ptr, class) },
            // SAFETY: allocated by `System` with this layout.
            None => unsafe { System.dealloc(ptr, layout) },
        }
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()) as u64);
        // SAFETY: the caller guarantees `new_size`, rounded up to
        // `layout.align()`, does not overflow `isize`.
        let new_layout = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        match (class_of(layout), class_of(new_layout)) {
            (Some(old), Some(new)) if old == new => ptr,
            // SAFETY: a `System` block of `layout`, resized by `System`.
            (None, None) => unsafe { System.realloc(ptr, layout, new_size) },
            (old, new) => {
                let fresh = match new {
                    Some(class) => alloc_small(class),
                    // SAFETY: `new_layout` is valid (see above), non-zero.
                    None => unsafe { System.alloc(new_layout) },
                };
                if !fresh.is_null() {
                    // SAFETY: both blocks hold at least the bytes copied,
                    // and a fresh block never overlaps a live one.
                    unsafe {
                        ptr::copy_nonoverlapping(ptr, fresh, layout.size().min(new_size));
                        match old {
                            Some(class) => dealloc_small(ptr, class),
                            None => System.dealloc(ptr, layout),
                        }
                    }
                }
                fresh
            }
        }
    }
}

#[cfg(feature = "alloc-count")]
mod counters {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static BYTES: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub fn count(bytes: u64) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

#[cfg(feature = "alloc-count")]
use counters::count;

#[cfg(not(feature = "alloc-count"))]
#[inline(always)]
fn count(_bytes: u64) {}

/// Cumulative `(allocations, bytes requested)` since process start, or
/// `None` when the `alloc-count` feature is off. Callers diff two
/// snapshots around a region of interest.
pub fn alloc_counts() -> Option<(u64, u64)> {
    #[cfg(feature = "alloc-count")]
    {
        use std::sync::atomic::Ordering;
        Some((
            counters::ALLOCS.load(Ordering::Relaxed),
            counters::BYTES.load(Ordering::Relaxed),
        ))
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// What the watched thread's cache held when it was dropped, and what
    /// it still held after draining (`usize::MAX` until it exits).
    static EXIT_HELD: AtomicUsize = AtomicUsize::new(usize::MAX);
    static EXIT_LEFT: AtomicUsize = AtomicUsize::new(usize::MAX);

    pub(super) fn record_exit(held: usize, left: usize) {
        EXIT_HELD.store(held, Ordering::SeqCst);
        EXIT_LEFT.store(left, Ordering::SeqCst);
    }

    fn cached_bytes() -> usize {
        CACHE.with(|c| c.bytes.get())
    }

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    /// Every class boundary, one past it, and sizes beyond the classes.
    fn boundary_sizes() -> Vec<usize> {
        let mut sizes = vec![1, 8, 9, 16, 17];
        for class in 0..CLASSES {
            sizes.extend([class_size(class), class_size(class) + 1]);
        }
        sizes.extend([2_048, 4_097, 70_000]);
        sizes
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn usable_size(block: *mut u8) -> usize {
        extern "C" {
            fn malloc_usable_size(ptr: *mut u8) -> usize;
        }
        // SAFETY: `block` is a live `malloc` chunk.
        unsafe { malloc_usable_size(block) }
    }

    #[test]
    fn classes_are_glibc_chunk_sizes() {
        assert_eq!(CLASSES, 64);
        assert_eq!(class_size(0), 24);
        assert_eq!(class_size(CLASSES - 1), MAX_SMALL);
        for size in 1..=MAX_SMALL + 1 {
            match class_of(layout(size, 8)) {
                Some(class) => {
                    assert!(class_size(class) >= size, "size {size} in class {class}");
                    assert!(class == 0 || class_size(class - 1) < size, "size {size}");
                }
                None => assert_eq!(size, MAX_SMALL + 1),
            }
        }
        assert_eq!(class_of(layout(1, 32)), None);
    }

    #[test]
    fn every_boundary_at_every_alignment() {
        for size in boundary_sizes() {
            for align in [1, 2, 4, 8, 16, 32] {
                let l = layout(size, align);
                // SAFETY: a valid non-zero layout, freed below with it.
                unsafe {
                    let block = GLOBAL.alloc(l);
                    assert!(!block.is_null());
                    assert_eq!(block as usize % align, 0, "size {size} align {align}");
                    if let Some(class) = class_of(l) {
                        assert_eq!(block as usize % BLOCK_ALIGN, 0);
                        #[cfg(all(target_os = "linux", target_env = "gnu"))]
                        assert_eq!(usable_size(block), class_size(class), "size {size}");
                    }
                    ptr::write_bytes(block, 0xA5, size);
                    assert_eq!(*block.add(size - 1), 0xA5);
                    GLOBAL.dealloc(block, l);
                    // The same layout pops the block just cached.
                    let again = GLOBAL.alloc(l);
                    if class_of(l).is_some() {
                        assert_eq!(again, block, "size {size} align {align}");
                    }
                    GLOBAL.dealloc(again, l);
                }
            }
        }
    }

    /// Allocate `size` bytes at `align` filled with `byte`.
    unsafe fn filled(size: usize, align: usize, byte: u8) -> *mut u8 {
        // SAFETY: a valid non-zero layout; the block has `size` bytes.
        unsafe {
            let block = GLOBAL.alloc(layout(size, align));
            assert!(!block.is_null());
            ptr::write_bytes(block, byte, size);
            block
        }
    }

    unsafe fn all_bytes_are(block: *const u8, len: usize, byte: u8) -> bool {
        // SAFETY: the caller's block has at least `len` initialised bytes.
        unsafe {
            std::slice::from_raw_parts(block, len)
                .iter()
                .all(|&b| b == byte)
        }
    }

    #[test]
    fn realloc_within_a_class_keeps_the_pointer_and_bytes() {
        for (from, to) in [(1, 24), (24, 17), (25, 40), (1_017, 1_032), (1_032, 1_020)] {
            // SAFETY: valid layouts; each block is freed with its layout.
            unsafe {
                let block = filled(from, 8, 0x3C);
                let grown = GLOBAL.realloc(block, layout(from, 8), to);
                assert_eq!(grown, block, "{from} -> {to}");
                assert!(all_bytes_are(grown, from.min(to), 0x3C));
                GLOBAL.dealloc(grown, layout(to, 8));
            }
        }
    }

    #[test]
    fn realloc_across_classes_keeps_the_common_prefix() {
        let sizes = [1, 24, 25, 200, 1_032, 1_033, 5_000, 100_000];
        for &from in &sizes {
            for &to in &sizes {
                for align in [8, 16, 32] {
                    // SAFETY: valid layouts; each block is freed with its
                    // layout after the realloc.
                    unsafe {
                        let block = filled(from, align, 0x5A);
                        let moved = GLOBAL.realloc(block, layout(from, align), to);
                        assert!(!moved.is_null());
                        assert_eq!(moved as usize % align, 0);
                        assert!(all_bytes_are(moved, from.min(to), 0x5A), "{from} -> {to}");
                        ptr::write_bytes(moved, 0x11, to);
                        GLOBAL.dealloc(moved, layout(to, align));
                    }
                }
            }
        }
    }

    #[test]
    fn alloc_zeroed_clears_a_recycled_block() {
        for size in [1, 24, 100, 1_032, 1_033, 64 * 1024] {
            // SAFETY: valid layouts, each block freed with its layout.
            unsafe {
                let dirty = filled(size, 16, 0xFF);
                GLOBAL.dealloc(dirty, layout(size, 16));
                let zeroed = GLOBAL.alloc_zeroed(layout(size, 16));
                if size <= MAX_SMALL {
                    assert_eq!(zeroed, dirty, "a small block is recycled");
                }
                assert!(all_bytes_are(zeroed, size, 0), "size {size}");
                GLOBAL.dealloc(zeroed, layout(size, 16));
            }
        }
    }

    #[test]
    fn a_block_freed_on_another_thread_is_reused_there() {
        let l = layout(300, 8);
        // SAFETY: a valid layout; the block crosses threads as an address.
        let block = unsafe { filled(300, 8, 7) } as usize;
        std::thread::spawn(move || {
            // SAFETY: the block is live and given up here, then reused by
            // the same layout on this thread, and freed.
            unsafe {
                GLOBAL.dealloc(block as *mut u8, l);
                let again = GLOBAL.alloc(l);
                assert_eq!(again as usize, block);
                GLOBAL.dealloc(again, l);
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_thread_may_allocate_first_thing() {
        let l = layout(48, 8);
        let block = std::thread::spawn(move || {
            // SAFETY: valid layout; the block is cached, popped again and
            // handed back to the spawning thread, which frees it.
            unsafe {
                let first = GLOBAL.alloc(l);
                assert!(!first.is_null());
                GLOBAL.dealloc(first, l);
                assert!(cached_bytes() >= class_size(class_of(l).unwrap()));
                let again = GLOBAL.alloc(l);
                assert_eq!(again, first);
                again as usize
            }
        })
        .join()
        .unwrap();
        // SAFETY: the block is live and of this layout.
        unsafe { GLOBAL.dealloc(block as *mut u8, l) };
    }

    /// The cache stops at `CACHE_BYTES`, and thread exit hands everything
    /// it held back to `System`.
    #[test]
    fn the_cache_is_capped_and_emptied_at_thread_exit() {
        let held = std::thread::spawn(|| {
            CACHE.with(|c| c.watched.set(true));
            let l = layout(MAX_SMALL, 16);
            let n = CACHE_BYTES / MAX_SMALL + 10;
            let blocks: Vec<usize> = (0..n)
                // SAFETY: a valid layout.
                .map(|_| unsafe { GLOBAL.alloc(l) } as usize)
                .collect();
            let before = cached_bytes();
            for &block in &blocks {
                // SAFETY: each block is live, of this layout, freed once.
                unsafe { GLOBAL.dealloc(block as *mut u8, l) };
            }
            drop(blocks);
            let held = cached_bytes();
            assert!(held <= CACHE_BYTES, "{held}");
            assert!(held - before > CACHE_BYTES - before - MAX_SMALL, "{held}");
            held
        })
        .join()
        .unwrap();
        // The thread's own teardown may free a few more small blocks.
        let at_exit = EXIT_HELD.load(Ordering::SeqCst);
        assert!(
            (held..=CACHE_BYTES).contains(&at_exit),
            "{held} -> {at_exit}"
        );
        assert_eq!(EXIT_LEFT.load(Ordering::SeqCst), 0);
    }

    /// Live blocks of a random alloc / realloc / free sequence, each filled
    /// with its own byte and checked before it is resized or freed: any
    /// overlap between two live blocks shows as a foreign byte.
    fn run_ops(ops: &[(u8, usize, usize, usize)]) {
        const ALIGNS: [usize; 4] = [1, 8, 16, 32];
        let mut live: Vec<Option<(*mut u8, Layout, u8)>> = vec![None; 16];
        for (step, &(op, size, slot, align)) in ops.iter().enumerate() {
            let tag = step as u8;
            // SAFETY: every block in `live` is live, of its recorded
            // layout, and filled with its tag; each is freed once.
            unsafe {
                match (op, live[slot]) {
                    (0, None) | (1, None) => {
                        let l = layout(size, ALIGNS[align]);
                        let block = if op == 0 {
                            filled(size, l.align(), tag)
                        } else {
                            let block = GLOBAL.alloc_zeroed(l);
                            assert!(all_bytes_are(block, size, 0));
                            ptr::write_bytes(block, tag, size);
                            block
                        };
                        live[slot] = Some((block, l, tag));
                    }
                    (0, Some((block, l, byte))) | (1, Some((block, l, byte))) => {
                        assert!(all_bytes_are(block, l.size(), byte), "step {step}");
                        let moved = GLOBAL.realloc(block, l, size);
                        assert!(!moved.is_null());
                        assert!(all_bytes_are(moved, l.size().min(size), byte));
                        ptr::write_bytes(moved, tag, size);
                        live[slot] = Some((moved, layout(size, l.align()), tag));
                    }
                    (_, Some((block, l, byte))) => {
                        assert!(all_bytes_are(block, l.size(), byte), "step {step}");
                        GLOBAL.dealloc(block, l);
                        live[slot] = None;
                    }
                    (_, None) => {}
                }
            }
        }
        for (block, l, byte) in live.into_iter().flatten() {
            // SAFETY: as above.
            unsafe {
                assert!(all_bytes_are(block, l.size(), byte));
                GLOBAL.dealloc(block, l);
            }
        }
    }

    proptest! {
        #[test]
        fn random_sequences_never_overlap(
            ops in proptest::collection::vec((0u8..3, 1usize..2_100, 0usize..16, 0usize..4), 1..400)
        ) {
            run_ops(&ops);
        }
    }
}
