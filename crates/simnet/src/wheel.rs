//! A hierarchical timing wheel for the kernel's event queue.
//!
//! [`TimerWheel`] replaces the binary heap that used to back
//! [`crate::Sim`]: push and pop are O(1) amortized instead of O(log n),
//! which matters when a million-user fleet keeps tens of thousands of poll
//! timers pending at once. The contract is *exact* equivalence with a
//! min-heap ordered by `(at, seq)`:
//!
//! * [`TimerWheel::pop`] always returns the pending entry with the
//!   smallest `(at, seq)` pair — ties on `at` break by `seq`, so FIFO
//!   scheduling order (and therefore every simulation history, report, and
//!   fleet digest) is preserved bit-for-bit;
//! * entries scheduled in the past are clamped to the wheel's current
//!   time, mirroring the kernel's `at.max(now)` clamp.
//!
//! # Structure
//!
//! Six levels of 64 slots each, with level `k` slots spanning `64^k`
//! microsecond ticks; together they cover `64^6` ticks (~19.5 virtual
//! hours) ahead of the current instant. Entries beyond that horizon are
//! indexed by a sorted overflow map (far-future poll timers and
//! "never"-style sentinels) and are linked into the wheel when time
//! approaches.
//!
//! An entry belongs to the *highest-resolution level where its slot index
//! differs from the current time's* — equivalently, level
//! `⌊highest_set_bit(at ^ now) / 6⌋`. Per-level occupancy bitmaps make
//! "find the earliest non-empty slot" a `trailing_zeros` instruction, so
//! an idle wheel is never scanned slot-by-slot. When the earliest
//! occupied slot sits above level 0 and holds more than one entry, its
//! bucket *cascades*: time advances to the bucket's minimum timestamp and
//! the entries redistribute into finer levels. Each entry cascades at most
//! [`LEVELS`] times over its life, giving the O(1) amortized bound.
//!
//! # Storage
//!
//! Every entry lives in one slot of a slab for its whole life, and a
//! bucket is the head index of a singly linked list threaded through that
//! slab. The slab is two parallel vectors: the *links* — `at`, `seq`,
//! `next`, 24 bytes a slot — and the *items*, written once by the push and
//! taken once by the pop. A list walk, a cascade and the ordered level-0
//! insert read links only, however wide the item is. A push links a slot,
//! a pop unlinks one and returns it to the free list, a cascade rewrites
//! `next` indices: no item is moved between push and pop, and once the
//! slab has grown to the run's peak number of pending entries nothing is
//! allocated or freed. Both vectors grow together, in one step, to one
//! capacity.
//!
//! A list above level 0 is in no particular order; its smallest
//! `(at, seq)` is kept beside its head as entries are linked (entries
//! leave such a list only all at once), so neither a cascade nor
//! [`TimerWheel::peek`] scans it. A lone entry there is the global minimum
//! and pops where it sits, without a cascade. A level-0 list — one tick —
//! is kept in `seq` order, so its head is the FIFO winner however many
//! entries share the tick.

use std::collections::BTreeMap;

/// Bits per level: each level has `2^BITS` slots.
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Number of wheel levels; beyond them entries overflow to a sorted map.
pub const LEVELS: usize = 6;
/// First tick past the wheel's reach, relative to the current block.
const HORIZON: u64 = 1 << (BITS * LEVELS as u32);
/// The end of a list: no slab index.
const NIL: u32 = u32::MAX;
/// Slots the slab reserves when it first grows; it doubles from there.
/// Two vectors doubling from Rust's minimum of 4 would pay two allocator
/// calls where one did; starting at 128 skips five doublings, so a wheel
/// that peaks anywhere from 65 to 2,048 entries grows in no more calls
/// than one vector did, and to the same capacity.
const FIRST_RESERVE: usize = 128;

/// Where an entry is due and what follows it: all a list operation reads.
#[derive(Debug, Clone, Copy)]
struct Link {
    at: u64,
    seq: u64,
    /// The next entry of the same bucket (or of the free list).
    next: u32,
}

/// A hierarchical timing wheel with a sorted overflow level.
///
/// Pops entries in exact `(at, seq)` order. `at` is an absolute tick
/// (microseconds in the simulator); `seq` is the caller's monotone
/// insertion counter used as the FIFO tie-break.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// Current tick: the `at` of the most recently popped entry. No
    /// stored entry is earlier than this.
    now: u64,
    /// One link per slab slot: every pending entry, wheel and overflow
    /// alike, plus the free slots.
    links: Vec<Link>,
    /// The item of each slab slot; `None` exactly while it is free.
    items: Vec<Option<T>>,
    /// Head of the free list threaded through `links`.
    free: u32,
    /// `LEVELS * SLOTS` list heads into the slab, flattened level-major.
    heads: [u32; LEVELS * SLOTS],
    /// The smallest `(at, seq)` of each list above level 0, at
    /// `heads`' index less `SLOTS` (stale while the list is empty).
    mins: [(u64, u64); (LEVELS - 1) * SLOTS],
    /// Last entry of each level-0 list (stale while the list is empty).
    tails: [u32; SLOTS],
    /// One occupancy bitmap per level (bit `s` set ⇔ list non-empty).
    occupied: [u64; LEVELS],
    /// Entries beyond the wheel horizon: `(at, seq)` → slab index.
    overflow: BTreeMap<(u64, u64), u32>,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel positioned at tick zero.
    pub fn new() -> Self {
        TimerWheel {
            now: 0,
            links: Vec::new(),
            items: Vec::new(),
            free: NIL,
            heads: [NIL; LEVELS * SLOTS],
            mins: [(0, 0); (LEVELS - 1) * SLOTS],
            tails: [NIL; SLOTS],
            occupied: [0; LEVELS],
            overflow: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of pending entries (wheel plus overflow).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedule `item` at tick `at` (clamped to the current tick) with the
    /// caller's monotone sequence number as tie-break. Returns the slab
    /// slot the entry keeps until it pops; with `seq` it names the entry
    /// for [`TimerWheel::get_mut`].
    pub fn push(&mut self, at: u64, seq: u64, item: T) -> u32 {
        let at = at.max(self.now);
        let link = Link { at, seq, next: NIL };
        let idx = if self.free == NIL {
            let len = self.links.len();
            if len == self.links.capacity() {
                let more = len.max(FIRST_RESERVE);
                self.links.reserve_exact(more);
                self.items.reserve_exact(more);
            }
            let idx = u32::try_from(len).unwrap_or(NIL);
            assert!(idx != NIL, "more than u32::MAX - 1 pending entries");
            self.links.push(link);
            self.items.push(Some(item));
            idx
        } else {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.links[idx as usize], link).next;
            self.items[idx as usize] = Some(item);
            idx
        };
        if (at ^ self.now) >= HORIZON {
            self.overflow.insert((at, seq), idx);
        } else {
            self.link(idx, at, seq);
        }
        self.len += 1;
        idx
    }

    /// The pending item in `slot`, if it is still the one pushed with
    /// `seq`: a popped entry's slot holds no item, and a reused slot holds
    /// another `seq`. This is how a caller cancels — it overwrites the
    /// item with a tombstone of its own, and the entry stays linked and
    /// pops at its tick like any other.
    pub fn get_mut(&mut self, slot: u32, seq: u64) -> Option<&mut T> {
        let link = self.links.get(slot as usize)?;
        if link.seq != seq {
            return None;
        }
        self.items[slot as usize].as_mut()
    }

    /// The `(at, seq)` of the next entry [`TimerWheel::pop`] would return.
    pub fn peek(&self) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        let Some(level) = self.lowest_occupied_level() else {
            return self.overflow.keys().next().copied();
        };
        let bucket = level * SLOTS + self.occupied[level].trailing_zeros() as usize;
        if level > 0 {
            return Some(self.mins[bucket - SLOTS]);
        }
        let head = self.links[self.heads[bucket] as usize];
        Some((head.at, head.seq))
    }

    /// Remove and return the entry with the smallest `(at, seq)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.pop_at_or_before(u64::MAX)
    }

    /// [`TimerWheel::pop`], unless the next entry is due after `limit`:
    /// then nothing is removed and the wheel's clock stays at or before
    /// `limit`, so an entry pushed later for any tick from `limit` on is
    /// filed under its own tick and not clamped to a later one.
    #[inline]
    pub fn pop_at_or_before(&mut self, limit: u64) -> Option<(u64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let Some(level) = self.lowest_occupied_level() else {
                let (&(at, _), _) = self
                    .overflow
                    .first_key_value()
                    .expect("len > 0 with empty wheel implies overflow entries");
                if at > limit {
                    return None;
                }
                self.refill_from_overflow(at);
                continue;
            };
            // The earliest occupied slot of the lowest occupied level
            // holds the global minimum.
            let slot = self.occupied[level].trailing_zeros() as usize;
            let bucket = level * SLOTS + slot;
            let head = self.heads[bucket];
            let Link { at, seq, next } = self.links[head as usize];
            if level > 0 && next != NIL {
                let (min, _) = self.mins[bucket - SLOTS];
                if min > limit {
                    return None;
                }
                self.cascade(level, slot, min);
                continue;
            }
            // A level-0 slot maps to exactly one tick and its list is in
            // `seq` order, so the FIFO winner is its head; a lone entry
            // above level 0 is its bucket's minimum. Either pops here.
            if at > limit {
                return None;
            }
            self.heads[bucket] = next;
            if next == NIL {
                self.occupied[level] &= !(1 << slot);
            }
            self.now = at;
            self.len -= 1;
            return Some((at, seq, self.release(head)));
        }
    }

    /// Put unlinked slot `idx` on the free list and take its item.
    #[inline]
    fn release(&mut self, idx: u32) -> T {
        self.links[idx as usize].next = std::mem::replace(&mut self.free, idx);
        self.items[idx as usize]
            .take()
            .expect("a linked slot holds an item")
    }

    /// Lowest level with at least one occupied slot.
    fn lowest_occupied_level(&self) -> Option<usize> {
        self.occupied.iter().position(|&bits| bits != 0)
    }

    /// Where an entry due at `at` belongs when the wheel sits at `now`.
    fn position(now: u64, at: u64) -> (usize, usize) {
        debug_assert!(at >= now && (at ^ now) < HORIZON);
        let diff = at ^ now;
        let level = if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros()) as usize / BITS as usize
        };
        let slot = ((at >> (BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Link slab entry `idx`, due at `at` with `seq`, into the list its
    /// `at` belongs to: at the head above level 0 (keeping the list's
    /// minimum), in `seq` order at level 0.
    fn link(&mut self, idx: u32, at: u64, seq: u64) {
        let (level, slot) = Self::position(self.now, at);
        let bucket = level * SLOTS + slot;
        let was_empty = self.occupied[level] & (1 << slot) == 0;
        self.occupied[level] |= 1 << slot;
        if level > 0 {
            let min = &mut self.mins[bucket - SLOTS];
            if was_empty || (at, seq) < *min {
                *min = (at, seq);
            }
            self.links[idx as usize].next = std::mem::replace(&mut self.heads[bucket], idx);
            return;
        }
        // The caller's `seq` grows, so a push belongs at the tail, and an
        // upper list is mostly newest first, so what a cascade brings
        // mostly belongs at the head: both are found without a walk.
        self.links[idx as usize].next = NIL;
        let tail = self.tails[slot];
        if was_empty {
            (self.heads[slot], self.tails[slot]) = (idx, idx);
        } else if self.links[tail as usize].seq < seq {
            self.links[tail as usize].next = idx;
            self.tails[slot] = idx;
        } else {
            // Not last, so the walk stops at or before the tail.
            let (mut prev, mut cur) = (NIL, self.heads[slot]);
            while self.links[cur as usize].seq < seq {
                (prev, cur) = (cur, self.links[cur as usize].next);
            }
            self.links[idx as usize].next = cur;
            match prev {
                NIL => self.heads[slot] = idx,
                _ => self.links[prev as usize].next = idx,
            }
        }
    }

    /// Redistribute one upper-level bucket into finer levels, advancing
    /// the current tick to `min`, the bucket's minimum timestamp. Every
    /// entry of the bucket agrees with `min` on this level's slot and
    /// above, so each is relinked strictly below `level`.
    fn cascade(&mut self, level: usize, slot: usize, min: u64) {
        let mut cur = std::mem::replace(&mut self.heads[level * SLOTS + slot], NIL);
        self.occupied[level] &= !(1 << slot);
        self.now = min;
        while cur != NIL {
            let Link { at, seq, next } = self.links[cur as usize];
            self.link(cur, at, seq);
            cur = next;
        }
    }

    /// The wheel proper is empty: jump to `at`, the first overflow entry's
    /// tick, and link every overflow entry of that block into the wheel.
    fn refill_from_overflow(&mut self, at: u64) {
        self.now = at;
        let block_end = (at & !(HORIZON - 1)).checked_add(HORIZON);
        let rest = match block_end {
            Some(end) => self.overflow.split_off(&(end, 0)),
            None => BTreeMap::new(), // top block: everything fits
        };
        for ((at, seq), idx) in std::mem::replace(&mut self.overflow, rest) {
            self.link(idx, at, seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = w.pop() {
            out.push((at, seq));
        }
        out
    }

    /// The slab slots of the list starting at `head`, in list order.
    fn list(w: &TimerWheel<u32>, head: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = head;
        while cur != NIL {
            out.push(cur);
            cur = w.links[cur as usize].next;
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(50, 0, 0);
        w.push(10, 1, 1);
        w.push(10, 2, 2);
        w.push(7_000_000, 3, 3); // a different level entirely
        assert_eq!(w.len(), 4);
        assert_eq!(w.peek(), Some((10, 1)));
        assert_eq!(
            drain(&mut w),
            vec![(10, 1), (10, 2), (50, 0), (7_000_000, 3)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_fifo_is_by_seq_even_interleaved_with_pops() {
        let mut w = TimerWheel::new();
        w.push(5, 0, 0);
        w.push(5, 1, 1);
        assert_eq!(w.pop().map(|(a, s, _)| (a, s)), Some((5, 0)));
        // Pushing at the *current* tick lands behind the remaining entry.
        w.push(5, 2, 2);
        assert_eq!(w.pop().map(|(a, s, _)| (a, s)), Some((5, 1)));
        assert_eq!(w.pop().map(|(a, s, _)| (a, s)), Some((5, 2)));
    }

    #[test]
    fn past_entries_clamp_to_now() {
        let mut w = TimerWheel::new();
        w.push(100, 0, 0);
        assert!(w.pop().is_some());
        assert_eq!(w.now(), 100);
        w.push(3, 1, 1); // in the past: clamps to 100
        assert_eq!(w.peek(), Some((100, 1)));
    }

    #[test]
    fn overflow_entries_come_back_in_order() {
        let mut w = TimerWheel::new();
        let far = HORIZON * 3 + 17;
        w.push(far, 0, 0);
        w.push(far, 1, 1);
        w.push(far + 1, 2, 2);
        w.push(12, 3, 3);
        assert_eq!(
            drain(&mut w),
            vec![(12, 3), (far, 0), (far, 1), (far + 1, 2)]
        );
    }

    #[test]
    fn freed_slots_are_reused_so_the_slab_stops_at_the_peak() {
        let mut w = TimerWheel::new();
        // Offsets for every level and for overflow, at most 8 pending.
        let offsets = [0, 3, 100, 5_000, 300_000, 20_000_000, 1 << 31, 1 << 37];
        for seq in 0..10_000u64 {
            if w.len() == offsets.len() {
                let (_, popped, item) = w.pop().unwrap();
                assert_eq!(item, popped as u32);
            }
            w.push(w.now() + offsets[seq as usize % 8], seq, seq as u32);
        }
        assert_eq!(w.len(), 8);
        // Both halves of the slab stop at the peak, at one capacity.
        assert!(w.links.len() <= 8, "{} slots", w.links.len());
        assert_eq!(w.items.len(), w.links.len());
        assert_eq!(w.items.capacity(), w.links.capacity());
        assert_eq!(drain(&mut w).len(), 8);
        let free = list(&w, w.free);
        assert_eq!(free.len(), w.links.len());
        assert!(free.iter().all(|&i| w.items[i as usize].is_none()));
    }

    #[test]
    fn a_link_is_24_bytes_whatever_the_item() {
        assert_eq!(std::mem::size_of::<Link>(), 24);
    }

    #[test]
    fn the_slab_grows_both_halves_in_one_step() {
        let mut w = TimerWheel::new();
        for seq in 0..=FIRST_RESERVE as u64 {
            w.push(seq * 1_000, seq, [0u8; 100]);
            assert_eq!(w.items.capacity(), w.links.capacity());
        }
        assert_eq!(w.links.capacity(), 2 * FIRST_RESERVE);
    }

    /// Every occupied list above level 0 has its true minimum beside it.
    fn assert_minima_exact(w: &TimerWheel<u32>) {
        for level in 1..LEVELS {
            for slot in (0..SLOTS).filter(|&s| w.occupied[level] & (1 << s) != 0) {
                let bucket = level * SLOTS + slot;
                let keys = list(w, w.heads[bucket])
                    .into_iter()
                    .map(|i| w.links[i as usize]);
                let min = keys.map(|l| (l.at, l.seq)).min();
                assert_eq!(Some(w.mins[bucket - SLOTS]), min, "{level}/{slot}");
            }
        }
    }

    /// A bucket's minimum is kept from its first link on, lowered by a
    /// smaller push, and rebuilt exactly in every bucket a cascade or an
    /// overflow refill fills.
    #[test]
    fn bucket_minima_survive_cascade_and_overflow_refill() {
        let mut w = TimerWheel::new();
        let far = HORIZON * 2;
        // One level-2 bucket (ticks 8_192..12_288) whose cascade fills a
        // two-entry level-1 bucket, and one overflow block whose refill
        // fills a three-entry level-2 bucket; each pushed out of order.
        let ats = [
            9_000,
            8_500,
            11_000,
            8_500,
            8_310,
            8_300,
            far + 71_000,
            far + 70_000,
            far,
            far + 70_500,
        ];
        for (seq, &at) in ats.iter().enumerate() {
            w.push(at, seq as u64, seq as u32);
            assert_minima_exact(&w);
        }
        assert_eq!(w.mins[2 * SLOTS + 2 - SLOTS], (8_300, 5));
        let mut want: Vec<(u64, u64)> = ats.iter().copied().zip(0..).collect();
        want.sort_unstable();
        for &(at, seq) in &want {
            assert_eq!(w.peek(), Some((at, seq)));
            assert_eq!(w.pop(), Some((at, seq, seq as u32)));
            assert_minima_exact(&w);
            if at == 8_300 {
                // The cascade left both 8_500s in one level-1 bucket.
                assert_eq!(w.mins[SLOTS + (8_500 >> BITS) % SLOTS - SLOTS], (8_500, 1));
            }
            if at == far {
                // The refill left the other three in one level-2 bucket.
                assert_eq!(w.occupied.map(u64::count_ones), [0, 0, 1, 0, 0, 0]);
            }
        }
        assert!(w.is_empty());
    }

    #[test]
    fn u64_max_is_a_valid_timestamp() {
        let mut w = TimerWheel::new();
        w.push(u64::MAX, 0, 0);
        w.push(1, 1, 1);
        assert_eq!(drain(&mut w), vec![(1, 1), (u64::MAX, 0)]);
    }

    #[test]
    fn cascades_preserve_order_across_level_boundaries() {
        let mut w = TimerWheel::new();
        // Entries straddling several levels, inserted out of order.
        let ats = [
            1u64, 63, 64, 65, 4_095, 4_096, 262_143, 262_144, 16_777_215, 16_777_216,
        ];
        for (i, &at) in ats.iter().rev().enumerate() {
            w.push(at, i as u64, 0);
        }
        let popped: Vec<u64> = drain(&mut w).iter().map(|&(a, _)| a).collect();
        let mut want = ats.to_vec();
        want.sort_unstable();
        assert_eq!(popped, want);
    }
}
