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
//! occupied slot sits above level 0, its bucket *cascades*: time advances
//! to the bucket's minimum timestamp and the entries redistribute into
//! finer levels. Each entry cascades at most [`LEVELS`] times over its
//! life, giving the O(1) amortized bound.
//!
//! # Storage
//!
//! Every entry lives in one slab for its whole life, and a bucket is the
//! head index of a singly linked list threaded through that slab. A push
//! links a slot, a pop unlinks one and returns it to the free list, a
//! cascade rewrites `next` indices: no item is moved between push and pop
//! whatever its width, and once the slab has grown to the run's peak
//! number of pending entries nothing is allocated or freed. A list above
//! level 0 is in no particular order (the cascade scans it for its
//! minimum); a level-0 list — one tick — is kept in `seq` order, so its
//! head is the FIFO winner however many entries share the tick.

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

#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    /// The next entry of the same bucket (or of the free list).
    next: u32,
    /// `None` exactly while the slot is on the free list.
    item: Option<T>,
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
    /// Every pending entry, wheel and overflow alike, plus the free slots.
    entries: Vec<Entry<T>>,
    /// Head of the free list threaded through `entries`.
    free: u32,
    /// `LEVELS * SLOTS` list heads into `entries`, flattened level-major.
    heads: [u32; LEVELS * SLOTS],
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
            entries: Vec::new(),
            free: NIL,
            heads: [NIL; LEVELS * SLOTS],
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
        let entry = Entry {
            at,
            seq,
            next: NIL,
            item: Some(item),
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.entries.len()).unwrap_or(NIL);
            assert!(idx != NIL, "more than u32::MAX - 1 pending entries");
            self.entries.push(entry);
            idx
        } else {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.entries[idx as usize], entry).next;
            idx
        };
        if (at ^ self.now) >= HORIZON {
            self.overflow.insert((at, seq), idx);
        } else {
            self.link(idx);
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
        let e = self.entries.get_mut(slot as usize)?;
        e.item.as_mut().filter(|_| e.seq == seq)
    }

    /// The `(at, seq)` of the next entry [`TimerWheel::pop`] would return.
    pub fn peek(&self) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        match self.lowest_occupied_level() {
            None => self.overflow.keys().next().copied(),
            Some(level) => {
                let slot = self.occupied[level].trailing_zeros() as usize;
                self.list(self.heads[level * SLOTS + slot])
                    .map(|e| (e.at, e.seq))
                    .min()
                    .or_else(|| unreachable!("occupancy bit set on empty bucket"))
            }
        }
    }

    /// Remove and return the entry with the smallest `(at, seq)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.pop_at_or_before(u64::MAX)
    }

    /// [`TimerWheel::pop`], unless the next entry is due after `limit`:
    /// then nothing is removed and the wheel's clock stays at or before
    /// `limit`, so an entry pushed later for any tick from `limit` on is
    /// filed under its own tick and not clamped to a later one.
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
            let slot = self.occupied[level].trailing_zeros() as usize;
            let head = self.heads[level * SLOTS + slot];
            if level > 0 {
                // The earliest occupied slot holds the global minimum.
                let min = self.list(head).map(|e| e.at).min().unwrap_or(self.now);
                if min > limit {
                    return None;
                }
                self.cascade(level, slot, min);
                continue;
            }
            // A level-0 slot maps to exactly one tick, so every entry here
            // shares `at`; the list is in `seq` order, so the FIFO winner
            // is its head.
            let free = self.free;
            let e = &mut self.entries[head as usize];
            if e.at > limit {
                return None;
            }
            let (at, seq, rest) = (e.at, e.seq, std::mem::replace(&mut e.next, free));
            let item = e.item.take().expect("a linked slot holds an item");
            self.free = head;
            self.heads[slot] = rest;
            if rest == NIL {
                self.occupied[0] &= !(1 << slot);
            }
            self.now = at;
            self.len -= 1;
            return Some((at, seq, item));
        }
    }

    /// Lowest level with at least one occupied slot.
    fn lowest_occupied_level(&self) -> Option<usize> {
        self.occupied.iter().position(|&bits| bits != 0)
    }

    /// The entries of the list starting at slab index `head`.
    fn list(&self, head: u32) -> impl Iterator<Item = &Entry<T>> {
        let mut cur = head;
        std::iter::from_fn(move || {
            let e = self.entries.get(cur as usize)?;
            cur = e.next;
            Some(e)
        })
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

    /// Link slab entry `idx` into the list its `at` belongs to: at the
    /// head above level 0, in `seq` order at level 0.
    fn link(&mut self, idx: u32) {
        let Entry { at, seq, .. } = self.entries[idx as usize];
        let (level, slot) = Self::position(self.now, at);
        let was_empty = self.occupied[level] & (1 << slot) == 0;
        self.occupied[level] |= 1 << slot;
        if level > 0 {
            let head = &mut self.heads[level * SLOTS + slot];
            self.entries[idx as usize].next = std::mem::replace(head, idx);
            return;
        }
        // The caller's `seq` grows, so a push belongs at the tail, and an
        // upper list is mostly newest first, so what a cascade brings
        // mostly belongs at the head: both are found without a walk.
        self.entries[idx as usize].next = NIL;
        let tail = self.tails[slot];
        if was_empty {
            (self.heads[slot], self.tails[slot]) = (idx, idx);
        } else if self.entries[tail as usize].seq < seq {
            self.entries[tail as usize].next = idx;
            self.tails[slot] = idx;
        } else {
            // Not last, so the walk stops at or before the tail.
            let (mut prev, mut cur) = (NIL, self.heads[slot]);
            while self.entries[cur as usize].seq < seq {
                (prev, cur) = (cur, self.entries[cur as usize].next);
            }
            self.entries[idx as usize].next = cur;
            match prev {
                NIL => self.heads[slot] = idx,
                _ => self.entries[prev as usize].next = idx,
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
            let next = self.entries[cur as usize].next;
            self.link(cur);
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
        for idx in std::mem::replace(&mut self.overflow, rest).into_values() {
            self.link(idx);
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
        assert!(w.entries.len() <= 8, "{} slots", w.entries.len());
        let (pending, free) = (drain(&mut w).len(), w.list(w.free).count());
        assert_eq!((pending, free), (8, w.entries.len()));
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
