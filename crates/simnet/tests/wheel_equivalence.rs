//! Property tests: the hierarchical [`TimerWheel`] is observably identical
//! to a reference binary heap ordered by `(at, seq)`.
//!
//! The simulation kernel's determinism guarantee — and therefore every
//! fleet digest — rests on the scheduler popping events in exact
//! `(time, insertion-seq)` order. These properties drive the wheel and a
//! `BinaryHeap<Reverse<(at, seq)>>` with the same random schedules
//! (including equal-timestamp ties, past timestamps, far-future overflow
//! entries, and cancellations marked in the wheel entry) and require the pop
//! sequences to match element for element. Every entry carries its `seq`
//! as the item, and every pop checks the item against the key it came out
//! under: the wheel links slab slots by index, and a mislinked slot would
//! return the right key with the wrong payload.

use proptest::prelude::*;
use simnet::wheel::TimerWheel;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;

/// Reference model: plain binary heap with the kernel's old ordering.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    now: u64,
}

impl HeapModel {
    fn push(&mut self, at: u64, seq: u64) {
        self.heap.push(Reverse((at.max(self.now), seq)));
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        let Reverse((at, seq)) = self.heap.pop()?;
        self.now = at;
        Some((at, seq))
    }
    fn peek(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|&Reverse(k)| k)
    }
}

/// Push `seq` as its own payload.
fn push(wheel: &mut TimerWheel<u64>, at: u64, seq: u64) {
    wheel.push(at, seq, seq);
}

/// The key of a popped entry, once its payload is known to be the one
/// pushed under that key.
fn checked(popped: Option<(u64, u64, u64)>) -> Option<(u64, u64)> {
    popped.map(|(at, seq, item)| {
        assert_eq!(
            item, seq,
            "the entry at ({at}, {seq}) carries another's item"
        );
        (at, seq)
    })
}

/// Turn a raw u64 into a timestamp offset that exercises interesting
/// scales: ties, level boundaries, overflow horizon, and u64::MAX.
fn shape_offset(raw: u64) -> u64 {
    match raw % 8 {
        0 => 0,                        // same-tick tie
        1 => raw % 64,                 // level 0
        2 => raw % 4_096,              // levels 0-1
        3 => raw % (1 << 18),          // levels 0-2
        4 => raw % (1 << 30),          // mid levels
        5 => raw % (1 << 37),          // straddles the wheel horizon
        6 => u64::MAX - (raw % 1_000), // near-MAX overflow entries
        _ => raw,                      // anywhere
    }
}

proptest! {
    /// Pure schedule/pop interleavings pop in identical order.
    #[test]
    fn pop_order_matches_reference_heap(
        ops in collection::vec((0u8..4, any::<u64>()), 1..300),
    ) {
        let mut wheel = TimerWheel::new();
        let mut model = HeapModel::default();
        let mut seq = 0u64;
        let mut now = 0u64; // kernel-style clock: the last popped time
        for (kind, raw) in ops {
            if kind == 0 {
                // pop from both, compare
                let got = checked(wheel.pop());
                let want = model.pop();
                prop_assert_eq!(got, want);
                if let Some((at, _)) = got {
                    now = at;
                }
            } else {
                // The kernel clamps `at` to its clock before pushing.
                let at = now.saturating_add(shape_offset(raw));
                push(&mut wheel, at, seq);
                model.push(at, seq);
                seq += 1;
            }
            prop_assert_eq!(wheel.len(), model.heap.len());
        }
        // Drain the remainder.
        loop {
            let got = checked(wheel.pop());
            let want = model.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    /// Equal-timestamp bursts (many events on one tick) preserve FIFO seq
    /// order even when pushes interleave with pops on that same tick.
    #[test]
    fn equal_timestamp_ties_are_fifo(
        burst in collection::vec(0u64..4, 2..64),
        base in 0u64..1_000_000,
    ) {
        let mut wheel = TimerWheel::new();
        let mut model = HeapModel::default();
        let mut seq = 0u64;
        for &slot in &burst {
            // All pushes land on one of 4 adjacent ticks: dense ties.
            let at = base + slot;
            push(&mut wheel, at, seq);
            model.push(at, seq);
            seq += 1;
            if seq.is_multiple_of(3) {
                prop_assert_eq!(checked(wheel.pop()), model.pop());
            }
        }
        while let Some(want) = model.pop() {
            prop_assert_eq!(checked(wheel.pop()), Some(want));
        }
        prop_assert!(wheel.is_empty());
    }

    /// The tie-break is the `seq` itself, not arrival order: with scrambled
    /// (still unique) sequence numbers on a few crowded ticks, near and
    /// far, pops still match the heap.
    #[test]
    fn ties_break_by_seq_in_whatever_order_seqs_arrive(
        burst in collection::vec((0u64..4, any::<bool>()), 2..200),
        base in 0u64..1_000_000,
    ) {
        let mut wheel = TimerWheel::new();
        let mut model = HeapModel::default();
        for (i, &(tick, pop)) in burst.iter().enumerate() {
            // 1009 is prime: a bijection on 0..1009, far from monotone.
            let seq = (i as u64 * 7_919) % 1_009;
            let at = model.now.max(base) + tick * tick * 40;
            push(&mut wheel, at, seq);
            model.push(at, seq);
            if pop {
                prop_assert_eq!(checked(wheel.pop()), model.pop());
            }
        }
        while let Some(want) = model.pop() {
            prop_assert_eq!(checked(wheel.pop()), Some(want));
        }
        prop_assert!(wheel.is_empty());
    }

    /// Cancellation in the wheel entry, held to the mechanism it replaced:
    /// the reference is the heap plus the external tombstone set the kernel
    /// used to consult at pop time. The wheel side cancels through
    /// [`TimerWheel::get_mut`] with the `(slot, seq)` handle `push` gave —
    /// the item becomes `None` where it sits, at whatever level or in the
    /// overflow map, and survives every cascade and refill from there.
    /// Every pop, bounded or not, must agree on the key *and* on whether
    /// the entry was cancelled; a handle whose entry already popped must
    /// find nothing, whoever holds its slot now.
    #[test]
    fn tombstone_cancellation_delivers_identical_streams(
        ops in collection::vec((0u8..8, any::<u64>()), 1..300),
    ) {
        let mut wheel: TimerWheel<Option<u64>> = TimerWheel::new();
        let mut model = HeapModel::default();
        let mut cancelled: HashSet<u64> = HashSet::new();
        let mut handles: Vec<(u32, u64)> = Vec::new(); // every one ever issued
        let mut pending: HashSet<u64> = HashSet::new();
        let mut stale_cancels: HashSet<u64> = HashSet::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (kind, raw) in ops {
            match kind {
                0 | 1 => {
                    // Pop, bounded (1) or not (0), on both sides.
                    let limit = match kind {
                        0 => u64::MAX,
                        _ => now.saturating_add(shape_offset(raw)),
                    };
                    let want = match model.peek() {
                        Some((at, _)) if at <= limit => model.pop(),
                        _ => None,
                    };
                    let got = wheel.pop_at_or_before(limit);
                    prop_assert_eq!(got.map(|(at, s, _)| (at, s)), want);
                    if let Some((at, s, item)) = got {
                        prop_assert!(pending.remove(&s));
                        // Live entries still carry their own payload.
                        prop_assert_eq!(item, (!cancelled.remove(&s)).then_some(s));
                        now = at;
                    } else if kind == 1 {
                        now = limit.max(now);
                    }
                    model.now = now;
                }
                2 | 3 => {
                    // Cancel through any handle ever issued: pending (at any
                    // level, or in overflow), already cancelled, or stale.
                    if !handles.is_empty() {
                        let (slot, s) = handles[(raw as usize) % handles.len()];
                        let hit = wheel.get_mut(slot, s).map(|item| *item = None);
                        prop_assert_eq!(hit.is_some(), pending.contains(&s));
                        // The old mechanism remembered every cancel …
                        cancelled.insert(s);
                        if hit.is_none() {
                            stale_cancels.insert(s);
                        }
                    }
                }
                _ => {
                    let at = now.saturating_add(shape_offset(raw));
                    handles.push((wheel.push(at, seq, Some(seq)), seq));
                    model.push(at, seq);
                    pending.insert(seq);
                    seq += 1;
                }
            }
            prop_assert_eq!(wheel.len(), model.heap.len());
        }
        while let Some(want) = model.pop() {
            let (at, s, item) = wheel.pop().expect("the reference has one more");
            prop_assert_eq!((at, s), want);
            prop_assert_eq!(item, (!cancelled.remove(&s)).then_some(s));
        }
        prop_assert!(wheel.is_empty());
        // … including the ones that came after the pop, for good: exactly
        // the leak the in-place tombstone cannot have.
        prop_assert_eq!(cancelled, stale_cancels);
    }

    /// `peek` always agrees with the reference heap's head and never
    /// disturbs subsequent pop order.
    #[test]
    fn peek_matches_reference_and_is_pure(
        ops in collection::vec((0u8..3, any::<u64>()), 1..200),
    ) {
        let mut wheel = TimerWheel::new();
        let mut model = HeapModel::default();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (kind, raw) in ops {
            prop_assert_eq!(wheel.peek(), model.peek());
            prop_assert_eq!(wheel.peek(), wheel.peek()); // idempotent
            if kind == 0 {
                let got = checked(wheel.pop());
                prop_assert_eq!(got, model.pop());
                if let Some((at, _)) = got {
                    now = at;
                }
            } else {
                let at = now.saturating_add(shape_offset(raw));
                push(&mut wheel, at, seq);
                model.push(at, seq);
                seq += 1;
            }
        }
    }

    /// With at most a few entries pending, spread over every level, an
    /// upper bucket mostly holds one entry, which pops where it sits:
    /// `peek` still agrees with the reference heap after every such pop,
    /// bounded or not.
    #[test]
    fn peek_matches_reference_after_single_entry_pops(
        ops in collection::vec((0u8..4, any::<u64>()), 1..300),
    ) {
        let mut wheel = TimerWheel::new();
        let mut model = HeapModel::default();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (kind, raw) in ops {
            if kind == 0 || model.heap.len() >= 3 {
                let limit = match kind {
                    1 => now.saturating_add(shape_offset(raw)),
                    _ => u64::MAX,
                };
                let want = match model.peek() {
                    Some((at, _)) if at <= limit => model.pop(),
                    _ => None,
                };
                prop_assert_eq!(checked(wheel.pop_at_or_before(limit)), want);
                // Only a bounded pop moves the kernel's clock to its limit.
                now = match want {
                    Some((at, _)) => at,
                    None if kind == 1 => limit,
                    None => now,
                };
                model.now = now;
            } else {
                // At least 64 ticks ahead: above level 0 when pushed, and
                // in the overflow map past the wheel's 2^36-tick reach.
                let at = now.saturating_add(64 + raw % (1 << 40));
                push(&mut wheel, at, seq);
                model.push(at, seq);
                seq += 1;
            }
            prop_assert_eq!(wheel.peek(), model.peek());
            prop_assert_eq!(wheel.len(), model.heap.len());
        }
    }

    /// `pop_at_or_before` is the heap's "pop if the head is due": under a
    /// kernel-style clock that moves to `limit` whenever nothing was due
    /// (what `Sim::run_until` does), later pushes keep their own ticks.
    #[test]
    fn bounded_pop_matches_reference_heap(
        ops in collection::vec((0u8..4, any::<u64>()), 1..300),
    ) {
        let mut wheel = TimerWheel::new();
        let mut model = HeapModel::default();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (kind, raw) in ops {
            if kind == 0 {
                let limit = now.saturating_add(shape_offset(raw));
                let want = match model.peek() {
                    Some((at, _)) if at <= limit => model.pop(),
                    _ => None,
                };
                prop_assert_eq!(checked(wheel.pop_at_or_before(limit)), want);
                prop_assert!(wheel.now() <= limit.max(now));
                now = want.map_or(limit, |(at, _)| at);
                // The reference clamps against the kernel's clock.
                model.now = now;
            } else {
                let at = now.saturating_add(shape_offset(raw));
                push(&mut wheel, at, seq);
                model.push(at, seq);
                seq += 1;
            }
            prop_assert_eq!(wheel.len(), model.heap.len());
            prop_assert_eq!(wheel.peek(), model.peek());
        }
        while let Some(want) = model.pop() {
            prop_assert_eq!(checked(wheel.pop()), Some(want));
        }
        prop_assert!(wheel.is_empty());
    }
}

/// A limit below the next entry must not move the wheel: an entry pushed
/// afterwards between the limit and that entry is due first, at its own
/// tick. At every level the next entry can wait on, overflow included.
#[test]
fn a_refused_pop_leaves_room_before_the_next_entry() {
    for far in [
        40u64,
        3_000,
        200_000,
        10_000_000,
        1 << 33,
        1 << 40,
        u64::MAX,
    ] {
        let mut wheel = TimerWheel::new();
        push(&mut wheel, far, 0);
        let limit = far / 2;
        assert_eq!(wheel.pop_at_or_before(limit), None);
        assert_eq!(wheel.len(), 1);
        assert!(wheel.now() <= limit);
        let between = limit + (far - limit) / 2;
        push(&mut wheel, between, 1);
        assert_eq!(checked(wheel.pop_at_or_before(far - 1)), Some((between, 1)));
        assert_eq!(wheel.pop_at_or_before(far - 1), None);
        assert_eq!(checked(wheel.pop_at_or_before(far)), Some((far, 0)));
        assert!(wheel.is_empty());
    }
}

/// A thousand entries on one tick, popped while more arrive on that same
/// tick: FIFO by `seq` throughout, each with its own item.
#[test]
fn a_same_tick_burst_interleaved_with_pops_stays_fifo() {
    let mut wheel = TimerWheel::new();
    let mut model = HeapModel::default();
    let tick = 77_777;
    for seq in 0..1_000 {
        push(&mut wheel, tick, seq);
        model.push(tick, seq);
        // Pops start once the tick is current, so later pushes land in the
        // one-tick list the pops are unlinking from.
        if seq >= 100 && seq % 3 == 0 {
            assert_eq!(checked(wheel.pop()), model.pop());
        }
    }
    while let Some(want) = model.pop() {
        assert_eq!(checked(wheel.pop()), Some(want));
    }
    assert!(wheel.is_empty());
}

/// Every item is dropped exactly once, whether it was popped or was still
/// pending — in a one-tick list, an upper level or overflow — when the
/// wheel was dropped.
#[test]
fn every_item_is_dropped_exactly_once() {
    let alive = Rc::new(());
    let mut wheel = TimerWheel::new();
    let ats = [5, 5, 70, 5_000, 1 << 20, 1 << 35, 1 << 50, u64::MAX];
    for (seq, &at) in ats.iter().enumerate() {
        wheel.push(at, seq as u64, Rc::clone(&alive));
    }
    assert_eq!(Rc::strong_count(&alive), 1 + ats.len());
    for popped in 1..=3 {
        drop(wheel.pop().expect("eight are pending"));
        assert_eq!(Rc::strong_count(&alive), 1 + ats.len() - popped);
    }
    // Reuse freed slots, then leave entries at every depth.
    wheel.push(6_000, 8, Rc::clone(&alive));
    wheel.push(1 << 51, 9, Rc::clone(&alive));
    assert_eq!(wheel.len(), 7);
    assert_eq!(Rc::strong_count(&alive), 8);
    drop(wheel);
    assert_eq!(Rc::strong_count(&alive), 1);
}

/// A lone entry at each of levels 1–5 and in the overflow map pops where it
/// sits: a bounded pop short of it refuses and moves the clock no further
/// than its limit, and the pop at its tick returns its own item and leaves
/// the clock on that tick. All six pending at once, then one at a time.
#[test]
fn a_lone_entry_at_every_level_pops_in_order_with_its_own_item() {
    let offsets = [100u64, 5_000, 300_000, 20_000_000, 1 << 31, 1 << 37];
    let item = |seq: u64| format!("lone {seq}");
    let mut wheel = TimerWheel::new();
    for (seq, &at) in (0..).zip(&offsets) {
        wheel.push(at, seq, item(seq));
    }
    for (seq, &at) in (0..).zip(&offsets) {
        assert_eq!(wheel.peek(), Some((at, seq)));
        assert_eq!(wheel.pop_at_or_before(at - 1), None);
        assert!(wheel.now() < at);
        assert_eq!(wheel.pop_at_or_before(at), Some((at, seq, item(seq))));
        assert_eq!(wheel.now(), at);
    }
    assert!(wheel.is_empty());
    for (seq, &offset) in (6..).zip(&offsets) {
        let at = wheel.now() + offset;
        wheel.push(at, seq, item(seq));
        let limit = at - offset / 2;
        assert_eq!(wheel.pop_at_or_before(limit), None);
        assert!(wheel.now() <= limit);
        assert_eq!(wheel.pop(), Some((at, seq, item(seq))));
        assert_eq!(wheel.now(), at);
    }
    assert!(wheel.is_empty());
}

/// A tombstone keeps its entry's `(at, seq)`, so a cancelled bucket
/// minimum — in a crowded upper bucket, alone in one, or in the overflow
/// map — still pops first, as the tombstone.
#[test]
fn a_tombstoned_minimum_still_pops_first() {
    let mut wheel: TimerWheel<Option<u64>> = TimerWheel::new();
    let far = 1 << 40;
    // One level-2 bucket of three, a lone level-3 entry, two in overflow.
    let ats = [9_000, 8_500, 11_000, 300_000, far + 5, far + 9];
    let slots: Vec<u32> = (0..)
        .zip(&ats)
        .map(|(seq, &at)| wheel.push(at, seq, Some(seq)))
        .collect();
    for seq in [1u64, 3, 4] {
        *wheel.get_mut(slots[seq as usize], seq).expect("pending") = None;
    }
    let popped: Vec<_> = std::iter::from_fn(|| wheel.pop()).collect();
    assert_eq!(
        popped,
        [
            (8_500, 1, None),
            (9_000, 0, Some(0)),
            (11_000, 2, Some(2)),
            (300_000, 3, None),
            (far + 5, 4, None),
            (far + 9, 5, Some(5)),
        ]
    );
}
