//! Symbol interning for hot-path identifier lookups.
//!
//! The engine, the simulated services and the fleet harness key their hot
//! maps by identifier newtypes ([`crate::ServiceSlug`], [`crate::UserId`],
//! [`crate::TriggerIdentity`], …), all of which wrap a `String`. Hashing
//! and cloning those strings on every poll/dispatch dominates the per-event
//! cost at fleet scale. An [`Interner`] maps each distinct string to a
//! dense [`Symbol`] (`u32`) once, so steady-state lookups hash and compare
//! a single machine word.
//!
//! # Scope and determinism rules
//!
//! * Interners are **component-local** (one per engine, per service node,
//!   per fleet cell). Symbols are only meaningful against the interner that
//!   produced them and must never cross a shard or appear in any report,
//!   digest, or serialized artifact — symbol *values* depend on first-seen
//!   order, which is an implementation detail. Serialize the resolved
//!   strings instead (see [`Interner::resolve`]); two interners built in
//!   different orders then produce identical output.
//! * Strings stay at construction/serialization boundaries: wire bodies
//!   and reports keep using the `String` newtypes unchanged.

use mem::FxHashMap;
use std::sync::Arc;

/// A cheap, `Copy` handle for an interned string.
///
/// Hashing and equality are on the `u32` index. Symbols from different
/// interners are incomparable in meaning (nothing enforces provenance, so
/// keep interners private to their component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw index (e.g. for packing into timer keys).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A string-to-[`Symbol`] table with O(1) two-way lookup. Each string is
/// stored once: the map key and the `strings` entry share it.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Never iterated ([`Interner::iter`] walks `strings`), so Fx is safe.
    map: FxHashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `s`, returning its (stable within `self`) symbol. The first
    /// call for a given string allocates once; later calls only hash it.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&i) = self.map.get(s) {
            return Symbol(i);
        }
        let i = u32::try_from(self.strings.len()).expect("interner overflow");
        let shared: Arc<str> = s.into();
        self.strings.push(shared.clone());
        self.map.insert(shared, i);
        Symbol(i)
    }

    /// The symbol for `s` if it was interned before, without interning.
    /// Read-only paths use this: an unknown string can't be a hit in any
    /// symbol-keyed map.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).map(|&i| Symbol(i))
    }

    /// The string for a symbol previously returned by [`Interner::intern`].
    ///
    /// # Panics
    /// Panics if `sym` came from a different interner with more entries.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// All interned strings in first-seen order (diagnostics/tests only —
    /// the order is not part of any observable output).
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeMap;
    use std::hash::{Hash, Hasher};

    #[test]
    fn round_trip_symbol_string_equality() {
        let mut i = Interner::new();
        let names = ["philips_hue", "gmail", "user_42", "ti_0011aabb", ""];
        let syms: Vec<Symbol> = names.iter().map(|n| i.intern(n)).collect();
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(i.resolve(*s), *n);
            assert_eq!(i.get(n), Some(*s));
            assert_eq!(i.intern(n), *s, "re-interning must be stable");
        }
        assert_eq!(i.len(), names.len());
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
        assert_eq!(i.get("c"), None);
    }

    /// A symbol's hash is a pure function of its index — two shards that
    /// intern the same strings in the same order see identical hashes, so
    /// per-shard symbol maps iterate/behave identically and the merged
    /// output cannot depend on which shard produced it.
    #[test]
    fn symbol_hashing_is_stable_across_shard_boundaries() {
        let hash = |s: Symbol| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        // Two independent interners, same insertion sequence (what two
        // shards running the same deterministic cell plan do).
        let mut shard_a = Interner::new();
        let mut shard_b = Interner::new();
        for n in ["fleet_svc", "user_0", "user_1", "fired_0"] {
            let sa = shard_a.intern(n);
            let sb = shard_b.intern(n);
            assert_eq!(sa, sb);
            assert_eq!(hash(sa), hash(sb));
        }
    }

    /// Interners built in different orders assign different symbol values,
    /// but anything *serialized* resolves through strings and is equal —
    /// the rule that keeps interner state out of fleet digests.
    #[test]
    fn different_build_orders_serialize_identically() {
        let names = ["gmail", "weather", "hue", "sms"];
        let mut fwd = Interner::new();
        let mut rev = Interner::new();
        for n in names {
            fwd.intern(n);
        }
        for n in names.iter().rev() {
            rev.intern(n);
        }
        // Symbol values differ…
        assert_ne!(fwd.get("gmail"), rev.get("gmail"));
        // …but a symbol-keyed map serialized via resolve() is identical.
        let render = |i: &Interner, counts: &[(Symbol, u64)]| {
            let by_name: BTreeMap<&str, u64> =
                counts.iter().map(|&(s, c)| (i.resolve(s), c)).collect();
            serde_json::to_string(&by_name).unwrap()
        };
        let fwd_counts: Vec<(Symbol, u64)> =
            names.iter().map(|n| (fwd.get(n).unwrap(), 7)).collect();
        let rev_counts: Vec<(Symbol, u64)> =
            names.iter().map(|n| (rev.get(n).unwrap(), 7)).collect();
        assert_eq!(render(&fwd, &fwd_counts), render(&rev, &rev_counts));
    }

    /// Symbol values are first-seen indices and `iter` walks them in that
    /// order, whatever backs the strings. The table was captured at the
    /// commit before the strings became shared.
    #[test]
    fn symbol_values_and_iter_order_match_the_captured_table() {
        // (string interned, symbol value it must get), in call order.
        let calls = [
            ("fleet_svc", 0),
            ("sk_fleet", 1),
            ("user_0", 2),
            ("fired_0", 3),
            ("user_0", 2),
            ("ti_8c1d", 4),
            ("", 5),
            ("fleet_svc", 0),
            ("user_1", 6),
            ("ti_8c1d", 4),
            ("noop_0", 7),
            ("", 5),
        ];
        let mut i = Interner::new();
        for (s, value) in calls {
            assert_eq!(i.intern(s).index(), value, "{s:?}");
        }
        let listed: Vec<(u32, &str)> = i.iter().map(|(sym, s)| (sym.index(), s)).collect();
        let table = [
            (0, "fleet_svc"),
            (1, "sk_fleet"),
            (2, "user_0"),
            (3, "fired_0"),
            (4, "ti_8c1d"),
            (5, ""),
            (6, "user_1"),
            (7, "noop_0"),
        ];
        assert_eq!(listed, table);
        for (value, s) in table {
            assert_eq!(i.resolve(Symbol(value)), s);
        }
    }

    /// A string is stored once: its first `intern` goes to the allocator
    /// once, for the string itself, and a repeat not at all. Counted by
    /// `mem`'s `alloc-count` allocator (`cargo test -p tap-protocol
    /// --features mem/alloc-count`); a build without it has nothing to
    /// count. The counter is process-wide and tests share the process:
    /// other threads can add to a reading, never take from it, so the
    /// claim is made of the quietest of a few rounds. What a round reads
    /// above one per string is the table itself growing (the map and the
    /// index double a few times on the way to 512 entries).
    #[test]
    fn a_first_intern_allocates_once_and_a_repeat_never() {
        let allocs = || mem::alloc_counts().map(|(allocs, _)| allocs);
        if allocs().is_none() {
            return;
        }
        let names: Vec<String> = (0..512).map(|n| format!("ti_{n:016x}")).collect();
        let round = |_| {
            let mut i = Interner::new();
            let mut pass = || {
                let before = allocs().expect("counting does not stop");
                for n in &names {
                    i.intern(n);
                }
                allocs().expect("counting does not stop") - before
            };
            (pass(), pass())
        };
        let rounds: Vec<(u64, u64)> = (0..8).map(round).collect();
        let first = rounds.iter().map(|r| r.0).min().expect("eight rounds");
        let repeat = rounds.iter().map(|r| r.1).min().expect("eight rounds");
        assert!(
            (512..512 + 32).contains(&first),
            "first interns: {rounds:?}"
        );
        assert_eq!(repeat, 0, "repeats: {rounds:?}");
    }
}
