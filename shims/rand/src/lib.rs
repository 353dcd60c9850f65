//! Offline shim for the `rand` crate.
//!
//! Provides the subset of the rand 0.8 API this workspace uses — `Rng`,
//! `SeedableRng`, `rngs::StdRng`, and `seq::SliceRandom` — backed by a
//! xoshiro256++ generator seeded through SplitMix64. The stream differs
//! from upstream `StdRng` (ChaCha12), which is fine here: the simulator
//! only relies on determinism and statistical quality, never on exact
//! upstream draw values.

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    pub use crate::StdRng;
}

pub mod seq {
    pub use crate::SliceRandom;

    /// Index-sampling helpers (subset of `rand::seq::index`).
    pub mod index {
        use crate::{Rng, RngCore};

        /// Sample `amount` distinct indices from `0..length`, like
        /// `rand::seq::index::sample`. Uses Floyd's algorithm, then shuffles
        /// so the order is random as upstream guarantees.
        pub fn sample<R: Rng + RngCore>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(
                amount <= length,
                "cannot sample {amount} of {length} indices"
            );
            let mut chosen = std::collections::HashSet::with_capacity(amount);
            let mut out = Vec::with_capacity(amount);
            for j in length - amount..length {
                let t = rng.gen_range(0..=j);
                if chosen.insert(t) {
                    out.push(t);
                } else {
                    chosen.insert(j);
                    out.push(j);
                }
            }
            use crate::SliceRandom;
            out.shuffle(rng);
            IndexVec(out)
        }

        /// The result of [`sample`]: a sequence of distinct indices.
        #[derive(Debug, Clone)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            pub fn len(&self) -> usize {
                self.0.len()
            }

            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }
    }
}

/// A seedable random number generator (the subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Seed the generator from a single `u64`.
    fn seed_from_u64(state: u64) -> Self;
}

/// The workspace's standard RNG: xoshiro256++ (Blackman & Vigna).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for StdRng {
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = state;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }
}

impl StdRng {
    fn next_raw(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Core entropy source: everything else is derived from `next_u64`.
pub trait RngCore {
    /// Produce the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that `Rng::gen` can produce uniformly (rand's `Standard` impls).
pub trait Standard: Sized {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for i128 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u128::from_rng(rng) as i128
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform on [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Number types `gen_range` understands (rand's `SampleUniform`).
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                lo.wrapping_add(bounded_u64(rng, span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(bounded_u64(rng, span + 1) as $t)
            }
        }
    )*};
}
uniform_int!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
             i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range: empty f64 range");
        let u = f64::from_rng(rng);
        let v = lo + u * (hi - lo);
        // Floating rounding can land exactly on `hi`; fold back inside.
        if v >= hi {
            lo.max(hi - (hi - lo) * f64::EPSILON)
        } else {
            v
        }
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "gen_range: empty f64 range");
        lo + f64::from_rng(rng) * (hi - lo)
    }
}

impl SampleUniform for f32 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        f64::sample_half_open(rng, lo as f64, hi as f64) as f32
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        f64::sample_inclusive(rng, lo as f64, hi as f64) as f32
    }
}

/// Uniform draw in `[0, bound)` via Lemire's multiply-then-reject method.
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    if bound == 0 {
        return rng.next_u64();
    }
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(bound as u128);
        let low = m as u64;
        if low >= bound.wrapping_neg() % bound {
            return (m >> 64) as u64;
        }
    }
}

/// Range argument for `gen_range` (rand's `SampleRange`).
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// The user-facing generator trait (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform sample of `T` over its `Standard` distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Uniform sample from a half-open or inclusive range.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        Self: Sized,
        T: SampleUniform,
        Rg: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::from_rng(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Slice helpers (subset of `rand::seq::SliceRandom`).
pub trait SliceRandom {
    type Item;

    /// A uniformly random element, or `None` when empty.
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

    /// Fisher–Yates shuffle in place.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[bounded_u64(rng, self.len() as u64) as usize])
        }
    }

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = bounded_u64(rng, (i + 1) as u64) as usize;
            self.swap(i, j);
        }
    }
}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::{Rng, RngCore, SampleUniform, SeedableRng, SliceRandom, StdRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: u64 = r.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: u32 = r.gen_range(5..=5);
            assert_eq!(w, 5);
            let f: f64 = r.gen_range(1.0..2.0);
            assert!((1.0..2.0).contains(&f));
            let e: f64 = r.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&e));
        }
    }

    #[test]
    fn unit_float_in_range() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut r = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mean = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut r = StdRng::seed_from_u64(9);
        let v = [1, 2, 3, 4];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(*v.choose(&mut r).unwrap());
        }
        assert_eq!(seen.len(), 4);
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut r).is_none());
    }
}
