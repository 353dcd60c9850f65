//! Offline shim for `proptest`.
//!
//! Runs each property as a deterministic loop of randomly generated cases
//! (256 by default, override with `PROPTEST_CASES`). There is no shrinking:
//! a failing case panics with the generated inputs in the message, and the
//! run is reproducible because case seeds are fixed.

pub mod collection;
pub mod strategy;

pub use strategy::{any, Just, Strategy};

use rand::{SeedableRng, StdRng};

/// Number of cases each property runs.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// The RNG used for one generated case. Seeds are fixed per case index, so
/// failures reproduce without any persistence file.
pub fn case_rng(case: u32) -> StdRng {
    StdRng::seed_from_u64(0x5EED_CAFE_0000_0000 ^ u64::from(case))
}

/// Deterministically sample one value from a strategy (test-support helper).
pub fn sample_one<S: Strategy>(strategy: &S, seed: u64) -> S::Value {
    strategy.generate(&mut StdRng::seed_from_u64(seed))
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: cases() }
    }
}

/// Declare property tests: each `fn` becomes a function that draws its
/// arguments [`cases()`] times and runs the body (put `#[test]` on it in a
/// test module).
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     fn addition_commutes(a in 0u32..100, b in 0u32..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// addition_commutes();
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest_with_cases! { ($config); $($rest)* }
    };
    ($(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat_param in $strategy:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cases = $crate::cases();
            for __case in 0..__cases {
                let mut __rng = $crate::case_rng(__case);
                $(
                    let $arg = $crate::Strategy::generate(&$strategy, &mut __rng);
                )*
                $body
            }
        }
    )*};
}

/// Internal: `proptest!` body with an explicit [`ProptestConfig`].
#[doc(hidden)]
#[macro_export]
macro_rules! proptest_with_cases {
    (($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat_param in $strategy:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cases = ($config).cases;
            for __case in 0..__cases {
                let mut __rng = $crate::case_rng(__case);
                $(
                    let $arg = $crate::Strategy::generate(&$strategy, &mut __rng);
                )*
                $body
            }
        }
    )*};
}

/// Assert inside a property (panics with the condition text on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Pick one of several weighted strategies (weights are ignored by the shim;
/// branches are chosen uniformly).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $( $crate::strategy::Mapped::boxed($strategy) ),+
        ])
    };
}

/// Everything a test usually imports.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, proptest_with_cases,
    };
    pub use rand::{Rng, RngCore, SeedableRng};
}

/// Strategy implementations.
pub mod arbitrary {
    pub use crate::strategy::Arbitrary;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(a in 5u64..10, b in 0.0f64..1.0, c in 1u8..=3) {
            prop_assert!((5..10).contains(&a));
            prop_assert!((0.0..1.0).contains(&b));
            prop_assert!((1..=3).contains(&c));
        }

        #[test]
        fn string_patterns_match_shape(s in "[a-c]{2,4}", t in "ref") {
            prop_assert!((2..=4).contains(&s.len()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            prop_assert_eq!(&t, "ref");
        }

        #[test]
        fn btree_map_sizes(m in crate::collection::btree_map("[a-z]{1,3}", 0u32..9, 0..5)) {
            prop_assert!(m.len() < 5);
        }
    }

    #[test]
    fn any_is_deterministic_per_case() {
        let s = any::<u64>();
        let a = crate::sample_one(&s, 1);
        let b = crate::sample_one(&s, 1);
        assert_eq!(a, b);
    }
}
