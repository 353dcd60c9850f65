//! Shared fixtures for determinism tests: pinned golden digests and the
//! canonical configurations they are pinned against.
//!
//! Golden digests used to live as string literals scattered across
//! `crates/fleet/tests/*.rs`, the distributed-fleet suite, and CI smoke
//! steps; re-pinning one after an intentional behaviour change meant a
//! repo-wide grep. They now live here once: both the in-process
//! determinism tests and the distributed digest-equality harness import
//! the same constant, so a re-pin is a one-line change and the two
//! execution modes can never be pinned against different bytes.
//!
//! The config constructors are part of the contract: a golden only means
//! something relative to the exact configuration that produced it, so the
//! configuration lives next to the digest it feeds.

use crate::runner::{ChaosProfile, ChurnProfile, FleetConfig, FleetPolicy};

/// Pinned golden digests (`FleetReport::digest` values), one constant per
/// scenario. Every constant names the config constructor it pairs with.
pub mod goldens {
    /// [`super::small_fast_cfg`] — 200 users, fast policy, seed 2017.
    /// Re-pinned from "2aafbbf2ca69879f" when coalesced batch polling
    /// became the fleet default (PR 3).
    pub const SMALL_FAST: &str = "a3663e4dce1af97c";

    /// [`super::ifttt_bench_cfg`] at 100k users — the headline
    /// production-like golden. Re-pinned from "5cf23eafb051e618" with
    /// batch polling (PR 3).
    pub const IFTTT_100K: &str = "d19f6cc3f574bc8a";

    /// [`super::small_chaos_cfg`] — the small fast fleet under the mild
    /// fault profile (PR 4).
    pub const SMALL_CHAOS: &str = "cb8eaede0bf587b3";

    /// 100k users, fast policy, mild chaos, drain ≥ 120 s (PR 4).
    pub const CHAOS_100K: &str = "0f2284d6358e4e11";

    /// [`super::small_realtime_cfg`] — the small fast fleet at realtime
    /// share 0.5 (PR 6).
    pub const SMALL_REALTIME: &str = "3e9fa714a42a73d9";

    /// [`super::cli_default_cfg`] at 10k users — the `ifttt-lab fleet
    /// --users 10_000` configuration the CI smoke runs and BENCH_fleet
    /// baselines use (PR 8).
    pub const CLI_10K: &str = "506777bc28e2d2de";

    /// [`super::cli_default_cfg`] at 100k users (PR 8).
    pub const CLI_100K: &str = "e22878011a4f222b";

    /// [`super::cli_default_cfg`] at 1M users (PR 8); informational — no
    /// test runs it, BENCH_fleet.json records it.
    pub const CLI_1M: &str = "f7920cbd9b0d9984";

    /// [`super::small_churn_cfg`] — the small fast fleet under 10×
    /// accelerated ecosystem churn (PR 10).
    pub const SMALL_CHURN: &str = "a3a22e994abac6eb";
}

/// The cheap always-on golden scenario: 200 users, fast policy, seed-
/// parameterized (goldens hold at seed 2017), 4 cells of 50, short
/// phases. Pairs with [`goldens::SMALL_FAST`].
pub fn small_fast_cfg(shards: usize, seed: u64) -> FleetConfig {
    FleetConfig::new(200, shards, FleetPolicy::Fast)
        .with_seed(seed)
        .with_cell_users(50)
        .with_phases(10.0, 60.0, 30.0)
}

/// [`small_fast_cfg`] under the mild chaos profile with the drain
/// stretched the way `ifttt-lab --chaos` stretches it, so retry chains
/// finish inside the cell horizon. Pairs with [`goldens::SMALL_CHAOS`].
pub fn small_chaos_cfg(shards: usize, seed: u64) -> FleetConfig {
    let mut c = small_fast_cfg(shards, seed).with_chaos(ChaosProfile::Mild);
    c.drain_secs = 120.0;
    c
}

/// [`small_fast_cfg`] at realtime share 0.5. Pairs with
/// [`goldens::SMALL_REALTIME`].
pub fn small_realtime_cfg(shards: usize, seed: u64) -> FleetConfig {
    small_fast_cfg(shards, seed).with_realtime_share(0.5)
}

/// [`small_fast_cfg`] under 10× accelerated ecosystem churn, so every
/// lifecycle transition (install, uninstall, onboard, retire, orphaned
/// activations) occurs inside the short window. Pairs with
/// [`goldens::SMALL_CHURN`].
pub fn small_churn_cfg(shards: usize, seed: u64) -> FleetConfig {
    small_fast_cfg(shards, seed).with_churn(ChurnProfile::Accelerated)
}

/// A production-like configuration with shortened phases; at 100k users it
/// pairs with [`goldens::IFTTT_100K`].
pub fn ifttt_bench_cfg(users: u64, shards: usize) -> FleetConfig {
    FleetConfig::new(users, shards, FleetPolicy::IftttLike).with_phases(10.0, 120.0, 400.0)
}

/// Exactly what `ifttt-lab fleet --users N --shards S` runs: stock
/// defaults, production-like polling, seed 2017. Pairs with
/// [`goldens::CLI_10K`] / [`goldens::CLI_100K`] / [`goldens::CLI_1M`].
pub fn cli_default_cfg(users: u64, shards: usize) -> FleetConfig {
    FleetConfig::new(users, shards, FleetPolicy::IftttLike)
}

/// The 2k-user differential population shared by the multi-step and
/// storage differentials: big enough that batching, retries, and every
/// generator DAG shape appear; small enough for the debug tier.
pub fn differential_2k_cfg(shards: usize) -> FleetConfig {
    FleetConfig::new(2000, shards, FleetPolicy::Fast)
        .with_seed(2017)
        .with_cell_users(500)
        .with_phases(10.0, 60.0, 30.0)
}
