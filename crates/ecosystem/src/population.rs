//! Fleet-scale user-channel population sampling.
//!
//! §3.3 of the paper characterizes the ~135K user channels by how many
//! applets each installs and which applets they pick (installs concentrate
//! heavily on popular applets — the Zipf-like add-count tail of Figure 3).
//! A million-user workload cannot materialize that population up front, so
//! [`PopulationSampler`] is a *function* from a global user index to a
//! [`UserProfile`]: `user(i)` depends only on `(seed, i)`, never on call
//! order or on which shard asks. That property is what makes fleet runs
//! shard-count invariant and keeps per-shard memory bounded — a shard only
//! ever holds the profiles of the cell it is currently simulating.

use crate::generator::{add_count_in_week, Ecosystem};
use crate::model::GROWTH;
use crate::snapshot::Snapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::rng::derive_seed;
use tap_protocol::StepNode;

/// The most applets a synthetic user channel installs. Kept small so one
/// user maps onto a fixed set of per-user trigger slots in the fleet's
/// workload service.
pub const MAX_INSTALLS_PER_USER: usize = 4;

/// One applet installation in a synthetic user channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstalledApplet {
    /// Index into the snapshot's applet list.
    pub applet: usize,
    /// Canonical add count of that applet (drives §6 smart polling).
    pub add_count: u64,
}

/// The applets one synthetic user channel has installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserProfile {
    /// Global user index this profile was derived from.
    pub user: u64,
    /// 1–[`MAX_INSTALLS_PER_USER`] installations, add-count weighted.
    pub installs: Vec<InstalledApplet>,
}

/// Deterministic, O(#applets)-memory sampler of synthetic user channels.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSampler {
    /// Cumulative install weights over the snapshot's applets (each applet
    /// weighs `max(add_count, 1)` so zero-add applets stay reachable).
    cum: Vec<u64>,
    adds: Vec<u64>,
    /// Per-applet execution DAGs (empty for classic trigger→action
    /// applets); indexed like `adds`.
    steps: Vec<Vec<StepNode>>,
    total: u64,
    seed: u64,
}

impl PopulationSampler {
    /// Build a sampler over `snap`'s applet catalog, copying each DAG.
    ///
    /// # Panics
    /// Panics if the snapshot has no applets.
    pub fn new(snap: &Snapshot, seed: u64) -> Self {
        let applets = snap.applets.iter();
        Self::build(
            applets.len(),
            applets.map(|a| (a.add_count, a.steps.clone())),
            seed,
        )
    }

    /// Build the sampler `new(&eco.canonical_snapshot(), seed)` builds, by
    /// consuming `eco`: each canonical applet's DAG moves into the sampler
    /// and no [`Snapshot`] is made, so the catalog is held once.
    ///
    /// # Panics
    /// Panics if the canonical week has no applets.
    pub fn from_ecosystem(eco: Ecosystem, seed: u64) -> Self {
        let add_count = add_count_in_week(GROWTH.week_canonical as u32);
        let len = eco
            .applets
            .iter()
            .filter(|a| add_count(a).is_some())
            .count();
        let applets = eco.applets.into_iter();
        Self::build(
            len,
            applets.filter_map(|a| Some((add_count(&a)?, a.steps))),
            seed,
        )
    }

    /// The one constructor: `len` applets as `(add_count, steps)`, in
    /// catalog order. The vectors are reserved at exactly `len`, so the
    /// sampler a run keeps holds no spare capacity.
    fn build(len: usize, applets: impl Iterator<Item = (u64, Vec<StepNode>)>, seed: u64) -> Self {
        let mut cum = Vec::with_capacity(len);
        let mut adds = Vec::with_capacity(len);
        let mut steps = Vec::with_capacity(len);
        let mut total = 0u64;
        for (add_count, dag) in applets {
            total += add_count.max(1);
            cum.push(total);
            adds.push(add_count);
            steps.push(dag);
        }
        assert!(total > 0, "population sampler needs a non-empty snapshot");
        PopulationSampler {
            cum,
            adds,
            steps,
            total,
            seed,
        }
    }

    /// Number of applets in the sampled catalog.
    pub fn applet_count(&self) -> usize {
        self.cum.len()
    }

    /// The execution DAG of applet `idx` (empty for classic single-step
    /// applets). Installers clone and re-slug it per installation.
    pub fn steps_of(&self, idx: usize) -> &[StepNode] {
        &self.steps[idx]
    }

    /// The add count at percentile `p` (0–100) of the catalog — e.g. the
    /// p90 knee used as the smart-polling "hot" threshold.
    pub fn add_count_percentile(&self, p: f64) -> u64 {
        let mut sorted = self.adds.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Add-count-weighted applet pick.
    fn pick(&self, rng: &mut StdRng) -> usize {
        let r = rng.gen_range(0..self.total);
        self.cum.partition_point(|&c| c <= r)
    }

    /// The profile of user `index`. Pure in `(seed, index)`.
    pub fn user(&self, index: u64) -> UserProfile {
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, index));
        // Install count: geometric-ish with mean ≈ 1.33, capped — most
        // channels hold one applet, a tail holds several (§3.3's skewed
        // per-user contribution).
        let mut n = 1usize;
        while n < MAX_INSTALLS_PER_USER && rng.gen_bool(0.25) {
            n += 1;
        }
        let installs = (0..n)
            .map(|_| {
                let idx = self.pick(&mut rng);
                InstalledApplet {
                    applet: idx,
                    add_count: self.adds[idx],
                }
            })
            .collect();
        UserProfile {
            user: index,
            installs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GeneratorConfig;

    fn sampler(seed: u64) -> PopulationSampler {
        let eco = Ecosystem::generate(GeneratorConfig::test_scale(7));
        PopulationSampler::new(&eco.canonical_snapshot(), seed)
    }

    /// Consuming the ecosystem builds the sampler the canonical snapshot
    /// builds — same weights, add counts, DAGs and seed, so the same
    /// percentiles and users — and keeps no spare capacity.
    #[test]
    fn from_ecosystem_builds_the_snapshot_sampler() {
        for scale in [0.02, 0.035] {
            for multi_step_share in [0.0, 0.5] {
                for seed in [7, 2017, 0xdead_beef] {
                    let eco = Ecosystem::generate(GeneratorConfig {
                        seed,
                        scale,
                        multi_step_share,
                    });
                    let want = PopulationSampler::new(&eco.canonical_snapshot(), seed);
                    let got = PopulationSampler::from_ecosystem(eco, seed);
                    let case = format!("scale {scale}, share {multi_step_share}, seed {seed}");
                    assert!(got == want, "{case}");
                    let n = got.applet_count();
                    assert_eq!(
                        [
                            got.cum.capacity(),
                            got.adds.capacity(),
                            got.steps.capacity()
                        ],
                        [n; 3],
                        "{case}"
                    );
                    assert!(multi_step_share == 0.0 || got.steps.iter().any(|s| !s.is_empty()));
                }
            }
        }
    }

    #[test]
    fn profiles_are_pure_in_seed_and_index() {
        let s1 = sampler(11);
        let s2 = sampler(11);
        for i in [0u64, 1, 999, 1_000_000] {
            assert_eq!(s1.user(i), s2.user(i));
        }
        assert_ne!(s1.user(3), sampler(12).user(3));
        assert_ne!(s1.user(3), s1.user(4));
    }

    #[test]
    fn install_counts_stay_in_bounds_and_skew_low() {
        let s = sampler(5);
        let counts: Vec<usize> = (0..2000).map(|i| s.user(i).installs.len()).collect();
        assert!(counts
            .iter()
            .all(|&c| (1..=MAX_INSTALLS_PER_USER).contains(&c)));
        let singles = counts.iter().filter(|&&c| c == 1).count();
        assert!(
            singles > 1200,
            "most users hold one applet ({singles}/2000)"
        );
        assert!(counts.iter().any(|&c| c > 1), "a tail holds several");
    }

    #[test]
    fn popular_applets_are_installed_more() {
        let s = sampler(5);
        // Empirical install mass of the top-decile applets should far
        // exceed their share of the catalog (add-count weighting).
        let hot = s.add_count_percentile(90.0);
        let mut hot_hits = 0usize;
        let mut total = 0usize;
        for i in 0..3000 {
            for ins in s.user(i).installs {
                total += 1;
                if ins.add_count >= hot {
                    hot_hits += 1;
                }
            }
        }
        let share = hot_hits as f64 / total as f64;
        assert!(
            share > 0.5,
            "top-decile applets draw {share:.2} of installs"
        );
    }

    #[test]
    fn percentiles_are_monotone() {
        let s = sampler(5);
        assert!(s.add_count_percentile(50.0) <= s.add_count_percentile(90.0));
        assert!(s.add_count_percentile(90.0) <= s.add_count_percentile(100.0));
    }
}
