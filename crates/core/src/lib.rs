//! # ifttt-core — the umbrella crate of the IFTTT-study reproduction
//!
//! Re-exports every layer of the workspace and offers the [`Lab`] facade —
//! a one-stop API that regenerates each table and figure of *An Empirical
//! Characterization of IFTTT: Ecosystem, Usage, and Performance* (IMC '17):
//!
//! ```no_run
//! use ifttt_core::Lab;
//!
//! let lab = Lab::new(2017).with_scale(0.05);
//! let t1 = lab.table1();          // service-category breakdown
//! let fig4 = lab.fig4_t2a(10);    // trigger-to-action latency CDFs
//! println!("{}", t1.render());
//! println!("{}", fig4[0].render_line());
//! ```
//!
//! Layers (see DESIGN.md for the full inventory):
//! * [`simnet`] — deterministic discrete-event network simulator;
//! * [`tap_protocol`] — the IFTTT partner-service wire protocol;
//! * [`devices`] — simulated smart-home devices, web apps, vendor clouds;
//! * [`engine`] — the TAP engine (polling, batching, realtime hints,
//!   permissions, loop detection);
//! * [`ecosystem`] — the calibrated ecosystem model, frontend, and crawler;
//! * [`analysis`] — the measurement analytics behind §3;
//! * [`testbed`] — the Figure 1 testbed and the §4 experiments.

pub use analysis;
pub use devices;
pub use ecosystem;
pub use engine;
pub use fleet;
pub use simnet;
pub use tap_protocol;
pub use testbed;

use analysis::{GrowthReport, Heatmap, Table1Report, Table2Report, Table3Report, UserContribution};
use ecosystem::generator::{Ecosystem, GeneratorConfig};
use ecosystem::model::GROWTH;
use ecosystem::Snapshot;
use std::cell::OnceCell;
use testbed::experiments::{
    concurrent_experiment, measure_t2a, sequential_experiment, timeline_experiment, T2aScenario,
};
use testbed::report::{ConcurrentReport, SequentialReport, T2aReport, TimelineReport};
use testbed::PaperApplet;

/// High-level facade over the whole reproduction.
///
/// Construction is cheap; the ecosystem is generated lazily on first use
/// and cached. All results are deterministic in the seed.
pub struct Lab {
    seed: u64,
    scale: f64,
    eco: OnceCell<Ecosystem>,
}

impl Lab {
    /// A lab with the given master seed, at full paper scale.
    pub fn new(seed: u64) -> Lab {
        Lab {
            seed,
            scale: 1.0,
            eco: OnceCell::new(),
        }
    }

    /// Shrink the ecosystem (applets/adds/users) by `scale` (≥ 0.02); the
    /// §3 analyses are scale-invariant, so tests and quick runs use 0.02–0.1.
    pub fn with_scale(mut self, scale: f64) -> Lab {
        self.scale = scale;
        self
    }

    /// The generated ecosystem (cached).
    pub fn ecosystem(&self) -> &Ecosystem {
        self.eco.get_or_init(|| {
            Ecosystem::generate(GeneratorConfig {
                seed: self.seed,
                scale: self.scale,
                multi_step_share: 0.0,
            })
        })
    }

    /// The canonical snapshot (3/25/2017).
    pub fn snapshot(&self) -> Snapshot {
        self.ecosystem().canonical_snapshot()
    }

    /// Table 1: the service-category breakdown.
    pub fn table1(&self) -> Table1Report {
        Table1Report::of(&self.snapshot())
    }

    /// Table 2: dataset comparison (measured over all 25 snapshots).
    pub fn table2(&self) -> Table2Report {
        Table2Report::of(&self.ecosystem().all_snapshots())
    }

    /// Table 3: top IoT services/triggers/actions.
    pub fn table3(&self) -> Table3Report {
        Table3Report::of(&self.snapshot(), 7)
    }

    /// Table 5: the A2-under-E2 execution timeline.
    pub fn table5(&self) -> TimelineReport {
        timeline_experiment(self.seed)
    }

    /// Figure 2: the trigger×action category heat map.
    pub fn fig2(&self) -> Heatmap {
        Heatmap::of(&self.snapshot())
    }

    /// Figure 3: the applet add-count rank series (log-spaced).
    pub fn fig3(&self, points: usize) -> Vec<analysis::tail::RankPoint> {
        let adds: Vec<u64> = self
            .snapshot()
            .applets
            .iter()
            .map(|a| a.add_count)
            .collect();
        analysis::tail::rank_series(&adds, points)
    }

    /// Figure 4: T2A latency for A1–A7 with official services.
    pub fn fig4_t2a(&self, runs: usize) -> Vec<T2aReport> {
        testbed::applets::ALL_PAPER_APPLETS
            .iter()
            .enumerate()
            .map(|(i, a)| measure_t2a(&T2aScenario::official(*a, runs, self.seed + i as u64)))
            .collect()
    }

    /// Figure 4 for one applet.
    pub fn fig4_one(&self, applet: PaperApplet, runs: usize) -> T2aReport {
        measure_t2a(&T2aScenario::official(applet, runs, self.seed))
    }

    /// Figure 5: A2 under E1 / E2 / E3.
    pub fn fig5_substitution(&self, runs: usize) -> Vec<T2aReport> {
        vec![
            measure_t2a(&T2aScenario::e1(runs, self.seed + 11)),
            measure_t2a(&T2aScenario::e2(runs, self.seed + 12)),
            measure_t2a(&T2aScenario::e3(runs, self.seed + 13)),
        ]
    }

    /// Figure 6: sequential activations and action clustering.
    pub fn fig6_sequential(&self, activations: usize) -> SequentialReport {
        sequential_experiment(activations, 5, 30.0, self.seed + 21)
    }

    /// Figure 7: concurrent same-trigger applets.
    pub fn fig7_concurrent(&self, runs: usize) -> ConcurrentReport {
        concurrent_experiment(runs, self.seed + 31)
    }

    /// §3.2 growth report across the 25 weekly snapshots.
    pub fn growth(&self) -> GrowthReport {
        GrowthReport::of(
            &self.ecosystem().all_snapshots(),
            GROWTH.week_start as u32,
            GROWTH.week_end as u32,
        )
    }

    /// §3.2 user-contribution stats.
    pub fn users(&self) -> UserContribution {
        UserContribution::of(&self.snapshot())
    }

    /// A sharded fleet-scale workload run (see the [`fleet`] crate): the
    /// lab's seed becomes the master seed, and its scale sizes the applet
    /// catalog the synthetic population installs from.
    pub fn fleet(
        &self,
        users: u64,
        shards: usize,
        policy: fleet::FleetPolicy,
    ) -> fleet::FleetReport {
        let cfg = fleet::FleetConfig::new(users, shards, policy)
            .with_seed(self.seed)
            .with_eco_scale(self.scale);
        fleet::run_fleet(&cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_is_lazy_and_deterministic() {
        let a = Lab::new(7).with_scale(0.02);
        let b = Lab::new(7).with_scale(0.02);
        assert_eq!(a.snapshot(), b.snapshot());
        let c = Lab::new(8).with_scale(0.02);
        assert_ne!(a.snapshot(), c.snapshot());
    }

    #[test]
    fn lab_builds_fast_paper_artifacts() {
        let lab = Lab::new(9).with_scale(0.02);
        assert_eq!(lab.table1().rows.len(), 14);
        assert_eq!(lab.table2().measured_snapshots, 25);
        assert_eq!(lab.table3().top_trigger_services.len(), 7);
        assert_eq!(lab.fig2().cells.len(), 14);
        assert!(!lab.fig3(20).is_empty());
        assert_eq!(lab.growth().weekly.len(), 25);
        assert!(lab.users().user_channels > 1000);
    }
}
