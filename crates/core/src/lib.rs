//! # ifttt-core — the umbrella crate of the IFTTT-study reproduction
//!
//! Re-exports every layer of the workspace. [`paper`] regenerates each table
//! and figure of *An Empirical Characterization of IFTTT: Ecosystem, Usage,
//! and Performance* (IMC '17) from a [`Lab`] and checks every one of them
//! against the paper's numbers (`ifttt-lab paper`):
//!
//! ```no_run
//! use ifttt_core::{paper, Lab};
//!
//! let lab = Lab::new(2017).with_scale(0.05);
//! let artifacts = paper::regenerate(&lab); // every table and figure
//! let checks = paper::check(paper::PAPER_TARGETS, &artifacts, 0.05);
//! print!("{}", paper::render_checks(&checks)); // measured | paper | band | verdict
//! ```
//!
//! Layers (see DESIGN.md for the full inventory):
//! * [`simnet`] — deterministic discrete-event network simulator;
//! * [`tap_protocol`] — the IFTTT partner-service wire protocol;
//! * [`devices`] — simulated smart-home devices, web apps, vendor clouds;
//! * [`engine`] — the TAP engine (polling, batching, realtime hints, loop
//!   detection);
//! * [`ecosystem`] — the calibrated ecosystem model, frontend, and crawler;
//! * [`analysis`] — the measurement analytics behind §3;
//! * [`testbed`] — the Figure 1 testbed, the §4 experiments and the §6
//!   permission models;
//! * [`fleet`] — the sharded fleet-scale workload.

pub use analysis;
pub use devices;
pub use ecosystem;
pub use engine;
pub use fleet;
pub use simnet;
pub use tap_protocol;
pub use testbed;

pub mod paper;

use ecosystem::generator::{Ecosystem, GeneratorConfig};
use ecosystem::Snapshot;
use std::cell::OnceCell;

/// The master seed and catalog scale every [`paper`] artifact is
/// regenerated from.
///
/// Construction is cheap; the ecosystem and its canonical snapshot are
/// built lazily on first use and held once. All results are deterministic
/// in the seed.
pub struct Lab {
    seed: u64,
    scale: f64,
    eco: OnceCell<Ecosystem>,
    snapshot: OnceCell<Snapshot>,
}

impl Lab {
    /// A lab with the given master seed, at full paper scale.
    pub fn new(seed: u64) -> Lab {
        Lab {
            seed,
            scale: 1.0,
            eco: OnceCell::new(),
            snapshot: OnceCell::new(),
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

    /// The canonical snapshot (3/25/2017, cached).
    pub fn snapshot(&self) -> &Snapshot {
        self.snapshot
            .get_or_init(|| self.ecosystem().canonical_snapshot())
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
        assert!(std::ptr::eq(a.snapshot(), a.snapshot()), "built once");
    }

    #[test]
    fn lab_builds_fast_paper_artifacts() {
        let lab = Lab::new(9).with_scale(0.02);
        let fast = [
            paper::table1,
            paper::table2,
            paper::table3,
            paper::fig2,
            paper::fig3,
        ];
        for artifact in fast.map(|regenerate| regenerate(&lab)) {
            assert!(!artifact.text.is_empty() && !artifact.measured.is_empty());
        }
        assert_eq!(paper::table2(&lab).get("snapshots"), Some(25.0));
        assert!(paper::growth_users(&lab).text.contains("user channels"));
    }
}
