//! Per-layer kernels: each times calls into one crate's public functions
//! on inputs shaped like the fleet's, from outside the crate.
//!
//! Every kernel first checks that its fixture does real work in the real
//! layer (a body round-trips, a memo is hit, a counter moves) and panics
//! otherwise, so a kernel cannot silently time a no-op.

pub mod fixtures;
pub mod layers;
pub mod rig;
pub mod scenarios;

use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Metric name → value, in the unit `BENCHMARK.json` declares for it.
pub type Results = BTreeMap<String, f64>;

/// How long to measure each kernel.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Host time one sample should take.
    pub sample: Duration,
    pub samples: usize,
    /// Repeats of each simulation scenario (engine kernels).
    pub scenario_reps: usize,
}

impl Timing {
    pub const FULL: Timing = Timing {
        sample: Duration::from_millis(15),
        samples: 5,
        scenario_reps: 5,
    };
    /// For self-tests: enough to exercise every kernel, not to time it.
    pub const QUICK: Timing = Timing {
        sample: Duration::from_micros(200),
        samples: 2,
        scenario_reps: 1,
    };
}

/// Median host nanoseconds per operation of `f`, which performs `ops`
/// operations per call.
pub fn ns_per_op(t: Timing, ops: u64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy set-up
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_nanos().max(1);
    let calls = (t.sample.as_nanos() / one).clamp(1, 10_000_000) as u64;
    let samples: Vec<f64> = (0..t.samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / (calls * ops) as f64
        })
        .collect();
    stats::median(&samples)
}

/// Run every kernel. `shard_bin` is the `fleet-shard` executable the
/// distributed hand-shake kernel spawns.
pub fn run_all(t: Timing, shard_bin: &Path) -> Results {
    let mut out = Results::new();
    let fx = fixtures::Fixtures::capture();
    fx.verify();
    layers::ecosystem(t, &mut out);
    layers::fleet(t, &mut out);
    layers::simnet(t, &mut out);
    layers::json(t, &fx, &mut out);
    layers::tap_protocol(t, &fx, &mut out);
    layers::devices(t, fx, &mut out);
    layers::mem(t, &mut out);
    layers::fleet_wire(t, &mut out);
    layers::fleet_wire_handshake(t, shard_bin, &mut out);
    scenarios::engine(t, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    /// Every kernel but the worker hand-shake, which needs the
    /// `fleet-shard` executable (`run.sh --smoke --trace 1` covers it).
    /// Each kernel asserts on its own fixture before and after timing it.
    #[test]
    fn every_kernel_verifies_its_fixture_and_reports_a_declared_metric() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let spec = Spec::load(&root).expect("declarations load");
        let t = Timing::QUICK;
        let mut out = Results::new();
        let fx = fixtures::Fixtures::capture();
        fx.verify();
        layers::ecosystem(t, &mut out);
        layers::fleet(t, &mut out);
        layers::simnet(t, &mut out);
        layers::json(t, &fx, &mut out);
        layers::tap_protocol(t, &fx, &mut out);
        layers::devices(t, fx, &mut out);
        layers::mem(t, &mut out);
        layers::fleet_wire(t, &mut out);
        scenarios::engine(t, &mut out);
        assert!(out.len() >= 50, "{} kernels ran", out.len());
        for (name, value) in &out {
            assert!(
                spec.contract.metric(name).is_some(),
                "{name} is not declared in BENCHMARK.json"
            );
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }

    #[test]
    fn ns_per_op_scales_with_the_work_done() {
        let spin = |n: u64| {
            let mut x = 0u64;
            for i in 0..n {
                x = std::hint::black_box(x ^ i);
            }
            std::hint::black_box(x);
        };
        let t = Timing {
            sample: Duration::from_millis(2),
            samples: 3,
            scenario_reps: 1,
        };
        let small = ns_per_op(t, 1, || spin(1_000));
        let large = ns_per_op(t, 1, || spin(100_000));
        assert!(large > small * 10.0, "{large} vs {small}");
        // Declaring the operations a call performs divides them out.
        let per_op = ns_per_op(t, 100_000, || spin(100_000));
        assert!(per_op * 1_000.0 < large, "{per_op} vs {large}");
    }
}
