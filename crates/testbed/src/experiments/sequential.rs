//! Sequential execution (Figure 6).
//!
//! "We next test the performance when a trigger is activated multiple
//! times sequentially (every 5 seconds in our experiment). … the actions
//! naturally form a cluster" because one poll response carries up to
//! `limit` buffered events that the engine dispatches back-to-back.

use crate::applets::{paper_applet, PaperApplet, ServiceVariant};
use crate::report::SequentialReport;
use crate::topology::{Testbed, TestbedConfig};
use engine::{EngineConfig, ObsEvent, TapEngine};
use simnet::prelude::*;

/// Run the Figure 6 experiment: `n` activations of A3's trigger spaced
/// `spacing` seconds apart; actions are read from the engine's typed
/// event stream. Clusters are separated by > `cluster_gap` s.
pub fn sequential_experiment(
    n: usize,
    spacing_secs: u64,
    cluster_gap: f64,
    seed: u64,
) -> SequentialReport {
    let mut tb = Testbed::build(TestbedConfig {
        seed,
        engine: EngineConfig::ifttt_like(),
    });
    let applet = paper_applet(PaperApplet::A3, ServiceVariant::Official);
    tb.install(applet).expect("applet installs");
    tb.sim.run_for(SimDuration::from_secs(10));

    let t0 = tb.sim.now();
    let mut triggers = Vec::with_capacity(n);
    for i in 0..n {
        let at = t0 + SimDuration::from_secs(spacing_secs * i as u64);
        tb.sim.run_until(at);
        triggers.push(tb.sim.now().since(t0).as_secs_f64());
        tb.controller(|c, ctx| c.inject_email(ctx, &format!("sequential {i}"), None));
    }
    // Wait until every action executed (each email is one blink action).
    let deadline = tb.sim.now() + SimDuration::from_mins(40);
    loop {
        let done = tb
            .sim
            .node_ref::<TapEngine>(tb.nodes.engine)
            .stats
            .actions_ok as usize;
        if done >= n || tb.sim.now() >= deadline {
            break;
        }
        tb.sim.run_for(SimDuration::from_secs(5));
    }
    assert_eq!(tb.flight.dropped(), 0, "run outgrew the flight ring");
    let actions: Vec<f64> = tb
        .flight
        .events()
        .iter()
        .filter_map(|ev| match ev {
            ObsEvent::ActionFinished { ok: true, at, .. } if *at >= t0 => Some(*at),
            _ => None,
        })
        .map(|at| at.since(t0).as_secs_f64())
        .collect();
    SequentialReport::new(triggers, actions, cluster_gap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_cluster_by_poll_batches() {
        let r = sequential_experiment(12, 5, 30.0, 401);
        assert_eq!(r.triggers.len(), 12);
        assert_eq!(r.actions.len(), 12, "every trigger eventually acts");
        // The 12 triggers span 55 s but actions arrive in few clusters
        // (poll interval ≈ 2–3 min ≫ 5 s spacing).
        assert!(
            r.clusters.len() <= 4,
            "expected few clusters, got {}",
            r.clusters.len()
        );
        // Actions are time-ordered and each trigger's action comes after it.
        assert!(r.actions.windows(2).all(|w| w[0] <= w[1]));
        assert!(r.actions[0] >= r.triggers[0]);
        // Within a cluster, actions are back-to-back (sub-second gaps).
        for c in &r.clusters {
            for w in c.windows(2) {
                assert!(w[1] - w[0] < 2.0, "intra-cluster gap {}", w[1] - w[0]);
            }
        }
    }

    #[test]
    fn first_cluster_is_poll_delayed() {
        let r = sequential_experiment(6, 5, 30.0, 402);
        // The first action waits for the next poll: tens of seconds at
        // least, like the 119 s example in the paper.
        assert!(r.actions[0] > 10.0, "first action at {}", r.actions[0]);
    }
}
