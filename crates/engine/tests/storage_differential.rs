//! Differential test for the slab-backed in-flight stores.
//!
//! The engine keeps dispatches, DAG runs, and pending batch polls in
//! generation-checked slab arenas ([`mem::Arena`]); the arena also ships a
//! `HashMap` reference implementation that hands out the same handle
//! sequence from associative storage. Storage strategy must be completely
//! unobservable: the same seeded world driven through both backends has to
//! produce the *identical* [`ObsEvent`] stream — not just matching
//! counters, but the same events with the same ids, attempts, and stamps,
//! in the same order.
//!
//! The worlds here exercise every arena on both its hot path and its churn
//! path: sibling subscriptions coalesce into batch polls
//! (`pending_batches`), a multi-step query → action applet opens DAG runs
//! (`dag_runs`), and a 503 outage window forces retries so dispatch slots
//! are recycled across generations (`dispatches`).

mod support;

use engine::{EngineConfig, FlightRecorder, ObsEvent, TapEngine};
use simnet::chaos::{ServerFault, ServerFaultPlan};
use simnet::net::LinkId;
use simnet::prelude::*;
use std::sync::Arc;
use support::{connect, fire, slot_applet, Echo, EchoService};
use tap_protocol::{FieldMap, StepNode, StepSpec, UserId};

const SLUG: &str = "diffsvc";
/// Classic applets t0..t2 share one (user, service) poll group; t3 carries
/// the DAG.
const CLASSIC: usize = 3;

struct World {
    sim: Sim,
    engine: NodeId,
    svc: NodeId,
    #[allow(dead_code)]
    link: LinkId,
    flight: Arc<FlightRecorder>,
}

/// Build the world; `reference` selects the `HashMap` storage backend
/// before any applet is installed (the arenas must be empty at the swap).
fn world(seed: u64, reference: bool) -> World {
    let cfg = EngineConfig::fast().resilient().with_batch_polling(true);
    let mut sim = Sim::new(seed);
    let svc = sim.add_node(
        SLUG,
        Echo::service(SLUG, "sk_diff", CLASSIC + 1, &[], &["look"]),
    );
    let engine = sim.add_node("engine", TapEngine::new(cfg));
    if reference {
        sim.node_mut::<TapEngine>(engine).use_reference_storage();
    }
    let link = sim.link(engine, svc, LinkSpec::datacenter());
    let flight = Arc::new(FlightRecorder::new(1 << 20));
    sim.node_mut::<TapEngine>(engine).set_sink(flight.clone());

    let user = UserId::new("u");
    connect(&mut sim, engine, svc, &user);
    sim.with_node::<TapEngine, _>(engine, |e, ctx| {
        for k in 0..=CLASSIC {
            let mut applet = slot_applet(SLUG, k, k as u32 + 1, &user);
            if k == CLASSIC {
                // Slot 3 is a real two-node DAG: query → action, so every
                // activation opens a `dag_runs` entry.
                applet = applet.with_steps(vec![
                    StepNode::new(StepSpec::Query {
                        query: "look".into(),
                        prefix: "ctx".into(),
                        fields: {
                            let mut f = FieldMap::new();
                            f.insert("q".into(), "{{id}}".into());
                            f
                        },
                    }),
                    StepNode::new(StepSpec::Action {
                        action: format!("act{k}"),
                        fields: {
                            let mut f = FieldMap::new();
                            f.insert("eid".into(), "{{ctx.q}}".into());
                            f
                        },
                    })
                    .after(&[0]),
                ]);
            }
            e.install_applet(ctx, applet).expect("applet installs");
        }
    });
    sim.run_until(SimTime::from_secs(5));
    World {
        sim,
        engine,
        svc,
        link,
        flight,
    }
}

impl World {
    fn emit(&mut self, k: usize, eid: u32) {
        let (trigger, id) = (format!("t{k}"), format!("e{eid:04}"));
        fire(&mut self.sim, self.svc, &trigger, &UserId::new("u"), &id);
    }

    /// One 503 outage window so dispatches retry and slab slots recycle.
    fn inject_outage(&mut self, horizon: SimTime) {
        let outages = ServerFaultPlan::new().periodic(
            ServerFault::Http503 {
                retry_after_secs: 2,
            },
            SimTime::from_secs(20),
            SimDuration::from_secs(25),
            SimDuration::from_secs(10),
            horizon,
        );
        self.sim
            .with_node::<EchoService, _>(self.svc, |s, _| s.core.fault_plan = Some(outages));
    }

    /// Interleave events on every slot with sim progress, then drain.
    fn drive(&mut self, rounds: u32, horizon_secs: u64) {
        for r in 0..rounds {
            self.emit((r as usize) % (CLASSIC + 1), r);
            let base = self.sim.now();
            self.sim.run_until(base + SimDuration::from_secs(7));
        }
        let base = self.sim.now();
        self.sim
            .run_until(base + SimDuration::from_secs(horizon_secs));
    }
}

/// Run the identical schedule on both backends and return the two streams
/// plus the slab-backed engine's stats for liveness assertions.
fn run_pair(seed: u64, chaotic: bool) -> (Vec<ObsEvent>, Vec<ObsEvent>, engine::EngineStats) {
    let mut slab = world(seed, false);
    let mut refr = world(seed, true);
    if chaotic {
        let horizon = SimTime::from_secs(120);
        slab.inject_outage(horizon);
        refr.inject_outage(horizon);
    }
    slab.drive(24, 120);
    refr.drive(24, 120);
    let stats = slab.sim.node_ref::<TapEngine>(slab.engine).stats;
    (slab.flight.events(), refr.flight.events(), stats)
}

/// Clean run: batch polls, DAG runs, and dispatches all engage, and the
/// two storage backends produce the same event stream, element for
/// element.
#[test]
fn slab_and_reference_storage_streams_are_identical() {
    let (slab, refr, stats) = run_pair(2017, false);
    // The workload exercised all three arenas.
    assert!(stats.polls_batched > 0, "no batch polls: {stats:?}");
    assert!(stats.dag_runs > 0, "no DAG runs: {stats:?}");
    assert!(stats.actions_ok > 0, "no deliveries: {stats:?}");
    assert_eq!(slab.len(), refr.len(), "stream lengths diverge");
    for (i, (a, b)) in slab.iter().zip(refr.iter()).enumerate() {
        assert_eq!(a, b, "streams diverge at event {i}");
    }
}

/// Chaotic run: the 503 window forces retries, so dispatch slots are
/// freed and recycled across generations on both backends — handle
/// allocation order must still match exactly.
#[test]
fn storage_streams_stay_identical_under_retries() {
    let (slab, refr, stats) = run_pair(31337, true);
    assert!(
        stats.actions_retried > 0 || stats.polls_retried > 0,
        "outage caused no retries: {stats:?}"
    );
    assert_eq!(slab, refr, "streams diverge under chaos");
}

/// Different seeds genuinely change the stream (the equality above is not
/// vacuous).
#[test]
fn different_seeds_produce_different_streams() {
    let (a, _, _) = run_pair(2017, false);
    let (b, _, _) = run_pair(2018, false);
    assert_ne!(a, b, "seed change left the stream untouched");
}
