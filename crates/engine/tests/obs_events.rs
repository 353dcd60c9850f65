//! Ordering and replay invariants of the typed observation stream.
//!
//! A [`FlightRecorder`] with sampling disabled captures every event the
//! engine emits during an end-to-end run; this suite then checks that the
//! stream is a faithful causal record:
//!
//! * events are recorded in non-decreasing virtual time;
//! * every `ActionFinished` is preceded by a matching `ActionSent`, which
//!   is preceded by the `DispatchEnqueued` that opened the dispatch, and
//!   attempt numbers count up from 1;
//! * every `PollDelivered` carries a send stamp no later than its receive
//!   stamp;
//! * replaying the stream through [`EngineStats::apply`] reproduces the
//!   engine's own counters exactly — the events are not a parallel
//!   bookkeeping system, they are the *only* one.

mod support;

use engine::{EngineConfig, EngineStats, FlightRecorder, ObsEvent, TapEngine};
use simnet::chaos::{FaultPlan, ServerFault, ServerFaultPlan};
use simnet::net::LinkId;
use simnet::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use support::{connect, fire, slot_applet, Echo, EchoService};
use tap_protocol::UserId;

const SLOTS: usize = 3;
const SLUG: &str = "observed";

struct World {
    sim: Sim,
    engine: NodeId,
    svc: NodeId,
    link: LinkId,
    flight: Arc<FlightRecorder>,
}

fn world(seed: u64, resilient: bool) -> World {
    let cfg = if resilient {
        EngineConfig::fast().resilient()
    } else {
        EngineConfig::fast()
    };
    let mut sim = Sim::new(seed);
    let svc = sim.add_node(SLUG, Echo::service(SLUG, "sk_obs", SLOTS, &[], &[]));
    let engine = sim.add_node("engine", TapEngine::new(cfg));
    let link = sim.link(engine, svc, LinkSpec::datacenter());
    let flight = Arc::new(FlightRecorder::new(1 << 20));
    sim.node_mut::<TapEngine>(engine).set_sink(flight.clone());

    let user = UserId::new("u");
    connect(&mut sim, engine, svc, &user);
    sim.with_node::<TapEngine, _>(engine, |e, ctx| {
        for k in 0..SLOTS {
            // These applets send a bare action: no `eid` field.
            let mut applet = slot_applet(SLUG, k, k as u32 + 1, &user);
            applet.action.fields.clear();
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

    fn drive(&mut self, rounds: u32, horizon_secs: u64) {
        for r in 0..rounds {
            self.emit((r as usize) % SLOTS, r);
            let base = self.sim.now();
            self.sim.run_until(base + SimDuration::from_secs(7));
        }
        let base = self.sim.now();
        self.sim
            .run_until(base + SimDuration::from_secs(horizon_secs));
    }
}

/// Assert the causal structure of a recorded stream.
fn assert_causal_order(events: &[ObsEvent]) {
    let mut last = SimTime::ZERO;
    // dispatch id → (enqueued?, last attempt seen, finished?)
    let mut dispatches: HashMap<u64, (bool, u32, bool)> = HashMap::new();
    for ev in events {
        assert!(ev.at() >= last, "stream went back in time: {ev:?}");
        last = ev.at();
        match ev {
            ObsEvent::PollDelivered { sent_at, at, .. } => {
                assert!(sent_at <= at, "poll delivered before it was sent: {ev:?}");
            }
            ObsEvent::DispatchEnqueued { dispatch, .. } => {
                let d = dispatches.entry(*dispatch).or_default();
                assert!(!d.0, "dispatch {dispatch} enqueued twice");
                d.0 = true;
            }
            ObsEvent::ActionSent {
                dispatch, attempt, ..
            } => {
                let d = dispatches
                    .get_mut(dispatch)
                    .unwrap_or_else(|| panic!("ActionSent for unopened dispatch {dispatch}"));
                assert!(d.0, "ActionSent before DispatchEnqueued");
                assert!(!d.2, "ActionSent after ActionFinished");
                assert_eq!(*attempt, d.1 + 1, "attempts not consecutive: {ev:?}");
                d.1 = *attempt;
            }
            ObsEvent::ActionFinished { dispatch, .. } => {
                let d = dispatches
                    .get_mut(dispatch)
                    .unwrap_or_else(|| panic!("ActionFinished for unopened dispatch {dispatch}"));
                assert!(
                    d.0 && d.1 >= 1,
                    "ActionFinished without a preceding ActionSent"
                );
                if let ObsEvent::ActionFinished { ok: true, .. } = ev {
                    d.2 = true;
                }
            }
            _ => {}
        }
    }
}

#[test]
fn clean_run_stream_is_causally_ordered_and_replays_to_the_stats() {
    let mut w = world(2017, false);
    w.drive(12, 60);
    let events = w.flight.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ObsEvent::ActionFinished { ok: true, .. })),
        "actions completed"
    );
    assert_causal_order(&events);
    // Replay: folding the stream through the same mapping the engine uses
    // must land on the engine's own counters, field for field.
    let mut replayed = EngineStats::default();
    for ev in &events {
        replayed.apply(ev);
    }
    let live = w.sim.node_ref::<TapEngine>(w.engine).stats;
    assert_eq!(replayed, live, "replayed stats diverge from the engine's");
}

#[test]
fn chaotic_run_stream_keeps_its_causal_order() {
    let mut w = world(31337, true);
    let horizon = SimTime::from_secs(400);
    let plan = FaultPlan::new().link_loss(w.link, 0.05, SimTime::from_secs(5), horizon);
    w.sim.apply_fault_plan(&plan);
    let outages = ServerFaultPlan::new().periodic(
        ServerFault::Http503 {
            retry_after_secs: 2,
        },
        SimTime::from_secs(10),
        SimDuration::from_secs(30),
        SimDuration::from_secs(8),
        horizon,
    );
    w.sim
        .with_node::<EchoService, _>(w.svc, |s, _| s.core.fault_plan = Some(outages));
    w.drive(20, 200);
    let events = w.flight.events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            ObsEvent::ActionRetried { .. } | ObsEvent::PollRetried { .. }
        )),
        "chaos caused retries"
    );
    assert_causal_order(&events);
    let mut replayed = EngineStats::default();
    for ev in &events {
        replayed.apply(ev);
    }
    let live = w.sim.node_ref::<TapEngine>(w.engine).stats;
    assert_eq!(replayed, live, "replayed stats diverge under chaos");
}
