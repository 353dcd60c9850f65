//! Engine resilience under deterministic fault injection.
//!
//! Three recovery scenarios, each driven by a declarative fault plan
//! rather than hand-rolled link flips:
//!
//! * **Conservation** — with link loss and periodic server outages, every
//!   trigger event is eventually delivered or dead-lettered; none vanish.
//! * **Circuit breaking** — a sustained `ServiceCore` outage trips the
//!   per-service breaker (which sheds polls) and the breaker recovers once
//!   the service heals, after which delivery resumes.
//! * **Batch degradation** — a failed batch poll demotes its group to
//!   singleton polls for a cycle, and the group re-coalesces after the
//!   outage passes.
//!
//! The seed comes from `CHAOS_SEED` (default 2017) so CI can sweep a seed
//! matrix over the same invariants.

mod support;

use engine::{EngineConfig, TapEngine};
use simnet::chaos::{FaultPlan, ServerFault, ServerFaultPlan};
use simnet::net::LinkId;
use simnet::prelude::*;
use std::collections::HashSet;
use support::{connect, fire, slot_applet, Echo, EchoService};
use tap_protocol::{ServiceSlug, UserId};

const SLOTS: usize = 4;
const SLUG: &str = "chaotic";

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2017)
}

struct Harness {
    sim: Sim,
    engine: NodeId,
    svc: NodeId,
    link: LinkId,
    next_eid: u32,
}

/// Engine + service with `SLOTS` subscriptions of one user, fast polling,
/// the full resilience stack, and subscriptions established before any
/// fault is applied.
fn harness(batch_polling: bool, breaker: bool) -> Harness {
    harness_with(batch_polling, breaker, false)
}

fn harness_with(batch_polling: bool, breaker: bool, realtime: bool) -> Harness {
    let mut cfg = EngineConfig::fast().resilient();
    cfg.batch_polling = batch_polling;
    if !breaker {
        cfg.breaker = None;
    }
    if realtime {
        cfg = cfg.allow_realtime(ServiceSlug::new(SLUG));
    }
    let mut sim = Sim::new(chaos_seed());
    let svc = sim.add_node(SLUG, Echo::service(SLUG, "sk_chaos", SLOTS, &[], &[]));
    let engine = sim.add_node("engine", TapEngine::new(cfg));
    if realtime {
        sim.with_node::<EchoService, _>(svc, |s, _| s.core.enable_realtime(engine));
    }
    let link = sim.link(engine, svc, LinkSpec::datacenter());

    let user = UserId::new("u");
    connect(&mut sim, engine, svc, &user);
    sim.with_node::<TapEngine, _>(engine, |e, ctx| {
        for k in 0..SLOTS {
            e.install_applet(ctx, slot_applet(SLUG, k, k as u32 + 1, &user))
                .expect("applet installs");
        }
    });
    // Clean settle: every subscription is learned before faults start.
    sim.run_until(SimTime::from_secs(5));
    Harness {
        sim,
        engine,
        svc,
        link,
        next_eid: 0,
    }
}

impl Harness {
    /// Fire slot `k`'s trigger now; the emit must match the (established)
    /// subscription. Returns the event id.
    fn emit(&mut self, k: usize) -> String {
        let eid = format!("e{:04}", self.next_eid);
        self.next_eid += 1;
        let matched = fire(
            &mut self.sim,
            self.svc,
            &format!("t{k}"),
            &UserId::new("u"),
            &eid,
        );
        assert_eq!(matched, 1, "subscription t{k} is established");
        eid
    }

    fn stats(&self) -> engine::EngineStats {
        self.sim.node_ref::<TapEngine>(self.engine).stats
    }

    fn received(&self) -> Vec<String> {
        self.sim.node_ref::<EchoService>(self.svc).vendor.eids()
    }
}

/// (a) Under 2% link loss plus periodic 503 outages and an injected
/// server-side timeout window, every emitted event is either delivered or
/// dead-lettered — the engine never silently drops one.
#[test]
fn every_event_is_delivered_or_dead_lettered() {
    let mut h = harness(false, true);
    let horizon = SimTime::from_secs(300);
    let plan = FaultPlan::new().link_loss(h.link, 0.02, SimTime::from_secs(5), horizon);
    h.sim.apply_fault_plan(&plan);
    let outages = ServerFaultPlan::new()
        .periodic(
            ServerFault::Http503 {
                retry_after_secs: 2,
            },
            SimTime::from_secs(10),
            SimDuration::from_secs(30),
            SimDuration::from_secs(8),
            SimTime::from_secs(120),
        )
        .window(
            ServerFault::Timeout,
            SimTime::from_secs(95),
            SimTime::from_secs(100),
        );
    h.sim.with_node::<EchoService, _>(h.svc, move |s, _| {
        s.core.fault_plan = Some(outages);
    });

    // 24 events on a fixed 2 s schedule, straddling every fault window.
    let mut emitted = Vec::new();
    for i in 0..24u64 {
        h.sim.run_until(SimTime::from_secs(6 + 2 * i));
        let slot = (i as usize) % SLOTS;
        emitted.push(h.emit(slot));
    }
    // Faults end at 120 s; leave ample room for backoff chains to finish.
    h.sim.run_until(SimTime::from_secs(300));

    let stats = h.stats();
    assert_eq!(
        stats.events_new, 24,
        "every buffered event is eventually fetched: {stats:?}"
    );
    assert_eq!(
        stats.actions_ok + stats.dead_letters,
        24,
        "delivered + dead-lettered == triggered: {stats:?}"
    );
    assert_eq!(stats.actions_failed, stats.dead_letters);
    // Everything not dead-lettered reached the service (duplicates from
    // lost action responses are allowed; silent loss is not).
    let unique: HashSet<String> = h.received().into_iter().collect();
    assert!(
        unique.len() as u64 >= 24 - stats.dead_letters,
        "{} unique actions received, {} dead-lettered",
        unique.len(),
        stats.dead_letters
    );
    // The faults actually exercised the retry machinery.
    assert!(stats.polls_failed > 0, "faults were injected: {stats:?}");
    assert!(stats.polls_retried > 0, "poll retries engaged: {stats:?}");
}

/// (b) A sustained outage trips the per-service circuit breaker, polls are
/// shed while it is open, and delivery resumes once the service heals.
#[test]
fn breaker_trips_during_outage_and_recovers() {
    let mut h = harness(false, true);
    // Total outage: every request 500s from t=10 s to t=70 s.
    let outage = ServerFaultPlan::new().window(
        ServerFault::Http500,
        SimTime::from_secs(10),
        SimTime::from_secs(70),
    );
    h.sim.with_node::<EchoService, _>(h.svc, move |s, _| {
        s.core.fault_plan = Some(outage);
    });

    // One event mid-outage (buffered server-side, invisible to the engine
    // until polls succeed again) and one after recovery.
    h.sim.run_until(SimTime::from_secs(30));
    h.emit(0);
    let mid = h.stats();
    assert!(mid.breaker_trips >= 1, "outage trips the breaker: {mid:?}");
    assert!(mid.polls_shed > 0, "open breaker sheds polls: {mid:?}");
    assert_eq!(mid.actions_ok, 0, "nothing delivered during the outage");

    h.sim.run_until(SimTime::from_secs(90));
    h.emit(1);
    h.sim.run_until(SimTime::from_secs(150));

    let stats = h.stats();
    assert_eq!(
        stats.events_new, 2,
        "both events fetched after recovery: {stats:?}"
    );
    assert_eq!(stats.actions_ok, 2, "both delivered: {stats:?}");
    assert_eq!(stats.dead_letters, 0);
    // Recovery is real: polls succeed again after the breaker's probe, so
    // shedding stops growing. (A still-open breaker would shed every poll
    // between t=90 and t=150.)
    let healthy_window_polls = stats.polls_sent - mid.polls_sent;
    assert!(
        healthy_window_polls > 30,
        "polling resumed post-outage: {healthy_window_polls} polls in 120 s"
    );
}

/// (d) An immediate poll armed by a realtime notification that fires into
/// an open circuit breaker is shed like any other poll, and the
/// subscription falls back to cadence polling — the hinted event is still
/// delivered once the service heals, with no breaker bypass.
#[test]
fn realtime_poll_into_open_breaker_is_shed_and_falls_back_to_cadence() {
    let mut h = harness_with(false, true, true);
    // Total outage from t=10 s to t=70 s; plenty to trip the breaker.
    let outage = ServerFaultPlan::new().window(
        ServerFault::Http500,
        SimTime::from_secs(10),
        SimTime::from_secs(70),
    );
    h.sim.with_node::<EchoService, _>(h.svc, move |s, _| {
        s.core.fault_plan = Some(outage);
    });

    // Wait until the breaker is open, then fire a trigger: the service
    // pushes a notification, the engine honors it and arms an immediate
    // poll — which the open breaker must shed.
    h.sim.run_until(SimTime::from_secs(30));
    let pre = h.stats();
    assert!(pre.breaker_trips >= 1, "breaker is open: {pre:?}");
    h.emit(0);
    h.sim.run_until(SimTime::from_secs(40));
    let mid = h.stats();
    assert_eq!(
        mid.realtime_notifications, 1,
        "the hint was honored: {mid:?}"
    );
    assert_eq!(
        mid.realtime_polls, 0,
        "the armed poll was shed, not sent: {mid:?}"
    );
    assert!(mid.polls_shed > pre.polls_shed, "shed count grew: {mid:?}");
    assert_eq!(mid.events_new, 0, "nothing fetched through an open breaker");

    // After the outage the ordinary cadence (plus breaker probes) fetches
    // the buffered event — the realtime path stayed out of the way.
    h.sim.run_until(SimTime::from_secs(150));
    let stats = h.stats();
    assert_eq!(stats.events_new, 1, "cadence polling recovered: {stats:?}");
    assert_eq!(stats.actions_ok, 1, "the event was delivered: {stats:?}");
    assert_eq!(stats.dead_letters, 0);
    assert_eq!(
        stats.realtime_polls, 0,
        "no realtime poll ever bypassed the breaker: {stats:?}"
    );
}

/// (c) A failed batch poll demotes the group to singleton polls for a
/// cycle; the group re-coalesces once the outage passes.
#[test]
fn batch_polling_degrades_to_singleton_and_recoalesces() {
    // Breaker off so the short outage exercises the batch fallback path
    // instead of tripping into shed mode.
    let mut h = harness(true, false);
    let outage = ServerFaultPlan::new().window(
        ServerFault::Http500,
        SimTime::from_secs(10),
        SimTime::from_secs(14),
    );
    h.sim.with_node::<EchoService, _>(h.svc, move |s, _| {
        s.core.fault_plan = Some(outage);
    });

    let before = h.stats();
    assert!(
        before.polls_batched > 0,
        "group coalesces before the outage"
    );
    assert_eq!(before.batch_fallbacks, 0);

    h.sim.run_until(SimTime::from_secs(20));
    let after_outage = h.stats();
    assert!(
        after_outage.batch_fallbacks >= 1,
        "batch failure demotes the group: {after_outage:?}"
    );

    // Post-outage: the group re-coalesces and delivers through batches.
    h.sim.run_until(SimTime::from_secs(40));
    h.emit(2);
    h.sim.run_until(SimTime::from_secs(80));
    let stats = h.stats();
    assert!(
        stats.polls_batched > after_outage.polls_batched + 20,
        "group re-coalesced after the outage: {stats:?}"
    );
    assert_eq!(stats.batch_fallbacks, after_outage.batch_fallbacks);
    assert_eq!(stats.events_new, 1);
    assert_eq!(stats.actions_ok, 1, "delivery works through batches again");
}
