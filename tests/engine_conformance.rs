//! Protocol conformance of the engine against a reference partner
//! service: authentication headers, poll semantics, batching, dedup,
//! realtime-hint handling, and error paths.

#[path = "../crates/engine/tests/support/mod.rs"]
mod support;

use ifttt_core::engine::{
    AppletId, EngineConfig, FlightRecorder, ObsEvent, PollPolicy, RetryPolicy, TapEngine,
};
use ifttt_core::simnet::prelude::*;
use ifttt_core::tap_protocol::{ServiceSlug, UserId};
use rand::Rng;
use std::sync::Arc;
use support::{connect, fire, slot_applet, Echo, EchoService};

/// The reference partner service: one trigger (`t0`) and one action
/// (`act0`), recording everything the engine sends.
fn reference_service() -> EchoService {
    Echo::service("ref", "sk_ref", 1, &[], &[])
}

/// Connect user `u` to `svc` and install the one `t0` → `act0` applet.
fn install(sim: &mut Sim, engine: NodeId, svc: NodeId) -> AppletId {
    let user = UserId::new("u");
    connect(sim, engine, svc, &user);
    sim.with_node::<TapEngine, _>(engine, |e, ctx| {
        e.install_applet(ctx, slot_applet("ref", 0, 1, &user))
            .expect("install")
    })
}

fn world(polling_secs: f64) -> (Sim, NodeId, NodeId, AppletId) {
    let mut sim = Sim::new(11);
    let svc = sim.add_node("ref_service", reference_service());
    let mut cfg = EngineConfig::fast();
    cfg.polling = PollPolicy::fixed(polling_secs);
    let engine = sim.add_node("engine", TapEngine::new(cfg));
    sim.link(engine, svc, LinkSpec::datacenter());
    let id = install(&mut sim, engine, svc);
    (sim, engine, svc, id)
}

/// Feed `n` events into the service's buffer for the installed applet.
fn feed_events(sim: &mut Sim, svc: NodeId, n: usize, base: u64) {
    for i in 0..n as u64 {
        fire(
            sim,
            svc,
            "t0",
            &UserId::new("u"),
            &format!("ev{}", base + i),
        );
    }
}

#[test]
fn poll_requests_carry_fresh_request_ids() {
    let (mut sim, engine, svc, _) = world(1.0);
    sim.run_until(SimTime::from_secs(20));
    // Every poll carried the service key and the user's token: a request
    // without them is a 401, which the engine counts as a failed poll.
    assert_eq!(sim.node_ref::<TapEngine>(engine).stats.polls_failed, 0);
    // And each carried a random request id (observed by the paper).
    let ids = &sim.node_ref::<EchoService>(svc).vendor.request_ids;
    assert!(ids.len() >= 15, "polls {}", ids.len());
    let mut dedup = ids.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), ids.len(), "request ids must be unique");
    // Each is one `u64` draw of the engine's own stream (node streams start
    // at 1,000), as 16 lowercase hex digits, in the order they were drawn.
    let mut stream = ifttt_core::simnet::rng::stream_rng(11, 1_000 + u64::from(engine.0));
    let mut draws = std::iter::repeat_with(|| format!("{:016x}", stream.gen::<u64>())).take(1_000);
    for id in ids {
        assert!(
            draws.any(|d| d == *id),
            "{id} is not the engine's next draw"
        );
    }
}

#[test]
fn batched_events_dispatch_one_action_each_exactly_once() {
    let (mut sim, engine, svc, _) = world(5.0);
    sim.run_until(SimTime::from_secs(7)); // subscription learned
    feed_events(&mut sim, svc, 7, 100);
    sim.run_until(SimTime::from_secs(60));
    let stats = sim.node_ref::<TapEngine>(engine).stats;
    assert_eq!(stats.events_new, 7);
    assert_eq!(stats.actions_sent, 7);
    assert_eq!(stats.actions_ok, 7);
    // Re-polling the same buffer must not re-dispatch.
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(sim.node_ref::<TapEngine>(engine).stats.actions_sent, 7);
}

#[test]
fn batch_larger_than_limit_is_cut_to_50() {
    let (mut sim, engine, svc, _) = world(10.0);
    sim.run_until(SimTime::from_secs(11));
    // 60 events in one poll window; the poll's limit is 50, and the buffer
    // returns the *newest* 50 — the 10 oldest are never delivered.
    feed_events(&mut sim, svc, 60, 1000);
    sim.run_until(SimTime::from_secs(200));
    let stats = sim.node_ref::<TapEngine>(engine).stats;
    assert_eq!(stats.events_new, 50, "limit caps a single poll's batch");
    assert_eq!(stats.actions_sent, 50);
}

#[test]
fn poll_failures_dont_kill_the_polling_chain() {
    let (mut sim, engine, svc, _) = world(2.0);
    sim.node_mut::<EchoService>(svc).vendor.fail_polls = 5;
    sim.run_until(SimTime::from_secs(30));
    let stats = sim.node_ref::<TapEngine>(engine).stats;
    assert!(stats.polls_failed >= 5);
    // The chain recovered and kept polling.
    assert!(stats.polls_sent > stats.polls_failed + 5);
    // And events still flow afterwards.
    feed_events(&mut sim, svc, 1, 5000);
    sim.run_until(SimTime::from_secs(45));
    assert_eq!(sim.node_ref::<TapEngine>(engine).stats.actions_ok, 1);
}

#[test]
fn hints_from_unlisted_services_are_counted_and_ignored() {
    let (mut sim, engine, svc, _) = world(600.0); // polls effectively never
    sim.run_until(SimTime::from_secs(2));
    // Enable the realtime client on the service; the engine's allowlist
    // does not contain "ref".
    sim.with_node::<EchoService, _>(svc, |s, _| s.core.enable_realtime(engine));
    sim.run_until(SimTime::from_secs(5));
    feed_events(&mut sim, svc, 1, 1);
    sim.run_until(SimTime::from_secs(120));
    let stats = sim.node_ref::<TapEngine>(engine).stats;
    assert!(stats.hints_received >= 1);
    assert_eq!(stats.hints_ignored, stats.hints_received);
    assert_eq!(
        stats.actions_sent, 0,
        "ignored hint must not trigger a poll"
    );
}

#[test]
fn allowlisted_hints_trigger_prompt_polls() {
    let mut sim = Sim::new(12);
    let svc = sim.add_node("ref_service", reference_service());
    let mut cfg = EngineConfig {
        polling: PollPolicy::fixed(600.0),
        ..EngineConfig::default()
    };
    cfg.realtime_allowlist.insert(ServiceSlug::new("ref"));
    let engine = sim.add_node("engine", TapEngine::new(cfg));
    let flight = Arc::new(FlightRecorder::new(4096));
    sim.node_mut::<TapEngine>(engine).set_sink(flight.clone());
    sim.link(engine, svc, LinkSpec::datacenter());
    sim.with_node::<EchoService, _>(svc, |s, _| s.core.enable_realtime(engine));
    install(&mut sim, engine, svc);
    sim.run_until(SimTime::from_secs(10)); // initial poll learns the sub
    let t0 = sim.now();
    feed_events(&mut sim, svc, 1, 1);
    sim.run_until(SimTime::from_secs(30));
    let stats = sim.node_ref::<TapEngine>(engine).stats;
    assert_eq!(stats.hints_honored, 1);
    assert_eq!(
        stats.actions_ok, 1,
        "action executed without waiting for the slow poll"
    );
    // The action happened within seconds of the hint.
    let events = flight.events();
    let done = events.iter().find_map(|ev| match ev {
        ObsEvent::ActionFinished { ok: true, at, .. } if *at > t0 => Some(*at),
        _ => None,
    });
    assert!(done.expect("action finished").since(t0) < SimDuration::from_secs(10));
}

#[test]
fn action_retries_recover_from_transient_failures() {
    // A service that 503s its action endpoint twice, then recovers; with
    // retries configured, the engine delivers without losing the event.
    let mut sim = Sim::new(21);
    let svc = sim.add_node("flaky", reference_service());
    sim.node_mut::<EchoService>(svc).vendor.fail_actions = 2;
    let mut cfg = EngineConfig::fast();
    cfg.polling = PollPolicy::fixed(2.0);
    cfg.action_retry = RetryPolicy::retries(3);
    let engine = sim.add_node("engine", TapEngine::new(cfg));
    sim.link(engine, svc, LinkSpec::datacenter());
    install(&mut sim, engine, svc);
    sim.run_until(SimTime::from_secs(5));
    feed_events(&mut sim, svc, 1, 1);
    sim.run_until(SimTime::from_secs(60));
    let stats = sim.node_ref::<TapEngine>(engine).stats;
    assert_eq!(stats.actions_retried, 2, "two failed attempts retried");
    assert_eq!(stats.actions_ok, 1, "the third attempt lands");
    assert_eq!(stats.actions_failed, 0);
    assert_eq!(stats.actions_sent, 3);
}

#[test]
fn without_retries_a_failed_action_is_lost() {
    // Baseline (production-IFTTT-like): no action retries; a 503 means
    // the event's action never happens (the engine's dedup prevents a
    // later poll from redelivering it).
    let (mut sim, engine, svc, _) = world(2.0);
    sim.node_mut::<EchoService>(svc).vendor.fail_actions = 1;
    sim.run_until(SimTime::from_secs(3));
    sim.with_node::<TapEngine, _>(engine, |e, _| {
        assert!(!e.config.action_retry.enabled());
    });
    feed_events(&mut sim, svc, 1, 9000);
    sim.run_until(SimTime::from_secs(20));
    let stats = sim.node_ref::<TapEngine>(engine).stats;
    assert_eq!(stats.actions_sent, 1, "{stats:?}");
    assert_eq!(stats.actions_ok, 0, "{stats:?}");
    assert_eq!(stats.actions_failed, 1, "{stats:?}");
    assert_eq!(stats.actions_retried, 0, "{stats:?}");
}
