//! Batched vs unbatched polling must be observably equivalent.
//!
//! Coalescing is a transport optimization: which subscriptions share an
//! HTTP request must not change *what* each subscription delivers. This
//! suite runs the same fixed emission schedule against an engine with
//! `batch_polling` on and off and asserts every action slot received the
//! same event ids in the same per-subscription FIFO order.

mod support;

use engine::{EngineConfig, EngineStats, TapEngine};
use simnet::prelude::*;
use support::{connect, slot_applet, Echo, EchoService};
use tap_protocol::wire::TriggerEvent;
use tap_protocol::{ServiceSlug, TriggerSlug, UserId};

const SLOTS: usize = 4;
const SLUG: &str = "echo";

/// One user, four subscriptions on one service, a fixed emission schedule
/// (including some back-to-back pairs that must stay in FIFO order).
/// Returns the per-slot eid sequences and the engine stats.
fn run_scenario(batch_polling: bool) -> (Vec<Vec<String>>, EngineStats) {
    let mut cfg = EngineConfig::fast();
    cfg.batch_polling = batch_polling;
    let mut sim = Sim::new(42);
    let svc = sim.add_node(SLUG, Echo::service(SLUG, "sk_echo", SLOTS, &[], &[]));
    let engine = sim.add_node("engine", TapEngine::new(cfg));
    sim.link(engine, svc, LinkSpec::datacenter());

    let user = UserId::new("u");
    connect(&mut sim, engine, svc, &user);
    sim.with_node::<TapEngine, _>(engine, |e, ctx| {
        for k in 0..SLOTS {
            e.install_applet(ctx, slot_applet(SLUG, k, k as u32 + 1, &user))
                .expect("applet installs");
        }
    });

    // Let the initial polls establish every subscription.
    sim.run_until(SimTime::from_secs(5));

    // Fixed schedule, independent of how the engine consumes randomness:
    // every 3 s a subset of triggers fires; step 0 fires a back-to-back
    // pair on each active trigger so one poll returns two events.
    let mut eid = 0u32;
    for step in 0..6u64 {
        sim.run_until(SimTime::from_secs(6 + step * 3));
        sim.with_node::<EchoService, _>(svc, |s, ctx| {
            for k in 0..SLOTS {
                if !(step as usize + k).is_multiple_of(2) {
                    continue;
                }
                let burst = if step == 0 { 2 } else { 1 };
                for _ in 0..burst {
                    let id = format!("e{eid:04}");
                    eid += 1;
                    let ev = TriggerEvent::new(id.clone(), ctx.now().as_secs_f64() as u64)
                        .with_ingredient("id", id);
                    let matched = s.core.record_event(
                        ctx,
                        &TriggerSlug::new(format!("t{k}")),
                        &UserId::new("u"),
                        ev,
                        |_| true,
                    );
                    assert_eq!(matched, 1, "subscription t{k} is established");
                }
            }
        });
    }

    // Drain: 1-second polling delivers everything well before this.
    sim.run_until(SimTime::from_secs(60));

    let received = {
        let s = &sim.node_ref::<EchoService>(svc).vendor;
        (0..SLOTS)
            .map(|k| s.eids_of(|action| action == format!("act{k}")))
            .collect()
    };
    (received, sim.node_ref::<TapEngine>(engine).stats)
}

#[test]
fn batching_delivers_the_same_events_in_the_same_order() {
    let (unbatched, stats_off) = run_scenario(false);
    let (batched, stats_on) = run_scenario(true);

    // Every slot saw events; the burst slots saw FIFO-ordered pairs.
    assert!(unbatched.iter().all(|v| !v.is_empty()));
    for (slot, (a, b)) in unbatched.iter().zip(&batched).enumerate() {
        assert_eq!(a, b, "slot {slot} differs between batched and unbatched");
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(
            &sorted, a,
            "slot {slot} out of FIFO order (ids are emitted in sorted order)"
        );
    }

    // Same logical outcome…
    assert_eq!(stats_off.events_new, stats_on.events_new);
    assert_eq!(stats_off.actions_ok, stats_on.actions_ok);
    assert_eq!(stats_off.actions_failed, 0);
    assert_eq!(stats_on.actions_failed, 0);

    // …through a different transport: only the batched run coalesces.
    assert_eq!(stats_off.polls_batched, 0);
    assert_eq!(stats_off.polls_coalesced, 0);
    assert!(stats_on.polls_batched > 0, "groups coalesced");
    assert!(
        stats_on.polls_coalesced >= stats_on.polls_batched,
        "each batch saves at least one round trip"
    );
    // The coalesced round trips are real savings: fewer HTTP requests
    // for at least as many subscription polls.
    assert!(stats_on.polls_sent - stats_on.polls_coalesced < stats_off.polls_sent);
}

/// A realtime-notified member of a coalesced batch group polls out of band
/// exactly once, and the group's phase lock and membership survive the
/// preemption.
#[test]
fn realtime_member_splits_out_once_and_rejoins_its_group() {
    // Long fixed cadence so the out-of-band poll is unambiguous, batch
    // polling on, and the echo service allow-listed + realtime-enabled.
    let mut cfg = EngineConfig::fast().allow_realtime(ServiceSlug::new(SLUG));
    cfg.polling = engine::PollPolicy::fixed(120.0);
    cfg.batch_polling = true;
    let mut sim = Sim::new(77);
    let svc = sim.add_node(SLUG, Echo::service(SLUG, "sk_echo", SLOTS, &[], &[]));
    let engine = sim.add_node("engine", TapEngine::new(cfg));
    sim.with_node::<EchoService, _>(svc, |s, _| s.core.enable_realtime(engine));
    sim.link(engine, svc, LinkSpec::datacenter());

    let user = UserId::new("u");
    connect(&mut sim, engine, svc, &user);
    sim.with_node::<TapEngine, _>(engine, |e, ctx| {
        for k in 0..SLOTS {
            e.install_applet(ctx, slot_applet(SLUG, k, k as u32 + 1, &user))
                .expect("applet installs");
        }
    });

    // Initial polls establish the subscriptions well before the first
    // 120 s cadence tick.
    sim.run_until(SimTime::from_secs(10));
    let t_emit = sim.now();
    sim.with_node::<EchoService, _>(svc, |s, ctx| {
        let ev =
            TriggerEvent::new("rt01", ctx.now().as_secs_f64() as u64).with_ingredient("id", "rt01");
        let matched = s
            .core
            .record_event(ctx, &TriggerSlug::new("t0"), &user, ev, |_| true);
        assert_eq!(matched, 1, "subscription t0 is established");
    });

    // Within seconds — not the 110 s left on the cadence — the hinted
    // member has polled out of band and its event is delivered.
    sim.run_until(SimTime::from_secs(25));
    let mid = sim.node_ref::<TapEngine>(engine).stats;
    assert_eq!(mid.realtime_notifications, 1, "{mid:?}");
    assert_eq!(mid.realtime_polls, 1, "exactly one immediate poll: {mid:?}");
    assert_eq!(mid.events_new, 1, "the hinted event arrived early: {mid:?}");
    assert_eq!(
        sim.node_ref::<EchoService>(svc)
            .vendor
            .eids_of(|action| action == "act0")
            .len(),
        1,
        "one action, no double-poll duplicate"
    );
    let _ = t_emit;

    // Run through two full cadence cycles: the preempted member rejoined
    // its group at the preempted instant, so every subsequent batch still
    // coalesces all four members (3 coalesced riders per batch request).
    let before = sim.node_ref::<TapEngine>(engine).stats;
    sim.run_until(SimTime::from_secs(10 + 2 * 120 + 30));
    let after = sim.node_ref::<TapEngine>(engine).stats;
    let batched = after.polls_batched - before.polls_batched;
    let coalesced = after.polls_coalesced - before.polls_coalesced;
    assert!(batched >= 2, "two cadence cycles batched: {after:?}");
    assert_eq!(
        coalesced,
        (SLOTS as u64 - 1) * batched,
        "full {SLOTS}-member batches — membership survived the preemption: {after:?}"
    );
    assert_eq!(
        after.realtime_polls, 1,
        "no further out-of-band polls: {after:?}"
    );
}

#[test]
fn batched_groups_phase_lock_and_stay_coalesced() {
    let (_, stats) = run_scenario(true);
    // Four subscriptions of one (user, service) group under 1 s fixed
    // polling: after the first coalesced request the group is phase-locked,
    // so nearly every subscription poll after the initial staggered ones
    // rides a batch. 4 members per batch → coalesced ≈ 3/4 of polls sent.
    let ratio = stats.polls_coalesced as f64 / stats.polls_sent as f64;
    assert!(ratio > 0.70, "coalesced ratio {ratio:.2} (want ≈ 0.75)");
}
