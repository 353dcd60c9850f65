//! Lifecycle API tests: the single [`TapEngine::apply_lifecycle`] surface
//! (install / uninstall / onboard / retire) and the per-applet unwind the
//! static workload never needed.
//!
//! The invariants under test are the ones churn leans on at fleet scale:
//! an uninstall ack means *done* — the timing-wheel entry is gone, armed
//! realtime state is cleared, identity routing is pruned, a coalescing
//! group shrinks (evicting its cached batch body and reverting the
//! survivor's `grouped` hint), and in-flight work dead-letters so the
//! conservation invariant `events_new == actions_ok + actions_filtered +
//! dead_letters` holds through arbitrary churn. Slab handles reclaimed by
//! churn must be reused identically across both arena storage modes.

mod support;

use engine::{
    Applet, AppletId, Condition, EngineConfig, FlightRecorder, InstallError, LifecycleAck,
    LifecycleError, LifecycleEvent, ObsEvent, QueryRef, TapEngine,
};
use proptest::prelude::*;
use simnet::chaos::{ServerFault, ServerFaultPlan};
use simnet::prelude::*;
use std::sync::Arc;
use support::{connect, fire, slot_applet, Echo, EchoService};
use tap_protocol::auth::ServiceKey;
use tap_protocol::wire::{self, BatchPollEntry, BatchPollRequestBody, DEFAULT_POLL_LIMIT};
use tap_protocol::{
    ActionSlug, FieldMap, QuerySlug, ServiceSlug, StepNode, StepSpec, TriggerIdentity, TriggerSlug,
    UserId,
};

const SLUG: &str = "lifesvc";
const SLOTS: usize = 3;

/// The service under churn: `SLOTS` trigger/action pairs and a query.
fn life_service(slug: &str, key: &str) -> EchoService {
    Echo::service(slug, key, SLOTS, &[], &["look"])
}

fn applet(k: usize, id: u32, user: &UserId) -> Applet {
    slot_applet(SLUG, k, id, user)
}

struct World {
    sim: Sim,
    engine: NodeId,
    svc: NodeId,
    user: UserId,
}

/// One engine, one service, `installs` applets t0..t<installs> installed
/// through the lifecycle surface.
fn world(cfg: EngineConfig, seed: u64, installs: usize) -> World {
    let mut sim = Sim::new(seed);
    let svc = sim.add_node(SLUG, life_service(SLUG, "sk_life"));
    let engine = sim.add_node("engine", TapEngine::new(cfg));
    sim.link(engine, svc, LinkSpec::datacenter());
    let user = UserId::new("u");
    connect(&mut sim, engine, svc, &user);
    sim.with_node::<TapEngine, _>(engine, |e, ctx| {
        for k in 0..installs {
            let ack = e
                .apply_lifecycle(
                    ctx,
                    LifecycleEvent::InstallApplet(applet(k, k as u32 + 1, &user)),
                )
                .expect("applet installs");
            assert_eq!(ack, LifecycleAck::Installed(AppletId(k as u32 + 1)));
        }
    });
    World {
        sim,
        engine,
        svc,
        user,
    }
}

impl World {
    fn emit(&mut self, k: usize, eid: u32) {
        let (trigger, id) = (format!("t{k}"), format!("e{eid:04}"));
        fire(&mut self.sim, self.svc, &trigger, &self.user, &id);
    }

    fn stats(&self) -> engine::EngineStats {
        self.sim.node_ref::<TapEngine>(self.engine).stats
    }

    fn apply(&mut self, ev: LifecycleEvent) -> Result<LifecycleAck, LifecycleError> {
        self.sim
            .with_node::<TapEngine, _>(self.engine, |e, ctx| e.apply_lifecycle(ctx, ev))
    }

    /// The body of the last batch poll request the service received.
    fn last_batch_request(&self) -> Bytes {
        let echo = &self.sim.node_ref::<EchoService>(self.svc).vendor;
        echo.batch_requests.last().expect("a batch poll").clone()
    }

    /// The batch request body that polls slots `ks` for the user, in that
    /// order: what the wire format says, built without the engine.
    fn batch_body(&self, ks: &[usize]) -> Bytes {
        let entry = |&k: &usize| {
            let t = applet(k, 0, &self.user).trigger;
            BatchPollEntry {
                trigger_identity: TriggerIdentity::derive(
                    &self.user, &t.service, &t.trigger, &t.fields,
                ),
                trigger: t.trigger,
                trigger_fields: t.fields,
                limit: DEFAULT_POLL_LIMIT,
            }
        };
        wire::to_bytes(&BatchPollRequestBody {
            user: self.user.clone(),
            entries: ks.iter().map(entry).collect(),
        })
    }
}

/// Conservation through churn: every new event either completed, was
/// filtered, or dead-lettered — nothing leaks in flight once idle.
fn assert_conserved(stats: &engine::EngineStats) {
    assert_eq!(
        stats.events_new,
        stats.actions_ok + stats.actions_filtered + stats.dead_letters,
        "conservation violated: {stats:?}"
    );
}

#[test]
fn uninstall_ack_means_done_no_poll_no_activation_after() {
    let mut w = world(EngineConfig::fast(), 101, 1);
    w.sim.run_until(SimTime::from_secs(5));
    let ack = w.apply(LifecycleEvent::UninstallApplet(AppletId(1)));
    assert_eq!(ack, Ok(LifecycleAck::Uninstalled(AppletId(1))));
    let at_uninstall = w.stats();
    // Events emitted after the ack must never activate.
    w.emit(0, 0);
    w.sim.run_until(SimTime::from_secs(90));
    let after = w.stats();
    // Timing-wheel entry gone: 1-second polling would have added dozens.
    assert_eq!(
        after.polls_sent, at_uninstall.polls_sent,
        "pending poll survived the uninstall"
    );
    assert_eq!(after.events_new, 0, "activation after uninstall ack");
    assert_eq!(after.actions_sent, 0);
    assert_conserved(&after);
    // A second uninstall of the same id is a clean error, not a panic.
    assert_eq!(
        w.apply(LifecycleEvent::UninstallApplet(AppletId(1))),
        Err(LifecycleError::UnknownApplet(AppletId(1)))
    );
}

/// The static loop check sees installed applets only: once half of a
/// declared two-applet loop is uninstalled, its tombstone must not keep
/// refusing the other half.
#[test]
fn uninstalling_half_of_a_static_loop_unblocks_the_other() {
    let cfg = EngineConfig {
        static_loop_check: true,
        ..EngineConfig::fast()
    };
    let mut w = world(cfg, 109, 0);
    // Slot k is `t{k}` -> `act{k}`; declare act0 -> t1 and act1 -> t0.
    let feed = |from: usize, to: usize| engine::FeedRule {
        action_service: ServiceSlug::new(SLUG),
        action: ActionSlug::new(format!("act{from}")),
        trigger_service: ServiceSlug::new(SLUG),
        trigger: TriggerSlug::new(format!("t{to}")),
    };
    let detector = &mut w.sim.node_mut::<TapEngine>(w.engine).static_detector;
    detector.declare_feed(feed(0, 1));
    detector.declare_feed(feed(1, 0));
    let install = |w: &mut World, k: usize| {
        let a = applet(k, k as u32 + 1, &w.user);
        w.apply(LifecycleEvent::InstallApplet(a))
    };
    let refused = |ids: &[u32]| {
        let ids = ids.iter().map(|&i| AppletId(i)).collect();
        Err(LifecycleError::Install(InstallError::LoopDetected(ids)))
    };
    assert_eq!(install(&mut w, 0), Ok(LifecycleAck::Installed(AppletId(1))));
    assert_eq!(install(&mut w, 1), refused(&[1, 2]));
    let ack = w.apply(LifecycleEvent::UninstallApplet(AppletId(1)));
    assert_eq!(ack, Ok(LifecycleAck::Uninstalled(AppletId(1))));
    assert_eq!(install(&mut w, 1), Ok(LifecycleAck::Installed(AppletId(2))));
    // The loop is live again if the first half comes back.
    assert_eq!(install(&mut w, 0), refused(&[1, 2]));
}

#[test]
fn uninstall_clears_realtime_state_and_identity_routing() {
    // Long cadence so any poll in the window is attributable: either the
    // leaked wheel entry (120 s tick) or a leaked realtime arm.
    let mut cfg = EngineConfig::fast().allow_realtime(ServiceSlug::new(SLUG));
    cfg.polling = engine::PollPolicy::fixed(120.0);
    let mut w = world(cfg, 102, 1);
    let engine = w.engine;
    w.sim
        .with_node::<EchoService, _>(w.svc, |s, _| s.core.enable_realtime(engine));
    w.sim.run_until(SimTime::from_secs(10));
    // First hint: honored, one out-of-cadence poll, one delivery.
    w.emit(0, 0);
    w.sim.run_until(SimTime::from_secs(30));
    let before = w.stats();
    assert_eq!(before.realtime_notifications, 1, "{before:?}");
    assert_eq!(before.realtime_polls, 1, "{before:?}");
    assert_eq!(before.events_new, 1, "{before:?}");
    let ack = w.apply(LifecycleEvent::UninstallApplet(AppletId(1)));
    assert_eq!(ack, Ok(LifecycleAck::Uninstalled(AppletId(1))));
    let at_uninstall = w.stats();
    // A hint after the ack resolves through identity routing — pruned, so
    // it neither arms a poll nor counts as suppressed-against-a-live-arm.
    w.emit(0, 1);
    // Run through two full 120 s cadence periods.
    w.sim.run_until(SimTime::from_secs(280));
    let after = w.stats();
    assert_eq!(
        after.polls_sent, at_uninstall.polls_sent,
        "cadence wheel entry survived the uninstall: {after:?}"
    );
    assert_eq!(
        after.realtime_polls, before.realtime_polls,
        "a hint armed a poll on a tombstone: {after:?}"
    );
    assert_eq!(
        after.realtime_suppressed, before.realtime_suppressed,
        "a hint matched a tombstoned slot: {after:?}"
    );
    assert_eq!(after.events_new, before.events_new);
    assert_conserved(&after);
}

/// An installed applet is one record per slot — the applet and its polling
/// state together — and a tombstone keeps its record. Through install →
/// uninstall → install of the same id, every reader of that record must
/// see the live one and never the tombstone: the id-keyed accessors, the
/// static loop check, identity routing of realtime hints, and the
/// retirement cascade.
#[test]
fn a_reinstalled_id_reads_its_live_record_never_the_tombstone() {
    let mut cfg = EngineConfig::fast().allow_realtime(ServiceSlug::new(SLUG));
    cfg.polling = engine::PollPolicy::fixed(120.0);
    cfg.static_loop_check = true;
    let mut w = world(cfg, 110, 0);
    let engine = w.engine;
    w.sim
        .with_node::<EchoService, _>(w.svc, |s, _| s.core.enable_realtime(engine));
    // act0 feeds t1 and act1 feeds t0: slots 0 and 1 close a loop.
    let feed = |from: usize, to: usize| engine::FeedRule {
        action_service: ServiceSlug::new(SLUG),
        action: ActionSlug::new(format!("act{from}")),
        trigger_service: ServiceSlug::new(SLUG),
        trigger: TriggerSlug::new(format!("t{to}")),
    };
    let detector = &mut w.sim.node_mut::<TapEngine>(engine).static_detector;
    detector.declare_feed(feed(0, 1));
    detector.declare_feed(feed(1, 0));
    let install = |w: &mut World, k: usize, id: u32| {
        let a = applet(k, id, &w.user);
        w.apply(LifecycleEvent::InstallApplet(a))
    };
    // What the id-keyed accessors say: (the applet's trigger, enabled).
    let read = |w: &World, id: u32| {
        let e = w.sim.node_ref::<TapEngine>(engine);
        let trigger = e.applet(AppletId(id)).map(|a| a.trigger.trigger.clone());
        (trigger, e.is_enabled(AppletId(id)))
    };
    let t = |k: usize| Some(TriggerSlug::new(format!("t{k}")));

    assert_eq!(
        install(&mut w, 0, 1),
        Ok(LifecycleAck::Installed(AppletId(1)))
    );
    assert_eq!(read(&w, 1), (t(0), true));
    // Let the first poll establish the subscription the hints resolve by.
    w.sim.run_until(SimTime::from_secs(10));
    let ack = w.apply(LifecycleEvent::UninstallApplet(AppletId(1)));
    assert_eq!(ack, Ok(LifecycleAck::Uninstalled(AppletId(1))));
    assert_eq!(read(&w, 1), (None, false));
    // The tombstone in slot 0 still holds `t0 -> act0`; the loop check
    // must not count it, or slot 1's applet would be refused.
    assert_eq!(
        install(&mut w, 1, 2),
        Ok(LifecycleAck::Installed(AppletId(2)))
    );
    // Id 1 comes back on another trigger, in a new slot.
    assert_eq!(
        install(&mut w, 2, 1),
        Ok(LifecycleAck::Installed(AppletId(1)))
    );
    assert_eq!(read(&w, 1), (t(2), true), "the live record, not slot 0's");
    assert_eq!(read(&w, 2), (t(1), true));
    w.sim.with_node::<TapEngine, _>(engine, |e, ctx| {
        e.set_enabled(ctx, AppletId(1), false);
        assert!(!e.is_enabled(AppletId(1)) && e.applet(AppletId(1)).is_some());
        e.set_enabled(ctx, AppletId(1), true);
    });
    assert_eq!(read(&w, 1), (t(2), true));
    // And a live loop is still a loop.
    let refused = install(&mut w, 0, 3);
    assert!(
        matches!(
            refused,
            Err(LifecycleError::Install(InstallError::LoopDetected(_)))
        ),
        "{refused:?}"
    );

    // A hint for the uninstalled identity (t0) is honored and misses; one
    // for the reinstalled id's identity (t2) arms its out-of-cadence poll.
    w.sim.run_until(SimTime::from_secs(20));
    let before = w.stats();
    w.emit(0, 0);
    w.sim.run_until(SimTime::from_secs(40));
    let missed = w.stats();
    assert_eq!(missed.hints_honored, before.hints_honored + 1, "{missed:?}");
    assert_eq!(missed.realtime_polls, before.realtime_polls, "{missed:?}");
    assert_eq!(missed.realtime_suppressed, before.realtime_suppressed);
    assert_eq!(missed.events_new, before.events_new, "{missed:?}");
    w.emit(2, 1);
    w.sim.run_until(SimTime::from_secs(60));
    let hit = w.stats();
    assert_eq!(hit.realtime_polls, missed.realtime_polls + 1, "{hit:?}");
    assert_eq!(hit.events_new, missed.events_new + 1, "{hit:?}");

    // The cascade walks the same records: two live applets, one tombstone.
    let ack = w.apply(LifecycleEvent::RetireService(ServiceSlug::new(SLUG)));
    let retired = LifecycleAck::Retired {
        service: ServiceSlug::new(SLUG),
        applets_removed: 2,
    };
    assert_eq!(ack, Ok(retired));
    assert_eq!(read(&w, 1), (None, false));
    assert_eq!(read(&w, 2), (None, false));
    w.sim.run_until(SimTime::from_secs(400));
    let after = w.stats();
    assert_eq!(after.polls_sent, hit.polls_sent, "a retired applet polled");
    assert_conserved(&after);
}

/// Satellite regression: uninstalling one member of a two-applet
/// coalescing group must evict the group's cached batch body and revert
/// the survivor's `grouped` hint — the survivor returns to the singleton
/// fast path instead of replaying a stale two-member batch forever.
#[test]
fn uninstalling_a_grouped_member_reverts_the_survivor_to_solo() {
    let cfg = EngineConfig::fast().with_batch_polling(true);
    let mut w = world(cfg, 103, 2);
    w.sim.run_until(SimTime::from_secs(30));
    let before = w.stats();
    assert!(before.polls_batched > 0, "pair never coalesced: {before:?}");
    let ack = w.apply(LifecycleEvent::UninstallApplet(AppletId(1)));
    assert_eq!(ack, Ok(LifecycleAck::Uninstalled(AppletId(1))));
    w.sim.run_until(SimTime::from_secs(90));
    let mid = w.stats();
    assert_eq!(
        mid.polls_batched, before.polls_batched,
        "survivor kept batch-polling solo (stale cached body): {mid:?}"
    );
    assert!(
        mid.polls_sent > before.polls_sent + 30,
        "survivor stopped polling entirely: {mid:?}"
    );
    // The survivor still delivers: an event on its trigger activates.
    w.emit(1, 0);
    w.sim.run_until(SimTime::from_secs(120));
    let after = w.stats();
    assert_eq!(after.events_new, mid.events_new + 1, "{after:?}");
    assert_eq!(after.actions_ok, mid.actions_ok + 1, "{after:?}");
    assert_eq!(
        w.sim
            .node_ref::<EchoService>(w.svc)
            .vendor
            .eids_of(|action| action == "act1")
            .len(),
        1,
        "survivor's action arrived"
    );
    assert_conserved(&after);
}

/// Two byte-identical batch replies with a member uninstalled while the
/// second is in flight: the reply is the one the engine ingested a round
/// earlier, so every id in it is already seen — the survivors report
/// nothing fresh (or empty), the tombstone's entry is discarded by count,
/// and nothing is dispatched twice.
#[test]
fn a_repeated_batch_reply_discards_only_the_member_uninstalled_in_between() {
    let cfg = EngineConfig::fast().with_batch_polling(true);
    let mut w = world(cfg, 108, SLOTS);
    let flight = Arc::new(FlightRecorder::new(1 << 20));
    w.sim
        .node_mut::<TapEngine>(w.engine)
        .set_sink(flight.clone());
    w.sim.run_until(SimTime::from_secs(5));
    // Two events on slot 0, one on slot 1, none on slot 2: polls do not
    // consume the buffer, so every later batch reply is these same bytes.
    w.emit(0, 0);
    w.emit(0, 1);
    w.emit(1, 2);
    w.sim.run_until(SimTime::from_secs(20));
    let settled = w.stats();
    assert_eq!(settled.events_new, 3, "{settled:?}");
    assert_eq!(settled.actions_ok, 3, "{settled:?}");
    // Stop at the instant a full batch has left and nothing came back.
    flight.clear();
    let full_batch_left = |e: &ObsEvent| matches!(e, ObsEvent::BatchPollSent { members, .. } if *members == SLOTS as u64);
    while !flight.events().last().is_some_and(full_batch_left) {
        assert!(w.sim.step(), "the group stopped polling");
    }
    let sent_at = w.sim.now();
    assert_eq!(
        w.apply(LifecycleEvent::UninstallApplet(AppletId(2))),
        Ok(LifecycleAck::Uninstalled(AppletId(2)))
    );
    flight.clear();
    while flight.events().len() < 3 {
        assert!(w.sim.step(), "the batch reply never arrived");
    }
    let at = w.sim.now();
    assert_eq!(
        flight.events(),
        vec![
            ObsEvent::PollDelivered {
                applet: AppletId(1),
                received: 2,
                fresh: 0,
                sent_at,
                at,
            },
            ObsEvent::PollDiscarded { received: 1, at },
            ObsEvent::PollEmpty { polls: 1, at },
        ]
    );
    w.sim.run_until(SimTime::from_secs(60));
    let after = w.stats();
    assert_eq!(after.events_new, 3, "a seen event was dispatched again");
    assert_conserved(&after);
}

/// A group that loses its last member leaves nothing behind: a failed
/// batch degrades the group for a whole cadence gap, every member is
/// uninstalled, and two fresh installs under the same (owner, service,
/// cadence class) — well inside the old window — coalesce on their first
/// round, with a request serialized for them and not for their
/// predecessors.
#[test]
fn an_emptied_group_leaves_no_degradation_window_and_no_memo() {
    let mut cfg = EngineConfig::fast().with_batch_polling(true);
    cfg.polling = engine::PollPolicy::fixed(120.0);
    let mut w = world(cfg, 109, SLOTS);
    // The initial polls (0.1–1 s) coalesce into one batch, which fails.
    let outage =
        ServerFaultPlan::new().window(ServerFault::Http500, SimTime::ZERO, SimTime::from_secs(3));
    w.sim
        .with_node::<EchoService, _>(w.svc, |s, _| s.core.fault_plan = Some(outage));
    w.sim.run_until(SimTime::from_secs(5));
    let degraded = w.stats();
    assert_eq!(degraded.polls_batched, 1, "{degraded:?}");
    assert_eq!(degraded.batch_fallbacks, 1, "{degraded:?}");
    assert_eq!(w.last_batch_request(), w.batch_body(&[0, 1, 2]));
    // Degraded until ~121 s. Everyone leaves; two newcomers arrive at 5 s.
    for id in 1..=SLOTS as u32 {
        let ack = w.apply(LifecycleEvent::UninstallApplet(AppletId(id)));
        assert_eq!(ack, Ok(LifecycleAck::Uninstalled(AppletId(id))));
    }
    for k in 0..2 {
        let fresh = applet(k, 11 + k as u32, &w.user);
        let ack = w.apply(LifecycleEvent::InstallApplet(fresh));
        assert_eq!(ack, Ok(LifecycleAck::Installed(AppletId(11 + k as u32))));
    }
    w.sim.run_until(SimTime::from_secs(15));
    let after = w.stats();
    assert_eq!(
        after.polls_batched, 2,
        "the newcomers polled singleton inside a window that was not theirs: {after:?}"
    );
    assert_eq!(after.polls_sent, degraded.polls_sent + 2, "{after:?}");
    assert_eq!(after.batch_fallbacks, 1, "{after:?}");
    assert_eq!(w.last_batch_request(), w.batch_body(&[0, 1]));
}

/// Uninstalling the middle member of a phase-locked group misses the memo
/// on the next round; the request rebuilt from the survivors' applets is
/// byte-for-byte the wire body listing them in install order.
#[test]
fn a_shrunk_group_polls_its_survivors_in_install_order() {
    let cfg = EngineConfig::fast().with_batch_polling(true);
    let mut w = world(cfg, 110, SLOTS);
    w.sim.run_until(SimTime::from_secs(10));
    assert_eq!(w.last_batch_request(), w.batch_body(&[0, 1, 2]));
    let ack = w.apply(LifecycleEvent::UninstallApplet(AppletId(2)));
    assert_eq!(ack, Ok(LifecycleAck::Uninstalled(AppletId(2))));
    let batches = w.stats().polls_batched;
    while w.stats().polls_batched == batches {
        assert!(w.sim.step(), "the survivors stopped polling");
    }
    // The count moves when the request leaves; give it time to arrive.
    w.sim.run_until(w.sim.now() + SimDuration::from_secs(1));
    assert_eq!(w.last_batch_request(), w.batch_body(&[0, 2]));
}

#[test]
fn retirement_drains_in_flight_dispatches_to_dead_letters() {
    let mut w = world(EngineConfig::fast(), 104, 2);
    w.sim
        .with_node::<EchoService, _>(w.svc, |s, _| s.vendor.blackhole_actions = true);
    w.sim.run_until(SimTime::from_secs(5));
    // One activation whose dispatch the service swallows: in flight, and
    // with a 10 s request timeout still far from its retry.
    w.emit(0, 0);
    w.sim.run_until(SimTime::from_secs(8));
    let before = w.stats();
    assert_eq!(before.actions_sent, 1, "{before:?}");
    assert_eq!(before.actions_ok, 0, "{before:?}");
    let ack = w.apply(LifecycleEvent::RetireService(ServiceSlug::new(SLUG)));
    assert_eq!(
        ack,
        Ok(LifecycleAck::Retired {
            service: ServiceSlug::new(SLUG),
            applets_removed: 2,
        })
    );
    let at_retire = w.stats();
    assert_eq!(at_retire.dead_letters, 1, "{at_retire:?}");
    assert_conserved(&at_retire);
    // Run far past the request timeout: the late timeout fires against a
    // reclaimed slab handle and must miss — no retry, no double count.
    w.sim.run_until(SimTime::from_secs(120));
    let after = w.stats();
    assert_eq!(after.dead_letters, at_retire.dead_letters, "{after:?}");
    assert_eq!(after.actions_retried, 0, "{after:?}");
    assert_eq!(
        after.polls_sent, at_retire.polls_sent,
        "a retired service is still being polled: {after:?}"
    );
    assert_conserved(&after);
    // Retiring it again is a clean error.
    assert_eq!(
        w.apply(LifecycleEvent::RetireService(ServiceSlug::new(SLUG))),
        Err(LifecycleError::UnknownService(ServiceSlug::new(SLUG)))
    );
}

/// Satellite regression: retirement uninstalls the applets that poll or
/// act on the dying service, not the ones that only *query* it. Their
/// later runs must resolve the query node as a terminal failure under its
/// policy (a classic query continues empty) instead of parking in the run
/// arena waiting on a registration that is gone.
#[test]
fn retiring_a_query_only_service_fails_the_query_node_not_the_run() {
    let mut w = world(EngineConfig::fast(), 106, 0);
    let lookup = w.sim.add_node("qsvc", life_service("qsvc", "sk_q"));
    w.sim.link(w.engine, lookup, LinkSpec::datacenter());
    let user = w.user.clone();
    let token = w.sim.with_node::<EchoService, _>(lookup, |s, ctx| {
        s.core.endpoint.oauth.mint_token(user.clone(), ctx.rng())
    });
    w.apply(LifecycleEvent::OnboardService {
        slug: ServiceSlug::new("qsvc"),
        node: lookup,
        key: ServiceKey("sk_q".into()),
        realtime: false,
    })
    .expect("query service onboards");
    w.sim.with_node::<TapEngine, _>(w.engine, |e, _| {
        e.set_token(user.clone(), ServiceSlug::new("qsvc"), token);
    });
    let querying = applet(0, 1, &user).with_query(QueryRef {
        service: ServiceSlug::new("qsvc"),
        query: QuerySlug::new("look"),
        fields: FieldMap::new(),
        prefix: "ctx".into(),
    });
    w.apply(LifecycleEvent::InstallApplet(querying))
        .expect("applet installs");
    w.sim.run_until(SimTime::from_secs(5));
    w.emit(0, 0);
    w.sim.run_until(SimTime::from_secs(20));
    let before = w.stats();
    assert_eq!(before.queries_sent, 1, "{before:?}");
    assert_eq!(before.actions_ok, 1, "{before:?}");
    // Retire the query service mid-run: the second event's run is
    // enqueued (its start timer is the dispatch overhead away) but has
    // not sent anything yet.
    w.emit(0, 1);
    while w.stats().events_new < 2 {
        w.sim.run_for(SimDuration::from_millis(10));
    }
    assert_eq!(
        w.apply(LifecycleEvent::RetireService(ServiceSlug::new("qsvc"))),
        Ok(LifecycleAck::Retired {
            service: ServiceSlug::new("qsvc"),
            applets_removed: 0,
        })
    );
    w.sim.run_until(SimTime::from_secs(90));
    let after = w.stats();
    assert_eq!(after.queries_sent, 1, "a query left for a retired service");
    assert_eq!(after.queries_failed, 1, "the query node failed: {after:?}");
    assert_eq!(after.actions_ok, 2, "the run continued past it: {after:?}");
    assert_conserved(&after);
    assert_eq!(
        w.sim.node_ref::<TapEngine>(w.engine).runs_in_flight(),
        0,
        "a run is parked in the arena"
    );
}

/// `steps` replace the classic `condition`/`queries` fields; an applet
/// carrying both is rejected rather than having one half ignored.
#[test]
fn steps_alongside_classic_condition_or_queries_are_rejected() {
    let mut w = world(EngineConfig::fast(), 107, 0);
    let user = w.user.clone();
    let steps = vec![StepNode::new(StepSpec::Action {
        action: "act0".into(),
        fields: FieldMap::new(),
    })];
    let with_condition = applet(0, 1, &user)
        .with_steps(steps.clone())
        .with_condition(Condition::Has { key: "id".into() });
    let with_query = applet(0, 2, &user)
        .with_steps(steps.clone())
        .with_query(QueryRef {
            service: ServiceSlug::new(SLUG),
            query: QuerySlug::new("look"),
            fields: FieldMap::new(),
            prefix: "ctx".into(),
        });
    for bad in [with_condition, with_query] {
        let err = w.apply(LifecycleEvent::InstallApplet(bad));
        assert!(
            matches!(
                err,
                Err(LifecycleError::Install(InstallError::InvalidSteps(_)))
            ),
            "{err:?}"
        );
    }
    assert_eq!(
        w.apply(LifecycleEvent::InstallApplet(
            applet(0, 3, &user).with_steps(steps)
        )),
        Ok(LifecycleAck::Installed(AppletId(3)))
    );
}

#[test]
fn onboard_service_opens_installs_and_realtime_mid_run() {
    let mut w = world(EngineConfig::fast(), 105, 1);
    w.sim.run_until(SimTime::from_secs(5));
    // A second partner exists as a node but was never registered: an
    // install referencing it is rejected.
    let late = w.sim.add_node("latesvc", life_service("late", "sk_late"));
    w.sim.link(w.engine, late, LinkSpec::datacenter());
    let user = w.user.clone();
    let token = w.sim.with_node::<EchoService, _>(late, |s, ctx| {
        s.core.endpoint.oauth.mint_token(user.clone(), ctx.rng())
    });
    let mut orphan = applet(0, 50, &user);
    orphan.trigger.service = ServiceSlug::new("late");
    orphan.action.service = ServiceSlug::new("late");
    let err = w.apply(LifecycleEvent::InstallApplet(orphan.clone()));
    assert!(
        matches!(err, Err(LifecycleError::Install(_))),
        "install against an unonboarded service must fail: {err:?}"
    );
    // Onboard it mid-run (realtime-honored), connect the user, reinstall.
    let ack = w.apply(LifecycleEvent::OnboardService {
        slug: ServiceSlug::new("late"),
        node: late,
        key: ServiceKey("sk_late".into()),
        realtime: true,
    });
    assert_eq!(ack, Ok(LifecycleAck::Onboarded(ServiceSlug::new("late"))));
    let engine = w.engine;
    w.sim.with_node::<TapEngine, _>(engine, |e, _| {
        e.set_token(user.clone(), ServiceSlug::new("late"), token);
    });
    w.sim
        .with_node::<EchoService, _>(late, |s, _| s.core.enable_realtime(engine));
    assert_eq!(
        w.apply(LifecycleEvent::InstallApplet(orphan)),
        Ok(LifecycleAck::Installed(AppletId(50)))
    );
    w.sim.run_until(SimTime::from_secs(12));
    // Its realtime hints are honored (the onboard added the allowlist
    // entry), and its trigger activates end to end.
    fire(&mut w.sim, late, "t0", &user, "late01");
    w.sim.run_until(SimTime::from_secs(40));
    let stats = w.stats();
    assert!(stats.hints_honored >= 1, "{stats:?}");
    assert_eq!(stats.hints_ignored, 0, "{stats:?}");
    assert!(stats.events_new >= 1, "{stats:?}");
    assert_conserved(&stats);
}

/// One churn run: install SLOTS applets, then per round emit on every
/// live slot and toggle one applet (uninstall if live, fresh install if
/// not) so slab handles are freed and reused mid-traffic. Returns the
/// full observable event stream.
fn churn_run(seed: u64, ops: &[usize], reference: bool) -> Vec<ObsEvent> {
    let cfg = EngineConfig::fast().with_batch_polling(true);
    let mut w = world(cfg, seed, SLOTS);
    if reference {
        w.sim
            .node_mut::<TapEngine>(w.engine)
            .use_reference_storage();
    }
    let flight = Arc::new(FlightRecorder::new(1 << 20));
    w.sim
        .node_mut::<TapEngine>(w.engine)
        .set_sink(flight.clone());
    w.sim.run_until(SimTime::from_secs(5));
    // installed[k] holds slot k's current applet id, None while churned
    // out; fresh installs take ids from 100 up so they never collide.
    let mut installed: Vec<Option<u32>> = (0..SLOTS).map(|k| Some(k as u32 + 1)).collect();
    let mut next_id = 100u32;
    let mut eid = 0u32;
    for (round, &k) in ops.iter().enumerate() {
        for (slot, state) in installed.iter().enumerate() {
            if state.is_some() {
                w.emit(slot, eid);
            }
            eid += 1;
        }
        match installed[k] {
            Some(id) => {
                w.apply(LifecycleEvent::UninstallApplet(AppletId(id)))
                    .expect("live applet uninstalls");
                installed[k] = None;
            }
            None => {
                let id = next_id;
                next_id += 1;
                let user = w.user.clone();
                w.apply(LifecycleEvent::InstallApplet(applet(k, id, &user)))
                    .expect("fresh applet installs");
                installed[k] = Some(id);
            }
        }
        w.sim
            .run_until(SimTime::from_secs(5 + (round as u64 + 1) * 7));
    }
    let base = w.sim.now();
    w.sim.run_until(base + SimDuration::from_secs(60));
    assert_conserved(&w.stats());
    flight.events()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Slab-handle reuse across churn bursts is storage-invariant: the
    /// slab and reference arenas hand out the same handles in the same
    /// order through any install/uninstall interleaving, so the full
    /// observable event stream matches element for element.
    #[test]
    fn churn_bursts_reuse_handles_identically_across_storage_modes(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(0usize..SLOTS, 1..6),
    ) {
        let slab = churn_run(seed, &ops, false);
        let refr = churn_run(seed, &ops, true);
        prop_assert_eq!(slab.len(), refr.len(), "stream lengths diverge");
        for (i, (a, b)) in slab.iter().zip(refr.iter()).enumerate() {
            prop_assert_eq!(a, b, "streams diverge at event {}", i);
        }
    }
}
