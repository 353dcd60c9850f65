//! Engine kernels. A [`TapEngine`] only runs inside a simulation, so each
//! kernel is a one-cell simulation ([`Rig`]) populated so that one engine
//! path dominates, and reports host nanoseconds per occurrence of that
//! path. The figures are inclusive: they contain the transport and the
//! service work the path causes. Where a path cannot be made to dominate,
//! the figure is the difference to the same run without it.

use super::rig::{self, Rig, RigService, RigSpec, SLOTS};
use super::{ns_per_op, Results, Timing};
use crate::stats;
use engine::{AppletId, EngineConfig, LifecycleAck, LifecycleEvent, RetryPolicy, TapEngine};
use fleet::FleetMetrics;
use simnet::chaos::{ServerFault, ServerFaultPlan};
use simnet::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Virtual seconds each measured run covers, after a warm-up that lets
/// the initial polls establish every subscription.
const WARM_SECS: u64 = 10;
const RUN_SECS: u64 = 200;

/// What a measured run did, as differences of the engine's counters.
struct Run {
    host_ns: f64,
    polls: u64,
    batches: u64,
    actions: u64,
    dag_runs: u64,
    notifications: u64,
    failed: u64,
    shed: u64,
}

fn snapshot(m: &FleetMetrics) -> [u64; 7] {
    [
        m.polls_sent.get(),
        m.polls_batched.get(),
        m.actions_ok.get(),
        m.dag_runs.get(),
        m.realtime_notifications.get(),
        m.polls_failed.get(),
        m.polls_shed.get(),
    ]
}

/// Build `spec`, warm it up, then run [`RUN_SECS`] virtual seconds,
/// firing every trigger each `emit_every` seconds if given.
fn measure(spec: &RigSpec, emit_every: Option<u64>) -> Run {
    let mut rig = Rig::build(spec);
    rig.run_for(WARM_SECS);
    let before = snapshot(&rig.metrics);
    let t0 = Instant::now();
    match emit_every {
        None => {
            rig.run_for(RUN_SECS);
        }
        Some(every) => {
            for _ in 0..RUN_SECS / every {
                rig.emit_all();
                rig.run_for(every);
            }
        }
    }
    let host_ns = t0.elapsed().as_nanos() as f64;
    let after = snapshot(&rig.metrics);
    let d = |i: usize| after[i] - before[i];
    Run {
        host_ns,
        polls: d(0),
        batches: d(1),
        actions: d(2),
        dag_runs: d(3),
        notifications: d(4),
        failed: d(5),
        shed: d(6),
    }
}

/// Median over repeats of `per_op(run)`.
fn median_of(t: Timing, mut one: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..t.scenario_reps).map(|_| one()).collect();
    stats::median(&samples)
}

/// A service that answers every request with `503 Retry-After: 1`.
fn always_unavailable() -> ServerFaultPlan {
    ServerFaultPlan::new().window(
        ServerFault::Http503 {
            retry_after_secs: 1,
        },
        SimTime::ZERO,
        SimTime::from_micros(u64::MAX / 2),
    )
}

pub fn engine(t: Timing, out: &mut Results) {
    out.insert(
        "engine.new_us".into(),
        ns_per_op(t, 1, || {
            black_box(TapEngine::new(black_box(EngineConfig::default())));
        }) / 1e3,
    );
    lifecycle(t, out);

    // 50 one-applet users polled every second, nothing ever fires: every
    // poll is the empty fast path.
    let single = RigSpec::new(EngineConfig::fast(), 50, 1);
    let idle = |spec: &RigSpec| measure(spec, None);
    out.insert(
        "engine.poll_empty_ns".into(),
        median_of(t, || {
            let r = idle(&single);
            assert!(r.polls >= 50 * (RUN_SECS - 1) && r.actions == 0);
            r.host_ns / r.polls as f64
        }),
    );

    // The same users after one delivered activation each: every poll now
    // returns the one buffered event, which the engine parses and drops as
    // already seen — what most of a fleet cell's polls look like once its
    // activations have fired.
    out.insert(
        "engine.poll_seen_ns".into(),
        median_of(t, || {
            let mut rig = Rig::build(&single);
            rig.run_for(WARM_SECS);
            rig.emit_all();
            rig.run_for(WARM_SECS);
            assert_eq!(
                rig.metrics.actions_ok.get(),
                50,
                "each activation delivered once"
            );
            let polls = rig.metrics.polls_sent.get();
            let host = rig.run_for(RUN_SECS);
            assert_eq!(
                rig.metrics.actions_ok.get(),
                50,
                "seen events are not re-dispatched"
            );
            host.as_nanos() as f64 / (rig.metrics.polls_sent.get() - polls) as f64
        }),
    );

    // Full-slot users with coalescing on: one batch request per user per
    // second carrying every slot.
    let batched = RigSpec::new(EngineConfig::fast().with_batch_polling(true), 15, SLOTS);
    out.insert(
        format!("engine.poll_batch{SLOTS}_ns"),
        median_of(t, || {
            let r = idle(&batched);
            assert!(r.batches >= 15 * (RUN_SECS - 10), "batches {}", r.batches);
            r.host_ns / r.batches as f64
        }),
    );

    // Every trigger fires every second: each poll now carries a fresh
    // event that is dispatched and executed. The cost beyond the idle run
    // is the event's: service-side recording, parse, dispatch, action.
    let busy_minus_idle = |spec: &RigSpec, every: u64| {
        let busy = measure(spec, Some(every));
        let idle = measure(spec, None);
        (busy, idle)
    };
    out.insert(
        "engine.dispatch_ns".into(),
        median_of(t, || {
            let (busy, idle) = busy_minus_idle(&single, 1);
            assert!(busy.actions >= 50 * (RUN_SECS - 5) && busy.dag_runs == 0);
            (busy.host_ns - idle.host_ns) / busy.actions as f64
        }),
    );

    let mut dag = single.clone();
    dag.steps = rig::four_step_dag(0);
    out.insert(
        "engine.dag_run_ns".into(),
        median_of(t, || {
            let (busy, idle) = busy_minus_idle(&dag, 1);
            assert!(
                busy.dag_runs >= 50 * (RUN_SECS - 5),
                "dag runs {}",
                busy.dag_runs
            );
            assert!(busy.actions >= busy.dag_runs - 100, "DAG actions complete");
            (busy.host_ns - idle.host_ns) / busy.dag_runs as f64
        }),
    );

    // Production cadence (minutes) with a realtime-capable service: an
    // event is delivered by notification → immediate poll → dispatch.
    // Fired every 10 s so the 5 s debounce window never absorbs one.
    let mut realtime = RigSpec::new(EngineConfig::default(), 50, 1);
    realtime.realtime = true;
    out.insert(
        "engine.realtime_ns".into(),
        median_of(t, || {
            let (busy, idle) = busy_minus_idle(&realtime, 10);
            assert!(
                busy.notifications >= 50 * (RUN_SECS / 10 - 1),
                "notifications {}",
                busy.notifications
            );
            assert_eq!(idle.notifications, 0);
            (busy.host_ns - idle.host_ns) / busy.notifications as f64
        }),
    );

    // A service that is down for good. With retries and no breaker every
    // poll fails and is retried on the backoff schedule…
    let mut failing = RigSpec::new(
        EngineConfig::fast().with_poll_retry(RetryPolicy::retries(2)),
        50,
        1,
    );
    failing.faults = Some(always_unavailable());
    out.insert(
        "engine.retry_ns".into(),
        median_of(t, || {
            let r = idle(&failing);
            assert!(r.failed > 1_000 && r.shed == 0, "failed {}", r.failed);
            assert_eq!(r.failed, r.polls, "every poll failed");
            r.host_ns / r.failed as f64
        }),
    );

    // …and with the full resilience stack the breaker opens and sheds
    // nearly all of them without a round trip.
    let mut shedding = RigSpec::new(EngineConfig::fast().resilient(), 50, 1);
    shedding.faults = Some(always_unavailable());
    out.insert(
        "engine.breaker_shed_ns".into(),
        median_of(t, || {
            let r = idle(&shedding);
            assert!(
                r.shed > 10 * r.failed.max(1),
                "shed {} failed {}",
                r.shed,
                r.failed
            );
            r.host_ns / r.shed as f64
        }),
    );
}

/// Install and uninstall cost per applet, on an engine that already
/// serves 50 users: slots 1.. of every user are installed, then removed.
fn lifecycle(t: Timing, out: &mut Results) {
    let spec = RigSpec::new(EngineConfig::default(), 50, 1);
    let per_rig = (50 * (SLOTS - 1)) as f64;
    let mut install = Vec::new();
    let mut uninstall = Vec::new();
    for _ in 0..t.samples {
        let mut rig = Rig::build(&spec);
        let users = rig.users.clone();
        let engine = rig.engine;
        rig.sim.with_node::<TapEngine, _>(engine, |e, ctx| {
            let t0 = Instant::now();
            for (local, user) in users.iter().enumerate() {
                for k in 1..SLOTS {
                    e.install_applet(ctx, rig::applet(local, k, user))
                        .expect("applet installs");
                }
            }
            install.push(t0.elapsed().as_nanos() as f64 / per_rig);
            let t0 = Instant::now();
            for local in 0..users.len() {
                for k in 1..SLOTS {
                    let id = AppletId((local * SLOTS + k + 1) as u32);
                    let ack = e
                        .apply_lifecycle(ctx, LifecycleEvent::UninstallApplet(id))
                        .expect("applet uninstalls");
                    assert!(matches!(ack, LifecycleAck::Uninstalled(_)), "{ack:?}");
                }
            }
            uninstall.push(t0.elapsed().as_nanos() as f64 / per_rig);
            assert!(e.applet(AppletId(2)).is_none(), "slot 1 of user 0 is gone");
            assert!(e.applet(AppletId(1)).is_some(), "slot 0 of user 0 stays");
        });
        // The service node is untouched by lifecycle calls.
        black_box(rig.sim.node_ref::<RigService>(rig.svc).core.polls_served);
    }
    out.insert("engine.install_us".into(), stats::median(&install) / 1e3);
    out.insert(
        "engine.uninstall_us".into(),
        stats::median(&uninstall) / 1e3,
    );
}
