//! The §6 push-vs-poll workload experiment.
//!
//! "An effective way to reduce the latency is to perform push … However …
//! if all trigger services perform push, the incurred instantaneous
//! workload may be too high: IoT workload is known to be highly bursty."
//!
//! A fleet of synthetic services hosts many applets whose trigger events
//! arrive in correlated bursts (think "update wallpaper with new NASA
//! photo": one upstream event fires thousands of subscriptions at once).
//! We measure the engine's request-processing rate under two regimes:
//!
//! * **poll** — hints ignored; the engine's load is its own steady
//!   polling, independent of event bursts;
//! * **push** — every service on the realtime allowlist; each burst slams
//!   the engine with hints and the prompt polls + dispatches they cause.

use analysis::workload::WorkloadReport;
use devices::service_core::ServiceCore;
use devices::services::{Outcome, Partner, PartnerService};
use engine::{
    ActionRef, Applet, AppletId, EngineConfig, ObsEvent, PollPolicy, TapEngine, TriggerRef,
};
use simnet::prelude::*;
use std::sync::{Arc, Mutex};
use tap_protocol::auth::ServiceKey;
use tap_protocol::service::ServiceEndpoint;
use tap_protocol::wire::TriggerEvent;
use tap_protocol::{ActionSlug, FieldMap, ServiceSlug, TriggerSlug, UserId};

const FIRED: &str = "fired";
const NOOP: &str = "noop";

/// A synthetic partner service whose single trigger fires for every
/// subscription at once when `burst` is called.
struct Burst {
    slug: String,
    next_burst: u64,
}

type BurstService = PartnerService<Burst>;

impl Burst {
    fn burst(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>, users: usize) {
        self.next_burst += 1;
        for u in 0..users {
            let id = format!("b{}_{u}", self.next_burst);
            let ev = TriggerEvent::new(id, ctx.now().as_secs_f64() as u64);
            let user = UserId::new(format!("user_{u}"));
            core.record_event(ctx, &TriggerSlug::new(FIRED), &user, ev, |_| true);
        }
    }
}

impl Partner for Burst {
    fn slug(&self) -> &str {
        &self.slug
    }

    fn triggers(&self) -> Vec<&str> {
        vec![FIRED]
    }

    fn actions(&self) -> Vec<&str> {
        vec![NOOP]
    }

    fn action(&mut self, _user: &UserId, _action: &str, _fields: FieldMap) -> Outcome {
        Outcome::Reply(ServiceEndpoint::action_ok("ok"))
    }
}

/// Result of one regime run.
pub struct WorkloadOutcome {
    /// Engine request-processing events per 1-second bucket.
    pub report: WorkloadReport,
    /// Median T2A-ish delivery delay (first event of each burst → action).
    pub actions_ok: u64,
}

/// Run one regime: `services` synthetic services × `users` applets each,
/// `bursts` correlated bursts spaced `burst_gap` seconds apart.
pub fn run_workload(
    push: bool,
    services: usize,
    users: usize,
    bursts: usize,
    burst_gap: u64,
    seed: u64,
) -> WorkloadOutcome {
    let mut sim = Sim::new(seed);
    let mut cfg = EngineConfig {
        // A moderate fixed poll interval keeps the poll-regime baseline
        // interpretable: load = services × users / interval. Staggering
        // the initial polls across one interval desynchronizes the fleet
        // (a production poller sharding work over time).
        polling: PollPolicy::fixed(60.0),
        initial_poll_delay: simnet::rng::Dist::Uniform { lo: 1.0, hi: 61.0 },
        ..EngineConfig::default()
    };
    if push {
        for i in 0..services {
            cfg.realtime_allowlist
                .insert(ServiceSlug::new(format!("burst_{i}")));
        }
    }
    let engine = sim.add_node("engine", TapEngine::new(cfg));
    // Every typed event (a run can outgrow the testbed's flight ring).
    let events = Arc::new(Mutex::new(Vec::new()));
    sim.node_mut::<TapEngine>(engine).set_sink(events.clone());
    let mut svc_nodes = Vec::new();
    for i in 0..services {
        let slug = format!("burst_{i}");
        let key = format!("sk_{i}");
        let mut burst = BurstService::new(
            ServiceKey(key.clone()),
            Burst {
                slug: slug.clone(),
                next_burst: 0,
            },
        );
        if push {
            burst.core.enable_realtime(engine);
        }
        let node = sim.add_node(slug.clone(), burst);
        sim.link(engine, node, LinkSpec::datacenter());
        svc_nodes.push((slug, node, key));
    }
    // Install users × services applets (trigger and action on the same
    // synthetic service).
    let mut applet_id = 1u32;
    for (slug, node, key) in &svc_nodes {
        for u in 0..users {
            let user = UserId::new(format!("user_{u}"));
            let token = sim.with_node::<BurstService, _>(*node, |s, ctx| {
                s.core.endpoint.oauth.mint_token(user.clone(), ctx.rng())
            });
            sim.with_node::<TapEngine, _>(engine, |e, ctx| {
                e.register_service(
                    ServiceSlug::new(slug.clone()),
                    *node,
                    ServiceKey(key.clone()),
                );
                e.set_token(user.clone(), ServiceSlug::new(slug.clone()), token);
                let applet = Applet::new(
                    AppletId(applet_id),
                    format!("{slug} applet {u}"),
                    user.clone(),
                    TriggerRef {
                        service: ServiceSlug::new(slug.clone()),
                        trigger: TriggerSlug::new(FIRED),
                        fields: FieldMap::new(),
                    },
                    ActionRef {
                        service: ServiceSlug::new(slug.clone()),
                        action: ActionSlug::new(NOOP),
                        fields: FieldMap::new(),
                    },
                );
                e.install_applet(ctx, applet).expect("installs");
            });
            applet_id += 1;
        }
    }
    // Let subscriptions settle, then fire correlated bursts.
    sim.run_until(SimTime::from_secs(70));
    let t0 = sim.now();
    for b in 0..bursts {
        sim.run_until(t0 + SimDuration::from_secs(b as u64 * burst_gap));
        for (_, node, _) in &svc_nodes {
            sim.with_node::<BurstService, _>(*node, |s, ctx| {
                s.vendor.burst(&mut s.core, ctx, users)
            });
        }
    }
    let horizon = bursts as u64 * burst_gap + 70;
    sim.run_until(t0 + SimDuration::from_secs(horizon));

    // Engine workload = every request-processing event at the engine:
    // polls and actions sent (typed events), hint-armed polls scheduled
    // (the one fact the engine reports only as a trace line).
    let t0s = t0.as_secs_f64();
    let hint_polls = sim.trace().events().iter();
    let hint_polls = hint_polls.filter(|e| e.kind == "engine.hint_poll");
    let events = events.lock().expect("event log lock");
    let sent = events.iter().filter_map(|ev| match ev {
        ObsEvent::PollSent { at, .. } | ObsEvent::ActionSent { at, .. } => Some(*at),
        _ => None,
    });
    let timestamps: Vec<f64> = sent
        .chain(hint_polls.map(|e| e.at))
        .filter(|at| *at >= t0)
        .map(|at| at.as_secs_f64() - t0s)
        .collect();
    let report = WorkloadReport::of(&timestamps, 1.0, horizon as f64);
    let actions_ok = sim.node_ref::<TapEngine>(engine).stats.actions_ok;
    WorkloadOutcome { report, actions_ok }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_is_burstier_than_poll_but_delivers_the_same() {
        let poll = run_workload(false, 4, 10, 3, 90, 1);
        let push = run_workload(true, 4, 10, 3, 90, 2);
        // Both regimes eventually execute every action (3 bursts × 40).
        assert_eq!(poll.actions_ok, 120, "poll delivers all");
        assert_eq!(push.actions_ok, 120, "push delivers all");
        // The push regime's instantaneous engine load is much spikier.
        let r_poll = poll.report.peak_to_mean();
        let r_push = push.report.peak_to_mean();
        assert!(
            r_push > r_poll * 2.0,
            "push {r_push:.1}x vs poll {r_poll:.1}x"
        );
    }
}
