//! A one-cell simulation built from the same public pieces `fleet::cell`
//! uses — a [`TapEngine`], a [`ServiceCore`]-backed partner service, a
//! datacenter link — but with the population chosen by the kernel, so a
//! kernel can make one engine path dominate the run.

use bytes::Bytes;
use devices::service_core::{Processed, ServiceCore};
use engine::{ActionRef, Applet, AppletId, EngineConfig, TapEngine, TriggerRef};
use fleet::FleetMetrics;
use simnet::chaos::ServerFaultPlan;
use simnet::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tap_protocol::auth::ServiceKey;
use tap_protocol::service::ServiceEndpoint;
use tap_protocol::wire::{self, ActionResponseBody, TriggerEvent};
use tap_protocol::{
    ActionSlug, FieldMap, ServiceSlug, StepNode, StepSpec, TriggerIdentity, TriggerSlug, UserId,
};

pub const SERVICE_SLUG: &str = "fleet_svc";
pub const SERVICE_KEY: &str = "sk_fleet";
/// The fleet's install slots per user (`ecosystem::population`).
pub const SLOTS: usize = ecosystem::population::MAX_INSTALLS_PER_USER;

/// The fleet's partner service without its T2A bookkeeping: protocol
/// handling by [`ServiceCore`], constant replies for actions and queries.
pub struct RigService {
    pub core: ServiceCore,
    action_ok: Bytes,
    /// Every request received, when capturing.
    pub captured: Option<Vec<Request>>,
}

impl RigService {
    pub fn new() -> RigService {
        let mut ep = ServiceEndpoint::new(
            ServiceSlug::new(SERVICE_SLUG),
            ServiceKey(SERVICE_KEY.into()),
        );
        for k in 0..SLOTS {
            ep = ep
                .with_trigger(format!("fired_{k}").as_str())
                .with_action(format!("noop_{k}").as_str());
        }
        ep = ep.with_query("lookup").with_action("noop_aux");
        RigService {
            core: ServiceCore::new(ep),
            action_ok: wire::to_bytes(&ActionResponseBody::single("ok")),
            captured: None,
        }
    }
}

impl Default for RigService {
    fn default() -> Self {
        RigService::new()
    }
}

impl Node for RigService {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        if let Some(log) = &mut self.captured {
            log.push(req.clone());
        }
        match self.core.process(ctx, req) {
            Processed::Done(resp) => HandlerResult::Reply(resp),
            Processed::Action { .. } => {
                HandlerResult::Reply(Response::ok().with_body(self.action_ok.clone()))
            }
            Processed::Query { fields, .. } => {
                HandlerResult::Reply(ServiceEndpoint::query_ok(fields))
            }
            Processed::NoReply => HandlerResult::Deferred,
        }
    }
}

/// What to build.
#[derive(Clone)]
pub struct RigSpec {
    pub engine: EngineConfig,
    pub users: usize,
    /// Applets per user, at most [`SLOTS`].
    pub applets_per_user: usize,
    /// Execution DAG every applet carries; empty for classic applets.
    pub steps: Vec<StepNode>,
    /// The service pushes realtime notifications and the engine honors them.
    pub realtime: bool,
    pub faults: Option<ServerFaultPlan>,
    pub capture: bool,
}

impl RigSpec {
    pub fn new(engine: EngineConfig, users: usize, applets_per_user: usize) -> RigSpec {
        assert!((1..=SLOTS).contains(&applets_per_user));
        RigSpec {
            engine,
            users,
            applets_per_user,
            steps: Vec::new(),
            realtime: false,
            faults: None,
            capture: false,
        }
    }
}

/// A DAG with one node of every kind, in the shape the ecosystem
/// generator emits: gate, rewrite, lookup, then the paired action.
pub fn four_step_dag(slot: usize) -> Vec<StepNode> {
    vec![
        StepNode::new(StepSpec::Filter {
            predicate: tap_protocol::StepPredicate::Always,
        }),
        StepNode::new(StepSpec::Transform {
            fields: FieldMap::from([("note".to_string(), "seen {{id}}".to_string())]),
        })
        .after(&[0]),
        StepNode::new(StepSpec::Query {
            query: "lookup".into(),
            prefix: "q".into(),
            fields: FieldMap::new(),
        })
        .after(&[1]),
        StepNode::new(StepSpec::Action {
            action: format!("noop_{slot}"),
            fields: FieldMap::new(),
        })
        .after(&[2]),
    ]
}

pub struct Rig {
    pub sim: Sim,
    pub engine: NodeId,
    pub svc: NodeId,
    /// The engine's counting sink.
    pub metrics: Arc<FleetMetrics>,
    pub users: Vec<UserId>,
    applets_per_user: usize,
    trigger_slugs: Vec<TriggerSlug>,
}

impl Rig {
    pub fn build(spec: &RigSpec) -> Rig {
        let mut sim = Sim::new(2017);
        sim.trace_mut().set_enabled(false);
        let metrics = Arc::new(FleetMetrics::default());
        let slug = ServiceSlug::new(SERVICE_SLUG);
        let mut engine_cfg = spec.engine.clone();
        if spec.realtime {
            engine_cfg = engine_cfg.allow_realtime(slug.clone());
        }
        let mut tap = TapEngine::new(engine_cfg);
        tap.set_sink(metrics.clone());
        let engine = sim.add_node("engine", tap);
        let mut service = RigService::new();
        service.core.fault_plan = spec.faults.clone();
        if spec.capture {
            service.captured = Some(Vec::new());
        }
        let svc = sim.add_node(SERVICE_SLUG, service);
        if spec.realtime {
            sim.with_node::<RigService, _>(svc, |s, _| s.core.enable_realtime(engine));
        }
        sim.link(engine, svc, LinkSpec::datacenter());
        sim.with_node::<TapEngine, _>(engine, |e, _| {
            e.register_service(slug.clone(), svc, ServiceKey(SERVICE_KEY.into()));
        });

        let users: Vec<UserId> = (0..spec.users)
            .map(|u| UserId::new(format!("user_{u}")))
            .collect();
        for (local, user) in users.iter().enumerate() {
            let token = sim.with_node::<RigService, _>(svc, |s, ctx| {
                s.core.endpoint.oauth.mint_token(user.clone(), ctx.rng())
            });
            sim.with_node::<TapEngine, _>(engine, |e, ctx| {
                e.set_token(user.clone(), slug.clone(), token);
                for k in 0..spec.applets_per_user {
                    let mut applet = applet(local, k, user);
                    if !spec.steps.is_empty() {
                        let mut steps = spec.steps.clone();
                        for node in &mut steps {
                            if let StepSpec::Action { action, .. } = &mut node.spec {
                                *action = format!("noop_{k}");
                            }
                        }
                        applet = applet.with_steps(steps);
                    }
                    e.install_applet(ctx, applet).expect("rig applet installs");
                }
            });
        }
        Rig {
            sim,
            engine,
            svc,
            metrics,
            users,
            applets_per_user: spec.applets_per_user,
            trigger_slugs: (0..SLOTS)
                .map(|k| TriggerSlug::new(format!("fired_{k}")))
                .collect(),
        }
    }

    /// Fire every installed applet's trigger once; returns how many
    /// subscriptions took the event.
    ///
    /// A fleet applet fires once, so its polls never carry more than one
    /// event. Polls do not consume the service's buffer; to keep that
    /// shape under repeated firing, the previous event is dropped first.
    pub fn emit_all(&mut self) -> usize {
        let service = ServiceSlug::new(SERVICE_SLUG);
        let no_fields = FieldMap::new();
        let mut matched = 0;
        for user in &self.users {
            for slug in &self.trigger_slugs[..self.applets_per_user] {
                let ti = TriggerIdentity::derive(user, &service, slug, &no_fields);
                matched += self.sim.with_node::<RigService, _>(self.svc, |s, ctx| {
                    s.core.buffer.clear(&ti);
                    let id = s.core.next_event_id();
                    let ev = TriggerEvent::new(id, ctx.now().as_secs_f64() as u64);
                    s.core.record_event(ctx, slug, user, ev, |_| true)
                });
            }
        }
        matched
    }

    /// Advance virtual time by `secs`, returning the host time it took.
    pub fn run_for(&mut self, secs: u64) -> Duration {
        let t0 = Instant::now();
        self.sim.run_for(SimDuration::from_secs(secs));
        t0.elapsed()
    }

    pub fn captured(&self) -> &[Request] {
        self.sim
            .node_ref::<RigService>(self.svc)
            .captured
            .as_deref()
            .unwrap_or(&[])
    }
}

/// The applet `fleet::cell` installs for user `local`'s slot `k`.
pub fn applet(local: usize, k: usize, user: &UserId) -> Applet {
    let slug = ServiceSlug::new(SERVICE_SLUG);
    Applet::new(
        AppletId((local * SLOTS + k + 1) as u32),
        format!("fleet {local} slot {k}"),
        user.clone(),
        TriggerRef {
            service: slug.clone(),
            trigger: TriggerSlug::new(format!("fired_{k}")),
            fields: FieldMap::new(),
        },
        ActionRef {
            service: slug,
            action: ActionSlug::new(format!("noop_{k}")),
            fields: FieldMap::new(),
        },
    )
}
