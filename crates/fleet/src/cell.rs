//! One cell of the fleet: a self-contained engine + service simulation.
//!
//! [`run_cell`] builds a fresh [`Sim`] seeded from `(master_seed,
//! cell_id)`, installs the cell's users (profiles come from the pure
//! [`PopulationSampler`]), fires one trigger activation per installed
//! applet inside a randomized window, and lets the engine poll, dispatch,
//! and execute. Trigger-to-action latency is measured at the service: the
//! emit time of each event is queued per `(user, slot)` and matched FIFO
//! against the action that eventually arrives for that slot.
//!
//! Everything observable is recorded into a shared [`FleetMetrics`], whose
//! instruments merge exactly — so it does not matter which shard (or how
//! many shards) ran the cell.

use crate::attribution::{AttributionRecorder, CellSink};
use crate::metrics::FleetMetrics;
use crate::runner::{ChaosProfile, FleetConfig};
use crate::shard::CellSpec;
use devices::service_core::{Processed, ServiceCore};
use ecosystem::population::MAX_INSTALLS_PER_USER;
use ecosystem::{InstalledApplet, PopulationSampler};
use engine::{ActionRef, Applet, AppletId, LifecycleAck, LifecycleEvent, TapEngine, TriggerRef};
use mem::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::chaos::{FaultPlan, ServerFault, ServerFaultPlan};
use simnet::net::LinkId;
use simnet::prelude::*;
use simnet::rng::derive_seed;
use std::collections::VecDeque;
use std::sync::Arc;
use tap_protocol::auth::ServiceKey;
use tap_protocol::service::ServiceEndpoint;
use tap_protocol::wire::{self, ActionResponseBody, TriggerEvent};
use tap_protocol::{
    ActionSlug, FieldMap, Interner, ServiceSlug, StepNode, StepSpec, Symbol, TriggerSlug, UserId,
};

/// Seed-stream offset for cell simulations: cell `i` runs under
/// `derive_seed(master, CELL_STREAM_BASE + i)`.
///
/// The ISSUE's per-shard streams `derive_seed(master, shard_id)` are
/// deliberately *not* used for anything behavioural: seeding by shard
/// would make results depend on the cell→shard assignment and break the
/// merged-report invariance that `fleet` promises. Cells are the unit
/// that owns randomness; shards are only executors.
pub const CELL_STREAM_BASE: u64 = 0xce11_0000;

/// Sub-stream of a cell seed that drives the activation schedule.
const ACTIVATION_STREAM: u64 = 1;

/// Sub-stream of a cell seed that decides realtime capability. Like the
/// activation stream it hangs off the *cell* seed, never the shard, so a
/// given cell draws the same capability at any shard count.
const REALTIME_STREAM: u64 = 2;

/// Sub-stream of a cell seed that drives the ecosystem-churn plan —
/// mid-run installs, uninstalls, the late-service onboarding, and the
/// terminal retirement. A dedicated stream keeps churn independent of the
/// activation schedule (a churn-off run draws nothing from it) and, like
/// the other sub-streams, hangs off the cell seed so the plan is
/// shard-count-invariant and identical in-process vs distributed.
const CHURN_STREAM: u64 = 3;

/// The service that onboards mid-run in a churn cell (and later dies).
const LIVE_SLUG: &str = "fleet_svc_live";
const LIVE_KEY: &str = "sk_fleet_live";

/// Engine-side applet ids for churn installs live far above the static
/// range (`local * MAX_INSTALLS_PER_USER + k + 1`), so the two id spaces
/// can never collide at any cell size.
const CHURN_APPLET_BASE: u32 = 0x4000_0000;

/// §3.2-calibrated weekly churn rates, as a fraction of installed applets
/// (the UT-Austin usage dataset's install/uninstall dynamics): applied per
/// activation window, scaled by [`crate::runner::ChurnProfile::multiplier`].
const WEEKLY_INSTALL_RATE: f64 = 0.037;
const WEEKLY_UNINSTALL_RATE: f64 = 0.025;

/// The synthetic partner service every cell user connects to. It exposes
/// one trigger/action pair per install slot (`fired_k` / `noop_k`,
/// `k < MAX_INSTALLS_PER_USER`) so concurrent installs of one user stay
/// distinguishable in T2A bookkeeping.
pub(crate) struct FleetService {
    core: ServiceCore,
    /// FIFO of `(emit time, applet)` per `(user, slot)` awaiting their
    /// action. Users are interned so the key is two machine words, not a
    /// `String` clone per activation.
    pending: FxHashMap<(Symbol, usize), VecDeque<(SimTime, u32)>>,
    /// Cell-local user symbol table backing `pending` keys.
    users: Interner,
    /// `fired_k` slugs, pre-built once per cell instead of per emit.
    trigger_slugs: Vec<TriggerSlug>,
    /// The constant `action_ok("ok")` reply body, serialized once.
    action_ok_body: Bytes,
    metrics: Arc<FleetMetrics>,
    /// Stage recorder fed at arrival time, when attribution is on.
    attribution: Option<Arc<AttributionRecorder>>,
}

impl FleetService {
    fn new(
        slug: &str,
        key: &str,
        metrics: Arc<FleetMetrics>,
        attribution: Option<Arc<AttributionRecorder>>,
    ) -> Self {
        let mut ep = ServiceEndpoint::new(ServiceSlug::new(slug), ServiceKey(key.into()));
        // Build each `fired_k` slug once and share it between the endpoint
        // registration and the per-emit lookup table.
        let trigger_slugs: Vec<TriggerSlug> = (0..MAX_INSTALLS_PER_USER)
            .map(|k| TriggerSlug::new(format!("fired_{k}")))
            .collect();
        for (k, slug) in trigger_slugs.iter().enumerate() {
            ep = ep
                .with_trigger(slug.as_str())
                .with_action(format!("noop_{k}").as_str());
        }
        // Multi-step DAG endpoints: the lookup query and the unpaired
        // fan-out action (registering them is digest-neutral — they only
        // matter once a DAG actually calls them).
        ep = ep.with_query("lookup").with_action("noop_aux");
        FleetService {
            core: ServiceCore::new(ep),
            pending: FxHashMap::default(),
            users: Interner::new(),
            trigger_slugs,
            action_ok_body: wire::to_bytes(&ActionResponseBody::single("ok")),
            metrics,
            attribution,
        }
    }

    /// Fire the trigger of `user`'s slot `k` and remember when, for T2A.
    /// `applet` is the engine-side id of the subscription this slot maps
    /// to, carried along so the attribution recorder can pair the arrival
    /// with the engine's dispatch span.
    fn emit(&mut self, ctx: &mut Context<'_>, user: &UserId, slot: usize, applet: u32) {
        let id = self.core.next_event_id();
        let ev = TriggerEvent::new(id, ctx.now().as_secs_f64() as u64);
        let matched = self
            .core
            .record_event(ctx, &self.trigger_slugs[slot], user, ev, |_| true);
        self.metrics.activations.incr();
        if matched > 0 {
            let user = self.users.intern(user.as_str());
            self.pending
                .entry((user, slot))
                .or_default()
                .push_back((ctx.now(), applet));
        } else {
            // The engine's initial poll has not established the
            // subscription yet; the event is unobservable, like a trigger
            // firing before IFTTT finishes applet setup.
            self.metrics.lost.incr();
        }
    }

    /// Emit times still waiting for an action (lost once the cell ends).
    fn unmatched(&self) -> u64 {
        self.pending.values().map(|q| q.len() as u64).sum()
    }
}

const SERVICE_SLUG: &str = "fleet_svc";
const SERVICE_KEY: &str = "sk_fleet";

impl Node for FleetService {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        match self.core.process(ctx, req) {
            Processed::Done(resp) => HandlerResult::Reply(resp),
            Processed::Action { user, action, .. } => {
                let slot = action
                    .as_str()
                    .strip_prefix("noop_")
                    .and_then(|s| s.parse().ok());
                // A user with no pending emit was never interned; skip.
                if let (Some(slot), Some(user)) = (slot, self.users.get(user.as_str())) {
                    if let Some(q) = self.pending.get_mut(&(user, slot)) {
                        if let Some((t_emit, applet)) = q.pop_front() {
                            self.metrics
                                .t2a_micros
                                .record(ctx.now().since(t_emit).as_micros());
                            if let Some(rec) = &self.attribution {
                                rec.on_arrival(applet, t_emit, ctx.now());
                            }
                        }
                    }
                }
                // Byte-identical to `ServiceEndpoint::action_ok("ok")`,
                // without re-serializing the constant reply per action.
                HandlerResult::Reply(Response::ok().with_body(self.action_ok_body.clone()))
            }
            Processed::Query { fields, .. } => {
                HandlerResult::Reply(ServiceEndpoint::query_ok(fields))
            }
            Processed::NoReply => HandlerResult::Deferred,
        }
    }
}

/// Run one cell to completion, recording everything into `metrics`.
///
/// Deterministic in `(cfg.master_seed, spec.cell)` plus the sampler's own
/// seed — the executing thread and shard leave no trace in the outcome.
pub fn run_cell(
    spec: &CellSpec,
    sampler: &PopulationSampler,
    cfg: &FleetConfig,
    metrics: &Arc<FleetMetrics>,
) {
    let cell_seed = derive_seed(cfg.master_seed, CELL_STREAM_BASE + spec.cell);
    let mut sim = Sim::new(cell_seed);
    // Nothing reads a fleet cell's trace; disabling it turns every trace
    // call into a branch instead of a `format!` (no RNG or event-order
    // effect, so digests are unchanged).
    sim.trace_mut().set_enabled(false);
    // Attribution is opt-in per run: the default sink is the counting-only
    // FleetMetrics (digest-neutral); with attribution on, the engine's
    // events additionally feed a per-cell span recorder. The recorder is
    // per-cell because engine applet ids are cell-local.
    let recorder = cfg
        .attribution
        .then(|| Arc::new(AttributionRecorder::new(metrics.clone())));
    // Adoption draw: with `--realtime-share s`, this cell's partner
    // service is realtime-capable with probability `s`. Guarded so the
    // default share of 0.0 touches nothing (not even an RNG construction
    // matters — the stream is private — but the allowlist stays empty and
    // the digests stay byte-identical).
    let realtime = cfg.realtime_share > 0.0
        && StdRng::seed_from_u64(derive_seed(cell_seed, REALTIME_STREAM)).gen::<f64>()
            < cfg.realtime_share;
    let engine = sim.add_node("engine", {
        let mut engine_cfg = cfg.engine_config();
        if realtime {
            engine_cfg = engine_cfg.allow_realtime(ServiceSlug::new(SERVICE_SLUG));
        }
        let mut e = TapEngine::new(engine_cfg);
        if cfg.reference_storage {
            e.use_reference_storage();
        }
        match &recorder {
            Some(rec) => e.set_sink(Arc::new(CellSink::new(metrics.clone(), rec.clone()))),
            None => e.set_sink(metrics.clone()),
        }
        e
    });
    let svc = sim.add_node(
        SERVICE_SLUG,
        FleetService::new(SERVICE_SLUG, SERVICE_KEY, metrics.clone(), recorder.clone()),
    );
    if realtime {
        sim.with_node::<FleetService, _>(svc, |s, _| s.core.enable_realtime(engine));
    }
    let link = sim.link(engine, svc, LinkSpec::datacenter());
    if cfg.chaos.enabled() {
        apply_chaos(&mut sim, cfg, link, svc);
    }

    // Install every user's applets: one applet per install slot, trigger
    // `fired_k` → action `noop_k`, all on the cell's service.
    let profiles: Vec<_> = (spec.first_user..spec.first_user + spec.users)
        .map(|u| sampler.user(u))
        .collect();
    sim.with_node::<TapEngine, _>(engine, |e, _ctx| {
        e.register_service(
            ServiceSlug::new(SERVICE_SLUG),
            svc,
            ServiceKey(SERVICE_KEY.into()),
        );
    });
    // Each `user_n` id is formatted exactly once; installs, the emit loop,
    // and the token mint all share the same `UserId`.
    let user_ids: Vec<UserId> = profiles.iter().map(|p| user_id(p.user)).collect();
    let mut cell = Cell {
        sim,
        cfg,
        spec,
        sampler,
        metrics,
        cell_seed,
        engine,
        svc,
        live: None,
        user_ids,
        installs_total: 0,
    };
    for (local, profile) in profiles.iter().enumerate() {
        let installs = profile.installs.iter().enumerate();
        let applets = installs.map(|(k, install)| (static_applet_id(local, k), k, *install));
        cell.join(svc, profile.user, applets);
    }

    // Let initial polls establish subscriptions, then fire one activation
    // per installed applet at a random offset inside the window. The plan
    // comes from a dedicated RNG stream so it is independent of how the
    // simulation itself consumes randomness.
    //
    // One timeline drives every cell. A static cell's holds its activations
    // and nothing else; the live world interleaves the cell's churn plan
    // (drawn from its own seed stream) with them. Activations are pushed in
    // `(user, slot)` order, which is how same-instant ones fire.
    let mut act_rng = StdRng::seed_from_u64(derive_seed(cell_seed, ACTIVATION_STREAM));
    let mut timeline = Timeline(Vec::with_capacity(cell.installs_total as usize));
    for (local, profile) in profiles.iter().enumerate() {
        for slot in 0..profile.installs.len() {
            let at_secs = cfg.settle_secs + act_rng.gen_range(0.0..cfg.window_secs);
            let op = ChurnOp::Activate {
                node: svc,
                user: profile.user,
                slot,
                // Carried for attribution pairing.
                applet: static_applet_id(local, slot),
            };
            timeline.push(at_secs, 2, op);
        }
    }
    if cfg.churn.enabled() {
        cell.plan_churn(&mut timeline);
    }
    cell.run(timeline);

    // Drain: long enough for the poll policy to visit every subscription
    // once more and the dispatches to finish; stragglers count as lost.
    let sim = &mut cell.sim;
    let horizon = cfg.settle_secs + cfg.window_secs + cfg.drain_secs;
    sim.run_until(sim_time(horizon));

    // Events emitted to a churn cell's late service but undelivered when it
    // retired (or when the cell ended) are lost like any other.
    for node in [Some(svc), cell.live].into_iter().flatten() {
        let service = sim.node_ref::<FleetService>(node);
        metrics.lost.add(service.unmatched());
        metrics.faults_injected.add(service.core.faults_injected);
    }
    metrics.sim_events.add(sim.events_processed());
    metrics.engine_events.add(sim.node_events(engine));
    metrics.users.add(spec.users);
    metrics.applets.add(cell.installs_total);
    metrics.cells.incr();
}

/// The `user_n` id of user index `user`.
fn user_id(user: u64) -> UserId {
    UserId::new(format!("user_{user}"))
}

/// Engine-side id of static user `local`'s applet in install slot `k`.
fn static_applet_id(local: usize, k: usize) -> u32 {
    (local * MAX_INSTALLS_PER_USER + k + 1) as u32
}

/// One entry of a cell's timeline. Ordered by `(time, priority, seq)`:
/// onboarding opens before installs, installs before activations,
/// uninstalls and the retirement close after them — so a same-instant tie
/// (already vanishingly rare with f64 offsets) still resolves identically
/// on every shard layout.
enum ChurnOp {
    /// Fire `user`'s slot on the service at `node`.
    Activate {
        node: NodeId,
        user: u64,
        slot: usize,
        applet: u32,
    },
    /// A new user joins mid-run and installs one applet on the service at
    /// `node`.
    Install {
        node: NodeId,
        donor: u64,
        applet: u32,
        install: InstalledApplet,
    },
    /// A static applet is uninstalled through the lifecycle API.
    Uninstall { applet: u32 },
    /// The late service onboards (opens installs on [`LIVE_SLUG`]).
    Onboard,
    /// The late service dies permanently (terminal, not a chaos blip).
    Retire,
}

/// A cell's timeline under construction; `seq` is the push order.
struct Timeline(Vec<(SimTime, u8, u32, ChurnOp)>);

impl Timeline {
    fn push(&mut self, at_secs: f64, prio: u8, op: ChurnOp) {
        self.0
            .push((sim_time(at_secs), prio, self.0.len() as u32, op));
    }
}

/// The instant `secs` into a cell's run, at the clock's microsecond grain.
fn sim_time(secs: f64) -> SimTime {
    SimTime::from_micros(SimDuration::from_secs_f64(secs).as_micros())
}

/// One cell's world while its timeline runs: the simulation, its nodes, and
/// the inputs every step reads.
struct Cell<'a> {
    sim: Sim,
    cfg: &'a FleetConfig,
    spec: &'a CellSpec,
    sampler: &'a PopulationSampler,
    metrics: &'a Arc<FleetMetrics>,
    cell_seed: u64,
    engine: NodeId,
    svc: NodeId,
    /// The late service of a churn cell; a static cell has none.
    live: Option<NodeId>,
    /// `user_n` ids, formatted once each, indexed by `user -
    /// spec.first_user`: the cell's own users, then the churn donors (the
    /// contiguous indices past the cell's range, appended as planned).
    user_ids: Vec<UserId>,
    installs_total: u64,
}

impl Cell<'_> {
    /// Connect `user` to the service at `node` (the cell's own, or the late
    /// one) and install their applets, given as
    /// `(engine id, install slot, catalog entry)` — the one way an
    /// applet enters a cell. Slot `k` is trigger `fired_k` → action `noop_k`;
    /// a multi-step catalog entry brings its DAG, re-slugged onto the cell's
    /// endpoints.
    fn join(
        &mut self,
        node: NodeId,
        user: u64,
        applets: impl Iterator<Item = (u32, usize, InstalledApplet)>,
    ) {
        let on_live = Some(node) == self.live;
        let slug = ServiceSlug::new(if on_live { LIVE_SLUG } else { SERVICE_SLUG });
        let user = &self.user_ids[(user - self.spec.first_user) as usize];
        let token = self.sim.with_node::<FleetService, _>(node, |s, ctx| {
            s.core.endpoint.oauth.mint_token(user.clone(), ctx.rng())
        });
        let (sampler, installs_total) = (self.sampler, &mut self.installs_total);
        self.sim.with_node::<TapEngine, _>(self.engine, |e, ctx| {
            e.set_token(user.clone(), slug.clone(), token);
            for (id, slot, install) in applets {
                // Nothing a fleet run reads names an applet.
                let mut applet = Applet::new(
                    AppletId(id),
                    "",
                    user.clone(),
                    TriggerRef {
                        service: slug.clone(),
                        trigger: TriggerSlug::new(format!("fired_{slot}")),
                        fields: FieldMap::new(),
                    },
                    ActionRef {
                        service: slug.clone(),
                        action: ActionSlug::new(format!("noop_{slot}")),
                        fields: FieldMap::new(),
                    },
                );
                applet.add_count = install.add_count;
                let steps = instantiate_steps(sampler.steps_of(install.applet), slot);
                if !steps.is_empty() {
                    applet = applet.with_steps(steps);
                }
                e.apply_lifecycle(ctx, LifecycleEvent::InstallApplet(applet))
                    .expect("fleet applet installs");
                *installs_total += 1;
            }
        });
    }

    /// Add a churn cell's lifecycle events to `timeline`, sampled from
    /// [`CHURN_STREAM`] at the §3.2 weekly rates times the profile's
    /// multiplier: mid-run joiners, uninstalls, and a late service that
    /// onboards at a quarter of the window and retires at three quarters.
    /// All RNG draws happen here, in planning order, never at execution.
    fn plan_churn(&mut self, timeline: &mut Timeline) {
        let (cfg, spec) = (self.cfg, self.spec);
        // The late service exists from t=0 as a sim node (nodes are inert until
        // addressed) but the *engine* only learns of it at the onboard event.
        let live = self.sim.add_node(
            LIVE_SLUG,
            FleetService::new(LIVE_SLUG, LIVE_KEY, self.metrics.clone(), None),
        );
        self.sim.link(self.engine, live, LinkSpec::datacenter());
        self.live = Some(live);

        let mut churn_rng = StdRng::seed_from_u64(derive_seed(self.cell_seed, CHURN_STREAM));
        let mult = cfg.churn.multiplier();
        let static_installs = self.installs_total;
        let n_install =
            ((static_installs as f64 * WEEKLY_INSTALL_RATE * mult).round() as usize).max(1);
        let n_uninstall = ((static_installs as f64 * WEEKLY_UNINSTALL_RATE * mult).round()
            as usize)
            .clamp(1, static_installs as usize);
        let onboard_secs = cfg.settle_secs + 0.25 * cfg.window_secs;
        let retire_secs = cfg.settle_secs + 0.75 * cfg.window_secs;
        timeline.push(onboard_secs, 0, ChurnOp::Onboard);
        timeline.push(retire_secs, 4, ChurnOp::Retire);

        // Joiners: fresh users (indices past the cell's own range — profiles
        // are pure functions of the index, so any index is a valid donor)
        // installing one applet each, some on the late service while it lives.
        for j in 0..n_install as u32 {
            let install_secs = cfg.settle_secs + churn_rng.gen_range(0.0..cfg.window_secs);
            let on_live = install_secs > onboard_secs
                && install_secs < retire_secs
                && churn_rng.gen::<f64>() < 0.25;
            let node = if on_live { live } else { self.svc };
            let act_secs = (install_secs
                + cfg.settle_secs
                + churn_rng.gen_range(0.0..(0.25 * cfg.window_secs).max(1.0)))
            .min(cfg.settle_secs + cfg.window_secs);
            let donor = spec.first_user + spec.users + j as u64;
            let install = self.sampler.user(donor).installs[0];
            let applet = CHURN_APPLET_BASE + j;
            self.user_ids.push(user_id(donor));
            let op = ChurnOp::Install {
                node,
                donor,
                applet,
                install,
            };
            timeline.push(install_secs, 1, op);
            let op = ChurnOp::Activate {
                node,
                user: donor,
                slot: 0,
                applet,
            };
            timeline.push(act_secs, 2, op);
        }

        // Uninstall victims: a partial Fisher-Yates over the static slots
        // picks `n_uninstall` distinct applets, each at its own drawn time.
        let mut victims: Vec<u32> = Vec::with_capacity(static_installs as usize);
        for (local, user) in (spec.first_user..spec.first_user + spec.users).enumerate() {
            for k in 0..self.sampler.user(user).installs.len() {
                victims.push(static_applet_id(local, k));
            }
        }
        for j in 0..n_uninstall {
            let pick = churn_rng.gen_range(j..victims.len());
            victims.swap(j, pick);
            let applet = victims[j];
            let uninstall_secs = cfg.settle_secs + churn_rng.gen_range(0.0..cfg.window_secs);
            timeline.push(uninstall_secs, 3, ChurnOp::Uninstall { applet });
        }
    }

    /// Execute `timeline` in `(time, priority, seq)` order.
    ///
    /// Orphan accounting: an activation whose applet was uninstalled (or
    /// whose service retired) before the fire time is *dropped*, not emitted —
    /// it counts as `churn_orphans`, never as an activation or a loss.
    /// Activations already emitted when their applet dies keep flowing through
    /// the normal bookkeeping: delivered ones record T2A, undelivered ones
    /// count as `lost` at the horizon.
    fn run(&mut self, mut timeline: Timeline) {
        timeline
            .0
            .sort_unstable_by_key(|&(at, prio, seq, _)| (at, prio, seq));
        // `doomed` mirrors the engine's view of which applets are gone, so
        // planned activations for dead applets become orphans.
        let mut doomed: mem::FxHashSet<u32> = mem::FxHashSet::default();
        let mut live_applets: Vec<u32> = Vec::new();
        let metrics = self.metrics;
        let live_slug = || ServiceSlug::new(LIVE_SLUG);
        for (at, _prio, _seq, op) in timeline.0 {
            self.sim.run_until(at);
            match op {
                ChurnOp::Activate { applet, .. } if doomed.contains(&applet) => {
                    metrics.churn_orphans.incr();
                }
                ChurnOp::Activate {
                    node,
                    user,
                    slot,
                    applet,
                } => {
                    let user = &self.user_ids[(user - self.spec.first_user) as usize];
                    self.sim.with_node::<FleetService, _>(node, |s, ctx| {
                        s.emit(ctx, user, slot, applet)
                    });
                }
                ChurnOp::Install {
                    node,
                    donor,
                    applet,
                    install,
                } => {
                    self.join(node, donor, [(applet, 0, install)].into_iter());
                    if Some(node) == self.live {
                        live_applets.push(applet);
                    }
                    metrics.churn_installs.incr();
                }
                ChurnOp::Uninstall { applet } => {
                    self.engine_lifecycle(LifecycleEvent::UninstallApplet(AppletId(applet)));
                    doomed.insert(applet);
                    metrics.churn_uninstalls.incr();
                }
                ChurnOp::Onboard => {
                    self.engine_lifecycle(LifecycleEvent::OnboardService {
                        slug: live_slug(),
                        node: self.live.expect("only a churn plan onboards"),
                        key: ServiceKey(LIVE_KEY.into()),
                        realtime: false,
                    });
                    metrics.churn_onboards.incr();
                }
                ChurnOp::Retire => {
                    let ack = self.engine_lifecycle(LifecycleEvent::RetireService(live_slug()));
                    if let LifecycleAck::Retired {
                        applets_removed, ..
                    } = ack
                    {
                        debug_assert_eq!(applets_removed as usize, live_applets.len());
                    }
                    doomed.extend(live_applets.drain(..));
                    metrics.churn_retirements.incr();
                }
            }
        }
    }

    fn engine_lifecycle(&mut self, ev: LifecycleEvent) -> LifecycleAck {
        self.sim.with_node::<TapEngine, _>(self.engine, |e, ctx| {
            e.apply_lifecycle(ctx, ev)
                .expect("planned churn event applies")
        })
    }
}

/// Re-slug a catalog DAG for the cell's service: the first action node
/// lands on the T2A-paired `noop_{slot}` endpoint, further fan-out actions
/// on the unpaired `noop_aux`, and query nodes on the cell's `lookup`
/// endpoint. An empty catalog entry (a classic applet) stays empty.
fn instantiate_steps(catalog: &[StepNode], slot: usize) -> Vec<StepNode> {
    let mut steps = catalog.to_vec();
    let mut first_action = true;
    for node in &mut steps {
        match &mut node.spec {
            StepSpec::Action { action, .. } => {
                *action = if first_action {
                    format!("noop_{slot}")
                } else {
                    "noop_aux".to_string()
                };
                first_action = false;
            }
            StepSpec::Query { query, .. } => *query = "lookup".to_string(),
            StepSpec::Filter { .. } | StepSpec::Transform { .. } => {}
        }
    }
    steps
}

/// Degrade the cell per `cfg.chaos`: elevated loss on the engine↔service
/// link for the whole run, plus a scheduled outage pattern on the partner
/// service. Everything derives from the cell's virtual clock — no RNG, no
/// wall time — so the same `(seed, profile)` always produces the same run.
fn apply_chaos(sim: &mut Sim, cfg: &FleetConfig, link: LinkId, svc: NodeId) {
    let horizon = sim_time(cfg.settle_secs + cfg.window_secs + cfg.drain_secs);
    sim.apply_fault_plan(&FaultPlan::new().link_loss(
        link,
        cfg.chaos.link_loss(),
        SimTime::ZERO,
        horizon,
    ));
    let after_settle = |secs: f64| sim_time(cfg.settle_secs + secs);
    let outages = match cfg.chaos {
        ChaosProfile::Off => return,
        ChaosProfile::Mild => ServerFaultPlan::new().periodic(
            ServerFault::Http503 {
                retry_after_secs: 5,
            },
            after_settle(20.0),
            SimDuration::from_secs(120),
            SimDuration::from_secs(10),
            horizon,
        ),
        ChaosProfile::Harsh => ServerFaultPlan::new()
            .periodic(
                ServerFault::Http503 {
                    retry_after_secs: 5,
                },
                after_settle(20.0),
                SimDuration::from_secs(180),
                SimDuration::from_secs(20),
                horizon,
            )
            .periodic(
                ServerFault::Timeout,
                after_settle(110.0),
                SimDuration::from_secs(180),
                SimDuration::from_secs(10),
                horizon,
            )
            .periodic(
                ServerFault::MalformedBody,
                after_settle(65.0),
                SimDuration::from_secs(180),
                SimDuration::from_secs(5),
                horizon,
            ),
    };
    sim.with_node::<FleetService, _>(svc, move |s, _| s.core.fault_plan = Some(outages));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{FleetConfig, FleetPolicy};
    use ecosystem::{Ecosystem, GeneratorConfig};

    fn small_cfg(policy: FleetPolicy) -> FleetConfig {
        let mut cfg = FleetConfig::new(50, 1, policy);
        cfg.master_seed = 42;
        cfg.settle_secs = 10.0;
        cfg.window_secs = 30.0;
        cfg.drain_secs = 30.0;
        cfg
    }

    fn sampler() -> PopulationSampler {
        let eco = Ecosystem::generate(GeneratorConfig::test_scale(7));
        PopulationSampler::from_ecosystem(eco, 7)
    }

    #[test]
    fn fast_policy_cell_delivers_every_activation() {
        let cfg = small_cfg(FleetPolicy::Fast);
        let sampler = sampler();
        let metrics = Arc::new(FleetMetrics::default());
        let spec = CellSpec {
            cell: 0,
            first_user: 0,
            users: 20,
        };
        run_cell(&spec, &sampler, &cfg, &metrics);
        assert_eq!(metrics.users.get(), 20);
        assert_eq!(metrics.cells.get(), 1);
        assert!(
            metrics.applets.get() >= 20,
            "every user installs at least one applet"
        );
        assert_eq!(metrics.activations.get(), metrics.applets.get());
        assert_eq!(metrics.lost.get(), 0, "1 s polling drains fully");
        assert_eq!(metrics.t2a_micros.count(), metrics.activations.get());
        // 1-second polling: T2A is seconds, not minutes.
        assert!(metrics.t2a_micros.quantile(0.5) < 10_000_000);
        assert!(metrics.polls_sent.get() > 0);
        assert!(metrics.sim_events.get() > 0);
        assert!(metrics.engine_events.get() > 0);
    }

    #[test]
    fn cell_outcome_is_independent_of_the_calling_context() {
        let cfg = small_cfg(FleetPolicy::Fast);
        let sampler = sampler();
        let spec = CellSpec {
            cell: 3,
            first_user: 150,
            users: 10,
        };
        let a = Arc::new(FleetMetrics::default());
        run_cell(&spec, &sampler, &cfg, &a);
        // Second run into a dirty accumulator: the *delta* must be equal,
        // which merge-exactness lets us verify via a fresh accumulator.
        let b = Arc::new(FleetMetrics::default());
        run_cell(&spec, &sampler, &cfg, &b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn batching_on_and_off_deliver_the_same_activations() {
        let sampler = sampler();
        let spec = CellSpec {
            cell: 2,
            first_user: 100,
            users: 20,
        };
        let run = |batch_polling: bool| {
            let mut cfg = small_cfg(FleetPolicy::Fast);
            cfg.batch_polling = batch_polling;
            let metrics = Arc::new(FleetMetrics::default());
            run_cell(&spec, &sampler, &cfg, &metrics);
            metrics
        };
        let on = run(true);
        let off = run(false);
        // Same users, same activation plan (its RNG stream is independent
        // of engine randomness), same delivery outcome.
        assert_eq!(on.activations.get(), off.activations.get());
        assert_eq!(on.t2a_micros.count(), off.t2a_micros.count());
        assert_eq!(on.events_new.get(), off.events_new.get());
        assert_eq!(on.lost.get(), off.lost.get());
        // Only the batched run coalesces, and it saves real round trips.
        assert_eq!(off.polls_batched.get(), 0);
        assert!(on.polls_batched.get() > 0);
        assert!(on.polls_sent.get() - on.polls_coalesced.get() < off.polls_sent.get());
    }

    #[test]
    fn ifttt_policy_cell_shows_minute_scale_latency() {
        let mut cfg = small_cfg(FleetPolicy::IftttLike);
        cfg.drain_secs = 1200.0; // cover a full production poll gap + backlog
        let sampler = sampler();
        let metrics = Arc::new(FleetMetrics::default());
        let spec = CellSpec {
            cell: 1,
            first_user: 50,
            users: 15,
        };
        run_cell(&spec, &sampler, &cfg, &metrics);
        assert!(metrics.t2a_micros.count() > 0);
        // Median T2A under production-like polling is minutes-ish (>30 s).
        assert!(
            metrics.t2a_micros.quantile(0.5) > 30_000_000,
            "p50 {} us",
            metrics.t2a_micros.quantile(0.5)
        );
    }
}
