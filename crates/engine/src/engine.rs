//! The TAP engine node (❼ in the paper's Figure 1).
//!
//! Reproduces the applet-execution behaviour the paper observes from
//! production IFTTT (§2.2, §4):
//!
//! * per-subscription **polling** of trigger services with an HTTPS POST
//!   carrying the service key, the user's access token, a random request
//!   id, and a `limit` (50 by default);
//! * **batched** trigger-event responses: every new event in a poll
//!   response is dispatched as one action execution, back-to-back — the
//!   mechanism behind the clustered actions of Figure 6;
//! * **realtime-API hints** that are accepted but ignored unless the
//!   sending service is on a per-service allowlist (the paper infers IFTTT
//!   "processes the real-time API hints for some services (such as
//!   Alexa)");
//! * **OAuth2 token caching** per (user, service) "to make future applet
//!   execution fully automated";
//! * **no loop detection by default** — the paper experimentally confirms
//!   IFTTT performs no syntax check; both the static check and a runtime
//!   detector can be switched on to evaluate the §6 recommendations.

use crate::applet::{Applet, AppletId};
use crate::config::EngineConfig;
use crate::exec::{Plan, Run, RunNode};
use crate::loopdetect::{RuntimeLoopDetector, StaticLoopDetector};
use crate::obs::{EngineStats, ObsEvent, ObsSink};
use crate::resilience::CircuitBreaker;
use mem::{Arena, FxHashMap, FxHashSet};
use rand::Rng;
use simnet::prelude::*;
use simnet::rng::Dist;
use tap_protocol::auth::{
    AccessToken, ServiceKey, AUTHORIZATION_HEADER, REQUEST_ID_HEADER, RETRY_AFTER_HEADER,
    SERVICE_KEY_HEADER,
};
use tap_protocol::endpoints::{
    BATCH_POLL_PATH, OAUTH_AUTHORIZE_PATH, OAUTH_TOKEN_PATH, REALTIME_NOTIFY_PATH,
};
use tap_protocol::error::FailureClass;
use tap_protocol::wire::{
    self, BatchPollEntry, BatchPollRequestBody, BatchPollResponseBody, ErrorBody, PollResponseBody,
    RealtimeAckBody, RealtimeNotification, TriggerEvent, DEFAULT_POLL_LIMIT,
};
use tap_protocol::{Interner, ServiceSlug, Symbol, TriggerIdentity, UserId};

// Correlation-token tags (top byte).
const TAG_SHIFT: u64 = 56;
const TAG_POLL: u64 = 1 << TAG_SHIFT;
/// A network node of a run (see `exec.rs` for the payload packing).
pub(crate) const TAG_RUN: u64 = 2 << TAG_SHIFT;
const TAG_OAUTH_AUTH: u64 = 3 << TAG_SHIFT;
const TAG_OAUTH_TOKEN: u64 = 4 << TAG_SHIFT;
const TAG_BATCH: u64 = 6 << TAG_SHIFT;
const TAG_MASK: u64 = 0xFF << TAG_SHIFT;

// Timer-key tags.
const TK_POLL: u64 = 1 << TAG_SHIFT;
/// A run's start timer or a node's retry timer.
pub(crate) const TK_RUN: u64 = 2 << TAG_SHIFT;

/// A partner service as the engine knows it.
#[derive(Debug, Clone)]
pub struct ServiceRegistration {
    pub slug: ServiceSlug,
    pub node: NodeId,
    /// The service key, as every request's `IFTTT-Service-Key` header
    /// carries it.
    pub key: Str,
}

/// Dense per-applet index: slots are assigned sequentially at install and
/// never reused — an uninstalled applet leaves a tombstone, not a hole —
/// so hot paths index straight into the engine's `tasks` vector instead of
/// hashing an [`AppletId`].
pub(crate) type Slot = u32;

/// One installed applet: the applet as it was installed and everything
/// the engine keeps about it while it polls and runs.
#[derive(Debug)]
pub(crate) struct PollTask {
    /// The applet itself; its `id` is what observability events and traces
    /// speak (applet ids, not slots).
    pub(crate) applet: Applet,
    /// Interned symbols for the hot (user, service) token lookups — the
    /// strings are hashed once at install, never per poll.
    pub(crate) owner: Symbol,
    pub(crate) trigger_service: Symbol,
    pub(crate) action_service: Symbol,
    /// Cached request constants: the trigger endpoint path and the fully
    /// serialized poll body (identity, fields, user, limit are all fixed
    /// per applet), so a poll clones a `Bytes` handle instead of
    /// re-serializing JSON.
    pub(crate) poll_path: Str,
    pub(crate) poll_body: bytes::Bytes,
    /// What a run of this applet executes, compiled at install.
    pub(crate) plan: Plan,
    /// Event ids already dispatched, as interned symbols. Only ever grows
    /// while the applet is installed — which is what [`PollTask::last_reply`]
    /// rests on.
    pub(crate) seen: FxHashSet<Symbol>,
    /// The last non-empty single-poll reply this subscription ingested:
    /// its exact bytes and how many events it carried. Polls do not consume
    /// the service's buffer, so until a new event arrives every reply is
    /// these bytes again; every id in them is in `seen`, so ingesting them
    /// again could only report `fresh: 0` — which takes the count, not a
    /// parse.
    pub(crate) last_reply: Option<(bytes::Bytes, u64)>,
    pub(crate) enabled: bool,
    pub(crate) next_poll: Option<TimerId>,
    /// Absolute time the pending poll timer fires (meaningful only while
    /// `next_poll` is `Some`); lets a sibling's batch decide whether this
    /// subscription's poll is close enough to coalesce.
    pub(crate) next_poll_at: SimTime,
    /// The coalescing group this subscription belongs to.
    pub(crate) group: GroupKey,
    /// Whether the coalescing group ever had a sibling. Most users install
    /// one applet per service, so most poll timers can skip the batch
    /// machinery (group scan, window jitter draw, member collection)
    /// entirely. Purely a fast-path hint: `send_batch_poll` still falls
    /// back to a single poll when no sibling is actually coalescible.
    pub(crate) grouped: bool,
    /// The subscription's trigger identity, interned: what its poll body
    /// names, what `by_identity` routes hints by, what a batch entry
    /// carries.
    pub(crate) identity: Symbol,
    /// Consecutive failed polls for this subscription (resets on success;
    /// bounds the poll-retry budget).
    pub(crate) retries: u32,
    /// When the in-flight poll (single or batched) left the engine. The
    /// engine keeps at most one poll in flight per subscription, so the
    /// value read at response time is the matching request's send time —
    /// attribution sinks use it to split cadence wait from poll RTT.
    pub(crate) poll_sent_at: SimTime,
    /// A realtime notification preempted this subscription's cadence
    /// timer: an immediate poll is armed or in flight, and further hints
    /// are absorbed until its response (or shed) clears the flag. The
    /// timer-XOR-in-flight invariant means the flag never faces two
    /// outstanding polls.
    pub(crate) rt_pending: bool,
    /// Where the preempted cadence entry would have fired, kept for a
    /// grouped member split out of its batch: the out-of-band poll's
    /// response restores this schedule so the group's phase lock survives
    /// the detour. `None` (solo subscriptions) draws a fresh cadence gap.
    pub(crate) rt_resume_at: Option<SimTime>,
    /// End of the debounce window armed when a realtime poll resolves;
    /// notifications arriving before this are absorbed.
    pub(crate) rt_debounce_until: SimTime,
    /// The applet was uninstalled: the slot is a tombstone. It stays
    /// allocated (in-flight tokens and timer keys carry slot numbers, so
    /// compaction would alias them) but is removed from every routing
    /// structure, and late poll responses for it are discarded.
    pub(crate) uninstalled: bool,
}

/// Coalescing-group key: (owner, trigger service, cadence class).
pub(crate) type GroupKey = (Symbol, Symbol, u8);

/// One coalescing group: the subscriptions of one (owner, trigger service,
/// cadence class) and everything the engine keeps about them as a group.
/// The memo and the degradation window are facts about these members, so
/// they live and die with the member list — a group that loses its last
/// member is removed whole.
#[derive(Debug, Default)]
pub(crate) struct Group {
    /// Live members in install order (the order batch entries are listed
    /// on the wire and demuxed back).
    pub(crate) members: Vec<Slot>,
    /// The last batch round's request and reply; dropped when a member is
    /// uninstalled, replaced when a different membership polls.
    pub(crate) memo: Option<BatchMemo>,
    /// After a failed batch request the group polls singleton until this
    /// instant (graceful degradation), then re-coalesces.
    degraded_until: SimTime,
}

/// What a group keeps between batch rounds. While the polling membership
/// is unchanged — after the first response phase-locks a group that is
/// every round — a batch poll clones `request` exactly like a single poll
/// clones its body; a miss re-serializes it from the members' applets.
#[derive(Debug)]
pub(crate) struct BatchMemo {
    /// The members the request was serialized for, in entry order.
    members: Vec<Slot>,
    /// The serialized batch request body.
    request: bytes::Bytes,
    /// The last non-empty reply these members ingested together, as
    /// [`PollTask::last_reply`]: exact bytes, events per entry (shared, so
    /// a replay holds the counts and not the memo).
    reply: Option<(bytes::Bytes, std::sync::Arc<[u64]>)>,
}

/// The engine node.
#[derive(Debug)]
pub struct TapEngine {
    /// Behaviour configuration.
    pub config: EngineConfig,
    /// Engine-local interner for service slugs, user ids, trigger
    /// identities, and event ids. Symbols never leave the engine: stats,
    /// traces, and wire bodies all use the resolved strings.
    pub(crate) syms: Interner,
    pub(crate) services: FxHashMap<Symbol, ServiceRegistration>,
    /// Service keys are interned at registration, so the per-notification
    /// authentication lookup hashes a `Symbol`, not the key string.
    pub(crate) service_by_key: FxHashMap<Symbol, ServiceSlug>,
    /// Per-(user, service) `Authorization` header values, precomputed
    /// at token install so poll/action/query sends clone a reference
    /// count instead of formatting a string.
    pub(crate) tokens: FxHashMap<(Symbol, Symbol), Str>,
    pending_oauth: FxHashMap<u64, (UserId, ServiceSlug)>,
    next_oauth: u64,
    /// [`AppletId`] → dense slot, consulted only on the public id-keyed
    /// API; internal paths carry slots.
    pub(crate) slot_of: FxHashMap<u32, Slot>,
    /// Every applet ever installed, indexed by slot (install order; never
    /// removed): the catalog entry and its polling state in one record.
    pub(crate) tasks: Vec<PollTask>,
    pub(crate) by_identity: FxHashMap<Symbol, Vec<Slot>>,
    /// Coalescing groups by [`PollTask::group`]; an entry exists exactly
    /// while the group has a live member.
    pub(crate) groups: FxHashMap<GroupKey, Group>,
    /// In-flight batch polls: the arena handle is the wire sequence
    /// number; the value is the member slots, in entry order.
    pending_batches: Arena<Vec<Slot>>,
    /// In-flight activations, classic and multi-step alike; the
    /// generation-checked arena handle is the dispatch id carried by
    /// tokens, timer keys and observation events.
    pub(crate) runs: Arena<Run>,
    /// How many of `runs` execute a classic plan: what a classic
    /// enqueue reports as `DispatchEnqueued.depth` (DESIGN.md §11.3).
    pub(crate) classic_in_flight: u64,
    /// Static loop detector (consulted only if configured).
    pub static_detector: StaticLoopDetector,
    pub(crate) runtime_detector: Option<RuntimeLoopDetector>,
    /// Aggregate counters.
    pub stats: EngineStats,
    /// Per-trigger-service circuit breakers (allocated lazily; only
    /// consulted when `config.breaker` is set).
    pub(crate) breakers: FxHashMap<Symbol, CircuitBreaker>,
    /// Optional instrumentation sink (see [`crate::obs`]).
    sink: Option<std::sync::Arc<dyn ObsSink>>,
    /// Recycled batch member lists: popped when a batch poll assembles its
    /// members, pushed back (cleared, capacity kept) when the batch
    /// resolves. Steady-state batch polling allocates no member vectors.
    member_pool: Vec<Vec<Slot>>,
    /// Recycled fresh-event scratch for `ingest_poll_events`.
    event_pool: Vec<Vec<TriggerEvent>>,
    /// Recycled per-run node storage: a finished run's vector (cleared,
    /// capacity kept) serves the next enqueue, so a steady-state
    /// activation allocates nothing for its run.
    pub(crate) node_pool: Vec<Vec<RunNode>>,
}

impl TapEngine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        let runtime_detector = config
            .runtime_loop
            .as_ref()
            .map(|c| RuntimeLoopDetector::new(c.max_executions, c.window));
        TapEngine {
            config,
            syms: Interner::new(),
            services: FxHashMap::default(),
            service_by_key: FxHashMap::default(),
            tokens: FxHashMap::default(),
            pending_oauth: FxHashMap::default(),
            next_oauth: 1,
            slot_of: FxHashMap::default(),
            tasks: Vec::new(),
            by_identity: FxHashMap::default(),
            groups: FxHashMap::default(),
            pending_batches: Arena::new(),
            runs: Arena::new(),
            classic_in_flight: 0,
            static_detector: StaticLoopDetector::new(),
            runtime_detector,
            stats: EngineStats::default(),
            breakers: FxHashMap::default(),
            sink: None,
            member_pool: Vec::new(),
            event_pool: Vec::new(),
            node_pool: Vec::new(),
        }
    }

    /// Swap the slab-backed in-flight stores for their `HashMap` reference
    /// implementation (identical handle sequences, associative storage).
    /// Differential tests use this to assert the slab migration is
    /// behaviour-preserving; must be called before any applet activity.
    #[doc(hidden)]
    pub fn use_reference_storage(&mut self) {
        assert!(
            self.runs.is_empty() && self.pending_batches.is_empty(),
            "reference storage must be selected before any in-flight state exists"
        );
        self.pending_batches = Arena::new_reference();
        self.runs = Arena::new_reference();
    }

    /// Attach an instrumentation sink. One sink may be shared by many
    /// engines (fleet shards do exactly that).
    pub fn set_sink(&mut self, sink: std::sync::Arc<dyn ObsSink>) {
        self.sink = Some(sink);
    }

    /// Emit one instrumentation event: apply its counter increments to
    /// [`TapEngine::stats`] and forward it to the sink, if any. Every
    /// stats mutation in the engine goes through here.
    pub(crate) fn obs(&mut self, ev: ObsEvent) {
        self.stats.apply(&ev);
        if let Some(sink) = &self.sink {
            sink.on_event(&ev);
        }
    }

    /// Register a partner service (what service publication does).
    /// [`LifecycleEvent::OnboardService`](crate::LifecycleEvent) does this
    /// and also covers the realtime allowlist.
    pub fn register_service(&mut self, slug: ServiceSlug, node: NodeId, key: ServiceKey) {
        let key_sym = self.syms.intern(&key.0);
        self.service_by_key.insert(key_sym, slug.clone());
        let sym = self.syms.intern(slug.as_str());
        let key = Str::from(key.0);
        self.services
            .insert(sym, ServiceRegistration { slug, node, key });
    }

    pub(crate) fn service_sym(&self, slug: &ServiceSlug) -> Option<Symbol> {
        // Services are interned at registration; an unknown string cannot
        // name a registered service.
        self.syms.get(slug.as_str())
    }

    /// Install a cached token directly (the state *after* an OAuth dance).
    pub fn set_token(&mut self, user: UserId, service: ServiceSlug, token: AccessToken) {
        let u = self.syms.intern(user.as_str());
        let s = self.syms.intern(service.as_str());
        self.tokens.insert((u, s), token.bearer());
    }

    /// Is the user connected to the service?
    pub fn is_connected(&self, user: &UserId, service: &ServiceSlug) -> bool {
        match (
            self.syms.get(user.as_str()),
            self.syms.get(service.as_str()),
        ) {
            (Some(u), Some(s)) => self.tokens.contains_key(&(u, s)),
            _ => false,
        }
    }

    /// Run the OAuth2 authorization-code flow against the service's hosted
    /// pages. Completion is observable via [`TapEngine::is_connected`].
    pub fn connect_service(&mut self, ctx: &mut Context<'_>, user: UserId, service: ServiceSlug) {
        let Some(reg) = self
            .service_sym(&service)
            .and_then(|s| self.services.get(&s))
        else {
            return;
        };
        let seq = self.next_oauth;
        self.next_oauth += 1;
        self.pending_oauth
            .insert(seq, (user.clone(), service.clone()));
        let body = wire::to_bytes(&wire::OAuthAuthorizeBody { user });
        let req = Request::post(OAUTH_AUTHORIZE_PATH).with_body(body);
        ctx.send_request(
            reg.node,
            req,
            Token(TAG_OAUTH_AUTH | seq),
            RequestOpts {
                timeout: Some(self.config.request_timeout),
            },
        );
    }

    /// Activations currently in flight (enqueued and not yet concluded).
    /// Zero once the engine is idle: every run that starts ends.
    pub fn runs_in_flight(&self) -> usize {
        self.runs.len()
    }

    /// The applet catalog.
    pub fn applet(&self, id: AppletId) -> Option<&Applet> {
        let slot = *self.slot_of.get(&id.0)?;
        Some(&self.tasks[slot as usize].applet)
    }

    /// Enable or disable an applet (disabled applets stop polling).
    pub fn set_enabled(&mut self, ctx: &mut Context<'_>, id: AppletId, enabled: bool) {
        let Some(&slot) = self.slot_of.get(&id.0) else {
            return;
        };
        let task = &mut self.tasks[slot as usize];
        task.enabled = enabled;
        if !enabled {
            // A disabled applet abandons any armed realtime poll; leaking
            // the flag would absorb every hint after a re-enable.
            task.rt_pending = false;
            task.rt_resume_at = None;
        }
        if enabled && task.next_poll.is_none() {
            self.schedule_poll(ctx, slot, SimDuration::from_secs(1));
        }
    }

    /// Is the applet currently enabled?
    pub fn is_enabled(&self, id: AppletId) -> bool {
        self.slot_of
            .get(&id.0)
            .is_some_and(|&s| self.tasks[s as usize].enabled)
    }

    pub(crate) fn schedule_poll(&mut self, ctx: &mut Context<'_>, slot: Slot, after: SimDuration) {
        let Some(task) = self.tasks.get_mut(slot as usize) else {
            return;
        };
        // A tombstoned slot never re-enters the timing wheel; without this
        // backstop a response racing the uninstall could revive the chain.
        if task.uninstalled {
            return;
        }
        if let Some(old) = task.next_poll.take() {
            ctx.cancel_timer(old);
        }
        task.next_poll_at = ctx.now() + after;
        task.next_poll = Some(ctx.set_timer(after, TK_POLL | slot as u64));
    }

    /// Consult the per-service breaker gate. `false` whenever breaking is
    /// not configured, without touching any state.
    pub(crate) fn breaker_sheds(&mut self, now: SimTime, service: Symbol) -> bool {
        let Some(policy) = &self.config.breaker else {
            return false;
        };
        !self.breakers.entry(service).or_default().allow(now, policy)
    }

    /// A poll the breaker refused: count it and keep the chain alive by
    /// rescheduling on the normal cadence. A shed *realtime* poll falls
    /// back the same way — a grouped member restores the schedule its
    /// hint preempted (keeping the batch group's phase lock), a solo one
    /// draws a fresh gap — and still arms the debounce window so a
    /// notifying service cannot hammer an open breaker.
    fn shed_poll(&mut self, ctx: &mut Context<'_>, slot: Slot) {
        let id = self.tasks[slot as usize].applet.id;
        self.obs(ObsEvent::PollShed {
            applet: id,
            at: ctx.now(),
        });
        self.schedule_next_poll(ctx, slot);
    }

    /// Keep the polling chain alive after a poll resolved (or was shed).
    /// An out-of-band realtime poll restores the schedule its notification
    /// preempted — a grouped member rejoins its batch group at the saved
    /// phase instant (immediately, if the detour overran it) — while
    /// everything else, including a solo realtime poll, draws a fresh
    /// cadence gap.
    fn schedule_next_poll(&mut self, ctx: &mut Context<'_>, slot: Slot) {
        let after = match self.clear_realtime(ctx.now(), slot) {
            Some(resume_at) if resume_at > ctx.now() => resume_at.since(ctx.now()),
            Some(_) => SimDuration::ZERO,
            None => self
                .config
                .polling
                .next_gap(&self.tasks[slot as usize].applet, ctx.rng()),
        };
        self.schedule_poll(ctx, slot, after);
    }

    /// Debounce window armed when a realtime-scheduled poll resolves:
    /// further notifications for the same subscription inside it are
    /// absorbed (counted as `realtime_suppressed`), so a burst of service
    /// events costs at most one out-of-cadence poll per window.
    const REALTIME_DEBOUNCE: SimDuration = SimDuration::from_secs(5);

    /// Resolve a subscription's armed realtime poll, if any: clear the
    /// outstanding flag, arm the debounce window, and hand back the
    /// preempted cadence instant a grouped member should rejoin at.
    /// Returns `None` when no realtime poll was outstanding *or* the
    /// subscription is solo (callers then draw a fresh cadence gap).
    fn clear_realtime(&mut self, now: SimTime, slot: Slot) -> Option<SimTime> {
        let task = self.tasks.get_mut(slot as usize)?;
        if !task.rt_pending {
            return None;
        }
        task.rt_pending = false;
        task.rt_debounce_until = now + Self::REALTIME_DEBOUNCE;
        task.rt_resume_at.take()
    }

    /// Feed one poll/action outcome for `service` into its breaker (no-op
    /// without a breaker policy). Counts trips.
    pub(crate) fn breaker_record(&mut self, ctx: &mut Context<'_>, service: Symbol, ok: bool) {
        let Some(policy) = &self.config.breaker else {
            return;
        };
        let breaker = self.breakers.entry(service).or_default();
        let tripped = if ok {
            breaker.record_success();
            false
        } else {
            breaker.record_failure(ctx.now(), policy)
        };
        if tripped {
            self.obs(ObsEvent::BreakerTripped {
                service,
                at: ctx.now(),
            });
        }
    }

    /// The gate every poll passes before it is built: the subscription is
    /// enabled, its trigger service is registered, its owner holds a token
    /// there, and the service's breaker lets traffic through (a refused
    /// poll is shed here). `true` = send.
    fn poll_gate(&mut self, ctx: &mut Context<'_>, slot: Slot) -> bool {
        let task = &self.tasks[slot as usize];
        let (owner, trigger_service) = (task.owner, task.trigger_service);
        if !task.enabled
            || !self.services.contains_key(&trigger_service)
            || !self.tokens.contains_key(&(owner, trigger_service))
        {
            return false;
        }
        if self.breaker_sheds(ctx.now(), trigger_service) {
            self.shed_poll(ctx, slot);
            return false;
        }
        true
    }

    fn send_poll(&mut self, ctx: &mut Context<'_>, slot: Slot) {
        if !self.poll_gate(ctx, slot) {
            return;
        }
        self.tasks[slot as usize].poll_sent_at = ctx.now();
        let task = &self.tasks[slot as usize];
        let (id, trigger_service, realtime) =
            (task.applet.id, task.trigger_service, task.rt_pending);
        let (node, req) =
            self.poll_request(ctx, slot, task.poll_path.clone(), task.poll_body.clone());
        self.obs(ObsEvent::PollSent {
            applet: id,
            service: trigger_service,
            at: ctx.now(),
        });
        if realtime {
            self.obs(ObsEvent::RealtimePollSent {
                applet: id,
                at: ctx.now(),
            });
        }
        ctx.send_request(
            node,
            req,
            Token(TAG_POLL | slot as u64),
            RequestOpts {
                timeout: Some(self.config.request_timeout),
            },
        );
    }

    /// A poll request on behalf of `slot`'s owner and where it goes: `path`
    /// and `body` under the trigger service's key, the owner's bearer and a
    /// fresh random request id (one RNG draw). [`TapEngine::poll_gate`] has
    /// established that the service and the token exist.
    fn poll_request(
        &self,
        ctx: &mut Context<'_>,
        slot: Slot,
        path: Str,
        body: bytes::Bytes,
    ) -> (NodeId, Request) {
        let task = &self.tasks[slot as usize];
        let reg = &self.services[&task.trigger_service];
        let bearer = &self.tokens[&(task.owner, task.trigger_service)];
        let req = Request::post(path)
            .with_header(SERVICE_KEY_HEADER, reg.key.clone())
            .with_header(AUTHORIZATION_HEADER, bearer.clone())
            .with_header(REQUEST_ID_HEADER, Str::hex16(ctx.rng().gen()))
            .with_body(body);
        (reg.node, req)
    }

    /// How far ahead (seconds) a sibling's scheduled poll may be and still
    /// ride the current batch request, jittered per batch. Wide enough to
    /// capture the initial-poll stagger (1–5 s); after the first batch the
    /// group is phase-locked anyway.
    const COALESCE_WINDOW: Dist = Dist::Uniform { lo: 4.0, hi: 6.0 };

    /// Poll-timer entry point when [`EngineConfig::batch_polling`] is on:
    /// coalesce every sibling subscription — same (owner, trigger service,
    /// cadence class) — whose next poll falls inside the jittered window
    /// into one multi-trigger request. Falls back to the plain single poll
    /// when no sibling is close enough.
    fn send_batch_poll(&mut self, ctx: &mut Context<'_>, slot: Slot) {
        // A refused batch sheds only the initiator; siblings keep their
        // own timers and take their own gate decision when those fire.
        if !self.poll_gate(ctx, slot) {
            return;
        }
        let task = &self.tasks[slot as usize];
        let (group, trigger_service) = (task.group, task.trigger_service);
        let window = SimDuration::from_secs_f64(Self::COALESCE_WINDOW.sample(ctx.rng()));
        let horizon = ctx.now() + window;
        // Members in install order: the initiator (whose timer just fired)
        // plus every sibling with a pending poll inside the window. The
        // list comes from (and returns to) the member pool, so the
        // steady-state batch path allocates nothing here.
        let mut members = self.member_pool.pop().unwrap_or_default();
        let g = self.groups.get_mut(&group).expect("a grouped task's group");
        for &m in &g.members {
            // A member with an armed realtime poll keeps its out-of-band
            // timer: sweeping it into the batch would cancel the immediate
            // poll its notification paid for.
            let t = &self.tasks[m as usize];
            if m == slot
                || (t.enabled
                    && !t.rt_pending
                    && t.next_poll.is_some()
                    && t.next_poll_at <= horizon)
            {
                members.push(m);
            }
        }
        if members.len() < 2 {
            members.clear();
            self.member_pool.push(members);
            self.send_poll(ctx, slot);
            return;
        }
        for &m in &members {
            let task = &mut self.tasks[m as usize];
            if let Some(old) = task.next_poll.take() {
                ctx.cancel_timer(old);
            }
            task.poll_sent_at = ctx.now();
        }
        let body = match &g.memo {
            Some(memo) if memo.members == members => memo.request.clone(),
            _ => {
                let entry = |&m: &Slot| {
                    let task = &self.tasks[m as usize];
                    BatchPollEntry {
                        trigger: task.applet.trigger.trigger.clone(),
                        trigger_identity: TriggerIdentity(self.syms.resolve(task.identity).into()),
                        trigger_fields: task.applet.trigger.fields.clone(),
                        limit: DEFAULT_POLL_LIMIT,
                    }
                };
                let request = wire::to_bytes(&BatchPollRequestBody {
                    user: self.tasks[slot as usize].applet.owner.clone(),
                    entries: members.iter().map(entry).collect(),
                });
                g.memo = Some(BatchMemo {
                    members: members.clone(),
                    request: request.clone(),
                    reply: None,
                });
                request
            }
        };
        let n = members.len() as u64;
        let seq = self.pending_batches.insert(members);
        let path = Str::from_static(BATCH_POLL_PATH);
        let (node, req) = self.poll_request(ctx, slot, path, body);
        self.obs(ObsEvent::BatchPollSent {
            service: trigger_service,
            members: n,
            at: ctx.now(),
        });
        ctx.send_request(
            node,
            req,
            Token(TAG_BATCH | seq),
            RequestOpts {
                timeout: Some(self.config.request_timeout),
            },
        );
    }

    fn on_batch_poll_response(&mut self, ctx: &mut Context<'_>, seq: u64, resp: Response) {
        let Some(mut members) = self.pending_batches.remove(seq) else {
            return;
        };
        self.handle_batch_response(ctx, &members, resp);
        members.clear();
        self.member_pool.push(members);
    }

    fn handle_batch_response(&mut self, ctx: &mut Context<'_>, members: &[Slot], resp: Response) {
        // Keep every member's polling chain alive with ONE shared gap draw.
        // Phase-locking the group is what keeps it coalescing round after
        // round, and because all members share a cadence class the draw has
        // exactly the per-subscription gap distribution the unbatched path
        // would give each of them — T2A quartiles are preserved.
        // (A batch leaves with at least two members, all of one group and so
        // of one trigger service: the first speaks for them.)
        let first = members[0] as usize;
        let (group, service) = (self.tasks[first].group, self.tasks[first].trigger_service);
        let gap = self
            .config
            .polling
            .next_gap(&self.tasks[first].applet, ctx.rng());
        for &m in members {
            // Members uninstalled while the batch was in flight stay off
            // the wheel (schedule_poll also backstops this).
            if !self.tasks[m as usize].uninstalled {
                self.schedule_poll(ctx, m, gap);
            }
        }
        let n = members.len() as u64;
        if !resp.is_success() {
            self.obs(ObsEvent::PollFailed {
                polls: n,
                at: ctx.now(),
            });
            self.breaker_record(ctx, service, false);
            // Graceful degradation: the whole batch failed as one request,
            // so demote the group to singleton polls for the next cycle.
            // Each member then succeeds/fails (and retries) on its own, and
            // the group re-coalesces once the window passes.
            self.obs(ObsEvent::BatchDegraded {
                service,
                at: ctx.now(),
            });
            if let Some(g) = self.groups.get_mut(&group) {
                g.degraded_until = ctx.now() + gap + SimDuration::from_secs(1);
            }
            return;
        }
        self.breaker_record(ctx, service, true);
        // Canonical all-empty reply, recognized by bytes like the single
        // poll's empty fast path.
        if *resp.body == *wire::EMPTY_BATCH_JSON {
            self.obs(ObsEvent::PollEmpty {
                polls: n,
                at: ctx.now(),
            });
            return;
        }
        // The bytes these members ingested last round: replay the counts.
        let seen = self.batch_memo(group, members);
        let seen = seen.and_then(|memo| memo.reply.as_ref());
        if let Some((_, received)) = seen.filter(|(body, _)| *body == resp.body) {
            let received = received.clone();
            for (&m, &n) in members.iter().zip(&*received) {
                self.replay_entry(ctx, m, n);
            }
            return;
        }
        let Ok(parsed) = wire::from_bytes::<BatchPollResponseBody>(&resp.body) else {
            // A 200 with an unparseable body: the service is up (no breaker
            // signal) and the events stay buffered server-side, so the next
            // cycle re-fetches them — no retry needed for delivery.
            self.obs(ObsEvent::PollFailed {
                polls: n,
                at: ctx.now(),
            });
            return;
        };
        // Results come back in entry order; demux by position. Entries are
        // ingested in member order and each entry's dispatch timers are set
        // immediately, so per-subscription FIFO is preserved. An entry for
        // a member uninstalled mid-flight is discarded, not ingested.
        for (&m, result) in members.iter().zip(&parsed.data) {
            if self.tasks[m as usize].uninstalled {
                self.obs(ObsEvent::PollDiscarded {
                    received: result.data.len() as u64,
                    at: ctx.now(),
                });
            } else {
                self.ingest_poll_events(ctx, m, &result.data);
            }
        }
        // An uninstall evicts the memo, so one that is still these members'
        // says every entry above was ingested.
        if let Some(memo) = self.batch_memo(group, members) {
            let received = parsed.data.iter().map(|r| r.data.len() as u64);
            memo.reply = Some((resp.body, received.collect()));
        }
    }

    /// What `group` keeps from its last batch round, if that round was
    /// polled by exactly `members`.
    fn batch_memo(&mut self, group: GroupKey, members: &[Slot]) -> Option<&mut BatchMemo> {
        let memo = self.groups.get_mut(&group)?.memo.as_mut()?;
        (memo.members == members).then_some(memo)
    }

    /// Ingest one entry of a reply whose exact bytes this subscription (or
    /// its batch group, every member live) ingested before: every event id
    /// in it is in `seen`, so this is what [`TapEngine::ingest_poll_events`]
    /// would make of the parsed entry.
    fn replay_entry(&mut self, ctx: &mut Context<'_>, slot: Slot, received: u64) {
        let task = &self.tasks[slot as usize];
        debug_assert!(!task.uninstalled, "an uninstall drops what it ingested");
        self.obs(if received == 0 {
            ObsEvent::PollEmpty {
                polls: 1,
                at: ctx.now(),
            }
        } else {
            ObsEvent::PollDelivered {
                applet: task.applet.id,
                received,
                fresh: 0,
                sent_at: task.poll_sent_at,
                at: ctx.now(),
            }
        });
    }

    fn on_poll_response(&mut self, ctx: &mut Context<'_>, slot: Slot, resp: Response) {
        // A response racing the uninstall: drop the payload (counted, not
        // ingested) and never reschedule — the subscription is gone.
        if self.tasks[slot as usize].uninstalled {
            let body = resp.is_success().then_some(&resp.body);
            let parsed = body.and_then(|b| wire::from_bytes::<PollResponseBody>(b).ok());
            let received = parsed.map_or(0, |parsed| parsed.data.len() as u64);
            self.obs(ObsEvent::PollDiscarded {
                received,
                at: ctx.now(),
            });
            return;
        }
        // Always keep the polling chain alive.
        self.schedule_next_poll(ctx, slot);

        if !resp.is_success() {
            self.obs(ObsEvent::PollFailed {
                polls: 1,
                at: ctx.now(),
            });
            let task = &self.tasks[slot as usize];
            let id = task.applet.id;
            let service = task.trigger_service;
            let retries_made = task.retries;
            self.breaker_record(ctx, service, false);
            let class = FailureClass::of_status(resp.status).unwrap_or(FailureClass::Transport);
            if class.is_retryable()
                && self.config.poll_retry.enabled()
                && retries_made < self.config.poll_retry.max_retries
            {
                // Pull the next poll forward onto the backoff schedule
                // instead of waiting a whole cadence gap. schedule_poll
                // cancels the cadence timer set above, so the chain still
                // carries exactly one pending poll.
                self.tasks[slot as usize].retries += 1;
                self.obs(ObsEvent::PollRetried {
                    applet: id,
                    at: ctx.now(),
                });
                let mut delay = self
                    .config
                    .poll_retry
                    .backoff
                    .delay(retries_made, ctx.rng());
                if let Some(ra) = retry_after_hint(&resp) {
                    delay = delay.max(ra);
                }
                self.schedule_poll(ctx, slot, delay);
            }
            return;
        }
        if self.config.poll_retry.enabled() {
            self.tasks[slot as usize].retries = 0;
        }
        let service = self.tasks[slot as usize].trigger_service;
        self.breaker_record(ctx, service, true);
        // Recognize the canonical empty reply by bytes: no parse needed,
        // and nothing below observes anything an empty body would change.
        if *resp.body == *wire::EMPTY_POLL_JSON {
            self.obs(ObsEvent::PollEmpty {
                polls: 1,
                at: ctx.now(),
            });
            return;
        }
        // The bytes this subscription ingested last time: replay the count.
        let seen = self.tasks[slot as usize].last_reply.as_ref();
        if let Some(&(_, received)) = seen.filter(|(body, _)| *body == resp.body) {
            self.replay_entry(ctx, slot, received);
            return;
        }
        let Ok(parsed) = wire::from_bytes::<PollResponseBody>(&resp.body) else {
            // 200 with garbage: counted, not retried — the events stay in
            // the service buffer and the next cycle re-fetches them.
            self.obs(ObsEvent::PollFailed {
                polls: 1,
                at: ctx.now(),
            });
            return;
        };
        self.ingest_poll_events(ctx, slot, &parsed.data);
        self.tasks[slot as usize].last_reply = Some((resp.body, parsed.data.len() as u64));
    }

    /// Gap between successive actions of one batch (s).
    const INTER_ACTION_GAP: Dist = Dist::Uniform { lo: 0.05, hi: 0.3 };

    /// Shared tail of the single and batched poll paths: dedupe one
    /// subscription's event list against its seen-set and enqueue a
    /// dispatch per fresh event, oldest first.
    fn ingest_poll_events(&mut self, ctx: &mut Context<'_>, slot: Slot, data: &[TriggerEvent]) {
        let received = data.len() as u64;
        if data.is_empty() {
            self.obs(ObsEvent::PollEmpty {
                polls: 1,
                at: ctx.now(),
            });
            return;
        }
        let (id, sent_at) = {
            let t = &self.tasks[slot as usize];
            (t.applet.id, t.poll_sent_at)
        };
        // Newest-first on the wire; dispatch oldest-first. Seen event ids
        // are tracked as interned symbols: a repeat (the common case, since
        // polls do not consume the service's buffer) costs one string hash
        // and a u32 set probe. Only genuinely fresh events are cloned out
        // of the (possibly memoized) parsed body, and the scratch vector
        // comes from the engine's pool, so steady-state ingestion — all
        // repeats — allocates nothing here.
        let mut fresh = self.event_pool.pop().unwrap_or_default();
        {
            let task = &self.tasks[slot as usize];
            let syms = &self.syms;
            fresh.extend(
                data.iter()
                    .filter(|e| !syms.get(&e.meta.id).is_some_and(|s| task.seen.contains(&s)))
                    .cloned(),
            );
        }
        fresh.reverse();
        {
            let task = &mut self.tasks[slot as usize];
            let syms = &mut self.syms;
            for e in &fresh {
                task.seen.insert(syms.intern(&e.meta.id));
            }
        }
        self.obs(ObsEvent::PollDelivered {
            applet: id,
            received,
            fresh: fresh.len() as u64,
            sent_at,
            at: ctx.now(),
        });
        if !fresh.is_empty() {
            // Batch dispatch: one run per event, back-to-back. The
            // overhead is drawn only when there is something to dispatch.
            let mut at =
                SimDuration::from_secs_f64(self.config.dispatch_overhead.sample(ctx.rng()));
            for event in fresh.drain(..) {
                self.enqueue_run(ctx, slot, event, at);
                at += SimDuration::from_secs_f64(Self::INTER_ACTION_GAP.sample(ctx.rng()));
            }
        }
        self.event_pool.push(fresh);
    }

    fn on_realtime_notification(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        self.obs(ObsEvent::HintReceived { at: ctx.now() });
        let Some(slug) = req
            .header(SERVICE_KEY_HEADER)
            .and_then(|k| self.syms.get(k))
            .and_then(|sym| self.service_by_key.get(&sym))
            .cloned()
        else {
            return HandlerResult::Reply(Response::unauthorized());
        };
        // The versioned first-class message is tried first; a legacy
        // bare-identity hint (no `version`/`service`) still parses. A
        // body that is neither — or a v1 body speaking an unknown version
        // or claiming a service other than the authenticated one — is a
        // counted 400, never a silent swallow.
        let items = match parse_realtime_items(&req.body, &slug) {
            Some(items) => items,
            None => {
                self.obs(ObsEvent::HintMalformed { at: ctx.now() });
                return HandlerResult::Reply(Response::bad_request().with_body(wire::to_bytes(
                    &ErrorBody::message("malformed realtime notification"),
                )));
            }
        };
        if !self.config.realtime_allowlist.contains(&slug) {
            // Accepted, acknowledged … and ignored. §4: "the IFTTT engine
            // has full control over trigger event queries and very likely
            // ignores real-time API's hints."
            self.obs(ObsEvent::HintIgnored { at: ctx.now() });
            return HandlerResult::Reply(Response::ok());
        }
        self.obs(ObsEvent::HintHonored { at: ctx.now() });
        let mut accepted = 0u64;
        let mut suppressed = 0u64;
        for ti in items {
            let slots = self
                .syms
                .get(ti.as_str())
                .and_then(|s| self.by_identity.get(&s))
                .cloned();
            let Some(slots) = slots else {
                continue;
            };
            for slot in slots {
                if self.realtime_poll(ctx, slot) {
                    accepted += 1;
                } else {
                    suppressed += 1;
                }
            }
        }
        HandlerResult::Reply(Response::ok().with_body(wire::to_bytes(&RealtimeAckBody {
            accepted,
            suppressed,
        })))
    }

    /// Delay between an honored hint and the prompt poll it schedules (s).
    const HINT_PROCESSING: Dist = Dist::Uniform { lo: 0.5, hi: 1.5 };

    /// Arm the immediate out-of-cadence poll an honored notification asks
    /// for: preempt the subscription's pending wheel entry (a grouped
    /// member remembers the preempted instant so its batch group's phase
    /// lock survives) and fire after the short hint-processing delay.
    /// Returns `false` when the hint is absorbed instead: an immediate
    /// poll already outstanding, an open debounce window, or no pending
    /// timer (a poll is in flight — the data is about to be fetched
    /// anyway). Either way the subscription keeps exactly one scheduled
    /// or in-flight poll, so a notified member never double-polls.
    fn realtime_poll(&mut self, ctx: &mut Context<'_>, slot: Slot) -> bool {
        let now = ctx.now();
        let task = &self.tasks[slot as usize];
        let id = task.applet.id;
        let absorbed = !task.enabled || task.rt_pending || now < task.rt_debounce_until;
        if absorbed || task.next_poll.is_none() {
            self.obs(ObsEvent::RealtimeSuppressed {
                applet: id,
                at: now,
            });
            return false;
        }
        let resume = (task.grouped && self.config.batch_polling).then_some(task.next_poll_at);
        let delay = SimDuration::from_secs_f64(Self::HINT_PROCESSING.sample(ctx.rng()));
        let task = &mut self.tasks[slot as usize];
        task.rt_pending = true;
        task.rt_resume_at = resume;
        ctx.trace("engine.hint_poll", format_args!("{id:?} in {delay}"));
        self.schedule_poll(ctx, slot, delay);
        true
    }
}

/// The trigger identities a realtime notification body hints at, from
/// either wire generation: the versioned [`RealtimeNotificationV1`]
/// (validated against the authenticated `from` service and the spoken
/// version) or the legacy bare-identity [`RealtimeNotification`]. `None`
/// when the body is neither.
fn parse_realtime_items(body: &[u8], from: &ServiceSlug) -> Option<Vec<TriggerIdentity>> {
    if let Ok(v1) = wire::from_bytes::<wire::RealtimeNotificationV1>(body) {
        if v1.version != wire::REALTIME_NOTIFICATION_VERSION || v1.service != *from {
            return None;
        }
        return Some(v1.data.into_iter().map(|c| c.trigger_identity).collect());
    }
    wire::from_bytes::<RealtimeNotification>(body)
        .ok()
        .map(|n| n.data.into_iter().map(|i| i.trigger_identity).collect())
}

/// The `Retry-After` delay a 5xx response advertises, if any. The engine's
/// backoff never retries *sooner* than the service asked.
pub(crate) fn retry_after_hint(resp: &Response) -> Option<SimDuration> {
    let secs: f64 = resp.header(RETRY_AFTER_HEADER)?.parse().ok()?;
    (secs >= 0.0).then(|| SimDuration::from_secs_f64(secs))
}

impl Node for TapEngine {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        if req.path == REALTIME_NOTIFY_PATH && req.method == Method::Post {
            return self.on_realtime_notification(ctx, req);
        }
        HandlerResult::Reply(Response::not_found())
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, key: TimerKey) {
        match key & TAG_MASK {
            TK_POLL => {
                let slot = (key & !TAG_MASK) as Slot;
                let Some(task) = self.tasks.get_mut(slot as usize) else {
                    return;
                };
                task.next_poll = None;
                // A realtime-armed poll goes out alone even for a grouped
                // member: initiating a batch here would drag the whole
                // group off its phase for one subscription's hint. So does
                // every poll of a group inside its degradation window.
                let group = task.group;
                let coalesce = self.config.batch_polling && task.grouped && !task.rt_pending;
                let degraded = |g: &Group| ctx.now() < g.degraded_until;
                if coalesce && !self.groups.get(&group).is_some_and(degraded) {
                    self.send_batch_poll(ctx, slot);
                } else {
                    self.send_poll(ctx, slot);
                }
            }
            TK_RUN => self.on_run_timer(ctx, key & !TAG_MASK),
            _ => {}
        }
    }

    fn on_response(&mut self, ctx: &mut Context<'_>, token: Token, resp: Response) {
        match token.0 & TAG_MASK {
            TAG_POLL => {
                let slot = (token.0 & !TAG_MASK) as Slot;
                self.on_poll_response(ctx, slot, resp);
            }
            TAG_RUN => self.on_run_response(ctx, token.0 & !TAG_MASK, resp),
            TAG_BATCH => {
                let seq = token.0 & !TAG_MASK;
                self.on_batch_poll_response(ctx, seq, resp);
            }
            TAG_OAUTH_AUTH => {
                let seq = token.0 & !TAG_MASK;
                let Some((_, service)) = self.pending_oauth.get(&seq).cloned() else {
                    return;
                };
                if !resp.is_success() {
                    self.pending_oauth.remove(&seq);
                    return;
                }
                let Ok(code) = wire::from_bytes::<wire::OAuthCodeBody>(&resp.body) else {
                    self.pending_oauth.remove(&seq);
                    return;
                };
                let Some(reg) = self
                    .service_sym(&service)
                    .and_then(|s| self.services.get(&s))
                else {
                    return;
                };
                let node = reg.node;
                let req = Request::post(OAUTH_TOKEN_PATH).with_body(wire::to_bytes(&code));
                let timeout = self.config.request_timeout;
                ctx.send_request(
                    node,
                    req,
                    Token(TAG_OAUTH_TOKEN | seq),
                    RequestOpts {
                        timeout: Some(timeout),
                    },
                );
            }
            TAG_OAUTH_TOKEN => {
                let seq = token.0 & !TAG_MASK;
                let Some((user, service)) = self.pending_oauth.remove(&seq) else {
                    return;
                };
                if !resp.is_success() {
                    return;
                }
                if let Ok(granted) = wire::from_bytes::<wire::OAuthTokenBody>(&resp.body) {
                    ctx.trace("engine.connected", format_args!("{user:?} {service}"));
                    self.set_token(user, service, granted.access_token);
                }
            }
            _ => {}
        }
    }
}
