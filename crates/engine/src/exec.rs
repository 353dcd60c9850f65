//! One plan, one run loop: how the engine executes an applet.
//!
//! At install every [`Applet`] — spelled with the classic `action` /
//! `condition` / `queries` fields or with `steps` — is compiled into one
//! [`Plan`]: a topologically ordered node list in which every network
//! node carries its resolved service symbol, its endpoint path and, when
//! it has no fields to substitute, its serialized request body. A classic
//! applet lowers to `[query…] → [filter] → action`, omitting the nodes it
//! does not need, so the ordinary applet is the one-node plan and a
//! `steps`-spelled single action compiles to the very same plan.
//!
//! Each fresh trigger event becomes one [`Run`] in one arena. A run walks
//! its plan through [`TapEngine::advance`]; every request is built by
//! [`TapEngine::send_node`], every failed attempt resolved by
//! [`TapEngine::node_failure`], and every run ended by
//! [`TapEngine::finish_run`], which emits its single terminal event.
//!
//! Three observable differences between classic and multi-step applets
//! predate this module and are pinned by digests, so they survive as
//! rules keyed on [`Plan::classic`] (see DESIGN.md §11.3): a classic run
//! emits no `Dag*` telemetry, its sends bypass the circuit-breaker gate,
//! and its `DispatchEnqueued.depth` counts classic runs only.

use crate::applet::{substitute_fields, Applet};
use crate::conditions::Condition;
use crate::config::EnginePolicy;
use crate::engine::{retry_after_hint, Slot, TapEngine, TAG_RUN, TK_RUN};
use crate::lifecycle::InstallError;
use crate::loopdetect::{RuntimeLoopDetector, RuntimeVerdict};
use crate::obs::ObsEvent;
use crate::resilience::RetryPolicy;
use bytes::Bytes;
use simnet::prelude::*;
use std::borrow::Cow;
use tap_protocol::auth::{AUTHORIZATION_HEADER, SERVICE_KEY_HEADER};
use tap_protocol::endpoints::{action_path, query_path};
use tap_protocol::error::FailureClass;
use tap_protocol::wire::{
    self, ActionRequestBody, QueryRequestBody, QueryResponseBody, TriggerEvent,
};
use tap_protocol::{
    validate_steps, ActionSlug, FieldMap, Interner, QuerySlug, StepFailurePolicy, StepKind,
    StepPredicate, StepSpec, Symbol, UserId, MAX_STEPS,
};

/// Run tokens and timer keys pack `(run << NODE_BITS) | node index`; the
/// all-ones node index marks a run's start timer rather than a node.
/// Arena handles are 48 bits and a plan holds at most `MAX_STEPS + 2`
/// nodes, so both fit under the tag byte.
const NODE_BITS: u64 = 6;
const NODE_MASK: u64 = (1 << NODE_BITS) - 1;
const RUN_START: u64 = NODE_MASK;

/// The compiled form of one applet: what a run executes.
#[derive(Debug)]
pub(crate) struct Plan {
    nodes: Vec<PlanNode>,
    /// The plan came from classic fields, or is their one-action
    /// spelling in `steps`. The three pinned classic rules (module docs)
    /// key on this and nothing else does.
    classic: bool,
}

#[derive(Debug)]
struct PlanNode {
    op: Op,
    /// Predecessor indices, all lower than this node's own.
    deps: Vec<u16>,
    /// Transitive ancestor set as a bitmask over node indices.
    ancestors: u32,
    on_failure: StepFailurePolicy,
    /// Retry budget override (`None` inherits the engine's action- or
    /// poll-retry policy).
    max_retries: Option<u32>,
}

#[derive(Debug)]
enum Op {
    Filter(Predicate),
    Transform(FieldMap),
    Call(Call),
}

/// A filter node holds whichever predicate language its applet was
/// written in; the two are not merged (DESIGN.md §11.4).
#[derive(Debug)]
enum Predicate {
    Condition(Condition),
    Step(StepPredicate),
}

impl Predicate {
    fn eval(&self, input: &FieldMap) -> bool {
        match self {
            Predicate::Condition(c) => c.eval(input),
            Predicate::Step(p) => p.eval(input),
        }
    }
}

/// The request constants of one network node.
#[derive(Debug)]
struct Call {
    kind: CallKind,
    service: Symbol,
    path: Str,
    fields: FieldMap,
    /// The serialized body, cached when there are no fields to
    /// substitute (serializing per send would produce these exact bytes).
    body: Option<Bytes>,
}

#[derive(Debug)]
enum CallKind {
    /// Carries the prefix: result keys join the payload as
    /// `<prefix>.<key>`.
    Query(String),
    Action,
}

impl CallKind {
    fn body(&self, fields: FieldMap, user: &UserId) -> Bytes {
        let user = user.clone();
        match self {
            CallKind::Query(_) => wire::to_bytes(&QueryRequestBody {
                query_fields: fields,
                user,
            }),
            CallKind::Action => wire::to_bytes(&ActionRequestBody {
                action_fields: fields,
                user,
            }),
        }
    }
}

impl Op {
    /// A network node; the body is serialized here when `fields` is empty.
    fn call(kind: CallKind, service: Symbol, path: Str, fields: &FieldMap, user: &UserId) -> Op {
        let body = fields.is_empty().then(|| kind.body(FieldMap::new(), user));
        Op::Call(Call {
            kind,
            service,
            path,
            fields: fields.clone(),
            body,
        })
    }
}

impl PlanNode {
    fn call(&self) -> &Call {
        let Op::Call(call) = &self.op else {
            unreachable!("only network nodes are launched");
        };
        call
    }
}

impl Plan {
    /// Append a node; its deps are already in the plan (they point
    /// backwards), so its ancestor set is known on the spot.
    fn push(
        &mut self,
        op: Op,
        deps: Vec<u16>,
        on_failure: StepFailurePolicy,
        max_retries: Option<u32>,
    ) {
        let ancestors = deps.iter().fold(0, |mask, &d| {
            mask | (1 << d) | self.nodes[d as usize].ancestors
        });
        self.nodes.push(PlanNode {
            op,
            deps,
            ancestors,
            on_failure,
            max_retries,
        });
    }

    /// Compile an applet. Classic fields lower to `[query…] → [filter] →
    /// action`: queries have no deps, target their own service, never
    /// retry and resolve empty on failure; the filter (present unless the
    /// condition is `Always`) waits on every query; the action waits on
    /// the filter, or on the queries when there is none. `steps` map node
    /// for node, with query and action nodes on the applet's action
    /// service.
    pub(crate) fn compile(
        applet: &Applet,
        action_service: Symbol,
        syms: &mut Interner,
    ) -> Result<Plan, InstallError> {
        use StepFailurePolicy::{Continue, PolicyDefault};
        let invalid = |why: String| Err(InstallError::InvalidSteps(why));
        let user = &applet.owner;
        // Sized exactly: the fleet's classic applet is one node, and a
        // default-grown vector would reserve room for four.
        let classic = applet.steps.is_empty();
        let gated = applet.condition != Condition::Always;
        let size = if classic {
            applet.queries.len() + usize::from(gated) + 1
        } else {
            applet.steps.len()
        };
        let mut plan = Plan {
            nodes: Vec::with_capacity(size),
            classic,
        };
        if plan.classic {
            let queries = applet.queries.len();
            if queries > MAX_STEPS {
                return invalid(format!("{queries} queries exceed the cap of {MAX_STEPS}"));
            }
            for q in &applet.queries {
                let kind = CallKind::Query(q.prefix.clone());
                let service = syms.intern(q.service.as_str());
                let call = Op::call(kind, service, query_path(&q.query), &q.fields, user);
                plan.push(call, Vec::new(), Continue, Some(0));
            }
            let mut deps: Vec<u16> = (0..queries as u16).collect();
            if gated {
                let filter = Op::Filter(Predicate::Condition(applet.condition.clone()));
                plan.push(filter, deps, PolicyDefault, None);
                deps = vec![queries as u16];
            }
            let (path, fields) = (action_path(&applet.action.action), &applet.action.fields);
            let call = Op::call(CallKind::Action, action_service, path, fields, user);
            plan.push(call, deps, PolicyDefault, None);
            return Ok(plan);
        }
        if gated || !applet.queries.is_empty() {
            return invalid("steps replace the classic condition and queries".into());
        }
        if let Err(e) = validate_steps(&applet.steps) {
            return invalid(e.to_string());
        }
        for step in &applet.steps {
            let op = match &step.spec {
                StepSpec::Filter { predicate } => Op::Filter(Predicate::Step(predicate.clone())),
                StepSpec::Transform { fields } => Op::Transform(fields.clone()),
                StepSpec::Query {
                    query,
                    prefix,
                    fields,
                } => {
                    let kind = CallKind::Query(prefix.clone());
                    let path = query_path(&QuerySlug::new(query.clone()));
                    Op::call(kind, action_service, path, fields, user)
                }
                StepSpec::Action { action, fields } => {
                    let path = action_path(&ActionSlug::new(action.clone()));
                    Op::call(CallKind::Action, action_service, path, fields, user)
                }
            };
            plan.push(op, step.deps.clone(), step.on_failure, step.max_retries);
        }
        // `validate_steps` admits a one-node plan only when that node is an
        // action; with default policies it is exactly the plan classic
        // fields with no condition and no queries compile to — same plan,
        // same rules, however it was spelled.
        plan.classic = matches!(&applet.steps[..], [only]
            if only.on_failure == PolicyDefault && only.max_retries.is_none());
        Ok(plan)
    }
}

/// Execution state of one plan node within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum NodeStatus {
    /// Not started; waiting on predecessors (or a free launch slot).
    #[default]
    Pending,
    /// A network request (or retry timer) is outstanding.
    InFlight,
    /// Completed; `out` holds its contribution.
    Done,
    /// Will never contribute: a filter whose predicate was false, a node
    /// that failed under a halting policy, or anything downstream of
    /// either. Dependents are dropped in turn.
    Dropped,
}

#[derive(Debug, Default)]
pub(crate) struct RunNode {
    status: NodeStatus,
    /// Network attempts already sent (query/action nodes only).
    attempts: u32,
    /// Ingredients this node contributes to its dependents: a transform's
    /// substituted fields, or a query's prefixed result keys.
    out: FieldMap,
}

/// One activation walking its applet's plan. A run that starts ends with
/// exactly one terminal event (ok / dead letter / filtered), which is the
/// conservation invariant `events_new == actions_ok + actions_filtered +
/// dead_letters`.
#[derive(Debug)]
pub(crate) struct Run {
    pub(crate) slot: Slot,
    event: TriggerEvent,
    /// Parallel to the plan's nodes; the vector is recycled through
    /// `TapEngine::node_pool`.
    nodes: Vec<RunNode>,
    /// A halting node failure marked the whole run failed.
    failed: bool,
    any_action_ok: bool,
    /// An action node failed terminally under a `Continue` policy.
    any_action_failed: bool,
}

impl TapEngine {
    /// Open a run for one fresh trigger event, announce it
    /// (`DispatchEnqueued`) and arm its start timer `after` from now.
    pub(crate) fn enqueue_run(
        &mut self,
        ctx: &mut Context<'_>,
        slot: Slot,
        event: TriggerEvent,
        after: SimDuration,
    ) {
        let task = &self.tasks[slot as usize];
        let (applet, poll_sent_at, classic) =
            (task.applet.id, task.poll_sent_at, task.plan.classic);
        let mut nodes = self.node_pool.pop().unwrap_or_default();
        nodes.resize_with(task.plan.nodes.len(), RunNode::default);
        let run = self.runs.insert(Run {
            slot,
            event,
            nodes,
            failed: false,
            any_action_ok: false,
            any_action_failed: false,
        });
        let depth = if classic {
            self.classic_in_flight += 1;
            self.classic_in_flight
        } else {
            self.runs.len() as u64
        };
        self.obs(ObsEvent::DispatchEnqueued {
            applet,
            dispatch: run,
            depth,
            poll_sent_at,
            at: ctx.now(),
        });
        ctx.set_timer(after, TK_RUN | (run << NODE_BITS) | RUN_START);
    }

    /// Take a run out of the arena, recycling its node storage.
    fn release_run(&mut self, run_id: u64) -> Option<Run> {
        let mut run = self.runs.remove(run_id)?;
        if self.tasks[run.slot as usize].plan.classic {
            self.classic_in_flight -= 1;
        }
        let mut nodes = std::mem::take(&mut run.nodes);
        nodes.clear();
        self.node_pool.push(nodes);
        Some(run)
    }

    /// A run timer fired: the start timer, or a node's retry timer.
    pub(crate) fn on_run_timer(&mut self, ctx: &mut Context<'_>, packed: u64) {
        let run_id = packed >> NODE_BITS;
        match packed & NODE_MASK {
            RUN_START => self.start_run(ctx, run_id),
            idx => self.send_node(ctx, run_id, idx as usize),
        }
    }

    /// Run start: the `enabled` check and runtime loop detection (§6)
    /// apply here, once per run — retries do not count as executions. A
    /// disabled applet's run is dropped without a terminal event.
    fn start_run(&mut self, ctx: &mut Context<'_>, run_id: u64) {
        let Some(run) = self.runs.get(run_id) else {
            return;
        };
        let slot = run.slot as usize;
        let id = self.tasks[slot].applet.id;
        let mut go = self.tasks[slot].enabled;
        let suspected =
            |d: &mut RuntimeLoopDetector| d.record(id, ctx.now()) == RuntimeVerdict::LoopSuspected;
        if go && self.runtime_detector.as_mut().is_some_and(suspected) {
            self.obs(ObsEvent::LoopFlagged {
                applet: id,
                at: ctx.now(),
            });
            if self
                .config
                .runtime_loop
                .as_ref()
                .is_some_and(|c| c.auto_disable)
            {
                self.tasks[slot].enabled = false;
                ctx.trace("engine.applet_disabled", format_args!("{id:?} (loop)"));
                go = false;
            }
        }
        if !go {
            self.release_run(run_id);
            return;
        }
        if !self.tasks[slot].plan.classic {
            self.obs(ObsEvent::DagRunStarted {
                applet: id,
                dispatch: run_id,
                at: ctx.now(),
            });
        }
        self.advance(ctx, run_id);
    }

    /// Drive one run as far as it can go without waiting on the network,
    /// in one pass over the plan (deps point backwards, so a node's
    /// predecessors are settled by the time the pass reaches it): drop
    /// nodes with a dropped predecessor, execute ready filter/transform
    /// nodes synchronously, launch ready query/action nodes (one at a
    /// time under ZapierLike serial semantics), and finish the run once
    /// nothing is pending or in flight.
    fn advance(&mut self, ctx: &mut Context<'_>, run_id: u64) {
        let serial = self.config.policy == EnginePolicy::ZapierLike;
        for i in 0.. {
            // Re-fetched per node: a launch can fail on the spot, re-enter
            // `advance`, and finish the run under this pass.
            let Some(run) = self.runs.get_mut(run_id) else {
                return;
            };
            let task = &self.tasks[run.slot as usize];
            let Some(node) = task.plan.nodes.get(i) else {
                break;
            };
            if run.nodes[i].status != NodeStatus::Pending {
                continue;
            }
            let mut deps = node.deps.iter().map(|&d| run.nodes[d as usize].status);
            if deps.clone().any(|s| s == NodeStatus::Dropped) {
                run.nodes[i].status = NodeStatus::Dropped;
                continue;
            }
            if !deps.all(|s| s == NodeStatus::Done) {
                continue;
            }
            let (status, out, kind) = match &node.op {
                Op::Call(_) => {
                    let busy = |n: &RunNode| n.status == NodeStatus::InFlight;
                    if !(serial && run.nodes.iter().any(busy)) {
                        run.nodes[i].status = NodeStatus::InFlight;
                        self.send_node(ctx, run_id, i);
                    }
                    continue;
                }
                Op::Filter(predicate) => {
                    let pass = predicate.eval(&node_input(run, &task.plan, i));
                    let status = if pass {
                        NodeStatus::Done
                    } else {
                        NodeStatus::Dropped
                    };
                    (status, FieldMap::new(), StepKind::Filter)
                }
                Op::Transform(fields) => {
                    let out = substitute_fields(fields, &node_input(run, &task.plan, i));
                    (NodeStatus::Done, out, StepKind::Transform)
                }
            };
            run.nodes[i].status = status;
            run.nodes[i].out = out;
            if !task.plan.classic {
                self.obs(ObsEvent::DagNodeExecuted {
                    applet: task.applet.id,
                    dispatch: run_id,
                    node: i as u16,
                    kind,
                    at: ctx.now(),
                });
            }
        }
        let settled = |n: &RunNode| matches!(n.status, NodeStatus::Done | NodeStatus::Dropped);
        if self
            .runs
            .get(run_id)
            .is_some_and(|run| run.nodes.iter().all(settled))
        {
            self.finish_run(ctx, run_id, false);
        }
    }

    /// Send (or re-send, from a retry timer) the network request of one
    /// query/action node — the one place a run's requests are built. The
    /// node is `InFlight`. For multi-step plans a breaker shed is a
    /// retryable transport failure that consumes an attempt, so their
    /// nodes face the same breaker/retry stack polls do; classic plans
    /// bypass the gate. A node whose service registration or token is
    /// gone (the service was retired) fails terminally: no retry can cure
    /// that.
    fn send_node(&mut self, ctx: &mut Context<'_>, run_id: u64, idx: usize) {
        let Some(run) = self.runs.get_mut(run_id) else {
            return;
        };
        if run.nodes.get(idx).map(|n| n.status) != Some(NodeStatus::InFlight) {
            return;
        }
        if run.failed {
            // The run halted while this node waited on a retry timer:
            // resolve it without wasting the request.
            run.nodes[idx].status = NodeStatus::Dropped;
            self.advance(ctx, run_id);
            return;
        }
        run.nodes[idx].attempts += 1;
        let attempt = run.nodes[idx].attempts;
        let slot = run.slot as usize;
        let task = &self.tasks[slot];
        let (id, owner, gated) = (task.applet.id, task.owner, !task.plan.classic);
        let service = task.plan.nodes[idx].call().service;
        if gated && self.breaker_sheds(ctx.now(), service) {
            self.node_failure(ctx, run_id, idx, FailureClass::Transport, None);
            return;
        }
        let (Some(reg), Some(bearer)) = (
            self.services.get(&service),
            self.tokens.get(&(owner, service)),
        ) else {
            self.node_failure(ctx, run_id, idx, FailureClass::ClientError, None);
            return;
        };
        let run = self.runs.get(run_id).expect("run checked above");
        let plan = &self.tasks[slot].plan;
        let call = plan.nodes[idx].call();
        let body = call.body.clone().unwrap_or_else(|| {
            let fields = substitute_fields(&call.fields, &node_input(run, plan, idx));
            call.kind.body(fields, &self.tasks[slot].applet.owner)
        });
        let req = Request::post(call.path.clone())
            .with_header(SERVICE_KEY_HEADER, reg.key.clone())
            .with_header(AUTHORIZATION_HEADER, bearer.clone())
            .with_body(body);
        let sent = match call.kind {
            CallKind::Query(_) => ObsEvent::QuerySent {
                applet: id,
                dispatch: run_id,
                at: ctx.now(),
            },
            CallKind::Action => ObsEvent::ActionSent {
                applet: id,
                dispatch: run_id,
                attempt,
                at: ctx.now(),
            },
        };
        let node = reg.node;
        self.obs(sent);
        ctx.send_request(
            node,
            req,
            Token(TAG_RUN | (run_id << NODE_BITS) | idx as u64),
            RequestOpts {
                timeout: Some(self.config.request_timeout),
            },
        );
    }

    /// A network node's attempt failed (bad status, timeout, breaker
    /// shed, or a vanished registration) — the one place that decides
    /// what happens next. Either re-arm a retry on the backoff schedule —
    /// query nodes draw on the poll-retry budget, action nodes on the
    /// action-retry budget, with the node's `max_retries` overriding
    /// either — or resolve the node terminally under its effective
    /// failure policy.
    fn node_failure(
        &mut self,
        ctx: &mut Context<'_>,
        run_id: u64,
        idx: usize,
        class: FailureClass,
        retry_after: Option<SimDuration>,
    ) {
        let Some(run) = self.runs.get_mut(run_id) else {
            return;
        };
        let attempts = run.nodes[idx].attempts;
        let task = &self.tasks[run.slot as usize];
        let (id, classic) = (task.applet.id, task.plan.classic);
        let node = &task.plan.nodes[idx];
        let is_action = matches!(node.call().kind, CallKind::Action);
        let base = if is_action {
            &self.config.action_retry
        } else {
            &self.config.poll_retry
        };
        let budget = RetryPolicy {
            max_retries: node.max_retries.unwrap_or(base.max_retries),
            ..*base
        };
        let retry = budget.should_retry(attempts, class);
        if retry {
            let mut delay = base.backoff.delay(attempts.saturating_sub(1), ctx.rng());
            if let Some(ra) = retry_after {
                delay = delay.max(ra);
            }
            if !classic {
                self.obs(ObsEvent::DagNodeRetried {
                    applet: id,
                    dispatch: run_id,
                    node: idx as u16,
                    at: ctx.now(),
                });
            }
            if is_action {
                self.obs(ObsEvent::ActionRetried {
                    applet: id,
                    dispatch: run_id,
                    at: ctx.now(),
                });
            }
            ctx.set_timer(delay, TK_RUN | (run_id << NODE_BITS) | idx as u64);
            return; // the node stays InFlight while its retry timer runs
        }
        let halt = match node.on_failure {
            StepFailurePolicy::PolicyDefault => self.config.policy == EnginePolicy::ZapierLike,
            explicit => explicit == StepFailurePolicy::Halt,
        };
        if halt {
            run.failed = true;
            for n in &mut run.nodes {
                if n.status == NodeStatus::Pending {
                    n.status = NodeStatus::Dropped;
                }
            }
            run.nodes[idx].status = NodeStatus::Dropped;
        } else {
            // The node resolves empty and downstream nodes still run.
            run.nodes[idx].status = NodeStatus::Done;
            run.nodes[idx].out = FieldMap::new();
            run.any_action_failed |= is_action;
        }
        if !is_action {
            self.obs(ObsEvent::QueryFailed {
                dispatch: run_id,
                at: ctx.now(),
            });
        }
        self.advance(ctx, run_id);
    }

    /// End a run — the one place its terminal event is emitted: dead
    /// letter if it was torn down (its applet was uninstalled), failed,
    /// or had an action fail with no sibling succeeding; success if any
    /// action landed; filtered otherwise.
    pub(crate) fn finish_run(&mut self, ctx: &mut Context<'_>, run_id: u64, torn_down: bool) {
        let Some(run) = self.release_run(run_id) else {
            return;
        };
        let (applet, dispatch, at) = (self.tasks[run.slot as usize].applet.id, run_id, ctx.now());
        let dead = torn_down || run.failed || (run.any_action_failed && !run.any_action_ok);
        if dead {
            self.obs(ObsEvent::ActionFinished {
                applet,
                dispatch,
                ok: false,
                at,
            });
            self.obs(ObsEvent::ActionDeadLettered {
                applet,
                dispatch,
                at,
            });
        } else if run.any_action_ok {
            self.obs(ObsEvent::ActionFinished {
                applet,
                dispatch,
                ok: true,
                at,
            });
        } else {
            self.obs(ObsEvent::ActionFiltered {
                applet,
                dispatch,
                at,
            });
        }
    }

    /// A response for one network node came back.
    pub(crate) fn on_run_response(&mut self, ctx: &mut Context<'_>, packed: u64, resp: Response) {
        let (run_id, idx) = (packed >> NODE_BITS, (packed & NODE_MASK) as usize);
        let Some(run) = self.runs.get_mut(run_id) else {
            return;
        };
        if run.nodes.get(idx).map(|n| n.status) != Some(NodeStatus::InFlight) {
            return;
        }
        let task = &self.tasks[run.slot as usize];
        let (id, classic) = (task.applet.id, task.plan.classic);
        let call = task.plan.nodes[idx].call();
        let service = call.service;
        if !resp.is_success() {
            self.breaker_record(ctx, service, false);
            let class = FailureClass::of_status(resp.status).unwrap_or(FailureClass::Transport);
            self.node_failure(ctx, run_id, idx, class, retry_after_hint(&resp));
            return;
        }
        run.nodes[idx].status = NodeStatus::Done;
        let kind = match &call.kind {
            CallKind::Query(prefix) => {
                // An unparseable 200 resolves empty without a failure.
                if let Ok(body) = wire::from_bytes::<QueryResponseBody>(&resp.body) {
                    let prefixed = |(k, v)| (format!("{prefix}.{k}"), v);
                    run.nodes[idx].out = body.data.into_iter().map(prefixed).collect();
                }
                StepKind::Query
            }
            CallKind::Action => {
                run.any_action_ok = true;
                StepKind::Action
            }
        };
        self.breaker_record(ctx, service, true);
        if !classic {
            self.obs(ObsEvent::DagNodeExecuted {
                applet: id,
                dispatch: run_id,
                node: idx as u16,
                kind,
                at: ctx.now(),
            });
        }
        self.advance(ctx, run_id);
    }
}

/// The ingredient view a node executes against: the trigger event's
/// ingredients overlaid with the outputs of every *transitive* ancestor,
/// applied in node-index order (later ancestors win key collisions).
/// Borrows the event's ingredients directly when no ancestor contributed
/// anything — always, for the one-node plan.
fn node_input<'r>(run: &'r Run, plan: &Plan, node: usize) -> Cow<'r, FieldMap> {
    let mask = plan.nodes[node].ancestors;
    let contributes = |i: &usize| mask & (1 << i) != 0 && !run.nodes[*i].out.is_empty();
    if !(0..node).any(|i| contributes(&i)) {
        return Cow::Borrowed(&run.event.ingredients);
    }
    let mut input = run.event.ingredients.clone();
    for i in (0..node).filter(contributes) {
        for (k, v) in &run.nodes[i].out {
            input.insert(k.clone(), v.clone());
        }
    }
    Cow::Owned(input)
}
