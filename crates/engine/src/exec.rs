//! The multi-step DAG executor.

use crate::applet::substitute_fields;
use crate::config::EnginePolicy;
use crate::engine::{
    retry_after_hint, Slot, TapEngine, DAG_DISPATCH_BIT, DAG_NODE_BITS, TAG_DAG, TK_DAG,
};
use crate::obs::ObsEvent;
use simnet::prelude::*;
use std::borrow::Cow;
use tap_protocol::auth::{AUTHORIZATION_HEADER, SERVICE_KEY_HEADER};
use tap_protocol::endpoints::{action_path, query_path};
use tap_protocol::error::FailureClass;
use tap_protocol::wire::{
    self, ActionRequestBody, QueryRequestBody, QueryResponseBody, TriggerEvent,
};
use tap_protocol::{
    ActionSlug, FieldMap, QuerySlug, StepFailurePolicy, StepKind, StepNode, StepSpec,
};

/// Execution state of one DAG node within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum NodeStatus {
    /// Not started; waiting on predecessors (or a free launch slot).
    #[default]
    Pending,
    /// A network request (or retry timer) is outstanding.
    InFlight,
    /// Completed successfully; `out` holds its contribution.
    Done,
    /// A filter predicate evaluated false: downstream nodes are skipped
    /// without any failure being recorded.
    Cut,
    /// Never ran because a predecessor was cut, skipped, or failed.
    Skipped,
    /// Failed terminally under a halting failure policy.
    Failed,
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

/// One activation walking a multi-step applet DAG — the multi-step
/// counterpart of [`DispatchJob`]. A run ends with exactly one terminal
/// event (ok / dead letter / filtered), so the single-step conservation
/// invariant extends unchanged to multi-step applets.
#[derive(Debug)]
pub(crate) struct DagRun {
    pub(crate) slot: Slot,
    pub(crate) event: TriggerEvent,
    pub(crate) nodes: Vec<RunNode>,
    /// Network requests (or pending retry timers) outstanding.
    pub(crate) outstanding: usize,
    /// A halting node failure marked the whole run failed.
    pub(crate) failed: bool,
    pub(crate) any_action_ok: bool,
    /// An action node failed terminally under a `Continue` policy.
    pub(crate) any_action_failed: bool,
    /// ZapierLike step semantics: at most one network node in flight,
    /// lowest index first.
    pub(crate) serial: bool,
}

impl TapEngine {
    /// Drive one DAG run as far as it can go without waiting on the
    /// network: skip nodes whose predecessors were cut or failed, execute
    /// filter/transform nodes synchronously, launch ready query/action
    /// nodes (one at a time under ZapierLike serial semantics), and
    /// finish the run once nothing is pending or in flight.
    pub(crate) fn dag_advance(&mut self, ctx: &mut Context<'_>, run_id: u64) {
        enum Act {
            Skip(usize),
            Sync(usize),
            Launch(usize),
            Finish,
            Wait,
        }
        loop {
            let act = {
                let Some(run) = self.dag_runs.get(run_id) else {
                    return;
                };
                let steps = &self.applets[run.slot as usize].steps;
                let mut act = Act::Wait;
                for (i, node) in run.nodes.iter().enumerate() {
                    if node.status != NodeStatus::Pending {
                        continue;
                    }
                    if steps[i].deps.iter().any(|&d| {
                        matches!(
                            run.nodes[d as usize].status,
                            NodeStatus::Cut | NodeStatus::Skipped | NodeStatus::Failed
                        )
                    }) {
                        act = Act::Skip(i);
                        break;
                    }
                    if !steps[i]
                        .deps
                        .iter()
                        .all(|&d| run.nodes[d as usize].status == NodeStatus::Done)
                    {
                        continue;
                    }
                    match steps[i].spec {
                        StepSpec::Filter { .. } | StepSpec::Transform { .. } => {
                            act = Act::Sync(i);
                            break;
                        }
                        StepSpec::Query { .. } | StepSpec::Action { .. } => {
                            if run.serial && run.outstanding > 0 {
                                continue;
                            }
                            act = Act::Launch(i);
                            break;
                        }
                    }
                }
                if matches!(act, Act::Wait)
                    && run.outstanding == 0
                    && run.nodes.iter().all(|n| {
                        n.status != NodeStatus::Pending && n.status != NodeStatus::InFlight
                    })
                {
                    act = Act::Finish;
                }
                act
            };
            match act {
                Act::Wait => return,
                Act::Finish => {
                    self.dag_finish(ctx, run_id);
                    return;
                }
                Act::Skip(i) => {
                    let run = self.dag_runs.get_mut(run_id).expect("run checked above");
                    run.nodes[i].status = NodeStatus::Skipped;
                }
                Act::Sync(i) => {
                    let (applet_id, done, out, kind) = {
                        let run = self.dag_runs.get(run_id).expect("run checked above");
                        let applet = &self.applets[run.slot as usize];
                        let input = dag_node_input(run, &applet.steps, i);
                        match &applet.steps[i].spec {
                            StepSpec::Filter { predicate } => (
                                applet.id,
                                predicate.eval(&input),
                                FieldMap::new(),
                                StepKind::Filter,
                            ),
                            StepSpec::Transform { fields } => (
                                applet.id,
                                true,
                                substitute_fields(fields, &input),
                                StepKind::Transform,
                            ),
                            _ => unreachable!("scan yields Sync only for filter/transform"),
                        }
                    };
                    let run = self.dag_runs.get_mut(run_id).expect("run checked above");
                    run.nodes[i].status = if done {
                        NodeStatus::Done
                    } else {
                        NodeStatus::Cut
                    };
                    run.nodes[i].out = out;
                    self.obs(ObsEvent::DagNodeExecuted {
                        applet: applet_id,
                        dispatch: DAG_DISPATCH_BIT | run_id,
                        node: i as u16,
                        kind,
                        at: ctx.now(),
                    });
                }
                Act::Launch(i) => {
                    {
                        let run = self.dag_runs.get_mut(run_id).expect("run checked above");
                        run.nodes[i].status = NodeStatus::InFlight;
                        run.outstanding += 1;
                    }
                    self.dag_send(ctx, run_id, i);
                }
            }
        }
    }

    /// Send (or re-send, from a retry timer) the network request of one
    /// query/action node. The node is `InFlight` and counted in
    /// `outstanding`; a breaker shed is treated as a retryable transport
    /// failure that consumes an attempt, so query steps face the same
    /// breaker/retry stack polls do.
    pub(crate) fn dag_send(&mut self, ctx: &mut Context<'_>, run_id: u64, idx: usize) {
        let Some(run) = self.dag_runs.get(run_id) else {
            return;
        };
        if run.nodes.get(idx).map(|n| n.status) != Some(NodeStatus::InFlight) {
            return;
        }
        let slot = run.slot;
        let id = self.tasks[slot as usize].id;
        if run.failed {
            // The run halted while this node waited on a retry timer:
            // resolve it without wasting the request.
            let run = self.dag_runs.get_mut(run_id).expect("run checked above");
            run.outstanding -= 1;
            run.nodes[idx].status = NodeStatus::Failed;
            self.dag_advance(ctx, run_id);
            return;
        }
        let (owner, action_service) = {
            let t = &self.tasks[slot as usize];
            (t.owner, t.action_service)
        };
        {
            let run = self.dag_runs.get_mut(run_id).expect("run checked above");
            run.nodes[idx].attempts += 1;
        }
        if self.breaker_sheds(ctx.now(), action_service) {
            self.dag_node_failure(ctx, run_id, idx, FailureClass::Transport, None);
            return;
        }
        let (req, sent_ev, node) = {
            let Some(reg) = self.services.get(&action_service) else {
                return;
            };
            let Some(bearer) = self.tokens.get(&(owner, action_service)) else {
                return;
            };
            let run = self.dag_runs.get(run_id).expect("run checked above");
            let applet = &self.applets[slot as usize];
            let input = dag_node_input(run, &applet.steps, idx);
            let attempt = run.nodes[idx].attempts;
            match &applet.steps[idx].spec {
                StepSpec::Query { query, fields, .. } => (
                    Request::post(query_path(&QuerySlug::new(query.clone())))
                        .with_header(SERVICE_KEY_HEADER, reg.key.0.clone())
                        .with_header(AUTHORIZATION_HEADER, bearer.clone())
                        .with_body(wire::to_bytes(&QueryRequestBody {
                            query_fields: substitute_fields(fields, &input),
                            user: applet.owner.clone(),
                        })),
                    ObsEvent::QuerySent {
                        applet: id,
                        dispatch: DAG_DISPATCH_BIT | run_id,
                        at: ctx.now(),
                    },
                    reg.node,
                ),
                StepSpec::Action { action, fields } => (
                    Request::post(action_path(&ActionSlug::new(action.clone())))
                        .with_header(SERVICE_KEY_HEADER, reg.key.0.clone())
                        .with_header(AUTHORIZATION_HEADER, bearer.clone())
                        .with_body(wire::to_bytes(&ActionRequestBody {
                            action_fields: substitute_fields(fields, &input),
                            user: applet.owner.clone(),
                        })),
                    ObsEvent::ActionSent {
                        applet: id,
                        dispatch: DAG_DISPATCH_BIT | run_id,
                        attempt,
                        at: ctx.now(),
                    },
                    reg.node,
                ),
                _ => return,
            }
        };
        self.obs(sent_ev);
        if ctx.tracing() {
            ctx.trace("engine.dag_node_sent", format!("{id:?} node {idx}"));
        }
        ctx.send_request(
            node,
            req,
            Token(TAG_DAG | (run_id << DAG_NODE_BITS) | idx as u64),
            RequestOpts {
                timeout: Some(self.config.request_timeout),
            },
        );
    }

    /// A network node's attempt failed (bad status, timeout, or a breaker
    /// shed). Either re-arm a retry on the backoff schedule — query nodes
    /// draw on the poll-retry budget, action nodes on the action-retry
    /// budget, with the node's `max_retries` overriding either — or
    /// resolve the node terminally under its effective failure policy.
    fn dag_node_failure(
        &mut self,
        ctx: &mut Context<'_>,
        run_id: u64,
        idx: usize,
        class: FailureClass,
        retry_after: Option<SimDuration>,
    ) {
        let Some(run) = self.dag_runs.get(run_id) else {
            return;
        };
        let slot = run.slot;
        let attempts = run.nodes[idx].attempts;
        let applet = &self.applets[slot as usize];
        let id = applet.id;
        let step = &applet.steps[idx];
        let is_action = matches!(step.spec, StepSpec::Action { .. });
        let base = if is_action {
            &self.config.action_retry
        } else {
            &self.config.poll_retry
        };
        let retry = match step.max_retries {
            Some(budget) => class.is_retryable() && attempts <= budget,
            None => base.should_retry(attempts, class),
        };
        let on_failure = step.on_failure;
        if retry {
            let mut delay = base.backoff.delay(attempts.saturating_sub(1), ctx.rng());
            if let Some(ra) = retry_after {
                delay = delay.max(ra);
            }
            self.obs(ObsEvent::DagNodeRetried {
                applet: id,
                dispatch: DAG_DISPATCH_BIT | run_id,
                node: idx as u16,
                at: ctx.now(),
            });
            if is_action {
                self.obs(ObsEvent::ActionRetried {
                    applet: id,
                    dispatch: DAG_DISPATCH_BIT | run_id,
                    at: ctx.now(),
                });
            }
            ctx.set_timer(delay, TK_DAG | (run_id << DAG_NODE_BITS) | idx as u64);
            return; // node stays InFlight; outstanding keeps counting it
        }
        let policy = match on_failure {
            StepFailurePolicy::PolicyDefault => match self.config.policy {
                EnginePolicy::IftttLike => StepFailurePolicy::Continue,
                EnginePolicy::ZapierLike => StepFailurePolicy::Halt,
            },
            explicit => explicit,
        };
        if !is_action {
            self.obs(ObsEvent::QueryFailed {
                dispatch: DAG_DISPATCH_BIT | run_id,
                at: ctx.now(),
            });
        }
        let run = self.dag_runs.get_mut(run_id).expect("run checked above");
        run.outstanding -= 1;
        match policy {
            StepFailurePolicy::Continue => {
                // The node resolves empty and downstream nodes still run —
                // the single-step engine's historical treatment of a
                // failed pre-dispatch query.
                run.nodes[idx].status = NodeStatus::Done;
                run.nodes[idx].out = FieldMap::new();
                if is_action {
                    run.any_action_failed = true;
                }
            }
            _ => {
                run.nodes[idx].status = NodeStatus::Failed;
                run.failed = true;
                for n in &mut run.nodes {
                    if n.status == NodeStatus::Pending {
                        n.status = NodeStatus::Skipped;
                    }
                }
            }
        }
        self.dag_advance(ctx, run_id);
    }

    /// One DAG run reached quiescence: emit exactly one terminal event —
    /// dead letter if the run failed (or an action failed with no sibling
    /// succeeding), success if any action landed, filtered otherwise — so
    /// `events_new == actions_ok + actions_filtered + dead_letters` holds
    /// for multi-step applets exactly as it does for single-step ones.
    fn dag_finish(&mut self, ctx: &mut Context<'_>, run_id: u64) {
        let Some(run) = self.dag_runs.remove(run_id) else {
            return;
        };
        let dispatch = DAG_DISPATCH_BIT | run_id;
        let applet = self.tasks[run.slot as usize].id;
        if run.failed || (run.any_action_failed && !run.any_action_ok) {
            self.obs(ObsEvent::ActionFinished {
                applet,
                dispatch,
                ok: false,
                at: ctx.now(),
            });
            self.obs(ObsEvent::ActionDeadLettered {
                applet,
                dispatch,
                at: ctx.now(),
            });
            ctx.trace("engine.dag_dead_letter", TraceDetail::Applet(applet.0));
        } else if run.any_action_ok {
            self.obs(ObsEvent::ActionFinished {
                applet,
                dispatch,
                ok: true,
                at: ctx.now(),
            });
            ctx.trace("engine.dag_ok", TraceDetail::Applet(applet.0));
        } else {
            self.obs(ObsEvent::ActionFiltered {
                applet,
                dispatch,
                at: ctx.now(),
            });
            ctx.trace("engine.dag_filtered", TraceDetail::Applet(applet.0));
        }
    }

    /// A response for one DAG node came back.
    pub(crate) fn on_dag_response(
        &mut self,
        ctx: &mut Context<'_>,
        run_id: u64,
        idx: usize,
        resp: Response,
    ) {
        let Some(run) = self.dag_runs.get(run_id) else {
            return;
        };
        if run.nodes.get(idx).map(|n| n.status) != Some(NodeStatus::InFlight) {
            return;
        }
        let slot = run.slot;
        let id = self.tasks[slot as usize].id;
        let service = self.tasks[slot as usize].action_service;
        if !resp.is_success() {
            self.breaker_record(ctx, service, false);
            let class = FailureClass::of_status(resp.status).unwrap_or(FailureClass::Transport);
            self.dag_node_failure(ctx, run_id, idx, class, retry_after_hint(&resp));
            return;
        }
        self.breaker_record(ctx, service, true);
        let applet = &self.applets[slot as usize];
        let (kind, is_action, out) = match &applet.steps[idx].spec {
            StepSpec::Query { prefix, .. } => {
                // Merge the result keys under the node's prefix, exactly
                // like the single-step query path; an unparseable 200
                // resolves empty without a failure.
                let mut out = FieldMap::new();
                if let Ok(body) = wire::from_bytes::<QueryResponseBody>(&resp.body) {
                    for (k, v) in body.data {
                        out.insert(format!("{prefix}.{k}"), v);
                    }
                }
                (StepKind::Query, false, out)
            }
            StepSpec::Action { .. } => (StepKind::Action, true, FieldMap::new()),
            _ => return,
        };
        let run = self.dag_runs.get_mut(run_id).expect("run checked above");
        run.outstanding -= 1;
        run.nodes[idx].status = NodeStatus::Done;
        run.nodes[idx].out = out;
        if is_action {
            run.any_action_ok = true;
        }
        self.obs(ObsEvent::DagNodeExecuted {
            applet: id,
            dispatch: DAG_DISPATCH_BIT | run_id,
            node: idx as u16,
            kind,
            at: ctx.now(),
        });
        self.dag_advance(ctx, run_id);
    }
}

/// The ingredient view a DAG node executes against: the trigger event's
/// ingredients overlaid with the outputs of every *transitive* ancestor,
/// applied in node-index order (later ancestors win key collisions,
/// mirroring the query-merge precedence of the single-step path).
/// Borrows the event's ingredients directly when no ancestor contributed
/// anything — the common case for early nodes and pure action chains.
fn dag_node_input<'r>(run: &'r DagRun, steps: &[StepNode], node: usize) -> Cow<'r, FieldMap> {
    let mask = ancestor_mask(steps, node);
    let any_overlay = (0..node).any(|i| mask & (1 << i) != 0 && !run.nodes[i].out.is_empty());
    if !any_overlay {
        return Cow::Borrowed(&run.event.ingredients);
    }
    let mut input = run.event.ingredients.clone();
    for i in 0..node {
        if mask & (1 << i) != 0 {
            for (k, v) in &run.nodes[i].out {
                input.insert(k.clone(), v.clone());
            }
        }
    }
    Cow::Owned(input)
}

/// Transitive ancestor set of `node` as a bitmask. Deps always point at
/// strictly lower indices (enforced by `validate_steps`), so the
/// recursion is bounded by the node count (≤ 16).
fn ancestor_mask(steps: &[StepNode], node: usize) -> u32 {
    let mut mask = 0u32;
    for &d in &steps[node].deps {
        let d = d as usize;
        mask |= (1u32 << d) | ancestor_mask(steps, d);
    }
    mask
}
