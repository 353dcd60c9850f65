//! Multi-step DAG execution semantics.
//!
//! The PR-7 satellite suite for the trigger → [filter|transform|query]* →
//! [action]+ generalization:
//!
//! * **Two spellings, one plan** — a classic applet and the same applet
//!   spelled as a one-action `steps` list produce byte-identical
//!   [`ObsEvent`] streams and engine stats (they compile to one plan).
//! * **Isolation** — a failing filter cuts downstream nodes without a
//!   dead letter; a transform's output feeds the next node's payload; a
//!   query node's result keys land under its prefix.
//! * **Policy split** — `IftttLike` continues past a terminally failed
//!   query where `ZapierLike` halts and dead-letters, and a per-node
//!   `on_failure` override beats the engine default.
//! * **Chaos** — query/action nodes ride the same breaker/retry stack as
//!   polls, and activation conservation holds under fault injection.
//! * **Proptest** — arbitrary ≤ 6-node DAGs under arbitrary fault windows
//!   conserve activations and never execute a node before all of its
//!   predecessors.
//!
//! The seed comes from `CHAOS_SEED` (default 2017) so CI can sweep a seed
//! matrix over the same invariants.

mod support;

use engine::{
    AppletId, EngineConfig, EnginePolicy, EngineStats, FlightRecorder, ObsEvent, TapEngine,
};
use proptest::prelude::*;
use rand::Rng;
use simnet::chaos::{FaultPlan, ServerFault, ServerFaultPlan};
use simnet::net::LinkId;
use simnet::prelude::*;
use std::sync::Arc;
use support::{connect, fire, slot_applet, Echo, EchoService};
use tap_protocol::{FieldMap, StepFailurePolicy, StepNode, StepPredicate, StepSpec, UserId};

const SLUG: &str = "dagsvc";

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2017)
}

struct Harness {
    sim: Sim,
    engine: NodeId,
    svc: NodeId,
    link: LinkId,
    recorder: Arc<FlightRecorder>,
    next_eid: u32,
}

/// Engine + service with one subscription per entry of `slot_steps`
/// (trigger `t{k}` → action `act{k}`), the given engine config, a flight
/// recorder sink, and subscriptions established before any fault applies.
/// An empty step list installs the classic single-step applet; a
/// non-empty one attaches the DAG. Every applet's base action carries
/// `eid = {{id}}` so deliveries are observable either way.
fn dag_harness(cfg: EngineConfig, slot_steps: &[Vec<StepNode>]) -> Harness {
    dag_harness_seeded(chaos_seed(), cfg, slot_steps)
}

fn dag_harness_seeded(seed: u64, cfg: EngineConfig, slot_steps: &[Vec<StepNode>]) -> Harness {
    let mut sim = Sim::new(seed);
    let slots = slot_steps.len();
    let svc = sim.add_node(
        SLUG,
        Echo::service(SLUG, "sk_dag", slots, &["aux"], &["look"]),
    );
    let engine = sim.add_node("engine", TapEngine::new(cfg));
    let recorder = Arc::new(FlightRecorder::new(200_000));
    let sink = recorder.clone();
    let link = sim.link(engine, svc, LinkSpec::datacenter());

    let user = UserId::new("u");
    sim.node_mut::<TapEngine>(engine).set_sink(sink);
    connect(&mut sim, engine, svc, &user);
    sim.with_node::<TapEngine, _>(engine, |e, ctx| {
        for (k, steps) in slot_steps.iter().enumerate() {
            let mut applet = slot_applet(SLUG, k, k as u32 + 1, &user);
            if !steps.is_empty() {
                applet = applet.with_steps(steps.clone());
            }
            e.install_applet(ctx, applet).expect("applet installs");
        }
    });
    // Clean settle: every subscription is learned before faults start.
    sim.run_until(SimTime::from_secs(5));
    Harness {
        sim,
        engine,
        svc,
        link,
        recorder,
        next_eid: 0,
    }
}

impl Harness {
    /// Fire slot `k`'s trigger now; the emit must match the (established)
    /// subscription. Returns the event id.
    fn emit(&mut self, k: usize) -> String {
        let eid = format!("e{:04}", self.next_eid);
        self.next_eid += 1;
        let matched = fire(
            &mut self.sim,
            self.svc,
            &format!("t{k}"),
            &UserId::new("u"),
            &eid,
        );
        assert_eq!(matched, 1, "subscription t{k} is established");
        eid
    }

    fn stats(&self) -> EngineStats {
        self.sim.node_ref::<TapEngine>(self.engine).stats
    }

    fn received(&self) -> Vec<String> {
        self.sim.node_ref::<EchoService>(self.svc).vendor.eids()
    }

    fn queries_served(&self) -> u64 {
        self.sim
            .node_ref::<EchoService>(self.svc)
            .vendor
            .queries_served
    }

    /// `events_new == actions_ok + actions_filtered + dead_letters` —
    /// every fetched event concludes exactly once, DAG or not.
    fn assert_conservation(&self) {
        let s = self.stats();
        assert_eq!(
            s.events_new,
            s.actions_ok + s.actions_filtered + s.dead_letters,
            "conservation: new {} ok {} filtered {} dead {}",
            s.events_new,
            s.actions_ok,
            s.actions_filtered,
            s.dead_letters
        );
    }
}

fn act(slug: &str) -> StepNode {
    StepNode::new(StepSpec::Action {
        action: slug.into(),
        fields: {
            let mut f = FieldMap::new();
            f.insert("eid".into(), "{{id}}".into());
            f
        },
    })
}

// ---------------------------------------------------------------------
// Two spellings, one plan: a `steps`-spelled single action == classic.
// ---------------------------------------------------------------------

/// The same population and emission schedule with every applet spelled
/// through the classic `action` field and through a one-action `steps`
/// list produces byte-identical observable event streams, stats, and
/// deliveries — both spellings compile to the same one-node plan.
#[test]
fn both_spellings_of_a_single_action_run_the_same_plan() {
    let classic: Vec<Vec<StepNode>> = vec![Vec::new(); 3];
    let spelled: Vec<Vec<StepNode>> = (0..3).map(|k| vec![act(&format!("act{k}"))]).collect();
    let mut a = dag_harness(EngineConfig::fast().resilient(), &classic);
    let mut b = dag_harness(EngineConfig::fast().resilient(), &spelled);
    for round in 0..3u64 {
        let at = SimTime::from_secs(10 + round * 15);
        a.sim.run_until(at);
        b.sim.run_until(at);
        for k in 0..3 {
            a.emit(k);
            b.emit(k);
        }
    }
    let horizon = SimTime::from_secs(120);
    a.sim.run_until(horizon);
    b.sim.run_until(horizon);

    assert_eq!(a.stats(), b.stats(), "engine stats diverge");
    assert_eq!(a.received(), b.received(), "deliveries diverge");
    let (ea, eb) = (a.recorder.events(), b.recorder.events());
    assert_eq!(ea.len(), eb.len(), "event stream length diverges");
    assert_eq!(ea, eb, "observable event streams diverge");
    // And the `steps` spelling reports as classic: no multi-step telemetry.
    assert_eq!(
        b.stats().dag_runs,
        0,
        "a single action is not a multi-step run"
    );
    assert_eq!(a.stats().actions_ok, 9);
    a.assert_conservation();
}

// ---------------------------------------------------------------------
// Isolation: filter short-circuit, transform feed, query enrichment.
// ---------------------------------------------------------------------

/// A filter whose predicate fails cuts everything downstream: the run
/// ends `filtered`, no action request leaves the engine, and no dead
/// letter is recorded. A sibling slot whose filter passes still delivers.
#[test]
fn filter_cut_short_circuits_without_dead_letter() {
    let cut = vec![
        StepNode::new(StepSpec::Filter {
            predicate: StepPredicate::Has {
                key: "never_set".into(),
            },
        }),
        act("act0").after(&[0]),
    ];
    let pass = vec![
        StepNode::new(StepSpec::Filter {
            predicate: StepPredicate::NotHas {
                key: "never_set".into(),
            },
        }),
        act("act1").after(&[0]),
    ];
    let mut h = dag_harness(EngineConfig::fast(), &[cut, pass]);
    h.sim.run_until(SimTime::from_secs(10));
    let cut_eid = h.emit(0);
    let pass_eid = h.emit(1);
    h.sim.run_until(SimTime::from_secs(60));

    let s = h.stats();
    assert_eq!(s.events_new, 2);
    assert_eq!(s.dag_runs, 2);
    assert_eq!(s.dag_nodes_filter, 2, "both filters executed");
    assert_eq!(s.actions_filtered, 1, "the cut run ends filtered");
    assert_eq!(s.dead_letters, 0, "a cut is not a failure");
    assert_eq!(s.actions_ok, 1, "the passing run delivers");
    assert_eq!(s.dag_nodes_action, 1, "only the passing action ran");
    assert_eq!(h.received(), vec![pass_eid.clone()]);
    assert_ne!(cut_eid, pass_eid);
    h.assert_conservation();
}

/// A transform's substituted output overlays the trigger payload for its
/// successors: the action's `eid` template reads the transform's key, and
/// the service receives the rewritten value.
#[test]
fn transform_output_feeds_downstream_payload() {
    let steps = vec![
        StepNode::new(StepSpec::Transform {
            fields: {
                let mut f = FieldMap::new();
                f.insert("tag".into(), "on-{{id}}".into());
                f
            },
        }),
        StepNode::new(StepSpec::Action {
            action: "act0".into(),
            fields: {
                let mut f = FieldMap::new();
                f.insert("eid".into(), "{{tag}}".into());
                f
            },
        })
        .after(&[0]),
    ];
    let mut h = dag_harness(EngineConfig::fast(), &[steps]);
    h.sim.run_until(SimTime::from_secs(10));
    let eid = h.emit(0);
    h.sim.run_until(SimTime::from_secs(60));

    assert_eq!(h.received(), vec![format!("on-{eid}")]);
    let s = h.stats();
    assert_eq!(s.dag_nodes_transform, 1);
    assert_eq!(s.actions_ok, 1);
    h.assert_conservation();
}

/// A query node's result keys are merged under its prefix and visible to
/// downstream templates — the multi-step analogue of the single-step
/// pre-dispatch query.
#[test]
fn query_result_lands_under_its_prefix() {
    let steps = vec![
        StepNode::new(StepSpec::Query {
            query: "look".into(),
            prefix: "ctx".into(),
            fields: {
                let mut f = FieldMap::new();
                f.insert("q".into(), "{{id}}".into());
                f
            },
        }),
        StepNode::new(StepSpec::Action {
            action: "act0".into(),
            fields: {
                let mut f = FieldMap::new();
                f.insert("eid".into(), "{{ctx.q}}".into());
                f
            },
        })
        .after(&[0]),
    ];
    let mut h = dag_harness(EngineConfig::fast(), &[steps]);
    h.sim.run_until(SimTime::from_secs(10));
    let eid = h.emit(0);
    h.sim.run_until(SimTime::from_secs(60));

    // The service echoes the substituted request fields, so the action's
    // `{{ctx.q}}` template resolves back to the event id.
    assert_eq!(h.received(), vec![eid]);
    assert_eq!(h.queries_served(), 1);
    let s = h.stats();
    assert_eq!(s.dag_nodes_query, 1);
    assert_eq!(s.actions_ok, 1);
    h.assert_conservation();
}

/// Disabling an applet stops the runs it has enqueued but not started,
/// multi-step or not: the event was fetched, its run never sends.
#[test]
fn disabling_a_multi_step_applet_stops_its_pending_runs() {
    let steps = vec![
        StepNode::new(StepSpec::Filter {
            predicate: StepPredicate::Always,
        }),
        act("act0").after(&[0]),
    ];
    let mut h = dag_harness(EngineConfig::fast(), &[steps]);
    h.sim.run_until(SimTime::from_secs(10));
    h.emit(0);
    // The run's start timer is at least 50 ms (the dispatch overhead)
    // behind the poll response that enqueued it.
    while h.stats().events_new == 0 {
        h.sim.run_for(SimDuration::from_millis(10));
    }
    h.sim.with_node::<TapEngine, _>(h.engine, |e, ctx| {
        e.set_enabled(ctx, AppletId(1), false);
    });
    h.sim.run_until(SimTime::from_secs(60));

    let s = h.stats();
    assert_eq!(s.events_new, 1);
    assert_eq!(s.actions_sent, 0, "a disabled applet's run still sent");
    assert!(h.received().is_empty());
}

// ---------------------------------------------------------------------
// Policy split: IftttLike continues, ZapierLike halts.
// ---------------------------------------------------------------------

/// The three-slot probe DAG: a query against an unregistered slug (404 —
/// terminal, never retried), an action gated on it, and an independent
/// action.
fn failing_query_dag() -> Vec<StepNode> {
    vec![
        StepNode::new(StepSpec::Query {
            query: "missing".into(),
            prefix: "ctx".into(),
            fields: FieldMap::new(),
        }),
        act("act0").after(&[0]),
        act("aux"),
    ]
}

/// Under `IftttLike` a terminally failed query resolves empty and both
/// actions still run (the single-step engine's historical treatment);
/// under `ZapierLike` the run halts and dead-letters with no delivery.
/// A per-node `Continue` override restores delivery even under Zapier.
#[test]
fn ifttt_continues_where_zapier_halts() {
    let ifttt = EngineConfig::fast().with_policy(EnginePolicy::IftttLike);
    let zapier = EngineConfig::fast().with_policy(EnginePolicy::ZapierLike);

    let mut a = dag_harness(ifttt, &[failing_query_dag()]);
    a.sim.run_until(SimTime::from_secs(10));
    let eid = a.emit(0);
    a.sim.run_until(SimTime::from_secs(90));
    let s = a.stats();
    assert_eq!(s.actions_ok, 1, "the run concludes ok");
    assert_eq!(s.dead_letters, 0);
    assert_eq!(s.queries_failed, 1, "the 404 is counted");
    assert_eq!(s.dag_nodes_action, 2, "both actions executed");
    assert_eq!(
        a.received(),
        vec![eid.clone(), eid.clone()],
        "both actions delivered under IftttLike"
    );
    a.assert_conservation();

    let mut b = dag_harness(zapier.clone(), &[failing_query_dag()]);
    b.sim.run_until(SimTime::from_secs(10));
    b.emit(0);
    b.sim.run_until(SimTime::from_secs(90));
    let s = b.stats();
    assert_eq!(s.dead_letters, 1, "Zapier halts and dead-letters");
    assert_eq!(s.actions_ok, 0);
    assert_eq!(s.dag_nodes_action, 0, "no action ran after the halt");
    assert!(
        b.received().is_empty(),
        "nothing delivered under ZapierLike"
    );
    b.assert_conservation();

    // Per-node override: marking the query `Continue` beats the engine
    // default, so the Zapier run delivers like the IFTTT one.
    let mut dag = failing_query_dag();
    dag[0] = dag[0].clone().on_failure(StepFailurePolicy::Continue);
    let mut c = dag_harness(zapier, &[dag]);
    c.sim.run_until(SimTime::from_secs(10));
    c.emit(0);
    c.sim.run_until(SimTime::from_secs(90));
    let s = c.stats();
    assert_eq!(s.actions_ok, 1, "per-node Continue overrides Halt default");
    assert_eq!(s.dead_letters, 0);
    assert_eq!(s.dag_nodes_action, 2);
    c.assert_conservation();
}

// ---------------------------------------------------------------------
// Chaos: query/action nodes ride the breaker/retry stack like polls.
// ---------------------------------------------------------------------

/// The query → action DAG the chaos scenarios run: the action's payload
/// is the query's echoed output, so a delivery proves the enrichment
/// survived every retry.
fn query_then_action() -> Vec<StepNode> {
    vec![
        StepNode::new(StepSpec::Query {
            query: "look".into(),
            prefix: "ctx".into(),
            fields: {
                let mut f = FieldMap::new();
                f.insert("q".into(), "{{id}}".into());
                f
            },
        }),
        StepNode::new(StepSpec::Action {
            action: "act0".into(),
            fields: {
                let mut f = FieldMap::new();
                f.insert("eid".into(), "{{ctx.q}}".into());
                f
            },
        })
        .after(&[0]),
    ]
}

/// 25 % link loss plus a periodic 503 outage, twelve emission rounds on
/// every slot in `slots`, then a long drain (loss has ended; retries and
/// breaker probes settle).
fn run_dag_chaos(h: &mut Harness, slots: &[usize]) {
    let horizon = SimTime::from_secs(420);
    let plan = FaultPlan::new().link_loss(h.link, 0.25, SimTime::from_secs(5), horizon);
    h.sim.apply_fault_plan(&plan);
    let outages = ServerFaultPlan::new().periodic(
        ServerFault::Http503 {
            retry_after_secs: 2,
        },
        SimTime::from_secs(10),
        SimDuration::from_secs(40),
        SimDuration::from_secs(12),
        SimTime::from_secs(200),
    );
    h.sim.with_node::<EchoService, _>(h.svc, move |s, _| {
        s.core.fault_plan = Some(outages);
    });
    for i in 0..12u64 {
        h.sim.run_until(SimTime::from_secs(12 + i * 15));
        for &k in slots {
            h.emit(k);
        }
    }
    h.sim.run_until(SimTime::from_secs(900));
}

/// Under link loss plus a sustained 503 outage, DAG query/action nodes
/// retry on the backoff schedule (through the same per-service breaker
/// that polls trip), and every fetched event still concludes exactly
/// once — delivered, filtered, or dead-lettered.
#[test]
fn dag_nodes_retry_through_the_breaker_under_chaos() {
    let mut h = dag_harness(EngineConfig::fast().resilient(), &[query_then_action()]);
    run_dag_chaos(&mut h, &[0]);

    let s = h.stats();
    assert_eq!(s.events_new, 12, "every event is eventually fetched");
    assert!(s.dag_runs >= 12, "every fetched event starts a run");
    assert!(
        s.dag_node_retries > 0,
        "chaos must force at least one node retry: {s:?}"
    );
    assert!(
        s.breaker_trips > 0,
        "the sustained outage trips the shared breaker: {s:?}"
    );
    h.assert_conservation();
    // Anything that did land carries a real event id (query output fed
    // the action payload even across retries).
    for eid in h.received() {
        assert!(eid.starts_with('e'), "delivered payload {eid:?}");
    }
}

// ---------------------------------------------------------------------
// Event-order pins: the full ObsEvent stream under chaos, hashed.
// ---------------------------------------------------------------------

/// FNV-1a over the `Debug` text of every event, with dispatch ids
/// renumbered by first appearance (they are arena handles: which value a
/// run gets is storage, the order runs appear in is behaviour).
fn stream_hash(events: &[ObsEvent]) -> u64 {
    const KEY: &str = "dispatch: ";
    let mut ids: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for ev in events {
        let mut text = format!("{ev:?}");
        if let Some(at) = text.find(KEY).map(|i| i + KEY.len()) {
            let len = text[at..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("the id is followed by a delimiter");
            let next = ids.len();
            let id = *ids.entry(text[at..at + len].to_string()).or_insert(next);
            text.replace_range(at..at + len, &id.to_string());
        }
        for b in text.bytes().chain([b'\n']) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Four classic applets under `chaos_recovery.rs`'s conservation
/// schedule: 2 % link loss, periodic 503s, one server-side timeout
/// window, 24 events round-robin.
fn classic_chaos_stream(seed: u64) -> Vec<ObsEvent> {
    let mut h = dag_harness_seeded(seed, EngineConfig::fast().resilient(), &vec![Vec::new(); 4]);
    let plan =
        FaultPlan::new().link_loss(h.link, 0.02, SimTime::from_secs(5), SimTime::from_secs(300));
    h.sim.apply_fault_plan(&plan);
    let outages = ServerFaultPlan::new()
        .periodic(
            ServerFault::Http503 {
                retry_after_secs: 2,
            },
            SimTime::from_secs(10),
            SimDuration::from_secs(30),
            SimDuration::from_secs(8),
            SimTime::from_secs(120),
        )
        .window(
            ServerFault::Timeout,
            SimTime::from_secs(95),
            SimTime::from_secs(100),
        );
    h.sim.with_node::<EchoService, _>(h.svc, move |s, _| {
        s.core.fault_plan = Some(outages);
    });
    for i in 0..24u64 {
        h.sim.run_until(SimTime::from_secs(6 + 2 * i));
        h.emit(i as usize % 4);
    }
    h.sim.run_until(SimTime::from_secs(300));
    h.assert_conservation();
    h.recorder.events()
}

/// One classic applet beside one multi-step applet — the two kinds share
/// the engine, its breaker and its run arena — under the DAG chaos
/// schedule.
fn mixed_chaos_stream(seed: u64) -> Vec<ObsEvent> {
    let mut h = dag_harness_seeded(
        seed,
        EngineConfig::fast().resilient(),
        &[Vec::new(), query_then_action()],
    );
    run_dag_chaos(&mut h, &[0, 1]);
    h.assert_conservation();
    h.recorder.events()
}

/// Fleet digests see counters and histograms; these see event *order*
/// (e.g. `ActionFinished` against `BreakerTripped` on one response). The
/// hashes were captured at commit 62d9117, where classic applets and
/// multi-step applets still ran through separate code paths.
#[test]
fn chaos_event_streams_match_the_two_path_engine() {
    const PINS: [(u64, u64, u64); 4] = [
        (2017, 0x6e4c_caad_c8af_3ea3, 0x37a7_1f6c_cd11_d6fd),
        (2018, 0xcf90_0587_e99e_bd7a, 0xdcb5_f2e8_cda6_1a7d),
        (31337, 0xc364_83f6_759e_18c2, 0x6fdb_4e61_e269_cbb1),
        (777, 0x6857_61b9_29d7_efda, 0xa9e9_4d58_3b11_b4eb),
    ];
    let line = |seed: u64, classic: u64, mixed: u64| format!("{seed}: {classic:016x} {mixed:016x}");
    let got: Vec<String> = PINS
        .iter()
        .map(|&(seed, _, _)| {
            line(
                seed,
                stream_hash(&classic_chaos_stream(seed)),
                stream_hash(&mixed_chaos_stream(seed)),
            )
        })
        .collect();
    let want: Vec<String> = PINS.iter().map(|&(s, c, m)| line(s, c, m)).collect();
    assert_eq!(got, want, "seed: classic-stream mixed-stream");
}

// ---------------------------------------------------------------------
// Proptest: arbitrary DAGs conserve activations & respect dependencies.
// ---------------------------------------------------------------------

/// One generated node: spec choice, dependencies on lower indices, and a
/// failure-policy/retry override.
#[derive(Debug, Clone)]
struct NodePlan {
    kind: u8,
    pred: u8,
    deps: Vec<u16>,
    on_failure: u8,
    max_retries: Option<u32>,
}

/// Strategy for a well-formed plan: 1–6 nodes, each depending only on
/// lower indices, with at least one action node (so `validate_steps`
/// always accepts the built DAG).
struct DagPlanStrategy;

impl Strategy for DagPlanStrategy {
    type Value = Vec<NodePlan>;
    fn generate(&self, rng: &mut rand::StdRng) -> Vec<NodePlan> {
        let n = rng.gen_range(1usize..=6);
        let mut nodes: Vec<NodePlan> = (0..n)
            .map(|i| NodePlan {
                kind: rng.gen_range(0u8..4),
                pred: rng.gen_range(0u8..5),
                deps: (0..i as u16).filter(|_| rng.gen_bool(0.4)).collect(),
                on_failure: rng.gen_range(0u8..3),
                max_retries: if rng.gen_bool(0.3) {
                    Some(rng.gen_range(0u32..3))
                } else {
                    None
                },
            })
            .collect();
        // Every applet needs at least one action so the run can conclude
        // ok; force the last node when none was drawn.
        if !nodes.iter().any(|p| p.kind == 3) {
            nodes.last_mut().expect("n >= 1").kind = 3;
        }
        nodes
    }
}

fn build_steps(plan: &[NodePlan]) -> Vec<StepNode> {
    plan.iter()
        .enumerate()
        .map(|(i, p)| {
            let spec = match p.kind {
                0 => StepSpec::Filter {
                    predicate: match p.pred {
                        0 => StepPredicate::Always,
                        1 => StepPredicate::Has { key: "id".into() },
                        2 => StepPredicate::NotHas { key: "id".into() },
                        3 => StepPredicate::Equals {
                            key: "id".into(),
                            value: "nope".into(),
                        },
                        _ => StepPredicate::Contains {
                            key: "id".into(),
                            needle: "e".into(),
                        },
                    },
                },
                1 => StepSpec::Transform {
                    fields: {
                        let mut f = FieldMap::new();
                        f.insert(format!("x{i}"), "{{id}}".into());
                        f
                    },
                },
                2 => StepSpec::Query {
                    query: "look".into(),
                    prefix: format!("p{i}"),
                    fields: {
                        let mut f = FieldMap::new();
                        f.insert("q".into(), "{{id}}".into());
                        f
                    },
                },
                _ => StepSpec::Action {
                    action: "act0".into(),
                    fields: {
                        let mut f = FieldMap::new();
                        f.insert("eid".into(), "{{id}}".into());
                        f
                    },
                },
            };
            let mut node = StepNode::new(spec).after(&p.deps);
            node = match p.on_failure {
                1 => node.on_failure(StepFailurePolicy::Continue),
                2 => node.on_failure(StepFailurePolicy::Halt),
                _ => node,
            };
            if let Some(r) = p.max_retries {
                node = node.with_max_retries(r);
            }
            node
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any well-formed DAG, under any of these fault plans and either
    /// engine policy, (a) conserves activations — every fetched event
    /// concludes exactly once — and (b) never executes a node before all
    /// of its predecessors.
    #[test]
    fn arbitrary_dags_conserve_activations_and_respect_deps(
        plan in DagPlanStrategy,
        loss in 0.0f64..0.3,
        outage_len in 0u64..40,
        zapier in any::<bool>(),
    ) {
        let steps = build_steps(&plan);
        prop_assert!(tap_protocol::validate_steps(&steps).is_ok(), "{plan:?}");
        let mut cfg = EngineConfig::fast().resilient();
        if zapier {
            cfg = cfg.with_policy(EnginePolicy::ZapierLike);
        }
        let mut h = dag_harness(cfg, std::slice::from_ref(&steps));
        let fault_end = SimTime::from_secs(100);
        if loss > 0.0 {
            let fp = FaultPlan::new().link_loss(h.link, loss, SimTime::from_secs(5), fault_end);
            h.sim.apply_fault_plan(&fp);
        }
        if outage_len > 0 {
            let sp = ServerFaultPlan::new().window(
                ServerFault::Http503 { retry_after_secs: 2 },
                SimTime::from_secs(10),
                SimTime::from_secs(10 + outage_len),
            );
            h.sim.with_node::<EchoService, _>(h.svc, move |s, _| {
                s.core.fault_plan = Some(sp);
            });
        }
        for i in 0..3u64 {
            h.sim.run_until(SimTime::from_secs(6 + i * 17));
            h.emit(0);
        }
        // Faults end by t=100; a long drain lets every retry chain and
        // breaker probe resolve.
        h.sim.run_until(SimTime::from_secs(600));

        let s = h.stats();
        prop_assert_eq!(s.events_new, 3, "all events fetched once loss ends: {:?}", s);
        prop_assert_eq!(
            s.events_new,
            s.actions_ok + s.actions_filtered + s.dead_letters,
            "conservation: {:?}", s
        );

        // Topology: within one run, a node's DagNodeExecuted must come
        // after its predecessor's. A predecessor with no execution event
        // at all is legitimate — it failed terminally and resolved under
        // a Continue policy (or was cut/skipped, in which case the
        // successor never runs) — but a *later* one is an ordering bug.
        let events = h.recorder.events();
        for (i, ev) in events.iter().enumerate() {
            if let ObsEvent::DagNodeExecuted { dispatch, node, .. } = ev {
                for &dep in &steps[*node as usize].deps {
                    let dep_after = events[i..].iter().any(|e| matches!(
                        e,
                        ObsEvent::DagNodeExecuted { dispatch: d, node: n, .. }
                            if d == dispatch && *n == dep
                    ));
                    prop_assert!(
                        !dep_after,
                        "node {} executed before predecessor {} in run {:x}",
                        node, dep, dispatch
                    );
                }
            }
        }
    }
}
