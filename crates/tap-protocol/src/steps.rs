//! Multi-step applet DAGs.
//!
//! The paper models an applet as a single trigger→action pair, but the
//! competing Zapier ecosystem (PAPERS.md, "IFTTT vs. Zapier") runs
//! multi-step *Zaps*: a trigger followed by filters, payload transforms,
//! data-lookup queries, and one or more actions. This module defines the
//! wire-level step vocabulary shared by the ecosystem generator (which
//! emits multi-step applets under `--multi-step-share`) and the engine
//! (which compiles every applet, classic or multi-step, to one plan of
//! such nodes and walks activations through it node-by-node).
//!
//! A DAG is a `Vec<StepNode>` in which node `i` may only depend on nodes
//! with index `< i` — dependency lists are validated by [`validate_steps`]
//! so every stored DAG is topologically ordered *by construction*. A node
//! with an empty `deps` list depends on the trigger event itself. The
//! degenerate DAG — exactly one [`StepSpec::Action`] node with no deps and
//! default policies — is a second spelling of the classic trigger→action
//! applet: the engine compiles both to the same one-node plan (see
//! DESIGN.md §11).

use crate::ids::FieldMap;
use serde::{Deserialize, Serialize};

/// Hard cap on nodes per applet DAG. Zapier's UI caps Zaps at a few dozen
/// steps; 16 keeps engine-side per-run state a couple of machine words of
/// bitmask.
pub const MAX_STEPS: usize = 16;

/// The coarse kind of a step — what the engine's per-node-kind counters
/// and observation events report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Conditional gate: cuts the downstream subtree when false.
    Filter,
    /// Pure payload rewrite: emits new fields for downstream nodes.
    Transform,
    /// Network lookup against the partner service's query endpoint.
    Query,
    /// Network action execution (terminal work of the DAG).
    Action,
}

impl StepKind {
    /// Display label, used in reports and test assertions.
    pub fn name(self) -> &'static str {
        match self {
            StepKind::Filter => "filter",
            StepKind::Transform => "transform",
            StepKind::Query => "query",
            StepKind::Action => "action",
        }
    }
}

/// A self-contained predicate over an event payload; the filter node's
/// condition language. Deliberately smaller than the engine's `Condition`
/// tree — steps are wire data authored by the ecosystem generator, not by
/// engine internals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepPredicate {
    /// Always passes.
    Always,
    /// Passes when `key` is present.
    Has { key: String },
    /// Passes when `key` is absent.
    NotHas { key: String },
    /// Passes when `key` equals `value` exactly.
    Equals { key: String, value: String },
    /// Passes when `key`'s value contains `needle`.
    Contains { key: String, needle: String },
}

impl StepPredicate {
    /// Evaluate against a payload.
    pub fn eval(&self, fields: &FieldMap) -> bool {
        match self {
            StepPredicate::Always => true,
            StepPredicate::Has { key } => fields.contains_key(key),
            StepPredicate::NotHas { key } => !fields.contains_key(key),
            StepPredicate::Equals { key, value } => {
                fields.get(key).map(|v| v == value).unwrap_or(false)
            }
            StepPredicate::Contains { key, needle } => fields
                .get(key)
                .map(|v| v.contains(needle.as_str()))
                .unwrap_or(false),
        }
    }
}

/// What one DAG node does. Query and Action steps name endpoint slugs on
/// the applet's action service (the engine resolves them against
/// `Applet::action.service`, the one service a classic applet already
/// authenticates to).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepSpec {
    /// Gate: downstream nodes are cut (not dead-lettered) when the
    /// predicate fails.
    Filter { predicate: StepPredicate },
    /// Rewrite: output fields are `fields` with `{{key}}` placeholders
    /// substituted from the node's input payload.
    Transform { fields: FieldMap },
    /// Lookup: POSTs `fields` (after substitution) to the query endpoint
    /// `query`; response data is merged into the payload under
    /// `prefix.<key>`.
    Query {
        query: String,
        prefix: String,
        #[serde(default)]
        fields: FieldMap,
    },
    /// Execute: POSTs `fields` (after substitution) to action endpoint
    /// `action`.
    Action {
        action: String,
        #[serde(default)]
        fields: FieldMap,
    },
}

impl StepSpec {
    /// The coarse kind of this step.
    pub fn kind(&self) -> StepKind {
        match self {
            StepSpec::Filter { .. } => StepKind::Filter,
            StepSpec::Transform { .. } => StepKind::Transform,
            StepSpec::Query { .. } => StepKind::Query,
            StepSpec::Action { .. } => StepKind::Action,
        }
    }
}

/// Per-node failure handling, overriding the engine policy's default step
/// semantics ([`StepFailurePolicy::PolicyDefault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StepFailurePolicy {
    /// Defer to the engine policy (IFTTT-like: isolate the failure;
    /// Zapier-like: halt the run).
    #[default]
    PolicyDefault,
    /// Swallow the failure: the node completes with an empty output and
    /// downstream nodes still run.
    Continue,
    /// Abort the run: every node not yet finished is skipped.
    Halt,
}

/// One node of an applet DAG.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepNode {
    /// What the node does.
    pub spec: StepSpec,
    /// Indices of predecessor nodes; must all be `< ` this node's own
    /// index (an empty list depends on the trigger event). AND-join: the
    /// node runs only after *all* predecessors finish, and is skipped if
    /// any predecessor was cut or skipped.
    #[serde(default)]
    pub deps: Vec<u16>,
    /// Failure handling override for this node.
    #[serde(default)]
    pub on_failure: StepFailurePolicy,
    /// Per-node retry budget override for network steps (`None` inherits
    /// the engine's action/poll retry policy).
    #[serde(default)]
    pub max_retries: Option<u32>,
}

impl StepNode {
    /// A node with no deps and default policies.
    pub fn new(spec: StepSpec) -> StepNode {
        StepNode {
            spec,
            deps: Vec::new(),
            on_failure: StepFailurePolicy::default(),
            max_retries: None,
        }
    }

    /// Builder: set predecessor indices.
    pub fn after(mut self, deps: &[u16]) -> StepNode {
        self.deps = deps.to_vec();
        self
    }

    /// Builder: set the failure policy.
    pub fn on_failure(mut self, policy: StepFailurePolicy) -> StepNode {
        self.on_failure = policy;
        self
    }

    /// Builder: cap network retries for this node.
    pub fn with_max_retries(mut self, retries: u32) -> StepNode {
        self.max_retries = Some(retries);
        self
    }
}

/// Why a step DAG is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// More than [`MAX_STEPS`] nodes.
    TooManyNodes(usize),
    /// `deps[j]` of node `node` is not strictly smaller than `node`.
    ForwardDep { node: usize, dep: u16 },
    /// No [`StepSpec::Action`] node — the DAG would do no terminal work.
    NoAction,
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::TooManyNodes(n) => write!(f, "{n} steps exceed the cap of {MAX_STEPS}"),
            StepError::ForwardDep { node, dep } => {
                write!(
                    f,
                    "node {node} depends on node {dep}, which is not before it"
                )
            }
            StepError::NoAction => write!(f, "step DAG has no action node"),
        }
    }
}

/// Validate a step DAG: bounded size, back-edges only (which makes the
/// stored order a topological order), and at least one action node. An
/// empty list is valid — it means "classic single-step applet".
pub fn validate_steps(steps: &[StepNode]) -> Result<(), StepError> {
    if steps.is_empty() {
        return Ok(());
    }
    if steps.len() > MAX_STEPS {
        return Err(StepError::TooManyNodes(steps.len()));
    }
    for (i, node) in steps.iter().enumerate() {
        for &d in &node.deps {
            if d as usize >= i {
                return Err(StepError::ForwardDep { node: i, dep: d });
            }
        }
    }
    if !steps
        .iter()
        .any(|n| matches!(n.spec, StepSpec::Action { .. }))
    {
        return Err(StepError::NoAction);
    }
    Ok(())
}

/// True when `steps` is the *degenerate* DAG: exactly one action node with
/// no deps, default failure policy, and no retry override — the `steps`
/// spelling of a classic trigger→action applet.
pub fn is_degenerate(steps: &[StepNode]) -> bool {
    match steps {
        [node] => {
            matches!(node.spec, StepSpec::Action { .. })
                && node.deps.is_empty()
                && node.on_failure == StepFailurePolicy::PolicyDefault
                && node.max_retries.is_none()
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn action(slug: &str) -> StepNode {
        StepNode::new(StepSpec::Action {
            action: slug.into(),
            fields: FieldMap::new(),
        })
    }

    fn filter(pred: StepPredicate) -> StepNode {
        StepNode::new(StepSpec::Filter { predicate: pred })
    }

    #[test]
    fn predicates_evaluate_against_payloads() {
        let mut f = FieldMap::new();
        f.insert("status".into(), "armed and ready".into());
        assert!(StepPredicate::Always.eval(&f));
        assert!(StepPredicate::Has {
            key: "status".into()
        }
        .eval(&f));
        assert!(!StepPredicate::Has {
            key: "ghost".into()
        }
        .eval(&f));
        assert!(StepPredicate::NotHas {
            key: "ghost".into()
        }
        .eval(&f));
        assert!(StepPredicate::Equals {
            key: "status".into(),
            value: "armed and ready".into()
        }
        .eval(&f));
        assert!(!StepPredicate::Equals {
            key: "status".into(),
            value: "armed".into()
        }
        .eval(&f));
        assert!(StepPredicate::Contains {
            key: "status".into(),
            needle: "armed".into()
        }
        .eval(&f));
        assert!(!StepPredicate::Contains {
            key: "ghost".into(),
            needle: "x".into()
        }
        .eval(&f));
    }

    #[test]
    fn validation_accepts_well_formed_dags() {
        assert_eq!(validate_steps(&[]), Ok(()));
        assert_eq!(validate_steps(&[action("a")]), Ok(()));
        let chain = vec![
            filter(StepPredicate::Always),
            StepNode::new(StepSpec::Transform {
                fields: FieldMap::new(),
            })
            .after(&[0]),
            action("a").after(&[1]),
        ];
        assert_eq!(validate_steps(&chain), Ok(()));
        // Fan-out: two actions off one transform.
        let fan = vec![
            StepNode::new(StepSpec::Transform {
                fields: FieldMap::new(),
            }),
            action("a").after(&[0]),
            action("b").after(&[0]),
        ];
        assert_eq!(validate_steps(&fan), Ok(()));
    }

    #[test]
    fn validation_rejects_malformed_dags() {
        // Forward (or self) dependency.
        let fwd = vec![action("a").after(&[0])];
        assert_eq!(
            validate_steps(&fwd),
            Err(StepError::ForwardDep { node: 0, dep: 0 })
        );
        // No action node anywhere.
        assert_eq!(
            validate_steps(&[filter(StepPredicate::Always)]),
            Err(StepError::NoAction)
        );
        // Too many nodes.
        let mut big: Vec<StepNode> = (0..MAX_STEPS).map(|_| action("a")).collect();
        big.push(action("a"));
        assert_eq!(
            validate_steps(&big),
            Err(StepError::TooManyNodes(MAX_STEPS + 1))
        );
    }

    #[test]
    fn degenerate_detection_is_exact() {
        assert!(is_degenerate(&[action("a")]));
        assert!(!is_degenerate(&[]));
        assert!(!is_degenerate(&[filter(StepPredicate::Always)]));
        assert!(!is_degenerate(&[action("a"), action("b")]));
        assert!(!is_degenerate(&[
            action("a").on_failure(StepFailurePolicy::Halt)
        ]));
        assert!(!is_degenerate(&[action("a").with_max_retries(1)]));
        let mut dep = action("a");
        dep.deps = vec![0];
        assert!(!is_degenerate(&[dep]));
    }

    #[test]
    fn steps_round_trip_through_json() {
        let mut fields = FieldMap::new();
        fields.insert("q".into(), "{{when}}".into());
        let steps = vec![
            StepNode::new(StepSpec::Query {
                query: "lookup".into(),
                prefix: "ctx".into(),
                fields,
            })
            .with_max_retries(2),
            filter(StepPredicate::Equals {
                key: "ctx.hit".into(),
                value: "yes".into(),
            })
            .after(&[0])
            .on_failure(StepFailurePolicy::Halt),
            action("notify").after(&[1]),
        ];
        let json = serde_json::to_string(&steps).expect("steps serialize");
        let back: Vec<StepNode> = serde_json::from_str(&json).expect("steps parse");
        assert_eq!(back, steps);
        // Defaults materialize for omitted optional fields.
        let minimal: StepNode =
            serde_json::from_str(r#"{"spec":{"Action":{"action":"a"}}}"#).expect("minimal parses");
        assert_eq!(minimal, action("a"));
    }

    #[test]
    fn kinds_and_names_line_up() {
        assert_eq!(action("a").spec.kind(), StepKind::Action);
        assert_eq!(filter(StepPredicate::Always).spec.kind(), StepKind::Filter);
        assert_eq!(StepKind::Query.name(), "query");
        assert_eq!(StepKind::Transform.name(), "transform");
    }
}
