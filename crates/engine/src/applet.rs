//! Applets: the "if A then B" automation rules.

use crate::conditions::Condition;
use serde::{Deserialize, Serialize};
use tap_protocol::{ActionSlug, FieldMap, QuerySlug, ServiceSlug, StepNode, TriggerSlug, UserId};

/// Unique applet identifier (IFTTT used six-digit numeric IDs, which is how
/// the paper's crawler enumerated the public applet space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AppletId(pub u32);

/// The trigger half of an applet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriggerRef {
    pub service: ServiceSlug,
    pub trigger: TriggerSlug,
    #[serde(default)]
    pub fields: FieldMap,
}

/// The action half of an applet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionRef {
    pub service: ServiceSlug,
    pub action: ActionSlug,
    /// Field values; `{{ingredient}}` placeholders are substituted from the
    /// trigger event at execution time.
    #[serde(default)]
    pub fields: FieldMap,
}

/// A read-only query the engine runs before dispatching the action (the
/// third primitive of IFTTT's programming model; the paper lists "queries
/// and conditions" as the features to study next).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRef {
    pub service: ServiceSlug,
    pub query: QuerySlug,
    /// Query field values (`{{ingredient}}` placeholders allowed).
    #[serde(default)]
    pub fields: FieldMap,
    /// Result keys are merged into the event ingredients as
    /// `<prefix>.<key>`, so conditions and action fields can reference them.
    pub prefix: String,
}

/// A complete applet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Applet {
    pub id: AppletId,
    pub name: String,
    /// The user account the applet runs under.
    pub owner: UserId,
    pub trigger: TriggerRef,
    pub action: ActionRef,
    /// Install count — the popularity measure of §3 (and the input to the
    /// smart-polling policy of §6).
    pub add_count: u64,
    /// Optional execution condition over trigger-event ingredients (the
    /// "queries and conditions" feature the paper lists as future work).
    /// Compiles to a filter node ahead of the action.
    #[serde(default)]
    pub condition: Condition,
    /// Read-only queries resolved before condition evaluation and action
    /// dispatch; their results join the ingredients under their prefixes.
    /// Each compiles to a query node on its own service.
    #[serde(default)]
    pub queries: Vec<QueryRef>,
    /// Multi-step execution DAG (Zapier-style). Empty for classic
    /// applets, whose `action`/`condition`/`queries` fields are compiled
    /// into the plan instead. When non-empty the steps *are* the plan —
    /// their query/action nodes run against `action.service` — and
    /// `condition` and `queries` must be left at their defaults: an
    /// applet carrying both spellings is rejected at install
    /// (`InstallError::InvalidSteps`). A single default action node is
    /// the same plan the classic fields compile to.
    #[serde(default)]
    pub steps: Vec<StepNode>,
}

impl Applet {
    /// Build an applet with the given id, owner and halves.
    pub fn new(
        id: AppletId,
        name: impl Into<String>,
        owner: UserId,
        trigger: TriggerRef,
        action: ActionRef,
    ) -> Self {
        Applet {
            id,
            name: name.into(),
            owner,
            trigger,
            action,
            add_count: 0,
            condition: Condition::Always,
            queries: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Attach an execution condition.
    pub fn with_condition(mut self, condition: Condition) -> Self {
        self.condition = condition;
        self
    }

    /// Attach a pre-dispatch query.
    pub fn with_query(mut self, query: QueryRef) -> Self {
        self.queries.push(query);
        self
    }

    /// Attach a multi-step execution DAG (validated at install time).
    pub fn with_steps(mut self, steps: Vec<StepNode>) -> Self {
        self.steps = steps;
        self
    }
}

/// Substitute `{{key}}` placeholders in action fields from trigger-event
/// ingredients. Unknown keys substitute to the empty string, matching the
/// forgiving behaviour of production TAP engines.
pub fn substitute_fields(fields: &FieldMap, ingredients: &FieldMap) -> FieldMap {
    fields
        .iter()
        .map(|(k, v)| (k.clone(), substitute(v, ingredients)))
        .collect()
}

fn substitute(template: &str, ingredients: &FieldMap) -> String {
    let mut out = String::with_capacity(template.len());
    let mut rest = template;
    while let Some(start) = rest.find("{{") {
        out.push_str(&rest[..start]);
        let after = &rest[start + 2..];
        match after.find("}}") {
            Some(end) => {
                let key = after[..end].trim();
                if let Some(v) = ingredients.get(key) {
                    out.push_str(v);
                }
                rest = &after[end + 2..];
            }
            None => {
                // Unclosed placeholder: emit literally.
                out.push_str(&rest[start..]);
                rest = "";
            }
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fm(pairs: &[(&str, &str)]) -> FieldMap {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn substitution_replaces_known_keys() {
        let fields = fm(&[("row", "{{song}}|||{{artist}}")]);
        let ing = fm(&[("song", "Yesterday"), ("artist", "Beatles")]);
        let out = substitute_fields(&fields, &ing);
        assert_eq!(out["row"], "Yesterday|||Beatles");
    }

    #[test]
    fn unknown_keys_become_empty() {
        let fields = fm(&[("subject", "new: {{nope}}!")]);
        let out = substitute_fields(&fields, &FieldMap::new());
        assert_eq!(out["subject"], "new: !");
    }

    #[test]
    fn no_placeholders_pass_through() {
        let fields = fm(&[("color", "blue")]);
        let out = substitute_fields(&fields, &fm(&[("x", "y")]));
        assert_eq!(out["color"], "blue");
    }

    #[test]
    fn unclosed_placeholder_is_literal() {
        let fields = fm(&[("a", "oops {{broken")]);
        let out = substitute_fields(&fields, &FieldMap::new());
        assert_eq!(out["a"], "oops {{broken");
    }

    #[test]
    fn whitespace_in_keys_is_trimmed() {
        let fields = fm(&[("a", "{{ song }}")]);
        let out = substitute_fields(&fields, &fm(&[("song", "x")]));
        assert_eq!(out["a"], "x");
    }

    #[test]
    fn applet_serde_roundtrip() {
        let a = Applet::new(
            AppletId(42),
            "test",
            UserId::new("u"),
            TriggerRef {
                service: ServiceSlug::new("wemo"),
                trigger: TriggerSlug::new("switch_activated"),
                fields: FieldMap::new(),
            },
            ActionRef {
                service: ServiceSlug::new("philips_hue"),
                action: ActionSlug::new("turn_on_lights"),
                fields: FieldMap::new(),
            },
        );
        let json = serde_json::to_string(&a).unwrap();
        let back: Applet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
