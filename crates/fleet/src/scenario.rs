//! Declarative fleet scenarios.
//!
//! [`ScenarioSpec`] unifies the workload-shaping knobs that grew up as
//! individual `ifttt-lab fleet` flags — poll policy, chaos profile, churn
//! profile, attribution, realtime share, multi-step share — into one
//! serializable document accepted as `--scenario <file.json>`. Every field
//! is optional: an absent field leaves the [`FleetConfig`] default (or the
//! explicit CLI flag, since flags are applied *after* the spec and win).
//!
//! A spec is applied where it is read and not kept: what the distributed
//! coordinator's ConfigPush carries to `fleet-shard` workers is the
//! resolved [`FleetConfig`], which is all a worker needs to rebuild its
//! cells. The CLI parses its flags into a second spec and applies it after
//! the file's, so the two sources share [`ScenarioSpec::apply_to`] and its
//! rules (shares clamped, drain re-derived from a policy).
//!
//! A member the spec does not know is an error, not a default: a typo in
//! a scenario file must not run the stock configuration and exit 0.
//!
//! ```json
//! { "policy": "zapier", "chaos": "mild", "churn": "accelerated",
//!   "attribution": true, "realtime_share": 0.25, "multi_step_share": 0.1 }
//! ```

use crate::runner::{ChaosProfile, ChurnProfile, FleetConfig, FleetPolicy};
use serde::{Deserialize, Serialize};

/// A partial fleet configuration: only the fields present in the JSON are
/// applied. See the module docs for precedence.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Poll policy (`ifttt` / `fast` / `smart` / `zapier`).
    #[serde(default)]
    pub policy: Option<FleetPolicy>,
    /// Fault-injection profile (`off` / `mild` / `harsh`).
    #[serde(default)]
    pub chaos: Option<ChaosProfile>,
    /// Ecosystem-churn profile (`off` / `weekly` / `accelerated`).
    #[serde(default)]
    pub churn: Option<ChurnProfile>,
    /// Record per-stage T2A attribution.
    #[serde(default)]
    pub attribution: Option<bool>,
    /// Fraction of cells with a realtime-capable partner service.
    #[serde(default)]
    pub realtime_share: Option<f64>,
    /// Fraction of catalog applets carrying a multi-step DAG.
    #[serde(default)]
    pub multi_step_share: Option<f64>,
}

impl ScenarioSpec {
    /// Parse a spec from JSON text (the `--scenario <file.json>` payload).
    pub fn from_json(text: &str) -> Result<ScenarioSpec, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Overwrite `cfg` with every field this spec sets. Shares are clamped
    /// exactly like the corresponding builders, so a spec and a flag can
    /// never disagree about range handling.
    pub fn apply_to(&self, cfg: &mut FleetConfig) {
        if let Some(policy) = self.policy {
            cfg.policy = policy;
            cfg.drain_secs = policy.default_drain_secs();
        }
        if let Some(chaos) = self.chaos {
            cfg.chaos = chaos;
        }
        if let Some(churn) = self.churn {
            cfg.churn = churn;
        }
        if let Some(attribution) = self.attribution {
            cfg.attribution = attribution;
        }
        if let Some(share) = self.realtime_share {
            cfg.realtime_share = share.clamp(0.0, 1.0);
        }
        if let Some(share) = self.multi_step_share {
            cfg.multi_step_share = share.clamp(0.0, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_a_no_op() {
        let base = FleetConfig::new(1_000, 2, FleetPolicy::IftttLike);
        let mut cfg = base.clone();
        ScenarioSpec::default().apply_to(&mut cfg);
        assert_eq!(format!("{base:?}"), format!("{cfg:?}"));
    }

    #[test]
    fn spec_fields_overwrite_and_absent_fields_do_not() {
        let spec = ScenarioSpec::from_json(
            r#"{ "policy": "zapier", "churn": "weekly", "realtime_share": 1.5 }"#,
        )
        .expect("spec parses");
        let mut cfg = FleetConfig::new(1_000, 2, FleetPolicy::Fast)
            .with_chaos(ChaosProfile::Mild)
            .with_multi_step_share(0.07);
        spec.apply_to(&mut cfg);
        assert_eq!(cfg.policy, FleetPolicy::Zapier);
        assert_eq!(cfg.churn, ChurnProfile::Weekly);
        assert_eq!(cfg.realtime_share, 1.0); // clamped like the builder
        assert_eq!(cfg.chaos, ChaosProfile::Mild); // absent → untouched
        assert_eq!(cfg.multi_step_share, 0.07);
    }

    #[test]
    fn with_scenario_applies_and_keeps_the_spec_verbatim() {
        let spec = ScenarioSpec {
            churn: Some(ChurnProfile::Accelerated),
            attribution: Some(true),
            ..Default::default()
        };
        let cfg = FleetConfig::new(500, 1, FleetPolicy::Fast).with_scenario(spec);
        assert_eq!(cfg.churn, ChurnProfile::Accelerated);
        assert!(cfg.attribution);
        // What crosses the wire is the resolved config.
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FleetConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
    }

    #[test]
    fn scenario_policy_equals_constructor_policy() {
        // A policy set through a spec must yield the exact config that
        // passing the same policy to the constructor yields — drain
        // included. (Regression: apply_to once left the constructor
        // policy's drain horizon behind.)
        let spec = ScenarioSpec::from_json(r#"{ "policy": "fast" }"#).unwrap();
        let mut from_spec = FleetConfig::new(1_000, 2, FleetPolicy::IftttLike);
        spec.apply_to(&mut from_spec);
        let direct = FleetConfig::new(1_000, 2, FleetPolicy::Fast);
        assert_eq!(format!("{from_spec:?}"), format!("{direct:?}"));
    }

    #[test]
    fn bad_profile_names_are_rejected() {
        for bad in [
            r#"{ "churn": "sometimes" }"#,
            r#"{ "policy": 3 }"#,
            // A misspelled key must not parse to the empty spec and run stock config.
            r#"{ "chaoss": "harsh" }"#,
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "{bad}");
        }
    }
}
