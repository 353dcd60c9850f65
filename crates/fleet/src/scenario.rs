//! Declarative fleet scenarios.
//!
//! [`ScenarioSpec`] unifies the workload-shaping knobs that grew up as
//! individual `ifttt-lab fleet` flags into one document accepted as
//! `--scenario <file.json>`: its keys are the `scenario` rows of the options
//! table ([`crate::options`]), which generates the struct, its range check
//! and [`ScenarioSpec::apply_to`]. Every field is optional: an absent field
//! leaves the [`FleetConfig`] default, or the typed flag's value — the CLI
//! fills a second spec from its flags, lets it win field by field
//! ([`ScenarioSpec::or`]) and applies the result once.
//!
//! A spec is applied where it is read and not kept: what the distributed
//! coordinator's ConfigPush carries to `fleet-shard` workers is the
//! resolved [`FleetConfig`], which is all a worker needs to rebuild its
//! cells.
//!
//! Text is checked where it enters, by the row's own range, whichever
//! source it came from: a key no row owns, or a value outside its row's
//! range, is an error naming the key — a typo in a scenario file must not
//! run the stock configuration and exit 0. Specs built in code are pulled
//! into range instead, like the builders.
//!
//! ```json
//! { "policy": "zapier", "chaos": "mild", "churn": "accelerated",
//!   "attribution": true, "realtime_share": 0.25, "multi_step_share": 0.1 }
//! ```

pub use crate::options::ScenarioSpec;
use crate::runner::FleetConfig;

/// Seconds a run with fault injection drains at least: room for retries
/// and breaker recovery to finish after the last activation window before
/// stragglers count as lost.
const CHAOS_DRAIN_FLOOR_SECS: f64 = 120.0;

impl ScenarioSpec {
    /// Parse a spec from JSON text (the `--scenario <file.json>` payload).
    /// A key no row owns, or a value outside its row's range, is an error
    /// naming the key.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, serde_json::Error> {
        serde_json::from_str::<ScenarioSpec>(text)?
            .in_range()
            .map_err(serde_json::Error::custom)
    }
}

/// The two rules that derive the drain horizon from what a spec sets, run
/// by [`ScenarioSpec::apply_to`] after the fields are in: a policy brings
/// its own default drain, and a live chaos profile raises the drain to the
/// floor. Order matters — the floor is judged against the final policy's
/// drain — which is why sources are merged first and applied once.
pub(crate) fn settle_drain(spec: &ScenarioSpec, cfg: &mut FleetConfig) {
    if let Some(policy) = spec.policy {
        cfg.drain_secs = policy.default_drain_secs();
    }
    if spec.chaos.is_some_and(|chaos| chaos.enabled()) {
        cfg.drain_secs = cfg.drain_secs.max(CHAOS_DRAIN_FLOOR_SECS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ChaosProfile, ChurnProfile, FleetPolicy};

    #[test]
    fn empty_spec_is_a_no_op() {
        let base = FleetConfig::new(1_000, 2, FleetPolicy::IftttLike);
        let mut cfg = base.clone();
        ScenarioSpec::default().apply_to(&mut cfg);
        assert_eq!(format!("{base:?}"), format!("{cfg:?}"));
    }

    #[test]
    fn spec_fields_overwrite_and_absent_fields_do_not() {
        let mut spec = ScenarioSpec::from_json(
            r#"{ "policy": "zapier", "churn": "weekly", "realtime_share": 1.0 }"#,
        )
        .expect("spec parses");
        let base = FleetConfig::new(1_000, 2, FleetPolicy::Fast)
            .with_chaos(ChaosProfile::Mild)
            .with_multi_step_share(0.07);
        let mut cfg = base.clone();
        spec.apply_to(&mut cfg);
        assert_eq!(cfg.policy, FleetPolicy::Zapier);
        assert_eq!(cfg.churn, ChurnProfile::Weekly);
        assert_eq!(cfg.realtime_share, 1.0);
        assert_eq!(cfg.chaos, ChaosProfile::Mild); // absent → untouched
        assert_eq!(cfg.multi_step_share, 0.07);
        assert_eq!(cfg.drain_secs, 1000.0); // the spec set no chaos: no floor

        // Out of range: text is refused, naming the key (a flag is refused
        // the same way); a spec built in code clamps like the builder.
        let err = ScenarioSpec::from_json(r#"{ "realtime_share": 1.5 }"#).unwrap_err();
        assert!(
            err.to_string().contains("`realtime_share` needs F"),
            "{err}"
        );
        spec.realtime_share = Some(1.5);
        let mut cfg = base;
        spec.apply_to(&mut cfg);
        assert_eq!(cfg.realtime_share, 1.0);
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
