//! The benchmark's two declarations and the fleet configuration each
//! workload resolves to.
//!
//! `BENCHMARK.json` (repository root) is the driver's contract: command,
//! workload names, metric names with unit, direction and bound. Its key
//! set is fixed, so everything else a workload needs — population, worker
//! count, scenario, pinned digests, the common scale factor, and which
//! end-to-end metric each per-layer metric is predicted to move — lives in
//! `benchmark/spec.json`. Loading checks that the two agree.

use fleet::{FleetConfig, FleetPolicy, ScenarioSpec};
use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Seed at which every workload's digest is pinned.
pub const PINNED_SEED: u64 = 2017;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen; end-to-end only.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// One workload of `spec.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Workload {
    pub name: String,
    /// Users per round, after the common scale factor.
    pub users: u64,
    /// Users per round under `--smoke`.
    pub smoke_users: u64,
    /// `fleet-shard` worker processes; 0 runs in-process on one shard.
    pub workers: usize,
    pub scenario: ScenarioSpec,
    /// `FleetReport::digest` at [`PINNED_SEED`], full and smoke size.
    pub digest: String,
    pub smoke_digest: String,
}

/// Which end-to-end metric a per-layer metric is predicted to move.
#[derive(Debug, Clone, Deserialize)]
pub struct Prediction {
    pub name: String,
    pub unit: String,
    pub moves: String,
}

#[derive(Debug, Clone, Deserialize)]
struct SpecFile {
    scale: f64,
    workloads: Vec<Workload>,
    per_layer: Vec<Prediction>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub contract: Contract,
    /// Common factor applied to the issue's populations so that the
    /// driver's run budget holds.
    pub scale: f64,
    pub workloads: Vec<Workload>,
    pub predictions: Vec<Prediction>,
}

/// A name is 1–64 letters, digits, `_`, `.` and `-`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn object<'a>(
    v: &'a Value,
    what: &str,
    keys: &[&str],
) -> Result<&'a BTreeMap<String, Value>, String> {
    let map = v
        .as_object()
        .ok_or_else(|| format!("{what}: expected an object"))?;
    let mut found: Vec<&str> = map.keys().map(String::as_str).collect();
    let mut wanted = keys.to_vec();
    found.sort_unstable();
    wanted.sort_unstable();
    if found != wanted {
        return Err(format!(
            "{what}: keys {found:?}, expected exactly {wanted:?}"
        ));
    }
    Ok(map)
}

fn string(v: &Value, what: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{what}: expected a string"))
}

fn array<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], String> {
    v.as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| format!("{what}: expected an array"))
}

fn metric_defs(v: &Value, what: &str, bounded: bool) -> Result<Vec<MetricDef>, String> {
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    let mut out = Vec::new();
    for m in array(v, what)? {
        let map = object(m, what, keys)?;
        let name = string(&map["name"], what)?;
        let unit = string(&map["unit"], &name)?;
        if !valid_name(&name) {
            return Err(format!("{what}: bad metric name {name:?}"));
        }
        if !valid_unit(&unit) {
            return Err(format!("{name}: bad unit {unit:?}"));
        }
        let higher_is_better = match map["better"].as_str() {
            Some("higher") => true,
            Some("lower") => false,
            _ => return Err(format!("{name}: `better` is \"higher\" or \"lower\"")),
        };
        let bound = if bounded {
            let b = map["bound"]
                .as_f64()
                .filter(|b| *b > 0.0 && *b <= 0.25)
                .ok_or_else(|| format!("{name}: bound must be in (0, 0.25]"))?;
            Some(b)
        } else {
            None
        };
        out.push(MetricDef {
            name,
            unit,
            higher_is_better,
            bound,
        });
    }
    Ok(out)
}

fn no_duplicates<'a>(names: impl Iterator<Item = &'a str>, what: &str) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for n in names {
        if !seen.insert(n) {
            return Err(format!("{what}: {n:?} is used twice"));
        }
    }
    Ok(())
}

impl Contract {
    pub fn parse(text: &str) -> Result<Contract, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let top = object(
            &v,
            "BENCHMARK.json",
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
        )?;
        let run_seconds = top["run_seconds"]
            .as_u64()
            .filter(|s| (1..=60).contains(s))
            .ok_or("run_seconds: expected a whole number from 1 to 60")?;
        let mut workloads = Vec::new();
        for w in array(&top["workloads"], "workloads")? {
            let map = object(w, "workloads", &["name", "why"])?;
            let name = string(&map["name"], "workloads")?;
            if !valid_name(&name) {
                return Err(format!("workloads: bad name {name:?}"));
            }
            workloads.push(name);
        }
        let end_to_end = metric_defs(&top["end_to_end"], "end_to_end", true)?;
        let per_layer = metric_defs(&top["per_layer"], "per_layer", false)?;
        no_duplicates(
            workloads
                .iter()
                .map(String::as_str)
                .chain(end_to_end.iter().map(|m| m.name.as_str()))
                .chain(per_layer.iter().map(|m| m.name.as_str())),
            "BENCHMARK.json",
        )?;
        if !end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s")
        {
            return Err("end_to_end: `setup_s` in `s` is required".into());
        }
        Ok(Contract {
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// The definition of metric `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

impl Spec {
    /// Load `BENCHMARK.json` and `benchmark/spec.json` below `root`.
    pub fn load(root: &Path) -> Result<Spec, String> {
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel))
                .map_err(|e| format!("{}: {e}", root.join(rel).display()))
        };
        Spec::parse(&read("BENCHMARK.json")?, &read("benchmark/spec.json")?)
    }

    pub fn parse(contract_text: &str, spec_text: &str) -> Result<Spec, String> {
        let contract = Contract::parse(contract_text)?;
        let file: SpecFile =
            serde_json::from_str(spec_text).map_err(|e| format!("spec.json: {e}"))?;
        let names: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
        if names != contract.workloads {
            return Err(format!(
                "spec.json workloads {names:?} differ from BENCHMARK.json's {:?}",
                contract.workloads
            ));
        }
        let declared: Vec<(&str, &str)> = contract
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        let predicted: Vec<(&str, &str)> = file
            .per_layer
            .iter()
            .map(|p| (p.name.as_str(), p.unit.as_str()))
            .collect();
        if declared != predicted {
            let odd = declared
                .iter()
                .zip(&predicted)
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("{a:?} vs {b:?}"))
                .unwrap_or_else(|| format!("{} vs {} entries", declared.len(), predicted.len()));
            return Err(format!(
                "spec.json per_layer differs from BENCHMARK.json's: {odd}"
            ));
        }
        if !(file.scale > 0.0 && file.scale <= 1.0) {
            return Err("spec.json: scale must be in (0, 1]".into());
        }
        Ok(Spec {
            contract,
            scale: file.scale,
            workloads: file.workloads,
            predictions: file.per_layer,
        })
    }

    pub fn workload(&self, name: &str) -> Result<&Workload, String> {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| {
                format!(
                    "unknown workload {name:?}; known: {}",
                    self.contract.workloads.join(", ")
                )
            })
    }
}

impl Workload {
    /// The configuration `ifttt-lab fleet --scenario` would resolve for
    /// this workload: stock defaults, the scenario overlay, and the drain
    /// stretch chaos runs get so retry chains finish inside the horizon.
    pub fn fleet_config(&self, seed: u64, smoke: bool) -> FleetConfig {
        let users = if smoke { self.smoke_users } else { self.users };
        let mut cfg = FleetConfig::new(users, 1, FleetPolicy::IftttLike)
            .with_seed(seed)
            .with_scenario(self.scenario.clone());
        if cfg.chaos.enabled() {
            cfg.drain_secs = cfg.drain_secs.max(120.0);
        }
        cfg
    }

    /// The digest pinned for `seed`, if any.
    pub fn pinned_digest(&self, seed: u64, smoke: bool) -> Option<&str> {
        let pinned = if smoke {
            &self.smoke_digest
        } else {
            &self.digest
        };
        (seed == PINNED_SEED).then_some(pinned.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::{ChaosProfile, ChurnProfile};

    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    const CONTRACT: &str = r#"{
        "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 5,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "l.x_ns", "unit": "ns", "better": "lower"}]
    }"#;
    const SPEC: &str = r#"{
        "scale": 0.5,
        "workloads": [
          {"name": "a", "users": 100, "smoke_users": 10, "workers": 0,
           "scenario": {"policy": "fast"}, "digest": "00", "smoke_digest": "01"},
          {"name": "b", "users": 100, "smoke_users": 10, "workers": 2,
           "scenario": {"chaos": "harsh", "churn": "accelerated"},
           "digest": "02", "smoke_digest": "03"}
        ],
        "per_layer": [{"name": "l.x_ns", "unit": "ns", "moves": "a/setup_s"}]
    }"#;

    #[test]
    fn the_repository_declarations_load_and_agree() {
        let spec = Spec::load(&repo_root()).expect("BENCHMARK.json and spec.json load");
        assert_eq!(spec.workloads.len(), 4);
        assert!(spec.contract.end_to_end.len() <= 16);
        assert!(spec.contract.per_layer.len() <= 128);
        for m in &spec.contract.end_to_end {
            assert!(m.bound.is_some(), "{} has a bound", m.name);
        }
    }

    #[test]
    fn a_consistent_pair_parses() {
        let spec = Spec::parse(CONTRACT, SPEC).unwrap();
        assert_eq!(spec.scale, 0.5);
        assert_eq!(spec.workload("b").unwrap().workers, 2);
        assert!(spec.contract.metric("l.x_ns").is_some());
        assert!(spec.contract.metric("setup_s").unwrap().bound.is_some());
    }

    #[test]
    fn unknown_workload_names_are_rejected() {
        let spec = Spec::parse(CONTRACT, SPEC).unwrap();
        let err = spec.workload("c").unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        // A workload spec.json has and BENCHMARK.json lacks.
        let extra = SPEC.replace(r#""name": "b""#, r#""name": "c""#);
        assert!(Spec::parse(CONTRACT, &extra)
            .unwrap_err()
            .contains("differ"));
    }

    #[test]
    fn unknown_metric_names_are_rejected() {
        let renamed = SPEC.replace("l.x_ns", "l.y_ns");
        let err = Spec::parse(CONTRACT, &renamed).unwrap_err();
        assert!(err.contains("per_layer differs"), "{err}");
        let unit = SPEC.replace(r#""unit": "ns""#, r#""unit": "us""#);
        assert!(Spec::parse(CONTRACT, &unit).is_err());
    }

    #[test]
    fn names_are_letters_digits_and_three_marks() {
        for good in [
            "a",
            "steady_ifttt",
            "json.poll_req.ser_ns",
            "9-x",
            "A.b_c-d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_a", ".a", "a b", "a/b", "é", "a%", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        let bad_name = CONTRACT.replace("l.x_ns", "l x");
        assert!(Contract::parse(&bad_name)
            .unwrap_err()
            .contains("bad metric name"));
    }

    #[test]
    fn the_contract_key_set_is_exact() {
        let extra = CONTRACT.replace(r#""run_seconds": 5,"#, r#""run_seconds": 5, "scale": 1,"#);
        assert!(Contract::parse(&extra)
            .unwrap_err()
            .contains("expected exactly"));
        let extra_in_workload = CONTRACT.replace(r#""why": "x""#, r#""why": "x", "users": 1"#);
        assert!(Contract::parse(&extra_in_workload).is_err());
        let wide = CONTRACT.replace("0.25", "0.3");
        assert!(Contract::parse(&wide).unwrap_err().contains("bound"));
        let twice = CONTRACT.replace(r#""name": "b""#, r#""name": "a""#);
        assert!(Contract::parse(&twice).unwrap_err().contains("twice"));
        let no_setup = CONTRACT.replace("setup_s", "other_s");
        assert!(Contract::parse(&no_setup).unwrap_err().contains("setup_s"));
    }

    #[test]
    fn a_workload_resolves_like_the_cli_scenario_path() {
        let spec = Spec::parse(CONTRACT, SPEC).unwrap();
        let a = spec.workload("a").unwrap().fleet_config(7, false);
        assert_eq!((a.users, a.shards, a.master_seed), (100, 1, 7));
        assert_eq!(a.policy, FleetPolicy::Fast);
        assert_eq!(a.drain_secs, FleetPolicy::Fast.default_drain_secs());
        let b = spec.workload("b").unwrap().fleet_config(7, true);
        assert_eq!(b.users, 10);
        assert_eq!(b.chaos, ChaosProfile::Harsh);
        assert_eq!(b.churn, ChurnProfile::Accelerated);
        assert!(b.drain_secs >= 120.0);
        assert_eq!(
            spec.workload("a").unwrap().pinned_digest(2017, true),
            Some("01")
        );
        assert_eq!(spec.workload("a").unwrap().pinned_digest(2018, false), None);
    }
}
