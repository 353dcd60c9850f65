//! `harness compare A.json B.json`: is B worse than A by more than the
//! benchmark's own bounds?
//!
//! One row per (workload, end-to-end metric): both medians, each side's
//! quartile spread, the bound, and a verdict. Simulated values and the
//! `mem.*` counts repeat exactly on a deterministic simulator, so they
//! are compared with bound 0.

use crate::spec::{Contract, MetricDef};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Better,
    Regression,
    /// A side's own spread is wider than the bound, so the bound cannot
    /// be resolved — unless every run of B beats every run of A.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }

    pub fn passes(self) -> bool {
        matches!(self, Verdict::WithinBound | Verdict::Better)
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge B's runs of one metric against A's.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let bound = def.bound.unwrap_or(0.0);
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    // Positive when B is worse, as a share of A's median.
    let worse_by = if def.higher_is_better {
        (median_a - median_b) / median_a
    } else {
        (median_b - median_a) / median_a
    };
    let beats = |x: f64, y: f64| {
        if def.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let every_b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let (spread_a, spread_b) = (stats::spread(a), stats::spread(b));
    let too_wide = [spread_a, spread_b]
        .iter()
        .any(|s| s.is_some_and(|s| s > bound));
    let verdict = if too_wide {
        if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regression
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Row {
        workload: String::new(),
        metric: def.name.clone(),
        median_a,
        median_b,
        spread_a,
        spread_b,
        bound,
        verdict,
    }
}

/// `workload → metric → one value per run`, and `(workload, seed) → sim`.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;
type Sims = BTreeMap<(String, u64), Value>;

fn collect(doc: &Value) -> Result<(Values, Sims), String> {
    let runs = doc["runs"].as_array().ok_or("results file has no `runs`")?;
    let mut values = Values::new();
    let mut sims = Sims::new();
    for run in runs {
        let workload = run["workload"].as_str().ok_or("run without workload")?;
        let seed = run["seed"].as_u64().ok_or("run without seed")?;
        let metrics = run["metrics"].as_object().ok_or("run without metrics")?;
        for (name, m) in metrics {
            let v = m["value"].as_f64().ok_or("metric without value")?;
            values
                .entry(workload.to_owned())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
        sims.insert((workload.to_owned(), seed), run["sim"].clone());
    }
    Ok((values, sims))
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Exact mismatches: simulated values and `mem.*` counts.
    pub exact_mismatches: Vec<String>,
}

impl Comparison {
    pub fn passes(&self) -> bool {
        self.exact_mismatches.is_empty() && self.rows.iter().all(|r| r.verdict.passes())
    }

    pub fn render(&self) -> String {
        let pct =
            |s: Option<f64>| s.map_or("   n/a".to_string(), |s| format!("{:>5.1}%", s * 100.0));
        let mut out = format!(
            "{:<14} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict\n",
            "workload", "metric", "median A", "median B", "B vs A", "IQR A", "IQR B", "bound"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:<18} {:>14.6} {:>14.6} {:>+7.1}% {} {} {:>5.1}%  {}\n",
                r.workload,
                r.metric,
                r.median_a,
                r.median_b,
                (r.median_b - r.median_a) / r.median_a * 100.0,
                pct(r.spread_a),
                pct(r.spread_b),
                r.bound * 100.0,
                r.verdict.label(),
            ));
        }
        if self.exact_mismatches.is_empty() {
            out.push_str("simulated values and mem.* counts: identical\n");
        }
        for m in &self.exact_mismatches {
            out.push_str(&format!("MISMATCH (bound 0): {m}\n"));
        }
        out
    }
}

pub fn compare(contract: &Contract, a: &Value, b: &Value) -> Result<Comparison, String> {
    let (values_a, sims_a) = collect(a)?;
    let (values_b, sims_b) = collect(b)?;
    let mut rows = Vec::new();
    let mut exact_mismatches = Vec::new();
    for (workload, metrics_a) in &values_a {
        let Some(metrics_b) = values_b.get(workload) else {
            exact_mismatches.push(format!("{workload}: missing from B"));
            continue;
        };
        for (name, va) in metrics_a {
            let Some(vb) = metrics_b.get(name) else {
                exact_mismatches.push(format!("{workload}/{name}: missing from B"));
                continue;
            };
            let def = contract
                .metric(name)
                .ok_or_else(|| format!("unknown metric {name:?} in results"))?;
            if def.bound.is_some() {
                let mut row = judge(def, va, vb);
                row.workload = workload.clone();
                rows.push(row);
            } else if (name.starts_with("mem.allocs") || name.starts_with("mem.bytes")) && va != vb
            {
                exact_mismatches.push(format!("{workload}/{name}: {va:?} vs {vb:?}"));
            }
        }
    }
    for (key, sim_a) in &sims_a {
        match sims_b.get(key) {
            Some(sim_b) if sim_b == sim_a => {}
            Some(sim_b) => exact_mismatches.push(format!(
                "{} seed {}: sim block differs (digest {} vs {})",
                key.0, key.1, sim_a["digest"], sim_b["digest"]
            )),
            None => exact_mismatches.push(format!("{} seed {}: missing from B", key.0, key.1)),
        }
    }
    Ok(Comparison {
        rows,
        exact_mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn def(higher_is_better: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    const STEADY: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    #[test]
    fn equal_sides_are_within_bound() {
        assert_eq!(
            judge(&def(false, 0.05), &STEADY, &STEADY).verdict,
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_lower_is_better_metric_that_rose_past_the_bound_regressed() {
        let worse: Vec<f64> = STEADY.iter().map(|v| v * 1.08).collect();
        let row = judge(&def(false, 0.05), &STEADY, &worse);
        assert_eq!(row.verdict, Verdict::Regression);
        // The same move on a higher-is-better metric is an improvement.
        assert_eq!(
            judge(&def(true, 0.05), &STEADY, &worse).verdict,
            Verdict::Better
        );
        // And a fall is the regression there.
        let lower: Vec<f64> = STEADY.iter().map(|v| v * 0.9).collect();
        assert_eq!(
            judge(&def(true, 0.05), &STEADY, &lower).verdict,
            Verdict::Regression
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.0];
        let row = judge(&def(false, 0.05), &noisy, &STEADY);
        assert_eq!(row.verdict, Verdict::Unresolved);
        assert!(row.spread_a.unwrap() > 0.05);
        // …unless every run of B beats every run of A.
        let fast = [5.0, 5.1, 4.9, 5.05, 4.95];
        assert_eq!(
            judge(&def(false, 0.05), &noisy, &fast).verdict,
            Verdict::Better
        );
    }

    #[test]
    fn single_runs_have_no_spread_and_are_judged_on_medians() {
        let row = judge(&def(false, 0.05), &[10.0], &[10.2]);
        assert_eq!((row.spread_a, row.verdict), (None, Verdict::WithinBound));
        assert_eq!(
            judge(&def(false, 0.05), &[10.0], &[11.0]).verdict,
            Verdict::Regression
        );
    }

    fn results(wall: f64, digest: &str, allocs: f64) -> Value {
        let run = |seed: u64, v: f64| {
            json!({
                "workload": "w", "seed": seed,
                "metrics": {
                    "run_wall_s": {"value": v, "unit": "s"},
                    "mem.allocs_per_event": {"value": allocs, "unit": "count"},
                },
                "sim": {"digest": digest, "sim_events": 5},
            })
        };
        json!({"runs": [run(1, wall), run(2, wall * 1.01), run(3, wall * 0.99)]})
    }

    fn contract() -> Contract {
        Contract::parse(
            r#"{"command": [], "paths": [], "run_seconds": 1,
                "workloads": [{"name": "w", "why": "x"}, {"name": "v", "why": "y"}],
                "end_to_end": [
                  {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                  {"name": "run_wall_s", "unit": "s", "better": "lower", "bound": 0.05}],
                "per_layer": [{"name": "mem.allocs_per_event", "unit": "count", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn files_compare_host_metrics_with_bounds_and_sim_values_exactly() {
        let c = contract();
        let same = compare(&c, &results(6.0, "aa", 9.0), &results(6.1, "aa", 9.0)).unwrap();
        assert!(same.passes(), "{}", same.render());
        assert_eq!(same.rows.len(), 1);
        assert!(same.render().contains("within bound"));

        let slower = compare(&c, &results(6.0, "aa", 9.0), &results(6.6, "aa", 9.0)).unwrap();
        assert!(!slower.passes());
        assert!(slower.render().contains("REGRESSION"));

        let forked = compare(&c, &results(6.0, "aa", 9.0), &results(6.0, "bb", 9.0)).unwrap();
        assert_eq!(forked.exact_mismatches.len(), 3, "one per seed");

        let leaky = compare(&c, &results(6.0, "aa", 9.0), &results(6.0, "aa", 9.5)).unwrap();
        assert!(leaky.render().contains("mem.allocs_per_event"));
        assert!(!leaky.passes());
    }
}
