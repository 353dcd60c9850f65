//! The benchmark driver: rounds in fresh child processes, one value per
//! metric over a run's rounds, `sim_check`, the traced ledger, and the
//! results file.
//!
//! One *run* is what one invocation of the contract command measures: as
//! many rounds of one workload as fit into `--seconds` (at least
//! [`MIN_ROUNDS`]), reduced to one value per metric by [`end_to_end`]. A
//! *set* is `--reps` runs of every selected workload at consecutive seeds.

use crate::kernels::{self, layers, Results};
use crate::ledger::{self, RunFacts};
use crate::round::RoundResult;
use crate::spec::{Spec, Workload};
use crate::{host, stats};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Rounds per run, whatever `--seconds` says: set-up is measured once per
/// round and reported as a median.
pub const MIN_ROUNDS: usize = 3;

#[derive(Debug, Clone)]
pub struct BenchOpts {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    pub reps: usize,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// One run's outcome: what the contract's last line says, and the raw
/// material behind it.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub loadavg_before: Option<f64>,
    pub rounds: Vec<RoundResult>,
    pub metrics: BTreeMap<String, f64>,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Workload-specific kernels × counts ÷ CPU; traced runs only.
    pub contributions: BTreeMap<String, f64>,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// A run that started on a busy host is flagged, not dropped.
    pub fn host_was_busy(&self) -> bool {
        self.loadavg_before
            .is_some_and(|l| l > host::nproc() as f64 - 0.5)
    }

    /// Simulated-time statistics: identical on every run of a seed, and
    /// untouched by a simulator-only speed-up.
    pub fn sim_block(&self) -> Value {
        let r = &self.rounds[0];
        let c = |k: &str| r.counters.get(k).copied().unwrap_or(0);
        let activations = c("activations").max(1) as f64;
        json!({
            "digest": r.digest.as_str(),
            "t2a_quartiles_s": r.t2a_quartiles_s.clone(),
            "paper_t2a_quartiles_s": [58.0, 84.0, 122.0],
            "delivery_ratio": c("delivered") as f64 / activations,
            "http_round_trips_per_activation":
                (c("polls_sent") - c("polls_coalesced")) as f64 / activations,
            "sim_events": c("sim_events"),
            "counters": r.counters.clone(),
        })
    }

    fn metrics_json(&self, spec: &Spec) -> Value {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec.contract.metric(name).map_or("", |m| m.unit.as_str());
                (name.clone(), json!({"value": *value, "unit": unit}))
            })
            .collect();
        Value::Object(metrics)
    }

    pub fn to_json(&self, spec: &Spec) -> Value {
        let rounds: Vec<Value> = self
            .rounds
            .iter()
            .map(|r| {
                json!({
                    "setup_s": r.setup_s,
                    "run_wall_s": r.run_wall_s,
                    "run_cpu_s": r.run_cpu_s,
                    "peak_rss_mb": r.peak_rss_mb,
                    "digest": r.digest.as_str(),
                })
            })
            .collect();
        json!({
            "workload": self.workload.as_str(),
            "seed": self.seed,
            "loadavg_before": self.loadavg_before,
            "host_was_busy": self.host_was_busy(),
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems.clone(),
            "metrics": self.metrics_json(spec),
            "contributions": self.contributions.clone(),
            "rounds": rounds,
            "sim": self.sim_block(),
        })
    }

    /// The contract's result line.
    pub fn contract_line(&self, spec: &Spec) -> String {
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_json(spec),
        })
        .to_string()
    }
}

/// Runs `harness` (or `harness-alloc`) children next to this executable.
struct Children {
    dir: PathBuf,
    smoke: bool,
}

impl Children {
    fn new(smoke: bool) -> Result<Children, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no directory")?
            .to_path_buf();
        Ok(Children { dir, smoke })
    }

    fn bin(&self, name: &str) -> PathBuf {
        self.dir
            .join(format!("{name}{}", std::env::consts::EXE_SUFFIX))
    }

    /// Run `bin sub --workload W --seed N [extra]` to completion and parse
    /// the JSON its last line holds.
    fn run<T: serde::de::DeserializeOwned>(
        &self,
        bin: &str,
        sub: &str,
        w: &Workload,
        seed: u64,
        extra: &[&str],
    ) -> Result<T, String> {
        let mut cmd = Command::new(self.bin(bin));
        cmd.arg(sub)
            .args(["--workload", &w.name, "--seed", &seed.to_string()])
            .args(extra)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if self.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("{}: {e}", self.bin(bin).display()))?;
        if !out.status.success() {
            return Err(format!("{bin} {sub} {} exited with {}", w.name, out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().ok_or("child printed nothing")?;
        serde_json::from_str(line).map_err(|e| format!("{bin} {sub} {}: {e}", w.name))
    }

    fn round(&self, w: &Workload, seed: u64, extra: &[&str]) -> Result<RoundResult, String> {
        self.run("harness", "round", w, seed, extra)
    }
}

/// Everything `sim_check` compares exactly.
fn sim_check(w: &Workload, seed: u64, smoke: bool, rounds: &[RoundResult]) -> Vec<String> {
    let mut problems = Vec::new();
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate() {
        for v in &r.violations {
            problems.push(format!("round {i}: {v}"));
        }
        if r.digest != first.digest || r.counters != first.counters {
            problems.push(format!(
                "round {i}: digest {} differs from round 0's {}",
                r.digest, first.digest
            ));
        }
    }
    if let Some(pinned) = w.pinned_digest(seed, smoke) {
        if first.digest != pinned {
            problems.push(format!(
                "digest {} differs from the one pinned at seed {seed}, {pinned}",
                first.digest
            ));
        }
    }
    problems
}

fn median_of(rounds: &[RoundResult], f: impl Fn(&RoundResult) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn fastest_of(rounds: &[RoundResult], f: impl Fn(&RoundResult) -> f64) -> f64 {
    rounds.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// One value per end-to-end metric from a run's rounds.
///
/// Every round of a run is the same work, and what a shared host does to
/// it — neighbours contending for the memory system — only ever adds
/// time, for seconds or for a minute at a stretch (README, *Host noise*).
/// The timed region is therefore read off the run's **fastest** round,
/// the one the host disturbed least; a median follows the host whenever
/// a slow phase covers half the run. Set-up (many per run, as the
/// driver's contract asks) and memory stay medians.
fn end_to_end(rounds: &[RoundResult]) -> BTreeMap<String, f64> {
    let events = |r: &RoundResult| r.counters.get("sim_events").copied().unwrap_or(0) as f64;
    let run_wall_s = fastest_of(rounds, |r| r.run_wall_s);
    BTreeMap::from([
        ("setup_s".to_string(), median_of(rounds, |r| r.setup_s)),
        ("run_wall_s".to_string(), run_wall_s),
        ("run_cpu_s".to_string(), fastest_of(rounds, |r| r.run_cpu_s)),
        (
            // Every round counts the same events, or `sim_check` fails the run.
            "sim_events_per_s".to_string(),
            events(&rounds[0]) / run_wall_s,
        ),
        (
            "peak_rss_mb".to_string(),
            median_of(rounds, |r| r.peak_rss_mb),
        ),
    ])
}

/// One untraced run: rounds until the time budget is used.
fn run_end_to_end(
    children: &Children,
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunRecord, String> {
    let loadavg_before = host::loadavg();
    let started = Instant::now();
    let mut rounds = Vec::new();
    let mut took = Vec::new();
    loop {
        let t0 = Instant::now();
        rounds.push(children.round(w, seed, &[])?);
        took.push(t0.elapsed().as_secs_f64());
        let enough = rounds.len() >= MIN_ROUNDS || children.smoke;
        // Stop when another round of typical length would overrun.
        if enough && started.elapsed().as_secs_f64() + stats::median(&took) > seconds {
            break;
        }
    }
    let problems = sim_check(w, seed, children.smoke, &rounds);
    Ok(RunRecord {
        workload: w.name.clone(),
        seed,
        loadavg_before,
        metrics: end_to_end(&rounds),
        attempted: rounds.iter().map(|r| r.cells_planned).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        problems,
        rounds,
        contributions: BTreeMap::new(),
    })
}

#[derive(serde::Deserialize)]
struct CellFixedAllocs {
    allocs_per_cell: f64,
}

/// One traced run: the per-layer ledger of a workload.
///
/// Untraced and traced rounds alternate (five and four), so that the
/// traced rounds' wall time is set against untraced rounds on either
/// side; then the kernels, the fixed cost of a cell, the two-shard CPU
/// ratio, and the exact counts from the `alloc-count` build.
fn run_traced(
    children: &Children,
    spec: &Spec,
    w: &Workload,
    seed: u64,
    out_dir: &Path,
) -> Result<RunRecord, String> {
    let loadavg_before = host::loadavg();
    let trace_path = out_dir.join(format!("trace-{}.json", w.name));
    let trace_arg = trace_path.to_string_lossy().into_owned();
    let mut untraced = Vec::new();
    let mut traced_rounds = Vec::new();
    for i in 0..9 {
        if i % 2 == 0 {
            untraced.push(children.round(w, seed, &[])?);
        } else {
            traced_rounds.push(children.round(w, seed, &["--trace-out", &trace_arg])?);
        }
    }
    let mut problems = sim_check(w, seed, children.smoke, &untraced);
    let reference = untraced[0].digest.clone();
    let same_outcome = |what: &str, r: &RoundResult| {
        let mut problems: Vec<String> = r
            .violations
            .iter()
            .map(|v| format!("{what}: {v}"))
            .collect();
        if r.digest != reference {
            problems.push(format!(
                "{what} digest {} differs from the untraced {reference}",
                r.digest
            ));
        }
        problems
    };
    for traced in &traced_rounds {
        problems.extend(same_outcome("traced", traced));
    }

    // Noise on this host only ever adds time, and the overhead looked for
    // is far smaller than a slow phase: compare the fastest round a side.
    let fastest = |rounds: &[RoundResult]| fastest_of(rounds, |r| r.run_wall_s);
    let mut layer: Results = traced_rounds[0].layer.clone();
    let run_cpu = fastest_of(&untraced, |r| r.run_cpu_s);
    layer.insert(
        "trace.overhead_share".into(),
        fastest(&traced_rounds) / fastest(&untraced) - 1.0,
    );

    // A distributed workload's cells run in the workers, where no span can
    // reach them: its cell figures come from an in-process replay of the
    // same configuration, which must also end in the same digest.
    let cpu_per_event = |r: &RoundResult| r.run_cpu_s / r.counters["sim_events"] as f64;
    let mut rounds = untraced.clone();
    if w.workers > 0 {
        let replay_path = out_dir.join(format!("trace-{}-in-process.json", w.name));
        let replay = children.round(
            w,
            seed,
            &[
                "--in-process",
                "--trace-out",
                &replay_path.to_string_lossy(),
            ],
        )?;
        problems.extend(same_outcome("in-process", &replay));
        layer.extend(replay.layer.clone());
        layer.insert(
            "fleet_wire.dist_cpu_overhead_share".into(),
            median_of(&untraced, cpu_per_event) / cpu_per_event(&replay) - 1.0,
        );
        rounds.push(replay);
    } else {
        layer.insert("fleet_wire.dist_cpu_overhead_share".into(), 0.0);
    }
    rounds.extend(traced_rounds);

    let timing = if children.smoke {
        kernels::Timing::QUICK
    } else {
        kernels::Timing::FULL
    };
    layer.extend(kernels::run_all(timing, &children.bin("fleet-shard")));

    let cfg = w.fleet_config(seed, children.smoke);
    let (sampler, hot_threshold) = fleet::population(&cfg);
    let cfg = fleet::FleetConfig {
        hot_threshold: Some(hot_threshold),
        ..cfg
    };
    let cell_fixed_us = layers::cell_fixed_us(timing, &cfg, &sampler);
    layer.insert("fleet.cell_fixed_us".into(), cell_fixed_us);
    layer.insert(
        "fleet.shards2_cpu_ratio".into(),
        // A tenth of the issue's 100 000-user slice: the ratio needs a
        // second of CPU a side, whatever the common scale factor is.
        shards2_cpu_ratio(&cfg, if children.smoke { 500 } else { 10_000 }),
    );

    let counted: RoundResult =
        children.run("harness-alloc", "round", w, seed, &["--in-process"])?;
    problems.extend(same_outcome("alloc-count", &counted));
    if counted.allocs == 0 {
        problems.push("the alloc-count build counted no allocation".into());
    }
    let events = counted.counters["sim_events"] as f64;
    layer.insert(
        "mem.allocs_per_event".into(),
        counted.allocs as f64 / events,
    );
    layer.insert(
        "mem.bytes_per_event".into(),
        counted.alloc_bytes as f64 / events,
    );
    let fixed: CellFixedAllocs = children.run("harness-alloc", "cellfixed", w, seed, &[])?;
    layer.insert("mem.allocs_per_cell_fixed".into(), fixed.allocs_per_cell);

    let facts = RunFacts {
        cfg: &cfg,
        counters: &untraced[0].counters,
        run_cpu_s: run_cpu,
        cell_fixed_us,
    };
    ledger::fill_shares(&facts, &mut layer);
    let contributions = ledger::contributions(&facts, w.workers, &layer);

    // The contract: every declared per-layer metric, and nothing else.
    let declared: Vec<&str> = spec
        .contract
        .per_layer
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    for name in &declared {
        if !layer.contains_key(*name) {
            problems.push(format!("per-layer metric {name} was not measured"));
        }
    }
    layer.retain(|name, _| declared.contains(&name.as_str()));

    Ok(RunRecord {
        workload: w.name.clone(),
        seed,
        loadavg_before,
        metrics: layer,
        attempted: rounds.iter().map(|r| r.cells_planned).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        problems,
        rounds,
        contributions,
    })
}

/// CPU seconds `run_fleet` takes on two in-process shards over one, on a
/// slice of the workload's own configuration.
fn shards2_cpu_ratio(cfg: &fleet::FleetConfig, users: u64) -> f64 {
    let cpu_of = |shards: usize| {
        let cfg = fleet::FleetConfig {
            users,
            shards,
            ..cfg.clone()
        };
        let before = host::usage(host::Who::Own).cpu_s;
        let digest = fleet::run_fleet(&cfg).digest();
        (host::usage(host::Who::Own).cpu_s - before, digest)
    };
    let (one, digest_one) = cpu_of(1);
    let (two, digest_two) = cpu_of(2);
    assert_eq!(
        digest_one, digest_two,
        "shard count must not change the outcome"
    );
    two / one
}

fn print_run(spec: &Spec, run: &RunRecord, trace: bool) {
    let kind = if trace { "per-layer" } else { "end-to-end" };
    println!(
        "== {} seed {} ({kind}, host time; {} rounds, loadavg before {}{})",
        run.workload,
        run.seed,
        run.rounds.len(),
        run.loadavg_before
            .map_or("n/a".to_string(), |l| format!("{l:.2}")),
        if run.host_was_busy() {
            " — HOST WAS BUSY"
        } else {
            ""
        },
    );
    for (name, value) in &run.metrics {
        let unit = spec.contract.metric(name).map_or("", |m| m.unit.as_str());
        print!("  {name:<40} {value:>14.4} {unit:<6}");
        if let Some(share) = run.contributions.get(name) {
            print!("  × count = {share:.4} of run CPU");
        }
        if let Some(p) = spec.predictions.iter().find(|p| p.name == *name) {
            print!("  → {}", p.moves);
        }
        println!();
    }
    let sim = run.sim_block();
    let q = &sim["t2a_quartiles_s"];
    println!(
        "  sim (simulated time, compared exactly): digest {}  T2A {:.0}/{:.0}/{:.0} s (paper 58/84/122)  \
         delivery ratio {:.4}  HTTP round trips per activation {:.2}  events {}",
        sim["digest"].as_str().unwrap_or("?"),
        q[0].as_f64().unwrap_or(0.0),
        q[1].as_f64().unwrap_or(0.0),
        q[2].as_f64().unwrap_or(0.0),
        sim["delivery_ratio"].as_f64().unwrap_or(0.0),
        sim["http_round_trips_per_activation"].as_f64().unwrap_or(0.0),
        sim["sim_events"].as_u64().unwrap_or(0),
    );
    for p in &run.problems {
        println!("  SIM_CHECK FAILED: {p}");
    }
}

/// Median, quartiles and count of every metric over a workload's runs.
fn summary(runs: &[RunRecord]) -> Value {
    let mut by_workload: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in runs {
        let metrics = by_workload.entry(run.workload.clone()).or_default();
        for (name, value) in &run.metrics {
            metrics.entry(name.clone()).or_default().push(*value);
        }
    }
    let out: BTreeMap<String, Value> = by_workload
        .into_iter()
        .map(|(w, metrics)| {
            let m: BTreeMap<String, Value> = metrics
                .into_iter()
                .map(|(name, values)| {
                    let (q1, q3) = stats::quartiles(&values)
                        .map_or((None, None), |(a, _, b)| (Some(a), Some(b)));
                    (
                        name,
                        json!({
                            "median": stats::median(&values),
                            "q1": q1,
                            "q3": q3,
                            "n": values.len() as u64,
                        }),
                    )
                })
                .collect();
            (w, Value::Object(m))
        })
        .collect();
    Value::Object(out)
}

fn write_results(spec: &Spec, opts: &BenchOpts, runs: &[RunRecord]) -> Result<(), String> {
    let doc = json!({
        "host": {"nproc": host::nproc() as u64},
        "seed": opts.seed,
        "reps": opts.reps as u64,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "smoke": opts.smoke,
        "scale": spec.scale,
        "summary": summary(runs),
        "runs": runs.iter().map(|r| r.to_json(spec)).collect::<Vec<_>>(),
    });
    if let Some(dir) = opts.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, doc.to_string()).map_err(|e| format!("{}: {e}", opts.out.display()))
}

/// Run one set. Returns whether every run was correct.
pub fn run_set(spec: &Spec, opts: &BenchOpts) -> Result<bool, String> {
    let children = Children::new(opts.smoke)?;
    let out_dir = opts
        .out
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let mut runs = Vec::new();
    for rep in 0..opts.reps {
        let seed = opts.seed + rep as u64;
        for name in &opts.workloads {
            let w = spec.workload(name)?;
            let run = if opts.trace {
                run_traced(&children, spec, w, seed, &out_dir)?
            } else {
                run_end_to_end(&children, w, seed, opts.seconds)?
            };
            print_run(spec, &run, opts.trace);
            // Last on stdout for a single run: the contract's result line.
            println!("{}", run.contract_line(spec));
            runs.push(run);
        }
    }
    write_results(spec, opts, &runs)?;
    Ok(runs.iter().all(RunRecord::correct))
}
