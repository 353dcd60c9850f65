//! One round: a fresh process sets the fleet up, runs a workload's whole
//! population once, and reports host time, memory and the simulated
//! outcome as one JSON line.
//!
//! The untraced round calls the program's own entry points
//! ([`fleet::run_fleet_with_progress`], or
//! [`fleet_wire::run_fleet_distributed_with_progress`] when the workload
//! has workers) and splits set-up from the timed region at the first
//! progress beat, the earliest instant both entry points expose. The
//! traced round replays `run_fleet`'s loop from public pieces with a span
//! around each call; end-to-end metrics are never taken from it.

use crate::host::{self, Who};
use crate::spec::{Spec, Workload};
use crate::stats;
use crate::trace::Tracer;
use fleet::cell::run_cell;
use fleet::{
    assign_round_robin, plan_cells, population, run_fleet_with_progress, FleetConfig, FleetMetrics,
    FleetReport, Progress,
};
use fleet_wire::{run_fleet_distributed_with_progress, DistributedConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RoundOpts {
    pub workload: String,
    pub seed: u64,
    pub smoke: bool,
    /// Replay the loop with spans and write the trace here.
    pub trace_out: Option<PathBuf>,
    /// Run a distributed workload's configuration on one in-process shard.
    pub in_process: bool,
}

/// What a round prints. Host measurements first, then the simulated
/// outcome, which must repeat exactly for a given workload and seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundResult {
    pub workload: String,
    pub seed: u64,
    /// Process start to the first committed cell.
    pub setup_s: f64,
    /// First committed cell to the digest in hand.
    pub run_wall_s: f64,
    /// User + system CPU over the timed region, reaped workers included.
    pub run_cpu_s: f64,
    /// Peak resident set: this process plus, with workers, the largest one.
    pub peak_rss_mb: f64,
    pub digest: String,
    pub cells_planned: u64,
    /// Cells missing, duplicated or re-run, plus broken conservation laws.
    pub failed: u64,
    pub violations: Vec<String>,
    pub counters: BTreeMap<String, u64>,
    pub t2a_quartiles_s: Vec<f64>,
    /// Exact allocation counts over the run; 0 without the counting build.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Wall seconds each shard or worker reported.
    pub shard_wall_s: Vec<f64>,
    /// Per-layer values read off the trace; empty for an untraced round.
    pub layer: BTreeMap<String, f64>,
}

macro_rules! counters {
    ($m:expr; $($field:ident),* $(,)?) => {
        BTreeMap::from([$((stringify!($field).to_owned(), $m.$field.get())),*])
    };
}

/// The laws every run must keep, whatever the seed.
fn violations(m: &FleetMetrics, cfg: &FleetConfig) -> Vec<String> {
    let mut out = Vec::new();
    let mut law = |ok: bool, what: String| {
        if !ok {
            out.push(what);
        }
    };
    let delivered = m.t2a_micros.count();
    law(
        m.activations.get() == delivered + m.lost.get(),
        format!(
            "activations {} != delivered {delivered} + lost {}",
            m.activations.get(),
            m.lost.get()
        ),
    );
    // `events_new == actions_ok + actions_filtered + dead_letters` needs an
    // idle engine and the filtered count. A cell stops at its horizon with
    // dispatches possibly in flight, and the fleet does not count DAG
    // filter drops, so the law it can check is the inequality — and the
    // equality whenever nothing was lost and no DAG ran.
    let concluded = m.actions_ok.get() + m.dead_letters.get();
    let exact = m.lost.get() == 0 && m.dag_runs.get() == 0;
    law(
        m.events_new.get() >= concluded && (!exact || m.events_new.get() == concluded),
        format!(
            "events_new {} vs actions_ok + dead_letters {concluded}",
            m.events_new.get()
        ),
    );
    law(
        m.users.get() == cfg.users,
        format!(
            "users simulated {} != configured {}",
            m.users.get(),
            cfg.users
        ),
    );
    if cfg.attribution {
        let a = &m.attribution;
        let stage_sum: u64 = a.stages().iter().map(|(_, h)| h.sum()).sum();
        law(
            stage_sum == a.total.sum(),
            format!(
                "attribution stage sums {stage_sum} != total {}",
                a.total.sum()
            ),
        );
        // The service a churn cell onboards mid-run is not attributed, so
        // its deliveries are missing from the stage histograms.
        let samples = a.total.count();
        law(
            samples <= delivered && (cfg.churn.enabled() || samples == delivered),
            format!("attribution samples {samples} vs delivered {delivered}"),
        );
    }
    out
}

fn shard_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name(format!("fleet-shard{}", std::env::consts::EXE_SUFFIX));
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; build with benchmark/run.sh",
            bin.display()
        ))
    }
}

struct Outcome {
    report: FleetReport,
    digest: String,
    setup_s: f64,
    run_wall_s: f64,
    run_cpu_s: f64,
    rejoins: u64,
    layer: BTreeMap<String, f64>,
}

/// Run the program's own entry point, splitting at the first beat.
fn untraced(
    w: &Workload,
    cfg: &FleetConfig,
    distributed: bool,
    start: Instant,
) -> Result<Outcome, String> {
    let mut first_beat: Option<(Instant, f64)> = None;
    let on_progress = |_: &Progress| {
        if first_beat.is_none() {
            first_beat = Some((Instant::now(), host::cpu_s()));
        }
    };
    let (report, rejoins) = if distributed {
        let dcfg = DistributedConfig::new(w.workers, shard_bin()?);
        let out = run_fleet_distributed_with_progress(cfg, &dcfg, on_progress)
            .map_err(|e| format!("distributed run failed: {e}"))?;
        (out.report, out.rejoins as u64)
    } else {
        (run_fleet_with_progress(cfg, on_progress), 0)
    };
    let digest = report.digest();
    let end = Instant::now();
    let cpu_end = host::cpu_s();
    let (beat_at, beat_cpu) = first_beat.ok_or("the run committed no cell")?;
    Ok(Outcome {
        report,
        digest,
        setup_s: (beat_at - start).as_secs_f64(),
        run_wall_s: (end - beat_at).as_secs_f64(),
        run_cpu_s: cpu_end - beat_cpu,
        rejoins,
        layer: BTreeMap::new(),
    })
}

fn cell_layer_metrics(t: &Tracer, layer: &mut BTreeMap<String, f64>) {
    let cells = t.durations_ms("fleet.run_cell");
    if cells.is_empty() {
        return;
    }
    layer.insert("fleet.cells_s".into(), cells.iter().sum::<f64>() / 1e3);
    layer.insert("fleet.cell_wall_p50_ms".into(), stats::median(&cells));
    // The tail is read at the highest percentile that still has ten cells
    // beyond it, and that percentile is reported beside the value.
    let pct = stats::highest_supported_percentile(cells.len()).unwrap_or(50.0);
    layer.insert(
        "fleet.cell_wall_tail_ms".into(),
        stats::percentile(&cells, pct),
    );
    layer.insert("fleet.cell_wall_tail_pct".into(), pct);
}

/// `run_fleet`'s single-shard loop, replayed from public pieces with a
/// span around each call.
fn traced_in_process(w: &Workload, cfg: &FleetConfig, start: Instant) -> (Outcome, Tracer) {
    let mut t = Tracer::new(&w.name, start);
    let root = t.enter("round");
    let setup = t.enter("setup");
    let (sampler, hot_threshold) = t.span("fleet.population", |_| population(cfg));
    let cfg = FleetConfig {
        hot_threshold: Some(hot_threshold),
        ..cfg.clone()
    };
    let cells = t.span("fleet.plan_cells", |_| {
        plan_cells(cfg.users, cfg.cell_users)
    });
    let assignments = t.span("fleet.assign_round_robin", |_| {
        assign_round_robin(&cells, cfg.shards)
    });
    t.exit(setup);
    let setup_end = Instant::now();
    let cpu_start = host::cpu_s();

    let run = t.enter("run");
    let alloc_start = mem::alloc_counts();
    let metrics = Arc::new(FleetMetrics::default());
    for cell in assignments.iter().flatten() {
        t.span("fleet.run_cell", |_| {
            run_cell(cell, &sampler, &cfg, &metrics)
        });
    }
    let merged = FleetMetrics::default();
    t.span("fleet.merge_from", |_| merged.merge_from(&metrics));
    let (allocs, alloc_bytes) = match (alloc_start, mem::alloc_counts()) {
        (Some((a0, b0)), Some((a1, b1))) => (a1 - a0, b1 - b0),
        _ => (0, 0),
    };
    let mut report = FleetReport {
        users: cfg.users,
        shards: cfg.shards,
        policy: cfg.policy.name().to_string(),
        master_seed: cfg.master_seed,
        hot_threshold,
        merged,
        per_shard: Vec::new(),
        wall_secs: 0.0,
        allocs,
        alloc_bytes,
    };
    let digest = t.span("fleet.digest", |_| report.digest());
    t.exit(run);
    t.exit(root);
    let end = Instant::now();
    let run_wall_s = (end - setup_end).as_secs_f64();
    report.wall_secs = (end - start).as_secs_f64();

    let totals = t.totals_by_name();
    let ns = |name: &str| totals.get(name).map_or(0.0, |n| n.total_ns as f64);
    let mut layer = BTreeMap::new();
    cell_layer_metrics(&t, &mut layer);
    layer.insert("fleet.population_ms".into(), ns("fleet.population") / 1e6);
    layer.insert("fleet.plan_cells_us".into(), ns("fleet.plan_cells") / 1e3);
    layer.insert("fleet.merge_us".into(), ns("fleet.merge_from") / 1e3);
    layer.insert("fleet.digest_us".into(), ns("fleet.digest") / 1e3);
    let run_ns = ns("run");
    layer.insert(
        "fleet.noncell_share".into(),
        (run_ns - ns("fleet.run_cell")) / run_ns,
    );
    (
        Outcome {
            report,
            digest,
            setup_s: (setup_end - start).as_secs_f64(),
            run_wall_s,
            run_cpu_s: host::cpu_s() - cpu_start,
            rejoins: 0,
            layer,
        },
        t,
    )
}

/// The distributed entry point seen from outside: the only boundaries it
/// exposes are the call itself and its progress beats.
fn traced_distributed(
    w: &Workload,
    cfg: &FleetConfig,
    start: Instant,
) -> Result<(Outcome, Tracer), String> {
    let mut t = Tracer::new(&w.name, start);
    let dcfg = DistributedConfig::new(w.workers, shard_bin()?);
    let root = t.enter("round");
    let call = t.enter("fleet_wire.run_fleet_distributed");
    let mut waiting = Some(t.enter("fleet_wire.until_first_commit"));
    let mut committing: Option<usize> = None;
    let mut first_beat: Option<(Instant, f64)> = None;
    let out = {
        let t = &mut t;
        run_fleet_distributed_with_progress(cfg, &dcfg, |_| {
            if let Some(id) = waiting.take() {
                t.exit(id);
                first_beat = Some((Instant::now(), host::cpu_s()));
                committing = Some(t.enter("fleet_wire.commits"));
            }
        })
        .map_err(|e| format!("distributed run failed: {e}"))?
    };
    let commits = committing.ok_or("the run committed no cell")?;
    t.exit(commits);
    t.exit(call);
    let digest = t.span("fleet.digest", |_| out.report.digest());
    t.exit(root);
    let end = Instant::now();
    let (beat_at, beat_cpu) = first_beat.ok_or("the run committed no cell")?;

    Ok((
        Outcome {
            digest,
            setup_s: (beat_at - start).as_secs_f64(),
            run_wall_s: (end - beat_at).as_secs_f64(),
            run_cpu_s: host::cpu_s() - beat_cpu,
            rejoins: out.rejoins as u64,
            report: out.report,
            layer: BTreeMap::new(),
        },
        t,
    ))
}

pub fn run(spec: &Spec, opts: &RoundOpts, start: Instant) -> Result<RoundResult, String> {
    let w = spec.workload(&opts.workload)?;
    let cfg = w.fleet_config(opts.seed, opts.smoke);
    let distributed = w.workers > 0 && !opts.in_process;
    let cells_planned = cfg.users.div_ceil(cfg.cell_users);

    let out = match &opts.trace_out {
        None => untraced(w, &cfg, distributed, start)?,
        Some(path) => {
            let (out, tracer) = if distributed {
                traced_distributed(w, &cfg, start)?
            } else {
                traced_in_process(w, &cfg, start)
            };
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, tracer.to_json().to_string())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            out
        }
    };

    let m = &out.report.merged;
    let violations = violations(m, &cfg);
    let workers = host::usage(Who::Children);
    let (q1, q2, q3) = out.report.t2a_quartiles_secs();
    let mut counters = counters!(m;
        sim_events, engine_events, cells, users, applets, activations, lost,
        polls_sent, polls_batched, polls_coalesced, events_new, actions_ok,
        actions_failed, polls_failed, polls_retried, polls_shed, breaker_trips,
        actions_retried, dead_letters, faults_injected, realtime_notifications,
        realtime_polls, realtime_suppressed, dag_runs, dag_nodes_filter,
        dag_nodes_transform, dag_nodes_query, dag_nodes_action, dag_node_retries,
        churn_installs, churn_uninstalls, churn_orphans,
    );
    counters.insert("delivered".into(), m.t2a_micros.count());
    counters.insert("attributed".into(), m.attribution.total.count());
    Ok(RoundResult {
        workload: w.name.clone(),
        seed: opts.seed,
        setup_s: out.setup_s,
        run_wall_s: out.run_wall_s,
        run_cpu_s: out.run_cpu_s,
        peak_rss_mb: host::own_peak_rss_mb() + workers.peak_rss_mb,
        digest: out.digest,
        cells_planned,
        failed: m.cells.get().abs_diff(cells_planned) + out.rejoins + violations.len() as u64,
        violations,
        counters,
        t2a_quartiles_s: vec![q1, q2, q3],
        allocs: out.report.allocs,
        alloc_bytes: out.report.alloc_bytes,
        shard_wall_s: out.report.per_shard.iter().map(|s| s.wall_secs).collect(),
        layer: out.layer,
    })
}

/// Exact allocations per cell with (almost) no simulated time — the
/// counting twin of `fleet.cell_fixed_us`. Needs the `alloc-count` build.
pub fn cell_fixed_allocs(spec: &Spec, opts: &RoundOpts) -> Result<f64, String> {
    let w = spec.workload(&opts.workload)?;
    let cfg = w.fleet_config(opts.seed, opts.smoke);
    let (sampler, hot_threshold) = population(&cfg);
    let (cfg, cells) = crate::kernels::layers::zero_phase_cells(&FleetConfig {
        hot_threshold: Some(hot_threshold),
        ..cfg
    });
    let metrics = Arc::new(FleetMetrics::default());
    let (before, _) = mem::alloc_counts().ok_or("this build does not count allocations")?;
    for cell in &cells {
        run_cell(cell, &sampler, &cfg, &metrics);
    }
    let (after, _) = mem::alloc_counts().expect("counting does not stop");
    Ok((after - before) as f64 / cells.len() as f64)
}
