//! `ifttt-lab` — command-line front end for the reproduction.
//!
//! ```text
//! ifttt-lab report [scale]           §3: Tables 1-3, Figs 2-3, growth, users
//! ifttt-lab t2a [runs]               Fig 4: T2A latency for A1-A7
//! ifttt-lab substitution [runs]      Fig 5: E1/E2/E3
//! ifttt-lab timeline                 Table 5: execution timeline
//! ifttt-lab sequential [n]           Fig 6: action clustering
//! ifttt-lab concurrent [runs]        Fig 7: same-trigger divergence
//! ifttt-lab loops                    §4: explicit & implicit infinite loops
//! ifttt-lab workload                 §6: push-vs-poll engine burstiness
//! ifttt-lab crawl [scale]            §3.1: run the crawler pipeline once
//! ifttt-lab fleet [flags]             sharded fleet-scale workload run
//! ifttt-lab help                      this list, and every flag with its help line
//! ```
//!
//! The flags are not repeated here: they are the rows of the options table
//! (`fleet::options`), and `ifttt-lab help` prints them from it. `--seed`
//! applies to every subcommand.

use fleet_wire::{run_fleet_distributed_with_progress, DistributedConfig};
use ifttt_core::analysis::tables::HeadlineIot;
use ifttt_core::ecosystem::crawler::crawl_week;
use ifttt_core::ecosystem::generator::{Ecosystem, GeneratorConfig};
use ifttt_core::ecosystem::model::GROWTH;
use ifttt_core::engine::RuntimeLoopConfig;
use ifttt_core::fleet::options::usage_lines;
use ifttt_core::fleet::{run_fleet_with_progress, FleetCli, LiveGrowth};
use ifttt_core::simnet::prelude::*;
use ifttt_core::testbed::experiments::{
    explicit_loop_experiment, implicit_loop_experiment, run_workload,
};
use ifttt_core::Lab;

fn main() {
    let (cli, positional) = FleetCli::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    let seed = cli.cfg.master_seed;
    let cmd = positional.first().map(String::as_str).unwrap_or("help");
    let arg1: Option<f64> = positional.get(1).and_then(|v| v.parse().ok());
    let lab = Lab::new(seed).with_scale(
        arg1.filter(|_| cmd == "report" || cmd == "crawl")
            .unwrap_or(0.05),
    );

    match cmd {
        "report" => {
            let snap = lab.snapshot();
            println!(
                "snapshot {}: {} services / {} triggers / {} actions / {} applets / {} adds\n",
                snap.date,
                snap.services.len(),
                snap.trigger_count(),
                snap.action_count(),
                snap.applets.len(),
                snap.total_add_count()
            );
            println!("{}", lab.table1().render());
            let h = HeadlineIot::of(&snap);
            println!(
                "IoT: {:.1}% of services, {:.1}% of usage (paper: 52% / 16%)\n",
                h.service_share * 100.0,
                h.usage_share * 100.0
            );
            println!("{}", lab.table2().render());
            println!("{}", lab.table3().render());
            println!("{}", lab.fig2().render());
            println!("{}", lab.growth().render());
            println!("{}", lab.users().render());
        }
        "t2a" => {
            let runs = arg1.map(|v| v as usize).unwrap_or(10);
            println!(
                "Figure 4 ({runs} runs per applet; paper: A1-A4 = 58/84/122 s, A5-A7 = seconds)\n"
            );
            for r in lab.fig4_t2a(runs) {
                println!("{}", r.render_line());
            }
        }
        "substitution" => {
            let runs = arg1.map(|v| v as usize).unwrap_or(10);
            println!("Figure 5 ({runs} runs; paper: E1 ≈ E2 slow, E3 ≈ 1-2 s)\n");
            for r in lab.fig5_substitution(runs) {
                println!("{}", r.render_line());
            }
        }
        "timeline" => println!("{}", lab.table5().render()),
        "sequential" => {
            let n = arg1.map(|v| v as usize).unwrap_or(60);
            println!("{}", lab.fig6_sequential(n).render());
        }
        "concurrent" => {
            let runs = arg1.map(|v| v as usize).unwrap_or(20);
            println!("{}", lab.fig7_concurrent(runs).render());
        }
        "loops" => {
            let window = SimDuration::from_secs(120);
            let unchecked = explicit_loop_experiment(false, None, window, seed);
            println!(
                "explicit loop, no checks: {} actions / {} emails from one seed email in {window}",
                unchecked.actions_executed, unchecked.emails_delivered
            );
            let det = RuntimeLoopConfig {
                max_executions: 5,
                window: SimDuration::from_secs(120),
                auto_disable: true,
            };
            let caught = implicit_loop_experiment(true, Some(det), window, seed + 1);
            println!(
                "implicit loop + runtime detector: flagged={} disabled={} after {} actions",
                caught.flagged, caught.disabled, caught.actions_executed
            );
        }
        "workload" => {
            let poll = run_workload(false, 6, 12, 4, 90, seed);
            let push = run_workload(true, 6, 12, 4, 90, seed + 1);
            print!("{}", poll.report.render("poll"));
            print!("{}", push.report.render("push"));
            println!(
                "push peak/mean is {:.1}x the poll regime's — §6's burstiness concern",
                push.report.peak_to_mean() / poll.report.peak_to_mean().max(0.01)
            );
        }
        "fleet" => {
            let cfg = cli.resolve().unwrap_or_else(|e| usage(&e));
            println!("{}", cfg.banner());
            let total_cells = cfg.users.div_ceil(cfg.cell_users);
            let mut done = 0u64;
            let mut last_pct = u64::MAX;
            let on_progress = |_: &ifttt_core::fleet::Progress| {
                done += 1;
                let pct = done * 100 / total_cells.max(1);
                if pct / 5 != last_pct / 5 {
                    eprintln!("  {pct:>3}% ({done}/{total_cells} cells)");
                    last_pct = pct;
                }
            };
            let report = match cli.distributed {
                None => run_fleet_with_progress(&cfg, on_progress),
                Some(workers) => {
                    // The worker binary ships next to this one; both come
                    // out of the same cargo build.
                    let shard_bin = std::env::current_exe()
                        .ok()
                        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
                        .map(|d| d.join(format!("fleet-shard{}", std::env::consts::EXE_SUFFIX)))
                        .filter(|p| p.exists())
                        .unwrap_or_else(|| {
                            eprintln!(
                                "a distributed run needs the fleet-shard binary next to ifttt-lab \
                                 (build the whole workspace)"
                            );
                            std::process::exit(1);
                        });
                    eprintln!("  distributed: {workers} fleet-shard worker processes");
                    let dcfg = DistributedConfig::new(workers, shard_bin);
                    match run_fleet_distributed_with_progress(&cfg, &dcfg, on_progress) {
                        Ok(outcome) => {
                            if outcome.rejoins > 0 {
                                eprintln!(
                                    "  recovered from {} worker loss(es); {} workers spawned in total",
                                    outcome.rejoins, outcome.workers_spawned
                                );
                            }
                            outcome.report
                        }
                        Err(e) => {
                            eprintln!("distributed fleet run failed: {e}");
                            std::process::exit(1);
                        }
                    }
                }
            };
            print!("{}", report.render());
            // Churn runs close the §3 loop: crawl the live catalog's weekly
            // snapshots after the fleet finishes (render-only — the crawl
            // runs in its own simulation and never touches the digest).
            if let Some(growth) = LiveGrowth::crawl(&cfg) {
                print!("{}", growth.render());
            }
            // Allocation regression gate (CI's alloc-count smoke job):
            // requires the counting allocator, so a budget given to a
            // default build fails loudly instead of passing vacuously.
            if let Some(budget) = cli.max_allocs_per_event {
                if report.allocs == 0 {
                    eprintln!("an allocation budget requires a build with --features alloc-count");
                    std::process::exit(1);
                }
                let per_event = report.allocs as f64 / report.merged.sim_events.get().max(1) as f64;
                if per_event > budget {
                    eprintln!(
                        "allocation regression: {per_event:.2} allocs/event exceeds the budget of {budget:.2}"
                    );
                    std::process::exit(1);
                }
                eprintln!("alloc gate ok: {per_event:.2} allocs/event <= {budget:.2}");
            }
        }
        "crawl" => {
            let scale = arg1.unwrap_or(0.05);
            let eco = Ecosystem::generate(GeneratorConfig {
                seed,
                scale,
                multi_step_share: 0.0,
            });
            let crawl = crawl_week(&eco, GROWTH.week_canonical as u32, seed);
            println!(
                "crawl done in {} virtual time: {} pages fetched, {} applets, {} services, {} 404s, {} retries",
                crawl.elapsed,
                crawl.stats.pages_fetched,
                crawl.stats.applets_found,
                crawl.snapshot.services.len(),
                crawl.stats.not_found,
                crawl.stats.retries
            );
            println!("crawled add count: {}", crawl.snapshot.total_add_count());
        }
        "help" => print!("{}", usage_text()),
        _ => usage("unknown subcommand"),
    }
}

fn usage_text() -> String {
    format!(
        "usage: ifttt-lab [flags] <report [scale] | t2a [runs] | substitution [runs] | \
         timeline | sequential [n] | concurrent [runs] | loops | workload | crawl [scale] | \
         fleet | help>\n\nflags:\n{}",
        usage_lines(FleetCli::FLAGS)
    )
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}\n");
    eprint!("{}", usage_text());
    std::process::exit(2)
}
