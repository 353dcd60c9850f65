//! `ifttt-lab` — command-line front end for the reproduction.
//!
//! ```text
//! ifttt-lab paper [scale]    every table and figure, checked against the paper
//! ifttt-lab crawl [scale]    §3.1: run the crawler pipeline once
//! ifttt-lab fleet [flags]    sharded fleet-scale workload run
//! ifttt-lab help             this list, and every flag with its help line
//! ```
//!
//! The flags are not repeated here: they are the rows of the options table
//! (`fleet::options`), and `ifttt-lab help` prints them from it. `--seed`
//! applies to every subcommand.

use fleet_wire::{run_fleet_distributed_with_progress, DistributedConfig};
use ifttt_core::ecosystem::crawler::crawl_week;
use ifttt_core::ecosystem::generator::{Ecosystem, GeneratorConfig};
use ifttt_core::ecosystem::model::GROWTH;
use ifttt_core::fleet::options::usage_lines;
use ifttt_core::fleet::{run_fleet_with_progress, FleetCli};
use ifttt_core::{paper, Lab};

fn main() {
    let (cli, positional) = FleetCli::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    let seed = cli.cfg.master_seed;
    let cmd = positional.first().map(String::as_str).unwrap_or("help");
    let arg1: Option<f64> = positional.get(1).and_then(|v| v.parse().ok());
    let scale = arg1.unwrap_or(0.05);

    match cmd {
        "paper" => {
            if !paper::SCALES.contains(&scale) {
                usage("the paper's scale is 0.02 to 1.0");
            }
            let lab = Lab::new(seed).with_scale(scale);
            let artifacts = paper::regenerate(&lab);
            let dir = std::path::Path::new("target/paper_out");
            let write = |(name, a): &(&str, paper::Artifact)| {
                std::fs::write(dir.join(format!("{name}.txt")), &a.text)
            };
            let written = std::fs::create_dir_all(dir);
            if let Err(e) = written.and_then(|()| artifacts.iter().try_for_each(write)) {
                eprintln!("cannot write {}: {e}", dir.display());
                std::process::exit(1);
            }
            let checks = paper::check(paper::PAPER_TARGETS, &artifacts, scale);
            println!(
                "scale {scale}, seed {seed}; artifacts in {}/\n",
                dir.display()
            );
            print!("{}", paper::render_checks(&checks));
            std::process::exit(paper::exit_code(&checks));
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
        "usage: ifttt-lab [flags] <paper [scale] | crawl [scale] | fleet | help>\n\nflags:\n{}",
        usage_lines(FleetCli::FLAGS)
    )
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}\n");
    eprint!("{}", usage_text());
    std::process::exit(2)
}
