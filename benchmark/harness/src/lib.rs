//! Fleet ledger benchmark harness. See `benchmark/README.md`.

pub mod bench;
pub mod compare;
pub mod host;
pub mod kernels;
pub mod ledger;
pub mod round;
pub mod spec;
pub mod stats;
pub mod trace;

use bench::BenchOpts;
use round::RoundOpts;
use spec::{Spec, PINNED_SEED};
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME]... [--seed N] [--seconds S] [--reps N]
                        [--trace 0|1] [--smoke] [--out FILE] [--check-repeat]
       harness compare A.json B.json";

fn usage(err: &str) -> ! {
    eprintln!("harness: {err}\n{USAGE}");
    std::process::exit(2)
}

/// `--flag value` pairs and bare switches, in order.
struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        self.0
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    }
}

fn round_opts(mut args: Args) -> RoundOpts {
    let mut opts = RoundOpts {
        workload: String::new(),
        seed: PINNED_SEED,
        smoke: false,
        trace_out: None,
        in_process: false,
    };
    while let Some(a) = args.0.next() {
        match a.as_str() {
            "--workload" => opts.workload = args.value(&a),
            "--seed" => opts.seed = args.value(&a),
            "--smoke" => opts.smoke = true,
            "--trace-out" => opts.trace_out = Some(args.value::<PathBuf>(&a)),
            "--in-process" => opts.in_process = true,
            _ => usage(&format!("unknown argument {a:?}")),
        }
    }
    opts
}

fn bench_main(spec: &Spec, mut args: Args) -> ! {
    let mut opts = BenchOpts {
        workloads: Vec::new(),
        seed: PINNED_SEED,
        seconds: spec.contract.run_seconds as f64,
        reps: 1,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out/results.json"),
    };
    let mut check_repeat = false;
    let mut reps: Option<usize> = None;
    while let Some(a) = args.0.next() {
        match a.as_str() {
            "--workload" => opts.workloads.push(args.value(&a)),
            "--seed" => opts.seed = args.value(&a),
            "--seconds" => opts.seconds = args.value(&a),
            "--reps" => reps = Some(args.value(&a)),
            "--trace" => {
                opts.trace = match args.value::<u8>(&a) {
                    0 => false,
                    1 => true,
                    _ => usage("--trace is 0 or 1"),
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = args.value(&a),
            "--check-repeat" => check_repeat = true,
            _ => usage(&format!("unknown argument {a:?}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = spec.contract.workloads.clone();
    }
    for name in &opts.workloads {
        if let Err(e) = spec.workload(name) {
            usage(&e);
        }
    }
    if opts.smoke {
        opts.seconds = 0.0;
    }
    // A spread needs several runs a side; one run answers the driver.
    opts.reps = reps
        .unwrap_or(if check_repeat && !opts.smoke { 10 } else { 1 })
        .max(1);
    let outcome = if check_repeat {
        check_repeat_sets(spec, &opts)
    } else {
        bench::run_set(spec, &opts)
    };
    match outcome {
        Ok(true) => std::process::exit(0),
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("harness: {e}");
            std::process::exit(1)
        }
    }
}

/// Two sets of the same build, the second with the workload order
/// reversed, compared under the benchmark's own bounds.
fn check_repeat_sets(spec: &Spec, opts: &BenchOpts) -> Result<bool, String> {
    let side = |name: &str, reversed: bool| {
        let mut o = opts.clone();
        o.out = opts.out.with_file_name(format!("repeat-{name}.json"));
        if reversed {
            o.workloads.reverse();
        }
        o
    };
    let (a, b) = (side("A", false), side("B", true));
    let correct = bench::run_set(spec, &a)? & bench::run_set(spec, &b)?;
    let cmp = compare_files(spec, &a.out, &b.out)?;
    print!("{}", cmp.render());
    Ok(correct && cmp.passes())
}

fn compare_files(spec: &Spec, a: &Path, b: &Path) -> Result<compare::Comparison, String> {
    let load = |p: &Path| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    compare::compare(&spec.contract, &load(a)?, &load(b)?)
}

/// Entry point shared by `harness` and `harness-alloc`.
pub fn cli_main() {
    let start = Instant::now();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load(Path::new(".")).unwrap_or_else(|e| {
        eprintln!("harness: {e} (run from the repository root)");
        std::process::exit(2)
    });
    let sub = match args.first() {
        Some(a) if !a.starts_with("--") => args.remove(0),
        _ => "bench".to_string(),
    };
    let args = Args(args.into_iter());
    let fail = |e: String| -> ! {
        eprintln!("harness {sub}: {e}");
        std::process::exit(1)
    };
    match sub.as_str() {
        "bench" => bench_main(&spec, args),
        "round" => match round::run(&spec, &round_opts(args), start) {
            Ok(r) => println!("{}", serde_json::to_string(&r).expect("result serializes")),
            Err(e) => fail(e),
        },
        "cellfixed" => match round::cell_fixed_allocs(&spec, &round_opts(args)) {
            Ok(n) => println!("{}", serde_json::json!({ "allocs_per_cell": n })),
            Err(e) => fail(e),
        },
        "compare" => {
            let files: Vec<PathBuf> = args.0.map(PathBuf::from).collect();
            let [a, b] = files.as_slice() else {
                usage("compare takes two results files")
            };
            match compare_files(&spec, a, b) {
                Ok(cmp) => {
                    print!("{}", cmp.render());
                    std::process::exit(if cmp.passes() { 0 } else { 1 })
                }
                Err(e) => fail(e),
            }
        }
        other => usage(&format!("unknown subcommand {other:?}")),
    }
}
