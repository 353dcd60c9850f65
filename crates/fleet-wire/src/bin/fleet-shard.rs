//! `fleet-shard` — one distributed fleet worker process.
//!
//! Spawned by the coordinator (`ifttt-lab fleet --distributed N`), never
//! run by hand; run it with no arguments for its flags. The flags are the
//! rows of [`fleet_wire::worker::WORKER_FLAGS`], which the coordinator
//! writes and this binary reads.
//!
//! Everything that matters lives in [`fleet_wire::worker::run_worker`];
//! this file is exit codes (0 ok, 1 error, 2 bad usage, 3 chaos-injected
//! crash).

use fleet::options::usage_lines;
use fleet_wire::worker::{run_worker, WorkerOptions, WORKER_FLAGS};

fn main() {
    let opts = WorkerOptions::from_args(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("fleet-shard: {e}\nusage: fleet-shard <flags>");
        eprint!("{}", usage_lines(WORKER_FLAGS));
        std::process::exit(2)
    });
    if let Err(e) = run_worker(&opts) {
        eprintln!("fleet-shard {}: {e}", opts.worker_id);
        std::process::exit(1);
    }
}
