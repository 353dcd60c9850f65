//! # fleet — sharded million-user workload runs with mergeable metrics
//!
//! The paper measures IFTTT from the outside: ~135K user channels, a
//! poll-driven engine, and trigger-to-action (T2A) latency quartiles of
//! 58/84/122 seconds (§4, Figure 4). This crate scales the repo's
//! simulated reproduction of that stack to fleet size — a million
//! synthetic user channels — by sharding the population across worker
//! threads while keeping the outcome **bit-for-bit independent of the
//! sharding**.
//!
//! ## How the invariance works
//!
//! * [`shard`] slices the population into fixed-size **cells**; a cell is
//!   one self-contained [`simnet`] simulation seeded from
//!   `(master_seed, cell_id)` ([`cell::CELL_STREAM_BASE`]). Shards are
//!   pure executors: which thread runs a cell cannot influence it.
//! * [`metrics`] provides lock-free, **exactly-mergeable** instruments —
//!   atomic counters and log-linear histograms whose merge is integer
//!   bucket addition, hence associative and commutative. Merging shard
//!   accumulators in any grouping yields identical bytes.
//! * [`runner`] executes shards on scoped threads with bounded per-shard
//!   memory (one live cell each) and a progress channel; [`report`]
//!   merges the accumulators and fingerprints the deterministic part
//!   ([`FleetReport::digest`]).
//!
//! ```no_run
//! use fleet::{run_fleet, FleetConfig, FleetPolicy};
//!
//! let report = run_fleet(&FleetConfig::new(1_000_000, 8, FleetPolicy::IftttLike));
//! println!("{}", report.render()); // T2A quartiles vs the paper's 58/84/122 s
//! ```

pub mod attribution;
pub mod cell;
pub mod metrics;
pub mod options;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod shard;
pub mod test_support;

pub use attribution::{AttributionRecorder, CellSink};
pub use metrics::{AttributionStages, Counter, FleetMetrics, Histogram, HistogramSnapshot};
pub use options::FleetCli;
pub use report::{fnv1a, FleetReport, ShardSummary, PAPER_T2A_QUARTILES_SECS};
pub use runner::{
    population, run_fleet, run_fleet_with_progress, ChaosProfile, ChurnProfile, FleetConfig,
    FleetPolicy, Progress,
};
pub use scenario::ScenarioSpec;
pub use shard::{assign_round_robin, plan_cells, CellSpec};
