//! The distributed coordinator: spawn `fleet-shard` workers, push each a
//! contiguous cell range, merge their streamed deltas, and assemble the
//! same [`FleetReport`] the in-process runner produces — byte-for-byte
//! the same digest.
//!
//! ## Why the digest survives the process boundary
//!
//! Cells are seed-pure and the instruments are exactly mergeable integer
//! state, so the merged metrics are a *sum over cells* that no
//! partitioning — threads, processes, or a mix — can perturb. The
//! coordinator's job reduces to guaranteeing **exactly-once commit** per
//! cell:
//!
//! * a cell commits atomically when its `MetricsDelta` frame is applied
//!   (any `AttributionDelta` for the cell is stashed and folded in at
//!   the same instant, under the same lock);
//! * a per-run `done` set drops duplicates, so a worker that died after
//!   sending a cell and a replacement that re-ran it cannot double-count;
//! * a dead worker's **uncommitted** cells are exactly its assigned
//!   range minus the `done` set — a suffix of its contiguous range —
//!   and re-running them on a fresh worker reproduces the lost results
//!   exactly, because nothing about a cell depends on which process runs
//!   it.
//!
//! Crash detection is read-driven: every worker heartbeats a `Progress`
//! frame every ~2 s, and each reader thread's socket carries a read
//! timeout an order of magnitude larger, so silence means a dead or
//! wedged worker, not a slow cell. The drain handshake then closes the
//! loop on integrity: each surviving worker reports the FNV-1a digest of
//! its local merged metrics, which must equal the digest of what the
//! coordinator committed on that worker's behalf.

use crate::frame::{read_frame, FrameBuf, FrameType, WireError};
use crate::messages::{
    apply_attribution_delta, apply_metrics_delta, decode_final_report, decode_hello,
    decode_progress, encode_config_push, encode_drain, validate_attribution_delta,
    validate_metrics_delta, FinalReport,
};
use crate::worker::WorkerOptions;
use fleet::shard::CellSpec;
use fleet::{
    assign_contiguous, fnv1a, plan_cells, population, FleetConfig, FleetMetrics, FleetReport,
    Progress, ShardSummary,
};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Chaos injection for one initial worker slot (test hook; replacement
/// workers always run clean so a chaotic run still terminates).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerChaos {
    pub exit_after_cells: Option<u32>,
    pub drop_socket_after_cells: Option<u32>,
}

impl WorkerChaos {
    pub fn none() -> WorkerChaos {
        WorkerChaos::default()
    }
}

/// How to run a distributed fleet.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Worker processes to spawn (clamped to the cell count).
    pub workers: usize,
    /// Path to the `fleet-shard` binary.
    pub shard_bin: PathBuf,
    /// Per-connection read timeout — the crash detector. Workers
    /// heartbeat every ~2 s, so silence this long means a dead worker.
    pub read_timeout: Duration,
    /// How long to wait for a spawned worker to connect and say hello.
    pub connect_timeout: Duration,
    /// Replacement-worker budget; exceeding it aborts the run instead of
    /// thrashing against a systemic failure.
    pub max_rejoins: usize,
    /// Heartbeat cadence override for every spawned worker. `None` keeps
    /// the worker default (~2 s); tests shrink it so heartbeats
    /// interleave densely with delta traffic even on sub-second runs.
    pub heartbeat: Option<Duration>,
    /// Per-initial-slot chaos injection (tests only; empty = clean).
    pub chaos: Vec<WorkerChaos>,
}

impl DistributedConfig {
    pub fn new(workers: usize, shard_bin: PathBuf) -> DistributedConfig {
        DistributedConfig {
            workers: workers.max(1),
            shard_bin,
            read_timeout: Duration::from_secs(60),
            connect_timeout: Duration::from_secs(30),
            max_rejoins: workers.max(1) * 2,
            heartbeat: None,
            chaos: Vec::new(),
        }
    }
}

/// Why a distributed run failed.
#[derive(Debug)]
pub enum DistributedError {
    Io(std::io::Error),
    Wire(WireError),
    /// Spawning or connecting a worker failed.
    Spawn(String),
    /// A surviving worker's self-reported digest disagrees with what the
    /// coordinator committed for it — a protocol or merge bug, never
    /// acceptable.
    DigestMismatch {
        worker_id: u32,
        reported: u64,
        committed: u64,
    },
    /// Workers kept dying past the replacement budget.
    RejoinBudgetExhausted {
        lost_cells: usize,
    },
}

impl std::fmt::Display for DistributedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributedError::Io(e) => write!(f, "io: {e}"),
            DistributedError::Wire(e) => write!(f, "wire: {e}"),
            DistributedError::Spawn(s) => write!(f, "worker spawn: {s}"),
            DistributedError::DigestMismatch { worker_id, reported, committed } => write!(
                f,
                "worker {worker_id} digest handshake failed: worker reported {reported:016x}, coordinator committed {committed:016x}"
            ),
            DistributedError::RejoinBudgetExhausted { lost_cells } => {
                write!(f, "rejoin budget exhausted with {lost_cells} cells unrecovered")
            }
        }
    }
}

impl std::error::Error for DistributedError {}

impl From<std::io::Error> for DistributedError {
    fn from(e: std::io::Error) -> Self {
        DistributedError::Io(e)
    }
}

impl From<WireError> for DistributedError {
    fn from(e: WireError) -> Self {
        DistributedError::Wire(e)
    }
}

/// A successful distributed run: the report plus execution facts about
/// the distribution itself.
#[derive(Debug)]
pub struct DistributedOutcome {
    pub report: FleetReport,
    /// Replacement workers spawned after crashes/disconnects.
    pub rejoins: usize,
    /// Total worker processes spawned (initial + replacements).
    pub workers_spawned: usize,
}

/// Commit state shared between reader threads: which cells have been
/// folded into the merged metrics. Applies happen under this lock so a
/// rejoin's undone-scan can never observe a half-applied cell.
struct CommitState {
    done: HashSet<u64>,
}

/// What reader threads report to the main loop.
enum Event {
    /// A heartbeat arrived (liveness only; progress is driven by
    /// commits so replacements don't double-report).
    Heartbeat,
    CellCommitted {
        slot: usize,
        cell: u64,
    },
    Final {
        slot: usize,
        report: FinalReport,
        committed_digest: u64,
    },
    Down {
        slot: usize,
        reason: String,
    },
}

struct WorkerSlot {
    worker_id: u32,
    assigned: Vec<CellSpec>,
    write_half: TcpStream,
    alive: bool,
    /// Cells committed from this slot (progress callback bookkeeping).
    committed: usize,
    users_done: u64,
}

/// Kills any still-running children when the coordinator unwinds, so an
/// error path cannot leak worker processes.
struct ChildReaper(Vec<Child>);

impl Drop for ChildReaper {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Run the fleet across worker processes, discarding progress beats.
pub fn run_fleet_distributed(
    cfg: &FleetConfig,
    dcfg: &DistributedConfig,
) -> Result<FleetReport, DistributedError> {
    run_fleet_distributed_with_progress(cfg, dcfg, |_| {}).map(|o| o.report)
}

fn spawn_worker(
    dcfg: &DistributedConfig,
    port: u16,
    worker_id: u32,
    chaos: WorkerChaos,
) -> Result<Child, DistributedError> {
    let mut opts = WorkerOptions::new(format!("127.0.0.1:{port}"), worker_id);
    if let Some(hb) = dcfg.heartbeat {
        opts.heartbeat_millis = hb.as_millis() as u64;
    }
    opts.chaos_exit_after_cells = chaos.exit_after_cells.unwrap_or(0);
    opts.chaos_drop_socket_after_cells = chaos.drop_socket_after_cells.unwrap_or(0);
    let mut cmd = Command::new(&dcfg.shard_bin);
    cmd.args(opts.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    cmd.spawn()
        .map_err(|e| DistributedError::Spawn(format!("{}: {e}", dcfg.shard_bin.display())))
}

/// Accept one worker connection and return its stream + announced id.
/// The listener is non-blocking so a worker that dies before connecting
/// turns into a timely `Spawn` error instead of a hang.
fn accept_hello(
    listener: &TcpListener,
    dcfg: &DistributedConfig,
) -> Result<(TcpStream, u32), DistributedError> {
    let deadline = Instant::now() + dcfg.connect_timeout;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(dcfg.read_timeout))?;
                let mut payload = Vec::new();
                let mut r = stream.try_clone()?;
                let hello = match read_frame(&mut r, &mut payload)? {
                    Some(FrameType::Hello) => decode_hello(&payload)?,
                    _ => {
                        return Err(DistributedError::Spawn(
                            "worker connected but did not say hello".into(),
                        ))
                    }
                };
                return Ok((stream, hello.worker_id));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(DistributedError::Spawn(format!(
                        "no worker connected within {:?}",
                        dcfg.connect_timeout
                    )));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Send a worker its configuration and cell range.
fn push_config(
    stream: &mut TcpStream,
    cfg: &FleetConfig,
    cells: &[CellSpec],
) -> Result<(), DistributedError> {
    let mut fb = FrameBuf::new();
    encode_config_push(&mut fb, cfg, cells);
    stream.write_all(fb.finish()).map_err(DistributedError::Io)
}

/// The per-connection reader: validates and commits frames until the
/// worker reports or dies. All exits funnel into exactly one terminal
/// event (`Final` or `Down`).
#[allow(clippy::too_many_arguments)]
fn reader_loop(
    slot: usize,
    worker_id: u32,
    mut stream: TcpStream,
    commit: Arc<Mutex<CommitState>>,
    merged: Arc<FleetMetrics>,
    events: mpsc::Sender<Event>,
) {
    let acc = FleetMetrics::default(); // this worker's committed mirror
    let mut payload = Vec::new();
    let mut stash: Vec<u8> = Vec::new(); // pending attribution payload
    let mut stash_cell: Option<u64> = None;

    let down = |reason: String| Event::Down { slot, reason };
    let terminal = loop {
        match read_frame(&mut stream, &mut payload) {
            Ok(None) => break down("connection closed before final report".into()),
            Err(e) => break down(e.to_string()),
            Ok(Some(FrameType::Progress)) => match decode_progress(&payload) {
                Ok(p) if p.worker_id == worker_id => {
                    let _ = events.send(Event::Heartbeat);
                }
                Ok(_) => break down("progress frame with wrong worker id".into()),
                Err(e) => break down(e.to_string()),
            },
            Ok(Some(FrameType::AttributionDelta)) => match validate_attribution_delta(&payload) {
                Ok(head) if head.worker_id == worker_id => {
                    std::mem::swap(&mut stash, &mut payload);
                    stash_cell = Some(head.cell);
                }
                Ok(_) => break down("attribution delta with wrong worker id".into()),
                Err(e) => break down(e.to_string()),
            },
            Ok(Some(FrameType::MetricsDelta)) => {
                let head = match validate_metrics_delta(&payload) {
                    Ok(h) if h.worker_id == worker_id => h,
                    Ok(_) => break down("metrics delta with wrong worker id".into()),
                    Err(e) => break down(e.to_string()),
                };
                let fresh = {
                    let mut c = commit.lock().expect("commit lock");
                    if c.done.contains(&head.cell) {
                        false
                    } else {
                        // Validated above; apply cannot fail, and the
                        // attribution stash commits under the same lock,
                        // so the cell lands atomically.
                        apply_metrics_delta(&payload, &merged).expect("validated delta");
                        apply_metrics_delta(&payload, &acc).expect("validated delta");
                        if stash_cell == Some(head.cell) {
                            apply_attribution_delta(&stash, &merged.attribution)
                                .expect("validated attribution delta");
                            apply_attribution_delta(&stash, &acc.attribution)
                                .expect("validated attribution delta");
                        }
                        c.done.insert(head.cell);
                        true
                    }
                };
                stash_cell = None;
                if fresh {
                    let _ = events.send(Event::CellCommitted {
                        slot,
                        cell: head.cell,
                    });
                }
            }
            Ok(Some(FrameType::FinalReport)) => match decode_final_report(&payload) {
                Ok(report) if report.worker_id == worker_id => {
                    break Event::Final {
                        slot,
                        report,
                        committed_digest: fnv1a(acc.to_json().as_bytes()),
                    };
                }
                Ok(_) => break down("final report with wrong worker id".into()),
                Err(e) => break down(e.to_string()),
            },
            Ok(Some(t)) => break down(format!("unexpected frame type {t:?} from worker")),
        }
    };
    let _ = events.send(terminal);
}

/// Run the fleet across worker processes; `on_progress` fires once per
/// committed cell, mirroring the in-process runner's callback.
pub fn run_fleet_distributed_with_progress(
    cfg: &FleetConfig,
    dcfg: &DistributedConfig,
    mut on_progress: impl FnMut(&Progress),
) -> Result<DistributedOutcome, DistributedError> {
    let started = Instant::now();

    // Resolve the config exactly like the in-process runner: the hot
    // threshold is derived once, here, and shipped resolved so every
    // worker plans from identical inputs.
    let (_sampler, hot_threshold) = population(cfg);
    let cfg = FleetConfig {
        hot_threshold: Some(hot_threshold),
        ..cfg.clone()
    };

    let cells = plan_cells(cfg.users, cfg.cell_users);
    let users_by_cell: HashMap<u64, u64> = cells.iter().map(|c| (c.cell, c.users)).collect();
    let total_cells = cells.len();
    let workers = dcfg.workers.min(total_cells.max(1));
    let assignments = if total_cells == 0 {
        Vec::new()
    } else {
        assign_contiguous(&cells, workers)
    };

    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let port = listener.local_addr()?.port();

    let commit = Arc::new(Mutex::new(CommitState {
        done: HashSet::new(),
    }));
    let merged = Arc::new(FleetMetrics::default());
    let (events_tx, events_rx) = mpsc::channel::<Event>();

    let mut reaper = ChildReaper(Vec::new());
    let mut slots: Vec<WorkerSlot> = Vec::new();
    let mut next_worker_id: u32 = 0;

    // Spawn everyone first, then accept: workers connect in whatever
    // order the scheduler serves, and the hello frame tells us which
    // cell range each connection gets. Chaos flags are tied to the
    // *slot*, which the worker id identifies.
    let mut start_worker = |assigned: Vec<CellSpec>,
                            chaos: WorkerChaos,
                            slots: &mut Vec<WorkerSlot>,
                            reaper: &mut ChildReaper|
     -> Result<(), DistributedError> {
        let worker_id = next_worker_id;
        next_worker_id += 1;
        reaper.0.push(spawn_worker(dcfg, port, worker_id, chaos)?);
        let (mut stream, announced) = accept_hello(&listener, dcfg)?;
        if announced != worker_id {
            return Err(DistributedError::Spawn(format!(
                "worker announced id {announced}, expected {worker_id}"
            )));
        }
        push_config(&mut stream, &cfg, &assigned)?;
        let slot = slots.len();
        let read_half = stream.try_clone()?;
        slots.push(WorkerSlot {
            worker_id,
            assigned,
            write_half: stream,
            alive: true,
            committed: 0,
            users_done: 0,
        });
        let commit = Arc::clone(&commit);
        let merged = Arc::clone(&merged);
        let events = events_tx.clone();
        std::thread::spawn(move || reader_loop(slot, worker_id, read_half, commit, merged, events));
        Ok(())
    };

    for (i, assigned) in assignments.into_iter().enumerate() {
        let chaos = dcfg.chaos.get(i).copied().unwrap_or_default();
        start_worker(assigned, chaos, &mut slots, &mut reaper)?;
    }

    // ------------------------------------------------------- main loop
    let mut committed_cells = 0usize;
    let mut rejoins = 0usize;
    let mut drained = false;
    let mut outstanding = slots.len(); // reader threads yet to terminate
    let mut finals: Vec<FinalReport> = Vec::new();

    while committed_cells < total_cells || outstanding > 0 {
        if committed_cells == total_cells && !drained {
            drained = true;
            let mut fb = FrameBuf::new();
            encode_drain(&mut fb);
            let frame = fb.finish().to_vec();
            for s in slots.iter_mut().filter(|s| s.alive) {
                // A write failure here just means the reader is about to
                // observe the death; that path owns the bookkeeping.
                let _ = s.write_half.write_all(&frame);
            }
        }

        let ev = events_rx.recv().expect("reader threads outlive the run");
        match ev {
            Event::Heartbeat => {}
            Event::CellCommitted { slot, cell } => {
                committed_cells += 1;
                let s = &mut slots[slot];
                s.committed += 1;
                s.users_done += users_by_cell.get(&cell).copied().unwrap_or(0);
                on_progress(&Progress {
                    shard: s.worker_id as usize,
                    cells_done: s.committed,
                    cells_total: s.assigned.len(),
                    users_done: s.users_done,
                });
            }
            Event::Final {
                slot,
                report,
                committed_digest,
            } => {
                outstanding -= 1;
                slots[slot].alive = false;
                if report.digest != committed_digest {
                    return Err(DistributedError::DigestMismatch {
                        worker_id: report.worker_id,
                        reported: report.digest,
                        committed: committed_digest,
                    });
                }
                finals.push(report);
            }
            Event::Down { slot, reason } => {
                outstanding -= 1;
                slots[slot].alive = false;
                let undone: Vec<CellSpec> = {
                    let c = commit.lock().expect("commit lock");
                    slots[slot]
                        .assigned
                        .iter()
                        .filter(|cs| !c.done.contains(&cs.cell))
                        .copied()
                        .collect()
                };
                if undone.is_empty() {
                    // All its cells are committed; only its execution
                    // facts (and digest handshake) are lost. The merged
                    // metrics — and therefore the digest — are intact.
                    eprintln!(
                        "fleet-wire: worker {} lost after finishing its range ({reason})",
                        slots[slot].worker_id
                    );
                    continue;
                }
                if rejoins >= dcfg.max_rejoins {
                    return Err(DistributedError::RejoinBudgetExhausted {
                        lost_cells: undone.len(),
                    });
                }
                rejoins += 1;
                eprintln!(
                    "fleet-wire: worker {} died ({reason}); re-running {} lost cells on a replacement",
                    slots[slot].worker_id,
                    undone.len()
                );
                outstanding += 1;
                start_worker(undone, WorkerChaos::none(), &mut slots, &mut reaper)?;
            }
        }
    }

    // Workers exit after their final report; reap them so the reaper's
    // kill-on-drop is a no-op on the success path.
    for c in &mut reaper.0 {
        let _ = c.wait();
    }

    finals.sort_by_key(|f| f.worker_id);
    let report = assemble_report(
        &cfg,
        hot_threshold,
        workers,
        &merged,
        &finals,
        started.elapsed(),
    );
    Ok(DistributedOutcome {
        report,
        rejoins,
        workers_spawned: next_worker_id as usize,
    })
}

/// Fold worker final reports and the merged metrics into a
/// [`FleetReport`]. Allocation counts are the **sum of the workers'**
/// per-process counters — the coordinator's own allocations (framing,
/// merge bookkeeping) are not simulation work and are excluded, so the
/// distributed alloc gate measures the same thing the in-process one
/// does.
fn assemble_report(
    cfg: &FleetConfig,
    hot_threshold: u64,
    workers: usize,
    merged: &FleetMetrics,
    finals: &[FinalReport],
    wall: Duration,
) -> FleetReport {
    let per_shard = finals
        .iter()
        .map(|f| ShardSummary {
            shard: f.worker_id as usize,
            cells: f.cells as usize,
            users: f.users,
            sim_events: f.sim_events,
            wall_secs: f.wall_micros as f64 / 1e6,
        })
        .collect();
    FleetReport {
        users: cfg.users,
        shards: workers,
        policy: cfg.policy.name().to_string(),
        master_seed: cfg.master_seed,
        hot_threshold,
        merged: merged.clone(),
        per_shard,
        wall_secs: wall.as_secs_f64(),
        allocs: finals.iter().map(|f| f.allocs).sum(),
        alloc_bytes: finals.iter().map(|f| f.alloc_bytes).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn final_report(worker_id: u32, allocs: u64, alloc_bytes: u64) -> FinalReport {
        FinalReport {
            worker_id,
            cells: 2,
            users: 100,
            sim_events: 1000,
            wall_micros: 2_500_000,
            allocs,
            alloc_bytes,
            digest: 0,
        }
    }

    #[test]
    fn report_allocs_are_the_sum_of_worker_counters() {
        // Satellite invariant: distributed alloc accounting merges the
        // *workers'* per-process counts; whatever the coordinator
        // process allocates is not part of the number.
        let cfg = FleetConfig::new(200, 2, fleet::FleetPolicy::Fast);
        let merged = FleetMetrics::default();
        merged.sim_events.add(2000);
        let finals = vec![
            final_report(0, 10_000, 800_000),
            final_report(1, 2_345, 120_000),
        ];
        let report = assemble_report(&cfg, 7, 2, &merged, &finals, Duration::from_secs(3));
        assert_eq!(report.allocs, 12_345);
        assert_eq!(report.alloc_bytes, 920_000);
        // Per-shard execution facts survive with worker identity.
        assert_eq!(report.per_shard.len(), 2);
        assert_eq!(report.per_shard[1].shard, 1);
        assert!((report.per_shard[1].wall_secs - 2.5).abs() < 1e-9);
        // And the digest tracks only the merged metrics, as in-process.
        assert_eq!(
            report.digest(),
            format!("{:016x}", fnv1a(merged.to_json().as_bytes()))
        );
    }
}
