//! The distributed coordinator: spawn `fleet-shard` workers, deal the
//! cells across them round-robin, commit their streamed deltas, and
//! assemble the same [`FleetReport`] the in-process runner produces —
//! byte-for-byte the same digest.
//!
//! ## Who owns what
//!
//! * One **reader thread per connection** owns that socket's read half
//!   and nothing else: it forwards each frame as `(slot, type, payload)`,
//!   then the reason the stream ended, and never looks inside a payload.
//! * The **main loop** owns everything the frames mean — the plan, the
//!   merged metrics, each connection's digest mirror, which cells are
//!   done — in one `Commit` state machine: data in, decision out. It is
//!   the only thread that validates or applies, so there is no lock, and
//!   a rejoin's undone-scan cannot observe a half-applied cell because
//!   scan and apply are the same thread. `Commit` touches no socket,
//!   which is what lets its unit tests drive it with encoded frames alone.
//!
//! ## Why the digest survives the process boundary
//!
//! Cells are seed-pure and the instruments are exactly mergeable integer
//! state, so the merged metrics are a *sum over cells* that no
//! partitioning — threads, processes, or a mix — can perturb. The
//! coordinator's job reduces to guaranteeing **exactly-once commit** per
//! cell:
//!
//! * a delta is accepted only from the connection its cell was dealt to,
//!   and only for a cell of the plan — anything else takes that worker
//!   down with nothing applied;
//! * a cell commits when its `MetricsDelta` is applied, after the whole
//!   payload decoded — attribution rides inside it, so a cell lands whole
//!   or not at all;
//! * a dense per-cell `done` flag drops duplicates, so no cell can be
//!   counted twice whoever sends it again;
//! * a dead worker's **uncommitted** cells are exactly its deal minus
//!   the done cells, and re-running them on a fresh worker reproduces
//!   the lost results exactly, because nothing about a cell depends on
//!   which process runs it. That filter is all a rejoin needs, so the
//!   deal is [`assign_round_robin`], the same as the in-process runner's.
//!
//! Crash detection is read-driven: every worker heartbeats a `Progress`
//! frame every ~2 s, and each reader thread's socket carries a read
//! timeout an order of magnitude larger, so silence means a dead or
//! wedged worker, not a slow cell. The drain handshake then closes the
//! loop on integrity: each surviving worker reports the FNV-1a digest of
//! its local merged metrics, which must equal the digest of what the
//! coordinator committed on that worker's behalf, and the hot threshold it
//! resolved, which must equal every other worker's.
//!
//! The coordinator runs no cell, so it generates no applet catalog: it
//! ships the config as given, and each worker resolves the hot threshold
//! from it exactly as the in-process runner does.

use crate::frame::{read_frame, write_frame, FrameBuf, FrameType, PayloadReader, WireError};
use crate::messages::{encode_config_push, encode_drain, FinalReport, Frame};
use crate::worker::WorkerOptions;
use fleet::shard::CellSpec;
use fleet::{
    assign_round_robin, fnv1a, plan_cells, FleetConfig, FleetMetrics, FleetReport, Progress,
    ShardSummary,
};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
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
    /// Two workers resolved different hot thresholds from the same config —
    /// a determinism bug, never acceptable.
    HotThresholdMismatch {
        worker_id: u32,
        reported: u64,
        agreed_by: u32,
        agreed: u64,
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
            DistributedError::HotThresholdMismatch { worker_id, reported, agreed_by, agreed } => write!(
                f,
                "worker {worker_id} resolved hot threshold {reported}, worker {agreed_by} resolved {agreed}"
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

/// One cell of the plan as the commit path sees it (index = cell id).
struct PlannedCell {
    spec: CellSpec,
    /// The connection it is currently dealt to — the only one whose
    /// deltas for it are accepted.
    owner: usize,
    done: bool,
}

/// One connection's ledger (index = slot = the worker's id).
struct Dealt {
    cells_total: usize,
    cells_done: usize,
    users_done: u64,
    /// The sum of every delta committed from this connection; its digest
    /// must equal the worker's own at the final handshake.
    mirror: FleetMetrics,
    /// Until its final report or its loss; later messages are ignored.
    live: bool,
}

/// What a reader forwards: a frame as it arrived, or why there will be
/// no more.
type Message = Result<(FrameType, Vec<u8>), String>;

/// The commit path's decision on one message.
#[derive(Debug)]
enum Step {
    /// Nothing to do: a heartbeat (liveness only — progress is driven by
    /// commits so a replacement never double-reports), a duplicate cell,
    /// or anything from a connection already closed out.
    Quiet,
    /// A cell committed; the beat to report.
    Committed(Progress),
    /// The worker reported, its digest agrees with its mirror and its hot
    /// threshold with every earlier report's.
    Final(FinalReport),
    /// The worker is lost to the run; [`Commit::undone`] is what to re-run.
    Down(String),
}

/// Everything the frames mean, owned by the main loop: which cells are
/// dealt to whom, which are done, and the metrics committed so far.
struct Commit {
    merged: FleetMetrics,
    cells: Vec<PlannedCell>,
    dealt: Vec<Dealt>,
    /// Cells not yet committed.
    remaining: usize,
    /// The first final report's `(worker_id, hot_threshold)`; every later
    /// one must carry the same threshold.
    agreed: Option<(u32, u64)>,
}

impl Commit {
    /// `cells` is the whole plan, dense in cell id (as [`plan_cells`] makes it).
    fn new(cells: &[CellSpec]) -> Commit {
        let plan = |&spec| PlannedCell {
            spec,
            owner: usize::MAX,
            done: false,
        };
        Commit {
            merged: FleetMetrics::default(),
            cells: cells.iter().map(plan).collect(),
            dealt: Vec::new(),
            remaining: cells.len(),
            agreed: None,
        }
    }

    /// Open the next connection's ledger and hand it `assigned` (cells of
    /// the plan). Returns its slot, which is also the worker's id.
    fn deal(&mut self, assigned: &[CellSpec]) -> usize {
        let slot = self.dealt.len();
        for c in assigned {
            self.cells[c.cell as usize].owner = slot;
        }
        self.dealt.push(Dealt {
            cells_total: assigned.len(),
            cells_done: 0,
            users_done: 0,
            mirror: FleetMetrics::default(),
            live: true,
        });
        slot
    }

    /// Decide one message from `slot`'s reader. `Err` fails the whole run.
    fn step(&mut self, slot: usize, msg: Message) -> Result<Step, DistributedError> {
        if !self.dealt[slot].live {
            return Ok(Step::Quiet);
        }
        let step = msg
            .and_then(|(ftype, payload)| self.accept(slot, ftype, &payload))
            .unwrap_or_else(Step::Down);
        if let Step::Final(report) = &step {
            let committed = fnv1a(self.dealt[slot].mirror.to_json().as_bytes());
            if report.digest != committed {
                return Err(DistributedError::DigestMismatch {
                    worker_id: report.worker_id,
                    reported: report.digest,
                    committed,
                });
            }
            let (agreed_by, agreed) = *self
                .agreed
                .get_or_insert((report.worker_id, report.hot_threshold));
            if report.hot_threshold != agreed {
                return Err(DistributedError::HotThresholdMismatch {
                    worker_id: report.worker_id,
                    reported: report.hot_threshold,
                    agreed_by,
                    agreed,
                });
            }
        }
        if matches!(step, Step::Final(_) | Step::Down(_)) {
            self.dealt[slot].live = false;
        }
        Ok(step)
    }

    /// Decode one frame completely, then apply it. `Err` is why its
    /// sender goes down; nothing was applied.
    fn accept(&mut self, slot: usize, ftype: FrameType, payload: &[u8]) -> Result<Step, String> {
        let wire = |e: WireError| e.to_string();
        let w = &mut self.dealt[slot];
        // Every worker → coordinator payload starts with the sender's id.
        let sender = PayloadReader::new(payload).u32("sender id").map_err(wire)?;
        if sender != slot as u32 {
            return Err(format!(
                "{ftype:?} frame stamped worker {sender} on worker {slot}'s connection"
            ));
        }
        match Frame::decode(ftype, payload).map_err(wire)? {
            Frame::MetricsDelta { head, metrics } => {
                let cell = owned(&mut self.cells, slot, head.cell)?;
                if cell.done {
                    return Ok(Step::Quiet);
                }
                // The delta decoded whole into `metrics`, so nothing here
                // can fail, and this is the only thread that merges or
                // scans `done`: the cell lands whole or not at all.
                self.merged.merge_from(&metrics);
                w.mirror.merge_from(&metrics);
                cell.done = true;
                self.remaining -= 1;
                w.cells_done += 1;
                w.users_done += cell.spec.users;
                Ok(Step::Committed(Progress {
                    shard: slot,
                    cells_done: w.cells_done,
                    cells_total: w.cells_total,
                    users_done: w.users_done,
                }))
            }
            Frame::Progress(_) => Ok(Step::Quiet),
            Frame::FinalReport(_) if w.cells_done < w.cells_total => {
                Err("final report with cells of its deal uncommitted".into())
            }
            Frame::FinalReport(report) => Ok(Step::Final(report)),
            _ => Err(format!("unexpected frame type {ftype:?} from worker")),
        }
    }

    /// Connections that have neither reported nor been lost.
    fn live(&self) -> usize {
        self.dealt.iter().filter(|w| w.live).count()
    }

    /// What a lost connection leaves to re-run: its deal minus what
    /// committed.
    fn undone(&self, slot: usize) -> Vec<CellSpec> {
        let left = self.cells.iter().filter(|c| c.owner == slot && !c.done);
        left.map(|c| c.spec).collect()
    }
}

/// The planned cell `id`, if it is dealt to `slot`. A delta for any other
/// cell — another worker's, or none of the plan's — is refused by name.
fn owned(cells: &mut [PlannedCell], slot: usize, id: u64) -> Result<&mut PlannedCell, String> {
    let cell = usize::try_from(id).ok().and_then(|i| cells.get_mut(i));
    cell.filter(|c| c.owner == slot)
        .ok_or_else(|| format!("delta for cell {id}, which it was not dealt"))
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

/// The accept loop's first and longest wait between polls. A spawned
/// worker connects about a millisecond after it starts, so the wait starts
/// short and grows by half after each miss, up to the ceiling.
const ACCEPT_FIRST_WAIT: Duration = Duration::from_micros(100);
const ACCEPT_MAX_WAIT: Duration = Duration::from_millis(5);

/// Accept one worker connection and return its stream + announced id.
/// The listener is non-blocking so a worker that dies before connecting
/// turns into a timely `Spawn` error instead of a hang.
fn accept_hello(
    listener: &TcpListener,
    dcfg: &DistributedConfig,
) -> Result<(TcpStream, u32), DistributedError> {
    let deadline = Instant::now() + dcfg.connect_timeout;
    let mut wait = ACCEPT_FIRST_WAIT;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(dcfg.read_timeout))?;
                return match Frame::read(&mut &stream, &mut Vec::new())? {
                    Some(Frame::Hello(hello)) => Ok((stream, hello.worker_id)),
                    _ => Err(DistributedError::Spawn(
                        "worker connected but did not say hello".into(),
                    )),
                };
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(DistributedError::Spawn(format!(
                        "no worker connected within {:?}",
                        dcfg.connect_timeout
                    )));
                }
                std::thread::sleep(wait.min(deadline - now));
                wait = (wait * 3 / 2).min(ACCEPT_MAX_WAIT);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// The per-connection reader: forward every frame to the main loop, then
/// the reason there will be no more. It decides nothing.
fn reader_loop(slot: usize, mut stream: TcpStream, events: mpsc::Sender<(usize, Message)>) {
    loop {
        let mut payload = Vec::new();
        let msg = match read_frame(&mut stream, &mut payload) {
            Ok(Some(ftype)) => Ok((ftype, payload)),
            Ok(None) => Err("connection closed before final report".to_string()),
            Err(e) => Err(e.to_string()),
        };
        let last = msg.is_err();
        if events.send((slot, msg)).is_err() || last {
            return;
        }
    }
}

/// Run the fleet across worker processes; `on_progress` fires once per
/// committed cell, mirroring the in-process runner's callback.
pub fn run_fleet_distributed_with_progress(
    cfg: &FleetConfig,
    dcfg: &DistributedConfig,
    mut on_progress: impl FnMut(&Progress),
) -> Result<DistributedOutcome, DistributedError> {
    let started = Instant::now();
    let cells = plan_cells(cfg.users, cfg.cell_users);
    let workers = dcfg.workers.min(cells.len().max(1));

    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let port = listener.local_addr()?.port();

    let mut commit = Commit::new(&cells);
    let (events_tx, events_rx) = mpsc::channel::<(usize, Message)>();

    std::thread::scope(|scope| {
        // Declared inside the scope so that on every way out it drops —
        // killing whatever still runs, which closes those sockets and so
        // ends their readers — before the scope joins the reader threads.
        let mut reaper = ChildReaper(Vec::new());
        let mut links: Vec<TcpStream> = Vec::new(); // write halves, by slot

        // One worker at a time: spawn it, wait for it to connect and say
        // hello, push it the config and its cells, start its reader. The
        // slot a worker's ledger lands in is the id it is spawned with
        // (chaos flags are tied to the slot, which the id identifies).
        let start_worker = |assigned: Vec<CellSpec>,
                            chaos: WorkerChaos,
                            commit: &mut Commit,
                            links: &mut Vec<TcpStream>,
                            reaper: &mut ChildReaper|
         -> Result<(), DistributedError> {
            let slot = commit.deal(&assigned);
            reaper.0.push(spawn_worker(dcfg, port, slot as u32, chaos)?);
            let (mut stream, announced) = accept_hello(&listener, dcfg)?;
            if announced != slot as u32 {
                return Err(DistributedError::Spawn(format!(
                    "worker announced id {announced}, expected {slot}"
                )));
            }
            let mut fb = FrameBuf::new();
            encode_config_push(&mut fb, cfg, &assigned);
            write_frame(&mut stream, fb.finish())?;
            let read_half = stream.try_clone()?;
            links.push(stream);
            let events = events_tx.clone();
            scope.spawn(move || reader_loop(slot, read_half, events));
            Ok(())
        };

        // With no cells there is nothing to deal and nobody to spawn.
        let deals = assign_round_robin(&cells, workers);
        for (i, assigned) in deals.into_iter().enumerate() {
            if !assigned.is_empty() {
                let chaos = dcfg.chaos.get(i).copied().unwrap_or_default();
                start_worker(assigned, chaos, &mut commit, &mut links, &mut reaper)?;
            }
        }

        // --------------------------------------------------- main loop
        let mut rejoins = 0usize;
        let mut drained = false;
        let mut finals: Vec<FinalReport> = Vec::new();

        while commit.remaining > 0 || commit.live() > 0 {
            if commit.remaining == 0 && !drained {
                drained = true;
                let mut fb = FrameBuf::new();
                encode_drain(&mut fb);
                for (slot, link) in links.iter_mut().enumerate() {
                    if commit.dealt[slot].live {
                        // A write failure here just means the reader is about
                        // to report the death; that path owns the bookkeeping.
                        let _ = write_frame(link, fb.finish());
                    }
                }
            }

            let (slot, msg) = events_rx.recv().expect("this loop holds a sender");
            match commit.step(slot, msg)? {
                Step::Quiet => {}
                Step::Committed(beat) => on_progress(&beat),
                Step::Final(report) => finals.push(report),
                Step::Down(reason) => {
                    // When the verdict was ours the socket is still open:
                    // close it, so the worker stops and its reader ends.
                    let _ = links[slot].shutdown(Shutdown::Both);
                    let undone = commit.undone(slot);
                    if undone.is_empty() {
                        // All its cells are committed; only its execution
                        // facts (and digest handshake) are lost. The merged
                        // metrics — and therefore the digest — are intact.
                        eprintln!(
                            "fleet-wire: worker {slot} lost after finishing its cells ({reason})"
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
                        "fleet-wire: worker {slot} died ({reason}); re-running {} lost cells on a replacement",
                        undone.len()
                    );
                    let clean = WorkerChaos::none();
                    start_worker(undone, clean, &mut commit, &mut links, &mut reaper)?;
                }
            }
        }

        // Workers exit after their final report; reap them so the reaper's
        // kill-on-drop is a no-op on the success path.
        for c in &mut reaper.0 {
            let _ = c.wait();
        }

        finals.sort_by_key(|f| f.worker_id);
        let wall = started.elapsed();
        Ok(DistributedOutcome {
            report: assemble_report(cfg, workers, &commit.merged, &finals, wall),
            rejoins,
            workers_spawned: links.len(),
        })
    })
}

/// Fold worker final reports and the merged metrics into a
/// [`FleetReport`]. Allocation counts are the **sum of the workers'**
/// per-process counters — the coordinator's own allocations (framing,
/// merge bookkeeping) are not simulation work and are excluded, so the
/// distributed alloc gate measures the same thing the in-process one
/// does. The hot threshold is the one the workers agreed on (`Commit`
/// refused any disagreement); with no final report it is the config's.
fn assemble_report(
    cfg: &FleetConfig,
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
        hot_threshold: finals
            .first()
            .map_or(cfg.hot_threshold.unwrap_or(0), |f| f.hot_threshold),
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
    use crate::frame::HEADER_LEN;
    use crate::messages::{encode_final_report, encode_metrics_delta, DeltaHead};

    // ---- `Commit` driven with encoded frames: no socket, thread or process.

    /// Six cells dealt round-robin to two connections: slot 0 holds cells
    /// 0, 2, 4 and slot 1 holds 1, 3, 5.
    fn two_dealt() -> Commit {
        let cells = plan_cells(300, 50);
        let mut commit = Commit::new(&cells);
        for assigned in assign_round_robin(&cells, 2) {
            commit.deal(&assigned);
        }
        commit
    }

    /// What one cell reports; different for every cell.
    fn cell_metrics(cell: u64) -> FleetMetrics {
        let m = FleetMetrics::default();
        m.cells.add(1);
        m.polls_sent.add(cell + 1);
        m.t2a_micros.record(1_000 * (cell + 1));
        m.attribution.total.record(cell + 7);
        m
    }

    fn message(ftype: FrameType, encode: impl FnOnce(&mut FrameBuf)) -> Message {
        let mut fb = FrameBuf::new();
        encode(&mut fb);
        Ok((ftype, fb.finish()[HEADER_LEN..].to_vec()))
    }

    fn metrics(worker_id: u32, cell: u64) -> Message {
        let head = DeltaHead { worker_id, cell };
        message(FrameType::MetricsDelta, |fb| {
            encode_metrics_delta(fb, head, &cell_metrics(cell))
        })
    }

    fn final_frame(worker_id: u32, digest: u64, hot_threshold: u64) -> Message {
        let report = FinalReport {
            digest,
            hot_threshold,
            ..final_report(worker_id, 0, 0)
        };
        message(FrameType::FinalReport, |fb| {
            encode_final_report(fb, &report)
        })
    }

    fn ids(cells: &[CellSpec]) -> Vec<u64> {
        cells.iter().map(|c| c.cell).collect()
    }

    type Stepped = Result<Step, DistributedError>;

    fn quiet(step: Stepped) {
        assert!(matches!(step, Ok(Step::Quiet)), "{step:?}");
    }

    fn committed(step: Stepped) -> Progress {
        match step {
            Ok(Step::Committed(beat)) => beat,
            other => panic!("expected a commit: {other:?}"),
        }
    }

    fn down(step: Stepped) -> String {
        match step {
            Ok(Step::Down(reason)) => reason,
            other => panic!("expected Down: {other:?}"),
        }
    }

    #[test]
    fn a_duplicate_cell_is_ignored_and_fires_no_progress() {
        let mut commit = two_dealt();
        let beat = committed(commit.step(0, metrics(0, 2)));
        assert_eq!((beat.shard, beat.cells_done, beat.cells_total), (0, 1, 3));
        assert_eq!(beat.users_done, 50);
        let once = commit.merged.clone();
        quiet(commit.step(0, metrics(0, 2)));
        assert_eq!(commit.merged, once);
        assert_eq!((commit.remaining, commit.live()), (5, 2));
    }

    #[test]
    fn a_foreign_unplanned_or_misstamped_delta_takes_its_sender_down_unapplied() {
        // Each arrives on slot 0's connection: cell 1 is slot 1's, cell
        // 999 999 is nobody's, and the last is stamped with slot 1's id.
        for (msg, names) in [
            (metrics(0, 1), "cell 1,"),
            (metrics(0, 999_999), "cell 999999,"),
            (metrics(1, 0), "stamped worker 1"),
        ] {
            let mut commit = two_dealt();
            let reason = down(commit.step(0, msg));
            assert!(reason.contains(names), "{reason}");
            assert_eq!(commit.merged, FleetMetrics::default(), "{names}");
            assert_eq!((commit.remaining, commit.live()), (6, 1), "{names}");
            assert_eq!(ids(&commit.undone(0)), [0, 2, 4]);
            // Whatever it sends after that is ignored.
            quiet(commit.step(0, metrics(0, 0)));
            assert_eq!(commit.remaining, 6);
        }
    }

    #[test]
    fn a_delta_carrying_attribution_commits_both_in_one_step() {
        let mut commit = two_dealt();
        committed(commit.step(0, metrics(0, 4)));
        assert!(commit.merged.attribution.total.count() > 0);
        assert_eq!(commit.merged, cell_metrics(4));
        assert_eq!(commit.merged, commit.dealt[0].mirror);
    }

    #[test]
    fn a_delta_with_a_hostile_histogram_takes_its_sender_down_with_nothing_applied() {
        let mut commit = two_dealt();
        committed(commit.step(0, metrics(0, 0)));
        let before = commit.merged.clone();
        // Cell 2's own delta, but its T2A histogram names a bucket 5000:
        // the index that once reached an unchecked slice index.
        let m = cell_metrics(2);
        let t2a = serde_json::to_string(&m.t2a_micros).unwrap();
        let hostile = r#"{"buckets":[[5000,1]],"count":1,"max":7,"min":7,"sum":7}"#;
        let json = m.to_json().replace(&t2a, hostile);
        assert_ne!(json, m.to_json());
        let msg = message(FrameType::MetricsDelta, |fb| {
            fb.begin(FrameType::MetricsDelta);
            fb.put_u32(0);
            fb.put_u64(2);
            fb.put_bytes(json.as_bytes());
        });
        let reason = down(commit.step(0, msg));
        assert!(reason.contains("metrics json does not decode"), "{reason}");
        assert_eq!(commit.merged, before);
        assert_eq!(commit.dealt[0].mirror, before);
        assert_eq!(ids(&commit.undone(0)), [2, 4]);
    }

    #[test]
    fn a_malformed_delta_leaves_merged_as_it_was_and_the_rest_to_rerun() {
        let mut commit = two_dealt();
        committed(commit.step(0, metrics(0, 0)));
        let before = commit.merged.clone();
        let (ftype, mut payload) = metrics(0, 2).unwrap();
        payload.pop(); // the JSON loses its closing brace; all before it decodes
        down(commit.step(0, Ok((ftype, payload))));
        assert_eq!(commit.merged, before);
        assert_eq!(ids(&commit.undone(0)), [2, 4]);
    }

    #[test]
    fn the_final_digest_must_match_what_was_committed_for_that_worker() {
        let mut commit = two_dealt();
        // Reporting with cells of the deal uncommitted is a loss, not a finish.
        down(commit.step(1, final_frame(1, 0, 3)));
        for cell in [0, 2, 4] {
            committed(commit.step(0, metrics(0, cell)));
        }
        let digest = fnv1a(commit.dealt[0].mirror.to_json().as_bytes());
        let mismatch = commit.step(0, final_frame(0, digest ^ 1, 3));
        assert!(
            matches!(mismatch, Err(DistributedError::DigestMismatch { worker_id: 0, reported, committed })
                if (reported, committed) == (digest ^ 1, digest)),
            "{mismatch:?}"
        );
        let agreed = commit.step(0, final_frame(0, digest, 3));
        assert!(matches!(agreed, Ok(Step::Final(_))), "{agreed:?}");
        assert_eq!((commit.remaining, commit.live()), (3, 0));
    }

    #[test]
    fn after_down_the_rerun_list_is_the_deal_minus_the_done_cells() {
        let mut commit = two_dealt();
        committed(commit.step(0, metrics(0, 2)));
        assert_eq!(down(commit.step(0, Err("eof".into()))), "eof");
        let undone = commit.undone(0);
        assert_eq!(ids(&undone), [0, 4]);
        // The replacement owns exactly those; slot 1 is untouched.
        assert_eq!(commit.deal(&undone), 2);
        assert_eq!(ids(&commit.undone(2)), [0, 4]);
        assert_eq!(ids(&commit.undone(1)), [1, 3, 5]);
        committed(commit.step(2, metrics(2, 4)));
        assert_eq!(ids(&commit.undone(2)), [0]);
    }

    /// Both connections of [`two_dealt`] with their whole deal committed;
    /// returns each one's digest.
    fn all_committed(commit: &mut Commit) -> [u64; 2] {
        for cell in 0..6 {
            committed(commit.step(cell as usize % 2, metrics(cell as u32 % 2, cell)));
        }
        [0, 1].map(|slot| fnv1a(commit.dealt[slot].mirror.to_json().as_bytes()))
    }

    #[test]
    fn workers_that_resolve_different_hot_thresholds_fail_the_run_by_name() {
        let mut commit = two_dealt();
        let [d0, d1] = all_committed(&mut commit);
        let agreed = commit.step(1, final_frame(1, d1, 3));
        assert!(matches!(agreed, Ok(Step::Final(_))), "{agreed:?}");
        let split = commit.step(0, final_frame(0, d0, 4));
        assert!(
            matches!(
                split,
                Err(DistributedError::HotThresholdMismatch {
                    worker_id: 0,
                    reported: 4,
                    agreed_by: 1,
                    agreed: 3
                })
            ),
            "{split:?}"
        );
        let text = split.unwrap_err().to_string();
        assert!(
            text.contains("worker 0") && text.contains("worker 1"),
            "{text}"
        );
    }

    #[test]
    fn the_report_carries_the_hot_threshold_the_workers_agreed_on() {
        let cfg = FleetConfig::new(300, 2, fleet::FleetPolicy::Smart);
        let mut commit = two_dealt();
        let digests = all_committed(&mut commit);
        let mut finals = Vec::new();
        for slot in [0, 1] {
            match commit.step(slot, final_frame(slot as u32, digests[slot], 11)) {
                Ok(Step::Final(report)) => finals.push(report),
                other => panic!("expected a final report: {other:?}"),
            }
        }
        let report = assemble_report(&cfg, 2, &commit.merged, &finals, Duration::ZERO);
        assert_eq!(report.hot_threshold, 11);
        // No final report at all (every worker lost after its cells): the
        // config's explicit threshold, else 0.
        let none = assemble_report(&cfg, 2, &commit.merged, &[], Duration::ZERO);
        assert_eq!(none.hot_threshold, 0);
        let explicit = FleetConfig {
            hot_threshold: Some(5),
            ..cfg
        };
        let none = assemble_report(&explicit, 2, &commit.merged, &[], Duration::ZERO);
        assert_eq!(none.hot_threshold, 5);
    }

    // ---- report assembly

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
            hot_threshold: 3,
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
        let report = assemble_report(&cfg, 2, &merged, &finals, Duration::from_secs(3));
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
