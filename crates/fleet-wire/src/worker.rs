//! The `fleet-shard` worker runtime: own a contiguous cell range, stream
//! per-cell deltas back, report and exit on `Drain`.
//!
//! A worker is a *pure executor*. Cells are seed-pure — each derives its
//! RNG stream from `(master_seed, cell_id)` — so the worker regenerates
//! the identical catalog and sampler from the pushed [`fleet::FleetConfig`] and
//! produces cell outcomes byte-identical to any other process (or
//! thread) running the same cells. Nothing a worker does can influence
//! *what* is computed, only *where*.
//!
//! ## Threads
//!
//! * **cell loop** (this thread): simulate one cell at a time into a
//!   fresh per-cell accumulator, encode its delta frames, hand them to
//!   the writer over a **bounded** channel — when the coordinator reads
//!   slowly the channel fills and the loop blocks, so worker memory
//!   stays bounded no matter the backlog.
//! * **writer**: owns the socket's write half; writes frames in order
//!   and recycles their buffers through a pool, so steady-state framing
//!   allocates nothing.
//! * **heartbeat**: a `Progress` frame every couple of seconds for the
//!   coordinator's liveness check — it keeps long cells (and the long
//!   wait for `Drain` while a rejoined worker recomputes elsewhere) from
//!   reading as a crash. Heartbeats are dropped, not queued, when the
//!   channel is full: delta traffic already proves liveness.

use crate::frame::{read_frame, FrameBuf, FrameType, WireError};
use crate::messages::{
    decode_config_push, encode_final_report, encode_hello, encode_metrics_delta, encode_progress,
    DeltaHead, FinalReport, Hello, ProgressBeat,
};
use fleet::cell::run_cell;
use fleet::options::{parse_flags, Flag};
use fleet::{fnv1a, population, FleetMetrics};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames in flight between the cell loop and the writer. Small on
/// purpose: it bounds worker memory under coordinator backpressure while
/// still absorbing the per-cell burst (attribution + metrics + progress).
const FRAME_QUEUE: usize = 16;

/// One `fleet-shard` flag: how its text is stored (`flag.set`), how the
/// stored value is spelled back (`get`), and whether the worker cannot
/// start without it.
pub struct WorkerFlag {
    pub flag: Flag<WorkerOptions>,
    pub required: bool,
    pub get: fn(&WorkerOptions) -> String,
}

impl std::borrow::Borrow<Flag<WorkerOptions>> for WorkerFlag {
    fn borrow(&self) -> &Flag<WorkerOptions> {
        &self.flag
    }
}

/// The `fleet-shard` command line, declared once and read in both
/// directions: the binary parses its arguments against [`WORKER_FLAGS`]
/// ([`WorkerOptions::from_args`]) and the coordinator's `spawn_worker`
/// writes them ([`WorkerOptions::to_args`]), so a flag cannot be spawned
/// with but not accepted. A row is field, type, default, whether the worker
/// cannot start without it, flag, argument, help.
macro_rules! worker_options {
    ($( $(#[$m:meta])* $f:ident: $ty:ty = $def:expr, $required:literal,
        $flag:literal $arg:literal, $help:literal; )*) => {
        /// Everything the `fleet-shard` binary parses from its command line.
        #[derive(Debug, Clone, PartialEq)]
        pub struct WorkerOptions {
            $( $(#[$m])* pub $f: $ty, )*
        }

        pub const WORKER_FLAGS: &[WorkerFlag] = &[ $( WorkerFlag {
            flag: Flag {
                name: $flag,
                key: None,
                arg: $arg,
                switch: None,
                help: $help,
                set: |w, t| {
                    w.$f = t.parse().ok()?;
                    Some(())
                },
            },
            required: $required,
            get: |w| w.$f.to_string(),
        }, )* ];

        impl WorkerOptions {
            pub fn new(connect: String, worker_id: u32) -> WorkerOptions {
                WorkerOptions {
                    connect,
                    worker_id,
                    ..WorkerOptions { $( $f: $def, )* }
                }
            }
        }
    };
}

worker_options! {
    /// Coordinator address (`127.0.0.1:<port>`).
    connect: String = String::new(), true,
        "--connect" "HOST:PORT", "coordinator address";
    /// Identity announced in `Hello` and stamped on every frame.
    worker_id: u32 = 0, true,
        "--worker-id" "N", "identity stamped on every frame";
    /// How long to wait for the coordinator (config push, drain) before
    /// giving up. Generous: during a rejoin the coordinator legitimately
    /// goes quiet while lost cells recompute.
    io_timeout_secs: u64 = 600, false,
        "--io-timeout-secs" "S", "give up on a silent coordinator after S seconds";
    /// Heartbeat cadence; the coordinator's crash timeout is an order of
    /// magnitude larger than the default. Tests shrink this to force
    /// heartbeats to interleave with delta traffic on runs that finish in
    /// well under 2 s — the exact interleaving a short run never sees.
    heartbeat_millis: u64 = 2000, false,
        "--heartbeat-millis" "MS", "test hook: heartbeat cadence";
    /// Chaos hook: exit the process (code 3) after completing this many
    /// cells — a hard crash mid-run. `0`, the default, never does.
    chaos_exit_after_cells: u32 = 0, false,
        "--chaos-exit-after-cells" "N", "test hook: hard crash after N cells";
    /// Chaos hook: shut the socket down after completing this many cells
    /// and exit cleanly — a network drop rather than a process death. `0`,
    /// the default, never does.
    chaos_drop_socket_after_cells: u32 = 0, false,
        "--chaos-drop-socket-after-cells" "N", "test hook: network drop after N cells";
}

impl WorkerOptions {
    /// The command line that [`WorkerOptions::from_args`] reads back as `self`.
    pub fn to_args(&self) -> Vec<String> {
        WORKER_FLAGS
            .iter()
            .flat_map(|row| [row.flag.name.to_string(), (row.get)(self)])
            .collect()
    }

    /// Parse a `fleet-shard` command line; `Err` is the usage complaint.
    pub fn from_args(args: Vec<String>) -> Result<WorkerOptions, String> {
        if let Some(row) = WORKER_FLAGS
            .iter()
            .find(|row| row.required && !args.iter().any(|a| a == row.flag.name))
        {
            return Err(format!("{} is required", row.flag.name));
        }
        let mut opts = WorkerOptions::new(String::new(), 0);
        match parse_flags(WORKER_FLAGS, &mut opts, args)?.first() {
            Some(stray) => Err(format!("unknown argument {stray}")),
            None => Ok(opts),
        }
    }
}

/// Worker-side failure.
#[derive(Debug)]
pub enum WorkerError {
    Wire(WireError),
    /// The coordinator broke the frame sequence (e.g. something other
    /// than `ConfigPush` after `Hello`).
    Protocol(&'static str),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Wire(e) => write!(f, "wire: {e}"),
            WorkerError::Protocol(s) => write!(f, "protocol: {s}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<WireError> for WorkerError {
    fn from(e: WireError) -> Self {
        WorkerError::Wire(e)
    }
}

/// Counters the heartbeat thread samples; written by the cell loop.
struct HbState {
    cells_done: AtomicU32,
    users_done: AtomicU64,
    cells_total: u32,
}

/// Get a recycled buffer if the writer has returned one, else allocate.
fn pooled(pool: &mpsc::Receiver<Vec<u8>>) -> Vec<u8> {
    pool.try_recv().unwrap_or_default()
}

/// Build one complete, *finished* `Progress` frame into `buf`. The
/// single construction path for both the per-cell progress frame and the
/// heartbeat thread — a frame handed to the writer must always have its
/// header length patched, and funneling both senders through here makes
/// an unfinished heartbeat frame unrepresentable.
fn progress_frame(buf: Vec<u8>, beat: &ProgressBeat) -> Vec<u8> {
    let mut fb = FrameBuf::from_vec(buf);
    encode_progress(&mut fb, beat);
    fb.finish();
    fb.take()
}

/// Queue a finished frame, blocking when the channel is full (the
/// backpressure path). `Err` means the writer thread died — its socket
/// error is the root cause the caller reports.
fn send_frame(tx: &SyncSender<Vec<u8>>, frame: Vec<u8>) -> Result<(), WorkerError> {
    tx.send(frame)
        .map_err(|_| WorkerError::Protocol("writer thread gone (socket closed?)"))
}

/// Run one worker to completion. Connects, announces itself, receives
/// its configuration and cell range, streams deltas, and exits after the
/// drain handshake.
pub fn run_worker(opts: &WorkerOptions) -> Result<(), WorkerError> {
    let started = Instant::now();
    let alloc_start = mem::alloc_counts();

    let stream = TcpStream::connect(&opts.connect).map_err(WireError::Io)?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(opts.io_timeout_secs.max(1))))
        .map_err(WireError::Io)?;
    let mut read_half = stream.try_clone().map_err(WireError::Io)?;

    // Hello goes out synchronously, before the writer thread exists.
    let mut fb = FrameBuf::new();
    encode_hello(
        &mut fb,
        &Hello {
            worker_id: opts.worker_id,
            pid: std::process::id(),
        },
    );
    {
        let mut w = &stream;
        w.write_all(fb.finish()).map_err(WireError::Io)?;
    }

    let mut payload = Vec::new();
    let push = match read_frame(&mut read_half, &mut payload)? {
        Some(FrameType::ConfigPush) => decode_config_push(&payload)?,
        Some(_) => return Err(WorkerError::Protocol("expected config push after hello")),
        None => {
            return Err(WorkerError::Protocol(
                "coordinator hung up before config push",
            ))
        }
    };
    let cfg = push.config;
    let cells = push.cells;

    // Regenerate the catalog and sampler — pure in the config, so this
    // is byte-identical to the coordinator's (and every sibling's).
    let (sampler, _hot) = population(&cfg);

    let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(FRAME_QUEUE);
    let (pool_tx, pool_rx) = mpsc::sync_channel::<Vec<u8>>(FRAME_QUEUE + 4);
    let write_half = stream.try_clone().map_err(WireError::Io)?;
    let writer = std::thread::spawn(move || -> Result<(), std::io::Error> {
        let mut w = write_half;
        for frame in rx {
            w.write_all(&frame)?;
            let _ = pool_tx.try_send(frame); // recycle; drop when pool is full
        }
        Ok(())
    });

    let hb = Arc::new(HbState {
        cells_done: AtomicU32::new(0),
        users_done: AtomicU64::new(0),
        cells_total: cells.len() as u32,
    });
    let (hb_stop, hb_stop_rx) = mpsc::channel::<()>();
    let hb_thread = {
        let hb = Arc::clone(&hb);
        let tx = tx.clone();
        let worker_id = opts.worker_id;
        let cadence = Duration::from_millis(opts.heartbeat_millis.max(1));
        std::thread::spawn(move || {
            loop {
                match hb_stop_rx.recv_timeout(cadence) {
                    Err(RecvTimeoutError::Timeout) => {}
                    _ => return,
                }
                let frame = progress_frame(
                    Vec::new(),
                    &ProgressBeat {
                        worker_id,
                        cells_done: hb.cells_done.load(Ordering::Relaxed),
                        cells_total: hb.cells_total,
                        users_done: hb.users_done.load(Ordering::Relaxed),
                    },
                );
                // try_send: a full queue means deltas are flowing, which
                // is better liveness evidence than any heartbeat.
                match tx.try_send(frame) {
                    Ok(()) | Err(TrySendError::Full(_)) => {}
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
        })
    };

    // ------------------------------------------------------- cell loop
    let local = FleetMetrics::default(); // worker-lifetime merge, for the digest
    let mut users_done = 0u64;
    let result = (|| -> Result<(), WorkerError> {
        for (i, cell) in cells.iter().enumerate() {
            let cell_metrics = Arc::new(FleetMetrics::default());
            run_cell(cell, &sampler, &cfg, &cell_metrics);

            let head = DeltaHead {
                worker_id: opts.worker_id,
                cell: cell.cell,
            };
            if cfg.attribution {
                let mut fb = FrameBuf::from_vec(pooled(&pool_rx));
                crate::messages::encode_attribution_delta(&mut fb, head, &cell_metrics.attribution);
                fb.finish();
                send_frame(&tx, fb.take())?;
            }
            let mut fb = FrameBuf::from_vec(pooled(&pool_rx));
            encode_metrics_delta(&mut fb, head, &cell_metrics);
            fb.finish();
            send_frame(&tx, fb.take())?;

            local.merge_from(&cell_metrics);
            users_done += cell.users;
            let done = (i + 1) as u32;
            hb.cells_done.store(done, Ordering::Relaxed);
            hb.users_done.store(users_done, Ordering::Relaxed);

            let frame = progress_frame(
                pooled(&pool_rx),
                &ProgressBeat {
                    worker_id: opts.worker_id,
                    cells_done: done,
                    cells_total: cells.len() as u32,
                    users_done,
                },
            );
            send_frame(&tx, frame)?;

            if opts.chaos_exit_after_cells == done {
                // A hard crash: no goodbye, frames possibly still queued.
                std::process::exit(3);
            }
            if opts.chaos_drop_socket_after_cells == done {
                // A network drop: the process survives briefly, but the
                // coordinator only ever sees a dead socket.
                stream.shutdown(Shutdown::Both).ok();
                std::thread::sleep(Duration::from_millis(50));
                std::process::exit(0);
            }
        }

        // Block for Drain; heartbeats keep flowing from the side thread.
        match read_frame(&mut read_half, &mut payload)? {
            Some(FrameType::Drain) => {}
            Some(_) => return Err(WorkerError::Protocol("expected drain after last cell")),
            None => return Err(WorkerError::Protocol("coordinator hung up before drain")),
        }

        let (allocs, alloc_bytes) = match (alloc_start, mem::alloc_counts()) {
            (Some((a0, b0)), Some((a1, b1))) => (a1 - a0, b1 - b0),
            _ => (0, 0),
        };
        let mut fb = FrameBuf::from_vec(pooled(&pool_rx));
        encode_final_report(
            &mut fb,
            &FinalReport {
                worker_id: opts.worker_id,
                cells: cells.len() as u64,
                users: users_done,
                sim_events: local.sim_events.get(),
                wall_micros: started.elapsed().as_micros() as u64,
                allocs,
                alloc_bytes,
                digest: fnv1a(local.to_json().as_bytes()),
            },
        );
        fb.finish();
        send_frame(&tx, fb.take())
    })();

    // Shut down the side threads in order: stop heartbeats, then close
    // the frame channel so the writer drains the queue (final report
    // included) and exits.
    let _ = hb_stop.send(());
    let _ = hb_thread.join();
    drop(tx);
    let writer_result = writer.join().unwrap_or(Ok(()));
    result?;
    writer_result.map_err(|e| WorkerError::Wire(WireError::Io(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::decode_progress;

    #[test]
    fn options_survive_the_command_line_with_every_field_set() {
        let opts = WorkerOptions {
            connect: "127.0.0.1:4242".into(),
            worker_id: 7,
            io_timeout_secs: 33,
            heartbeat_millis: 5,
            chaos_exit_after_cells: 3,
            chaos_drop_socket_after_cells: 9,
        };
        let args = opts.to_args();
        assert_eq!(args.len(), 2 * WORKER_FLAGS.len(), "{args:?}");
        assert_eq!(WorkerOptions::from_args(args), Ok(opts));
        // A flag no row owns, a value its row rejects and a missing
        // required flag are all usage errors.
        for bad in [
            "--connect a:1 --worker-id 0 --hearbeat-millis 5",
            "--connect a:1 --worker-id minus-one",
            "--worker-id 0",
        ] {
            let args = bad.split(' ').map(str::to_string).collect();
            assert!(WorkerOptions::from_args(args).is_err(), "{bad}");
        }
    }

    /// Regression: heartbeat frames once went out with the header's
    /// length field still at its placeholder (finish() was never
    /// called), desyncing the stream on every run longer than one
    /// heartbeat period. The shared constructor must hand back a frame
    /// the real reader parses cleanly — twice in a row, because the
    /// heartbeat thread loops.
    #[test]
    fn progress_frames_are_always_finished_and_decodable() {
        let beat = ProgressBeat {
            worker_id: 7,
            cells_done: 3,
            cells_total: 9,
            users_done: 150,
        };
        let one = progress_frame(Vec::new(), &beat);
        let two = progress_frame(Vec::with_capacity(64), &beat);
        for frame in [&one, &two] {
            let mut cursor: &[u8] = frame;
            let mut payload = Vec::new();
            let ftype = read_frame(&mut cursor, &mut payload)
                .expect("well-formed frame")
                .expect("one frame present");
            assert_eq!(ftype, FrameType::Progress);
            let got = decode_progress(&payload).expect("decodable payload");
            assert_eq!(got.worker_id, 7);
            assert_eq!(got.cells_done, 3);
            assert_eq!(got.cells_total, 9);
            assert_eq!(got.users_done, 150);
            assert!(cursor.is_empty(), "no trailing bytes after the frame");
        }
    }
}
