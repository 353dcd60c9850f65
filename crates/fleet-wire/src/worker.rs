//! The `fleet-shard` worker runtime: run the cells it was dealt, stream
//! per-cell deltas back, report and exit on `Drain`. A loop with a
//! heartbeat beside it.
//!
//! A worker is a *pure executor*. Cells are seed-pure — each derives its
//! RNG stream from `(master_seed, cell_id)` — so the worker generates the
//! identical catalog, sampler and hot threshold from the pushed
//! [`FleetConfig`] and produces cell outcomes byte-identical to any other
//! process (or thread) running the same cells. Nothing a worker does can
//! influence *what* is computed, only *where*.
//!
//! ## Threads
//!
//! * **cell loop** (the main thread): simulate one cell at a time into a
//!   fresh per-cell accumulator, encode its one delta frame into the
//!   [`FrameBuf`] it keeps for the whole run, and write it to the
//!   socket itself. The blocking `write_all` *is* the backpressure: when
//!   the coordinator reads slowly the kernel's socket buffer fills and
//!   the loop blocks in the write, so what a worker holds unsent is one
//!   encoded frame plus a socket buffer, whatever the backlog. At one
//!   ~810-byte frame per 1.2–1.6 ms cell nothing ever queues, which is why
//!   there is no writer thread and no queue to bound.
//! * **heartbeat**: a `Progress` frame every couple of seconds for the
//!   coordinator's liveness check — it keeps long cells (and the long
//!   wait for `Drain` while a rejoined worker recomputes elsewhere) from
//!   reading as a crash. The two threads share the socket's write half
//!   under one lock, held for exactly one whole frame, so frames never
//!   interleave; the heartbeat only `try_lock`s and skips its beat when
//!   the cell loop is mid-write: delta traffic already proves liveness.

use crate::frame::{write_frame, FrameBuf, WireError};
use crate::messages::{
    encode_final_report, encode_hello, encode_metrics_delta, encode_progress, DeltaHead,
    FinalReport, Frame, Hello, ProgressBeat,
};
use fleet::cell::run_cell;
use fleet::options::{parse_flags, Flag};
use fleet::{fnv1a, population, FleetConfig, FleetMetrics};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    worker_id: u32,
    cells_done: AtomicU32,
    users_done: AtomicU64,
    cells_total: u32,
}

impl HbState {
    /// Build one complete, *finished* heartbeat frame in `fb`. The only
    /// place a `Progress` frame is made, so a heartbeat whose header
    /// length was never patched cannot reach the socket.
    fn frame<'a>(&self, fb: &'a mut FrameBuf) -> &'a [u8] {
        encode_progress(
            fb,
            &ProgressBeat {
                worker_id: self.worker_id,
                cells_done: self.cells_done.load(Ordering::Relaxed),
                cells_total: self.cells_total,
                users_done: self.users_done.load(Ordering::Relaxed),
            },
        );
        fb.finish()
    }
}

/// Run one worker to completion. Connects, announces itself, receives
/// its configuration and cells, streams deltas, and exits after the
/// drain handshake.
pub fn run_worker(opts: &WorkerOptions) -> Result<(), WorkerError> {
    let started = Instant::now();
    let alloc_start = mem::alloc_counts();

    let mut stream = TcpStream::connect(&opts.connect).map_err(WireError::Io)?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(opts.io_timeout_secs.max(1))))
        .map_err(WireError::Io)?;

    // The write half, shared with the heartbeat thread. Each side finishes
    // a frame in its own buffer first and holds the lock for one whole
    // `write_all`, so frames never interleave on the wire.
    let out = Arc::new(Mutex::new(stream.try_clone().map_err(WireError::Io)?));
    let send = |fb: &mut FrameBuf| {
        let mut w = out.lock().expect("no write can panic holding the lock");
        write_frame(&mut *w, fb.finish())
    };

    let mut fb = FrameBuf::new();
    encode_hello(
        &mut fb,
        &Hello {
            worker_id: opts.worker_id,
            pid: std::process::id(),
        },
    );
    send(&mut fb)?;

    let mut payload = Vec::new();
    let push = match Frame::read(&mut stream, &mut payload)? {
        Some(Frame::ConfigPush(push)) => push,
        Some(_) => return Err(WorkerError::Protocol("expected config push after hello")),
        None => {
            return Err(WorkerError::Protocol(
                "coordinator hung up before config push",
            ))
        }
    };
    let cells = push.cells;

    // Generate the catalog and sampler — pure in the config, so this is
    // byte-identical to every sibling's — and resolve the hot threshold
    // exactly as the in-process runner does. The threshold is reported
    // back, so the coordinator can check that every worker agrees.
    let (sampler, hot_threshold) = population(&push.config);
    let cfg = FleetConfig {
        hot_threshold: Some(hot_threshold),
        ..push.config
    };

    let hb = Arc::new(HbState {
        worker_id: opts.worker_id,
        cells_done: AtomicU32::new(0),
        users_done: AtomicU64::new(0),
        cells_total: cells.len() as u32,
    });
    let (hb_stop, hb_stop_rx) = mpsc::channel::<()>();
    let hb_thread = {
        let hb = Arc::clone(&hb);
        let out = Arc::clone(&out);
        let cadence = Duration::from_millis(opts.heartbeat_millis.max(1));
        std::thread::spawn(move || {
            let mut fb = FrameBuf::new();
            while let Err(RecvTimeoutError::Timeout) = hb_stop_rx.recv_timeout(cadence) {
                // try_lock: a held lock means a delta is being written,
                // which is better liveness evidence than any heartbeat.
                let Ok(mut w) = out.try_lock() else { continue };
                if write_frame(&mut *w, hb.frame(&mut fb)).is_err() {
                    return; // the cell loop meets the same dead socket
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
            encode_metrics_delta(&mut fb, head, &cell_metrics);
            send(&mut fb)?;

            local.merge_from(&cell_metrics);
            users_done += cell.users;
            let done = (i + 1) as u32;
            hb.cells_done.store(done, Ordering::Relaxed);
            hb.users_done.store(users_done, Ordering::Relaxed);

            if opts.chaos_exit_after_cells == done {
                // A hard crash: no goodbye, the rest of the cells never run.
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
        match Frame::read(&mut stream, &mut payload)? {
            Some(Frame::Drain) => Ok(()),
            Some(_) => Err(WorkerError::Protocol("expected drain after last cell")),
            None => Err(WorkerError::Protocol("coordinator hung up before drain")),
        }
    })();

    // Drain has arrived (or the run failed): nothing is left for the
    // heartbeat to cover, so the final report is the last frame sent.
    let _ = hb_stop.send(());
    let _ = hb_thread.join();
    result?;

    let (allocs, alloc_bytes) = match (alloc_start, mem::alloc_counts()) {
        (Some((a0, b0)), Some((a1, b1))) => (a1 - a0, b1 - b0),
        _ => (0, 0),
    };
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
            hot_threshold,
        },
    );
    Ok(send(&mut fb)?)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// heartbeat period. What the heartbeat thread writes must be a frame
    /// the real reader parses cleanly — twice in a row out of the same
    /// buffer, because the heartbeat thread loops.
    #[test]
    fn progress_frames_are_always_finished_and_decodable() {
        let hb = HbState {
            worker_id: 7,
            cells_done: AtomicU32::new(3),
            users_done: AtomicU64::new(150),
            cells_total: 9,
        };
        let mut fb = FrameBuf::new();
        for _ in 0..2 {
            let mut cursor: &[u8] = hb.frame(&mut fb);
            let mut payload = Vec::new();
            let got = Frame::read(&mut cursor, &mut payload).expect("well-formed frame");
            let Some(Frame::Progress(got)) = got else {
                panic!("decoded {got:?}")
            };
            assert_eq!(got.worker_id, 7);
            assert_eq!(got.cells_done, 3);
            assert_eq!(got.cells_total, 9);
            assert_eq!(got.users_done, 150);
            assert!(cursor.is_empty(), "no trailing bytes after the frame");
        }
    }
}
