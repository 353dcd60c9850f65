//! The headline guarantee of the distributed fleet: running the same
//! configuration across `fleet-shard` worker *processes* produces a
//! report digest **byte-for-byte equal** to the in-process run — clean,
//! with attribution, with multi-step applets, under engine chaos, and
//! while workers are being killed and rejoined mid-run.
//!
//! Golden digests come from `fleet::test_support::goldens` — the same
//! constants the in-process determinism suite pins — so the two
//! execution modes can never drift apart silently.
//!
//! Crash tests parameterize the master seed over `CHAOS_SEED` (the CI
//! chaos matrix): at the default seed 2017 they assert the pinned
//! golden; at any other seed they assert distributed == in-process.

use fleet::test_support::{
    goldens, small_chaos_cfg, small_churn_cfg, small_fast_cfg, small_realtime_cfg,
};
use fleet::{run_fleet, FleetConfig, FleetPolicy};
use fleet_wire::coordinator::{
    run_fleet_distributed, run_fleet_distributed_with_progress, DistributedError,
};
use fleet_wire::{DistributedConfig, WorkerChaos};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn shard_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_fleet-shard"))
}

fn dcfg(workers: usize) -> DistributedConfig {
    DistributedConfig::new(workers, shard_bin())
}

/// Master seed under test: `CHAOS_SEED` from the CI chaos matrix, 2017
/// (the golden seed) by default.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2017)
}

/// The digest the current seed must produce for `cfg`: the pinned
/// golden at seed 2017, the freshly computed in-process digest
/// otherwise.
fn expected_digest(cfg: &FleetConfig, golden_at_2017: &str) -> String {
    if cfg.master_seed == 2017 {
        golden_at_2017.to_string()
    } else {
        run_fleet(cfg).digest()
    }
}

#[test]
fn distributed_clean_run_matches_the_pinned_golden() {
    let cfg = small_fast_cfg(1, 2017); // 4 cells
    let outcome = run_fleet_distributed_with_progress(&cfg, &dcfg(2), |_| {}).expect("clean run");
    assert_eq!(outcome.report.digest(), goldens::SMALL_FAST);
    assert_eq!(outcome.rejoins, 0);
    assert_eq!(outcome.workers_spawned, 2);
    assert_eq!(outcome.report.per_shard.len(), 2);
    assert_eq!(outcome.report.merged.users.get(), 200);
}

#[test]
fn distributed_digest_is_invariant_to_worker_count() {
    let seed = chaos_seed();
    let expected = expected_digest(&small_fast_cfg(1, seed), goldens::SMALL_FAST);
    // 8 > 4 cells exercises the worker-count clamp.
    for workers in [1usize, 3, 8] {
        let report = run_fleet_distributed(&small_fast_cfg(1, seed), &dcfg(workers)).expect("run");
        assert_eq!(report.digest(), expected, "{workers} workers, seed {seed}");
    }
}

#[test]
fn heartbeat_storm_does_not_corrupt_the_frame_stream() {
    // Regression: heartbeat Progress frames were once sent with an
    // unpatched (zero) header length, desyncing the stream on any run
    // longer than one heartbeat period — which no fast test ever was.
    // A 1 ms cadence forces thousands of heartbeats to interleave with
    // delta traffic inside this sub-second run; the digest and the
    // per-worker handshake must be completely unaffected. With
    // attribution on, every cell is two frames written back to back while
    // the heartbeat thread contends for the same write lock.
    for attribution in [false, true] {
        let cfg = small_fast_cfg(1, 2017).with_attribution(attribution);
        let expected = match attribution {
            false => goldens::SMALL_FAST.to_string(),
            true => run_fleet(&cfg).digest(),
        };
        let mut d = dcfg(2);
        d.heartbeat = Some(Duration::from_millis(1));
        let outcome = run_fleet_distributed_with_progress(&cfg, &d, |_| {}).expect("clean run");
        assert_eq!(
            outcome.report.digest(),
            expected,
            "attribution {attribution}"
        );
        assert_eq!(outcome.rejoins, 0);
    }
}

#[test]
fn distributed_attribution_run_matches_in_process() {
    let cfg = small_fast_cfg(1, chaos_seed()).with_attribution(true);
    let in_process = run_fleet(&cfg);
    let distributed = run_fleet_distributed(&cfg, &dcfg(2)).expect("run");
    assert_eq!(distributed.digest(), in_process.digest());
    // The attribution path actually crossed the wire.
    assert!(distributed.merged.attribution.total.count() > 0);
    assert_eq!(
        distributed.merged.attribution.total.snapshot(),
        in_process.merged.attribution.total.snapshot(),
    );
}

#[test]
fn distributed_multi_step_run_matches_in_process() {
    let cfg = small_fast_cfg(1, chaos_seed()).with_multi_step_share(0.35);
    let in_process = run_fleet(&cfg);
    let distributed = run_fleet_distributed(&cfg, &dcfg(2)).expect("run");
    assert_eq!(distributed.digest(), in_process.digest());
    assert!(distributed.merged.dag_runs.get() > 0, "multi-step DAGs ran");
}

#[test]
fn distributed_realtime_run_matches_the_pinned_golden() {
    let cfg = small_realtime_cfg(1, 2017);
    let report = run_fleet_distributed(&cfg, &dcfg(2)).expect("run");
    assert_eq!(report.digest(), goldens::SMALL_REALTIME);
}

/// Churn crosses the wire as plain config: the coordinator's ConfigPush
/// carries the `churn` profile, every worker replans the same per-cell
/// lifecycle timeline from the cell seed stream, and the merged digest
/// equals the pinned in-process golden — including the churn counters,
/// which ride the same delta frames as every other counter.
#[test]
fn distributed_churn_run_matches_the_pinned_golden() {
    let seed = chaos_seed();
    let cfg = small_churn_cfg(1, seed);
    let expected = expected_digest(&cfg, goldens::SMALL_CHURN);
    let report = run_fleet_distributed(&cfg, &dcfg(2)).expect("run");
    assert_eq!(report.digest(), expected, "seed {seed}");
    // The lifecycle transitions really happened in the worker processes
    // and their counters really crossed the wire.
    assert!(report.merged.churn_installs.get() > 0);
    assert!(report.merged.churn_uninstalls.get() > 0);
    assert!(report.merged.churn_retirements.get() > 0);
}

/// A spec is applied before the push, so ConfigPush carries what it
/// resolved to: a distributed run configured through `ScenarioSpec` matches
/// the in-process run of the same config byte for byte.
#[test]
fn distributed_scenario_run_matches_in_process() {
    let spec = fleet::ScenarioSpec::from_json(r#"{"churn": "accelerated", "realtime_share": 0.5}"#)
        .expect("spec parses");
    let cfg = small_fast_cfg(1, chaos_seed()).with_scenario(spec);
    let in_process = run_fleet(&cfg);
    let distributed = run_fleet_distributed(&cfg, &dcfg(2)).expect("run");
    assert_eq!(distributed.digest(), in_process.digest());
    assert!(distributed.merged.churn_installs.get() > 0);
    assert!(distributed.merged.realtime_notifications.get() > 0);
}

/// The coordinator ships the config without a hot threshold; every worker
/// resolves it from the catalog it generates. At the default `eco_scale`
/// the threshold is 1 and every applet is hot, so a worker that dropped
/// it would still match; at 0.05 it is 3, and the control run shows the
/// digest tells the two apart.
#[test]
fn workers_resolve_the_hot_threshold_the_in_process_run_resolves() {
    let at_scale_005 = |policy| {
        FleetConfig::new(400, 1, policy)
            .with_seed(2017)
            .with_eco_scale(0.05)
            .with_phases(10.0, 240.0, 900.0)
    };
    for policy in [FleetPolicy::Smart, FleetPolicy::Zapier] {
        let cfg = at_scale_005(policy);
        let in_process = run_fleet(&cfg);
        let distributed = run_fleet_distributed(&cfg, &dcfg(2)).expect("run");
        assert_eq!(in_process.hot_threshold, 3, "{policy:?}");
        assert_eq!(
            distributed.hot_threshold, in_process.hot_threshold,
            "{policy:?}"
        );
        assert_eq!(distributed.digest(), in_process.digest(), "{policy:?}");
        let all_hot = run_fleet(&FleetConfig {
            hot_threshold: Some(1),
            ..cfg.clone()
        });
        assert_ne!(all_hot.digest(), in_process.digest(), "{policy:?}");
    }
    // An explicit threshold is shipped as given and echoed back.
    let cfg = FleetConfig {
        hot_threshold: Some(5),
        ..at_scale_005(FleetPolicy::Smart)
    };
    let distributed = run_fleet_distributed(&cfg, &dcfg(2)).expect("run");
    assert_eq!(distributed.hot_threshold, 5);
    assert_eq!(distributed.digest(), run_fleet(&cfg).digest());
}

#[test]
fn distributed_engine_chaos_run_matches_the_golden() {
    let cfg = small_chaos_cfg(1, chaos_seed());
    let expected = expected_digest(&cfg, goldens::SMALL_CHAOS);
    let report = run_fleet_distributed(&cfg, &dcfg(2)).expect("run");
    assert_eq!(report.digest(), expected);
}

#[test]
fn killed_worker_is_detected_and_its_cells_rerun_deterministically() {
    let seed = chaos_seed();
    let cfg = small_fast_cfg(1, seed);
    let expected = expected_digest(&cfg, goldens::SMALL_FAST);
    // Worker 0 hard-exits (code 3, no goodbye) after its first cell; the
    // coordinator must detect the death, spawn a replacement for the
    // uncommitted remainder, and still produce the exact digest.
    let mut d = dcfg(2);
    d.chaos = vec![WorkerChaos {
        exit_after_cells: Some(1),
        ..Default::default()
    }];
    let outcome = run_fleet_distributed_with_progress(&cfg, &d, |_| {}).expect("recovers");
    assert_eq!(outcome.report.digest(), expected, "seed {seed}");
    assert!(outcome.rejoins >= 1, "a replacement was spawned");
    assert_eq!(outcome.workers_spawned, 2 + outcome.rejoins);
}

#[test]
fn dropped_socket_is_detected_and_its_cells_rerun_deterministically() {
    let seed = chaos_seed();
    let cfg = small_fast_cfg(1, seed);
    let expected = expected_digest(&cfg, goldens::SMALL_FAST);
    // Worker 1's link dies (socket shutdown, process lingers) after one
    // cell — the network-partition flavor of worker loss.
    let mut d = dcfg(2);
    d.chaos = vec![
        WorkerChaos::none(),
        WorkerChaos {
            drop_socket_after_cells: Some(1),
            ..Default::default()
        },
    ];
    let outcome = run_fleet_distributed_with_progress(&cfg, &d, |_| {}).expect("recovers");
    assert_eq!(outcome.report.digest(), expected, "seed {seed}");
    assert!(outcome.rejoins >= 1);
}

#[test]
fn crash_under_engine_chaos_and_attribution_still_matches() {
    // The adversarial composite: injected engine faults, attribution
    // recording, and a worker crash — the digest must still be exactly
    // the in-process one.
    let cfg = small_chaos_cfg(1, chaos_seed()).with_attribution(true);
    let in_process = run_fleet(&cfg);
    let mut d = dcfg(2);
    d.chaos = vec![WorkerChaos {
        exit_after_cells: Some(1),
        ..Default::default()
    }];
    let outcome = run_fleet_distributed_with_progress(&cfg, &d, |_| {}).expect("recovers");
    assert_eq!(outcome.report.digest(), in_process.digest());
    assert!(outcome.rejoins >= 1);
}

#[test]
fn rejoin_budget_exhaustion_is_a_typed_error_not_a_hang() {
    let cfg = small_fast_cfg(1, 2017);
    let mut d = dcfg(2);
    d.chaos = vec![WorkerChaos {
        exit_after_cells: Some(1),
        ..Default::default()
    }];
    d.max_rejoins = 0;
    match run_fleet_distributed(&cfg, &d) {
        Err(DistributedError::RejoinBudgetExhausted { lost_cells }) => {
            assert!(lost_cells >= 1)
        }
        other => panic!("expected RejoinBudgetExhausted, got {other:?}"),
    }
}

/// A worker binary that never connects — one that exits at once, and one
/// that stays alive — is a typed `Spawn` error once `connect_timeout`
/// passes, not a hang, and the coordinator leaves no process behind.
#[test]
fn a_worker_that_never_connects_is_a_spawn_error_at_the_deadline() {
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("fleet-wire-no-hello-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, then) in [("exits", "exit 0"), ("lingers", "exec sleep 30")] {
        let pid_file = dir.join(format!("{name}.pid"));
        let bin = dir.join(name);
        let script = format!("#!/bin/sh\necho $$ > '{}'\n{then}\n", pid_file.display());
        std::fs::write(&bin, script).expect("write script");
        std::fs::set_permissions(&bin, std::fs::Permissions::from_mode(0o755)).expect("chmod");

        let timeout = Duration::from_millis(300);
        let mut d = DistributedConfig::new(1, bin);
        d.connect_timeout = timeout;
        let t0 = Instant::now();
        let outcome = run_fleet_distributed(&small_fast_cfg(1, 2017), &d);
        let took = t0.elapsed();
        match outcome {
            Err(DistributedError::Spawn(why)) => {
                assert!(why.contains("no worker connected within"), "{name}: {why}")
            }
            other => panic!("{name}: expected a Spawn error, got {other:?}"),
        }
        assert!(
            took >= timeout && took < timeout * 3 / 2,
            "{name}: {took:?}"
        );
        // The script wrote its pid before the deadline; reaped, it is gone.
        let pid = std::fs::read_to_string(&pid_file).expect("the script ran");
        let proc_dir = PathBuf::from(format!("/proc/{}", pid.trim()));
        assert!(
            !proc_dir.exists(),
            "{name}: worker {} left behind",
            pid.trim()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_fires_exactly_once_per_cell_even_across_a_rejoin() {
    let cfg = small_fast_cfg(1, 2017); // 4 cells
    let mut d = dcfg(2);
    d.chaos = vec![WorkerChaos {
        exit_after_cells: Some(1),
        ..Default::default()
    }];
    let mut beats = 0usize;
    let outcome = run_fleet_distributed_with_progress(&cfg, &d, |_| beats += 1).expect("recovers");
    // Commit-driven progress: re-run cells don't double-report, lost
    // uncommitted cells report when the replacement lands them.
    assert_eq!(beats, 4);
    assert_eq!(outcome.report.digest(), goldens::SMALL_FAST);
}

#[test]
fn distributed_allocs_come_from_workers_not_the_coordinator() {
    let report = run_fleet_distributed(&small_fast_cfg(1, 2017), &dcfg(2)).expect("run");
    if cfg!(feature = "alloc-count") {
        // Workers count their own allocations and the coordinator sums
        // them; two workers simulating 2 cells each must report plenty.
        assert!(report.allocs > 0, "worker alloc counts merged");
        assert!(report.alloc_bytes > report.allocs);
    } else {
        // Default build: no counting allocator anywhere — the
        // coordinator must not smuggle in its own process numbers.
        assert_eq!(report.allocs, 0);
        assert_eq!(report.alloc_bytes, 0);
    }
}

/// The CLI-default 10k golden (`ifttt-lab fleet --users 10_000`) across
/// processes — the same constant the CI smoke job asserts.
#[test]
#[ignore = "minutes in debug; CI runs it in release via --ignored"]
fn distributed_cli_default_10k_matches_the_golden() {
    let cfg = fleet::test_support::cli_default_cfg(10_000, 4);
    let report = run_fleet_distributed(&cfg, &dcfg(2)).expect("run");
    assert_eq!(report.digest(), goldens::CLI_10K);
}

/// The CLI-default 100k golden across processes.
#[test]
#[ignore = "minutes in debug; CI runs it in release via --ignored"]
fn distributed_cli_default_100k_matches_the_golden() {
    let cfg = fleet::test_support::cli_default_cfg(100_000, 8);
    let report = run_fleet_distributed(&cfg, &dcfg(4)).expect("run");
    assert_eq!(report.digest(), goldens::CLI_100K);
}
