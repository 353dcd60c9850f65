//! The outside-in ledger: kernel costs × the run's own deterministic
//! counts, as shares of the run's CPU time.
//!
//! Layers nest — a `ServiceCore::process` call contains its JSON work, an
//! engine poll contains the transport and the service call — and from
//! outside only inclusive costs can be measured. Each layer's share is
//! therefore its inclusive kernel cost minus the kernels of the layers it
//! calls, floored at zero. `json.est_share` is the exception: the JSON
//! shim runs inside both the engine and the service, so its share is
//! reported beside the others and left out of `ledger.coverage`.

use crate::kernels::rig::SLOTS;
use crate::kernels::Results;
use fleet::FleetConfig;
use std::collections::BTreeMap;

/// One engine path: how often the run took it, what one occurrence costs
/// inclusively, and how much of that the layers below account for.
struct Path {
    count: f64,
    inclusive_ns: f64,
    below_ns: f64,
}

/// What the ledger needs from one round of the workload.
pub struct RunFacts<'a> {
    pub cfg: &'a FleetConfig,
    pub counters: &'a BTreeMap<String, u64>,
    /// CPU seconds of the timed region the shares are taken of.
    pub run_cpu_s: f64,
    pub cell_fixed_us: f64,
}

/// Add every `*.est_share`, `fleet.cell_fixed_share` and
/// `ledger.coverage` to `out`, from the kernel results already in it.
pub fn fill_shares(run: &RunFacts<'_>, out: &mut Results) {
    let k = |name: &str| {
        *out.get(name)
            .unwrap_or_else(|| panic!("kernel {name} has not run"))
    };
    let c = |name: &str| run.counters.get(name).copied().unwrap_or(0) as f64;
    let cpu_ns = run.run_cpu_s * 1e9;

    let batches = c("polls_batched");
    let batched_polls = c("polls_coalesced") + batches;
    let single_polls = c("polls_sent") - batched_polls;
    // Kernels time a full batch; scale by how full the run's batches were.
    let batch_fill = if batches > 0.0 {
        batched_polls / batches / SLOTS as f64
    } else {
        0.0
    };
    let actions = c("actions_ok") + c("actions_failed") + c("actions_retried");
    let round_trips = c("polls_sent") - c("polls_coalesced")
        + actions
        + c("dag_nodes_query")
        + c("realtime_notifications");
    let message_events = (2.0 * round_trips).min(c("sim_events"));
    let timer_events = c("sim_events") - message_events;

    // A subscription's polls carry its one event from its activation to
    // the horizon. Activations are uniform over the window, so that is
    // this share of all polls — the fleet does not count it.
    let cfg = run.cfg;
    let seen_share = (cfg.drain_secs + cfg.window_secs / 2.0)
        / (cfg.settle_secs + cfg.window_secs + cfg.drain_secs);

    let rtt = 2.0 * k("simnet.pingpong_ns_per_event");
    let timer = k("simnet.timer_ns_per_event");
    let poll_hit = k("devices.core_poll_hit_ns");
    let batch_call = k(&format!("devices.core_batch{SLOTS}_ns"));
    let action_call = k("devices.core_action_ns");
    let record = k("devices.record_event_ns");

    let simnet_ns = message_events * k("simnet.pingpong_ns_per_event") + timer_events * timer;

    let devices_ns = single_polls * poll_hit
        + batches * batch_call * batch_fill
        + c("applets") * (k("devices.core_poll_miss_ns") - poll_hit).max(0.0)
        + actions * action_call
        + c("activations") * record
        + c("realtime_notifications")
            * (k("devices.realtime_hint_ns") - poll_hit - record).max(0.0);

    let json_ns = seen_share * single_polls * k("json.poll_resp_k1.de_ns")
        + seen_share * batches * batch_fill * k(&format!("json.batch_resp_{SLOTS}.de_ns"))
        + c("applets") * (k("json.poll_req.ser_ns") + k("json.poll_req.de_ns"))
        + actions * (k("json.action_req.ser_ns") + k("json.action_req.de_ns"))
        + c("realtime_notifications") * k("json.realtime_v1.de_ns");

    let dispatch = k("engine.dispatch_ns");
    let paths = [
        Path {
            count: single_polls * (1.0 - seen_share),
            inclusive_ns: k("engine.poll_empty_ns"),
            below_ns: rtt + timer + poll_hit,
        },
        Path {
            count: single_polls * seen_share,
            inclusive_ns: k("engine.poll_seen_ns"),
            below_ns: rtt + timer + poll_hit,
        },
        Path {
            count: batches * batch_fill,
            inclusive_ns: k(&format!("engine.poll_batch{SLOTS}_ns")),
            below_ns: rtt + timer + batch_call,
        },
        // An event's way from the service's buffer to its executed
        // action: recorded, dispatched after a delay, one action call.
        Path {
            count: c("events_new") - c("dag_runs"),
            inclusive_ns: dispatch,
            below_ns: rtt + timer + action_call + record,
        },
        // A DAG run adds a query round trip before the action.
        Path {
            count: c("dag_runs"),
            inclusive_ns: k("engine.dag_run_ns"),
            below_ns: 2.0 * rtt + 2.0 * timer + 2.0 * action_call + record,
        },
        // A notification's own cost, beyond the dispatch it leads to.
        Path {
            count: c("realtime_notifications"),
            inclusive_ns: (k("engine.realtime_ns") - dispatch).max(0.0),
            below_ns: 2.0 * rtt + k("devices.realtime_hint_ns"),
        },
        Path {
            count: c("polls_failed"),
            inclusive_ns: k("engine.retry_ns"),
            below_ns: rtt + timer,
        },
        Path {
            count: c("polls_shed"),
            inclusive_ns: k("engine.breaker_shed_ns"),
            below_ns: timer,
        },
    ];
    let engine_ns: f64 = paths
        .iter()
        .map(|p| p.count.max(0.0) * (p.inclusive_ns - p.below_ns).max(0.0))
        .sum();

    let cell_fixed = run.cell_fixed_us * 1e3 * c("cells") / cpu_ns;
    let shares = [
        ("simnet.est_share", simnet_ns / cpu_ns),
        ("devices.est_share", devices_ns / cpu_ns),
        ("engine.est_share", engine_ns / cpu_ns),
        ("fleet.cell_fixed_share", cell_fixed),
    ];
    let coverage: f64 = shares.iter().map(|(_, s)| s).sum();
    for (name, share) in shares {
        out.insert(name.into(), share);
    }
    out.insert("json.est_share".into(), json_ns / cpu_ns);
    out.insert("ledger.coverage".into(), coverage);
}

/// Share of the run's CPU each workload-specific kernel accounts for:
/// its cost × how often the run took that path. Zero where the run never
/// did, which is how the ledger shows that the workloads separate the
/// layers.
pub fn contributions(run: &RunFacts<'_>, workers: usize, out: &Results) -> BTreeMap<String, f64> {
    let c = |name: &str| run.counters.get(name).copied().unwrap_or(0) as f64;
    let cells_on_the_wire = if workers > 0 { c("cells") } else { 0.0 };
    [
        ("engine.dag_run_ns", c("dag_runs")),
        ("engine.realtime_ns", c("realtime_notifications")),
        ("engine.retry_ns", c("polls_failed")),
        ("engine.breaker_shed_ns", c("polls_shed")),
        ("engine.uninstall_us", c("churn_uninstalls") * 1e3),
        // Six sink calls per attributed activation (see the kernel).
        ("fleet.sink_attribution_ns", c("attributed") * 6.0),
        (
            "simnet.chaos_apply_us",
            if run.cfg.chaos.enabled() {
                c("cells") * 1e3
            } else {
                0.0
            },
        ),
        ("fleet_wire.encode_delta_ns", cells_on_the_wire),
        ("fleet_wire.decode_delta_ns", cells_on_the_wire),
        ("fleet_wire.spawn_handshake_ms", workers as f64 * 1e6),
    ]
    .into_iter()
    .map(|(name, count)| (name.to_string(), out[name] * count / (run.run_cpu_s * 1e9)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::FleetPolicy;

    fn kernels(ns: f64) -> Results {
        [
            "simnet.pingpong_ns_per_event",
            "simnet.timer_ns_per_event",
            "devices.core_poll_hit_ns",
            "devices.core_poll_miss_ns",
            "devices.core_batch4_ns",
            "devices.core_action_ns",
            "devices.record_event_ns",
            "devices.realtime_hint_ns",
            "json.poll_resp_k1.de_ns",
            "json.batch_resp_4.de_ns",
            "json.poll_req.ser_ns",
            "json.poll_req.de_ns",
            "json.action_req.ser_ns",
            "json.action_req.de_ns",
            "json.realtime_v1.de_ns",
            "engine.poll_empty_ns",
            "engine.poll_seen_ns",
            "engine.poll_batch4_ns",
            "engine.dispatch_ns",
            "engine.dag_run_ns",
            "engine.realtime_ns",
            "engine.retry_ns",
            "engine.breaker_shed_ns",
        ]
        .iter()
        .map(|n| (n.to_string(), ns))
        .collect()
    }

    #[test]
    fn shares_are_counts_times_costs_over_cpu() {
        // 1000 events of 100 ns in 1 ms of CPU: simnet explains 0.1.
        let cfg = FleetConfig::new(50, 1, FleetPolicy::IftttLike);
        let counters = BTreeMap::from([("sim_events".to_string(), 1_000u64)]);
        let mut out = kernels(100.0);
        fill_shares(
            &RunFacts {
                cfg: &cfg,
                counters: &counters,
                run_cpu_s: 1e-3,
                cell_fixed_us: 0.0,
            },
            &mut out,
        );
        assert!((out["simnet.est_share"] - 0.1).abs() < 1e-12);
        assert_eq!(out["devices.est_share"], 0.0);
        assert_eq!(out["engine.est_share"], 0.0);
        assert_eq!(out["json.est_share"], 0.0);
        assert!((out["ledger.coverage"] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn paths_that_never_ran_contribute_nothing() {
        let cfg = FleetConfig::new(50, 1, FleetPolicy::IftttLike);
        let counters = BTreeMap::from([
            ("sim_events".to_string(), 10_000u64),
            ("polls_sent".to_string(), 3_000),
            ("cells".to_string(), 1),
        ]);
        let mut out = kernels(100.0);
        // Make the stress-only paths expensive; their counts are zero.
        for name in ["engine.dag_run_ns", "engine.retry_ns", "engine.realtime_ns"] {
            out.insert(name.into(), 1e9);
        }
        fill_shares(
            &RunFacts {
                cfg: &cfg,
                counters: &counters,
                run_cpu_s: 1.0,
                cell_fixed_us: 1_000.0,
            },
            &mut out,
        );
        assert!(
            out["engine.est_share"] < 1e-3,
            "{}",
            out["engine.est_share"]
        );
        assert!((out["fleet.cell_fixed_share"] - 1e-3).abs() < 1e-12);
        let sum = out["simnet.est_share"]
            + out["devices.est_share"]
            + out["engine.est_share"]
            + out["fleet.cell_fixed_share"];
        assert!((out["ledger.coverage"] - sum).abs() < 1e-12);
    }
}
