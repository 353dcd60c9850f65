//! Fleet-level differentials for the multi-step DAG generalization.
//!
//! Two claims, each against the same seeded population (that a
//! `steps`-spelled single action is the classic applet's plan is checked
//! at engine level, `engine/tests/dag_execution.rs`):
//!
//! * **Multi-step conservation** — with a real multi-step share the DAG
//!   counters light up, every activation still concludes exactly once
//!   (delivered or lost), and the merge stays shard-invariant.
//! * **Policy differential** — the identical population under
//!   `IftttLike` vs `ZapierLike` agrees on every population-shape and
//!   outcome counter (installs, activations, fetched events, deliveries,
//!   DAG node counts) and disagrees only in cadence-driven instruments
//!   (poll counts, T2A latency), with per-stage attribution conserving
//!   bucket-for-bucket under both policies.

use fleet::{run_fleet, FleetConfig, FleetPolicy, FleetReport};

/// The shared 2k-user differential population (`fleet::test_support`):
/// big enough that every generator DAG shape (filter pass/drop, transform
/// chain, query enrich, fanout) appears, small enough for the debug tier.
fn cfg_2k(shards: usize) -> FleetConfig {
    fleet::test_support::differential_2k_cfg(shards)
}

/// `activations == delivered + lost`: the cell-level conservation
/// identity (filtered DAG runs count as lost, like filtered dispatches).
fn assert_fleet_conservation(report: &FleetReport) {
    assert_eq!(
        report.merged.activations.get(),
        report.merged.t2a_micros.count() + report.merged.lost.get(),
        "activations leaked: {}",
        report.merged_json()
    );
}

#[test]
fn multi_step_population_conserves_activations_and_merges_shard_invariantly() {
    let baseline = run_fleet(&cfg_2k(1).with_multi_step_share(0.5));
    let m = &baseline.merged;
    assert!(m.dag_runs.get() > 0, "multi-step share engaged no DAGs");
    assert!(m.dag_nodes_filter.get() > 0, "no filter nodes ran");
    assert!(m.dag_nodes_transform.get() > 0, "no transform nodes ran");
    assert!(m.dag_nodes_query.get() > 0, "no query nodes ran");
    assert!(m.dag_nodes_action.get() > 0, "no action nodes ran");
    assert_fleet_conservation(&baseline);
    for shards in [2usize, 4] {
        let sharded = run_fleet(&cfg_2k(shards).with_multi_step_share(0.5));
        assert_eq!(
            baseline.merged_json(),
            sharded.merged_json(),
            "multi-step merge differs at {shards} shards"
        );
    }
}

/// The policy-differential population: production-like phases so both the
/// IFTTT (15 min cold) and Zapier (5/15 min) cadences deliver well inside
/// the horizon.
fn policy_cfg(policy: FleetPolicy) -> FleetConfig {
    FleetConfig::new(2000, 2, policy)
        .with_seed(2017)
        .with_cell_users(500)
        .with_phases(10.0, 120.0, 900.0)
        .with_multi_step_share(0.25)
        .with_attribution(true)
}

/// Per-stage attribution must conserve under any policy: stage sums split
/// the measured total exactly, and the total histogram is bucket-for-
/// bucket the T2A measurement.
fn assert_attribution_conserves(report: &FleetReport, what: &str) {
    let a = &report.merged.attribution;
    assert!(a.total.count() > 0, "{what}: attribution recorded samples");
    assert_eq!(
        a.total.snapshot(),
        report.merged.t2a_micros.snapshot(),
        "{what}: attribution total drifted from t2a_micros"
    );
    let stage_sum: u64 = a.stages().iter().map(|(_, h)| h.sum()).sum();
    assert_eq!(stage_sum, a.total.sum(), "{what}: stage sums leak time");
}

#[test]
fn ifttt_and_zapier_policies_differ_only_in_cadence() {
    let ifttt = run_fleet(&policy_cfg(FleetPolicy::IftttLike));
    let zapier = run_fleet(&policy_cfg(FleetPolicy::Zapier));

    // Identical population shape and outcomes: the policies change *when*
    // work happens (cadence, serialization), never *what* concludes.
    let (a, b) = (&ifttt.merged, &zapier.merged);
    assert_eq!(a.cells.get(), b.cells.get());
    assert_eq!(a.applets.get(), b.applets.get());
    assert_eq!(a.activations.get(), b.activations.get());
    assert_eq!(a.events_new.get(), b.events_new.get(), "fetched events");
    assert_eq!(a.actions_ok.get(), b.actions_ok.get(), "deliveries");
    assert_eq!(a.dead_letters.get(), b.dead_letters.get());
    assert_eq!(a.dag_runs.get(), b.dag_runs.get());
    assert_eq!(a.dag_nodes_filter.get(), b.dag_nodes_filter.get());
    assert_eq!(a.dag_nodes_transform.get(), b.dag_nodes_transform.get());
    assert_eq!(a.dag_nodes_query.get(), b.dag_nodes_query.get());
    assert_eq!(a.dag_nodes_action.get(), b.dag_nodes_action.get());

    // Cadence instruments must move: the Zapier smart schedule polls on a
    // different cadence than the production-like IFTTT one, so poll
    // volume and T2A latency diverge (and therefore the digests do too).
    assert_ne!(a.polls_sent.get(), b.polls_sent.get(), "same poll volume");
    let (_, ifttt_p50, _) = ifttt.t2a_quartiles_secs();
    let (_, zapier_p50, _) = zapier.t2a_quartiles_secs();
    assert_ne!(ifttt_p50, zapier_p50, "same median T2A");
    assert_ne!(ifttt.digest(), zapier.digest());

    // Conservation holds on both sides, at both levels.
    assert_fleet_conservation(&ifttt);
    assert_fleet_conservation(&zapier);
    assert_attribution_conserves(&ifttt, "ifttt");
    assert_attribution_conserves(&zapier, "zapier");
}
