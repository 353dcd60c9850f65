//! Merged fleet reports and the determinism digest.
//!
//! A [`FleetReport`] separates two kinds of data on purpose:
//!
//! * the **merged metrics** — a pure function of `(master_seed, users,
//!   policy, catalog)`; byte-identical across shard counts, machines, and
//!   runs. [`FleetReport::digest`] fingerprints exactly this part.
//! * **execution facts** — per-shard wall-clock, shard count, throughput —
//!   which describe *this* run of the work and are excluded from the
//!   digest.

use crate::metrics::FleetMetrics;
use serde::{Deserialize, Serialize};

/// What one shard contributed (execution facts, not simulation outcomes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSummary {
    pub shard: usize,
    pub cells: usize,
    pub users: u64,
    /// Simulation events this shard processed across its cells.
    pub sim_events: u64,
    /// Wall-clock seconds this shard's worker ran.
    pub wall_secs: f64,
}

/// The outcome of a fleet run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    pub users: u64,
    pub shards: usize,
    pub policy: String,
    pub master_seed: u64,
    /// Add-count knee used by the smart policy (informational otherwise).
    /// A distributed run reports the value its workers resolved and agreed
    /// on; if no worker's final report arrived (every worker was lost after
    /// finishing its cells), the config's explicit value, else 0.
    pub hot_threshold: u64,
    /// Exactly-merged instruments from every shard.
    pub merged: FleetMetrics,
    pub per_shard: Vec<ShardSummary>,
    /// End-to-end wall-clock seconds (plan + run + merge).
    pub wall_secs: f64,
    /// Heap allocations during the run (execution fact, 0 unless the
    /// `alloc-count` feature is on). Process-wide: includes planning and
    /// report assembly, which is what a regression gate wants anyway.
    pub allocs: u64,
    /// Bytes requested from the allocator during the run (0 unless the
    /// `alloc-count` feature is on).
    pub alloc_bytes: u64,
}

/// The paper's Figure 4 trigger-to-action quartiles for polling-bound
/// applets: 58 / 84 / 122 seconds (§4).
pub const PAPER_T2A_QUARTILES_SECS: (f64, f64, f64) = (58.0, 84.0, 122.0);

/// FNV-1a over `bytes` — the fingerprint function behind every fleet
/// digest. Public so the distributed protocol's final-digest handshake
/// hashes worker-local metrics with byte-identical arithmetic.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FleetReport {
    /// The deterministic part of the report, serialized.
    pub fn merged_json(&self) -> String {
        self.merged.to_json()
    }

    /// FNV-1a fingerprint of [`FleetReport::merged_json`]. Two runs with
    /// the same master seed and population must produce the same digest no
    /// matter how many shards executed them — nor whether those shards
    /// were threads in this process or `fleet-shard` worker processes.
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a(self.merged_json().as_bytes()))
    }

    /// Merged T2A 25th/50th/75th percentiles in seconds.
    pub fn t2a_quartiles_secs(&self) -> (f64, f64, f64) {
        let q = |p| self.merged.t2a_micros.quantile(p) as f64 / 1e6;
        (q(0.25), q(0.5), q(0.75))
    }

    /// Fraction of fired activations whose action was delivered by the
    /// cell horizon (1.0 when nothing fired).
    pub fn delivery_ratio(&self) -> f64 {
        let fired = self.merged.activations.get();
        if fired == 0 {
            1.0
        } else {
            self.merged.t2a_micros.count() as f64 / fired as f64
        }
    }

    /// Simulation events processed per wall-clock second, across shards.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.merged.sim_events.get() as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Human-readable summary, including the paper comparison.
    pub fn render(&self) -> String {
        let m = &self.merged;
        let (p25, p50, p75) = self.t2a_quartiles_secs();
        let (e25, e50, e75) = PAPER_T2A_QUARTILES_SECS;
        let mut out = String::new();
        out.push_str(&format!(
            "fleet run: {} users, {} shards, policy {}, seed {}\n",
            self.users, self.shards, self.policy, self.master_seed
        ));
        out.push_str(&format!(
            "  cells {}  applets {}  activations {}  lost {}\n",
            m.cells.get(),
            m.applets.get(),
            m.activations.get(),
            m.lost.get()
        ));
        out.push_str(&format!(
            "  polls {}  new events {}  actions ok/failed {}/{}\n",
            m.polls_sent.get(),
            m.events_new.get(),
            m.actions_ok.get(),
            m.actions_failed.get()
        ));
        if m.polls_batched.get() > 0 {
            out.push_str(&format!(
                "  batch polls {}  coalesced {}  HTTP round trips {}\n",
                m.polls_batched.get(),
                m.polls_coalesced.get(),
                m.polls_sent.get() - m.polls_coalesced.get()
            ));
        }
        // The realtime line only appears when a notification was honored
        // or rejected — realtime-off runs render unchanged.
        if m.realtime_notifications.get() > 0 || m.realtime_malformed.get() > 0 {
            out.push_str(&format!(
                "  realtime notifications {}  immediate polls {}  suppressed {}  malformed {}\n",
                m.realtime_notifications.get(),
                m.realtime_polls.get(),
                m.realtime_suppressed.get(),
                m.realtime_malformed.get()
            ));
        }
        // The DAG line only appears when a multi-step run actually started
        // — single-step runs (the default) render unchanged.
        if m.dag_runs.get() > 0 {
            out.push_str(&format!(
                "  dag runs {}  nodes filter/transform/query/action {}/{}/{}/{}  node retries {}\n",
                m.dag_runs.get(),
                m.dag_nodes_filter.get(),
                m.dag_nodes_transform.get(),
                m.dag_nodes_query.get(),
                m.dag_nodes_action.get(),
                m.dag_node_retries.get()
            ));
        }
        // The churn line only appears when the population actually moved —
        // frozen-world runs (the default) render unchanged.
        if m.churn_installs.get() > 0 || m.churn_uninstalls.get() > 0 {
            out.push_str(&format!(
                "  churn installs {}  uninstalls {}  services onboarded/retired {}/{}  orphaned activations {}\n",
                m.churn_installs.get(),
                m.churn_uninstalls.get(),
                m.churn_onboards.get(),
                m.churn_retirements.get(),
                m.churn_orphans.get()
            ));
        }
        // The resilience line only appears when something failed or was
        // injected — clean-run output is unchanged.
        if m.polls_failed.get() > 0 || m.faults_injected.get() > 0 || m.dead_letters.get() > 0 {
            out.push_str(&format!(
                "  delivery ratio {:.4}  poll fail/retry/shed {}/{}/{}  breaker trips {}  action retries {}  dead letters {}  faults injected {}\n",
                self.delivery_ratio(),
                m.polls_failed.get(),
                m.polls_retried.get(),
                m.polls_shed.get(),
                m.breaker_trips.get(),
                m.actions_retried.get(),
                m.dead_letters.get(),
                m.faults_injected.get()
            ));
        }
        out.push_str(&format!(
            "  T2A quartiles {p25:.0}/{p50:.0}/{p75:.0} s  (paper Fig. 4: {e25:.0}/{e50:.0}/{e75:.0} s)  n={}\n",
            m.t2a_micros.count()
        ));
        out.push_str(&format!(
            "  dispatch queue depth p50/p99 {}/{}\n",
            m.dispatch_depth.quantile(0.5),
            m.dispatch_depth.quantile(0.99)
        ));
        // Per-stage T2A attribution appears only when the run recorded it
        // (`--attribution`); counting-only runs render unchanged.
        if m.attribution.total.count() > 0 {
            let a = &m.attribution;
            let total_sum = a.total.sum().max(1) as f64;
            out.push_str(&format!("  T2A attribution (n={}):\n", a.total.count()));
            out.push_str("    stage            p25/p50/p75 s   share\n");
            for (name, h) in a.stages() {
                let q = |p| h.quantile(p) as f64 / 1e6;
                out.push_str(&format!(
                    "    {:<16} {:>5.1}/{:>5.1}/{:>5.1}  {:>5.1}%\n",
                    name,
                    q(0.25),
                    q(0.5),
                    q(0.75),
                    100.0 * h.sum() as f64 / total_sum
                ));
            }
            if a.unmatched.get() > 0 {
                out.push_str(&format!("    unmatched arrivals {}\n", a.unmatched.get()));
            }
        }
        // Allocation accounting appears only when the counting allocator
        // ran (`alloc-count` feature) — default builds render unchanged.
        if self.allocs > 0 {
            let events = m.sim_events.get().max(1);
            out.push_str(&format!(
                "  {} heap allocations ({:.2}/event, {:.1} bytes/event)\n",
                self.allocs,
                self.allocs as f64 / events as f64,
                self.alloc_bytes as f64 / events as f64
            ));
        }
        out.push_str(&format!(
            "  {} sim events in {:.1} s wall ({:.0} events/s)  digest {}\n",
            m.sim_events.get(),
            self.wall_secs,
            self.events_per_sec(),
            self.digest()
        ));
        for s in &self.per_shard {
            out.push_str(&format!(
                "    shard {}: {} cells, {} users, {} events, {:.1} s\n",
                s.shard, s.cells, s.users, s.sim_events, s.wall_secs
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(metrics: FleetMetrics) -> FleetReport {
        FleetReport {
            users: 10,
            shards: 2,
            policy: "fast".into(),
            master_seed: 1,
            hot_threshold: 100,
            merged: metrics,
            per_shard: vec![],
            wall_secs: 2.0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn alloc_line_renders_only_when_counted() {
        let m = FleetMetrics::default();
        m.sim_events.add(100);
        let mut r = report_with(m);
        assert!(!r.render().contains("heap allocations"));
        let digest_before = r.digest();
        r.allocs = 250;
        r.alloc_bytes = 4000;
        let text = r.render();
        assert!(
            text.contains("250 heap allocations (2.50/event, 40.0 bytes/event)"),
            "{text}"
        );
        // Allocation counts are execution facts, not simulation outcomes.
        assert_eq!(r.digest(), digest_before);
    }

    #[test]
    fn digest_tracks_only_the_merged_metrics() {
        let m = FleetMetrics::default();
        m.t2a_micros.record(84_000_000);
        m.polls_sent.add(5);
        let a = report_with(m.clone());
        let mut b = report_with(m);
        // Execution facts differ; the digest must not.
        b.shards = 7;
        b.wall_secs = 99.0;
        b.per_shard.push(ShardSummary {
            shard: 0,
            cells: 1,
            users: 10,
            sim_events: 1,
            wall_secs: 99.0,
        });
        assert_eq!(a.digest(), b.digest());
        // But a metrics change does move it.
        b.merged.polls_sent.incr();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn quartiles_convert_to_seconds() {
        let m = FleetMetrics::default();
        for s in [58u64, 84, 122] {
            m.t2a_micros.record(s * 1_000_000);
        }
        let (p25, p50, p75) = report_with(m).t2a_quartiles_secs();
        assert!((p25 - 58.0).abs() / 58.0 < 0.05, "p25 {p25}");
        assert!((p50 - 84.0).abs() / 84.0 < 0.05, "p50 {p50}");
        assert!((p75 - 122.0).abs() / 122.0 < 0.05, "p75 {p75}");
    }

    #[test]
    fn render_mentions_the_essentials() {
        let m = FleetMetrics::default();
        m.t2a_micros.record(84_000_000);
        let r = report_with(m);
        let text = r.render();
        assert!(text.contains("10 users"));
        assert!(text.contains("paper"));
        assert!(text.contains(&r.digest()));
    }

    #[test]
    fn attribution_table_renders_only_when_recorded() {
        let m = FleetMetrics::default();
        m.t2a_micros.record(84_000_000);
        let plain = report_with(m.clone()).render();
        assert!(!plain.contains("attribution"), "off by default:\n{plain}");
        m.attribution.cadence_wait.record(50_000_000);
        m.attribution.action_rtt.record(34_000_000);
        m.attribution.total.record(84_000_000);
        let text = report_with(m).render();
        assert!(text.contains("T2A attribution (n=1)"), "{text}");
        assert!(text.contains("cadence wait"), "{text}");
        assert!(text.contains("action rtt"), "{text}");
    }

    #[test]
    fn churn_line_renders_only_when_the_population_moved() {
        let m = FleetMetrics::default();
        m.t2a_micros.record(84_000_000);
        let plain = report_with(m.clone()).render();
        assert!(!plain.contains("churn"), "frozen world:\n{plain}");
        m.churn_installs.add(7);
        m.churn_uninstalls.add(5);
        m.churn_onboards.incr();
        m.churn_retirements.incr();
        m.churn_orphans.add(2);
        let text = report_with(m).render();
        assert!(
            text.contains(
                "churn installs 7  uninstalls 5  services onboarded/retired 1/1  orphaned activations 2"
            ),
            "{text}"
        );
    }

    #[test]
    fn report_serializes_round_trip() {
        let m = FleetMetrics::default();
        m.t2a_micros.record(1234);
        m.cells.incr();
        let r = report_with(m);
        let json = serde_json::to_string(&r).expect("serializes");
        let back: FleetReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.merged, r.merged);
        assert_eq!(back.users, r.users);
    }
}
