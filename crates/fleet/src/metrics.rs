//! Lock-free, exactly-mergeable metric instruments.
//!
//! Everything here is integer state updated with relaxed atomic adds (plus
//! atomic min/max), so recording commutes *exactly*: merging two
//! instruments is element-wise addition (min/max for the extrema), and the
//! merged result is byte-identical no matter how samples were partitioned
//! across shards or in what order shards merged. That is the property the
//! fleet's determinism invariant rests on — `Vec<f64>` sample lists, by
//! contrast, are order-dependent and unbounded.
//!
//! The histogram is log-linear (HDR-style): exact unit buckets below
//! 2^[`SUB_BITS`], then [`SUB_BUCKETS`] sub-buckets per power of two, for a
//! worst-case relative quantile error of 1/[`SUB_BUCKETS`] ≈ 3%. Latencies
//! are recorded in integer microseconds.

use serde::de;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per power of two.
pub const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count: the exact octave-0 row plus one row per octave for
/// msb positions [`SUB_BITS`]..=63.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// A monotone event counter. `merge_from` is exact addition.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Fold `other` into `self` (exact; commutative and associative).
    pub fn merge_from(&self, other: &Counter) {
        self.add(other.get());
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Counter(AtomicU64::new(self.get()))
    }
}

impl PartialEq for Counter {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

impl Serialize for Counter {
    fn write_json(&self, out: &mut String) {
        self.get().write_json(out);
    }
}

impl Deserialize for Counter {
    fn read_json(r: &mut de::Reader<'_>) -> Result<Self, de::Error> {
        Ok(Counter(AtomicU64::new(u64::read_json(r)?)))
    }
}

/// Map a value to its bucket index.
fn bucket_of(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize; // exact unit buckets
    }
    let msb = 63 - v.leading_zeros(); // msb >= SUB_BITS
    let octave = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) - SUB_BUCKETS;
    octave * SUB_BUCKETS + sub
}

/// Upper bound (inclusive) of bucket `index`.
fn bucket_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let octave = (index / SUB_BUCKETS) as u32;
    let sub = (index % SUB_BUCKETS) as u64;
    let width = 1u64 << (octave - 1);
    // `lower + (width - 1)`; grouped so the top bucket's bound (u64::MAX)
    // does not overflow mid-expression.
    (SUB_BUCKETS as u64 + sub) * width + (width - 1)
}

/// A lock-free log-linear histogram over `u64` values.
///
/// Recording is a single relaxed `fetch_add`; merging adds bucket counts
/// element-wise and takes min/max of the exact extrema. Two histograms fed
/// the same multiset of values — in any order, through any partition —
/// are `==` and serialize to identical bytes.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a latency given in seconds (stored as microseconds).
    pub fn record_secs(&self, secs: f64) {
        self.record((secs.max(0.0) * 1e6).round() as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The value at quantile `q` ∈ [0, 1]: the upper bound of the bucket
    /// holding the ⌈q·n⌉-th smallest sample (≤ 1/32 relative error).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bound(i).min(self.max());
            }
        }
        self.max()
    }

    /// `(upper_bound, cumulative_fraction)` per non-empty bucket — an
    /// empirical CDF at bucket resolution.
    pub fn cdf_points(&self) -> Vec<(u64, f64)> {
        let n = self.count();
        if n == 0 {
            return Vec::new();
        }
        let mut seen = 0u64;
        let mut points = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                seen += c;
                points.push((bucket_bound(i), seen as f64 / n as f64));
            }
        }
        points
    }

    /// Fold `other` into `self` (exact; commutative and associative).
    pub fn merge_from(&self, other: &Histogram) {
        // An empty histogram is all zero buckets, a zero sum, `min` at
        // `u64::MAX` and `max` at 0 — recorded or decoded, since decoding
        // checks it — so merging one is a no-op, and skipping it skips
        // 1,920 bucket loads.
        if other.count() == 0 {
            return;
        }
        for (a, b) in self.buckets.iter().zip(&other.buckets) {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                a.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Plain-data snapshot (sparse buckets) for serialization/compare.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((i as u32, c))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            buckets,
        }
    }

    /// Rebuild from a snapshot, which must be one [`Histogram::snapshot`]
    /// could have produced: a bucket index past [`BUCKETS`] panics. Decoding
    /// checks the snapshot before it gets here.
    pub fn from_snapshot(s: &HistogramSnapshot) -> Self {
        let h = Histogram::new();
        for &(i, c) in &s.buckets {
            h.buckets[i as usize].store(c, Ordering::Relaxed);
        }
        h.count.store(s.count, Ordering::Relaxed);
        h.sum.store(s.sum, Ordering::Relaxed);
        h.min.store(
            if s.count == 0 { u64::MAX } else { s.min },
            Ordering::Relaxed,
        );
        h.max.store(s.max, Ordering::Relaxed);
        h
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        Histogram::from_snapshot(&self.snapshot())
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.snapshot() == other.snapshot()
    }
}

impl Serialize for Histogram {
    fn write_json(&self, out: &mut String) {
        self.snapshot().write_json(out);
    }
}

/// The one decoder of histogram state from outside the process: a
/// worker's delta reaches the coordinator through here, so a snapshot no
/// [`Histogram`] could have produced is an error, never a panic or a
/// silently wrong merge.
impl Deserialize for Histogram {
    fn read_json(r: &mut de::Reader<'_>) -> Result<Self, de::Error> {
        let s = HistogramSnapshot::read_json(r)?;
        s.check().map_err(de::Error::custom)?;
        Ok(Histogram::from_snapshot(&s))
    }
}

/// Serializable mirror of a [`Histogram`]: sparse `(bucket, count)` pairs
/// plus the exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Why this is not the snapshot of any [`Histogram`], if it is not:
    /// buckets in range, strictly increasing and nonzero, summing to
    /// `count`; `min <= max` when non-empty; and all zero when empty.
    fn check(&self) -> Result<(), &'static str> {
        let mut last = None;
        let mut total = 0u64;
        for &(i, n) in &self.buckets {
            if i as usize >= BUCKETS {
                return Err("histogram bucket index out of range");
            }
            if last.is_some_and(|l| i <= l) {
                return Err("histogram bucket indices not strictly increasing");
            }
            if n == 0 {
                return Err("zero-count histogram bucket");
            }
            total = total
                .checked_add(n)
                .ok_or("histogram bucket counts overflow")?;
            last = Some(i);
        }
        if total != self.count {
            return Err("histogram bucket counts disagree with its count");
        }
        if self.count > 0 && self.min > self.max {
            return Err("histogram min exceeds max");
        }
        if self.count == 0 && (self.sum, self.min, self.max) != (0, 0, 0) {
            return Err("empty histogram with a nonzero sum, min or max");
        }
        Ok(())
    }
}

/// Per-stage decomposition of trigger-to-action latency, one histogram per
/// stage (integer µs). All six histograms are recorded from the **same
/// clamped timestamp chain**, so for every delivered activation the five
/// stage durations sum *exactly* to the `total` sample — the conservation
/// property `fleet/tests/attribution.rs` pins — and `total` is
/// sample-for-sample identical to `t2a_micros`.
///
/// Empty (nothing recorded, `unmatched` zero) unless a run opts in via
/// `FleetConfig::attribution`; the serialized form omits an empty value so
/// attribution-off runs keep their pinned golden digests.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AttributionStages {
    /// Trigger fire → the poll request that surfaced it leaving the
    /// engine: the polling-cadence wait, the paper's dominant T2A term.
    pub cadence_wait: Histogram,
    /// Poll request out → response ingested (one service round trip).
    pub poll_rtt: Histogram,
    /// Poll ingested → first action attempt out: dispatch overhead plus
    /// the inter-action gap of earlier events in the batch.
    pub dispatch_lag: Histogram,
    /// First action attempt → last attempt out: zero without retries, the
    /// backoff/breaker penalty under faults.
    pub retry_penalty: Histogram,
    /// Last action attempt out → arrival at the action service.
    pub action_rtt: Histogram,
    /// End-to-end trigger-to-action latency (equals `t2a_micros`).
    pub total: Histogram,
    /// Deliveries the recorder could not match to a dispatch span (their
    /// stage split is recorded as all-`total`; zero in clean runs).
    pub unmatched: Counter,
}

impl AttributionStages {
    /// Fold `other` into `self` (exact, like every fleet instrument).
    pub fn merge_from(&self, other: &AttributionStages) {
        self.cadence_wait.merge_from(&other.cadence_wait);
        self.poll_rtt.merge_from(&other.poll_rtt);
        self.dispatch_lag.merge_from(&other.dispatch_lag);
        self.retry_penalty.merge_from(&other.retry_penalty);
        self.action_rtt.merge_from(&other.action_rtt);
        self.total.merge_from(&other.total);
        self.unmatched.merge_from(&other.unmatched);
    }

    /// True when nothing was recorded (attribution was off).
    pub fn is_empty(&self) -> bool {
        self.total.count() == 0 && self.unmatched.get() == 0
    }

    /// The five stages in report order, with display labels.
    pub fn stages(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("cadence wait", &self.cadence_wait),
            ("poll rtt", &self.poll_rtt),
            ("dispatch lag", &self.dispatch_lag),
            ("retry penalty", &self.retry_penalty),
            ("action rtt", &self.action_rtt),
        ]
    }
}

/// The fleet's plain counters, declared once. A row is a field name and,
/// after `=>`, the [`engine::Stat`] it mirrors (absent for counters the
/// fleet books itself). `always` rows are serialized unconditionally;
/// `nonzero` rows only when nonzero, so a run that never touches a
/// later-added subsystem (chaos, realtime, DAGs, churn) produces the exact
/// byte string — and pinned golden digest — it did before that subsystem
/// existed. A new counter is therefore a `nonzero` row. Keys serialize in
/// sorted order, so where a row sits within its section means nothing.
///
/// Generates [`FleetMetrics`] with its `merge_from`, `counter_for` and
/// `Serialize`.
macro_rules! fleet_counters {
    (
        always { $( $(#[$adoc:meta])* $a:ident $(=> $astat:ident)?, )* }
        nonzero { $( $(#[$ndoc:meta])* $n:ident $(=> $nstat:ident)?, )* }
    ) => {
        /// The full instrument set one fleet run records.
        ///
        /// One `FleetMetrics` is shared (via `Arc`) by every engine and
        /// workload service of a shard; shards then merge into a single
        /// instance. It also implements [`engine::ObsSink`], routing the
        /// engine's typed event stream into these counters through the
        /// same [`engine::Stat`] mapping `EngineStats` itself uses — the
        /// two can never drift apart.
        #[derive(Debug, Default, Clone, PartialEq, Deserialize)]
        #[serde(deny_unknown_fields)]
        pub struct FleetMetrics {
            /// Trigger-to-action latency in µs, measured at the workload
            /// service (event emission → action request arrival).
            pub t2a_micros: Histogram,
            /// Dispatch-queue depth observed at each enqueue.
            pub dispatch_depth: Histogram,
            $( $(#[$adoc])* pub $a: Counter, )*
            $( $(#[$ndoc])* #[serde(default)] pub $n: Counter, )*
            /// Per-stage T2A latency attribution (empty unless a run opts in).
            #[serde(default)]
            pub attribution: AttributionStages,
        }

        impl FleetMetrics {
            /// Fold `other` into `self`. Exact: commutative, associative, and
            /// partition-invariant.
            pub fn merge_from(&self, other: &FleetMetrics) {
                self.t2a_micros.merge_from(&other.t2a_micros);
                self.dispatch_depth.merge_from(&other.dispatch_depth);
                $( self.$a.merge_from(&other.$a); )*
                $( self.$n.merge_from(&other.$n); )*
                self.attribution.merge_from(&other.attribution);
            }

            /// The fleet counter a [`engine::Stat`] routes to, if the fleet
            /// tracks it; `None` for engine-local bookkeeping (empty polls,
            /// hints, …). A plain `match`: it runs per counter increment.
            fn counter_for(&self, stat: engine::Stat) -> Option<&Counter> {
                match stat {
                    $( $( engine::Stat::$astat => Some(&self.$a), )? )*
                    $( $( engine::Stat::$nstat => Some(&self.$n), )? )*
                    _ => None,
                }
            }
        }

        impl Serialize for FleetMetrics {
            fn write_json(&self, out: &mut String) {
                let mut fields: Vec<(&str, &dyn Serialize)> = vec![
                    ("t2a_micros", &self.t2a_micros),
                    ("dispatch_depth", &self.dispatch_depth),
                    $( (stringify!($a), &self.$a), )*
                ];
                $(
                    if self.$n.get() > 0 {
                        fields.push((stringify!($n), &self.$n));
                    }
                )*
                // Attribution follows the `nonzero` rule: it appears only
                // when a run recorded it.
                if !self.attribution.is_empty() {
                    fields.push(("attribution", &self.attribution));
                }
                serde::ser::write_fields(out, &mut fields);
            }
        }
    };
}

fleet_counters! {
    always {
        /// Trigger polls the engines sent (batch members each count once).
        polls_sent => PollsSent,
        /// Coalesced batch poll requests (each carried ≥ 2 subscriptions).
        polls_batched => PollsBatched,
        /// Subscription polls that rode a sibling's batch request; HTTP
        /// round trips = `polls_sent` − `polls_coalesced`.
        polls_coalesced => PollsCoalesced,
        /// New (previously unseen) trigger events returned by polls.
        events_new => EventsNew,
        /// Action requests acknowledged with success.
        actions_ok => ActionsOk,
        /// Action requests that gave up after retries.
        actions_failed => ActionsFailed,
        /// Trigger activations fired into the workload services.
        activations,
        /// Activations with no action by the cell horizon.
        lost,
        /// Simulation kernel events processed across all cells.
        sim_events,
        /// Kernel events attributed to engine nodes specifically.
        engine_events,
        /// Cells simulated.
        cells,
        /// User channels simulated.
        users,
        /// Applets installed.
        applets,
    }
    nonzero {
        /// Polls (or batch members) that came back failed.
        polls_failed => PollsFailed,
        /// Failed polls rescheduled on the backoff schedule.
        polls_retried => PollsRetried,
        /// Polls shed by an open circuit breaker.
        polls_shed => PollsShed,
        /// Circuit-breaker trips (including failed half-open probes).
        breaker_trips => BreakerTrips,
        /// Failed action dispatches re-sent on the backoff schedule.
        actions_retried => ActionsRetried,
        /// Actions permanently abandoned after exhausting retries.
        dead_letters => DeadLetters,
        /// Requests the workload services answered with an injected fault.
        faults_injected,
        /// Realtime notifications the engines honored (allow-listed services).
        realtime_notifications => RealtimeNotifications,
        /// Immediate out-of-band polls fired in response to a notification.
        realtime_polls => RealtimePolls,
        /// Notifications absorbed by the debounce window or an in-flight poll.
        realtime_suppressed => RealtimeSuppressed,
        /// Notification bodies that failed to parse (answered 400).
        realtime_malformed => RealtimeMalformed,
        /// Multi-step DAG runs started (one per fresh event on a DAG applet).
        dag_runs => DagRuns,
        /// Filter nodes executed across DAG runs.
        dag_nodes_filter => DagNodesFilter,
        /// Transform nodes executed across DAG runs.
        dag_nodes_transform => DagNodesTransform,
        /// Query nodes completed across DAG runs.
        dag_nodes_query => DagNodesQuery,
        /// Action nodes completed across DAG runs.
        dag_nodes_action => DagNodesAction,
        /// Network-node retries scheduled inside DAG runs.
        dag_node_retries => DagNodeRetries,
        /// Mid-run applet installs applied through the lifecycle API.
        churn_installs,
        /// Mid-run applet uninstalls applied through the lifecycle API.
        churn_uninstalls,
        /// Services onboarded mid-run (opened for installs and realtime).
        churn_onboards,
        /// Services retired mid-run (terminal; in-flight work dead-lettered).
        churn_retirements,
        /// Planned activations dropped because churn removed their applet
        /// before the fire time (never emitted, so not `lost`).
        churn_orphans,
    }
}

impl FleetMetrics {
    /// A zeroed instrument set.
    pub fn new() -> Self {
        FleetMetrics::default()
    }

    /// Canonical JSON of the full instrument state — the byte string the
    /// determinism invariant compares across shard counts, and what a
    /// distributed worker sends for each cell.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("metrics serialize")
    }
}

impl engine::ObsSink for FleetMetrics {
    fn on_event(&self, ev: &engine::ObsEvent) {
        if let engine::ObsEvent::DispatchEnqueued { depth, .. } = ev {
            self.dispatch_depth.record(*depth);
        }
        ev.for_each_stat(|stat, n| {
            if let Some(c) = self.counter_for(stat) {
                c.add(n);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every value maps into a bucket whose bound is >= the value and
        // bucket bounds strictly increase with the index.
        let mut prev = 0u64;
        for i in 1..BUCKETS {
            let b = bucket_bound(i);
            assert!(b > prev, "bound({i}) = {b} <= bound({}) = {prev}", i - 1);
            prev = b;
        }
        for v in [0u64, 1, 31, 32, 33, 63, 64, 1000, u64::MAX / 2, u64::MAX] {
            let i = bucket_of(v);
            assert!(bucket_bound(i) >= v, "v={v} i={i}");
            if i > 0 {
                assert!(bucket_bound(i - 1) < v, "v={v} below bucket {i}");
            }
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.25, 2_500.0), (0.5, 5_000.0), (0.95, 9_500.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.04, "q={q}: got {got}, exact {exact}, rel {rel}");
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let h = Histogram::new();
        for v in [0u64, 5, 1_000, 123_456_789] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
        let empty: Histogram =
            serde_json::from_str(&serde_json::to_string(&Histogram::new()).unwrap()).unwrap();
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn sink_events_feed_the_right_instruments() {
        use engine::{AppletId, ObsEvent, ObsSink};
        let m = FleetMetrics::new();
        let t = simnet::time::SimTime::ZERO;
        let a = AppletId(1);
        let svc = tap_protocol::Interner::new().intern("svc");
        m.on_event(&ObsEvent::PollSent {
            applet: a,
            service: svc,
            at: t,
        });
        m.on_event(&ObsEvent::BatchPollSent {
            service: svc,
            members: 4,
            at: t,
        });
        m.on_event(&ObsEvent::PollDelivered {
            applet: a,
            received: 5,
            fresh: 3,
            sent_at: t,
            at: t,
        });
        m.on_event(&ObsEvent::DispatchEnqueued {
            applet: a,
            dispatch: 1,
            depth: 7,
            poll_sent_at: t,
            at: t,
        });
        m.on_event(&ObsEvent::ActionFinished {
            applet: a,
            dispatch: 1,
            ok: true,
            at: t,
        });
        m.on_event(&ObsEvent::ActionFinished {
            applet: a,
            dispatch: 2,
            ok: false,
            at: t,
        });
        assert_eq!(m.polls_sent.get(), 5, "1 single + 4 batch members");
        assert_eq!(m.polls_batched.get(), 1);
        assert_eq!(m.polls_coalesced.get(), 3);
        assert_eq!(m.events_new.get(), 3);
        assert_eq!(m.dispatch_depth.max(), 7);
        assert_eq!(m.actions_ok.get(), 1);
        assert_eq!(m.actions_failed.get(), 1);
    }

    #[test]
    fn every_mirrored_stat_routes_to_its_own_counter() {
        // Poke every engine Stat once: no fleet counter may be hit twice.
        let m = FleetMetrics::new();
        let mut mirrored = 0;
        for &stat in engine::Stat::ALL {
            if let Some(c) = m.counter_for(stat) {
                c.incr();
                mirrored += 1;
            }
        }
        // Every counter is a number member of the JSON; histograms are objects.
        let json: serde_json::Value = serde_json::from_str(&m.to_json()).unwrap();
        let counters: Vec<u64> = json
            .as_object()
            .unwrap()
            .values()
            .filter_map(|v| v.as_u64())
            .collect();
        assert!(counters.iter().all(|&c| c <= 1), "{json}");
        assert_eq!(counters.iter().sum::<u64>(), mirrored);
        assert!(mirrored > 0 && (mirrored as usize) < engine::Stat::ALL.len());
    }

    #[test]
    fn attribution_merge_and_conditional_serialization() {
        let a = FleetMetrics::new();
        let b = FleetMetrics::new();
        assert!(
            !a.to_json().contains("attribution"),
            "empty attribution must not perturb the serialized form"
        );
        b.attribution.cadence_wait.record(88_000_000);
        b.attribution.total.record(92_000_000);
        a.merge_from(&b);
        assert_eq!(a.attribution.total.count(), 1);
        assert_eq!(
            a.attribution.cadence_wait.max(),
            b.attribution.cadence_wait.max()
        );
        let json = a.to_json();
        assert!(json.contains("attribution"));
        let back: FleetMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.attribution, a.attribution);
    }

    fn hist_of(values: &[u64]) -> Histogram {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn counter_merge_is_exact(xs in proptest::collection::vec(0u64..1_000_000, 0..20),
                                  ys in proptest::collection::vec(0u64..1_000_000, 0..20)) {
            let a = Counter::new();
            for &x in &xs { a.add(x); }
            let b = Counter::new();
            for &y in &ys { b.add(y); }
            a.merge_from(&b);
            let expect: u64 = xs.iter().chain(ys.iter()).sum();
            prop_assert_eq!(a.get(), expect);
        }

        #[test]
        fn histogram_merge_is_commutative(xs in proptest::collection::vec(0u64..1_000_000_000, 0..40),
                                          ys in proptest::collection::vec(0u64..1_000_000_000, 0..40)) {
            let ab = hist_of(&xs);
            ab.merge_from(&hist_of(&ys));
            let ba = hist_of(&ys);
            ba.merge_from(&hist_of(&xs));
            prop_assert_eq!(ab.snapshot(), ba.snapshot());
        }

        #[test]
        fn histogram_merge_is_associative(xs in proptest::collection::vec(0u64..1_000_000_000, 0..30),
                                          ys in proptest::collection::vec(0u64..1_000_000_000, 0..30),
                                          zs in proptest::collection::vec(0u64..1_000_000_000, 0..30)) {
            // (x ⊕ y) ⊕ z
            let left = hist_of(&xs);
            left.merge_from(&hist_of(&ys));
            left.merge_from(&hist_of(&zs));
            // x ⊕ (y ⊕ z)
            let yz = hist_of(&ys);
            yz.merge_from(&hist_of(&zs));
            let right = hist_of(&xs);
            right.merge_from(&yz);
            prop_assert_eq!(left.snapshot(), right.snapshot());
        }

        #[test]
        fn merged_equals_union_recording(xs in proptest::collection::vec(0u64..1_000_000_000, 0..40),
                                         ys in proptest::collection::vec(0u64..1_000_000_000, 0..40)) {
            // Partitioned recording + merge == recording the union into one
            // histogram: identical buckets, hence identical quantiles.
            let merged = hist_of(&xs);
            merged.merge_from(&hist_of(&ys));
            let union: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
            let whole = hist_of(&union);
            prop_assert_eq!(merged.snapshot(), whole.snapshot());
            for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
                prop_assert_eq!(merged.quantile(q), whole.quantile(q));
            }
        }

        #[test]
        fn fleet_metrics_merge_is_partition_invariant(
            vals in proptest::collection::vec((0u64..10_000_000, 0usize..16), 1..60),
            split in 0usize..60,
        ) {
            let split = split.min(vals.len());
            // Record (t2a, depth) pairs either into one instance or into
            // two partitions that are then merged.
            let whole = FleetMetrics::new();
            let a = FleetMetrics::new();
            let b = FleetMetrics::new();
            for (i, &(t2a, depth)) in vals.iter().enumerate() {
                let part = if i < split { &a } else { &b };
                for m in [&whole, part] {
                    m.t2a_micros.record(t2a);
                    m.dispatch_depth.record(depth as u64);
                    m.polls_sent.incr();
                }
            }
            let merged = FleetMetrics::new();
            merged.merge_from(&a);
            merged.merge_from(&b);
            prop_assert_eq!(merged.to_json(), whole.to_json());
        }
    }
}
