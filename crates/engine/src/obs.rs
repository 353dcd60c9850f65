//! The unified typed instrumentation API.
//!
//! Every observable fact the engine used to book three times — once into
//! [`EngineStats`] counters, once through the old
//! 11-method observer trait, once as a `format!`ted trace line — is now a
//! single [`ObsEvent`] value emitted at the hot spot. The engine applies
//! the event to its own stats via [`EngineStats::apply`] and forwards the
//! same value to an optional [`ObsSink`]; a new counter is therefore added
//! in exactly one place (the [`ObsEvent::for_each_stat`] mapping).
//!
//! Events are small `Copy` structs carrying interned
//! [`tap_protocol::Symbol`] ids and [`SimTime`] stamps — no
//! per-event allocation, so a sink is affordable at fleet scale where the
//! string-building `TraceLog` has to stay disabled. The
//! [`FlightRecorder`] rides on that: a bounded, optionally sampled ring
//! buffer of raw events, cheap enough to leave attached to a 100k-user
//! run.
//!
//! Downstream consumers:
//! * `fleet::FleetMetrics` implements [`ObsSink`] and routes the same
//!   [`Stat`] mapping into its mergeable counters, so engine stats and
//!   fleet metrics can never drift apart;
//! * `fleet::AttributionRecorder` decomposes each delivered activation
//!   into latency stages using the `dispatch` ids that thread
//!   [`ObsEvent::DispatchEnqueued`] → [`ObsEvent::ActionSent`] →
//!   [`ObsEvent::ActionFinished`];
//! * the testbed attaches a [`FlightRecorder`] for post-hoc timeline
//!   digging without enabling the trace log.

use crate::applet::AppletId;
use simnet::time::SimTime;
use std::collections::VecDeque;
use std::sync::Mutex;
use tap_protocol::{StepKind, Symbol};

/// One typed instrumentation event, emitted by the engine at a hot spot.
///
/// Field conventions:
/// * `at` — the virtual instant the event was emitted;
/// * `applet` — the subscription involved, where one is identifiable;
/// * `service` — the engine-interned symbol of the partner service (only
///   meaningful to sinks sharing the engine's interner; counting sinks
///   ignore it);
/// * `dispatch` — the id of the activation's run (an arena handle, unique
///   among live runs), linking the enqueue, the action attempts, and the
///   final outcome of one activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A single trigger poll request left the engine.
    PollSent {
        /// Polled subscription.
        applet: AppletId,
        /// Trigger service polled.
        service: Symbol,
        /// Emission time.
        at: SimTime,
    },
    /// A coalesced batch poll request left the engine carrying `members`
    /// subscription entries (`members >= 2`; each member also counts as
    /// one subscription poll).
    BatchPollSent {
        /// Trigger service polled.
        service: Symbol,
        /// Entries riding this request.
        members: u64,
        /// Emission time.
        at: SimTime,
    },
    /// `polls` subscription polls came back with the canonical empty body
    /// (no parse, no events).
    PollEmpty {
        /// Subscription polls answered empty (1, or a batch's member count).
        polls: u64,
        /// Response time.
        at: SimTime,
    },
    /// A poll response for one subscription was parsed and deduplicated:
    /// `received` events on the wire, `fresh` of them previously unseen.
    /// `fresh == 0` counts as an empty poll.
    PollDelivered {
        /// Subscription the response belongs to.
        applet: AppletId,
        /// Events on the wire (duplicates included).
        received: u64,
        /// Previously unseen events (each will be dispatched).
        fresh: u64,
        /// When the poll request left the engine.
        sent_at: SimTime,
        /// Response time.
        at: SimTime,
    },
    /// A poll response arrived for a subscription that no longer exists;
    /// its `received` events are dropped.
    PollDiscarded {
        /// Events on the wire that were dropped.
        received: u64,
        /// Response time.
        at: SimTime,
    },
    /// `polls` subscription polls failed: non-2xx, timeout, or an
    /// unparseable body.
    PollFailed {
        /// Subscription polls that failed (1, or a batch's member count).
        polls: u64,
        /// Failure time.
        at: SimTime,
    },
    /// A failed poll was pulled forward onto the backoff schedule instead
    /// of waiting a full cadence gap.
    PollRetried {
        /// Subscription being retried.
        applet: AppletId,
        /// Scheduling time.
        at: SimTime,
    },
    /// A poll was shed by an open circuit breaker (deferred to the next
    /// cadence cycle).
    PollShed {
        /// Subscription that was shed.
        applet: AppletId,
        /// Shed time.
        at: SimTime,
    },
    /// A per-service circuit breaker tripped open (including a failed
    /// half-open probe re-opening it).
    BreakerTripped {
        /// Service whose breaker opened.
        service: Symbol,
        /// Trip time.
        at: SimTime,
    },
    /// A failed batch poll demoted its group to singleton polls for a
    /// cycle.
    BatchDegraded {
        /// Trigger service of the degraded group.
        service: Symbol,
        /// Degradation time.
        at: SimTime,
    },
    /// A dispatch job was enqueued for one fresh trigger event.
    DispatchEnqueued {
        /// Subscription that produced the event.
        applet: AppletId,
        /// Id of the run opened for the event (links later action events).
        dispatch: u64,
        /// Jobs outstanding right after the enqueue (this one included).
        depth: u64,
        /// When the poll that surfaced the event left the engine.
        poll_sent_at: SimTime,
        /// Enqueue time.
        at: SimTime,
    },
    /// An action request left the engine (`attempt` is 1-based; retries
    /// re-enter here with higher attempts).
    ActionSent {
        /// Subscription executing.
        applet: AppletId,
        /// Dispatch job this attempt belongs to.
        dispatch: u64,
        /// 1-based attempt number.
        attempt: u32,
        /// Emission time.
        at: SimTime,
    },
    /// An action concluded (`ok` = 2xx; `!ok` fires together with
    /// [`ObsEvent::ActionDeadLettered`]).
    ActionFinished {
        /// Subscription executed.
        applet: AppletId,
        /// Dispatch job that concluded.
        dispatch: u64,
        /// Whether the service acknowledged success.
        ok: bool,
        /// Conclusion time.
        at: SimTime,
    },
    /// A failed action dispatch was re-sent on the backoff schedule.
    ActionRetried {
        /// Subscription being retried.
        applet: AppletId,
        /// Dispatch job being retried.
        dispatch: u64,
        /// Scheduling time.
        at: SimTime,
    },
    /// An action dispatch was permanently abandoned: retries exhausted or
    /// a terminal client error.
    ActionDeadLettered {
        /// Subscription abandoned.
        applet: AppletId,
        /// Dispatch job abandoned.
        dispatch: u64,
        /// Abandon time.
        at: SimTime,
    },
    /// A dispatch was suppressed by its applet's condition.
    ActionFiltered {
        /// Subscription filtered.
        applet: AppletId,
        /// Dispatch job dropped.
        dispatch: u64,
        /// Filter time.
        at: SimTime,
    },
    /// A pre-dispatch query left the engine.
    QuerySent {
        /// Subscription querying.
        applet: AppletId,
        /// Dispatch job waiting on the query.
        dispatch: u64,
        /// Emission time.
        at: SimTime,
    },
    /// A pre-dispatch query failed (treated as empty results).
    QueryFailed {
        /// Dispatch job whose query failed.
        dispatch: u64,
        /// Failure time.
        at: SimTime,
    },
    /// A realtime-API hint arrived.
    HintReceived {
        /// Arrival time.
        at: SimTime,
    },
    /// A hint from an allowlisted service scheduled prompt polls.
    HintHonored {
        /// Processing time.
        at: SimTime,
    },
    /// A hint was acknowledged and ignored (service not allowlisted).
    HintIgnored {
        /// Arrival time.
        at: SimTime,
    },
    /// A realtime notification body failed to parse (neither the versioned
    /// nor the legacy shape) or spoke an unsupported version; answered
    /// with a 400.
    HintMalformed {
        /// Arrival time.
        at: SimTime,
    },
    /// An out-of-cadence poll armed by a realtime notification left the
    /// engine (also counts as an ordinary [`ObsEvent::PollSent`], emitted
    /// separately at the same site).
    RealtimePollSent {
        /// Subscription polled ahead of cadence.
        applet: AppletId,
        /// Emission time.
        at: SimTime,
    },
    /// A realtime notification for a subscription was absorbed: an
    /// immediate poll is already outstanding, the debounce window is
    /// open, or a cadence poll is in flight and will observe the data.
    RealtimeSuppressed {
        /// Subscription whose hint was absorbed.
        applet: AppletId,
        /// Suppression time.
        at: SimTime,
    },
    /// The runtime loop detector flagged an applet.
    LoopFlagged {
        /// Flagged subscription.
        applet: AppletId,
        /// Flag time.
        at: SimTime,
    },
    /// A multi-step run started for one fresh trigger event. Classic
    /// applets' runs emit none of the three `Dag*` events, so `dag_*`
    /// counters read zero for a population without multi-step applets.
    DagRunStarted {
        /// Subscription whose DAG is executing.
        applet: AppletId,
        /// Dispatch id of the run.
        dispatch: u64,
        /// Start time.
        at: SimTime,
    },
    /// One DAG node finished executing (synchronously for filter and
    /// transform nodes; on the final response for query and action nodes).
    DagNodeExecuted {
        /// Subscription whose DAG is executing.
        applet: AppletId,
        /// Dispatch id of the run.
        dispatch: u64,
        /// Node index within the DAG.
        node: u16,
        /// What kind of step ran.
        kind: StepKind,
        /// Completion time.
        at: SimTime,
    },
    /// A failed query or action node of a multi-step run was re-sent on
    /// the backoff schedule (action nodes also emit `ActionRetried`, as
    /// every run's do, for attribution).
    DagNodeRetried {
        /// Subscription whose DAG is executing.
        applet: AppletId,
        /// Dispatch id of the run.
        dispatch: u64,
        /// Node index within the DAG.
        node: u16,
        /// Scheduling time.
        at: SimTime,
    },
}

/// The engine's counters, declared once: one `field / Variant` row each,
/// its doc comment landing on both. Generates [`EngineStats`], [`Stat`],
/// [`Stat::ALL`] and [`EngineStats::slot`]; what an *event* adds to which
/// counter is not a list and stays hand-written in
/// [`ObsEvent::for_each_stat`].
macro_rules! engine_stats {
    ($( $(#[$doc:meta])* $field:ident / $variant:ident, )*) => {
        /// Aggregate engine counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct EngineStats {
            $( $(#[$doc])* pub $field: u64, )*
        }

        /// The counters of [`EngineStats`], named. [`ObsEvent::for_each_stat`]
        /// maps events onto `(Stat, increment)` pairs; both the engine's own
        /// stats and `fleet::FleetMetrics` consume that single mapping.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stat {
            $( $(#[$doc])* $variant, )*
        }

        impl Stat {
            /// Every counter, in declaration order.
            pub const ALL: &'static [Stat] = &[$( Stat::$variant, )*];
        }

        impl EngineStats {
            /// The counter a [`Stat`] names. Expands to a plain `match`:
            /// it runs once per counter increment of every [`ObsEvent`].
            pub fn slot(&mut self, stat: Stat) -> &mut u64 {
                match stat {
                    $( Stat::$variant => &mut self.$field, )*
                }
            }
        }
    };
}

engine_stats! {
    /// Subscription polls sent (each member of a batch counts once).
    polls_sent / PollsSent,
    /// Polls answered with no new event (canonical empty body, or every
    /// event already seen).
    polls_empty / PollsEmpty,
    /// Polls that failed: non-2xx, timeout, or an unparseable body.
    polls_failed / PollsFailed,
    /// Trigger events on the wire, duplicates included.
    events_received / EventsReceived,
    /// Previously unseen trigger events (each opens one run).
    events_new / EventsNew,
    /// Action requests sent, retries included.
    actions_sent / ActionsSent,
    /// Actions acknowledged with success.
    actions_ok / ActionsOk,
    /// Actions that concluded in failure.
    actions_failed / ActionsFailed,
    /// Realtime-API hints that arrived.
    hints_received / HintsReceived,
    /// Hints from allowlisted services (prompt polls scheduled).
    hints_honored / HintsHonored,
    /// Hints acknowledged and ignored (service not allowlisted).
    hints_ignored / HintsIgnored,
    /// Applets flagged by the runtime loop detector.
    loops_flagged / LoopsFlagged,
    /// Dispatches suppressed by an applet condition.
    actions_filtered / ActionsFiltered,
    /// Pre-dispatch queries sent.
    queries_sent / QueriesSent,
    /// Pre-dispatch queries that failed (treated as empty results).
    queries_failed / QueriesFailed,
    /// Action dispatches retried after a failure.
    actions_retried / ActionsRetried,
    /// Coalesced batch poll requests sent (each carries ≥ 2 entries).
    polls_batched / PollsBatched,
    /// Subscription polls that rode a sibling's batch request instead of
    /// costing their own round trip (batch members minus initiators).
    polls_coalesced / PollsCoalesced,
    /// Failed polls re-sent on the backoff schedule (subset of
    /// `polls_failed`).
    polls_retried / PollsRetried,
    /// Polls shed by an open circuit breaker (deferred to the next cycle).
    polls_shed / PollsShed,
    /// Breaker transitions into `Open` (including failed half-open probes).
    breaker_trips / BreakerTrips,
    /// Action dispatches permanently abandoned: retries exhausted or a
    /// terminal client error. Always incremented alongside
    /// `actions_failed`, so `events_new == actions_ok + actions_filtered +
    /// dead_letters` once the engine is idle.
    dead_letters / DeadLetters,
    /// Batch poll failures that dropped their group to singleton polls for
    /// a cycle.
    batch_fallbacks / BatchFallbacks,
    /// Realtime notifications accepted into the immediate-poll scheduler
    /// (equals `hints_honored`; one per honored notification request).
    realtime_notifications / RealtimeNotifications,
    /// Out-of-cadence polls sent because a realtime notification preempted
    /// the subscription's pending cadence entry (subset of `polls_sent`).
    realtime_polls / RealtimePolls,
    /// Hinted subscriptions whose notification was absorbed: an immediate
    /// poll already outstanding, the debounce window open, or a cadence
    /// poll in flight.
    realtime_suppressed / RealtimeSuppressed,
    /// Realtime notification bodies that failed to parse (answered 400).
    realtime_malformed / RealtimeMalformed,
    /// Multi-step DAG runs started.
    dag_runs / DagRuns,
    /// Filter nodes executed (both predicate outcomes count).
    dag_nodes_filter / DagNodesFilter,
    /// Transform nodes executed.
    dag_nodes_transform / DagNodesTransform,
    /// Query nodes completed successfully.
    dag_nodes_query / DagNodesQuery,
    /// Action nodes completed successfully.
    dag_nodes_action / DagNodesAction,
    /// Failed DAG query/action attempts re-sent on the backoff schedule.
    dag_node_retries / DagNodeRetries,
}

impl ObsEvent {
    /// The virtual instant this event was emitted.
    pub fn at(&self) -> SimTime {
        match *self {
            ObsEvent::PollSent { at, .. }
            | ObsEvent::BatchPollSent { at, .. }
            | ObsEvent::PollEmpty { at, .. }
            | ObsEvent::PollDelivered { at, .. }
            | ObsEvent::PollDiscarded { at, .. }
            | ObsEvent::PollFailed { at, .. }
            | ObsEvent::PollRetried { at, .. }
            | ObsEvent::PollShed { at, .. }
            | ObsEvent::BreakerTripped { at, .. }
            | ObsEvent::BatchDegraded { at, .. }
            | ObsEvent::DispatchEnqueued { at, .. }
            | ObsEvent::ActionSent { at, .. }
            | ObsEvent::ActionFinished { at, .. }
            | ObsEvent::ActionRetried { at, .. }
            | ObsEvent::ActionDeadLettered { at, .. }
            | ObsEvent::ActionFiltered { at, .. }
            | ObsEvent::QuerySent { at, .. }
            | ObsEvent::QueryFailed { at, .. }
            | ObsEvent::HintReceived { at }
            | ObsEvent::HintHonored { at }
            | ObsEvent::HintIgnored { at }
            | ObsEvent::HintMalformed { at }
            | ObsEvent::RealtimePollSent { at, .. }
            | ObsEvent::RealtimeSuppressed { at, .. }
            | ObsEvent::LoopFlagged { at, .. }
            | ObsEvent::DagRunStarted { at, .. }
            | ObsEvent::DagNodeExecuted { at, .. }
            | ObsEvent::DagNodeRetried { at, .. } => at,
        }
    }

    /// The counter increments this event implies — the one place the
    /// event → counter mapping lives. `f` is called once per affected
    /// [`Stat`] with the amount to add.
    pub fn for_each_stat(&self, mut f: impl FnMut(Stat, u64)) {
        match *self {
            ObsEvent::PollSent { .. } => f(Stat::PollsSent, 1),
            ObsEvent::BatchPollSent { members, .. } => {
                // Each member still counts as one subscription poll; the
                // batch and coalesced counters record what the fan-in
                // saved (HTTP round trips = polls_sent - polls_coalesced).
                f(Stat::PollsSent, members);
                f(Stat::PollsBatched, 1);
                f(Stat::PollsCoalesced, members.saturating_sub(1));
            }
            ObsEvent::PollEmpty { polls, .. } => f(Stat::PollsEmpty, polls),
            ObsEvent::PollDelivered {
                received, fresh, ..
            } => {
                f(Stat::EventsReceived, received);
                if fresh == 0 {
                    f(Stat::PollsEmpty, 1);
                } else {
                    f(Stat::EventsNew, fresh);
                }
            }
            ObsEvent::PollDiscarded { received, .. } => f(Stat::EventsReceived, received),
            ObsEvent::PollFailed { polls, .. } => f(Stat::PollsFailed, polls),
            ObsEvent::PollRetried { .. } => f(Stat::PollsRetried, 1),
            ObsEvent::PollShed { .. } => f(Stat::PollsShed, 1),
            ObsEvent::BreakerTripped { .. } => f(Stat::BreakerTrips, 1),
            ObsEvent::BatchDegraded { .. } => f(Stat::BatchFallbacks, 1),
            ObsEvent::DispatchEnqueued { .. } => {}
            ObsEvent::ActionSent { .. } => f(Stat::ActionsSent, 1),
            ObsEvent::ActionFinished { ok, .. } => {
                if ok {
                    f(Stat::ActionsOk, 1);
                } else {
                    f(Stat::ActionsFailed, 1);
                }
            }
            ObsEvent::ActionRetried { .. } => f(Stat::ActionsRetried, 1),
            ObsEvent::ActionDeadLettered { .. } => f(Stat::DeadLetters, 1),
            ObsEvent::ActionFiltered { .. } => f(Stat::ActionsFiltered, 1),
            ObsEvent::QuerySent { .. } => f(Stat::QueriesSent, 1),
            ObsEvent::QueryFailed { .. } => f(Stat::QueriesFailed, 1),
            ObsEvent::HintReceived { .. } => f(Stat::HintsReceived, 1),
            ObsEvent::HintHonored { .. } => {
                // An honored hint *is* a realtime notification accepted
                // into the immediate-poll scheduler; both the legacy hint
                // counter and the realtime counter record it.
                f(Stat::HintsHonored, 1);
                f(Stat::RealtimeNotifications, 1);
            }
            ObsEvent::HintIgnored { .. } => f(Stat::HintsIgnored, 1),
            ObsEvent::HintMalformed { .. } => f(Stat::RealtimeMalformed, 1),
            ObsEvent::RealtimePollSent { .. } => f(Stat::RealtimePolls, 1),
            ObsEvent::RealtimeSuppressed { .. } => f(Stat::RealtimeSuppressed, 1),
            ObsEvent::LoopFlagged { .. } => f(Stat::LoopsFlagged, 1),
            ObsEvent::DagRunStarted { .. } => f(Stat::DagRuns, 1),
            ObsEvent::DagNodeExecuted { kind, .. } => f(
                match kind {
                    StepKind::Filter => Stat::DagNodesFilter,
                    StepKind::Transform => Stat::DagNodesTransform,
                    StepKind::Query => Stat::DagNodesQuery,
                    StepKind::Action => Stat::DagNodesAction,
                },
                1,
            ),
            ObsEvent::DagNodeRetried { .. } => f(Stat::DagNodeRetries, 1),
        }
    }
}

impl EngineStats {
    /// Apply one event's counter increments. The engine's stats are
    /// maintained exclusively through this — there are no ad-hoc `+= 1`
    /// sites left — so any [`ObsSink`] replaying the event stream through
    /// a fresh `EngineStats` reproduces the engine's own totals exactly.
    pub fn apply(&mut self, ev: &ObsEvent) {
        ev.for_each_stat(|stat, n| *self.slot(stat) += n);
    }
}

/// A consumer of the engine's event stream.
///
/// Implementations must be `Send + Sync`: fleet runs share one sink
/// across every engine instance of a shard, and shards run on scoped
/// threads. The single method replaces the old 11-method observer trait;
/// sinks dispatch on the [`ObsEvent`] variant instead of the engine
/// choosing a method per site.
pub trait ObsSink: Send + Sync + std::fmt::Debug {
    /// Consume one event. Called synchronously on the engine's hot path —
    /// keep it allocation-free.
    fn on_event(&self, ev: &ObsEvent);
}

/// The unbounded sink: keeps every event, for runs short enough to afford
/// it but too long for a [`FlightRecorder`] ring.
impl ObsSink for Mutex<Vec<ObsEvent>> {
    fn on_event(&self, ev: &ObsEvent) {
        self.lock().expect("event log lock").push(*ev);
    }
}

#[derive(Debug, Default)]
struct FlightInner {
    ring: VecDeque<ObsEvent>,
    seen: u64,
    dropped: u64,
}

/// A bounded, optionally sampled ring buffer of raw [`ObsEvent`]s — the
/// trace you can afford to leave on at fleet scale.
///
/// Unlike the string-building `TraceLog`, recording an event is a counter
/// bump and (for kept events) a 64-byte copy into a preallocated ring;
/// the oldest events fall off the back once `capacity` is reached.
/// Sampling is deterministic (every `sample_every`-th event, counting
/// from the first), so two identical runs record identical rings.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<FlightInner>,
    capacity: usize,
    sample_every: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (unsampled).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder::sampled(capacity, 1)
    }

    /// A recorder keeping every `sample_every`-th event, up to `capacity`
    /// retained. `sample_every` is clamped to at least 1.
    pub fn sampled(capacity: usize, sample_every: u64) -> Self {
        FlightRecorder {
            inner: Mutex::new(FlightInner {
                ring: VecDeque::with_capacity(capacity),
                seen: 0,
                dropped: 0,
            }),
            capacity,
            sample_every: sample_every.max(1),
        }
    }

    /// Total events offered to the recorder (kept or not).
    pub fn seen(&self) -> u64 {
        self.inner.lock().expect("flight recorder lock").seen
    }

    /// Sampled-in events that later fell off the back of the ring.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("flight recorder lock").dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.inner
            .lock()
            .expect("flight recorder lock")
            .ring
            .iter()
            .copied()
            .collect()
    }

    /// Forget everything recorded so far.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("flight recorder lock");
        inner.ring.clear();
        inner.seen = 0;
        inner.dropped = 0;
    }
}

impl ObsSink for FlightRecorder {
    fn on_event(&self, ev: &ObsEvent) {
        let mut inner = self.inner.lock().expect("flight recorder lock");
        inner.seen += 1;
        if !(inner.seen - 1).is_multiple_of(self.sample_every) {
            return;
        }
        if self.capacity == 0 {
            inner.dropped += 1;
            return;
        }
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn event_mapping_reproduces_the_stats_contract() {
        let mut stats = EngineStats::default();
        let sym = tap_protocol::Interner::new().intern("svc");
        let a = AppletId(7);
        for ev in [
            ObsEvent::PollSent {
                applet: a,
                service: sym,
                at: t(1),
            },
            ObsEvent::BatchPollSent {
                service: sym,
                members: 3,
                at: t(1),
            },
            ObsEvent::PollEmpty { polls: 2, at: t(2) },
            ObsEvent::PollDelivered {
                applet: a,
                received: 5,
                fresh: 2,
                sent_at: t(1),
                at: t(2),
            },
            ObsEvent::PollDelivered {
                applet: a,
                received: 4,
                fresh: 0,
                sent_at: t(1),
                at: t(2),
            },
            ObsEvent::PollDiscarded {
                received: 3,
                at: t(2),
            },
            ObsEvent::PollFailed { polls: 2, at: t(2) },
            ObsEvent::ActionFinished {
                applet: a,
                dispatch: 1,
                ok: true,
                at: t(3),
            },
            ObsEvent::ActionFinished {
                applet: a,
                dispatch: 2,
                ok: false,
                at: t(3),
            },
            ObsEvent::ActionDeadLettered {
                applet: a,
                dispatch: 2,
                at: t(3),
            },
            ObsEvent::DagRunStarted {
                applet: a,
                dispatch: 9,
                at: t(4),
            },
            ObsEvent::DagNodeExecuted {
                applet: a,
                dispatch: 9,
                node: 0,
                kind: StepKind::Filter,
                at: t(4),
            },
            ObsEvent::DagNodeExecuted {
                applet: a,
                dispatch: 9,
                node: 1,
                kind: StepKind::Transform,
                at: t(4),
            },
            ObsEvent::DagNodeExecuted {
                applet: a,
                dispatch: 9,
                node: 2,
                kind: StepKind::Query,
                at: t(4),
            },
            ObsEvent::DagNodeExecuted {
                applet: a,
                dispatch: 9,
                node: 3,
                kind: StepKind::Action,
                at: t(4),
            },
            ObsEvent::DagNodeRetried {
                applet: a,
                dispatch: 9,
                node: 3,
                at: t(4),
            },
        ] {
            stats.apply(&ev);
        }
        assert_eq!(stats.polls_sent, 4, "1 single + 3 batch members");
        assert_eq!(stats.polls_batched, 1);
        assert_eq!(stats.polls_coalesced, 2);
        assert_eq!(stats.polls_empty, 3, "2 canonical-empty + 1 all-duplicate");
        assert_eq!(stats.events_received, 12, "5 + 4 + 3 discarded");
        assert_eq!(stats.events_new, 2);
        assert_eq!(stats.polls_failed, 2);
        assert_eq!(stats.actions_ok, 1);
        assert_eq!(stats.actions_failed, 1);
        assert_eq!(stats.dead_letters, 1);
        assert_eq!(stats.dag_runs, 1);
        assert_eq!(stats.dag_nodes_filter, 1);
        assert_eq!(stats.dag_nodes_transform, 1);
        assert_eq!(stats.dag_nodes_query, 1);
        assert_eq!(stats.dag_nodes_action, 1);
        assert_eq!(stats.dag_node_retries, 1);
    }

    #[test]
    fn every_stat_slot_is_reachable() {
        // Two Stats sharing a field would leave it at 2 and read it twice.
        let mut stats = EngineStats::default();
        for &stat in Stat::ALL {
            *stats.slot(stat) += 1;
        }
        let sum: u64 = Stat::ALL.iter().map(|&stat| *stats.slot(stat)).sum();
        assert_eq!(sum, Stat::ALL.len() as u64, "every field hit exactly once");
    }

    #[test]
    fn flight_recorder_is_a_bounded_ring() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.on_event(&ObsEvent::HintReceived { at: t(i) });
        }
        assert_eq!(rec.seen(), 5);
        assert_eq!(rec.dropped(), 2);
        let kept: Vec<SimTime> = rec.events().iter().map(|e| e.at()).collect();
        assert_eq!(kept, vec![t(2), t(3), t(4)], "oldest fall off the back");
        rec.clear();
        assert_eq!(rec.seen(), 0);
        assert!(rec.events().is_empty());
    }

    #[test]
    fn sampling_is_deterministic_from_the_first_event() {
        let rec = FlightRecorder::sampled(100, 3);
        for i in 0..10u64 {
            rec.on_event(&ObsEvent::HintReceived { at: t(i) });
        }
        let kept: Vec<SimTime> = rec.events().iter().map(|e| e.at()).collect();
        assert_eq!(kept, vec![t(0), t(3), t(6), t(9)]);
        assert_eq!(rec.seen(), 10);
    }

    #[test]
    fn sink_is_object_safe() {
        let rec = std::sync::Arc::new(FlightRecorder::new(4));
        let sink: std::sync::Arc<dyn ObsSink> = rec.clone();
        sink.on_event(&ObsEvent::HintReceived { at: t(0) });
        assert_eq!(rec.events().len(), 1);
    }
}
