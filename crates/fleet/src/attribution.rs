//! Span-based trigger-to-action latency attribution.
//!
//! The paper reports *end-to-end* T2A quartiles (58/84/122 s, Fig. 4) but
//! can only speculate about where the time goes. With the engine's typed
//! event stream ([`engine::ObsEvent`]) the simulation can answer exactly:
//! every delivered activation decomposes into
//!
//! ```text
//! trigger fire ──cadence wait──▶ poll out ──poll rtt──▶ ingested
//!   ──dispatch lag──▶ first action out ──retry penalty──▶ last action out
//!   ──action rtt──▶ arrival at the service
//! ```
//!
//! The [`AttributionRecorder`] stitches the span from two sides. The
//! engine side follows dispatch ids through the event stream:
//! [`engine::ObsEvent::DispatchEnqueued`] opens a chain (carrying the poll
//! send time the engine stamped on the subscription),
//! [`engine::ObsEvent::ActionSent`] marks the first/last attempt, and a
//! dead-letter or condition-filter closes the chain unresolved. The
//! service side calls [`AttributionRecorder::on_arrival`] when an action
//! request arrives — the same instant `t2a_micros` samples — matching the
//! applet's oldest sent-but-unarrived chain (FIFO, exactly how the T2A
//! queue itself pairs emits with arrivals).
//!
//! Timestamps are folded through a clamped telescoping chain
//! `t0 ≤ t1 ≤ … ≤ t5`, so the five stage durations are non-negative and
//! **sum exactly** to the recorded total, and the total is
//! sample-for-sample identical to `t2a_micros` — the conservation
//! invariants `fleet/tests/attribution.rs` pins. Stage histograms live in
//! [`FleetMetrics::attribution`](crate::metrics::AttributionStages) and
//! merge shard-invariantly like every other fleet instrument.

use crate::metrics::FleetMetrics;
use engine::{ObsEvent, ObsSink};
use mem::FxHashMap;
use simnet::time::SimTime;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Engine-side timestamps of one dispatch, gathered from the event stream.
#[derive(Debug, Clone, Copy)]
struct Chain {
    /// When the poll that surfaced the trigger event left the engine.
    poll_sent: SimTime,
    /// When the poll response was ingested (dispatch enqueued).
    ingest: SimTime,
    /// When the first action attempt left the engine.
    first_send: SimTime,
    /// When the most recent action attempt left the engine.
    last_send: SimTime,
    /// Whether any attempt has left yet (gates the ready queue).
    sent: bool,
}

#[derive(Debug, Default)]
struct Inner {
    /// Open spans by dispatch id.
    chains: FxHashMap<u64, Chain>,
    /// Per-applet FIFO of dispatches whose action is in flight, in
    /// first-attempt order — the order arrivals consume them.
    ready: FxHashMap<u32, VecDeque<u64>>,
}

/// Decomposes each delivered activation into latency stages (one recorder
/// per cell; records into the shared [`FleetMetrics::attribution`]).
#[derive(Debug)]
pub struct AttributionRecorder {
    metrics: Arc<FleetMetrics>,
    inner: Mutex<Inner>,
}

impl AttributionRecorder {
    /// A recorder feeding `metrics.attribution`.
    pub fn new(metrics: Arc<FleetMetrics>) -> Self {
        AttributionRecorder {
            metrics,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Engine-side feed: follow dispatch lifecycles through the stream.
    pub fn on_engine_event(&self, ev: &ObsEvent) {
        match *ev {
            ObsEvent::DispatchEnqueued {
                dispatch,
                poll_sent_at,
                at,
                ..
            } => {
                let mut guard = self.inner.lock().expect("attribution lock");
                guard.chains.insert(
                    dispatch,
                    Chain {
                        poll_sent: poll_sent_at,
                        ingest: at,
                        first_send: at,
                        last_send: at,
                        sent: false,
                    },
                );
            }
            ObsEvent::ActionSent {
                applet,
                dispatch,
                at,
                ..
            } => {
                let mut guard = self.inner.lock().expect("attribution lock");
                let inner = &mut *guard;
                if let Some(chain) = inner.chains.get_mut(&dispatch) {
                    if !chain.sent {
                        chain.sent = true;
                        chain.first_send = at;
                        inner.ready.entry(applet.0).or_default().push_back(dispatch);
                    }
                    chain.last_send = at;
                }
            }
            // A dead-lettered dispatch never completes an arrival (its
            // attempts were all answered with faults or lost), and a
            // filtered dispatch never sends — drop the span either way.
            ObsEvent::ActionDeadLettered {
                applet, dispatch, ..
            }
            | ObsEvent::ActionFiltered {
                applet, dispatch, ..
            } => {
                let mut guard = self.inner.lock().expect("attribution lock");
                let inner = &mut *guard;
                inner.chains.remove(&dispatch);
                if let Some(q) = inner.ready.get_mut(&applet.0) {
                    q.retain(|d| *d != dispatch);
                }
            }
            _ => {}
        }
    }

    /// Service-side feed: an action request for `applet` arrived `now`,
    /// delivering the activation emitted at `t_emit` (the pair the T2A
    /// queue just matched). Consumes the applet's oldest in-flight span
    /// and records all six histograms from one clamped timestamp chain.
    pub fn on_arrival(&self, applet: u32, t_emit: SimTime, now: SimTime) {
        let chain = {
            let mut guard = self.inner.lock().expect("attribution lock");
            let inner = &mut *guard;
            inner
                .ready
                .get_mut(&applet)
                .and_then(|q| q.pop_front())
                .and_then(|d| inner.chains.remove(&d))
        };
        let stages = &self.metrics.attribution;
        let chain = match chain {
            Some(c) => c,
            None => {
                // No span to pair with (e.g. a duplicate delivery after a
                // lost response made the engine re-send): account the
                // whole latency as one unattributed action leg so the
                // conservation identity still holds.
                stages.unmatched.incr();
                Chain {
                    poll_sent: t_emit,
                    ingest: t_emit,
                    first_send: t_emit,
                    last_send: t_emit,
                    sent: true,
                }
            }
        };
        // Clamped telescoping chain: monotone by construction, so stage
        // durations are non-negative, sum exactly to `total`, and `total`
        // equals the `t2a_micros` sample recorded for this same arrival.
        let t0 = t_emit;
        let t5 = now.max(t0);
        let t1 = chain.poll_sent.max(t0).min(t5);
        let t2 = chain.ingest.max(t1).min(t5);
        let t3 = chain.first_send.max(t2).min(t5);
        let t4 = chain.last_send.max(t3).min(t5);
        stages.cadence_wait.record(t1.since(t0).as_micros());
        stages.poll_rtt.record(t2.since(t1).as_micros());
        stages.dispatch_lag.record(t3.since(t2).as_micros());
        stages.retry_penalty.record(t4.since(t3).as_micros());
        stages.action_rtt.record(t5.since(t4).as_micros());
        stages.total.record(t5.since(t0).as_micros());
    }

    /// Open spans not yet consumed by an arrival (in-flight work).
    pub fn open_spans(&self) -> usize {
        self.inner.lock().expect("attribution lock").chains.len()
    }
}

/// The sink a cell attaches when attribution is on: counts into
/// [`FleetMetrics`] exactly like the default sink, and additionally feeds
/// the [`AttributionRecorder`].
#[derive(Debug)]
pub struct CellSink {
    metrics: Arc<FleetMetrics>,
    recorder: Arc<AttributionRecorder>,
}

impl CellSink {
    /// Combine the counting sink with an attribution recorder.
    pub fn new(metrics: Arc<FleetMetrics>, recorder: Arc<AttributionRecorder>) -> Self {
        CellSink { metrics, recorder }
    }
}

impl ObsSink for CellSink {
    fn on_event(&self, ev: &ObsEvent) {
        self.metrics.on_event(ev);
        self.recorder.on_engine_event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::AppletId;

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    fn recorder() -> (Arc<FleetMetrics>, AttributionRecorder) {
        let metrics = Arc::new(FleetMetrics::default());
        let rec = AttributionRecorder::new(metrics.clone());
        (metrics, rec)
    }

    #[test]
    fn one_clean_span_splits_into_the_right_stages() {
        let (metrics, rec) = recorder();
        rec.on_engine_event(&ObsEvent::DispatchEnqueued {
            applet: AppletId(1),
            dispatch: 9,
            depth: 1,
            poll_sent_at: t(100),
            at: t(130),
        });
        rec.on_engine_event(&ObsEvent::ActionSent {
            applet: AppletId(1),
            dispatch: 9,
            attempt: 1,
            at: t(150),
        });
        // Emitted at t=40, arrived at t=180: 60 cadence, 30 rtt,
        // 20 dispatch, 0 retry, 30 action.
        rec.on_arrival(1, t(40), t(180));
        let s = &metrics.attribution;
        assert_eq!(s.cadence_wait.sum(), 60);
        assert_eq!(s.poll_rtt.sum(), 30);
        assert_eq!(s.dispatch_lag.sum(), 20);
        assert_eq!(s.retry_penalty.sum(), 0);
        assert_eq!(s.action_rtt.sum(), 30);
        assert_eq!(s.total.sum(), 140);
        assert_eq!(s.unmatched.get(), 0);
        assert_eq!(rec.open_spans(), 0);
    }

    #[test]
    fn retries_land_in_the_retry_penalty_stage() {
        let (metrics, rec) = recorder();
        rec.on_engine_event(&ObsEvent::DispatchEnqueued {
            applet: AppletId(2),
            dispatch: 1,
            depth: 1,
            poll_sent_at: t(0),
            at: t(10),
        });
        for (attempt, at) in [(1, 20), (2, 70), (3, 170)] {
            rec.on_engine_event(&ObsEvent::ActionSent {
                applet: AppletId(2),
                dispatch: 1,
                attempt,
                at: t(at),
            });
        }
        rec.on_arrival(2, t(0), t(200));
        let s = &metrics.attribution;
        assert_eq!(s.retry_penalty.sum(), 150, "first attempt -> last attempt");
        assert_eq!(s.action_rtt.sum(), 30, "last attempt -> arrival");
        assert_eq!(s.total.sum(), 200);
    }

    #[test]
    fn stage_sums_always_telescope_to_the_total() {
        let (metrics, rec) = recorder();
        // Out-of-order timestamps (emit after the poll went out — a
        // straggler matched against a later emission) still conserve.
        rec.on_engine_event(&ObsEvent::DispatchEnqueued {
            applet: AppletId(3),
            dispatch: 5,
            depth: 1,
            poll_sent_at: t(500),
            at: t(510),
        });
        rec.on_engine_event(&ObsEvent::ActionSent {
            applet: AppletId(3),
            dispatch: 5,
            attempt: 1,
            at: t(520),
        });
        rec.on_arrival(3, t(505), t(515));
        let s = &metrics.attribution;
        let stage_sum: u64 = s.stages().iter().map(|(_, h)| h.sum()).sum();
        assert_eq!(stage_sum, s.total.sum());
        assert_eq!(s.total.sum(), 10, "clamped to the measured window");
    }

    #[test]
    fn unmatched_arrivals_fall_back_to_a_pure_action_leg() {
        let (metrics, rec) = recorder();
        rec.on_arrival(7, t(100), t(350));
        let s = &metrics.attribution;
        assert_eq!(s.unmatched.get(), 1);
        assert_eq!(s.total.sum(), 250);
        assert_eq!(s.action_rtt.sum(), 250);
        assert_eq!(s.cadence_wait.sum(), 0);
    }

    #[test]
    fn dead_letters_and_filters_close_their_spans() {
        let (_metrics, rec) = recorder();
        for dispatch in [1u64, 2] {
            rec.on_engine_event(&ObsEvent::DispatchEnqueued {
                applet: AppletId(4),
                dispatch,
                depth: 1,
                poll_sent_at: t(0),
                at: t(1),
            });
        }
        rec.on_engine_event(&ObsEvent::ActionSent {
            applet: AppletId(4),
            dispatch: 1,
            attempt: 1,
            at: t(2),
        });
        rec.on_engine_event(&ObsEvent::ActionDeadLettered {
            applet: AppletId(4),
            dispatch: 1,
            at: t(9),
        });
        rec.on_engine_event(&ObsEvent::ActionFiltered {
            applet: AppletId(4),
            dispatch: 2,
            at: t(3),
        });
        assert_eq!(rec.open_spans(), 0);
    }
}
