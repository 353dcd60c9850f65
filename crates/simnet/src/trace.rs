//! Structured event tracing.
//!
//! Nodes and the kernel record [`TraceEvent`]s into a shared [`TraceLog`].
//! The testbed reconstructs applet-execution timelines (Table 5 of the
//! paper) from this log; tests use it to assert on protocol behaviour
//! without reaching into node internals.
//!
//! Recording is one lazy call: [`TraceLog::record`] takes the kind as a
//! `&'static str` (every recorded kind is a program literal) and the detail
//! as [`fmt::Arguments`], and renders the detail only when the log is
//! enabled. Call sites write `format_args!(..)` unconditionally; a disabled
//! log never runs a formatter.

use crate::node::NodeId;
use crate::time::SimTime;
use std::fmt;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time at which the event was recorded.
    pub at: SimTime,
    /// The node the event belongs to.
    pub node: NodeId,
    /// Machine-readable event kind, e.g. `"poll.sent"` or
    /// `"action.executed"`. Always a program literal.
    pub kind: &'static str,
    /// The rendered event payload.
    pub detail: String,
}

/// An append-only, bounded trace log.
#[derive(Debug)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    enabled: bool,
    cap: usize,
    dropped: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog {
            events: Vec::new(),
            enabled: true,
            cap: 1_000_000,
            dropped: 0,
        }
    }
}

impl TraceLog {
    /// Enable or disable recording (disabled logs drop silently).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record one event, rendering `detail` only if the log is enabled.
    /// Events past the capacity are counted, not stored.
    pub fn record(
        &mut self,
        at: SimTime,
        node: NodeId,
        kind: &'static str,
        detail: fmt::Arguments<'_>,
    ) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent {
            at,
            node,
            kind,
            detail: detail.to_string(),
        });
    }

    /// All recorded events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The first event with exactly this kind, if any.
    pub fn first(&self, kind: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.kind == kind)
    }

    /// Number of events silently dropped after hitting capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn records_and_filters() {
        let mut log = TraceLog::default();
        log.record(t(1), NodeId(0), "poll.sent", format_args!("a"));
        log.record(t(2), NodeId(1), "poll.recv", format_args!("b"));
        log.record(t(3), NodeId(0), "action.executed", format_args!("c"));
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.events()[2].node, NodeId(0));
        assert_eq!(log.first("poll.recv").unwrap().detail, "b");
        assert!(log.first("poll").is_none());
    }

    #[test]
    fn capacity_counts_drops() {
        let mut log = TraceLog {
            cap: 2,
            ..TraceLog::default()
        };
        for i in 0..5 {
            log.record(t(i), NodeId(0), "k", format_args!(""));
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    /// A `Display` that must never run.
    struct Bomb;
    impl fmt::Display for Bomb {
        fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
            panic!("a disabled log ran a formatter")
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::default();
        log.set_enabled(false);
        log.record(t(0), NodeId(0), "k", format_args!("{}", Bomb));
        assert!(log.events().is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn details_render_like_the_old_strings() {
        #[derive(Debug)]
        #[allow(dead_code)] // read by the derived `Debug` only
        struct AppletId(u32);
        let mut log = TraceLog::default();
        log.record(t(0), NodeId(0), "k", format_args!("{:?}", AppletId(7)));
        log.record(t(0), NodeId(0), "k", format_args!("{}", 42_u64));
        log.record(t(0), NodeId(0), "k", format_args!(""));
        let details: Vec<&str> = log.events().iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, ["AppletId(7)", "42", ""]);
    }
}
