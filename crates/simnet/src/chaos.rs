//! Deterministic fault injection: declarative chaos plans executed by the
//! sim kernel.
//!
//! The paper's testbed explicitly "ensured network health" to keep faults
//! out of its measurements; this module models the faults instead. Two
//! complementary plan types cover the two places failures originate:
//!
//! * [`FaultPlan`] — *network* faults. A list of [`FaultWindow`]s, each
//!   putting a link (or every link touching a node) into a degraded state
//!   for a closed virtual-time interval: full outage or elevated loss.
//!   [`crate::Sim::apply_fault_plan`] resolves targets to concrete links
//!   and schedules begin/end events on the kernel's queue, so faults
//!   interleave with traffic in deterministic `(time, seq)` order. The
//!   pre-fault link state is captured when a window opens and restored
//!   when it closes.
//! * [`ServerFaultPlan`] — *server-side* faults. A schedule a service node
//!   (e.g. `devices::ServiceCore`) consults at request-processing time to
//!   inject HTTP 500s, 503+`Retry-After`, request timeouts (never reply),
//!   or malformed/empty poll bodies. Purely virtual-time driven: no RNG is
//!   consumed, so a plan that never activates leaves behaviour bit-identical.
//!
//! Windows on the same link/plan should not overlap: restore-on-close
//! re-applies the state captured at open, so overlapping windows would
//! restore a mid-fault snapshot.

use crate::net::LinkId;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// What a [`FaultWindow`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// One specific link.
    Link(LinkId),
    /// Every link with this node as an endpoint (resolved when the plan is
    /// applied; links added afterwards are unaffected).
    Node(NodeId),
}

/// The degraded state a link is put into for the duration of a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFault {
    /// Take the link down entirely (routing excludes it).
    Outage,
    /// Replace the loss probability.
    Loss(f64),
}

/// One scheduled fault: `target` is degraded by `fault` during
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    pub target: FaultTarget,
    pub fault: LinkFault,
    pub start: SimTime,
    pub end: SimTime,
}

/// A declarative schedule of network faults.
///
/// Built with the fluent helpers below, then handed to
/// [`crate::Sim::apply_fault_plan`]. The plan itself is inert data; nothing
/// happens until it is applied to a simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Add an arbitrary window.
    pub fn window(
        mut self,
        target: FaultTarget,
        fault: LinkFault,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        assert!(end > start, "fault window must have positive duration");
        self.windows.push(FaultWindow {
            target,
            fault,
            start,
            end,
        });
        self
    }

    /// Take one link down during `[start, end)`.
    pub fn link_outage(self, link: LinkId, start: SimTime, end: SimTime) -> Self {
        self.window(FaultTarget::Link(link), LinkFault::Outage, start, end)
    }

    /// Take every link touching `node` down during `[start, end)`.
    pub fn node_outage(self, node: NodeId, start: SimTime, end: SimTime) -> Self {
        self.window(FaultTarget::Node(node), LinkFault::Outage, start, end)
    }

    /// Elevate a link's loss probability during `[start, end)`.
    pub fn link_loss(self, link: LinkId, loss: f64, start: SimTime, end: SimTime) -> Self {
        self.window(FaultTarget::Link(link), LinkFault::Loss(loss), start, end)
    }

    /// Elevate loss on every link touching `node` during `[start, end)`.
    pub fn node_loss(self, node: NodeId, loss: f64, start: SimTime, end: SimTime) -> Self {
        self.window(FaultTarget::Node(node), LinkFault::Loss(loss), start, end)
    }

    /// Repeat `fault` on `target`: windows of `duration` starting at
    /// `first` and every `period` after, while the window still starts
    /// before `horizon`.
    pub fn periodic(
        mut self,
        target: FaultTarget,
        fault: LinkFault,
        first: SimTime,
        period: SimDuration,
        duration: SimDuration,
        horizon: SimTime,
    ) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        let mut start = first;
        while start < horizon {
            self = self.window(target, fault, start, start + duration);
            start += period;
        }
        self
    }
}

/// One kind of server-side misbehaviour a service injects while a
/// [`ServerFaultPlan`] window is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerFault {
    /// Reply 500 Internal Server Error to every request.
    Http500,
    /// Reply 503 Service Unavailable with a `Retry-After` header.
    Http503 { retry_after_secs: u32 },
    /// Never reply: the client only learns via its request timeout.
    Timeout,
    /// Reply 200 with a body that fails to parse (polls only; other
    /// requests are handled normally).
    MalformedBody,
    /// Reply 200 with an empty body (polls only; other requests are
    /// handled normally).
    EmptyBody,
}

/// One scheduled server fault window: `fault` is injected during
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerFaultWindow {
    pub fault: ServerFault,
    pub start: SimTime,
    pub end: SimTime,
}

/// A virtual-time schedule of server-side faults.
///
/// Consulted by the service on every request via [`ServerFaultPlan::active`];
/// costs one binary search per call and no RNG draws, so an empty or
/// never-active plan cannot perturb a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerFaultPlan {
    /// Windows sorted by start time; kept non-overlapping by construction
    /// order (later-added windows may overlap earlier ones, in which case
    /// the earliest-starting active window wins).
    windows: Vec<ServerFaultWindow>,
}

impl ServerFaultPlan {
    /// An empty plan (never active).
    pub fn new() -> Self {
        ServerFaultPlan::default()
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The scheduled windows, sorted by start time.
    pub fn windows(&self) -> &[ServerFaultWindow] {
        &self.windows
    }

    /// Add one window.
    pub fn window(mut self, fault: ServerFault, start: SimTime, end: SimTime) -> Self {
        assert!(
            end > start,
            "server fault window must have positive duration"
        );
        self.windows.push(ServerFaultWindow { fault, start, end });
        self.windows.sort_by_key(|w| w.start);
        self
    }

    /// Repeat `fault`: windows of `duration` starting at `first` and every
    /// `period` after, while the window still starts before `horizon`.
    pub fn periodic(
        mut self,
        fault: ServerFault,
        first: SimTime,
        period: SimDuration,
        duration: SimDuration,
        horizon: SimTime,
    ) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        let mut start = first;
        while start < horizon {
            self = self.window(fault, start, start + duration);
            start += period;
        }
        self
    }

    /// The fault active at `now`, if any.
    pub fn active(&self, now: SimTime) -> Option<ServerFault> {
        // Binary search for the last window starting at or before `now`.
        let idx = self.windows.partition_point(|w| w.start <= now);
        if idx == 0 {
            return None;
        }
        let w = &self.windows[idx - 1];
        (now < w.end).then_some(w.fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn d(x: u64) -> SimDuration {
        SimDuration::from_secs(x)
    }

    #[test]
    fn periodic_fault_plan_generates_windows_up_to_horizon() {
        let plan = FaultPlan::new().periodic(
            FaultTarget::Link(LinkId(0)),
            LinkFault::Outage,
            s(60),
            d(120),
            d(10),
            s(300),
        );
        let starts: Vec<_> = plan.windows.iter().map(|w| w.start).collect();
        assert_eq!(starts, vec![s(60), s(180)]);
        assert!(plan.windows.iter().all(|w| w.end == w.start + d(10)));
    }

    #[test]
    fn server_plan_activation_respects_half_open_windows() {
        let plan = ServerFaultPlan::new()
            .window(ServerFault::Http500, s(10), s(20))
            .window(ServerFault::Timeout, s(30), s(40));
        assert_eq!(plan.active(s(9)), None);
        assert_eq!(plan.active(s(10)), Some(ServerFault::Http500));
        assert_eq!(plan.active(s(19)), Some(ServerFault::Http500));
        assert_eq!(plan.active(s(20)), None);
        assert_eq!(plan.active(s(35)), Some(ServerFault::Timeout));
        assert_eq!(plan.active(s(40)), None);
    }

    #[test]
    fn server_plan_windows_sort_regardless_of_insertion_order() {
        let plan = ServerFaultPlan::new()
            .window(ServerFault::Timeout, s(50), s(60))
            .window(ServerFault::Http500, s(5), s(6));
        assert_eq!(plan.active(s(5)), Some(ServerFault::Http500));
        assert_eq!(plan.active(s(55)), Some(ServerFault::Timeout));
        assert_eq!(plan.windows()[0].start, s(5));
    }

    #[test]
    fn empty_plans_are_inert() {
        assert!(FaultPlan::new().is_empty());
        assert!(ServerFaultPlan::new().is_empty());
        assert_eq!(ServerFaultPlan::new().active(s(0)), None);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_length_windows_panic() {
        let _ = FaultPlan::new().link_outage(LinkId(0), s(5), s(5));
    }
}
