//! Infinite-loop detection for chained applets.
//!
//! §4: "users may misconfigure chained applets to form an 'infinite loop'
//! … we confirm that despite a simple task, no 'syntax check' is performed
//! by IFTTT to detect a potential infinite loop. Furthermore … an infinite
//! loop may be jointly triggered by IFTTT and 3rd-party automation services
//! … Since IFTTT is not aware of the latter, it cannot detect the loop by
//! analyzing the applets offline. Instead, some runtime detection
//! techniques are needed."
//!
//! This module provides both halves:
//!
//! * [`StaticLoopDetector`] — the offline "syntax check" IFTTT lacks: a
//!   cycle search over the applet graph, where applet A feeds applet B if
//!   A's action can produce B's trigger. Couplings *inside* services are
//!   declared via [`StaticLoopDetector::declare_feed`]; couplings through
//!   external automations (the spreadsheet notification feature) can only
//!   be found if someone tells the detector about them — exactly the
//!   paper's point.
//! * [`RuntimeLoopDetector`] — a sliding-window execution-rate monitor that
//!   flags applets executing implausibly often, catching implicit loops
//!   that static analysis cannot see.

use crate::applet::{Applet, AppletId};
use simnet::time::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet, VecDeque};
use tap_protocol::{ActionSlug, ServiceSlug, TriggerSlug};

/// A directed "can produce" edge: executing `action` on `action_service`
/// can make `trigger` on `trigger_service` fire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FeedRule {
    pub action_service: ServiceSlug,
    pub action: ActionSlug,
    pub trigger_service: ServiceSlug,
    pub trigger: TriggerSlug,
}

/// Offline cycle detection over installed applets.
#[derive(Debug, Default)]
pub struct StaticLoopDetector {
    rules: HashSet<FeedRule>,
}

impl StaticLoopDetector {
    /// An empty detector (knows no couplings — like production IFTTT).
    pub fn new() -> Self {
        StaticLoopDetector::default()
    }

    /// Declare that an action can produce a trigger.
    pub fn declare_feed(&mut self, rule: FeedRule) {
        self.rules.insert(rule);
    }

    /// Does `a`'s action feed `b`'s trigger (per declared rules)?
    fn feeds(&self, a: &Applet, b: &Applet) -> bool {
        if a.owner != b.owner {
            return false; // applets run under separate accounts
        }
        self.rules.contains(&FeedRule {
            action_service: a.action.service.clone(),
            action: a.action.action.clone(),
            trigger_service: b.trigger.service.clone(),
            trigger: b.trigger.trigger.clone(),
        })
    }

    /// Find every applet that participates in a cycle. Returns cycles as
    /// lists of applet ids (each list is one strongly connected component
    /// with ≥1 internal edge, i.e. a real loop — including self-loops).
    pub fn find_cycles(&self, applets: &[&Applet]) -> Vec<Vec<AppletId>> {
        let n = applets.len();
        // Adjacency by index.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, a) in applets.iter().enumerate() {
            for (j, b) in applets.iter().enumerate() {
                if self.feeds(a, b) {
                    adj[i].push(j);
                }
            }
        }
        // Tarjan SCC, iterative.
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<usize>> = Vec::new();

        #[derive(Clone)]
        struct Frame {
            v: usize,
            child: usize,
        }
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut call: Vec<Frame> = vec![Frame { v: start, child: 0 }];
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(frame) = call.last_mut() {
                let v = frame.v;
                if frame.child < adj[v].len() {
                    let w = adj[v][frame.child];
                    frame.child += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push(Frame { v: w, child: 0 });
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("scc stack");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(comp);
                    }
                    let lv = low[v];
                    call.pop();
                    if let Some(parent) = call.last() {
                        low[parent.v] = low[parent.v].min(lv);
                    }
                }
            }
        }
        // Keep only SCCs that contain a real loop.
        sccs.into_iter()
            .filter(|comp| {
                comp.len() > 1 || adj[comp[0]].contains(&comp[0]) // self-loop
            })
            .map(|comp| {
                let mut ids: Vec<AppletId> = comp.into_iter().map(|i| applets[i].id).collect();
                ids.sort();
                ids
            })
            .collect()
    }
}

/// Verdict of the runtime monitor for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeVerdict {
    /// Execution rate looks normal.
    Ok,
    /// The applet exceeded the rate threshold: likely in a loop.
    LoopSuspected,
}

/// Sliding-window execution-rate monitor.
#[derive(Debug)]
pub struct RuntimeLoopDetector {
    /// Flag when more than this many executions…
    pub max_executions: usize,
    /// …fall within this window.
    pub window: SimDuration,
    history: HashMap<AppletId, VecDeque<SimTime>>,
    flagged: HashSet<AppletId>,
}

impl RuntimeLoopDetector {
    /// A monitor flagging more than `max_executions` within `window`.
    pub fn new(max_executions: usize, window: SimDuration) -> Self {
        RuntimeLoopDetector {
            max_executions,
            window,
            history: HashMap::new(),
            flagged: HashSet::new(),
        }
    }

    /// Record an execution of `applet` at `now` and judge it.
    pub fn record(&mut self, applet: AppletId, now: SimTime) -> RuntimeVerdict {
        let h = self.history.entry(applet).or_default();
        h.push_back(now);
        let cutoff = now - self.window;
        while h.front().is_some_and(|t| *t < cutoff) {
            h.pop_front();
        }
        if h.len() > self.max_executions {
            self.flagged.insert(applet);
            RuntimeVerdict::LoopSuspected
        } else {
            RuntimeVerdict::Ok
        }
    }

    /// Applets flagged so far.
    pub fn flagged(&self) -> impl Iterator<Item = &AppletId> {
        self.flagged.iter()
    }

    /// Has this applet been flagged?
    pub fn is_flagged(&self, applet: AppletId) -> bool {
        self.flagged.contains(&applet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::applet::{ActionRef, TriggerRef};
    use tap_protocol::{FieldMap, UserId};

    fn applet(id: u32, owner: &str, tsvc: &str, trig: &str, asvc: &str, act: &str) -> Applet {
        Applet::new(
            AppletId(id),
            format!("applet{id}"),
            UserId::new(owner),
            TriggerRef {
                service: ServiceSlug::new(tsvc),
                trigger: TriggerSlug::new(trig),
                fields: FieldMap::new(),
            },
            ActionRef {
                service: ServiceSlug::new(asvc),
                action: ActionSlug::new(act),
                fields: FieldMap::new(),
            },
        )
    }

    fn rule(asvc: &str, act: &str, tsvc: &str, trig: &str) -> FeedRule {
        FeedRule {
            action_service: ServiceSlug::new(asvc),
            action: ActionSlug::new(act),
            trigger_service: ServiceSlug::new(tsvc),
            trigger: TriggerSlug::new(trig),
        }
    }

    #[test]
    fn two_applet_explicit_loop_is_found() {
        // A: if email then send email  /  B: if email then send email — a
        // classic self-amplifying pair on one service.
        let mut d = StaticLoopDetector::new();
        d.declare_feed(rule("gmail", "send_an_email", "gmail", "any_new_email"));
        let a = applet(1, "u", "gmail", "any_new_email", "gmail", "send_an_email");
        let cycles = d.find_cycles(&[&a]);
        assert_eq!(cycles, vec![vec![AppletId(1)]]); // self-loop
    }

    #[test]
    fn independent_self_loops_are_reported_separately() {
        // Each applet's action feeds its own trigger: two one-applet loops,
        // not one merged component.
        let mut d = StaticLoopDetector::new();
        d.declare_feed(rule("svc_b", "do_b", "svc_a", "trig_a"));
        d.declare_feed(rule("svc_a", "do_a", "svc_b", "trig_b"));
        let a1 = applet(1, "u", "svc_a", "trig_a", "svc_b", "do_b");
        let a2 = applet(2, "u", "svc_b", "trig_b", "svc_a", "do_a");
        let cycles = d.find_cycles(&[&a1, &a2]);
        assert_eq!(cycles.len(), 2);
        assert!(cycles.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn proper_two_node_cycle() {
        let mut d = StaticLoopDetector::new();
        // a1 action feeds a2's trigger; a2 action feeds a1's trigger.
        d.declare_feed(rule("svc_x", "do_x", "svc_b", "trig_b"));
        d.declare_feed(rule("svc_y", "do_y", "svc_a", "trig_a"));
        let a1 = applet(1, "u", "svc_a", "trig_a", "svc_x", "do_x");
        let a2 = applet(2, "u", "svc_b", "trig_b", "svc_y", "do_y");
        let cycles = d.find_cycles(&[&a1, &a2]);
        assert_eq!(cycles, vec![vec![AppletId(1), AppletId(2)]]);
    }

    #[test]
    fn chain_without_cycle_is_clean() {
        let mut d = StaticLoopDetector::new();
        d.declare_feed(rule("svc_x", "do_x", "svc_b", "trig_b"));
        let a1 = applet(1, "u", "svc_a", "trig_a", "svc_x", "do_x");
        let a2 = applet(2, "u", "svc_b", "trig_b", "svc_z", "do_z");
        assert!(d.find_cycles(&[&a1, &a2]).is_empty());
    }

    #[test]
    fn implicit_coupling_invisible_until_declared() {
        // The paper's implicit loop: applet "email → add row" + the
        // spreadsheet notification feature (row → email). IFTTT cannot see
        // the second edge; declaring it makes the loop visible.
        let a = applet(1, "u", "gmail", "any_new_email", "google_sheets", "add_row");
        let mut d = StaticLoopDetector::new();
        assert!(
            d.find_cycles(&[&a]).is_empty(),
            "invisible without the rule"
        );
        d.declare_feed(rule("google_sheets", "add_row", "gmail", "any_new_email"));
        assert_eq!(d.find_cycles(&[&a]).len(), 1);
    }

    #[test]
    fn different_owners_do_not_chain() {
        let mut d = StaticLoopDetector::new();
        d.declare_feed(rule("gmail", "send_an_email", "gmail", "any_new_email"));
        let a1 = applet(
            1,
            "alice",
            "gmail",
            "any_new_email",
            "gmail",
            "send_an_email",
        );
        let a2 = applet(2, "bob", "gmail", "any_new_email", "gmail", "send_an_email");
        // Each is a self-loop for its own account, but there is no
        // alice→bob edge.
        let cycles = d.find_cycles(&[&a1, &a2]);
        assert_eq!(cycles.len(), 2);
        assert!(cycles.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn runtime_detector_flags_rapid_fire() {
        let mut d = RuntimeLoopDetector::new(5, SimDuration::from_secs(60));
        let id = AppletId(9);
        for i in 0..5 {
            assert_eq!(d.record(id, SimTime::from_secs(i)), RuntimeVerdict::Ok);
        }
        assert_eq!(
            d.record(id, SimTime::from_secs(5)),
            RuntimeVerdict::LoopSuspected
        );
        assert!(d.is_flagged(id));
    }

    #[test]
    fn runtime_detector_window_slides() {
        let mut d = RuntimeLoopDetector::new(2, SimDuration::from_secs(10));
        let id = AppletId(1);
        assert_eq!(d.record(id, SimTime::from_secs(0)), RuntimeVerdict::Ok);
        assert_eq!(d.record(id, SimTime::from_secs(5)), RuntimeVerdict::Ok);
        // Old executions age out: this is only the 2nd in the window.
        assert_eq!(d.record(id, SimTime::from_secs(20)), RuntimeVerdict::Ok);
        assert!(!d.is_flagged(id));
    }

    #[test]
    fn runtime_detector_separates_applets() {
        let mut d = RuntimeLoopDetector::new(1, SimDuration::from_secs(100));
        assert_eq!(
            d.record(AppletId(1), SimTime::from_secs(0)),
            RuntimeVerdict::Ok
        );
        assert_eq!(
            d.record(AppletId(2), SimTime::from_secs(0)),
            RuntimeVerdict::Ok
        );
        assert_eq!(
            d.record(AppletId(1), SimTime::from_secs(1)),
            RuntimeVerdict::LoopSuspected
        );
        assert!(!d.is_flagged(AppletId(2)));
    }
}
