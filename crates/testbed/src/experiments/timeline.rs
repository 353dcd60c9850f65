//! The Table 5 execution timeline: one run of A2 under E2, decomposed into
//! the events at each vantage point (test controller ❾, proxy ❸, service
//! ❺, engine ❼).

use crate::applets::{paper_applet, PaperApplet, ServiceVariant};
use crate::controller::TestController;
use crate::report::TimelineReport;
use crate::topology::{Testbed, TestbedConfig};
use engine::{EngineConfig, ObsEvent};
use simnet::prelude::*;

/// Run A2 under E2 once and reconstruct the Table 5 timeline.
pub fn timeline_experiment(seed: u64) -> TimelineReport {
    let mut tb = Testbed::build(TestbedConfig {
        seed,
        engine: EngineConfig::ifttt_like(),
    });
    let applet = paper_applet(PaperApplet::A2, ServiceVariant::OursBoth);
    tb.install(applet).expect("applet installs");
    tb.sim.run_for(SimDuration::from_secs(10));

    let t0 = tb.sim.now();
    tb.controller(|c, ctx| c.press_switch(ctx));
    // Run until the lamp turns on (or a generous deadline passes).
    let deadline = t0 + SimDuration::from_mins(20);
    let lamp_on = |tb: &Testbed| {
        let controller = tb.sim.node_ref::<TestController>(tb.nodes.controller);
        controller.observed_after("light_on", t0).map(|obs| obs.at)
    };
    while lamp_on(&tb).is_none() && tb.sim.now() < deadline {
        tb.sim.run_for(SimDuration::from_secs(1));
    }

    // Pull the vantage-point events out of the trace, the engine's two
    // out of its typed event stream, and the last from the controller's
    // own log (its trace line fires for the switch press too).
    let trace = tb.sim.trace();
    let entry = |at: SimTime, desc: &str| (TimelineReport::rel(t0, at), desc.to_string());
    let traced = |kind: &str, desc: &str| {
        let mut after = trace.events().iter().filter(|e| e.at >= t0);
        after.find(|e| e.kind == kind).map(|e| entry(e.at, desc))
    };
    let flight = tb.flight.events();
    let typed = |pick: fn(&ObsEvent) -> Option<SimTime>, desc: &str| {
        let mut after = flight.iter().filter_map(pick).filter(|at| *at >= t0);
        after.next().map(|at| entry(at, desc))
    };
    let mut entries: Vec<(f64, String)> = [
        traced(
            "controller.trigger",
            "Test controller (9) sets the trigger event",
        ),
        traced(
            "proxy.event",
            "Local proxy (3) observes the trigger event and notifies Our Server (5)",
        ),
        traced(
            "proxy.event_confirmed",
            "(3) receives the confirmation from trigger service (5)",
        ),
        typed(
            |ev| match ev {
                ObsEvent::PollDelivered { fresh, at, .. } if *fresh > 0 => Some(*at),
                _ => None,
            },
            "IFTTT engine (7) polls trigger service (5) and receives the trigger",
        ),
        typed(
            |ev| match ev {
                ObsEvent::ActionSent { at, .. } => Some(*at),
                _ => None,
            },
            "IFTTT engine (7) sends action request to action service (5)",
        ),
        traced(
            "proxy.command",
            "After querying (5), (3) sends the action to the IoT device",
        ),
        lamp_on(&tb).map(|at| {
            let desc = "Test controller (9) confirms that the action has been executed";
            entry(at, desc)
        }),
    ]
    .into_iter()
    .flatten()
    .collect();
    entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    TimelineReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_has_the_table5_shape() {
        let t = timeline_experiment(701);
        assert_eq!(t.entries.len(), 7, "all vantage points observed: {t:?}");
        // Monotone times starting at ~0.
        assert!(t.entries.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(t.entries[0].0 < 0.01);
        // The proxy sees the event and gets service confirmation within a
        // second (paper: 0.04 s and 0.16 s).
        assert!(
            t.entries[1].0 < 1.0,
            "proxy observes late: {}",
            t.entries[1].0
        );
        assert!(
            t.entries[2].0 < 2.0,
            "confirmation late: {}",
            t.entries[2].0
        );
        // The poll dominates: it arrives tens of seconds later (81.1 s in
        // the paper's example).
        let poll = t
            .entries
            .iter()
            .find(|(_, d)| d.contains("polls"))
            .expect("poll entry");
        assert!(poll.0 > 10.0, "poll too early: {}", poll.0);
        // Dispatch after the poll is quick (~1 s in Table 5).
        let action = t
            .entries
            .iter()
            .find(|(_, d)| d.contains("action request"))
            .expect("action entry");
        assert!(
            action.0 - poll.0 < 10.0,
            "dispatch overhead {}",
            action.0 - poll.0
        );
        // And the device executes shortly after.
        let confirmed = t.entries.last().expect("nonempty");
        assert!(confirmed.0 - action.0 < 5.0);
        let text = t.render();
        assert!(text.contains("polls trigger service"));
    }
}
