//! Concurrent execution of same-trigger applets (Figure 7).
//!
//! "Users can create two applets with the same trigger … ideally B and C
//! should be executed at the same time." The paper measures the T2A
//! difference between *turn on Hue light when email arrives* and *activate
//! WeMo switch when email arrives* and finds it ranges from −60 to 140 s,
//! because each applet is polled independently.

use crate::applets::{paper_applet, PaperApplet, ServiceVariant};
use crate::controller::TestController;
use crate::report::ConcurrentReport;
use crate::topology::{Testbed, TestbedConfig, AUTHOR};
use devices::hue::HueLamp;
use devices::wemo::WemoSwitch;
use engine::{ActionRef, Applet, AppletId, EngineConfig, TriggerRef};
use rand::Rng;
use simnet::prelude::*;
use tap_protocol::{ActionSlug, FieldMap, ServiceSlug, TriggerSlug, UserId};

/// The second applet: "activate WeMo switch when email arrives".
fn email_to_wemo() -> Applet {
    Applet::new(
        AppletId(8),
        "Activate WeMo switch when email arrives",
        UserId::new(AUTHOR),
        TriggerRef {
            service: ServiceSlug::new("gmail"),
            trigger: TriggerSlug::new("any_new_email"),
            fields: FieldMap::new(),
        },
        ActionRef {
            service: ServiceSlug::new("wemo"),
            action: ActionSlug::new("turn_on"),
            fields: FieldMap::new(),
        },
    )
}

/// Run the Figure 7 experiment: `runs` emails, each triggering both
/// applets; returns the per-run T2A difference (hue − wemo) in seconds.
pub fn concurrent_experiment(runs: usize, seed: u64) -> ConcurrentReport {
    let mut tb = Testbed::build(TestbedConfig {
        seed,
        engine: EngineConfig::ifttt_like(),
    });
    let a3 = paper_applet(PaperApplet::A3, ServiceVariant::Official);
    tb.install(a3).expect("applet installs");
    tb.install(email_to_wemo()).expect("applet installs");
    tb.sim.run_for(SimDuration::from_secs(10));

    let mut diffs = Vec::with_capacity(runs);
    for run in 0..runs {
        tb.sim.node_mut::<HueLamp>(tb.nodes.lamp).state.on = false;
        tb.sim.node_mut::<WemoSwitch>(tb.nodes.wemo_switch).on = false;
        let t0 = tb.sim.now();
        tb.controller(|c, ctx| c.inject_email(ctx, &format!("concurrent {run}"), None));
        let deadline = t0 + SimDuration::from_mins(25);
        let (mut hue_at, mut wemo_at) = (None, None);
        loop {
            {
                let c = tb.sim.node_ref::<TestController>(tb.nodes.controller);
                hue_at = hue_at.or(c.observed_after("light_on", t0).map(|o| o.at));
                wemo_at = wemo_at.or(c.observed_after("switched_on", t0).map(|o| o.at));
            }
            if (hue_at.is_some() && wemo_at.is_some()) || tb.sim.now() >= deadline {
                break;
            }
            tb.sim.run_for(SimDuration::from_secs(2));
        }
        if let (Some(h), Some(w)) = (hue_at, wemo_at) {
            diffs.push(h.since(t0).as_secs_f64() - w.since(t0).as_secs_f64());
        }
        // Random spacing so run phases decorrelate from both poll chains
        // (the paper's runs were spread over three days).
        let jitter = SimDuration::from_secs_f64(tb.sim.harness_rng().gen_range(0.0..240.0));
        tb.sim.run_for(SimDuration::from_secs(20) + jitter);
    }
    ConcurrentReport { diffs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_trigger_applets_do_not_execute_simultaneously() {
        let r = concurrent_experiment(8, 501);
        assert!(r.diffs.len() >= 7, "got {} diffs", r.diffs.len());
        let s = r.summary();
        // The paper: differences range from −60 to 140 s. The exact span
        // varies; what must hold is that the spread is tens of seconds and
        // both signs occur across a handful of runs.
        assert!(s.max - s.min > 20.0, "spread {:?}", s);
        assert!(s.min < 0.0 && s.max > 0.0, "both signs expected: {:?}", s);
    }
}
