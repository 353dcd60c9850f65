//! Trigger-to-action latency measurement (Figures 4 and 5).
//!
//! "Over a period of three days, the testbed executed each applet 50 times
//! at different time" (§4). Each scenario gets its own fresh testbed so
//! applets cannot contaminate each other's markers, mirroring the paper's
//! one-applet-at-a-time methodology.

use crate::applets::{paper_applet, PaperApplet, ServiceVariant};
use crate::controller::TestController;
use crate::report::T2aReport;
use crate::topology::{Testbed, TestbedConfig};
use devices::hue::HueLamp;
use devices::wemo::WemoSwitch;
use engine::EngineConfig;
use rand::Rng;
use simnet::prelude::*;

/// A complete T2A measurement scenario.
#[derive(Debug, Clone)]
pub struct T2aScenario {
    pub applet: PaperApplet,
    pub variant: ServiceVariant,
    pub engine: EngineConfig,
    pub runs: usize,
    pub seed: u64,
    /// Install-time add count (drives the §6 smart-polling policy).
    pub add_count: u64,
}

impl T2aScenario {
    /// Figure 4's setup: official services, production-like engine.
    pub fn official(applet: PaperApplet, runs: usize, seed: u64) -> T2aScenario {
        T2aScenario {
            applet,
            variant: ServiceVariant::Official,
            engine: EngineConfig::ifttt_like(),
            runs,
            seed,
            add_count: 0,
        }
    }

    /// E1: trigger service replaced with Our Service.
    pub fn e1(runs: usize, seed: u64) -> T2aScenario {
        T2aScenario {
            applet: PaperApplet::A2,
            variant: ServiceVariant::OursTrigger,
            engine: EngineConfig::ifttt_like(),
            runs,
            seed,
            add_count: 0,
        }
    }

    /// E2: trigger and action services replaced.
    pub fn e2(runs: usize, seed: u64) -> T2aScenario {
        T2aScenario {
            applet: PaperApplet::A2,
            variant: ServiceVariant::OursBoth,
            engine: EngineConfig::ifttt_like(),
            runs,
            seed,
            add_count: 0,
        }
    }

    /// E3: engine replaced too (1-second polling).
    pub fn e3(runs: usize, seed: u64) -> T2aScenario {
        T2aScenario {
            applet: PaperApplet::A2,
            variant: ServiceVariant::OursBoth,
            engine: EngineConfig::fast(),
            runs,
            seed,
            add_count: 0,
        }
    }

    fn label(&self) -> String {
        let v = match (self.variant, &self.engine.polling) {
            (ServiceVariant::Official, _) => "official".to_string(),
            (ServiceVariant::OursTrigger, _) => "E1".to_string(),
            (ServiceVariant::OursBoth, engine::PollPolicy::Fixed { seconds })
                if *seconds <= 2.0 =>
            {
                "E3".to_string()
            }
            (ServiceVariant::OursBoth, _) => "E2".to_string(),
        };
        format!("{:?} ({v})", self.applet)
    }
}

/// Reset device state so the applet's action is observable again.
fn reset_devices(tb: &mut Testbed, applet: PaperApplet) {
    match applet {
        PaperApplet::A1 | PaperApplet::A2 => {
            tb.sim.node_mut::<WemoSwitch>(tb.nodes.wemo_switch).on = false;
            tb.sim.node_mut::<HueLamp>(tb.nodes.lamp).state.on = false;
        }
        PaperApplet::A3 => {
            tb.sim.node_mut::<HueLamp>(tb.nodes.lamp).state.on = false;
        }
        PaperApplet::A5 => {
            tb.sim.node_mut::<HueLamp>(tb.nodes.lamp).state.on = true;
        }
        PaperApplet::A6 => {
            tb.sim.node_mut::<WemoSwitch>(tb.nodes.wemo_switch).on = false;
        }
        PaperApplet::A4 | PaperApplet::A7 => {}
    }
}

/// Activate the applet's trigger through its physical channel.
fn activate(tb: &mut Testbed, applet: PaperApplet, run: usize) {
    match applet {
        PaperApplet::A1 | PaperApplet::A2 => {
            tb.controller(|c, ctx| c.press_switch(ctx));
        }
        PaperApplet::A3 => {
            tb.controller(|c, ctx| c.inject_email(ctx, &format!("test email {run}"), None));
        }
        PaperApplet::A4 => {
            tb.controller(|c, ctx| {
                c.inject_email(
                    ctx,
                    &format!("report {run}"),
                    Some(("report.pdf", "PDFDATA")),
                );
            });
        }
        PaperApplet::A5 | PaperApplet::A6 | PaperApplet::A7 => {
            let phrase = applet.voice_phrase().expect("alexa applet");
            tb.controller(|c, ctx| c.speak(ctx, phrase));
        }
    }
}

/// Per-activation timeout: the paper's worst case is 15 minutes; allow 20.
const RUN_TIMEOUT: SimDuration = SimDuration::from_mins(20);
/// Minimum settle time between runs; a random extra delay is added so the
/// activations decorrelate from the engine's polling phase — the paper
/// "executed each applet 50 times at different time".
const RUN_GAP: SimDuration = SimDuration::from_secs(20);

/// Run one scenario and collect its T2A samples.
pub fn measure_t2a(scenario: &T2aScenario) -> T2aReport {
    let mut tb = Testbed::build(TestbedConfig {
        seed: scenario.seed,
        engine: scenario.engine.clone(),
    });
    let mut applet = paper_applet(scenario.applet, scenario.variant);
    applet.add_count = scenario.add_count;
    tb.install(applet).expect("applet installs");
    // Let the initial poll establish the subscription.
    tb.sim.run_for(SimDuration::from_secs(10));

    let marker = scenario.applet.action_marker();
    let mut report = T2aReport::new(scenario.label());
    for run in 0..scenario.runs {
        reset_devices(&mut tb, scenario.applet);
        let t0 = tb.sim.now();
        activate(&mut tb, scenario.applet, run);
        let deadline = t0 + RUN_TIMEOUT;
        let observed = loop {
            let hit = tb
                .sim
                .node_ref::<TestController>(tb.nodes.controller)
                .observed_after(marker, t0)
                .map(|o| o.at);
            if let Some(at) = hit {
                break Some(at);
            }
            if tb.sim.now() >= deadline {
                break None;
            }
            tb.sim.run_for(SimDuration::from_secs(2));
        };
        match observed {
            Some(at) => report.record_secs(at.since(t0).as_secs_f64()),
            None => report.lost += 1,
        }
        let jitter = SimDuration::from_secs_f64(tb.sim.harness_rng().gen_range(0.0..240.0));
        tb.sim.run_for(RUN_GAP + jitter);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_fast_engine_is_seconds_not_minutes() {
        let r = measure_t2a(&T2aScenario::e3(5, 301));
        assert_eq!(r.lost, 0, "no lost runs");
        let s = r.summary();
        assert!(s.max < 5.0, "E3 max {}", s.max);
        assert!(s.p50 < 3.0, "E3 median {}", s.p50);
    }

    #[test]
    fn official_a2_is_poll_bound_minutes() {
        let r = measure_t2a(&T2aScenario::official(PaperApplet::A2, 12, 302));
        assert_eq!(r.lost, 0);
        let s = r.summary();
        // Long and highly variable (the paper: p50 ≈ 84 s, up to 15 min).
        assert!(s.p50 > 30.0, "median {}", s.p50);
        assert!(s.max > s.min * 1.5, "variance too low: {s:?}");
    }

    #[test]
    fn alexa_a5_is_fast_via_realtime_hints() {
        let r = measure_t2a(&T2aScenario::official(PaperApplet::A5, 5, 303));
        assert_eq!(r.lost, 0);
        assert!(r.summary().p50 < 10.0, "A5 median {}", r.summary().p50);
    }

    #[test]
    fn e1_and_e2_stay_slow() {
        // Replacing services does not fix the latency — the engine is the
        // bottleneck (the paper's central finding).
        let r1 = measure_t2a(&T2aScenario::e1(4, 304));
        let r2 = measure_t2a(&T2aScenario::e2(4, 305));
        assert!(r1.summary().p50 > 30.0, "E1 median {}", r1.summary().p50);
        assert!(r2.summary().p50 > 30.0, "E2 median {}", r2.summary().p50);
    }
}
