//! A smart-home scenario exercising the §6 "distributed applet execution"
//! idea: the same automation run through the cloud engine vs. a local
//! engine on the home LAN.
//!
//! ```sh
//! cargo run --example smart_home
//! ```

use ifttt_core::devices::events::DeviceCommand;
use ifttt_core::devices::hue::HueLamp;
use ifttt_core::devices::wemo::WemoSwitch;
use ifttt_core::engine::{EngineConfig, TapEngine};
use ifttt_core::simnet::prelude::*;
use ifttt_core::testbed::applets::{paper_applet, PaperApplet, ServiceVariant};
use ifttt_core::testbed::{LocalEngine, LocalRule, TestController, Testbed, TestbedConfig};

/// Measure A2's trigger-to-action latency once in the given testbed.
fn one_t2a(tb: &mut Testbed) -> SimDuration {
    tb.sim.node_mut::<WemoSwitch>(tb.nodes.wemo_switch).on = false;
    tb.sim.node_mut::<HueLamp>(tb.nodes.lamp).state.on = false;
    let t0 = tb.sim.now();
    tb.sim
        .with_node::<TestController, _>(tb.nodes.controller, |c, ctx| c.press_switch(ctx));
    loop {
        tb.sim.run_for(SimDuration::from_secs(1));
        if let Some(o) = tb
            .sim
            .node_ref::<TestController>(tb.nodes.controller)
            .observed_after("light_on", t0)
        {
            return o.at.since(t0);
        }
        if tb.sim.now().since(t0) > SimDuration::from_mins(20) {
            return SimDuration::from_mins(20);
        }
    }
}

fn main() {
    println!("scenario: switch press → light on (applet A2)\n");

    // --- Through the cloud engine (production IFTTT behaviour) ----------
    let mut cloud = Testbed::build(TestbedConfig {
        seed: 5,
        engine: EngineConfig::ifttt_like(),
    });
    cloud
        .sim
        .with_node::<TapEngine, _>(cloud.nodes.engine, |e, ctx| {
            e.install_applet(ctx, paper_applet(PaperApplet::A2, ServiceVariant::Official))
        })
        .expect("install");
    cloud.sim.run_for(SimDuration::from_secs(10));
    print!("cloud engine (polling):  ");
    for _ in 0..3 {
        let t2a = one_t2a(&mut cloud);
        print!("{t2a}  ");
        cloud.sim.run_for(SimDuration::from_secs(15));
    }
    println!();

    // --- Through a local engine in the LAN (§6 extension) ---------------
    let mut local = Testbed::build(TestbedConfig {
        seed: 6,
        engine: EngineConfig::ifttt_like(),
    });
    let le = local
        .sim
        .add_node("local_engine", LocalEngine::new(local.nodes.proxy));
    local.sim.link(le, local.nodes.proxy, LinkSpec::lan());
    local.sim.link(le, local.nodes.wemo_switch, LinkSpec::lan());
    local
        .sim
        .node_mut::<WemoSwitch>(local.nodes.wemo_switch)
        .observers
        .add(le);
    local.sim.node_mut::<LocalEngine>(le).add_rule(LocalRule {
        device: "wemo_switch_1".into(),
        kind: "switched_on".into(),
        command: DeviceCommand::new("hue_lamp_1", "turn_on"),
    });
    local.sim.run_for(SimDuration::from_secs(10));
    print!("local engine (LAN push): ");
    for _ in 0..3 {
        let t2a = one_t2a(&mut local);
        print!("{t2a}  ");
        local.sim.run_for(SimDuration::from_secs(15));
    }
    println!();

    println!(
        "\n§6: \"many applets can be executed fully locally … the scalability of the \
         system can be dramatically improved\" — here the LAN path is ~1000× faster."
    );
}
