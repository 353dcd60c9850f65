//! The §6 "distributed applet execution" extension.
//!
//! "Many applets can be executed fully locally by using users' smartphones
//! or tablets as a local IFTTT engine. In this way, the scalability of the
//! system can be dramatically improved."
//!
//! [`LocalEngine`] is that local engine: a node in the home LAN that
//! receives device state-change pushes directly and executes matching
//! rules through the local proxy — no cloud round trip, no polling. The
//! ablation bench compares its trigger-to-action latency against the
//! cloud engine's.

use bytes::Bytes;
use devices::events::{DeviceCommand, DeviceEvent};
use devices::proxy::{ProxyCommand, COMMAND_PATH};
use simnet::prelude::*;

/// One locally executable rule: device event → device command.
#[derive(Debug, Clone)]
pub struct LocalRule {
    /// Trigger: the observed device id (empty = any device).
    pub device: String,
    /// Trigger: the event kind, e.g. `"switched_on"`.
    pub kind: String,
    /// Action to execute through the proxy.
    pub command: DeviceCommand,
}

/// The local engine node (a smartphone/tablet in the LAN).
#[derive(Debug)]
pub struct LocalEngine {
    /// The local proxy used to drive devices.
    pub proxy: NodeId,
    /// Installed rules.
    pub rules: Vec<LocalRule>,
    /// Executions completed (proxy acknowledged).
    pub executed: u64,
    /// Executions attempted.
    pub attempted: u64,
    /// If true, the engine is "down" (for the §6 failure-recovery
    /// discussion: a cloud fallback would take over).
    pub down: bool,
}

impl LocalEngine {
    /// Create a local engine bound to the proxy.
    pub fn new(proxy: NodeId) -> Self {
        LocalEngine {
            proxy,
            rules: Vec::new(),
            executed: 0,
            attempted: 0,
            down: false,
        }
    }

    /// Install a rule.
    pub fn add_rule(&mut self, rule: LocalRule) {
        self.rules.push(rule);
    }
}

impl Node for LocalEngine {
    fn on_signal(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        if self.down {
            return;
        }
        let Some(ev) = DeviceEvent::from_bytes(&payload) else {
            return;
        };
        let matching: Vec<DeviceCommand> = self
            .rules
            .iter()
            .filter(|r| (r.device.is_empty() || r.device == ev.device) && r.kind == ev.kind)
            .map(|r| r.command.clone())
            .collect();
        for command in matching {
            self.attempted += 1;
            ctx.trace(
                "local_engine.execute",
                format_args!("{} {}", command.device, command.op),
            );
            let req = Request::post(COMMAND_PATH)
                .with_body(serde_json::to_vec(&ProxyCommand { command }).expect("serializes"));
            ctx.send_request(self.proxy, req, Token(1), RequestOpts::timeout_secs(10));
        }
    }

    fn on_response(&mut self, ctx: &mut Context<'_>, _token: Token, resp: Response) {
        if resp.is_success() {
            self.executed += 1;
            ctx.trace("local_engine.done", format_args!(""));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Testbed, TestbedConfig};
    use devices::hue::HueLamp;
    use devices::wemo::WemoSwitch;

    fn with_local_engine() -> (Testbed, NodeId) {
        let mut tb = Testbed::build(TestbedConfig::default());
        let le = tb
            .sim
            .add_node("local_engine", LocalEngine::new(tb.nodes.proxy));
        tb.sim.link(le, tb.nodes.proxy, LinkSpec::lan());
        tb.sim.link(le, tb.nodes.wemo_switch, LinkSpec::lan());
        tb.sim
            .node_mut::<WemoSwitch>(tb.nodes.wemo_switch)
            .observers
            .add(le);
        tb.sim.node_mut::<LocalEngine>(le).add_rule(LocalRule {
            device: "wemo_switch_1".into(),
            kind: "switched_on".into(),
            command: DeviceCommand::new("hue_lamp_1", "turn_on"),
        });
        (tb, le)
    }

    #[test]
    fn local_rule_executes_in_milliseconds() {
        let (mut tb, le) = with_local_engine();
        tb.sim.run_until(SimTime::from_secs(1));
        let t0 = tb.sim.now();
        tb.sim
            .with_node::<WemoSwitch, _>(tb.nodes.wemo_switch, |s, ctx| s.press(ctx));
        tb.sim.run_until(SimTime::from_secs(3));
        assert!(tb.sim.node_ref::<HueLamp>(tb.nodes.lamp).state.on);
        assert_eq!(tb.sim.node_ref::<LocalEngine>(le).executed, 1);
        // T2A at LAN speed: well under a second.
        let on = tb
            .sim
            .node_ref::<crate::controller::TestController>(tb.nodes.controller)
            .observed_after("light_on", t0)
            .expect("lamp turned on")
            .at;
        assert!(
            on.since(t0) < SimDuration::from_secs(1),
            "t2a {}",
            on.since(t0)
        );
    }

    #[test]
    fn down_engine_executes_nothing() {
        let (mut tb, le) = with_local_engine();
        tb.sim.node_mut::<LocalEngine>(le).down = true;
        tb.sim
            .with_node::<WemoSwitch, _>(tb.nodes.wemo_switch, |s, ctx| s.press(ctx));
        tb.sim.run_until(SimTime::from_secs(3));
        assert!(!tb.sim.node_ref::<HueLamp>(tb.nodes.lamp).state.on);
        assert_eq!(tb.sim.node_ref::<LocalEngine>(le).attempted, 0);
    }

    #[test]
    fn rules_filter_by_kind() {
        let (mut tb, le) = with_local_engine();
        // Press twice: on (matches), off (does not match).
        tb.sim
            .with_node::<WemoSwitch, _>(tb.nodes.wemo_switch, |s, ctx| s.press(ctx));
        tb.sim.run_until(SimTime::from_secs(2));
        tb.sim
            .with_node::<WemoSwitch, _>(tb.nodes.wemo_switch, |s, ctx| s.press(ctx));
        tb.sim.run_until(SimTime::from_secs(4));
        assert_eq!(tb.sim.node_ref::<LocalEngine>(le).attempted, 1);
    }
}
