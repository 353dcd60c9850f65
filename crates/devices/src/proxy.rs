//! The home local proxy (❸ in the paper's Figure 1).
//!
//! "For security, most home deployed devices only accept access from a
//! 3rd-party host in the same LAN so we deployed in the home LAN a local
//! proxy which acts as a bridge for communication between our service
//! server and local devices" (§2.1).
//!
//! Southbound, the proxy speaks each device's native protocol (Hue REST,
//! WeMo SOAP, SmartThings REST). Northbound, it speaks the custom
//! proxy protocol with the lab service server:
//!
//! * device events are forwarded as `POST /proxy/v1/events` (push);
//! * the server drives devices with `POST /proxy/v1/command`, answered
//!   after the device acknowledges.

use crate::events::{DeviceCommand, DeviceEvent};
use crate::hue::{self, StateChange};
use crate::services::PendingReplies;
use crate::wemo;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use simnet::prelude::*;
use std::collections::HashMap;

/// Northbound path for event forwarding.
pub const EVENTS_PATH: &str = "/proxy/v1/events";
/// Northbound path for command execution.
pub const COMMAND_PATH: &str = "/proxy/v1/command";

/// How the proxy reaches one device.
#[derive(Debug, Clone)]
pub enum DeviceRoute {
    /// A Hue lamp behind a Hue bridge (`username` is the bridge API user).
    HueLamp { hub: NodeId, username: String },
    /// A WeMo switch reachable directly over UPnP.
    Wemo { node: NodeId },
    /// A device attached to a SmartThings hub.
    SmartThings { hub: NodeId },
}

/// Northbound command envelope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProxyCommand {
    pub command: DeviceCommand,
}

/// The proxy node.
#[derive(Debug, Default)]
pub struct LocalProxy {
    /// The lab service server events are forwarded to (set after both nodes
    /// exist, via [`LocalProxy::set_upstream`]).
    upstream: Option<NodeId>,
    /// Device registry: device id → route.
    routes: HashMap<String, DeviceRoute>,
    /// Southbound requests in flight → northbound request to answer.
    pending: PendingReplies,
    /// Forwarded events confirmed by the upstream (for tests / Table 5).
    pub events_confirmed: u64,
    /// Commands executed end-to-end.
    pub commands_done: u64,
}

impl LocalProxy {
    /// Create a proxy with no upstream and no devices.
    pub fn new() -> Self {
        LocalProxy::default()
    }

    /// Point the proxy at the lab service server.
    pub fn set_upstream(&mut self, upstream: NodeId) {
        self.upstream = Some(upstream);
    }

    /// Register a device route.
    pub fn register(&mut self, device_id: impl Into<String>, route: DeviceRoute) {
        self.routes.insert(device_id.into(), route);
    }

    fn forward_event(&mut self, ctx: &mut Context<'_>, ev: &DeviceEvent) {
        let Some(upstream) = self.upstream else {
            return;
        };
        ctx.trace("proxy.event", format_args!("{} {}", ev.device, ev.kind));
        let req = Request::post(EVENTS_PATH).with_body(ev.to_bytes());
        let token = Token(0); // token 0 marks event-forward confirmations
        ctx.send_request(upstream, req, token, RequestOpts::timeout_secs(30));
    }

    fn execute(&mut self, ctx: &mut Context<'_>, cmd: &DeviceCommand, northbound: RequestId) {
        let Some(route) = self.routes.get(&cmd.device) else {
            ctx.reply(northbound, Response::not_found());
            return;
        };
        ctx.trace("proxy.command", format_args!("{} {}", cmd.device, cmd.op));
        let southbound = match route {
            DeviceRoute::HueLamp { hub, username } => {
                let change = match cmd.op.as_str() {
                    "turn_on" => Some(StateChange::On(true)),
                    "turn_off" => Some(StateChange::On(false)),
                    "blink" => Some(StateChange::Blink),
                    "set_color" => {
                        let hue = cmd.args.get("hue").and_then(|v| v.parse().ok());
                        Some(StateChange::Color(hue.unwrap_or(46920)))
                    }
                    _ => None,
                };
                change.map(|c| (*hub, hue::state_request(username, &cmd.device, c)))
            }
            DeviceRoute::Wemo { node } => {
                let on = match cmd.op.as_str() {
                    "turn_on" => Some(true),
                    "turn_off" => Some(false),
                    _ => None,
                };
                on.map(|on| (*node, wemo::set_state_request(on)))
            }
            DeviceRoute::SmartThings { hub } => {
                let value = cmd.args.get("value").map_or("on", String::as_str);
                let req = Request::post(format!("/st/devices/{}/command", cmd.device))
                    .with_body(serde_json::json!({ "value": value }).to_string());
                Some((*hub, req))
            }
        };
        let Some((device, req)) = southbound else {
            ctx.reply(northbound, Response::bad_request());
            return;
        };
        let token = self.pending.track(northbound);
        ctx.send_request(device, req, token, RequestOpts::timeout_secs(10));
    }
}

impl Node for LocalProxy {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        if req.path == COMMAND_PATH && req.method == Method::Post {
            let Ok(pc) = serde_json::from_slice::<ProxyCommand>(&req.body) else {
                return HandlerResult::Reply(Response::bad_request());
            };
            self.execute(ctx, &pc.command, req.id);
            HandlerResult::Deferred
        } else {
            HandlerResult::Reply(Response::not_found())
        }
    }

    fn on_response(&mut self, ctx: &mut Context<'_>, token: Token, resp: Response) {
        if token == Token(0) {
            // Event-forward confirmation from the upstream service.
            if resp.is_success() {
                self.events_confirmed += 1;
                ctx.trace("proxy.event_confirmed", format_args!(""));
            } else {
                ctx.trace("proxy.event_failed", format_args!("status {}", resp.status));
            }
            return;
        }
        if let Some(northbound) = self.pending.resolve(token) {
            if resp.is_success() {
                self.commands_done += 1;
            }
            let status = if resp.is_timeout() { 504 } else { resp.status };
            ctx.reply(northbound, Response::with_status(status));
        }
    }

    fn on_signal(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        // Device state-change push: forward upstream.
        if let Some(ev) = DeviceEvent::from_bytes(&payload) {
            self.forward_event(ctx, &ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hue::{install_hue, HueLamp};
    use crate::wemo::WemoSwitch;

    /// A stand-in lab server that records forwarded events and can issue
    /// one command at start.
    #[derive(Default)]
    struct LabServer {
        proxy: Option<NodeId>,
        command: Option<DeviceCommand>,
        received: Vec<DeviceEvent>,
        command_status: Option<u16>,
    }
    impl Node for LabServer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if let (Some(proxy), Some(cmd)) = (self.proxy, self.command.clone()) {
                let req = Request::post(COMMAND_PATH)
                    .with_body(serde_json::to_vec(&ProxyCommand { command: cmd }).unwrap());
                ctx.send_request(proxy, req, Token(1), RequestOpts::timeout_secs(60));
            }
        }
        fn on_request(&mut self, _ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
            if req.path == EVENTS_PATH {
                if let Some(ev) = DeviceEvent::from_bytes(&req.body) {
                    self.received.push(ev);
                }
                HandlerResult::Reply(Response::ok())
            } else {
                HandlerResult::Reply(Response::not_found())
            }
        }
        fn on_response(&mut self, _ctx: &mut Context<'_>, _t: Token, resp: Response) {
            self.command_status = Some(resp.status);
        }
    }

    /// Home topology: lamp—hub—proxy—router—server, switch—proxy.
    fn home() -> (Sim, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut sim = Sim::new(31);
        let (hub, lamps) = install_hue(&mut sim, "hueuser", "author", 1);
        let lamp = lamps[0];
        let switch = sim.add_node("wemo", WemoSwitch::new("wemo_switch_1", "author"));
        let proxy = sim.add_node("proxy", LocalProxy::new());
        let router = sim.add_node("router", RouterStub);
        let server = sim.add_node("server", LabServer::default());
        sim.link(hub, proxy, LinkSpec::lan());
        sim.link(switch, proxy, LinkSpec::lan());
        sim.link(proxy, router, LinkSpec::lan());
        sim.link(router, server, LinkSpec::wan());
        // LAN rule: devices accept the proxy only.
        sim.node_mut::<crate::hue::HueHub>(hub)
            .allow_only(vec![proxy]);
        sim.node_mut::<WemoSwitch>(switch).allow_only(vec![proxy]);
        // Device pushes go to the proxy.
        sim.node_mut::<crate::hue::HueHub>(hub).observers.add(proxy);
        sim.node_mut::<WemoSwitch>(switch).observers.add(proxy);
        let p = sim.node_mut::<LocalProxy>(proxy);
        p.set_upstream(server);
        p.register(
            "hue_lamp_1",
            DeviceRoute::HueLamp {
                hub,
                username: "hueuser".into(),
            },
        );
        p.register("wemo_switch_1", DeviceRoute::Wemo { node: switch });
        (sim, hub, lamp, switch, proxy, server)
    }

    /// A pure pass-through node standing in for the gateway router.
    struct RouterStub;
    impl Node for RouterStub {}

    #[test]
    fn switch_press_reaches_lab_server_through_proxy() {
        let (mut sim, _, _, switch, proxy, server) = home();
        sim.with_node::<WemoSwitch, _>(switch, |s, ctx| s.press(ctx));
        sim.run_until_idle();
        let lab = sim.node_ref::<LabServer>(server);
        assert_eq!(lab.received.len(), 1);
        assert_eq!(lab.received[0].kind, "switched_on");
        assert_eq!(sim.node_ref::<LocalProxy>(proxy).events_confirmed, 1);
    }

    #[test]
    fn server_command_turns_on_lamp_via_proxy_and_hub() {
        let (mut sim, _, lamp, _, proxy, server) = home();
        sim.with_node::<LabServer, _>(server, |_, ctx| {
            let cmd = DeviceCommand::new("hue_lamp_1", "turn_on");
            let req = Request::post(COMMAND_PATH)
                .with_body(serde_json::to_vec(&ProxyCommand { command: cmd }).unwrap());
            ctx.send_request(proxy, req, Token(1), RequestOpts::timeout_secs(60));
        });
        sim.run_until_idle();
        assert!(sim.node_ref::<HueLamp>(lamp).state.on);
        assert_eq!(sim.node_ref::<LabServer>(server).command_status, Some(200));
        assert_eq!(sim.node_ref::<LocalProxy>(proxy).commands_done, 1);
    }

    #[test]
    fn command_for_unregistered_device_is_404() {
        let (mut sim, _, _, _, proxy, server) = home();
        sim.with_node::<LabServer, _>(server, |_, ctx| {
            let req = Request::post(COMMAND_PATH).with_body(
                serde_json::to_vec(&ProxyCommand {
                    command: DeviceCommand::new("ghost", "turn_on"),
                })
                .unwrap(),
            );
            ctx.send_request(proxy, req, Token(1), RequestOpts::timeout_secs(60));
        });
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<LabServer>(server).command_status, Some(404));
    }

    #[test]
    fn unknown_op_is_400() {
        let (mut sim, _, _, _, proxy, server) = home();
        sim.with_node::<LabServer, _>(server, |_, ctx| {
            let req = Request::post(COMMAND_PATH).with_body(
                serde_json::to_vec(&ProxyCommand {
                    command: DeviceCommand::new("wemo_switch_1", "levitate"),
                })
                .unwrap(),
            );
            ctx.send_request(proxy, req, Token(1), RequestOpts::timeout_secs(60));
        });
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<LabServer>(server).command_status, Some(400));
    }

    #[test]
    fn direct_device_access_from_outside_lan_is_refused() {
        // Sanity-check the security rule the proxy exists for: the lab
        // server cannot drive the hub directly even if routed.
        let (mut sim, hub, _, _, _proxy, server) = home();
        sim.with_node::<LabServer, _>(server, |_, ctx| {
            let req =
                Request::put("/api/hueuser/lights/hue_lamp_1/state").with_body(r#"{"on":true}"#);
            ctx.send_request(hub, req, Token(2), RequestOpts::timeout_secs(60));
        });
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<LabServer>(server).command_status, Some(403));
    }
}
