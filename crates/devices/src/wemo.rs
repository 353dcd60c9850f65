//! Belkin WeMo Light Switch, speaking UPnP/SOAP.
//!
//! The testbed drives the real switch over UPnP (§2.1). We model the
//! `basicevent1` control endpoint with its `SetBinaryState` /
//! `GetBinaryState` SOAP actions, plus the physical toggle (someone presses
//! the switch), which is what activates the triggers of applets A1/A2.

use crate::events::{DeviceEvent, Observers};
use bytes::Bytes;
use simnet::prelude::*;

/// SOAP control path of the basic-event service.
pub const CONTROL_PATH: &str = "/upnp/control/basicevent1";
/// SOAPACTION header name.
pub const SOAPACTION: &str = "SOAPACTION";
/// SOAPACTION value for setting the state.
pub const SET_BINARY_STATE: &str = "\"urn:Belkin:service:basicevent:1#SetBinaryState\"";
/// SOAPACTION value for reading the state.
pub const GET_BINARY_STATE: &str = "\"urn:Belkin:service:basicevent:1#GetBinaryState\"";

/// Render a `SetBinaryState` SOAP request body.
pub fn set_state_body(on: bool) -> String {
    format!(
        "<?xml version=\"1.0\"?><s:Envelope><s:Body>\
         <u:SetBinaryState xmlns:u=\"urn:Belkin:service:basicevent:1\">\
         <BinaryState>{}</BinaryState></u:SetBinaryState></s:Body></s:Envelope>",
        if on { 1 } else { 0 }
    )
}

/// The `SetBinaryState` SOAP request — what the vendor cloud and the
/// local proxy both send.
pub fn set_state_request(on: bool) -> Request {
    Request::post(CONTROL_PATH)
        .with_header(SOAPACTION, SET_BINARY_STATE)
        .with_body(set_state_body(on))
}

fn parse_binary_state(body: &[u8]) -> Option<bool> {
    let text = std::str::from_utf8(body).ok()?;
    let start = text.find("<BinaryState>")? + "<BinaryState>".len();
    let end = text[start..].find("</BinaryState>")? + start;
    match text[start..end].trim() {
        "1" => Some(true),
        "0" => Some(false),
        _ => None,
    }
}

/// The smart switch node.
#[derive(Debug)]
pub struct WemoSwitch {
    /// Device identifier, e.g. `"wemo_switch_1"`.
    pub device_id: String,
    /// Owning user account.
    pub user: String,
    /// Relay state.
    pub on: bool,
    /// Hosts allowed to use the SOAP API (`None` = open).
    pub allowed: Option<Vec<NodeId>>,
    /// Observers notified on every state change (physical or remote).
    pub observers: Observers,
    /// Count of physical presses (for tests).
    pub presses: u64,
}

impl WemoSwitch {
    /// Create a switch owned by `user`, initially off.
    pub fn new(device_id: impl Into<String>, user: impl Into<String>) -> Self {
        WemoSwitch {
            device_id: device_id.into(),
            user: user.into(),
            on: false,
            allowed: None,
            observers: Observers::default(),
            presses: 0,
        }
    }

    /// Restrict API access to these hosts.
    pub fn allow_only(&mut self, hosts: Vec<NodeId>) {
        self.allowed = Some(hosts);
    }

    /// Someone physically toggles the switch. Used by the test controller
    /// to activate the trigger of A1/A2.
    pub fn press(&mut self, ctx: &mut Context<'_>) {
        self.presses += 1;
        self.set(ctx, !self.on, "physical");
    }

    fn set(&mut self, ctx: &mut Context<'_>, on: bool, source: &str) {
        if self.on == on && source != "physical" {
            return; // idempotent remote set
        }
        self.on = on;
        let kind = if on { "switched_on" } else { "switched_off" };
        ctx.trace(
            "wemo.state",
            format_args!("{} {kind} ({source})", self.device_id),
        );
        let ev = DeviceEvent::new(
            self.device_id.clone(),
            kind,
            self.user.clone(),
            ctx.now().as_secs_f64() as u64,
        )
        .with_data("source", source);
        self.observers.push(ctx, ev.to_bytes());
    }
}

impl Node for WemoSwitch {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        if let Some(allowed) = &self.allowed {
            if !allowed.contains(&req.src) {
                return HandlerResult::Reply(Response::with_status(403));
            }
        }
        if req.path != CONTROL_PATH || req.method != Method::Post {
            return HandlerResult::Reply(Response::not_found());
        }
        match req.header(SOAPACTION) {
            Some(a) if a == SET_BINARY_STATE => {
                let Some(on) = parse_binary_state(&req.body) else {
                    return HandlerResult::Reply(Response::bad_request());
                };
                self.set(ctx, on, "upnp");
                HandlerResult::Reply(Response::ok().with_body(
                    "<s:Envelope><s:Body><u:SetBinaryStateResponse/></s:Body></s:Envelope>",
                ))
            }
            Some(a) if a == GET_BINARY_STATE => {
                HandlerResult::Reply(Response::ok().with_body(format!(
                    "<s:Envelope><s:Body><u:GetBinaryStateResponse>\
                     <BinaryState>{}</BinaryState>\
                     </u:GetBinaryStateResponse></s:Body></s:Envelope>",
                    if self.on { 1 } else { 0 }
                )))
            }
            _ => HandlerResult::Reply(Response::bad_request()),
        }
    }

    fn on_signal(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        // A "press" signal models the physical toggle arriving from the
        // test controller's finger.
        if payload.as_ref() == b"press" {
            self.press(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_client::Client;

    /// One SOAP `action` call against `switch`, over the LAN.
    fn soap(sim: &mut Sim, switch: NodeId, action: &str, body: String) -> NodeId {
        let req = Request::post(CONTROL_PATH)
            .with_header(SOAPACTION, action)
            .with_body(body);
        Client::spawn(sim, switch, req, LinkSpec::lan())
    }

    #[test]
    fn set_binary_state_turns_switch_on() {
        let mut sim = Sim::new(1);
        let sw = sim.add_node("wemo", WemoSwitch::new("wemo_switch_1", "author"));
        let client = soap(&mut sim, sw, SET_BINARY_STATE, set_state_body(true));
        sim.run_until_idle();
        assert!(sim.node_ref::<WemoSwitch>(sw).on);
        assert_eq!(Client::status(&sim, client), Some(200));
    }

    #[test]
    fn get_binary_state_reports_state() {
        let mut sim = Sim::new(2);
        let sw = sim.add_node("wemo", WemoSwitch::new("wemo_switch_1", "author"));
        sim.node_mut::<WemoSwitch>(sw).on = true;
        let client = soap(&mut sim, sw, GET_BINARY_STATE, String::new());
        sim.run_until_idle();
        let resp = sim.node_ref::<Client>(client).response.clone().unwrap();
        assert!(String::from_utf8_lossy(&resp.body).contains("<BinaryState>1</BinaryState>"));
    }

    #[test]
    fn press_toggles_and_notifies_observers() {
        #[derive(Default)]
        struct Obs {
            kinds: Vec<String>,
        }
        impl Node for Obs {
            fn on_signal(&mut self, _c: &mut Context<'_>, _f: NodeId, p: Bytes) {
                if let Some(e) = DeviceEvent::from_bytes(&p) {
                    self.kinds.push(e.kind);
                }
            }
        }
        let mut sim = Sim::new(3);
        let sw = sim.add_node("wemo", WemoSwitch::new("wemo_switch_1", "author"));
        let obs = sim.add_node("obs", Obs::default());
        sim.link(sw, obs, LinkSpec::lan());
        sim.node_mut::<WemoSwitch>(sw).observers.add(obs);
        sim.with_node::<WemoSwitch, _>(sw, |s, ctx| s.press(ctx));
        sim.run_until_idle();
        sim.with_node::<WemoSwitch, _>(sw, |s, ctx| s.press(ctx));
        sim.run_until_idle();
        assert_eq!(
            sim.node_ref::<Obs>(obs).kinds,
            vec!["switched_on", "switched_off"]
        );
        assert_eq!(sim.node_ref::<WemoSwitch>(sw).presses, 2);
    }

    #[test]
    fn allowlist_blocks_remote_control() {
        let mut sim = Sim::new(4);
        let sw = sim.add_node("wemo", WemoSwitch::new("wemo_switch_1", "author"));
        sim.node_mut::<WemoSwitch>(sw).allow_only(vec![]);
        let client = soap(&mut sim, sw, SET_BINARY_STATE, set_state_body(true));
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, client), Some(403));
        assert!(!sim.node_ref::<WemoSwitch>(sw).on);
    }

    #[test]
    fn malformed_soap_is_rejected() {
        let mut sim = Sim::new(5);
        let sw = sim.add_node("wemo", WemoSwitch::new("wemo_switch_1", "author"));
        let client = soap(
            &mut sim,
            sw,
            SET_BINARY_STATE,
            "<Envelope>garbage</Envelope>".into(),
        );
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, client), Some(400));
    }

    #[test]
    fn parse_binary_state_accepts_0_and_1_only() {
        assert_eq!(
            parse_binary_state(set_state_body(true).as_bytes()),
            Some(true)
        );
        assert_eq!(
            parse_binary_state(set_state_body(false).as_bytes()),
            Some(false)
        );
        assert_eq!(parse_binary_state(b"<BinaryState>2</BinaryState>"), None);
        assert_eq!(parse_binary_state(b"no tags"), None);
    }
}
