//! Philips Hue: a bridge ("hub") plus smart lamps.
//!
//! The hub exposes a REST API modeled on the real Hue bridge
//! (`PUT /api/<username>/lights/<id>/state`, `GET /api/<username>/lights`)
//! and relays commands to lamps over a low-power radio hop. Command
//! requests are answered only after the lamp acknowledges the state change,
//! so an observer at the lamp and a client at the hub agree on timing.
//!
//! Like the real device, the hub only accepts API calls from hosts on an
//! allowlist (the home LAN rule of §2.1) — the official Hue cloud service is
//! explicitly paired and therefore allowed from outside.

use crate::events::{DeviceCommand, DeviceEvent, Observers};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use simnet::prelude::*;
use std::collections::HashMap;

/// Current state of one lamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LampState {
    pub on: bool,
    /// Brightness 0–254 (Hue convention).
    pub bri: u8,
    /// Hue angle 0–65535 (Hue convention).
    pub hue: u16,
}

impl Default for LampState {
    fn default() -> Self {
        LampState {
            on: false,
            bri: 254,
            hue: 8418,
        }
    }
}

/// One change to a lamp, as the bridge's REST API can express it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateChange {
    /// Switch on or off.
    On(bool),
    /// The `lselect` alert: blink for a while.
    Blink,
    /// Set the hue angle (at full brightness).
    Color(u16),
}

/// The bridge's `PUT /api/<username>/lights/<lamp>/state` request for
/// `change` — what the vendor cloud and the local proxy both send.
pub fn state_request(username: &str, lamp: &str, change: StateChange) -> Request {
    let body = match change {
        StateChange::On(on) => serde_json::json!({ "on": on }),
        StateChange::Blink => serde_json::json!({"alert": "lselect"}),
        StateChange::Color(hue) => serde_json::json!({"hue": hue, "bri": 254}),
    };
    Request::put(format!("/api/{username}/lights/{lamp}/state")).with_body(body.to_string())
}

/// Timer keys used by [`HueLamp`].
const TIMER_APPLY: TimerKey = 1;
const TIMER_BLINK_STEP: TimerKey = 2;

/// A Hue lamp: applies commands arriving from its hub over radio, then
/// acknowledges. State changes are pushed to observers (e.g. the test
/// controller confirming that an action physically executed).
#[derive(Debug)]
pub struct HueLamp {
    /// Device identifier, e.g. `"hue_lamp_1"`.
    pub device_id: String,
    /// Owning user account.
    pub user: String,
    /// Live lamp state.
    pub state: LampState,
    /// Nodes that receive a [`DeviceEvent`] on every state change.
    pub observers: Observers,
    /// Commands waiting out their apply delay.
    queue: Vec<DeviceCommand>,
    /// Hub to acknowledge to (learned from the first command's source).
    hub: Option<NodeId>,
    /// Remaining blink toggles.
    blink_left: u8,
    /// Total state changes applied (for tests/metrics).
    pub changes_applied: u64,
}

impl HueLamp {
    /// Create a lamp owned by `user`.
    pub fn new(device_id: impl Into<String>, user: impl Into<String>) -> Self {
        HueLamp {
            device_id: device_id.into(),
            user: user.into(),
            state: LampState::default(),
            observers: Observers::default(),
            queue: Vec::new(),
            hub: None,
            blink_left: 0,
            changes_applied: 0,
        }
    }

    fn notify(&mut self, ctx: &mut Context<'_>, kind: &str) {
        self.changes_applied += 1;
        let ev = DeviceEvent::new(
            self.device_id.clone(),
            kind,
            self.user.clone(),
            ctx.now().as_secs_f64() as u64,
        )
        .with_data("on", self.state.on.to_string())
        .with_data("bri", self.state.bri.to_string())
        .with_data("hue", self.state.hue.to_string());
        ctx.trace("lamp.state", format_args!("{} {kind}", self.device_id));
        self.observers.push(ctx, ev.to_bytes());
    }

    fn apply(&mut self, ctx: &mut Context<'_>, cmd: &DeviceCommand) {
        match cmd.op.as_str() {
            "turn_on" => {
                self.state.on = true;
                self.notify(ctx, "light_on");
            }
            "turn_off" => {
                self.state.on = false;
                self.notify(ctx, "light_off");
            }
            "set_color" => {
                if let Some(h) = cmd.args.get("hue").and_then(|v| v.parse().ok()) {
                    self.state.hue = h;
                }
                if let Some(b) = cmd.args.get("bri").and_then(|v| v.parse().ok()) {
                    self.state.bri = b;
                }
                self.state.on = true;
                self.notify(ctx, "color_changed");
            }
            "blink" => {
                // Toggle 4 times (off-on-off-on) at 250 ms steps.
                self.blink_left = 4;
                ctx.set_timer(SimDuration::from_millis(1), TIMER_BLINK_STEP);
            }
            other => {
                ctx.trace("lamp.error", format_args!("unknown op {other}"));
            }
        }
        // Acknowledge to the hub with the command correlation id.
        if let (Some(hub), Some(cmd_id)) = (self.hub, cmd.args.get("cmd_id")) {
            let ack = DeviceEvent::new(
                self.device_id.clone(),
                "ack",
                self.user.clone(),
                ctx.now().as_secs_f64() as u64,
            )
            .with_data("cmd_id", cmd_id.clone())
            .with_data("op", cmd.op.clone());
            ctx.signal(hub, ack.to_bytes());
        }
    }
}

impl Node for HueLamp {
    fn on_signal(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        let Some(cmd) = DeviceCommand::from_bytes(&payload) else {
            ctx.trace("lamp.error", format_args!("unparseable radio frame"));
            return;
        };
        self.hub.get_or_insert(from);
        self.queue.push(cmd);
        // Zigbee radio processing + LED driver latency: 10–30 ms.
        let delay_us = 10_000 + (ctx.rng().gen_range(0..20_000u64));
        ctx.set_timer(SimDuration::from_micros(delay_us), TIMER_APPLY);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, key: TimerKey) {
        match key {
            TIMER_APPLY if !self.queue.is_empty() => {
                let cmd = self.queue.remove(0);
                self.apply(ctx, &cmd);
            }
            TIMER_BLINK_STEP => {
                if self.blink_left == 0 {
                    return;
                }
                self.blink_left -= 1;
                self.state.on = !self.state.on;
                self.notify(
                    ctx,
                    if self.state.on {
                        "light_on"
                    } else {
                        "light_off"
                    },
                );
                if self.blink_left > 0 {
                    ctx.set_timer(SimDuration::from_millis(250), TIMER_BLINK_STEP);
                }
            }
            _ => {}
        }
    }
}

use rand::Rng;

/// The Hue bridge: REST front, radio relay to lamps, observer pushes.
#[derive(Debug)]
pub struct HueHub {
    /// API username (the Hue "whitelist" entry).
    pub username: String,
    /// Registered lamps: device id → (node, cached state).
    lamps: HashMap<String, (NodeId, LampState)>,
    /// Hosts allowed to call the REST API (`None` = open, for tests).
    pub allowed: Option<Vec<NodeId>>,
    /// Observers notified of every lamp state change the hub learns of.
    pub observers: Observers,
    /// Replies waiting for a lamp ack: cmd_id → (request, lamp device id, op).
    pending: HashMap<u64, (RequestId, String, String)>,
    next_cmd: u64,
}

impl HueHub {
    /// Create a hub with the given API username.
    pub fn new(username: impl Into<String>) -> Self {
        HueHub {
            username: username.into(),
            lamps: HashMap::new(),
            allowed: None,
            observers: Observers::default(),
            pending: HashMap::new(),
            next_cmd: 1,
        }
    }

    /// Pair a lamp with the hub.
    pub fn register_lamp(&mut self, device_id: impl Into<String>, node: NodeId) {
        self.lamps
            .insert(device_id.into(), (node, LampState::default()));
    }

    /// Restrict API access to these hosts (the home-LAN rule).
    pub fn allow_only(&mut self, hosts: Vec<NodeId>) {
        self.allowed = Some(hosts);
    }

    /// Cached state of a lamp, if registered.
    pub fn lamp_state(&self, device_id: &str) -> Option<LampState> {
        self.lamps.get(device_id).map(|(_, s)| *s)
    }

    fn authorized(&self, src: NodeId) -> bool {
        self.allowed.as_ref().is_none_or(|a| a.contains(&src))
    }

    /// Route `PUT /api/<username>/lights/<id>/state`.
    fn handle_put_state(
        &mut self,
        ctx: &mut Context<'_>,
        req: &Request,
        device_id: &str,
    ) -> HandlerResult {
        let Some(&(lamp_node, _)) = self.lamps.get(device_id) else {
            return HandlerResult::Reply(Response::not_found());
        };
        #[derive(Deserialize)]
        struct StateBody {
            #[serde(default)]
            on: Option<bool>,
            #[serde(default)]
            bri: Option<u8>,
            #[serde(default)]
            hue: Option<u16>,
            #[serde(default)]
            alert: Option<String>,
        }
        let Ok(body) = serde_json::from_slice::<StateBody>(&req.body) else {
            return HandlerResult::Reply(Response::bad_request());
        };
        let cmd_id = self.next_cmd;
        self.next_cmd += 1;
        let op;
        let mut cmd = if body.alert.as_deref() == Some("lselect") {
            op = "blink";
            DeviceCommand::new(device_id, "blink")
        } else if body.hue.is_some() || body.bri.is_some() {
            op = "set_color";
            let mut c = DeviceCommand::new(device_id, "set_color");
            if let Some(h) = body.hue {
                c = c.with_arg("hue", h.to_string());
            }
            if let Some(b) = body.bri {
                c = c.with_arg("bri", b.to_string());
            }
            c
        } else if body.on == Some(true) {
            op = "turn_on";
            DeviceCommand::new(device_id, "turn_on")
        } else if body.on == Some(false) {
            op = "turn_off";
            DeviceCommand::new(device_id, "turn_off")
        } else {
            return HandlerResult::Reply(Response::bad_request());
        };
        cmd = cmd.with_arg("cmd_id", cmd_id.to_string());
        self.pending
            .insert(cmd_id, (req.id, device_id.to_string(), op.to_string()));
        ctx.trace("hub.command", format_args!("{device_id} {op}"));
        ctx.signal(lamp_node, cmd.to_bytes());
        HandlerResult::Deferred
    }
}

impl Node for HueHub {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        if !self.authorized(req.src) {
            return HandlerResult::Reply(Response::with_status(403));
        }
        let segs = req.path_segments();
        match segs.as_slice() {
            // GET /api/<username>/lights
            ["api", user, "lights"] if req.method == Method::Get => {
                if *user != self.username {
                    return HandlerResult::Reply(Response::unauthorized());
                }
                let states: HashMap<&String, &LampState> =
                    self.lamps.iter().map(|(id, (_, s))| (id, s)).collect();
                HandlerResult::Reply(
                    Response::ok().with_body(serde_json::to_vec(&states).expect("serializes")),
                )
            }
            // PUT /api/<username>/lights/<id>/state
            ["api", user, "lights", id, "state"] if req.method == Method::Put => {
                if *user != self.username {
                    return HandlerResult::Reply(Response::unauthorized());
                }
                let id = id.to_string();
                self.handle_put_state(ctx, req, &id)
            }
            _ => HandlerResult::Reply(Response::not_found()),
        }
    }

    fn on_signal(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        let Some(ev) = DeviceEvent::from_bytes(&payload) else {
            return;
        };
        if ev.kind == "ack" {
            let Some(cmd_id) = ev.data.get("cmd_id").and_then(|v| v.parse::<u64>().ok()) else {
                return;
            };
            if let Some((req_id, device_id, _op)) = self.pending.remove(&cmd_id) {
                // Refresh the cached state from the ack payload if present.
                if let Some((_, st)) = self.lamps.get_mut(&device_id) {
                    if let Some(on) = ev.data.get("on").and_then(|v| v.parse().ok()) {
                        st.on = on;
                    }
                }
                ctx.reply(req_id, Response::ok().with_body(r#"[{"success":{}}]"#));
            }
        } else {
            // A lamp state change: refresh cache, fan out to observers.
            if let Some((_, st)) = self.lamps.get_mut(&ev.device) {
                if let Some(on) = ev.data.get("on").and_then(|v| v.parse().ok()) {
                    st.on = on;
                }
                if let Some(bri) = ev.data.get("bri").and_then(|v| v.parse().ok()) {
                    st.bri = bri;
                }
                if let Some(hue) = ev.data.get("hue").and_then(|v| v.parse().ok()) {
                    st.hue = hue;
                }
            }
            self.observers.push(ctx, payload.clone());
        }
    }
}

/// Assemble a hub with `n` lamps in a simulation: creates the nodes, links
/// lamps to the hub over radio, registers them, and makes lamps report
/// state changes to the hub. Returns `(hub, lamps)`.
pub fn install_hue(sim: &mut Sim, username: &str, user: &str, n: usize) -> (NodeId, Vec<NodeId>) {
    let hub = sim.add_node("hue_hub", HueHub::new(username));
    let mut lamps = Vec::new();
    for i in 1..=n {
        let device_id = format!("hue_lamp_{i}");
        let lamp = sim.add_node(device_id.clone(), HueLamp::new(device_id.clone(), user));
        sim.link(hub, lamp, LinkSpec::radio());
        sim.node_mut::<HueHub>(hub).register_lamp(device_id, lamp);
        sim.node_mut::<HueLamp>(lamp).observers.add(hub);
        lamps.push(lamp);
    }
    (hub, lamps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_client::Client;

    const LAMP_1: &str = "/api/hueuser/lights/hue_lamp_1/state";

    /// One PUT of `body` to `path` on `hub`, over the LAN.
    fn put(sim: &mut Sim, hub: NodeId, path: &str, body: &str) -> NodeId {
        let req = Request::put(path).with_body(body.to_owned());
        Client::spawn(sim, hub, req, LinkSpec::lan())
    }

    fn setup(body: &str) -> (Sim, NodeId, NodeId, NodeId) {
        let mut sim = Sim::new(77);
        let (hub, lamps) = install_hue(&mut sim, "hueuser", "author", 1);
        let driver = put(&mut sim, hub, LAMP_1, body);
        (sim, hub, lamps[0], driver)
    }

    #[test]
    fn turn_on_roundtrip_updates_lamp_and_cache() {
        let (mut sim, hub, lamp, driver) = setup(r#"{"on":true}"#);
        sim.run_until_idle();
        assert!(sim.node_ref::<HueLamp>(lamp).state.on);
        assert!(
            sim.node_ref::<HueHub>(hub)
                .lamp_state("hue_lamp_1")
                .unwrap()
                .on
        );
        assert_eq!(Client::status(&sim, driver), Some(200));
        let at = sim.node_ref::<Client>(driver).at.unwrap();
        // LAN + radio + apply delay: response well under a second but not zero.
        assert!(at > SimTime::ZERO && at < SimTime::from_secs(1));
    }

    #[test]
    fn set_color_applies_hue_and_bri() {
        let (mut sim, _, lamp, driver) = setup(r#"{"hue":46920,"bri":100}"#);
        sim.run_until_idle();
        let s = sim.node_ref::<HueLamp>(lamp).state;
        assert_eq!(s.hue, 46920);
        assert_eq!(s.bri, 100);
        assert!(s.on);
        assert_eq!(Client::status(&sim, driver), Some(200));
    }

    #[test]
    fn blink_toggles_lamp_multiple_times() {
        let (mut sim, _, lamp, _) = setup(r#"{"alert":"lselect"}"#);
        sim.run_until_idle();
        // 4 toggles → 4 state-change notifications (plus none from setup).
        assert_eq!(sim.node_ref::<HueLamp>(lamp).changes_applied, 4);
        // Ends in the state it started from (even number of toggles).
        assert!(!sim.node_ref::<HueLamp>(lamp).state.on);
    }

    #[test]
    fn unknown_lamp_is_404_and_bad_body_is_400() {
        let (mut sim, hub, _, _) = setup(r#"{"on":true}"#);
        let d2 = put(
            &mut sim,
            hub,
            "/api/hueuser/lights/nope/state",
            r#"{"on":true}"#,
        );
        let d3 = put(&mut sim, hub, LAMP_1, "not json");
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, d2), Some(404));
        assert_eq!(Client::status(&sim, d3), Some(400));
    }

    #[test]
    fn wrong_username_is_401() {
        let (mut sim, hub, _, _) = setup("{}");
        let d = put(
            &mut sim,
            hub,
            "/api/intruder/lights/hue_lamp_1/state",
            r#"{"on":true}"#,
        );
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, d), Some(401));
    }

    #[test]
    fn allowlist_rejects_strangers_with_403() {
        let (mut sim, hub, _, driver) = setup(r#"{"on":true}"#);
        // Allow nobody: even the driver is rejected.
        sim.node_mut::<HueHub>(hub).allow_only(vec![]);
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, driver), Some(403));
        // Allowing the driver makes it work again.
        sim.node_mut::<HueHub>(hub).allow_only(vec![driver]);
        let d2 = put(&mut sim, hub, LAMP_1, r#"{"on":true}"#);
        sim.run_until_idle();
        // d2 is not on the allowlist either.
        assert_eq!(Client::status(&sim, d2), Some(403));
    }

    #[test]
    fn observers_receive_state_changes() {
        #[derive(Default)]
        struct Obs {
            events: Vec<DeviceEvent>,
        }
        impl Node for Obs {
            fn on_signal(&mut self, _ctx: &mut Context<'_>, _f: NodeId, p: Bytes) {
                if let Some(e) = DeviceEvent::from_bytes(&p) {
                    self.events.push(e);
                }
            }
        }
        let (mut sim, hub, _, _) = setup(r#"{"on":true}"#);
        let obs = sim.add_node("obs", Obs::default());
        sim.link(obs, hub, LinkSpec::lan());
        sim.node_mut::<HueHub>(hub).observers.add(obs);
        sim.run_until_idle();
        let events = &sim.node_ref::<Obs>(obs).events;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "light_on");
        assert_eq!(events[0].device, "hue_lamp_1");
    }

    #[test]
    fn get_lights_lists_cached_state() {
        let mut sim = Sim::new(3);
        let (hub, _) = install_hue(&mut sim, "hueuser", "author", 2);
        let req = Request::get("/api/hueuser/lights");
        let getter = Client::spawn(&mut sim, hub, req, LinkSpec::lan());
        sim.run_until_idle();
        let resp = sim.node_ref::<Client>(getter).response.as_ref().unwrap();
        let body = String::from_utf8_lossy(&resp.body);
        assert!(body.contains("hue_lamp_1") && body.contains("hue_lamp_2"));
    }
}
