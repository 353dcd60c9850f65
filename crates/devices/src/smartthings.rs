//! Samsung SmartThings hub with attached virtual sensors and appliances.
//!
//! The testbed's fourth device (§2.1): a hub "controlling various home
//! appliances". We model a hub holding a set of attached devices (motion
//! sensor, contact sensor, smart plug), a REST-ish API to list devices and
//! send commands, and observer pushes on every attribute change.

use crate::events::{DeviceEvent, Observers};
use serde::{Deserialize, Serialize};
use simnet::prelude::*;
use std::collections::BTreeMap;

/// Kinds of devices a hub can host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SensorKind {
    Motion,
    Contact,
    Plug,
}

/// One attached device and its current attribute value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Attached {
    pub kind: SensorKind,
    /// `"active"/"inactive"`, `"open"/"closed"`, `"on"/"off"`.
    pub value: String,
}

/// The SmartThings hub node.
#[derive(Debug, Default)]
pub struct SmartThingsHub {
    /// Owning user account.
    pub user: String,
    devices: BTreeMap<String, Attached>,
    /// Hosts allowed to use the API (`None` = open).
    pub allowed: Option<Vec<NodeId>>,
    /// Observers notified on every attribute change.
    pub observers: Observers,
}

impl SmartThingsHub {
    /// Create a hub owned by `user`.
    pub fn new(user: impl Into<String>) -> Self {
        SmartThingsHub {
            user: user.into(),
            ..Default::default()
        }
    }

    /// Attach a device with its initial value.
    pub fn attach(&mut self, id: impl Into<String>, kind: SensorKind) {
        let value = match kind {
            SensorKind::Motion => "inactive",
            SensorKind::Contact => "closed",
            SensorKind::Plug => "off",
        };
        self.devices.insert(
            id.into(),
            Attached {
                kind,
                value: value.into(),
            },
        );
    }

    /// Current value of a device attribute.
    pub fn value(&self, id: &str) -> Option<&str> {
        self.devices.get(id).map(|a| a.value.as_str())
    }

    /// A sensor fires (motion detected, door opened); pushes to observers.
    pub fn sensor_event(&mut self, ctx: &mut Context<'_>, id: &str, value: &str) {
        let Some(att) = self.devices.get_mut(id) else {
            return;
        };
        att.value = value.to_owned();
        let kind = format!("st_{value}");
        ctx.trace("smartthings.event", format_args!("{id} -> {value}"));
        let ev = DeviceEvent::new(id, kind, self.user.clone(), ctx.now().as_secs_f64() as u64);
        self.observers.push(ctx, ev.to_bytes());
    }
}

impl Node for SmartThingsHub {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        if let Some(allowed) = &self.allowed {
            if !allowed.contains(&req.src) {
                return HandlerResult::Reply(Response::with_status(403));
            }
        }
        let segs = req.path_segments();
        match segs.as_slice() {
            ["st", "devices"] if req.method == Method::Get => HandlerResult::Reply(
                Response::ok().with_body(serde_json::to_vec(&self.devices).expect("serializes")),
            ),
            ["st", "devices", id, "command"] if req.method == Method::Post => {
                #[derive(Deserialize)]
                struct Cmd {
                    value: String,
                }
                let Ok(cmd) = serde_json::from_slice::<Cmd>(&req.body) else {
                    return HandlerResult::Reply(Response::bad_request());
                };
                let id = id.to_string();
                if !self.devices.contains_key(&id) {
                    return HandlerResult::Reply(Response::not_found());
                }
                self.sensor_event(ctx, &id, &cmd.value);
                HandlerResult::Reply(Response::ok())
            }
            _ => HandlerResult::Reply(Response::not_found()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_client::Client;
    use bytes::Bytes;

    #[derive(Default)]
    struct Obs {
        events: Vec<DeviceEvent>,
    }
    impl Node for Obs {
        fn on_signal(&mut self, _c: &mut Context<'_>, _f: NodeId, p: Bytes) {
            if let Some(e) = DeviceEvent::from_bytes(&p) {
                self.events.push(e);
            }
        }
    }

    #[test]
    fn sensor_events_update_value_and_notify() {
        let mut sim = Sim::new(1);
        let hub = sim.add_node("st_hub", SmartThingsHub::new("author"));
        sim.node_mut::<SmartThingsHub>(hub)
            .attach("motion_1", SensorKind::Motion);
        let obs = sim.add_node("obs", Obs::default());
        sim.link(hub, obs, LinkSpec::lan());
        sim.node_mut::<SmartThingsHub>(hub).observers.add(obs);
        sim.with_node::<SmartThingsHub, _>(hub, |h, ctx| h.sensor_event(ctx, "motion_1", "active"));
        sim.run_until_idle();
        assert_eq!(
            sim.node_ref::<SmartThingsHub>(hub).value("motion_1"),
            Some("active")
        );
        let events = &sim.node_ref::<Obs>(obs).events;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "st_active");
    }

    /// One command POST to `path` on `hub`, over the LAN.
    fn command(sim: &mut Sim, hub: NodeId, path: &str, body: &str) -> NodeId {
        let req = Request::post(path).with_body(body.to_owned());
        Client::spawn(sim, hub, req, LinkSpec::lan())
    }

    #[test]
    fn command_api_drives_attached_plug() {
        let mut sim = Sim::new(2);
        let hub = sim.add_node("st_hub", SmartThingsHub::new("author"));
        sim.node_mut::<SmartThingsHub>(hub)
            .attach("plug_1", SensorKind::Plug);
        let c = command(
            &mut sim,
            hub,
            "/st/devices/plug_1/command",
            r#"{"value":"on"}"#,
        );
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, c), Some(200));
        assert_eq!(
            sim.node_ref::<SmartThingsHub>(hub).value("plug_1"),
            Some("on")
        );
    }

    #[test]
    fn unknown_device_404_and_unknown_value_400() {
        let mut sim = Sim::new(3);
        let hub = sim.add_node("st_hub", SmartThingsHub::new("author"));
        let c404 = command(
            &mut sim,
            hub,
            "/st/devices/ghost/command",
            r#"{"value":"on"}"#,
        );
        let c400 = command(&mut sim, hub, "/st/devices/ghost/command", "junk");
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, c404), Some(404));
        assert_eq!(Client::status(&sim, c400), Some(400));
    }
}
