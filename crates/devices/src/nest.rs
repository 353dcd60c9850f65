//! Nest Learning Thermostat.
//!
//! A Table 3 anchor on both sides: `temperature_rises_above` /
//! `temperature_drops_below` triggers and the `set_temperature` action.
//! Unlike the event-shaped triggers elsewhere, Nest's triggers are
//! *threshold crossings* over a continuous ambient signal — which is what
//! exercises per-subscription trigger *fields* (each applet carries its
//! own threshold).

use crate::events::{DeviceEvent, Observers};
use serde::Deserialize;
use simnet::prelude::*;

/// The thermostat node.
#[derive(Debug)]
pub struct NestThermostat {
    /// Device identifier.
    pub device_id: String,
    /// Owning user account.
    pub user: String,
    /// Current ambient temperature (°C).
    pub ambient_c: f64,
    /// Current setpoint (°C).
    pub target_c: f64,
    /// Hosts allowed to use the API (`None` = open).
    pub allowed: Option<Vec<NodeId>>,
    /// Observers notified of ambient changes and setpoint changes.
    pub observers: Observers,
    /// Setpoint changes applied (for tests/metrics).
    pub setpoint_changes: u64,
}

impl NestThermostat {
    /// Create a thermostat at 21 °C ambient, 20 °C setpoint.
    pub fn new(device_id: impl Into<String>, user: impl Into<String>) -> Self {
        NestThermostat {
            device_id: device_id.into(),
            user: user.into(),
            ambient_c: 21.0,
            target_c: 20.0,
            allowed: None,
            observers: Observers::default(),
            setpoint_changes: 0,
        }
    }

    /// The room temperature changes (harness plays the environment).
    /// Pushes a `temp_changed` event carrying the old and new readings so
    /// services can detect threshold *crossings*, not just levels.
    pub fn set_ambient(&mut self, ctx: &mut Context<'_>, temp_c: f64) {
        let prev = self.ambient_c;
        if (prev - temp_c).abs() < f64::EPSILON {
            return;
        }
        self.ambient_c = temp_c;
        ctx.trace(
            "nest.ambient",
            format_args!("{} {prev:.1} -> {temp_c:.1}", self.device_id),
        );
        let ev = DeviceEvent::new(
            self.device_id.clone(),
            "temp_changed",
            self.user.clone(),
            ctx.now().as_secs_f64() as u64,
        )
        .with_data("prev_c", format!("{prev:.2}"))
        .with_data("temp_c", format!("{temp_c:.2}"));
        self.observers.push(ctx, ev.to_bytes());
    }
}

impl Node for NestThermostat {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        if let Some(allowed) = &self.allowed {
            if !allowed.contains(&req.src) {
                return HandlerResult::Reply(Response::with_status(403));
            }
        }
        match (req.method, req.path.as_str()) {
            (Method::Get, "/nest/state") => HandlerResult::Reply(
                Response::ok().with_body(
                    serde_json::json!({
                        "ambient_c": self.ambient_c,
                        "target_c": self.target_c,
                    })
                    .to_string(),
                ),
            ),
            (Method::Put, "/nest/target") => {
                #[derive(Deserialize)]
                struct Target {
                    temp_c: f64,
                }
                let Ok(t) = serde_json::from_slice::<Target>(&req.body) else {
                    return HandlerResult::Reply(Response::bad_request());
                };
                if !(9.0..=32.0).contains(&t.temp_c) {
                    // The real device clamps to its supported range; we
                    // reject so misconfigured applets are visible.
                    return HandlerResult::Reply(Response::bad_request());
                }
                self.target_c = t.temp_c;
                self.setpoint_changes += 1;
                ctx.trace(
                    "nest.setpoint",
                    format_args!("{} -> {:.1}C", self.device_id, t.temp_c),
                );
                let ev = DeviceEvent::new(
                    self.device_id.clone(),
                    "setpoint_changed",
                    self.user.clone(),
                    ctx.now().as_secs_f64() as u64,
                )
                .with_data("target_c", format!("{:.2}", t.temp_c));
                self.observers.push(ctx, ev.to_bytes());
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
    fn ambient_changes_notify_with_prev_and_new() {
        let mut sim = Sim::new(1);
        let nest = sim.add_node("nest", NestThermostat::new("nest_1", "author"));
        let obs = sim.add_node("obs", Obs::default());
        sim.link(nest, obs, LinkSpec::wan());
        sim.node_mut::<NestThermostat>(nest).observers.add(obs);
        sim.with_node::<NestThermostat, _>(nest, |n, ctx| {
            n.set_ambient(ctx, 26.5);
            n.set_ambient(ctx, 26.5); // no-op duplicate
        });
        sim.run_until_idle();
        let events = &sim.node_ref::<Obs>(obs).events;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].data["prev_c"], "21.00");
        assert_eq!(events[0].data["temp_c"], "26.50");
    }

    #[test]
    fn setpoint_api_applies_in_range_and_rejects_out_of_range() {
        let mut sim = Sim::new(2);
        let nest = sim.add_node("nest", NestThermostat::new("nest_1", "author"));
        let ok = Client::spawn(
            &mut sim,
            nest,
            Request::put("/nest/target").with_body(r#"{"temp_c": 22.5}"#),
            LinkSpec::wan(),
        );
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, ok), Some(200));
        assert_eq!(sim.node_ref::<NestThermostat>(nest).target_c, 22.5);
        let bad = Client::spawn(
            &mut sim,
            nest,
            Request::put("/nest/target").with_body(r#"{"temp_c": 60.0}"#),
            LinkSpec::wan(),
        );
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, bad), Some(400));
        assert_eq!(sim.node_ref::<NestThermostat>(nest).target_c, 22.5);
    }
}
