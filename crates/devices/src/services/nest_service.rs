//! The Nest partner service (a Table 3 anchor on both the trigger and the
//! action side).
//!
//! Triggers are threshold *crossings* with per-applet threshold fields —
//! `temperature_rises_above` fires for a subscription exactly when the
//! ambient reading moves from below its `threshold` field to at or above
//! it. This is the one service where trigger-field predicates do real
//! work (most IFTTT triggers are parameterless events).

use crate::events::DeviceEvent;
use crate::service_core::ServiceCore;
use crate::services::{Outcome, Partner, PartnerService};
use simnet::prelude::*;
use std::collections::HashMap;
use tap_protocol::wire::TriggerEvent;
use tap_protocol::{FieldMap, TriggerSlug, UserId};

/// Whether a reading moving `prev → now` crosses `threshold` one way.
type Crosses = fn(f64, f64, f64) -> bool;

/// Each trigger and the crossing that fires it.
const CROSSINGS: &[(&str, Crosses)] = &[
    ("temperature_rises_above", |prev, now, thr| {
        prev < thr && now >= thr
    }),
    ("temperature_drops_below", |prev, now, thr| {
        prev > thr && now <= thr
    }),
];

/// What the Nest cloud adds to the shell: the paired thermostats.
#[derive(Debug, Default)]
pub struct Nest {
    /// user → thermostat node.
    thermostats: HashMap<UserId, NodeId>,
}

/// The Nest cloud service node.
pub type NestService = PartnerService<Nest>;

impl Nest {
    /// Pair a user's thermostat (it must observe this node, and its
    /// allowlist must include it).
    pub fn add_thermostat(&mut self, user: UserId, node: NodeId) {
        self.thermostats.insert(user, node);
    }
}

impl Partner for Nest {
    fn slug(&self) -> &str {
        "nest_thermostat"
    }

    fn triggers(&self) -> Vec<&str> {
        CROSSINGS.iter().map(|(trigger, _)| *trigger).collect()
    }

    fn actions(&self) -> Vec<&str> {
        vec!["set_temperature"]
    }

    fn action(&mut self, user: &UserId, _action: &str, fields: FieldMap) -> Outcome {
        let Some(&node) = self.thermostats.get(user) else {
            return Outcome::Reply(Response::unauthorized());
        };
        let temp: f64 = fields
            .get("temp_c")
            .and_then(|v| v.parse().ok())
            .unwrap_or(20.0);
        Outcome::Relay {
            dst: node,
            req: Request::put("/nest/target")
                .with_body(serde_json::json!({ "temp_c": temp }).to_string()),
            done: "nest_ok",
        }
    }

    fn device_event(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>, ev: &DeviceEvent) {
        if ev.kind != "temp_changed" {
            return;
        }
        let (Some(prev), Some(now)) = (
            ev.data.get("prev_c").and_then(|v| v.parse::<f64>().ok()),
            ev.data.get("temp_c").and_then(|v| v.parse::<f64>().ok()),
        ) else {
            return;
        };
        let user = UserId::new(ev.user.clone());
        for (trigger, crosses) in CROSSINGS {
            let id = core.next_event_id();
            let event = TriggerEvent::new(id, ev.at_secs)
                .with_ingredient("temp_c", format!("{now:.2}"))
                .with_ingredient("device", ev.device.clone());
            core.record_event(ctx, &TriggerSlug::new(*trigger), &user, event, |fields| {
                fields
                    .get("threshold")
                    .and_then(|v| v.parse::<f64>().ok())
                    .is_some_and(|thr| crosses(prev, now, thr))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::NestThermostat;
    use tap_protocol::auth::ServiceKey;
    use tap_protocol::TriggerIdentity;

    fn world() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(5);
        let nest = sim.add_node("nest", NestThermostat::new("nest_1", "author"));
        let svc = sim.add_node(
            "nest_svc",
            NestService::new(ServiceKey("sk_n".into()), Nest::default()),
        );
        sim.link(nest, svc, LinkSpec::wan());
        sim.node_mut::<NestThermostat>(nest).observers.add(svc);
        sim.with_node::<NestService, _>(svc, |s, _| {
            s.vendor.add_thermostat(UserId::new("author"), nest);
        });
        (sim, nest, svc)
    }

    fn sub(sim: &mut Sim, svc: NodeId, trigger: &str, threshold: f64) -> TriggerIdentity {
        sim.with_node::<NestService, _>(svc, |s, _| {
            let mut fields = FieldMap::new();
            fields.insert("threshold".into(), threshold.to_string());
            s.core
                .subscribe(UserId::new("author"), TriggerSlug::new(trigger), fields)
        })
    }

    #[test]
    fn rising_crossing_fires_only_matching_thresholds() {
        let (mut sim, nest, svc) = world();
        let t25 = sub(&mut sim, svc, "temperature_rises_above", 25.0);
        let t30 = sub(&mut sim, svc, "temperature_rises_above", 30.0);
        // 21 → 27: crosses 25, not 30.
        sim.with_node::<NestThermostat, _>(nest, |n, ctx| n.set_ambient(ctx, 27.0));
        sim.run_until_idle();
        let s = sim.node_ref::<NestService>(svc);
        assert_eq!(s.core.buffer.len(&t25), 1);
        assert!(s.core.buffer.is_empty(&t30));
        let ev = &s.core.buffer.latest(&t25, 1)[0];
        assert_eq!(ev.ingredients["temp_c"], "27.00");
    }

    #[test]
    fn hovering_above_the_threshold_does_not_refire() {
        let (mut sim, nest, svc) = world();
        let t25 = sub(&mut sim, svc, "temperature_rises_above", 25.0);
        for temp in [27.0, 28.0, 26.0, 29.5] {
            sim.with_node::<NestThermostat, _>(nest, |n, ctx| n.set_ambient(ctx, temp));
            sim.run_until_idle();
        }
        // Only the first change crossed 25 from below.
        assert_eq!(sim.node_ref::<NestService>(svc).core.buffer.len(&t25), 1);
    }

    #[test]
    fn falling_crossing_fires_the_drop_trigger() {
        let (mut sim, nest, svc) = world();
        let rise = sub(&mut sim, svc, "temperature_rises_above", 18.0);
        let drop = sub(&mut sim, svc, "temperature_drops_below", 18.0);
        sim.with_node::<NestThermostat, _>(nest, |n, ctx| n.set_ambient(ctx, 15.0));
        sim.run_until_idle();
        let s = sim.node_ref::<NestService>(svc);
        assert!(s.core.buffer.is_empty(&rise));
        assert_eq!(s.core.buffer.len(&drop), 1);
    }

    #[test]
    fn oscillation_fires_on_every_crossing() {
        let (mut sim, nest, svc) = world();
        let t25 = sub(&mut sim, svc, "temperature_rises_above", 25.0);
        for temp in [26.0, 24.0, 26.0, 24.0, 26.0] {
            sim.with_node::<NestThermostat, _>(nest, |n, ctx| n.set_ambient(ctx, temp));
            sim.run_until_idle();
        }
        assert_eq!(sim.node_ref::<NestService>(svc).core.buffer.len(&t25), 3);
    }
}
