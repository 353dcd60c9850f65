//! The weather partner service — the paper's §2 motivating applet:
//! "automatically turn your hue lights blue whenever it starts to rain. In
//! this applet, the trigger (raining) is from the weather service…".
//!
//! Backed by a [`crate::weather::WeatherStation`] whose condition changes
//! are pushed to this node (the station must `observe` it).

use crate::events::DeviceEvent;
use crate::service_core::ServiceCore;
use crate::services::{lookup, Partner, PartnerService};
use simnet::prelude::*;
use tap_protocol::service::ServiceEndpoint;
use tap_protocol::wire::TriggerEvent;
use tap_protocol::{FieldMap, TriggerSlug, UserId};

/// Each station push kind and the trigger it feeds.
const FORECASTS: &[(&str, &str)] = &[
    ("weather_rain", "forecast_rain"),
    ("weather_snow", "forecast_snow"),
    ("weather_clear", "forecast_clear"),
];

/// What the weather service adds to the shell.
#[derive(Debug)]
pub struct Weather {
    /// Users subscribed to this weather location (weather is broadcast:
    /// one station event feeds every registered user's subscriptions).
    pub users: Vec<UserId>,
    /// Last condition pushed by the station (served by the
    /// `current_condition` query).
    pub current: String,
}

/// The weather partner-service node.
pub type WeatherService = PartnerService<Weather>;

impl Default for Weather {
    fn default() -> Self {
        Weather {
            users: Vec::new(),
            current: "clear".into(),
        }
    }
}

impl Weather {
    /// Register a user interested in this location's weather.
    pub fn add_user(&mut self, user: UserId) {
        self.users.push(user);
    }
}

impl Partner for Weather {
    fn slug(&self) -> &str {
        "weather_underground"
    }

    fn triggers(&self) -> Vec<&str> {
        FORECASTS.iter().map(|(_, trigger)| *trigger).collect()
    }

    fn queries(&self) -> Vec<&str> {
        vec!["current_condition"]
    }

    /// Read back the latest state.
    fn query(&mut self, _user: &UserId, _query: &str, _fields: FieldMap) -> Response {
        let mut data = FieldMap::new();
        data.insert("condition".into(), self.current.clone());
        ServiceEndpoint::query_ok(data)
    }

    fn device_event(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>, ev: &DeviceEvent) {
        let Some(trigger) = lookup(FORECASTS, &ev.kind) else {
            return;
        };
        self.current = ev.kind.trim_start_matches("weather_").to_owned();
        // Broadcast: one station change fires every user's subscription.
        for user in &self.users {
            let id = core.next_event_id();
            let event =
                TriggerEvent::new(id, ev.at_secs).with_ingredient("condition", &*self.current);
            core.record_event(ctx, &TriggerSlug::new(trigger), user, event, |_| true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weather::{Condition, WeatherStation};
    use tap_protocol::auth::ServiceKey;

    #[test]
    fn rain_feeds_every_subscribed_user() {
        let mut sim = Sim::new(1);
        let station = sim.add_node("weather", WeatherStation::new());
        let svc = sim.add_node(
            "weather_svc",
            WeatherService::new(ServiceKey("sk_w".into()), Weather::default()),
        );
        sim.link(station, svc, LinkSpec::wan());
        sim.node_mut::<WeatherStation>(station).observers.add(svc);
        let (ti_a, ti_b) = sim.with_node::<WeatherService, _>(svc, |s, _| {
            s.vendor.add_user(UserId::new("alice"));
            s.vendor.add_user(UserId::new("bob"));
            (
                s.core.subscribe(
                    UserId::new("alice"),
                    TriggerSlug::new("forecast_rain"),
                    FieldMap::new(),
                ),
                s.core.subscribe(
                    UserId::new("bob"),
                    TriggerSlug::new("forecast_rain"),
                    FieldMap::new(),
                ),
            )
        });
        sim.with_node::<WeatherStation, _>(station, |w, ctx| {
            w.set_condition(ctx, Condition::Rain);
        });
        sim.run_until_idle();
        let s = sim.node_ref::<WeatherService>(svc);
        assert_eq!(s.core.buffer.len(&ti_a), 1);
        assert_eq!(s.core.buffer.len(&ti_b), 1);
        let ev = &s.core.buffer.latest(&ti_a, 1)[0];
        assert_eq!(ev.ingredients["condition"], "rain");
    }

    #[test]
    fn clearing_up_feeds_the_clear_trigger_only() {
        let mut sim = Sim::new(2);
        let station = sim.add_node("weather", WeatherStation::new());
        let svc = sim.add_node(
            "weather_svc",
            WeatherService::new(ServiceKey("sk_w".into()), Weather::default()),
        );
        sim.link(station, svc, LinkSpec::wan());
        sim.node_mut::<WeatherStation>(station).observers.add(svc);
        let (rain_ti, clear_ti) = sim.with_node::<WeatherService, _>(svc, |s, _| {
            s.vendor.add_user(UserId::new("alice"));
            (
                s.core.subscribe(
                    UserId::new("alice"),
                    TriggerSlug::new("forecast_rain"),
                    FieldMap::new(),
                ),
                s.core.subscribe(
                    UserId::new("alice"),
                    TriggerSlug::new("forecast_clear"),
                    FieldMap::new(),
                ),
            )
        });
        sim.with_node::<WeatherStation, _>(station, |w, ctx| {
            w.set_condition(ctx, Condition::Rain);
        });
        sim.run_until_idle();
        sim.with_node::<WeatherStation, _>(station, |w, ctx| {
            w.set_condition(ctx, Condition::Clear);
        });
        sim.run_until_idle();
        let s = sim.node_ref::<WeatherService>(svc);
        assert_eq!(s.core.buffer.len(&rain_ti), 1);
        assert_eq!(s.core.buffer.len(&clear_ti), 1);
    }
}
