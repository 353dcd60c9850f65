//! A weather backend.
//!
//! Powers the classic IFTTT applet of §2 ("automatically turn your hue
//! lights blue whenever it starts to rain"): holds the current condition,
//! answers REST queries, and pushes condition changes to observers.

use crate::events::{DeviceEvent, Observers};
use serde::{Deserialize, Serialize};
use simnet::prelude::*;

/// Weather conditions the backend reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Condition {
    Clear,
    Cloudy,
    Rain,
    Snow,
}

impl Condition {
    /// Stable textual name (matches the serde rendering).
    pub fn as_str(self) -> &'static str {
        match self {
            Condition::Clear => "clear",
            Condition::Cloudy => "cloudy",
            Condition::Rain => "rain",
            Condition::Snow => "snow",
        }
    }
}

/// The weather service backend node.
#[derive(Debug)]
pub struct WeatherStation {
    /// Current condition.
    pub condition: Condition,
    /// Observers notified on every change.
    pub observers: Observers,
    /// Number of condition changes (for tests).
    pub changes: u64,
}

impl Default for WeatherStation {
    fn default() -> Self {
        WeatherStation {
            condition: Condition::Clear,
            observers: Observers::default(),
            changes: 0,
        }
    }
}

impl WeatherStation {
    /// Create a station reporting clear weather.
    pub fn new() -> Self {
        WeatherStation::default()
    }

    /// Change the weather (the experiment harness plays god).
    pub fn set_condition(&mut self, ctx: &mut Context<'_>, c: Condition) {
        if self.condition == c {
            return;
        }
        self.condition = c;
        self.changes += 1;
        ctx.trace("weather.change", format_args!("{}", c.as_str()));
        let ev = DeviceEvent::new(
            "weather",
            format!("weather_{}", c.as_str()),
            "*",
            ctx.now().as_secs_f64() as u64,
        );
        self.observers.push(ctx, ev.to_bytes());
    }
}

impl Node for WeatherStation {
    fn on_request(&mut self, _ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        if req.path == "/v1/current" && req.method == Method::Get {
            let body = serde_json::json!({ "condition": self.condition });
            HandlerResult::Reply(Response::ok().with_body(body.to_string()))
        } else {
            HandlerResult::Reply(Response::not_found())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_client::Client;
    use bytes::Bytes;

    #[test]
    fn set_condition_dedups_and_counts() {
        let mut sim = Sim::new(1);
        let w = sim.add_node("weather", WeatherStation::new());
        sim.with_node::<WeatherStation, _>(w, |s, ctx| {
            s.set_condition(ctx, Condition::Rain);
            s.set_condition(ctx, Condition::Rain);
            s.set_condition(ctx, Condition::Clear);
        });
        assert_eq!(sim.node_ref::<WeatherStation>(w).changes, 2);
    }

    #[test]
    fn observers_learn_of_rain() {
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
        let mut sim = Sim::new(2);
        let w = sim.add_node("weather", WeatherStation::new());
        let obs = sim.add_node("obs", Obs::default());
        sim.link(w, obs, LinkSpec::wan());
        sim.node_mut::<WeatherStation>(w).observers.add(obs);
        sim.with_node::<WeatherStation, _>(w, |s, ctx| s.set_condition(ctx, Condition::Rain));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Obs>(obs).kinds, vec!["weather_rain"]);
    }

    #[test]
    fn rest_api_reports_condition() {
        let mut sim = Sim::new(3);
        let w = sim.add_node("weather", WeatherStation::new());
        let g = Client::spawn(&mut sim, w, Request::get("/v1/current"), LinkSpec::wan());
        sim.run_until_idle();
        let resp = sim.node_ref::<Client>(g).response.as_ref().unwrap();
        assert!(String::from_utf8_lossy(&resp.body).contains("clear"));
    }
}
