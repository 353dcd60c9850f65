//! The Belkin WeMo partner service.
//!
//! Trigger `switch_activated` (applets A1/A2) is fed by state-change pushes
//! from the switch (the device keeps an outbound connection to its vendor
//! cloud); the `turn_on`/`turn_off` actions (applet A6) drive the switch
//! over UPnP, so the switch's allowlist must include this node.

use crate::events::DeviceEvent;
use crate::service_core::ServiceCore;
use crate::services::{feed, lookup, Outcome, Partner, PartnerService};
use crate::wemo;
use simnet::prelude::*;
use std::collections::HashMap;
use tap_protocol::{FieldMap, UserId};

/// Each switch push kind and the trigger it feeds.
const EVENTS: &[(&str, &str)] = &[
    ("switched_on", "switch_activated"),
    ("switched_off", "switch_deactivated"),
];

/// Each action and the relay state it sets.
const ACTIONS: &[(&str, bool)] = &[("turn_on", true), ("turn_off", false)];

/// What the WeMo cloud adds to the shell: the paired switches.
#[derive(Debug, Default)]
pub struct Wemo {
    /// user → switch node.
    switches: HashMap<UserId, NodeId>,
}

/// The WeMo cloud service node.
pub type WemoService = PartnerService<Wemo>;

impl Wemo {
    /// Pair a user's switch. The switch must also observe this node for
    /// trigger pushes, and allowlist it for actions.
    pub fn add_switch(&mut self, user: UserId, switch: NodeId) {
        self.switches.insert(user, switch);
    }
}

impl Partner for Wemo {
    fn slug(&self) -> &str {
        "wemo"
    }

    fn triggers(&self) -> Vec<&str> {
        EVENTS.iter().map(|(_, trigger)| *trigger).collect()
    }

    fn actions(&self) -> Vec<&str> {
        ACTIONS.iter().map(|(action, _)| *action).collect()
    }

    fn action(&mut self, user: &UserId, action: &str, _fields: FieldMap) -> Outcome {
        let Some(&switch) = self.switches.get(user) else {
            return Outcome::Reply(Response::unauthorized());
        };
        let Some(on) = lookup(ACTIONS, action) else {
            return Outcome::Reply(Response::bad_request());
        };
        Outcome::Relay {
            dst: switch,
            req: wemo::set_state_request(on),
            done: "wemo_ok",
        }
    }

    fn device_event(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>, ev: &DeviceEvent) {
        if let Some(trigger) = lookup(EVENTS, &ev.kind) {
            feed(core, ctx, trigger, ev, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_client::{engine_request, Client};
    use crate::wemo::WemoSwitch;
    use tap_protocol::auth::ServiceKey;
    use tap_protocol::wire::{self, PollRequestBody, PollResponseBody};
    use tap_protocol::{TriggerIdentity, TriggerSlug};

    fn setup() -> (Sim, NodeId, NodeId, TriggerIdentity, Str) {
        let mut sim = Sim::new(71);
        let switch = sim.add_node("wemo", WemoSwitch::new("wemo_switch_1", "author"));
        let svc = sim.add_node(
            "wemo_service",
            WemoService::new(ServiceKey("sk_wemo".into()), Wemo::default()),
        );
        sim.link(switch, svc, LinkSpec::wan());
        sim.node_mut::<WemoSwitch>(switch).observers.add(svc);
        sim.node_mut::<WemoSwitch>(switch).allow_only(vec![svc]);
        let (ti, bearer) = sim.with_node::<WemoService, _>(svc, |s, ctx| {
            s.vendor.add_switch(UserId::new("author"), switch);
            let ti = s.core.subscribe(
                UserId::new("author"),
                TriggerSlug::new("switch_activated"),
                FieldMap::new(),
            );
            let bearer = s
                .core
                .endpoint
                .oauth
                .mint_token(UserId::new("author"), ctx.rng())
                .bearer();
            (ti, bearer)
        });
        (sim, switch, svc, ti, bearer)
    }

    #[test]
    fn physical_press_buffers_a_trigger_event() {
        let (mut sim, switch, svc, ti, _) = setup();
        sim.with_node::<WemoSwitch, _>(switch, |s, ctx| s.press(ctx));
        sim.run_until_idle();
        let s = sim.node_ref::<WemoService>(svc);
        assert_eq!(s.core.buffer.len(&ti), 1);
        let events = s.core.buffer.latest(&ti, 50);
        assert_eq!(events[0].ingredients["device"], "wemo_switch_1");
    }

    #[test]
    fn switch_off_feeds_the_deactivated_trigger_only() {
        let (mut sim, switch, svc, ti_on, _) = setup();
        let ti_off = sim.with_node::<WemoService, _>(svc, |s, _| {
            s.core.subscribe(
                UserId::new("author"),
                TriggerSlug::new("switch_deactivated"),
                FieldMap::new(),
            )
        });
        // Press twice: on, then off.
        sim.with_node::<WemoSwitch, _>(switch, |s, ctx| s.press(ctx));
        sim.run_until_idle();
        sim.with_node::<WemoSwitch, _>(switch, |s, ctx| s.press(ctx));
        sim.run_until_idle();
        let s = sim.node_ref::<WemoService>(svc);
        assert_eq!(s.core.buffer.len(&ti_on), 1);
        assert_eq!(s.core.buffer.len(&ti_off), 1);
    }

    #[test]
    fn engine_poll_returns_buffered_events() {
        let (mut sim, switch, svc, ti, bearer) = setup();
        sim.with_node::<WemoSwitch, _>(switch, |s, ctx| s.press(ctx));
        sim.run_until_idle();
        let poll = PollRequestBody {
            trigger_identity: ti,
            trigger_fields: FieldMap::new(),
            user: UserId::new("author"),
            limit: 50,
        };
        // Poll the service like the engine would: the event comes back on
        // the wire.
        let req = engine_request(
            "/ifttt/v1/triggers/switch_activated".into(),
            "sk_wemo",
            &bearer,
            wire::to_bytes(&poll),
        );
        let poller = Client::spawn(&mut sim, svc, req, LinkSpec::wan());
        sim.run_until_idle();
        let resp = sim.node_ref::<Client>(poller).response.as_ref().unwrap();
        let body: PollResponseBody = wire::from_bytes(&resp.body).unwrap();
        assert_eq!(body.data.len(), 1);
    }
}
