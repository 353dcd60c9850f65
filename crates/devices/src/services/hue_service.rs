//! The official Philips Hue partner service (❻ in Figure 1).
//!
//! "For the official Hue service, it can directly talk to the hub using a
//! proprietary protocol so the path is Hue Lamp – Hue Hub – Gateway Router
//! – Hue Service" (§2.1). The hub's allowlist must therefore include this
//! node (vendor pairing), unlike arbitrary WAN hosts.

use crate::hue::{self, StateChange};
use crate::services::{lookup, Outcome, Partner, PartnerService};
use simnet::prelude::*;
use std::collections::HashMap;
use tap_protocol::{FieldMap, UserId};

/// Map an IFTTT color-field value to a Hue angle.
pub fn color_to_hue(color: &str) -> u16 {
    match color.to_ascii_lowercase().as_str() {
        "red" => 0,
        "orange" => 5461,
        "yellow" => 10922,
        "green" => 25500,
        "blue" => 46920,
        "purple" => 50000,
        "pink" => 56100,
        _ => 8418, // warm white
    }
}

/// The lamp change an action asks for, given its fields.
type Asks = fn(&FieldMap) -> StateChange;

/// Each action and the change it asks for.
const ACTIONS: &[(&str, Asks)] = &[
    ("turn_on_lights", |_| StateChange::On(true)),
    ("turn_off_lights", |_| StateChange::On(false)),
    ("blink_lights", |_| StateChange::Blink),
    ("change_color", |fields| {
        let color = fields.get("color").map_or("white", String::as_str);
        StateChange::Color(color_to_hue(color))
    }),
];

/// Where one user's lights live.
#[derive(Debug, Clone)]
pub struct HueAccount {
    /// The user's bridge node.
    pub hub: NodeId,
    /// Bridge API username.
    pub username: String,
    /// The lamp the service controls by default.
    pub lamp_device: String,
}

/// What the Hue cloud adds to the shell: the paired bridges.
#[derive(Debug, Default)]
pub struct Hue {
    accounts: HashMap<UserId, HueAccount>,
}

/// The official Hue cloud service node.
pub type HueService = PartnerService<Hue>;

impl Hue {
    /// Pair a user's bridge with the service.
    pub fn add_account(&mut self, user: UserId, account: HueAccount) {
        self.accounts.insert(user, account);
    }
}

impl Partner for Hue {
    fn slug(&self) -> &str {
        "philips_hue"
    }

    fn actions(&self) -> Vec<&str> {
        ACTIONS.iter().map(|(action, _)| *action).collect()
    }

    fn action(&mut self, user: &UserId, action: &str, fields: FieldMap) -> Outcome {
        let Some(account) = self.accounts.get(user) else {
            return Outcome::Reply(
                Response::unauthorized().with_body(r#"{"errors":[{"message":"no hue account"}]}"#),
            );
        };
        let Some(change) = lookup(ACTIONS, action) else {
            return Outcome::Reply(Response::bad_request());
        };
        let lamp = fields.get("lights").unwrap_or(&account.lamp_device);
        Outcome::Relay {
            dst: account.hub,
            req: hue::state_request(&account.username, lamp, change(&fields)),
            done: "hue_ok",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hue::{install_hue, HueLamp};
    use crate::test_client::{action_request, Client};
    use tap_protocol::auth::ServiceKey;

    /// A Hue home paired with the service, plus one engine-style client
    /// sending `action` for `user` with a valid token.
    fn setup(action: &str, user: &str, fields: FieldMap) -> (Sim, NodeId, NodeId, NodeId) {
        let mut sim = Sim::new(61);
        let (hub, lamps) = install_hue(&mut sim, "hueuser", "author", 1);
        let svc = sim.add_node(
            "hue_service",
            HueService::new(ServiceKey("sk_hue".into()), Hue::default()),
        );
        let router = sim.add_node("router", Passive);
        sim.link(hub, router, LinkSpec::lan());
        sim.link(router, svc, LinkSpec::wan());
        // Vendor pairing: hub accepts the official cloud (via the router)
        // — in simnet terms, requests arrive with src = the service node.
        sim.node_mut::<crate::hue::HueHub>(hub)
            .allow_only(vec![svc]);
        let bearer = sim.with_node::<HueService, _>(svc, |s, ctx| {
            s.vendor.add_account(
                UserId::new("author"),
                HueAccount {
                    hub,
                    username: "hueuser".into(),
                    lamp_device: "hue_lamp_1".into(),
                },
            );
            let oauth = &mut s.core.endpoint.oauth;
            oauth.mint_token(UserId::new(user), ctx.rng()).bearer()
        });
        let req = action_request(action, "sk_hue", &bearer, user, fields);
        let engine = Client::spawn(&mut sim, svc, req, LinkSpec::wan());
        (sim, svc, lamps[0], engine)
    }

    struct Passive;
    impl Node for Passive {}

    #[test]
    fn turn_on_action_reaches_the_lamp() {
        let (mut sim, svc, lamp, engine) = setup("turn_on_lights", "author", FieldMap::new());
        sim.run_until_idle();
        assert!(sim.node_ref::<HueLamp>(lamp).state.on);
        assert_eq!(Client::status(&sim, engine), Some(200));
        assert_eq!(sim.node_ref::<HueService>(svc).actions_done, 1);
        // Latency: WAN + hub + radio round trips — tens of ms, well under 1 s.
        let at = sim.node_ref::<Client>(engine).at.unwrap();
        assert!(at < SimTime::from_secs(1));
    }

    #[test]
    fn change_color_sets_the_requested_hue() {
        let mut fields = FieldMap::new();
        fields.insert("color".into(), "blue".into());
        let (mut sim, _, lamp, engine) = setup("change_color", "author", fields);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<HueLamp>(lamp).state.hue, 46920);
        assert_eq!(Client::status(&sim, engine), Some(200));
    }

    #[test]
    fn unknown_action_is_404() {
        // "dance" is not declared on the endpoint → protocol-level 404.
        let (mut sim, _, _, engine) = setup("dance", "author", FieldMap::new());
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, engine), Some(404));
    }

    #[test]
    fn user_without_account_is_401() {
        // A valid token for a user who never paired a bridge.
        let (mut sim, _, lamp, engine) = setup("turn_on_lights", "stranger", FieldMap::new());
        sim.run_until_idle();
        assert_eq!(Client::status(&sim, engine), Some(401));
        assert!(!sim.node_ref::<HueLamp>(lamp).state.on);
    }

    #[test]
    fn color_names_map_to_hue_angles() {
        assert_eq!(color_to_hue("blue"), 46920);
        assert_eq!(color_to_hue("RED"), 0);
        assert_eq!(color_to_hue("green"), 25500);
        assert_eq!(color_to_hue("taupe"), 8418);
    }
}
