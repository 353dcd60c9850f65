//! "Our Service" — the authors' self-implemented IFTTT partner service ❺.
//!
//! §2.1: "For each of the above smart devices and web apps, our service
//! leverages its API to get and set its states … our testbed uses the push
//! approach for IoT devices and the polling approach for web apps."
//!
//! Northbound it speaks the full partner protocol (including, optionally,
//! the realtime API, which experiments showed "brings no performance
//! impact"). Southbound it receives IoT device events pushed by the
//! [`crate::proxy::LocalProxy`], polls the Google backend for web-app
//! events, and executes actions either through the proxy (IoT) or the
//! Google API (web apps).
//!
//! Used by experiments E1 (trigger service replaced), E2 (trigger and
//! action services replaced), and E3 (engine replaced too).

use crate::events::{DeviceCommand, DeviceEvent};
use crate::google;
use crate::proxy::{ProxyCommand, COMMAND_PATH, EVENTS_PATH};
use crate::service_core::ServiceCore;
use crate::services::{feed, lookup, pushed, Outcome, Partner, PartnerService, PendingReplies};
use serde::Deserialize;
use simnet::prelude::*;
use std::collections::BTreeMap;
use tap_protocol::wire::TriggerEvent;
use tap_protocol::{FieldMap, TriggerSlug, UserId};

/// Each device push kind (forwarded by the proxy) and the trigger it feeds.
const IOT_EVENTS: &[(&str, &str)] = &[
    ("switched_on", "wemo_switched_on"),
    ("light_on", "hue_light_on"),
    ("st_active", "st_motion"),
];
/// The web-app trigger, fed by polling the Gmail backend.
const ANY_NEW_EMAIL: &str = "any_new_email";

/// Each IoT action with the device it drives by default and the proxy
/// operation it runs there.
const IOT_ACTIONS: &[(&str, (&str, &str))] = &[
    ("hue_turn_on", ("hue_lamp_1", "turn_on")),
    ("hue_turn_off", ("hue_lamp_1", "turn_off")),
    ("hue_blink", ("hue_lamp_1", "blink")),
    ("wemo_turn_on", ("wemo_switch_1", "turn_on")),
    ("wemo_turn_off", ("wemo_switch_1", "turn_off")),
];
/// The web-app actions, run against the Google API.
const ADD_ROW: &str = "add_row";
const SAVE_FILE: &str = "save_file";

const TIMER_GMAIL_POLL: TimerKey = 1;
/// Token tag for backend Gmail polls (high bit set to stay clear of the
/// shell's relay tokens, which count up from 1).
const TOKEN_GMAIL_POLL: u64 = 1 << 63;

/// What the authors' service adds to the shell.
#[derive(Debug)]
pub struct Ours {
    /// The home local proxy (for IoT triggers and actions).
    pub proxy: Option<NodeId>,
    /// The Google backend (for web-app triggers and actions).
    pub google: Option<NodeId>,
    /// Gmail accounts to poll: user → last seen sequence number. Ordered,
    /// so a poll round sends (and draws link delays) in the same order on
    /// every run.
    gmail_cursors: BTreeMap<String, u64>,
    /// Backend polls in flight, by the user each one asked about.
    gmail_polls: PendingReplies<String>,
    /// Backend polling interval for web apps (the paper's testbed polls).
    pub backend_poll: SimDuration,
    /// Device events received from the proxy.
    pub device_events: u64,
}

/// The authors' service node.
pub type OurService = PartnerService<Ours>;

impl Default for Ours {
    fn default() -> Self {
        Ours {
            proxy: None,
            google: None,
            gmail_cursors: BTreeMap::new(),
            gmail_polls: PendingReplies::default(),
            backend_poll: SimDuration::from_secs(5),
            device_events: 0,
        }
    }
}

impl Ours {
    /// Register a Gmail account to poll for `any_new_email`.
    pub fn watch_gmail(&mut self, user: impl Into<String>) {
        self.gmail_cursors.insert(user.into(), 0);
    }

    fn poll_gmail(&mut self, ctx: &mut Context<'_>) {
        let Some(google) = self.google else { return };
        for (user, cursor) in &self.gmail_cursors {
            let req = Request::get(format!("/gmail/{user}/messages/{cursor}"));
            let token = self.gmail_polls.track(user.clone());
            ctx.send_request(
                google,
                req,
                Token(TOKEN_GMAIL_POLL | token.0),
                RequestOpts::timeout_secs(10),
            );
        }
    }

    fn on_gmail_poll_response(
        &mut self,
        core: &mut ServiceCore,
        ctx: &mut Context<'_>,
        user: String,
        resp: Response,
    ) {
        #[derive(Deserialize)]
        struct Messages {
            messages: Vec<google::Email>,
        }
        let Ok(m) = serde_json::from_slice::<Messages>(&resp.body) else {
            return;
        };
        let Some(cursor) = self.gmail_cursors.get_mut(&user) else {
            return;
        };
        let uid = UserId::new(user.clone());
        for email in &m.messages {
            *cursor = (*cursor).max(email.seq);
            let id = format!("{}_mail_{user}_{}", core.endpoint.slug(), email.seq);
            let event = TriggerEvent::new(id, ctx.now().as_secs_f64() as u64)
                .with_ingredient("subject", email.subject.clone())
                .with_ingredient("from", email.from.clone());
            core.record_event(ctx, &TriggerSlug::new(ANY_NEW_EMAIL), &uid, event, |_| true);
        }
    }
}

impl Partner for Ours {
    fn slug(&self) -> &str {
        "our_service"
    }

    fn triggers(&self) -> Vec<&str> {
        let iot = IOT_EVENTS.iter().map(|(_, trigger)| *trigger);
        iot.chain([ANY_NEW_EMAIL]).collect()
    }

    fn actions(&self) -> Vec<&str> {
        let iot = IOT_ACTIONS.iter().map(|(action, _)| *action);
        iot.chain([ADD_ROW, SAVE_FILE]).collect()
    }

    /// IoT actions go through the proxy; web actions to Google.
    fn action(&mut self, user: &UserId, action: &str, fields: FieldMap) -> Outcome {
        let (node, req) = if let Some((default_device, op)) = lookup(IOT_ACTIONS, action) {
            let device = fields.get("device").map_or(default_device, String::as_str);
            let command = ProxyCommand {
                command: DeviceCommand::new(device, op),
            };
            let body = serde_json::to_vec(&command).expect("serializes");
            (self.proxy, Request::post(COMMAND_PATH).with_body(body))
        } else if action == ADD_ROW {
            (self.google, google::add_row_request(&user.0, &fields))
        } else if action == SAVE_FILE {
            let req = google::save_file_request(&user.0, &fields, "file");
            (self.google, req)
        } else {
            return Outcome::Reply(Response::bad_request());
        };
        match node {
            Some(dst) => Outcome::Relay {
                dst,
                req,
                done: "our_ok",
            },
            None => Outcome::Reply(Response::unavailable()),
        }
    }

    fn device_event(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>, ev: &DeviceEvent) {
        self.device_events += 1;
        if let Some(trigger) = lookup(IOT_EVENTS, &ev.kind) {
            feed(core, ctx, trigger, ev, true);
        }
    }

    /// Northbound proxy protocol: device events pushed up from the home.
    fn intercept(
        &mut self,
        core: &mut ServiceCore,
        ctx: &mut Context<'_>,
        req: &Request,
    ) -> Option<Response> {
        if req.path != EVENTS_PATH || req.method != Method::Post {
            return None;
        }
        Some(if pushed(self, core, ctx, &req.body) {
            Response::ok()
        } else {
            Response::bad_request()
        })
    }

    fn start(&mut self, _core: &mut ServiceCore, ctx: &mut Context<'_>) {
        if self.google.is_some() && !self.gmail_cursors.is_empty() {
            ctx.set_timer(self.backend_poll, TIMER_GMAIL_POLL);
        }
    }

    fn timer(&mut self, _core: &mut ServiceCore, ctx: &mut Context<'_>, key: TimerKey) {
        if key == TIMER_GMAIL_POLL {
            self.poll_gmail(ctx);
            ctx.set_timer(self.backend_poll, TIMER_GMAIL_POLL);
        }
    }

    fn response(
        &mut self,
        core: &mut ServiceCore,
        ctx: &mut Context<'_>,
        token: Token,
        resp: Response,
    ) {
        if token.0 & TOKEN_GMAIL_POLL == 0 {
            return;
        }
        // A realtime hint's `u64::MAX` tag has the poll bit too; what is
        // left of it is no poll's token, so it resolves to nothing.
        let polled = self.gmail_polls.resolve(Token(token.0 & !TOKEN_GMAIL_POLL));
        if let (Some(user), true) = (polled, resp.is_success()) {
            self.on_gmail_poll_response(core, ctx, user, resp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::google::GoogleCloud;
    use crate::hue::{install_hue, HueLamp};
    use crate::proxy::{DeviceRoute, LocalProxy};
    use crate::test_client::{action_request, Client};
    use crate::wemo::WemoSwitch;
    use tap_protocol::auth::ServiceKey;
    use tap_protocol::TriggerIdentity;

    /// Full home + lab assembly mirroring Figure 1 with Our Service.
    struct World {
        sim: Sim,
        switch: NodeId,
        lamp: NodeId,
        svc: NodeId,
        google: NodeId,
    }

    fn world() -> World {
        let mut sim = Sim::new(101);
        let (hub, lamps) = install_hue(&mut sim, "hueuser", "author", 1);
        let switch = sim.add_node("wemo", WemoSwitch::new("wemo_switch_1", "author"));
        let proxy = sim.add_node("proxy", LocalProxy::new());
        let google = sim.add_node("google", GoogleCloud::new());
        let svc = sim.add_node(
            "our_service",
            OurService::new(ServiceKey("sk_ours".into()), Ours::default()),
        );
        sim.link(hub, proxy, LinkSpec::lan());
        sim.link(switch, proxy, LinkSpec::lan());
        sim.link(proxy, svc, LinkSpec::wan());
        sim.link(svc, google, LinkSpec::wan());
        sim.node_mut::<crate::hue::HueHub>(hub)
            .allow_only(vec![proxy]);
        sim.node_mut::<WemoSwitch>(switch).allow_only(vec![proxy]);
        sim.node_mut::<crate::hue::HueHub>(hub).observers.add(proxy);
        sim.node_mut::<WemoSwitch>(switch).observers.add(proxy);
        {
            let p = sim.node_mut::<LocalProxy>(proxy);
            p.set_upstream(svc);
            p.register(
                "hue_lamp_1",
                DeviceRoute::HueLamp {
                    hub,
                    username: "hueuser".into(),
                },
            );
            p.register("wemo_switch_1", DeviceRoute::Wemo { node: switch });
        }
        {
            let s = &mut sim.node_mut::<OurService>(svc).vendor;
            s.proxy = Some(proxy);
            s.google = Some(google);
        }
        World {
            sim,
            switch,
            lamp: lamps[0],
            svc,
            google,
        }
    }

    #[test]
    fn switch_press_feeds_the_wemo_trigger_within_a_second() {
        let mut w = world();
        let ti = w.sim.with_node::<OurService, _>(w.svc, |s, _| {
            s.core.subscribe(
                UserId::new("author"),
                TriggerSlug::new("wemo_switched_on"),
                FieldMap::new(),
            )
        });
        w.sim
            .with_node::<WemoSwitch, _>(w.switch, |s, ctx| s.press(ctx));
        w.sim.run_until_idle();
        let s = w.sim.node_ref::<OurService>(w.svc);
        assert_eq!(s.core.buffer.len(&ti), 1);
        assert_eq!(s.vendor.device_events, 1);
        // Paper's Table 5: the service learns of the event in well under 1 s.
        let learned = w
            .sim
            .trace()
            .first("partner_service.device_event")
            .expect("event traced")
            .at;
        assert!(learned < SimTime::from_secs(1), "learned at {learned}");
    }

    fn send_action(w: &mut World, action: &str, fields: FieldMap) -> Option<u16> {
        let bearer = w.sim.with_node::<OurService, _>(w.svc, |s, ctx| {
            s.core
                .endpoint
                .oauth
                .mint_token(UserId::new("author"), ctx.rng())
                .bearer()
        });
        let req = action_request(action, "sk_ours", &bearer, "author", fields);
        let sender = Client::spawn(&mut w.sim, w.svc, req, LinkSpec::wan());
        w.sim.run_until_idle();
        Client::status(&w.sim, sender)
    }

    #[test]
    fn hue_turn_on_action_reaches_lamp_through_proxy() {
        let mut w = world();
        assert_eq!(
            send_action(&mut w, "hue_turn_on", FieldMap::new()),
            Some(200)
        );
        assert!(w.sim.node_ref::<HueLamp>(w.lamp).state.on);
        assert_eq!(w.sim.node_ref::<OurService>(w.svc).actions_done, 1);
    }

    #[test]
    fn add_row_action_reaches_google() {
        let mut w = world();
        let mut fields = FieldMap::new();
        fields.insert("spreadsheet".into(), "log".into());
        fields.insert("row".into(), "a|||b".into());
        assert_eq!(send_action(&mut w, "add_row", fields), Some(200));
        let sheet = w
            .sim
            .node_ref::<GoogleCloud>(w.google)
            .sheet("author", "log")
            .unwrap();
        assert_eq!(sheet.rows.len(), 1);
    }

    #[test]
    fn gmail_backend_polling_discovers_new_mail() {
        let mut w = world();
        let ti: TriggerIdentity = w.sim.with_node::<OurService, _>(w.svc, |s, _| {
            s.vendor.watch_gmail("author");
            s.core.subscribe(
                UserId::new("author"),
                TriggerSlug::new("any_new_email"),
                FieldMap::new(),
            )
        });
        // Restart the polling timer (service already started without watch).
        w.sim.with_node::<OurService, _>(w.svc, |s, ctx| {
            ctx.set_timer(s.vendor.backend_poll, TIMER_GMAIL_POLL);
        });
        w.sim.with_node::<GoogleCloud, _>(w.google, |g, ctx| {
            g.deliver_email(ctx, "author", "x@y", "hello", "", None);
        });
        // One backend poll interval (5 s) plus slack.
        w.sim.run_until(SimTime::from_secs(12));
        let s = w.sim.node_ref::<OurService>(w.svc);
        assert_eq!(s.core.buffer.len(&ti), 1);
        let events = s.core.buffer.latest(&ti, 10);
        assert_eq!(events[0].ingredients["subject"], "hello");
    }

    #[test]
    fn gmail_cursor_prevents_duplicate_events() {
        let mut w = world();
        let ti = w.sim.with_node::<OurService, _>(w.svc, |s, _| {
            s.vendor.watch_gmail("author");
            s.core.subscribe(
                UserId::new("author"),
                TriggerSlug::new("any_new_email"),
                FieldMap::new(),
            )
        });
        w.sim.with_node::<OurService, _>(w.svc, |s, ctx| {
            ctx.set_timer(s.vendor.backend_poll, TIMER_GMAIL_POLL);
        });
        w.sim.with_node::<GoogleCloud, _>(w.google, |g, ctx| {
            g.deliver_email(ctx, "author", "x@y", "one", "", None);
        });
        // Let several poll rounds pass: the single email must appear once.
        w.sim.run_until(SimTime::from_secs(30));
        assert_eq!(w.sim.node_ref::<OurService>(w.svc).core.buffer.len(&ti), 1);
    }

    #[test]
    fn action_without_proxy_is_503() {
        let mut w = world();
        w.sim.node_mut::<OurService>(w.svc).vendor.proxy = None;
        assert_eq!(
            send_action(&mut w, "hue_turn_on", FieldMap::new()),
            Some(503)
        );
    }

    /// Eight watched accounts with one mail each, polled once. Returns
    /// what a run shows: events processed, each account's buffered event
    /// ids, and when each mail was recorded (which moves with the order
    /// the polls were sent in, since link delays are drawn per send).
    fn eight_accounts(seed: u64) -> (u64, Vec<Vec<String>>, Vec<(SimTime, String)>) {
        let mut sim = Sim::new(seed);
        let google = sim.add_node("google", GoogleCloud::new());
        let mut ours = Ours {
            google: Some(google),
            ..Ours::default()
        };
        let users: Vec<String> = (0..8).map(|i| format!("user_{i}")).collect();
        for user in &users {
            ours.watch_gmail(user.clone());
        }
        let ours = OurService::new(ServiceKey("sk_ours".into()), ours);
        let svc = sim.add_node("our_service", ours);
        sim.link(svc, google, LinkSpec::wan());
        let tis: Vec<TriggerIdentity> = sim.with_node::<OurService, _>(svc, |s, _| {
            let trigger = TriggerSlug::new("any_new_email");
            let subscribe = |u: &String| {
                s.core
                    .subscribe(UserId::new(u.clone()), trigger.clone(), FieldMap::new())
            };
            users.iter().map(subscribe).collect()
        });
        sim.with_node::<GoogleCloud, _>(google, |g, ctx| {
            for u in &users {
                g.deliver_email(ctx, u, "x@y", &format!("for {u}"), "", None);
            }
        });
        sim.run_until(SimTime::from_secs(8));
        let s = sim.node_ref::<OurService>(svc);
        let ids = |ti: &TriggerIdentity| {
            let events = s.core.buffer.latest(ti, 10);
            events.iter().map(|e| e.meta.id.clone()).collect()
        };
        let recorded = sim.trace().events().iter();
        let recorded = recorded.filter(|e| e.kind == "service.event");
        (
            sim.events_processed(),
            tis.iter().map(ids).collect(),
            recorded.map(|e| (e.at, e.detail.clone())).collect(),
        )
    }

    #[test]
    fn eight_watched_accounts_poll_in_the_same_order_every_run() {
        let a = eight_accounts(7);
        assert_eq!(a, eight_accounts(7));
        // And every account got its own mail, not a neighbour's.
        assert_eq!(a.2.len(), 8);
        for (i, ids) in a.1.iter().enumerate() {
            assert_eq!(ids, &[format!("our_service_mail_user_{i}_1")]);
        }
    }

    #[test]
    fn watching_another_account_mid_poll_does_not_misattribute_mail() {
        let mut w = world();
        let ti = w.sim.with_node::<OurService, _>(w.svc, |s, _| {
            s.vendor.watch_gmail("author");
            let trigger = TriggerSlug::new("any_new_email");
            s.core
                .subscribe(UserId::new("author"), trigger, FieldMap::new())
        });
        w.sim.with_node::<GoogleCloud, _>(w.google, |g, ctx| {
            g.deliver_email(ctx, "author", "x@y", "hello", "", None);
        });
        // Run to just after the first poll leaves (5 s) and, while its
        // response is still in flight, watch accounts that sort before it.
        w.sim.run_until(SimTime::from_secs(5));
        let s = w.sim.node_mut::<OurService>(w.svc);
        assert_eq!(s.vendor.gmail_polls.len(), 1, "poll in flight");
        for early in ["aaa", "aab", "aac"] {
            s.vendor.watch_gmail(early);
        }
        w.sim.run_until(SimTime::from_secs(7));
        let s = w.sim.node_ref::<OurService>(w.svc);
        assert_eq!(s.core.buffer.len(&ti), 1, "author's mail reached author");
        assert_eq!(s.vendor.gmail_cursors["author"], 1);
        assert_eq!(s.vendor.gmail_cursors["aaa"], 0);
    }
}
