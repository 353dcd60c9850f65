//! IFTTT partner services: one shell, one [`Partner`] impl per vendor.
//!
//! Every service in the paper's Figure 1 speaks the same partner protocol
//! to the engine and differs only in which triggers, actions and queries
//! it lists and in how an action reaches the device. [`PartnerService`] is
//! the one `simnet` node all of them are: it owns the protocol front
//! ([`ServiceCore`]), the single dispatch on [`Processed`], the relay of an
//! action to the vendor's backend with its status mapping, and the decode
//! of pushed [`DeviceEvent`]s. A vendor supplies its lists — the endpoint
//! is registered from the same tables its handlers read, so a slug is
//! spelled once — and the handlers that are genuinely its own:
//!
//! * [`hue_service::HueService`] — the official Philips Hue cloud ❻: talks
//!   directly to the home Hue bridge over the vendor's paired channel.
//! * [`wemo_service::WemoService`] — the Belkin cloud: learns switch state
//!   from device pushes, drives the switch over UPnP.
//! * [`alexa_service::AlexaService`] — the Amazon cloud: recognizes
//!   utterances uploaded by Echo devices, feeds phrase/todo/song triggers,
//!   and uses the realtime API (the paper finds Alexa is treated specially
//!   by IFTTT).
//! * [`google_services`] — Gmail, Drive and Sheets partner services backed
//!   by the [`crate::google::GoogleCloud`] node.
//! * [`our_service::OurService`] — the authors' self-implemented service ❺:
//!   IoT triggers by proxy push, web-app triggers by backend polling,
//!   actions through the local proxy or the Google API.
//! * [`weather_service::WeatherService`] — the weather service behind the
//!   paper's §2 motivating applet (rain → Hue lights blue).
//! * [`nest_service::NestService`], [`datetime_service::DateTimeService`],
//!   [`fitbit_service::FitbitService`] — the Table 1/3 anchors: threshold
//!   crossings, a clock, and a wearable cloud.
//!
//! The fleet's `FleetService` and the benchmark's `RigService` call
//! [`ServiceCore::process`] directly and stay outside the shell: they
//! answer synchronously on the hot path and relay nothing.

pub mod alexa_service;
pub mod datetime_service;
pub mod fitbit_service;
pub mod google_services;
pub mod hue_service;
pub mod nest_service;
pub mod our_service;
pub mod weather_service;
pub mod wemo_service;

use crate::events::DeviceEvent;
use crate::service_core::{Processed, ServiceCore};
use bytes::Bytes;
use simnet::prelude::*;
use std::collections::HashMap;
use tap_protocol::auth::ServiceKey;
use tap_protocol::service::ServiceEndpoint;
use tap_protocol::wire::TriggerEvent;
use tap_protocol::{FieldMap, ServiceSlug, TriggerSlug, UserId};

/// Correlates deferred upstream replies with backend requests.
///
/// A node that must query its backend before answering `track`s what it
/// needs to finish the job (by default the upstream request id) and gets a
/// token to tag the backend request with; when the backend responds,
/// `resolve` hands it back.
#[derive(Debug)]
pub struct PendingReplies<T = RequestId> {
    map: HashMap<u64, T>,
    next: u64,
}

impl<T> Default for PendingReplies<T> {
    fn default() -> Self {
        PendingReplies {
            map: HashMap::new(),
            next: 0,
        }
    }
}

impl<T> PendingReplies<T> {
    /// Remember `upstream` and return a fresh correlation token.
    pub fn track(&mut self, upstream: T) -> Token {
        self.next += 1;
        self.map.insert(self.next, upstream);
        Token(self.next)
    }

    /// Resolve a token back to what was tracked, consuming it.
    pub fn resolve(&mut self, token: Token) -> Option<T> {
        self.map.remove(&token.0)
    }

    /// Number of unresolved replies.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// How long the shell waits for a vendor backend before answering 503.
const RELAY_TIMEOUT_SECS: u64 = 30;

/// What an action handler tells the shell to do with the engine's request.
#[derive(Debug)]
pub enum Outcome {
    /// Answer now.
    Reply(Response),
    /// Forward `req` to the backend at `dst` and answer once it has:
    /// `action_ok(done)` on 2xx, 503 if it times out, else its status.
    Relay {
        dst: NodeId,
        req: Request,
        done: &'static str,
    },
    /// Never answer (a hung backend): the engine learns by its own timeout.
    Silent,
}

/// What one vendor adds to the shared partner protocol.
///
/// Hooks that may record trigger events or schedule work get the service's
/// [`ServiceCore`] and the kernel [`Context`]. Everything but the slug has
/// a default, so a vendor implements only what it has.
#[allow(unused_variables)]
pub trait Partner: 'static {
    /// The service slug as listed on IFTTT.
    fn slug(&self) -> &str;

    /// Trigger slugs the endpoint serves.
    fn triggers(&self) -> Vec<&str> {
        Vec::new()
    }

    /// Action slugs the endpoint serves.
    fn actions(&self) -> Vec<&str> {
        Vec::new()
    }

    /// Query slugs the endpoint serves.
    fn queries(&self) -> Vec<&str> {
        Vec::new()
    }

    /// Execute `action` (one of [`Partner::actions`]) for `user`.
    fn action(&mut self, user: &UserId, action: &str, fields: FieldMap) -> Outcome {
        Outcome::Reply(Response::not_found())
    }

    /// Answer `query` (one of [`Partner::queries`]) for `user`.
    fn query(&mut self, user: &UserId, query: &str, fields: FieldMap) -> Response {
        Response::not_found()
    }

    /// A device or backend pushed a state change: feed the triggers it
    /// fires (see [`feed`] for the plain one-event-one-trigger case).
    fn device_event(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>, ev: &DeviceEvent) {}

    /// See a request before the partner protocol does; `Some` answers it.
    /// For paths outside the protocol (the proxy's event push, an Echo's
    /// utterance upload).
    fn intercept(
        &mut self,
        core: &mut ServiceCore,
        ctx: &mut Context<'_>,
        req: &Request,
    ) -> Option<Response> {
        None
    }

    /// The node started (arm timers here).
    fn start(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>) {}

    /// A timer armed by this vendor fired.
    fn timer(&mut self, core: &mut ServiceCore, ctx: &mut Context<'_>, key: TimerKey) {}

    /// A response arrived that is not a relayed action's (the vendor sent
    /// the request itself, e.g. a backend poll).
    fn response(
        &mut self,
        core: &mut ServiceCore,
        ctx: &mut Context<'_>,
        token: Token,
        resp: Response,
    ) {
    }
}

/// What `key` means in a vendor's `(key, meaning)` table — the same table
/// its slug list is built from.
pub fn lookup<T: Copy>(table: &[(&str, T)], key: &str) -> Option<T> {
    table.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// Buffer `ev` as one event of `trigger` for its user's subscriptions: a
/// fresh event id and the device's data copied as ingredients (after the
/// device id itself when `with_device`). Returns how many subscriptions
/// matched.
pub fn feed(
    core: &mut ServiceCore,
    ctx: &mut Context<'_>,
    trigger: &str,
    ev: &DeviceEvent,
    with_device: bool,
) -> usize {
    let id = core.next_event_id();
    let mut event = TriggerEvent::new(id, ev.at_secs);
    if with_device {
        event = event.with_ingredient("device", ev.device.clone());
    }
    for (k, v) in &ev.data {
        event = event.with_ingredient(k.clone(), v.clone());
    }
    let user = UserId::new(ev.user.clone());
    let n = core.record_event(ctx, &TriggerSlug::new(trigger), &user, event, |_| true);
    ctx.trace(
        "partner_service.device_event",
        format_args!("{} {trigger} -> {n} subs", core.endpoint.slug()),
    );
    n
}

/// Decode a pushed [`DeviceEvent`] and hand it to the vendor; `false` if
/// the bytes are not one.
pub fn pushed<V: Partner>(
    vendor: &mut V,
    core: &mut ServiceCore,
    ctx: &mut Context<'_>,
    bytes: &[u8],
) -> bool {
    let ev = DeviceEvent::from_bytes(bytes);
    if let Some(ev) = &ev {
        vendor.device_event(core, ctx, ev);
    }
    ev.is_some()
}

/// The partner-service node: the shared protocol shell around one vendor.
#[derive(Debug)]
pub struct PartnerService<V> {
    /// Shared protocol front.
    pub core: ServiceCore,
    /// What this vendor adds (accounts, backends, counters).
    pub vendor: V,
    /// Relayed actions awaiting their backend: engine request + ok id.
    pending: PendingReplies<(RequestId, &'static str)>,
    /// Actions executed end-to-end (for tests/metrics).
    pub actions_done: u64,
}

impl<V: Partner> PartnerService<V> {
    /// Create the service with its engine-issued key; the endpoint serves
    /// exactly what `vendor` lists.
    pub fn new(key: ServiceKey, vendor: V) -> Self {
        let mut endpoint = ServiceEndpoint::new(ServiceSlug::new(vendor.slug()), key);
        for t in vendor.triggers() {
            endpoint = endpoint.with_trigger(t);
        }
        for a in vendor.actions() {
            endpoint = endpoint.with_action(a);
        }
        for q in vendor.queries() {
            endpoint = endpoint.with_query(q);
        }
        PartnerService {
            core: ServiceCore::new(endpoint),
            vendor,
            pending: PendingReplies::default(),
            actions_done: 0,
        }
    }

    /// Relayed actions still waiting for their backend.
    pub fn relays_in_flight(&self) -> usize {
        self.pending.len()
    }
}

impl<V: Partner> Node for PartnerService<V> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.vendor.start(&mut self.core, ctx);
    }

    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        if let Some(resp) = self.vendor.intercept(&mut self.core, ctx, req) {
            return HandlerResult::Reply(resp);
        }
        match self.core.process(ctx, req) {
            Processed::Done(resp) => HandlerResult::Reply(resp),
            Processed::Action {
                user,
                action,
                fields,
                req_id,
            } => match self.vendor.action(&user, action.as_str(), fields) {
                Outcome::Reply(resp) => HandlerResult::Reply(resp),
                Outcome::Relay { dst, req, done } => {
                    ctx.trace(
                        "partner_service.relay",
                        format_args!("{} {action}", self.core.endpoint.slug()),
                    );
                    let token = self.pending.track((req_id, done));
                    let opts = RequestOpts::timeout_secs(RELAY_TIMEOUT_SECS);
                    ctx.send_request(dst, req, token, opts);
                    HandlerResult::Deferred
                }
                Outcome::Silent => HandlerResult::Deferred,
            },
            Processed::Query {
                user,
                query,
                fields,
                ..
            } => HandlerResult::Reply(self.vendor.query(&user, query.as_str(), fields)),
            Processed::NoReply => HandlerResult::Deferred,
        }
    }

    fn on_response(&mut self, ctx: &mut Context<'_>, token: Token, resp: Response) {
        let Some((upstream, done)) = self.pending.resolve(token) else {
            return self.vendor.response(&mut self.core, ctx, token, resp);
        };
        if resp.is_success() {
            self.actions_done += 1;
            ctx.reply(upstream, ServiceEndpoint::action_ok(done));
        } else {
            let status = if resp.is_timeout() { 503 } else { resp.status };
            ctx.reply(upstream, Response::with_status(status));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, key: TimerKey) {
        self.vendor.timer(&mut self.core, ctx, key);
    }

    fn on_signal(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        pushed(&mut self.vendor, &mut self.core, ctx, &payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_resolve_roundtrip() {
        let mut p = PendingReplies::default();
        let t1 = p.track(RequestId(10));
        let t2 = p.track(RequestId(20));
        assert_ne!(t1, t2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.resolve(t1), Some(RequestId(10)));
        assert_eq!(p.resolve(t1), None);
        assert_eq!(p.resolve(t2), Some(RequestId(20)));
        assert!(p.is_empty());
    }
}
