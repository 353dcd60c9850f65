//! The one partner service the engine's integration tests run against
//! (also included by path from the workspace-level `tests/`).

#![allow(dead_code)]

use devices::service_core::ServiceCore;
use devices::services::{Outcome, Partner, PartnerService};
use engine::{ActionRef, Applet, AppletId, TapEngine, TriggerRef};
use simnet::prelude::*;
use tap_protocol::auth::{ServiceKey, REQUEST_ID_HEADER};
use tap_protocol::endpoints::BATCH_POLL_PATH;
use tap_protocol::service::ServiceEndpoint;
use tap_protocol::wire::TriggerEvent;
use tap_protocol::{ActionSlug, FieldMap, ServiceSlug, TriggerSlug, UserId};

/// Records every action it executes and echoes a query's fields back as
/// its result (so a query node's output is observable downstream). Can
/// swallow action requests, or fail the first few polls or actions.
#[derive(Default)]
pub struct Echo {
    slug: String,
    triggers: Vec<String>,
    actions: Vec<String>,
    queries: Vec<String>,
    /// Every action executed, in arrival order: `(action, fields)`.
    /// Duplicates are possible when an action response is lost and the
    /// engine retries a request already served.
    pub received: Vec<(String, FieldMap)>,
    /// Queries answered.
    pub queries_served: u64,
    /// Never reply to actions, so dispatches stay in flight.
    pub blackhole_actions: bool,
    /// Answer this many more polls with 503 before recovering.
    pub fail_polls: u32,
    /// Answer this many more actions with 503 before recovering.
    pub fail_actions: u32,
    /// The request-id header of every request that carried one.
    pub request_ids: Vec<String>,
    /// The body of every batch poll request, in arrival order.
    pub batch_requests: Vec<Bytes>,
}

pub type EchoService = PartnerService<Echo>;

impl Echo {
    /// A service `slug` keyed `key`, serving triggers `t{k}` and actions
    /// `act{k}` for `k < slots` plus the `extra` actions and queries.
    pub fn service(
        slug: &str,
        key: &str,
        slots: usize,
        extra_actions: &[&str],
        queries: &[&str],
    ) -> EchoService {
        let slot_actions = (0..slots).map(|k| format!("act{k}"));
        let echo = Echo {
            slug: slug.into(),
            triggers: (0..slots).map(|k| format!("t{k}")).collect(),
            actions: slot_actions
                .chain(extra_actions.iter().map(|a| a.to_string()))
                .collect(),
            queries: queries.iter().map(|q| q.to_string()).collect(),
            ..Echo::default()
        };
        EchoService::new(ServiceKey(key.into()), echo)
    }

    /// The `eid` field of every action received, in arrival order.
    pub fn eids(&self) -> Vec<String> {
        self.eids_of(|_| true)
    }

    /// The `eid` field of every received action whose slug `wanted` picks.
    pub fn eids_of(&self, wanted: impl Fn(&str) -> bool) -> Vec<String> {
        let picked = self.received.iter().filter(|(action, _)| wanted(action));
        picked
            .map(|(_, fields)| fields.get("eid").cloned().unwrap_or_default())
            .collect()
    }
}

impl Partner for Echo {
    fn slug(&self) -> &str {
        &self.slug
    }

    fn triggers(&self) -> Vec<&str> {
        self.triggers.iter().map(String::as_str).collect()
    }

    fn actions(&self) -> Vec<&str> {
        self.actions.iter().map(String::as_str).collect()
    }

    fn queries(&self) -> Vec<&str> {
        self.queries.iter().map(String::as_str).collect()
    }

    fn action(&mut self, _user: &UserId, action: &str, fields: FieldMap) -> Outcome {
        self.received.push((action.to_owned(), fields));
        if self.blackhole_actions {
            Outcome::Silent
        } else {
            Outcome::Reply(ServiceEndpoint::action_ok("ok"))
        }
    }

    fn query(&mut self, _user: &UserId, _query: &str, fields: FieldMap) -> Response {
        self.queries_served += 1;
        ServiceEndpoint::query_ok(fields)
    }

    fn intercept(
        &mut self,
        _core: &mut ServiceCore,
        _ctx: &mut Context<'_>,
        req: &Request,
    ) -> Option<Response> {
        if let Some(id) = req.header(REQUEST_ID_HEADER) {
            self.request_ids.push(id.to_string());
        }
        if req.path == BATCH_POLL_PATH {
            self.batch_requests.push(req.body.clone());
        }
        let budget = if req.path.contains("/triggers/") {
            &mut self.fail_polls
        } else if req.path.contains("/actions/") {
            &mut self.fail_actions
        } else {
            return None;
        };
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        Some(Response::unavailable())
    }
}

/// Register `svc` with `engine` under its own slug and key and connect
/// `user` to it with a freshly minted token.
pub fn connect(sim: &mut Sim, engine: NodeId, svc: NodeId, user: &UserId) {
    let (slug, key, token) = sim.with_node::<EchoService, _>(svc, |s, ctx| {
        let endpoint = &mut s.core.endpoint;
        let token = endpoint.oauth.mint_token(user.clone(), ctx.rng());
        (endpoint.slug().clone(), endpoint.key().clone(), token)
    });
    sim.with_node::<TapEngine, _>(engine, |e, _| {
        e.register_service(slug.clone(), svc, key);
        e.set_token(user.clone(), slug, token);
    });
}

/// The applet on slot `k` of service `slug`: trigger `t{k}` → action
/// `act{k}` carrying `eid = {{id}}`, so every delivery is observable.
pub fn slot_applet(slug: &str, k: usize, id: u32, user: &UserId) -> Applet {
    let mut action_fields = FieldMap::new();
    action_fields.insert("eid".into(), "{{id}}".into());
    Applet::new(
        AppletId(id),
        format!("{slug} slot {k}"),
        user.clone(),
        TriggerRef {
            service: ServiceSlug::new(slug),
            trigger: TriggerSlug::new(format!("t{k}")),
            fields: FieldMap::new(),
        },
        ActionRef {
            service: ServiceSlug::new(slug),
            action: ActionSlug::new(format!("act{k}")),
            fields: action_fields,
        },
    )
}

/// Fire `trigger` on `svc` for `user` now, as event `id` (also its `id`
/// ingredient). Returns how many subscriptions it matched.
pub fn fire(sim: &mut Sim, svc: NodeId, trigger: &str, user: &UserId, id: &str) -> usize {
    sim.with_node::<EchoService, _>(svc, |s, ctx| {
        let ev = TriggerEvent::new(id, ctx.now().as_secs_f64() as u64).with_ingredient("id", id);
        s.core
            .record_event(ctx, &TriggerSlug::new(trigger), user, ev, |_| true)
    })
}
