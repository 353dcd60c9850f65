//! Shared mechanics of every partner service node.
//!
//! [`ServiceCore`] bundles the protocol endpoint, the per-subscription
//! trigger-event buffer, the subscription registry, and (optionally) the
//! realtime API client. A service node hands each request to
//! [`ServiceCore::process`] and does only what is left over: the testbed's
//! services through the one shell in [`crate::services`], the fleet's and
//! the benchmark's synchronous service nodes directly.

use bytes::Bytes;
use mem::FxHashMap;
use simnet::chaos::{ServerFault, ServerFaultPlan};
use simnet::http::Method;
use simnet::prelude::*;
use std::sync::Arc;
use tap_protocol::auth::{RETRY_AFTER_HEADER, SERVICE_KEY_HEADER};
use tap_protocol::endpoints::{self, BATCH_POLL_PATH, REALTIME_NOTIFY_PATH};
use tap_protocol::service::{ParsedServiceRequest, ServiceEndpoint, TriggerBuffer};
use tap_protocol::wire::{self, TriggerEvent};
use tap_protocol::{
    ActionSlug, FieldMap, Interner, ProtocolError, QuerySlug, Symbol, TriggerIdentity, TriggerSlug,
    UserId,
};

/// A subscription's dense id: its slot in the [`TriggerBuffer`], minted when
/// the subscription is learned. It indexes `subs`, is what the route index
/// and the request memo hold, and addresses the buffer without a lookup.
type SubId = Symbol;

/// Everything the core knows about one learned trigger subscription.
#[derive(Debug)]
struct Subscription {
    ti: TriggerIdentity,
    user: UserId,
    trigger: TriggerSlug,
    fields: FieldMap,
    /// Serialized realtime notification body, built by the first hint
    /// sent (the versioned [`wire::RealtimeNotificationV1`] for `ti` is
    /// constant, so serializing it per event would be pure waste; most
    /// subscriptions never notify at all, so neither is it built up front).
    hint_body: Option<Bytes>,
    /// A notification for this subscription is outstanding: sent to the
    /// engine and not yet followed by a poll serving the subscription.
    /// Further events are buffered without notifying again, so a burst
    /// costs exactly one hint — the engine's immediate poll collects the
    /// whole burst.
    hint_outstanding: bool,
}

/// Subscription records by id. A buffer slot nobody subscribed to (events
/// pushed straight into [`ServiceCore::buffer`]) has none.
#[derive(Debug, Default)]
struct Subs(Vec<Option<Subscription>>);

impl Subs {
    fn get(&self, id: SubId) -> Option<&Subscription> {
        self.0.get(id.index() as usize)?.as_ref()
    }

    /// The record behind an id [`ServiceCore::learn`] returned.
    fn get_mut(&mut self, id: SubId) -> &mut Subscription {
        let record = self.0[id.index() as usize].as_mut();
        record.expect("ids come from learn")
    }

    /// Where `id`'s record goes (the buffer may have minted slots since the
    /// last record was made).
    fn place(&mut self, id: SubId) -> &mut Option<Subscription> {
        let at = id.index() as usize;
        if self.0.len() <= at {
            self.0.resize_with(at + 1, || None);
        }
        &mut self.0[at]
    }
}

/// What [`ServiceCore::process`] leaves for the embedding service to do.
#[derive(Debug)]
pub enum Processed {
    /// Fully handled; reply with this response.
    Done(Response),
    /// An action request the service must execute (and then reply to
    /// `req_id`, possibly deferred).
    Action {
        user: UserId,
        action: ActionSlug,
        fields: FieldMap,
        req_id: RequestId,
    },
    /// A query the service must answer with [`ServiceEndpoint::query_ok`]
    /// (possibly deferred).
    Query {
        user: UserId,
        query: QuerySlug,
        fields: FieldMap,
        req_id: RequestId,
    },
    /// Deliberately never reply (an injected server-side timeout): the
    /// embedding service returns [`HandlerResult::Deferred`] and the
    /// requester only learns via its own timeout.
    NoReply,
}

/// What a poll body asks for, memoized by its exact bytes: which
/// subscriptions, up to how many events each.
///
/// A subscription's poll body never changes between cycles, so after one
/// full parse the steady-state cost collapses to authentication plus one
/// hash of the body. Only a body that agrees with the records it names is
/// memoized — polled on its subscription's own trigger path, on behalf of
/// its subscription's own user — so on a hit the record stands in for the
/// body: the path and the bearer's user are checked against it, and the
/// key and the token on every delivery.
#[derive(Debug, Clone)]
enum CachedParse {
    Poll { sub: SubId, limit: usize },
    Batch { entries: Arc<[(SubId, usize)]> },
}

/// The shared protocol front of a partner service.
#[derive(Debug)]
pub struct ServiceCore {
    /// Routing, auth, and OAuth provider.
    pub endpoint: ServiceEndpoint,
    /// Buffered trigger events per subscription.
    pub buffer: TriggerBuffer,
    /// If set, send realtime hints to this engine node when events arrive.
    pub realtime_engine: Option<NodeId>,
    /// Count of subscription polls served (batch entries each count once).
    pub polls_served: u64,
    /// Count of batch poll requests served (each carrying ≥1 entries).
    pub batch_polls_served: u64,
    /// Count of realtime hints sent.
    pub hints_sent: u64,
    /// Count of events absorbed by an already-outstanding hint (the
    /// per-subscription dedup of the realtime client).
    pub hints_deduped: u64,
    /// Scheduled server-side fault injection; `None` = always healthy.
    pub fault_plan: Option<ServerFaultPlan>,
    /// Count of requests answered by an injected fault instead of the
    /// normal handler.
    pub faults_injected: u64,
    next_event: u64,
    /// Subscriptions learned from polls or registered out of band.
    subs: Subs,
    /// Node-local symbol table for user and trigger ids.
    syms: Interner,
    /// `(user, trigger)` → subscriptions, in first-subscription order.
    /// [`ServiceCore::record_event`] resolves deliveries through this index
    /// instead of scanning (and string-comparing) every subscription.
    route: FxHashMap<(Symbol, Symbol), Vec<SubId>>,
    /// Memoized poll parses keyed by exact request bytes. Keep this the
    /// last field and the variant names as they are: the benchmark counts
    /// the `Poll {` entries after `parse_cache:` in this struct's `Debug`.
    parse_cache: FxHashMap<Bytes, CachedParse>,
}

impl ServiceCore {
    /// Wrap a configured endpoint.
    pub fn new(endpoint: ServiceEndpoint) -> Self {
        ServiceCore {
            endpoint,
            buffer: TriggerBuffer::new(),
            realtime_engine: None,
            polls_served: 0,
            batch_polls_served: 0,
            hints_sent: 0,
            hints_deduped: 0,
            fault_plan: None,
            faults_injected: 0,
            next_event: 1,
            subs: Subs::default(),
            syms: Interner::new(),
            route: FxHashMap::default(),
            parse_cache: FxHashMap::default(),
        }
    }

    /// Enable the realtime API towards `engine`.
    pub fn enable_realtime(&mut self, engine: NodeId) {
        self.realtime_engine = Some(engine);
    }

    /// Whether this service notifies an engine when trigger data arrives.
    pub fn realtime_capable(&self) -> bool {
        self.realtime_engine.is_some()
    }

    /// Register a subscription before any poll arrives (what a production
    /// service learns from the engine's initial poll at applet creation).
    pub fn subscribe(
        &mut self,
        user: UserId,
        trigger: TriggerSlug,
        fields: FieldMap,
    ) -> TriggerIdentity {
        let ti = TriggerIdentity::derive(&user, self.endpoint.slug(), &trigger, &fields);
        self.learn(&ti, &user, &trigger, &fields);
        ti
    }

    /// The subscription's id; its record and its route entry are made the
    /// first time the identity is seen. A known identity changes nothing:
    /// it is derived from `(user, trigger, fields)`, so those cannot differ
    /// from what is recorded, and polls (the overwhelmingly common caller)
    /// pay one lookup and clone nothing.
    fn learn(
        &mut self,
        ti: &TriggerIdentity,
        user: &UserId,
        trigger: &TriggerSlug,
        fields: &FieldMap,
    ) -> SubId {
        let id = self.buffer.slot(ti);
        let record = self.subs.place(id);
        if record.is_none() {
            *record = Some(Subscription {
                ti: ti.clone(),
                user: user.clone(),
                trigger: trigger.clone(),
                fields: fields.clone(),
                hint_body: None,
                hint_outstanding: false,
            });
            let key = (
                self.syms.intern(user.as_str()),
                self.syms.intern(trigger.as_str()),
            );
            self.route.entry(key).or_default().push(id);
        }
        id
    }

    /// Whether `asked` may stand in for the body of `req` when `user`
    /// presents it: the request is on the path its subscriptions are polled
    /// on, and every one of them is known and `user`'s own.
    fn stands_for(&self, asked: &CachedParse, req: &Request, user: &UserId) -> bool {
        let owned = |sub: SubId| self.subs.get(sub).filter(|record| record.user == *user);
        match asked {
            CachedParse::Poll { sub, .. } => owned(*sub)
                .is_some_and(|record| endpoints::is_trigger_path(&req.path, &record.trigger)),
            CachedParse::Batch { entries } => {
                req.path == BATCH_POLL_PATH
                    && !entries.is_empty()
                    && entries.iter().all(|&(sub, _)| owned(sub).is_some())
            }
        }
    }

    /// Serve what a poll body asks for.
    fn serve(&mut self, ctx: &mut Context<'_>, asked: CachedParse) -> Processed {
        match asked {
            CachedParse::Poll { sub, limit } => self.serve_poll(ctx, sub, limit),
            CachedParse::Batch { entries } => self.serve_batch(ctx, &entries),
        }
    }

    /// Serve what the body of `req`, just parsed for `user`, asks for. A
    /// body that agrees with the records it names is not parsed again.
    fn serve_parsed(
        &mut self,
        ctx: &mut Context<'_>,
        req: &Request,
        user: &UserId,
        asked: CachedParse,
    ) -> Processed {
        if self.stands_for(&asked, req, user) {
            self.parse_cache.insert(req.body.clone(), asked.clone());
        }
        self.serve(ctx, asked)
    }

    /// Serve one subscription's poll: the newest `limit` buffered events.
    /// The engine now has (or is fetching) everything buffered, so the
    /// subscription may notify again on its next event.
    fn serve_poll(&mut self, ctx: &mut Context<'_>, sub: SubId, limit: usize) -> Processed {
        self.polls_served += 1;
        let record = self.subs.get_mut(sub);
        record.hint_outstanding = false;
        let (reply, count) = self.buffer.poll_response(sub, limit);
        let (slug, ti) = (self.endpoint.slug(), &record.ti);
        ctx.trace(
            "service.poll",
            format_args!("{slug} {ti} -> {count} events"),
        );
        Processed::Done(Response::ok().with_body(reply))
    }

    /// Serve a batch poll, each entry exactly as [`ServiceCore::serve_poll`]
    /// would. The reply is assembled from the buffer's cached per-entry
    /// fragments, byte-identical to serializing a
    /// [`wire::BatchPollResponseBody`] built from [`TriggerBuffer::latest`]
    /// vectors — or is the static empty-batch bytes when no entry had events
    /// (the steady-state common case the engine recognizes unparsed).
    fn serve_batch(&mut self, ctx: &mut Context<'_>, entries: &[(SubId, usize)]) -> Processed {
        self.polls_served += entries.len() as u64;
        self.batch_polls_served += 1;
        let (mut total, mut bytes) = (0, 0);
        for &(sub, limit) in entries {
            self.subs.get_mut(sub).hint_outstanding = false;
            let (events, len) = self.buffer.batch_result_size(sub, limit);
            total += events;
            bytes += len + 1;
        }
        let (slug, n) = (self.endpoint.slug(), entries.len());
        ctx.trace(
            "service.batch_poll",
            format_args!("{slug} {n} entries -> {total} events"),
        );
        if total == 0 {
            return Processed::Done(Response::ok().with_body(wire::empty_batch_body()));
        }
        let mut out = String::with_capacity(wire::EMPTY_BATCH_JSON.len() + bytes);
        out.push_str("{\"data\":[");
        for (i, &(sub, limit)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.buffer.write_batch_result(sub, limit, &mut out);
        }
        out.push_str("]}");
        Processed::Done(Response::ok().with_body(out))
    }

    /// Every distinct user with a subscription here, in sorted order (the
    /// clock-driven services fire per user, not per push).
    pub fn subscribed_users(&self) -> Vec<UserId> {
        let records = self.subs.0.iter().flatten();
        let mut users: Vec<UserId> = records.map(|s| s.user.clone()).collect();
        users.sort();
        users.dedup();
        users
    }

    /// A fresh service-unique event id.
    pub fn next_event_id(&mut self) -> String {
        let id = self.next_event;
        self.next_event += 1;
        format!("{}_ev{:08}", self.endpoint.slug(), id)
    }

    /// Record `event` for every subscription matching `trigger`, `user`,
    /// and `matches_fields`; send a realtime hint per matching subscription
    /// if enabled.
    pub fn record_event(
        &mut self,
        ctx: &mut Context<'_>,
        trigger: &TriggerSlug,
        user: &UserId,
        event: TriggerEvent,
        matches_fields: impl Fn(&FieldMap) -> bool,
    ) -> usize {
        // An un-interned user or trigger cannot have a subscription.
        let key = match (
            self.syms.get(user.as_str()),
            self.syms.get(trigger.as_str()),
        ) {
            (Some(u), Some(t)) => (u, t),
            _ => return 0,
        };
        let Some(ids) = self.route.get(&key) else {
            return 0;
        };
        let slug = self.endpoint.slug();
        let mut matched = 0;
        for &id in ids {
            let sub = self.subs.get_mut(id);
            if !matches_fields(&sub.fields) {
                continue;
            }
            matched += 1;
            self.buffer.push_at(id, event.clone());
            ctx.trace(
                "service.event",
                format_args!("{slug} {trigger} -> {}", sub.ti),
            );
            if let Some(engine) = self.realtime_engine {
                // Per-subscription dedup: while a notification is
                // outstanding the engine is already on its way to poll, so
                // further events just accumulate in the buffer. The flag
                // clears when a poll serves this subscription.
                if sub.hint_outstanding {
                    self.hints_deduped += 1;
                    ctx.trace("service.hint_deduped", format_args!("{slug} {}", sub.ti));
                    continue;
                }
                sub.hint_outstanding = true;
                self.hints_sent += 1;
                let body = sub.hint_body.get_or_insert_with(|| {
                    wire::to_bytes(&wire::RealtimeNotificationV1::single(
                        slug.clone(),
                        trigger.clone(),
                        sub.ti.clone(),
                    ))
                });
                let req = Request::post(REALTIME_NOTIFY_PATH)
                    .with_header(SERVICE_KEY_HEADER, self.endpoint.key().0.clone())
                    .with_body(body.clone());
                ctx.send_request(engine, req, Token(u64::MAX), RequestOpts::timeout_secs(30));
                ctx.trace("service.hint", format_args!("{slug} {}", sub.ti));
            }
        }
        matched
    }

    /// Handle the generic protocol surface of an inbound request.
    pub fn process(&mut self, ctx: &mut Context<'_>, req: &Request) -> Processed {
        if let Some(p) = self.inject_fault(ctx, req) {
            return p;
        }
        // Memo fast path: a poll body seen before skips endpoint routing
        // and body parsing. The method, the path, the service key, the
        // bearer and its user are verified on every delivery; a miss or
        // any refusal falls through to the full parse, which reproduces
        // the exact slow-path outcome (including the error response).
        let memo = (req.method == Method::Post)
            .then(|| self.parse_cache.get(&req.body))
            .flatten()
            .filter(|asked| {
                let user = self.endpoint.authenticate(req);
                user.is_ok_and(|user| self.stands_for(asked, req, user))
            })
            .cloned();
        if let Some(asked) = memo {
            return self.serve(ctx, asked);
        }
        match self.endpoint.parse(req) {
            Err(e) => Processed::Done(ServiceEndpoint::error_response(&e)),
            Ok(ParsedServiceRequest::Status) => Processed::Done(Response::ok()),
            Ok(ParsedServiceRequest::TestSetup) => {
                Processed::Done(Response::ok().with_body(r#"{"data":{"samples":{}}}"#))
            }
            Ok(ParsedServiceRequest::Poll {
                user,
                trigger,
                body,
            }) => {
                // Learn the subscription from the poll itself.
                let fields = &body.trigger_fields;
                let sub = self.learn(&body.trigger_identity, &user, &trigger, fields);
                let limit = body.limit;
                self.serve_parsed(ctx, req, &user, CachedParse::Poll { sub, limit })
            }
            Ok(ParsedServiceRequest::BatchPoll { user, body }) => {
                // Each entry is one subscription poll, learned exactly as
                // the single path would.
                let learn = |e: &wire::BatchPollEntry| {
                    let sub = self.learn(&e.trigger_identity, &user, &e.trigger, &e.trigger_fields);
                    (sub, e.limit)
                };
                let entries = body.entries.iter().map(learn).collect();
                self.serve_parsed(ctx, req, &user, CachedParse::Batch { entries })
            }
            Ok(ParsedServiceRequest::Action {
                user, action, body, ..
            }) => Processed::Action {
                user,
                action,
                fields: body.action_fields,
                req_id: req.id,
            },
            Ok(ParsedServiceRequest::Query { user, query, body }) => Processed::Query {
                user,
                query,
                fields: body.query_fields,
                req_id: req.id,
            },
            Ok(ParsedServiceRequest::OAuthAuthorize { user }) => {
                let code = self.endpoint.oauth.authorize(user, ctx.rng());
                let body = wire::to_bytes(&wire::OAuthCodeBody { code });
                Processed::Done(Response::ok().with_body(body))
            }
            Ok(ParsedServiceRequest::OAuthToken { code }) => {
                Processed::Done(match self.endpoint.oauth.exchange(&code, ctx.rng()) {
                    Ok(token) => Response::ok()
                        .with_body(wire::to_bytes(&wire::OAuthTokenBody::bearer(token))),
                    Err(_) => ServiceEndpoint::error_response(&ProtocolError::BadAccessToken),
                })
            }
        }
    }

    /// If a [`ServerFaultPlan`] window covers `ctx.now()`, answer the
    /// request with the injected fault instead of the normal handler.
    ///
    /// Body corruption ([`ServerFault::MalformedBody`] /
    /// [`ServerFault::EmptyBody`]) only makes sense for poll responses, so
    /// other requests fall through to normal handling during such windows.
    fn inject_fault(&mut self, ctx: &mut Context<'_>, req: &Request) -> Option<Processed> {
        let fault = self.fault_plan.as_ref()?.active(ctx.now())?;
        let processed = match fault {
            ServerFault::Http500 => Processed::Done(Response::with_status(500)),
            ServerFault::Http503 { retry_after_secs } => Processed::Done(
                Response::unavailable()
                    .with_header(RETRY_AFTER_HEADER, retry_after_secs.to_string()),
            ),
            ServerFault::Timeout => Processed::NoReply,
            ServerFault::MalformedBody | ServerFault::EmptyBody => {
                if !endpoints::is_poll_path(&req.path) {
                    return None;
                }
                if matches!(fault, ServerFault::MalformedBody) {
                    Processed::Done(Response::ok().with_body("{\"data\": not json"))
                } else {
                    Processed::Done(Response::ok())
                }
            }
        };
        self.faults_injected += 1;
        ctx.trace(
            "service.fault",
            format_args!("{} {:?} {}", self.endpoint.slug(), fault, req.path),
        );
        Some(processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_client::{engine_request, Client};
    use tap_protocol::auth::{ServiceKey, AUTHORIZATION_HEADER};
    use tap_protocol::wire::PollRequestBody;
    use tap_protocol::ServiceSlug;

    /// A trivial service node wrapping a core; actions echo success.
    struct TestService {
        core: ServiceCore,
    }
    impl Node for TestService {
        fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
            match self.core.process(ctx, req) {
                Processed::Done(resp) => HandlerResult::Reply(resp),
                Processed::Action { action, .. } => {
                    HandlerResult::Reply(ServiceEndpoint::action_ok(format!("done_{action}")))
                }
                Processed::Query { fields, .. } => {
                    HandlerResult::Reply(ServiceEndpoint::query_ok(fields))
                }
                Processed::NoReply => HandlerResult::Deferred,
            }
        }
    }

    fn core() -> ServiceCore {
        let ep = ServiceEndpoint::new(ServiceSlug::new("svc"), ServiceKey("sk_1".into()))
            .with_trigger("ding")
            .with_action("dong");
        ServiceCore::new(ep)
    }

    /// The subscriptions the engine stand-in was notified about, in order
    /// (the core sends the versioned first-class notification).
    fn hints(sim: &Sim, engine: NodeId) -> Vec<TriggerIdentity> {
        let inbox = sim.node_ref::<Client>(engine).inbox.iter();
        inbox
            .flat_map(|req| {
                assert_eq!(req.path, REALTIME_NOTIFY_PATH);
                let n = wire::from_bytes::<wire::RealtimeNotificationV1>(&req.body)
                    .expect("core sends v1 bodies");
                assert_eq!(n.version, wire::REALTIME_NOTIFICATION_VERSION);
                n.data.into_iter().map(|i| i.trigger_identity)
            })
            .collect()
    }

    #[test]
    fn poll_learns_subscription_and_returns_buffered_events() {
        let mut sim = Sim::new(51);
        let mut c = core();
        // Pre-register the subscription and buffer two events.
        let user = UserId::new("u1");
        let ti = c.subscribe(user.clone(), TriggerSlug::new("ding"), FieldMap::new());
        c.buffer.push(&ti, TriggerEvent::new("e1", 1));
        c.buffer.push(&ti, TriggerEvent::new("e2", 2));
        let token_header = {
            let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(1);
            c.endpoint.oauth.mint_token(user.clone(), &mut rng).bearer()
        };
        let svc = sim.add_node("svc", TestService { core: c });
        let poll = PollRequestBody {
            trigger_identity: ti.clone(),
            trigger_fields: FieldMap::new(),
            user,
            limit: 50,
        };
        let req = engine_request(
            "/ifttt/v1/triggers/ding".into(),
            "sk_1",
            &token_header,
            wire::to_bytes(&poll),
        );
        let engine = Client::spawn(&mut sim, svc, req, LinkSpec::wan());
        sim.run_until_idle();
        let resp = sim.node_ref::<Client>(engine).response.as_ref().unwrap();
        let got: wire::PollResponseBody = wire::from_bytes(&resp.body).unwrap();
        assert_eq!(got.data.len(), 2);
        let ts = sim.node_ref::<TestService>(svc);
        assert_eq!(ts.core.polls_served, 1);
    }

    #[test]
    fn batch_poll_learns_and_answers_every_entry() {
        let mut sim = Sim::new(55);
        let ep = ServiceEndpoint::new(ServiceSlug::new("svc"), ServiceKey("sk_1".into()))
            .with_trigger("ding")
            .with_trigger("dong_t")
            .with_action("dong");
        let mut c = ServiceCore::new(ep);
        let user = UserId::new("u1");
        // Pre-register one of the two subscriptions and buffer an event for
        // it; the other is learned from the batch itself.
        let ti_known = c.subscribe(user.clone(), TriggerSlug::new("ding"), FieldMap::new());
        c.buffer.push(&ti_known, TriggerEvent::new("e1", 1));
        let ti_new = tap_protocol::TriggerIdentity::derive(
            &user,
            &ServiceSlug::new("svc"),
            &TriggerSlug::new("dong_t"),
            &FieldMap::new(),
        );
        let token_header = {
            let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(2);
            c.endpoint.oauth.mint_token(user.clone(), &mut rng).bearer()
        };
        let body = wire::BatchPollRequestBody {
            user: user.clone(),
            entries: vec![
                wire::BatchPollEntry {
                    trigger: TriggerSlug::new("ding"),
                    trigger_identity: ti_known.clone(),
                    trigger_fields: FieldMap::new(),
                    limit: 50,
                },
                wire::BatchPollEntry {
                    trigger: TriggerSlug::new("dong_t"),
                    trigger_identity: ti_new.clone(),
                    trigger_fields: FieldMap::new(),
                    limit: 50,
                },
            ],
        };
        let svc = sim.add_node("svc", TestService { core: c });
        let req = Request::post(tap_protocol::endpoints::BATCH_POLL_PATH)
            .with_header(SERVICE_KEY_HEADER, "sk_1")
            .with_header(AUTHORIZATION_HEADER, token_header)
            .with_body(wire::to_bytes(&body));
        let resp = sim.with_node::<TestService, _>(svc, |s, ctx| match s.core.process(ctx, &req) {
            Processed::Done(resp) => resp,
            other => panic!("unexpected {other:?}"),
        });
        assert!(resp.is_success());
        let parsed: wire::BatchPollResponseBody = wire::from_bytes(&resp.body).unwrap();
        assert_eq!(parsed.data.len(), 2);
        assert_eq!(parsed.data[0].trigger_identity, ti_known);
        assert_eq!(parsed.data[0].data.len(), 1);
        assert!(parsed.data[1].data.is_empty());
        let learned = sim.with_node::<TestService, _>(svc, |s, ctx| {
            let ev = TriggerEvent::new("e2", 2);
            s.core
                .record_event(ctx, &TriggerSlug::new("dong_t"), &user, ev, |_| true)
        });
        assert_eq!(learned, 1, "batch learns entries");
        let ts = sim.node_ref::<TestService>(svc);
        assert_eq!(ts.core.polls_served, 2, "each entry counts as one poll");
        assert_eq!(ts.core.batch_polls_served, 1);
        assert_eq!(ts.core.buffer.len(&ti_new), 1);
    }

    #[test]
    fn empty_batch_poll_replies_with_static_bytes() {
        let mut sim = Sim::new(56);
        let mut c = core();
        let user = UserId::new("u1");
        let ti = c.subscribe(user.clone(), TriggerSlug::new("ding"), FieldMap::new());
        let token_header = {
            let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(3);
            c.endpoint.oauth.mint_token(user.clone(), &mut rng).bearer()
        };
        let body = wire::BatchPollRequestBody {
            user,
            entries: vec![wire::BatchPollEntry {
                trigger: TriggerSlug::new("ding"),
                trigger_identity: ti,
                trigger_fields: FieldMap::new(),
                limit: 50,
            }],
        };
        let svc = sim.add_node("svc", TestService { core: c });
        let req = Request::post(tap_protocol::endpoints::BATCH_POLL_PATH)
            .with_header(SERVICE_KEY_HEADER, "sk_1")
            .with_header(AUTHORIZATION_HEADER, token_header)
            .with_body(wire::to_bytes(&body));
        let resp = sim.with_node::<TestService, _>(svc, |s, ctx| match s.core.process(ctx, &req) {
            Processed::Done(resp) => resp,
            other => panic!("unexpected {other:?}"),
        });
        assert_eq!(&*resp.body, wire::EMPTY_BATCH_JSON);
    }

    /// The parse memo is keyed by body: a static and a shared `Bytes` of
    /// equal content are one entry.
    #[test]
    fn the_parse_memo_key_is_the_content_however_the_bytes_are_held() {
        let mut memo: FxHashMap<Bytes, u8> = FxHashMap::default();
        memo.insert(Bytes::from_static(wire::EMPTY_POLL_JSON), 1);
        let shared = Bytes::from(wire::EMPTY_POLL_JSON.to_vec());
        assert_eq!(memo.get(&shared), Some(&1));
        assert_eq!(memo.insert(shared, 2), Some(1));
        memo.insert(Bytes::from(Vec::new()), 3);
        assert_eq!(memo.get(&Bytes::new()), Some(&3));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn record_event_routes_only_matching_subscriptions() {
        let mut sim = Sim::new(52);
        let svc = sim.add_node("svc", TestService { core: core() });
        sim.with_node::<TestService, _>(svc, |s, ctx| {
            let ti_a = s.core.subscribe(
                UserId::new("alice"),
                TriggerSlug::new("ding"),
                FieldMap::new(),
            );
            let _ti_b = s.core.subscribe(
                UserId::new("bob"),
                TriggerSlug::new("ding"),
                FieldMap::new(),
            );
            let ev = TriggerEvent::new("e1", 5);
            let matched = s.core.record_event(
                ctx,
                &TriggerSlug::new("ding"),
                &UserId::new("alice"),
                ev,
                |_| true,
            );
            assert_eq!(matched, 1);
            assert_eq!(s.core.buffer.len(&ti_a), 1);
        });
    }

    #[test]
    fn record_event_sends_realtime_hint_when_enabled() {
        let mut sim = Sim::new(53);
        let engine = sim.add_node("engine", Client::default());
        let svc = sim.add_node("svc", TestService { core: core() });
        sim.link(engine, svc, LinkSpec::wan());
        let ti = sim.with_node::<TestService, _>(svc, |s, _ctx| {
            s.core.enable_realtime(engine);
            s.core
                .subscribe(UserId::new("u"), TriggerSlug::new("ding"), FieldMap::new())
        });
        sim.with_node::<TestService, _>(svc, |s, ctx| {
            s.core.record_event(
                ctx,
                &TriggerSlug::new("ding"),
                &UserId::new("u"),
                TriggerEvent::new("e1", 1),
                |_| true,
            );
        });
        sim.run_until_idle();
        assert_eq!(hints(&sim, engine), vec![ti]);
        assert_eq!(sim.node_ref::<TestService>(svc).core.hints_sent, 1);
    }

    /// A burst of events yields exactly one outstanding hint; a poll
    /// serving the subscription re-arms it.
    #[test]
    fn hint_dedup_absorbs_bursts_until_a_poll_clears_it() {
        let mut sim = Sim::new(57);
        let engine = sim.add_node("engine", Client::default());
        let svc = sim.add_node("svc", TestService { core: core() });
        sim.link(engine, svc, LinkSpec::wan());
        let user = UserId::new("u");
        let trigger = TriggerSlug::new("ding");
        let (ti, token_header) = sim.with_node::<TestService, _>(svc, |s, _ctx| {
            s.core.enable_realtime(engine);
            assert!(s.core.realtime_capable());
            let ti = s
                .core
                .subscribe(user.clone(), trigger.clone(), FieldMap::new());
            let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(9);
            let token = s.core.endpoint.oauth.mint_token(user.clone(), &mut rng);
            (ti, token.bearer())
        });
        sim.with_node::<TestService, _>(svc, |s, ctx| {
            for k in 0..4 {
                s.core.record_event(
                    ctx,
                    &trigger,
                    &user,
                    TriggerEvent::new(format!("e{k}"), k),
                    |_| true,
                );
            }
        });
        sim.run_until_idle();
        assert_eq!(
            sim.node_ref::<TestService>(svc).core.hints_sent,
            1,
            "a burst costs one notification"
        );
        assert_eq!(sim.node_ref::<TestService>(svc).core.hints_deduped, 3);
        assert_eq!(hints(&sim, engine), vec![ti.clone()]);
        // A poll serving the subscription clears the outstanding flag ...
        let poll = PollRequestBody {
            trigger_identity: ti.clone(),
            trigger_fields: FieldMap::new(),
            user: user.clone(),
            limit: 50,
        };
        let req = Request::post("/ifttt/v1/triggers/ding")
            .with_header(SERVICE_KEY_HEADER, "sk_1")
            .with_header(AUTHORIZATION_HEADER, token_header)
            .with_body(wire::to_bytes(&poll));
        sim.with_node::<TestService, _>(svc, |s, ctx| match s.core.process(ctx, &req) {
            Processed::Done(resp) => assert!(resp.is_success()),
            other => panic!("unexpected {other:?}"),
        });
        // ... so the next event notifies again.
        sim.with_node::<TestService, _>(svc, |s, ctx| {
            s.core
                .record_event(ctx, &trigger, &user, TriggerEvent::new("e9", 9), |_| true);
        });
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<TestService>(svc).core.hints_sent, 2);
        assert_eq!(hints(&sim, engine), vec![ti.clone(), ti]);
    }

    #[test]
    fn field_mismatch_records_nothing() {
        let mut sim = Sim::new(54);
        let svc = sim.add_node("svc", TestService { core: core() });
        sim.with_node::<TestService, _>(svc, |s, ctx| {
            let mut fields = FieldMap::new();
            fields.insert("phrase".into(), "good morning".into());
            let ti = s
                .core
                .subscribe(UserId::new("u"), TriggerSlug::new("ding"), fields);
            let matched = s.core.record_event(
                ctx,
                &TriggerSlug::new("ding"),
                &UserId::new("u"),
                TriggerEvent::new("e1", 1),
                |f| f.get("phrase").map(String::as_str) == Some("good night"),
            );
            assert_eq!(matched, 0);
            assert!(s.core.buffer.is_empty(&ti));
        });
    }
}
