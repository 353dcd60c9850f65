//! Server-side protocol skeleton for partner services.
//!
//! Concrete services (Philips Hue, Gmail, the authors' "Our Service", …)
//! embed a [`ServiceEndpoint`] to handle the generic protocol work —
//! endpoint routing, service-key and token checks, body parsing, response
//! building — and a [`TriggerBuffer`] to hold trigger events between polls.

use crate::auth::{ServiceKey, AUTHORIZATION_HEADER, SERVICE_KEY_HEADER};
use crate::endpoints::{self, Endpoint};
use crate::error::ProtocolError;
use crate::ids::{ActionSlug, QuerySlug, ServiceSlug, TriggerIdentity, TriggerSlug, UserId};
use crate::intern::{Interner, Symbol};
use crate::oauth::{AuthCode, OAuthProvider};
use crate::wire::{
    self, ActionRequestBody, ActionResponseBody, BatchPollRequestBody, BatchPollResponseBody,
    BatchPollResult, ErrorBody, OAuthAuthorizeBody, OAuthCodeBody, PollRequestBody,
    PollResponseBody, QueryRequestBody, QueryResponseBody, TriggerEvent,
};
use serde::de::DeserializeOwned;
use simnet::http::{Method, Request, Response};
use std::collections::{HashSet, VecDeque};

/// Decode a request's JSON body.
fn decode<B: DeserializeOwned>(req: &Request) -> Result<B, ProtocolError> {
    wire::from_bytes(&req.body).map_err(|e| ProtocolError::MalformedBody(e.to_string()))
}

/// A fully parsed, authenticated inbound request.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedServiceRequest {
    /// Engine health check.
    Status,
    /// Engine integration-test setup.
    TestSetup,
    /// Poll one trigger subscription on behalf of `user`.
    Poll {
        user: UserId,
        trigger: TriggerSlug,
        body: PollRequestBody,
    },
    /// Poll many trigger subscriptions of `user` in one round trip.
    BatchPoll {
        user: UserId,
        body: BatchPollRequestBody,
    },
    /// Execute one action on behalf of `user`.
    Action {
        user: UserId,
        action: ActionSlug,
        body: ActionRequestBody,
    },
    /// Run one read-only query on behalf of `user`.
    Query {
        user: UserId,
        query: QuerySlug,
        body: QueryRequestBody,
    },
    /// User consent on the hosted authorization page.
    OAuthAuthorize { user: UserId },
    /// Engine exchanging an authorization code.
    OAuthToken { code: AuthCode },
}

/// The generic protocol front of a partner service.
#[derive(Debug)]
pub struct ServiceEndpoint {
    slug: ServiceSlug,
    key: ServiceKey,
    /// OAuth2 provider for this service's user accounts.
    pub oauth: OAuthProvider,
    /// Triggers this service exposes.
    triggers: HashSet<TriggerSlug>,
    /// Actions this service exposes.
    actions: HashSet<ActionSlug>,
    /// Queries this service exposes.
    queries: HashSet<QuerySlug>,
}

impl ServiceEndpoint {
    /// Create an endpoint for `slug`, authenticated by `key`.
    pub fn new(slug: ServiceSlug, key: ServiceKey) -> Self {
        ServiceEndpoint {
            slug,
            key,
            oauth: OAuthProvider::new(),
            triggers: HashSet::new(),
            actions: HashSet::new(),
            queries: HashSet::new(),
        }
    }

    /// This service's slug.
    pub fn slug(&self) -> &ServiceSlug {
        &self.slug
    }

    /// The service key (for wiring engine configuration in tests).
    pub fn key(&self) -> &ServiceKey {
        &self.key
    }

    /// Declare a trigger endpoint.
    pub fn with_trigger(mut self, t: impl Into<TriggerSlug>) -> Self {
        self.triggers.insert(t.into());
        self
    }

    /// Declare an action endpoint.
    pub fn with_action(mut self, a: impl Into<ActionSlug>) -> Self {
        self.actions.insert(a.into());
        self
    }

    /// Declare a query endpoint.
    pub fn with_query(mut self, q: impl Into<QuerySlug>) -> Self {
        self.queries.insert(q.into());
        self
    }

    /// Route, authenticate, and parse an inbound request.
    pub fn parse(&self, req: &Request) -> Result<ParsedServiceRequest, ProtocolError> {
        let endpoint = endpoints::parse(&req.path)
            .ok_or_else(|| ProtocolError::UnknownEndpoint(req.path.to_string()))?;
        // The OAuth pages are user-facing; everything else is the engine's
        // and carries the service key.
        if !matches!(endpoint, Endpoint::OAuthAuthorize | Endpoint::OAuthToken) {
            self.check_key(req)?;
        }
        match endpoint {
            Endpoint::Status => Ok(ParsedServiceRequest::Status),
            Endpoint::TestSetup => Ok(ParsedServiceRequest::TestSetup),
            Endpoint::Trigger(trigger) => {
                if !self.triggers.contains(&trigger) {
                    return Err(ProtocolError::UnknownTrigger(trigger.0));
                }
                let (user, body) = self.authed_body(req, |b: &PollRequestBody| &b.user)?;
                Ok(ParsedServiceRequest::Poll {
                    user,
                    trigger,
                    body,
                })
            }
            Endpoint::BatchPoll => {
                let (user, body) = self.authed_body(req, |b: &BatchPollRequestBody| &b.user)?;
                // Every entry must name a trigger this service exposes; one
                // bad entry fails the whole batch, like one bad URL would.
                for entry in &body.entries {
                    if !self.triggers.contains(&entry.trigger) {
                        return Err(ProtocolError::UnknownTrigger(entry.trigger.0.clone()));
                    }
                }
                Ok(ParsedServiceRequest::BatchPoll { user, body })
            }
            Endpoint::Action(action) => {
                if !self.actions.contains(&action) {
                    return Err(ProtocolError::UnknownAction(action.0));
                }
                let (user, body) = self.authed_body(req, |b: &ActionRequestBody| &b.user)?;
                Ok(ParsedServiceRequest::Action { user, action, body })
            }
            Endpoint::Query(query) => {
                if !self.queries.contains(&query) {
                    return Err(ProtocolError::UnknownEndpoint(req.path.to_string()));
                }
                let (user, body) = self.authed_body(req, |b: &QueryRequestBody| &b.user)?;
                Ok(ParsedServiceRequest::Query { user, query, body })
            }
            Endpoint::OAuthAuthorize => {
                if req.method != Method::Post {
                    return Err(ProtocolError::MalformedBody("POST required".into()));
                }
                let body: OAuthAuthorizeBody = decode(req)?;
                Ok(ParsedServiceRequest::OAuthAuthorize { user: body.user })
            }
            Endpoint::OAuthToken => {
                let body: OAuthCodeBody = decode(req)?;
                Ok(ParsedServiceRequest::OAuthToken { code: body.code })
            }
        }
    }

    /// What every API request goes through once its endpoint is known to
    /// exist: bearer → user, body → `B`, and the body must claim that user.
    fn authed_body<B: DeserializeOwned>(
        &self,
        req: &Request,
        claimed: impl Fn(&B) -> &UserId,
    ) -> Result<(UserId, B), ProtocolError> {
        let user = self.token_user(req)?;
        let body: B = decode(req)?;
        if claimed(&body) != user {
            return Err(ProtocolError::BadAccessToken);
        }
        Ok((user.clone(), body))
    }

    /// Authenticate an API request without allocating: service key plus
    /// bearer token, resolved to the token's user. Performs exactly the
    /// checks [`ServiceEndpoint::parse`] runs for API endpoints, so a
    /// caller that verified everything else about a memoized request can
    /// re-authenticate per delivery and skip the parse.
    pub fn authenticate(&self, req: &Request) -> Result<&UserId, ProtocolError> {
        self.check_key(req)?;
        self.token_user(req)
    }

    fn check_key(&self, req: &Request) -> Result<(), ProtocolError> {
        match req.header(SERVICE_KEY_HEADER) {
            Some(k) if self.key.matches(k) => Ok(()),
            _ => Err(ProtocolError::BadServiceKey),
        }
    }

    /// The user the request's bearer token was issued to.
    fn token_user(&self, req: &Request) -> Result<&UserId, ProtocolError> {
        req.header(AUTHORIZATION_HEADER)
            .and_then(|h| h.strip_prefix("Bearer "))
            .and_then(|token| self.oauth.validate_str(token))
            .ok_or(ProtocolError::BadAccessToken)
    }

    /// Build the wire response for a successful poll.
    pub fn poll_ok(events: Vec<TriggerEvent>) -> Response {
        if events.is_empty() {
            // The overwhelmingly common steady-state reply; skip serde.
            return Response::ok().with_body(wire::empty_poll_body());
        }
        Response::ok().with_body(wire::to_bytes(&PollResponseBody { data: events }))
    }

    /// Build the wire response for a successful batch poll. When no entry
    /// has any events — the steady-state common case — the reply is the
    /// static empty-batch bytes, skipping serde entirely.
    pub fn batch_poll_ok(results: Vec<BatchPollResult>) -> Response {
        if results.iter().all(|r| r.data.is_empty()) {
            return Response::ok().with_body(wire::empty_batch_body());
        }
        Response::ok().with_body(wire::to_bytes(&BatchPollResponseBody { data: results }))
    }

    /// Build the wire response for a successful action.
    pub fn action_ok(outcome_id: impl Into<String>) -> Response {
        Response::ok().with_body(wire::to_bytes(&ActionResponseBody::single(outcome_id)))
    }

    /// Build the wire response for a successful query.
    pub fn query_ok(data: crate::ids::FieldMap) -> Response {
        Response::ok().with_body(wire::to_bytes(&QueryResponseBody { data }))
    }

    /// Build the wire response for a protocol error.
    pub fn error_response(err: &ProtocolError) -> Response {
        Response::with_status(err.status())
            .with_body(wire::to_bytes(&ErrorBody::message(err.to_string())))
    }
}

/// Per-subscription buffered trigger events.
///
/// Matches the production semantics the paper observed: the service keeps a
/// rolling buffer per trigger identity; a poll returns the newest `limit`
/// events (newest first) and *does not* consume them — the engine
/// de-duplicates by event id across polls.
///
/// Identities are interned once into a private [`crate::Interner`] and the
/// per-subscription state lives in a dense vector indexed by the symbol.
/// That symbol is the subscription's *slot*: [`TriggerBuffer::slot`] hands
/// it out, and a caller that keeps it (a service core keeps one per
/// subscription record) pushes and polls without hashing the identity
/// again. The identity-keyed methods are the same operations, one lookup
/// first.
#[derive(Debug, Default)]
pub struct TriggerBuffer {
    syms: Interner,
    /// Indexed by the identity's symbol.
    slots: Vec<BufferSlot>,
    cap: usize,
}

#[derive(Debug, Default)]
struct BufferSlot {
    events: VecDeque<TriggerEvent>,
    seen: HashSet<String>,
    /// Serialized form of the newest `limit` events, rebuilt lazily and
    /// dropped whenever `events` changes. Polls don't consume the buffer,
    /// so an active subscription serves the same events poll after poll;
    /// steady-state replies are refcounted clones of one serialization
    /// instead of fresh serde passes.
    cache: Option<SerializedPoll>,
}

#[derive(Debug)]
struct SerializedPoll {
    limit: usize,
    /// Number of events serialized (≤ `limit`).
    count: usize,
    /// The events array fragment, newest first: `[{...},...]`.
    frag: String,
    /// The complete single-poll reply body: `{"data":<frag>}`.
    body: bytes::Bytes,
}

impl TriggerBuffer {
    /// Default retention per subscription.
    pub const DEFAULT_CAP: usize = 1_000;

    /// A buffer retaining up to `DEFAULT_CAP` events per subscription.
    pub fn new() -> Self {
        TriggerBuffer {
            cap: Self::DEFAULT_CAP,
            ..TriggerBuffer::default()
        }
    }

    /// A buffer with a custom per-subscription retention cap.
    pub fn with_cap(cap: usize) -> Self {
        TriggerBuffer {
            cap: cap.max(1),
            ..TriggerBuffer::default()
        }
    }

    /// The subscription's slot, made on first sight. Slots are dense, start
    /// at zero and are never reused or dropped.
    pub fn slot(&mut self, identity: &TriggerIdentity) -> Symbol {
        let slot = self.syms.intern(identity.as_str());
        if slot.index() as usize >= self.slots.len() {
            self.slots
                .resize_with(slot.index() as usize + 1, BufferSlot::default);
        }
        slot
    }

    fn known(&self, identity: &TriggerIdentity) -> Option<&BufferSlot> {
        let slot = self.syms.get(identity.as_str())?;
        self.slots.get(slot.index() as usize)
    }

    /// Record an event for a subscription. Duplicate event ids are ignored.
    /// Returns true if the event was newly recorded.
    pub fn push(&mut self, identity: &TriggerIdentity, event: TriggerEvent) -> bool {
        let slot = self.slot(identity);
        self.push_at(slot, event)
    }

    /// [`TriggerBuffer::push`] by slot.
    pub fn push_at(&mut self, slot: Symbol, event: TriggerEvent) -> bool {
        let cap = self.cap;
        let slot = &mut self.slots[slot.index() as usize];
        if !slot.seen.insert(event.meta.id.clone()) {
            return false;
        }
        slot.events.push_back(event);
        while slot.events.len() > cap {
            if let Some(evicted) = slot.events.pop_front() {
                slot.seen.remove(&evicted.meta.id);
            }
        }
        slot.cache = None;
        true
    }

    /// The newest `limit` events for a subscription, newest first.
    pub fn latest(&self, identity: &TriggerIdentity, limit: usize) -> Vec<TriggerEvent> {
        let Some(slot) = self.known(identity) else {
            return Vec::new();
        };
        slot.events.iter().rev().take(limit).cloned().collect()
    }

    /// Number of buffered events for a subscription.
    pub fn len(&self, identity: &TriggerIdentity) -> usize {
        self.known(identity).map_or(0, |s| s.events.len())
    }

    /// True if nothing is buffered for a subscription.
    pub fn is_empty(&self, identity: &TriggerIdentity) -> bool {
        self.len(identity) == 0
    }

    /// Drop a subscription's buffer entirely.
    pub fn clear(&mut self, identity: &TriggerIdentity) {
        if let Some(slot) = self.syms.get(identity.as_str()) {
            let slot = &mut self.slots[slot.index() as usize];
            slot.events.clear();
            slot.seen.clear();
            slot.cache = None;
        }
    }

    /// The slot's serialization for `limit`, (re)built if it is missing or
    /// was built for a different limit; `None` while the slot holds no
    /// events. Byte-identical to what [`ServiceEndpoint::poll_ok`] would
    /// serialize from [`TriggerBuffer::latest`].
    fn serialized(&mut self, slot: Symbol, limit: usize) -> Option<&SerializedPoll> {
        let slot = &mut self.slots[slot.index() as usize];
        if slot.events.is_empty() {
            return None;
        }
        if !matches!(&slot.cache, Some(c) if c.limit == limit) {
            let events: Vec<&TriggerEvent> = slot.events.iter().rev().take(limit).collect();
            let frag = serde_json::to_string(&events).expect("wire types serialize");
            let mut body = String::with_capacity(frag.len() + 9);
            body.push_str("{\"data\":");
            body.push_str(&frag);
            body.push('}');
            slot.cache = Some(SerializedPoll {
                limit,
                count: events.len(),
                frag,
                body: bytes::Bytes::from(body),
            });
        }
        slot.cache.as_ref()
    }

    /// The full reply body for a single-subscription poll, plus the number
    /// of events it carries. Repeat polls of an unchanged buffer reuse the
    /// cached serialization (the returned [`bytes::Bytes`] is a refcount
    /// clone, not a fresh allocation).
    pub fn poll_response(&mut self, slot: Symbol, limit: usize) -> (bytes::Bytes, usize) {
        match self.serialized(slot, limit) {
            Some(c) => (c.body.clone(), c.count),
            None => (wire::empty_poll_body(), 0),
        }
    }

    /// What [`TriggerBuffer::write_batch_result`] would append for `slot`:
    /// how many events, and how many bytes (short only by the escapes an
    /// identity may need). A round with no events is answered without
    /// writing; any other reserves its reply once.
    pub fn batch_result_size(&mut self, slot: Symbol, limit: usize) -> (usize, usize) {
        let data = self.serialized(slot, limit);
        let (count, data) = data.map_or((0, 2), |c| (c.count, c.frag.len()));
        let fixed = "{\"data\":,\"trigger_identity\":\"\"}".len();
        (count, fixed + data + self.syms.resolve(slot).len())
    }

    /// Append one batch-poll result fragment
    /// (`{"data":[…],"trigger_identity":"…"}`) for `slot` to `out`; returns
    /// the number of events included. Key order matches the derived
    /// [`wire::BatchPollResult`] serialization (alphabetical).
    pub fn write_batch_result(&mut self, slot: Symbol, limit: usize, out: &mut String) -> usize {
        out.push_str("{\"data\":");
        let count = match self.serialized(slot, limit) {
            Some(c) => {
                out.push_str(&c.frag);
                c.count
            }
            None => {
                out.push_str("[]");
                0
            }
        };
        out.push_str(",\"trigger_identity\":");
        serde_json::write_json_str(out, self.syms.resolve(slot));
        out.push('}');
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn endpoint() -> ServiceEndpoint {
        ServiceEndpoint::new(ServiceSlug::new("svc"), ServiceKey("sk_test".into()))
            .with_trigger("new_email")
            .with_action("turn_on")
    }

    fn authed_poll_request(ep: &mut ServiceEndpoint) -> (Request, UserId) {
        let mut rng = StdRng::seed_from_u64(9);
        let user = UserId::new("u1");
        let token = ep.oauth.mint_token(user.clone(), &mut rng);
        let ti = TriggerIdentity::derive(
            &user,
            ep.slug(),
            &TriggerSlug::new("new_email"),
            &Default::default(),
        );
        let body = PollRequestBody {
            trigger_identity: ti,
            trigger_fields: Default::default(),
            user: user.clone(),
            limit: 50,
        };
        let req = Request::post("/ifttt/v1/triggers/new_email")
            .with_header(SERVICE_KEY_HEADER, "sk_test")
            .with_header(AUTHORIZATION_HEADER, token.bearer())
            .with_body(wire::to_bytes(&body));
        (req, user)
    }

    #[test]
    fn authenticated_poll_parses() {
        let mut ep = endpoint();
        let (req, user) = authed_poll_request(&mut ep);
        match ep.parse(&req).unwrap() {
            ParsedServiceRequest::Poll {
                user: u,
                trigger,
                body,
            } => {
                assert_eq!(u, user);
                assert_eq!(trigger, TriggerSlug::new("new_email"));
                assert_eq!(body.limit, 50);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_service_key_is_401() {
        let mut ep = endpoint();
        let (mut req, _) = authed_poll_request(&mut ep);
        req.headers.retain(|(n, _)| *n != SERVICE_KEY_HEADER);
        assert_eq!(ep.parse(&req), Err(ProtocolError::BadServiceKey));
    }

    #[test]
    fn wrong_service_key_is_401() {
        let mut ep = endpoint();
        let (mut req, _) = authed_poll_request(&mut ep);
        req.headers.retain(|(n, _)| *n != SERVICE_KEY_HEADER);
        let req = req.with_header(SERVICE_KEY_HEADER, "sk_wrong");
        assert_eq!(ep.parse(&req), Err(ProtocolError::BadServiceKey));
    }

    #[test]
    fn missing_token_is_401() {
        let mut ep = endpoint();
        let (mut req, _) = authed_poll_request(&mut ep);
        req.headers.retain(|(n, _)| *n != AUTHORIZATION_HEADER);
        assert_eq!(ep.parse(&req), Err(ProtocolError::BadAccessToken));
    }

    #[test]
    fn user_mismatch_is_401() {
        let mut ep = endpoint();
        let (req, _) = authed_poll_request(&mut ep);
        // Re-body the request claiming a different user than the token's.
        let body = PollRequestBody {
            trigger_identity: TriggerIdentity("ti_x".into()),
            trigger_fields: Default::default(),
            user: UserId::new("mallory"),
            limit: 50,
        };
        let req = Request::post(req.path.clone())
            .with_header(SERVICE_KEY_HEADER, "sk_test")
            .with_header(
                AUTHORIZATION_HEADER,
                req.header(AUTHORIZATION_HEADER).unwrap().to_string(),
            )
            .with_body(wire::to_bytes(&body));
        assert_eq!(ep.parse(&req), Err(ProtocolError::BadAccessToken));
    }

    #[test]
    fn unknown_trigger_is_404() {
        let mut ep = endpoint();
        let (req, _) = authed_poll_request(&mut ep);
        let req = Request::post("/ifttt/v1/triggers/nonexistent")
            .with_header(SERVICE_KEY_HEADER, "sk_test")
            .with_header(
                AUTHORIZATION_HEADER,
                req.header(AUTHORIZATION_HEADER).unwrap().to_string(),
            )
            .with_body(req.body.clone());
        assert!(matches!(
            ep.parse(&req),
            Err(ProtocolError::UnknownTrigger(_))
        ));
    }

    #[test]
    fn malformed_body_is_400() {
        let mut ep = endpoint();
        let (req, _) = authed_poll_request(&mut ep);
        let req = Request::post("/ifttt/v1/triggers/new_email")
            .with_header(SERVICE_KEY_HEADER, "sk_test")
            .with_header(
                AUTHORIZATION_HEADER,
                req.header(AUTHORIZATION_HEADER).unwrap().to_string(),
            )
            .with_body("{oops");
        assert!(matches!(
            ep.parse(&req),
            Err(ProtocolError::MalformedBody(_))
        ));
    }

    fn batch_body(user: &UserId, triggers: &[&str]) -> wire::BatchPollRequestBody {
        wire::BatchPollRequestBody {
            user: user.clone(),
            entries: triggers
                .iter()
                .map(|t| wire::BatchPollEntry {
                    trigger: TriggerSlug::new(*t),
                    trigger_identity: TriggerIdentity::derive(
                        user,
                        &ServiceSlug::new("svc"),
                        &TriggerSlug::new(*t),
                        &Default::default(),
                    ),
                    trigger_fields: Default::default(),
                    limit: 50,
                })
                .collect(),
        }
    }

    #[test]
    fn authenticated_batch_poll_parses() {
        let mut ep = endpoint().with_trigger("second_trigger");
        let mut rng = StdRng::seed_from_u64(11);
        let user = UserId::new("u1");
        let token = ep.oauth.mint_token(user.clone(), &mut rng);
        let body = batch_body(&user, &["new_email", "second_trigger"]);
        let req = Request::post(crate::endpoints::BATCH_POLL_PATH)
            .with_header(SERVICE_KEY_HEADER, "sk_test")
            .with_header(AUTHORIZATION_HEADER, token.bearer())
            .with_body(wire::to_bytes(&body));
        match ep.parse(&req).unwrap() {
            ParsedServiceRequest::BatchPoll { user: u, body } => {
                assert_eq!(u, user);
                assert_eq!(body.entries.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_poll_with_unknown_trigger_is_404() {
        let mut ep = endpoint();
        let mut rng = StdRng::seed_from_u64(12);
        let user = UserId::new("u1");
        let token = ep.oauth.mint_token(user.clone(), &mut rng);
        let body = batch_body(&user, &["new_email", "nonexistent"]);
        let req = Request::post(crate::endpoints::BATCH_POLL_PATH)
            .with_header(SERVICE_KEY_HEADER, "sk_test")
            .with_header(AUTHORIZATION_HEADER, token.bearer())
            .with_body(wire::to_bytes(&body));
        assert!(matches!(
            ep.parse(&req),
            Err(ProtocolError::UnknownTrigger(_))
        ));
    }

    #[test]
    fn batch_poll_user_mismatch_is_401() {
        let mut ep = endpoint();
        let mut rng = StdRng::seed_from_u64(13);
        let token = ep.oauth.mint_token(UserId::new("u1"), &mut rng);
        let body = batch_body(&UserId::new("mallory"), &["new_email"]);
        let req = Request::post(crate::endpoints::BATCH_POLL_PATH)
            .with_header(SERVICE_KEY_HEADER, "sk_test")
            .with_header(AUTHORIZATION_HEADER, token.bearer())
            .with_body(wire::to_bytes(&body));
        assert_eq!(ep.parse(&req), Err(ProtocolError::BadAccessToken));
    }

    #[test]
    fn batch_poll_ok_uses_static_bytes_when_all_entries_empty() {
        let empty = ServiceEndpoint::batch_poll_ok(vec![
            wire::BatchPollResult {
                trigger_identity: TriggerIdentity("ti_a".into()),
                data: vec![],
            },
            wire::BatchPollResult {
                trigger_identity: TriggerIdentity("ti_b".into()),
                data: vec![],
            },
        ]);
        assert_eq!(&*empty.body, wire::EMPTY_BATCH_JSON);
        let full = ServiceEndpoint::batch_poll_ok(vec![wire::BatchPollResult {
            trigger_identity: TriggerIdentity("ti_a".into()),
            data: vec![TriggerEvent::new("e1", 1)],
        }]);
        let parsed: BatchPollResponseBody = wire::from_bytes(&full.body).unwrap();
        assert_eq!(parsed.data.len(), 1);
        assert_eq!(parsed.data[0].data[0].meta.id, "e1");
    }

    #[test]
    fn status_needs_only_service_key() {
        let ep = endpoint();
        let req = Request::get("/ifttt/v1/status").with_header(SERVICE_KEY_HEADER, "sk_test");
        assert_eq!(ep.parse(&req), Ok(ParsedServiceRequest::Status));
    }

    #[test]
    fn error_response_carries_json_error_body() {
        let resp = ServiceEndpoint::error_response(&ProtocolError::BadServiceKey);
        assert_eq!(resp.status, 401);
        let body: ErrorBody = wire::from_bytes(&resp.body).unwrap();
        assert_eq!(body.errors.len(), 1);
    }

    // --- TriggerBuffer ---

    fn ti(n: u32) -> TriggerIdentity {
        TriggerIdentity(format!("ti_{n}"))
    }

    #[test]
    fn buffer_returns_newest_first_up_to_limit() {
        let mut b = TriggerBuffer::new();
        for i in 0..5 {
            b.push(&ti(1), TriggerEvent::new(format!("e{i}"), i));
        }
        let got = b.latest(&ti(1), 3);
        let ids: Vec<_> = got.iter().map(|e| e.meta.id.as_str()).collect();
        assert_eq!(ids, vec!["e4", "e3", "e2"]);
        // Poll does not consume.
        assert_eq!(b.len(&ti(1)), 5);
    }

    #[test]
    fn buffer_dedups_by_event_id() {
        let mut b = TriggerBuffer::new();
        assert!(b.push(&ti(1), TriggerEvent::new("e1", 0)));
        assert!(!b.push(&ti(1), TriggerEvent::new("e1", 9)));
        assert_eq!(b.len(&ti(1)), 1);
    }

    #[test]
    fn buffer_evicts_oldest_beyond_cap() {
        let mut b = TriggerBuffer::with_cap(3);
        for i in 0..5 {
            b.push(&ti(1), TriggerEvent::new(format!("e{i}"), i));
        }
        assert_eq!(b.len(&ti(1)), 3);
        let ids: Vec<_> = b
            .latest(&ti(1), 10)
            .iter()
            .map(|e| e.meta.id.clone())
            .collect();
        assert_eq!(ids, vec!["e4", "e3", "e2"]);
        // An evicted id may be pushed again (it is no longer "seen").
        assert!(b.push(&ti(1), TriggerEvent::new("e0", 9)));
    }

    #[test]
    fn buffer_isolates_subscriptions() {
        let mut b = TriggerBuffer::new();
        b.push(&ti(1), TriggerEvent::new("e1", 0));
        assert!(b.is_empty(&ti(2)));
        assert_eq!(b.latest(&ti(2), 10), Vec::new());
    }

    /// The cached serializations must be byte-identical to serializing the
    /// `latest()` vectors through serde — otherwise wire sizes (and with
    /// them latency digests) would shift.
    #[test]
    fn cached_poll_response_matches_serde() {
        let mut b = TriggerBuffer::new();
        for i in 0..5 {
            b.push(
                &ti(1),
                TriggerEvent::new(format!("e{i}"), i).with_ingredient("k", format!("v{i}")),
            );
        }
        let (one, two) = (b.slot(&ti(1)), b.slot(&ti(2)));
        let (body, count) = b.poll_response(one, 3);
        assert_eq!(count, 3);
        let via_serde = ServiceEndpoint::poll_ok(b.latest(&ti(1), 3));
        assert_eq!(&*body, &*via_serde.body);
        // Second poll returns the same storage (refcount clone).
        let (again, _) = b.poll_response(one, 3);
        assert_eq!(&*again, &*body);
        // A push invalidates the cache.
        b.push(&ti(1), TriggerEvent::new("e9", 9));
        let (fresh, count) = b.poll_response(one, 3);
        assert_eq!(count, 3);
        assert_eq!(
            &*fresh,
            &*ServiceEndpoint::poll_ok(b.latest(&ti(1), 3)).body
        );
        // Empty subscription: the static fast-path bytes.
        let (empty, count) = b.poll_response(two, 3);
        assert_eq!(count, 0);
        assert_eq!(&*empty, wire::EMPTY_POLL_JSON);
    }

    #[test]
    fn cached_batch_fragment_matches_serde() {
        let mut b = TriggerBuffer::new();
        b.push(&ti(1), TriggerEvent::new("e1", 1).with_ingredient("a", "x"));
        b.push(&ti(1), TriggerEvent::new("e2", 2));
        let (one, two) = (b.slot(&ti(1)), b.slot(&ti(2)));
        let ((events1, len1), (events2, len2)) =
            (b.batch_result_size(one, 50), b.batch_result_size(two, 50));
        let mut out = String::from("{\"data\":[");
        let n1 = b.write_batch_result(one, 50, &mut out);
        out.push(',');
        let n2 = b.write_batch_result(two, 50, &mut out);
        out.push_str("]}");
        assert_eq!((n1, n2), (2, 0));
        assert_eq!((events1, events2), (n1, n2));
        assert_eq!(out.len(), "{\"data\":[,]}".len() + len1 + len2);
        let via_serde = ServiceEndpoint::batch_poll_ok(vec![
            wire::BatchPollResult {
                trigger_identity: ti(1),
                data: b.latest(&ti(1), 50),
            },
            wire::BatchPollResult {
                trigger_identity: ti(2),
                data: vec![],
            },
        ]);
        assert_eq!(out.as_bytes(), &*via_serde.body);
    }

    #[test]
    fn buffer_clear_forgets_everything() {
        let mut b = TriggerBuffer::new();
        b.push(&ti(1), TriggerEvent::new("e1", 0));
        b.clear(&ti(1));
        assert!(b.is_empty(&ti(1)));
        assert!(b.push(&ti(1), TriggerEvent::new("e1", 0)));
    }
}
