//! JSON wire messages exchanged between the engine and partner services.
//!
//! Bodies are serialized with `serde_json` into real JSON bytes, so message
//! sizes and parse failures behave like the production protocol.

use crate::auth::AccessToken;
use crate::ids::{FieldMap, ServiceSlug, TriggerIdentity, TriggerSlug, UserId};
use crate::oauth::AuthCode;

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

/// Default `limit` in polling queries: "up to k … (50 by default)" (§4).
pub const DEFAULT_POLL_LIMIT: usize = 50;

/// One trigger event returned from a poll.
///
/// `meta.id` de-duplicates events across polls; `meta.timestamp` is the
/// virtual-time second the event occurred; `ingredients` carry the
/// trigger-specific data the action can reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriggerEvent {
    pub meta: EventMeta,
    #[serde(default)]
    pub ingredients: FieldMap,
}

/// Event identity and occurrence time.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EventMeta {
    /// Service-unique event id.
    pub id: String,
    /// Occurrence time, in whole virtual seconds.
    pub timestamp: u64,
}

impl TriggerEvent {
    /// Construct an event with the given id and timestamp.
    pub fn new(id: impl Into<String>, timestamp: u64) -> Self {
        TriggerEvent {
            meta: EventMeta {
                id: id.into(),
                timestamp,
            },
            ingredients: FieldMap::new(),
        }
    }

    /// Add an ingredient.
    pub fn with_ingredient(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.ingredients.insert(k.into(), v.into());
        self
    }
}

/// Engine → service: poll one trigger subscription.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PollRequestBody {
    /// Stable identity of the subscription (user × trigger × fields).
    pub trigger_identity: TriggerIdentity,
    /// The applet's trigger field values.
    #[serde(default)]
    pub trigger_fields: FieldMap,
    /// The user on whose behalf the engine polls.
    pub user: UserId,
    /// Maximum number of buffered events to return.
    #[serde(default = "default_limit")]
    pub limit: usize,
}

fn default_limit() -> usize {
    DEFAULT_POLL_LIMIT
}

/// Service → engine: buffered events, newest first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PollResponseBody {
    pub data: Vec<TriggerEvent>,
}

/// The exact wire bytes of an empty [`PollResponseBody`]. Most polls in a
/// steady-state fleet return nothing, so both sides special-case this
/// body: services reply with the static bytes (no serialization) and the
/// engine recognizes them by comparison (no parse). Must stay
/// byte-identical to `to_bytes(&PollResponseBody { data: vec![] })` —
/// there is a test pinning that.
pub const EMPTY_POLL_JSON: &[u8] = b"{\"data\":[]}";

/// The empty poll response body: a [`Bytes`] over the static slice, so
/// nothing is allocated or copied.
pub fn empty_poll_body() -> Bytes {
    Bytes::from_static(EMPTY_POLL_JSON)
}

/// One subscription's slice of a batched poll (engine → service).
///
/// Unlike a single [`PollRequestBody`], the trigger slug rides in the body:
/// a batch request hits one shared endpoint path, not the per-trigger URL,
/// so the service needs the slug to validate and route each entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPollEntry {
    /// Which trigger this entry polls.
    pub trigger: TriggerSlug,
    /// Stable identity of the subscription (user × trigger × fields).
    pub trigger_identity: TriggerIdentity,
    /// The applet's trigger field values.
    #[serde(default)]
    pub trigger_fields: FieldMap,
    /// Maximum number of buffered events to return for this entry.
    #[serde(default = "default_limit")]
    pub limit: usize,
}

/// Engine → service: poll many subscriptions of **one user** in a single
/// round trip (the coalesced fan-in path). All entries are authorized by
/// the same access token, which is why the user is batch-level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPollRequestBody {
    /// The user on whose behalf every entry polls.
    pub user: UserId,
    /// Per-subscription poll entries, in engine coalescing-group order.
    pub entries: Vec<BatchPollEntry>,
}

/// One subscription's slice of a batched poll response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPollResult {
    /// Echoes the entry's identity (results also correlate by position).
    pub trigger_identity: TriggerIdentity,
    /// Buffered events for this subscription, newest first.
    pub data: Vec<TriggerEvent>,
}

/// Service → engine: per-entry event lists, one result per request entry,
/// in request order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchPollResponseBody {
    pub data: Vec<BatchPollResult>,
}

/// The exact wire bytes the batch fast path uses when **no** entry has any
/// events — the steady-state common case, mirroring [`EMPTY_POLL_JSON`].
/// The engine treats these bytes as "every entry returned nothing" without
/// parsing; a test pins them to what serde would emit for an empty
/// [`BatchPollResponseBody`].
pub const EMPTY_BATCH_JSON: &[u8] = b"{\"data\":[]}";

/// The empty batch-poll response body: a [`Bytes`] over the static slice,
/// so nothing is allocated or copied.
pub fn empty_batch_body() -> Bytes {
    Bytes::from_static(EMPTY_BATCH_JSON)
}

/// Engine → service: execute one action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionRequestBody {
    /// The applet's action field values (after ingredient substitution).
    #[serde(default)]
    pub action_fields: FieldMap,
    /// The user on whose behalf the action runs.
    pub user: UserId,
}

/// Service → engine: action executed; `id` names the created resource.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionResponseBody {
    pub data: Vec<ActionOutcome>,
}

/// The outcome record inside an action response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionOutcome {
    pub id: String,
}

impl ActionResponseBody {
    /// A single-outcome success body.
    pub fn single(id: impl Into<String>) -> Self {
        ActionResponseBody {
            data: vec![ActionOutcome { id: id.into() }],
        }
    }
}

/// Service → engine realtime-API hint: these subscriptions have fresh data.
///
/// "The real-time API merely provides hints to the IFTTT engine, which
/// still needs to poll the service to get the trigger event delivered" (§4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealtimeNotification {
    pub data: Vec<RealtimeItem>,
}

/// One hinted subscription.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealtimeItem {
    pub trigger_identity: TriggerIdentity,
}

impl RealtimeNotification {
    /// A hint for a single subscription.
    pub fn single(ti: TriggerIdentity) -> Self {
        RealtimeNotification {
            data: vec![RealtimeItem {
                trigger_identity: ti,
            }],
        }
    }
}

/// Version tag carried by [`RealtimeNotificationV1`] bodies. Bumping the
/// wire shape bumps this; the engine rejects versions it does not speak.
pub const REALTIME_NOTIFICATION_VERSION: u32 = 1;

/// Service → engine: the first-class realtime notification.
///
/// Unlike the legacy [`RealtimeNotification`] hint (bare trigger
/// identities), this body is versioned and names both the sending service
/// and the affected trigger *channel*, so the engine can validate the
/// notification against the authenticated service key and schedule an
/// immediate poll without reverse-mapping identities first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealtimeNotificationV1 {
    /// Body-shape version ([`REALTIME_NOTIFICATION_VERSION`]).
    pub version: u32,
    /// The service asserting it has fresh trigger data.
    pub service: ServiceSlug,
    /// Affected subscriptions, one item per hinted channel.
    pub data: Vec<RealtimeChannel>,
}

/// One affected subscription inside a [`RealtimeNotificationV1`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealtimeChannel {
    /// Stable identity of the subscription with fresh data.
    pub trigger_identity: TriggerIdentity,
    /// The trigger channel the data arrived on.
    pub channel: TriggerSlug,
}

impl RealtimeNotificationV1 {
    /// A notification for a single subscription.
    pub fn single(service: ServiceSlug, channel: TriggerSlug, ti: TriggerIdentity) -> Self {
        RealtimeNotificationV1 {
            version: REALTIME_NOTIFICATION_VERSION,
            service,
            data: vec![RealtimeChannel {
                trigger_identity: ti,
                channel,
            }],
        }
    }
}

/// Engine → service: acknowledgement of a realtime notification, telling
/// the service how its hint was scheduled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealtimeAckBody {
    /// Subscriptions for which an immediate poll was armed.
    pub accepted: u64,
    /// Subscriptions whose hint was absorbed by an outstanding immediate
    /// poll or an open debounce window (cadence polling will cover them).
    pub suppressed: u64,
}

/// Engine → service: run one read-only query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequestBody {
    /// The applet's query field values.
    #[serde(default)]
    pub query_fields: FieldMap,
    /// The user on whose behalf the query runs.
    pub user: UserId,
}

/// Service → engine: the query result as key/value ingredients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResponseBody {
    pub data: FieldMap,
}

/// User → service, on the hosted authorization page: who is consenting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OAuthAuthorizeBody {
    pub user: UserId,
}

/// A one-time authorization code on the wire: the service's answer to a
/// consent, and the engine's request to exchange it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OAuthCodeBody {
    pub code: AuthCode,
}

/// Service → engine: the access token a code was exchanged for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OAuthTokenBody {
    pub access_token: AccessToken,
    /// `"Bearer"` from our services; a body without it still decodes.
    #[serde(default)]
    pub token_type: String,
}

impl OAuthTokenBody {
    /// The grant of a bearer token.
    pub fn bearer(access_token: AccessToken) -> Self {
        OAuthTokenBody {
            access_token,
            token_type: "Bearer".into(),
        }
    }
}

/// Error body: `{"errors": [{"message": "..."}]}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    pub errors: Vec<ErrorItem>,
}

/// One error message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorItem {
    pub message: String,
}

impl ErrorBody {
    /// A single-message error body.
    pub fn message(msg: impl Into<String>) -> Self {
        ErrorBody {
            errors: vec![ErrorItem {
                message: msg.into(),
            }],
        }
    }
}

/// Serialize a body to JSON bytes (infallible for these types).
pub fn to_bytes<T: Serialize>(body: &T) -> Bytes {
    Bytes::from(serde_json::to_vec(body).expect("wire types serialize"))
}

/// Parse JSON bytes into a body type.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, serde_json::Error> {
    serde_json::from_slice(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ServiceSlug, TriggerSlug};

    #[test]
    fn poll_request_roundtrips() {
        let ti = TriggerIdentity::derive(
            &UserId::new("u"),
            &ServiceSlug::new("s"),
            &TriggerSlug::new("t"),
            &FieldMap::new(),
        );
        let body = PollRequestBody {
            trigger_identity: ti,
            trigger_fields: [("a".to_string(), "1".to_string())].into_iter().collect(),
            user: UserId::new("u"),
            limit: 10,
        };
        let bytes = to_bytes(&body);
        let back: PollRequestBody = from_bytes(&bytes).unwrap();
        assert_eq!(back, body);
    }

    #[test]
    fn poll_request_limit_defaults_to_50() {
        let json = r#"{"trigger_identity":"ti_x","user":"u1"}"#;
        let body: PollRequestBody = from_bytes(json.as_bytes()).unwrap();
        assert_eq!(body.limit, DEFAULT_POLL_LIMIT);
        assert!(body.trigger_fields.is_empty());
    }

    #[test]
    fn trigger_event_builder() {
        let e = TriggerEvent::new("ev1", 42).with_ingredient("subject", "hello");
        assert_eq!(e.meta.id, "ev1");
        assert_eq!(e.meta.timestamp, 42);
        assert_eq!(e.ingredients["subject"], "hello");
    }

    #[test]
    fn action_response_single() {
        let b = ActionResponseBody::single("row_9");
        let bytes = to_bytes(&b);
        assert_eq!(
            String::from_utf8_lossy(&bytes),
            r#"{"data":[{"id":"row_9"}]}"#
        );
    }

    #[test]
    fn error_body_shape() {
        let b = ErrorBody::message("nope");
        assert_eq!(
            String::from_utf8_lossy(&to_bytes(&b)),
            r#"{"errors":[{"message":"nope"}]}"#
        );
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(from_bytes::<PollRequestBody>(b"{not json").is_err());
        assert!(from_bytes::<PollRequestBody>(b"{}").is_err());
    }

    #[test]
    fn query_bodies_roundtrip() {
        let q = QueryRequestBody {
            query_fields: [("city".to_string(), "rome".to_string())]
                .into_iter()
                .collect(),
            user: UserId::new("u"),
        };
        let back: QueryRequestBody = from_bytes(&to_bytes(&q)).unwrap();
        assert_eq!(back, q);
        let r = QueryResponseBody {
            data: [("condition".to_string(), "rain".to_string())]
                .into_iter()
                .collect(),
        };
        let back: QueryResponseBody = from_bytes(&to_bytes(&r)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn batch_poll_bodies_roundtrip() {
        let req = BatchPollRequestBody {
            user: UserId::new("u1"),
            entries: vec![
                BatchPollEntry {
                    trigger: TriggerSlug::new("fired_0"),
                    trigger_identity: TriggerIdentity("ti_a".into()),
                    trigger_fields: FieldMap::new(),
                    limit: 50,
                },
                BatchPollEntry {
                    trigger: TriggerSlug::new("fired_1"),
                    trigger_identity: TriggerIdentity("ti_b".into()),
                    trigger_fields: [("k".to_string(), "v".to_string())].into_iter().collect(),
                    limit: 10,
                },
            ],
        };
        let back: BatchPollRequestBody = from_bytes(&to_bytes(&req)).unwrap();
        assert_eq!(back, req);
        let resp = BatchPollResponseBody {
            data: vec![
                BatchPollResult {
                    trigger_identity: TriggerIdentity("ti_a".into()),
                    data: vec![TriggerEvent::new("e1", 7)],
                },
                BatchPollResult {
                    trigger_identity: TriggerIdentity("ti_b".into()),
                    data: vec![],
                },
            ],
        };
        let back: BatchPollResponseBody = from_bytes(&to_bytes(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn batch_entry_limit_defaults_to_50() {
        let json = r#"{"trigger":"t","trigger_identity":"ti_x"}"#;
        let entry: BatchPollEntry = from_bytes(json.as_bytes()).unwrap();
        assert_eq!(entry.limit, DEFAULT_POLL_LIMIT);
        assert!(entry.trigger_fields.is_empty());
    }

    /// Like the single-poll fast path: the static empty-batch bytes must be
    /// exactly what serde would produce for an empty response.
    #[test]
    fn empty_batch_fast_path_matches_serde() {
        let serde_bytes = to_bytes(&BatchPollResponseBody { data: vec![] });
        assert_eq!(&*serde_bytes, EMPTY_BATCH_JSON);
        assert_eq!(&*empty_batch_body(), EMPTY_BATCH_JSON);
        let parsed: BatchPollResponseBody = from_bytes(EMPTY_BATCH_JSON).unwrap();
        assert!(parsed.data.is_empty());
    }

    #[test]
    fn realtime_notification_roundtrips() {
        let n = RealtimeNotification::single(TriggerIdentity("ti_1".into()));
        let back: RealtimeNotification = from_bytes(&to_bytes(&n)).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn realtime_notification_v1_roundtrips() {
        let n = RealtimeNotificationV1::single(
            ServiceSlug::new("amazon_alexa"),
            TriggerSlug::new("new_command"),
            TriggerIdentity("ti_9".into()),
        );
        assert_eq!(n.version, REALTIME_NOTIFICATION_VERSION);
        let back: RealtimeNotificationV1 = from_bytes(&to_bytes(&n)).unwrap();
        assert_eq!(back, n);
    }

    /// The two notification generations must stay distinguishable on the
    /// wire: a legacy body (no `version`/`service`) must not parse as v1,
    /// so the engine can try v1 first and fall back.
    #[test]
    fn legacy_notification_is_not_a_v1_body() {
        let legacy = to_bytes(&RealtimeNotification::single(TriggerIdentity(
            "ti_1".into(),
        )));
        assert!(from_bytes::<RealtimeNotificationV1>(&legacy).is_err());
    }

    #[test]
    fn realtime_ack_roundtrips() {
        let ack = RealtimeAckBody {
            accepted: 3,
            suppressed: 1,
        };
        let back: RealtimeAckBody = from_bytes(&to_bytes(&ack)).unwrap();
        assert_eq!(back, ack);
    }

    /// The static fast-path bytes must be what serde would have produced,
    /// or the fast path would change wire sizes (and with them digests).
    #[test]
    fn empty_poll_fast_path_matches_serde() {
        let serde_bytes = to_bytes(&PollResponseBody { data: vec![] });
        assert_eq!(&*serde_bytes, EMPTY_POLL_JSON);
        assert_eq!(&*empty_poll_body(), EMPTY_POLL_JSON);
        let parsed: PollResponseBody = from_bytes(EMPTY_POLL_JSON).unwrap();
        assert!(parsed.data.is_empty());
    }
}
