//! Byte-exact pins of every wire body type, plus round-trip and key-order
//! properties over arbitrary instances.
//!
//! The fixture strings were captured from the Value-tree serializer that
//! preceded the streaming shims; the streaming encoder must reproduce them
//! byte for byte (message sizes feed the simulated network and, through it,
//! every golden digest).

use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::Value;
use tap_protocol::oauth::AuthCode;
use tap_protocol::steps::{StepFailurePolicy, StepNode, StepPredicate, StepSpec};
use tap_protocol::wire::{
    self, ActionOutcome, ActionRequestBody, ActionResponseBody, BatchPollEntry,
    BatchPollRequestBody, BatchPollResponseBody, BatchPollResult, ErrorBody, EventMeta,
    OAuthAuthorizeBody, OAuthCodeBody, OAuthTokenBody, PollRequestBody, PollResponseBody,
    QueryRequestBody, QueryResponseBody, RealtimeAckBody, RealtimeChannel, RealtimeItem,
    RealtimeNotification, RealtimeNotificationV1, TriggerEvent,
};
use tap_protocol::{
    AccessToken, FieldMap, ServiceKey, ServiceSlug, TriggerIdentity, TriggerSlug, UserId,
};

fn fields(pairs: &[(&str, &str)]) -> FieldMap {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Tricky strings: quote, backslash, every short escape, a bare control
/// byte, DEL, a 2-byte, a 3-byte and a non-BMP scalar.
const TRICKY: &str = "q\" b\\ /\n\r\t\u{08}\u{0c}\u{01}\u{1f}\u{7f}é€\u{1F600}";

fn event(id: &str, ts: u64, ingredients: &[(&str, &str)]) -> TriggerEvent {
    TriggerEvent {
        meta: EventMeta {
            id: id.to_string(),
            timestamp: ts,
        },
        ingredients: fields(ingredients),
    }
}

/// Assert the exact bytes of `body` and that they decode back to it.
fn pin<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(body: &T, expected: &str) {
    let bytes = wire::to_bytes(body);
    assert_eq!(
        std::str::from_utf8(&bytes).expect("wire bodies are UTF-8"),
        expected,
        "wire bytes of {body:?}"
    );
    let back: T = wire::from_bytes(&bytes).expect("fixture decodes");
    assert_eq!(&back, body);
}

#[test]
fn poll_bodies_are_pinned() {
    pin(
        &PollRequestBody {
            trigger_identity: TriggerIdentity("ti_0123abcd".into()),
            trigger_fields: fields(&[("label", "inbox"), ("Zed", "caps sort first")]),
            user: UserId::new("u_42"),
            limit: 50,
        },
        r#"{"limit":50,"trigger_fields":{"Zed":"caps sort first","label":"inbox"},"trigger_identity":"ti_0123abcd","user":"u_42"}"#,
    );
    pin(
        &PollRequestBody {
            trigger_identity: TriggerIdentity(String::new()),
            trigger_fields: FieldMap::new(),
            user: UserId::new(TRICKY),
            limit: usize::MAX,
        },
        "{\"limit\":18446744073709551615,\"trigger_fields\":{},\"trigger_identity\":\"\",\"user\":\"q\\\" b\\\\ /\\n\\r\\t\\b\\f\\u0001\\u001f\u{7f}é€\u{1F600}\"}",
    );
    pin(&PollResponseBody { data: vec![] }, r#"{"data":[]}"#);
    pin(
        &PollResponseBody {
            data: vec![
                event(
                    "ev_1",
                    1_490_000_000,
                    &[("subject", "hello"), ("from", "a@b.c")],
                ),
                event("ev_0", 0, &[]),
            ],
        },
        r#"{"data":[{"ingredients":{"from":"a@b.c","subject":"hello"},"meta":{"id":"ev_1","timestamp":1490000000}},{"ingredients":{},"meta":{"id":"ev_0","timestamp":0}}]}"#,
    );
}

#[test]
fn batch_bodies_are_pinned() {
    pin(
        &BatchPollRequestBody {
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
                    trigger_fields: fields(&[("k", "v")]),
                    limit: 10,
                },
            ],
        },
        r#"{"entries":[{"limit":50,"trigger":"fired_0","trigger_fields":{},"trigger_identity":"ti_a"},{"limit":10,"trigger":"fired_1","trigger_fields":{"k":"v"},"trigger_identity":"ti_b"}],"user":"u1"}"#,
    );
    pin(&BatchPollResponseBody { data: vec![] }, r#"{"data":[]}"#);
    pin(
        &BatchPollResponseBody {
            data: vec![
                BatchPollResult {
                    trigger_identity: TriggerIdentity("ti_a".into()),
                    data: vec![event("e1", 7, &[("x", "y")])],
                },
                BatchPollResult {
                    trigger_identity: TriggerIdentity("ti_b".into()),
                    data: vec![],
                },
            ],
        },
        r#"{"data":[{"data":[{"ingredients":{"x":"y"},"meta":{"id":"e1","timestamp":7}}],"trigger_identity":"ti_a"},{"data":[],"trigger_identity":"ti_b"}]}"#,
    );
}

#[test]
fn action_query_and_error_bodies_are_pinned() {
    pin(
        &ActionRequestBody {
            action_fields: fields(&[("color", "blue"), ("lights", "living room")]),
            user: UserId::new("u9"),
        },
        r#"{"action_fields":{"color":"blue","lights":"living room"},"user":"u9"}"#,
    );
    pin(
        &ActionResponseBody::single("row_9"),
        r#"{"data":[{"id":"row_9"}]}"#,
    );
    pin(
        &ActionOutcome {
            id: "x/y".to_string(),
        },
        r#"{"id":"x/y"}"#,
    );
    pin(
        &QueryRequestBody {
            query_fields: fields(&[("city", "rome")]),
            user: UserId::new("u"),
        },
        r#"{"query_fields":{"city":"rome"},"user":"u"}"#,
    );
    pin(
        &QueryResponseBody {
            data: fields(&[("condition", "rain"), ("10", "ten"), ("9", "nine")]),
        },
        r#"{"data":{"10":"ten","9":"nine","condition":"rain"}}"#,
    );
    pin(
        &ErrorBody::message("nope: \"bad\""),
        r#"{"errors":[{"message":"nope: \"bad\""}]}"#,
    );
}

/// The three OAuth bodies, byte for byte what the engine and the service
/// core assembled by hand before the structs existed.
#[test]
fn oauth_bodies_are_pinned() {
    pin(
        &OAuthAuthorizeBody {
            user: UserId::new(TRICKY),
        },
        "{\"user\":\"q\\\" b\\\\ /\\n\\r\\t\\b\\f\\u0001\\u001f\u{7f}é€\u{1F600}\"}",
    );
    pin(
        &OAuthCodeBody {
            code: AuthCode("ac_00000000353a4d52f07a6e24".into()),
        },
        r#"{"code":"ac_00000000353a4d52f07a6e24"}"#,
    );
    pin(
        &OAuthTokenBody::bearer(AccessToken("at_c677b18ff47ab559bc22a870e22b7d0f".into())),
        r#"{"access_token":"at_c677b18ff47ab559bc22a870e22b7d0f","token_type":"Bearer"}"#,
    );
    // The engine never read `token_type`; a grant without one still decodes.
    let bare: OAuthTokenBody = wire::from_bytes(br#"{"access_token":"at_1"}"#).unwrap();
    assert_eq!(bare.access_token, AccessToken("at_1".into()));
}

#[test]
fn realtime_bodies_are_pinned() {
    pin(
        &RealtimeNotification::single(TriggerIdentity("ti_1".into())),
        r#"{"data":[{"trigger_identity":"ti_1"}]}"#,
    );
    pin(
        &RealtimeItem {
            trigger_identity: TriggerIdentity("ti_2".into()),
        },
        r#"{"trigger_identity":"ti_2"}"#,
    );
    pin(
        &RealtimeNotificationV1::single(
            ServiceSlug::new("amazon_alexa"),
            TriggerSlug::new("new_command"),
            TriggerIdentity("ti_9".into()),
        ),
        r#"{"data":[{"channel":"new_command","trigger_identity":"ti_9"}],"service":"amazon_alexa","version":1}"#,
    );
    pin(
        &RealtimeChannel {
            trigger_identity: TriggerIdentity("ti_3".into()),
            channel: TriggerSlug::new("c"),
        },
        r#"{"channel":"c","trigger_identity":"ti_3"}"#,
    );
    pin(
        &RealtimeAckBody {
            accepted: 3,
            suppressed: u64::MAX,
        },
        r#"{"accepted":3,"suppressed":18446744073709551615}"#,
    );
}

#[test]
fn transparent_ids_and_step_dags_are_pinned() {
    pin(&ServiceKey("key_1".into()), r#""key_1""#);
    pin(&AccessToken("tok".into()), r#""tok""#);
    pin(&UserId::new("u"), r#""u""#);
    pin(
        &vec![
            StepNode::new(StepSpec::Filter {
                predicate: StepPredicate::Always,
            }),
            StepNode::new(StepSpec::Filter {
                predicate: StepPredicate::Equals {
                    key: "k".into(),
                    value: "v".into(),
                },
            })
            .after(&[0]),
            StepNode::new(StepSpec::Transform {
                fields: fields(&[("out", "{{in}}")]),
            })
            .after(&[0, 1])
            .on_failure(StepFailurePolicy::Continue),
            StepNode::new(StepSpec::Query {
                query: "lookup".into(),
                prefix: "q".into(),
                fields: FieldMap::new(),
            })
            .with_max_retries(2),
            StepNode::new(StepSpec::Action {
                action: "noop".into(),
                fields: fields(&[("a", "b")]),
            })
            .on_failure(StepFailurePolicy::Halt),
        ],
        r#"[{"deps":[],"max_retries":null,"on_failure":"PolicyDefault","spec":{"Filter":{"predicate":"Always"}}},{"deps":[0],"max_retries":null,"on_failure":"PolicyDefault","spec":{"Filter":{"predicate":{"Equals":{"key":"k","value":"v"}}}}},{"deps":[0,1],"max_retries":null,"on_failure":"Continue","spec":{"Transform":{"fields":{"out":"{{in}}"}}}},{"deps":[],"max_retries":2,"on_failure":"PolicyDefault","spec":{"Query":{"fields":{},"prefix":"q","query":"lookup"}}},{"deps":[],"max_retries":null,"on_failure":"Halt","spec":{"Action":{"action":"noop","fields":{"a":"b"}}}}]"#,
    );
}

/// Strings that exercise every escape class the encoder has.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[a-z_]{1,6}",
            Just("\"".to_string()),
            Just("\\".to_string()),
            Just("/".to_string()),
            Just("\u{1F600}".to_string()),
            Just("é€".to_string()),
            (0u8..0x20).prop_map(|b| (b as char).to_string()),
        ],
        0..6,
    )
    .prop_map(|parts| parts.concat())
}

fn arb_fields() -> impl Strategy<Value = FieldMap> {
    proptest::collection::btree_map(arb_text(), arb_text(), 0..5)
}

fn arb_events() -> impl Strategy<Value = Vec<TriggerEvent>> {
    proptest::collection::vec(
        (arb_text(), any::<u64>(), arb_fields()).prop_map(|(id, timestamp, ingredients)| {
            TriggerEvent {
                meta: EventMeta { id, timestamp },
                ingredients,
            }
        }),
        0..4,
    )
}

/// `from_bytes(to_bytes(x)) == x`, and `to_bytes(x)` is a fixed point of
/// parse-to-`Value`-and-print. `Value::Object` is a `BTreeMap`, so the second
/// half independently witnesses that the typed encoder emitted every object's
/// keys in sorted order with the tree writer's number and escape formatting.
fn check<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(body: &T) {
    let bytes = wire::to_bytes(body);
    let back: T = wire::from_bytes(&bytes).expect("own output decodes");
    assert_eq!(&back, body);
    let text = std::str::from_utf8(&bytes).expect("wire bodies are UTF-8");
    let tree: Value = serde_json::from_str(text).expect("own output is JSON");
    assert_eq!(tree.to_string(), text);
}

proptest! {
    #[test]
    fn arbitrary_poll_bodies_round_trip_with_sorted_keys(
        ti in arb_text(),
        user in arb_text(),
        trigger_fields in arb_fields(),
        limit in any::<usize>(),
        data in arb_events(),
    ) {
        check(&PollRequestBody {
            trigger_identity: TriggerIdentity(ti),
            trigger_fields,
            user: UserId::new(user),
            limit,
        });
        check(&PollResponseBody { data });
    }

    #[test]
    fn arbitrary_batch_bodies_round_trip_with_sorted_keys(
        user in arb_text(),
        entries in proptest::collection::vec((arb_text(), arb_text(), arb_fields(), any::<usize>()), 0..4),
        results in proptest::collection::vec((arb_text(), arb_events()), 0..4),
    ) {
        check(&BatchPollRequestBody {
            user: UserId::new(user),
            entries: entries
                .into_iter()
                .map(|(trigger, ti, trigger_fields, limit)| BatchPollEntry {
                    trigger: TriggerSlug::new(trigger),
                    trigger_identity: TriggerIdentity(ti),
                    trigger_fields,
                    limit,
                })
                .collect(),
        });
        check(&BatchPollResponseBody {
            data: results
                .into_iter()
                .map(|(ti, data)| BatchPollResult {
                    trigger_identity: TriggerIdentity(ti),
                    data,
                })
                .collect(),
        });
    }

    #[test]
    fn arbitrary_action_query_realtime_bodies_round_trip_with_sorted_keys(
        user in arb_text(),
        a in arb_fields(),
        b in arb_fields(),
        id in arb_text(),
        service in arb_text(),
        channel in arb_text(),
        version in any::<u32>(),
        accepted in any::<u64>(),
    ) {
        check(&ActionRequestBody { action_fields: a.clone(), user: UserId::new(user.clone()) });
        check(&ActionResponseBody::single(id.clone()));
        check(&QueryRequestBody { query_fields: b.clone(), user: UserId::new(user) });
        check(&QueryResponseBody { data: a.clone() });
        check(&ErrorBody::message(id.clone()));
        check(&RealtimeNotification::single(TriggerIdentity(id.clone())));
        check(&RealtimeNotificationV1 {
            version,
            service: ServiceSlug::new(service),
            data: vec![RealtimeChannel {
                trigger_identity: TriggerIdentity(id.clone()),
                channel: TriggerSlug::new(channel),
            }],
        });
        check(&RealtimeAckBody { accepted, suppressed: accepted / 3 });
        check(&vec![
            StepNode::new(StepSpec::Filter {
                predicate: StepPredicate::Contains { key: id.clone(), needle: id.clone() },
            }),
            StepNode::new(StepSpec::Query { query: id.clone(), prefix: id.clone(), fields: a })
                .after(&[0])
                .with_max_retries(version),
            StepNode::new(StepSpec::Action { action: id, fields: b })
                .on_failure(StepFailurePolicy::Halt),
        ]);
    }
}
