//! Pins everything one [`ServiceCore`] lets an observer see.
//!
//! The hashes below were captured at the commit *before* the core gave a
//! subscription one id and one record (the `figure1_pin.rs` method) and
//! must pass unchanged afterwards: one script of requests and events —
//! every protocol path, each way a poll can be refused, the request memo
//! cold and warm, realtime on and off, every injected server fault — and
//! an FNV-1a over each `Processed` it produced (variant, status, headers,
//! body bytes), the counters, every realtime hint and every trace line.
//!
//! What a request is answered with does not depend on whether the core
//! notifies an engine, so the per-step rows are one table; what the script
//! leaves behind (counters, hints, trace) is one short table per mode.
//!
//! To find what moved, run with `--nocapture`: each step prints what it
//! saw, then each row its name, the hash it got and the hash it wants.

use bytes::Bytes;
use devices::service_core::{Processed, ServiceCore};
use simnet::chaos::{ServerFault, ServerFaultPlan};
use simnet::prelude::*;
use tap_protocol::auth::{ServiceKey, AUTHORIZATION_HEADER, SERVICE_KEY_HEADER};
use tap_protocol::endpoints::{BATCH_POLL_PATH, STATUS_PATH, TEST_SETUP_PATH};
use tap_protocol::service::ServiceEndpoint;
use tap_protocol::wire::{
    self, ActionRequestBody, BatchPollEntry, BatchPollRequestBody, PollRequestBody,
    QueryRequestBody, TriggerEvent,
};
use tap_protocol::{FieldMap, ServiceSlug, TriggerIdentity, TriggerSlug, UserId};

const KEY: &str = "sk_pin";

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Holds the core so the script can reach it with a [`Context`].
struct Host {
    core: ServiceCore,
}

impl Node for Host {}

/// The engine the core notifies: keeps every hint, answers 200.
#[derive(Default)]
struct Engine {
    hints: Vec<Request>,
}

impl Node for Engine {
    fn on_request(&mut self, _ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        self.hints.push(req.clone());
        HandlerResult::Reply(Response::ok())
    }
}

fn fields(pairs: &[(&str, &str)]) -> FieldMap {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// One subscription the script polls: its trigger, fields and identity.
struct Sub {
    trigger: &'static str,
    fields: FieldMap,
    ti: TriggerIdentity,
}

fn sub(user: &UserId, trigger: &'static str, pairs: &[(&str, &str)]) -> Sub {
    let fields = fields(pairs);
    let ti = TriggerIdentity::derive(
        user,
        &ServiceSlug::new("pinsvc"),
        &TriggerSlug::new(trigger),
        &fields,
    );
    Sub {
        trigger,
        fields,
        ti,
    }
}

fn post(path: &str, key: &str, bearer: &str, body: impl Into<Bytes>) -> Request {
    Request::post(path)
        .with_header(SERVICE_KEY_HEADER, key)
        .with_header(AUTHORIZATION_HEADER, bearer)
        .with_body(body)
}

fn poll_body(user: &UserId, s: &Sub, limit: usize) -> Bytes {
    wire::to_bytes(&PollRequestBody {
        trigger_identity: s.ti.clone(),
        trigger_fields: s.fields.clone(),
        user: user.clone(),
        limit,
    })
}

fn batch_body(user: &UserId, subs: &[(&Sub, &str)]) -> Bytes {
    wire::to_bytes(&BatchPollRequestBody {
        user: user.clone(),
        entries: subs
            .iter()
            .map(|(s, trigger)| BatchPollEntry {
                trigger: TriggerSlug::new(*trigger),
                trigger_identity: s.ti.clone(),
                trigger_fields: s.fields.clone(),
                limit: 50,
            })
            .collect(),
    })
}

/// The script's world: the core under test, the engine it may notify, and
/// one row per thing observed.
struct Script {
    sim: Sim,
    host: NodeId,
    rows: Vec<(String, u64)>,
}

impl Script {
    fn core<R>(&mut self, f: impl FnOnce(&mut ServiceCore, &mut Context<'_>) -> R) -> R {
        self.sim
            .with_node::<Host, _>(self.host, |h, ctx| f(&mut h.core, ctx))
    }

    /// Hand `req` to the core and record what it made of it.
    fn send(&mut self, name: &str, req: &Request) -> Processed {
        let processed = self.core(|core, ctx| core.process(ctx, req));
        let seen = match &processed {
            Processed::Done(r) => {
                let body = String::from_utf8_lossy(&r.body);
                format!("Done {} {:?} {body}", r.status, r.headers)
            }
            other => format!("{other:?}"),
        };
        println!("{name}: {seen}");
        self.rows.push((name.to_string(), fnv1a(&seen)));
        processed
    }

    fn record(&mut self, name: &str, trigger: &str, user: &UserId, id: &str, phrase: Option<&str>) {
        let matched = self.core(|core, ctx| {
            let ev = TriggerEvent::new(id, 7).with_ingredient("id", id);
            core.record_event(ctx, &TriggerSlug::new(trigger), user, ev, |f| {
                phrase.is_none() || f.get("phrase").map(String::as_str) == phrase
            })
        });
        self.rows
            .push((name.to_string(), fnv1a(&format!("matched {matched}"))));
    }
}

fn run_script(realtime: bool) -> Vec<(String, u64)> {
    let mut sim = Sim::new(1807);
    let engine = sim.add_node("engine", Engine::default());
    let endpoint = ServiceEndpoint::new(ServiceSlug::new("pinsvc"), ServiceKey(KEY.into()))
        .with_trigger("ding")
        .with_trigger("dong_t")
        .with_action("dong")
        .with_query("lookup");
    let mut core = ServiceCore::new(endpoint);
    if realtime {
        core.enable_realtime(engine);
    }
    let at = SimTime::from_secs;
    core.fault_plan = Some(
        ServerFaultPlan::new()
            .window(ServerFault::Http500, at(100), at(110))
            .window(
                ServerFault::Http503 {
                    retry_after_secs: 7,
                },
                at(200),
                at(210),
            )
            .window(ServerFault::Timeout, at(300), at(310))
            .window(ServerFault::MalformedBody, at(400), at(410))
            .window(ServerFault::EmptyBody, at(500), at(510)),
    );
    let host = sim.add_node("pinsvc", Host { core });
    sim.link(host, engine, LinkSpec::wan());
    let mut s = Script {
        sim,
        host,
        rows: Vec::new(),
    };

    let (u1, u2) = (UserId::new("u1"), UserId::new("u2"));
    let (bearer1, bearer2) = s.core(|core, ctx| {
        let oauth = &mut core.endpoint.oauth;
        (
            oauth.mint_token(u1.clone(), ctx.rng()).bearer(),
            oauth.mint_token(u2.clone(), ctx.rng()).bearer(),
        )
    });
    let a = sub(&u1, "ding", &[]);
    let b = sub(&u1, "dong_t", &[("k", "v")]);
    let c = sub(&u1, "ding", &[("phrase", "good morning")]);
    let poll_a = post(
        "/ifttt/v1/triggers/ding",
        KEY,
        &bearer1,
        poll_body(&u1, &a, 50),
    );

    // The fixed endpoints.
    let status = Request::get(STATUS_PATH).with_header(SERVICE_KEY_HEADER, KEY);
    s.send("status", &status);
    s.send("status_no_key", &Request::get(STATUS_PATH));
    s.send("test_setup", &post(TEST_SETUP_PATH, KEY, "", ""));
    s.send(
        "unknown_path",
        &post("/ifttt/v1/nothing", KEY, &bearer1, ""),
    );

    // One subscription: learned from its first poll, memoized after it.
    s.send("poll_first", &poll_a);
    s.send("poll_again", &poll_a);
    // Every way the same bytes can be refused once they are memoized.
    let with =
        |key: &str, bearer: &str| post("/ifttt/v1/triggers/ding", key, bearer, poll_a.body.clone());
    s.send("poll_wrong_key", &with("sk_wrong", &bearer1));
    s.send("poll_wrong_bearer", &with(KEY, "Bearer at_nobody"));
    s.send("poll_no_bearer_scheme", &with(KEY, "at_nobody"));
    s.send("poll_other_users_token", &with(KEY, &bearer2));
    let mallory = poll_body(&UserId::new("mallory"), &a, 50);
    s.send(
        "poll_claims_other_user",
        &post("/ifttt/v1/triggers/ding", KEY, &bearer1, mallory),
    );
    s.send(
        "poll_unknown_trigger",
        &post(
            "/ifttt/v1/triggers/nope",
            KEY,
            &bearer1,
            poll_a.body.clone(),
        ),
    );
    s.send(
        "poll_malformed",
        &post("/ifttt/v1/triggers/ding", KEY, &bearer1, "{oops"),
    );
    s.send(
        "poll_wrong_shape",
        &post("/ifttt/v1/triggers/ding", KEY, &bearer1, r#"{"user":"u1"}"#),
    );
    let mut get = poll_a.clone();
    get.method = simnet::http::Method::Get;
    s.send("poll_by_get", &get);
    s.send("poll_after_refusals", &poll_a);

    // A batch of three: one known subscription, two learned from it.
    let three = batch_body(&u1, &[(&a, a.trigger), (&b, b.trigger), (&c, c.trigger)]);
    let batch = post(BATCH_POLL_PATH, KEY, &bearer1, three);
    s.send("batch_first", &batch);
    s.send("batch_again", &batch);
    let unknown = batch_body(&u1, &[(&a, a.trigger), (&b, "nope")]);
    s.send(
        "batch_unknown_entry",
        &post(BATCH_POLL_PATH, KEY, &bearer1, unknown),
    );
    s.send(
        "batch_other_users_token",
        &post(BATCH_POLL_PATH, KEY, &bearer2, batch.body.clone()),
    );
    s.send(
        "batch_wrong_key",
        &post(BATCH_POLL_PATH, "sk_wrong", &bearer1, batch.body.clone()),
    );
    s.send(
        "batch_no_entries",
        &post(
            BATCH_POLL_PATH,
            KEY,
            &bearer1,
            r#"{"user":"u1","entries":[]}"#,
        ),
    );

    // Events between polls: one, then a burst under one outstanding hint.
    s.record("event_1", "ding", &u1, "e1", None);
    s.send("poll_one_event", &poll_a);
    s.send("poll_one_event_again", &poll_a);
    for id in ["e2", "e3", "e4"] {
        s.record(&format!("event_{id}"), "ding", &u1, id, None);
    }
    s.send("poll_after_burst", &poll_a);
    s.send(
        "poll_limit_below_buffer",
        &post(
            "/ifttt/v1/triggers/ding",
            KEY,
            &bearer1,
            poll_body(&u1, &a, 3),
        ),
    );
    s.send("poll_back_to_limit_50", &poll_a);
    s.send("batch_with_events", &batch);
    s.record("event_dup_id", "ding", &u1, "e4", None);
    s.record("event_for_phrase", "ding", &u1, "e5", Some("good morning"));
    s.record("event_no_match", "ding", &u1, "e6", Some("good night"));
    s.record("event_other_trigger", "dong_t", &u1, "e7", None);
    s.record(
        "event_unknown_user",
        "ding",
        &UserId::new("nobody"),
        "e8",
        None,
    );
    s.send("batch_after_more_events", &batch);
    s.send("batch_after_more_events_again", &batch);
    s.sim.run_until(at(50));

    // Actions and queries are handed back to the service.
    let act = wire::to_bytes(&ActionRequestBody {
        action_fields: fields(&[("color", "blue")]),
        user: u1.clone(),
    });
    let action = post("/ifttt/v1/actions/dong", KEY, &bearer1, act.clone());
    s.send("action", &action);
    s.send("action_again", &action);
    s.send(
        "action_unknown",
        &post("/ifttt/v1/actions/nope", KEY, &bearer1, act.clone()),
    );
    s.send(
        "action_other_users_token",
        &post("/ifttt/v1/actions/dong", KEY, &bearer2, act),
    );
    let qry = wire::to_bytes(&QueryRequestBody {
        query_fields: fields(&[("city", "rome")]),
        user: u1.clone(),
    });
    s.send(
        "query",
        &post("/ifttt/v1/queries/lookup", KEY, &bearer1, qry.clone()),
    );
    s.send(
        "query_unknown",
        &post("/ifttt/v1/queries/nope", KEY, &bearer1, qry),
    );

    // The OAuth dance: consent, exchange, a replayed code, a first poll.
    let u3 = UserId::new("u3");
    let consent = s.send(
        "oauth_authorize",
        &Request::post("/oauth2/authorize").with_body(r#"{"user":"u3"}"#),
    );
    let Processed::Done(consent) = consent else {
        panic!("authorize was not answered");
    };
    s.send(
        "oauth_authorize_by_get",
        &Request::get("/oauth2/authorize").with_body(r#"{"user":"u3"}"#),
    );
    s.send(
        "oauth_authorize_malformed",
        &Request::post("/oauth2/authorize").with_body(r#"{"code":"x"}"#),
    );
    let exchange = Request::post("/oauth2/token").with_body(consent.body.clone());
    let granted = s.send("oauth_token", &exchange);
    s.send("oauth_token_replayed_code", &exchange);
    s.send(
        "oauth_token_bad_code",
        &Request::post("/oauth2/token").with_body(r#"{"code":"ac_never_issued"}"#),
    );
    let Processed::Done(granted) = granted else {
        panic!("token exchange was not answered");
    };
    let token = String::from_utf8_lossy(&granted.body)
        .split('"')
        .nth(3)
        .expect("an access token")
        .to_string();
    let d = sub(&u3, "dong_t", &[]);
    let poll_d = post(
        "/ifttt/v1/triggers/dong_t",
        KEY,
        &format!("Bearer {token}"),
        poll_body(&u3, &d, 50),
    );
    s.send("poll_with_granted_token", &poll_d);
    s.send("poll_with_granted_token_again", &poll_d);

    // Each server fault, on a memoized poll, a memoized batch and an action.
    for (name, secs) in [
        ("http500", 105),
        ("http503", 205),
        ("timeout", 305),
        ("malformed", 405),
        ("empty", 505),
        ("healthy", 605),
    ] {
        s.sim.run_until(at(secs));
        s.send(&format!("fault_{name}_poll"), &poll_a);
        s.send(&format!("fault_{name}_batch"), &batch);
        s.send(&format!("fault_{name}_action"), &action);
    }
    s.sim.run_until_idle();

    // What the script left behind.
    let counters = s.core(|core, _| {
        format!(
            "polls {} batches {} hints {} deduped {} faults {} users {:?}",
            core.polls_served,
            core.batch_polls_served,
            core.hints_sent,
            core.hints_deduped,
            core.faults_injected,
            core.subscribed_users(),
        )
    });
    println!("{counters}");
    s.rows.push(("counters".into(), fnv1a(&counters)));
    let buffered: Vec<usize> = [&a, &b, &c, &d]
        .iter()
        .map(|x| s.core(|core, _| core.buffer.len(&x.ti)))
        .collect();
    s.rows
        .push(("buffered".into(), fnv1a(&format!("{buffered:?}"))));
    let hints: Vec<String> = s
        .sim
        .node_ref::<Engine>(engine)
        .hints
        .iter()
        .map(|r| {
            format!(
                "{} {:?} {}",
                r.path,
                r.headers,
                String::from_utf8_lossy(&r.body)
            )
        })
        .collect();
    s.rows
        .push(("hints".into(), fnv1a(&format!("{} {hints:?}", hints.len()))));
    let trace: Vec<String> = s
        .sim
        .trace()
        .events()
        .iter()
        .map(|e| format!("{:?} {:?} {} {}", e.at, e.node, e.kind, e.detail))
        .collect();
    println!("{}", trace.join("\n"));
    s.rows
        .push(("trace".into(), fnv1a(&format!("{} {trace:?}", trace.len()))));
    s.rows
}

/// Compare every `(name, got)` against `(name, want)`, printing all rows
/// before failing so one run shows everything that moved.
fn check(got: &[(String, u64)], left_behind: &[(&str, u64)]) {
    let want = [STEPS, left_behind].concat();
    let mut moved = Vec::new();
    for (i, (name, g)) in got.iter().enumerate() {
        let (wname, w) = want.get(i).copied().unwrap_or(("<missing>", 0));
        println!("(\"{name}\", 0x{g:016x}), // want 0x{w:016x}");
        if name != wname || *g != w {
            moved.push(name.clone());
        }
    }
    assert_eq!(got.len(), want.len(), "row count");
    assert!(moved.is_empty(), "moved: {moved:?}");
}

#[test]
fn polling_core_is_unmoved() {
    check(&run_script(false), POLLING);
}

#[test]
fn realtime_core_is_unmoved() {
    check(&run_script(true), REALTIME);
}

const STEPS: &[(&str, u64)] = &[
    ("status", 0x5248337c11a993cb),
    ("status_no_key", 0x16e0d97bcef50051),
    ("test_setup", 0xf1aabe77a6bbab10),
    ("unknown_path", 0xa3791bc3ca8d2e0e),
    ("poll_first", 0x09fbe21141fcc12d),
    ("poll_again", 0x09fbe21141fcc12d),
    ("poll_wrong_key", 0x16e0d97bcef50051),
    ("poll_wrong_bearer", 0xf3ba005cc882b2ba),
    ("poll_no_bearer_scheme", 0xf3ba005cc882b2ba),
    ("poll_other_users_token", 0xf3ba005cc882b2ba),
    ("poll_claims_other_user", 0xf3ba005cc882b2ba),
    ("poll_unknown_trigger", 0x574bbabe61292459),
    ("poll_malformed", 0x90ae865d7fa0b921),
    ("poll_wrong_shape", 0xd3000b22a4d4f18d),
    ("poll_by_get", 0x09fbe21141fcc12d),
    ("poll_after_refusals", 0x09fbe21141fcc12d),
    ("batch_first", 0x09fbe21141fcc12d),
    ("batch_again", 0x09fbe21141fcc12d),
    ("batch_unknown_entry", 0x574bbabe61292459),
    ("batch_other_users_token", 0xf3ba005cc882b2ba),
    ("batch_wrong_key", 0x16e0d97bcef50051),
    ("batch_no_entries", 0x09fbe21141fcc12d),
    ("event_1", 0xe0928e1ecd29e905),
    ("poll_one_event", 0xd28f804d5817ebb5),
    ("poll_one_event_again", 0xd28f804d5817ebb5),
    ("event_e2", 0xe0928e1ecd29e905),
    ("event_e3", 0xe0928e1ecd29e905),
    ("event_e4", 0xe0928e1ecd29e905),
    ("poll_after_burst", 0x49a6f0b1f48f302f),
    ("poll_limit_below_buffer", 0xfc5b05f3fbc486f1),
    ("poll_back_to_limit_50", 0x49a6f0b1f48f302f),
    ("batch_with_events", 0x832ced19b4e6a5a7),
    ("event_dup_id", 0xe0928e1ecd29e905),
    ("event_for_phrase", 0xe0928b1ecd29e3ec),
    ("event_no_match", 0xe0928c1ecd29e59f),
    ("event_other_trigger", 0xe0928b1ecd29e3ec),
    ("event_unknown_user", 0xe0928c1ecd29e59f),
    ("batch_after_more_events", 0xe35abdce2633da85),
    ("batch_after_more_events_again", 0xe35abdce2633da85),
    ("action", 0xff1e0c9827ee1a90),
    ("action_again", 0xff1e0c9827ee1a90),
    ("action_unknown", 0x28ba34b145fb0ebf),
    ("action_other_users_token", 0xf3ba005cc882b2ba),
    ("query", 0x65cb6ba225061165),
    ("query_unknown", 0x3797fcb0cea70242),
    ("oauth_authorize", 0x44dd74d6ac46c9ba),
    ("oauth_authorize_by_get", 0xbba78214e86ed21d),
    ("oauth_authorize_malformed", 0xf8587db80767f4c1),
    ("oauth_token", 0x581e73253a88ef78),
    ("oauth_token_replayed_code", 0xf3ba005cc882b2ba),
    ("oauth_token_bad_code", 0xf3ba005cc882b2ba),
    ("poll_with_granted_token", 0x09fbe21141fcc12d),
    ("poll_with_granted_token_again", 0x09fbe21141fcc12d),
    ("fault_http500_poll", 0x71fbf5df5b4d9b5a),
    ("fault_http500_batch", 0x71fbf5df5b4d9b5a),
    ("fault_http500_action", 0x71fbf5df5b4d9b5a),
    ("fault_http503_poll", 0xbd52ad0f0c6230b6),
    ("fault_http503_batch", 0xbd52ad0f0c6230b6),
    ("fault_http503_action", 0xbd52ad0f0c6230b6),
    ("fault_timeout_poll", 0x672e3ccbc5e64d06),
    ("fault_timeout_batch", 0x672e3ccbc5e64d06),
    ("fault_timeout_action", 0x672e3ccbc5e64d06),
    ("fault_malformed_poll", 0x9418d6e98fd4be27),
    ("fault_malformed_batch", 0x9418d6e98fd4be27),
    ("fault_malformed_action", 0xff1e0c9827ee1a90),
    ("fault_empty_poll", 0x5248337c11a993cb),
    ("fault_empty_batch", 0x5248337c11a993cb),
    ("fault_empty_action", 0xff1e0c9827ee1a90),
    ("fault_healthy_poll", 0x49a6f0b1f48f302f),
    ("fault_healthy_batch", 0xe35abdce2633da85),
    ("fault_healthy_action", 0xff1e0c9827ee1a90),
];

const POLLING: &[(&str, u64)] = &[
    ("counters", 0xdcfbcd1f69a0c6c9),
    ("buffered", 0xee97daa8d1a7d297),
    ("hints", 0x3723e8f99c77aa3d),
    ("trace", 0x5951f099b4c0e55f),
];

const REALTIME: &[(&str, u64)] = &[
    ("counters", 0x5e36bc51eb550e4d),
    ("buffered", 0xee97daa8d1a7d297),
    ("hints", 0x6a3fe7485858dd72),
    ("trace", 0x4e6ed28eb3dc49f0),
];
