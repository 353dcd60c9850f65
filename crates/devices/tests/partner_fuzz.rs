//! Every byte a partner service reads off the wire, for every vendor.
//!
//! One generic property over [`PartnerService<V>`]: arbitrary bytes and
//! well-formed-but-wrong JSON on every path a service serves — each
//! trigger, action and query it lists (and one it does not), the batch,
//! status and test-setup endpoints, the proxy's event push and the Echo's
//! utterance upload — with and without a valid service key and bearer,
//! against a backend that answers, refuses or hangs. Whatever arrives, the
//! service must not panic, must answer each request exactly once with a
//! status the protocol knows, and must not leave a relayed action
//! dangling.
//!
//! A second property takes the same shots to a bare [`ServiceCore`]: what
//! it answers must not depend on what its request memo already holds.

use bytes::Bytes;
use devices::echo::UTTERANCE_PATH;
use devices::proxy::EVENTS_PATH;
use devices::service_core::ServiceCore;
use devices::services::alexa_service::Alexa;
use devices::services::datetime_service::DateTime;
use devices::services::fitbit_service::Fitbit;
use devices::services::google_services::{Drive, Gmail, Sheets};
use devices::services::hue_service::{Hue, HueAccount};
use devices::services::nest_service::Nest;
use devices::services::our_service::Ours;
use devices::services::weather_service::Weather;
use devices::services::wemo_service::Wemo;
use devices::services::{Partner, PartnerService};
use proptest::prelude::*;
use simnet::prelude::*;
use tap_protocol::auth::{ServiceKey, AUTHORIZATION_HEADER, SERVICE_KEY_HEADER};
use tap_protocol::endpoints::{BATCH_POLL_PATH, STATUS_PATH, TEST_SETUP_PATH};
use tap_protocol::service::ServiceEndpoint;
use tap_protocol::wire::TriggerEvent;
use tap_protocol::{ServiceSlug, TriggerIdentity, UserId};

const USER: &str = "author";
const KEY: &str = "sk_fuzz";

/// The vendor backend (hub, switch, cloud or proxy): answers everything
/// with `status`, or never when `status` is 0.
struct Backend {
    status: u16,
}

impl Node for Backend {
    fn on_request(&mut self, _ctx: &mut Context<'_>, _req: &Request) -> HandlerResult {
        match self.status {
            0 => HandlerResult::Deferred,
            status => HandlerResult::Reply(Response::with_status(status)),
        }
    }
}

/// Sends every request (and pushes every body as a device signal) at
/// start; keeps the statuses each request was answered with.
struct Attacker {
    service: NodeId,
    requests: Vec<Request>,
    answers: Vec<Vec<u16>>,
}

impl Node for Attacker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, req) in self.requests.drain(..).enumerate() {
            ctx.signal(self.service, req.body.clone());
            ctx.send_request(self.service, req, Token(i as u64), RequestOpts::default());
        }
    }

    fn on_response(&mut self, _ctx: &mut Context<'_>, token: Token, resp: Response) {
        self.answers[token.0 as usize].push(resp.status);
    }
}

/// Well-formed JSON no decoder on these paths should accept as is.
const WRONG_JSON: &[&str] = &[
    "null",
    "42",
    "[]",
    "\"author\"",
    "{}",
    r#"{"user":"author"}"#,
    r#"{"user":7,"action_fields":{},"trigger_identity":"ti_x"}"#,
    r#"{"user":"mallory","action_fields":{},"query_fields":{},"trigger_fields":{},"trigger_identity":"ti_x","limit":5,"entries":[]}"#,
    r#"{"user":"author","action_fields":[1,2],"query_fields":"q","limit":"many"}"#,
    r#"{"user":"author","entries":[{"trigger":"nope","trigger_identity":"ti_x","trigger_fields":{},"limit":1}]}"#,
    r#"{"device":5,"kind":[],"user":null,"at_secs":"soon"}"#,
    r#"{"user":"author","utterance":{"say":"play"}}"#,
];

/// One JSON object every decoder on these paths accepts (each skips the
/// members it does not know): a poll, batch, action and query body, a
/// device event of `kind`, and an utterance upload, all for [`USER`].
fn right_json(kind: &str, utterance: &str) -> String {
    format!(
        r#"{{"user":"{USER}","trigger_identity":"ti_fuzz","trigger_fields":{{}},"limit":3,"entries":[],"action_fields":{{"device":"d","temp_c":"x","row":"a|||b"}},"query_fields":{{}},"device":"d","kind":"{kind}","at_secs":1,"data":{{"prev_c":"20","temp_c":"30"}},"utterance":"{utterance}"}}"#
    )
}

const KINDS: &[&str] = &[
    "switched_on",
    "switched_off",
    "light_on",
    "st_active",
    "new_email",
    "new_attachment",
    "temp_changed",
    "weather_rain",
    "bogus",
];

const UTTERANCES: &[&str] = &[
    "alexa trigger movie time",
    "play yesterday",
    "add milk to my todo list",
    "add eggs to my shopping list",
    "what's on my shopping list",
];

/// The triggers a batch body's entries name: two the memo property's core
/// lists and one nobody does.
const BATCH_TRIGGERS: &[&str] = &["fuzz_a", "fuzz_b", "not_listed"];

/// A batch poll for [`USER`] with one entry per pick, each subscription
/// named after its trigger.
fn batch_json(picks: &[usize]) -> String {
    let entries: Vec<String> = picks
        .iter()
        .map(|p| BATCH_TRIGGERS[p % BATCH_TRIGGERS.len()])
        .map(|t| {
            format!(
                r#"{{"trigger":"{t}","trigger_identity":"ti_{t}","trigger_fields":{{}},"limit":2}}"#
            )
        })
        .collect();
    format!(r#"{{"user":"{USER}","entries":[{}]}}"#, entries.join(","))
}

/// One request to fire: which served path (reduced modulo their number),
/// what body, and whether it carries a valid key and bearer.
type Shot = (usize, Bytes, bool, bool);

fn shots() -> impl Strategy<Value = Vec<Shot>> {
    let arbitrary = collection::vec(any::<u8>(), 0..48).prop_map(Bytes::from);
    let wrong = (0..WRONG_JSON.len()).prop_map(|i| Bytes::from(WRONG_JSON[i]));
    let nested = (1usize..200).prop_map(|d| Bytes::from("[".repeat(d) + &"]".repeat(d)));
    let right = || {
        (0..KINDS.len(), 0..UTTERANCES.len())
            .prop_map(|(k, u)| Bytes::from(right_json(KINDS[k], UTTERANCES[u])))
    };
    // Weighted towards what gets past the front door, so the vendors'
    // own handlers see traffic too: half the bodies decode, and three in
    // four requests carry the right key (and, separately, bearer).
    let batch = collection::vec(0usize..3, 1..4).prop_map(|picks| Bytes::from(batch_json(&picks)));
    let body = prop_oneof![arbitrary, wrong, nested, batch, right(), right(), right()];
    let valid = || (0u8..4).prop_map(|roll| roll > 0);
    collection::vec((0usize..64, body, valid(), valid()), 1..12)
}

/// The request each shot stands for, given the served `paths` and a valid
/// `bearer`.
fn requests(shots: &[Shot], paths: &[String], bearer: &str) -> Vec<Request> {
    let request = |(path, body, key, authorized): &Shot| {
        Request::post(paths[path % paths.len()].clone())
            .with_header(SERVICE_KEY_HEADER, if *key { KEY } else { "sk_wrong" })
            .with_header(
                AUTHORIZATION_HEADER,
                if *authorized { bearer } else { "Bearer no" },
            )
            .with_body(body.clone())
    };
    shots.iter().map(request).collect()
}

/// Fire `shots` at the service `vendor` makes (given its backend's node)
/// and check the property.
fn assail<V: Partner>(vendor: impl FnOnce(NodeId) -> V, backend_status: u16, shots: &[Shot]) {
    let mut sim = Sim::new(17);
    let backend = sim.add_node(
        "backend",
        Backend {
            status: backend_status,
        },
    );
    let vendor = vendor(backend);
    let slugs = |kind: &str, listed: Vec<&str>| -> Vec<String> {
        let listed = listed.into_iter().chain(["not_listed"]);
        listed
            .map(|slug| format!("/ifttt/v1/{kind}/{slug}"))
            .collect()
    };
    let mut paths = slugs("triggers", vendor.triggers());
    paths.extend(slugs("actions", vendor.actions()));
    paths.extend(slugs("queries", vendor.queries()));
    let fixed = [
        BATCH_POLL_PATH,
        STATUS_PATH,
        TEST_SETUP_PATH,
        EVENTS_PATH,
        UTTERANCE_PATH,
    ];
    paths.extend(fixed.map(str::to_owned));

    let svc = sim.add_node(
        "service",
        PartnerService::new(ServiceKey(KEY.into()), vendor),
    );
    sim.link(svc, backend, LinkSpec::wan());
    let bearer = sim.with_node::<PartnerService<V>, _>(svc, |s, ctx| {
        let oauth = &mut s.core.endpoint.oauth;
        oauth.mint_token(UserId::new(USER), ctx.rng()).bearer()
    });
    let attacker = Attacker {
        service: svc,
        requests: requests(shots, &paths, &bearer),
        answers: vec![Vec::new(); shots.len()],
    };
    let attacker = sim.add_node("attacker", attacker);
    sim.link(attacker, svc, LinkSpec::wan());

    // Past the shell's 30 s relay timeout; the clock services tick forever,
    // so there is no idle to run to.
    sim.run_until(SimTime::from_secs(90));
    let slug = sim
        .node_ref::<PartnerService<V>>(svc)
        .core
        .endpoint
        .slug()
        .clone();
    for (shot, answers) in shots
        .iter()
        .zip(&sim.node_ref::<Attacker>(attacker).answers)
    {
        let path = &paths[shot.0 % paths.len()];
        assert_eq!(answers.len(), 1, "{slug} {path}: answered {answers:?}");
        let known = [200, 400, 401, 404, 503].contains(&answers[0]);
        assert!(
            known || answers[0] == backend_status,
            "{slug} {path}: {answers:?}"
        );
    }
    let dangling = sim.node_ref::<PartnerService<V>>(svc).relays_in_flight();
    assert_eq!(dangling, 0, "{slug}: relays left in flight");
}

/// Holds a bare core so the memo property can reach it with a [`Context`].
struct Host(ServiceCore);

impl Node for Host {}

/// Fire `shots` at a new core `passes` times over; what the last pass was
/// answered with (variant, status, headers, body — the `Debug` of each
/// `Processed`). The core lists two triggers, an action and a query, and
/// has events buffered for every subscription a decodable body can name.
fn last_pass_answers(shots: &[Shot], passes: usize) -> Vec<String> {
    let mut sim = Sim::new(23);
    let mut endpoint = ServiceEndpoint::new(ServiceSlug::new("memo"), ServiceKey(KEY.into()))
        .with_action("act")
        .with_query("qry");
    for trigger in &BATCH_TRIGGERS[..2] {
        endpoint = endpoint.with_trigger(*trigger);
    }
    let mut core = ServiceCore::new(endpoint);
    for (k, ti) in ["ti_fuzz", "ti_fuzz_a", "ti_fuzz_b"]
        .into_iter()
        .enumerate()
    {
        for e in 0..=k {
            let event = TriggerEvent::new(format!("{ti}_e{e}"), e as u64);
            core.buffer.push(&TriggerIdentity(ti.into()), event);
        }
    }
    let host = sim.add_node("memo", Host(core));
    let bearer = sim.with_node::<Host, _>(host, |h, ctx| {
        let oauth = &mut h.0.endpoint.oauth;
        oauth.mint_token(UserId::new(USER), ctx.rng()).bearer()
    });
    let slugs = |kind: &str, listed: &[&str]| -> Vec<String> {
        let listed = listed.iter().chain(&["not_listed"]);
        listed
            .map(|slug| format!("/ifttt/v1/{kind}/{slug}"))
            .collect()
    };
    let mut paths = slugs("triggers", &BATCH_TRIGGERS[..2]);
    paths.extend(slugs("actions", &["act"]));
    paths.extend(slugs("queries", &["qry"]));
    paths.extend([BATCH_POLL_PATH, STATUS_PATH, TEST_SETUP_PATH].map(str::to_owned));
    let requests = requests(shots, &paths, &bearer);
    let mut answers = Vec::new();
    for _ in 0..passes {
        answers = sim.with_node::<Host, _>(host, |h, ctx| {
            let each = requests.iter().map(|req| h.0.process(ctx, req));
            each.map(|processed| format!("{processed:?}")).collect()
        });
    }
    answers
}

proptest! {
    /// The request memo is unobservable: a core that has seen the whole
    /// sequence before answers it byte for byte as a fresh one does.
    #[test]
    fn a_warmed_core_answers_exactly_as_a_fresh_one(shots in shots()) {
        prop_assert_eq!(last_pass_answers(&shots, 1), last_pass_answers(&shots, 2));
    }

    #[test]
    fn no_partner_service_panics_hangs_or_double_answers(
        shots in shots(),
        backend_status in prop_oneof![Just(200u16), Just(404u16), Just(503u16), Just(0u16)],
    ) {
        let user = || UserId::new(USER);
        assail(|hub| {
            let mut hue = Hue::default();
            let (username, lamp_device) = ("hueuser".into(), "hue_lamp_1".into());
            hue.add_account(user(), HueAccount { hub, username, lamp_device });
            hue
        }, backend_status, &shots);
        assail(|switch| {
            let mut wemo = Wemo::default();
            wemo.add_switch(user(), switch);
            wemo
        }, backend_status, &shots);
        assail(|thermostat| {
            let mut nest = Nest::default();
            nest.add_thermostat(user(), thermostat);
            nest
        }, backend_status, &shots);
        assail(|cloud| Gmail { cloud }, backend_status, &shots);
        assail(|cloud| Drive { cloud }, backend_status, &shots);
        assail(|cloud| Sheets { cloud }, backend_status, &shots);
        assail(|backend| {
            let mut ours = Ours::default();
            (ours.proxy, ours.google) = (Some(backend), Some(backend));
            ours.watch_gmail(USER);
            ours
        }, backend_status, &shots);
        assail(|_| {
            let mut weather = Weather::default();
            weather.add_user(user());
            weather
        }, backend_status, &shots);
        assail(|_| Alexa::default(), backend_status, &shots);
        assail(|_| DateTime::default(), backend_status, &shots);
        assail(|_| Fitbit::default(), backend_status, &shots);
    }
}
