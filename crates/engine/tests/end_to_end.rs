//! End-to-end engine tests against real simulated services and devices:
//! the full applet-execution pipeline of §2.2.

use devices::hue::{install_hue, HueHub, HueLamp};
use devices::services::alexa_service::{Alexa, AlexaService};
use devices::services::hue_service::{Hue, HueAccount, HueService};
use devices::services::wemo_service::{Wemo, WemoService};
use devices::wemo::WemoSwitch;
use engine::{
    ActionRef, Applet, AppletId, EngineConfig, InstallError, PollPolicy, TapEngine, TriggerRef,
};
use simnet::prelude::*;
use tap_protocol::auth::ServiceKey;
use tap_protocol::{FieldMap, ServiceSlug, TriggerSlug, UserId};

/// The services' slugs as listed on IFTTT.
const HUE: &str = "philips_hue";
const WEMO: &str = "wemo";
const ALEXA: &str = "amazon_alexa";

/// The full A2 world: wemo switch (trigger) → hue light (action), official
/// services, one engine.
struct A2World {
    sim: Sim,
    engine: NodeId,
    switch: NodeId,
    lamp: NodeId,
}

fn build_a2(config: EngineConfig, seed: u64) -> A2World {
    let mut sim = Sim::new(seed);
    // Home devices.
    let (hub, lamps) = install_hue(&mut sim, "hueuser", "author", 1);
    let switch = sim.add_node("wemo", WemoSwitch::new("wemo_switch_1", "author"));
    // Vendor clouds.
    let hue_svc = sim.add_node(
        "hue_service",
        HueService::new(ServiceKey("sk_hue".into()), Hue::default()),
    );
    let wemo_svc = sim.add_node(
        "wemo_service",
        WemoService::new(ServiceKey("sk_wemo".into()), Wemo::default()),
    );
    // Engine.
    let engine = sim.add_node("engine", TapEngine::new(config));
    // Topology: home gateway links devices to the WAN clouds.
    let router = sim.add_node("router", Passive);
    sim.link(hub, router, LinkSpec::lan());
    sim.link(switch, router, LinkSpec::lan());
    sim.link(router, hue_svc, LinkSpec::wan());
    sim.link(router, wemo_svc, LinkSpec::wan());
    sim.link(engine, hue_svc, LinkSpec::datacenter());
    sim.link(engine, wemo_svc, LinkSpec::datacenter());
    // Vendor pairings.
    sim.node_mut::<HueHub>(hub).allow_only(vec![hue_svc]);
    sim.node_mut::<WemoSwitch>(switch)
        .allow_only(vec![wemo_svc]);
    sim.node_mut::<WemoSwitch>(switch).observers.add(wemo_svc);
    sim.with_node::<HueService, _>(hue_svc, |s, _| {
        s.vendor.add_account(
            UserId::new("author"),
            HueAccount {
                hub,
                username: "hueuser".into(),
                lamp_device: "hue_lamp_1".into(),
            },
        );
    });
    sim.with_node::<WemoService, _>(wemo_svc, |s, _| {
        s.vendor.add_switch(UserId::new("author"), switch);
    });
    // Engine-side registration + user connections (pre-minted tokens).
    let author = UserId::new("author");
    let hue_token = sim.with_node::<HueService, _>(hue_svc, |s, ctx| {
        s.core.endpoint.oauth.mint_token(author.clone(), ctx.rng())
    });
    let wemo_token = sim.with_node::<WemoService, _>(wemo_svc, |s, ctx| {
        s.core.endpoint.oauth.mint_token(author.clone(), ctx.rng())
    });
    sim.with_node::<TapEngine, _>(engine, |e, _| {
        e.register_service(ServiceSlug::new(HUE), hue_svc, ServiceKey("sk_hue".into()));
        e.register_service(
            ServiceSlug::new(WEMO),
            wemo_svc,
            ServiceKey("sk_wemo".into()),
        );
        e.set_token(author.clone(), ServiceSlug::new(HUE), hue_token);
        e.set_token(author.clone(), ServiceSlug::new(WEMO), wemo_token);
    });
    A2World {
        sim,
        engine,
        switch,
        lamp: lamps[0],
    }
}

struct Passive;
impl Node for Passive {}

fn a2_applet() -> Applet {
    Applet::new(
        AppletId(2),
        "Turn on my Hue light from the Wemo light switch",
        UserId::new("author"),
        TriggerRef {
            service: ServiceSlug::new(WEMO),
            trigger: TriggerSlug::new("switch_activated"),
            fields: FieldMap::new(),
        },
        ActionRef {
            service: ServiceSlug::new(HUE),
            action: tap_protocol::ActionSlug::new("turn_on_lights"),
            fields: FieldMap::new(),
        },
    )
}

#[test]
fn a2_executes_end_to_end_with_fast_polling() {
    let mut w = build_a2(EngineConfig::fast(), 7);
    let installed = w
        .sim
        .with_node::<TapEngine, _>(w.engine, |e, ctx| e.install_applet(ctx, a2_applet()));
    assert!(installed.is_ok());
    // Let the first poll learn the subscription.
    w.sim.run_until(SimTime::from_secs(5));
    assert!(!w.sim.node_ref::<HueLamp>(w.lamp).state.on);
    // Activate the trigger.
    w.sim
        .with_node::<WemoSwitch, _>(w.switch, |s, ctx| s.press(ctx));
    // With 1-second polling the light must be on within a few seconds.
    w.sim.run_until(SimTime::from_secs(10));
    assert!(
        w.sim.node_ref::<HueLamp>(w.lamp).state.on,
        "lamp should be on"
    );
    let stats = w.sim.node_ref::<TapEngine>(w.engine).stats;
    assert_eq!(stats.events_new, 1);
    assert_eq!(stats.actions_ok, 1);
    assert_eq!(stats.actions_failed, 0);
}

#[test]
fn trigger_to_action_latency_is_poll_bound() {
    // With fixed 10-second polling, T2A lands in (0, 10s] + dispatch.
    let mut cfg = EngineConfig::fast();
    cfg.polling = PollPolicy::fixed(10.0);
    let mut w = build_a2(cfg, 8);
    w.sim.with_node::<TapEngine, _>(w.engine, |e, ctx| {
        e.install_applet(ctx, a2_applet()).unwrap();
    });
    w.sim.run_until(SimTime::from_secs(30));
    let t_trigger = w.sim.now();
    w.sim
        .with_node::<WemoSwitch, _>(w.switch, |s, ctx| s.press(ctx));
    w.sim.run_until(SimTime::from_secs(60));
    let lamp_on = w
        .sim
        .trace()
        .events()
        .iter()
        .find(|e| e.kind == "lamp.state" && e.at > t_trigger)
        .expect("lamp changed state")
        .at;
    let t2a = lamp_on.since(t_trigger);
    assert!(
        t2a > SimDuration::ZERO && t2a < SimDuration::from_secs(13),
        "t2a = {t2a}"
    );
}

#[test]
fn duplicate_events_are_not_redispatched() {
    // The buffer returns events repeatedly (polls do not consume); the
    // engine's seen-set must dedup across polls.
    let mut w = build_a2(EngineConfig::fast(), 9);
    w.sim.with_node::<TapEngine, _>(w.engine, |e, ctx| {
        e.install_applet(ctx, a2_applet()).unwrap();
    });
    w.sim.run_until(SimTime::from_secs(5));
    w.sim
        .with_node::<WemoSwitch, _>(w.switch, |s, ctx| s.press(ctx));
    // Many poll rounds at 1-second interval.
    w.sim.run_until(SimTime::from_secs(60));
    let stats = w.sim.node_ref::<TapEngine>(w.engine).stats;
    assert_eq!(stats.actions_sent, 1, "exactly one action for one press");
    assert!(stats.polls_sent > 30);
}

#[test]
fn install_requires_registration_and_connection() {
    let mut w = build_a2(EngineConfig::fast(), 10);
    // Unknown service.
    let mut bad = a2_applet();
    bad.trigger.service = ServiceSlug::new("nonexistent");
    let err = w
        .sim
        .with_node::<TapEngine, _>(w.engine, |e, ctx| e.install_applet(ctx, bad))
        .unwrap_err();
    assert!(matches!(err, InstallError::UnknownService(_)));
    // Known service, but a user who never connected.
    let mut unconnected = a2_applet();
    unconnected.owner = UserId::new("stranger");
    let err = w
        .sim
        .with_node::<TapEngine, _>(w.engine, |e, ctx| e.install_applet(ctx, unconnected))
        .unwrap_err();
    assert!(matches!(err, InstallError::NotConnected(_)));
}

#[test]
fn disabled_applet_stops_executing() {
    let mut w = build_a2(EngineConfig::fast(), 11);
    let id = w
        .sim
        .with_node::<TapEngine, _>(w.engine, |e, ctx| e.install_applet(ctx, a2_applet()))
        .unwrap();
    w.sim.run_until(SimTime::from_secs(5));
    w.sim
        .with_node::<TapEngine, _>(w.engine, |e, ctx| e.set_enabled(ctx, id, false));
    w.sim
        .with_node::<WemoSwitch, _>(w.switch, |s, ctx| s.press(ctx));
    w.sim.run_until(SimTime::from_secs(30));
    assert!(!w.sim.node_ref::<HueLamp>(w.lamp).state.on);
    assert_eq!(w.sim.node_ref::<TapEngine>(w.engine).stats.actions_sent, 0);
}

#[test]
fn oauth_connect_flow_stores_a_working_token() {
    let mut w = build_a2(EngineConfig::fast(), 12);
    let user = UserId::new("newbie");
    w.sim.with_node::<TapEngine, _>(w.engine, |e, ctx| {
        e.connect_service(ctx, user.clone(), ServiceSlug::new(HUE));
    });
    w.sim.run_until(SimTime::from_secs(5));
    assert!(w
        .sim
        .node_ref::<TapEngine>(w.engine)
        .is_connected(&user, &ServiceSlug::new(HUE)));
}

#[test]
fn alexa_realtime_hints_cut_latency() {
    // Build an Alexa → Hue world (applet A5 style, but turn_on for
    // observability) and compare hint-honored vs hint-ignored latency.
    fn run(allowlist: bool, seed: u64) -> (SimDuration, engine::EngineStats) {
        let mut sim = Sim::new(seed);
        let (hub, lamps) = install_hue(&mut sim, "hueuser", "author", 1);
        let hue_svc = sim.add_node(
            "hue_service",
            HueService::new(ServiceKey("sk_hue".into()), Hue::default()),
        );
        let alexa = sim.add_node(
            "alexa",
            AlexaService::new(ServiceKey("sk_alexa".into()), Alexa::default()),
        );
        let mut config = EngineConfig::ifttt_like();
        if !allowlist {
            config.realtime_allowlist.clear();
        }
        // Keep regular polls long so the hint effect is unambiguous.
        config.polling = PollPolicy::fixed(120.0);
        let engine = sim.add_node("engine", TapEngine::new(config));
        sim.link(hub, hue_svc, LinkSpec::wan());
        sim.link(engine, hue_svc, LinkSpec::datacenter());
        sim.link(engine, alexa, LinkSpec::datacenter());
        sim.node_mut::<HueHub>(hub).allow_only(vec![hue_svc]);
        sim.with_node::<HueService, _>(hue_svc, |s, _| {
            s.vendor.add_account(
                UserId::new("author"),
                HueAccount {
                    hub,
                    username: "hueuser".into(),
                    lamp_device: "hue_lamp_1".into(),
                },
            );
        });
        let author = UserId::new("author");
        let hue_token = sim.with_node::<HueService, _>(hue_svc, |s, ctx| {
            s.core.endpoint.oauth.mint_token(author.clone(), ctx.rng())
        });
        let alexa_token = sim.with_node::<AlexaService, _>(alexa, |s, ctx| {
            s.core.enable_realtime(engine);
            s.core.endpoint.oauth.mint_token(author.clone(), ctx.rng())
        });
        sim.with_node::<TapEngine, _>(engine, |e, _| {
            e.register_service(ServiceSlug::new(HUE), hue_svc, ServiceKey("sk_hue".into()));
            e.register_service(
                ServiceSlug::new(ALEXA),
                alexa,
                ServiceKey("sk_alexa".into()),
            );
            e.set_token(author.clone(), ServiceSlug::new(HUE), hue_token);
            e.set_token(author.clone(), ServiceSlug::new(ALEXA), alexa_token);
        });
        let mut fields = FieldMap::new();
        fields.insert("phrase".into(), "movie time".into());
        let applet = Applet::new(
            AppletId(5),
            "Use Alexa's voice control to turn on the Hue light",
            author.clone(),
            TriggerRef {
                service: ServiceSlug::new(ALEXA),
                trigger: TriggerSlug::new("say_a_phrase"),
                fields,
            },
            ActionRef {
                service: ServiceSlug::new(HUE),
                action: tap_protocol::ActionSlug::new("turn_on_lights"),
                fields: FieldMap::new(),
            },
        );
        sim.with_node::<TapEngine, _>(engine, |e, ctx| {
            e.install_applet(ctx, applet).unwrap();
        });
        // Let the initial poll pass, then speak.
        sim.run_until(SimTime::from_secs(10));
        let t0 = sim.now();
        sim.with_node::<AlexaService, _>(alexa, |s, ctx| {
            s.vendor
                .handle_utterance(&mut s.core, ctx, &author, "alexa trigger movie time");
        });
        sim.run_until(SimTime::from_secs(250));
        let lamp_on = sim
            .trace()
            .events()
            .iter()
            .find(|e| e.kind == "lamp.state" && e.at > t0)
            .map(|e| e.at)
            .unwrap_or(SimTime::MAX);
        let _ = lamps;
        (lamp_on.since(t0), sim.node_ref::<TapEngine>(engine).stats)
    }
    let (hinted, honored) = run(true, 21);
    let (unhinted, ignored) = run(false, 22);
    assert!(hinted < SimDuration::from_secs(10), "hinted t2a = {hinted}");
    assert!(
        unhinted > SimDuration::from_secs(30),
        "unhinted t2a = {unhinted}"
    );
    // The fast path is the realtime scheduler, visibly: the notification
    // was honored and produced exactly one out-of-cadence poll.
    assert_eq!(honored.realtime_notifications, 1, "{honored:?}");
    assert_eq!(honored.realtime_polls, 1, "{honored:?}");
    assert_eq!(honored.realtime_malformed, 0);
    // Off the allowlist the hint is acknowledged and dropped; the poll
    // cadence is untouched.
    assert_eq!(ignored.hints_ignored, 1, "{ignored:?}");
    assert_eq!(ignored.realtime_notifications, 0);
    assert_eq!(ignored.realtime_polls, 0);
}

/// A hint sender for exercising the notification endpoint directly: fires
/// one POST at the engine on start and remembers the response.
struct HintSender {
    engine: NodeId,
    body: Vec<u8>,
    key: &'static str,
    status: Option<u16>,
}

impl Node for HintSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let req = Request::post(tap_protocol::endpoints::REALTIME_NOTIFY_PATH)
            .with_header(tap_protocol::auth::SERVICE_KEY_HEADER, self.key)
            .with_body(self.body.clone());
        ctx.send_request(self.engine, req, Token(1), RequestOpts::default());
    }

    fn on_response(&mut self, _ctx: &mut Context<'_>, _token: Token, resp: Response) {
        self.status = Some(resp.status);
    }
}

/// Drive one realtime notification with `body` into an A2-style engine
/// (authenticated as the wemo service) and return the HTTP status plus the
/// engine stats.
fn drive_hint(body: Vec<u8>, seed: u64) -> (u16, engine::EngineStats) {
    let mut w = build_a2(
        EngineConfig::fast().allow_realtime(ServiceSlug::new(WEMO)),
        seed,
    );
    let sender = w.sim.add_node(
        "hint_sender",
        HintSender {
            engine: w.engine,
            body,
            key: "sk_wemo",
            status: None,
        },
    );
    w.sim.link(sender, w.engine, LinkSpec::datacenter());
    w.sim.run_until(SimTime::from_secs(2));
    let status = w
        .sim
        .node_ref::<HintSender>(sender)
        .status
        .expect("hint answered");
    (status, w.sim.node_ref::<TapEngine>(w.engine).stats)
}

#[test]
fn malformed_realtime_notification_is_a_counted_400() {
    // Garbage bytes: not a v1 notification, not a legacy one.
    let (status, stats) = drive_hint(b"{\"not\": \"a notification\"}".to_vec(), 31);
    assert_eq!(
        status, 400,
        "malformed body must be rejected, not swallowed"
    );
    assert_eq!(stats.realtime_malformed, 1, "{stats:?}");
    assert_eq!(stats.hints_received, 1);
    assert_eq!(stats.realtime_polls, 0);

    // A well-formed v1 body claiming a service other than the
    // authenticated sender is equally malformed.
    let spoofed = tap_protocol::wire::RealtimeNotificationV1::single(
        ServiceSlug::new("somebody_else"),
        TriggerSlug::new("switch_activated"),
        tap_protocol::TriggerIdentity("spoof".into()),
    );
    let (status, stats) = drive_hint(tap_protocol::wire::to_bytes(&spoofed).to_vec(), 32);
    assert_eq!(status, 400, "service mismatch is a counted 400");
    assert_eq!(stats.realtime_malformed, 1, "{stats:?}");

    // An unknown wire version is refused rather than half-understood.
    let mut future = tap_protocol::wire::RealtimeNotificationV1::single(
        ServiceSlug::new(WEMO),
        TriggerSlug::new("switch_activated"),
        tap_protocol::TriggerIdentity("future".into()),
    );
    future.version = 99;
    let (status, stats) = drive_hint(tap_protocol::wire::to_bytes(&future).to_vec(), 33);
    assert_eq!(status, 400, "unknown version is a counted 400");
    assert_eq!(stats.realtime_malformed, 1, "{stats:?}");
}

#[test]
fn conditions_filter_dispatches() {
    use engine::Condition;
    // A2 variant that only fires when the switch event came from the
    // physical button (ingredient source == "physical").
    let mut w = build_a2(EngineConfig::fast(), 14);
    let applet = a2_applet().with_condition(Condition::Equals {
        key: "source".into(),
        value: "physical".into(),
    });
    w.sim.with_node::<TapEngine, _>(w.engine, |e, ctx| {
        e.install_applet(ctx, applet).unwrap();
    });
    w.sim.run_until(SimTime::from_secs(5));
    // Physical press: the condition holds, the lamp turns on.
    w.sim
        .with_node::<WemoSwitch, _>(w.switch, |s, ctx| s.press(ctx));
    w.sim.run_until(SimTime::from_secs(15));
    assert!(w.sim.node_ref::<HueLamp>(w.lamp).state.on);
    let stats = w.sim.node_ref::<TapEngine>(w.engine).stats;
    assert_eq!(stats.actions_sent, 1);
    assert_eq!(stats.actions_filtered, 0);
}

#[test]
fn failing_condition_suppresses_the_action() {
    use engine::Condition;
    let mut w = build_a2(EngineConfig::fast(), 15);
    let applet = a2_applet().with_condition(Condition::Equals {
        key: "source".into(),
        value: "never_matches".into(),
    });
    w.sim.with_node::<TapEngine, _>(w.engine, |e, ctx| {
        e.install_applet(ctx, applet).unwrap();
    });
    w.sim.run_until(SimTime::from_secs(5));
    w.sim
        .with_node::<WemoSwitch, _>(w.switch, |s, ctx| s.press(ctx));
    w.sim.run_until(SimTime::from_secs(15));
    assert!(
        !w.sim.node_ref::<HueLamp>(w.lamp).state.on,
        "action must be filtered"
    );
    let stats = w.sim.node_ref::<TapEngine>(w.engine).stats;
    assert_eq!(stats.actions_sent, 0);
    assert_eq!(stats.actions_filtered, 1);
    // The event is consumed, not retried forever.
    w.sim.run_until(SimTime::from_secs(60));
    assert_eq!(
        w.sim.node_ref::<TapEngine>(w.engine).stats.actions_filtered,
        1
    );
}
