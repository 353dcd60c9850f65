//! The Figure 1 topology.
//!
//! Home LAN: Hue lamp ❶ — Hue hub ❷ — local proxy ❸ — gateway router ❹,
//! plus the WeMo switch, Echo Dot, and SmartThings hub. WAN: the authors'
//! service server ❺, the official vendor services ❻, the IFTTT engine ❼,
//! and the Google cloud. The test controller ❾ sits in the home LAN.
//!
//! Devices enforce the LAN rule: the Hue hub accepts the proxy and (vendor
//! pairing) the official Hue cloud; the WeMo switch accepts the proxy and
//! the WeMo cloud.

use devices::echo::EchoDot;
use devices::google::GoogleCloud;
use devices::hue::{HueHub, HueLamp};
use devices::nest::NestThermostat;
use devices::proxy::{DeviceRoute, LocalProxy};
use devices::services::alexa_service::Alexa;
use devices::services::datetime_service::DateTime;
use devices::services::google_services::{Drive, Gmail, Sheets};
use devices::services::hue_service::{Hue, HueAccount};
use devices::services::nest_service::Nest;
use devices::services::our_service::Ours;
use devices::services::weather_service::Weather;
use devices::services::wemo_service::Wemo;
use devices::services::{Partner, PartnerService};
use devices::smartthings::{SensorKind, SmartThingsHub};
use devices::weather::WeatherStation;
use devices::wemo::WemoSwitch;
use engine::{Applet, AppletId, EngineConfig, FlightRecorder, InstallError, TapEngine};
use simnet::prelude::*;
use std::sync::Arc;
use tap_protocol::auth::{AccessToken, ServiceKey};
use tap_protocol::{ServiceSlug, UserId};

use crate::controller::TestController;

/// The home owner's account name used across all services.
pub const AUTHOR: &str = "author";

/// Node handles of the assembled testbed.
#[derive(Debug, Clone, Copy)]
pub struct Nodes {
    pub lamp: NodeId,
    pub hue_hub: NodeId,
    pub wemo_switch: NodeId,
    pub echo: NodeId,
    pub st_hub: NodeId,
    pub proxy: NodeId,
    pub router: NodeId,
    pub our_service: NodeId,
    pub google: NodeId,
    pub hue_service: NodeId,
    pub wemo_service: NodeId,
    pub gmail_service: NodeId,
    pub drive_service: NodeId,
    pub sheets_service: NodeId,
    pub alexa_service: NodeId,
    pub weather_station: NodeId,
    pub weather_service: NodeId,
    pub nest: NodeId,
    pub nest_service: NodeId,
    pub datetime_service: NodeId,
    pub engine: NodeId,
    pub controller: NodeId,
}

/// Testbed construction parameters.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    pub seed: u64,
    /// Engine behaviour (production-like by default; E3 swaps in `fast`).
    pub engine: EngineConfig,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 1,
            engine: EngineConfig::ifttt_like(),
        }
    }
}

/// A pure pass-through node standing in for the gateway router ❹.
#[derive(Debug)]
pub struct GatewayRouter;
impl Node for GatewayRouter {}

/// One partner service as the engine's registry needs it.
struct Registered {
    node: NodeId,
    slug: ServiceSlug,
    key: ServiceKey,
    /// The author's token (the cached-token state after the OAuth dance).
    token: AccessToken,
}

/// The cloud side under construction: the simulation plus a registry
/// row for every partner service added so far.
struct Cloud {
    sim: Sim,
    registry: Vec<Registered>,
}

impl Cloud {
    /// Add one partner service — the only place its node name, key and
    /// vendor are spelled — and pre-authorize the author on it. Minting
    /// here rather than after the world is wired draws the same token: it
    /// is the first draw on the node's own RNG stream either way.
    fn service<V: Partner>(&mut self, name: &str, key: &str, vendor: V) -> NodeId {
        let key = ServiceKey(key.into());
        let service = PartnerService::new(key.clone(), vendor);
        let slug = service.core.endpoint.slug().clone();
        let node = self.sim.add_node(name, service);
        let token = self.sim.with_node::<PartnerService<V>, _>(node, |s, ctx| {
            let oauth = &mut s.core.endpoint.oauth;
            oauth.mint_token(UserId::new(AUTHOR), ctx.rng())
        });
        self.registry.push(Registered {
            node,
            slug,
            key,
            token,
        });
        node
    }
}

/// The assembled testbed.
pub struct Testbed {
    pub sim: Sim,
    pub nodes: Nodes,
    /// A sampled ring of recent engine [`engine::ObsEvent`]s — the
    /// "last n events before the interesting moment" view experiments and
    /// failing tests can dump without replaying the run.
    pub flight: Arc<FlightRecorder>,
}

impl Testbed {
    /// Build the full Figure 1 world.
    pub fn build(config: TestbedConfig) -> Testbed {
        // --- Cloud side -------------------------------------------------
        let mut c = Cloud {
            sim: Sim::new(config.seed),
            registry: Vec::new(),
        };
        let google = c.sim.add_node("google_cloud", GoogleCloud::new());
        let hue_service = c.service("hue_service", "sk_hue", Hue::default());
        let wemo_service = c.service("wemo_service", "sk_wemo", Wemo::default());
        let gmail_service = c.service("gmail_service", "sk_gmail", Gmail { cloud: google });
        let drive_service = c.service("drive_service", "sk_drive", Drive { cloud: google });
        let sheets_service = c.service("sheets_service", "sk_sheets", Sheets { cloud: google });
        let alexa_service = c.service("alexa_service", "sk_alexa", Alexa::default());
        let weather_station = c.sim.add_node("weather_station", WeatherStation::new());
        let nest_service = c.service("nest_service", "sk_nest", Nest::default());
        let datetime_service = c.service("date_time", "sk_time", DateTime::default());
        let weather_service = c.service("weather_service", "sk_weather", Weather::default());
        let our_service = c.service("our_service", "sk_ours", Ours::default());
        let Cloud {
            mut sim,
            registry: mut reg,
        } = c;
        let engine = sim.add_node("ifttt_engine", TapEngine::new(config.engine));
        let flight = Arc::new(FlightRecorder::new(4096));
        sim.node_mut::<TapEngine>(engine).set_sink(flight.clone());

        // --- Home side --------------------------------------------------
        let hue_hub = sim.add_node("hue_hub", HueHub::new("hueuser"));
        let lamp = sim.add_node("hue_lamp_1", HueLamp::new("hue_lamp_1", AUTHOR));
        let wemo_switch = sim.add_node("wemo_switch_1", WemoSwitch::new("wemo_switch_1", AUTHOR));
        let echo = sim.add_node("echo_dot", EchoDot::new("echo_1", AUTHOR, alexa_service));
        let st_hub = sim.add_node("st_hub", SmartThingsHub::new(AUTHOR));
        let nest = sim.add_node("nest_1", NestThermostat::new("nest_1", AUTHOR));
        let proxy = sim.add_node("local_proxy", LocalProxy::new());
        let router = sim.add_node("gateway_router", GatewayRouter);
        let controller = sim.add_node("test_controller", TestController::new());

        // --- Links ------------------------------------------------------
        sim.link(hue_hub, lamp, LinkSpec::radio()); // Zigbee ❶–❷
        for dev in [hue_hub, wemo_switch, echo, st_hub, nest, proxy, controller] {
            sim.link(dev, router, LinkSpec::lan());
        }
        // Direct LAN adjacency where devices talk without the router.
        sim.link(proxy, hue_hub, LinkSpec::lan());
        sim.link(proxy, wemo_switch, LinkSpec::lan());
        sim.link(controller, wemo_switch, LinkSpec::lan());
        sim.link(controller, echo, LinkSpec::lan());
        // WAN side: router to each cloud entity.
        for cloud in [
            our_service,
            google,
            hue_service,
            wemo_service,
            alexa_service,
            nest_service,
        ] {
            sim.link(router, cloud, LinkSpec::wan());
        }
        sim.link(weather_station, weather_service, LinkSpec::wan());
        // Datacenter mesh between the engine / services / Google.
        for svc in [
            our_service,
            google,
            hue_service,
            wemo_service,
            gmail_service,
            drive_service,
            sheets_service,
            alexa_service,
            weather_service,
            nest_service,
            datetime_service,
        ] {
            sim.link(engine, svc, LinkSpec::datacenter());
        }
        for svc in [gmail_service, drive_service, sheets_service] {
            sim.link(google, svc, LinkSpec::datacenter());
        }

        // --- Wiring: device registries, allowlists, observers ------------
        // Devices accept only the LAN proxy and their paired vendor cloud;
        // state changes are pushed to the proxy (Our Service path), to the
        // vendor cloud, and to the controller (T_A measurement).
        let author = UserId::new(AUTHOR);
        sim.node_mut::<HueLamp>(lamp).observers.add(hue_hub);
        let hub = sim.node_mut::<HueHub>(hue_hub);
        hub.register_lamp("hue_lamp_1", lamp);
        hub.allow_only(vec![proxy, hue_service]);
        hub.observers.add(proxy);
        hub.observers.add(controller);
        let switch = sim.node_mut::<WemoSwitch>(wemo_switch);
        switch.allow_only(vec![proxy, wemo_service]);
        switch.observers.add(proxy);
        switch.observers.add(wemo_service);
        switch.observers.add(controller);
        let st = sim.node_mut::<SmartThingsHub>(st_hub);
        st.attach("motion_1", SensorKind::Motion);
        st.observers.add(proxy);
        let g = sim.node_mut::<GoogleCloud>(google);
        g.observers.add(gmail_service);
        g.observers.add(controller);
        let station = sim.node_mut::<WeatherStation>(weather_station);
        station.observers.add(weather_service);
        // Nest pairing: cloud reaches the thermostat (vendor channel);
        // ambient pushes flow back to the cloud and the controller.
        let thermostat = sim.node_mut::<NestThermostat>(nest);
        thermostat.allowed = Some(vec![proxy, nest_service]);
        thermostat.observers.add(nest_service);
        thermostat.observers.add(controller);

        let p = sim.node_mut::<LocalProxy>(proxy);
        p.set_upstream(our_service);
        let username = "hueuser".into();
        p.register(
            "hue_lamp_1",
            DeviceRoute::HueLamp {
                hub: hue_hub,
                username,
            },
        );
        p.register("wemo_switch_1", DeviceRoute::Wemo { node: wemo_switch });
        p.register("motion_1", DeviceRoute::SmartThings { hub: st_hub });

        // --- Vendor accounts ---------------------------------------------
        let account = HueAccount {
            hub: hue_hub,
            username: "hueuser".into(),
            lamp_device: "hue_lamp_1".into(),
        };
        let hue = &mut sim.node_mut::<PartnerService<Hue>>(hue_service).vendor;
        hue.add_account(author.clone(), account);
        let wemo = &mut sim.node_mut::<PartnerService<Wemo>>(wemo_service).vendor;
        wemo.add_switch(author.clone(), wemo_switch);
        let ours = &mut sim.node_mut::<PartnerService<Ours>>(our_service).vendor;
        ours.proxy = Some(proxy);
        ours.google = Some(google);
        ours.watch_gmail(AUTHOR);
        let weather = &mut sim
            .node_mut::<PartnerService<Weather>>(weather_service)
            .vendor;
        weather.add_user(author.clone());
        let nest_cloud = &mut sim.node_mut::<PartnerService<Nest>>(nest_service).vendor;
        nest_cloud.add_thermostat(author.clone(), nest);
        // Alexa uses the realtime API towards the engine.
        let alexa = sim.node_mut::<PartnerService<Alexa>>(alexa_service);
        alexa.core.enable_realtime(engine);

        // --- Engine registration + user connections ----------------------
        // In this order, not the order the nodes were added in: it fixes
        // the engine's symbol numbering, which its typed events carry.
        let order = [
            hue_service,
            wemo_service,
            gmail_service,
            drive_service,
            sheets_service,
            alexa_service,
            our_service,
            weather_service,
            nest_service,
            datetime_service,
        ];
        reg.sort_by_key(|r| order.iter().position(|n| *n == r.node));
        sim.with_node::<TapEngine, _>(engine, |e, _| {
            for r in &reg {
                e.register_service(r.slug.clone(), r.node, r.key.clone());
            }
            for r in reg {
                e.set_token(author.clone(), r.slug, r.token);
            }
        });

        // Controller knows its instruments.
        {
            let nodes = Nodes {
                lamp,
                hue_hub,
                wemo_switch,
                echo,
                st_hub,
                proxy,
                router,
                our_service,
                google,
                hue_service,
                wemo_service,
                gmail_service,
                drive_service,
                sheets_service,
                alexa_service,
                weather_station,
                weather_service,
                nest,
                nest_service,
                datetime_service,
                engine,
                controller,
            };
            let c = sim.node_mut::<TestController>(controller);
            c.wire(nodes);
            Testbed { sim, nodes, flight }
        }
    }

    /// Install `applet` on the engine.
    pub fn install(&mut self, applet: Applet) -> Result<AppletId, InstallError> {
        let engine = self.nodes.engine;
        self.sim
            .with_node::<TapEngine, _>(engine, |e, ctx| e.install_applet(ctx, applet))
    }

    /// Have the test controller ❾ act (press, speak, inject mail).
    pub fn controller<R>(
        &mut self,
        act: impl FnOnce(&mut TestController, &mut Context<'_>) -> R,
    ) -> R {
        self.sim
            .with_node::<TestController, _>(self.nodes.controller, act)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_and_settles() {
        let mut tb = Testbed::build(TestbedConfig::default());
        tb.sim.run_until(SimTime::from_secs(10));
        // Nothing exploded; the author is connected everywhere.
        let author = UserId::new(AUTHOR);
        let e = tb.sim.node_ref::<TapEngine>(tb.nodes.engine);
        for slug in [
            "philips_hue",
            "wemo",
            "gmail",
            "google_drive",
            "google_sheets",
            "amazon_alexa",
            "our_service",
        ] {
            assert!(e.is_connected(&author, &ServiceSlug::new(slug)), "{slug}");
        }
    }

    #[test]
    fn flight_recorder_sees_engine_traffic() {
        let mut tb = Testbed::build(TestbedConfig::default());
        tb.sim.run_until(SimTime::from_secs(120));
        // Settled engine with no applets still polls nothing, but once an
        // applet lands the recorder fills with poll events.
        assert_eq!(tb.flight.seen(), 0, "no applets, no events");
        let applet = crate::applets::paper_applet(
            crate::applets::PaperApplet::A2,
            crate::applets::ServiceVariant::OursBoth,
        );
        tb.install(applet).expect("applet installs");
        tb.sim.run_until(SimTime::from_secs(600));
        assert!(tb.flight.seen() > 0, "poll traffic recorded");
        assert!(tb
            .flight
            .events()
            .iter()
            .any(|e| matches!(e, engine::ObsEvent::PollSent { .. })));
    }

    #[test]
    fn controller_observes_switch_presses() {
        let mut tb = Testbed::build(TestbedConfig::default());
        tb.sim
            .with_node::<WemoSwitch, _>(tb.nodes.wemo_switch, |s, ctx| s.press(ctx));
        tb.sim.run_until(SimTime::from_secs(2));
        let c = tb.sim.node_ref::<TestController>(tb.nodes.controller);
        assert!(c.observed("switched_on").is_some());
    }

    #[test]
    fn lan_rule_is_enforced_in_the_assembled_world() {
        // The engine cannot reach the hub directly even though a route
        // exists through the mesh.
        let mut tb = Testbed::build(TestbedConfig::default());
        struct Probe;
        impl Node for Probe {}
        let probe = tb.sim.add_node("probe", Probe);
        tb.sim.link(probe, tb.nodes.router, LinkSpec::wan());
        tb.sim.with_node::<Probe, _>(probe, |_, ctx| {
            let req =
                Request::put("/api/hueuser/lights/hue_lamp_1/state").with_body(r#"{"on":true}"#);
            ctx.send_request(
                tb.nodes.hue_hub,
                req,
                Token(1),
                RequestOpts::timeout_secs(5),
            );
        });
        tb.sim.run_until(SimTime::from_secs(10));
        assert!(
            !tb.sim
                .node_ref::<devices::hue::HueLamp>(tb.nodes.lamp)
                .state
                .on
        );
    }
}
