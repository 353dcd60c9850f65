//! Pins what the Figure 1 testbed lets an observer see.
//!
//! The hashes below were captured at the commit *before* the partner
//! services moved onto one shell (by pasting this file into a `git
//! archive` of it) and must pass unchanged afterwards. Every latency in a
//! §4 report is an exact difference of virtual times, so a moved RNG draw,
//! a reordered send or a changed reply byte anywhere on a trigger-to-action
//! path changes the report's `{:?}` and therefore its hash.
//!
//! To find what moved, run with `--nocapture`: each line prints its name,
//! the hash it got and the hash it wants.

use devices::nest::NestThermostat;
use devices::weather::{Condition as Weather, WeatherStation};
use engine::{ActionRef, Applet, AppletId, TapEngine, TriggerRef};
use simnet::prelude::*;
use tap_protocol::{ActionSlug, FieldMap, ServiceSlug, TriggerSlug, UserId};
use testbed::applets::ALL_PAPER_APPLETS;
use testbed::experiments::{
    concurrent_experiment, explicit_loop_experiment, implicit_loop_experiment, measure_t2a,
    normal_usage_experiment, run_workload, sequential_experiment, timeline_experiment, T2aScenario,
};
use testbed::topology::AUTHOR;
use testbed::{paper_applet, PaperApplet, ServiceVariant, TestController, Testbed, TestbedConfig};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compare every `(name, got)` against `(name, want)`, printing all rows
/// before failing so one run shows everything that moved.
fn check(got: &[(String, u64)], want: &[(&str, u64)]) {
    let mut moved = Vec::new();
    assert_eq!(got.len(), want.len(), "row count");
    for ((name, g), (wname, w)) in got.iter().zip(want) {
        assert_eq!(name, wname, "row order");
        println!("(\"{name}\", 0x{g:016x}), // want 0x{w:016x}");
        if g != w {
            moved.push(name.clone());
        }
    }
    assert!(moved.is_empty(), "moved: {moved:?}");
}

#[test]
fn section4_reports_are_unmoved() {
    let mut got: Vec<(String, u64)> = Vec::new();
    let mut row = |name: &str, debug: String| got.push((name.to_string(), fnv1a(&debug)));
    for (i, applet) in ALL_PAPER_APPLETS.into_iter().enumerate() {
        let r = measure_t2a(&T2aScenario::official(applet, 5, 900 + i as u64));
        row(&format!("t2a_official_{applet:?}"), format!("{r:?}"));
    }
    row(
        "t2a_e1",
        format!("{:?}", measure_t2a(&T2aScenario::e1(5, 911))),
    );
    row(
        "t2a_e2",
        format!("{:?}", measure_t2a(&T2aScenario::e2(5, 912))),
    );
    row(
        "t2a_e3",
        format!("{:?}", measure_t2a(&T2aScenario::e3(5, 913))),
    );
    row("timeline", format!("{:?}", timeline_experiment(701)));
    row(
        "sequential",
        format!("{:?}", sequential_experiment(12, 5, 30.0, 401)),
    );
    row("concurrent", format!("{:?}", concurrent_experiment(4, 921)));
    let window = SimDuration::from_secs(90);
    row(
        "loop_explicit",
        format!("{:?}", explicit_loop_experiment(false, None, window, 931)),
    );
    row(
        "loop_implicit",
        format!("{:?}", implicit_loop_experiment(true, None, window, 932)),
    );
    row(
        "loop_normal",
        format!("{:?}", normal_usage_experiment(None, 3, 933)),
    );
    for (name, push, seed) in [("workload_poll", false, 1), ("workload_push", true, 2)] {
        let o = run_workload(push, 4, 10, 3, 90, seed);
        row(name, format!("{:?} {}", o.report, o.actions_ok));
    }
    check(
        &got,
        &[
            ("t2a_official_A1", 0x54dcbfff7ef56f58),
            ("t2a_official_A2", 0xd87ecd8941f14c1b),
            ("t2a_official_A3", 0x2fd041cef9ed543c),
            ("t2a_official_A4", 0xb71a757aeec5568b),
            ("t2a_official_A5", 0xbdb707068c8bf743),
            ("t2a_official_A6", 0xdaacd0c808d35af3),
            ("t2a_official_A7", 0xb0d788296d6fb09d),
            ("t2a_e1", 0xabc0cd5228833be0),
            ("t2a_e2", 0x97756ee871b2661f),
            ("t2a_e3", 0x3ba678f119b0a48e),
            ("timeline", 0x0de3b9b5aacf44da),
            ("sequential", 0x0a9e170aced40e63),
            ("concurrent", 0x0cd222c118e801cf),
            ("loop_explicit", 0x6acda8df8a629d03),
            ("loop_implicit", 0x71e3dc4ab944264c),
            ("loop_normal", 0xb8da81acdf13137c),
            ("workload_poll", 0xde1b10c2bd7c5c81),
            ("workload_push", 0x0f025488e63ed1d3),
        ],
    );
}

/// One hand-built world holding an applet on every one of the ten
/// services: A2 on Our Service (proxy push in, proxy command out), A5 on
/// the official clouds (Echo → Alexa realtime hint → Hue vendor channel),
/// A1 (WeMo push → Sheets row), A4 (Gmail attachment → Drive file), the §2
/// rain applet (weather → Hue colour), a Nest threshold applet and a
/// Date & Time one — each fired once.
#[test]
fn one_world_is_unmoved_event_for_event() {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 1717,
        ..TestbedConfig::default()
    });
    let fields = |pairs: &[(&str, &str)]| -> FieldMap {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let extra = |id: u32, t: (&str, &str, FieldMap), a: (&str, &str, FieldMap)| {
        Applet::new(
            AppletId(id),
            format!("{} -> {}", t.1, a.1),
            UserId::new(AUTHOR),
            TriggerRef {
                service: ServiceSlug::new(t.0),
                trigger: TriggerSlug::new(t.1),
                fields: t.2,
            },
            ActionRef {
                service: ServiceSlug::new(a.0),
                action: ActionSlug::new(a.1),
                fields: a.2,
            },
        )
    };
    let applets = [
        paper_applet(PaperApplet::A2, ServiceVariant::OursBoth),
        paper_applet(PaperApplet::A5, ServiceVariant::Official),
        paper_applet(PaperApplet::A1, ServiceVariant::Official),
        paper_applet(PaperApplet::A4, ServiceVariant::Official),
        extra(
            50,
            ("weather_underground", "forecast_rain", FieldMap::new()),
            ("philips_hue", "change_color", fields(&[("color", "blue")])),
        ),
        extra(
            51,
            (
                "nest_thermostat",
                "temperature_rises_above",
                fields(&[("threshold", "26")]),
            ),
            (
                "nest_thermostat",
                "set_temperature",
                fields(&[("temp_c", "21")]),
            ),
        ),
        extra(
            52,
            ("date_time", "every_day_at", fields(&[("time", "00:05")])),
            ("wemo", "turn_off", FieldMap::new()),
        ),
    ];
    for applet in applets {
        tb.sim
            .with_node::<TapEngine, _>(tb.nodes.engine, |e, ctx| e.install_applet(ctx, applet))
            .expect("applet installs");
    }
    tb.sim.run_for(SimDuration::from_secs(10));
    tb.sim
        .with_node::<TestController, _>(tb.nodes.controller, |c, ctx| c.press_switch(ctx));
    tb.sim.run_for(SimDuration::from_secs(10));
    tb.sim
        .with_node::<NestThermostat, _>(tb.nodes.nest, |n, ctx| n.set_ambient(ctx, 27.5));
    tb.sim.run_for(SimDuration::from_secs(10));
    tb.sim
        .with_node::<WeatherStation, _>(tb.nodes.weather_station, |w, ctx| {
            w.set_condition(ctx, Weather::Rain);
        });
    tb.sim.run_for(SimDuration::from_secs(10));
    tb.sim
        .with_node::<TestController, _>(tb.nodes.controller, |c, ctx| {
            c.inject_email(ctx, "report", Some(("report.pdf", "PDFDATA")));
        });
    tb.sim.run_for(SimDuration::from_mins(16));
    tb.sim
        .with_node::<TestController, _>(tb.nodes.controller, |c, ctx| {
            c.speak(ctx, PaperApplet::A5.voice_phrase().expect("alexa applet"));
        });
    tb.sim.run_for(SimDuration::from_mins(4));

    let c = tb.sim.node_ref::<TestController>(tb.nodes.controller);
    for marker in [
        "light_on",
        "light_off",
        "row_added",
        "file_saved",
        "switched_off",
    ] {
        assert!(c.observed(marker).is_some(), "{marker} never observed");
    }
    let stats = tb.sim.node_ref::<TapEngine>(tb.nodes.engine).stats;
    assert_eq!(stats.actions_ok, 7, "all seven applets acted: {stats:?}");
    assert_eq!(tb.flight.dropped(), 0, "the ring held the whole run");

    // Every trace line except the two families this change may rename or
    // drop: the engine's own (`engine.*`, which it now reports as typed
    // events only) and the per-vendor service lines (`*_service.*`).
    let others: Vec<(SimTime, NodeId, &str)> = tb
        .sim
        .trace()
        .events()
        .iter()
        .filter(|e| !e.kind.starts_with("engine.") && !e.kind.contains("_service."))
        .map(|e| (e.at, e.node, e.kind))
        .collect();
    for kind in [
        "proxy.command",
        "service.hint",
        "service.poll",
        "lamp.state",
    ] {
        assert!(others.iter().any(|(_, _, k)| *k == kind), "no {kind} line");
    }
    let got = vec![
        (
            "obs_events".to_string(),
            fnv1a(&format!("{:?}", tb.flight.events())),
        ),
        ("events_processed".to_string(), tb.sim.events_processed()),
        ("now_micros".to_string(), tb.sim.now().as_micros()),
        ("other_traces".to_string(), fnv1a(&format!("{others:?}"))),
    ];
    check(
        &got,
        &[
            ("obs_events", 0xff236eb7385f49af),
            ("events_processed", 0x000000000000054a),
            ("now_micros", 0x0000000049e8e600),
            ("other_traces", 0x6919890bb42d3690),
        ],
    );
}
