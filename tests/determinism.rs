//! Reproducibility: every layer must be bit-for-bit deterministic in the
//! master seed — the property that makes the whole study re-runnable.

use ifttt_core::ecosystem::generator::{Ecosystem, GeneratorConfig};
use ifttt_core::testbed::experiments::{measure_t2a, timeline_experiment, T2aScenario};
use ifttt_core::testbed::PaperApplet;
use ifttt_core::{paper, Lab};

#[test]
fn ecosystems_are_deterministic() {
    let a = Ecosystem::generate(GeneratorConfig::test_scale(5));
    let b = Ecosystem::generate(GeneratorConfig::test_scale(5));
    assert_eq!(a.services, b.services);
    assert_eq!(a.applets, b.applets);
}

#[test]
fn t2a_measurements_are_deterministic() {
    let s = T2aScenario::official(PaperApplet::A2, 4, 77);
    let a = measure_t2a(&s);
    let b = measure_t2a(&s);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.latency.snapshot(), b.latency.snapshot());
    // A different seed gives different latencies (the polling phase is
    // random relative to the trigger).
    let c = measure_t2a(&T2aScenario::official(PaperApplet::A2, 4, 78));
    assert_ne!(a.latency, c.latency);
}

#[test]
fn timelines_are_deterministic() {
    assert_eq!(
        timeline_experiment(5).entries,
        timeline_experiment(5).entries
    );
}

#[test]
fn lab_analyses_are_deterministic() {
    let a = Lab::new(31).with_scale(0.02);
    let b = Lab::new(31).with_scale(0.02);
    for regenerate in [paper::table1, paper::fig2, paper::growth_users] {
        let (x, y) = (regenerate(&a), regenerate(&b));
        assert_eq!((x.text, x.measured), (y.text, y.measured));
    }
}
