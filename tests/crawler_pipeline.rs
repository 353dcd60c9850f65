//! The §3.1 data-collection pipeline end-to-end: crawl two weekly
//! snapshots of the simulated frontend, archive them as JSON, reload, and
//! run the longitudinal analysis on the result.

use ifttt_core::analysis::GrowthReport;
use ifttt_core::ecosystem::crawler::crawl_week;
use ifttt_core::ecosystem::generator::{Ecosystem, GeneratorConfig};
use ifttt_core::ecosystem::{Snapshot, WeekCounts};

#[test]
fn weekly_crawls_support_longitudinal_analysis() {
    let eco = Ecosystem::generate(GeneratorConfig::test_scale(77));
    // Crawl week 0 and week 19 (the paper's growth comparison pair).
    let w0 = crawl_week(&eco, 0, 1).snapshot;
    let w19 = crawl_week(&eco, 19, 2).snapshot;

    // Archive + reload round trip (the paper kept ~200 GB of snapshots;
    // we keep JSON).
    let json0 = w0.to_json();
    let json19 = w19.to_json();
    let w0 = Snapshot::from_json(&json0).unwrap();
    let w19 = Snapshot::from_json(&json19).unwrap();

    let weekly = [WeekCounts::of(&w0), WeekCounts::of(&w19)];
    let g = GrowthReport::of(&weekly, 0, 19);
    assert!(
        (g.services_growth - 0.11).abs() < 0.03,
        "services {}",
        g.services_growth
    );
    assert!(
        (g.add_count_growth - 0.19).abs() < 0.06,
        "adds {}",
        g.add_count_growth
    );

    // The crawled snapshots count what the generator counts.
    let counts = eco.week_counts();
    assert_eq!(weekly, [counts[0], counts[19]]);
}

#[test]
fn crawler_stats_reflect_the_id_space() {
    let eco = Ecosystem::generate(GeneratorConfig::test_scale(78));
    let stats = crawl_week(&eco, 18, 3).stats;
    let expected = eco.snapshot(18).applets.len() as u64;
    assert_eq!(stats.applets_found, expected);
    // The six-digit id space is sparse: many enumerated ids are 404s.
    assert!(stats.not_found > 0);
    assert_eq!(stats.gave_up, 0);
    // Every page the frontend serves resolves against the crawled index.
    assert_eq!(stats.rejected, 0);
}
