//! The crawler pipeline must reconstruct exactly what the generator
//! serves: crawl the simulated frontend and compare against the direct
//! snapshot view, including under sporadic 503 overload.

use ecosystem::crawler::{Crawler, CrawlerConfig, APPLET_ID_BASE};
use ecosystem::frontend::IftttFrontend;
use ecosystem::generator::{Ecosystem, GeneratorConfig};
use ecosystem::model::GROWTH;
use ecosystem::{Snapshot, WeekCounts};
use serde::Serialize;
use simnet::prelude::*;

fn crawl(seed: u64, overload: f64) -> (Snapshot, Snapshot, u64) {
    let eco = Ecosystem::generate(GeneratorConfig::test_scale(seed));
    let week = GROWTH.week_canonical as u32;
    let direct = eco.snapshot(week);
    let mut sim = Sim::new(seed);
    let max_id = {
        let f = IftttFrontend::new(direct.clone());
        let max = f.max_applet_id();
        let fe = sim.add_node("ifttt.com", f);
        sim.node_mut::<IftttFrontend>(fe).overload_rate = overload;
        let cfg = CrawlerConfig::new(fe, APPLET_ID_BASE, max + 1);
        let crawler = sim.add_node("crawler", Crawler::new(cfg));
        sim.link(crawler, fe, LinkSpec::wan());
        (fe, crawler, max)
    };
    let (_fe, crawler, _max) = max_id;
    sim.try_run_until_idle(20_000_000)
        .expect("crawl terminates");
    assert!(sim.node_ref::<Crawler>(crawler).is_done());
    let crawled = sim
        .node_ref::<Crawler>(crawler)
        .snapshot(week, direct.date.clone());
    let retries = sim.node_ref::<Crawler>(crawler).stats.retries;
    (direct, crawled, retries)
}

fn assert_equivalent(direct: &Snapshot, crawled: &Snapshot) {
    assert_eq!(WeekCounts::of(crawled), WeekCounts::of(direct));
    // Record-level equality, modulo created_week, which a scraper cannot
    // observe and the crawler leaves at zero. Each snapshot's ids index its
    // own table (the crawled one is in slug order), so records compare as
    // the JSON that names their slugs.
    let mut direct = direct.clone();
    direct.applets.sort_by_key(|a| a.id);
    direct.applets.iter_mut().for_each(|a| a.created_week = 0);
    let applets = |s: &Snapshot| s.to_value()["applets"].clone();
    assert_eq!(applets(&direct), applets(crawled));
}

#[test]
fn clean_crawl_reconstructs_the_snapshot() {
    let (direct, crawled, retries) = crawl(11, 0.0);
    assert_eq!(retries, 0);
    assert_equivalent(&direct, &crawled);
}

#[test]
fn crawl_survives_sporadic_overload() {
    let (direct, crawled, retries) = crawl(12, 0.05);
    assert!(retries > 0, "expected some 503 retries");
    assert_equivalent(&direct, &crawled);
}
