//! The crawler pipeline must reconstruct exactly what the generator
//! serves: crawl the simulated frontend and compare against the direct
//! snapshot view, including under sporadic 503 overload.

use ecosystem::crawler::{Crawler, CrawlerConfig, APPLET_ID_BASE};
use ecosystem::frontend::IftttFrontend;
use ecosystem::generator::{Ecosystem, GeneratorConfig};
use ecosystem::model::GROWTH;
use ecosystem::WeekCounts;
use simnet::prelude::*;

fn crawl(seed: u64, overload: f64) -> (ecosystem::Snapshot, ecosystem::Snapshot, u64) {
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

fn assert_equivalent(direct: &ecosystem::Snapshot, crawled: &ecosystem::Snapshot) {
    assert_eq!(WeekCounts::of(crawled), WeekCounts::of(direct));
    // Record-level equality (modulo created_week, which a scraper cannot
    // observe and the crawler leaves at zero).
    let mut direct_applets = direct.applets.clone();
    direct_applets.sort_by_key(|a| a.id);
    for (d, c) in direct_applets.iter().zip(&crawled.applets) {
        assert_eq!(d.id, c.id);
        assert_eq!(d.trigger_service, c.trigger_service);
        assert_eq!(d.trigger, c.trigger);
        assert_eq!(d.action_service, c.action_service);
        assert_eq!(d.action, c.action);
        assert_eq!(d.author, c.author);
        assert_eq!(d.add_count, c.add_count);
    }
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
