//! Weekly crawler snapshots of the live fleet's ecosystem (§3.2).
//!
//! A churn run's population is no longer frozen at t=0: the catalog the
//! cells install from grows week over week per the calibrated growth model.
//! This module closes the loop the paper draws in §3 — it points the real
//! measurement pipeline ([`ecosystem::crawler::Crawler`] against
//! [`ecosystem::frontend::IftttFrontend`]) at the *same* generated
//! ecosystem the fleet is running, one crawl per simulated week, and
//! rebuilds the §3.2 growth table from the crawled snapshots rather than
//! from generator internals.
//!
//! The crawl runs in its own [`simnet`] simulation after the fleet
//! finishes, so it can never perturb the run digest; everything here is
//! render-only output keyed by the run's `(master_seed, eco_scale,
//! multi_step_share)` — the exact catalog parameters the cells used.

use crate::runner::FleetConfig;
use ecosystem::crawler::crawl_week;
use ecosystem::model::GROWTH;
use ecosystem::Ecosystem;
use simnet::rng::derive_seed;

/// One crawled weekly snapshot of the live ecosystem.
#[derive(Debug, Clone)]
pub struct LiveGrowthRow {
    /// Zero-based week index (week 0 = 2016-11-19).
    pub week: u32,
    /// Calendar label of the crawl date.
    pub date: String,
    /// Services visible on the crawled index that week.
    pub services: usize,
    /// Applets discovered by the id scan that week.
    pub applets: usize,
    /// Total applet add count that week.
    pub adds: u64,
}

/// The §3.2 growth table rebuilt from weekly crawls of the live fleet.
#[derive(Debug, Clone)]
pub struct LiveGrowth {
    /// Generator scale the fleet ran at (rows are proportional to it).
    pub scale: f64,
    /// One row per crawled week, oldest first.
    pub rows: Vec<LiveGrowthRow>,
    /// Pages fetched across all weekly crawls.
    pub pages_fetched: u64,
}

impl LiveGrowth {
    /// Crawl the churn window's weekly snapshots of the catalog a fleet
    /// run used. Returns `None` when churn is off — a frozen world has no
    /// growth table.
    pub fn crawl(cfg: &FleetConfig) -> Option<LiveGrowth> {
        let weeks = cfg.churn.weeks();
        if weeks == 0 {
            return None;
        }
        let last = GROWTH.week_canonical as u32;
        let first = last.saturating_sub(weeks);
        Some(Self::crawl_weeks(cfg, first, last))
    }

    /// Crawl an explicit inclusive week range (exposed for tests).
    pub fn crawl_weeks(cfg: &FleetConfig, first: u32, last: u32) -> LiveGrowth {
        let eco = Ecosystem::generate(cfg.generator_config());
        let seed = derive_seed(cfg.master_seed, 0x11fe_0001);
        let mut rows = Vec::with_capacity((last - first + 1) as usize);
        let mut pages_fetched = 0u64;
        for week in first..=last {
            let crawl = crawl_week(&eco, week, seed);
            pages_fetched += crawl.stats.pages_fetched;
            rows.push(LiveGrowthRow {
                week,
                services: crawl.snapshot.services.len(),
                applets: crawl.snapshot.applets.len(),
                adds: crawl.snapshot.total_add_count(),
                date: crawl.snapshot.date,
            });
        }
        LiveGrowth {
            scale: cfg.eco_scale,
            rows,
            pages_fetched,
        }
    }

    /// Average services added per crawled week.
    pub fn services_per_week(&self) -> f64 {
        self.slope(|r| r.services as f64)
    }

    /// Average applets added per crawled week.
    pub fn applets_per_week(&self) -> f64 {
        self.slope(|r| r.applets as f64)
    }

    fn slope(&self, f: impl Fn(&LiveGrowthRow) -> f64) -> f64 {
        match (self.rows.first(), self.rows.last()) {
            (Some(a), Some(b)) if b.week > a.week => (f(b) - f(a)) / (b.week - a.week) as f64,
            _ => 0.0,
        }
    }

    /// Render the growth table the way §3.2 tabulates it, with the
    /// paper's full-scale weekly rates for comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "live ecosystem growth (weekly crawls at scale {}, {} pages):\n",
            self.scale, self.pages_fetched
        ));
        out.push_str("  week  date        services  applets     adds\n");
        for r in &self.rows {
            out.push_str(&format!(
                "  {:>4}  {}  {:>8}  {:>7}  {:>7}\n",
                r.week, r.date, r.services, r.applets, r.adds
            ));
        }
        // Services are never scaled down (the generator keeps the paper's
        // full roster at any catalog scale), so that rate is directly
        // comparable; applet counts scale linearly, so rescale them.
        out.push_str(&format!(
            "  growth: {:+.1} services/week, {:+.1} applets/week \
             ({:+.0} applets/week at full catalog scale; paper §3.2: \
             +11% services, +19% installs over the 25-snapshot crawl)\n",
            self.services_per_week(),
            self.applets_per_week(),
            self.applets_per_week() / self.scale
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ChurnProfile, FleetConfig, FleetPolicy};

    #[test]
    fn crawled_weekly_rows_grow_and_match_the_generator() {
        let mut cfg = FleetConfig::new(100, 1, FleetPolicy::Fast)
            .with_churn(ChurnProfile::Weekly)
            .with_seed(2017);
        cfg.eco_scale = 0.02;
        let growth = LiveGrowth::crawl_weeks(&cfg, 16, 18);
        assert_eq!(growth.rows.len(), 3);
        // The crawled view must match the generator's own snapshot — the
        // crawler measures the live world, it does not approximate it.
        let eco = Ecosystem::generate(cfg.generator_config());
        for row in &growth.rows {
            let snap = eco.snapshot(row.week);
            assert_eq!(row.services, snap.services.len(), "week {}", row.week);
            assert_eq!(row.applets, snap.applets.len(), "week {}", row.week);
            assert_eq!(row.adds, snap.total_add_count(), "week {}", row.week);
        }
        // Growth model: later weeks never shrink the catalog.
        for pair in growth.rows.windows(2) {
            assert!(pair[1].services >= pair[0].services);
            assert!(pair[1].applets >= pair[0].applets);
        }
        assert!(growth.applets_per_week() > 0.0);
        let table = growth.render();
        assert!(table.contains("services/week"));
    }

    #[test]
    fn churn_off_has_no_growth_table() {
        let cfg = FleetConfig::new(100, 1, FleetPolicy::Fast);
        assert!(LiveGrowth::crawl(&cfg).is_none());
    }
}
