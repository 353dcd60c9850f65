//! Builders for Tables 1–3 and the §1/§3.2 IoT headline numbers.

use crate::render;
use ecosystem::model::{ComparisonDataset, OURS_2017, UR_ET_AL_2015};
use ecosystem::taxonomy::{Category, ALL_CATEGORIES};
use ecosystem::{ServiceTable, Snapshot, WeekCounts};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One measured Table 1 row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CategoryBreakdown {
    pub category: Category,
    /// Fraction of services in this category.
    pub services: f64,
    /// Fraction of total add count whose trigger is in this category.
    pub trigger_ac: f64,
    /// Fraction of total add count whose action is in this category.
    pub action_ac: f64,
}

/// Table 1, measured from a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Report {
    pub rows: Vec<CategoryBreakdown>,
}

impl Table1Report {
    /// Measure the category breakdown.
    pub fn of(snapshot: &Snapshot) -> Table1Report {
        let n_services = snapshot.services.len().max(1) as f64;
        let total_adds = snapshot.total_add_count().max(1) as f64;
        let mut svc = BTreeMap::new();
        for s in &snapshot.services {
            *svc.entry(s.category).or_insert(0usize) += 1;
        }
        let mut trig = BTreeMap::new();
        let mut act = BTreeMap::new();
        let category = |id| snapshot.service(id).category;
        for a in &snapshot.applets {
            *trig.entry(category(a.trigger.service)).or_insert(0u64) += a.add_count;
            *act.entry(category(a.action.service)).or_insert(0u64) += a.add_count;
        }
        let rows = ALL_CATEGORIES
            .iter()
            .map(|c| CategoryBreakdown {
                category: *c,
                services: *svc.get(c).unwrap_or(&0) as f64 / n_services,
                trigger_ac: *trig.get(c).unwrap_or(&0) as f64 / total_adds,
                action_ac: *act.get(c).unwrap_or(&0) as f64 / total_adds,
            })
            .collect();
        Table1Report { rows }
    }

    /// Fraction of services that are IoT (paper: 51.7%).
    pub fn iot_service_share(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.category.is_iot())
            .map(|r| r.services)
            .sum()
    }

    /// Text rendering in the paper's layout.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.category.to_string(),
                    render::pct(r.services),
                    render::pct(r.trigger_ac),
                    render::pct(r.action_ac),
                ]
            })
            .collect();
        render::table(
            &[
                "Service Category",
                "% Services",
                "Trigger AC %",
                "Action AC %",
            ],
            &rows,
        )
    }
}

/// The §1/§3.2 headline: IoT share of services and of applet usage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeadlineIot {
    /// Fraction of services that are IoT ("52% of all services").
    pub service_share: f64,
    /// Fraction of add count with an IoT trigger or action ("16% of the
    /// applet usage").
    pub usage_share: f64,
}

impl HeadlineIot {
    /// Measure the headline numbers.
    pub fn of(snapshot: &Snapshot) -> HeadlineIot {
        let iot_services = snapshot
            .services
            .iter()
            .filter(|s| s.category.is_iot())
            .count() as f64;
        let total_adds = snapshot.total_add_count().max(1) as f64;
        let iot_adds: u64 = snapshot
            .applets
            .iter()
            .filter(|a| {
                [a.trigger, a.action]
                    .iter()
                    .any(|s| snapshot.service(s.service).category.is_iot())
            })
            .map(|a| a.add_count)
            .sum();
        HeadlineIot {
            service_share: iot_services / snapshot.services.len().max(1) as f64,
            usage_share: iot_adds as f64 / total_adds,
        }
    }
}

/// Table 2: our dataset vs Ur et al.'s.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table2Report {
    /// Measured from our weekly counts.
    pub measured_applets: usize,
    pub measured_channels: usize,
    pub measured_triggers: usize,
    pub measured_actions: usize,
    pub measured_adoptions: u64,
    pub measured_contributors: usize,
    pub measured_snapshots: usize,
    /// The published comparison rows.
    pub ours_published: ComparisonDataset,
    pub ur_published: ComparisonDataset,
}

impl Table2Report {
    /// Measure from the full weekly series (adoptions use the final
    /// week, like the paper's running totals).
    pub fn of(weekly: &[WeekCounts]) -> Table2Report {
        let canonical = weekly
            .iter()
            .find(|c| c.week == ecosystem::model::GROWTH.week_canonical as u32)
            .or(weekly.last())
            .expect("at least one week");
        let last = weekly.last().expect("at least one week");
        Table2Report {
            measured_applets: canonical.applets,
            measured_channels: canonical.services,
            measured_triggers: canonical.triggers,
            measured_actions: canonical.actions,
            measured_adoptions: last.add_count,
            measured_contributors: canonical.contributors,
            measured_snapshots: weekly.len(),
            ours_published: OURS_2017,
            ur_published: UR_ET_AL_2015,
        }
    }

    /// Text rendering in the paper's layout.
    pub fn render(&self) -> String {
        let rows = vec![
            vec![
                "# Applets".to_string(),
                render::count(self.measured_applets as u64),
                render::count(self.ours_published.applets as u64),
                render::count(self.ur_published.applets as u64),
            ],
            vec![
                "# Channels".to_string(),
                render::count(self.measured_channels as u64),
                render::count(self.ours_published.channels as u64),
                render::count(self.ur_published.channels as u64),
            ],
            vec![
                "# Triggers".to_string(),
                render::count(self.measured_triggers as u64),
                render::count(self.ours_published.triggers as u64),
                render::count(self.ur_published.triggers as u64),
            ],
            vec![
                "# Actions".to_string(),
                render::count(self.measured_actions as u64),
                render::count(self.ours_published.actions as u64),
                render::count(self.ur_published.actions as u64),
            ],
            vec![
                "# Adoptions".to_string(),
                render::count(self.measured_adoptions),
                render::count(self.ours_published.adoptions),
                render::count(self.ur_published.adoptions),
            ],
            vec![
                "# Contributors".to_string(),
                render::count(self.measured_contributors as u64),
                render::count(self.ours_published.contributors as u64),
                render::count(self.ur_published.contributors as u64),
            ],
            vec![
                "# Snapshots".to_string(),
                self.measured_snapshots.to_string(),
                self.ours_published.snapshots.to_string(),
                self.ur_published.snapshots.to_string(),
            ],
        ];
        render::table(
            &["Aspect", "Measured", "Paper (ours)", "Ur et al. [28]"],
            &rows,
        )
    }
}

/// One Table 3 entry: a service (or trigger/action) with its add count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopEntry {
    pub name: String,
    pub add_count: u64,
}

/// Table 3: top IoT trigger services, action services, triggers, actions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Report {
    pub top_trigger_services: Vec<TopEntry>,
    pub top_action_services: Vec<TopEntry>,
    pub top_triggers: Vec<TopEntry>,
    pub top_actions: Vec<TopEntry>,
}

impl Table3Report {
    /// Measure the top-`k` IoT lists from a snapshot.
    pub fn of(snapshot: &Snapshot, k: usize) -> Table3Report {
        let iot = |id| snapshot.service(id).category.is_iot();
        let mut ts: BTreeMap<&str, u64> = BTreeMap::new();
        let mut as_: BTreeMap<&str, u64> = BTreeMap::new();
        let mut tt: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        let mut ta: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for a in &snapshot.applets {
            if iot(a.trigger.service) {
                let service = snapshot.trigger_service(a);
                *ts.entry(service).or_default() += a.add_count;
                *tt.entry((snapshot.trigger(a), service)).or_default() += a.add_count;
            }
            if iot(a.action.service) {
                let service = snapshot.action_service(a);
                *as_.entry(service).or_default() += a.add_count;
                *ta.entry((snapshot.action(a), service)).or_default() += a.add_count;
            }
        }
        fn top<K: Clone>(
            m: &BTreeMap<K, u64>,
            k: usize,
            name: impl Fn(&K) -> String,
        ) -> Vec<TopEntry> {
            let mut v: Vec<(&K, &u64)> = m.iter().collect();
            v.sort_by(|a, b| b.1.cmp(a.1));
            v.into_iter()
                .take(k)
                .map(|(key, adds)| TopEntry {
                    name: name(key),
                    add_count: *adds,
                })
                .collect()
        }
        Table3Report {
            top_trigger_services: top(&ts, k, |s| s.to_string()),
            top_action_services: top(&as_, k, |s| s.to_string()),
            top_triggers: top(&tt, k, |(t, s)| format!("{t} ({s})")),
            top_actions: top(&ta, k, |(a, s)| format!("{a} ({s})")),
        }
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let n = self
            .top_trigger_services
            .len()
            .max(self.top_action_services.len())
            .max(self.top_triggers.len())
            .max(self.top_actions.len());
        let cell = |list: &[TopEntry], i: usize| -> String {
            list.get(i)
                .map(|e| format!("{} ({:.2}M)", e.name, e.add_count as f64 / 1e6))
                .unwrap_or_default()
        };
        let rows: Vec<Vec<String>> = (0..n)
            .map(|i| {
                vec![
                    cell(&self.top_trigger_services, i),
                    cell(&self.top_action_services, i),
                    cell(&self.top_triggers, i),
                    cell(&self.top_actions, i),
                ]
            })
            .collect();
        render::table(
            &[
                "Top Trigger Services",
                "Top Action Services",
                "Top Triggers",
                "Top Actions",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosystem::generator::{Ecosystem, GeneratorConfig};
    use ecosystem::taxonomy::{table1_row, TABLE1};

    fn snap() -> Snapshot {
        Ecosystem::generate(GeneratorConfig::test_scale(41)).canonical_snapshot()
    }

    #[test]
    fn table1_matches_published_percentages() {
        let t = Table1Report::of(&snap());
        for row in &t.rows {
            let want = table1_row(row.category);
            assert!(
                (row.services * 100.0 - want.services_pct).abs() < 0.5,
                "{}: services {} vs {}",
                row.category,
                row.services * 100.0,
                want.services_pct
            );
            assert!(
                (row.trigger_ac * 100.0 - want.trigger_ac_pct).abs() < 2.0,
                "{}: trig {} vs {}",
                row.category,
                row.trigger_ac * 100.0,
                want.trigger_ac_pct
            );
            assert!(
                (row.action_ac * 100.0 - want.action_ac_pct).abs() < 2.0,
                "{}: act {} vs {}",
                row.category,
                row.action_ac * 100.0,
                want.action_ac_pct
            );
        }
        assert!((t.iot_service_share() - 0.517).abs() < 0.01);
    }

    #[test]
    fn headline_iot_matches_abstract() {
        // "52% of all services and 16% of the applet usage."
        let h = HeadlineIot::of(&snap());
        assert!(
            (h.service_share - 0.52).abs() < 0.01,
            "services {}",
            h.service_share
        );
        assert!(
            (h.usage_share - 0.16).abs() < 0.04,
            "usage {}",
            h.usage_share
        );
    }

    #[test]
    fn table3_top_entries_match_anchors() {
        let t = Table3Report::of(&snap(), 7);
        assert_eq!(t.top_trigger_services[0].name, "amazon_alexa");
        assert_eq!(t.top_action_services[0].name, "philips_hue");
        // Alexa ≈ 1.2M × scale.
        let want = 1_200_000.0 * 0.02;
        assert!((t.top_trigger_services[0].add_count as f64 / want - 1.0).abs() < 0.1);
        // Top triggers/actions come from the anchor slots.
        assert!(t.top_triggers[0].name.contains("amazon_alexa"));
        assert!(t.top_actions[0].name.contains("philips_hue"));
    }

    #[test]
    fn table2_measures_the_series() {
        let eco = Ecosystem::generate(GeneratorConfig::test_scale(42));
        let t = Table2Report::of(&eco.week_counts());
        assert_eq!(t.measured_snapshots, 25);
        assert_eq!(t.measured_channels, 408);
        // Adoptions at crawl end ≈ 24M × scale (Table 2's "24 millions").
        let want = 24_000_000.0 * 0.02;
        assert!(
            (t.measured_adoptions as f64 / want - 1.0).abs() < 0.05,
            "adoptions {}",
            t.measured_adoptions
        );
        let text = t.render();
        assert!(text.contains("# Adoptions"));
    }

    #[test]
    fn renders_are_nonempty_and_structured() {
        let s = snap();
        assert_eq!(Table1Report::of(&s).render().lines().count(), 16);
        let t3 = Table3Report::of(&s, 7).render();
        assert!(t3.contains("Top Trigger Services"));
    }

    #[test]
    fn table1_row_count_is_all_categories() {
        assert_eq!(Table1Report::of(&snap()).rows.len(), TABLE1.len());
    }
}
