//! Longitudinal growth (§3.2's first paragraph).

use crate::render;
use ecosystem::model::GROWTH;
use ecosystem::snapshot::{diff, Snapshot};
use serde::{Deserialize, Serialize};

/// Weekly totals plus the headline growth comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrowthReport {
    /// `(week, services, triggers, actions, add_count)` per snapshot.
    pub weekly: Vec<(u32, usize, usize, usize, u64)>,
    /// Relative growth from the first to the 11/24→4/1 comparison week.
    pub services_growth: f64,
    pub triggers_growth: f64,
    pub actions_growth: f64,
    pub add_count_growth: f64,
}

impl GrowthReport {
    /// Measure growth across a snapshot series; the headline numbers
    /// compare `week_start` to `week_end` (paper: weeks 0 and 19).
    pub fn of(snapshots: &[Snapshot], week_start: u32, week_end: u32) -> GrowthReport {
        let weekly = snapshots
            .iter()
            .map(|s| {
                (
                    s.week,
                    s.services.len(),
                    s.trigger_count(),
                    s.action_count(),
                    s.total_add_count(),
                )
            })
            .collect();
        let a = snapshots.iter().find(|s| s.week == week_start);
        let b = snapshots.iter().find(|s| s.week == week_end);
        let (sg, tg, ag, cg) = match (a, b) {
            (Some(a), Some(b)) => {
                let d = diff(a, b);
                (
                    d.services_growth,
                    d.triggers_growth,
                    d.actions_growth,
                    d.add_count_growth,
                )
            }
            _ => (0.0, 0.0, 0.0, 0.0),
        };
        GrowthReport {
            weekly,
            services_growth: sg,
            triggers_growth: tg,
            actions_growth: ag,
            add_count_growth: cg,
        }
    }

    /// Text rendering: the weekly series plus the growth headline.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .weekly
            .iter()
            .map(|(w, s, t, a, c)| {
                vec![
                    w.to_string(),
                    s.to_string(),
                    t.to_string(),
                    a.to_string(),
                    render::count(*c),
                ]
            })
            .collect();
        let mut out = render::table(
            &["Week", "Services", "Triggers", "Actions", "Add count"],
            &rows,
        );
        out.push_str(&format!(
            "\ngrowth (paper: +{:.0}% / +{:.0}% / +{:.0}% / +{:.0}%): services {} triggers {} actions {} adds {}\n",
            GROWTH.services * 100.0,
            GROWTH.triggers * 100.0,
            GROWTH.actions * 100.0,
            GROWTH.add_count * 100.0,
            render::pct(self.services_growth),
            render::pct(self.triggers_growth),
            render::pct(self.actions_growth),
            render::pct(self.add_count_growth),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosystem::generator::{Ecosystem, GeneratorConfig};

    #[test]
    fn growth_report_matches_paper_rates() {
        let eco = Ecosystem::generate(GeneratorConfig::test_scale(51));
        let snaps = eco.all_snapshots();
        let g = GrowthReport::of(&snaps, GROWTH.week_start as u32, GROWTH.week_end as u32);
        assert_eq!(g.weekly.len(), 25);
        assert!(
            (g.services_growth - 0.11).abs() < 0.03,
            "services {}",
            g.services_growth
        );
        assert!(
            (g.triggers_growth - 0.31).abs() < 0.08,
            "triggers {}",
            g.triggers_growth
        );
        assert!(
            (g.actions_growth - 0.27).abs() < 0.08,
            "actions {}",
            g.actions_growth
        );
        assert!(
            (g.add_count_growth - 0.19).abs() < 0.06,
            "adds {}",
            g.add_count_growth
        );
        // Weekly series is monotone non-decreasing in every column.
        for w in g.weekly.windows(2) {
            assert!(w[1].1 >= w[0].1 && w[1].4 >= w[0].4);
        }
    }

    #[test]
    fn missing_weeks_yield_zero_growth() {
        let g = GrowthReport::of(&[], 0, 19);
        assert_eq!(g.services_growth, 0.0);
        assert!(g.weekly.is_empty());
    }

    #[test]
    fn render_mentions_paper_targets() {
        let eco = Ecosystem::generate(GeneratorConfig::test_scale(52));
        let snaps: Vec<_> = [0u32, 19].iter().map(|w| eco.snapshot(*w)).collect();
        let g = GrowthReport::of(&snaps, 0, 19);
        assert!(g.render().contains("+11%"));
    }
}
