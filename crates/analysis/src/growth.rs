//! Longitudinal growth (§3.2's first paragraph).

use crate::render;
use ecosystem::model::GROWTH;
use ecosystem::WeekCounts;
use serde::{Deserialize, Serialize};

/// Weekly totals plus the headline growth comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrowthReport {
    /// The series the report was measured over.
    pub weekly: Vec<WeekCounts>,
    /// Relative growth from the first to the 11/24→4/1 comparison week.
    pub services_growth: f64,
    pub triggers_growth: f64,
    pub actions_growth: f64,
    pub add_count_growth: f64,
}

impl GrowthReport {
    /// Measure growth across a weekly series; the headline numbers
    /// compare `week_start` to `week_end` (paper: weeks 0 and 19), and are
    /// zero if either week is missing.
    pub fn of(weekly: &[WeekCounts], week_start: u32, week_end: u32) -> GrowthReport {
        let find = |week| weekly.iter().find(|c| c.week == week);
        let (a, b) = (find(week_start), find(week_end));
        let growth = |count: fn(&WeekCounts) -> f64| match (a, b) {
            (Some(a), Some(b)) if count(a) > 0.0 => count(b) / count(a) - 1.0,
            _ => 0.0,
        };
        GrowthReport {
            weekly: weekly.to_vec(),
            services_growth: growth(|c| c.services as f64),
            triggers_growth: growth(|c| c.triggers as f64),
            actions_growth: growth(|c| c.actions as f64),
            add_count_growth: growth(|c| c.add_count as f64),
        }
    }

    /// Text rendering: the weekly series plus the growth headline.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .weekly
            .iter()
            .map(|c| {
                vec![
                    c.week.to_string(),
                    c.services.to_string(),
                    c.triggers.to_string(),
                    c.actions.to_string(),
                    render::count(c.add_count),
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
        let counts = eco.week_counts();
        let g = GrowthReport::of(&counts, GROWTH.week_start as u32, GROWTH.week_end as u32);
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
            assert!(w[1].services >= w[0].services && w[1].add_count >= w[0].add_count);
        }
    }

    #[test]
    fn growth_is_relative_to_the_start_week() {
        let week = |week, services, triggers, add_count| WeekCounts {
            week,
            services,
            triggers,
            actions: 4,
            applets: 4,
            add_count,
            contributors: 2,
        };
        let g = GrowthReport::of(&[week(18, 2, 3, 200), week(19, 3, 5, 240)], 18, 19);
        assert!((g.services_growth - 0.5).abs() < 1e-9);
        assert!((g.triggers_growth - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(g.actions_growth, 0.0);
        assert!((g.add_count_growth - 0.2).abs() < 1e-9);
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
        let g = GrowthReport::of(&eco.week_counts(), 0, 19);
        assert!(g.render().contains("+11%"));
    }
}
