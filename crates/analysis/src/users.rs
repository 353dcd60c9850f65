//! User-contribution analytics (§3.2, "Applet Properties").

use crate::tail::top_share;
use ecosystem::model::TAILS;
use ecosystem::snapshot::{Author, Snapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Who contributes applets, and how unequally.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserContribution {
    /// Distinct user channels with ≥1 published applet.
    pub user_channels: usize,
    /// Fraction of applets that are user-made (paper: 98%).
    pub user_made_applets: f64,
    /// Fraction of total add count on user-made applets (paper: 86%).
    pub user_made_adds: f64,
    /// Share of all applets by the top 1% of users (paper: 18%).
    pub top1_user_share: f64,
    /// Share of all applets by the top 10% of users (paper: 49%).
    pub top10_user_share: f64,
}

impl UserContribution {
    /// Measure from a snapshot.
    pub fn of(snapshot: &Snapshot) -> UserContribution {
        let mut per_user: BTreeMap<u32, u64> = BTreeMap::new();
        let mut user_applets = 0usize;
        let mut user_adds = 0u64;
        for a in &snapshot.applets {
            match &a.author {
                Author::User(u) => {
                    *per_user.entry(*u).or_default() += 1;
                    user_applets += 1;
                    user_adds += a.add_count;
                }
                Author::Service(_) => {}
            }
        }
        let counts: Vec<u64> = per_user.values().copied().collect();
        let n_applets = snapshot.applets.len().max(1) as f64;
        UserContribution {
            user_channels: per_user.len(),
            user_made_applets: user_applets as f64 / n_applets,
            user_made_adds: user_adds as f64 / snapshot.total_add_count().max(1) as f64,
            // The paper states shares of *all* applets; user-made is 98% of
            // them, so normalize the user tail shares to the full set.
            top1_user_share: top_share(&counts, 0.01) * user_applets as f64 / n_applets,
            top10_user_share: top_share(&counts, 0.10) * user_applets as f64 / n_applets,
        }
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        format!(
            "user channels: {}\nuser-made applets: {:.1}% (paper {:.0}%)\n\
             user-made add count: {:.1}% (paper {:.0}%)\n\
             top 1% users contribute: {:.1}% of applets (paper {:.0}%)\n\
             top 10% users contribute: {:.1}% of applets (paper {:.0}%)\n",
            self.user_channels,
            self.user_made_applets * 100.0,
            TAILS.user_made_applets * 100.0,
            self.user_made_adds * 100.0,
            TAILS.user_made_adds * 100.0,
            self.top1_user_share * 100.0,
            TAILS.user_top1_share * 100.0,
            self.top10_user_share * 100.0,
            TAILS.user_top10_share * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosystem::generator::{Ecosystem, GeneratorConfig};

    #[test]
    fn contribution_matches_paper_stats() {
        let snap = Ecosystem::generate(GeneratorConfig::test_scale(61)).canonical_snapshot();
        let u = UserContribution::of(&snap);
        assert!(
            (u.user_made_applets - 0.98).abs() < 0.01,
            "applets {}",
            u.user_made_applets
        );
        assert!(
            (u.user_made_adds - 0.86).abs() < 0.05,
            "adds {}",
            u.user_made_adds
        );
        assert!(
            (u.top1_user_share - 0.18).abs() < 0.04,
            "top1 {}",
            u.top1_user_share
        );
        assert!(
            (u.top10_user_share - 0.49).abs() < 0.06,
            "top10 {}",
            u.top10_user_share
        );
        // Scaled user-channel count: 135,544 × 0.02 ≈ 2,711.
        assert!(
            (u.user_channels as f64 / (135_544.0 * 0.02) - 1.0).abs() < 0.1,
            "channels {}",
            u.user_channels
        );
    }

    #[test]
    fn render_mentions_paper_values() {
        let snap = Ecosystem::generate(GeneratorConfig::test_scale(62)).canonical_snapshot();
        let text = UserContribution::of(&snap).render();
        assert!(text.contains("paper 98%"));
        assert!(text.contains("user channels"));
    }
}
