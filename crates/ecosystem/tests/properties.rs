//! Property-based tests on the ecosystem model's structural invariants.

use ecosystem::generator::{Ecosystem, GeneratorConfig};
use ecosystem::model::GROWTH;
use ecosystem::names::slugify;
use ecosystem::snapshot::{Author, ServiceTable};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Structural invariants hold for any seed at test scale:
    /// referential integrity, id uniqueness, creation-week consistency,
    /// and monotone snapshots.
    #[test]
    fn ecosystem_structural_invariants(seed in 0u64..1000) {
        let eco = Ecosystem::generate(GeneratorConfig::test_scale(seed));
        let slugs: HashSet<&str> = eco.services.iter().map(|s| s.slug.as_str()).collect();
        prop_assert_eq!(slugs.len(), eco.services.len(), "service slugs unique");
        let mut ids: Vec<u32> = eco.applets.iter().map(|a| a.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n, "applet ids unique");
        for a in &eco.applets {
            // Every id resolves: the accessors index the table.
            let _ = (eco.trigger(a), eco.action(a));
            prop_assert!(a.add_count >= 1);
            prop_assert!(a.created_week <= eco.final_week);
            prop_assert!((100_000..10_000_000).contains(&a.id));
        }
        // Snapshots grow monotonically and stay internally consistent.
        let mut prev_applets = 0;
        let mut prev_adds = 0;
        for w in [0u32, 6, 12, GROWTH.week_canonical as u32, 24] {
            let s = eco.snapshot(w);
            prop_assert!(s.applets.len() >= prev_applets);
            prop_assert!(s.total_add_count() >= prev_adds);
            prev_applets = s.applets.len();
            prev_adds = s.total_add_count();
            // A week's ids index its own table and name what the catalog
            // names.
            let (mut week, mut catalog) = (s.applets.iter(), eco.applets.iter());
            for a in &mut week {
                let c = catalog.find(|c| c.id == a.id).expect("a week's applet is the catalog's");
                prop_assert_eq!(s.trigger_service(a), eco.trigger_service(c));
                prop_assert_eq!(s.name(a).to_string(), eco.name(c).to_string());
                prop_assert_eq!(s.action_service(a), eco.action_service(c));
            }
        }
    }

    /// Author assignment is total: every applet has either a user id ≥ 1
    /// or is its trigger service's own.
    #[test]
    fn authors_are_wellformed(seed in 0u64..500) {
        let eco = Ecosystem::generate(GeneratorConfig::test_scale(seed));
        for a in &eco.applets {
            match a.author {
                Author::User(u) => prop_assert!(u >= 1, "user 0 is the unassigned marker"),
                Author::Service(s) => prop_assert_eq!(s, a.trigger.service),
            }
        }
    }
}

proptest! {
    /// Slugify output is always URL-safe and idempotent.
    #[test]
    fn slugify_is_urlsafe_and_idempotent(name in "[ -~]{0,60}") {
        let s = slugify(&name);
        prop_assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'), "{s}");
        prop_assert!(!s.ends_with('_'));
        prop_assert_eq!(slugify(&s), s.clone());
    }
}
