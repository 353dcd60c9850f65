//! Property-based tests for engine components.

use engine::applet::substitute_fields;
use engine::loopdetect::{RuntimeLoopDetector, StaticLoopDetector};
use engine::{
    ActionRef, Applet, AppletId, BackoffPolicy, Condition, PollPolicy, RetryPolicy, TriggerRef,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::time::{SimDuration, SimTime};
use tap_protocol::FailureClass;
use tap_protocol::{ActionSlug, FieldMap, ServiceSlug, TriggerSlug, UserId};

fn arb_fields() -> impl Strategy<Value = FieldMap> {
    proptest::collection::btree_map("[a-z_]{1,10}", "[ -~]{0,30}", 0..5)
}

proptest! {
    /// Substitution never panics and is a no-op when the template has no
    /// placeholders.
    #[test]
    fn substitution_total(template in "[ -~]{0,60}", ing in arb_fields()) {
        let fields: FieldMap =
            [("k".to_string(), template.clone())].into_iter().collect();
        let out = substitute_fields(&fields, &ing);
        if !template.contains("{{") {
            prop_assert_eq!(&out["k"], &template);
        }
        // Output never contains a *resolved* placeholder for a known key.
        for key in ing.keys() {
            let pat = format!("{{{{{key}}}}}");
            prop_assert!(!out["k"].contains(&pat));
        }
    }

    /// Poll gaps are always positive and bounded by the model.
    #[test]
    fn poll_gaps_positive(seed in any::<u64>(), add_count in 0u64..10_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let applet = applet_with(add_count);
        for policy in [
            PollPolicy::ifttt_like(),
            PollPolicy::fixed(1.0),
            PollPolicy::smart(1_000),
        ] {
            for _ in 0..16 {
                let gap = policy.next_gap(&applet, &mut rng);
                prop_assert!(gap > SimDuration::ZERO);
                prop_assert!(gap <= SimDuration::from_secs(901), "gap {gap}");
            }
        }
    }

    /// Condition combinator laws: Not(Not(c)) ≡ c, All([c]) ≡ c, Any([c]) ≡ c.
    #[test]
    fn condition_laws(ing in arb_fields(), key in "[a-z_]{1,10}", value in "[ -~]{0,20}") {
        let c = Condition::Equals { key, value };
        let double_not = Condition::Not(Box::new(Condition::Not(Box::new(c.clone()))));
        prop_assert_eq!(double_not.eval(&ing), c.eval(&ing));
        prop_assert_eq!(Condition::All(vec![c.clone()]).eval(&ing), c.eval(&ing));
        prop_assert_eq!(Condition::Any(vec![c.clone()]).eval(&ing), c.eval(&ing));
        // De Morgan on a pair.
        let d = Condition::Has { key: "x".into() };
        let lhs = Condition::Not(Box::new(Condition::All(vec![c.clone(), d.clone()])));
        let rhs = Condition::Any(vec![
            Condition::Not(Box::new(c.clone())),
            Condition::Not(Box::new(d)),
        ]);
        prop_assert_eq!(lhs.eval(&ing), rhs.eval(&ing));
    }

    /// The runtime loop detector flags iff more than `max` executions land
    /// in the window, for any execution schedule.
    #[test]
    fn runtime_detector_threshold_exact(
        gaps in proptest::collection::vec(0u64..200, 1..40),
        max in 1usize..10,
        window in 10u64..500,
    ) {
        let mut det = RuntimeLoopDetector::new(max, SimDuration::from_secs(window));
        let id = AppletId(1);
        let mut t = 0u64;
        let mut times: Vec<u64> = Vec::new();
        let mut expected_flag = false;
        for g in gaps {
            t += g;
            times.push(t);
            let in_window =
                times.iter().filter(|x| **x + window >= t && **x <= t).count();
            if in_window > max {
                expected_flag = true;
            }
            det.record(id, SimTime::from_secs(t));
        }
        prop_assert_eq!(det.is_flagged(id), expected_flag);
    }

    /// Static cycle detection is invariant under applet order.
    #[test]
    fn cycle_detection_order_invariant(perm_seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        let mut d = StaticLoopDetector::new();
        d.declare_feed(engine::FeedRule {
            action_service: ServiceSlug::new("s1"),
            action: ActionSlug::new("a1"),
            trigger_service: ServiceSlug::new("s2"),
            trigger: TriggerSlug::new("t2"),
        });
        d.declare_feed(engine::FeedRule {
            action_service: ServiceSlug::new("s2"),
            action: ActionSlug::new("a2"),
            trigger_service: ServiceSlug::new("s1"),
            trigger: TriggerSlug::new("t1"),
        });
        let applets = [
            chain_applet(1, "s1", "t1", "s1", "a1"),
            chain_applet(2, "s2", "t2", "s2", "a2"),
            chain_applet(3, "s1", "t1", "s2", "a_unrelated"),
        ];
        let mut applets: Vec<&Applet> = applets.iter().collect();
        let baseline: Vec<Vec<AppletId>> = d.find_cycles(&applets);
        let mut rng = StdRng::seed_from_u64(perm_seed);
        applets.shuffle(&mut rng);
        let mut shuffled = d.find_cycles(&applets);
        let mut base = baseline;
        base.sort();
        shuffled.sort();
        prop_assert_eq!(base, shuffled);
    }

    /// The nominal backoff schedule is monotone non-decreasing and capped
    /// for any policy with `factor >= 1`, and once it reaches the cap it
    /// stays there. When it reaches the cap depends on the policy: a factor
    /// near 1 with a small base takes thousands of retries, and a factor of
    /// exactly 1 never grows at all.
    #[test]
    fn backoff_nominal_monotone_up_to_cap(
        base in 0.01f64..30.0,
        factor in 1.0f64..4.0,
        cap in 0.01f64..120.0,
    ) {
        let b = BackoffPolicy { base_secs: base, factor, cap_secs: cap, jitter: 0.25 };
        let retries = (0..256u32).chain([1_000, 10_000, 1 << 20, u32::MAX]);
        let mut prev = 0.0f64;
        let mut capped_at = None;
        for retry in retries.clone() {
            let n = b.nominal_secs(retry);
            prop_assert!(n >= prev - 1e-12, "schedule decreased at retry {retry}: {n} < {prev}");
            prop_assert!(n <= cap, "retry {retry} exceeded cap: {n} > {cap}");
            if let Some(first) = capped_at {
                prop_assert_eq!(n, cap, "left the cap at retry {} after reaching it at {}", retry, first);
            } else if n == cap {
                capped_at = Some(retry);
            }
            prev = n;
        }
        let flat = BackoffPolicy { factor: 1.0, ..b };
        for retry in retries {
            prop_assert_eq!(flat.nominal_secs(retry), base.min(cap));
        }
    }

    /// Sampled delays stay inside the jitter band for any seed: jitter
    /// only shortens, by at most the configured fraction, and the cap
    /// bounds every draw.
    #[test]
    fn backoff_jitter_within_bounds(
        seed in any::<u64>(),
        jitter in 0.0f64..=1.0,
        retry in 0u32..40,
    ) {
        let b = BackoffPolicy { jitter, ..BackoffPolicy::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let nominal = b.nominal_secs(retry);
        for _ in 0..8 {
            let d = b.delay(retry, &mut rng).as_secs_f64();
            prop_assert!(d <= nominal + 1e-9, "delay {d} above nominal {nominal}");
            prop_assert!(d >= nominal * (1.0 - jitter) - 1e-9, "delay {d} below jitter floor");
            prop_assert!(d <= b.cap_secs + 1e-9, "delay {d} above cap {}", b.cap_secs);
        }
    }

    /// Driving a retry loop with `should_retry` never exceeds the
    /// configured budget: at most `1 + max_retries` attempts for retryable
    /// failures, exactly 1 for terminal client errors.
    #[test]
    fn retry_budget_never_exceeded(
        max_retries in 0u32..10,
        class_idx in 0usize..4,
    ) {
        let classes = [
            FailureClass::Timeout,
            FailureClass::ServerError,
            FailureClass::Transport,
            FailureClass::ClientError,
        ];
        let class = classes[class_idx];
        let p = RetryPolicy { max_retries, ..RetryPolicy::none() };
        // Every attempt fails; count how many the policy authorizes.
        let mut attempts = 1u32;
        while p.should_retry(attempts, class) {
            attempts += 1;
            prop_assert!(attempts <= max_retries + 1, "attempt {attempts} over budget");
        }
        if class.is_retryable() {
            prop_assert_eq!(attempts, max_retries + 1);
        } else {
            prop_assert_eq!(attempts, 1, "client errors are terminal");
        }
    }
}

fn applet_with(add_count: u64) -> Applet {
    let mut a = chain_applet(1, "s", "t", "s2", "a");
    a.add_count = add_count;
    a
}

fn chain_applet(id: u32, ts: &str, t: &str, as_: &str, a: &str) -> Applet {
    Applet::new(
        AppletId(id),
        format!("applet {id}"),
        UserId::new("u"),
        TriggerRef {
            service: ServiceSlug::new(ts),
            trigger: TriggerSlug::new(t),
            fields: FieldMap::new(),
        },
        ActionRef {
            service: ServiceSlug::new(as_),
            action: ActionSlug::new(a),
            fields: FieldMap::new(),
        },
    )
}
