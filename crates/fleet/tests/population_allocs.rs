//! A fleet process holds its applet catalog once: `fleet::population`
//! consumes the generated `Ecosystem` into the sampler, so beyond what
//! `Ecosystem::generate` allocates it allocates the sampler's three arrays
//! and the hot threshold's sorted copy of the add counts — not a
//! `Snapshot` of every record and a second copy of every step DAG. And
//! the catalog names each slug once: `generate` itself stays within a
//! pinned count and byte total.
//!
//! Counted by `mem`'s counting allocator: `cargo test -p fleet --features
//! mem/alloc-count --test population_allocs`. A build without the feature
//! has nothing to count, and the test returns. The counters are
//! process-wide, so this binary holds this one test and nothing runs
//! beside it.

use fleet::{population, FleetConfig, FleetPolicy};
use std::mem::size_of;
use tap_protocol::StepNode;

/// `(allocations, bytes)` requested from the allocator while `f` runs, and
/// its result.
fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let counts = || mem::alloc_counts().expect("counting does not stop");
    let before = counts();
    let out = f();
    let after = counts();
    ((after.0 - before.0, after.1 - before.1), out)
}

/// The most `Ecosystem::generate` may allocate at scale 0.02, per
/// multi-step share: `(share, allocations, bytes)`, each about 10 % above
/// what it measures. The gate only moves down. Before an applet record was
/// a row of ids into its service table (DESIGN.md §19) and since, share 0:
/// 40,015 -> 6,086 allocations and 2,402,263 -> 1,114,070 B; share 0.5:
/// 69,348 -> 35,419 allocations and 5,264,182 -> 3,975,989 B.
const GENERATE_BUDGET: [(f64, u64, u64); 2] = [(0.0, 6_700, 1_226_000), (0.5, 39_000, 4_374_000)];

#[test]
fn population_allocates_the_sampler_not_a_copy_of_the_catalog() {
    if mem::alloc_counts().is_none() {
        return;
    }
    for (share, max_allocs, max_bytes) in GENERATE_BUDGET {
        let cfg = FleetConfig::new(1_000, 1, FleetPolicy::IftttLike).with_multi_step_share(share);
        // Generate first: whatever is set up lazily is then paid for
        // outside the population reading.
        let (generate, eco) = counted(|| ecosystem::Ecosystem::generate(cfg.generator_config()));
        drop(eco);
        println!(
            "share {share}: generate made {} allocations of {} B",
            generate.0, generate.1
        );
        assert!(
            generate.0 <= max_allocs && generate.1 <= max_bytes,
            "share {share}: generate made {} allocations of {} B; the budget is {max_allocs} of {max_bytes} B",
            generate.0,
            generate.1
        );
        let ((_, population_bytes), (sampler, _hot)) = counted(|| population(&cfg));
        let n = sampler.applet_count() as u64;
        let arrays = n * (2 * size_of::<u64>() + size_of::<Vec<StepNode>>()) as u64;
        let percentile_copy = n * size_of::<u64>() as u64;
        let slack = 4 * 1024;
        let extra = population_bytes - generate.1;
        assert!(
            extra <= arrays + percentile_copy + slack,
            "share {share}: population allocated {extra} B beyond generate; \
             the sampler's arrays are {arrays} B and the percentile copy {percentile_copy} B"
        );
    }
}
