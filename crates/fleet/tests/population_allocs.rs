//! A fleet process holds its applet catalog once: `fleet::population`
//! consumes the generated `Ecosystem` into the sampler, so beyond what
//! `Ecosystem::generate` allocates it allocates the sampler's three arrays
//! and the hot threshold's sorted copy of the add counts — not a
//! `Snapshot` of every record and a second copy of every step DAG.
//!
//! Counted by `mem`'s counting allocator: `cargo test -p fleet --features
//! mem/alloc-count --test population_allocs`. A build without the feature
//! has nothing to count, and the test returns. The counters are
//! process-wide, so this binary holds this one test and nothing runs
//! beside it.

use fleet::{population, FleetConfig, FleetPolicy};
use std::mem::size_of;
use tap_protocol::StepNode;

/// Bytes requested from the allocator while `f` runs, and its result.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let bytes = || mem::alloc_counts().expect("counting does not stop").1;
    let before = bytes();
    let out = f();
    (bytes() - before, out)
}

#[test]
fn population_allocates_the_sampler_not_a_copy_of_the_catalog() {
    if mem::alloc_counts().is_none() {
        return;
    }
    for share in [0.0, 0.5] {
        let cfg = FleetConfig::new(1_000, 1, FleetPolicy::IftttLike).with_multi_step_share(share);
        // Generate first: whatever is set up lazily is then paid for
        // outside the population reading.
        let (generate_bytes, eco) =
            bytes_during(|| ecosystem::Ecosystem::generate(cfg.generator_config()));
        drop(eco);
        let (population_bytes, (sampler, _hot)) = bytes_during(|| population(&cfg));
        let n = sampler.applet_count() as u64;
        let arrays = n * (2 * size_of::<u64>() + size_of::<Vec<StepNode>>()) as u64;
        let percentile_copy = n * size_of::<u64>() as u64;
        let slack = 4 * 1024;
        let extra = population_bytes - generate_bytes;
        assert!(
            extra <= arrays + percentile_copy + slack,
            "share {share}: population allocated {extra} B beyond generate; \
             the sampler's arrays are {arrays} B and the percentile copy {percentile_copy} B"
        );
    }
}
