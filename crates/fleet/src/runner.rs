//! In-process execution of a sharded fleet run: a thread only where cells
//! run in parallel.
//!
//! [`run_fleet`] plans the population into cells and deals them across
//! shards round-robin. The shard loop is written once (`run_shard`):
//! **shard 0 runs on the calling thread**, shards 1.. each on a
//! [`std::thread::scope`] thread, so a `--shards N` run is N threads and a
//! one-shard run never creates a thread or sends on a channel. Each shard
//! owns a private [`FleetMetrics`] accumulator and simulates its cells
//! **one at a time**, so per-shard memory is bounded by a single cell's
//! simulation (≤ [`FleetConfig::cell_users`] users) regardless of the
//! total population. Shard 0 hands its progress beats straight to the
//! caller's callback; the other shards post theirs to a `Mailbox` that
//! the calling thread empties between its own cells and after its last
//! one, so the callback only ever runs on the calling thread.
//! When the shards finish, their accumulators merge — in shard order,
//! though order cannot matter — into one [`FleetReport`].

use crate::cell::run_cell;
use crate::metrics::FleetMetrics;
pub use crate::options::FleetConfig;
use crate::options::{OptValue, ScenarioSpec};
use crate::report::{FleetReport, ShardSummary};
use crate::shard::{assign_round_robin, plan_cells, CellSpec};
use ecosystem::{Ecosystem, GeneratorConfig, PopulationSampler};
use engine::{EngineConfig, EnginePolicy, PollPolicy};
use serde::{de, Deserialize, Serialize};
use simnet::rng::derive_seed;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Seed stream for the generated ecosystem catalog.
const ECO_STREAM: u64 = 0xec0_0001;
/// Seed stream for the population sampler.
const POP_STREAM: u64 = 0xb0b_0001;

/// An enum whose variants each have one CLI / wire name. The
/// `Variant => "name"` pairs are the only place a name is spelled; `name`,
/// `Display`, `Serialize`, `Deserialize` and the flag-text [`OptValue`]
/// (`from_text` reads a name; the usage spelling is the names joined by
/// `|`) are generated from them. `PartialOrd` is declaration order; it is there
/// because an options row's range bounds its type, and for these it is `..`.
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident, $what:literal {
            $( $(#[$vmeta:meta])* $variant:ident => $name:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd)]
        pub enum $ty {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $ty {
            /// The CLI name.
            pub fn name(self) -> &'static str {
                match self {
                    $( $ty::$variant => $name, )*
                }
            }
        }

        impl OptValue for $ty {
            const ARG: &'static str = concat!($( "|", $name ),*).split_at(1).1;
            fn from_text(s: &str) -> Option<$ty> {
                match s {
                    $( $name => Some($ty::$variant), )*
                    _ => None,
                }
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }

        impl Serialize for $ty {
            fn write_json(&self, out: &mut String) {
                self.name().write_json(out);
            }
        }

        impl Deserialize for $ty {
            fn read_json(r: &mut de::Reader<'_>) -> Result<Self, de::Error> {
                let name = r.str()?;
                $ty::from_text(&name)
                    .ok_or_else(|| de::Error::custom(format!("unknown {} `{name}`", $what)))
            }
        }
    };
}

named_enum! {
    /// Which poll policy the fleet's engines run.
    pub enum FleetPolicy, "fleet policy" {
        /// Production-like jittered minutes-scale polling (§4's measured IFTTT).
        IftttLike => "ifttt",
        /// The authors' 1-second-polling engine (E3).
        Fast => "fast",
        /// §6 popularity-weighted polling; the hot threshold is the p90 knee
        /// of the catalog's add counts.
        Smart => "smart",
        /// Zapier-style engine: popularity-weighted cadence (5 min hot / 15 min
        /// cold, matching Zapier's published plan tiers) and *halt-on-failure*
        /// multi-step semantics ([`engine::EnginePolicy::ZapierLike`]).
        Zapier => "zapier",
    }
}

impl FleetPolicy {
    /// The policy-aware drain default: production-like polling needs to
    /// survive a full backlog gap (up to 900 s), the 1-second poller needs
    /// almost none. Every path that sets a policy after construction goes
    /// through [`ScenarioSpec::apply_to`], which re-derives the drain
    /// through this (`scenario::settle_drain`) — otherwise a
    /// scenario-set policy would run with the constructor policy's horizon.
    pub fn default_drain_secs(self) -> f64 {
        match self {
            FleetPolicy::Fast => 30.0,
            FleetPolicy::IftttLike | FleetPolicy::Smart | FleetPolicy::Zapier => 1000.0,
        }
    }
}

named_enum! {
    /// Deterministic fault-injection profile for a fleet run.
    ///
    /// A profile is pure data: every cell derives the same fault windows from
    /// its own virtual clock, so a chaos run is as reproducible (and as
    /// shard-count-invariant) as a clean one. `Off` schedules nothing and
    /// leaves the engine's resilience machinery disabled — the run is
    /// byte-identical to one built before chaos existed.
    #[derive(Default)]
    pub enum ChaosProfile, "chaos profile" {
        /// No faults, no retries: the historical clean run.
        #[default]
        Off => "off",
        /// 0.5 % packet loss plus a 10 s `503 Retry-After` outage of the
        /// partner service every 120 s.
        Mild => "mild",
        /// 2 % packet loss plus a 20 s outage every 90 s that alternates 503s
        /// with silent timeouts, and an occasional malformed poll body.
        Harsh => "harsh",
    }
}

impl ChaosProfile {
    /// Whether any fault injection is active.
    pub fn enabled(self) -> bool {
        self != ChaosProfile::Off
    }

    /// Packet-loss probability injected on every cell's engine↔service link.
    pub(crate) fn link_loss(self) -> f64 {
        match self {
            ChaosProfile::Off => 0.0,
            ChaosProfile::Mild => 0.005,
            ChaosProfile::Harsh => 0.02,
        }
    }
}

named_enum! {
    /// Deterministic ecosystem-churn profile for a fleet run (§3.2's moving
    /// world): mid-run applet installs/uninstalls, a late service onboarding,
    /// and a terminal service retirement, all driven through the engine's
    /// [`engine::LifecycleEvent`] surface.
    ///
    /// Like [`ChaosProfile`], a churn profile is pure data: every cell derives
    /// its own churn plan from a dedicated seed stream, so the run digest is
    /// shard-count-invariant and identical in-process vs distributed. `Off`
    /// draws nothing from the stream and allocates nothing — the run is
    /// byte-identical to one built before churn existed.
    #[derive(Default)]
    pub enum ChurnProfile, "churn profile" {
        /// Static population: the historical frozen-at-t=0 run.
        #[default]
        Off => "off",
        /// Paper-calibrated weekly rates (§3.2: ~+3.7 %/week installs,
        /// ~2.5 %/week uninstalls) compressed onto the activation window.
        Weekly => "weekly",
        /// The weekly rates scaled 10×, for stress runs and smoke tests that
        /// must see every lifecycle transition inside a short window.
        Accelerated => "accelerated",
    }
}

impl ChurnProfile {
    /// Whether any churn is active.
    pub fn enabled(self) -> bool {
        self != ChurnProfile::Off
    }

    /// Rate multiplier applied to the paper's weekly churn rates.
    pub fn multiplier(self) -> f64 {
        match self {
            ChurnProfile::Off => 0.0,
            ChurnProfile::Weekly => 1.0,
            ChurnProfile::Accelerated => 10.0,
        }
    }
}

impl FleetConfig {
    /// The stock configuration ([`crate::options`]' defaults) for a run of
    /// `users` across `shards` workers. The drain is policy-aware:
    /// production-like polling needs to survive a full backlog gap (up to
    /// 900 s), the 1-second poller needs almost none.
    pub fn new(users: u64, shards: usize, policy: FleetPolicy) -> FleetConfig {
        FleetConfig {
            users,
            shards: shards.max(1),
            policy,
            drain_secs: policy.default_drain_secs(),
            ..FleetConfig::stock()
        }
    }

    /// Set the settle / activation-window / drain phases (seconds), each
    /// pulled into its row's range like any other builder's value.
    pub fn with_phases(self, settle: f64, window: f64, drain: f64) -> Self {
        self.with_settle_secs(settle)
            .with_window_secs(window)
            .with_drain_secs(drain)
    }

    /// Apply a [`ScenarioSpec`]: every field the spec sets overwrites this
    /// config.
    pub fn with_scenario(mut self, spec: ScenarioSpec) -> Self {
        spec.apply_to(&mut self);
        self
    }

    /// The generator configuration of the run's applet catalog: pure in
    /// `(master_seed, eco_scale, multi_step_share)`.
    pub fn generator_config(&self) -> GeneratorConfig {
        GeneratorConfig {
            seed: derive_seed(self.master_seed, ECO_STREAM),
            scale: self.eco_scale,
            multi_step_share: self.multi_step_share,
        }
    }

    /// The engine configuration every cell runs.
    pub(crate) fn engine_config(&self) -> EngineConfig {
        let mut cfg = match self.policy {
            FleetPolicy::IftttLike => EngineConfig::default(),
            FleetPolicy::Fast => EngineConfig::fast(),
            FleetPolicy::Smart => EngineConfig {
                polling: PollPolicy::smart(self.hot_threshold.unwrap_or(1)),
                ..EngineConfig::default()
            },
            // Zapier's plan tiers poll every 5–15 minutes; popular Zaps get
            // the fast tier. Step semantics switch to halt-on-failure.
            FleetPolicy::Zapier => EngineConfig {
                polling: PollPolicy::Smart {
                    hot_threshold: self.hot_threshold.unwrap_or(1),
                    fast_seconds: 300.0,
                    slow_seconds: 900.0,
                },
                ..EngineConfig::default()
            }
            .with_policy(EnginePolicy::ZapierLike),
        };
        cfg.batch_polling = self.batch_polling;
        if self.chaos.enabled() {
            cfg = cfg.resilient();
        }
        cfg
    }
}

/// A progress beat from a shard worker.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    pub shard: usize,
    pub cells_done: usize,
    pub cells_total: usize,
    pub users_done: u64,
}

/// The spawned shards' progress beats, waiting for the calling thread to
/// hand them on. It is reserved for every beat they will post and the
/// calling thread waits on a condition variable, so handing beats over
/// allocates nothing, whichever shard ends first: a run's allocation
/// count must not depend on thread timing (a channel's receiver allocates
/// a waiter only when it blocks).
struct Mailbox {
    /// The beats not yet handed on, and how many spawned shards still run.
    inbox: Mutex<(Vec<Progress>, usize)>,
    posted: Condvar,
}

impl Mailbox {
    fn new(beats: usize, shards: usize) -> Mailbox {
        Mailbox {
            inbox: Mutex::new((Vec::with_capacity(beats), shards)),
            posted: Condvar::new(),
        }
    }

    /// The inbox, also after a shard panicked while holding it: a push or
    /// a decrement leaves it valid at every step, and the calling thread
    /// must still learn that the shard left.
    fn lock(&self) -> MutexGuard<'_, (Vec<Progress>, usize)> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn post(&self, beat: Progress) {
        self.lock().0.push(beat);
        self.posted.notify_one();
    }

    /// Hands every waiting beat to `on_progress`, first waiting for one
    /// (or for the last shard to leave) if `wait`. True while a spawned
    /// shard still runs.
    fn deliver(&self, wait: bool, on_progress: &mut impl FnMut(&Progress)) -> bool {
        let mut inbox = self.lock();
        while wait && inbox.0.is_empty() && inbox.1 > 0 {
            inbox = self
                .posted
                .wait(inbox)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inbox.0.drain(..).for_each(|beat| on_progress(&beat));
        inbox.1 > 0
    }
}

/// A spawned shard's hold on the [`Mailbox`]: dropped when the shard ends,
/// by return or by panic, so the calling thread stops waiting for it.
struct Poster<'a>(&'a Mailbox);

impl Drop for Poster<'_> {
    fn drop(&mut self) {
        self.0.lock().1 -= 1;
        self.0.posted.notify_one();
    }
}

/// Run the fleet, discarding progress beats.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    run_fleet_with_progress(cfg, |_| {})
}

/// Build the population sampler a fleet run draws user profiles from, and
/// resolve the smart policy's hot threshold against it (honoring an
/// explicit `cfg.hot_threshold`).
///
/// Pure in `(master_seed, eco_scale, multi_step_share)`: the in-process
/// runner calls it once and shares the sampler across shard threads, and
/// every `fleet-shard` worker process calls it again and gets the
/// identical catalog — which is why a config (with the threshold already
/// resolved by the coordinator) is all that has to cross the wire. The
/// generated catalog is consumed into the sampler, so a process holds it
/// once: no `Snapshot` is built and no step DAG is cloned.
pub fn population(cfg: &FleetConfig) -> (PopulationSampler, u64) {
    let eco = Ecosystem::generate(cfg.generator_config());
    let sampler = PopulationSampler::from_ecosystem(eco, derive_seed(cfg.master_seed, POP_STREAM));
    let hot_threshold = cfg
        .hot_threshold
        .unwrap_or_else(|| sampler.add_count_percentile(90.0));
    (sampler, hot_threshold)
}

/// One shard's whole life, on whichever thread it was given: its cells in
/// order into a private accumulator, one `beat` per finished cell.
fn run_shard(
    shard: usize,
    cells: &[CellSpec],
    sampler: &PopulationSampler,
    cfg: &FleetConfig,
    mut beat: impl FnMut(Progress),
) -> (Arc<FleetMetrics>, ShardSummary) {
    let started = Instant::now();
    let metrics = Arc::new(FleetMetrics::default());
    let mut users = 0u64;
    for (done, cell) in cells.iter().enumerate() {
        run_cell(cell, sampler, cfg, &metrics);
        users += cell.users;
        beat(Progress {
            shard,
            cells_done: done + 1,
            cells_total: cells.len(),
            users_done: users,
        });
    }
    let summary = ShardSummary {
        shard,
        cells: cells.len(),
        users,
        sim_events: metrics.sim_events.get(),
        wall_secs: started.elapsed().as_secs_f64(),
    };
    (metrics, summary)
}

/// Run the fleet; `on_progress` is invoked on the calling thread for every
/// cell any shard completes.
pub fn run_fleet_with_progress(
    cfg: &FleetConfig,
    mut on_progress: impl FnMut(&Progress),
) -> FleetReport {
    let started = Instant::now();
    let alloc_start = mem::alloc_counts();

    // One catalog + sampler serves every shard read-only.
    let (sampler, hot_threshold) = population(cfg);
    let cfg = FleetConfig {
        hot_threshold: Some(hot_threshold),
        ..cfg.clone()
    };

    let cells = plan_cells(cfg.users, cfg.cell_users);
    let assignments = assign_round_robin(&cells, cfg.shards);
    let (mine, theirs) = assignments.split_first().expect("at least one shard");

    let beats = theirs.iter().map(Vec::len).sum();
    let mailbox = Mailbox::new(beats, theirs.len());
    let outcomes = std::thread::scope(|scope| {
        let (sampler, cfg, mailbox) = (&sampler, &cfg, &mailbox);
        let spawned: Vec<_> = (1..)
            .zip(theirs)
            .map(|(shard, cells)| {
                scope.spawn(move || {
                    let poster = Poster(mailbox);
                    run_shard(shard, cells, sampler, cfg, |beat| poster.0.post(beat))
                })
            })
            .collect();
        let mut outcomes = vec![run_shard(0, mine, sampler, cfg, |beat| {
            on_progress(&beat);
            mailbox.deliver(false, &mut on_progress);
        })];
        while mailbox.deliver(true, &mut on_progress) {}
        outcomes.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("shard panicked")),
        );
        outcomes
    });

    // Merge; instruments are exactly mergeable, so shard order is moot.
    let merged = FleetMetrics::default();
    let mut per_shard = Vec::with_capacity(cfg.shards);
    for (metrics, summary) in outcomes {
        merged.merge_from(&metrics);
        per_shard.push(summary);
    }

    // Allocation accounting (only when mem's `alloc-count` feature is on):
    // diff process-wide counters around the whole run. The snapshots are
    // taken on this thread, but the counters are global, so shard-worker
    // allocations are included.
    let (allocs, alloc_bytes) = match (alloc_start, mem::alloc_counts()) {
        (Some((a0, b0)), Some((a1, b1))) => (a1 - a0, b1 - b0),
        _ => (0, 0),
    };

    FleetReport {
        users: cfg.users,
        shards: cfg.shards,
        policy: cfg.policy.name().to_string(),
        master_seed: cfg.master_seed,
        hot_threshold,
        merged,
        per_shard,
        wall_secs: started.elapsed().as_secs_f64(),
        allocs,
        alloc_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(users: u64, shards: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(users, shards, FleetPolicy::Fast);
        cfg.cell_users = 25;
        cfg.window_secs = 40.0;
        cfg.drain_secs = 20.0;
        cfg
    }

    #[test]
    fn a_shard_that_panics_still_leaves_the_mailbox() {
        let mailbox = Mailbox::new(2, 1);
        let mut delivered = Vec::new();
        std::thread::scope(|scope| {
            let shard = scope.spawn(|| {
                let poster = Poster(&mailbox);
                let (cells_done, cells_total, users_done) = (1, 2, 25);
                poster.0.post(Progress {
                    shard: 1,
                    cells_done,
                    cells_total,
                    users_done,
                });
                panic!("the shard fails after its first cell");
            });
            while mailbox.deliver(true, &mut |beat: &Progress| delivered.push(beat.cells_done)) {}
            assert!(shard.join().is_err());
        });
        assert_eq!(delivered, [1]);
    }

    #[test]
    fn progress_beats_cover_every_cell() {
        // 6 cells of 25: whether a shard ran on the calling thread (shard 0)
        // or a spawned one, every cell is reported exactly once and in order.
        for shards in [1usize, 2, 3] {
            let mut beats = Vec::new();
            let report = run_fleet_with_progress(&smoke_cfg(150, shards), |p| beats.push(*p));
            assert_eq!(beats.len(), 6, "{shards} shards");
            assert_eq!(report.merged.cells.get(), 6);
            assert_eq!(report.merged.users.get(), 150);
            for shard in 0..shards {
                let mine: Vec<&Progress> = beats.iter().filter(|p| p.shard == shard).collect();
                let done: Vec<usize> = mine.iter().map(|p| p.cells_done).collect();
                assert_eq!(done, (1..=6 / shards).collect::<Vec<_>>(), "shard {shard}");
                // The final beat of each shard accounts for all of its users.
                let last = mine.last().unwrap();
                assert_eq!(last.cells_done, last.cells_total);
                assert_eq!(last.users_done, 150 / shards as u64);
            }
        }
    }

    #[test]
    fn report_totals_are_consistent() {
        let report = run_fleet(&smoke_cfg(75, 3)); // 3 cells of 25
        assert_eq!(report.users, 75);
        assert_eq!(
            report.merged.t2a_micros.count() + report.merged.lost.get(),
            report.merged.activations.get()
        );
        let shard_users: u64 = report.per_shard.iter().map(|s| s.users).sum();
        assert_eq!(shard_users, 75);
        let shard_events: u64 = report.per_shard.iter().map(|s| s.sim_events).sum();
        assert_eq!(shard_events, report.merged.sim_events.get());
        assert!(report.wall_secs > 0.0);
    }

    #[test]
    fn fleet_config_round_trips_exactly_through_json() {
        // The distributed path serializes the resolved config for worker
        // processes; any lossy field would silently fork the simulation.
        let mut cfg = FleetConfig::new(123_456, 7, FleetPolicy::Zapier)
            .with_seed(0xdead_beef)
            .with_cell_users(37)
            .with_phases(10.5, 242.25, 999.125)
            .with_batch_polling(false)
            .with_chaos(ChaosProfile::Harsh)
            .with_churn(ChurnProfile::Accelerated)
            .with_scenario(ScenarioSpec {
                realtime_share: Some(0.25),
                ..Default::default()
            })
            .with_attribution(true)
            .with_realtime_share(0.3)
            .with_multi_step_share(0.07)
            .with_reference_storage(true);
        cfg.hot_threshold = Some(42);
        cfg.eco_scale = 0.02;
        let json = serde_json::to_string(&cfg).expect("config serializes");
        let back: FleetConfig = serde_json::from_str(&json).expect("config parses");
        // Exact equality, f64 bits included.
        assert_eq!(format!("{cfg:?}"), format!("{back:?}"));
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            FleetPolicy::IftttLike,
            FleetPolicy::Fast,
            FleetPolicy::Smart,
            FleetPolicy::Zapier,
        ] {
            assert_eq!(FleetPolicy::from_text(p.name()), Some(p));
        }
        assert_eq!(FleetPolicy::from_text("bogus"), None);
    }

    #[test]
    fn churn_profile_names_round_trip() {
        for c in [
            ChurnProfile::Off,
            ChurnProfile::Weekly,
            ChurnProfile::Accelerated,
        ] {
            assert_eq!(ChurnProfile::from_text(c.name()), Some(c));
        }
        assert_eq!(ChurnProfile::from_text("bogus"), None);
        assert!(!ChurnProfile::Off.enabled());
        assert!(ChurnProfile::Weekly.enabled());
        assert_eq!(ChurnProfile::Accelerated.multiplier(), 10.0);
    }

    #[test]
    fn pre_churn_config_json_still_parses() {
        // Wire compatibility: a coordinator config serialized before the
        // churn field existed must deserialize with the default.
        let cfg = FleetConfig::new(100, 2, FleetPolicy::Fast);
        let mut v = cfg.to_value();
        if let serde::Value::Object(map) = &mut v {
            map.remove("churn");
        } else {
            panic!("config serializes to an object");
        }
        let back: FleetConfig = serde_json::from_str(&v.to_string()).expect("legacy config parses");
        assert_eq!(back.churn, ChurnProfile::Off);
    }
}
