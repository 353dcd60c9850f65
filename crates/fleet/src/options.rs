//! The one options table.
//!
//! Every knob of a fleet run is one row of the `fleet_options!`
//! invocation at the bottom of this file: field, type, default, accepted
//! range, and — where the knob has them — its builder, its place in the run
//! banner, its `ifttt-lab fleet` flag and its help line. A row in the
//! `scenario` section is also a scenario-file key, spelled like the field.
//! From the rows the macro generates [`FleetConfig`] (fields, stock
//! defaults, `with_*` builders, banner), [`ScenarioSpec`] (fields,
//! [`ScenarioSpec::apply_to`], [`ScenarioSpec::or`], the range check behind
//! [`ScenarioSpec::from_json`]) and [`FleetCli`] with its
//! [`FleetCli::FLAGS`] rows, which one generic loop each turns into the flag
//! parser ([`parse_flags`]) and the usage text ([`usage_lines`]).
//! `fleet-wire` feeds its `fleet-shard` rows to the same two loops.
//!
//! A new knob is one row. It cannot be settable from a file but not the
//! command line, parsed but not listed, or checked differently by the two
//! text sources: both go through the row's range, and a flag or key no row
//! owns is an error. DESIGN.md §16.4 has the reasoning.

use crate::runner::{ChaosProfile, ChurnProfile, FleetPolicy};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::ops::{Bound, RangeBounds};

/// A value a flag can carry as text.
pub trait OptValue: Sized + PartialOrd + std::fmt::Display {
    /// How the usage text spells the argument (`N`, `off|mild|harsh`).
    const ARG: &'static str;
    /// Read the flag's text; `None` if it is not one of these.
    fn from_text(s: &str) -> Option<Self>;
    /// What the run banner prints.
    fn show(&self) -> String {
        self.to_string()
    }
}

macro_rules! numeric_opt_values {
    ($($ty:ty => $arg:literal),*) => {$(
        impl OptValue for $ty {
            const ARG: &'static str = $arg;
            fn from_text(s: &str) -> Option<Self> {
                s.replace('_', "").parse().ok()
            }
        }
    )*};
}
numeric_opt_values!(u64 => "N", usize => "N", f64 => "F");

impl OptValue for bool {
    const ARG: &'static str = "on|off";
    fn from_text(s: &str) -> Option<Self> {
        match s {
            "on" => Some(true),
            "off" => Some(false),
            _ => None,
        }
    }
    fn show(&self) -> String {
        if *self { "on" } else { "off" }.to_string()
    }
}

/// A file path, taken as typed.
impl OptValue for String {
    const ARG: &'static str = "FILE";
    fn from_text(s: &str) -> Option<Self> {
        Some(s.to_string())
    }
}

/// Read a flag's text as a `T` inside `range`.
fn text_in<T: OptValue>(s: &str, range: &impl RangeBounds<T>) -> Option<T> {
    T::from_text(s).filter(|v| range.contains(v))
}

/// Pull `v` to the nearest end of `range`: what the programmatic setters do
/// where the text sources reject.
fn clamp_into<T: PartialOrd + Copy>(v: T, range: &impl RangeBounds<T>) -> T {
    match (range.start_bound(), range.end_bound()) {
        (Bound::Included(&lo), _) if v < lo => lo,
        (_, Bound::Included(&hi)) if v > hi => hi,
        _ => v,
    }
}

/// One command-line flag of an options struct `T`.
pub struct Flag<T> {
    /// The spelling, `--like-this`.
    pub name: &'static str,
    /// The scenario-file key that sets the same field, if there is one.
    pub key: Option<&'static str>,
    /// How the usage text spells the argument.
    pub arg: &'static str,
    /// A switch takes no argument: being present supplies this text.
    pub switch: Option<&'static str>,
    /// The usage line, also quoted when the flag's text is rejected.
    pub help: &'static str,
    /// Parse, range-check and store the text; `None` rejects it.
    pub set: fn(&mut T, &str) -> Option<()>,
}

/// Parse `args` against `flags` into `into` and return the arguments that
/// are not flags. An argument starting with `--` that no row owns is an
/// error, as is text its row rejects. Rows may carry more than the
/// [`Flag`] (`fleet-shard`'s do); they only have to lend it.
pub fn parse_flags<T>(
    flags: &[impl Borrow<Flag<T>>],
    into: &mut T,
    args: impl IntoIterator<Item = String>,
) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let Some(flag) = flags.iter().map(Borrow::borrow).find(|f| f.name == a) else {
            if a.starts_with("--") {
                return Err(format!("unknown flag {a}"));
            }
            positional.push(a);
            continue;
        };
        let text = match flag.switch {
            Some(text) => Some(text.to_string()),
            None => args.next(),
        };
        text.and_then(|t| (flag.set)(into, &t))
            .ok_or_else(|| format!("{a} needs {}: {}", flag.arg, flag.help))?;
    }
    Ok(positional)
}

/// One usage line per flag: spelling, argument, help.
pub fn usage_lines<T>(flags: &[impl Borrow<Flag<T>>]) -> String {
    flags
        .iter()
        .map(Borrow::borrow)
        .map(|f: &Flag<T>| {
            let arg = if f.switch.is_some() { "" } else { f.arg };
            format!("  {:<34} {}\n", format!("{} {arg}", f.name), f.help)
        })
        .collect()
}

macro_rules! fleet_options {
    (@switch) => { None };
    (@switch $text:literal) => { Some($text) };
    // One flag row. Its text, once read as a `$ty` inside `$range`, lands in
    // `$slot`: as itself in a plain slot, as `Some` of itself in an
    // optional one (`.into()` is both).
    (@flag $name:literal $(= $switch:literal)?, $key:expr, $ty:ty, $range:expr, $help:literal,
        $c:ident.$($slot:ident).+) => {
        Flag {
            name: $name,
            key: $key,
            arg: <$ty as OptValue>::ARG,
            switch: fleet_options!(@switch $($switch)?),
            help: $help,
            set: |$c, t| {
                $c.$($slot).+ = text_in::<$ty>(t, &$range)?.into();
                Some(())
            },
        }
    };
    (
        config { $( $(#[$($m:tt)*])* $f:ident: $ty:ty = $def:expr, in $range:expr
            $(, with $with:ident)? $(, banner $banner:literal)?
            $(, flag $flag:literal $(= $switch:literal)?, $help:literal)?; )* }
        scenario { $( $(#[$($sm:tt)*])* $s:ident: $sty:ty = $sdef:expr, in $srange:expr
            $(, with $swith:ident)? $(, banner $sbanner:literal)?,
            flag $sflag:literal $(= $sswitch:literal)?, $shelp:literal; )* }
        run { $( $(#[$($rm:tt)*])* $r:ident: $rty:ty, in $rrange:expr,
            flag $rflag:literal, $rhelp:literal; )* }
    ) => {
        /// Everything a fleet run needs; [`FleetConfig::new`] picks defaults that
        /// scale from smoke tests to the million-user run.
        ///
        /// Serializable because the distributed coordinator pushes the resolved
        /// configuration to `fleet-shard` worker processes over the wire; the
        /// JSON form must round-trip exactly (every field is an integer, a flag,
        /// a policy name, or an f64 whose shortest decimal form re-parses to the
        /// same bits) so a worker reconstructs cell-for-cell the run the
        /// coordinator planned.
        #[derive(Debug, Clone, Serialize, Deserialize)]
        pub struct FleetConfig {
            $( $(#[$($m)*])* pub $f: $ty, )*
            $( $(#[$($sm)*])* pub $s: $sty, )*
        }

        impl FleetConfig {
            /// Every row's default.
            pub(crate) fn stock() -> FleetConfig {
                FleetConfig { $( $f: $def, )* $( $s: $sdef, )* }
            }

            $($(
                #[doc = concat!("Set `", stringify!($f), "` (pulled into the row's range).")]
                pub fn $with(mut self, v: $ty) -> Self {
                    self.$f = clamp_into(v, &$range);
                    self
                }
            )?)*
            $($(
                #[doc = concat!("Set `", stringify!($s), "` (pulled into the row's range).")]
                pub fn $swith(mut self, v: $sty) -> Self {
                    self.$s = clamp_into(v, &$srange);
                    self
                }
            )?)*

            /// This configuration, unless a field lies outside its row's
            /// range: then the field's name. The builders and the text
            /// sources cannot produce one; a public field written directly
            /// or a pushed [`FleetConfig`] (`fleet-wire`) can.
            pub fn in_range(self) -> Result<FleetConfig, &'static str> {
                $( if !RangeBounds::<$ty>::contains(&$range, &self.$f) {
                    return Err(stringify!($f));
                } )*
                $( if !RangeBounds::<$sty>::contains(&$srange, &self.$s) {
                    return Err(stringify!($s));
                } )*
                Ok(self)
            }

            /// The line `ifttt-lab fleet` prints before it runs. The
            /// parenthesised knobs are the rows with a banner label, in row order.
            pub fn banner(&self) -> String {
                let knobs = [
                    $($( format!("{} {}", $banner, self.$f.show()), )?)*
                    $($( format!("{} {}", $sbanner, self.$s.show()), )?)*
                ];
                let (users, shards, policy, seed) =
                    (self.users, self.shards, self.policy, self.master_seed);
                format!(
                    "fleet: {users} users, {shards} shards, policy {policy}, seed {seed} ({})",
                    knobs.join(", ")
                )
            }
        }

        /// A partial fleet configuration: only the fields that are set are
        /// applied. See [`crate::scenario`] for the file format and precedence.
        /// A member no row owns is an error, not a default.
        #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
        #[serde(deny_unknown_fields)]
        pub struct ScenarioSpec {
            $( $(#[$($sm)*])* pub $s: Option<$sty>, )*
        }

        impl ScenarioSpec {
            /// Overwrite `cfg` with every field this spec sets, then settle the
            /// drain horizon (`scenario::settle_drain`). Values are pulled into
            /// range like the builders'; text never gets this far out of range.
            pub fn apply_to(&self, cfg: &mut FleetConfig) {
                $( if let Some(v) = self.$s {
                    cfg.$s = clamp_into(v, &$srange);
                } )*
                crate::scenario::settle_drain(self, cfg);
            }

            /// This spec, with `fallback`'s value wherever this one sets none.
            pub fn or(self, fallback: ScenarioSpec) -> ScenarioSpec {
                ScenarioSpec { $( $s: self.$s.or(fallback.$s), )* }
            }

            /// This spec, unless a value lies outside its row's range: then
            /// the complaint a flag carrying that value gets, naming the key.
            pub(crate) fn in_range(self) -> Result<ScenarioSpec, String> {
                $( if self.$s.is_some_and(|v| !RangeBounds::<$sty>::contains(&$srange, &v)) {
                    let arg = <$sty as OptValue>::ARG;
                    return Err(format!("`{}` needs {arg}: {}", stringify!($s), $shelp));
                } )*
                Ok(self)
            }
        }

        /// What the `ifttt-lab` command line parses into: the stock
        /// configuration with the `config` rows' flags written in, the
        /// `scenario` rows that were typed, and the `run` rows, which steer
        /// the run without being part of its configuration.
        #[derive(Debug, Clone)]
        pub struct FleetCli {
            /// Stock defaults plus the typed `config` flags.
            pub cfg: FleetConfig,
            /// The `scenario` rows typed as flags; unset where none was.
            pub spec: ScenarioSpec,
            $( $(#[$($rm)*])* pub $r: Option<$rty>, )*
        }

        impl FleetCli {
            /// Every `ifttt-lab fleet` flag, in usage order.
            pub const FLAGS: &'static [Flag<FleetCli>] = &[
                $($( fleet_options!(@flag $flag $(= $switch)?, None, $ty, $range, $help,
                    c.cfg.$f), )?)*
                $( fleet_options!(@flag $sflag $(= $sswitch)?, Some(stringify!($s)), $sty, $srange,
                    $shelp, c.spec.$s), )*
                $( fleet_options!(@flag $rflag, None, $rty, $rrange, $rhelp, c.$r), )*
            ];

            /// Parse a command line; returns what is left once the flags are out.
            pub fn parse(
                args: impl IntoIterator<Item = String>,
            ) -> Result<(FleetCli, Vec<String>), String> {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                let mut cli = FleetCli {
                    cfg: FleetConfig { shards: cores, ..FleetConfig::stock() },
                    spec: ScenarioSpec::default(),
                    $( $r: None, )*
                };
                let positional = parse_flags(FleetCli::FLAGS, &mut cli, args)?;
                Ok((cli, positional))
            }
        }
    };
}

fleet_options! {
    config {
        /// Master seed; cells derive theirs as `(master, CELL_STREAM_BASE+i)`.
        master_seed: u64 = 2017, in .., with with_seed,
            flag "--seed", "master seed (every subcommand takes it)";
        /// Total synthetic user channels.
        users: u64 = 100_000, in ..,
            flag "--users", "synthetic user channels (1_000_000 reads as 1000000)";
        /// Worker threads; outcome-invariant (only wall-clock changes).
        shards: usize = 1, in 1..,
            flag "--shards", "worker threads (default: one per core); the digest does not depend on it";
        /// Generator scale of the applet catalog users install from: the
        /// generator's floor up to 1.0, the paper's ~320K-applet catalog.
        eco_scale: f64 = 0.02, in 0.02..=1.0, with with_eco_scale;
        /// Users per cell — the unit of work and the per-shard memory bound.
        /// At least one: the cell plan divides by it.
        cell_users: u64 = 50, in 1.., with with_cell_users, banner "cells of";
        /// Seconds before activations start (initial polls establish
        /// subscriptions during this time).
        settle_secs: f64 = 10.0, in .., with with_settle_secs;
        /// Width of the randomized activation window (seconds). Positive:
        /// every activation instant is drawn from inside it.
        window_secs: f64 = 240.0, in f64::MIN_POSITIVE.., with with_window_secs;
        /// Seconds after the window closes before a cell stops; events still
        /// undelivered then count as lost.
        drain_secs: f64 = FleetPolicy::IftttLike.default_drain_secs(), in ..,
            with with_drain_secs;
        /// Smart policy's hot threshold; `None` derives the p90 add-count knee.
        hot_threshold: Option<u64> = None, in ..;
        /// Coalesce per-(user, service) sibling subscriptions into batch poll
        /// requests (on by default — the fleet is exactly the workload the
        /// fan-in was built for; `--no-batch` turns it off for comparison).
        batch_polling: bool = true, in .., with with_batch_polling, banner "batch polling",
            flag "--no-batch" = "off", "poll every subscription on its own";
        /// Differential-testing hook, not a user-facing knob: every cell
        /// engine swaps its slab-backed in-flight stores (runs, pending
        /// batches) for the `HashMap` reference implementation. Storage
        /// strategy must be unobservable, so the run must be byte-identical
        /// to the slab one — which is exactly what the differential tests
        /// assert. A field because integration tests cannot see `cfg(test)`
        /// items and workers must receive it in the ConfigPush.
        #[doc(hidden)]
        reference_storage: bool = false, in .., with with_reference_storage;
    }
    scenario {
        /// Poll policy for every cell engine.
        policy: FleetPolicy = FleetPolicy::IftttLike, in ..,
            flag "--policy", "engine poll policy; sets the drain horizon";
        /// Fault-injection profile (`Off` by default; `--chaos` turns it on).
        chaos: ChaosProfile = ChaosProfile::Off, in .., with with_chaos, banner "chaos",
            flag "--chaos", "fault-injection profile; drains at least 120 s when on";
        /// Ecosystem-churn profile (`Off` by default; `--churn` turns it on).
        /// Deserialize-default so pre-churn config JSON still parses.
        #[serde(default)]
        churn: ChurnProfile = ChurnProfile::Off, in .., with with_churn, banner "churn",
            flag "--churn", "mid-run installs, uninstalls, service onboarding and retirement";
        /// Record per-stage T2A latency attribution (off by default — the
        /// counting-only sink keeps golden digests byte-identical;
        /// `--attribution` turns it on).
        attribution: bool = false, in .., with with_attribution,
            flag "--attribution" = "on", "record per-stage T2A latency attribution";
        /// Fraction of cells whose partner service is realtime-capable
        /// (§6's adoption sweep). Each capable cell's service pushes a
        /// notification on new trigger data and its engine allow-lists the
        /// service for immediate polls. `0.0` (the default) leaves the
        /// realtime path entirely cold, preserving pinned digests.
        realtime_share: f64 = 0.0, in 0.0..=1.0, with with_realtime_share, banner "realtime share",
            flag "--realtime-share", "share of cells with a realtime-capable service, 0 to 1";
        /// Fraction of catalog applets carrying a multi-step execution DAG
        /// (forwarded to the ecosystem generator). `0.0` (the default) keeps
        /// the catalog — and every pinned digest — byte-identical.
        multi_step_share: f64 = 0.0, in 0.0..=1.0, with with_multi_step_share, banner "multi-step share",
            flag "--multi-step-share", "share of catalog applets that are multi-step DAGs, 0 to 1";
    }
    run {
        /// Scenario file to merge under the typed flags.
        scenario: String, in ..,
            flag "--scenario", "JSON file of scenario keys; a typed flag beats the file";
        /// Worker processes to run across instead of in-process threads.
        distributed: usize, in 1..,
            flag "--distributed", "run across N fleet-shard worker processes (same digest)";
        /// Allocation budget the run must stay under.
        max_allocs_per_event: f64, in f64::MIN_POSITIVE..,
            flag "--max-allocs-per-event", "fail above this positive allocs/event budget (needs --features alloc-count)";
    }
}

impl FleetCli {
    /// The configuration to run: stock defaults and `config` flags, then the
    /// scenario file's keys under the typed `scenario` flags, applied once so
    /// the drain horizon sees the final policy and chaos profile.
    pub fn resolve(&self) -> Result<FleetConfig, String> {
        let mut file = ScenarioSpec::default();
        if let Some(path) = &self.scenario {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            file = ScenarioSpec::from_json(&text)
                .map_err(|e| format!("{path} does not parse: {e}"))?;
        }
        let mut cfg = self.cfg.clone();
        self.spec.clone().or(file).apply_to(&mut cfg);
        Ok(cfg)
    }
}
