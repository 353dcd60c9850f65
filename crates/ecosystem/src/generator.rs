//! The calibrated ecosystem generator.
//!
//! Substitutes for the live 2017 crawl (see DESIGN.md): generates a
//! synthetic IFTTT ecosystem whose *measurable aggregates* match every
//! number the paper publishes — Table 1's category marginals, Table 2's
//! scale, Table 3's top-IoT anchors, Figure 2's interaction structure,
//! Figure 3's heavy tail, and §3.2's growth and user-contribution stats —
//! so the analysis pipeline can re-derive the paper's findings from data
//! rather than echo constants.
//!
//! Construction outline: [`Ecosystem::generate`] runs one function per
//! step, in this order.
//!
//! 1. **Services** (`services_with_weeks`): category counts by
//!    largest-remainder apportionment of Table 1's percentages; 12 real IoT
//!    anchor services (Table 3) plus a pool of well-known non-IoT services,
//!    then synthetic names and post-canonical newcomers, with creation
//!    weeks following the services growth rate.
//! 2. **Trigger and action slots** (`deal_slots`): anchors get their real
//!    slots, every service at least one of each, and the rest go to early
//!    services by weight, up to the triggers and actions growth curves.
//! 3. **Anchor applets** (`anchor_applets`): a hand-authored pairing table
//!    that realizes Table 3's per-service add counts exactly.
//! 4. **Synthetic applets** (`synthetic_applets`): a three-segment
//!    heavy-tail add-count sequence (head/mid/tail) hitting Figure 3's
//!    top-1% = 84.1% and top-10% = 97.6% shares, each applet placed in the
//!    category cell with the most budget left. The budget is a 14×14
//!    trigger×action matrix seeded with Figure 2's qualitative hotspots and
//!    fit by iterative proportional fitting to Table 1's marginals net of
//!    the anchors. Small post-canonical newcomers follow.
//! 5. **Authors** (`assign_authors`): a service-made band (2% of applets,
//!    14% of adds) and a heavy-tailed user quota sequence (top 1% → 18%,
//!    top 10% → 49%).
//! 6. **Creation weeks and ids** (`creation_weeks_and_ids`): canonical
//!    applets are born along the add-count growth curve, roughly in
//!    add-count order and never before their services; unique
//!    six-digit-style page ids.
//! 7. **Multi-step DAGs** (`multi_step_dags`, opt-in): Zapier-style
//!    execution DAGs for a share of the applets, on a derived RNG stream.
//!
//! Steps 1–6 draw from one RNG stream seeded by the config. Weekly views
//! scale add counts back geometrically along the growth curve.

use crate::model::{self, GROWTH, SCALE, TAILS};
use crate::names;
use crate::snapshot::{
    AppletRecord, Applets, Author, ServiceRecord, ServiceTable, Slot, SlugIndex, Snapshot,
    WeekCounts,
};
use crate::taxonomy::{Category, ALL_CATEGORIES, TABLE1};
use mem::FxHashSet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simnet::rng::derive_seed;
use std::iter;
use tap_protocol::{FieldMap, StepNode, StepPredicate, StepSpec};

/// Derived-seed stream for the multi-step shape post-pass, so enabling
/// `multi_step_share` perturbs no draw of the base ecosystem RNG.
const MULTI_STEP_STREAM: u64 = 0x57e9_0001;

/// The last crawl week (inclusive).
const FINAL_WEEK: u32 = (GROWTH.snapshots - 1) as u32;

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Master seed; same seed → identical ecosystem.
    pub seed: u64,
    /// Linear scale on applets, adds, and users (1.0 = paper scale;
    /// analyses are scale-invariant). Service counts stay at 408 so that
    /// Table 1 remains meaningful. Must be ≥ 0.02.
    pub scale: f64,
    /// Fraction of applets given a Zapier-style multi-step execution DAG
    /// (0.0 = the paper's pure trigger→action model). Shapes are drawn in
    /// a post-pass on a derived RNG stream, so 0.0 is byte-identical to
    /// the pre-multi-step generator.
    #[serde(default)]
    pub multi_step_share: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 2017,
            scale: 1.0,
            multi_step_share: 0.0,
        }
    }
}

impl GeneratorConfig {
    /// A reduced-scale config for fast tests (~6.4K applets).
    pub fn test_scale(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            scale: 0.02,
            multi_step_share: 0.0,
        }
    }
}

/// The generated ecosystem: the full final-week population plus the growth
/// model; weekly [`Snapshot`]s are views of it. Its applets index into its
/// `services`.
#[derive(Debug, Clone)]
pub struct Ecosystem {
    pub config: GeneratorConfig,
    /// All services ever created (including post-canonical ones).
    pub services: Vec<ServiceRecord>,
    /// All applets; `add_count` is the canonical-week (3/25/2017) value.
    pub applets: Vec<AppletRecord>,
    /// Final crawl week (inclusive).
    pub final_week: u32,
}

impl Serialize for Ecosystem {
    fn write_json(&self, out: &mut String) {
        let mut fields: [(&str, &dyn Serialize); 4] = [
            ("applets", &Applets(&self.services, &self.applets)),
            ("config", &self.config),
            ("final_week", &self.final_week),
            ("services", &self.services),
        ];
        serde::ser::write_fields(out, &mut fields);
    }
}

impl ServiceTable for Ecosystem {
    fn services(&self) -> &[ServiceRecord] {
        &self.services
    }
}

/// Geometric growth value: `canonical_value · (1+g)^((week-18)/19)`.
fn curve(canonical: f64, growth: f64, week: f64) -> f64 {
    let span = (GROWTH.week_end - GROWTH.week_start) as f64;
    canonical * (1.0 + growth).powf((week - GROWTH.week_canonical as f64) / span)
}

/// How week `week` sees an applet: `None` if it was created later, else its
/// canonical add count scaled back along the growth curve (at least 1).
/// The one rule every weekly view applies: [`Ecosystem::snapshot`] copies
/// records through it, [`Ecosystem::week_counts`] counts them and
/// [`PopulationSampler::from_ecosystem`] moves them.
///
/// [`PopulationSampler::from_ecosystem`]: crate::PopulationSampler::from_ecosystem
pub(crate) fn add_count_in_week(week: u32) -> impl Fn(&AppletRecord) -> Option<u64> {
    let factor = curve(1.0, GROWTH.add_count, week as f64);
    move |a| (a.created_week <= week).then(|| ((a.add_count as f64 * factor).round() as u64).max(1))
}

/// Largest-remainder apportionment of `total` across `weights`.
fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let wsum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / wsum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut remaining = total - counts.iter().sum::<usize>();
    let mut by_frac: Vec<usize> = (0..weights.len()).collect();
    by_frac.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .partial_cmp(&(exact[a] - exact[a].floor()))
            .unwrap()
    });
    for &i in &by_frac {
        if remaining == 0 {
            break;
        }
        counts[i] += 1;
        remaining -= 1;
    }
    counts
}

/// One of five canonical multi-step DAG shapes, picked by a uniform draw
/// in `[0, 1)`. The applet's classic `action` slug stays the DAG's first
/// terminal action, so runtimes resolve endpoints exactly as before;
/// fan-out shapes add a second abstract action slot that installers remap.
fn multi_step_shape(pick: f64, action: &str) -> Vec<StepNode> {
    let fm = |pairs: &[(&str, &str)]| -> FieldMap {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let act = |slug: &str| {
        StepNode::new(StepSpec::Action {
            action: slug.to_string(),
            fields: FieldMap::new(),
        })
    };
    if pick < 0.30 {
        // filter_pass: a permissive gate in front of the action.
        vec![
            StepNode::new(StepSpec::Filter {
                predicate: StepPredicate::NotHas {
                    key: "blocked".into(),
                },
            }),
            act(action).after(&[0]),
        ]
    } else if pick < 0.55 {
        // transform_chain: rewrite, gate on the rewrite, then act.
        vec![
            StepNode::new(StepSpec::Transform {
                fields: fm(&[("status", "armed")]),
            }),
            StepNode::new(StepSpec::Filter {
                predicate: StepPredicate::Equals {
                    key: "status".into(),
                    value: "armed".into(),
                },
            })
            .after(&[0]),
            act(action).after(&[1]),
        ]
    } else if pick < 0.80 {
        // query_enrich: network lookup feeding a transform, then act.
        vec![
            StepNode::new(StepSpec::Query {
                query: "lookup".into(),
                prefix: "ctx".into(),
                fields: fm(&[("q", "{{when}}")]),
            }),
            StepNode::new(StepSpec::Transform {
                fields: fm(&[("note", "{{ctx.echo}}")]),
            })
            .after(&[0]),
            act(action).after(&[1]),
        ]
    } else if pick < 0.90 {
        // fanout: one transform feeding two parallel actions.
        vec![
            StepNode::new(StepSpec::Transform {
                fields: fm(&[("copy", "{{when}}")]),
            }),
            act(action).after(&[0]),
            act("aux").after(&[0]),
        ]
    } else {
        // filter_drop: a gate that always cuts (the activation is
        // filtered, not dead-lettered).
        vec![
            StepNode::new(StepSpec::Filter {
                predicate: StepPredicate::Has {
                    key: "never_set".into(),
                },
            }),
            act(action).after(&[0]),
        ]
    }
}

/// Well-known non-IoT services seeded into their categories (referenced by
/// the anchor pairing table and realistic in their own right).
const FAMOUS: &[(&str, &str, Category)] = &[
    ("Gmail", "gmail", Category::Email),
    ("Google Drive", "google_drive", Category::CloudStorage),
    ("Google Sheets", "google_sheets", Category::CloudStorage),
    ("Facebook", "facebook", Category::SocialNetwork),
    ("Twitter", "twitter", Category::SocialNetwork),
    ("Instagram", "instagram", Category::SocialNetwork),
    (
        "Weather Underground",
        "weather_underground",
        Category::OnlineService,
    ),
    ("NYTimes", "nytimes", Category::OnlineService),
    ("YouTube", "youtube", Category::OnlineService),
    ("Feedly", "feedly", Category::RssFeed),
    ("Location", "location", Category::TimeLocation),
    ("Date & Time", "date_time", Category::TimeLocation),
    ("Android Device", "android_device", Category::Smartphone),
    ("Phone Call", "phone_call", Category::Smartphone),
    ("Android SMS", "android_sms", Category::Messaging),
    ("Slack", "slack", Category::Messaging),
    ("Todoist", "todoist", Category::PersonalData),
    ("Evernote", "evernote", Category::PersonalData),
    ("iOS Reminders", "ios_reminders", Category::PersonalData),
    ("Google Calendar", "google_calendar", Category::PersonalData),
];

/// The hand-authored pairing table of anchor applets: (trigger service,
/// trigger, action service, action, thousandths of the *unscaled* paper add
/// count, e.g. 400 = 400K). Per-service sums equal Table 3's published add
/// counts on both the trigger and action sides.
#[rustfmt::skip]
const ANCHOR_APPLETS: &[(&str, &str, &str, &str, u64)] = &[
    // Amazon Alexa triggers: 1.2M total.
    ("amazon_alexa", "say_a_phrase", "philips_hue", "turn_on_lights", 400),
    ("amazon_alexa", "todo_item_added", "todoist", "add_task", 300),
    ("amazon_alexa", "ask_whats_on_shopping_list", "ios_reminders", "set_reminder", 180),
    ("amazon_alexa", "say_a_phrase", "philips_hue", "change_color", 140),
    ("amazon_alexa", "shopping_item_added", "gmail", "send_email", 120),
    ("amazon_alexa", "song_played", "google_sheets", "add_row", 60),
    // Philips Hue actions: 1.2M total (540K from Alexa above).
    ("date_time", "sunset", "philips_hue", "turn_on_lights", 250),
    ("date_time", "sunrise", "philips_hue", "turn_off_lights", 160),
    ("weather_underground", "forecast_rain", "philips_hue", "change_color", 150),
    ("ios_reminders", "reminder_due", "philips_hue", "blink_lights", 100),
    // Fitbit triggers: 200K.
    ("fitbit", "daily_activity_summary", "google_sheets", "add_row", 120),
    ("fitbit", "new_sleep_logged", "evernote", "create_note", 80),
    // Nest Thermostat triggers: 100K.
    ("nest_thermostat", "temperature_rises_above", "todoist", "add_task", 60),
    ("nest_thermostat", "temperature_drops_below", "android_device", "send_notification", 40),
    // Google Assistant triggers: 100K.
    ("google_assistant", "say_a_phrase_ga", "harmony_hub", "start_activity", 100),
    // UP by Jawbone triggers: 100K.
    ("up_by_jawbone", "new_sleep_up", "evernote", "create_note", 60),
    ("up_by_jawbone", "new_workout_up", "google_sheets", "add_row", 40),
    // Nest Protect triggers: 70K.
    ("nest_protect", "smoke_alarm", "phone_call", "call_me", 50),
    ("nest_protect", "co_alarm", "android_sms", "send_sms", 20),
    // Automatic triggers: 60K.
    ("automatic", "ignition_off", "google_calendar", "add_event", 40),
    ("automatic", "check_engine", "android_sms", "send_sms", 20),
    // LIFX actions: 200K.
    ("date_time", "sunset", "lifx", "turn_on_lifx", 120),
    ("weather_underground", "forecast_rain", "lifx", "breathe_lifx", 80),
    // Nest Thermostat actions: 200K.
    ("location", "exit_area", "nest_thermostat", "set_temperature", 120),
    ("weather_underground", "forecast_rain", "nest_thermostat", "set_temperature", 80),
    // Harmony Hub actions: 200K total (100K from Google Assistant above).
    ("location", "enter_area", "harmony_hub", "start_activity", 70),
    ("google_calendar", "event_starts", "harmony_hub", "end_activity", 30),
    // WeMo Smart Plug actions: 100K.
    ("location", "enter_area", "wemo", "turn_on", 70),
    ("location", "exit_area", "wemo", "turn_off", 30),
    // Android Smartwatch actions: 100K.
    ("nytimes", "new_story", "android_smartwatch", "send_a_notification", 60),
    ("gmail", "new_email", "android_smartwatch", "send_a_notification", 40),
    // UP by Jawbone actions: 90K.
    ("evernote", "note_created", "up_by_jawbone", "log_caffeine", 50),
    ("weather_underground", "forecast_rain", "up_by_jawbone", "log_mood", 40),
];

/// The interaction matrix's shape: 14 trigger categories × 14 action
/// categories, in Table 1's order.
type Matrix = [[f64; 14]; 14];

/// Where `u` lands when walked down `weights`: the first index at which the
/// running sum reaches it, or `None` if rounding left `u` past the total.
fn weighted_index(weights: impl IntoIterator<Item = f64>, mut u: f64) -> Option<usize> {
    weights.into_iter().position(|w| {
        u -= w;
        u <= 0.0
    })
}

/// The creation-week search of steps 1 and 6 along one growth curve: for
/// each week in `0..last`, how many entities the curve through `canonical`
/// has reached by then, rounded. Built once per step, so a birth week is a
/// binary search, not a walk of `powf` calls.
struct GrowthWeeks(Vec<usize>);

impl GrowthWeeks {
    fn new(canonical: f64, growth: f64, last: u32) -> GrowthWeeks {
        // A running maximum, so the table is sorted even if `powf` is not
        // monotone in its last bit; the first week at which it reaches a
        // count is then the first week the curve itself does.
        let mut most = 0;
        let reached = (0..last).map(|w| {
            most = most.max(curve(canonical, growth, w as f64).round() as usize);
            most
        });
        GrowthWeeks(reached.collect())
    }

    /// The week the `count`-th entity in creation order is born: the first
    /// week in `0..last` whose curve reaches `count`, else `last`.
    fn week_of(&self, count: usize) -> u32 {
        self.0.partition_point(|&n| n < count) as u32
    }
}

/// A catalog applet as steps 3 and 4 make it; step 5 gives it its author
/// and step 6 its id and, if it is canonical, its creation week.
fn applet(trigger: Slot, action: Slot, add_count: u64, created_week: u32) -> AppletRecord {
    AppletRecord {
        id: 0,
        trigger,
        action,
        author: Author::User(0),
        add_count,
        created_week,
        steps: Vec::new(),
    }
}

/// Iterative proportional fitting: 200 rounds of scaling `m`'s rows to sum
/// to `rows`, then its columns to `cols`. A row or column of zeros stays
/// zero.
fn fit_marginals(m: &mut Matrix, rows: &[f64], cols: &[f64]) {
    for _ in 0..200 {
        for (row, want) in m.iter_mut().zip(rows) {
            let s: f64 = row.iter().sum();
            if s > 0.0 {
                row.iter_mut().for_each(|v| *v *= want / s);
            }
        }
        for (c, want) in cols.iter().enumerate() {
            let s: f64 = m.iter().map(|row| row[c]).sum();
            if s > 0.0 {
                m.iter_mut().for_each(|row| row[c] *= want / s);
            }
        }
    }
}

/// The 14×14 interaction matrix: a seed encoding Figure 2's qualitative
/// hotspots, fit to Table 1's trigger/action add-count marginals. Returns
/// fractions summing to 1.
fn interaction_matrix() -> Matrix {
    let mut m = [[1.0f64; 14]; 14];
    let boost = |m: &mut Matrix, r: usize, c: usize, f: f64| {
        m[r - 1][c - 1] *= f;
    };
    // IoT triggers pair with action categories 1, 5, 9 (§3.2 / Fig. 2).
    for r in 1..=4 {
        for c in [1, 5, 9] {
            boost(&mut m, r, c, 8.0);
        }
    }
    // IoT actions pair with trigger categories 1, 7, 9, 12.
    for r in [1, 7, 9, 12] {
        boost(&mut m, r, 1, 8.0);
    }
    // Non-IoT hotspots: triggers from social (10), online services (7),
    // RSS (8), time/location (12) driving notifications (9), cloud
    // logging (6), and social posting (10).
    for r in [7, 8, 10, 12] {
        for c in [9, 6, 10] {
            boost(&mut m, r, c, 4.0);
        }
    }
    // Social-to-social syncing is a top non-IoT use case.
    boost(&mut m, 10, 10, 6.0);
    // Email ↔ storage/notification.
    boost(&mut m, 13, 6, 4.0);
    boost(&mut m, 13, 9, 4.0);
    let rows = TABLE1.map(|r| r.trigger_ac_pct / 100.0);
    let cols = TABLE1.map(|r| r.action_ac_pct / 100.0);
    // Zero columns stay zero (Time & location exposes no real actions).
    for (j, c) in cols.iter().enumerate() {
        if *c == 0.0 {
            for row in m.iter_mut() {
                row[j] = 0.0;
            }
        }
    }
    fit_marginals(&mut m, &rows, &cols);
    m
}

/// A heavy-tail sequence: `n` descending values summing to exactly `total`,
/// with ranks `1..=k1` holding `head_share` and ranks `k1+1..=k2` holding
/// `mid_share` of the total (Figure 3's calibration). The knees are 1% and
/// 10% of `n` unless part of the population (the anchor applets) already
/// occupies top ranks.
///
/// Shape: a continuous piecewise power law `v(r) = C·r^-a`. The head
/// exponent is fixed; the mid and tail exponents are solved numerically so
/// the segment sums hit their budgets while values stay continuous (and
/// therefore globally monotone) across segment boundaries.
fn heavy_tail_sequence(
    n: usize,
    total: u64,
    head_share: f64,
    mid_share: f64,
    k1: usize,
    k2: usize,
) -> Vec<u64> {
    heavy_tail_with(solve_segment, n, total, head_share, mid_share, k1, k2)
}

/// Solves one segment's exponent in place: `solve(values, k, m, v_k,
/// budget)` fills ranks `k+1..=m`.
type SegmentSolver = fn(&mut [f64], usize, usize, f64, f64);

/// [`heavy_tail_sequence`] with the segment solver named, so that tests
/// can run the same sequence on a reference solver.
fn heavy_tail_with(
    solve_segment: SegmentSolver,
    n: usize,
    total: u64,
    head_share: f64,
    mid_share: f64,
    k1: usize,
    k2: usize,
) -> Vec<u64> {
    if n == 0 || total == 0 {
        return vec![0; n];
    }
    let k1 = k1.max(1).min(n);
    let k2 = k2.max(k1).min(n);
    let s1 = total as f64 * head_share.clamp(0.0, 1.0);
    let s2 = total as f64 * mid_share.clamp(0.0, 1.0);
    let s3 = (total as f64 - s1 - s2).max(0.0);

    let mut values = vec![0f64; n];
    // Head: fixed exponent. Kept moderate so the single largest item stays
    // below the largest interaction-matrix cell budget (otherwise one mega
    // applet would distort a whole Table 1 marginal).
    let a = 0.8;
    let head_wsum: f64 = (1..=k1).map(|r| (r as f64).powf(-a)).sum();
    let c1 = if head_wsum > 0.0 { s1 / head_wsum } else { 0.0 };
    for (r, v) in values.iter_mut().enumerate().take(k1) {
        *v = c1 * ((r + 1) as f64).powf(-a);
    }
    let v_k1 = values[k1 - 1].max(1.0);

    solve_segment(&mut values, k1, k2, v_k1, s2);
    let v_k2 = values[k2 - 1].max(1.0);
    solve_segment(&mut values, k2, n, v_k2, s3);

    // Cap any single item at 2% of the total, carrying the excess down
    // the ranking (a plateau at the cap). This keeps every item safely
    // below the largest interaction-matrix cell budget (~6% of adds) so
    // the greedy placement cannot blow a Table 1 marginal, while leaving
    // the top-1% share reachable even at reduced scale (64 items × 2%
    // ≥ 84.1% at scale 0.02).
    let cap = (total as f64 * 0.02).max(1.0);
    let mut carry = 0.0;
    for v in values.iter_mut() {
        *v += carry;
        carry = 0.0;
        if *v > cap {
            carry = *v - cap;
            *v = cap;
        }
    }
    if carry > 0.0 {
        let spread = carry / n as f64;
        for v in values.iter_mut() {
            *v += spread;
        }
    }

    // Integerize: round to ≥1, then fix total drift — surplus is absorbed
    // from the tail upward (values above the floor of 1) so the head and
    // mid shares survive; deficit goes onto the top item.
    let mut out: Vec<u64> = values.iter().map(|v| (v.round() as u64).max(1)).collect();
    let drift = total as i64 - out.iter().sum::<u64>() as i64;
    if drift > 0 {
        out[0] += drift as u64;
    } else if drift < 0 {
        let mut need = (-drift) as u64;
        for i in (0..out.len()).rev() {
            if need == 0 {
                break;
            }
            if out[i] > 1 {
                let take = (out[i] - 1).min(need);
                out[i] -= take;
                need -= take;
            }
        }
    }
    out.sort_unstable_by(|x, y| y.cmp(x));
    out
}

/// Solves an exponent b so that Σ_{r=k+1..=m} v_k·(r/k)^-b meets `budget`
/// and writes the segment's values. The sum is strictly decreasing in b,
/// so 50 rounds of bisection on [0, 6] converge; a budget that even a flat
/// segment cannot reach gets the flat segment.
fn solve_segment(values: &mut [f64], k: usize, m: usize, v_k: f64, budget: f64) {
    if m <= k {
        return;
    }
    let exceeds = |b: f64| segment_exceeds(k, m, v_k, b, budget);
    let (mut lo, mut hi) = (0.0f64, 6.0f64);
    let b = if !exceeds(0.0) {
        0.0
    } else {
        for _ in 0..50 {
            let mid = (lo + hi) / 2.0;
            if exceeds(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) / 2.0
    };
    for r in k + 1..=m {
        values[r - 1] = segment_term(k, r, v_k, b);
    }
}

/// Rank `r`'s value in a segment that starts after rank `k`: v_k·(r/k)^-b.
fn segment_term(k: usize, r: usize, v_k: f64, b: f64) -> f64 {
    v_k * (r as f64 / k as f64).powf(-b)
}

/// Whether [`segment_sum`] exceeds `budget`. The estimate answers when the
/// budget lies outside its error bound, which then covers the exact sum as
/// computed; only a budget inside the bound pays for the exact sum. Either
/// way the answer is the exact sum's (DESIGN.md §19).
fn segment_exceeds(k: usize, m: usize, v_k: f64, b: f64, budget: f64) -> bool {
    if let Some((estimate, bound)) = segment_estimate(k, m, v_k, b) {
        if estimate - bound > budget {
            return true;
        }
        if estimate + bound < budget {
            return false;
        }
    }
    segment_sum(k, m, v_k, b) > budget
}

/// Σ_{r=k+1..=m} v_k·(r/k)^-b, one `powf` a term, summed left to right:
/// the sum whose comparisons fix every catalog byte.
fn segment_sum(k: usize, m: usize, v_k: f64, b: f64) -> f64 {
    #[cfg(test)]
    tests::EXACT_SUMS.with(|c| c.set(c.get() + 1));
    (k + 1..=m).map(|r| segment_term(k, r, v_k, b)).sum()
}

/// Terms of a segment sum that [`segment_estimate`] adds one by one.
const DIRECT_TERMS: usize = 64;

/// [`segment_sum`] for b ≥ 0 at a cost that does not grow with the segment:
/// `(estimate, bound)` with |estimate − segment_sum| ≤ bound, or `None`
/// where the arithmetic overflows.
///
/// The first [`DIRECT_TERMS`] terms are summed as `segment_sum` sums them.
/// The rest, g(x) = v_k·(x/k)^-b over x = a..=m, go through Euler–Maclaurin
/// with the B₂, B₄ and B₆ terms, g⁽ʲ⁾(x) = c_j·g(x)/xʲ. Its remainder is at
/// most |B₆|/6!·∫|g⁽⁶⁾| ≤ |g⁽⁵⁾(a)|/30240, since g⁽⁶⁾ keeps one sign. The
/// bound adds the estimate's rounding (1e-12 relative, about a hundred times
/// what its operations can lose) and the exact sum's ((n + 16)·ε relative,
/// over twice what its n − 1 additions and each term's `powf`, product and
/// quotient r/k raised to b ≤ 6 can lose), then doubles the total.
fn segment_estimate(k: usize, m: usize, v_k: f64, b: f64) -> Option<(f64, f64)> {
    let term = |r: usize| segment_term(k, r, v_k, b);
    let a = k + 1 + DIRECT_TERMS;
    let mut estimate: f64 = (k + 1..a.min(m + 1)).map(term).sum();
    let mut remainder = 0.0;
    if a <= m {
        let (af, mf, ga, gm) = (a as f64, m as f64, term(a), term(m));
        // ∫_a^m g = a·g(a)·(e^t − 1)/(1 − b) with L = ln(m/a), t = (1 − b)·L,
        // written so that b = 1 and m = a need no special case.
        let l = ((m - a) as f64 / af).ln_1p();
        let t = (1.0 - b) * l;
        let integral = af * ga * l * if t == 0.0 { 1.0 } else { t.exp_m1() / t };
        let c1 = -b;
        let c3 = c1 * (b + 1.0) * (b + 2.0);
        let c5 = c3 * (b + 3.0) * (b + 4.0);
        let d = |c: f64, j: i32| c * (gm / mf.powi(j) - ga / af.powi(j));
        estimate +=
            integral + (ga + gm) / 2.0 + d(c1, 1) / 12.0 - d(c3, 3) / 720.0 + d(c5, 5) / 30240.0;
        remainder = (c5 * ga / af.powi(5)).abs() / 30240.0;
    }
    let rounding = (1e-12 + ((m - k) as f64 + 16.0) * f64::EPSILON) * estimate.abs();
    let bound = 2.0 * (remainder + rounding);
    (estimate.is_finite() && bound.is_finite()).then_some((estimate, bound))
}

/// What the scale fixes before any step runs.
struct Sizes {
    /// Applets at the canonical week.
    n_canonical: usize,
    /// Applets at the final week, post-canonical newcomers included.
    n_total: usize,
    /// The canonical week's total add count.
    total_adds: u64,
    /// User channels, before step 5 caps them at the user-made applets.
    n_users: usize,
}

impl Sizes {
    fn new(scale: f64) -> Sizes {
        let n_canonical = (SCALE.applets as f64 * scale).round() as usize;
        let final_week = FINAL_WEEK as f64;
        Sizes {
            n_canonical,
            n_total: curve(n_canonical as f64, GROWTH.add_count, final_week).round() as usize,
            total_adds: (SCALE.total_add_count as f64 * scale).round() as u64,
            n_users: (SCALE.user_channels as f64 * scale).round() as usize,
        }
    }
}

/// Step 1: the services, with creation weeks. Table 3's anchors and the
/// [`FAMOUS`] services come first, synthetic names fill each category to
/// its largest-remainder share of Table 1's 408, and post-canonical
/// newcomers in random categories bring the count to the services growth
/// curve's final week.
fn services_with_weeks(rng: &mut StdRng) -> Vec<ServiceRecord> {
    let canonical = SCALE.services;
    let total = curve(canonical as f64, GROWTH.services, FINAL_WEEK as f64).round() as usize;
    let mut services = Vec::with_capacity(total);
    let mut used = FxHashSet::with_capacity_and_hasher(total, Default::default());
    // Adds a service unless its slug is taken; says whether it did.
    let mut add = |services: &mut Vec<ServiceRecord>, name: String, slug: String, category| {
        let fresh = used.insert(slug.clone());
        if fresh {
            services.push(ServiceRecord {
                slug,
                name,
                category,
                triggers: Vec::new(),
                actions: Vec::new(),
                created_week: 0,
                unlisted_triggers: Vec::new(),
                unlisted_actions: Vec::new(),
            });
        }
        fresh
    };
    // An anchor on both of Table 3's lists is added once.
    let anchors = model::TOP_IOT_TRIGGER_SERVICES.iter();
    for a in anchors.chain(model::TOP_IOT_ACTION_SERVICES) {
        let category = Category::from_index(a.category).expect("valid category");
        add(&mut services, a.service.into(), a.slug.into(), category);
    }
    for &(name, slug, category) in FAMOUS {
        add(&mut services, name.into(), slug.into(), category);
    }
    let fixed = services.len();
    let per_cat = apportion(canonical, &TABLE1.map(|r| r.services_pct));
    for (&category, want) in ALL_CATEGORIES.iter().zip(per_cat) {
        let mut have = services.iter().filter(|s| s.category == category).count();
        let mut idx = 0;
        while have < want {
            let name = names::service_name(category, idx);
            let slug = names::slugify(&name);
            idx += 1;
            have += usize::from(add(&mut services, name, slug, category));
        }
    }
    debug_assert_eq!(services.len(), canonical);
    let mut idx = 1000;
    while services.len() < total {
        let category = ALL_CATEGORIES[rng.gen_range(0..14)];
        let name = names::service_name(category, idx);
        let slug = names::slugify(&name);
        idx += 1;
        add(&mut services, name, slug, category);
    }
    // The first `curve(w)` services in this order exist at week `w`: the
    // fixed ones at week 0, then the canonical synthetics shuffled among
    // themselves (all predate the canonical week), then the newcomers.
    let mut rest: Vec<usize> = (fixed..canonical).collect();
    rest.shuffle(rng);
    let mut newcomers: Vec<usize> = (canonical..total).collect();
    newcomers.shuffle(rng);
    let weeks = GrowthWeeks::new(canonical as f64, GROWTH.services, FINAL_WEEK);
    for (pos, i) in (0..fixed).chain(rest).chain(newcomers).enumerate() {
        services[i].created_week = weeks.week_of(pos + 1);
    }
    services
}

/// Step 2: trigger and action slots. Table 3's anchors get their real
/// slots and every other service one of each; the rest, up to the final
/// week of the triggers and actions growth curves, go to services drawn
/// with more weight on early ones.
fn deal_slots(services: &mut [ServiceRecord], rng: &mut StdRng) {
    let anchor_slots = |anchors: &[model::Table3Anchor], slug: &str| -> Vec<String> {
        let anchor = anchors.iter().find(|a| a.slug == slug);
        let slots = anchor.map(|a| a.top_slots.iter().map(|(s, _)| s.to_string()).collect());
        slots.unwrap_or_default()
    };
    for s in services.iter_mut() {
        s.triggers = anchor_slots(model::TOP_IOT_TRIGGER_SERVICES, &s.slug);
        s.actions = anchor_slots(model::TOP_IOT_ACTION_SERVICES, &s.slug);
        if s.triggers.is_empty() {
            s.triggers.push(names::trigger_slug(s.category, 0));
        }
        if s.actions.is_empty() {
            s.actions.push(names::action_slug(s.category, 0));
        }
    }
    let final_week = FINAL_WEEK as f64;
    let weights: Vec<f64> = (0..services.len())
        .map(|i| 1.0 / (i as f64 + 2.0).powf(0.7))
        .collect();
    let wsum: f64 = weights.iter().sum();
    let sides: [Side; 2] = [
        (
            curve(SCALE.triggers as f64, GROWTH.triggers, final_week).round() as usize,
            |s| &mut s.triggers,
            names::trigger_slug,
        ),
        (
            curve(SCALE.actions as f64, GROWTH.actions, final_week).round() as usize,
            |s| &mut s.actions,
            names::action_slug,
        ),
    ];
    for (total, slots, slot_name) in sides {
        let have: usize = services.iter_mut().map(|s| slots(s).len()).sum();
        for _ in have..total {
            let u = rng.gen::<f64>() * wsum;
            let s = &mut services[weighted_index(weights.iter().copied(), u).unwrap_or(0)];
            let slot = slot_name(s.category, slots(s).len());
            slots(s).push(slot);
        }
    }
}

/// One side of step 2: its final-week total, its slots in a service, and
/// how a new slot is named.
type Side = (
    usize,
    fn(&mut ServiceRecord) -> &mut Vec<String>,
    fn(Category, usize) -> String,
);

/// Step 3: the anchor applets, [`ANCHOR_APPLETS`] at `scale`, in a vector
/// with room for the `capacity` applets step 4 brings it to. Two of them
/// name an action their service is not dealt (Hue's `turn_off_lights`,
/// Google Calendar's `add_event`); it becomes one of the service's unlisted
/// slots.
fn anchor_applets(
    services: &mut [ServiceRecord],
    scale: f64,
    capacity: usize,
) -> Vec<AppletRecord> {
    let index = SlugIndex::new(services);
    let mut applets = Vec::with_capacity(capacity);
    applets.extend(ANCHOR_APPLETS.iter().map(|&(ts, t, as_, a, adds_k)| {
        let adds = ((adds_k * 1000) as f64 * scale).round() as u64;
        let (trigger, action) = index
            .slots(services, [ts, t, as_, a])
            .expect("anchor services exist");
        applet(trigger, action, adds, 0)
    }));
    applets
}

/// Step 4: the synthetic applets. Their add counts are one heavy-tail
/// sequence that, with the anchors, holds Figure 3's top-1% and top-10%
/// shares of the canonical applets. Each lands in a (trigger, action)
/// category cell by [`pick_cell`], on services drawn from that cell's
/// [`Pools`]. Small post-canonical newcomers follow.
fn synthetic_applets(
    applets: &mut Vec<AppletRecord>,
    services: &[ServiceRecord],
    sizes: &Sizes,
    rng: &mut StdRng,
) {
    let slot = |service: usize, slot: usize| Slot::new(service as u32, slot as u32);
    let n_anchors = applets.len();
    let anchor_adds: u64 = applets.iter().map(|a| a.add_count).sum();
    let (n_canonical, total_adds) = (sizes.n_canonical, sizes.total_adds);
    let synth_total = total_adds.saturating_sub(anchor_adds);
    // Global head/mid shares, net of the anchors' contribution, as
    // fractions of the synthetic budget. The anchors already occupy top
    // ranks, so the synthetic head/mid segments shrink: with the anchors
    // they fill exactly the top 1% / 10% of the canonical applets.
    let head = (TAILS.applet_top1_share * total_adds as f64 - anchor_adds as f64).max(0.0);
    let mid = (TAILS.applet_top10_share - TAILS.applet_top1_share) * total_adds as f64;
    let k1 = (n_canonical / 100).saturating_sub(n_anchors).max(1);
    let k2 = (n_canonical / 10).saturating_sub(n_anchors).max(k1);
    let seq = heavy_tail_sequence(
        n_canonical.saturating_sub(n_anchors),
        synth_total,
        head / synth_total as f64,
        mid / synth_total as f64,
        k1,
        k2,
    );
    let matrix = interaction_matrix();
    let mut budget = CellBudget::new(residual_budget(matrix, applets, services, total_adds));
    let trig = Pools::new(services, model::TOP_IOT_TRIGGER_SERVICES);
    let act = Pools::new(services, model::TOP_IOT_ACTION_SERVICES);
    for (k, &adds) in seq.iter().enumerate() {
        let cell @ (tr, ac) = pick_cell(&budget, &matrix, rng);
        budget.spend(cell, adds);
        // The popular 10% live on services that already existed at week 0,
        // keeping the longitudinal add-count growth clean.
        let hot = k < seq.len() / 10
            && !trig.week0[tr].members.is_empty()
            && !act.week0[ac].members.is_empty();
        let (tp, ap) = if hot {
            (&trig.week0[tr], &act.week0[ac])
        } else {
            (&trig.all[tr], &act.all[ac])
        };
        let (ts, as_) = (tp.pick(rng), ap.pick(rng));
        // Squared draws favour a service's first slots.
        let (nt, na) = (services[ts].triggers.len(), services[as_].actions.len());
        let t = (rng.gen::<f64>().powi(2) * nt as f64) as usize;
        let a = (rng.gen::<f64>().powi(2) * na as f64) as usize;
        let (trigger, action) = (slot(ts, t.min(nt - 1)), slot(as_, a.min(na - 1)));
        applets.push(applet(trigger, action, adds, 0));
    }
    // Post-canonical newcomers: small applets created after the canonical
    // week.
    while applets.len() < sizes.n_total {
        let tr = rng.gen_range(0..14);
        let ac = loop {
            let c = rng.gen_range(0..14);
            if c != 11 {
                break c; // cat 12 has no actions
            }
        };
        let (ts, as_) = (trig.all[tr].pick(rng), act.all[ac].pick(rng));
        let adds: u64 = 1 + rng.gen_range(0..20);
        let week = rng.gen_range(GROWTH.week_canonical as u32 + 1..=FINAL_WEEK);
        applets.push(applet(slot(ts, 0), slot(as_, 0), adds, week));
    }
}

/// Step 4's add-count budget per (trigger, action) category cell: the
/// interaction matrix, as the structural seed, re-fit to the residual
/// marginals — Table 1's row and column targets minus what the anchor
/// applets already spent. Subtracting per cell and clamping would leak
/// anchor overshoot into neighbouring cells and distort the measured
/// marginals; marginal-level IPF cannot.
fn residual_budget(
    matrix: Matrix,
    anchors: &[AppletRecord],
    services: &[ServiceRecord],
    total_adds: u64,
) -> Matrix {
    let mut spent = [[0u64; 14]; 14];
    let cat = |s: Slot| services.service(s.service).category.index() - 1;
    for a in anchors {
        spent[cat(a.trigger)][cat(a.action)] += a.add_count;
    }
    let t = total_adds as f64;
    let residual = |pct: f64, spent: u64| (pct / 100.0 * t - spent as f64).max(0.0);
    let rows: Vec<f64> = (0..14)
        .map(|r| residual(TABLE1[r].trigger_ac_pct, spent[r].iter().sum()))
        .collect();
    let cols: Vec<f64> = (0..14)
        .map(|c| residual(TABLE1[c].action_ac_pct, spent.iter().map(|r| r[c]).sum()))
        .collect();
    let mut budget = matrix;
    fit_marginals(&mut budget, &rows, &cols);
    budget
}

/// Step 4's add-count budget per (trigger, action) category cell, with
/// each row's fullest cell kept beside it: a pick reads 14 row maxima and
/// a spend re-reads the one row it changed.
struct CellBudget {
    cells: Matrix,
    /// Per row: its largest budget and the first column holding it.
    row_max: [(f64, usize); 14],
}

impl CellBudget {
    fn new(cells: Matrix) -> CellBudget {
        let mut budget = CellBudget {
            cells,
            row_max: [(0.0, 0); 14],
        };
        (0..14).for_each(|r| budget.rescan(r));
        budget
    }

    fn rescan(&mut self, r: usize) {
        let mut max = (f64::MIN, 0);
        for (c, &b) in self.cells[r].iter().enumerate() {
            if b > max.0 {
                max = (b, c);
            }
        }
        self.row_max[r] = max;
    }

    /// The fullest cell, the first in row-major order among ties, and its
    /// budget.
    fn fullest(&self) -> (f64, (usize, usize)) {
        let mut max = (f64::MIN, (0, 0));
        for (r, &(b, c)) in self.row_max.iter().enumerate() {
            if b > max.0 {
                max = (b, (r, c));
            }
        }
        max
    }

    /// Spends `adds` of `cell`'s budget, stopping at zero.
    fn spend(&mut self, (r, c): (usize, usize), adds: u64) {
        self.cells[r][c] = (self.cells[r][c] - adds as f64).max(0.0);
        self.rescan(r);
    }
}

/// The cell the next synthetic applet lands in. While budget remains, it
/// is the fullest cell, which absorbs the whole applet whenever any cell
/// can (bin packing: the overshoot is at most one applet, so no mega
/// applet blows a Table 1 marginal). Once rounding has spent the budget,
/// it is a draw from the raw matrix.
fn pick_cell(budget: &CellBudget, matrix: &Matrix, rng: &mut StdRng) -> (usize, usize) {
    let (max, fullest) = budget.fullest();
    // A float sum of non-negative cells is never below its largest term, so
    // the whole-budget sum decides only when every cell is at most 1.
    if max > 1.0 || budget.cells.iter().flatten().sum::<f64>() > 1.0 {
        fullest
    } else {
        let u = rng.gen::<f64>();
        let cell = weighted_index(matrix.iter().flatten().copied(), u);
        cell.map_or((6, 8), |i| (i / 14, i % 14)) // cat 7 → cat 9
    }
}

/// One side's (trigger or action) service pools for step 4, one per
/// category. Table 3's anchors on that side are left out, so their add
/// counts stay exact, and so are post-canonical services.
struct Pools {
    /// Every canonical-era service.
    all: Vec<Pool>,
    /// The services of week 0: a popular applet must be old, so its
    /// services must predate the crawl.
    week0: Vec<Pool>,
}

impl Pools {
    fn new(services: &[ServiceRecord], anchored: &[model::Table3Anchor]) -> Pools {
        let (mut all, mut week0) = (vec![Vec::new(); 14], vec![Vec::new(); 14]);
        for (i, s) in services.iter().enumerate() {
            let canonical = s.created_week <= GROWTH.week_canonical as u32;
            if !canonical || anchored.iter().any(|a| a.slug == s.slug) {
                continue;
            }
            let ci = s.category.index() - 1;
            let w = 1.0 / ((all[ci].len() + 1) as f64).powf(0.9);
            all[ci].push((i, w));
            if s.created_week == 0 {
                week0[ci].push((i, w));
            }
        }
        // Which services are canonical and which are anchors follows from
        // Table 1 and Table 3 alone, not from a draw, and every category has
        // canonical services besides its anchors: a pick never meets an
        // empty pool. (A week-0 pool can be empty; step 4 uses `all` then.)
        assert!(
            all.iter().all(|p| !p.is_empty()),
            "a category has no service to host applets"
        );
        let pools = |side: Vec<Vec<(usize, f64)>>| side.into_iter().map(Pool::new).collect();
        Pools {
            all: pools(all),
            week0: pools(week0),
        }
    }
}

/// One category's services: `(service index, weight)`, the weight falling
/// with rank in the category, and the weights' total.
struct Pool {
    members: Vec<(usize, f64)>,
    total: f64,
}

impl Pool {
    fn new(members: Vec<(usize, f64)>) -> Pool {
        let total = members.iter().map(|(_, w)| w).sum();
        Pool { members, total }
    }

    /// A service index drawn by weight.
    fn pick(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen::<f64>() * self.total;
        let k = weighted_index(self.members.iter().map(|&(_, w)| w), u);
        self.members[k.unwrap_or(self.members.len() - 1)].0
    }
}

/// Step 5: authors. A service-made band of 2% of the canonical applets
/// holding ≈14% of their adds, then heavy-tailed user quotas: the top 1%
/// of users make 18% of the user-made applets and the top 10% make 49%.
/// Returns the canonical applets by add count, descending, for step 6.
fn assign_authors(applets: &mut [AppletRecord], sizes: &Sizes, rng: &mut StdRng) -> Vec<usize> {
    let mut by_adds: Vec<usize> = (0..sizes.n_canonical.min(applets.len())).collect();
    by_adds.sort_by(|&a, &b| applets[b].add_count.cmp(&applets[a].add_count));
    // Slide a contiguous band down the ranking until its share fits.
    let svc_count = ((1.0 - TAILS.user_made_applets) * sizes.n_canonical as f64) as usize;
    let svc_target = (1.0 - TAILS.user_made_adds) * sizes.total_adds as f64;
    let mut start = 0usize;
    let band = by_adds.iter().take(svc_count);
    let mut band_sum: u64 = band.map(|&i| applets[i].add_count).sum();
    while start + svc_count < by_adds.len() && band_sum as f64 > svc_target {
        band_sum -= applets[by_adds[start]].add_count;
        band_sum += applets[by_adds[start + svc_count]].add_count;
        start += 1;
    }
    for &i in by_adds.iter().skip(start).take(svc_count) {
        applets[i].author = Author::Service(applets[i].trigger.service);
    }
    let mut user_made: Vec<usize> = (0..applets.len())
        .filter(|&i| applets[i].author.is_user())
        .collect();
    let n_users = sizes.n_users.max(1).min(user_made.len().max(1));
    let quotas = heavy_tail_sequence(
        n_users,
        user_made.len() as u64,
        TAILS.user_top1_share,
        TAILS.user_top10_share - TAILS.user_top1_share,
        n_users / 100,
        n_users / 10,
    );
    user_made.shuffle(rng);
    let quota_owners = quotas.iter().zip(1u32..);
    let owners = quota_owners.flat_map(|(&q, user)| iter::repeat_n(user, q as usize));
    // Leftovers from rounding go to the last user.
    let owners = owners.chain(iter::repeat(n_users as u32));
    for (&i, user) in user_made.iter().zip(owners) {
        applets[i].author = Author::User(user);
    }
    by_adds
}

/// Step 6: creation weeks and ids. Older applets are generally more
/// popular, so the canonical applets are born in add-count order, shuffled
/// within twentieths of it, along the add-count growth curve, and never
/// before their services. Ids are unique six-digit-style page ids.
fn creation_weeks_and_ids(
    applets: &mut [AppletRecord],
    services: &[ServiceRecord],
    mut by_adds: Vec<usize>,
    n_canonical: usize,
    rng: &mut StdRng,
) {
    let block = (by_adds.len() / 20).max(1);
    for chunk in by_adds.chunks_mut(block) {
        chunk.shuffle(rng);
    }
    let weeks = GrowthWeeks::new(
        n_canonical as f64,
        GROWTH.add_count,
        GROWTH.week_canonical as u32 + 1,
    );
    for (pos, &i) in by_adds.iter().enumerate() {
        let week = weeks.week_of(pos + 1);
        let a = &mut applets[i];
        let born = |s: Slot| services.service(s.service).created_week;
        a.created_week = week.max(born(a.trigger)).max(born(a.action));
    }
    let n = applets.len();
    let id_span = (n as f64 / 0.375).ceil() as usize;
    let mut ids: Vec<u32> = rand::seq::index::sample(rng, id_span, n)
        .into_iter()
        .map(|v| crate::crawler::APPLET_ID_BASE + v as u32)
        .collect();
    ids.sort_unstable();
    ids.shuffle(rng);
    for (a, id) in applets.iter_mut().zip(ids) {
        a.id = id;
    }
}

/// Step 7 (opt-in): Zapier-style execution DAGs for `multi_step_share` of
/// the applets. They are drawn on a derived stream, and a share of 0.0
/// makes no draw, so the catalog is byte-identical without them.
fn multi_step_dags(
    applets: &mut [AppletRecord],
    services: &[ServiceRecord],
    config: &GeneratorConfig,
) {
    if config.multi_step_share > 0.0 {
        let share = config.multi_step_share.clamp(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, MULTI_STEP_STREAM));
        for a in applets.iter_mut() {
            if rng.gen::<f64>() < share {
                a.steps = multi_step_shape(rng.gen::<f64>(), services.action(a));
            }
        }
    }
}

impl Ecosystem {
    /// Generate an ecosystem: the module doc's steps 1–7, in order, each
    /// one function. All but step 7 draw from one RNG stream.
    ///
    /// # Panics
    /// Panics if `config.scale < 0.02` (below that the heavy-tail segments
    /// degenerate).
    pub fn generate(config: GeneratorConfig) -> Ecosystem {
        assert!(config.scale >= 0.02, "scale too small");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let sizes = Sizes::new(config.scale);
        let mut services = services_with_weeks(&mut rng);
        deal_slots(&mut services, &mut rng);
        let mut applets = anchor_applets(&mut services, config.scale, sizes.n_total);
        synthetic_applets(&mut applets, &services, &sizes, &mut rng);
        let by_adds = assign_authors(&mut applets, &sizes, &mut rng);
        creation_weeks_and_ids(
            &mut applets,
            &services,
            by_adds,
            sizes.n_canonical,
            &mut rng,
        );
        multi_step_dags(&mut applets, &services, &config);
        Ecosystem {
            config,
            services,
            applets,
            final_week: FINAL_WEEK,
        }
    }

    /// The services week `week` sees, as catalog indices in catalog order,
    /// each with the length of the trigger and action prefix it lists
    /// (every service has one of each, so a prefix is never empty).
    ///
    /// Triggers/actions accumulate over time: expose per-service slot
    /// prefixes whose global totals follow the published growth curves.
    /// Apportioning globally (largest remainder, floor 1, cap at the final
    /// count) avoids the per-service ceil bias a local rule has.
    fn services_in_week(&self, week: u32) -> Vec<(usize, usize, usize)> {
        let live = (0..self.services.len()).filter(|&i| self.services[i].created_week <= week);
        let live: Vec<usize> = live.collect();
        let prefixes = |target: usize, pick: fn(&ServiceRecord) -> usize| -> Vec<usize> {
            let lens: Vec<usize> = live.iter().map(|&i| pick(&self.services[i])).collect();
            let capacity: usize = lens.iter().sum();
            let target = target.min(capacity).max(live.len());
            // Start everyone at 1, then deal remaining slots round-robin in
            // proportion to capacity (deterministic largest-remainder).
            let spare_total = target - live.len();
            let spare_cap: usize = lens.iter().map(|l| l - 1).sum();
            let mut keeps: Vec<usize> = lens
                .iter()
                .map(|l| {
                    // Multiply before dividing to keep integer precision;
                    // spare_cap == 0 means nobody has slack to keep.
                    1 + ((l - 1) * spare_total).checked_div(spare_cap).unwrap_or(0)
                })
                .collect();
            let mut short = target as i64 - keeps.iter().sum::<usize>() as i64;
            let mut i = 0;
            while short > 0 && i < keeps.len() * 2 {
                let idx = i % keeps.len();
                if keeps[idx] < lens[idx] {
                    keeps[idx] += 1;
                    short -= 1;
                }
                i += 1;
            }
            keeps
        };
        let t_target = curve(SCALE.triggers as f64, GROWTH.triggers, week as f64).round() as usize;
        let a_target = curve(SCALE.actions as f64, GROWTH.actions, week as f64).round() as usize;
        let triggers = prefixes(t_target, |s| s.triggers.len());
        let actions = prefixes(a_target, |s| s.actions.len());
        let prefixes = triggers.into_iter().zip(actions);
        live.into_iter()
            .zip(prefixes)
            .map(|(i, (t, a))| (i, t, a))
            .collect()
    }

    /// The weekly snapshot view: entities created by `week`, with add
    /// counts scaled back along the growth curve. Its table holds only the
    /// week's services, so each record's service ids are remapped into it
    /// (`ids[catalog index]`); slot ids stay, since a week's service keeps
    /// the slots it does not list as unlisted ones.
    pub fn snapshot(&self, week: u32) -> Snapshot {
        let week = week.min(self.final_week);
        let mut ids = vec![u32::MAX; self.services.len()];
        let live = self.services_in_week(week).into_iter().zip(0..);
        let services = live
            .map(|((i, triggers, actions), k)| {
                ids[i] = k;
                self.services[i].listing(triggers, actions)
            })
            .collect();
        let add_count = add_count_in_week(week);
        let id = |s: Slot| Slot::new(ids[s.service as usize], s.slot);
        let applets: Vec<AppletRecord> = self
            .applets
            .iter()
            .filter_map(|a| {
                Some(AppletRecord {
                    add_count: add_count(a)?,
                    trigger: id(a.trigger),
                    action: id(a.action),
                    author: match a.author {
                        Author::Service(s) => Author::Service(ids[s as usize]),
                        user => user,
                    },
                    ..a.clone()
                })
            })
            .collect();
        Snapshot {
            week,
            date: model::week_date_label(week as usize),
            services,
            applets,
        }
    }

    /// The canonical snapshot (3/25/2017, week 18).
    pub fn canonical_snapshot(&self) -> Snapshot {
        self.snapshot(GROWTH.week_canonical as u32)
    }

    /// What [`WeekCounts::of`] reads off `snapshot(week)`, for every crawl
    /// week, counted through the same rules without building a snapshot.
    pub fn week_counts(&self) -> Vec<WeekCounts> {
        let users = self.applets.iter().filter_map(|a| match a.author {
            Author::User(u) => Some(u as usize + 1),
            Author::Service(_) => None,
        });
        // The last week each user channel was counted in.
        let mut counted_in = vec![u32::MAX; users.max().unwrap_or(0)];
        (0..=self.final_week)
            .map(|week| {
                let services = self.services_in_week(week);
                let add_count = add_count_in_week(week);
                let mut counts = WeekCounts {
                    week,
                    services: services.len(),
                    triggers: services.iter().map(|s| s.1).sum(),
                    actions: services.iter().map(|s| s.2).sum(),
                    ..WeekCounts::default()
                };
                for a in &self.applets {
                    let Some(adds) = add_count(a) else { continue };
                    counts.applets += 1;
                    counts.add_count += adds;
                    if let Author::User(u) = a.author {
                        if counted_in[u as usize] != week {
                            counted_in[u as usize] = week;
                            counts.contributors += 1;
                        }
                    }
                }
                counts
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Ecosystem {
        Ecosystem::generate(GeneratorConfig::test_scale(7))
    }

    #[test]
    fn multi_step_share_assigns_valid_dags_without_perturbing_base() {
        use tap_protocol::validate_steps;
        let base = small();
        let mut cfg = GeneratorConfig::test_scale(7);
        cfg.multi_step_share = 0.25;
        let multi = Ecosystem::generate(cfg);
        // The post-pass only fills `steps`: everything else is identical.
        assert_eq!(base.applets.len(), multi.applets.len());
        for (b, m) in base.applets.iter().zip(&multi.applets) {
            assert!(b.steps.is_empty());
            assert_eq!(b.id, m.id);
            assert_eq!((b.trigger, b.action), (m.trigger, m.action));
            assert_eq!(b.add_count, m.add_count);
            validate_steps(&m.steps).expect("generated DAGs validate");
        }
        let with_steps = multi.applets.iter().filter(|a| !a.steps.is_empty()).count();
        let share = with_steps as f64 / multi.applets.len() as f64;
        assert!(
            (share - 0.25).abs() < 0.03,
            "multi-step share {share:.3} vs 0.25"
        );
        // Snapshots carry the DAGs through.
        let snap = multi.canonical_snapshot();
        assert!(snap.applets.iter().any(|a| !a.steps.is_empty()));
    }

    #[test]
    fn interaction_matrix_matches_marginals() {
        let m = interaction_matrix();
        for (i, row) in TABLE1.iter().enumerate() {
            let rsum: f64 = m[i].iter().sum();
            assert!(
                (rsum - row.trigger_ac_pct / 100.0).abs() < 1e-6,
                "row {i}: {rsum} vs {}",
                row.trigger_ac_pct
            );
        }
        for (jx, row) in TABLE1.iter().enumerate() {
            let csum: f64 = (0..14).map(|i| m[i][jx]).sum();
            assert!(
                (csum - row.action_ac_pct / 100.0).abs() < 1e-6,
                "col {jx}: {csum} vs {}",
                row.action_ac_pct
            );
        }
        // IoT hotspot structure survives the fitting.
        assert!(
            m[0][0] > m[0][13],
            "smart-home→smart-home beats smart-home→other"
        );
    }

    #[test]
    fn heavy_tail_sequence_hits_total_and_shares() {
        let n = 10_000;
        let total = 1_000_000;
        let seq = heavy_tail_sequence(n, total, 0.841, 0.135, n / 100, n / 10);
        assert_eq!(seq.len(), n);
        assert_eq!(seq.iter().sum::<u64>(), total);
        assert!(seq.windows(2).all(|w| w[0] >= w[1]), "descending");
        let top1: u64 = seq.iter().take(n / 100).sum();
        let top10: u64 = seq.iter().take(n / 10).sum();
        assert!(
            (top1 as f64 / total as f64 - 0.841).abs() < 0.02,
            "top1 {top1}"
        );
        assert!(
            (top10 as f64 / total as f64 - 0.976).abs() < 0.02,
            "top10 {top10}"
        );
        assert!(*seq.last().unwrap() >= 1);
    }

    thread_local! {
        /// Exact segment sums taken on this thread.
        pub(super) static EXACT_SUMS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The segment solver as first written: every bisection step takes the
    /// exact sum. Kept verbatim as the reference `solve_segment` must match.
    fn solve_segment_reference(values: &mut [f64], k: usize, m: usize, v_k: f64, budget: f64) {
        if m <= k {
            return;
        }
        let sum_for = |b: f64| -> f64 {
            (k + 1..=m)
                .map(|r| v_k * (r as f64 / k as f64).powf(-b))
                .sum()
        };
        let (mut lo, mut hi) = (0.0f64, 6.0f64);
        // If even a flat segment cannot reach the budget, use flat.
        let b = if sum_for(0.0) <= budget {
            0.0
        } else {
            for _ in 0..50 {
                let mid = (lo + hi) / 2.0;
                if sum_for(mid) > budget {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            (lo + hi) / 2.0
        };
        for r in k + 1..=m {
            values[r - 1] = v_k * (r as f64 / k as f64).powf(-b);
        }
    }

    /// A size in `1..=max`, log-uniform so that small and large sizes are
    /// drawn alike often.
    fn log_uniform(draw: &mut StdRng, max: usize) -> usize {
        let x = (draw.gen::<f64>() * (max as f64).ln()).exp();
        (x as usize).clamp(1, max)
    }

    /// One case of the solver property: a random `heavy_tail_sequence`
    /// call with `n ≤ n_max`, degenerate shapes included, against the
    /// reference solver; then one segment whose budget is the exact sum at
    /// a random exponent, so that bisection steps land on the knife edge.
    fn solver_matches_reference(seed: u64, n_max: usize) {
        let mut draw = StdRng::seed_from_u64(seed);
        let n = if draw.gen_range(0..8) == 0 {
            1
        } else {
            log_uniform(&mut draw, n_max)
        };
        let total = match draw.gen_range(0..4) {
            0 => draw.gen_range(0..=n as u64),
            1 => n as u64 * draw.gen_range(1..4),
            _ => n as u64 * log_uniform(&mut draw, 2_000) as u64,
        };
        let share = |draw: &mut StdRng| match draw.gen_range(0..5) {
            0 => 0.0,
            1 => 1.0,
            _ => draw.gen::<f64>(),
        };
        let head = share(&mut draw);
        let mid = share(&mut draw) * (1.0 - head);
        let k1 = draw.gen_range(0..=n);
        let k2 = match draw.gen_range(0..4) {
            0 => k1,
            1 => n,
            _ => draw.gen_range(k1..=n),
        };
        let got = heavy_tail_with(solve_segment, n, total, head, mid, k1, k2);
        let want = heavy_tail_with(solve_segment_reference, n, total, head, mid, k1, k2);
        assert_eq!(
            got, want,
            "n {n} total {total} shares {head} {mid} k {k1} {k2}"
        );

        let k = log_uniform(&mut draw, n_max);
        let m = k + log_uniform(&mut draw, n_max);
        let v_k = 1.0 + draw.gen::<f64>() * 1e4;
        let at = draw.gen::<f64>() * 6.0;
        let budget = segment_sum(k, m, v_k, at);
        let (mut got, mut want) = (vec![0.0; m], vec![0.0; m]);
        solve_segment(&mut got, k, m, v_k, budget);
        solve_segment_reference(&mut want, k, m, v_k, budget);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got),
            bits(&want),
            "k {k} m {m} v_k {v_k} budget at b = {at}"
        );
    }

    /// One case of the bound property: the estimate is within half its
    /// bound of the exact sum — the doubling is margin, never spent.
    fn estimate_is_within_its_bound(seed: u64, m_max: usize) {
        let mut draw = StdRng::seed_from_u64(seed);
        let k = log_uniform(&mut draw, m_max);
        let m = k + log_uniform(&mut draw, m_max);
        let v_k = (draw.gen::<f64>() * 40.0 - 20.0).exp2();
        let b = match draw.gen_range(0..6) {
            0 => 0.0,
            1 => 1.0,
            2 => 6.0,
            _ => draw.gen::<f64>() * 6.0,
        };
        let (estimate, bound) = segment_estimate(k, m, v_k, b).expect("finite");
        let exact = segment_sum(k, m, v_k, b);
        assert!(
            (estimate - exact).abs() <= bound / 2.0,
            "k {k} m {m} v_k {v_k} b {b}: estimate {estimate} exact {exact} bound {bound}"
        );
    }

    proptest::proptest! {
        /// The bounded solver writes the values the exact bisection writes.
        #[test]
        fn heavy_tail_solver_matches_the_exact_bisection(seed in proptest::any::<u64>()) {
            solver_matches_reference(seed, 5_000);
        }

        /// The estimate's error bound holds over b ∈ [0, 6].
        #[test]
        fn segment_estimate_is_within_its_bound(seed in proptest::any::<u64>()) {
            estimate_is_within_its_bound(seed, 5_000);
        }

        /// The solver property at segment lengths up to 40,000 (CI's
        /// release job runs it).
        #[test]
        #[ignore]
        fn heavy_tail_solver_matches_the_exact_bisection_deep(seed in proptest::any::<u64>()) {
            solver_matches_reference(seed, 40_000);
        }

        /// The bound property at segment lengths up to 40,000.
        #[test]
        #[ignore]
        fn segment_estimate_is_within_its_bound_deep(seed in proptest::any::<u64>()) {
            estimate_is_within_its_bound(seed, 40_000);
        }
    }

    /// How many exact sums scale 0.02's two sequences take (the reference
    /// takes 52 and 102): a looser bound would show here first.
    #[test]
    fn heavy_tail_sequences_take_few_exact_sums() {
        let sizes = Sizes::new(0.02);
        let mut rng = StdRng::seed_from_u64(2017);
        let mut services = services_with_weeks(&mut rng);
        deal_slots(&mut services, &mut rng);
        let mut applets = anchor_applets(&mut services, 0.02, sizes.n_total);
        EXACT_SUMS.set(0);
        synthetic_applets(&mut applets, &services, &sizes, &mut rng);
        let applet_sums = EXACT_SUMS.replace(0);
        assign_authors(&mut applets, &sizes, &mut rng);
        let quota_sums = EXACT_SUMS.get();
        assert_eq!((applet_sums, quota_sums), (11, 21));
    }

    /// Step 4's cell pick as first written: the fullest cell that can absorb
    /// the whole applet, else the fullest cell overall, each found by a scan
    /// of all 196 cells, and the whole-budget sum taken on every pick.
    fn pick_cell_reference(
        budget: &Matrix,
        matrix: &Matrix,
        adds: u64,
        rng: &mut StdRng,
    ) -> (usize, usize) {
        if budget.iter().flatten().sum::<f64>() > 1.0 {
            let (mut fit, mut any) = ((f64::MIN, None), (f64::MIN, (6, 8)));
            for (r, row) in budget.iter().enumerate() {
                for (c, &b) in row.iter().enumerate() {
                    if b > any.0 {
                        any = (b, (r, c));
                    }
                    if b >= adds as f64 && b > fit.0 {
                        fit = (b, Some((r, c)));
                    }
                }
            }
            fit.1.unwrap_or(any.1)
        } else {
            let u = rng.gen::<f64>();
            let cell = weighted_index(matrix.iter().flatten().copied(), u);
            cell.map_or((6, 8), |i| (i / 14, i % 14))
        }
    }

    proptest::proptest! {
        /// Over a run of picks and spends, `pick_cell` on the kept row
        /// maxima names the cell the reference names and makes the same
        /// draws. The budgets take few distinct values, so ties and zeros
        /// are common. Regime 0 has cells above 1; regime 1 has every cell at
        /// most 1 and is spent down through a total of 1 into the raw-matrix
        /// draw; regime 2 starts with a total below 1.
        #[test]
        fn pick_cell_is_the_fits_else_fullest_rule(seed in 0u64..u64::MAX, regime in 0usize..3) {
            let matrix = interaction_matrix();
            let mut draw = StdRng::seed_from_u64(seed);
            let unit = [4.0, 0.25, 0.001][regime];
            let mut cells = [[0.0; 14]; 14];
            for b in cells.iter_mut().flatten() {
                *b = draw.gen_range(0..4) as f64 * unit;
            }
            let mut budget = CellBudget::new(cells);
            for _ in 0..256 {
                let adds = draw.gen_range(1..20);
                let mut want_rng = StdRng::seed_from_u64(draw.gen());
                let mut got_rng = want_rng.clone();
                let want = pick_cell_reference(&cells, &matrix, adds, &mut want_rng);
                let got = pick_cell(&budget, &matrix, &mut got_rng);
                proptest::prop_assert_eq!(got, want, "adds {} over {:?}", adds, cells);
                proptest::prop_assert_eq!(got_rng, want_rng, "draws differ");
                let (r, c) = want;
                cells[r][c] = (cells[r][c] - adds as f64).max(0.0);
                budget.spend(got, adds);
                proptest::prop_assert_eq!(budget.cells, cells);
            }
        }
    }

    #[test]
    fn growth_weeks_are_the_first_week_each_count_is_reached() {
        for scale in [0.02, 1.0] {
            let n_canonical = Sizes::new(scale).n_canonical as f64;
            let curves = [
                (SCALE.services as f64, GROWTH.services, FINAL_WEEK),
                (
                    n_canonical,
                    GROWTH.add_count,
                    GROWTH.week_canonical as u32 + 1,
                ),
            ];
            for (canonical, growth, last) in curves {
                let weeks = GrowthWeeks::new(canonical, growth, last);
                let reached = |w: u32| curve(canonical, growth, w as f64).round() as usize;
                for count in 1..=reached(FINAL_WEEK) + 1 {
                    let direct = (0..last).find(|&w| reached(w) >= count).unwrap_or(last);
                    assert_eq!(weeks.week_of(count), direct, "{canonical} {growth} {count}");
                }
            }
        }
    }

    #[test]
    fn canonical_snapshot_scale_matches_paper() {
        let counts = WeekCounts::of(&small().canonical_snapshot());
        assert_eq!(counts.services, 408);
        let n_target = (320_000.0 * 0.02) as usize;
        assert!(
            (counts.applets as i64 - n_target as i64).abs() < 50,
            "applets {}",
            counts.applets
        );
        let adds = counts.add_count as f64;
        let adds_target = 23_000_000.0 * 0.02;
        assert!(
            (adds / adds_target - 1.0).abs() < 0.03,
            "adds {adds} vs {adds_target}"
        );
        let trig = counts.triggers as f64;
        assert!((trig / 1490.0 - 1.0).abs() < 0.08, "triggers {trig}");
        let act = counts.actions as f64;
        assert!((act / 957.0 - 1.0).abs() < 0.08, "actions {act}");
    }

    #[test]
    fn applet_ids_are_unique_and_six_digit_style() {
        let eco = small();
        let mut ids: Vec<u32> = eco.applets.iter().map(|a| a.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "ids unique");
        assert!(ids.iter().all(|&i| i >= crate::crawler::APPLET_ID_BASE));
    }

    #[test]
    fn anchor_services_hit_table3_add_counts() {
        let eco = small();
        let snap = eco.canonical_snapshot();
        for anchor in model::TOP_IOT_TRIGGER_SERVICES {
            let got: u64 = snap
                .applets
                .iter()
                .filter(|a| snap.trigger_service(a) == anchor.slug)
                .map(|a| a.add_count)
                .sum();
            let want = anchor.add_count as f64 * 0.02;
            assert!(
                (got as f64 / want - 1.0).abs() < 0.05,
                "{}: {got} vs {want}",
                anchor.slug
            );
        }
        for anchor in model::TOP_IOT_ACTION_SERVICES {
            let got: u64 = snap
                .applets
                .iter()
                .filter(|a| snap.action_service(a) == anchor.slug)
                .map(|a| a.add_count)
                .sum();
            let want = anchor.add_count as f64 * 0.02;
            assert!(
                (got as f64 / want - 1.0).abs() < 0.05,
                "{}: {got} vs {want}",
                anchor.slug
            );
        }
    }

    #[test]
    fn growth_between_week0_and_week19_matches_paper() {
        let counts = small().week_counts();
        let (a, b) = (counts[GROWTH.week_start], counts[GROWTH.week_end]);
        let growth = |from: usize, to: usize| to as f64 / from as f64 - 1.0;
        let services = growth(a.services, b.services);
        assert!((services - 0.11).abs() < 0.03, "services {services}");
        let triggers = growth(a.triggers, b.triggers);
        assert!((triggers - 0.31).abs() < 0.08, "triggers {triggers}");
        let actions = growth(a.actions, b.actions);
        assert!((actions - 0.27).abs() < 0.08, "actions {actions}");
        let adds = b.add_count as f64 / a.add_count as f64 - 1.0;
        assert!((adds - 0.19).abs() < 0.06, "adds {adds}");
    }

    #[test]
    fn week_counts_are_the_snapshots_counts() {
        for seed in [7, 8] {
            for scale in [0.02, 0.035] {
                for multi_step_share in [0.0, 0.5] {
                    let config = GeneratorConfig {
                        seed,
                        scale,
                        multi_step_share,
                    };
                    let eco = Ecosystem::generate(config);
                    let counts = eco.week_counts();
                    assert_eq!(counts.len(), GROWTH.snapshots);
                    for (w, c) in counts.iter().enumerate() {
                        let snap = eco.snapshot(w as u32);
                        assert_eq!(*c, WeekCounts::of(&snap), "{config:?} week {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn user_made_share_matches() {
        let eco = small();
        let snap = eco.canonical_snapshot();
        let user_applets = snap.applets.iter().filter(|a| a.author.is_user()).count() as f64;
        let share = user_applets / snap.applets.len() as f64;
        assert!((share - 0.98).abs() < 0.01, "user applet share {share}");
        let user_adds: u64 = snap
            .applets
            .iter()
            .filter(|a| a.author.is_user())
            .map(|a| a.add_count)
            .sum();
        let adds_share = user_adds as f64 / snap.total_add_count() as f64;
        assert!(
            (adds_share - 0.86).abs() < 0.05,
            "user adds share {adds_share}"
        );
    }

    #[test]
    fn determinism_same_seed_same_ecosystem() {
        let a = Ecosystem::generate(GeneratorConfig::test_scale(3));
        let b = Ecosystem::generate(GeneratorConfig::test_scale(3));
        assert_eq!(a.applets, b.applets);
        assert_eq!(a.services, b.services);
        let c = Ecosystem::generate(GeneratorConfig::test_scale(4));
        assert_ne!(a.applets, c.applets);
    }

    #[test]
    fn snapshots_are_monotone_in_scale() {
        let eco = small();
        let mut prev = 0usize;
        for w in [0u32, 5, 10, 18, 24] {
            let s = eco.snapshot(w);
            assert!(s.applets.len() >= prev, "week {w}");
            prev = s.applets.len();
        }
    }

    #[test]
    #[should_panic(expected = "scale too small")]
    fn tiny_scale_is_rejected() {
        Ecosystem::generate(GeneratorConfig {
            seed: 1,
            scale: 0.001,
            multi_step_share: 0.0,
        });
    }
}
