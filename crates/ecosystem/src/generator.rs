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
//! Construction outline:
//!
//! 1. **Services**: category counts by largest-remainder apportionment of
//!    Table 1's percentages; 12 real IoT anchor services (Table 3) plus a
//!    pool of well-known non-IoT services, then synthetic names.
//! 2. **Interaction matrix**: a 14×14 trigger×action add-count matrix fit
//!    by iterative proportional fitting to Table 1's marginals, seeded with
//!    Figure 2's qualitative hotspots.
//! 3. **Anchor applets**: a hand-authored pairing table that realizes
//!    Table 3's per-service add counts exactly.
//! 4. **Synthetic applets**: a three-segment heavy-tail add-count sequence
//!    (head/mid/tail) hitting Figure 3's top-1% = 84.1% and top-10% =
//!    97.6% shares, assigned to category cells by budgeted sampling.
//! 5. **Authors**: a service-made band (2% of applets, 14% of adds) and a
//!    heavy-tailed user quota sequence (top 1% → 18%, top 10% → 49%).
//! 6. **Longitudinal model**: per-entity creation weeks following the
//!    published growth rates, with add counts scaled geometrically.

#![allow(clippy::needless_range_loop)] // 14x14 matrix code reads best with indices

use crate::model::{self, GROWTH, SCALE, TAILS};
use crate::names;
use crate::snapshot::{AppletRecord, Author, ServiceRecord, Snapshot, WeekCounts};
use crate::taxonomy::{Category, ALL_CATEGORIES, TABLE1};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simnet::rng::derive_seed;
use tap_protocol::{FieldMap, StepNode, StepPredicate, StepSpec};

/// Derived-seed stream for the multi-step shape post-pass, so enabling
/// `multi_step_share` perturbs no draw of the base ecosystem RNG.
const MULTI_STEP_STREAM: u64 = 0x57e9_0001;

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
/// model; weekly [`Snapshot`]s are views of it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ecosystem {
    pub config: GeneratorConfig,
    /// All services ever created (including post-canonical ones).
    pub services: Vec<ServiceRecord>,
    /// All applets; `add_count` is the canonical-week (3/25/2017) value.
    pub applets: Vec<AppletRecord>,
    /// Final crawl week (inclusive).
    pub final_week: u32,
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

/// One anchor applet: realizes part of a Table 3 service's add count.
struct AnchorApplet {
    trigger_service: &'static str,
    trigger: &'static str,
    action_service: &'static str,
    action: &'static str,
    /// Thousandths of the *unscaled* paper add count (e.g. 400 = 400K).
    adds_k: u64,
}

/// The hand-authored pairing table. Per-service sums equal Table 3's
/// published add counts on both the trigger and action sides.
const ANCHOR_APPLETS: &[AnchorApplet] = &[
    // Amazon Alexa triggers: 1.2M total.
    AnchorApplet {
        trigger_service: "amazon_alexa",
        trigger: "say_a_phrase",
        action_service: "philips_hue",
        action: "turn_on_lights",
        adds_k: 400,
    },
    AnchorApplet {
        trigger_service: "amazon_alexa",
        trigger: "todo_item_added",
        action_service: "todoist",
        action: "add_task",
        adds_k: 300,
    },
    AnchorApplet {
        trigger_service: "amazon_alexa",
        trigger: "ask_whats_on_shopping_list",
        action_service: "ios_reminders",
        action: "set_reminder",
        adds_k: 180,
    },
    AnchorApplet {
        trigger_service: "amazon_alexa",
        trigger: "say_a_phrase",
        action_service: "philips_hue",
        action: "change_color",
        adds_k: 140,
    },
    AnchorApplet {
        trigger_service: "amazon_alexa",
        trigger: "shopping_item_added",
        action_service: "gmail",
        action: "send_email",
        adds_k: 120,
    },
    AnchorApplet {
        trigger_service: "amazon_alexa",
        trigger: "song_played",
        action_service: "google_sheets",
        action: "add_row",
        adds_k: 60,
    },
    // Philips Hue actions: 1.2M total (540K from Alexa above).
    AnchorApplet {
        trigger_service: "date_time",
        trigger: "sunset",
        action_service: "philips_hue",
        action: "turn_on_lights",
        adds_k: 250,
    },
    AnchorApplet {
        trigger_service: "date_time",
        trigger: "sunrise",
        action_service: "philips_hue",
        action: "turn_off_lights",
        adds_k: 160,
    },
    AnchorApplet {
        trigger_service: "weather_underground",
        trigger: "forecast_rain",
        action_service: "philips_hue",
        action: "change_color",
        adds_k: 150,
    },
    AnchorApplet {
        trigger_service: "ios_reminders",
        trigger: "reminder_due",
        action_service: "philips_hue",
        action: "blink_lights",
        adds_k: 100,
    },
    // Fitbit triggers: 200K.
    AnchorApplet {
        trigger_service: "fitbit",
        trigger: "daily_activity_summary",
        action_service: "google_sheets",
        action: "add_row",
        adds_k: 120,
    },
    AnchorApplet {
        trigger_service: "fitbit",
        trigger: "new_sleep_logged",
        action_service: "evernote",
        action: "create_note",
        adds_k: 80,
    },
    // Nest Thermostat triggers: 100K.
    AnchorApplet {
        trigger_service: "nest_thermostat",
        trigger: "temperature_rises_above",
        action_service: "todoist",
        action: "add_task",
        adds_k: 60,
    },
    AnchorApplet {
        trigger_service: "nest_thermostat",
        trigger: "temperature_drops_below",
        action_service: "android_device",
        action: "send_notification",
        adds_k: 40,
    },
    // Google Assistant triggers: 100K.
    AnchorApplet {
        trigger_service: "google_assistant",
        trigger: "say_a_phrase_ga",
        action_service: "harmony_hub",
        action: "start_activity",
        adds_k: 100,
    },
    // UP by Jawbone triggers: 100K.
    AnchorApplet {
        trigger_service: "up_by_jawbone",
        trigger: "new_sleep_up",
        action_service: "evernote",
        action: "create_note",
        adds_k: 60,
    },
    AnchorApplet {
        trigger_service: "up_by_jawbone",
        trigger: "new_workout_up",
        action_service: "google_sheets",
        action: "add_row",
        adds_k: 40,
    },
    // Nest Protect triggers: 70K.
    AnchorApplet {
        trigger_service: "nest_protect",
        trigger: "smoke_alarm",
        action_service: "phone_call",
        action: "call_me",
        adds_k: 50,
    },
    AnchorApplet {
        trigger_service: "nest_protect",
        trigger: "co_alarm",
        action_service: "android_sms",
        action: "send_sms",
        adds_k: 20,
    },
    // Automatic triggers: 60K.
    AnchorApplet {
        trigger_service: "automatic",
        trigger: "ignition_off",
        action_service: "google_calendar",
        action: "add_event",
        adds_k: 40,
    },
    AnchorApplet {
        trigger_service: "automatic",
        trigger: "check_engine",
        action_service: "android_sms",
        action: "send_sms",
        adds_k: 20,
    },
    // LIFX actions: 200K.
    AnchorApplet {
        trigger_service: "date_time",
        trigger: "sunset",
        action_service: "lifx",
        action: "turn_on_lifx",
        adds_k: 120,
    },
    AnchorApplet {
        trigger_service: "weather_underground",
        trigger: "forecast_rain",
        action_service: "lifx",
        action: "breathe_lifx",
        adds_k: 80,
    },
    // Nest Thermostat actions: 200K.
    AnchorApplet {
        trigger_service: "location",
        trigger: "exit_area",
        action_service: "nest_thermostat",
        action: "set_temperature",
        adds_k: 120,
    },
    AnchorApplet {
        trigger_service: "weather_underground",
        trigger: "forecast_rain",
        action_service: "nest_thermostat",
        action: "set_temperature",
        adds_k: 80,
    },
    // Harmony Hub actions: 200K total (100K from Google Assistant above).
    AnchorApplet {
        trigger_service: "location",
        trigger: "enter_area",
        action_service: "harmony_hub",
        action: "start_activity",
        adds_k: 70,
    },
    AnchorApplet {
        trigger_service: "google_calendar",
        trigger: "event_starts",
        action_service: "harmony_hub",
        action: "end_activity",
        adds_k: 30,
    },
    // WeMo Smart Plug actions: 100K.
    AnchorApplet {
        trigger_service: "location",
        trigger: "enter_area",
        action_service: "wemo",
        action: "turn_on",
        adds_k: 70,
    },
    AnchorApplet {
        trigger_service: "location",
        trigger: "exit_area",
        action_service: "wemo",
        action: "turn_off",
        adds_k: 30,
    },
    // Android Smartwatch actions: 100K.
    AnchorApplet {
        trigger_service: "nytimes",
        trigger: "new_story",
        action_service: "android_smartwatch",
        action: "send_a_notification",
        adds_k: 60,
    },
    AnchorApplet {
        trigger_service: "gmail",
        trigger: "new_email",
        action_service: "android_smartwatch",
        action: "send_a_notification",
        adds_k: 40,
    },
    // UP by Jawbone actions: 90K.
    AnchorApplet {
        trigger_service: "evernote",
        trigger: "note_created",
        action_service: "up_by_jawbone",
        action: "log_caffeine",
        adds_k: 50,
    },
    AnchorApplet {
        trigger_service: "weather_underground",
        trigger: "forecast_rain",
        action_service: "up_by_jawbone",
        action: "log_mood",
        adds_k: 40,
    },
];

/// Iterative proportional fitting of the 14×14 interaction matrix to
/// Table 1's trigger/action add-count marginals, from a seed encoding
/// Figure 2's qualitative hotspots. Returns fractions summing to 1.
pub fn interaction_matrix() -> [[f64; 14]; 14] {
    let mut m = [[1.0f64; 14]; 14];
    let boost = |m: &mut [[f64; 14]; 14], r: usize, c: usize, f: f64| {
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
    let rows: Vec<f64> = TABLE1.iter().map(|r| r.trigger_ac_pct / 100.0).collect();
    let cols: Vec<f64> = TABLE1.iter().map(|r| r.action_ac_pct / 100.0).collect();
    // Zero columns stay zero (Time & location exposes no real actions).
    for (j, c) in cols.iter().enumerate() {
        if *c == 0.0 {
            for row in m.iter_mut() {
                row[j] = 0.0;
            }
        }
    }
    for _ in 0..200 {
        // Scale rows.
        for i in 0..14 {
            let s: f64 = m[i].iter().sum();
            if s > 0.0 {
                for j in 0..14 {
                    m[i][j] *= rows[i] / s;
                }
            }
        }
        // Scale columns.
        for j in 0..14 {
            let s: f64 = (0..14).map(|i| m[i][j]).sum();
            if s > 0.0 {
                for row in m.iter_mut() {
                    row[j] *= cols[j] / s;
                }
            }
        }
    }
    m
}

/// A heavy-tail add-count sequence: `n` descending values summing to
/// exactly `total`, with the top 1% holding `head_share` and ranks 1%–10%
/// holding `mid_share` of the total (Figure 3's calibration).
///
/// Shape: a continuous piecewise power law `v(r) = C·r^-a`. The head
/// exponent is fixed; the mid and tail exponents are solved numerically so
/// the segment sums hit their budgets while values stay continuous (and
/// therefore globally monotone) across segment boundaries.
fn heavy_tail_sequence(n: usize, total: u64, head_share: f64, mid_share: f64) -> Vec<u64> {
    heavy_tail_sequence_with_knees(n, total, head_share, mid_share, n / 100, n / 10)
}

/// [`heavy_tail_sequence`] with explicit segment knees — used when part of
/// the population (the anchor applets) already occupies top ranks, so the
/// synthetic head must be smaller than a straight 1% of `n`.
fn heavy_tail_sequence_with_knees(
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

    // Solve an exponent b so that Σ_{k+1..m} v_k · (r/k)^-b = budget.
    // The sum is strictly decreasing in b, so bisection converges.
    fn solve_segment(values: &mut [f64], k: usize, m: usize, v_k: f64, budget: f64) {
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
    solve_segment(&mut values, k1, k2, v_k1, s2);
    let v_k2 = values[k2 - 1].max(1.0);
    solve_segment(&mut values, k2, n, v_k2, s3);

    // Cap any single item at 2.5% of the total, carrying the excess down
    // the ranking (a plateau at the cap). This keeps every item safely
    // below the largest interaction-matrix cell budget (~6% of adds) so
    // the greedy placement cannot blow a Table 1 marginal, while leaving
    // the top-1% share reachable even at reduced scale (64 items × 2.5%
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

impl Ecosystem {
    /// Generate an ecosystem.
    ///
    /// # Panics
    /// Panics if `config.scale < 0.02` (below that the heavy-tail segments
    /// degenerate).
    pub fn generate(config: GeneratorConfig) -> Ecosystem {
        assert!(config.scale >= 0.02, "scale too small");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let final_week = (GROWTH.snapshots - 1) as u32;

        // ---- 1. Services ----------------------------------------------
        let canonical_services = SCALE.services;
        let total_services = curve(
            canonical_services as f64,
            GROWTH.services,
            final_week as f64,
        )
        .round() as usize;
        let per_cat = apportion(
            canonical_services,
            &TABLE1.iter().map(|r| r.services_pct).collect::<Vec<_>>(),
        );

        let mut services: Vec<ServiceRecord> = Vec::with_capacity(total_services);
        let mut cat_fill = vec![0usize; 14];
        let push_service = |services: &mut Vec<ServiceRecord>,
                            cat_fill: &mut Vec<usize>,
                            name: String,
                            slug: String,
                            cat: Category| {
            cat_fill[cat.index() - 1] += 1;
            services.push(ServiceRecord {
                slug,
                name,
                category: cat,
                triggers: Vec::new(),
                actions: Vec::new(),
                created_week: 0,
            });
        };
        // Real anchors first (deduplicated across the two Table 3 lists).
        let mut seen = std::collections::HashSet::new();
        for a in model::TOP_IOT_TRIGGER_SERVICES
            .iter()
            .chain(model::TOP_IOT_ACTION_SERVICES)
        {
            if seen.insert(a.slug) {
                let cat = Category::from_index(a.category).expect("valid category");
                push_service(
                    &mut services,
                    &mut cat_fill,
                    a.service.into(),
                    a.slug.into(),
                    cat,
                );
            }
        }
        // Well-known non-IoT services.
        for (name, slug, cat) in FAMOUS {
            push_service(
                &mut services,
                &mut cat_fill,
                (*name).into(),
                (*slug).into(),
                *cat,
            );
        }
        // Synthetic fill to canonical counts per category.
        for (ci, cat) in ALL_CATEGORIES.iter().enumerate() {
            let mut idx = 0;
            while cat_fill[ci] < per_cat[ci] {
                let name = names::service_name(*cat, idx);
                idx += 1;
                let slug = names::slugify(&name);
                if services.iter().any(|s| s.slug == slug) {
                    continue;
                }
                push_service(&mut services, &mut cat_fill, name, slug, *cat);
            }
        }
        debug_assert_eq!(services.len(), canonical_services);
        // Post-canonical newcomers: random categories.
        let mut idx_extra = 1000;
        while services.len() < total_services {
            let cat = ALL_CATEGORIES[rng.gen_range(0..14)];
            let name = names::service_name(cat, idx_extra);
            idx_extra += 1;
            let slug = names::slugify(&name);
            if services.iter().any(|s| s.slug == slug) {
                continue;
            }
            push_service(&mut services, &mut cat_fill, name, slug, cat);
        }
        // Creation weeks: anchors+famous at week 0; synthetics spread so
        // the weekly service count follows the growth curve. The first
        // `count(0)` services exist at week 0.
        let order: Vec<usize> = {
            let fixed = seen.len() + FAMOUS.len();
            // Canonical services must all predate the canonical week, so
            // shuffle them among themselves; post-canonical extras follow.
            let mut canonical_rest: Vec<usize> = (fixed..canonical_services).collect();
            canonical_rest.shuffle(&mut rng);
            let mut extras: Vec<usize> = (canonical_services..services.len()).collect();
            extras.shuffle(&mut rng);
            (0..fixed).chain(canonical_rest).chain(extras).collect()
        };
        for (pos, &svc_idx) in order.iter().enumerate() {
            let mut w = 0u32;
            while (curve(canonical_services as f64, GROWTH.services, w as f64).round() as usize)
                < pos + 1
            {
                w += 1;
                if w >= final_week {
                    break;
                }
            }
            services[svc_idx].created_week = w;
        }

        // ---- 2. Triggers and actions per service ----------------------
        let trig_total =
            curve(SCALE.triggers as f64, GROWTH.triggers, final_week as f64).round() as usize;
        let act_total =
            curve(SCALE.actions as f64, GROWTH.actions, final_week as f64).round() as usize;
        // Anchor services get their real slots; everyone gets ≥1 of each.
        let anchor_slots = |slug: &str, as_trigger: bool| -> Vec<String> {
            let list = if as_trigger {
                model::TOP_IOT_TRIGGER_SERVICES
            } else {
                model::TOP_IOT_ACTION_SERVICES
            };
            list.iter()
                .find(|a| a.slug == slug)
                .map(|a| a.top_slots.iter().map(|(s, _)| s.to_string()).collect())
                .unwrap_or_default()
        };
        for s in services.iter_mut() {
            s.triggers = anchor_slots(&s.slug, true);
            s.actions = anchor_slots(&s.slug, false);
            if s.triggers.is_empty() {
                s.triggers.push(names::trigger_slug(s.category, 0));
            }
            if s.actions.is_empty() {
                s.actions.push(names::action_slug(s.category, 0));
            }
        }
        // Distribute the remainder with heavier weight on early services.
        let mut distribute = |is_trigger: bool, total: usize, rng: &mut StdRng| {
            let have: usize = services
                .iter()
                .map(|s| {
                    if is_trigger {
                        s.triggers.len()
                    } else {
                        s.actions.len()
                    }
                })
                .sum();
            let n = services.len();
            let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 2.0).powf(0.7)).collect();
            let wsum: f64 = weights.iter().sum();
            for _ in have..total {
                let mut u = rng.gen::<f64>() * wsum;
                let mut pick = 0;
                for (i, w) in weights.iter().enumerate() {
                    u -= w;
                    if u <= 0.0 {
                        pick = i;
                        break;
                    }
                }
                let s = &mut services[pick];
                if is_trigger {
                    let slug = names::trigger_slug(s.category, s.triggers.len());
                    s.triggers.push(slug);
                } else {
                    let slug = names::action_slug(s.category, s.actions.len());
                    s.actions.push(slug);
                }
            }
        };
        distribute(true, trig_total, &mut rng);
        distribute(false, act_total, &mut rng);

        // ---- 3 & 4. Applets --------------------------------------------
        let n_canonical = (SCALE.applets as f64 * config.scale).round() as usize;
        let n_total =
            curve(n_canonical as f64, GROWTH.add_count, final_week as f64).round() as usize;
        let total_adds = (SCALE.total_add_count as f64 * config.scale).round() as u64;

        let slug_index: std::collections::HashMap<String, usize> = services
            .iter()
            .enumerate()
            .map(|(i, s)| (s.slug.clone(), i))
            .collect();

        // Anchor applets (scaled).
        let mut applets: Vec<AppletRecord> = Vec::with_capacity(n_total);
        let mut anchor_adds_total = 0u64;
        let mut cell_spent = [[0u64; 14]; 14];
        for aa in ANCHOR_APPLETS {
            let adds = ((aa.adds_k * 1000) as f64 * config.scale).round() as u64;
            anchor_adds_total += adds;
            let t_cat = services[slug_index[aa.trigger_service]].category;
            let a_cat = services[slug_index[aa.action_service]].category;
            cell_spent[t_cat.index() - 1][a_cat.index() - 1] += adds;
            applets.push(AppletRecord {
                id: 0, // assigned later
                name: format!("If {} then {}", aa.trigger, aa.action),
                trigger_service: aa.trigger_service.into(),
                trigger: aa.trigger.into(),
                action_service: aa.action_service.into(),
                action: aa.action.into(),
                author: Author::User(0), // reassigned later
                add_count: adds,
                created_week: 0,
                steps: Vec::new(),
            });
        }

        // Synthetic add-count sequence hitting the global tail targets.
        let n_synth = n_canonical.saturating_sub(applets.len());
        let synth_total = total_adds.saturating_sub(anchor_adds_total);
        // Global head/mid shares, net of the anchors' contribution,
        // re-expressed as fractions of the synthetic budget.
        let head_global =
            (TAILS.applet_top1_share * total_adds as f64 - anchor_adds_total as f64).max(0.0);
        let mid_global = (TAILS.applet_top10_share - TAILS.applet_top1_share) * total_adds as f64;
        // The anchors already occupy top-of-ranking slots, so the
        // synthetic head/mid segments shrink accordingly: together with
        // the anchors they must fill exactly the top 1% / 10% of the
        // canonical population.
        let n_anchors = applets.len();
        let k1 = (n_canonical / 100).saturating_sub(n_anchors).max(1);
        let k2 = (n_canonical / 10).saturating_sub(n_anchors).max(k1);
        let seq = if synth_total > 0 {
            heavy_tail_sequence_with_knees(
                n_synth,
                synth_total,
                head_global / synth_total as f64,
                mid_global / synth_total as f64,
                k1,
                k2,
            )
        } else {
            vec![0; n_synth]
        };

        // Budgeted cell assignment.
        let j = interaction_matrix();
        // The synthetic budget matrix: re-fit J (as the structural seed) to
        // the *residual* marginals — Table 1's row/column targets minus what
        // the anchor applets already consumed. Subtracting per cell and
        // clamping would leak anchor overshoot into neighbouring cells and
        // distort the measured marginals; marginal-level IPF cannot.
        let mut budget = j;
        let t = total_adds as f64;
        let res_rows: Vec<f64> = TABLE1
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let spent: u64 = cell_spent[r].iter().sum();
                (row.trigger_ac_pct / 100.0 * t - spent as f64).max(0.0)
            })
            .collect();
        let res_cols: Vec<f64> = TABLE1
            .iter()
            .enumerate()
            .map(|(c, col)| {
                let spent: u64 = (0..14).map(|r| cell_spent[r][c]).sum();
                (col.action_ac_pct / 100.0 * t - spent as f64).max(0.0)
            })
            .collect();
        for _ in 0..200 {
            for r in 0..14 {
                let s: f64 = budget[r].iter().sum();
                if s > 0.0 {
                    for c in 0..14 {
                        budget[r][c] *= res_rows[r] / s;
                    }
                }
            }
            for c in 0..14 {
                let s: f64 = (0..14).map(|r| budget[r][c]).sum();
                if s > 0.0 {
                    for row in budget.iter_mut() {
                        row[c] *= res_cols[c] / s;
                    }
                }
            }
        }
        // Per-category service pools for synthetic assignment; anchors are
        // excluded on their anchored side so Table 3 stays exact.
        let anchored_trigger: std::collections::HashSet<&str> = model::TOP_IOT_TRIGGER_SERVICES
            .iter()
            .map(|a| a.slug)
            .collect();
        let anchored_action: std::collections::HashSet<&str> = model::TOP_IOT_ACTION_SERVICES
            .iter()
            .map(|a| a.slug)
            .collect();
        // Two pool tiers per category: week-0 services (which host the
        // popular applets — a popular applet must be old, so its services
        // must predate the crawl) and all canonical-era services.
        let mut trig_pool0: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 14];
        let mut act_pool0: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 14];
        let mut trig_pool: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 14];
        let mut act_pool: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 14];
        for (i, s) in services.iter().enumerate() {
            // Post-canonical services host only post-canonical applets.
            if s.created_week > GROWTH.week_canonical as u32 {
                continue;
            }
            let ci = s.category.index() - 1;
            if !anchored_trigger.contains(s.slug.as_str()) {
                let rank = trig_pool[ci].len() + 1;
                let w = 1.0 / (rank as f64).powf(0.9);
                trig_pool[ci].push((i, w));
                if s.created_week == 0 {
                    trig_pool0[ci].push((i, w));
                }
            }
            if !anchored_action.contains(s.slug.as_str()) {
                let rank = act_pool[ci].len() + 1;
                let w = 1.0 / (rank as f64).powf(0.9);
                act_pool[ci].push((i, w));
                if s.created_week == 0 {
                    act_pool0[ci].push((i, w));
                }
            }
        }
        let pick_weighted = |pool: &[(usize, f64)], rng: &mut StdRng| -> Option<usize> {
            if pool.is_empty() {
                return None;
            }
            let wsum: f64 = pool.iter().map(|(_, w)| w).sum();
            let mut u = rng.gen::<f64>() * wsum;
            for (i, w) in pool {
                u -= w;
                if u <= 0.0 {
                    return Some(*i);
                }
            }
            pool.last().map(|(i, _)| *i)
        };

        // While budget remains, every applet is placed greedily into the
        // cell with the most remaining budget (bin-packing style), so no
        // single mega applet can blow a category's share; once budgets are
        // exhausted by rounding, applets sample a cell from the raw matrix.
        for (k, &adds) in seq.iter().enumerate() {
            let total_budget: f64 = budget.iter().flatten().sum();
            let (mut tr, mut ac) = (6usize, 8usize); // cat 7 → cat 9 default
            if total_budget > 1.0 {
                // Best-fit: the fullest cell that can absorb the whole
                // item; fall back to the fullest cell overall (bounded
                // overshoot ≤ one item).
                let mut best_fit = f64::MIN;
                let mut best_any = f64::MIN;
                let mut any = (6usize, 8usize);
                let mut fits = false;
                for r in 0..14 {
                    for c in 0..14 {
                        let b = budget[r][c];
                        if b > best_any {
                            best_any = b;
                            any = (r, c);
                        }
                        if b >= adds as f64 && b > best_fit {
                            best_fit = b;
                            tr = r;
                            ac = c;
                            fits = true;
                        }
                    }
                }
                if !fits {
                    tr = any.0;
                    ac = any.1;
                }
            } else {
                let mut u = rng.gen::<f64>();
                'outer: for r in 0..14 {
                    for c in 0..14 {
                        u -= j[r][c];
                        if u <= 0.0 {
                            tr = r;
                            ac = c;
                            break 'outer;
                        }
                    }
                }
            }
            budget[tr][ac] = (budget[tr][ac] - adds as f64).max(0.0);
            // The popular 10% live on services that already existed at
            // week 0, keeping the longitudinal add-count growth clean.
            let hot = k < seq.len() / 10;
            let (tp, ap) = if hot && !trig_pool0[tr].is_empty() && !act_pool0[ac].is_empty() {
                (&trig_pool0[tr], &act_pool0[ac])
            } else {
                (&trig_pool[tr], &act_pool[ac])
            };
            let ts = pick_weighted(tp, &mut rng).unwrap_or(0);
            let as_ = pick_weighted(ap, &mut rng).unwrap_or(0);
            let t_slug_count = services[ts].triggers.len();
            let a_slug_count = services[as_].actions.len();
            let t_pick = (rng.gen::<f64>().powi(2) * t_slug_count as f64) as usize;
            let a_pick = (rng.gen::<f64>().powi(2) * a_slug_count as f64) as usize;
            let trigger = services[ts].triggers[t_pick.min(t_slug_count - 1)].clone();
            let action = services[as_].actions[a_pick.min(a_slug_count - 1)].clone();
            applets.push(AppletRecord {
                id: 0,
                name: format!("If {} then {}", trigger, action),
                trigger_service: services[ts].slug.clone(),
                trigger,
                action_service: services[as_].slug.clone(),
                action,
                author: Author::User(0),
                add_count: adds,
                created_week: 0,
                steps: Vec::new(),
            });
        }

        // Post-canonical newcomers: small applets created after week 18.
        while applets.len() < n_total {
            let tr = rng.gen_range(0..14);
            let ac = loop {
                let c = rng.gen_range(0..14);
                if c != 11 {
                    break c; // cat 12 has no actions
                }
            };
            let ts = pick_weighted(&trig_pool[tr], &mut rng).unwrap_or(0);
            let as_ = pick_weighted(&act_pool[ac], &mut rng).unwrap_or(0);
            let trigger = services[ts].triggers[0].clone();
            let action = services[as_].actions[0].clone();
            applets.push(AppletRecord {
                id: 0,
                name: format!("If {} then {}", trigger, action),
                trigger_service: services[ts].slug.clone(),
                trigger,
                action_service: services[as_].slug.clone(),
                action,
                author: Author::User(0),
                add_count: 1 + rng.gen_range(0..20),
                created_week: rng.gen_range(GROWTH.week_canonical as u32 + 1..=24),
                steps: Vec::new(),
            });
        }

        // ---- 5. Authors -------------------------------------------------
        // Sort canonical applets by add count (descending) for band math.
        let mut by_adds: Vec<usize> = (0..n_canonical.min(applets.len())).collect();
        by_adds.sort_by(|&a, &b| applets[b].add_count.cmp(&applets[a].add_count));
        // Service-made band: 2% of applets holding ≈14% of adds. Slide a
        // contiguous band down the ranking until its share fits.
        let svc_count = ((1.0 - TAILS.user_made_applets) * n_canonical as f64) as usize;
        let svc_target = (1.0 - TAILS.user_made_adds) * total_adds as f64;
        let mut start = 0usize;
        let mut band_sum: u64 = by_adds
            .iter()
            .take(svc_count)
            .map(|&i| applets[i].add_count)
            .sum();
        while start + svc_count < by_adds.len() && band_sum as f64 > svc_target {
            band_sum -= applets[by_adds[start]].add_count;
            band_sum += applets[by_adds[start + svc_count]].add_count;
            start += 1;
        }
        for &i in by_adds.iter().skip(start).take(svc_count) {
            applets[i].author = Author::Service(applets[i].trigger_service.clone());
        }
        // User quotas: heavy-tailed so top 1% of users hold 18% and top
        // 10% hold 49% of user-made applets.
        let user_made: Vec<usize> = (0..applets.len())
            .filter(|&i| applets[i].author.is_user())
            .collect();
        let n_users = ((SCALE.user_channels as f64) * config.scale).round() as usize;
        let n_users = n_users.max(1).min(user_made.len().max(1));
        let quotas = heavy_tail_sequence(
            n_users,
            user_made.len() as u64,
            TAILS.user_top1_share,
            TAILS.user_top10_share - TAILS.user_top1_share,
        );
        let mut shuffled = user_made.clone();
        shuffled.shuffle(&mut rng);
        let mut cursor = 0usize;
        for (uid, &q) in quotas.iter().enumerate() {
            for _ in 0..q {
                if cursor >= shuffled.len() {
                    break;
                }
                applets[shuffled[cursor]].author = Author::User(uid as u32 + 1);
                cursor += 1;
            }
        }
        // Leftovers from rounding go to the last user.
        while cursor < shuffled.len() {
            applets[shuffled[cursor]].author = Author::User(n_users as u32);
            cursor += 1;
        }

        // ---- 6. Creation weeks and ids ----------------------------------
        // Older applets are generally more popular: creation order follows
        // the add-count order with local shuffling for realism.
        let mut creation_order: Vec<usize> = by_adds.clone();
        let block = (creation_order.len() / 20).max(1);
        for chunk in creation_order.chunks_mut(block) {
            chunk.shuffle(&mut rng);
        }
        for (pos, &i) in creation_order.iter().enumerate() {
            let mut w = 0u32;
            while (curve(n_canonical as f64, GROWTH.add_count, w as f64).round() as usize) < pos + 1
            {
                w += 1;
                if w > GROWTH.week_canonical as u32 {
                    break;
                }
            }
            // An applet cannot precede its services.
            let ts_week = services[slug_index[&applets[i].trigger_service]].created_week;
            let as_week = services[slug_index[&applets[i].action_service]].created_week;
            applets[i].created_week = w.max(ts_week).max(as_week);
        }
        // Unique six-digit-style page ids.
        let id_span = ((n_total as f64) / 0.375).ceil() as u32;
        let mut ids: Vec<u32> = rand::seq::index::sample(&mut rng, id_span as usize, n_total)
            .into_iter()
            .map(|v| crate::crawler::APPLET_ID_BASE + v as u32)
            .collect();
        ids.sort_unstable();
        ids.shuffle(&mut rng);
        for (a, id) in applets.iter_mut().zip(ids) {
            a.id = id;
        }

        // ---- 7. Multi-step DAGs (opt-in) --------------------------------
        // Assign Zapier-style execution DAGs to a share of applets. Drawn
        // on a derived stream and guarded so the default share of 0.0
        // performs zero extra draws and emits a byte-identical ecosystem.
        if config.multi_step_share > 0.0 {
            let share = config.multi_step_share.clamp(0.0, 1.0);
            let mut ms_rng = StdRng::seed_from_u64(derive_seed(config.seed, MULTI_STEP_STREAM));
            for a in applets.iter_mut() {
                if ms_rng.gen::<f64>() < share {
                    a.steps = multi_step_shape(ms_rng.gen::<f64>(), &a.action);
                }
            }
        }

        Ecosystem {
            config,
            services,
            applets,
            final_week,
        }
    }

    /// The services week `week` sees, in catalog order, each with the
    /// length of the trigger and action prefix it exposes (every service
    /// has one of each, so a prefix is never empty).
    ///
    /// Triggers/actions accumulate over time: expose per-service slot
    /// prefixes whose global totals follow the published growth curves.
    /// Apportioning globally (largest remainder, floor 1, cap at the final
    /// count) avoids the per-service ceil bias a local rule has.
    fn services_in_week(&self, week: u32) -> Vec<(&ServiceRecord, usize, usize)> {
        let services: Vec<&ServiceRecord> = self
            .services
            .iter()
            .filter(|s| s.created_week <= week)
            .collect();
        let prefixes = |target: usize, pick: fn(&ServiceRecord) -> usize| -> Vec<usize> {
            let lens: Vec<usize> = services.iter().map(|s| pick(s)).collect();
            let capacity: usize = lens.iter().sum();
            let target = target.min(capacity).max(services.len());
            // Start everyone at 1, then deal remaining slots round-robin in
            // proportion to capacity (deterministic largest-remainder).
            let spare_total = target - services.len();
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
        let services = services.into_iter().zip(prefixes);
        services.map(|(s, (t, a))| (s, t, a)).collect()
    }

    /// The weekly snapshot view: entities created by `week`, with add
    /// counts scaled back along the growth curve.
    pub fn snapshot(&self, week: u32) -> Snapshot {
        let week = week.min(self.final_week);
        let services = self.services_in_week(week).into_iter();
        let services = services
            .map(|(s, triggers, actions)| {
                let mut s = s.clone();
                s.triggers.truncate(triggers);
                s.actions.truncate(actions);
                s
            })
            .collect();
        let add_count = add_count_in_week(week);
        let applets: Vec<AppletRecord> = self
            .applets
            .iter()
            .filter_map(|a| {
                Some(AppletRecord {
                    add_count: add_count(a)?,
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
            assert_eq!(b.name, m.name);
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
        let seq = heavy_tail_sequence(n, total, 0.841, 0.135);
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
                .filter(|a| a.trigger_service == anchor.slug)
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
                .filter(|a| a.action_service == anchor.slug)
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
