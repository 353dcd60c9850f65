//! The paper's tables and figures, each regenerated and checked against one
//! table of targets.
//!
//! [`ARTIFACTS`] names one function per artifact: it renders the artifact's
//! text and returns the quantities it measured. [`PAPER_TARGETS`] holds one
//! row per checked quantity: the paper's value, the band of measured values
//! that counts as reproducing it, and the catalog scales at which the band
//! holds. `ifttt-lab paper [scale]` writes every artifact to
//! `target/paper_out/`, prints one verdict per row and exits non-zero on a
//! miss; `tests/paper_reproduction.rs` asserts the same rows at scale 0.02.
//!
//! A paper value is written once: in a row below, or in the model or fleet
//! constant the row reads (`ecosystem::model`, `ecosystem::taxonomy::TABLE1`,
//! [`fleet::PAPER_T2A_QUARTILES_SECS`]). The bands are pinned at the default
//! seed (2017); EXPERIMENTS.md records where a band is wider than the paper's
//! number.

use crate::Lab;
use analysis::tables::TopEntry;
use analysis::{rank_series, render, top_share, GrowthReport, HeadlineIot, Heatmap};
use analysis::{Table1Report, Table2Report, Table3Report, UserContribution};
use ecosystem::model::TOP_IOT_ACTION_SERVICES as TOP_ACTIONS;
use ecosystem::model::TOP_IOT_TRIGGER_SERVICES as TOP_TRIGGERS;
use ecosystem::model::{Table3Anchor, GROWTH, OURS_2017, TAILS};
use ecosystem::taxonomy::{Table1Row, TABLE1};
use engine::{Applet, EngineConfig, PollPolicy, RuntimeLoopConfig};
use fleet::{FleetConfig, FleetPolicy, Histogram, PAPER_T2A_QUARTILES_SECS};
use simnet::time::SimDuration;
use std::ops::RangeInclusive;
use testbed::applets::{paper_applet, ServiceVariant, ALL_PAPER_APPLETS};
use testbed::experiments::{
    concurrent_experiment, explicit_loop_experiment, implicit_loop_experiment, measure_t2a,
    normal_usage_experiment, run_workload, sequential_experiment, timeline_experiment, T2aScenario,
};
use testbed::permissions::{paper_applets_excess, Granularity};
use testbed::{PaperApplet, T2aReport};

/// Runs per applet behind Figure 4 (the paper's count).
pub const FIG4_RUNS: usize = 50;
/// Runs per scenario behind Figure 5 (the paper's count).
pub const FIG5_RUNS: usize = 20;
/// Trigger activations behind Figure 6.
pub const FIG6_ACTIVATIONS: usize = 60;
/// Runs behind Figure 7 (the paper's 20 tests).
pub const FIG7_RUNS: usize = 20;
/// Users in the fleet-scale Figure 4 run.
pub const FLEET_USERS: u64 = 10_000;
/// Runs per arm of the §6 realtime-hint ablation.
pub const REALTIME_RUNS: usize = 10;
/// Runs per arm of the §6 smart-polling ablation.
pub const SMART_RUNS: usize = 8;
/// How long a §4 loop world runs after its seed email.
const LOOP_WINDOW: SimDuration = SimDuration::from_secs(120);
/// Normal emails in the loop detector's false-positive control.
const NORMAL_EMAILS: usize = 4;
/// The §6 runtime detector: more than five executions in two minutes.
const LOOP_DETECTOR: RuntimeLoopConfig = RuntimeLoopConfig {
    max_executions: 5,
    window: SimDuration::from_secs(120),
    auto_disable: true,
};

/// What the paper says about a quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Paper {
    /// A published number.
    Is(f64),
    /// A statement without a number; the row's band is [`Band::Within`].
    Says(&'static str),
}

/// The measured values that reproduce a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// `paper ± d`.
    Abs(f64),
    /// `paper × (1 ± r)`.
    Rel(f64),
    /// `lo ..= hi`.
    Within(f64, f64),
}

/// One row of [`PAPER_TARGETS`].
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// The artifact the quantity is read from: a name in [`ARTIFACTS`].
    pub artifact: &'static str,
    /// The quantity, as the artifact's function names it.
    pub quantity: &'static str,
    pub paper: Paper,
    pub band: Band,
    /// Catalog scales at which the band holds; at any other scale the row
    /// is skipped.
    pub scales: RangeInclusive<f64>,
}

impl Target {
    /// The band as `(lo, hi)`. A relative or absolute band around a
    /// statement is empty, so such a row can only miss.
    pub fn bounds(&self) -> (f64, f64) {
        match (self.band, self.paper) {
            (Band::Within(lo, hi), _) => (lo, hi),
            (Band::Abs(d), Paper::Is(v)) => (v - d, v + d),
            (Band::Rel(r), Paper::Is(v)) => (v - (v * r).abs(), v + (v * r).abs()),
            (_, Paper::Says(_)) => (f64::NAN, f64::NAN),
        }
    }
}

/// Every catalog scale `paper` accepts: the generator's smallest to the
/// paper's ~320K applets.
pub const SCALES: RangeInclusive<f64> = 0.02..=1.0;

const fn row(artifact: &'static str, quantity: &'static str, paper: Paper, band: Band) -> Target {
    Target {
        artifact,
        quantity,
        paper,
        band,
        scales: SCALES,
    }
}

use Band::{Abs, Rel, Within};
use Paper::{Is, Says};

const INF: f64 = f64::INFINITY;
const T2A: (f64, f64, f64) = PAPER_T2A_QUARTILES_SECS;

/// The paper's checked quantities, one row each.
#[rustfmt::skip]
pub const PAPER_TARGETS: &[Target] = &[
    // §3: the ecosystem tables and figures.
    row("table1_service_breakdown", "IoT services", Is(0.517), Abs(0.01)),
    row("table1_service_breakdown", "IoT usage", Is(0.16), Abs(0.02)),
    row("table1_service_breakdown", "largest cell gap (points)", Is(0.0), Abs(2.0)),
    row("table2_dataset_compare", "channels", Is(OURS_2017.channels as f64), Abs(0.0)),
    row("table2_dataset_compare", "triggers", Is(OURS_2017.triggers as f64), Abs(0.0)),
    row("table2_dataset_compare", "actions", Is(OURS_2017.actions as f64), Abs(0.0)),
    row("table2_dataset_compare", "snapshots", Is(OURS_2017.snapshots as f64), Abs(0.0)),
    row("table2_dataset_compare", "applets / scale", Is(OURS_2017.applets as f64), Rel(0.01)),
    row("table2_dataset_compare", "adoptions / scale", Is(OURS_2017.adoptions as f64), Rel(0.05)),
    row("table2_dataset_compare", "contributors / scale", Is(OURS_2017.contributors as f64), Rel(0.06)),
    row("table3_top_iot", "paper's triggers in top 7", Is(TOP_TRIGGERS.len() as f64), Abs(0.0)),
    row("table3_top_iot", "paper's actions in top 7", Is(TOP_ACTIONS.len() as f64), Abs(0.0)),
    row("table3_top_iot", "top trigger adds / scale", Is(TOP_TRIGGERS[0].add_count as f64), Rel(0.05)),
    row("table3_top_iot", "top action adds / scale", Is(TOP_ACTIONS[0].add_count as f64), Rel(0.05)),
    row("fig2_heatmap", "row sums vs Table 1", Is(0.0), Abs(0.03)),
    row("fig2_heatmap", "column sums vs Table 1", Is(0.0), Abs(0.03)),
    row("fig3_addcount_tail", "top 1% share of adds", Is(TAILS.applet_top1_share), Within(0.80, 0.92)),
    row("fig3_addcount_tail", "top 10% share of adds", Is(TAILS.applet_top10_share), Abs(0.02)),
    row("growth_users", "services growth", Is(GROWTH.services), Abs(0.03)),
    row("growth_users", "triggers growth", Is(GROWTH.triggers), Abs(0.03)),
    row("growth_users", "actions growth", Is(GROWTH.actions), Abs(0.03)),
    row("growth_users", "add count growth", Is(GROWTH.add_count), Abs(0.06)),
    row("growth_users", "user-made applets", Is(TAILS.user_made_applets), Abs(0.01)),
    row("growth_users", "user-made adds", Is(TAILS.user_made_adds), Abs(0.03)),
    row("growth_users", "top 1% of users' applets", Is(TAILS.user_top1_share), Abs(0.03)),
    row("growth_users", "top 10% of users' applets", Is(TAILS.user_top10_share), Abs(0.04)),
    // §4: the testbed experiments, and Figure 4 at fleet scale.
    row("fig4_t2a_official", "A1-A4 p25 (s)", Is(T2A.0), Rel(0.3)),
    row("fig4_t2a_official", "A1-A4 p50 (s)", Is(T2A.1), Rel(0.3)),
    row("fig4_t2a_official", "A1-A4 p75 (s)", Is(T2A.2), Rel(0.3)),
    row("fig4_t2a_official", "A1-A4 max (s)", Is(900.0), Rel(0.35)),
    row("fig4_t2a_official", "A5-A7 p50 (s)", Says("seconds"), Within(0.0, 10.0)),
    row("fig4_t2a_fleet", "p25 (s)", Is(T2A.0), Rel(0.15)),
    row("fig4_t2a_fleet", "p50 (s)", Is(T2A.1), Rel(0.15)),
    row("fig4_t2a_fleet", "p75 (s)", Is(T2A.2), Rel(0.15)),
    row("fig5_t2a_substitution", "E1 p50 (s)", Says("minutes, as official"), Within(30.0, 300.0)),
    row("fig5_t2a_substitution", "E2 p50 (s)", Says("minutes, as E1"), Within(30.0, 300.0)),
    row("fig5_t2a_substitution", "E3 p50 (s)", Says("1-2 s"), Within(0.0, 5.0)),
    row("table5_timeline", "proxy sees the trigger (s)", Is(0.04), Within(0.0, 1.0)),
    row("table5_timeline", "service confirms (s)", Is(0.16), Within(0.0, 1.0)),
    // One draw from the poll-gap distribution, so its range is the band.
    row("table5_timeline", "engine polls (s)", Is(81.1), Within(10.0, 900.0)),
    row("table5_timeline", "poll to action done (s)", Is(83.8 - 81.1), Within(0.0, 5.0)),
    row("fig6_sequential", "clusters", Is(3.0), Abs(1.0)),
    row("fig6_sequential", "cluster 1 starts (s)", Is(119.0), Rel(0.25)),
    row("fig6_sequential", "cluster 2 starts (s)", Is(247.0), Rel(0.25)),
    row("fig6_sequential", "cluster 3 starts (s)", Is(351.0), Rel(0.25)),
    row("fig6_sequential", "actions delivered", Says("one per trigger"), Within(FIG6_ACTIVATIONS as f64, FIG6_ACTIVATIONS as f64)),
    // Both signs occur; one backlog gap (at most 15 min) bounds the spread.
    row("fig7_concurrent", "difference min (s)", Is(-60.0), Within(-900.0, -1.0)),
    row("fig7_concurrent", "difference max (s)", Is(140.0), Within(1.0, 900.0)),
    row("loops", "explicit: actions", Says("unbounded"), Within(30.0, INF)),
    row("loops", "explicit: rejected statically", Says("yes"), Within(1.0, 1.0)),
    // The implicit loop's coupling lives outside IFTTT: only the runtime
    // detector sees it.
    row("loops", "implicit: rejected statically", Says("no"), Within(0.0, 0.0)),
    row("loops", "implicit: disabled at runtime", Says("yes"), Within(1.0, 1.0)),
    row("loops", "implicit: actions", Says("a handful"), Within(1.0, 6.0)),
    row("loops", "normal usage: flagged", Says("no"), Within(0.0, 0.0)),
    // §6: the recommendations, each as an ablation.
    row("workload", "push burst over poll's", Says("push is burstier"), Within(2.0, INF)),
    row("workload", "push actions over poll's", Says("both deliver"), Within(1.0, 1.0)),
    row("ablation_recommendations", "A5 speed-up from hints", Says("push cuts T2A"), Within(10.0, INF)),
    row("ablation_recommendations", "hot applet, smart over baseline", Says("hot applets speed up"), Within(0.0, 0.5)),
    row("ablation_recommendations", "hot applet polls, smart over baseline", Says("budget on top applets"), Within(1.0, INF)),
    row("ablation_recommendations", "cold applet polls, smart over baseline", Says("cold applets pay"), Within(0.0, 1.0)),
    row("ablation_recommendations", "excess grants, service-level", Says("all of each service's"), Within(1.0, INF)),
    row("ablation_recommendations", "excess grants, per-capability", Says("none"), Within(0.0, 0.0)),
];

/// One regenerated artifact: its text and the quantities it measured.
#[derive(Debug, Clone)]
pub struct Artifact {
    pub text: String,
    pub measured: Vec<(&'static str, f64)>,
}

impl Artifact {
    /// `text`, then one line per measured quantity.
    fn new(mut text: String, measured: &[(&'static str, f64)]) -> Artifact {
        text.push('\n');
        for (quantity, value) in measured {
            text.push_str(&format!("{quantity}: {}\n", num(*value)));
        }
        Artifact {
            text,
            measured: measured.to_vec(),
        }
    }

    /// The value measured for `quantity`, if the artifact measured it (a
    /// NaN, such as the start of a cluster that never formed, is not).
    pub fn get(&self, quantity: &str) -> Option<f64> {
        let measured = |&(q, v): &(&str, f64)| (q == quantity && !v.is_nan()).then_some(v);
        self.measured.iter().find_map(measured)
    }
}

/// Renders one artifact and measures its quantities.
pub type Regenerate = fn(&Lab) -> Artifact;

/// Every artifact `paper` writes, by file stem, with the function that
/// regenerates it.
pub const ARTIFACTS: &[(&str, Regenerate)] = &[
    ("table1_service_breakdown", table1),
    ("table2_dataset_compare", table2),
    ("table3_top_iot", table3),
    ("table5_timeline", table5),
    ("fig2_heatmap", fig2),
    ("fig3_addcount_tail", fig3),
    ("fig4_t2a_official", fig4),
    ("fig4_t2a_fleet", fig4_fleet),
    ("fig5_t2a_substitution", fig5),
    ("fig6_sequential", fig6),
    ("fig7_concurrent", fig7),
    ("growth_users", growth_users),
    ("loops", loops),
    ("workload", workload),
    ("ablation_recommendations", ablations),
];

/// Regenerate every artifact in [`ARTIFACTS`] order.
pub fn regenerate(lab: &Lab) -> Vec<(&'static str, Artifact)> {
    ARTIFACTS.iter().map(|(name, f)| (*name, f(lab))).collect()
}

/// Table 1: the service-category breakdown and the IoT headline.
pub fn table1(lab: &Lab) -> Artifact {
    let snapshot = lab.snapshot();
    let (t1, h) = (Table1Report::of(snapshot), HeadlineIot::of(snapshot));
    let gap = t1.rows.iter().zip(&TABLE1).fold(0.0_f64, |g, (m, p)| {
        g.max((m.services * 100.0 - p.services_pct).abs())
            .max((m.trigger_ac * 100.0 - p.trigger_ac_pct).abs())
            .max((m.action_ac * 100.0 - p.action_ac_pct).abs())
    });
    let measured = [
        ("IoT services", t1.iot_service_share()),
        ("IoT usage", h.usage_share),
        ("largest cell gap (points)", gap),
    ];
    Artifact::new(t1.render(), &measured)
}

/// Table 2: the dataset, counted over all 25 crawl weeks.
pub fn table2(lab: &Lab) -> Artifact {
    let t2 = Table2Report::of(&lab.ecosystem().week_counts());
    let per_scale = |n: u64| n as f64 / lab.scale;
    let (applets, users) = (t2.measured_applets as u64, t2.measured_contributors as u64);
    let measured = [
        ("channels", t2.measured_channels as f64),
        ("triggers", t2.measured_triggers as f64),
        ("actions", t2.measured_actions as f64),
        ("snapshots", t2.measured_snapshots as f64),
        ("applets / scale", per_scale(applets)),
        ("adoptions / scale", per_scale(t2.measured_adoptions)),
        ("contributors / scale", per_scale(users)),
    ];
    Artifact::new(t2.render(), &measured)
}

/// Table 3: the top IoT services, triggers and actions.
pub fn table3(lab: &Lab) -> Artifact {
    let t3 = Table3Report::of(lab.snapshot(), 7);
    let found = |paper: &[Table3Anchor], top: &[TopEntry]| {
        let listed = |a: &&Table3Anchor| top.iter().any(|e| e.name == a.slug);
        paper.iter().filter(listed).count() as f64
    };
    let first = |top: &[TopEntry]| top.first().map_or(0.0, |e| e.add_count as f64 / lab.scale);
    let (triggers, actions) = (&t3.top_trigger_services, &t3.top_action_services);
    let measured = [
        ("paper's triggers in top 7", found(TOP_TRIGGERS, triggers)),
        ("paper's actions in top 7", found(TOP_ACTIONS, actions)),
        ("top trigger adds / scale", first(triggers)),
        ("top action adds / scale", first(actions)),
    ];
    Artifact::new(t3.render(), &measured)
}

/// Table 5: one run of A2 under E2, as each vantage point saw it.
pub fn table5(lab: &Lab) -> Artifact {
    let t5 = timeline_experiment(lab.seed);
    let at = |needle: &str| {
        let mut found = t5.entries.iter().filter(|(_, d)| d.contains(needle));
        found.next().map_or(f64::NAN, |(t, _)| *t)
    };
    let poll = at("polls");
    let done = at("confirms that the action");
    let measured = [
        ("proxy sees the trigger (s)", at("observes the trigger")),
        ("service confirms (s)", at("confirmation")),
        ("engine polls (s)", poll),
        ("poll to action done (s)", done - poll),
    ];
    Artifact::new(t5.render(), &measured)
}

/// Figure 2: the trigger × action category heat map.
pub fn fig2(lab: &Lab) -> Artifact {
    let heatmap = Heatmap::of(lab.snapshot());
    let gap = |shares: Vec<f64>, pct: fn(&Table1Row) -> f64| {
        let gaps = shares.iter().zip(&TABLE1);
        gaps.fold(0.0, |g: f64, (s, p)| g.max((s - pct(p) / 100.0).abs()))
    };
    let rows = gap(heatmap.row_shares(), |p| p.trigger_ac_pct);
    let cols = gap(heatmap.col_shares(), |p| p.action_ac_pct);
    let measured = [
        ("row sums vs Table 1", rows),
        ("column sums vs Table 1", cols),
    ];
    let hot = heatmap.hottest(8).into_iter();
    let hot = hot.map(|(t, a, share)| format!("hot cell {t:>2} → {a:<2} {:.1}%\n", share * 100.0));
    Artifact::new(heatmap.render() + &hot.collect::<String>(), &measured)
}

/// Figure 3: applet add count against rank, and the tail's shares.
pub fn fig3(lab: &Lab) -> Artifact {
    let adds: Vec<u64> = lab.snapshot().applets.iter().map(|a| a.add_count).collect();
    let mut text = String::from("# rank\tadd_count (log-log series)\n");
    for p in rank_series(&adds, 25) {
        text.push_str(&format!("{}\t{}\n", p.rank, p.value));
    }
    let measured = [
        ("top 1% share of adds", top_share(&adds, 0.01)),
        ("top 10% share of adds", top_share(&adds, 0.10)),
    ];
    Artifact::new(text, &measured)
}

/// Each report's line, then each report's CDF.
fn render_t2a(reports: &[T2aReport]) -> String {
    let lines = reports.iter().map(|r| r.render_line() + "\n");
    let cdfs = reports.iter().map(|r| r.render_cdf(10));
    lines.chain(["\n".to_string()]).chain(cdfs).collect()
}

/// Figure 4: T2A latency of A1–A7 on the official services.
pub fn fig4(lab: &Lab) -> Artifact {
    let (slow, fast) = (Histogram::new(), Histogram::new());
    let mut reports = Vec::new();
    for (applet, seed) in ALL_PAPER_APPLETS.into_iter().zip(lab.seed..) {
        let r = measure_t2a(&T2aScenario::official(applet, FIG4_RUNS, seed));
        let alexa = applet.group() == "Alexa";
        let pool = if alexa { &fast } else { &slow };
        pool.merge_from(&r.latency);
        reports.push(r);
    }
    let q = |h: &Histogram, p: f64| h.quantile(p) as f64 / 1e6;
    let measured = [
        ("A1-A4 p25 (s)", q(&slow, 0.25)),
        ("A1-A4 p50 (s)", q(&slow, 0.5)),
        ("A1-A4 p75 (s)", q(&slow, 0.75)),
        ("A1-A4 max (s)", slow.max() as f64 / 1e6),
        ("A5-A7 p50 (s)", q(&fast, 0.5)),
    ];
    Artifact::new(render_t2a(&reports), &measured)
}

/// Figure 4 at fleet scale: a 10k-user `--policy ifttt` fleet.
pub fn fig4_fleet(lab: &Lab) -> Artifact {
    let cfg = FleetConfig::new(FLEET_USERS, 1, FleetPolicy::IftttLike).with_seed(lab.seed);
    let report = fleet::run_fleet(&cfg);
    let (p25, p50, p75) = report.t2a_quartiles_secs();
    let measured = [("p25 (s)", p25), ("p50 (s)", p50), ("p75 (s)", p75)];
    Artifact::new(report.render(), &measured)
}

/// Figure 5: A2 under the substitutions E1, E2 and E3.
pub fn fig5(lab: &Lab) -> Artifact {
    let (runs, seed) = (FIG5_RUNS, lab.seed);
    let scenarios = [
        T2aScenario::e1(runs, seed + 11),
        T2aScenario::e2(runs, seed + 12),
        T2aScenario::e3(runs, seed + 13),
    ];
    let reports = scenarios.map(|s| measure_t2a(&s));
    let [e1, e2, e3] = reports.each_ref().map(|r| r.summary().p50);
    let measured = [("E1 p50 (s)", e1), ("E2 p50 (s)", e2), ("E3 p50 (s)", e3)];
    Artifact::new(render_t2a(&reports), &measured)
}

/// Figure 6: a trigger every 5 s; the actions arrive in clusters.
pub fn fig6(lab: &Lab) -> Artifact {
    let report = sequential_experiment(FIG6_ACTIVATIONS, 5, 30.0, lab.seed + 21);
    let start = |i: usize| report.clusters.get(i).map_or(f64::NAN, |c| c[0]);
    let measured = [
        ("clusters", report.clusters.len() as f64),
        ("actions delivered", report.actions.len() as f64),
        ("cluster 1 starts (s)", start(0)),
        ("cluster 2 starts (s)", start(1)),
        ("cluster 3 starts (s)", start(2)),
        ("largest gap between clusters (s)", report.max_cluster_gap()),
    ];
    Artifact::new(report.render(), &measured)
}

/// Figure 7: two applets on one trigger; their T2A difference.
pub fn fig7(lab: &Lab) -> Artifact {
    let report = concurrent_experiment(FIG7_RUNS, lab.seed + 31);
    let s = report.summary();
    let measured = [("difference min (s)", s.min), ("difference max (s)", s.max)];
    Artifact::new(report.render(), &measured)
}

/// §3.2: growth across the crawl weeks, and who contributes applets.
pub fn growth_users(lab: &Lab) -> Artifact {
    let (start, end) = (GROWTH.week_start as u32, GROWTH.week_end as u32);
    let g = GrowthReport::of(&lab.ecosystem().week_counts(), start, end);
    let u = UserContribution::of(lab.snapshot());
    let measured = [
        ("services growth", g.services_growth),
        ("triggers growth", g.triggers_growth),
        ("actions growth", g.actions_growth),
        ("add count growth", g.add_count_growth),
        ("user-made applets", u.user_made_applets),
        ("user-made adds", u.user_made_adds),
        ("top 1% of users' applets", u.top1_user_share),
        ("top 10% of users' applets", u.top10_user_share),
    ];
    Artifact::new(format!("{}\n{}", g.render(), u.render()), &measured)
}

/// §4: the explicit and implicit infinite loops, and the §6 detector.
pub fn loops(lab: &Lab) -> Artifact {
    let (window, detector) = (LOOP_WINDOW, Some(LOOP_DETECTOR));
    let unchecked = explicit_loop_experiment(false, None, window, lab.seed);
    let checked = explicit_loop_experiment(true, None, window, lab.seed);
    let implicit = implicit_loop_experiment(true, detector.clone(), window, lab.seed + 1);
    let normal = normal_usage_experiment(detector, NORMAL_EMAILS, lab.seed + 2);
    let yes = |b: bool| f64::from(u8::from(b));
    let stopped = yes(implicit.flagged && implicit.disabled);
    let measured = [
        ("explicit: actions", unchecked.actions_executed as f64),
        (
            "explicit: rejected statically",
            yes(checked.rejected_statically),
        ),
        ("implicit: disabled at runtime", stopped),
        (
            "implicit: rejected statically",
            yes(implicit.rejected_statically),
        ),
        ("implicit: actions", implicit.actions_executed as f64),
        ("normal usage: flagged", yes(normal.flagged)),
    ];
    let text = format!("one seed email per loop world, each run for {window}\n");
    Artifact::new(text, &measured)
}

/// §6: the engine's load when every service pushes instead of being polled.
pub fn workload(lab: &Lab) -> Artifact {
    let poll = run_workload(false, 6, 12, 4, 90, lab.seed);
    let push = run_workload(true, 6, 12, 4, 90, lab.seed + 1);
    let burst = push.report.peak_to_mean() / poll.report.peak_to_mean().max(0.01);
    let delivered = push.actions_ok as f64 / poll.actions_ok.max(1) as f64;
    let measured = [
        ("push burst over poll's", burst),
        ("push actions over poll's", delivered),
    ];
    let text = poll.report.render("poll") + &push.report.render("push");
    Artifact::new(text, &measured)
}

/// §6: realtime hints, smart polling and fine-grained permissions.
pub fn ablations(lab: &Lab) -> Artifact {
    let mut deaf = EngineConfig::ifttt_like();
    deaf.realtime_allowlist.clear();
    let smart = EngineConfig {
        polling: PollPolicy::smart(1_000),
        ..EngineConfig::ifttt_like()
    };
    // The poll budget each policy spends on one applet, by popularity.
    let polls = |add_count| {
        let applet = Applet {
            add_count,
            ..paper_applet(PaperApplet::A2, ServiceVariant::Official)
        };
        smart.polling.expected_rate(&applet) / PollPolicy::ifttt_like().expected_rate(&applet)
    };
    let (hot_polls, cold_polls) = (polls(1_000_000), polls(10));
    let (a5, a2, rt, sp) = (PaperApplet::A5, PaperApplet::A2, REALTIME_RUNS, SMART_RUNS);
    let arms = [
        ("A5 hinted", a5, EngineConfig::ifttt_like(), rt, 0),
        ("A5 unhinted", a5, deaf, rt, 0),
        ("A2 baseline", a2, EngineConfig::ifttt_like(), sp, 0),
        ("A2 smart hot", a2, smart.clone(), sp, 1_000_000),
        ("A2 smart cold", a2, smart, sp, 10),
    ];
    let (mut text, mut p50) = (String::new(), Vec::new());
    for (seed, (arm, applet, engine, runs, add_count)) in (lab.seed + 40..).zip(arms) {
        let mut scenario = T2aScenario::official(applet, runs, seed);
        (scenario.engine, scenario.add_count) = (engine, add_count);
        let r = measure_t2a(&scenario);
        text.push_str(&format!("{arm:<14} {}\n", r.render_line()));
        p50.push(r.summary().p50.max(0.001));
    }
    let coarse = paper_applets_excess(Granularity::ServiceLevel) as f64;
    let fine = paper_applets_excess(Granularity::PerCapability) as f64;
    let measured = [
        ("A5 speed-up from hints", p50[1] / p50[0]),
        ("hot applet, smart over baseline", p50[3] / p50[2]),
        ("hot applet polls, smart over baseline", hot_polls),
        ("cold applet polls, smart over baseline", cold_polls),
        ("excess grants, service-level", coarse),
        ("excess grants, per-capability", fine),
    ];
    Artifact::new(text, &measured)
}

/// Whether a row reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Hit,
    /// Outside the band, or not measured at all.
    Miss,
    /// The run's scale is outside the row's scales.
    Skip,
}

/// One row checked against one run.
#[derive(Debug, Clone)]
pub struct Check<'a> {
    pub target: &'a Target,
    pub measured: Option<f64>,
    pub verdict: Verdict,
}

/// Check every row of `targets` against `artifacts` regenerated at `scale`.
pub fn check<'a>(
    targets: &'a [Target],
    artifacts: &[(&str, Artifact)],
    scale: f64,
) -> Vec<Check<'a>> {
    let check = |target: &'a Target| {
        let artifact = artifacts.iter().find(|(name, _)| *name == target.artifact);
        let measured = artifact.and_then(|(_, a)| a.get(target.quantity));
        let (lo, hi) = target.bounds();
        let verdict = match measured {
            _ if !target.scales.contains(&scale) => Verdict::Skip,
            Some(v) if lo <= v && v <= hi => Verdict::Hit,
            _ => Verdict::Miss,
        };
        Check {
            target,
            measured,
            verdict,
        }
    };
    targets.iter().map(check).collect()
}

/// The process exit status of a checked run: non-zero on any miss.
pub fn exit_code(checks: &[Check<'_>]) -> i32 {
    i32::from(checks.iter().any(|c| c.verdict == Verdict::Miss))
}

/// `artifact | quantity | measured | paper | band | verdict`, one line a row.
pub fn render_checks(checks: &[Check<'_>]) -> String {
    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            let t = c.target;
            let (lo, hi) = t.bounds();
            vec![
                t.artifact.to_string(),
                t.quantity.to_string(),
                c.measured.map_or("-".to_string(), num),
                match t.paper {
                    Paper::Is(v) => num(v),
                    Paper::Says(s) => s.to_string(),
                },
                format!("[{}, {}]", num(lo), num(hi)),
                format!("{:?}", c.verdict).to_lowercase(),
            ]
        })
        .collect();
    let header = [
        "artifact", "quantity", "measured", "paper", "band", "verdict",
    ];
    render::table(&header, &rows)
}

/// A number at the precision its magnitude needs.
fn num(v: f64) -> String {
    match v.abs() {
        a if a.is_infinite() => if v > 0.0 { "inf" } else { "-inf" }.to_string(),
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.1}"),
        _ => format!("{v:.3}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: &str = "difference max (s)";

    /// The verdict and exit status of one row checked against an artifact
    /// that measured 120 for [`MAX`].
    fn verdict(band: Band, scales: RangeInclusive<f64>, quantity: &'static str) -> (Verdict, i32) {
        let mut target = row("fig7_concurrent", quantity, Is(140.0), band);
        target.scales = scales;
        let artifact = Artifact::new(String::new(), &[(MAX, 120.0)]);
        let targets = [target];
        let checks = check(&targets, &[("fig7_concurrent", artifact)], 0.05);
        (checks[0].verdict, exit_code(&checks))
    }

    #[test]
    fn a_band_that_excludes_the_measured_value_misses_and_fails_the_run() {
        assert_eq!(verdict(Within(0.0, 100.0), SCALES, MAX), (Verdict::Miss, 1));
        assert_eq!(verdict(Rel(0.15), SCALES, MAX), (Verdict::Hit, 0));
    }

    #[test]
    fn an_unmeasured_row_misses_and_an_out_of_scale_row_skips() {
        assert_eq!(
            verdict(Abs(100.0), SCALES, "no such quantity"),
            (Verdict::Miss, 1)
        );
        assert_eq!(verdict(Abs(0.0), 0.5..=1.0, MAX), (Verdict::Skip, 0));
    }

    #[test]
    fn bands_resolve_around_the_paper_value() {
        assert_eq!(row("x", "y", Is(140.0), Abs(10.0)).bounds(), (130.0, 150.0));
        assert_eq!(row("x", "y", Is(-60.0), Rel(0.5)).bounds(), (-90.0, -30.0));
        // A statement has no number to build a band around.
        assert!(row("x", "y", Says("fast"), Abs(1.0)).bounds().0.is_nan());
        for t in PAPER_TARGETS.iter().filter(|t| matches!(t.paper, Says(_))) {
            assert!(matches!(t.band, Within(..)), "{}", t.quantity);
        }
    }
}
