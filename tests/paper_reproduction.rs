//! End-to-end reproduction: every artifact `ifttt-lab paper` writes is
//! regenerated once at scale 0.02, and every row of `PAPER_TARGETS` must hit.

use ifttt_core::paper::{self, Artifact, Verdict, ARTIFACTS, PAPER_TARGETS};
use ifttt_core::Lab;
use std::sync::OnceLock;

const SCALE: f64 = 0.02;

fn artifacts() -> &'static [(&'static str, Artifact)] {
    static ALL: OnceLock<Vec<(&'static str, Artifact)>> = OnceLock::new();
    ALL.get_or_init(|| paper::regenerate(&Lab::new(2017).with_scale(SCALE)))
}

/// Every row of the artifacts whose names start with one of `prefixes`
/// hits, and each prefix names at least one row.
fn assert_rows_hit(prefixes: &[&str]) {
    for prefix in prefixes {
        let of_prefix = |t: &&paper::Target| t.artifact.starts_with(prefix);
        let rows: Vec<_> = PAPER_TARGETS.iter().filter(of_prefix).cloned().collect();
        let checks = paper::check(&rows, artifacts(), SCALE);
        let table = paper::render_checks(&checks);
        assert!(!rows.is_empty(), "no target row for {prefix}");
        assert!(
            checks.iter().all(|c| c.verdict == Verdict::Hit),
            "\n{table}"
        );
    }
}

#[test]
fn section3_tables_and_figures_hold() {
    assert_rows_hit(&["table1", "table2", "table3", "fig2", "fig3", "growth"]);
}

#[test]
fn section4_performance_shape_holds() {
    assert_rows_hit(&["fig4", "fig5", "table5", "loops"]);
}

#[test]
fn figure6_and_7_shapes_hold() {
    assert_rows_hit(&["fig6", "fig7"]);
}

#[test]
fn section6_recommendations_hold() {
    assert_rows_hit(&["workload", "ablation"]);
}

#[test]
fn every_target_reads_a_written_artifact_and_none_is_skipped() {
    let written: Vec<&str> = artifacts().iter().map(|(name, _)| *name).collect();
    assert_eq!(
        written,
        ARTIFACTS.iter().map(|(name, _)| *name).collect::<Vec<_>>()
    );
    let checks = paper::check(PAPER_TARGETS, artifacts(), SCALE);
    for c in &checks {
        let (artifact, quantity) = (c.target.artifact, c.target.quantity);
        assert!(written.contains(&artifact), "{artifact} is not written");
        assert!(
            c.measured.is_some(),
            "{artifact}: {quantity} is not measured"
        );
        assert_ne!(
            c.verdict,
            Verdict::Skip,
            "{artifact}: {quantity} is skipped"
        );
    }
    assert_eq!(
        paper::exit_code(&checks),
        0,
        "\n{}",
        paper::render_checks(&checks)
    );
}
