//! The one decoder of metric state from outside the process. A
//! distributed worker's per-cell delta is its `FleetMetrics` JSON, so
//! these are the checks that stand between worker bytes and the
//! coordinator's merge: each case below is a snapshot no recording could
//! produce, or a key no field owns, and each is a typed error — never a
//! panic, never a silently wrong merge.

use fleet::metrics::BUCKETS;
use fleet::{AttributionStages, FleetMetrics, Histogram, HistogramSnapshot};

/// Why decoding `json` as a histogram fails.
fn refusal(json: &str) -> String {
    serde_json::from_str::<Histogram>(json)
        .unwrap_err()
        .to_string()
}

#[test]
fn a_bucket_index_past_the_end_is_refused_not_a_panic() {
    for i in [BUCKETS, 5000, u32::MAX as usize] {
        let err = refusal(&format!(
            r#"{{"buckets":[[{i},1]],"count":1,"max":7,"min":7,"sum":7}}"#
        ));
        assert!(err.contains("index out of range"), "{i}: {err}");
    }
}

#[test]
fn bucket_indices_must_strictly_increase() {
    for buckets in ["[[3,1],[3,1]]", "[[4,1],[3,1]]"] {
        let err = refusal(&format!(
            r#"{{"buckets":{buckets},"count":2,"max":4,"min":3,"sum":7}}"#
        ));
        assert!(err.contains("strictly increasing"), "{buckets}: {err}");
    }
}

#[test]
fn a_zero_count_bucket_is_refused() {
    let err = refusal(r#"{"buckets":[[3,0],[4,1]],"count":1,"max":4,"min":4,"sum":4}"#);
    assert!(err.contains("zero-count"), "{err}");
}

#[test]
fn bucket_counts_must_sum_to_the_count_without_overflow() {
    let err = refusal(r#"{"buckets":[[0,3]],"count":5,"max":0,"min":0,"sum":0}"#);
    assert!(err.contains("disagree"), "{err}");
    let max = u64::MAX;
    let err = refusal(&format!(
        r#"{{"buckets":[[0,{max}],[1,1]],"count":0,"max":1,"min":0,"sum":1}}"#
    ));
    assert!(err.contains("overflow"), "{err}");
}

#[test]
fn min_above_max_is_refused_when_non_empty() {
    let err = refusal(r#"{"buckets":[[3,1]],"count":1,"max":2,"min":3,"sum":3}"#);
    assert!(err.contains("min exceeds max"), "{err}");
}

#[test]
fn an_empty_histogram_decodes_only_as_all_zero() {
    // What `Histogram::merge_from`'s early return for an empty source
    // relies on.
    for tail in [r#""max":0,"min":0,"sum":9"#, r#""max":5,"min":0,"sum":0"#] {
        let err = refusal(&format!(r#"{{"buckets":[],"count":0,{tail}}}"#));
        assert!(err.contains("empty histogram"), "{tail}: {err}");
    }
    let empty = serde_json::to_string(&Histogram::new()).unwrap();
    assert_eq!(empty, r#"{"buckets":[],"count":0,"max":0,"min":0,"sum":0}"#);
    assert_eq!(
        serde_json::from_str::<Histogram>(&empty).unwrap(),
        Histogram::new()
    );
}

#[test]
fn unknown_keys_are_refused_at_every_level() {
    let m = FleetMetrics::new().to_json();
    let a = serde_json::to_string(&AttributionStages::default()).unwrap();
    let h = serde_json::to_string(&Histogram::new()).unwrap();
    serde_json::from_str::<FleetMetrics>(&m).unwrap();
    serde_json::from_str::<AttributionStages>(&a).unwrap();
    let extra = |json: &str| json.replacen('{', r#"{"polls_sent_v2":1,"#, 1);
    let errs = [
        serde_json::from_str::<FleetMetrics>(&extra(&m)).map(drop),
        serde_json::from_str::<AttributionStages>(&extra(&a)).map(drop),
        serde_json::from_str::<HistogramSnapshot>(&extra(&h)).map(drop),
    ];
    for err in errs {
        let err = err.unwrap_err().to_string();
        assert!(err.contains("unknown field `polls_sent_v2`"), "{err}");
    }
}
