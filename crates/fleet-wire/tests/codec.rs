//! Wire-codec correctness: every frame type round-trips exactly, and no
//! adversarial input — truncation, oversized lengths, wrong versions,
//! garbage payloads — can make a decoder panic. Peer bytes are untrusted
//! input; the only acceptable failure mode is a typed [`WireError`].

use fleet::shard::CellSpec;
use fleet::{AttributionStages, ChaosProfile, FleetConfig, FleetMetrics, FleetPolicy};
use fleet_wire::frame::{
    read_frame, FrameBuf, FrameType, WireError, HEADER_LEN, MAX_PAYLOAD, PROTOCOL_VERSION,
};
use fleet_wire::messages::{
    apply_metrics_delta, encode_config_push, encode_final_report, encode_hello,
    encode_metrics_delta, encode_progress, DeltaHead, FinalReport, Frame, Hello, ProgressBeat,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

/// Encode a finished frame and read it back through the real frame
/// reader, returning the decoded payload + type.
fn round_trip(fb: &mut FrameBuf) -> (FrameType, Vec<u8>) {
    let frame = fb.finish().to_vec();
    let mut payload = Vec::new();
    let mut cursor = std::io::Cursor::new(&frame);
    let ftype = read_frame(&mut cursor, &mut payload)
        .expect("well-formed frame decodes")
        .expect("frame present");
    assert!(
        read_frame(&mut cursor, &mut payload.clone())
            .unwrap()
            .is_none(),
        "exactly one frame on the stream"
    );
    (ftype, payload)
}

/// A full-range `u64`, often an edge: JSON integers must carry every one
/// exactly.
fn any_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0u32..4) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.gen(),
    }
}

/// A randomized FleetMetrics touching every counter and histogram,
/// attribution's included, over the full `u64` range. The counters are
/// the number members of the pinned every-counter JSON, so this names no
/// counter of its own.
fn arbitrary_metrics(rng: &mut StdRng) -> FleetMetrics {
    let serde_json::Value::Object(mut members) = serde_json::from_str(&numbered_json()).unwrap()
    else {
        unreachable!("the pinned metrics JSON is an object")
    };
    for v in members.values_mut() {
        if v.as_u64().is_some() {
            *v = any_u64(rng).into();
        }
    }
    let json = serde_json::Value::Object(members).to_string();
    let m: FleetMetrics = serde_json::from_str(&json).unwrap();
    for h in [&m.t2a_micros, &m.dispatch_depth] {
        for _ in 0..rng.gen_range(0usize..25) {
            h.record(any_u64(rng));
        }
    }
    record_attribution(rng, &m.attribution);
    m
}

/// Attribution records a delivery into every stage and the total at once,
/// as its recorder does.
fn record_attribution(rng: &mut StdRng, a: &AttributionStages) {
    a.unmatched.add(any_u64(rng));
    for _ in 0..rng.gen_range(0usize..25) {
        for (_, h) in a.stages() {
            h.record(any_u64(rng));
        }
        a.total.record(any_u64(rng));
    }
}

proptest! {
    #[test]
    fn hello_round_trips(worker_id in any::<u32>(), pid in any::<u32>()) {
        let msg = Hello { worker_id, pid };
        let mut fb = FrameBuf::new();
        encode_hello(&mut fb, &msg);
        let (ftype, payload) = round_trip(&mut fb);
        prop_assert_eq!(ftype, FrameType::Hello);
        match Frame::decode(ftype, &payload).unwrap() {
            Frame::Hello(got) => prop_assert_eq!(got, msg),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn progress_round_trips(
        worker_id in any::<u32>(),
        cells_done in any::<u32>(),
        cells_total in any::<u32>(),
        users_done in any::<u64>(),
    ) {
        let msg = ProgressBeat { worker_id, cells_done, cells_total, users_done };
        let mut fb = FrameBuf::new();
        encode_progress(&mut fb, &msg);
        let (ftype, payload) = round_trip(&mut fb);
        match Frame::decode(ftype, &payload).unwrap() {
            Frame::Progress(got) => prop_assert_eq!(got, msg),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn final_report_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = FinalReport {
            worker_id: rng.gen(),
            cells: rng.gen(),
            users: rng.gen(),
            sim_events: rng.gen(),
            wall_micros: rng.gen(),
            allocs: rng.gen(),
            alloc_bytes: rng.gen(),
            digest: rng.gen(),
            hot_threshold: rng.gen(),
        };
        let mut fb = FrameBuf::new();
        encode_final_report(&mut fb, &msg);
        let (ftype, payload) = round_trip(&mut fb);
        match Frame::decode(ftype, &payload).unwrap() {
            Frame::FinalReport(got) => prop_assert_eq!(got, msg),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn config_push_round_trips_bit_for_bit(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let policies = [FleetPolicy::IftttLike, FleetPolicy::Fast, FleetPolicy::Smart, FleetPolicy::Zapier];
        let chaos = [ChaosProfile::Off, ChaosProfile::Mild, ChaosProfile::Harsh];
        let mut config = FleetConfig::new(
            rng.gen_range(1u64..1 << 32),
            rng.gen_range(1usize..64),
            policies[rng.gen_range(0usize..4)],
        )
        .with_seed(rng.gen())
        .with_cell_users(rng.gen_range(1u64..10_000))
        // Dyadic fractions exercise exact f64 round-tripping.
        .with_phases(
            rng.gen_range(0u32..1 << 20) as f64 / 64.0,
            rng.gen_range(0u32..1 << 20) as f64 / 64.0,
            rng.gen_range(0u32..1 << 20) as f64 / 64.0,
        )
        .with_batch_polling(rng.gen_bool(0.5))
        .with_chaos(chaos[rng.gen_range(0usize..3)])
        .with_attribution(rng.gen_bool(0.5))
        .with_realtime_share(rng.gen_range(0u32..=64) as f64 / 64.0)
        .with_multi_step_share(rng.gen_range(0u32..=64) as f64 / 64.0);
        config.hot_threshold = rng.gen_bool(0.5).then(|| rng.gen());
        let cells: Vec<CellSpec> = (0..rng.gen_range(0u64..50))
            .map(|i| CellSpec { cell: i, first_user: i * 50, users: rng.gen_range(1u64..51) })
            .collect();

        let mut fb = FrameBuf::new();
        encode_config_push(&mut fb, &config, &cells);
        let (ftype, payload) = round_trip(&mut fb);
        match Frame::decode(ftype, &payload).unwrap() {
            Frame::ConfigPush(got) => {
                // FleetConfig has no PartialEq; Debug shows every field
                // (f64 bits included via the shortest round-trip form).
                prop_assert_eq!(format!("{:?}", got.config), format!("{:?}", config));
                prop_assert_eq!(got.cells, cells);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn metrics_delta_round_trips_exactly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = arbitrary_metrics(&mut rng);
        let head = DeltaHead { worker_id: rng.gen(), cell: rng.gen() };
        let mut fb = FrameBuf::new();
        encode_metrics_delta(&mut fb, head, &m);
        let (ftype, payload) = round_trip(&mut fb);
        match Frame::decode(ftype, &payload).unwrap() {
            Frame::MetricsDelta { head: got_head, metrics } => {
                prop_assert_eq!(got_head, head);
                // Exact instrument equality — buckets, counts, sums,
                // mins, maxes, attribution — which is precisely what digest
                // equality across the process boundary requires.
                prop_assert_eq!(*metrics, m);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn attribution_delta_round_trips_exactly(seed in any::<u64>()) {
        // A cell whose only activity is attribution: the stages ride in a
        // metrics delta on their own and come back exactly.
        let mut rng = StdRng::seed_from_u64(seed);
        let m = FleetMetrics::default();
        record_attribution(&mut rng, &m.attribution);
        let head = DeltaHead { worker_id: rng.gen(), cell: rng.gen() };
        let mut fb = FrameBuf::new();
        encode_metrics_delta(&mut fb, head, &m);
        let (ftype, payload) = round_trip(&mut fb);
        match Frame::decode(ftype, &payload).unwrap() {
            Frame::MetricsDelta { head: got_head, metrics } => {
                prop_assert_eq!(got_head, head);
                prop_assert_eq!(&metrics.attribution, &m.attribution);
                prop_assert_eq!(*metrics, m);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn truncating_a_metrics_delta_anywhere_yields_an_error_not_a_panic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = arbitrary_metrics(&mut rng);
        let mut fb = FrameBuf::new();
        encode_metrics_delta(&mut fb, DeltaHead { worker_id: 1, cell: 2 }, &m);
        let full = fb.finish().to_vec();
        let payload = &full[HEADER_LEN..];
        let cut = rng.gen_range(0usize..payload.len().max(1));
        let target = FleetMetrics::default();
        // Every strict prefix must fail typed — and leave the target
        // untouched (transactional apply).
        prop_assert!(apply_metrics_delta(&payload[..cut], &target).is_err());
        prop_assert_eq!(&target, &FleetMetrics::default());
    }

    #[test]
    fn a_mutated_metrics_delta_decodes_or_fails_typed_and_whole(seed in any::<u64>()) {
        // Well-formed-but-hostile JSON: a real delta with a few bytes
        // swapped for JSON punctuation and digits, so the edits land in
        // keys, numbers, bucket lists and nesting rather than failing at
        // the first byte.
        let mut rng = StdRng::seed_from_u64(seed);
        let m = arbitrary_metrics(&mut rng);
        let mut fb = FrameBuf::new();
        encode_metrics_delta(&mut fb, DeltaHead { worker_id: 1, cell: 2 }, &m);
        let mut payload = fb.finish()[HEADER_LEN..].to_vec();
        let alphabet = br#"{}[],:"0123456789-.e"#;
        for _ in 0..rng.gen_range(1usize..4) {
            let at = rng.gen_range(12..payload.len());
            payload[at] = alphabet[rng.gen_range(0..alphabet.len())];
        }
        let target = FleetMetrics::default();
        match apply_metrics_delta(&payload, &target) {
            Ok(_) => {}
            Err(WireError::BadPayload { .. }) => prop_assert_eq!(&target, &FleetMetrics::default()),
            Err(other) => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_payloads_never_panic_any_decoder(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..256);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        for t in [
            FrameType::Hello,
            FrameType::ConfigPush,
            FrameType::Progress,
            FrameType::MetricsDelta,
            FrameType::Drain,
            FrameType::FinalReport,
        ] {
            // Ok is allowed (random bytes can form a valid fixed-width
            // message); panicking is not.
            let _ = Frame::decode(t, &garbage);
        }
    }
}

// ------------------------------------------------------- deterministic
// adversarial cases: each malformed input maps to its typed error.

fn header(version: u8, ftype: u8, flags: u16, len: u32) -> Vec<u8> {
    let mut h = vec![version, ftype];
    h.extend_from_slice(&flags.to_le_bytes());
    h.extend_from_slice(&len.to_le_bytes());
    h
}

fn read_one(bytes: &[u8]) -> Result<Option<FrameType>, WireError> {
    let mut payload = Vec::new();
    read_frame(&mut std::io::Cursor::new(bytes), &mut payload)
}

#[test]
fn clean_eof_is_none_but_mid_header_eof_is_truncated() {
    assert!(matches!(read_one(&[]), Ok(None)));
    assert!(matches!(
        read_one(&[PROTOCOL_VERSION]),
        Err(WireError::Truncated { .. })
    ));
    assert!(matches!(
        read_one(&header(PROTOCOL_VERSION, 3, 0, 0)[..5]),
        Err(WireError::Truncated { .. })
    ));
}

#[test]
fn truncated_payload_is_truncated() {
    let mut bytes = header(PROTOCOL_VERSION, 3, 0, 100);
    bytes.extend_from_slice(&[0u8; 10]); // 90 bytes short
    assert!(matches!(read_one(&bytes), Err(WireError::Truncated { .. })));
}

#[test]
fn oversized_length_prefix_is_rejected_before_any_read() {
    let bytes = header(PROTOCOL_VERSION, 3, 0, MAX_PAYLOAD + 1);
    assert!(
        matches!(read_one(&bytes), Err(WireError::Oversized { len }) if len == MAX_PAYLOAD + 1)
    );
}

#[test]
fn wrong_protocol_version_is_rejected() {
    // 2 is the previous version, whose `FinalReport` had no hot threshold.
    for version in [0, 2, PROTOCOL_VERSION + 1] {
        let bytes = header(version, FrameType::FinalReport as u8, 0, 0);
        assert!(
            matches!(read_one(&bytes), Err(WireError::BadVersion { got }) if got == version),
            "version {version}"
        );
    }
}

#[test]
fn unknown_frame_type_is_rejected() {
    // 5 carried attribution in version 1 and is retired.
    for t in [0u8, 5, 8, 200, 255] {
        let bytes = header(PROTOCOL_VERSION, t, 0, 0);
        assert!(matches!(read_one(&bytes), Err(WireError::BadFrameType { got }) if got == t));
    }
}

#[test]
fn nonzero_flags_are_rejected_in_version_one() {
    let bytes = header(PROTOCOL_VERSION, 3, 1, 0);
    assert!(matches!(
        read_one(&bytes),
        Err(WireError::BadPayload { .. })
    ));
}

#[test]
fn drain_with_payload_is_rejected() {
    assert!(matches!(
        Frame::decode(FrameType::Drain, &[0]),
        Err(WireError::BadPayload { .. })
    ));
}

/// `json` as the payload of a delta from worker 1 for cell 2.
fn delta_payload(json: &[u8]) -> Vec<u8> {
    [&1u32.to_le_bytes()[..], &2u64.to_le_bytes(), json].concat()
}

/// `json` as a delta applied to a fresh target: the typed error, after
/// checking nothing was merged.
fn refused(json: &[u8]) -> WireError {
    let target = FleetMetrics::default();
    let err = apply_metrics_delta(&delta_payload(json), &target).unwrap_err();
    assert_eq!(target, FleetMetrics::default(), "partial apply");
    err
}

fn is_bad_payload(err: &WireError, says: &str) -> bool {
    matches!(err, WireError::BadPayload { context } if context.contains(says))
}

#[test]
fn metrics_delta_with_an_unknown_counter_key_is_rejected() {
    // A build with a counter this one lacks fails loudly instead of
    // dropping it from the merge.
    let good = numbered_json();
    let json = good.replace(r#""polls_sent":1,"#, r#""polls_sent":1,"polls_sent_v2":1,"#);
    assert_ne!(json, good);
    assert!(is_bad_payload(&refused(json.as_bytes()), "does not decode"));
}

#[test]
fn metrics_delta_with_a_non_integer_counter_is_rejected() {
    let good = numbered_json();
    for bad in ["-1", "1.5", r#""1""#, "null", "true", "[1]"] {
        let json = good.replace(r#""polls_sent":1,"#, &format!(r#""polls_sent":{bad},"#));
        assert_ne!(json, good);
        assert!(
            is_bad_payload(&refused(json.as_bytes()), "does not decode"),
            "{bad}"
        );
    }
}

/// The pinned every-counter JSON with attribution recorded, with the
/// one-sample histogram under `key` (`dispatch_depth` at top level,
/// `total` inside attribution) written as `histogram` instead.
fn delta_json_with(key: &str, histogram: &str) -> String {
    let m = numbered_metrics();
    m.attribution.total.record(3);
    let good = format!(r#""{key}":{ONE_SAMPLE}"#);
    let json = m.to_json();
    assert!(json.contains(&good), "{json}");
    json.replace(&good, &format!(r#""{key}":{histogram}"#))
}

const ONE_SAMPLE: &str = r#"{"buckets":[[3,1]],"count":1,"max":3,"min":3,"sum":3}"#;

#[test]
fn histogram_with_inconsistent_bucket_sum_is_rejected() {
    // Each of the decoder's histogram checks once, arriving inside a
    // delta: count mismatch, count overflow, a zero-count bucket, a
    // repeated index, min above max, a non-zero empty, an unknown key.
    let max = u64::MAX;
    let defects = [
        r#"{"buckets":[[3,1]],"count":5,"max":3,"min":3,"sum":3}"#.to_string(),
        format!(r#"{{"buckets":[[3,{max}],[4,1]],"count":0,"max":4,"min":3,"sum":7}}"#),
        r#"{"buckets":[[2,0],[3,1]],"count":1,"max":3,"min":3,"sum":3}"#.to_string(),
        r#"{"buckets":[[3,1],[3,1]],"count":2,"max":3,"min":3,"sum":6}"#.to_string(),
        r#"{"buckets":[[3,1]],"count":1,"max":2,"min":3,"sum":3}"#.to_string(),
        r#"{"buckets":[],"count":0,"max":3,"min":3,"sum":3}"#.to_string(),
        r#"{"buckets":[[3,1]],"count":1,"max":3,"min":3,"p50":3,"sum":3}"#.to_string(),
    ];
    for key in ["dispatch_depth", "total"] {
        let control = delta_json_with(key, ONE_SAMPLE);
        apply_metrics_delta(&delta_payload(control.as_bytes()), &FleetMetrics::default()).unwrap();
        for bad in &defects {
            let err = refused(delta_json_with(key, bad).as_bytes());
            assert!(is_bad_payload(&err, "does not decode"), "{key}: {bad}");
        }
    }
}

#[test]
fn histogram_with_out_of_range_bucket_index_is_rejected() {
    for key in ["dispatch_depth", "total"] {
        for i in [fleet::metrics::BUCKETS, 5000, u32::MAX as usize] {
            let bad = format!(r#"{{"buckets":[[{i},1]],"count":1,"max":3,"min":3,"sum":3}}"#);
            let err = refused(delta_json_with(key, &bad).as_bytes());
            assert!(is_bad_payload(&err, "does not decode"), "{key}: {i}");
        }
    }
}

#[test]
fn metrics_delta_that_is_not_utf8_or_nests_too_deep_is_a_typed_error() {
    assert!(is_bad_payload(&refused(b"{\"polls_sent\":\xff}"), "utf-8"));
    for deep in ["[".repeat(100_000), r#"{"attribution":"#.repeat(100_000)] {
        assert!(is_bad_payload(&refused(deep.as_bytes()), "does not decode"));
    }
}

#[test]
fn trailing_bytes_after_a_valid_message_are_rejected() {
    let mut fb = FrameBuf::new();
    encode_hello(
        &mut fb,
        &Hello {
            worker_id: 1,
            pid: 2,
        },
    );
    fb.put_u8(0xff); // one byte too many
    let frame = fb.finish().to_vec();
    assert!(matches!(
        Frame::decode(FrameType::Hello, &frame[HEADER_LEN..]),
        Err(WireError::BadPayload { .. })
    ));
}

#[test]
fn config_push_with_bad_json_is_rejected() {
    let mut fb = FrameBuf::new();
    fb.begin(FrameType::ConfigPush);
    let json = b"{not json";
    fb.put_u32(json.len() as u32);
    fb.put_bytes(json);
    fb.put_u32(0);
    let frame = fb.finish().to_vec();
    assert!(matches!(
        Frame::decode(FrameType::ConfigPush, &frame[HEADER_LEN..]),
        Err(WireError::BadPayload { .. })
    ));
}

/// A coordinator's JSON is range-checked like any other text source: a
/// value outside its row's range comes back as a typed error before the
/// worker runs anything. Unchecked, a zero window or cell size panics a
/// worker mid-run, and an `eco_scale` below 0.02 panics it in
/// `Ecosystem::generate` while one far above 1.0 has it build a catalog
/// proportional to the value.
#[test]
fn config_push_with_an_out_of_range_value_is_rejected() {
    let good = serde_json::to_string(&every_field_set_config()).unwrap();
    for (was, now) in [
        (r#""window_secs":242.25"#, r#""window_secs":0"#),
        (r#""cell_users":37"#, r#""cell_users":0"#),
        (r#""realtime_share":0.3"#, r#""realtime_share":1.5"#),
        (r#""eco_scale":0.035"#, r#""eco_scale":0"#),
        (r#""eco_scale":0.035"#, r#""eco_scale":0.019"#),
        (r#""eco_scale":0.035"#, r#""eco_scale":-1"#),
        (r#""eco_scale":0.035"#, r#""eco_scale":1e9"#),
        (r#""window_secs":242.25"#, r#""window_secs":242.25"#),
    ] {
        assert!(good.contains(was), "{was} not in {good}");
        let json = good.replace(was, now);
        let mut fb = FrameBuf::new();
        fb.begin(FrameType::ConfigPush);
        fb.put_u32(json.len() as u32);
        fb.put_bytes(json.as_bytes());
        fb.put_u32(0);
        let frame = fb.finish().to_vec();
        let decoded = Frame::decode(FrameType::ConfigPush, &frame[HEADER_LEN..]);
        if was == now {
            assert!(matches!(decoded, Ok(Frame::ConfigPush(_))), "{decoded:?}");
        } else {
            assert!(
                matches!(decoded, Err(WireError::BadPayload { .. })),
                "{now}: {decoded:?}"
            );
        }
    }
}

// ------------------------------------------------------- byte fixtures
// Captured at e8f8729, when `FleetMetrics`' field list, `merge_from`,
// `Serialize` and `counter_for` were hand-written lists. They are now
// generated from one table; these literals are what says the generated
// code equals the lists it replaced.

/// Every counter set to a distinct value (its row number at e8f8729), so
/// a dropped, renamed or swapped key shows.
fn numbered_json() -> String {
    let [depth, t2a] = HISTOGRAMS_JSON;
    format!(
        r#"{{"actions_failed":6,"actions_ok":5,"actions_retried":18,"activations":7,"applets":13,"breaker_trips":17,"cells":11,"churn_installs":31,"churn_onboards":33,"churn_orphans":35,"churn_retirements":34,"churn_uninstalls":32,"dag_node_retries":30,"dag_nodes_action":29,"dag_nodes_filter":26,"dag_nodes_query":28,"dag_nodes_transform":27,"dag_runs":25,"dead_letters":19,{depth},"engine_events":10,"events_new":4,"faults_injected":20,"lost":8,"polls_batched":2,"polls_coalesced":3,"polls_failed":14,"polls_retried":15,"polls_sent":1,"polls_shed":16,"realtime_malformed":24,"realtime_notifications":21,"realtime_polls":22,"realtime_suppressed":23,"sim_events":9,{t2a},"users":12}}"#
    )
}

fn numbered_metrics() -> FleetMetrics {
    serde_json::from_str(&numbered_json()).unwrap()
}

const HISTOGRAMS_JSON: [&str; 2] = [
    r#""dispatch_depth":{"buckets":[[3,1]],"count":1,"max":3,"min":3,"sum":3}"#,
    r#""t2a_micros":{"buckets":[[715,1]],"count":1,"max":92000000,"min":92000000,"sum":92000000}"#,
];

#[test]
fn metrics_json_with_every_counter_set_matches_the_parent_bytes() {
    let m = numbered_metrics();
    // Each key lands in its own field: spot-check one of each section.
    assert_eq!((m.polls_sent.get(), m.churn_orphans.get()), (1, 35));
    assert_eq!(m.t2a_micros.max(), 92_000_000);
    assert_eq!(m.to_json(), numbered_json());
}

#[test]
fn clean_run_metrics_json_carries_no_nonzero_only_key() {
    // The shape every chaos-, realtime-, DAG- and churn-free golden digest
    // is computed over: the 13 always-serialized counters and nothing else.
    let m = FleetMetrics::default();
    let always = [
        &m.polls_sent,
        &m.polls_batched,
        &m.polls_coalesced,
        &m.events_new,
        &m.actions_ok,
        &m.actions_failed,
        &m.activations,
        &m.lost,
        &m.sim_events,
        &m.engine_events,
        &m.cells,
        &m.users,
        &m.applets,
    ];
    for (i, c) in always.iter().enumerate() {
        c.add(i as u64 + 1);
    }
    m.t2a_micros.record(92_000_000);
    m.dispatch_depth.record(3);
    let [depth, t2a] = HISTOGRAMS_JSON;
    let expect = format!(
        r#"{{"actions_failed":6,"actions_ok":5,"activations":7,"applets":13,"cells":11,{depth},"engine_events":10,"events_new":4,"lost":8,"polls_batched":2,"polls_coalesced":3,"polls_sent":1,"sim_events":9,{t2a},"users":12}}"#
    );
    assert_eq!(m.to_json(), expect);
}

#[test]
fn metrics_delta_frame_matches_the_parent_bytes() {
    // The header, worker 7 and cell 1734, then exactly the bytes the
    // metrics JSON fixture above pins — no second encoding. The delta's
    // layout is protocol 2's; only the version byte read 02 then.
    let mut fb = FrameBuf::new();
    let head = DeltaHead {
        worker_id: 7,
        cell: 1734,
    };
    encode_metrics_delta(&mut fb, head, &numbered_metrics());
    let frame = fb.finish();
    let json = numbered_json();
    let len = (12 + json.len()) as u32;
    let header = format!("03040000{}", hex(&len.to_le_bytes()));
    assert_eq!(hex(&frame[..HEADER_LEN]), header);
    assert_eq!(
        hex(&frame[HEADER_LEN..HEADER_LEN + 12]),
        "07000000c606000000000000"
    );
    assert_eq!(&frame[HEADER_LEN + 12..], json.as_bytes());
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// Captured at 7fdaac9, when `FleetConfig` was a written-out struct with a
// derive; it is now generated from the options table. This JSON is what a
// ConfigPush carries, so a worker built from either commit reads the other's.

fn every_field_set_config() -> FleetConfig {
    let mut cfg = FleetConfig::new(123_456, 7, FleetPolicy::Zapier);
    cfg.master_seed = 0xdead_beef;
    cfg.eco_scale = 0.035;
    cfg.cell_users = 37;
    cfg.settle_secs = 10.5;
    cfg.window_secs = 242.25;
    cfg.drain_secs = 999.125;
    cfg.hot_threshold = Some(42);
    cfg.batch_polling = false;
    cfg.chaos = ChaosProfile::Harsh;
    cfg.churn = fleet::ChurnProfile::Accelerated;
    cfg.attribution = true;
    cfg.realtime_share = 0.3;
    cfg.multi_step_share = 0.07;
    cfg.reference_storage = true;
    cfg
}

#[test]
fn fleet_config_json_matches_the_parent_bytes() {
    let default = FleetConfig::new(100_000, 4, FleetPolicy::IftttLike);
    assert_eq!(
        serde_json::to_string(&default).unwrap(),
        r#"{"attribution":false,"batch_polling":true,"cell_users":50,"chaos":"off","churn":"off","drain_secs":1000,"eco_scale":0.02,"hot_threshold":null,"master_seed":2017,"multi_step_share":0,"policy":"ifttt","realtime_share":0,"reference_storage":false,"settle_secs":10,"shards":4,"users":100000,"window_secs":240}"#
    );
    assert_eq!(
        serde_json::to_string(&every_field_set_config()).unwrap(),
        r#"{"attribution":true,"batch_polling":false,"cell_users":37,"chaos":"harsh","churn":"accelerated","drain_secs":999.125,"eco_scale":0.035,"hot_threshold":42,"master_seed":3735928559,"multi_step_share":0.07,"policy":"zapier","realtime_share":0.3,"reference_storage":true,"settle_secs":10.5,"shards":7,"users":123456,"window_secs":242.25}"#
    );
}
