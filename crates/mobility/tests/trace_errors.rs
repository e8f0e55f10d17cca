//! Error-path battery for trace ingestion: malformed records,
//! out-of-bbox points and empty-after-filter fleets must surface as
//! *typed* `MobilityError`s naming the offending node — never panics.

use chaff_mobility::geo::{BoundingBox, GeoPoint};
use chaff_mobility::interpolate::{inactivity_reason, regularize, SlotGrid};
use chaff_mobility::pipeline::TraceDatasetBuilder;
use chaff_mobility::record::{NodeTrace, TraceRecord};
use chaff_mobility::stream::{CrawdadDirStream, TraceStream, VecTraceStream};
use chaff_mobility::taxi::TaxiFleetConfig;
use chaff_mobility::{crawdad, MobilityError};
use chaff_temp::TempPath;
use proptest::prelude::*;
use std::io::Cursor;

fn tmp_dir(tag: &str) -> TempPath {
    let dir = TempPath::new(&format!("trace_errors_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rec(ts: i64, lat: f64, lon: f64) -> TraceRecord {
    TraceRecord {
        point: GeoPoint::new(lat, lon),
        occupied: false,
        timestamp: ts,
    }
}

#[test]
fn malformed_directory_file_names_the_node_through_the_stream() {
    let dir = tmp_dir("malformed");
    std::fs::write(dir.join("new_ok.txt"), "37.7 -122.4 0 100\n").unwrap();
    std::fs::write(dir.join("new_sick.txt"), "37.7 not-a-longitude 0 100\n").unwrap();
    let mut stream = CrawdadDirStream::new(&dir).unwrap();
    let err = loop {
        match stream.next_batch(1) {
            Ok(batch) if batch.is_empty() => panic!("expected a parse failure"),
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    match err {
        MobilityError::Parse { node, line, reason } => {
            assert_eq!(node, "new_sick");
            assert_eq!(line, 1);
            assert!(reason.contains("longitude"), "{reason}");
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn out_of_bbox_record_names_node_and_record_index() {
    let dir = tmp_dir("bbox");
    // Two clean records, then a glitch that teleports the taxi to
    // Greenwich — record index 0 after time-sorting (timestamp 5).
    std::fs::write(
        dir.join("new_teleport.txt"),
        "37.70 -122.40 0 120\n37.70 -122.40 0 60\n51.48 0.00 0 5\n",
    )
    .unwrap();
    let stream = CrawdadDirStream::new(&dir)
        .unwrap()
        .with_bbox(BoundingBox::san_francisco());
    let err = TraceDatasetBuilder::new()
        .horizon_slots(2)
        .num_towers(60)
        .seed(1)
        .build_from_stream(stream)
        .unwrap_err();
    match err {
        MobilityError::OutOfBbox {
            node,
            record,
            lat,
            lon,
        } => {
            assert_eq!(node, "new_teleport");
            assert_eq!(record, 0, "records are time-sorted before validation");
            assert!((lat - 51.48).abs() < 1e-9);
            assert!(lon.abs() < 1e-9);
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn empty_after_filter_fleet_reports_examined_count_and_example() {
    // Every node has a window-breaking gap: every shard layout must
    // return the typed NoActiveNodes error, counting examined nodes and
    // naming one.
    let traces: Vec<NodeTrace> = (0..6)
        .map(|i| {
            NodeTrace::new(
                format!("sparse_{i}"),
                vec![rec(0, 37.7, -122.4), rec(2_000, 37.71, -122.41)],
            )
        })
        .collect();
    let builder = || {
        TraceDatasetBuilder::new()
            .num_towers(60)
            .horizon_slots(10)
            .seed(3)
            .with_traces(traces.clone())
    };
    for err in [
        builder().build().unwrap_err(),
        builder().shards(3).batch_nodes(2).build().unwrap_err(),
    ] {
        match err {
            MobilityError::NoActiveNodes { examined, example } => {
                assert_eq!(examined, 6);
                let example = example.expect("a dropped node is known");
                assert!(example.contains("sparse_0"), "{example}");
                assert!(example.contains("gap"), "{example}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }
}

#[test]
fn trace_ending_past_i64_max_reports_no_active_nodes() {
    // The window starts at the first record, `i64::MAX - 600`, so its
    // 20th slot lies past `i64::MAX`: no record can cover it, and the
    // ingest reports the typed error instead of overflowing.
    let start = i64::MAX - 600;
    let traces = vec![NodeTrace::new(
        "late",
        (0..=10)
            .map(|k| rec(start + 60 * k, 37.7, -122.4))
            .collect(),
    )];
    let err = TraceDatasetBuilder::new()
        .num_towers(60)
        .horizon_slots(20)
        .seed(4)
        .with_traces(traces)
        .build()
        .unwrap_err();
    match err {
        MobilityError::NoActiveNodes { examined, example } => {
            assert_eq!(examined, 1);
            let example = example.expect("a dropped node is known");
            assert!(example.contains("late"), "{example}");
            assert!(example.contains("do not cover"), "{example}");
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn amplification_of_external_traces_is_rejected() {
    // Replicas only apply to the synthetic generator; silently ignoring
    // the knob would run an experiment at 1/R of the requested scale.
    let traces = vec![NodeTrace::new(
        "real_node",
        vec![rec(0, 37.7, -122.4), rec(60, 37.7, -122.4)],
    )];
    let err = TraceDatasetBuilder::new()
        .num_towers(60)
        .with_traces(traces)
        .replicas(8)
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        MobilityError::InvalidConfig {
            parameter: "replicas",
            ..
        }
    ));
    // replicas == 0 is invalid on every path.
    let err = TraceDatasetBuilder::new()
        .num_towers(60)
        .replicas(0)
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        MobilityError::InvalidConfig {
            parameter: "replicas",
            ..
        }
    ));
}

#[test]
fn invalid_fleet_config_is_rejected_by_the_streaming_engine() {
    let config = TaxiFleetConfig {
        speed_range_mps: (5.0, 2.0),
        ..TaxiFleetConfig::default()
    };
    let err = TraceDatasetBuilder::new()
        .num_towers(60)
        .fleet_config(config)
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        MobilityError::InvalidConfig {
            parameter: "speed_range_mps",
            ..
        }
    ));
}

#[test]
fn bad_slot_windows_are_typed_config_errors() {
    // A non-positive slot length or a window whose length overflows i64
    // seconds is rejected before anything is drawn, for the synthetic
    // fleet, external traces and a caller's stream alike.
    let traces: Vec<NodeTrace> = vec![NodeTrace::new(
        "steady",
        (0..30).map(|k| rec(60 * k, 37.7, -122.4)).collect(),
    )];
    let cases = [
        (0, 20, "slot_seconds"),
        (-60, 20, "slot_seconds"),
        (i64::MAX, 20, "slot_seconds"),
        (60, usize::MAX, "horizon_slots"),
    ];
    for (slot_seconds, horizon_slots, expected) in cases {
        let builder = || {
            TraceDatasetBuilder::new()
                .num_nodes(5)
                .num_towers(60)
                .slot_seconds(slot_seconds)
                .horizon_slots(horizon_slots)
                .seed(2)
        };
        for (source, err) in [
            ("synthetic", builder().build().unwrap_err()),
            (
                "external",
                builder().with_traces(traces.clone()).build().unwrap_err(),
            ),
            (
                "stream",
                builder()
                    .build_from_stream(VecTraceStream::new(traces.clone()))
                    .unwrap_err(),
            ),
        ] {
            match err {
                MobilityError::InvalidConfig { parameter, .. } => {
                    assert_eq!(parameter, expected, "{source}")
                }
                other => panic!("{source}: unexpected error: {other:?}"),
            }
        }
    }
}

#[test]
fn inactivity_diagnosis_names_concrete_causes() {
    let grid = SlotGrid::minutes(0, 10);
    let gappy = NodeTrace::new("g", vec![rec(0, 37.7, -122.4), rec(900, 37.7, -122.4)]);
    let reason = inactivity_reason(&gappy, &grid).unwrap();
    assert!(reason.to_string().contains("900"), "{reason}");
    let late = NodeTrace::new("l", vec![rec(60, 37.7, -122.4), rec(600, 37.7, -122.4)]);
    assert!(regularize(&late, &grid).is_none());
    assert!(inactivity_reason(&late, &grid)
        .unwrap()
        .to_string()
        .contains("do not cover"));
}

/// Timestamps near zero (where windows get covered) and at both `i64`
/// extremes (where slot times and record gaps overflow `i64`).
fn timestamp() -> impl Strategy<Value = i64> {
    (0u8..3, 0i64..2_000).prop_map(|(band, offset)| match band {
        0 => offset,
        1 => i64::MAX - offset,
        _ => i64::MIN + offset,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parser never panics: any line of printable junk either parses
    /// or yields a typed error carrying the node id.
    #[test]
    fn parser_never_panics_on_junk(
        fields in proptest::collection::vec(-200.0f64..200.0, 0..6),
        garbage in 0usize..3,
    ) {
        let mut line = fields
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ");
        if garbage == 1 {
            line.push_str(" xyz");
        } else if garbage == 2 {
            line = format!("nan {line}");
        }
        match crawdad::parse_node("fuzz", Cursor::new(line)) {
            Ok(trace) => {
                for r in &trace.records {
                    prop_assert!((-90.0..=90.0).contains(&r.point.lat));
                    prop_assert!((-180.0..=180.0).contains(&r.point.lon));
                }
            }
            Err(MobilityError::Parse { node, .. }) => prop_assert_eq!(node, "fuzz"),
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }

    /// Regularization never panics and never invents positions outside
    /// the record hull, whatever the (sorted) timestamps are — including
    /// timestamps and window starts at the `i64` extremes, where slot
    /// times and record gaps do not fit `i64`.
    #[test]
    fn regularize_never_panics(
        stamps in proptest::collection::vec(timestamp(), 0..12),
        start_timestamp in timestamp(),
        num_slots in 0usize..8,
    ) {
        let records: Vec<TraceRecord> = stamps
            .iter()
            .enumerate()
            .map(|(i, &ts)| rec(ts, 37.6 + 0.001 * i as f64, -122.4))
            .collect();
        let trace = NodeTrace::new("n", records);
        let grid = SlotGrid {
            start_timestamp,
            slot_s: 60,
            num_slots,
            max_gap_s: 300,
        };
        let diagnosed_inactive = inactivity_reason(&trace, &grid).is_some();
        match regularize(&trace, &grid) {
            Some(positions) => {
                prop_assert_eq!(positions.len(), num_slots);
                prop_assert!(!diagnosed_inactive);
            }
            None => prop_assert!(diagnosed_inactive),
        }
    }
}
