//! Golden-dataset regression test: a tiny, hand-written CRAWDAD-format
//! fixture with exactly known quantization, so parser/interpolator/
//! quantizer/estimator drift is caught without running the synthetic
//! generator at all.
//!
//! Layout (see `tests/fixtures/golden/`): six towers on a 2×3 grid
//! (cells 0..6 in file order), three active nodes covering a 5-slot
//! 1-minute window starting at t = 1000, and one node (`new_delta`)
//! with a 400 s update gap that the 5-minute inactivity filter must
//! drop.

use chaff_markov::CellId;
use chaff_mobility::crawdad;
use chaff_mobility::geo::GeoPoint;
use chaff_mobility::pipeline::{TraceDataset, TraceDatasetBuilder};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden")
}

fn fixture_towers() -> Vec<GeoPoint> {
    let text = std::fs::read_to_string(fixture_dir().join("towers.txt")).unwrap();
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut fields = l.split_whitespace();
            let lat: f64 = fields.next().unwrap().parse().unwrap();
            let lon: f64 = fields.next().unwrap().parse().unwrap();
            GeoPoint::new(lat, lon)
        })
        .collect()
}

fn build_golden(streaming: bool) -> TraceDataset {
    let traces = crawdad::load_directory(&fixture_dir().join("crawdad")).unwrap();
    assert_eq!(traces.len(), 4, "fixture ships four node files");
    let builder = TraceDatasetBuilder::new()
        .with_towers(fixture_towers())
        .with_traces(traces)
        .horizon_slots(5)
        .slot_seconds(60);
    if streaming {
        builder.shards(2).batch_nodes(2).build().unwrap()
    } else {
        builder.build().unwrap()
    }
}

#[test]
fn golden_dataset_quantizes_exactly_as_checked_in() {
    for streaming in [false, true] {
        let ds = build_golden(streaming);
        let engine = if streaming { "streaming" } else { "legacy" };

        // All six towers survive the 100 m separation filter.
        assert_eq!(ds.cell_map().num_cells(), 6, "{engine}: cell count");

        // new_delta's 400 s gap exceeds the 5-minute threshold: three
        // active nodes remain, in sorted file order.
        assert_eq!(
            ds.node_ids(),
            ["new_alpha", "new_beta", "new_gamma"],
            "{engine}: active nodes"
        );

        // Exact per-slot quantization (records sit on slot boundaries, so
        // interpolation is pass-through).
        let expected: [&[usize]; 3] = [&[0, 0, 1, 1, 1], &[4, 4, 4, 4, 4], &[2, 2, 2, 5, 5]];
        for (node, (t, cells)) in ds.trajectories().iter().zip(expected).enumerate() {
            let got: Vec<usize> = t.iter().map(|c| c.index()).collect();
            assert_eq!(got, cells, "{engine}: node {node} trajectory");
        }

        // Empirical model invariants: every row of the transition matrix
        // is a probability distribution...
        let m = ds.model().matrix();
        for row in 0..6 {
            let sum: f64 = (0..6)
                .map(|col| m.prob(CellId::new(row), CellId::new(col)))
                .sum();
            assert!(
                (sum - 1.0).abs() < 1e-12,
                "{engine}: row {row} sums to {sum}"
            );
        }
        // ...with the exact hand-computed frequencies.
        assert_eq!(m.prob(CellId::new(0), CellId::new(1)), 0.5, "{engine}");
        assert_eq!(m.prob(CellId::new(0), CellId::new(0)), 0.5, "{engine}");
        assert_eq!(m.prob(CellId::new(1), CellId::new(1)), 1.0, "{engine}");
        assert!(
            (m.prob(CellId::new(2), CellId::new(5)) - 1.0 / 3.0).abs() < 1e-15,
            "{engine}"
        );
        assert_eq!(
            m.prob(CellId::new(3), CellId::new(3)),
            1.0,
            "{engine}: unvisited cell 3 must self-loop"
        );
        assert_eq!(m.prob(CellId::new(4), CellId::new(4)), 1.0, "{engine}");

        // Occupancy = visit frequency: 15 slots total over cells
        // [2, 3, 3, 0, 5, 2].
        assert_eq!(
            ds.empirical().visits(),
            [2, 3, 3, 0, 5, 2],
            "{engine}: visits"
        );
        assert_eq!(ds.empirical().num_transitions(), 12, "{engine}");
        let pi = ds.model().initial();
        assert!(
            (pi.prob(CellId::new(4)) - 5.0 / 15.0).abs() < 1e-15,
            "{engine}"
        );
        assert_eq!(pi.prob(CellId::new(3)), 0.0, "{engine}");
        assert_eq!(ds.empirical().support_size(), 5, "{engine}");
    }
}

#[test]
fn golden_dataset_is_engine_independent() {
    let legacy = build_golden(false);
    let streamed = build_golden(true);
    assert_eq!(legacy.node_ids(), streamed.node_ids());
    assert_eq!(legacy.trajectories(), streamed.trajectories());
    assert_eq!(legacy.model().matrix(), streamed.model().matrix());
}

#[test]
fn golden_occupancy_flags_round_trip() {
    // The fixture marks a handful of records occupied; the parser must
    // preserve them (the privacy pipeline ignores the flag, but drift
    // here would signal field-order bugs).
    let traces = crawdad::load_directory(&fixture_dir().join("crawdad")).unwrap();
    let alpha = &traces[0];
    assert_eq!(alpha.node_id, "new_alpha");
    let occupied: Vec<bool> = alpha.records.iter().map(|r| r.occupied).collect();
    assert_eq!(occupied, [true, false, false, true, false]);
}
