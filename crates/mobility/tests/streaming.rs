//! Parity battery for the sharded ingestion engine.
//!
//! The engine must reproduce a naive serial oracle **bit-for-bit** across
//! shard counts and batch sizes: node ids, trajectories, and the
//! empirical model's visits, transition count, matrix and occupancy
//! (per-epoch models included when a schedule is set). The oracle below
//! is the pre-sharding pipeline rebuilt from public pieces only, applied
//! to external towers and traces, so it shares no code path with the
//! engine's batching, sharding or accumulator merge. Synthetic-seed runs,
//! whose tower and fleet draws are internal to the builder, are checked
//! for shard- and batch-independence against the one-shard, one-node
//! batch build instead.
//!
//! In the test names, "legacy" is the serial pipeline the oracle
//! rebuilds; "streamed" is the engine behind `build()`.

use chaff_markov::{EpochSchedule, Trajectory};
use chaff_mobility::empirical::{EmpiricalModel, EpochAccumulator};
use chaff_mobility::geo::GeoPoint;
use chaff_mobility::interpolate::{regularize, SlotGrid, DEFAULT_MAX_GAP_S};
use chaff_mobility::pipeline::{TraceDataset, TraceDatasetBuilder};
use chaff_mobility::record::NodeTrace;
use chaff_mobility::stream::{CrawdadDirStream, ReplicatedTaxiStream, TraceStream};
use chaff_mobility::taxi::{generate_fleet, TaxiFleetConfig};
use chaff_mobility::towers::{clustered_layout, min_separation_filter, DEFAULT_MIN_SEPARATION_M};
use chaff_mobility::voronoi::CellMap;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The shard counts every sweep covers.
const SHARDS: [usize; 3] = [1, 2, 7];

/// A reduced-scale builder: big enough to exercise hotspot skew and the
/// inactivity filter, small enough that a debug-mode build stays in the
/// low milliseconds.
fn small(seed: u64) -> TraceDatasetBuilder {
    TraceDatasetBuilder::new()
        .num_nodes(18)
        .num_towers(90)
        .horizon_slots(24)
        .seed(seed)
}

/// What the oracle computes: the surviving nodes, their trajectories and
/// the pooled (plus, with a schedule, per-epoch) empirical models.
struct Expected {
    num_cells: usize,
    node_ids: Vec<String>,
    trajectories: Vec<Trajectory>,
    model: EmpiricalModel,
    epoch_models: Option<Vec<EmpiricalModel>>,
}

/// The naive serial oracle: separation filter → Voronoi cells, one
/// trace at a time regularized and quantized on the window that starts
/// at the earliest first record, then one estimate over every survivor.
fn oracle(
    towers: &[GeoPoint],
    traces: &[NodeTrace],
    horizon: usize,
    schedule: Option<&EpochSchedule>,
) -> Expected {
    let cell_map = CellMap::new(min_separation_filter(towers, DEFAULT_MIN_SEPARATION_M)).unwrap();
    let grid = SlotGrid {
        start_timestamp: traces
            .iter()
            .filter_map(|t| t.records.first().map(|r| r.timestamp))
            .min()
            .unwrap(),
        slot_s: 60,
        num_slots: horizon,
        max_gap_s: DEFAULT_MAX_GAP_S,
    };
    let mut node_ids = Vec::new();
    let mut trajectories = Vec::new();
    for trace in traces {
        if let Some(positions) = regularize(trace, &grid) {
            node_ids.push(trace.node_id.clone());
            trajectories.push(cell_map.quantize(&positions));
        }
    }
    let num_cells = cell_map.num_cells();
    let model = EmpiricalModel::estimate(&trajectories, num_cells, 0.0).unwrap();
    let epoch_models = schedule.map(|schedule| {
        let mut acc = EpochAccumulator::new(num_cells, schedule.clone()).unwrap();
        for trajectory in &trajectories {
            acc.record(trajectory).unwrap();
        }
        acc.finish(0.0).unwrap()
    });
    Expected {
        num_cells,
        node_ids,
        trajectories,
        model,
        epoch_models,
    }
}

/// External towers and traces drawn from `seed`: a clustered tower
/// layout and a taxi fleet with enough inactivity that some nodes drop.
fn external_fixture(seed: u64, num_nodes: usize) -> (Vec<GeoPoint>, Vec<NodeTrace>) {
    let config = TaxiFleetConfig {
        num_nodes,
        duration_s: 30 * 60,
        inactivity_prob: 0.01,
        ..TaxiFleetConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let towers = clustered_layout(90, 6, 2_000.0, 0.35, &config.bbox, &mut rng).unwrap();
    let traces = generate_fleet(&config, &mut rng).unwrap();
    (towers, traces)
}

/// Asserts two empirical models are bit-for-bit equal.
fn assert_model_eq(got: &EmpiricalModel, want: &EmpiricalModel, context: &str) {
    assert_eq!(got.visits(), want.visits(), "{context}: visits");
    assert_eq!(
        got.num_transitions(),
        want.num_transitions(),
        "{context}: transitions"
    );
    assert_eq!(
        got.chain().matrix(),
        want.chain().matrix(),
        "{context}: matrix"
    );
    let pi_got = got.chain().initial().as_slice();
    let pi_want = want.chain().initial().as_slice();
    assert_eq!(pi_got.len(), pi_want.len(), "{context}: initial length");
    for (i, (a, b)) in pi_got.iter().zip(pi_want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: initial[{i}]");
    }
}

/// Asserts the engine's dataset equals the oracle's bit-for-bit.
fn assert_matches_oracle(got: &TraceDataset, want: &Expected, context: &str) {
    assert_eq!(
        got.cell_map().num_cells(),
        want.num_cells,
        "{context}: cells"
    );
    assert_eq!(got.node_ids(), want.node_ids, "{context}: ids");
    assert_eq!(
        got.trajectories(),
        want.trajectories,
        "{context}: trajectories"
    );
    assert_model_eq(got.empirical(), &want.model, context);
    match (got.epoch_models(), &want.epoch_models) {
        (None, None) => {}
        (Some(got), Some(want)) => {
            assert_eq!(got.len(), want.len(), "{context}: epoch count");
            for (e, (g, w)) in got.iter().zip(want).enumerate() {
                assert_model_eq(g, w, &format!("{context}, epoch {e}"));
            }
        }
        _ => panic!("{context}: epoch models present on one side only"),
    }
}

/// Asserts full bit-for-bit dataset equality, empirical model included.
fn assert_dataset_eq(got: &TraceDataset, want: &TraceDataset, context: &str) {
    assert_eq!(
        got.cell_map().num_cells(),
        want.cell_map().num_cells(),
        "{context}: cell count"
    );
    assert_eq!(got.node_ids(), want.node_ids(), "{context}: ids");
    assert_eq!(
        got.trajectories(),
        want.trajectories(),
        "{context}: trajectories"
    );
    assert_model_eq(got.empirical(), want.empirical(), context);
}

/// Runs the engine over external towers and traces at every shard count
/// and every batch size in `1..40`, comparing each build to the oracle.
fn sweep_against_oracle(seed: u64, schedule: Option<EpochSchedule>) {
    let (towers, traces) = external_fixture(seed, 14);
    let horizon = 20;
    let want = oracle(&towers, &traces, horizon, schedule.as_ref());
    assert!(
        !want.trajectories.is_empty() && want.trajectories.len() < traces.len(),
        "seed {seed}: the fixture should keep some nodes and drop others \
         (kept {} of {})",
        want.trajectories.len(),
        traces.len()
    );
    for shards in SHARDS {
        for batch in 1..40 {
            let mut builder = small(seed)
                .horizon_slots(horizon)
                .with_towers(towers.clone())
                .with_traces(traces.clone())
                .shards(shards)
                .batch_nodes(batch);
            if let Some(schedule) = &schedule {
                builder = builder.epoch_schedule(schedule.clone());
            }
            let got = builder.build().unwrap();
            assert_matches_oracle(
                &got,
                &want,
                &format!("seed {seed}, shards {shards}, batch {batch}"),
            );
        }
    }
}

#[test]
fn streamed_equals_legacy_across_the_issue_shard_counts() {
    for seed in [0u64, 99, 1709, 20170605] {
        sweep_against_oracle(seed, None);
    }
}

#[test]
fn streamed_equals_legacy_for_external_traces() {
    // The same sweep with an epoch schedule: per-epoch counts merge
    // across shards exactly like the pooled ones.
    sweep_against_oracle(4242, Some(EpochSchedule::day_night(7, 5).unwrap()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streamed_pipeline_is_bit_for_bit_shard_and_batch_independent(
        seed in 0u64..10_000,
        shard_pick in 0usize..3,
        batch in 1usize..40,
    ) {
        let shards = SHARDS[shard_pick];
        let serial = small(seed).shards(1).batch_nodes(1).build().unwrap();
        let got = small(seed)
            .shards(shards)
            .batch_nodes(batch)
            .build()
            .unwrap();
        assert_dataset_eq(
            &got,
            &serial,
            &format!("seed {seed}, shards {shards}, batch {batch}"),
        );
    }
}

#[test]
fn amplified_fleets_scale_node_count_with_unique_ids() {
    let base = small(7).build().unwrap();
    let amplified = small(7).replicas(6).shards(2).build().unwrap();
    // Replicas are statistically independent fleets over the same towers:
    // the amplified survivor count grows roughly linearly.
    assert!(
        amplified.trajectories().len() >= 4 * base.trajectories().len(),
        "amplified {} vs base {}",
        amplified.trajectories().len(),
        base.trajectories().len()
    );
    assert_eq!(
        amplified.cell_map().num_cells(),
        base.cell_map().num_cells(),
        "amplification must not disturb the tower draw"
    );
    let mut ids: Vec<&str> = amplified.node_ids().iter().map(String::as_str).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), amplified.node_ids().len(), "duplicate node ids");

    // Deterministic: the amplified build reproduces itself, and is
    // shard-count independent like the base pipeline.
    let again = small(7).replicas(6).shards(5).build().unwrap();
    assert_dataset_eq(&again, &amplified, "amplified re-run");
}

#[test]
fn amplified_empirical_model_explains_every_replica() {
    let amplified = small(11).replicas(4).build().unwrap();
    for (id, t) in amplified.node_ids().iter().zip(amplified.trajectories()) {
        assert!(
            amplified.model().log_likelihood(t).is_finite(),
            "trajectory of {id} must be explainable under the pooled model"
        );
    }
}

#[test]
fn crawdad_stream_feeds_build_from_stream() {
    // Round-trip a small synthetic fleet through the on-disk CRAWDAD
    // format, then ingest the directory through the engine and compare
    // with the oracle over the same files.
    let (towers, fleet) = external_fixture(999, 8);
    let dir = chaff_temp::TempPath::new("crawdad_ingest");
    std::fs::create_dir_all(&dir).unwrap();
    for trace in &fleet {
        std::fs::write(
            dir.join(format!("new_{}.txt", trace.node_id)),
            chaff_mobility::crawdad::to_crawdad_text(trace),
        )
        .unwrap();
    }

    let stream = CrawdadDirStream::new(&dir)
        .unwrap()
        .with_bbox(TaxiFleetConfig::default().bbox);
    let got = small(3)
        .horizon_slots(20)
        .with_towers(towers.clone())
        .shards(2)
        .batch_nodes(3)
        .build_from_stream(stream)
        .unwrap();

    // The text format rounds coordinates to 5 decimals, so the oracle
    // runs on the *reparsed* traces.
    let reparsed = chaff_mobility::crawdad::load_directory(&dir).unwrap();
    let want = oracle(&towers, &reparsed, 20, None);
    assert!(!want.trajectories.is_empty(), "some node survives");
    assert_matches_oracle(&got, &want, "crawdad directory");
}

#[test]
fn replicated_stream_len_hint_tracks_emission() {
    let config = TaxiFleetConfig {
        num_nodes: 5,
        duration_s: 10 * 60,
        ..TaxiFleetConfig::default()
    };
    let mut stream = ReplicatedTaxiStream::new(config, 1, 3).unwrap();
    assert_eq!(stream.len_hint(), Some(15));
    let first = stream.next_batch(4).unwrap();
    assert_eq!(first.len(), 4);
    assert_eq!(stream.len_hint(), Some(11));
    let mut total = first.len();
    loop {
        let batch = stream.next_batch(4).unwrap();
        if batch.is_empty() {
            break;
        }
        total += batch.len();
    }
    assert_eq!(total, 15);
    assert_eq!(stream.len_hint(), Some(0));
}
