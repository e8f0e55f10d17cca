//! Capacity placement on fleets with many placement bands.
//!
//! The capacity replay visits services in global order over one shared
//! occupancy table. These fleets are large enough (`N = 1.5·10⁵`, one
//! chaff each, so 3·10⁵ services) that the stepper cuts their draw into
//! more bands than there are shards, and the placement of a slot runs
//! band by band. Every streamed row, detection, accuracy bit and stat must
//! still equal the capped batch pipeline (`run_chaffed` plus the unified
//! `detect_prefixes`), for drawn and ingested user cells and for every
//! shard count, and engines stepped from inside pool jobs must equal
//! engines stepped on the caller.

use chaff_core::detector::{BatchPrefixDetector, DetectInput, Detection};
use chaff_markov::{CellId, MobilityRegistry, TrajectoryArena};
use chaff_sim::fleet::FleetChaffStrategy::{Cml, Im, Mo};
use chaff_sim::fleet::{FleetChaffPolicy, FleetConfig, FleetOutcome, FleetSimulation, FleetStats};
use chaff_sim::streaming::StreamingFleetEngine;
use chaff_sim::test_support::mixed_registry;

const USERS: usize = 150_000;
const HORIZON: usize = 5;
const CELLS: usize = 8;

/// Everything a run exposes, slot by slot and at the end.
#[derive(PartialEq)]
struct Run {
    detections: Vec<Detection>,
    /// Per-slot (tracking, detection) accuracy bits.
    accuracy_bits: Vec<(u64, u64)>,
    rows: Vec<Vec<CellId>>,
    stats: FleetStats,
}

/// A 3-class IM/CML/MO fleet at `B = 1` with a tight capacity: the
/// services' even spread over the cells plus a slack of two.
fn fixture() -> (MobilityRegistry, FleetChaffPolicy, FleetConfig) {
    let registry = mixed_registry(2311, CELLS, 3);
    let policy = FleetChaffPolicy::per_class(vec![(Im, 1), (Cml, 1), (Mo, 1)]);
    let services = USERS * 2;
    let config = FleetConfig::new(USERS, HORIZON)
        .with_seed(67)
        .with_capacity(services.div_ceil(CELLS) + 2);
    (registry, policy, config)
}

/// The capped batch pipeline, with per-slot accuracies from the per-user
/// loop over the observed rows.
fn batch_run(
    registry: &MobilityRegistry,
    config: FleetConfig,
    policy: &FleetChaffPolicy,
) -> (Run, FleetOutcome) {
    let batch = FleetSimulation::with_registry(registry, config)
        .run_chaffed(policy)
        .expect("batch fleet");
    let detections = BatchPrefixDetector::with_shards(2)
        .detect_prefixes(DetectInput::new(registry, &batch.observed))
        .expect("batch detection");
    let users = batch.user_observed_indices.len() as f64;
    let mut is_user = vec![false; batch.observed.num_trajectories()];
    for &i in &batch.user_observed_indices {
        is_user[i] = true;
    }
    let mut histogram = vec![0usize; registry.num_states()];
    let accuracy_bits = detections
        .iter()
        .enumerate()
        .map(|(t, detection)| {
            let row = batch.observed.row(t);
            let tie = detection.tie_set();
            for &i in tie {
                histogram[row[i].index()] += 1;
            }
            let hits: usize = batch
                .user_observed_indices
                .iter()
                .map(|&u| histogram[row[u].index()])
                .sum();
            histogram.fill(0);
            let named = tie.iter().filter(|&&i| is_user[i]).count();
            let ties = tie.len() as f64;
            (
                (hits as f64 / ties / users).to_bits(),
                (named as f64 / ties / users).to_bits(),
            )
        })
        .collect();
    let run = Run {
        accuracy_bits,
        rows: (0..HORIZON)
            .map(|t| batch.observed.row(t).to_vec())
            .collect(),
        stats: batch.stats,
        detections,
    };
    (run, batch)
}

fn engine<'a>(
    registry: &'a MobilityRegistry,
    config: FleetConfig,
    policy: &FleetChaffPolicy,
) -> StreamingFleetEngine<'a> {
    StreamingFleetEngine::with_registry(registry, config, policy).expect("engine")
}

/// Streams `engine` to its horizon, drawing user cells, or ingesting
/// them from `ingest` (user-major rows) when given.
fn stream(mut engine: StreamingFleetEngine<'_>, ingest: Option<&TrajectoryArena>) -> Run {
    let mut detections = Vec::with_capacity(HORIZON);
    let mut accuracy_bits = Vec::with_capacity(HORIZON);
    let mut rows = Vec::with_capacity(HORIZON);
    for t in 0..HORIZON {
        let step = match ingest {
            Some(cells) => {
                let row: Vec<CellId> = (0..USERS).map(|u| cells.row(u)[t]).collect();
                engine.step_ingested(&row)
            }
            None => engine.step(),
        }
        .expect("streamed slot")
        .expect("within horizon");
        accuracy_bits.push((
            step.tracking_accuracy.to_bits(),
            step.detection_accuracy.to_bits(),
        ));
        rows.push(engine.observed_row(t).expect("latest row").to_vec());
        detections.push(step.detection);
    }
    Run {
        detections,
        accuracy_bits,
        rows,
        stats: engine.stats(),
    }
}

#[test]
fn many_band_placement_streams_the_batch_pipeline_bit_for_bit() {
    let (registry, policy, config) = fixture();
    let (expected, batch) = batch_run(&registry, config.clone(), &policy);
    assert!(batch.stats.spills > 0, "tight capacity never spilled");
    for shards in [1, 2, 3] {
        let config = config.clone().with_shards(shards);
        let drawn = stream(engine(&registry, config.clone(), &policy), None);
        assert!(drawn == expected, "drawn, {shards} shards: diverged");
        let ingested = stream(engine(&registry, config, &policy), Some(&batch.user_cells));
        assert!(ingested == expected, "ingested, {shards} shards: diverged");
    }
}

/// Engines stepped inside jobs of one pool scope (so their own draw and
/// placement nest in that scope) finish and equal engines stepped on the
/// caller.
#[test]
fn engines_stepped_inside_pool_jobs_equal_engines_stepped_on_the_caller() {
    let (registry, policy, config) = fixture();
    let configs = [config.clone(), config.with_seed(68).with_shards(3)];
    let expected: Vec<Run> = configs
        .iter()
        .map(|config| stream(engine(&registry, config.clone(), &policy), None))
        .collect();
    let mut nested: Vec<Option<Run>> = vec![None, None];
    chaff_core::pool::global().scope(|scope| {
        for (slot, config) in nested.iter_mut().zip(&configs) {
            let (registry, policy) = (&registry, &policy);
            scope.spawn(move || {
                *slot = Some(stream(engine(registry, config.clone(), policy), None));
            });
        }
    });
    for (i, (got, want)) in nested.into_iter().zip(&expected).enumerate() {
        assert!(
            got.as_ref() == Some(want),
            "engine {i} diverged when nested"
        );
    }
}
