//! Epoch-reduction differential battery (time-varying-mobility tentpole).
//!
//! The epoch machinery must be a pure *representation* change: a
//! one-epoch schedule, and a multi-epoch schedule whose epochs all hold
//! the same chains, have to reproduce the stationary pipeline bit for
//! bit — simulated fleet outcomes, and every detection surface the
//! workspace exposes (row-major batch, columnar grid, paged store
//! stream, and the online [`StreamingPrefixDetector`]) — across shard
//! counts {1, 2, 7} and budgets {0, 2}, mirroring the
//! `streaming_equivalence` battery's acceptance matrix.

use chaff_core::detector::{
    BatchPrefixDetector, DetectInput, DetectModel, Detection, StreamingPrefixDetector,
};
use chaff_markov::{EpochSchedule, MarkovChain, MobilityRegistry, Trajectory};
use chaff_sim::fleet::{FleetChaffPolicy, FleetConfig, FleetOutcome, FleetSimulation};
use chaff_sim::test_support::{assert_outcomes_equal, mixed_registry, strategy_from};
use proptest::prelude::*;

/// The same chains under a one-epoch schedule: must be indistinguishable
/// from the stationary registry everywhere.
fn single_epoch_twin(registry: &MobilityRegistry) -> MobilityRegistry {
    let chains: Vec<MarkovChain> = (0..registry.num_classes())
        .map(|c| registry.chain(c).clone())
        .collect();
    MobilityRegistry::with_epochs(vec![chains], EpochSchedule::stationary())
        .expect("one-epoch registry")
}

/// The same chains duplicated into both epochs of a genuine day/night
/// schedule: the multi-epoch selection path runs on every slot, but the
/// selected tables never differ — still bit-for-bit stationary.
fn duplicated_epoch_twin(
    registry: &MobilityRegistry,
    day: usize,
    night: usize,
) -> MobilityRegistry {
    let chains: Vec<MarkovChain> = (0..registry.num_classes())
        .map(|c| registry.chain(c).clone())
        .collect();
    MobilityRegistry::with_epochs(
        vec![chains.clone(), chains],
        EpochSchedule::day_night(day, night).expect("day/night schedule"),
    )
    .expect("two-epoch registry")
}

/// Transposes the slot-major observed grid into row-major trajectories,
/// for the `&[Trajectory]` detection surface.
fn to_trajectories(outcome: &FleetOutcome) -> Vec<Trajectory> {
    let services = outcome.observed.num_trajectories();
    let horizon = outcome.observed.horizon();
    let mut trajectories = vec![Trajectory::new(); services];
    for t in 0..horizon {
        for (j, &cell) in outcome.observed.row(t).iter().enumerate() {
            trajectories[j].push(cell);
        }
    }
    trajectories
}

/// Runs every detection surface under a schedule registry and asserts
/// each one equals the stationary reference detections.
fn assert_schedule_detections_match(
    registry: &MobilityRegistry,
    outcome: &FleetOutcome,
    reference: &[Detection],
    shards: usize,
    context: &str,
) {
    let detector = BatchPrefixDetector::with_shards(shards);
    // Columnar (the grid the fleet pipeline hands to detection).
    let columnar = detector
        .detect_prefixes(DetectInput::new(
            DetectModel::Schedule(registry),
            &outcome.observed,
        ))
        .expect("columnar schedule detection");
    assert_eq!(columnar, reference, "{context}: columnar diverged");
    // Row-major batch over materialized trajectories.
    let trajectories = to_trajectories(outcome);
    let row_major = detector
        .detect_prefixes(DetectInput::new(
            DetectModel::Schedule(registry),
            &trajectories[..],
        ))
        .expect("row-major schedule detection");
    assert_eq!(row_major, reference, "{context}: row-major diverged");
    // Online: one push per slot through the schedule-aware streaming
    // detector.
    let mut streaming = StreamingPrefixDetector::with_schedule(
        registry.to_epoch_tables(),
        registry.schedule().clone(),
        outcome.observed.num_trajectories(),
        shards,
    )
    .expect("streaming detector");
    for (t, expected) in reference.iter().enumerate() {
        let detection = streaming
            .push_slot(outcome.observed.row(t))
            .expect("streamed slot");
        assert_eq!(&detection, expected, "{context}: streaming slot {t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The reduction contract over the acceptance matrix: one-epoch and
    /// duplicated-epoch registries simulate and detect bit-for-bit like
    /// their stationary source, for shards {1, 2, 7} × budgets {0, 2}.
    #[test]
    fn trivial_schedules_reduce_to_stationary_across_the_matrix(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 2usize..10,
        horizon in 1usize..10,
        classes in 1usize..4,
        strategy_tag in 0u8..3,
        day in 1usize..4,
        night in 1usize..4,
    ) {
        let stationary = mixed_registry(model_seed, 8, classes);
        let single = single_epoch_twin(&stationary);
        let duplicated = duplicated_epoch_twin(&stationary, day, night);
        prop_assert!(single.is_stationary());
        prop_assert!(!duplicated.is_stationary());
        for shards in [1usize, 2, 7] {
            for budget in [0usize, 2] {
                let context = format!(
                    "shards = {shards}, budget = {budget}, classes = {classes}"
                );
                let policy = FleetChaffPolicy::uniform(strategy_from(strategy_tag), budget);
                let config = FleetConfig::new(num_users, horizon)
                    .with_seed(fleet_seed)
                    .with_shards(shards);
                let batch = FleetSimulation::with_registry(&stationary, config.clone())
                    .run_chaffed(&policy)
                    .expect("stationary fleet");
                // Simulation: the epoch-selection path must not perturb
                // one seed stream.
                for twin in [&single, &duplicated] {
                    let outcome = FleetSimulation::with_registry(twin, config.clone())
                        .run_chaffed(&policy)
                        .expect("schedule fleet");
                    assert_outcomes_equal(&batch, &outcome);
                }
                // Detection: every surface, both trivial schedules.
                let reference = BatchPrefixDetector::with_shards(shards)
                    .detect_prefixes(DetectInput::new(&stationary, &batch.observed))
                    .expect("stationary detection");
                for twin in [&single, &duplicated] {
                    assert_schedule_detections_match(
                        twin,
                        &batch,
                        &reference,
                        shards,
                        &context,
                    );
                }
            }
        }
    }
}

/// The paged surface, deterministically: a checkpointed fleet streamed
/// back from disk detects identically under the stationary model, the
/// one-epoch schedule and the duplicated two-epoch schedule.
#[test]
fn paged_detection_honors_the_reduction_to_stationary() {
    let stationary = mixed_registry(1709, 10, 3);
    let single = single_epoch_twin(&stationary);
    let duplicated = duplicated_epoch_twin(&stationary, 3, 2);
    let policy = FleetChaffPolicy::uniform(strategy_from(1), 2);
    let config = FleetConfig::new(64, 12).with_seed(42).with_shards(2);
    let outcome = FleetSimulation::with_registry(&stationary, config)
        .run_chaffed(&policy)
        .expect("fleet");
    let detector = BatchPrefixDetector::with_shards(2);
    let reference = detector
        .detect_prefixes(DetectInput::new(&stationary, &outcome.observed))
        .expect("in-memory detection");
    let path = chaff_temp::TempPath::new("epoch_equivalence.store");
    outcome.checkpoint(&path).expect("checkpoint");
    for twin in [&single, &duplicated] {
        let mut reader = chaff_store::FleetStoreReader::open(&path).expect("open store");
        let paged = {
            let mut stream = reader.stream_slots();
            detector
                .detect_prefixes(DetectInput::new(DetectModel::Schedule(twin), &mut stream))
                .expect("paged schedule detection")
        };
        assert_eq!(paged, reference, "paged surface diverged");
    }
}
