//! Streaming-vs-batch differential battery (ISSUE 6).
//!
//! The streaming fleet engine must be a pure *scheduling* change: a
//! slot-at-a-time run has to reproduce, bit for bit, the batch pipeline
//! (`FleetSimulation::run_chaffed` followed by
//! the unified `detect_prefixes` entry) — observed rows, user service
//! indices, stats and every per-slot detection — across shard counts
//! {1, 2, 7}, budgets {0, 2} and multi-class registries, on both the
//! model-drawn ([`StreamingFleetEngine::step`]) and ingested
//! ([`StreamingFleetEngine::step_ingested`]) paths. Alongside: a pinned
//! `N = 10⁴` golden checksum, the `O(width · ring_depth + N)` memory
//! bound at `N = 10⁵` with a horizon far beyond the ring, and the
//! error-path contract (typed mid-stream faults that never poison the
//! engine, truncated streams that yield clean partial prefixes).

use chaff_core::detector::BatchPrefixDetector;
use chaff_core::metrics::{mean_detection_accuracy, mean_tracking_accuracy_columnar};
use chaff_markov::{CellId, MobilityRegistry};
use chaff_sim::fleet::{FleetChaffPolicy, FleetConfig, FleetOutcome, FleetSimulation};
use chaff_sim::streaming::StreamingFleetEngine;
use chaff_sim::test_support::{mixed_registry, nonskewed_chain, strategy_from};
use chaff_sim::SimError;
use proptest::prelude::*;

/// Drives a streaming engine to completion and checks every emitted slot
/// against the batch outcome + batch detections, then the aggregate
/// state (rows, indices, stats, accuracy means).
fn assert_stream_equals_batch(
    mut engine: StreamingFleetEngine<'_>,
    batch: &FleetOutcome,
    batch_detections: &[chaff_core::detector::Detection],
    num_cells: usize,
    context: &str,
) {
    let horizon = batch_detections.len();
    let mut tracking = Vec::with_capacity(horizon);
    let mut detection_acc = Vec::with_capacity(horizon);
    while let Some(step) = engine.step().expect("streamed slot") {
        assert_eq!(
            &step.detection, &batch_detections[step.slot],
            "{context}: detection diverged at slot {}",
            step.slot
        );
        tracking.push(step.tracking_accuracy);
        detection_acc.push(step.detection_accuracy);
    }
    assert_eq!(engine.slots_run(), horizon, "{context}");
    for t in 0..horizon {
        assert_eq!(
            engine.observed_row(t).expect("ring covers the horizon"),
            batch.observed.row(t),
            "{context}: observed row diverged at slot {t}"
        );
    }
    assert_eq!(
        engine.user_observed_indices(),
        &batch.user_observed_indices[..],
        "{context}"
    );
    assert_eq!(engine.stats(), batch.stats, "{context}");
    // The per-slot accuracy curve must average to the batch metrics.
    // (Equal up to float summation order — the streamed curve divides
    // per slot, the batch metric once at the end.)
    let batch_tracking = mean_tracking_accuracy_columnar(
        &batch.observed,
        &batch.user_observed_indices,
        batch_detections,
        num_cells,
    );
    let batch_detection = mean_detection_accuracy(
        batch.observed.num_trajectories(),
        &batch.user_observed_indices,
        batch_detections,
    );
    let stream_tracking = tracking.iter().sum::<f64>() / horizon as f64;
    let stream_detection = detection_acc.iter().sum::<f64>() / horizon as f64;
    assert!(
        (stream_tracking - batch_tracking).abs() <= 1e-12,
        "{context}: tracking mean {stream_tracking} vs batch {batch_tracking}"
    );
    assert!(
        (stream_detection - batch_detection).abs() <= 1e-12,
        "{context}: detection mean {stream_detection} vs batch {batch_detection}"
    );
}

/// Runs the batch pipeline for a registry fleet: simulation + columnar
/// prefix detection.
fn batch_pipeline(
    registry: &MobilityRegistry,
    config: FleetConfig,
    policy: &FleetChaffPolicy,
    shards: usize,
) -> (FleetOutcome, Vec<chaff_core::detector::Detection>) {
    let outcome = FleetSimulation::with_registry(registry, config)
        .run_chaffed(policy)
        .expect("batch fleet");
    let detections = BatchPrefixDetector::with_shards(shards)
        .detect_prefixes(chaff_core::detector::DetectInput::new(
            registry,
            &outcome.observed,
        ))
        .expect("batch detection");
    (outcome, detections)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole contract: for every (shards, budget) combination in
    /// the acceptance matrix, over a multi-class registry, the streamed
    /// run is bit-for-bit the batch pipeline.
    #[test]
    fn streamed_fleet_is_bit_for_bit_the_batch_pipeline(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 2usize..12,
        horizon in 1usize..10,
        classes in 1usize..4,
        strategy_tag in 0u8..3,
    ) {
        let registry = mixed_registry(model_seed, 8, classes);
        for shards in [1usize, 2, 7] {
            for budget in [0usize, 2] {
                let policy = FleetChaffPolicy::uniform(strategy_from(strategy_tag), budget);
                let config = FleetConfig::new(num_users, horizon)
                    .with_seed(fleet_seed)
                    .with_shards(shards);
                let (batch, detections) =
                    batch_pipeline(&registry, config.clone(), &policy, shards);
                let engine = StreamingFleetEngine::with_registry(&registry, config, &policy)
                    .expect("engine")
                    .with_ring_depth(horizon);
                assert_stream_equals_batch(
                    engine,
                    &batch,
                    &detections,
                    registry.num_states(),
                    &format!("shards = {shards}, budget = {budget}, classes = {classes}"),
                );
            }
        }
    }

    /// The ingest path reproduces the drawn path: feeding the batch
    /// run's ground-truth user cells through `step_ingested` yields the
    /// same observed fleet and detections (chaff lanes draw from their
    /// own seed streams either way).
    #[test]
    fn ingested_user_cells_reproduce_the_batch_pipeline(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 2usize..10,
        horizon in 1usize..10,
        classes in 1usize..4,
        budget in 0usize..3,
    ) {
        let registry = mixed_registry(model_seed, 8, classes);
        let policy = FleetChaffPolicy::uniform(strategy_from(1), budget);
        let config = FleetConfig::new(num_users, horizon).with_seed(fleet_seed);
        let (batch, detections) = batch_pipeline(&registry, config.clone(), &policy, 2);
        let mut engine = StreamingFleetEngine::with_registry(&registry, config, &policy)
            .expect("engine")
            .with_ring_depth(horizon);
        for (t, expected) in detections.iter().enumerate() {
            let row: Vec<CellId> =
                (0..num_users).map(|u| batch.user_cells.row(u)[t]).collect();
            let step = engine.step_ingested(&row).expect("ingest").expect("within horizon");
            prop_assert_eq!(&step.detection, expected, "slot {}", t);
        }
        for t in 0..horizon {
            prop_assert_eq!(
                engine.observed_row(t).expect("ring"),
                batch.observed.row(t),
                "slot {}",
                t
            );
        }
        prop_assert_eq!(engine.stats(), batch.stats);
    }

    /// Capacity replay streams identically too: shared-network placement
    /// with spills is a per-slot sequential process in both engines.
    #[test]
    fn capacity_constrained_fleets_stream_bit_for_bit(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 2usize..8,
        horizon in 1usize..8,
        budget in 0usize..3,
        slack in 0usize..3,
    ) {
        let registry = mixed_registry(model_seed, 8, 2);
        let policy = FleetChaffPolicy::uniform(strategy_from(2), budget);
        // From a tight fit of the whole fleet to two instances of slack
        // per node, so nodes fill up and placements spill.
        let services = num_users * (1 + budget);
        let capacity = services.div_ceil(registry.num_states()) + slack;
        let config = FleetConfig::new(num_users, horizon)
            .with_seed(fleet_seed)
            .with_capacity(capacity);
        assert_capacity_run_streams_bit_for_bit(&registry, config, &policy, horizon);
    }

    /// Error-path contract: a bad row mid-stream fails typed — naming
    /// the offending user and slot — without perturbing the engine, no
    /// matter where in the stream the fault lands.
    #[test]
    fn mid_stream_faults_are_typed_and_never_poison(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 2usize..8,
        horizon in 2usize..10,
        fault_slot in 0usize..10,
        bad_user in 0usize..8,
        fault_kind in 0u8..2,
    ) {
        let fault_slot = fault_slot % horizon;
        let bad_user = bad_user % num_users;
        let chain = nonskewed_chain(model_seed, 8);
        let policy = FleetChaffPolicy::uniform(strategy_from(0), 1);
        let config = FleetConfig::new(num_users, horizon).with_seed(fleet_seed);
        let mut clean = StreamingFleetEngine::new(&chain, config.clone(), &policy).expect("engine");
        let mut faulted = StreamingFleetEngine::new(&chain, config, &policy).expect("engine");
        for t in 0..horizon {
            let row: Vec<CellId> = (0..num_users)
                .map(|u| CellId::new((model_seed as usize + t * 3 + u) % 8))
                .collect();
            if t == fault_slot {
                let err = if fault_kind == 0 {
                    faulted.step_ingested(&row[..bad_user]).unwrap_err()
                } else {
                    let mut bad = row.clone();
                    bad[bad_user] = CellId::new(8 + bad_user);
                    faulted.step_ingested(&bad).unwrap_err()
                };
                match err {
                    SimError::StreamFault { user, slot, .. } => {
                        prop_assert_eq!(slot, t);
                        prop_assert_eq!(user, bad_user);
                    }
                    other => prop_assert!(false, "expected StreamFault, got {:?}", other),
                }
            }
            let a = clean.step_ingested(&row).expect("clean").expect("slot");
            let b = faulted.step_ingested(&row).expect("faulted engine unpoisoned").expect("slot");
            prop_assert_eq!(a.detection, b.detection, "slot {}", t);
            prop_assert_eq!(
                a.tracking_accuracy.to_bits(),
                b.tracking_accuracy.to_bits(),
                "slot {}",
                t
            );
        }
        prop_assert_eq!(clean.stats(), faulted.stats());
    }

    /// Truncation contract: stopping the stream after `k` slots leaves a
    /// clean partial result that is exactly the first `k` slots of the
    /// full run — detections, stats and buffered rows alike.
    #[test]
    fn truncated_streams_are_clean_prefixes_of_full_runs(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 2usize..8,
        horizon in 2usize..10,
        cut in 1usize..9,
    ) {
        let cut = cut.min(horizon - 1);
        let registry = mixed_registry(model_seed, 8, 2);
        let policy = FleetChaffPolicy::uniform(strategy_from(1), 2);
        let config = FleetConfig::new(num_users, horizon).with_seed(fleet_seed);
        let mut full = StreamingFleetEngine::with_registry(&registry, config.clone(), &policy)
            .expect("engine")
            .with_ring_depth(horizon);
        let mut truncated = StreamingFleetEngine::with_registry(&registry, config, &policy)
            .expect("engine")
            .with_ring_depth(horizon);
        let mut full_steps = Vec::new();
        while let Some(step) = full.step().expect("full run") {
            full_steps.push(step);
        }
        for (t, expected) in full_steps.iter().take(cut).enumerate() {
            let step = truncated.step().expect("truncated run").expect("slot");
            prop_assert_eq!(&step.detection, &expected.detection, "slot {}", t);
        }
        // The stream "dies" here; what remains is a serviceable partial.
        prop_assert_eq!(truncated.slots_run(), cut);
        prop_assert_eq!(truncated.stats().user_slots, num_users * cut);
        for t in 0..cut {
            prop_assert_eq!(
                truncated.observed_row(t).expect("ring"),
                full.observed_row(t).expect("ring"),
                "slot {}",
                t
            );
        }
    }
}

/// Runs a capacity-limited fleet through both engines, requires the
/// stream to equal the batch pipeline bit for bit, and returns the
/// batch counters.
fn assert_capacity_run_streams_bit_for_bit(
    registry: &MobilityRegistry,
    config: FleetConfig,
    policy: &FleetChaffPolicy,
    horizon: usize,
) -> chaff_sim::fleet::FleetStats {
    let (batch, detections) = batch_pipeline(registry, config.clone(), policy, 2);
    let engine = StreamingFleetEngine::with_registry(registry, config, policy)
        .expect("engine")
        .with_ring_depth(horizon);
    assert_stream_equals_batch(
        engine,
        &batch,
        &detections,
        registry.num_states(),
        "capacity replay",
    );
    batch.stats
}

/// The spill path is exercised for sure: a tight fit of 18 services on
/// 8 cells × capacity 3 spills, and still streams bit for bit.
#[test]
fn tight_capacity_spills_and_streams_bit_for_bit() {
    let registry = mixed_registry(17, 8, 2);
    let policy = FleetChaffPolicy::uniform(strategy_from(2), 2);
    let config = FleetConfig::new(6, 8).with_seed(29).with_capacity(3);
    let stats = assert_capacity_run_streams_bit_for_bit(&registry, config, &policy, 8);
    assert!(stats.spills > 0, "tight capacity never spilled: {stats:?}");
}

/// Everything a streamed run exposes, slot by slot and at the end.
#[derive(PartialEq)]
struct StreamRun {
    detections: Vec<chaff_core::detector::Detection>,
    /// Per-slot (tracking, detection) accuracy bits.
    accuracy_bits: Vec<(u64, u64)>,
    rows: Vec<Vec<CellId>>,
    stats: chaff_sim::fleet::FleetStats,
    feedback_bits: Vec<u64>,
}

/// Streams a registry fleet to its horizon with `shards` bands, drawing
/// user cells, or ingesting them from `ingest` (user-major rows) when
/// given.
fn stream_run(
    registry: &MobilityRegistry,
    config: FleetConfig,
    policy: &FleetChaffPolicy,
    shards: usize,
    ingest: Option<&chaff_markov::TrajectoryArena>,
) -> StreamRun {
    let horizon = config.horizon;
    let users = config.num_users;
    let mut engine =
        StreamingFleetEngine::with_registry(registry, config.with_shards(shards), policy)
            .expect("engine")
            .with_ring_depth(horizon)
            .with_feedback();
    let mut detections = Vec::with_capacity(horizon);
    let mut accuracy_bits = Vec::with_capacity(horizon);
    for t in 0..horizon {
        let step = match ingest {
            Some(cells) => {
                let row: Vec<CellId> = (0..users).map(|u| cells.row(u)[t]).collect();
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
        detections.push(step.detection);
    }
    StreamRun {
        detections,
        accuracy_bits,
        rows: (0..horizon)
            .map(|t| engine.observed_row(t).expect("ring").to_vec())
            .collect(),
        stats: engine.stats(),
        feedback_bits: engine
            .user_feedback()
            .expect("feedback on")
            .iter()
            .map(|a| a.to_bits())
            .collect(),
    }
}

/// The batch pipeline's run in the same shape. Per-slot accuracies use
/// the per-user loop over observed rows (tie-set cell histogram, one
/// lookup per user), the form the engine's cell counts must reproduce
/// exactly.
fn batch_run(
    registry: &MobilityRegistry,
    config: FleetConfig,
    policy: &FleetChaffPolicy,
) -> (StreamRun, FleetOutcome) {
    let (batch, detections) = batch_pipeline(registry, config, policy, 2);
    let users = batch.user_observed_indices.len() as f64;
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
            let named = tie
                .iter()
                .filter(|i| batch.user_observed_indices.contains(i))
                .count();
            let ties = tie.len() as f64;
            (
                (hits as f64 / ties / users).to_bits(),
                (named as f64 / ties / users).to_bits(),
            )
        })
        .collect();
    let bridged = chaff_core::detector::AccuracyFeedback::from_detections(
        batch.observed.num_trajectories(),
        &detections,
    );
    let run = StreamRun {
        accuracy_bits,
        rows: (0..detections.len())
            .map(|t| batch.observed.row(t).to_vec())
            .collect(),
        stats: batch.stats,
        feedback_bits: batch
            .user_observed_indices
            .iter()
            .map(|&column| bridged.accuracy(column).to_bits())
            .collect(),
        detections,
    };
    (run, batch)
}

/// The banded slot pass cannot depend on its band count: at
/// `N = 2·10⁴` over a 3-class registry (IM / CML / MO at `B = 2`), runs
/// with 1, 2, 3 and 8 bands (`with_shards`) equal each other and the
/// batch pipeline bit for bit — uncapped, capped with spills, and on the
/// ingest path.
#[test]
fn band_count_never_changes_a_streamed_fleet_at_scale() {
    use chaff_sim::fleet::FleetChaffStrategy::{Cml, Im, Mo};

    let registry = mixed_registry(2017, 8, 3);
    let policy = FleetChaffPolicy::per_class(vec![(Im, 2), (Cml, 2), (Mo, 2)]);
    let (users, horizon) = (20_000, 6);
    let uncapped = FleetConfig::new(users, horizon).with_seed(31);
    // A tight fit of the 60,000 services on 8 cells, so nodes fill up.
    let capped = uncapped
        .clone()
        .with_capacity((users * 3).div_ceil(registry.num_states()));
    for (label, config) in [("uncapped", uncapped), ("capped", capped)] {
        let (expected, batch) = batch_run(&registry, config.clone(), &policy);
        if label == "capped" {
            assert!(batch.stats.spills > 0, "tight capacity never spilled");
        }
        for shards in [1, 2, 3, 8] {
            let drawn = stream_run(&registry, config.clone(), &policy, shards, None);
            assert!(drawn == expected, "{label}: {shards} bands diverged");
            let cells = Some(&batch.user_cells);
            let ingested = stream_run(&registry, config.clone(), &policy, shards, cells);
            assert!(
                ingested == expected,
                "{label}, ingested: {shards} bands diverged"
            );
        }
    }
}

/// FNV-1a over a detection stream: tie-set lengths and indices, slot by
/// slot — a compact, layout-independent fingerprint.
fn detection_checksum(detections: &[chaff_core::detector::Detection]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |value: u64| {
        hash ^= value;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    };
    for d in detections {
        eat(d.tie_set().len() as u64);
        for &i in d.tie_set() {
            eat(i as u64);
        }
    }
    hash
}

/// The deterministic `N = 10⁴` rung: a pinned multi-class chaffed fleet
/// streams to the same detections as the batch pipeline, and the
/// detection stream's checksum is pinned so *any* behavioural drift in
/// either path — not just divergence between them — fails loudly.
#[test]
fn ten_thousand_user_golden_stream_matches_batch_and_its_pinned_checksum() {
    let registry = mixed_registry(1709, 10, 3);
    let policy = FleetChaffPolicy::uniform(strategy_from(1), 1);
    let config = FleetConfig::new(10_000, 12).with_seed(42).with_shards(7);
    let (batch, detections) = batch_pipeline(&registry, config.clone(), &policy, 7);
    let mut engine = StreamingFleetEngine::with_registry(&registry, config, &policy)
        .expect("engine")
        .with_ring_depth(12);
    let mut streamed = Vec::with_capacity(12);
    while let Some(step) = engine.step().expect("slot") {
        streamed.push(step.detection);
    }
    assert_eq!(streamed, detections);
    assert_eq!(engine.stats(), batch.stats);
    let checksum = detection_checksum(&streamed);
    assert_eq!(checksum, detection_checksum(&detections));
    assert_eq!(
        checksum, GOLDEN_CHECKSUM,
        "pinned N = 10⁴ detection stream drifted"
    );
}

/// Pinned by the first verified run of the golden test; both engines
/// must keep reproducing it bit for bit.
const GOLDEN_CHECKSUM: u64 = 10_860_112_576_840_803_285;

/// The acceptance-scale memory bound: at `N = 10⁵` with a horizon far
/// beyond the ring depth, engine state is `O(width · ring_depth + N)` —
/// constant across slots and far below the `O(N · T)` batch grid.
#[test]
fn hundred_thousand_user_stream_memory_is_horizon_independent() {
    let n = 100_000;
    let horizon = 96; // T = 12 × ring_depth: the grid would be 38.4 MB.
    let chain = nonskewed_chain(7, 10);
    let policy = FleetChaffPolicy::uniform(strategy_from(0), 0);
    let mut engine =
        StreamingFleetEngine::new(&chain, FleetConfig::new(n, horizon).with_seed(9), &policy)
            .expect("engine");
    assert_eq!(engine.ring_depth(), 8);
    // Steady state is reached once the ring is full.
    for _ in 0..engine.ring_depth() {
        engine.step().expect("slot").expect("slot");
    }
    let after_ring_full = engine.state_bytes();
    while engine.step().expect("slot").is_some() {}
    assert_eq!(engine.slots_run(), horizon);
    let after_all = engine.state_bytes();
    assert_eq!(
        after_ring_full, after_all,
        "state grew with the horizon: {after_ring_full} -> {after_all}"
    );
    // Far below the batch grid (N × T × 4 bytes), and linear in N.
    let grid_bytes = n * horizon * 4;
    assert!(
        after_all < grid_bytes / 3,
        "{after_all} vs grid {grid_bytes}"
    );
    assert!(after_all <= 128 * n, "{after_all} exceeds 128 bytes/user");
}
