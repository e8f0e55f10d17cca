//! Extension experiment: trace-backed chaffed fleets — closing the loop
//! from raw GPS traces to fleet-scale detection numbers.
//!
//! The paper's synthetic fleet sweeps (`multiuser`, `fleet_chaff`) draw
//! every user from a hand-built Markov model. This experiment instead
//! *ingests* a (synthetic stand-in for the) CRAWDAD taxi dataset through
//! the streaming, sharded `chaff-mobility` pipeline, amplified to
//! 10⁴–10⁵ nodes via per-replica seed streams, then:
//!
//! 1. clusters the amplified nodes into mobility *classes* by how many
//!    distinct cells they visit (dwellers → movers — the heterogeneity
//!    axis of Esper et al., arXiv:2306.15740);
//! 2. estimates one empirical Markov chain per class (the per-class
//!    transition-count matrices of the trace window);
//! 3. wires the classes into a [`MobilityRegistry`] whose explicit
//!    assignment maps fleet user `u` onto the class of trace node
//!    `u mod nodes`;
//! 4. runs the whole population through
//!    [`FleetSimulation::run_chaffed`] under a uniform IM chaff policy
//!    and scores it with the multi-class batched detector — exactly the
//!    chaff-based formulation of He et al. (arXiv:1709.03133), but on
//!    empirical rather than synthetic mobility.
//!
//! Reported per budget `B`: tracking/detection accuracy over all users,
//! the eq. (11) reference at the *pooled* empirical occupancy, ingestion
//! throughput (nodes/sec through the streaming pipeline) and fleet
//! throughput (user-slots/sec through simulate + detect).

use super::score_columns;
use crate::report::Table;
use chaff_core::detector::{BatchPrefixDetector, DetectInput};
use chaff_core::theory::im_tracking_accuracy;
use chaff_markov::{MarkovChain, MobilityRegistry};
use chaff_mobility::empirical::EmpiricalAccumulator;
use chaff_mobility::pipeline::{TraceDataset, TraceDatasetBuilder};
use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
use std::time::Instant;

/// Per-user chaff budgets swept by the full experiment.
pub const BUDGETS: [usize; 3] = [0, 1, 2];

/// Budgets swept under `--quick`.
pub const QUICK_BUDGETS: [usize; 2] = [0, 1];

/// Configuration of the trace-backed fleet experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFleetConfig {
    /// Taxis per replica (the paper's 174 usable nodes).
    pub num_nodes: usize,
    /// Towers generated before the 100 m separation filter.
    pub num_towers: usize,
    /// Trace-window slots used for model estimation.
    pub dataset_slots: usize,
    /// Fleet replicas (amplification factor): the dataset holds about
    /// `num_nodes × replicas` nodes before inactivity filtering.
    pub replicas: usize,
    /// Number of empirical mobility classes to cluster nodes into.
    pub classes: usize,
    /// Slots to simulate the fleet for.
    pub fleet_horizon: usize,
    /// Experiment seed (ingestion and fleet).
    pub seed: u64,
    /// Worker shards for ingestion, simulation and detection; `None`
    /// sizes from available parallelism. Results never depend on this.
    pub shards: Option<usize>,
}

impl Default for TraceFleetConfig {
    fn default() -> Self {
        TraceFleetConfig {
            num_nodes: 174,
            num_towers: 1_100,
            dataset_slots: 100,
            // ~12,500 simulated taxis; ≈10⁴ survive the 5-minute filter.
            replicas: 72,
            classes: 3,
            fleet_horizon: 100,
            seed: 1709,
            shards: None,
        }
    }
}

impl TraceFleetConfig {
    /// A reduced-scale configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        TraceFleetConfig {
            num_nodes: 40,
            num_towers: 220,
            dataset_slots: 20,
            replicas: 4,
            classes: 2,
            fleet_horizon: 16,
            seed: 1705,
            shards: None,
        }
    }

    /// Builds the amplified trace dataset.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn build_dataset(&self) -> crate::Result<TraceDataset> {
        let mut builder = TraceDatasetBuilder::new()
            .num_nodes(self.num_nodes)
            .num_towers(self.num_towers)
            .horizon_slots(self.dataset_slots)
            .replicas(self.replicas)
            .seed(self.seed);
        if let Some(shards) = self.shards {
            builder = builder.shards(shards);
        }
        Ok(builder.build()?)
    }
}

/// One measured `(fleet, budget)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceFleetPoint {
    /// Active nodes in the amplified dataset (= simulated users).
    pub num_users: usize,
    /// Voronoi cells of the trace layout.
    pub cells: usize,
    /// Empirical mobility classes.
    pub classes: usize,
    /// Per-user chaff budget `B`.
    pub budget: usize,
    /// Observed services (`N · (1 + B)`).
    pub services: usize,
    /// Mean time-average tracking accuracy over all users.
    pub tracking_accuracy: f64,
    /// Mean time-average detection accuracy (exact identification).
    pub detection_accuracy: f64,
    /// eq. (11) reference at the pooled empirical occupancy and the
    /// chaffed population `N · (1 + B)` (a mixture-model approximation:
    /// per-class occupancies differ, so this is a guide, not an oracle).
    pub predicted: f64,
    /// Streaming-ingestion throughput in nodes/sec (amplified dataset
    /// build, shared across the budget sweep).
    pub ingest_throughput: f64,
    /// Fleet throughput in user-slots/sec over simulate + detect.
    pub fleet_throughput: f64,
}

/// Number of distinct cells a trajectory visits — the scalar mobility
/// feature the clustering orders nodes by. Kept as the single shared
/// definition so a future EM-style clustering can swap the feature (or
/// the whole assignment step) in one place.
pub fn distinct_cells(trajectory: &chaff_markov::Trajectory) -> usize {
    let mut cells: Vec<usize> = trajectory.iter().map(|c| c.index()).collect();
    cells.sort_unstable();
    cells.dedup();
    cells.len()
}

/// Clusters nodes into `classes` classes by how many distinct cells they
/// visit (ascending: class 0 holds the most dwelling, most trackable
/// nodes), returning one class label per node.
pub fn cluster_by_mobility(dataset: &TraceDataset, classes: usize) -> Vec<usize> {
    let n = dataset.trajectories().len();
    let classes = classes.clamp(1, n.max(1));
    let mobility: Vec<usize> = dataset.trajectories().iter().map(distinct_cells).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (mobility[i], i));
    let mut assignment = vec![0usize; n];
    let chunk = n.div_ceil(classes);
    for (class, nodes) in order.chunks(chunk).enumerate() {
        for &node in nodes {
            assignment[node] = class;
        }
    }
    assignment
}

/// Estimates one empirical chain per class and assembles the registry
/// with the node→class assignment.
///
/// # Errors
///
/// Propagates estimation and registry errors.
pub fn build_registry(
    dataset: &TraceDataset,
    assignment: Vec<usize>,
) -> crate::Result<MobilityRegistry> {
    let num_classes = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let num_cells = dataset.cell_map().num_cells();
    let mut accumulators: Vec<EmpiricalAccumulator> = (0..num_classes)
        .map(|_| EmpiricalAccumulator::new(num_cells))
        .collect::<chaff_mobility::Result<_>>()?;
    for (trajectory, &class) in dataset.trajectories().iter().zip(&assignment) {
        accumulators[class].record(trajectory)?;
    }
    let chains: Vec<MarkovChain> = accumulators
        .into_iter()
        .map(|acc| acc.finish(0.0).map(|model| model.chain().clone()))
        .collect::<chaff_mobility::Result<_>>()?;
    Ok(MobilityRegistry::with_assignment(chains, assignment)?)
}

/// Measures one budget cell over an already-built dataset and registry.
///
/// # Errors
///
/// Propagates fleet and detection errors.
pub fn measure(
    dataset: &TraceDataset,
    registry: &MobilityRegistry,
    budget: usize,
    config: &TraceFleetConfig,
    ingest_throughput: f64,
) -> crate::Result<TraceFleetPoint> {
    let num_users = dataset.trajectories().len();
    let mut fleet_config =
        FleetConfig::new(num_users, config.fleet_horizon).with_seed(config.seed ^ 0x7ACE_F1EE7);
    if let Some(shards) = config.shards {
        fleet_config = fleet_config.with_shards(shards);
    }
    let detector = match config.shards {
        Some(s) => BatchPrefixDetector::with_shards(s),
        None => BatchPrefixDetector::new(),
    };
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, budget);
    let started = Instant::now();
    let outcome = FleetSimulation::with_registry(registry, fleet_config).run_chaffed(&policy)?;
    let detections = detector.detect_prefixes(DetectInput::new(registry, &outcome.observed))?;
    let elapsed = started.elapsed().as_secs_f64();
    let (tracking, detection) = score_columns(
        &outcome.observed,
        outcome.user_observed_indices.iter().copied(),
        &detections,
    );
    let services = outcome.observed.num_trajectories();
    Ok(TraceFleetPoint {
        num_users,
        cells: dataset.cell_map().num_cells(),
        classes: registry.num_classes(),
        budget,
        services,
        tracking_accuracy: tracking / num_users as f64,
        detection_accuracy: detection / num_users as f64,
        predicted: im_tracking_accuracy(dataset.model().initial(), services),
        ingest_throughput,
        fleet_throughput: outcome.stats.user_slots as f64 / elapsed.max(f64::MIN_POSITIVE),
    })
}

/// Runs the budget sweep: one streamed ingestion, one registry, one
/// fleet run per budget.
///
/// # Errors
///
/// Propagates pipeline, estimation and fleet errors.
pub fn run_with(config: &TraceFleetConfig, budgets: &[usize]) -> crate::Result<Table> {
    let started = Instant::now();
    let dataset = config.build_dataset()?;
    let ingest_elapsed = started.elapsed().as_secs_f64();
    let ingest_throughput =
        dataset.trajectories().len() as f64 / ingest_elapsed.max(f64::MIN_POSITIVE);
    let registry = build_registry(&dataset, cluster_by_mobility(&dataset, config.classes))?;
    let mut table = Table::new(
        "trace_fleet",
        "trace-backed chaffed fleets: streamed amplified ingestion -> per-class \
         empirical chains -> fleet detection",
        vec![
            "nodes".into(),
            "cells".into(),
            "classes".into(),
            "B".into(),
            "services".into(),
            "tracking".into(),
            "eq. (11) pooled".into(),
            "detection".into(),
            "ingest nodes/s".into(),
            "user-slots/s".into(),
        ],
    );
    for &budget in budgets {
        let point = measure(&dataset, &registry, budget, config, ingest_throughput)?;
        table.push(vec![
            point.num_users.to_string(),
            point.cells.to_string(),
            point.classes.to_string(),
            point.budget.to_string(),
            point.services.to_string(),
            format!("{:.4}", point.tracking_accuracy),
            format!("{:.4}", point.predicted),
            format!("{:.6}", point.detection_accuracy),
            format!("{:.0}", point.ingest_throughput),
            format!("{:.0}", point.fleet_throughput),
        ]);
    }
    Ok(table)
}

/// Runs the full sweep.
///
/// # Errors
///
/// Propagates pipeline, estimation and fleet errors.
pub fn run(config: &TraceFleetConfig) -> crate::Result<Table> {
    run_with(config, &BUDGETS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_orders_classes_by_mobility_and_covers_all_nodes() {
        let config = TraceFleetConfig::quick();
        let dataset = config.build_dataset().unwrap();
        let assignment = cluster_by_mobility(&dataset, 2);
        assert_eq!(assignment.len(), dataset.trajectories().len());
        // Every class-0 node visits no more cells than any class-1 node.
        let max0 = dataset
            .trajectories()
            .iter()
            .zip(&assignment)
            .filter(|(_, &c)| c == 0)
            .map(|(t, _)| distinct_cells(t))
            .max()
            .unwrap();
        let min1 = dataset
            .trajectories()
            .iter()
            .zip(&assignment)
            .filter(|(_, &c)| c == 1)
            .map(|(t, _)| distinct_cells(t))
            .min()
            .unwrap();
        assert!(max0 <= min1, "class 0 (dwellers) {max0} !<= class 1 {min1}");
    }

    #[test]
    fn registry_classes_explain_their_own_nodes_best() {
        let config = TraceFleetConfig::quick();
        let dataset = config.build_dataset().unwrap();
        let assignment = cluster_by_mobility(&dataset, 2);
        let registry = build_registry(&dataset, assignment.clone()).unwrap();
        assert_eq!(registry.num_classes(), 2);
        assert_eq!(registry.num_states(), dataset.cell_map().num_cells());
        // Pooled over each class, the class's own chain must dominate.
        let mut own = 0.0;
        let mut other = 0.0;
        for (t, &class) in dataset.trajectories().iter().zip(&assignment) {
            own += registry.chain(class).log_likelihood(t);
            other += registry.chain(1 - class).log_likelihood(t);
        }
        assert!(own > other, "own {own} !> other {other}");
        // The explicit assignment is what class_of consults.
        for (node, &class) in assignment.iter().enumerate() {
            assert_eq!(registry.class_of(node), class);
        }
    }

    #[test]
    fn quick_sweep_produces_one_row_per_budget() {
        let config = TraceFleetConfig::quick();
        let table = run_with(&config, &[0, 1]).unwrap();
        assert_eq!(table.rows.len(), 2);
    }

    #[test]
    fn chaff_budget_dilutes_detection_on_trace_fleets() {
        let config = TraceFleetConfig::quick();
        let dataset = config.build_dataset().unwrap();
        let registry = build_registry(&dataset, cluster_by_mobility(&dataset, 2)).unwrap();
        let b0 = measure(&dataset, &registry, 0, &config, 1.0).unwrap();
        let b2 = measure(&dataset, &registry, 2, &config, 1.0).unwrap();
        assert_eq!(b2.services, 3 * b0.services);
        assert!(
            b2.detection_accuracy < b0.detection_accuracy,
            "chaffed {} !< undefended {}",
            b2.detection_accuracy,
            b0.detection_accuracy
        );
        assert!(
            b2.tracking_accuracy <= b0.tracking_accuracy + 0.02,
            "chaffed tracking {} should not exceed undefended {}",
            b2.tracking_accuracy,
            b0.tracking_accuracy
        );
    }

    #[test]
    fn acceptance_amplified_ten_thousand_node_trace_fleet() {
        // The ISSUE 4 acceptance run: an amplified ≥10,000-node
        // trace-backed fleet, end to end — streamed sharded ingestion,
        // per-class empirical chains, run_chaffed, batched multi-class
        // detection.
        let config = TraceFleetConfig {
            num_nodes: 174,
            num_towers: 220,
            dataset_slots: 20,
            replicas: 64,
            classes: 3,
            fleet_horizon: 12,
            seed: 1709,
            shards: None,
        };
        let dataset = config.build_dataset().unwrap();
        assert!(
            dataset.trajectories().len() >= 10_000,
            "amplified fleet has only {} active nodes",
            dataset.trajectories().len()
        );
        let registry = build_registry(&dataset, cluster_by_mobility(&dataset, 3)).unwrap();
        assert_eq!(registry.num_classes(), 3);
        let point = measure(&dataset, &registry, 1, &config, 1.0).unwrap();
        assert_eq!(point.services, 2 * point.num_users);
        assert!(point.fleet_throughput > 0.0);
        // Sanity: accuracies are proper probabilities and tracking at
        // N ≥ 20,000 services sits near the pooled collision floor.
        assert!((0.0..=1.0).contains(&point.tracking_accuracy));
        assert!((0.0..=1.0).contains(&point.detection_accuracy));
        assert!(
            point.tracking_accuracy < 0.5,
            "tracking {} should be far below 1 at this scale",
            point.tracking_accuracy
        );
    }
}
