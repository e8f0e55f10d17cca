//! `batch_chaffed`: the whole chaffed batch pipeline at the
//! `N = 5·10⁴` rung.
//!
//! Three 10-cell mobility classes (models a, b, c) with one chaff
//! strategy each (IM, CML, MO) at `B = 2`, `T = 24`, anonymized, no
//! capacity limit. One op simulates a fresh fleet (`run_chaffed`),
//! detects over the registry's columnar grid and computes both accuracy
//! means. Drawing, chaff generation and the anonymizing scatter do most
//! of the work; the detection tables fit in L1.

use crate::harness::{counted, LayerErrors, Metrics, Workload};
use crate::probes;
use crate::trace::Tracer;
use chaff_core::detector::{
    BatchPrefixDetector, DetectInput, DetectModel, Detection, StreamingPrefixDetector,
};
use chaff_markov::models::ModelKind;
use chaff_markov::{CellGrid, MarkovChain, MobilityRegistry};
use chaff_sim::fleet::{
    user_seed, FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetOutcome, FleetSimulation,
};
use chaff_sim::streaming::StreamingFleetEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;

const USERS: usize = 50_000;
const HORIZON: usize = 24;
const CELLS: usize = 10;
const BUDGET: usize = 2;
const SERVICES: usize = USERS * (1 + BUDGET);
const CLASSES: [ModelKind; 3] = [
    ModelKind::NonSkewed,
    ModelKind::SpatiallySkewed,
    ModelKind::TemporallySkewed,
];
/// Class `c` runs `STRATEGIES[c]`.
const STRATEGIES: [FleetChaffStrategy; 3] = [
    FleetChaffStrategy::Im,
    FleetChaffStrategy::Cml,
    FleetChaffStrategy::Mo,
];
/// Seed of the fixed mobility chains.
const CHAIN_SEED: u64 = 51;
/// Op index of the untimed warm-up op.
const WARM_UP: u64 = u64::MAX;

pub struct BatchChaffed {
    seed: u64,
    registry: MobilityRegistry,
    policy: FleetChaffPolicy,
    detector: BatchPrefixDetector,
    errors: LayerErrors,
    /// The latest op's outcome and detections, for the probes.
    last: Option<(FleetOutcome, Vec<Detection>)>,
    ties: usize,
    detections: usize,
    spills: usize,
    migrations: usize,
    user_slots: usize,
}

impl BatchChaffed {
    /// Op `op` simulates a fresh fleet, seeded with the workspace's own
    /// stream derivation.
    fn config(&self, op: u64) -> FleetConfig {
        FleetConfig::new(USERS, HORIZON).with_seed(user_seed(self.seed, op))
    }

    fn simulate(
        &mut self,
        config: FleetConfig,
        tracer: &mut Tracer,
    ) -> Result<FleetOutcome, String> {
        let id = tracer.enter("sim.run_chaffed");
        let outcome =
            FleetSimulation::with_registry(&self.registry, config).run_chaffed(&self.policy);
        tracer.exit(id);
        counted(outcome, &mut self.errors.sim, "run_chaffed")
    }

    fn detect(&mut self, grid: &CellGrid, tracer: &mut Tracer) -> Result<Vec<Detection>, String> {
        let id = tracer.enter("core.detect");
        let detections = self.detector.detect_prefixes(DetectInput::new(
            DetectModel::Registry(&self.registry),
            grid,
        ));
        tracer.exit(id);
        counted(detections, &mut self.errors.core, "detect_prefixes")
    }
}

/// Per-slot `(tracking, detection)` accuracy of a batch run, computed
/// with the streaming engine's per-slot formulas, so that equal
/// detections over equal rows give bit-for-bit equal values.
fn slot_accuracies(grid: &CellGrid, users: &[usize], detections: &[Detection]) -> Vec<(f64, f64)> {
    let n = users.len() as f64;
    let mut is_user = vec![false; grid.num_trajectories()];
    for &u in users {
        is_user[u] = true;
    }
    let mut histogram = [0usize; CELLS];
    detections
        .iter()
        .enumerate()
        .map(|(t, d)| {
            let (row, tie) = (grid.row(t), d.tie_set());
            for &i in tie {
                histogram[row[i].index()] += 1;
            }
            let hits: usize = users.iter().map(|&u| histogram[row[u].index()]).sum();
            for &i in tie {
                histogram[row[i].index()] = 0;
            }
            let named = tie.iter().filter(|&&i| is_user[i]).count();
            (
                hits as f64 / tie.len() as f64 / n,
                named as f64 / tie.len() as f64 / n,
            )
        })
        .collect()
}

impl Workload for BatchChaffed {
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        // The chains are fixed, so an op's cost does not depend on which
        // random matrices a seed happens to draw; the seed drives the
        // fleets.
        let mut rng = StdRng::seed_from_u64(CHAIN_SEED);
        let chains = CLASSES
            .iter()
            .map(|kind| {
                let matrix = kind.build(CELLS, &mut rng).map_err(|e| e.to_string())?;
                MarkovChain::new(matrix).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let registry = MobilityRegistry::new(chains).map_err(|e| e.to_string())?;
        let policy = FleetChaffPolicy::per_class(STRATEGIES.iter().map(|&s| (s, BUDGET)).collect());
        let mut w = BatchChaffed {
            seed,
            registry,
            policy,
            detector: BatchPrefixDetector::new(),
            errors: LayerErrors::default(),
            last: None,
            ties: 0,
            detections: 0,
            spills: 0,
            migrations: 0,
            user_slots: 0,
        };
        w.op(WARM_UP, tracer)?;
        Ok(w)
    }

    /// The streaming engine, run on op 0's fleet, must reproduce the
    /// batch pipeline's detections and per-slot accuracies bit for bit.
    fn verify(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let config = self.config(0);
        let outcome = self.simulate(config.clone(), tracer)?;
        let detections = self.detect(&outcome.observed, tracer)?;
        let users = &outcome.user_observed_indices;
        let reference = slot_accuracies(&outcome.observed, users, &detections);
        let engine = StreamingFleetEngine::with_registry(&self.registry, config, &self.policy);
        let mut engine = counted(engine, &mut self.errors.sim, "streaming engine")?;
        for (t, (tracking, detection)) in reference.iter().enumerate() {
            let id = tracer.enter("verify.step");
            let step = engine.step();
            tracer.exit(id);
            let step =
                counted(step, &mut self.errors.sim, "step")?.ok_or("engine stopped early")?;
            if step.detection != detections[t] {
                return Err(format!("slot {t}: streamed detection differs from batch"));
            }
            if step.tracking_accuracy.to_bits() != tracking.to_bits()
                || step.detection_accuracy.to_bits() != detection.to_bits()
            {
                return Err(format!("slot {t}: streamed accuracies differ from batch"));
            }
        }
        if engine.step().map_err(|e| e.to_string())?.is_some() {
            return Err("engine ran past the horizon".into());
        }
        // The batch means are the same per-slot values, summed in
        // another order.
        let (tracking, detection) = probes::accuracy(
            &outcome.observed,
            users,
            &detections,
            CELLS,
            "verify.accuracy",
            tracer,
        );
        let t = HORIZON as f64;
        let streamed_tracking: f64 = reference.iter().map(|r| r.0).sum::<f64>() / t;
        let streamed_detection: f64 = reference.iter().map(|r| r.1).sum::<f64>() / t;
        if (tracking - streamed_tracking).abs() > 1e-12
            || (detection - streamed_detection).abs() > 1e-12
        {
            return Err("batch accuracy means disagree with the per-slot values".into());
        }
        Ok(())
    }

    fn user_slots_per_op(&self) -> usize {
        USERS * HORIZON
    }

    fn before_op(&mut self, _i: u64) -> Result<(), String> {
        self.last = None;
        Ok(())
    }

    fn op(&mut self, i: u64, tracer: &mut Tracer) -> Result<(), String> {
        let outcome = self.simulate(self.config(i), tracer)?;
        let detections = self.detect(&outcome.observed, tracer)?;
        let users = &outcome.user_observed_indices;
        let (tracking, detection) = probes::accuracy(
            &outcome.observed,
            users,
            &detections,
            CELLS,
            "core.accuracy",
            tracer,
        );
        if detections.len() != HORIZON || outcome.observed.num_trajectories() != SERVICES {
            return Err("outcome has the wrong shape".into());
        }
        if outcome.stats.user_slots != USERS * HORIZON {
            return Err(format!("user_slots = {}", outcome.stats.user_slots));
        }
        probes::check_probability("tracking accuracy", tracking)?;
        probes::check_probability("detection accuracy", detection)?;
        self.ties += detections.iter().map(|d| d.tie_set().len()).sum::<usize>();
        self.detections += detections.len();
        self.spills += outcome.stats.spills;
        self.migrations += outcome.stats.migrations;
        self.user_slots += outcome.stats.user_slots;
        self.last = Some((outcome, detections));
        Ok(())
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        let chains: Vec<&MarkovChain> =
            (0..CLASSES.len()).map(|c| self.registry.chain(c)).collect();
        out.set(
            "markov.step_ns",
            probes::markov_step_ns(&chains, self.seed, tracer),
            "ns",
        );
        let registry = &self.registry;
        let class_of = |s| {
            STRATEGIES
                .iter()
                .position(|&x| x == s)
                .expect("every strategy has a class")
        };
        probes::chaff_next_ns(
            |s| s.controller(registry.chain(class_of(s))),
            registry.chain(0),
            self.seed,
            tracer,
            out,
        );

        out.set(
            "sim.run_chaffed_ms",
            tracer.op_median_ms("sim.run_chaffed")?,
            "ms",
        );
        let config = self.config(0);
        let make = |c| FleetSimulation::with_registry(registry, c);
        probes::sim_split(
            make,
            &config,
            &self.policy,
            3,
            tracer,
            &mut self.errors,
            out,
        )?;

        // Placement: the same fleet streamed with a capacity limit that
        // spills, against the uncapped engine `verify` stepped.
        let capacity = SERVICES.div_ceil(CELLS) * 11 / 10;
        let capped = StreamingFleetEngine::with_registry(
            registry,
            config.with_capacity(capacity),
            &self.policy,
        );
        let mut capped = counted(capped, &mut self.errors.sim, "streaming engine")?;
        probes::step_engine(
            &mut capped,
            HORIZON,
            "probe.step_capacity",
            tracer,
            &mut self.errors,
        )?;
        let step = tracer.median_ms("verify.step")?;
        let step_capped = tracer.median_ms("probe.step_capacity")?;
        out.set("sim.step_ms", step, "ms");
        out.set("sim.placement_ms", step_capped - step, "ms");
        let slots = self.detections.max(1) as f64;
        out.set("sim.spills_per_slot", self.spills as f64 / slots, "count");
        let migrations = self.migrations as f64 / self.user_slots.max(1) as f64;
        out.set("sim.migrations_per_user_slot", migrations, "ratio");

        let detect_ms = tracer.op_median_ms("core.detect")?;
        out.set("core.detect_ms", detect_ms, "ms");
        let per_service_slot = detect_ms * 1e6 / (SERVICES * HORIZON) as f64;
        out.set("core.detect_ns_per_service_slot", per_service_slot, "ns");
        out.set(
            "core.accuracy_ms",
            tracer.op_median_ms("core.accuracy")?,
            "ms",
        );
        out.set("core.tie_set_mean", self.ties as f64 / slots, "count");

        let (outcome, _) = self.last.as_ref().ok_or("no op completed")?;
        let tables = registry.tables().into_iter().cloned().collect();
        let twin = StreamingPrefixDetector::with_shards(
            tables,
            SERVICES,
            chaff_core::pool::global().threads(),
        );
        let mut twin = counted(twin, &mut self.errors.core, "streaming detector")?;
        for t in 0..HORIZON {
            let id = tracer.enter("probe.push_slot");
            let pushed = twin.push_slot(outcome.observed.row(t));
            tracer.exit(id);
            counted(pushed, &mut self.errors.core, "push_slot")?;
        }
        out.set(
            "core.push_slot_ms",
            tracer.median_ms("probe.push_slot")?,
            "ms",
        );
        probes::store_roundtrip(outcome, 3, None, tracer, &mut self.errors, out)
    }

    fn errors(&self) -> LayerErrors {
        self.errors
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        let table_bytes = (CELLS * CELLS * 8) as u64;
        vec![
            ("users", USERS as u64),
            ("services", SERVICES as u64),
            ("horizon", HORIZON as u64),
            ("cells", CELLS as u64),
            ("table_bytes", table_bytes),
            ("tables_bytes_total", table_bytes * CLASSES.len() as u64),
            ("grid_bytes", (SERVICES * HORIZON * 4) as u64),
        ]
    }
}
