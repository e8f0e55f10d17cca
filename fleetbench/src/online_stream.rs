//! `online_stream`: the `N = 10⁶` rung run online, one slot per op.
//!
//! One 10-cell NonSkewed chain, IM at `B = 1`, accuracy feedback on, and
//! a per-node capacity 10% above an even spread of the services, so a
//! nonzero share of placements spill. The engine is stepped past its
//! slot ring during set-up; one op is one `StreamingFleetEngine::step`.
//! Only this workload exercises capacity placement, the per-row scatter,
//! `push_slot` with feedback and the serial draw/chaff loop.

use crate::harness::{counted, LayerErrors, Metrics, Workload};
use crate::probes;
use crate::trace::Tracer;
use chaff_core::detector::{Detection, StreamingPrefixDetector};
use chaff_markov::models::ModelKind;
use chaff_markov::{CellGrid, MarkovChain, TrajectoryArena};
use chaff_sim::fleet::{
    FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetOutcome, FleetSimulation, FleetStats,
};
use chaff_sim::streaming::StreamingFleetEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;

const USERS: usize = 1_000_000;
const CELLS: usize = 10;
const BUDGET: usize = 1;
const SERVICES: usize = USERS * (1 + BUDGET);
/// Far more slots than a run can step; the engine's state does not
/// grow with the horizon.
const HORIZON: usize = 1_000_000;
/// Capacity per node: 10% above an even spread of the services.
const CAPACITY: usize = SERVICES.div_ceil(CELLS) * 11 / 10;
/// Seed of the fixed mobility chain.
const CHAIN_SEED: u64 = 63;
/// Steps of the no-capacity twin engine in the placement probe.
const TWIN_STEPS: usize = 8;

pub struct OnlineStream {
    seed: u64,
    chain: &'static MarkovChain,
    policy: FleetChaffPolicy,
    engine: StreamingFleetEngine<'static>,
    /// Counters when set-up ended, so rates cover timed slots only.
    base: (FleetStats, usize),
    /// Traced runs feed every observed row to this twin detector.
    twin: Option<StreamingPrefixDetector>,
    last: Option<Detection>,
    ties: usize,
    steps: usize,
    errors: LayerErrors,
}

impl OnlineStream {
    fn config(seed: u64) -> FleetConfig {
        FleetConfig::new(USERS, HORIZON)
            .with_seed(seed)
            .with_capacity(CAPACITY)
    }

    fn build_engine(&self, config: FleetConfig) -> Result<StreamingFleetEngine<'static>, String> {
        StreamingFleetEngine::new(self.chain, config, &self.policy)
            .map(StreamingFleetEngine::with_feedback)
            .map_err(|e| e.to_string())
    }

    /// Steps an engine past its slot ring, so later steps neither
    /// allocate nor take the launch-slot branch.
    fn prewarm(engine: &mut StreamingFleetEngine<'_>) -> Result<(), String> {
        for _ in 0..=engine.ring_depth() {
            engine
                .step()
                .map_err(|e| e.to_string())?
                .ok_or("horizon shorter than the ring")?;
        }
        Ok(())
    }

    /// The latest slot as a one-slot fleet outcome, for the store probe.
    fn last_slot_outcome(&self) -> Result<FleetOutcome, String> {
        let slot = self
            .engine
            .slots_run()
            .checked_sub(1)
            .ok_or("no slot run")?;
        let row = self
            .engine
            .observed_row(slot)
            .ok_or("latest row not buffered")?;
        let mut observed = CellGrid::new(SERVICES);
        observed.push_row(row).map_err(|e| e.to_string())?;
        let mut user_cells = TrajectoryArena::new(USERS, 1);
        for (u, &cell) in self.engine.last_user_row().iter().enumerate() {
            user_cells.row_mut(u)[0] = cell;
        }
        Ok(FleetOutcome {
            observed,
            user_observed_indices: self.engine.user_observed_indices().to_vec(),
            user_cells,
            stats: self.engine.stats(),
        })
    }
}

impl Workload for OnlineStream {
    fn setup(seed: u64, _tracer: &mut Tracer) -> Result<Self, String> {
        // The chain is fixed (its stationary law sets how often capacity
        // spills, and so the cost of a step); the seed drives the fleet.
        let mut rng = StdRng::seed_from_u64(CHAIN_SEED);
        let matrix = ModelKind::NonSkewed
            .build(CELLS, &mut rng)
            .map_err(|e| e.to_string())?;
        let chain = MarkovChain::new(matrix).map_err(|e| e.to_string())?;
        // The engine borrows its chain for its whole life and lives in
        // the same struct; a leaked 10-cell chain (under 1 KiB per
        // set-up) gives it the 'static borrow that needs.
        let chain: &'static MarkovChain = Box::leak(Box::new(chain));
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, BUDGET);
        let mut engine = StreamingFleetEngine::new(chain, Self::config(seed), &policy)
            .map_err(|e| e.to_string())?
            .with_feedback();
        Self::prewarm(&mut engine)?;
        let base = (engine.stats(), engine.slots_run());
        Ok(OnlineStream {
            seed,
            chain,
            policy,
            engine,
            base,
            twin: None,
            last: None,
            ties: 0,
            steps: 0,
            errors: LayerErrors::default(),
        })
    }

    fn verify(&mut self, _tracer: &mut Tracer) -> Result<(), String> {
        if self.engine.stats().spills == 0 {
            return Err(format!("capacity {CAPACITY} never spilled during set-up"));
        }
        Ok(())
    }

    fn user_slots_per_op(&self) -> usize {
        USERS
    }

    fn op(&mut self, _i: u64, tracer: &mut Tracer) -> Result<(), String> {
        let id = tracer.enter("sim.step");
        let step = self.engine.step();
        tracer.exit(id);
        let step = counted(step, &mut self.errors.sim, "step")?.ok_or("horizon exhausted")?;
        probes::check_probability("tracking accuracy", step.tracking_accuracy)?;
        probes::check_probability("detection accuracy", step.detection_accuracy)?;
        let stats = self.engine.stats();
        if stats.user_slots != USERS * self.engine.slots_run() {
            return Err(format!(
                "user_slots = {} after {} slots",
                stats.user_slots,
                self.engine.slots_run()
            ));
        }
        self.ties += step.detection.tie_set().len();
        self.steps += 1;
        self.last = Some(step.detection);
        Ok(())
    }

    /// In traced runs, feeds the slot's observed row to a twin detector
    /// so `push_slot` is timed on its own.
    fn after_op(&mut self, _i: u64, tracer: &mut Tracer) -> Result<(), String> {
        if !tracer.enabled() {
            return Ok(());
        }
        if self.twin.is_none() {
            let tables = vec![self.chain.log_likelihood_table()];
            let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
            let twin = StreamingPrefixDetector::with_shards(tables, SERVICES, shards)
                .map(StreamingPrefixDetector::with_feedback);
            self.twin = Some(counted(twin, &mut self.errors.core, "streaming detector")?);
        }
        let slot = self.engine.slots_run() - 1;
        let row = self
            .engine
            .observed_row(slot)
            .ok_or("latest row not buffered")?;
        let twin = self.twin.as_mut().expect("built above");
        let id = tracer.enter("core.push_slot");
        let pushed = twin.push_slot(row);
        tracer.exit(id);
        counted(pushed, &mut self.errors.core, "push_slot").map(drop)
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        let chain = self.chain;
        out.set(
            "markov.step_ns",
            probes::markov_step_ns(&[chain], self.seed, tracer),
            "ns",
        );
        probes::chaff_next_ns(|s| s.controller(chain), chain, self.seed, tracer, out);

        // A batch run of the same fleet over the one slot an op covers.
        let one_slot = FleetConfig::new(USERS, 1)
            .with_seed(self.seed)
            .with_capacity(CAPACITY);
        let make = |c| FleetSimulation::new(chain, c);
        let full = probes::sim_split(
            make,
            &one_slot,
            &self.policy,
            5,
            tracer,
            &mut self.errors,
            out,
        )?;
        out.set("sim.run_chaffed_ms", full, "ms");

        // Placement: the timed steps against a no-capacity twin engine.
        let mut uncapped = Self::config(self.seed);
        uncapped.node_capacity = None;
        let mut twin = self.build_engine(uncapped)?;
        Self::prewarm(&mut twin)?;
        probes::step_engine(
            &mut twin,
            TWIN_STEPS,
            "probe.step_nocap",
            tracer,
            &mut self.errors,
        )?;
        drop(twin);
        let step = tracer.op_median_ms("sim.step")?;
        out.set("sim.step_ms", step, "ms");
        out.set(
            "sim.placement_ms",
            step - tracer.median_ms("probe.step_nocap")?,
            "ms",
        );
        let (base, base_slots) = self.base;
        let stats = self.engine.stats();
        let slots = (self.engine.slots_run() - base_slots) as f64;
        out.set(
            "sim.spills_per_slot",
            (stats.spills - base.spills) as f64 / slots,
            "count",
        );
        let migrations = (stats.migrations - base.migrations) as f64;
        let user_slots = (stats.user_slots - base.user_slots) as f64;
        out.set(
            "sim.migrations_per_user_slot",
            migrations / user_slots,
            "ratio",
        );

        // Detection of one op is one push_slot.
        let push = tracer.op_median_ms("core.push_slot")?;
        out.set("core.detect_ms", push, "ms");
        out.set(
            "core.detect_ns_per_service_slot",
            push * 1e6 / SERVICES as f64,
            "ns",
        );
        out.set("core.push_slot_ms", push, "ms");
        out.set(
            "core.tie_set_mean",
            self.ties as f64 / self.steps.max(1) as f64,
            "count",
        );

        let outcome = self.last_slot_outcome()?;
        let detection = self.last.clone().ok_or("no op completed")?;
        let users = &outcome.user_observed_indices;
        for _ in 0..5 {
            let detections = std::slice::from_ref(&detection);
            probes::accuracy(
                &outcome.observed,
                users,
                detections,
                CELLS,
                "probe.accuracy",
                tracer,
            );
        }
        out.set(
            "core.accuracy_ms",
            tracer.median_ms("probe.accuracy")?,
            "ms",
        );
        probes::store_roundtrip(&outcome, 3, None, tracer, &mut self.errors, out)
    }

    fn errors(&self) -> LayerErrors {
        self.errors
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("users", USERS as u64),
            ("services", SERVICES as u64),
            ("cells", CELLS as u64),
            ("capacity", CAPACITY as u64),
            ("ring_depth", self.engine.ring_depth() as u64),
            ("table_bytes", (CELLS * CELLS * 8) as u64),
            ("row_bytes", (SERVICES * 4) as u64),
            ("engine_state_bytes", self.engine.state_bytes() as u64),
        ]
    }
}
