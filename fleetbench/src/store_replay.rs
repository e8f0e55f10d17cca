//! `store_replay`: store I/O and epoch-aware detection on a working set
//! larger than L2, with no simulation in the timed phase.
//!
//! Set-up simulates one chaffed fleet (`N = 6·10⁴`, IM at `B = 1`,
//! `T = 48`) over a 2-class × 2-epoch day/night registry of 1,024-cell
//! walks (ring and line walk, `ε = 0`, drift mirrored at night), whose
//! dense tables are 8 MiB each. One op checkpoints that outcome to a
//! fresh store file, reopens it and runs schedule-aware detection over
//! the paged slot stream. Markov sampling, chaff controllers and the
//! scatter do none of the timed work.

use crate::harness::{counted, LayerErrors, Metrics, Workload};
use crate::machine::ScratchFile;
use crate::probes;
use crate::trace::Tracer;
use chaff_core::detector::{
    BatchPrefixDetector, DetectInput, DetectModel, Detection, StreamingPrefixDetector,
};
use chaff_eval::experiments::fleet_persist::detection_checksum;
use chaff_markov::models::{line_walk, ring_walk, DEFAULT_P_RIGHT, DEFAULT_Q_LEFT};
use chaff_markov::{
    EpochSchedule, MarkovChain, MobilityRegistry, StateDistribution, TransitionMatrix,
};
use chaff_sim::fleet::{
    FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetOutcome, FleetSimulation,
};
use chaff_sim::streaming::StreamingFleetEngine;
use chaff_store::FleetStoreReader;

/// As close to `10⁵` as lets a 30-second run time 100 ops.
const USERS: usize = 60_000;
const HORIZON: usize = 48;
const CELLS: usize = 1024;
const BUDGET: usize = 1;
const SERVICES: usize = USERS * (1 + BUDGET);
const DAY_SLOTS: usize = 12;
const NIGHT_SLOTS: usize = 12;
/// Timed steps of each engine in the step and placement probes.
const ENGINE_STEPS: usize = 8;

pub struct StoreReplay {
    seed: u64,
    registry: MobilityRegistry,
    policy: FleetChaffPolicy,
    outcome: FleetOutcome,
    detector: BatchPrefixDetector,
    /// Checksum of columnar detection on `outcome`; every op's paged
    /// detections must match it.
    reference: Option<u64>,
    /// The store file the next op writes.
    file: Option<ScratchFile>,
    last: Vec<Detection>,
    ties: usize,
    detections: usize,
    errors: LayerErrors,
}

/// The day/night walk registry: class 0 is a ring walk, class 1 a line
/// walk; at night each drifts the other way. Every chain starts uniform.
fn registry() -> Result<MobilityRegistry, String> {
    let chain = |m: chaff_markov::Result<TransitionMatrix>| {
        let initial = StateDistribution::uniform(CELLS)?;
        MarkovChain::with_initial(m?, initial)
    };
    let (p, q) = (DEFAULT_P_RIGHT, DEFAULT_Q_LEFT);
    let epochs = [(p, q), (q, p)]
        .into_iter()
        .map(|(right, left)| {
            Ok(vec![
                chain(ring_walk(CELLS, right, left, 0.0))?,
                chain(line_walk(CELLS, right, left, 0.0))?,
            ])
        })
        .collect::<chaff_markov::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let schedule = EpochSchedule::day_night(DAY_SLOTS, NIGHT_SLOTS).map_err(|e| e.to_string())?;
    MobilityRegistry::with_epochs(epochs, schedule).map_err(|e| e.to_string())
}

impl StoreReplay {
    fn config(&self) -> FleetConfig {
        FleetConfig::new(USERS, HORIZON).with_seed(self.seed)
    }
}

impl Workload for StoreReplay {
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let registry = registry()?;
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, BUDGET);
        let config = FleetConfig::new(USERS, HORIZON).with_seed(seed);
        let id = tracer.enter("sim.run_chaffed");
        let outcome = FleetSimulation::with_registry(&registry, config).run_chaffed(&policy);
        tracer.exit(id);
        let outcome = outcome.map_err(|e| e.to_string())?;
        let mut w = StoreReplay {
            seed,
            registry,
            policy,
            outcome,
            detector: BatchPrefixDetector::new(),
            reference: None,
            file: None,
            last: Vec::new(),
            ties: 0,
            detections: 0,
            errors: LayerErrors::default(),
        };
        w.before_op(0)?;
        w.op(0, tracer)?;
        Ok(w)
    }

    fn verify(&mut self, _tracer: &mut Tracer) -> Result<(), String> {
        let columnar = self.detector.detect_prefixes(DetectInput::new(
            DetectModel::Schedule(&self.registry),
            &self.outcome.observed,
        ));
        let columnar = counted(columnar, &mut self.errors.core, "columnar detection")?;
        let checksum = detection_checksum(&columnar);
        if detection_checksum(&self.last) != checksum {
            return Err("warm-up paged detections differ from columnar detection".into());
        }
        self.reference = Some(checksum);
        Ok(())
    }

    fn user_slots_per_op(&self) -> usize {
        USERS * HORIZON
    }

    /// Removes the previous op's store file and claims a fresh one.
    fn before_op(&mut self, _i: u64) -> Result<(), String> {
        self.file = None;
        self.file = Some(ScratchFile::new("replay").map_err(|e| format!("scratch file: {e}"))?);
        Ok(())
    }

    fn op(&mut self, _i: u64, tracer: &mut Tracer) -> Result<(), String> {
        let path = self.file.as_ref().ok_or("no store file claimed")?.path();
        let id = tracer.enter("store.write");
        let written = self.outcome.checkpoint(path);
        tracer.exit(id);
        counted(written, &mut self.errors.store, "checkpoint")?;
        let id = tracer.enter("store.open");
        let reader = FleetStoreReader::open(path);
        tracer.exit(id);
        let mut reader = counted(reader, &mut self.errors.store, "open")?;
        let mut stream = reader.stream_slots();
        let id = tracer.enter("core.detect");
        let detections = self.detector.detect_prefixes(DetectInput::new(
            DetectModel::Schedule(&self.registry),
            &mut stream,
        ));
        tracer.exit(id);
        let detections = counted(detections, &mut self.errors.core, "paged detection")?;
        if detections.len() != HORIZON {
            return Err(format!(
                "{} detections for {HORIZON} slots",
                detections.len()
            ));
        }
        if let Some(reference) = self.reference {
            if detection_checksum(&detections) != reference {
                return Err("paged detections differ from columnar detection".into());
            }
        }
        self.ties += detections.iter().map(|d| d.tie_set().len()).sum::<usize>();
        self.detections += detections.len();
        self.last = detections;
        Ok(())
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        let registry = &self.registry;
        let chains: Vec<&MarkovChain> = (0..registry.num_epochs())
            .flat_map(|e| (0..registry.num_classes()).map(move |c| registry.chain_at(c, e)))
            .collect();
        out.set(
            "markov.step_ns",
            probes::markov_step_ns(&chains, self.seed, tracer),
            "ns",
        );
        let user_chain = registry.chain_at(0, 0);
        probes::chaff_next_ns(
            |s| s.scheduled_controller(registry, 0),
            user_chain,
            self.seed,
            tracer,
            out,
        );

        // Simulation ran only in set-up; its split comes from probes.
        out.set(
            "sim.run_chaffed_ms",
            tracer.median_ms("sim.run_chaffed")?,
            "ms",
        );
        let config = self.config();
        let make = |c| FleetSimulation::with_registry(registry, c);
        probes::sim_split(
            make,
            &config,
            &self.policy,
            2,
            tracer,
            &mut self.errors,
            out,
        )?;

        // Step and placement: the fixture fleet streamed without and
        // with a capacity limit that spills.
        let capacity = SERVICES.div_ceil(CELLS) * 11 / 10;
        for (config, name) in [
            (config.clone(), "probe.step"),
            (
                config.clone().with_capacity(capacity),
                "probe.step_capacity",
            ),
        ] {
            let engine = StreamingFleetEngine::with_registry(registry, config, &self.policy);
            let mut engine = counted(engine, &mut self.errors.sim, "streaming engine")?;
            // The launch slot samples initial cells; keep it untimed.
            probes::step_engine(&mut engine, 1, "probe.launch", tracer, &mut self.errors)?;
            probes::step_engine(&mut engine, ENGINE_STEPS, name, tracer, &mut self.errors)?;
        }
        let step = tracer.median_ms("probe.step")?;
        out.set("sim.step_ms", step, "ms");
        out.set(
            "sim.placement_ms",
            tracer.median_ms("probe.step_capacity")? - step,
            "ms",
        );
        let stats = self.outcome.stats;
        out.set(
            "sim.spills_per_slot",
            stats.spills as f64 / HORIZON as f64,
            "count",
        );
        let migrations = stats.migrations as f64 / stats.user_slots as f64;
        out.set("sim.migrations_per_user_slot", migrations, "ratio");

        // On this workload the detect span includes paging the rows in;
        // store.read_ms is that paging alone.
        let detect_ms = tracer.op_median_ms("core.detect")?;
        out.set("core.detect_ms", detect_ms, "ms");
        let per_service_slot = detect_ms * 1e6 / (SERVICES * HORIZON) as f64;
        out.set("core.detect_ns_per_service_slot", per_service_slot, "ns");
        let shards = chaff_core::pool::global().threads();
        let twin = StreamingPrefixDetector::with_schedule(
            registry.to_epoch_tables(),
            registry.schedule().clone(),
            SERVICES,
            shards,
        );
        let mut twin = counted(twin, &mut self.errors.core, "streaming detector")?;
        for t in 0..HORIZON {
            let id = tracer.enter("probe.push_slot");
            let pushed = twin.push_slot(self.outcome.observed.row(t));
            tracer.exit(id);
            counted(pushed, &mut self.errors.core, "push_slot")?;
        }
        out.set(
            "core.push_slot_ms",
            tracer.median_ms("probe.push_slot")?,
            "ms",
        );
        let users = &self.outcome.user_observed_indices;
        for _ in 0..5 {
            probes::accuracy(
                &self.outcome.observed,
                users,
                &self.last,
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
        let ties = self.ties as f64 / self.detections.max(1) as f64;
        out.set("core.tie_set_mean", ties, "count");
        probes::store_roundtrip(
            &self.outcome,
            3,
            Some("store.write"),
            tracer,
            &mut self.errors,
            out,
        )
    }

    fn errors(&self) -> LayerErrors {
        self.errors
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        let table_bytes = (CELLS * CELLS * 8) as u64;
        let tables = (self.registry.num_classes() * self.registry.num_epochs()) as u64;
        vec![
            ("users", USERS as u64),
            ("services", SERVICES as u64),
            ("horizon", HORIZON as u64),
            ("cells", CELLS as u64),
            ("epochs", self.registry.num_epochs() as u64),
            ("table_bytes", table_bytes),
            ("tables_bytes_total", table_bytes * tables),
            ("grid_bytes", self.outcome.observed.cell_bytes() as u64),
            (
                "user_cells_bytes",
                self.outcome.user_cells.cell_bytes() as u64,
            ),
        ]
    }
}
