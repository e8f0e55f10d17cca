//! The end-to-end trace pipeline of Sec. VII-B1.
//!
//! Assembles the full dataset the paper's trace-driven experiments run on:
//!
//! 1. generate (or load) cell towers and apply the 100 m separation filter;
//! 2. generate (or load) taxi traces;
//! 3. filter inactive nodes and regularize to 1-minute slots;
//! 4. quantize positions to Voronoi cells;
//! 5. estimate the empirical Markov model.
//!
//! With the default parameters this mirrors the paper's numbers: ~959
//! cells, up to 174 usable nodes, 100 slots.
//!
//! One engine runs every build: a [`TraceStream`] source emits per-node
//! record batches (the synthetic fleet, its replica-amplified copies,
//! external traces, or a caller's source via
//! [`TraceDatasetBuilder::build_from_stream`]), the process-wide worker
//! pool ([`chaff_core::pool`], like the fleet engine's sharding) runs the
//! regularize→quantize stages per node, and per-shard
//! [`EpochAccumulator`]s of integer transition counts (one count set per
//! epoch of the configured schedule; a single set by default) are merged
//! at the end — so the resulting [`TraceDataset`] is identical for every
//! shard count and batch size, and raw GPS records only ever live one
//! batch at a time. The [`replicas`](TraceDatasetBuilder::replicas) knob
//! amplifies the synthetic fleet to 10⁴–10⁵ nodes via per-replica
//! SplitMix64 seed streams. `tests/streaming.rs` holds the engine to a
//! naive serial oracle bit-for-bit.

use crate::empirical::{EmpiricalModel, EpochAccumulator};
use crate::interpolate::{inactivity_reason, regularize, SlotGrid};
use crate::record::NodeTrace;
use crate::stream::{ReplicatedTaxiStream, TaxiTraceStream, TraceStream, VecTraceStream};
use crate::taxi::TaxiFleetConfig;
use crate::towers::{clustered_layout, min_separation_filter, DEFAULT_MIN_SEPARATION_M};
use crate::voronoi::CellMap;
use crate::{MobilityError, Result};
use chaff_markov::{EpochSchedule, MarkovChain, MobilityRegistry, Trajectory};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully assembled trace dataset: cells, per-node trajectories and the
/// empirical mobility model.
#[derive(Debug, Clone)]
pub struct TraceDataset {
    cell_map: CellMap,
    node_ids: Vec<String>,
    trajectories: Vec<Trajectory>,
    model: EmpiricalModel,
    epoch_schedule: EpochSchedule,
    /// Per-epoch estimates, present only when the builder was given a
    /// non-trivial epoch schedule. The pooled [`model`](Self::model) is
    /// always estimated schedule-blind, so enabling epochs never perturbs
    /// the stationary numbers.
    epoch_models: Option<Vec<EmpiricalModel>>,
}

impl TraceDataset {
    /// The Voronoi quantizer (one cell per tower).
    pub fn cell_map(&self) -> &CellMap {
        &self.cell_map
    }

    /// Identifiers of the surviving (active) nodes, aligned with
    /// [`trajectories`](TraceDataset::trajectories).
    pub fn node_ids(&self) -> &[String] {
        &self.node_ids
    }

    /// Quantized per-node trajectories.
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajectories
    }

    /// The estimated empirical model.
    pub fn empirical(&self) -> &EmpiricalModel {
        &self.model
    }

    /// The empirical mobility chain (matrix + occupancy steady state),
    /// pooled over all slots regardless of any epoch schedule.
    pub fn model(&self) -> &MarkovChain {
        self.model.chain()
    }

    /// The slot → epoch map the dataset was estimated under (stationary
    /// unless [`TraceDatasetBuilder::epoch_schedule`] was set).
    pub fn epoch_schedule(&self) -> &EpochSchedule {
        &self.epoch_schedule
    }

    /// Per-epoch empirical models, when the builder was given an epoch
    /// schedule: `epoch_models()[e]` is estimated from exactly the slots
    /// `t` with `epoch_of(t) == e` (arrival convention).
    pub fn epoch_models(&self) -> Option<&[EmpiricalModel]> {
        self.epoch_models.as_deref()
    }

    /// Bridges the dataset into the detector stack: a single-class
    /// [`MobilityRegistry`] over the per-epoch chains when an epoch
    /// schedule was set, or over the pooled chain otherwise.
    ///
    /// # Errors
    ///
    /// Propagates registry shape validation (never fails for datasets
    /// built by this pipeline).
    pub fn registry(&self) -> Result<MobilityRegistry> {
        match &self.epoch_models {
            Some(models) => Ok(MobilityRegistry::with_epochs(
                models.iter().map(|m| vec![m.chain().clone()]).collect(),
                self.epoch_schedule.clone(),
            )?),
            None => Ok(MobilityRegistry::single(self.model.chain().clone())),
        }
    }
}

/// Builder for [`TraceDataset`] — synthetic by default, with hooks to
/// substitute real tower layouts or real CRAWDAD traces.
#[derive(Debug, Clone)]
pub struct TraceDatasetBuilder {
    num_towers: usize,
    tower_clusters: usize,
    tower_spread_m: f64,
    tower_background: f64,
    min_separation_m: f64,
    fleet: TaxiFleetConfig,
    horizon_slots: usize,
    slot_s: i64,
    seed: u64,
    shards: Option<usize>,
    batch_nodes: usize,
    replicas: usize,
    epoch_schedule: Option<EpochSchedule>,
    external_traces: Option<Vec<NodeTrace>>,
    external_towers: Option<Vec<crate::geo::GeoPoint>>,
}

impl Default for TraceDatasetBuilder {
    fn default() -> Self {
        TraceDatasetBuilder {
            // Generate extra towers so that after the 100 m filter roughly
            // the paper's 959 remain.
            num_towers: 1_100,
            tower_clusters: 6,
            tower_spread_m: 2_000.0,
            tower_background: 0.35,
            min_separation_m: DEFAULT_MIN_SEPARATION_M,
            fleet: TaxiFleetConfig::default(),
            horizon_slots: 100,
            slot_s: 60,
            seed: 20170605, // ICDCS'17 presentation date
            shards: None,
            batch_nodes: 256,
            replicas: 1,
            epoch_schedule: None,
            external_traces: None,
            external_towers: None,
        }
    }
}

impl TraceDatasetBuilder {
    /// Creates a builder with the paper's default scale.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the RNG seed controlling towers, hotspots and traces.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of towers to generate before separation filtering.
    pub fn num_towers(mut self, n: usize) -> Self {
        self.num_towers = n;
        self
    }

    /// Number of taxis to simulate.
    pub fn num_nodes(mut self, n: usize) -> Self {
        self.fleet.num_nodes = n;
        self.fleet.duration_s = self.fleet.duration_s.max(1);
        self
    }

    /// Number of evaluation slots (the paper's `T = 100`).
    pub fn horizon_slots(mut self, t: usize) -> Self {
        self.horizon_slots = t;
        self
    }

    /// Slot length in seconds (the paper's 1 minute).
    pub fn slot_seconds(mut self, s: i64) -> Self {
        self.slot_s = s;
        self
    }

    /// Pins the worker-thread count; unset (the default) sizes from
    /// available parallelism. Results never depend on this.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Nodes per streamed batch (results never depend on this — it trades
    /// peak memory against thread-dispatch overhead).
    pub fn batch_nodes(mut self, n: usize) -> Self {
        self.batch_nodes = n.max(1);
        self
    }

    /// Amplifies the synthetic fleet to `replicas` statistical copies of
    /// the configured fleet, each drawn from an independent SplitMix64
    /// seed stream. `1` (the default) keeps the single fleet drawn from
    /// the tower RNG.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Additionally estimates one empirical model per epoch of `schedule`
    /// (slot `t` of the evaluation window counts toward
    /// `schedule.epoch_of(t)`, arrival convention). The pooled
    /// [`TraceDataset::model`] stays schedule-blind and bit-for-bit
    /// unchanged; the per-epoch estimates are exposed via
    /// [`TraceDataset::epoch_models`] / [`TraceDataset::registry`].
    pub fn epoch_schedule(mut self, schedule: EpochSchedule) -> Self {
        self.epoch_schedule = Some(schedule);
        self
    }

    /// Overrides the fleet configuration entirely.
    pub fn fleet_config(mut self, config: TaxiFleetConfig) -> Self {
        self.fleet = config;
        self
    }

    /// Uses real traces (e.g. from [`crate::crawdad::load_directory`])
    /// instead of the synthetic fleet.
    pub fn with_traces(mut self, traces: Vec<NodeTrace>) -> Self {
        self.external_traces = Some(traces);
        self
    }

    /// Uses a real tower layout instead of the synthetic one.
    pub fn with_towers(mut self, towers: Vec<crate::geo::GeoPoint>) -> Self {
        self.external_towers = Some(towers);
        self
    }

    /// Validates the slot window, then builds the tower layout and
    /// quantizer from the seed's stream and the fleet configuration whose
    /// duration spans the window. Returns the RNG positioned after the
    /// tower draw, so the synthetic fleet continues the same stream.
    fn prepare(&self) -> Result<(CellMap, TaxiFleetConfig, StdRng)> {
        let window_s = self.window_seconds()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let raw_towers = match &self.external_towers {
            Some(t) => t.clone(),
            None => clustered_layout(
                self.num_towers,
                self.tower_clusters,
                self.tower_spread_m,
                self.tower_background,
                &self.fleet.bbox,
                &mut rng,
            )?,
        };
        let cell_map = CellMap::new(min_separation_filter(&raw_towers, self.min_separation_m))?;
        let mut fleet_config = self.fleet.clone();
        fleet_config.duration_s = window_s;
        Ok((cell_map, fleet_config, rng))
    }

    /// The generated fleet's duration: the window of `horizon_slots`
    /// slots plus two, so interpolation has a bracketing update at the
    /// last slot. Computed with checked `i64` arithmetic.
    fn window_seconds(&self) -> Result<i64> {
        if self.slot_s <= 0 {
            return Err(MobilityError::InvalidConfig {
                parameter: "slot_seconds",
                reason: format!("must be positive, got {}", self.slot_s),
            });
        }
        let slots = i64::try_from(self.horizon_slots)
            .ok()
            .and_then(|t| t.checked_add(2))
            .ok_or_else(|| MobilityError::InvalidConfig {
                parameter: "horizon_slots",
                reason: format!("{} slots do not fit an i64 window", self.horizon_slots),
            })?;
        slots
            .checked_mul(self.slot_s)
            .ok_or_else(|| MobilityError::InvalidConfig {
                // Name the larger factor: it is the one far off scale.
                parameter: if self.slot_s > slots {
                    "slot_seconds"
                } else {
                    "horizon_slots"
                },
                reason: format!(
                    "{} slots of {} s overflow an i64 window",
                    self.horizon_slots, self.slot_s
                ),
            })
    }

    /// Builds the dataset: the synthetic fleet (continuing the tower
    /// RNG), its [`replicas`](TraceDatasetBuilder::replicas)-fold
    /// amplification, or the traces given by
    /// [`with_traces`](TraceDatasetBuilder::with_traces), ingested in
    /// batches over the worker pool. The result is bit-for-bit the same
    /// for every shard count and batch size.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid (including a
    /// non-positive `slot_seconds`, a window whose length overflows `i64`
    /// seconds, `replicas == 0`, and `replicas > 1` combined with external
    /// traces, since only the synthetic generator can be amplified), when
    /// every node is filtered out as inactive, or when model estimation
    /// fails.
    pub fn build(mut self) -> Result<TraceDataset> {
        if self.replicas == 0 {
            return Err(MobilityError::InvalidConfig {
                parameter: "replicas",
                reason: "must be positive".into(),
            });
        }
        if self.replicas > 1 && self.external_traces.is_some() {
            return Err(MobilityError::InvalidConfig {
                parameter: "replicas",
                reason: "amplification applies to the synthetic fleet only; \
                         external traces cannot be replicated"
                    .into(),
            });
        }
        let (cell_map, fleet_config, rng) = self.prepare()?;
        match self.external_traces.take() {
            Some(traces) => self.ingest(cell_map, VecTraceStream::new(traces)),
            None if self.replicas > 1 => {
                let stream = ReplicatedTaxiStream::new(fleet_config, self.seed, self.replicas)?;
                self.ingest(cell_map, stream)
            }
            None => {
                let stream = TaxiTraceStream::with_rng(fleet_config, rng)?;
                self.ingest(cell_map, stream)
            }
        }
    }

    /// Builds the dataset from a caller's source (e.g. a
    /// [`crate::stream::CrawdadDirStream`]) instead of the builder's own,
    /// using the builder's tower layout, slot grid and shard
    /// configuration.
    ///
    /// Sources whose [`TraceStream::window_start`] is unknown are drained
    /// into memory first to locate the evaluation window (streaming is
    /// preserved when the source can name its start).
    ///
    /// # Errors
    ///
    /// As [`build`](TraceDatasetBuilder::build), plus source errors.
    pub fn build_from_stream<S: TraceStream>(self, stream: S) -> Result<TraceDataset> {
        let (cell_map, _, _) = self.prepare()?;
        self.ingest(cell_map, stream)
    }

    /// The ingestion engine: window location, sharded
    /// regularize→quantize, accumulator merge, model estimation.
    fn ingest<S: TraceStream>(&self, cell_map: CellMap, mut stream: S) -> Result<TraceDataset> {
        // Locate the evaluation window without draining when possible;
        // buffer the whole stream otherwise (the window starts at the
        // earliest first-record timestamp).
        let mut buffered;
        let (start, stream): (i64, &mut dyn TraceStream) = match stream.window_start() {
            Some(s) => (s, &mut stream),
            None => {
                let mut all = Vec::new();
                loop {
                    let batch = stream.next_batch(self.batch_nodes)?;
                    if batch.is_empty() {
                        break;
                    }
                    all.extend(batch);
                }
                buffered = VecTraceStream::new(all);
                let s = buffered
                    .window_start()
                    .unwrap_or(self.fleet.start_timestamp);
                (s, &mut buffered)
            }
        };
        let grid = SlotGrid {
            start_timestamp: start,
            slot_s: self.slot_s,
            num_slots: self.horizon_slots,
            max_gap_s: crate::interpolate::DEFAULT_MAX_GAP_S,
        };

        let shards = self.effective_shards();
        let schedule = self
            .epoch_schedule
            .clone()
            .unwrap_or_else(EpochSchedule::stationary);
        let mut accumulators: Vec<EpochAccumulator> = (0..shards)
            .map(|_| EpochAccumulator::new(cell_map.num_cells(), schedule.clone()))
            .collect::<Result<_>>()?;
        let hint = stream.len_hint().unwrap_or(0);
        let mut node_ids: Vec<String> = Vec::with_capacity(hint);
        let mut trajectories: Vec<Trajectory> = Vec::with_capacity(hint);
        let mut examined = 0usize;
        let mut example: Option<String> = None;

        loop {
            let batch = stream.next_batch(self.batch_nodes)?;
            if batch.is_empty() {
                break;
            }
            examined += batch.len();
            let mut results: Vec<Option<(String, Trajectory)>> = vec![None; batch.len()];
            let chunk = batch.len().div_ceil(shards);
            if shards <= 1 {
                process_chunk(&batch, &mut results, &grid, &cell_map, &mut accumulators[0]);
            } else {
                // Every ingested batch reuses the process-wide worker
                // pool — a long trace stream dispatches thousands of
                // batches without spawning a single thread per batch.
                chaff_core::pool::global().scope(|scope| {
                    for ((traces, outs), acc) in batch
                        .chunks(chunk)
                        .zip(results.chunks_mut(chunk))
                        .zip(accumulators.iter_mut())
                    {
                        let grid = &grid;
                        let cell_map = &cell_map;
                        scope.spawn(move || process_chunk(traces, outs, grid, cell_map, acc));
                    }
                });
            }
            for (trace, result) in batch.iter().zip(results) {
                match result {
                    Some((id, trajectory)) => {
                        node_ids.push(id);
                        trajectories.push(trajectory);
                    }
                    None => {
                        if example.is_none() {
                            example = dropped_example(Some(trace), &grid);
                        }
                    }
                }
            }
        }
        if trajectories.is_empty() {
            return Err(MobilityError::NoActiveNodes { examined, example });
        }

        // Merge per-shard integer counts (exact, order-independent) and
        // normalize once. The pooled model is estimated from the summed
        // per-epoch counts — exactly the counts a schedule-blind pass
        // would have produced, so it is bit-for-bit schedule-independent.
        let mut merged = accumulators.swap_remove(0);
        for acc in &accumulators {
            merged.merge(acc)?;
        }
        let model = merged.pooled()?.finish(0.0)?;
        let epoch_models = match self.epoch_schedule {
            Some(_) => Some(merged.finish(0.0)?),
            None => None,
        };
        Ok(TraceDataset {
            cell_map,
            node_ids,
            trajectories,
            model,
            epoch_schedule: schedule,
            epoch_models,
        })
    }

    fn effective_shards(&self) -> usize {
        self.shards
            .unwrap_or_else(|| chaff_core::pool::global().threads())
            .max(1)
    }
}

/// One worker's share of a batch: regularize and quantize each node,
/// recording survivors' transitions into the worker-local accumulator.
fn process_chunk(
    traces: &[NodeTrace],
    outs: &mut [Option<(String, Trajectory)>],
    grid: &SlotGrid,
    cell_map: &CellMap,
    acc: &mut EpochAccumulator,
) {
    for (trace, out) in traces.iter().zip(outs.iter_mut()) {
        if let Some(positions) = regularize(trace, grid) {
            let trajectory = cell_map.quantize(&positions);
            acc.record(&trajectory)
                .expect("quantized cells are always in range");
            *out = Some((trace.node_id.clone(), trajectory));
        }
    }
}

/// Formats the representative dropped-node message for
/// [`MobilityError::NoActiveNodes`].
fn dropped_example(trace: Option<&NodeTrace>, grid: &SlotGrid) -> Option<String> {
    let trace = trace?;
    let reason = inactivity_reason(trace, grid)?;
    Some(format!("{}: {}", trace.node_id, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn small() -> TraceDatasetBuilder {
        TraceDatasetBuilder::new()
            .num_nodes(25)
            .num_towers(120)
            .horizon_slots(40)
            .seed(99)
    }

    /// The shared small dataset: built once, reused by every test that
    /// only *reads* it (rebuilding per assertion dominated this suite's
    /// runtime before).
    fn small_dataset() -> &'static TraceDataset {
        static DATASET: OnceLock<TraceDataset> = OnceLock::new();
        DATASET.get_or_init(|| small().build().unwrap())
    }

    #[test]
    fn pipeline_produces_consistent_dataset() {
        let ds = small_dataset();
        assert!(!ds.trajectories().is_empty());
        assert_eq!(ds.node_ids().len(), ds.trajectories().len());
        for t in ds.trajectories() {
            assert_eq!(t.len(), 40);
            // Observed trajectories are explainable under the model.
            assert!(ds.model().log_likelihood(t).is_finite());
        }
        assert_eq!(ds.model().num_states(), ds.cell_map().num_cells());
    }

    #[test]
    fn pipeline_is_deterministic_per_seed() {
        let a = small_dataset();
        let b = small().build().unwrap();
        assert_eq!(a.trajectories(), b.trajectories());
        let c = small().seed(100).build().unwrap();
        assert_ne!(a.trajectories(), c.trajectories());
    }

    #[test]
    fn occupancy_is_spatially_skewed() {
        // The point of the hotspot fleet: the empirical steady state must
        // be far from uniform (Fig. 8b), i.e. collision probability well
        // above 1/L.
        let ds = small_dataset();
        let pi = ds.model().initial();
        let uniform_floor = 1.0 / ds.model().num_states() as f64;
        assert!(
            pi.collision_probability() > 3.0 * uniform_floor,
            "collision = {}, floor = {}",
            pi.collision_probability(),
            uniform_floor
        );
    }

    #[test]
    fn inactivity_filters_some_nodes() {
        // 3% inactivity per update over ~40 updates gives each node only a
        // ~30% survival chance: most nodes drop, a few remain.
        let mut builder = small();
        builder.fleet.inactivity_prob = 0.03;
        builder.fleet.inactivity_duration_s = 600;
        let ds = builder.build().unwrap();
        assert!(
            ds.trajectories().len() < 25,
            "expected some of the 25 nodes to be dropped, kept {}",
            ds.trajectories().len()
        );
    }

    #[test]
    fn paper_scale_configuration() {
        // Full-scale smoke test at the paper's dimensions (this is the
        // configuration Fig. 8 uses; bit-for-bit parity with the serial
        // oracle is covered by tests/streaming.rs at reduced size).
        let ds = TraceDatasetBuilder::new().seed(7).build().unwrap();
        let cells = ds.cell_map().num_cells();
        assert!(
            (700..=1_100).contains(&cells),
            "cell count {cells} should be near the paper's 959"
        );
        assert!(
            ds.trajectories().len() >= 100,
            "{}",
            ds.trajectories().len()
        );
        assert_eq!(ds.trajectories()[0].len(), 100);
    }

    #[test]
    fn no_active_nodes_error_names_an_example() {
        // One lonely record per node: nothing covers the window.
        let traces = vec![NodeTrace::new(
            "lonely",
            vec![crate::record::TraceRecord {
                point: crate::geo::GeoPoint::new(37.7, -122.4),
                occupied: false,
                timestamp: 1_213_000_000,
            }],
        )];
        match small().with_traces(traces).build().unwrap_err() {
            MobilityError::NoActiveNodes { examined, example } => {
                assert_eq!(examined, 1);
                let example = example.expect("example is derivable");
                assert!(example.contains("lonely"), "{example}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn epoch_schedule_adds_models_without_perturbing_the_pooled_one() {
        let schedule = EpochSchedule::day_night(25, 15).unwrap();
        let epoch_ds = small().epoch_schedule(schedule.clone()).build().unwrap();
        let plain = small_dataset();
        // Pooled estimate is schedule-blind: bit-for-bit the plain build.
        assert_eq!(epoch_ds.model().matrix(), plain.model().matrix());
        assert_eq!(epoch_ds.trajectories(), plain.trajectories());
        assert!(plain.epoch_models().is_none());
        assert!(plain.epoch_schedule().is_stationary());
        // Per-epoch estimates exist and genuinely differ from the pool.
        let models = epoch_ds.epoch_models().expect("epochs were requested");
        assert_eq!(models.len(), 2);
        assert_eq!(epoch_ds.epoch_schedule(), &schedule);
        assert_ne!(models[0].chain().matrix(), plain.model().matrix());
        // The registry bridge carries the schedule into the detector stack.
        let registry = epoch_ds.registry().unwrap();
        assert_eq!(registry.num_epochs(), 2);
        assert_eq!(registry.num_classes(), 1);
        assert_eq!(plain.registry().unwrap().num_epochs(), 1);
    }
}
