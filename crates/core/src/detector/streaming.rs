//! Slot-major prefix detection on shard lanes: the one execution path
//! every detection runs on, whatever its model or observation
//! representation.
//!
//! The paper's eavesdropper (eq. 11) is inherently online: it observes
//! one service row per slot and tracks in real time.
//! [`StreamingPrefixDetector`] is that adversary. Feed it one observation
//! row per slot ([`push_slot`](StreamingPrefixDetector::push_slot)) and
//! it returns the slot's [`Detection`] immediately, carrying only the
//! running cumulative-score state between slots.
//!
//! The population is split into contiguous `ShardLane`s. Each lane owns
//! its slice of the running accumulators, and `advance_lane` moves one
//! lane by one slot through the shared per-slot kernels in [`kernel`].
//! `run_lanes` dispatches the lanes onto the process-wide [`pool`] and
//! returns their errors in lane order, and `merge_lanes` turns the
//! lanes' per-slot candidates into the slot's tie set. Two loops run
//! them:
//!
//! * the per-slot loop (`step_lanes`) runs one slot per pool scope.
//!   `push_slot` and the paged path of
//!   [`BatchPrefixDetector`](super::BatchPrefixDetector) use it;
//! * the grid loop (`detect_grid`) runs every slot of a lane inside
//!   one pool job, records the lane's per-slot `LaneSlots`, then merges
//!   slot by slot. Columnar and trajectory inputs use it, for every
//!   model; a trajectory lane transposes its own range, one block of
//!   slots at a time, inside its job.
//!
//! Both loops are generic over [`Borrow<LogLikelihoodTable>`], so the
//! batch entry point scores against the caller's tables without cloning
//! them, while the streaming detector owns its tables. A streamed run is
//! therefore bit-for-bit the batch run *by construction*: the same
//! accumulator updates in the same order, the same two-pass argmax and the
//! same cross-lane merge.
//!
//! Streaming state is `O(N · classes)`, independent of the horizon: each
//! slot's candidates are merged and discarded before the next row
//! arrives.

use super::{batch, kernel, Detection};
use crate::{loglik_cmp, pool, Result};
use chaff_markov::{CellGrid, CellId, EpochSchedule, LogLikelihoodTable, MarkovError, Trajectory};
use std::borrow::Borrow;

/// Running per-column detection-accuracy feedback, accumulated from the
/// tie set of every slot with no extra pass over the scores: column `i`
/// gains `1 / |tie set|` mass whenever it appears in a slot's argmax set
/// (the expectation of the paper's "random guess among ties"), so
/// [`accuracy`](Self::accuracy) is exactly the column's time-average
/// detection accuracy over the slots recorded so far. Memory is one
/// `f64` per column — `O(N)`, independent of the horizon.
///
/// This is the defender-side view an adaptive chaff allocator consumes:
/// [`ranked`](Self::ranked) orders columns most-detected first, and when
/// accuracies tie — including the saturated case where every slot's
/// argmax ties across the whole population, giving every column equal
/// mass — it breaks ties deterministically towards the **lowest column
/// index**. Without that rule an adaptive budget loop could oscillate
/// run-to-run on tie order; with it, equal feedback always produces the
/// same ranking (pinned by test).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccuracyFeedback {
    /// Cumulative tie-set mass per observed column.
    mass: Vec<f64>,
    /// Slots recorded so far (the accuracy denominator).
    slots: usize,
}

impl AccuracyFeedback {
    /// An empty feedback accumulator over `num_services` observed
    /// columns.
    pub fn new(num_services: usize) -> Self {
        AccuracyFeedback {
            mass: vec![0.0; num_services],
            slots: 0,
        }
    }

    /// Builds the feedback a streaming detector would have accumulated
    /// over `detections` — the batch-path bridge: one pass over the tie
    /// sets, never a rescore of the trajectories.
    pub fn from_detections(num_services: usize, detections: &[Detection]) -> Self {
        let mut feedback = AccuracyFeedback::new(num_services);
        for detection in detections {
            feedback.record(detection);
        }
        feedback
    }

    /// Folds one slot's detection into the running mass.
    pub fn record(&mut self, detection: &Detection) {
        let tie = detection.tie_set();
        let share = 1.0 / tie.len() as f64;
        for &i in tie {
            self.mass[i] += share;
        }
        self.slots += 1;
    }

    /// Number of observed columns tracked.
    pub fn num_services(&self) -> usize {
        self.mass.len()
    }

    /// Slots recorded so far.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Column `i`'s running time-average detection accuracy (0 before
    /// the first slot).
    pub fn accuracy(&self, column: usize) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.mass[column] / self.slots as f64
        }
    }

    /// All running accuracies, in column order.
    pub fn accuracies(&self) -> Vec<f64> {
        (0..self.mass.len()).map(|i| self.accuracy(i)).collect()
    }

    /// Columns ordered most-detected first; equal accuracies — including
    /// fully saturated ties — break towards the lowest column index, so
    /// the ranking is deterministic for every run with equal feedback.
    pub fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.mass.len()).collect();
        order.sort_by(|&a, &b| self.mass[b].total_cmp(&self.mass[a]).then(a.cmp(&b)));
        order
    }

    /// Bytes of running state: one `f64` of tie mass per column.
    pub fn state_bytes(&self) -> usize {
        self.mass.capacity() * 8
    }
}

/// Incremental maximum-likelihood prefix detector: one [`Detection`] per
/// pushed slot row, bit-for-bit equal to
/// [`BatchPrefixDetector::detect_prefixes`](super::BatchPrefixDetector::detect_prefixes)
/// over the columnar grid formed by the pushed rows, for every shard
/// count.
///
/// # Example
///
/// ```
/// use chaff_core::detector::{BatchPrefixDetector, DetectInput, StreamingPrefixDetector};
/// use chaff_markov::{models::ModelKind, CellGrid, MarkovChain};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(5);
/// let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
/// let observed: Vec<_> = (0..32).map(|_| chain.sample_trajectory(20, &mut rng)).collect();
/// let grid = CellGrid::from_trajectories(&observed)?;
///
/// let batch = BatchPrefixDetector::new().detect_prefixes(DetectInput::new(&chain, &grid))?;
/// let mut online = StreamingPrefixDetector::new(vec![chain.log_likelihood_table()], 32)?;
/// for t in 0..grid.horizon() {
///     assert_eq!(online.push_slot(grid.row(t))?, batch[t]);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingPrefixDetector {
    /// Epoch-major table storage: `epoch_tables[epoch]` holds one table
    /// per mobility-model class (generalized-likelihood-ratio detection:
    /// best class per prefix). Stationary detectors hold exactly one
    /// epoch. Owned, so the detector can be embedded in long-lived
    /// engines without borrowing the model.
    epoch_tables: Vec<Vec<LogLikelihoodTable>>,
    /// The slot → epoch map; `slots_seen` is the epoch clock, so the
    /// tables scoring the arrival at slot `s` are
    /// `epoch_tables[schedule.epoch_of(s)]`.
    schedule: EpochSchedule,
    states: usize,
    population: usize,
    /// Contiguous index shards, each owning its slice of the running
    /// class-major accumulator block and of the previous slot's row (the
    /// only observation history the detector keeps).
    lanes: Vec<ShardLane>,
    slots_seen: usize,
    /// Opt-in running per-column accuracy feedback (see
    /// [`with_feedback`](StreamingPrefixDetector::with_feedback)).
    feedback: Option<AccuracyFeedback>,
}

impl StreamingPrefixDetector {
    /// Creates a detector for `population` concurrent services scored
    /// against `tables` (one per mobility-model class), sizing its shard
    /// count from the worker pool ([`pool::global`]).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] when no tables are supplied,
    /// [`MarkovError::DimensionMismatch`] when the class tables disagree
    /// on the cell space,
    /// [`CoreError::NoTrajectories`](crate::CoreError::NoTrajectories)
    /// for an empty population and
    /// [`CoreError::PopulationTooLarge`](crate::CoreError::PopulationTooLarge)
    /// past [`MAX_POPULATION`](super::MAX_POPULATION).
    pub fn new(tables: Vec<LogLikelihoodTable>, population: usize) -> Result<Self> {
        Self::with_shards(tables, population, pool::global().threads())
    }

    /// [`new`](Self::new) with a pinned shard count (clamped to at least
    /// one). Detections are identical for every shard count; this only
    /// controls parallelism.
    ///
    /// # Errors
    ///
    /// Same errors as [`new`](Self::new).
    pub fn with_shards(
        tables: Vec<LogLikelihoodTable>,
        population: usize,
        shards: usize,
    ) -> Result<Self> {
        Self::with_schedule(
            vec![tables],
            EpochSchedule::stationary(),
            population,
            shards,
        )
    }

    /// Creates a schedule-aware detector: `epoch_tables[epoch]` holds one
    /// table per mobility-model class, and the arrival at pushed slot `s`
    /// is scored under `epoch_tables[schedule.epoch_of(s)]`. A one-epoch
    /// schedule is bit-for-bit [`with_shards`](Self::with_shards) — this
    /// *is* the stationary code path, uniformly represented.
    ///
    /// # Errors
    ///
    /// The errors of [`new`](Self::new), plus
    /// [`MarkovError::LengthMismatch`] when `epoch_tables` does not cover
    /// `schedule.num_epochs()` or the epochs disagree on the class count.
    pub fn with_schedule(
        epoch_tables: Vec<Vec<LogLikelihoodTable>>,
        schedule: EpochSchedule,
        population: usize,
        shards: usize,
    ) -> Result<Self> {
        let states = validate_epoch_tables(&epoch_tables, &schedule)?;
        if population == 0 {
            return Err(crate::CoreError::NoTrajectories);
        }
        batch::ensure_population_fits(population)?;
        let lanes = ShardLane::partition(population, shards, epoch_tables[0].len());
        Ok(StreamingPrefixDetector {
            epoch_tables,
            schedule,
            states,
            population,
            lanes,
            slots_seen: 0,
            feedback: None,
        })
    }

    /// Enables the running [`AccuracyFeedback`] view: every pushed slot
    /// folds its tie set into a per-column accuracy accumulator, `O(N)`
    /// extra memory and `O(|tie set|)` extra work per slot — no second
    /// pass over the scores. Retrieve with
    /// [`feedback`](Self::feedback).
    pub fn with_feedback(mut self) -> Self {
        self.feedback = Some(AccuracyFeedback::new(self.population));
        self
    }

    /// The running accuracy feedback, when enabled with
    /// [`with_feedback`](Self::with_feedback).
    pub fn feedback(&self) -> Option<&AccuracyFeedback> {
        self.feedback.as_ref()
    }

    /// Number of concurrent services the detector scores.
    pub fn population(&self) -> usize {
        self.population
    }

    /// Number of mobility-model classes (tables per epoch).
    pub fn num_classes(&self) -> usize {
        self.epoch_tables[0].len()
    }

    /// Number of epochs (1 for stationary detectors).
    pub fn num_epochs(&self) -> usize {
        self.epoch_tables.len()
    }

    /// The slot → epoch map driving table selection
    /// ([`EpochSchedule::stationary`] unless built with
    /// [`with_schedule`](Self::with_schedule)).
    pub fn schedule(&self) -> &EpochSchedule {
        &self.schedule
    }

    /// Number of slot rows pushed so far.
    pub fn slots_seen(&self) -> usize {
        self.slots_seen
    }

    /// Bytes of horizon-independent running state: the accumulator block
    /// (`8 · N · classes`), the mixture best-class score row (`8 · N`,
    /// absent for single-class layouts), the previous slot row
    /// (`4 · N`), and — when enabled — the accuracy-feedback mass
    /// (`8 · N`). This is the detector's whole memory of the stream — it
    /// does not grow with the number of slots pushed.
    pub fn state_bytes(&self) -> usize {
        let lanes: usize = self
            .lanes
            .iter()
            .map(|l| (l.accs.len() + l.scores.len()) * 8 + l.prev.capacity() * 4)
            .sum();
        let feedback = self
            .feedback
            .as_ref()
            .map_or(0, AccuracyFeedback::state_bytes);
        lanes + feedback
    }

    /// Consumes one slot row (the observed cell of every service at this
    /// slot, in service order) and returns the slot's detection.
    ///
    /// The row is validated *before* any accumulator is touched, so a
    /// failed push leaves the detector exactly as it was — the stream can
    /// be resumed or abandoned with a clean partial result, never a
    /// poisoned engine.
    ///
    /// # Errors
    ///
    /// Returns
    /// [`CoreError::LengthMismatch`](crate::CoreError::LengthMismatch)
    /// when the row does not cover the population and
    /// [`CoreError::CellOutOfRange`](crate::CoreError::CellOutOfRange)
    /// when any cell falls outside the model's state space.
    pub fn push_slot(&mut self, row: &[CellId]) -> Result<Detection> {
        if row.len() != self.population {
            return Err(crate::CoreError::LengthMismatch {
                expected: self.population,
                found: row.len(),
            });
        }
        // Full-row range check up front: the kernels check again, but by
        // then some lanes could have advanced — this pass makes failure
        // atomic.
        if let Some(cell) = CellId::first_out_of_range(row, self.states) {
            return Err(crate::CoreError::CellOutOfRange {
                cell: cell.index(),
                states: self.states,
            });
        }
        // The epoch clock is the slot counter: the arrival at slot
        // `slots_seen` is scored under that slot's epoch tables. A
        // stationary schedule always selects epoch 0.
        let tables = &self.epoch_tables[self.schedule.epoch_of(self.slots_seen)];
        let detection = step_lanes(&mut self.lanes, tables, row)?;
        if let Some(feedback) = &mut self.feedback {
            feedback.record(&detection);
        }
        self.slots_seen += 1;
        Ok(detection)
    }
}

/// Validates an epoch-major table set against its schedule: at least one
/// epoch and one class, one table list per scheduled epoch, the same
/// class count in every epoch and every table over the same cell space.
/// Returns the number of cells.
pub(super) fn validate_epoch_tables<T: Borrow<LogLikelihoodTable>>(
    epoch_tables: &[Vec<T>],
    schedule: &EpochSchedule,
) -> Result<usize> {
    let first_epoch = epoch_tables
        .first()
        .ok_or(crate::CoreError::Markov(MarkovError::Empty))?;
    let states = first_epoch
        .first()
        .ok_or(crate::CoreError::Markov(MarkovError::Empty))?
        .borrow()
        .num_states();
    if epoch_tables.len() != schedule.num_epochs() {
        return Err(crate::CoreError::Markov(MarkovError::LengthMismatch {
            expected: schedule.num_epochs(),
            found: epoch_tables.len(),
        }));
    }
    for tables in epoch_tables {
        if tables.len() != first_epoch.len() {
            return Err(crate::CoreError::Markov(MarkovError::LengthMismatch {
                expected: first_epoch.len(),
                found: tables.len(),
            }));
        }
        for table in tables {
            if table.borrow().num_states() != states {
                return Err(crate::CoreError::Markov(MarkovError::DimensionMismatch {
                    expected: states,
                    found: table.borrow().num_states(),
                }));
            }
        }
    }
    Ok(states)
}

/// Splits `population` services into at most `shards` contiguous,
/// non-empty index ranges `[lo, hi)` of near-equal width, so each
/// service's accumulator lives on exactly one lane.
fn lane_ranges(population: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, population.max(1));
    let chunk = population.div_ceil(shards);
    (0..shards)
        .map(|s| (s * chunk, ((s + 1) * chunk).min(population)))
        .filter(|&(lo, hi)| lo < hi)
        .collect()
}

/// One lane's running state: the index range it owns, the cumulative
/// score accumulators for every `(trajectory, class)` pair in that range,
/// the per-slot loop's copy of the range's previous row, and the
/// reusable per-slot buffers [`advance_lane`] writes into — owning the
/// buffers keeps the steady-state slot loop allocation-free.
///
/// Aligned to 128 bytes so that lanes stored side by side never share a
/// cache line (or an adjacent-line prefetch pair): each pool job writes
/// its lane's maximum and candidate-vector length once per tie, and
/// false sharing between neighbouring lanes measurably slows the grid
/// loop.
#[derive(Debug, Clone)]
#[repr(align(128))]
pub(super) struct ShardLane {
    lo: usize,
    hi: usize,
    /// Class-major accumulator block: `accs[k * width + j]` is trajectory
    /// `lo + j`'s running score under class `k` (`width == hi - lo`;
    /// single-class layouts collapse to `accs[j]`) — the layout the
    /// mixture kernel advances one contiguous class block at a time.
    accs: Vec<f64>,
    /// Per-trajectory best-class scores of the current slot (mixture
    /// only; empty — and unused — for single-class layouts, where `accs`
    /// already *is* the per-trajectory score row).
    scores: Vec<f64>,
    /// The per-slot loop's previous row over `lo..hi`, refreshed by the
    /// lane's own job (empty before the first slot; the grid loop reads
    /// its previous rows from the grid and leaves this empty).
    prev: Vec<CellId>,
    /// The slot's lane-local exact maximum.
    best: f64,
    /// The slot's argmax candidates `(global index, score)`, ascending by
    /// index.
    candidates: Vec<(u32, f64)>,
}

impl ShardLane {
    /// Fresh lanes over [`lane_ranges`]`(population, shards)`, each with
    /// zeroed accumulators for `classes` mobility classes.
    pub(super) fn partition(population: usize, shards: usize, classes: usize) -> Vec<ShardLane> {
        lane_ranges(population, shards)
            .into_iter()
            .map(|(lo, hi)| ShardLane {
                lo,
                hi,
                accs: vec![0.0f64; (hi - lo) * classes],
                scores: if classes > 1 {
                    vec![0.0f64; hi - lo]
                } else {
                    Vec::new()
                },
                prev: Vec::new(),
                best: f64::NEG_INFINITY,
                candidates: Vec::new(),
            })
            .collect()
    }
}

/// Advances one lane by one slot — *the* per-slot dispatch: one table
/// runs [`advance_slot_single`](kernel::advance_slot_single), several run
/// [`advance_slot_mixture`](kernel::advance_slot_mixture). The slot's
/// lane maximum and argmax candidates land in the lane's buffers.
/// `lane_row` and `lane_prev` cover the lane's range `lo..hi`.
fn advance_lane<T: Borrow<LogLikelihoodTable>>(
    tables: &[T],
    lane: &mut ShardLane,
    lane_row: &[CellId],
    lane_prev: Option<&[CellId]>,
) -> Result<()> {
    lane.best = f64::NEG_INFINITY;
    lane.candidates.clear();
    if let [table] = tables {
        kernel::advance_slot_single(
            table.borrow(),
            lane.lo,
            lane_row,
            lane_prev,
            &mut lane.accs,
            &mut lane.best,
            &mut lane.candidates,
        )
    } else {
        kernel::advance_slot_mixture(
            tables,
            lane.lo,
            lane_row,
            lane_prev,
            &mut lane.accs,
            &mut lane.scores,
            &mut lane.best,
            &mut lane.candidates,
        )
    }
}

/// The lane pool scaffold: runs `job` once per lane — inline for a single
/// lane, otherwise one job per lane on the process-wide [`pool`] (no
/// per-call thread spawns) — and returns the results in lane order.
///
/// Collecting in lane order makes the lowest failing lane's error win,
/// so the same error variant surfaces for every shard count. A panicking
/// job is re-raised on the caller's thread by the pool scope, lowest lane
/// first.
fn run_lanes<L, R, F>(lanes: &mut [L], job: F) -> Result<Vec<R>>
where
    L: Send,
    R: Send,
    F: Fn(&mut L) -> Result<R> + Sync,
{
    if lanes.len() <= 1 {
        return lanes.iter_mut().map(job).collect();
    }
    let mut results: Vec<Option<Result<R>>> = lanes.iter().map(|_| None).collect();
    pool::global().scope(|scope| {
        for (lane, result) in lanes.iter_mut().zip(results.iter_mut()) {
            let job = &job;
            scope.spawn(move || *result = Some(job(lane)));
        }
    });
    results
        .into_iter()
        .map(|result| result.expect("pool scope ran every lane"))
        .collect()
}

/// The cross-lane tie-set merge: one slot's `(lane maximum, lane
/// candidates)` pairs, lanes in index order, become the slot's
/// [`Detection`].
///
/// A lane candidate within tolerance of the *global* best is necessarily
/// within tolerance of its lane-local best (local max ≤ global max), so
/// filtering the candidate lists against the merged maximum loses
/// nothing. Visiting lanes in index order keeps tie sets ascending,
/// exactly like `argmax_set`.
fn merge_lanes<'a, I>(lanes: I) -> Detection
where
    I: Iterator<Item = (f64, &'a [(u32, f64)])> + Clone,
{
    let mut best = f64::NEG_INFINITY;
    for (lane_best, _) in lanes.clone() {
        if lane_best > best {
            best = lane_best;
        }
    }
    let mut tie_set = Vec::new();
    for (_, candidates) in lanes {
        for &(i, s) in candidates {
            if loglik_cmp(s, best).is_eq() {
                tie_set.push(i as usize);
            }
        }
    }
    Detection::new(tie_set)
}

/// The per-slot loop: advances every lane by one slot under `tables`
/// in one pool scope, then merges the lanes' candidates. Each lane
/// scores its range of `row` against its own copy of the previous row
/// (none before the first slot) and then, in the same job, makes `row`
/// that copy, so no full-row copy runs outside the pool.
pub(super) fn step_lanes<T: Borrow<LogLikelihoodTable> + Sync>(
    lanes: &mut [ShardLane],
    tables: &[T],
    row: &[CellId],
) -> Result<Detection> {
    run_lanes(lanes, |lane| {
        let lane_row = &row[lane.lo..lane.hi];
        let prev = std::mem::take(&mut lane.prev);
        let advanced = advance_lane(tables, lane, lane_row, (!prev.is_empty()).then_some(&prev));
        lane.prev = prev;
        advanced?;
        lane.prev.clear();
        lane.prev.extend_from_slice(lane_row);
        Ok(())
    })?;
    Ok(merge_lanes(
        lanes.iter().map(|l| (l.best, l.candidates.as_slice())),
    ))
}

/// One lane's per-slot summaries over a whole horizon: the lane maximum
/// and the argmax candidates of every slot, concatenated. The grid loop
/// emits one per lane; [`merge_horizon`] merges them.
#[derive(Debug)]
struct LaneSlots {
    maxima: Vec<f64>,
    /// Slot `t`'s candidates are `ties[tie_starts[t]..tie_starts[t + 1]]`.
    ties: Vec<(u32, f64)>,
    tie_starts: Vec<usize>,
}

impl LaneSlots {
    fn with_horizon(horizon: usize) -> Self {
        let mut tie_starts = Vec::with_capacity(horizon + 1);
        tie_starts.push(0);
        LaneSlots {
            maxima: Vec::with_capacity(horizon),
            ties: Vec::new(),
            tie_starts,
        }
    }

    /// Appends the next slot's lane maximum and candidates.
    fn push(&mut self, best: f64, candidates: &[(u32, f64)]) {
        self.maxima.push(best);
        self.ties.extend_from_slice(candidates);
        self.tie_starts.push(self.ties.len());
    }

    fn slot(&self, t: usize) -> (f64, &[(u32, f64)]) {
        (
            self.maxima[t],
            &self.ties[self.tie_starts[t]..self.tie_starts[t + 1]],
        )
    }
}

/// Merges every lane's summaries slot by slot into the horizon's
/// detections.
fn merge_horizon(lanes: &[LaneSlots], horizon: usize) -> Vec<Detection> {
    (0..horizon)
        .map(|t| merge_lanes(lanes.iter().map(|lane| lane.slot(t))))
        .collect()
}

/// The observation rows a grid-loop lane reads: a columnar grid, or
/// trajectories that each lane transposes for its own range inside its
/// pool job (so no serial whole-set transpose runs before the lanes
/// start).
#[derive(Debug, Clone, Copy)]
pub(super) enum LaneRows<'a> {
    Grid(&'a CellGrid),
    Trajectories(&'a [Trajectory]),
}

impl LaneRows<'_> {
    fn num_trajectories(self) -> usize {
        match self {
            LaneRows::Grid(grid) => grid.num_trajectories(),
            LaneRows::Trajectories(observed) => observed.len(),
        }
    }

    fn horizon(self) -> usize {
        match self {
            LaneRows::Grid(grid) => grid.horizon(),
            LaneRows::Trajectories(observed) => observed.first().map_or(0, Trajectory::len),
        }
    }
}

/// Slots a trajectory lane transposes at a time: its block buffer holds
/// this many rows of the lane's range plus the previous slot's row, so
/// the lane-local transpose stays cache-sized and adds no `N × T` copy.
const SLOT_BLOCK: usize = 16;

/// The grid loop: every lane runs all slots of `rows` inside one pool
/// job — the arrival at slot `t` scored under
/// `epoch_tables[schedule.epoch_of(t)]` — and the lanes' summaries are
/// merged slot by slot. A trajectory lane transposes its own range
/// [`SLOT_BLOCK`] slots at a time inside its job. `epoch_tables` must
/// pass [`validate_epoch_tables`] and `rows` must be non-empty,
/// rectangular and with a population within
/// [`MAX_POPULATION`](super::MAX_POPULATION).
pub(super) fn detect_grid<T: Borrow<LogLikelihoodTable> + Sync>(
    epoch_tables: &[Vec<T>],
    schedule: &EpochSchedule,
    rows: LaneRows<'_>,
    shards: usize,
) -> Result<Vec<Detection>> {
    let horizon = rows.horizon();
    let mut lanes = ShardLane::partition(rows.num_trajectories(), shards, epoch_tables[0].len());
    let slots = run_lanes(&mut lanes, |lane| {
        let mut out = LaneSlots::with_horizon(horizon);
        let mut advance = |lane: &mut ShardLane, t, row: &[CellId], prev: Option<&[CellId]>| {
            advance_lane(&epoch_tables[schedule.epoch_of(t)], lane, row, prev)?;
            out.push(lane.best, &lane.candidates);
            Ok::<_, crate::CoreError>(())
        };
        match rows {
            LaneRows::Grid(grid) => {
                let range = lane.lo..lane.hi;
                for t in 0..horizon {
                    let prev = t.checked_sub(1).map(|p| &grid.row(p)[range.clone()]);
                    advance(lane, t, &grid.row(t)[range.clone()], prev)?;
                }
            }
            LaneRows::Trajectories(observed) => {
                let observed = &observed[lane.lo..lane.hi];
                let width = observed.len();
                // Row 0 holds the slot before the block, rows 1.. the
                // block. Every block but the last is full, so the previous
                // block's last slot is always its row `SLOT_BLOCK`.
                let mut block = vec![CellId::new(0); (SLOT_BLOCK + 1) * width];
                for start in (0..horizon).step_by(SLOT_BLOCK) {
                    let end = (start + SLOT_BLOCK).min(horizon);
                    block.copy_within(SLOT_BLOCK * width.., 0);
                    for (j, x) in observed.iter().enumerate() {
                        for (k, &cell) in x.as_slice()[start..end].iter().enumerate() {
                            block[(k + 1) * width + j] = cell;
                        }
                    }
                    for (k, t) in (start..end).enumerate() {
                        let (before, rest) = block.split_at(width * (k + 1));
                        let prev = (t > 0).then(|| &before[width * k..]);
                        advance(lane, t, &rest[..width], prev)?;
                    }
                }
            }
        }
        Ok(out)
    })?;
    Ok(merge_horizon(&slots, horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::BatchPrefixDetector;
    use crate::CoreError;
    use chaff_markov::models::ModelKind;
    use chaff_markov::{CellGrid, MarkovChain, Trajectory};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fleet(seed: u64, n: usize, horizon: usize) -> (MarkovChain, CellGrid) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng).unwrap()).unwrap();
        let observed: Vec<Trajectory> = (0..n)
            .map(|_| chain.sample_trajectory(horizon, &mut rng))
            .collect();
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        (chain, grid)
    }

    fn two_class_grid(seed: u64, horizon: usize) -> (MarkovChain, MarkovChain, CellGrid) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng).unwrap()).unwrap();
        let b = MarkovChain::new(ModelKind::SpatiallySkewed.build(10, &mut rng).unwrap()).unwrap();
        let mut observed: Vec<Trajectory> = (0..23)
            .map(|_| a.sample_trajectory(horizon, &mut rng))
            .collect();
        observed.extend((0..18).map(|_| b.sample_trajectory(horizon, &mut rng)));
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        (a, b, grid)
    }

    #[test]
    fn streamed_detections_match_batch_bit_for_bit() {
        let (chain, grid) = fleet(61, 137, 23);
        let reference = BatchPrefixDetector::with_shards(1)
            .detect_prefixes(crate::detector::DetectInput::new(&chain, &grid))
            .unwrap();
        for shards in [1, 2, 7, 137, 500] {
            let mut online = StreamingPrefixDetector::with_shards(
                vec![chain.log_likelihood_table()],
                grid.num_trajectories(),
                shards,
            )
            .unwrap();
            for (t, expected) in reference.iter().enumerate() {
                let detection = online.push_slot(grid.row(t)).unwrap();
                assert_eq!(&detection, expected, "slot {t}, shards {shards}");
            }
            assert_eq!(online.slots_seen(), grid.horizon());
        }
    }

    #[test]
    fn streamed_mixture_matches_batch_mixture_bit_for_bit() {
        let (a, b, grid) = two_class_grid(62, 15);
        let (ta, tb) = (a.log_likelihood_table(), b.log_likelihood_table());
        let reference = BatchPrefixDetector::with_shards(1)
            .detect_prefixes(crate::detector::DetectInput::new(&[&ta, &tb], &grid))
            .unwrap();
        for shards in [1, 2, 7, 41] {
            let mut online = StreamingPrefixDetector::with_shards(
                vec![ta.clone(), tb.clone()],
                grid.num_trajectories(),
                shards,
            )
            .unwrap();
            for (t, expected) in reference.iter().enumerate() {
                let detection = online.push_slot(grid.row(t)).unwrap();
                assert_eq!(&detection, expected, "slot {t}, shards {shards}");
            }
        }
    }

    #[test]
    fn state_is_horizon_independent() {
        let (chain, grid) = fleet(64, 50, 40);
        let mut online =
            StreamingPrefixDetector::with_shards(vec![chain.log_likelihood_table()], 50, 2)
                .unwrap();
        online.push_slot(grid.row(0)).unwrap();
        let after_one = online.state_bytes();
        for t in 1..grid.horizon() {
            online.push_slot(grid.row(t)).unwrap();
        }
        assert_eq!(online.state_bytes(), after_one);
        // 8 bytes of accumulator + 4 bytes of previous row per service.
        assert_eq!(after_one, 50 * 8 + 50 * 4);
    }

    #[test]
    fn streamed_feedback_matches_the_batch_bridge() {
        // The opt-in running feedback must equal what the batch bridge
        // reconstructs from the same detections — for every shard count.
        let (chain, grid) = fleet(71, 41, 17);
        let reference = BatchPrefixDetector::with_shards(2)
            .detect_prefixes(crate::detector::DetectInput::new(&chain, &grid))
            .unwrap();
        let bridged = AccuracyFeedback::from_detections(grid.num_trajectories(), &reference);
        for shards in [1, 3, 41] {
            let mut online = StreamingPrefixDetector::with_shards(
                vec![chain.log_likelihood_table()],
                grid.num_trajectories(),
                shards,
            )
            .unwrap()
            .with_feedback();
            for t in 0..grid.horizon() {
                online.push_slot(grid.row(t)).unwrap();
            }
            let feedback = online.feedback().unwrap();
            assert_eq!(feedback, &bridged, "shards {shards}");
            assert_eq!(feedback.slots(), grid.horizon());
            // The per-column accuracies are the columns' time-average
            // detection accuracies: they sum to 1 per slot.
            let total: f64 = feedback.accuracies().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
        }
    }

    #[test]
    fn feedback_state_is_horizon_independent_and_opt_in() {
        let (chain, grid) = fleet(72, 50, 30);
        let mut online =
            StreamingPrefixDetector::with_shards(vec![chain.log_likelihood_table()], 50, 2)
                .unwrap()
                .with_feedback();
        online.push_slot(grid.row(0)).unwrap();
        let after_one = online.state_bytes();
        for t in 1..grid.horizon() {
            online.push_slot(grid.row(t)).unwrap();
        }
        assert_eq!(online.state_bytes(), after_one);
        // The plain detector's 8 + 4 bytes per service, plus 8 bytes of
        // feedback mass per column.
        assert_eq!(after_one, 50 * 8 + 50 * 4 + 50 * 8);
    }

    #[test]
    fn saturated_ties_rank_by_lowest_column_index() {
        // When every slot's argmax ties across the whole population —
        // e.g. all services glued to one cell under a deterministic-ish
        // row — every column accumulates identical mass, and the ranking
        // must deterministically prefer the lowest index (the pinned
        // tie-break that keeps adaptive budget loops from oscillating on
        // tie order).
        let mut rng = StdRng::seed_from_u64(73);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng).unwrap()).unwrap();
        let mut online =
            StreamingPrefixDetector::with_shards(vec![chain.log_likelihood_table()], 6, 3)
                .unwrap()
                .with_feedback();
        for t in 0..9 {
            // All six services share one cell per slot: identical scores,
            // a full tie, every slot.
            let row = vec![chaff_markov::CellId::new(t % 10); 6];
            let detection = online.push_slot(&row).unwrap();
            assert_eq!(detection.tie_set(), &[0, 1, 2, 3, 4, 5]);
        }
        let feedback = online.feedback().unwrap();
        for i in 0..6 {
            assert!((feedback.accuracy(i) - 1.0 / 6.0).abs() < 1e-12);
        }
        assert_eq!(feedback.ranked(), vec![0, 1, 2, 3, 4, 5]);
        // Distinct masses still rank by accuracy first.
        let skewed = AccuracyFeedback::from_detections(
            3,
            &[
                Detection::new(vec![2]),
                Detection::new(vec![2]),
                Detection::new(vec![0, 1]),
            ],
        );
        assert_eq!(skewed.ranked(), vec![2, 0, 1]);
    }

    #[test]
    fn empty_feedback_reports_zero_accuracy() {
        let feedback = AccuracyFeedback::new(4);
        assert_eq!(feedback.num_services(), 4);
        assert_eq!(feedback.slots(), 0);
        assert_eq!(feedback.accuracy(2), 0.0);
        assert_eq!(feedback.ranked(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn schedule_selects_the_slot_active_tables() {
        // A 2-epoch schedule holding the SAME table in both epochs is
        // bit-for-bit the stationary detector (the epoch machinery adds
        // nothing); holding genuinely different tables, the detector must
        // score day slots under the day table — checked by comparing
        // against a hand-rolled per-slot re-dispatch.
        let (chain, grid) = fleet(81, 19, 12);
        let mut rng = StdRng::seed_from_u64(82);
        let other =
            MarkovChain::new(ModelKind::SpatiallySkewed.build(10, &mut rng).unwrap()).unwrap();
        let (table, other_table) = (chain.log_likelihood_table(), other.log_likelihood_table());
        let schedule = EpochSchedule::day_night(3, 2).unwrap();

        let mut stationary =
            StreamingPrefixDetector::with_shards(vec![table.clone()], 19, 3).unwrap();
        let mut duplicated = StreamingPrefixDetector::with_schedule(
            vec![vec![table.clone()], vec![table.clone()]],
            schedule.clone(),
            19,
            3,
        )
        .unwrap();
        let mut varying = StreamingPrefixDetector::with_schedule(
            vec![vec![table.clone()], vec![other_table.clone()]],
            schedule.clone(),
            19,
            3,
        )
        .unwrap();
        assert_eq!(varying.num_epochs(), 2);
        assert_eq!(varying.num_classes(), 1);
        assert_eq!(varying.schedule(), &schedule);

        // Reference for the varying detector: score each slot with the
        // epoch-active single table by hand.
        let mut accs = [0.0f64; 19];
        let mut diverged = false;
        for t in 0..grid.horizon() {
            let expect_dup = stationary.push_slot(grid.row(t)).unwrap();
            assert_eq!(duplicated.push_slot(grid.row(t)).unwrap(), expect_dup);

            let active = if schedule.epoch_of(t) == 0 {
                &table
            } else {
                &other_table
            };
            for (j, acc) in accs.iter_mut().enumerate() {
                let now = grid.row(t)[j];
                let prev = (t > 0).then(|| grid.row(t - 1)[j]);
                *acc += active.step(prev, now);
            }
            let best = accs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let tie: Vec<usize> = (0..19)
                .filter(|&j| loglik_cmp(accs[j], best).is_eq())
                .collect();
            let got = varying.push_slot(grid.row(t)).unwrap();
            assert_eq!(got.tie_set(), &tie[..], "slot {t}");
            if got != expect_dup {
                diverged = true;
            }
        }
        // The night table genuinely changes detections on this fixture.
        assert!(diverged, "epoch tables never changed a detection");
    }

    #[test]
    fn with_schedule_validates_epoch_shapes() {
        let (chain, _) = fleet(83, 4, 3);
        let table = chain.log_likelihood_table();
        let two = EpochSchedule::day_night(1, 1).unwrap();
        assert!(matches!(
            StreamingPrefixDetector::with_schedule(vec![vec![table.clone()]], two.clone(), 4, 1),
            Err(CoreError::Markov(
                chaff_markov::MarkovError::LengthMismatch {
                    expected: 2,
                    found: 1
                }
            ))
        ));
        assert!(matches!(
            StreamingPrefixDetector::with_schedule(
                vec![vec![table.clone(), table.clone()], vec![table.clone()]],
                two,
                4,
                1
            ),
            Err(CoreError::Markov(
                chaff_markov::MarkovError::LengthMismatch {
                    expected: 2,
                    found: 1
                }
            ))
        ));
        assert!(matches!(
            StreamingPrefixDetector::with_schedule(
                vec![Vec::new()],
                EpochSchedule::stationary(),
                4,
                1
            ),
            Err(CoreError::Markov(chaff_markov::MarkovError::Empty))
        ));
    }

    #[test]
    fn rejects_invalid_construction() {
        let (chain, _) = fleet(65, 4, 3);
        assert!(matches!(
            StreamingPrefixDetector::new(vec![], 4),
            Err(CoreError::Markov(chaff_markov::MarkovError::Empty))
        ));
        assert!(matches!(
            StreamingPrefixDetector::new(vec![chain.log_likelihood_table()], 0),
            Err(CoreError::NoTrajectories)
        ));
        let mut rng = StdRng::seed_from_u64(66);
        let other = MarkovChain::new(ModelKind::NonSkewed.build(7, &mut rng).unwrap()).unwrap();
        assert!(matches!(
            StreamingPrefixDetector::new(
                vec![chain.log_likelihood_table(), other.log_likelihood_table()],
                4
            ),
            Err(CoreError::Markov(
                chaff_markov::MarkovError::DimensionMismatch {
                    expected: 10,
                    found: 7
                }
            ))
        ));
    }

    #[test]
    fn failed_pushes_leave_the_detector_unpoisoned() {
        let (chain, grid) = fleet(67, 12, 8);
        let make = || {
            StreamingPrefixDetector::with_shards(vec![chain.log_likelihood_table()], 12, 3).unwrap()
        };
        let mut clean = make();
        let mut poked = make();
        let mut bad_row = grid.row(0).to_vec();
        bad_row[7] = chaff_markov::CellId::new(999);
        for t in 0..grid.horizon() {
            // A wrong-arity row and an out-of-range row both fail...
            assert!(matches!(
                poked.push_slot(&grid.row(t)[..5]),
                Err(CoreError::LengthMismatch {
                    expected: 12,
                    found: 5
                })
            ));
            assert!(matches!(
                poked.push_slot(&bad_row),
                Err(CoreError::CellOutOfRange { cell: 999, .. })
            ));
            // ...without perturbing the stream: both detectors keep
            // producing identical detections.
            let expected = clean.push_slot(grid.row(t)).unwrap();
            let got = poked.push_slot(grid.row(t)).unwrap();
            assert_eq!(got, expected, "slot {t}");
        }
        assert_eq!(poked.slots_seen(), grid.horizon());
    }
}
