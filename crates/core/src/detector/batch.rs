//! The fleet-scale detection entry point: batched, sharded prefix
//! detection.
//!
//! [`MlDetector::detect_prefixes`](super::MlDetector::detect_prefixes)
//! walks the transition matrix per trajectory (one `ln` per step) and
//! re-scans all `N` cumulative scores per slot through `argmax_set` —
//! fine for the paper's `N ≤ 50` populations, prohibitive for fleets.
//! [`BatchPrefixDetector`] produces *identical* detections from a
//! different execution plan:
//!
//! 1. the mobility model's log-likelihoods are read from cached
//!    [`LogLikelihoodTable`]s (no `ln` on the hot path), borrowed from
//!    the caller's model — no request clones a table;
//! 2. the population is split into contiguous shard lanes, each of which
//!    accumulates its services' running prefix scores on the
//!    process-wide worker [`pool`](crate::pool) (no per-call thread
//!    spawns) and extracts its per-slot argmax candidates *during* the
//!    pass;
//! 3. one cross-lane merge turns each slot's lane candidates into the
//!    slot's [`Detection`] — no `N × T` score matrix is ever built and no
//!    `O(N)` rescan runs per slot.
//!
//! All of this sits behind **one entry point**:
//! [`BatchPrefixDetector::detect_prefixes`] takes a [`DetectInput`]
//! pairing a model ([`DetectModel`]: chain, table, per-class tables,
//! registry or epoch schedule) with an observation set
//! ([`DetectObservations`]). The model resolves to borrowed epoch-major
//! tables (one epoch unless the model is a time-varying
//! [`DetectModel::Schedule`]), and the observation representation picks
//! the execution plan:
//!
//! * **columnar grids** (and time-varying models over trajectories,
//!   after a transpose) run on the streaming detector's shard lanes, all
//!   slots of a lane in one pool job (see [`streaming`](super::streaming));
//! * **paged** [`SlotRowSource`]s run the same lanes one slot per pool
//!   scope, in `O(N · classes)` state, so stores larger than RAM stream
//!   straight into detection;
//! * **trajectories** under a stationary model keep their
//!   trajectory-major passes (one trajectory's whole horizon at a time,
//!   unit stride), which beat transposing first. They emit the same
//!   per-lane slot summaries into the same merge.
//!
//! Heterogeneous (multi-class) models score the chaffed candidate set
//! against one table per mobility-model class (best class per prefix).
//!
//! Determinism: each trajectory's score is accumulated in slot order by
//! exactly one lane, maxima merge with exact comparisons, and tie sets
//! are emitted in increasing index order — so results are bit-for-bit
//! independent of the shard count and of the representation, and equal
//! to the per-trajectory path.

use super::input::{DetectInput, DetectModel, DetectObservations, SlotRowSource};
use super::kernel::fold;
use super::streaming::{
    detect_grid, lane_ranges, merge_horizon, run_lanes, step_lanes, validate_epoch_tables,
    LaneSlots, ShardLane,
};
use super::Detection;
use crate::Result;
use chaff_markov::{CellGrid, EpochSchedule, LogLikelihoodTable, MobilityRegistry, Trajectory};

/// Largest supported population: candidate trackers store service
/// indices as `u32` (half the footprint of `usize` at fleet scale), so
/// populations beyond this are rejected with
/// [`CoreError::PopulationTooLarge`](crate::CoreError::PopulationTooLarge)
/// instead of silently truncating indices.
pub const MAX_POPULATION: usize = u32::MAX as usize;

/// Rejects populations whose service indices would not fit `u32`.
pub(super) fn ensure_population_fits(population: usize) -> Result<()> {
    if population > MAX_POPULATION {
        return Err(crate::CoreError::PopulationTooLarge {
            population,
            max: MAX_POPULATION,
        });
    }
    Ok(())
}

/// The global service index `lo + j` as `u32` — exact because every
/// entry path checks the population against [`MAX_POPULATION`] first
/// (so `lo + j < n <= u32::MAX` and the cast can never truncate).
#[inline(always)]
pub(super) fn service_index(lo: usize, j: usize) -> u32 {
    debug_assert!(lo + j <= MAX_POPULATION);
    (lo + j) as u32
}

/// Batched maximum-likelihood prefix detector for fleet-scale populations.
///
/// Semantically equivalent to [`MlDetector`](super::MlDetector) (eq. 1,
/// evaluated per prefix); see the [module docs](self) for the execution
/// plan. Construct with [`new`](BatchPrefixDetector::new) to size shards
/// from the machine, or [`with_shards`](BatchPrefixDetector::with_shards)
/// to pin the shard count (results do not depend on it).
///
/// # Example
///
/// ```
/// use chaff_core::detector::{BatchPrefixDetector, DetectInput, MlDetector};
/// use chaff_markov::{models::ModelKind, MarkovChain};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(5);
/// let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
/// let observed: Vec<_> = (0..64).map(|_| chain.sample_trajectory(30, &mut rng)).collect();
/// let batch = BatchPrefixDetector::new().detect_prefixes(DetectInput::new(&chain, &observed))?;
/// let single = MlDetector.detect_prefixes(&chain, &observed)?;
/// assert_eq!(batch, single);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchPrefixDetector {
    /// Requested shard count; `None` sizes from available parallelism.
    shards: Option<usize>,
}

impl BatchPrefixDetector {
    /// Creates a detector that sizes its shard count from
    /// `std::thread::available_parallelism`.
    pub fn new() -> Self {
        BatchPrefixDetector { shards: None }
    }

    /// Creates a detector with a fixed shard count (clamped to at least
    /// one). Detections are identical for every shard count; this only
    /// controls parallelism.
    pub fn with_shards(shards: usize) -> Self {
        BatchPrefixDetector {
            shards: Some(shards.max(1)),
        }
    }

    /// The requested shard count (the lane partition clamps it to the
    /// population).
    fn shards(&self) -> usize {
        self.shards.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Detects once per slot using observation prefixes — the unified
    /// entry point over every *(model, observations)* pairing (see
    /// [`DetectInput`]). Produces exactly the `Detection` sequence of
    /// [`MlDetector::detect_prefixes`](super::MlDetector::detect_prefixes)
    /// for every combination: the representation changes the execution
    /// plan, never the result.
    ///
    /// ```
    /// use chaff_core::detector::{BatchPrefixDetector, DetectInput, MlDetector};
    /// use chaff_markov::{models::ModelKind, MarkovChain};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = StdRng::seed_from_u64(5);
    /// let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
    /// let observed: Vec<_> = (0..64).map(|_| chain.sample_trajectory(30, &mut rng)).collect();
    /// let batch = BatchPrefixDetector::new().detect_prefixes(DetectInput::new(&chain, &observed))?;
    /// let single = MlDetector.detect_prefixes(&chain, &observed)?;
    /// assert_eq!(batch, single);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// The observation-shape errors of
    /// [`MlDetector::detect`](super::MlDetector::detect), plus
    /// [`MarkovError::Empty`](chaff_markov::MarkovError::Empty) /
    /// [`MarkovError::DimensionMismatch`](chaff_markov::MarkovError::DimensionMismatch)
    /// for empty or inconsistent multi-class table sets,
    /// [`CoreError::PopulationTooLarge`](crate::CoreError::PopulationTooLarge)
    /// past [`MAX_POPULATION`], and
    /// [`CoreError::RowSource`](crate::CoreError::RowSource) when a paged
    /// source fails or disagrees with its declared horizon.
    pub fn detect_prefixes(&self, input: DetectInput<'_>) -> Result<Vec<Detection>> {
        let DetectInput {
            model,
            observations,
        } = input;
        // Resolve the model to borrowed epoch-major tables; only the
        // `Chain` arm owns a table, the one it builds here. A one-epoch
        // `Schedule` resolves exactly like `Registry` (the
        // reduction-to-stationary guarantee).
        let built_table;
        let stationary = EpochSchedule::stationary();
        let (epoch_tables, schedule): (Vec<Vec<&LogLikelihoodTable>>, _) = match model {
            DetectModel::Chain(chain) => {
                built_table = chain.log_likelihood_table();
                (vec![vec![&built_table]], &stationary)
            }
            DetectModel::Table(table) => (vec![vec![table]], &stationary),
            DetectModel::Tables(tables) => (vec![tables.to_vec()], &stationary),
            DetectModel::Registry(registry) => (vec![registry.tables()], &stationary),
            DetectModel::Schedule(registry) => (epoch_tables(registry), registry.schedule()),
        };
        validate_epoch_tables(&epoch_tables, schedule)?;
        match observations {
            DetectObservations::Trajectories(observed) if epoch_tables.len() == 1 => {
                self.prefixes_trajectories(&epoch_tables[0], observed)
            }
            DetectObservations::Trajectories(observed) => {
                validate_shape(observed)?;
                let grid = CellGrid::from_trajectories(observed)?;
                detect_grid(&epoch_tables, schedule, &grid, self.shards())
            }
            DetectObservations::Columnar(grid) => {
                validate_grid(grid)?;
                detect_grid(&epoch_tables, schedule, grid, self.shards())
            }
            DetectObservations::Paged(source) => {
                self.prefixes_paged(&epoch_tables, schedule, source)
            }
        }
    }

    /// Trajectory-major workhorse for stationary models: the single-table
    /// or the mixture pass per lane, then the shared merge. Shapes are
    /// checked up front; cell ranges are checked inside the pass (fused
    /// with the first read of each cell) so the hot path never walks the
    /// observation set twice.
    fn prefixes_trajectories(
        &self,
        tables: &[&LogLikelihoodTable],
        observed: &[Trajectory],
    ) -> Result<Vec<Detection>> {
        let horizon = validate_shape(observed)?;
        let mut ranges = lane_ranges(observed.len(), self.shards());
        let slots = match tables {
            [table] => run_lanes(&mut ranges, |&mut range| {
                shard_pass_light(table, observed, range)
            }),
            _ => run_lanes(&mut ranges, |&mut range| {
                shard_pass_mixture(tables, observed, range)
            }),
        }?;
        Ok(merge_horizon(&slots, horizon))
    }

    /// The row-drive loop for paged sources: pulls slot rows from the
    /// source and advances the shard lanes one slot per pool scope, each
    /// slot under its epoch's borrowed tables. State stays
    /// `O(N · classes)` however large the backing store is, and
    /// detections are bit-for-bit those of loading the whole grid.
    fn prefixes_paged(
        &self,
        epoch_tables: &[Vec<&LogLikelihoodTable>],
        schedule: &EpochSchedule,
        source: &mut dyn SlotRowSource,
    ) -> Result<Vec<Detection>> {
        let n = source.num_trajectories();
        let horizon = source.horizon();
        if n == 0 {
            return Err(crate::CoreError::NoTrajectories);
        }
        if horizon == 0 {
            return Err(crate::CoreError::EmptyTrajectory);
        }
        ensure_population_fits(n)?;
        let mut lanes = ShardLane::partition(n, self.shards(), epoch_tables[0].len());
        // Not pre-sized: `horizon` is the source's claim, not a row count.
        let mut out = Vec::new();
        while let Some(row) = source.next_row()? {
            let slot = out.len();
            if slot == horizon {
                return Err(crate::CoreError::RowSource {
                    slot,
                    reason: format!("source ran past its declared horizon of {horizon} slots"),
                });
            }
            if row.len() != n {
                return Err(crate::CoreError::LengthMismatch {
                    expected: n,
                    found: row.len(),
                });
            }
            let tables = &epoch_tables[schedule.epoch_of(slot)];
            out.push(step_lanes(&mut lanes, tables, row)?);
        }
        if out.len() != horizon {
            return Err(crate::CoreError::RowSource {
                slot: out.len(),
                reason: format!(
                    "source ended after {} of {horizon} declared slot rows",
                    out.len()
                ),
            });
        }
        Ok(out)
    }
}

/// A registry's per-class tables for every epoch, epoch-major, borrowed.
fn epoch_tables(registry: &MobilityRegistry) -> Vec<Vec<&LogLikelihoodTable>> {
    (0..registry.num_epochs())
        .map(|epoch| registry.tables_at(epoch))
        .collect()
}

/// Validates the shape of an observation set (non-empty, equal lengths)
/// without touching cell contents; the sharded pass range-checks cells as
/// it first reads them.
fn validate_shape(observed: &[Trajectory]) -> Result<usize> {
    if observed.is_empty() {
        return Err(crate::CoreError::NoTrajectories);
    }
    ensure_population_fits(observed.len())?;
    let horizon = observed[0].len();
    if horizon == 0 {
        return Err(crate::CoreError::EmptyTrajectory);
    }
    for x in observed {
        if x.len() != horizon {
            return Err(crate::CoreError::LengthMismatch {
                expected: horizon,
                found: x.len(),
            });
        }
    }
    Ok(horizon)
}

/// Validates a columnar observation grid (non-empty in both dimensions,
/// population within the `u32` index space); cells are range-checked by
/// the kernels on first read.
fn validate_grid(observed: &CellGrid) -> Result<()> {
    if observed.num_trajectories() == 0 {
        return Err(crate::CoreError::NoTrajectories);
    }
    if observed.horizon() == 0 {
        return Err(crate::CoreError::EmptyTrajectory);
    }
    ensure_population_fits(observed.num_trajectories())
}

/// Packs per-slot lane maxima and candidate lists into the [`LaneSlots`]
/// the shared merge consumes.
fn lane_slots(maxima: &[f64], candidates: &[Vec<(u32, f64)>]) -> LaneSlots {
    let mut out = LaneSlots::with_horizon(maxima.len());
    for (&best, slot) in maxima.iter().zip(candidates) {
        out.push(best, slot);
    }
    out
}

/// The multi-class (mixture) shard pass behind the multi-table
/// trajectory requests of [`BatchPrefixDetector::detect_prefixes`]: each
/// trajectory
/// carries one accumulator per model class, and its prefix score at slot
/// `t` is the *maximum* accumulator — the best class explanation of the
/// prefix. Accumulation stays per-trajectory and slot-ordered, so results
/// are bit-for-bit independent of the shard count.
fn shard_pass_mixture(
    tables: &[&LogLikelihoodTable],
    observed: &[Trajectory],
    (lo, hi): (usize, usize),
) -> Result<LaneSlots> {
    let horizon = observed.first().map_or(0, Trajectory::len);
    let states = tables[0].num_states();
    let mut maxima = vec![f64::NEG_INFINITY; horizon];
    let mut candidates: Vec<Vec<(u32, f64)>> = vec![Vec::new(); horizon];
    let mut accs = vec![0.0f64; tables.len()];
    for (j, x) in observed[lo..hi].iter().enumerate() {
        let i = service_index(lo, j);
        accs.fill(0.0);
        let mut prev = None;
        for ((&cell, best), slot) in x
            .as_slice()
            .iter()
            .zip(maxima.iter_mut())
            .zip(candidates.iter_mut())
        {
            if cell.index() >= states {
                return Err(crate::CoreError::CellOutOfRange {
                    cell: cell.index(),
                    states,
                });
            }
            // Max over classes of the running per-class score; -inf
            // accumulators are fine (impossible under every class).
            let mut score = f64::NEG_INFINITY;
            for (acc, table) in accs.iter_mut().zip(tables) {
                *acc += table.step(prev, cell);
                if *acc > score {
                    score = *acc;
                }
            }
            prev = Some(cell);
            fold(best, slot, i, score);
        }
    }
    Ok(lane_slots(&maxima, &candidates))
}

/// The detection-only shard pass: walks each trajectory once (unit
/// stride), accumulating its score in a register and folding it into
/// per-slot running max / tie-candidate trackers — no `N × T` block is
/// ever written, and cells are range-checked on their first (and only)
/// read instead of in a separate validation pass.
fn shard_pass_light(
    table: &LogLikelihoodTable,
    observed: &[Trajectory],
    (lo, hi): (usize, usize),
) -> Result<LaneSlots> {
    let horizon = observed.first().map_or(0, Trajectory::len);
    let states = table.num_states();
    let mut maxima = vec![f64::NEG_INFINITY; horizon];
    let mut candidates: Vec<Vec<(u32, f64)>> = vec![Vec::new(); horizon];

    let shard = &observed[lo..hi];
    // Two trajectories per iteration: their accumulators form independent
    // floating-point dependency chains, which roughly halves the
    // add-latency bound of this loop. Lane order (even index first)
    // preserves ascending tie sets.
    let mut pairs = shard.chunks_exact(2);
    let mut j = 0usize;
    for pair in pairs.by_ref() {
        let ia = service_index(lo, j);
        let ib = ia + 1;
        let mut acc_a = 0.0f64;
        let mut acc_b = 0.0f64;
        let mut prev_a = None;
        let mut prev_b = None;
        // Zipping ties the slot trackers to the cells without bounds
        // checks (equal lengths were validated up front).
        for (((&cell_a, &cell_b), best), slot) in pair[0]
            .as_slice()
            .iter()
            .zip(pair[1].as_slice())
            .zip(maxima.iter_mut())
            .zip(candidates.iter_mut())
        {
            // Lane a first, so within one slot the lower trajectory
            // index reports its cell. (Across slots the paired scan can
            // surface a different — equally invalid — cell than the
            // sequential path: the error *variant* always matches.)
            if cell_a.index() >= states {
                return Err(crate::CoreError::CellOutOfRange {
                    cell: cell_a.index(),
                    states,
                });
            }
            if cell_b.index() >= states {
                return Err(crate::CoreError::CellOutOfRange {
                    cell: cell_b.index(),
                    states,
                });
            }
            // -inf + -inf is fine; +inf never occurs (increments are
            // log-probs <= 0), so no NaN can appear.
            acc_a += table.step(prev_a, cell_a);
            acc_b += table.step(prev_b, cell_b);
            prev_a = Some(cell_a);
            prev_b = Some(cell_b);
            fold(best, slot, ia, acc_a);
            fold(best, slot, ib, acc_b);
        }
        j += 2;
    }
    for x in pairs.remainder() {
        let i = service_index(lo, j);
        let mut acc = 0.0f64;
        let mut prev = None;
        for ((&cell, best), slot) in x
            .as_slice()
            .iter()
            .zip(maxima.iter_mut())
            .zip(candidates.iter_mut())
        {
            if cell.index() >= states {
                return Err(crate::CoreError::CellOutOfRange {
                    cell: cell.index(),
                    states,
                });
            }
            acc += table.step(prev, cell);
            prev = Some(cell);
            fold(best, slot, i, acc);
        }
        j += 1;
    }
    Ok(lane_slots(&maxima, &candidates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::input::GridRowSource;
    use crate::detector::MlDetector;
    use crate::CoreError;
    use chaff_markov::models::ModelKind;
    use chaff_markov::MarkovChain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fleet(seed: u64, n: usize, horizon: usize) -> (MarkovChain, Vec<Trajectory>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng).unwrap()).unwrap();
        let observed = (0..n)
            .map(|_| chain.sample_trajectory(horizon, &mut rng))
            .collect();
        (chain, observed)
    }

    #[test]
    fn matches_single_trajectory_path_bit_for_bit() {
        let (chain, observed) = fleet(41, 137, 23);
        let single = MlDetector.detect_prefixes(&chain, &observed).unwrap();
        for shards in [1, 2, 3, 8, 137, 500] {
            let batch = BatchPrefixDetector::with_shards(shards)
                .detect_prefixes(DetectInput::new(&chain, &observed))
                .unwrap();
            assert_eq!(batch, single, "shards = {shards}");
        }
    }

    #[test]
    fn identical_trajectories_tie_across_shard_boundaries() {
        let (chain, mut observed) = fleet(46, 6, 8);
        // Force cross-shard ties: everyone walks the same path.
        let x = observed[0].clone();
        for slot in observed.iter_mut() {
            *slot = x.clone();
        }
        let detections = BatchPrefixDetector::with_shards(3)
            .detect_prefixes(DetectInput::new(&chain, &observed))
            .unwrap();
        for d in &detections {
            assert_eq!(d.tie_set(), &[0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn rejects_what_the_single_path_rejects() {
        let (chain, _) = fleet(47, 2, 4);
        let d = BatchPrefixDetector::new();
        let none: &[Trajectory] = &[];
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, none)),
            Err(CoreError::NoTrajectories)
        ));
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &[Trajectory::new()])),
            Err(CoreError::EmptyTrajectory)
        ));
        let ragged = vec![
            Trajectory::from_indices([0, 1]),
            Trajectory::from_indices([0]),
        ];
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &ragged)),
            Err(CoreError::LengthMismatch { .. })
        ));
        let out = vec![Trajectory::from_indices([999])];
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &out)),
            Err(CoreError::CellOutOfRange { .. })
        ));
    }

    fn two_class_tables(seed: u64) -> (MarkovChain, MarkovChain) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng).unwrap()).unwrap();
        let b = MarkovChain::new(ModelKind::SpatiallySkewed.build(10, &mut rng).unwrap()).unwrap();
        (a, b)
    }

    #[test]
    fn mixture_with_one_table_matches_single_table_path_bit_for_bit() {
        let (chain, observed) = fleet(48, 53, 17);
        let table = chain.log_likelihood_table();
        let d = BatchPrefixDetector::with_shards(4);
        let single = d
            .detect_prefixes(DetectInput::new(&table, &observed))
            .unwrap();
        let multi = d
            .detect_prefixes(DetectInput::new(&[&table], &observed))
            .unwrap();
        assert_eq!(single, multi);
    }

    #[test]
    fn mixture_matches_naive_max_over_class_reference() {
        let (a, b) = two_class_tables(49);
        let mut rng = StdRng::seed_from_u64(50);
        let mut observed: Vec<Trajectory> =
            (0..21).map(|_| a.sample_trajectory(15, &mut rng)).collect();
        observed.extend((0..20).map(|_| b.sample_trajectory(15, &mut rng)));
        let (ta, tb) = (a.log_likelihood_table(), b.log_likelihood_table());
        let detections = BatchPrefixDetector::with_shards(3)
            .detect_prefixes(DetectInput::new(&[&ta, &tb], &observed))
            .unwrap();
        // Reference: per-trajectory prefix scores under each class, max
        // per slot, then the shared argmax-set semantics.
        let horizon = observed[0].len();
        for (t, detection) in detections.iter().enumerate().take(horizon) {
            let scores: Vec<f64> = observed
                .iter()
                .map(|x| a.prefix_log_likelihoods(x)[t].max(b.prefix_log_likelihoods(x)[t]))
                .collect();
            let expected = crate::detector::argmax_set(&scores, None);
            assert_eq!(detection.tie_set(), &expected[..], "slot {t}");
        }
    }

    #[test]
    fn mixture_is_independent_of_shard_count() {
        let (a, b) = two_class_tables(51);
        let mut rng = StdRng::seed_from_u64(52);
        let observed: Vec<Trajectory> = (0..37)
            .map(|i| {
                if i % 2 == 0 {
                    a.sample_trajectory(12, &mut rng)
                } else {
                    b.sample_trajectory(12, &mut rng)
                }
            })
            .collect();
        let (ta, tb) = (a.log_likelihood_table(), b.log_likelihood_table());
        let reference = BatchPrefixDetector::with_shards(1)
            .detect_prefixes(DetectInput::new(&[&ta, &tb], &observed))
            .unwrap();
        for shards in [2, 5, 37, 100] {
            let detections = BatchPrefixDetector::with_shards(shards)
                .detect_prefixes(DetectInput::new(&[&ta, &tb], &observed))
                .unwrap();
            assert_eq!(detections, reference, "shards = {shards}");
        }
    }

    #[test]
    fn mixture_rejects_empty_and_mismatched_tables() {
        let (chain, observed) = fleet(53, 4, 6);
        let d = BatchPrefixDetector::new();
        let no_tables: &[&LogLikelihoodTable] = &[];
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(no_tables, &observed)),
            Err(CoreError::Markov(chaff_markov::MarkovError::Empty))
        ));
        let table = chain.log_likelihood_table();
        let mut rng = StdRng::seed_from_u64(54);
        let other = MarkovChain::new(ModelKind::NonSkewed.build(7, &mut rng).unwrap()).unwrap();
        let small = other.log_likelihood_table();
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&[&table, &small], &observed)),
            Err(CoreError::Markov(
                chaff_markov::MarkovError::DimensionMismatch {
                    expected: 10,
                    found: 7
                }
            ))
        ));
        // Shape errors match the single-table path.
        let none: &[Trajectory] = &[];
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&[&table, &table], none)),
            Err(CoreError::NoTrajectories)
        ));
    }

    #[test]
    fn populations_beyond_u32_are_rejected_not_truncated() {
        // The cap itself cannot be exercised with a real allocation
        // (2^32 trajectories), so the guard is tested directly: it is
        // the only gate in front of every `as u32` index narrowing.
        assert!(ensure_population_fits(MAX_POPULATION).is_ok());
        let err = ensure_population_fits(MAX_POPULATION + 1).unwrap_err();
        assert!(matches!(
            err,
            CoreError::PopulationTooLarge { population, max }
                if population == MAX_POPULATION + 1 && max == MAX_POPULATION
        ));
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn columnar_detection_matches_trajectory_path_bit_for_bit() {
        let (chain, observed) = fleet(55, 137, 23);
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let table = chain.log_likelihood_table();
        let reference = MlDetector.detect_prefixes(&chain, &observed).unwrap();
        for shards in [1, 2, 3, 8, 137, 500] {
            let d = BatchPrefixDetector::with_shards(shards);
            let columnar = d.detect_prefixes(DetectInput::new(&chain, &grid)).unwrap();
            assert_eq!(columnar, reference, "shards = {shards}");
            let with_table = d.detect_prefixes(DetectInput::new(&table, &grid)).unwrap();
            assert_eq!(with_table, reference, "shards = {shards} (table)");
        }
    }

    #[test]
    fn paged_detection_matches_columnar_bit_for_bit() {
        use crate::detector::input::GridRowSource;
        let (chain, observed) = fleet(59, 97, 19);
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let reference = BatchPrefixDetector::with_shards(1)
            .detect_prefixes(DetectInput::new(&chain, &grid))
            .unwrap();
        for shards in [1, 2, 7, 97] {
            let mut source = GridRowSource::new(&grid);
            let paged = BatchPrefixDetector::with_shards(shards)
                .detect_prefixes(DetectInput::new(&chain, &mut source))
                .unwrap();
            assert_eq!(paged, reference, "shards = {shards}");
        }
        // Registry models route through the same paged path.
        let registry = chaff_markov::MobilityRegistry::single(chain.clone());
        let mut source = GridRowSource::new(&grid);
        let via_registry = BatchPrefixDetector::with_shards(3)
            .detect_prefixes(DetectInput::new(&registry, &mut source))
            .unwrap();
        assert_eq!(via_registry, reference);
    }

    #[test]
    fn paged_sources_that_break_their_contract_are_typed_errors() {
        struct LyingSource {
            rows: Vec<Vec<chaff_markov::CellId>>,
            claimed_horizon: usize,
            next: usize,
        }
        impl SlotRowSource for LyingSource {
            fn num_trajectories(&self) -> usize {
                self.rows.first().map_or(0, Vec::len)
            }
            fn horizon(&self) -> usize {
                self.claimed_horizon
            }
            fn next_row(&mut self) -> crate::Result<Option<&[chaff_markov::CellId]>> {
                if self.next >= self.rows.len() {
                    return Ok(None);
                }
                let row = &self.rows[self.next];
                self.next += 1;
                Ok(Some(row))
            }
        }
        let (chain, observed) = fleet(60, 8, 5);
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let rows: Vec<Vec<chaff_markov::CellId>> = (0..5).map(|t| grid.row(t).to_vec()).collect();
        let d = BatchPrefixDetector::with_shards(2);
        // Fewer rows than declared.
        let mut short = LyingSource {
            rows: rows[..3].to_vec(),
            claimed_horizon: 5,
            next: 0,
        };
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &mut short)),
            Err(CoreError::RowSource { slot: 3, .. })
        ));
        // More rows than declared.
        let mut long = LyingSource {
            rows: rows.clone(),
            claimed_horizon: 3,
            next: 0,
        };
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &mut long)),
            Err(CoreError::RowSource { slot: 3, .. })
        ));
        // Degenerate declared shapes use the usual shape errors.
        let mut empty = LyingSource {
            rows: Vec::new(),
            claimed_horizon: 5,
            next: 0,
        };
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &mut empty)),
            Err(CoreError::NoTrajectories)
        ));
        let mut no_slots = LyingSource {
            rows: rows[..1].to_vec(),
            claimed_horizon: 0,
            next: 0,
        };
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &mut no_slots)),
            Err(CoreError::EmptyTrajectory)
        ));
    }

    #[test]
    fn scheduled_paged_sources_that_break_their_contract_are_typed_errors() {
        /// A grid source that declares `claimed` slots whatever the grid
        /// holds.
        struct ClaimedHorizon<'a> {
            rows: GridRowSource<'a>,
            claimed: usize,
        }
        impl SlotRowSource for ClaimedHorizon<'_> {
            fn num_trajectories(&self) -> usize {
                self.rows.num_trajectories()
            }
            fn horizon(&self) -> usize {
                self.claimed
            }
            fn next_row(&mut self) -> crate::Result<Option<&[chaff_markov::CellId]>> {
                self.rows.next_row()
            }
        }
        let (day, observed) = fleet(78, 9, 5);
        let mut rng = StdRng::seed_from_u64(79);
        let night =
            MarkovChain::new(ModelKind::SpatiallySkewed.build(10, &mut rng).unwrap()).unwrap();
        let registry = MobilityRegistry::with_epochs(
            vec![vec![day], vec![night]],
            chaff_markov::EpochSchedule::day_night(2, 1).unwrap(),
        )
        .unwrap();
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        for (claimed, slot) in [(7, 5), (3, 3)] {
            let mut source = ClaimedHorizon {
                rows: GridRowSource::new(&grid),
                claimed,
            };
            let got = BatchPrefixDetector::with_shards(2).detect_prefixes(DetectInput::new(
                DetectModel::Schedule(&registry),
                &mut source,
            ));
            assert!(
                matches!(got, Err(CoreError::RowSource { slot: s, .. }) if s == slot),
                "claimed {claimed}: {got:?}"
            );
        }
    }

    #[test]
    fn columnar_mixture_matches_trajectory_mixture_bit_for_bit() {
        let (a, b) = two_class_tables(56);
        let mut rng = StdRng::seed_from_u64(57);
        let mut observed: Vec<Trajectory> =
            (0..23).map(|_| a.sample_trajectory(15, &mut rng)).collect();
        observed.extend((0..18).map(|_| b.sample_trajectory(15, &mut rng)));
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let (ta, tb) = (a.log_likelihood_table(), b.log_likelihood_table());
        let reference = BatchPrefixDetector::with_shards(1)
            .detect_prefixes(DetectInput::new(&[&ta, &tb], &observed))
            .unwrap();
        for shards in [1, 2, 7, 41] {
            let columnar = BatchPrefixDetector::with_shards(shards)
                .detect_prefixes(DetectInput::new(&[&ta, &tb], &grid))
                .unwrap();
            assert_eq!(columnar, reference, "shards = {shards}");
        }
        // The single-class dispatch is the single-table path.
        let single = BatchPrefixDetector::with_shards(3)
            .detect_prefixes(DetectInput::new(&[&ta], &grid))
            .unwrap();
        assert_eq!(
            single,
            BatchPrefixDetector::with_shards(3)
                .detect_prefixes(DetectInput::new(&ta, &grid))
                .unwrap()
        );
    }

    #[test]
    fn columnar_rejects_what_the_trajectory_path_rejects() {
        let (chain, observed) = fleet(58, 4, 6);
        let d = BatchPrefixDetector::new();
        let empty = CellGrid::new(0);
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &empty)),
            Err(CoreError::NoTrajectories)
        ));
        let no_slots = CellGrid::new(3);
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &no_slots)),
            Err(CoreError::EmptyTrajectory)
        ));
        let out = CellGrid::from_trajectories(&[Trajectory::from_indices([999, 1])]).unwrap();
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(&chain, &out)),
            Err(CoreError::CellOutOfRange { .. })
        ));
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let no_tables: &[&LogLikelihoodTable] = &[];
        assert!(matches!(
            d.detect_prefixes(DetectInput::new(no_tables, &grid)),
            Err(CoreError::Markov(chaff_markov::MarkovError::Empty))
        ));
    }

    #[test]
    fn impossible_trajectories_stay_neg_infinity() {
        let m = chaff_markov::TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.5, 0.5]])
            .unwrap();
        let chain = MarkovChain::new(m).unwrap();
        let impossible = Trajectory::from_indices([0, 0]); // P(0->0) = 0
        let possible = Trajectory::from_indices([0, 1]);
        let detections = BatchPrefixDetector::with_shards(2)
            .detect_prefixes(DetectInput::new(&chain, &[impossible, possible]))
            .unwrap();
        assert_eq!(detections[1].tie_set(), &[1]);
    }

    /// Every `(model, observations)` pairing a retired legacy entry
    /// point used to own must stay bit-for-bit equal to the canonical
    /// chain-over-trajectories request through the unified entry.
    #[test]
    fn every_detect_input_pairing_matches_the_unified_entry() {
        let (chain, observed) = fleet(70, 31, 9);
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let table = chain.log_likelihood_table();
        let d = BatchPrefixDetector::with_shards(3);
        let unified = d
            .detect_prefixes(DetectInput::new(&chain, &observed))
            .unwrap();
        assert_eq!(
            d.detect_prefixes(DetectInput::new(&table, &observed))
                .unwrap(),
            unified
        );
        assert_eq!(
            d.detect_prefixes(DetectInput::new(&[&table], &observed))
                .unwrap(),
            unified
        );
        assert_eq!(
            d.detect_prefixes(DetectInput::new(&chain, &grid)).unwrap(),
            unified
        );
        assert_eq!(
            d.detect_prefixes(DetectInput::new(&table, &grid)).unwrap(),
            unified
        );
        assert_eq!(
            d.detect_prefixes(DetectInput::new(&[&table], &grid))
                .unwrap(),
            unified
        );
    }

    #[test]
    fn schedule_model_reduces_to_registry_when_stationary() {
        // A one-epoch `Schedule` must be bit-for-bit the `Registry` view
        // for every observation representation — the batch-entry face of
        // the reduction-to-stationary guarantee.
        let (chain, observed) = fleet(74, 27, 11);
        let mut rng = StdRng::seed_from_u64(75);
        let other = MarkovChain::new(
            chaff_markov::models::ModelKind::SpatiallySkewed
                .build(10, &mut rng)
                .unwrap(),
        )
        .unwrap();
        let registry = MobilityRegistry::new(vec![chain, other]).unwrap();
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let d = BatchPrefixDetector::with_shards(3);
        let stationary = d
            .detect_prefixes(DetectInput::new(&registry, &grid))
            .unwrap();
        assert_eq!(
            d.detect_prefixes(DetectInput::new(
                DetectModel::Schedule(&registry),
                &observed
            ))
            .unwrap(),
            stationary
        );
        assert_eq!(
            d.detect_prefixes(DetectInput::new(DetectModel::Schedule(&registry), &grid))
                .unwrap(),
            stationary
        );
        let mut source = GridRowSource::new(&grid);
        assert_eq!(
            d.detect_prefixes(DetectInput::new(
                DetectModel::Schedule(&registry),
                &mut source
            ))
            .unwrap(),
            stationary
        );
    }

    #[test]
    fn schedule_model_scores_each_slot_under_its_epoch() {
        // A genuinely multi-epoch registry: the batch `Schedule` path
        // must match a hand-driven schedule-aware streaming detector for
        // every representation and shard count, and differ from the
        // stationary (epoch-0) view somewhere on the horizon.
        let (day, observed) = fleet(76, 33, 14);
        let mut rng = StdRng::seed_from_u64(77);
        let night = MarkovChain::new(
            chaff_markov::models::ModelKind::SpatiallySkewed
                .build(10, &mut rng)
                .unwrap(),
        )
        .unwrap();
        let schedule = chaff_markov::EpochSchedule::day_night(4, 3).unwrap();
        let registry = MobilityRegistry::with_epochs(
            vec![vec![day.clone()], vec![night.clone()]],
            schedule.clone(),
        )
        .unwrap();
        let grid = CellGrid::from_trajectories(&observed).unwrap();
        let mut online = super::super::StreamingPrefixDetector::with_schedule(
            registry.to_epoch_tables(),
            schedule,
            grid.num_trajectories(),
            1,
        )
        .unwrap();
        let reference: Vec<Detection> = (0..grid.horizon())
            .map(|t| online.push_slot(grid.row(t)).unwrap())
            .collect();
        for shards in [1, 2, 7] {
            let d = BatchPrefixDetector::with_shards(shards);
            assert_eq!(
                d.detect_prefixes(DetectInput::new(
                    DetectModel::Schedule(&registry),
                    &observed
                ))
                .unwrap(),
                reference,
                "trajectories, shards {shards}"
            );
            assert_eq!(
                d.detect_prefixes(DetectInput::new(DetectModel::Schedule(&registry), &grid))
                    .unwrap(),
                reference,
                "columnar, shards {shards}"
            );
            let mut source = GridRowSource::new(&grid);
            assert_eq!(
                d.detect_prefixes(DetectInput::new(
                    DetectModel::Schedule(&registry),
                    &mut source
                ))
                .unwrap(),
                reference,
                "paged, shards {shards}"
            );
        }
        let stationary = BatchPrefixDetector::with_shards(2)
            .detect_prefixes(DetectInput::new(&registry, &grid))
            .unwrap();
        assert_ne!(
            stationary, reference,
            "the night epoch never changed a detection"
        );
    }
}
