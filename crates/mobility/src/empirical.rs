//! Empirical Markov-model estimation from quantized trajectories.
//!
//! The paper models the 174 trace trajectories "as trajectories generated
//! independently from the same MC" and computes "the empirical transition
//! matrix and the empirical steady-state distribution" (Sec. VII-B1).
//! Transition probabilities are transition-count ratios; the empirical
//! steady state is the occupancy frequency over all trajectories and
//! slots. Rows of cells that are never left become self-loops so the
//! matrix stays stochastic.

use crate::Result;
use chaff_markov::{
    CellId, EpochSchedule, MarkovChain, StateDistribution, Trajectory, TransitionMatrix,
};

/// An empirical mobility model estimated from trajectories.
#[derive(Debug, Clone)]
pub struct EmpiricalModel {
    chain: MarkovChain,
    /// Per-cell visit counts over all trajectories and slots.
    visits: Vec<u64>,
    /// Total number of observed transitions.
    num_transitions: u64,
}

/// A mergeable transition/occupancy *count* accumulator — the streaming
/// half of [`EmpiricalModel::estimate`].
///
/// Counts are integers (`u64`), so merging per-shard accumulators is
/// exact and commutative: the finished model is bit-for-bit identical no
/// matter how trajectories were partitioned over shards or in what order
/// the shards are merged. This is what lets the sharded ingestion
/// pipeline guarantee shard-count-independent results.
#[derive(Debug, Clone)]
pub struct EmpiricalAccumulator {
    num_cells: usize,
    /// Row-major `num_cells × num_cells` transition counts.
    counts: Vec<u64>,
    /// Per-cell visit counts.
    visits: Vec<u64>,
    num_transitions: u64,
}

impl EmpiricalAccumulator {
    /// Creates an empty accumulator over `num_cells` cells.
    ///
    /// # Errors
    ///
    /// Returns an error when `num_cells == 0`.
    pub fn new(num_cells: usize) -> Result<Self> {
        if num_cells == 0 {
            return Err(chaff_markov::MarkovError::Empty.into());
        }
        Ok(EmpiricalAccumulator {
            num_cells,
            counts: vec![0u64; num_cells * num_cells],
            visits: vec![0u64; num_cells],
            num_transitions: 0,
        })
    }

    /// Number of cells in the state space.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Transitions recorded so far.
    pub fn num_transitions(&self) -> u64 {
        self.num_transitions
    }

    /// Records one trajectory's visits and transitions.
    ///
    /// # Errors
    ///
    /// Returns an error when the trajectory visits an out-of-range cell;
    /// counts recorded before the offending step are kept (callers that
    /// need all-or-nothing semantics should validate first).
    pub fn record(&mut self, trajectory: &Trajectory) -> Result<()> {
        let mut prev: Option<CellId> = None;
        for cell in trajectory.iter() {
            self.record_step(prev, cell)?;
            prev = Some(cell);
        }
        Ok(())
    }

    /// Records a single arrival: one visit at `cell`, plus (when `prev` is
    /// given) one `prev → cell` transition. This is the per-slot unit the
    /// epoch-indexed accumulator routes to the slot's active epoch.
    ///
    /// # Errors
    ///
    /// Returns an error when `cell` (or `prev`) is out of range.
    pub fn record_step(&mut self, prev: Option<CellId>, cell: CellId) -> Result<()> {
        for c in prev.iter().chain(std::iter::once(&cell)) {
            if c.index() >= self.num_cells {
                return Err(chaff_markov::MarkovError::CellOutOfRange {
                    cell: c.index(),
                    states: self.num_cells,
                }
                .into());
            }
        }
        self.visits[cell.index()] += 1;
        if let Some(p) = prev {
            self.counts[p.index() * self.num_cells + cell.index()] += 1;
            self.num_transitions += 1;
        }
        Ok(())
    }

    /// Adds another accumulator's counts into this one (exact integer
    /// sums — commutative and associative).
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error when the cell spaces differ.
    pub fn merge(&mut self, other: &EmpiricalAccumulator) -> Result<()> {
        if other.num_cells != self.num_cells {
            return Err(chaff_markov::MarkovError::DimensionMismatch {
                expected: self.num_cells,
                found: other.num_cells,
            }
            .into());
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.visits.iter_mut().zip(&other.visits) {
            *a += b;
        }
        self.num_transitions += other.num_transitions;
        Ok(())
    }

    /// Normalizes the accumulated counts into an [`EmpiricalModel`] —
    /// identical math to [`EmpiricalModel::estimate`].
    ///
    /// # Errors
    ///
    /// Returns an error when no slot was recorded at all.
    pub fn finish(self, smoothing: f64) -> Result<EmpiricalModel> {
        let num_cells = self.num_cells;
        if self.visits.iter().all(|&v| v == 0) {
            return Err(chaff_markov::MarkovError::Empty.into());
        }
        // Build rows: frequency + smoothing; unobserved rows self-loop.
        // Counts are exact integers well below 2^53, so the f64 sums and
        // ratios below are independent of accumulation order.
        let mut rows = Vec::with_capacity(num_cells);
        for i in 0..num_cells {
            let row = &self.counts[i * num_cells..(i + 1) * num_cells];
            let weights: Vec<f64> = row.iter().map(|&c| c as f64 + smoothing).collect();
            let sum: f64 = weights.iter().sum();
            if sum <= 0.0 {
                let mut self_loop = vec![0.0; num_cells];
                self_loop[i] = 1.0;
                rows.push(self_loop);
            } else {
                rows.push(weights.iter().map(|w| w / sum).collect());
            }
        }
        let matrix = TransitionMatrix::from_rows(rows)?;
        let occupancy: Vec<f64> = self.visits.iter().map(|&v| v as f64 + smoothing).collect();
        let initial = StateDistribution::from_weights(occupancy)?;
        let chain = MarkovChain::with_initial(matrix, initial)?;
        Ok(EmpiricalModel {
            chain,
            visits: self.visits,
            num_transitions: self.num_transitions,
        })
    }
}

/// Epoch-indexed count accumulation: one [`EmpiricalAccumulator`] per
/// epoch of an [`EpochSchedule`], following the same arrival convention
/// as the detectors — the visit at slot `t` *and* the transition into
/// slot `t` both count toward `epoch_of(t)`.
///
/// Like the plain accumulator, all counts are exact integers, so per-shard
/// epoch accumulators merge commutatively and [`pooled`](Self::pooled)
/// (the sum over epochs) reproduces the stationary accumulator's counts
/// bit-for-bit — a one-epoch schedule *is* the stationary path.
#[derive(Debug, Clone)]
pub struct EpochAccumulator {
    schedule: EpochSchedule,
    epochs: Vec<EmpiricalAccumulator>,
}

impl EpochAccumulator {
    /// Creates an empty accumulator over `num_cells` cells, one count set
    /// per epoch of `schedule`.
    ///
    /// # Errors
    ///
    /// Returns an error when `num_cells == 0`.
    pub fn new(num_cells: usize, schedule: EpochSchedule) -> Result<Self> {
        let epochs = (0..schedule.num_epochs())
            .map(|_| EmpiricalAccumulator::new(num_cells))
            .collect::<Result<_>>()?;
        Ok(EpochAccumulator { schedule, epochs })
    }

    /// The slot → epoch map the counts are bucketed by.
    pub fn schedule(&self) -> &EpochSchedule {
        &self.schedule
    }

    /// Number of cells in the state space.
    pub fn num_cells(&self) -> usize {
        self.epochs[0].num_cells()
    }

    /// Records one trajectory, starting at slot 0 of the schedule: the
    /// arrival at slot `t` (visit + incoming transition) is counted in
    /// epoch `schedule.epoch_of(t)`.
    ///
    /// # Errors
    ///
    /// Returns an error when the trajectory visits an out-of-range cell;
    /// counts recorded before the offending step are kept.
    pub fn record(&mut self, trajectory: &Trajectory) -> Result<()> {
        let mut prev: Option<CellId> = None;
        for (slot, cell) in trajectory.iter().enumerate() {
            self.epochs[self.schedule.epoch_of(slot)].record_step(prev, cell)?;
            prev = Some(cell);
        }
        Ok(())
    }

    /// Adds another accumulator's per-epoch counts into this one.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error when the schedules differ and a
    /// dimension-mismatch error when the cell spaces differ.
    pub fn merge(&mut self, other: &EpochAccumulator) -> Result<()> {
        if other.schedule != self.schedule {
            return Err(chaff_markov::MarkovError::LengthMismatch {
                expected: self.schedule.period(),
                found: other.schedule.period(),
            }
            .into());
        }
        for (a, b) in self.epochs.iter_mut().zip(&other.epochs) {
            a.merge(b)?;
        }
        Ok(())
    }

    /// Sums the per-epoch counts into one stationary accumulator — the
    /// exact counts a schedule-blind pass over the same trajectories would
    /// have produced, so the pooled model is bit-for-bit the stationary
    /// estimate.
    ///
    /// # Errors
    ///
    /// Never fails in practice (all epochs share one cell space); kept
    /// fallible for uniformity with [`merge`](Self::merge).
    pub fn pooled(&self) -> Result<EmpiricalAccumulator> {
        let mut pooled = self.epochs[0].clone();
        for epoch in &self.epochs[1..] {
            pooled.merge(epoch)?;
        }
        Ok(pooled)
    }

    /// Normalizes each epoch's counts into its own [`EmpiricalModel`].
    ///
    /// # Errors
    ///
    /// Returns an error when any epoch recorded no slot at all (e.g. a
    /// schedule period longer than every trajectory).
    pub fn finish(self, smoothing: f64) -> Result<Vec<EmpiricalModel>> {
        self.epochs
            .into_iter()
            .map(|acc| acc.finish(smoothing))
            .collect()
    }
}

impl EmpiricalModel {
    /// Estimates the model.
    ///
    /// `smoothing` is an additive (Laplace) count applied to every
    /// transition and occupancy cell; 0 reproduces the paper's plain
    /// frequency estimates (recommended — smoothing densifies the matrix,
    /// which distorts the sparse-support structure the strategies exploit).
    ///
    /// Implemented on top of [`EmpiricalAccumulator`], so a sharded
    /// accumulate-and-merge produces bit-for-bit the same model.
    ///
    /// # Errors
    ///
    /// Returns an error when `num_cells == 0`, when trajectories visit
    /// out-of-range cells, or when no slot was observed at all.
    pub fn estimate(trajectories: &[Trajectory], num_cells: usize, smoothing: f64) -> Result<Self> {
        let mut acc = EmpiricalAccumulator::new(num_cells)?;
        for trajectory in trajectories {
            acc.record(trajectory)?;
        }
        acc.finish(smoothing)
    }

    /// The estimated chain (matrix + empirical steady state).
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    /// Per-cell visit counts.
    pub fn visits(&self) -> &[u64] {
        &self.visits
    }

    /// Total observed transitions.
    pub fn num_transitions(&self) -> u64 {
        self.num_transitions
    }

    /// Number of cells visited at least once.
    pub fn support_size(&self) -> usize {
        self.visits.iter().filter(|&&v| v > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_match_counts() {
        // 0->1 twice, 0->0 once, 1->0 twice, 1->1 once.
        let t1 = Trajectory::from_indices([0, 1, 0, 0, 1]);
        let t2 = Trajectory::from_indices([1, 1, 0, 1, 0]);
        let model = EmpiricalModel::estimate(&[t1, t2], 2, 0.0).unwrap();
        let m = model.chain().matrix();
        // Transitions from 0: 0->1 x3, 0->0 x1 -> P(1|0) = 0.75.
        assert!((m.prob(CellId::new(0), CellId::new(1)) - 0.75).abs() < 1e-12);
        // Transitions from 1: 1->0 x3, 1->1 x1 -> P(0|1) = 0.75.
        assert!((m.prob(CellId::new(1), CellId::new(0)) - 0.75).abs() < 1e-12);
        assert_eq!(model.num_transitions(), 8);
    }

    #[test]
    fn occupancy_is_visit_frequency() {
        let t = Trajectory::from_indices([0, 0, 0, 1]);
        let model = EmpiricalModel::estimate(&[t], 3, 0.0).unwrap();
        let pi = model.chain().initial();
        assert!((pi.prob(CellId::new(0)) - 0.75).abs() < 1e-12);
        assert!((pi.prob(CellId::new(1)) - 0.25).abs() < 1e-12);
        assert_eq!(pi.prob(CellId::new(2)), 0.0);
        assert_eq!(model.support_size(), 2);
    }

    #[test]
    fn unvisited_rows_become_self_loops() {
        let t = Trajectory::from_indices([0, 1, 0]);
        let model = EmpiricalModel::estimate(&[t], 3, 0.0).unwrap();
        assert_eq!(
            model.chain().matrix().prob(CellId::new(2), CellId::new(2)),
            1.0
        );
    }

    #[test]
    fn observed_trajectories_have_positive_likelihood() {
        let trajectories = vec![
            Trajectory::from_indices([0, 1, 2, 1]),
            Trajectory::from_indices([2, 1, 0, 0]),
        ];
        let model = EmpiricalModel::estimate(&trajectories, 3, 0.0).unwrap();
        for t in &trajectories {
            assert!(
                model.chain().log_likelihood(t).is_finite(),
                "observed data must be explainable by the estimate"
            );
        }
    }

    #[test]
    fn smoothing_densifies_the_matrix() {
        let t = Trajectory::from_indices([0, 1]);
        let plain = EmpiricalModel::estimate(std::slice::from_ref(&t), 3, 0.0).unwrap();
        let smoothed = EmpiricalModel::estimate(&[t], 3, 1.0).unwrap();
        assert_eq!(
            plain.chain().matrix().prob(CellId::new(0), CellId::new(2)),
            0.0
        );
        assert!(
            smoothed
                .chain()
                .matrix()
                .prob(CellId::new(0), CellId::new(2))
                > 0.0
        );
        // Smoothed occupancy gives unvisited cells positive mass too.
        assert!(smoothed.chain().initial().prob(CellId::new(2)) > 0.0);
    }

    #[test]
    fn error_cases() {
        assert!(EmpiricalModel::estimate(&[], 0, 0.0).is_err());
        let out_of_range = Trajectory::from_indices([5]);
        assert!(EmpiricalModel::estimate(&[out_of_range], 3, 0.0).is_err());
        assert!(EmpiricalModel::estimate(&[Trajectory::new()], 3, 0.0).is_err());
        assert!(EmpiricalAccumulator::new(0).is_err());
        let mut a = EmpiricalAccumulator::new(3).unwrap();
        let b = EmpiricalAccumulator::new(4).unwrap();
        assert!(a.merge(&b).is_err());
        assert!(a.record(&Trajectory::from_indices([0, 7])).is_err());
    }

    #[test]
    fn sharded_accumulation_matches_single_pass_bit_for_bit() {
        let trajectories = vec![
            Trajectory::from_indices([0, 1, 2, 1, 0]),
            Trajectory::from_indices([2, 2, 0, 1, 1]),
            Trajectory::from_indices([1, 0, 0, 2, 2]),
            Trajectory::from_indices([0, 2, 1, 1, 0]),
        ];
        let reference = EmpiricalModel::estimate(&trajectories, 3, 0.0).unwrap();
        // Partition over "shards" in several ways, merge in arbitrary
        // order: the finished model must be bitwise identical.
        for split in [1usize, 2, 3] {
            let mut shards: Vec<EmpiricalAccumulator> = (0..split)
                .map(|_| EmpiricalAccumulator::new(3).unwrap())
                .collect();
            for (i, t) in trajectories.iter().enumerate() {
                shards[i % split].record(t).unwrap();
            }
            // Merge back-to-front to exercise order-independence.
            let mut merged = EmpiricalAccumulator::new(3).unwrap();
            for shard in shards.iter().rev() {
                merged.merge(shard).unwrap();
            }
            let model = merged.finish(0.0).unwrap();
            assert_eq!(model.chain().matrix(), reference.chain().matrix());
            assert_eq!(model.visits(), reference.visits());
            assert_eq!(model.num_transitions(), reference.num_transitions());
            let pi_a = model.chain().initial().as_slice();
            let pi_b = reference.chain().initial().as_slice();
            for (a, b) in pi_a.iter().zip(pi_b) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn epoch_accumulator_buckets_arrivals_by_slot() {
        // day/night(2, 2): slots 0,1 are epoch 0; slots 2,3 are epoch 1.
        let schedule = EpochSchedule::day_night(2, 2).unwrap();
        let mut acc = EpochAccumulator::new(2, schedule).unwrap();
        acc.record(&Trajectory::from_indices([0, 1, 1, 0])).unwrap();
        // Day: visits at slots 0,1 (cells 0,1) + transition 0->1 into slot 1.
        // Night: visits at slots 2,3 (cells 1,0) + transitions 1->1 (into
        // slot 2, the epoch boundary) and 1->0 (into slot 3).
        let models = acc.clone().finish(0.0).unwrap();
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].num_transitions(), 1);
        assert_eq!(models[1].num_transitions(), 2);
        assert_eq!(models[0].visits(), &[1, 1]);
        assert_eq!(models[1].visits(), &[1, 1]);
        // Day saw only 0->1; night saw 1->1 (the boundary arrival at slot
        // 2 lands in the *arrival* epoch) and 1->0.
        let day = models[0].chain().matrix();
        assert_eq!(day.prob(CellId::new(0), CellId::new(1)), 1.0);
        let night = models[1].chain().matrix();
        assert!((night.prob(CellId::new(1), CellId::new(1)) - 0.5).abs() < 1e-12);
        assert!((night.prob(CellId::new(1), CellId::new(0)) - 0.5).abs() < 1e-12);
        // Pooled counts equal a schedule-blind pass, bit-for-bit.
        let mut blind = EmpiricalAccumulator::new(2).unwrap();
        blind
            .record(&Trajectory::from_indices([0, 1, 1, 0]))
            .unwrap();
        let pooled = acc.pooled().unwrap().finish(0.0).unwrap();
        let reference = blind.finish(0.0).unwrap();
        assert_eq!(pooled.chain().matrix(), reference.chain().matrix());
        assert_eq!(pooled.visits(), reference.visits());
    }

    #[test]
    fn one_epoch_accumulator_is_the_stationary_accumulator() {
        let trajectories = vec![
            Trajectory::from_indices([0, 1, 2, 1, 0]),
            Trajectory::from_indices([2, 2, 0, 1, 1]),
        ];
        let mut epoch = EpochAccumulator::new(3, EpochSchedule::stationary()).unwrap();
        let mut plain = EmpiricalAccumulator::new(3).unwrap();
        for t in &trajectories {
            epoch.record(t).unwrap();
            plain.record(t).unwrap();
        }
        let models = epoch.finish(0.0).unwrap();
        assert_eq!(models.len(), 1);
        let reference = plain.finish(0.0).unwrap();
        assert_eq!(models[0].chain().matrix(), reference.chain().matrix());
        for (a, b) in models[0]
            .chain()
            .initial()
            .as_slice()
            .iter()
            .zip(reference.chain().initial().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn epoch_accumulator_merge_and_error_paths() {
        let schedule = EpochSchedule::day_night(1, 1).unwrap();
        let mut a = EpochAccumulator::new(2, schedule.clone()).unwrap();
        let mut b = EpochAccumulator::new(2, schedule.clone()).unwrap();
        a.record(&Trajectory::from_indices([0, 1])).unwrap();
        b.record(&Trajectory::from_indices([1, 0])).unwrap();
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        let mut single = EpochAccumulator::new(2, schedule.clone()).unwrap();
        single.record(&Trajectory::from_indices([0, 1])).unwrap();
        single.record(&Trajectory::from_indices([1, 0])).unwrap();
        let m1 = merged.finish(0.0).unwrap();
        let m2 = single.finish(0.0).unwrap();
        for (x, y) in m1.iter().zip(&m2) {
            assert_eq!(x.chain().matrix(), y.chain().matrix());
        }
        // Mismatched schedules refuse to merge.
        let other = EpochAccumulator::new(2, EpochSchedule::stationary()).unwrap();
        assert!(a.merge(&other).is_err());
        // Out-of-range cells are rejected.
        assert!(a.record(&Trajectory::from_indices([0, 9])).is_err());
        // An epoch with no arrivals cannot be finished into a model.
        let starved = EpochAccumulator::new(2, EpochSchedule::day_night(3, 1).unwrap()).unwrap();
        let mut starved = starved;
        starved.record(&Trajectory::from_indices([0, 1])).unwrap();
        assert!(starved.finish(0.0).is_err());
    }
}
