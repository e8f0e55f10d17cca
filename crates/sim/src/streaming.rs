//! The slot-at-a-time fleet engine: simulation, chaff injection,
//! anonymization and online detection fused into one causal loop.
//!
//! The paper's eavesdropper (eq. 11) is *online* — it observes one
//! service row per slot — and a real deployment never has the future.
//! [`StreamingFleetEngine`] advances one slot at a time:
//!
//! 1. **Simulate.** The fleet engine's own stepper (see the execution
//!    plan in [`crate::fleet`]) runs one-slot tiles: the banded
//!    draw+chaff pass, where each user's cell comes from its mobility
//!    chain ([`step`](StreamingFleetEngine::step)) or from an external
//!    per-slot feed ([`step_ingested`](StreamingFleetEngine::step_ingested),
//!    e.g. a quantized trace stream), the optional capacity placement
//!    and the anonymizing gather. The bands are the detector's shards
//!    ([`FleetConfig::with_shards`]), so there is one knob. The gather
//!    writes straight into the ring's recycled row (no copy), and each
//!    of its bands counts, in the same pool job, the cells its positions
//!    holding a real user were placed in (`user_hist`, through
//!    `is_user`); there is no separate count pass.
//! 2. **Detect.** The row feeds a [`StreamingPrefixDetector`], which
//!    shares the batch detector's per-slot kernel.
//! 3. **Accuracy, by cell counts.** The tie set's cells are counted
//!    into `tie_hist`, and tracking hits are
//!    `Σ_c tie_hist[c] · user_hist[c]`: the per-user sum
//!    `Σ_u tie_hist[cell(u)]` regrouped by cell, an exact integer
//!    identity, so the accuracy is bit-for-bit the per-user loop's.
//!
//! The tile length changes no draw, placement or gathered cell, so a
//! streamed run's rows, indices and stats are the batch outcome's, and
//! its detections are the unified `detect_prefixes` pipeline's, for
//! every band count — `tests/streaming_equivalence.rs` holds the two
//! engines together, and `tests/fleet_goldens.rs` pins the outcomes
//! both produce.
//!
//! # Memory bound
//!
//! The engine never materializes the `N × T` grid. It holds the
//! detector's running scores (`O(N · classes)`), a handful of row
//! scratch buffers, per-user RNG and chaff-lane state
//! (`O(N)`), and a bounded ring of the most recent observed rows
//! (`O(width · ring_depth)`, [`ring_depth`](StreamingFleetEngine::ring_depth)
//! rows deep) for consumers that want a trailing window — `O(width ·
//! ring_depth + N)` total, independent of the horizon.
//!
//! Errors on ingest ([`SimError::StreamFault`]) are detected *before*
//! any engine state advances, so a broken or truncated stream leaves a
//! clean partial result — never a poisoned engine.

use crate::fleet::{BudgetAllocation, FleetChaffPolicy, FleetConfig, FleetModel, FleetStats};
use crate::stepper::{FleetStepper, UserTally};
use crate::{Result, SimError};
use chaff_core::detector::{Detection, StreamingPrefixDetector};
use chaff_markov::{CellId, LogLikelihoodTable, MarkovChain, MobilityRegistry};
use std::collections::VecDeque;

/// Default depth of the trailing observed-row ring.
pub const DEFAULT_RING_DEPTH: usize = 8;

/// Everything one streamed slot produces: the slot's detection and the
/// incremental accuracy samples. The per-slot means over a full run
/// equal the batch metrics
/// (`chaff_core::metrics::mean_tracking_accuracy_columnar` /
/// `mean_detection_accuracy`) exactly.
#[derive(Debug, Clone)]
pub struct SlotStep {
    /// The slot index just completed (0-based).
    pub slot: usize,
    /// The eavesdropper's argmax tie set for this slot's prefix.
    pub detection: Detection,
    /// This slot's mean-over-users tracking accuracy: the probability
    /// that a uniform guess over the tie set lands on a service sharing
    /// the user's cell.
    pub tracking_accuracy: f64,
    /// This slot's mean-over-users detection accuracy contribution: the
    /// tie-set mass on real user services, averaged over users.
    pub detection_accuracy: f64,
}

/// Bounded ring of the most recent observed slot rows (post-shuffle).
/// Buffers are recycled, so steady-state allocation is exactly
/// `depth × num_services` cells.
struct SlotRing {
    depth: usize,
    /// Absolute slot index of `rows.front()`.
    first_slot: usize,
    rows: VecDeque<Vec<CellId>>,
}

impl SlotRing {
    /// An empty ring whose first pushed row is slot `first_slot`.
    fn new(depth: usize, first_slot: usize) -> Self {
        SlotRing {
            depth: depth.max(1),
            first_slot,
            rows: VecDeque::new(),
        }
    }

    /// The buffer the next row is gathered into: the oldest row's once
    /// the ring is full (that row leaves the ring), a fresh one before.
    fn recycled(&mut self, width: usize) -> Vec<CellId> {
        if self.rows.len() == self.depth {
            if let Some(oldest) = self.rows.pop_front() {
                self.first_slot += 1;
                return oldest;
            }
        }
        vec![CellId::new(0); width]
    }

    /// Appends the next slot's row and returns it.
    fn push(&mut self, row: Vec<CellId>) -> &[CellId] {
        self.rows.push_back(row);
        &self.rows[self.rows.len() - 1]
    }

    fn bytes(&self) -> usize {
        self.rows.iter().map(|r| r.capacity() * 4).sum()
    }
}

/// The streaming fleet engine. Construct with
/// [`new`](StreamingFleetEngine::new) (homogeneous) or
/// [`with_registry`](StreamingFleetEngine::with_registry)
/// (heterogeneous), then call [`step`](StreamingFleetEngine::step) (or
/// [`step_ingested`](StreamingFleetEngine::step_ingested)) once per slot
/// until it returns `None`.
///
/// # Example
///
/// ```
/// use chaff_markov::{models::ModelKind, MarkovChain};
/// use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig};
/// use chaff_sim::streaming::StreamingFleetEngine;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
/// let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
/// let mut engine = StreamingFleetEngine::new(
///     &chain,
///     FleetConfig::new(50, 20).with_seed(7),
///     &policy,
/// )?;
/// let mut curve = Vec::new();
/// while let Some(step) = engine.step()? {
///     curve.push(step.tracking_accuracy); // live accuracy, slot by slot
/// }
/// assert_eq!(curve.len(), 20);
/// # Ok(())
/// # }
/// ```
pub struct StreamingFleetEngine<'a> {
    /// The simulation half: layout, RNG and lane state, permutation and
    /// placement, stepped one slot per tile.
    stepper: FleetStepper<'a>,
    /// `is_user[observed index]`: does this column carry a real user?
    is_user: Vec<bool>,
    detector: StreamingPrefixDetector,
    ring: SlotRing,
    /// Per gather band, how many users' real services were placed in
    /// each cell this slot (`bands × cells`).
    user_hist: Vec<usize>,
    /// How many tie-set services sit in each cell (zero between slots).
    tie_hist: Vec<usize>,
}

impl<'a> StreamingFleetEngine<'a> {
    /// Creates a homogeneous streaming fleet (every user moves by
    /// `chain`) under `policy`.
    ///
    /// # Errors
    ///
    /// Same validation as
    /// [`FleetSimulation::run_chaffed`](crate::fleet::FleetSimulation::run_chaffed):
    /// rejects invalid configs, mismatched per-class policies,
    /// overflowing budgets and a capacity-limited fleet with more
    /// services than the network has slots
    /// ([`SimError::InvalidConfig`] on `node_capacity`). A fleet with
    /// more than `u32::MAX` services is rejected too
    /// ([`SimError::InvalidConfig`] on `num_services`): the engine
    /// indexes services through `u32` tables.
    pub fn new(
        chain: &'a MarkovChain,
        config: FleetConfig,
        policy: &FleetChaffPolicy,
    ) -> Result<Self> {
        Self::build(FleetModel::Homogeneous(chain), config, policy)
    }

    /// Creates a heterogeneous streaming fleet over a registry of
    /// mobility-model classes.
    ///
    /// # Errors
    ///
    /// See [`new`](Self::new).
    pub fn with_registry(
        registry: &'a MobilityRegistry,
        config: FleetConfig,
        policy: &FleetChaffPolicy,
    ) -> Result<Self> {
        Self::build(FleetModel::Heterogeneous(registry), config, policy)
    }

    fn build(
        model: FleetModel<'a>,
        config: FleetConfig,
        policy: &FleetChaffPolicy,
    ) -> Result<Self> {
        let stepper = FleetStepper::new(model, &config, policy, 1)?;
        let num_services = stepper.num_services();
        let mut is_user = vec![false; num_services];
        for &idx in stepper.user_observed_indices() {
            is_user[idx] = true;
        }
        let shards = config.effective_shards();
        // A multi-epoch registry arms the eavesdropper with the full
        // epoch-major table set (it knows the population's time-varying
        // model mix); stationary models keep the plain construction.
        let mut detector = match model {
            FleetModel::Heterogeneous(registry) if !registry.is_stationary() => {
                StreamingPrefixDetector::with_schedule(
                    registry.to_epoch_tables(),
                    registry.schedule().clone(),
                    num_services,
                    shards,
                )?
            }
            _ => {
                let tables: Vec<LogLikelihoodTable> = match model {
                    FleetModel::Homogeneous(chain) => vec![chain.log_likelihood_table()],
                    FleetModel::Heterogeneous(registry) => (0..registry.num_classes())
                        .map(|c| registry.table(c).clone())
                        .collect(),
                };
                StreamingPrefixDetector::with_shards(tables, num_services, shards)?
            }
        };
        // An adaptive policy needs the detector-side accuracy feedback to
        // compute its next epoch, so the running view is enabled up front
        // (other policies can opt in with `with_feedback`).
        if matches!(policy.allocation(), BudgetAllocation::Adaptive(_)) {
            detector = detector.with_feedback();
        }
        let bands = stepper.num_bands();
        Ok(StreamingFleetEngine {
            stepper,
            is_user,
            detector,
            ring: SlotRing::new(DEFAULT_RING_DEPTH, 0),
            user_hist: vec![0; bands * model.num_states()],
            tie_hist: vec![0; model.num_states()],
        })
    }

    /// Sets the depth of the trailing observed-row ring (clamped to at
    /// least one row). On an engine that has already stepped, the rows
    /// buffered so far are dropped and the new ring starts at the next
    /// slot.
    pub fn with_ring_depth(mut self, depth: usize) -> Self {
        self.ring = SlotRing::new(depth, self.stepper.slot());
        self
    }

    /// Enables the detector's running per-column accuracy feedback even
    /// under a non-adaptive policy (adaptive policies enable it
    /// automatically). Retrieve per-user samples with
    /// [`user_feedback`](Self::user_feedback).
    pub fn with_feedback(mut self) -> Self {
        self.detector = self.detector.with_feedback();
        self
    }

    /// The running per-*user* detection accuracy: the detector's
    /// [`AccuracyFeedback`](chaff_core::detector::AccuracyFeedback)
    /// columns mapped back through the anonymization permutation to user
    /// order — exactly the vector
    /// [`FleetChaffPolicy::adapt`] consumes between epochs. `None` when
    /// feedback is not enabled.
    pub fn user_feedback(&self) -> Option<Vec<f64>> {
        self.detector.feedback().map(|feedback| {
            self.stepper
                .user_observed_indices()
                .iter()
                .map(|&column| feedback.accuracy(column))
                .collect()
        })
    }

    /// Number of users `N`.
    pub fn num_users(&self) -> usize {
        self.stepper.num_users()
    }

    /// Total services (users plus chaffs) per slot row.
    pub fn num_services(&self) -> usize {
        self.stepper.num_services()
    }

    /// The configured horizon (the engine stops after this many slots).
    pub fn horizon(&self) -> usize {
        self.stepper.horizon()
    }

    /// Slots completed so far.
    pub fn slots_run(&self) -> usize {
        self.stepper.slot()
    }

    /// Depth of the trailing observed-row ring.
    pub fn ring_depth(&self) -> usize {
        self.ring.depth
    }

    /// Absolute slot indices currently buffered in the ring (the last
    /// `ring_depth` completed slots).
    pub fn buffered_slots(&self) -> std::ops::Range<usize> {
        self.ring.first_slot..self.ring.first_slot + self.ring.rows.len()
    }

    /// The observed (post-shuffle) row of an absolute slot index, if it
    /// is still buffered in the ring.
    pub fn observed_row(&self, slot: usize) -> Option<&[CellId]> {
        if !self.buffered_slots().contains(&slot) {
            return None;
        }
        self.ring
            .rows
            .get(slot - self.ring.first_slot)
            .map(Vec::as_slice)
    }

    /// The ground-truth user cells of the most recent slot (empty before
    /// the first step).
    pub fn last_user_row(&self) -> &[CellId] {
        if self.stepper.slot() == 0 {
            &[]
        } else {
            self.stepper.user_row()
        }
    }

    /// `user_observed_indices[u]`: where user `u`'s real service sits in
    /// every observed row.
    pub fn user_observed_indices(&self) -> &[usize] {
        self.stepper.user_observed_indices()
    }

    /// Aggregate counters over the slots run so far. On a completed run
    /// these equal a batch run's [`FleetStats`] bit-for-bit; on a
    /// truncated run they describe the clean partial prefix.
    pub fn stats(&self) -> FleetStats {
        self.stepper.stats()
    }

    /// Bytes of horizon-independent engine state: the observed-row ring,
    /// the detector's running scores, the permutation/layout tables and
    /// the count tables. Per-user RNG and chaff-lane state is *not*
    /// included (it is `O(N)` but heap-layout dependent); the reported
    /// figure is the engine's `O(width · ring_depth + N)` columnar
    /// footprint, the quantity the memory-bound tests pin down.
    pub fn state_bytes(&self) -> usize {
        let tables =
            self.is_user.capacity() + (self.user_hist.capacity() + self.tie_hist.capacity()) * 8;
        self.ring.bytes() + self.detector.state_bytes() + self.stepper.state_bytes() + tables
    }

    /// Advances one slot, drawing every user's move from its mobility
    /// chain. Returns `None` once the configured horizon is exhausted.
    ///
    /// # Errors
    ///
    /// Placement cannot fail, because capacity is checked at
    /// construction, and model-drawn cells are always in range. A
    /// detection error propagates typed only if an internal invariant
    /// breaks.
    pub fn step(&mut self) -> Result<Option<SlotStep>> {
        if self.slots_run() >= self.horizon() {
            return Ok(None);
        }
        self.advance_slot(true)
    }

    /// Advances one slot with externally supplied user cells (trace
    /// ingestion): `user_cells[u]` is user `u`'s position this slot;
    /// chaff lanes still draw from their own streams. Returns `None`
    /// once the horizon is exhausted.
    ///
    /// The row is validated *before* any engine state advances: a bad
    /// row fails typed, naming the offending user and slot, and the
    /// engine remains exactly as it was — feed it a corrected row (or
    /// stop and keep the partial results).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StreamFault`] when the row does not supply
    /// one cell per user or a cell falls outside the model's state
    /// space. Capacity is checked at construction, so placement never
    /// fails.
    pub fn step_ingested(&mut self, user_cells: &[CellId]) -> Result<Option<SlotStep>> {
        let slot = self.slots_run();
        if slot >= self.horizon() {
            return Ok(None);
        }
        let n = self.num_users();
        if user_cells.len() != n {
            return Err(SimError::StreamFault {
                user: user_cells.len().min(n.saturating_sub(1)),
                slot,
                reason: format!("slot row supplies {} cells for {n} users", user_cells.len()),
            });
        }
        let states = self.stepper.model().num_states();
        for (user, &cell) in user_cells.iter().enumerate() {
            if cell.index() >= states {
                return Err(SimError::StreamFault {
                    user,
                    slot,
                    reason: format!(
                        "cell {} outside the {states}-cell state space",
                        cell.index()
                    ),
                });
            }
        }
        self.stepper.user_row_mut().copy_from_slice(user_cells);
        self.advance_slot(false)
    }

    /// One slot: the stepper's one-slot tile (draw+chaff, placement and
    /// anonymizing gather, which also counts the cells the users' real
    /// services were placed in), drawing user cells when `draw`, else
    /// reading the ingested user row, gathered straight into the ring;
    /// then online detection and accuracy by cell counts.
    fn advance_slot(&mut self, draw: bool) -> Result<Option<SlotStep>> {
        let slot = self.stepper.slot();
        let n = self.stepper.num_users();
        let states = self.tie_hist.len();
        let mut row = self.ring.recycled(self.stepper.num_services());
        let tally = UserTally {
            is_user: &self.is_user,
            hists: &mut self.user_hist,
            states,
        };
        self.stepper
            .step_into(1, draw, &mut row, None, Some(tally))?;
        let row = self.ring.push(row);
        // Detection phase: the shared per-slot kernel. Cells come from a
        // validated model or a pre-validated ingest row, so this cannot
        // fail — but a typed propagation beats an unwrap if an invariant
        // ever breaks.
        let detection = self.detector.push_slot(row)?;
        // Accuracy phase: the per-slot bodies of
        // `mean_tracking_accuracy_columnar` / `mean_detection_accuracy`,
        // with the per-user tracking sum regrouped by cell.
        let tie = detection.tie_set();
        for &i in tie {
            self.tie_hist[row[i].index()] += 1;
        }
        let hits: usize = self
            .user_hist
            .chunks_exact(states)
            .flat_map(|band| band.iter().zip(&self.tie_hist))
            .map(|(&users, &ties)| users * ties)
            .sum();
        let tracking_accuracy = hits as f64 / tie.len() as f64 / n as f64;
        for &i in tie {
            self.tie_hist[row[i].index()] = 0;
        }
        let named = tie.iter().filter(|&&i| self.is_user[i]).count();
        let detection_accuracy = named as f64 / tie.len() as f64 / n as f64;
        Ok(Some(SlotStep {
            slot,
            detection,
            tracking_accuracy,
            detection_accuracy,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetChaffStrategy;

    fn chain(seed: u64) -> MarkovChain {
        crate::test_support::nonskewed_chain(seed, 10)
    }

    #[test]
    fn engine_runs_to_horizon_then_stops() {
        let c = chain(1);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
        let mut engine =
            StreamingFleetEngine::new(&c, FleetConfig::new(8, 6).with_seed(3), &policy).unwrap();
        assert_eq!(engine.num_services(), 16);
        let mut slots = 0;
        while let Some(step) = engine.step().unwrap() {
            assert_eq!(step.slot, slots);
            assert!((0.0..=1.0).contains(&step.tracking_accuracy));
            assert!((0.0..=1.0).contains(&step.detection_accuracy));
            slots += 1;
        }
        assert_eq!(slots, 6);
        assert!(engine.step().unwrap().is_none());
        assert_eq!(engine.stats().user_slots, 8 * 6);
        assert_eq!(engine.stats().chaff_services, 8);
    }

    #[test]
    fn ring_keeps_only_the_trailing_window() {
        let c = chain(2);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 0);
        let mut engine = StreamingFleetEngine::new(&c, FleetConfig::new(5, 10), &policy)
            .unwrap()
            .with_ring_depth(3);
        for _ in 0..10 {
            engine.step().unwrap();
        }
        assert_eq!(engine.buffered_slots(), 7..10);
        assert!(engine.observed_row(6).is_none());
        assert!(engine.observed_row(7).is_some());
        assert!(engine.observed_row(9).is_some());
        assert!(engine.observed_row(10).is_none());
    }

    #[test]
    fn late_ring_depth_keeps_absolute_slot_labels() {
        let c = chain(2);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
        let config = FleetConfig::new(5, 10).with_seed(4);
        let mut twin = StreamingFleetEngine::new(&c, config.clone(), &policy).unwrap();
        let mut engine = StreamingFleetEngine::new(&c, config, &policy).unwrap();
        for _ in 0..5 {
            engine.step().unwrap();
        }
        let mut engine = engine.with_ring_depth(3);
        assert_eq!(engine.buffered_slots(), 5..5);
        engine.step().unwrap();
        for _ in 0..6 {
            twin.step().unwrap();
        }
        assert_eq!(engine.buffered_slots(), 5..6);
        assert!(engine.observed_row(0).is_none());
        assert_eq!(engine.observed_row(5), twin.observed_row(5));
    }

    #[test]
    fn services_beyond_the_u32_index_are_rejected_before_allocating() {
        // One user with u32::MAX chaffs: 2³² services. Building its
        // lanes would take hundreds of GiB, so only an up-front
        // rejection lets this test finish.
        let c = chain(3);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, u32::MAX as usize);
        assert!(matches!(
            StreamingFleetEngine::new(&c, FleetConfig::new(1, 1), &policy),
            Err(SimError::InvalidConfig {
                parameter: "num_services",
                ..
            })
        ));
    }

    #[test]
    fn rejects_the_batch_engines_invalid_configs() {
        let c = chain(3);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 0);
        assert!(StreamingFleetEngine::new(&c, FleetConfig::new(0, 5), &policy).is_err());
        assert!(StreamingFleetEngine::new(&c, FleetConfig::new(5, 0), &policy).is_err());
        let bad = FleetChaffPolicy::per_class(vec![
            (FleetChaffStrategy::Im, 1),
            (FleetChaffStrategy::Cml, 1),
        ]);
        assert!(StreamingFleetEngine::new(&c, FleetConfig::new(5, 5), &bad).is_err());
        let huge = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, usize::MAX);
        assert!(matches!(
            StreamingFleetEngine::new(&c, FleetConfig::new(2, 4), &huge),
            Err(SimError::BudgetOverflow { users: 2 })
        ));
    }

    #[test]
    fn ingest_faults_are_typed_and_do_not_poison_the_engine() {
        let c = chain(4);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Cml, 1);
        let config = FleetConfig::new(4, 5).with_seed(9);
        let mut clean = StreamingFleetEngine::new(&c, config.clone(), &policy).unwrap();
        let mut poked = StreamingFleetEngine::new(&c, config, &policy).unwrap();
        let rows: Vec<Vec<CellId>> = (0..5)
            .map(|t| (0..4).map(|u| CellId::new((t + u) % 10)).collect())
            .collect();
        for (t, row) in rows.iter().enumerate() {
            // Wrong arity names the first user without a cell...
            match poked.step_ingested(&row[..2]).unwrap_err() {
                SimError::StreamFault { user, slot, .. } => {
                    assert_eq!((user, slot), (2, t));
                }
                other => panic!("unexpected error: {other:?}"),
            }
            // ...an out-of-range cell names its user...
            let mut bad = row.clone();
            bad[3] = CellId::new(999);
            match poked.step_ingested(&bad).unwrap_err() {
                SimError::StreamFault { user, slot, reason } => {
                    assert_eq!((user, slot), (3, t));
                    assert!(reason.contains("999"), "{reason}");
                }
                other => panic!("unexpected error: {other:?}"),
            }
            // ...and neither fault perturbed the stream.
            let a = clean.step_ingested(row).unwrap().unwrap();
            let b = poked.step_ingested(row).unwrap().unwrap();
            assert_eq!(a.detection, b.detection, "slot {t}");
            assert_eq!(
                a.tracking_accuracy.to_bits(),
                b.tracking_accuracy.to_bits(),
                "slot {t}"
            );
        }
        assert_eq!(poked.slots_run(), 5);
        assert_eq!(poked.stats(), clean.stats());
    }

    #[test]
    fn truncated_ingest_yields_a_clean_partial_result() {
        let c = chain(5);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 2);
        let mut engine =
            StreamingFleetEngine::new(&c, FleetConfig::new(3, 10).with_seed(11), &policy).unwrap();
        // The stream dies after 4 of 10 slots.
        for t in 0..4 {
            let row: Vec<CellId> = (0..3).map(|u| CellId::new((t + u) % 10)).collect();
            engine.step_ingested(&row).unwrap().unwrap();
        }
        assert_eq!(engine.slots_run(), 4);
        let stats = engine.stats();
        assert_eq!(stats.user_slots, 3 * 4);
        assert_eq!(stats.chaff_services, 6);
        // The partial engine is still serviceable: it can keep going
        // from where the stream stopped.
        let row: Vec<CellId> = vec![CellId::new(0); 3];
        assert!(engine.step_ingested(&row).unwrap().is_some());
        assert_eq!(engine.slots_run(), 5);
    }

    #[test]
    fn adaptive_policies_stream_per_user_feedback() {
        use crate::fleet::FleetSimulation;
        use chaff_core::detector::{AccuracyFeedback, BatchPrefixDetector, DetectInput};

        let c = chain(7);
        let config = FleetConfig::new(12, 9).with_seed(23);
        // A uniform policy leaves feedback off unless asked for...
        let uniform = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
        let mut engine = StreamingFleetEngine::new(&c, config.clone(), &uniform).unwrap();
        assert!(engine.user_feedback().is_none());
        engine = StreamingFleetEngine::new(&c, config.clone(), &uniform)
            .unwrap()
            .with_feedback();
        assert!(engine.user_feedback().is_some());
        // ...an adaptive policy enables it automatically, and the
        // streamed per-user samples equal the batch bridge bit-for-bit.
        let adaptive = FleetChaffPolicy::adaptive(FleetChaffStrategy::Im, 12, 12);
        let mut engine = StreamingFleetEngine::new(&c, config.clone(), &adaptive).unwrap();
        while engine.step().unwrap().is_some() {}
        let streamed = engine.user_feedback().unwrap();

        let outcome = FleetSimulation::new(&c, config)
            .run_chaffed(&adaptive)
            .unwrap();
        let detections = BatchPrefixDetector::new()
            .detect_prefixes(DetectInput::new(&c, &outcome.observed))
            .unwrap();
        let bridged =
            AccuracyFeedback::from_detections(outcome.observed.num_trajectories(), &detections);
        for (u, &column) in outcome.user_observed_indices.iter().enumerate() {
            assert_eq!(
                streamed[u].to_bits(),
                bridged.accuracy(column).to_bits(),
                "user {u}"
            );
        }
        // The samples feed straight into the policy's adapt step.
        let mut policy = adaptive.clone();
        policy.adapt(&streamed).unwrap();
        assert_eq!(policy.adaptive_budgets().unwrap().total(), 12);
    }

    #[test]
    fn capacity_replay_spills_like_the_batch_engine() {
        let c = chain(6);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
        let config = FleetConfig::new(3, 8)
            .with_capacity(1)
            .with_seed(7)
            .without_anonymization();
        let mut engine = StreamingFleetEngine::new(&c, config, &policy).unwrap();
        while let Some(step) = engine.step().unwrap() {
            let slot = step.slot;
            let row = engine.observed_row(slot).unwrap();
            let mut cells: Vec<usize> = row.iter().map(|c| c.index()).collect();
            cells.sort_unstable();
            cells.dedup();
            assert_eq!(cells.len(), 6, "capacity 1 keeps services disjoint");
        }
        assert!(engine.stats().spills > 0);
    }

    #[test]
    fn over_subscribed_capacity_is_rejected_before_any_slot() {
        // 2 users × (1 + 2) services cannot fit 4 cells × capacity 1.
        let c = crate::test_support::nonskewed_chain(8, 4);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 2);
        let over = FleetConfig::new(2, 5).with_capacity(1);
        match StreamingFleetEngine::new(&c, over, &policy) {
            Err(SimError::InvalidConfig { parameter, .. }) => {
                assert_eq!(parameter, "node_capacity")
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("over-subscribed fleet accepted"),
        }
        let registry = crate::test_support::mixed_registry(8, 4, 2);
        let over = FleetConfig::new(2, 5).with_capacity(1);
        assert!(matches!(
            StreamingFleetEngine::with_registry(&registry, over, &policy),
            Err(SimError::InvalidConfig {
                parameter: "node_capacity",
                ..
            })
        ));
        // A tight fit streams to the horizon, ingested or drawn.
        let tight = FleetConfig::new(2, 5).with_capacity(2);
        let mut engine = StreamingFleetEngine::new(&c, tight, &policy).unwrap();
        for t in 0..5 {
            let row = [CellId::new(t % 4), CellId::new(t % 4)];
            assert!(engine.step_ingested(&row).unwrap().is_some());
        }
        assert_eq!(engine.stats().user_slots, 2 * 5);
        assert!(engine.stats().spills > 0);
    }
}
