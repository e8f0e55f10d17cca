//! The slot-at-a-time fleet engine: simulation, chaff injection,
//! anonymization and online detection fused into one causal loop.
//!
//! [`crate::fleet::FleetSimulation`] is batch-shaped: simulate the whole
//! horizon, then hand the finished [`chaff_markov::CellGrid`]
//! to the detector. The
//! paper's eavesdropper (eq. 11) is *online* — it observes one service
//! row per slot — and a real deployment never has the future.
//! [`StreamingFleetEngine`] advances one slot at a time:
//!
//! 1. **Draw / ingest.** Each user's next cell comes from its mobility
//!    chain ([`step`](StreamingFleetEngine::step)) or from an external
//!    per-slot feed ([`step_ingested`](StreamingFleetEngine::step_ingested),
//!    e.g. a quantized trace stream); each chaff lane advances its
//!    controller (the IM, CML or MO arm of one enum, held by value) with
//!    its own RNG stream.
//! 2. **Place.** Optional shared-capacity replay through one
//!    [`MecNetwork`]'s slot kernel, the same calls the batch engine
//!    makes per slot: [`MecNetwork::launch_slot`] on slot 0, then
//!    [`MecNetwork::replay_slot`]. Per service the kernel releases the
//!    previous node and retakes the wanted one when it has room; a
//!    service that stays put releases a node holding at most `capacity`
//!    instances, so it always gets it straight back, and `from == to`
//!    needs no branch of its own. Only placements that spill take a
//!    branch, into the nearest-free-node search. A fleet with more
//!    services than the network has slots is rejected at construction,
//!    so placement never fails mid-stream.
//! 3. **Anonymize.** The slot row is scattered through the fleet's
//!    Fisher–Yates permutation (drawn once, up front, from the same
//!    seed stream as the batch engine).
//! 4. **Detect.** The row feeds a
//!    [`StreamingPrefixDetector`], which shares the batch detector's
//!    per-slot kernel — and the slot's tracking/detection accuracy is
//!    computed incrementally from the row and the returned tie set.
//!
//! Because every random draw comes from the same per-user / per-chaff /
//! shuffle seed streams as the batch engine, and the detector shares the
//! batch per-slot kernel, a streamed run is **bit-for-bit** the batch
//! `run_chaffed` + unified `detect_prefixes` pipeline —
//! proptested across shard counts, budgets and mobility classes in
//! `tests/streaming_equivalence.rs`.
//!
//! # Memory bound
//!
//! The engine never materializes the `N × T` grid. It holds the
//! detector's running scores (`O(N · classes)`), one previous planned
//! row, a handful of row scratch buffers, per-user RNG/controller state
//! (`O(N)`), and a bounded ring of the most recent observed rows
//! (`O(width · ring_depth)`, [`ring_depth`](StreamingFleetEngine::ring_depth)
//! rows deep) for consumers that want a trailing window — `O(width ·
//! ring_depth + N)` total, independent of the horizon.
//!
//! Errors on ingest ([`SimError::StreamFault`]) are detected *before*
//! any engine state advances, so a broken or truncated stream leaves a
//! clean partial result — never a poisoned engine.

use crate::fleet::{
    check_fleet_fits, service_layout, shuffle_seed, user_seed, BudgetAllocation, ChaffLane,
    FleetChaffPolicy, FleetConfig, FleetModel, FleetStats,
};
use crate::network::MecNetwork;
use crate::observer::fisher_yates;
use crate::{Result, SimError};
use chaff_core::detector::{Detection, StreamingPrefixDetector};
use chaff_markov::{CellId, LogLikelihoodTable, MarkovChain, MobilityRegistry};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// One user's persistent simulation state.
struct UserLane {
    /// The user's own mobility stream (unused on the ingest path).
    rng: StdRng,
    /// Current cell (`None` before the first slot).
    now: Option<CellId>,
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
    fn new(depth: usize) -> Self {
        SlotRing {
            depth: depth.max(1),
            first_slot: 0,
            rows: VecDeque::new(),
        }
    }

    fn push(&mut self, row: &[CellId]) {
        let mut buffer = if self.rows.len() == self.depth {
            self.first_slot += 1;
            self.rows.pop_front().unwrap_or_default()
        } else {
            Vec::with_capacity(row.len())
        };
        buffer.clear();
        buffer.extend_from_slice(row);
        self.rows.push_back(buffer);
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
    model: FleetModel<'a>,
    config: FleetConfig,
    service_starts: Vec<usize>,
    num_services: usize,
    /// `perm[original]` = post-shuffle position (identity when
    /// anonymization is off).
    perm: Vec<usize>,
    user_observed_indices: Vec<usize>,
    /// `is_user[observed index]`: does this column carry a real user?
    is_user: Vec<bool>,
    users: Vec<UserLane>,
    /// Every chaff's controller with its independent RNG stream, flat in
    /// chaff-service order: user `u`'s lanes are
    /// `service_starts[u] - u..service_starts[u + 1] - u - 1`.
    chaffs: Vec<(ChaffLane<'a>, StdRng)>,
    detector: StreamingPrefixDetector,
    ring: SlotRing,
    /// Previous slot's planned (pre-shuffle) row, for migration counting
    /// without capacity; swapped with `planned_row` after every slot.
    planned_prev: Vec<CellId>,
    planned_row: Vec<CellId>,
    observed_row: Vec<CellId>,
    user_row: Vec<CellId>,
    /// Capacity replay state: the shared network plus each service's
    /// current actual cell.
    network: Option<(MecNetwork, Vec<CellId>)>,
    /// Cell histogram scratch for the per-slot tracking accuracy.
    histogram: Vec<usize>,
    stats: FleetStats,
    slot: usize,
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
    /// ([`SimError::InvalidConfig`] on `node_capacity`).
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
        config.validate()?;
        policy.validate(model.num_classes(), config.num_users)?;
        let n = config.num_users;
        let service_starts = service_layout(n, config.horizon, |user| {
            policy.budget_of(user, model.class_of(user), n)
        })?;
        let num_services = *service_starts.last().expect("layout has n + 1 entries");
        check_fleet_fits(&config, model.num_states(), num_services)?;
        // Per-user persistent state: the same seed streams and chaff
        // lanes as the batch engine's `simulate_user_into`.
        let users: Vec<UserLane> = (0..n)
            .map(|user| UserLane {
                rng: StdRng::seed_from_u64(user_seed(config.seed, user as u64)),
                now: None,
            })
            .collect();
        let mut chaffs = Vec::with_capacity(num_services - n);
        for user in 0..n {
            let budget = service_starts[user + 1] - service_starts[user] - 1;
            chaffs.extend(model.chaff_lanes(policy, config.seed, user, budget));
        }
        // The batch engine shuffles once, at assembly; the same
        // permutation (same seed stream) scatters every slot row here.
        let perm = if config.anonymize {
            let mut rng = StdRng::seed_from_u64(shuffle_seed(config.seed));
            fisher_yates(num_services, &mut rng)
        } else {
            (0..num_services).collect()
        };
        let user_observed_indices: Vec<usize> = (0..n).map(|u| perm[service_starts[u]]).collect();
        let mut is_user = vec![false; num_services];
        for &idx in &user_observed_indices {
            is_user[idx] = true;
        }
        // A multi-epoch registry arms the eavesdropper with the full
        // epoch-major table set (it knows the population's time-varying
        // model mix); stationary models keep the plain construction.
        let mut detector = match model {
            FleetModel::Heterogeneous(registry) if !registry.is_stationary() => {
                StreamingPrefixDetector::with_schedule(
                    registry.to_epoch_tables(),
                    registry.schedule().clone(),
                    num_services,
                    config.effective_shards(),
                )?
            }
            _ => {
                let tables: Vec<LogLikelihoodTable> = match model {
                    FleetModel::Homogeneous(chain) => vec![chain.log_likelihood_table()],
                    FleetModel::Heterogeneous(registry) => (0..registry.num_classes())
                        .map(|c| registry.table(c).clone())
                        .collect(),
                };
                StreamingPrefixDetector::with_shards(
                    tables,
                    num_services,
                    config.effective_shards(),
                )?
            }
        };
        // An adaptive policy needs the detector-side accuracy feedback to
        // compute its next epoch, so the running view is enabled up front
        // (other policies can opt in with `with_feedback`).
        if matches!(policy.allocation(), BudgetAllocation::Adaptive(_)) {
            detector = detector.with_feedback();
        }
        let network = match config.node_capacity {
            Some(capacity) => Some((
                MecNetwork::new(model.num_states(), Some(capacity))?,
                vec![CellId::new(0); num_services],
            )),
            None => None,
        };
        let histogram = vec![0usize; model.num_states()];
        let stats = FleetStats {
            migrations: 0,
            spills: 0,
            user_slots: 0,
            chaff_services: num_services - n,
        };
        Ok(StreamingFleetEngine {
            model,
            config,
            service_starts,
            num_services,
            perm,
            user_observed_indices,
            is_user,
            users,
            chaffs,
            detector,
            ring: SlotRing::new(DEFAULT_RING_DEPTH),
            planned_prev: vec![CellId::new(0); num_services],
            planned_row: vec![CellId::new(0); num_services],
            observed_row: vec![CellId::new(0); num_services],
            user_row: vec![CellId::new(0); n],
            network,
            histogram,
            stats,
            slot: 0,
        })
    }

    /// Sets the depth of the trailing observed-row ring (clamped to at
    /// least one row).
    pub fn with_ring_depth(mut self, depth: usize) -> Self {
        self.ring = SlotRing::new(depth);
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
            self.user_observed_indices
                .iter()
                .map(|&column| feedback.accuracy(column))
                .collect()
        })
    }

    /// Number of users `N`.
    pub fn num_users(&self) -> usize {
        self.config.num_users
    }

    /// Total services (users plus chaffs) per slot row.
    pub fn num_services(&self) -> usize {
        self.num_services
    }

    /// The configured horizon (the engine stops after this many slots).
    pub fn horizon(&self) -> usize {
        self.config.horizon
    }

    /// Slots completed so far.
    pub fn slots_run(&self) -> usize {
        self.slot
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
        if self.slot == 0 {
            &[]
        } else {
            &self.user_row
        }
    }

    /// `user_observed_indices[u]`: where user `u`'s real service sits in
    /// every observed row.
    pub fn user_observed_indices(&self) -> &[usize] {
        &self.user_observed_indices
    }

    /// Aggregate counters over the slots run so far. On a completed run
    /// these equal the batch engine's
    /// [`FleetStats`] bit-for-bit; on a
    /// truncated run they describe the clean partial prefix.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Bytes of horizon-independent engine state: the observed-row ring,
    /// the detector's running scores, the permutation/layout tables and
    /// the row scratch buffers. Per-user RNG/controller state is *not*
    /// included (it is `O(N)` but heap-layout dependent); the reported
    /// figure is the engine's `O(width · ring_depth + N)` columnar
    /// footprint, the quantity the memory-bound tests pin down.
    pub fn state_bytes(&self) -> usize {
        let rows = self.planned_prev.capacity() * 4
            + self.planned_row.capacity() * 4
            + self.observed_row.capacity() * 4
            + self.user_row.capacity() * 4;
        let tables = self.perm.capacity() * 8
            + self.service_starts.capacity() * 8
            + self.user_observed_indices.capacity() * 8
            + self.is_user.capacity()
            + self.histogram.capacity() * 8;
        let actual = self
            .network
            .as_ref()
            .map_or(0, |(_, actual)| actual.capacity() * 4);
        self.ring.bytes() + self.detector.state_bytes() + rows + tables + actual
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
        if self.slot >= self.config.horizon {
            return Ok(None);
        }
        // Draw phase: each user advances by its own stream — the exact
        // draw order of the batch engine's `simulate_user_into`, which
        // interleaves user and chaff draws per slot but never across
        // users (independent streams make user order irrelevant).
        for user in 0..self.config.num_users {
            let chain = self.model.chain_at_slot(user, self.slot);
            let lane = &mut self.users[user];
            let cell = match lane.now {
                None => chain.initial().sample(&mut lane.rng),
                Some(prev) => chain.step(prev, &mut lane.rng),
            };
            self.user_row[user] = cell;
        }
        self.advance_slot()
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
        if self.slot >= self.config.horizon {
            return Ok(None);
        }
        let n = self.config.num_users;
        if user_cells.len() != n {
            return Err(SimError::StreamFault {
                user: user_cells.len().min(n.saturating_sub(1)),
                slot: self.slot,
                reason: format!("slot row supplies {} cells for {n} users", user_cells.len()),
            });
        }
        let states = self.model.num_states();
        for (user, &cell) in user_cells.iter().enumerate() {
            if cell.index() >= states {
                return Err(SimError::StreamFault {
                    user,
                    slot: self.slot,
                    reason: format!(
                        "cell {} outside the {states}-cell state space",
                        cell.index()
                    ),
                });
            }
        }
        self.user_row.copy_from_slice(user_cells);
        self.advance_slot()
    }

    /// The shared slot tail: chaff injection, optional capacity replay,
    /// anonymized scatter, ring append, online detection and incremental
    /// accuracy. `self.user_row` holds this slot's user cells on entry.
    fn advance_slot(&mut self) -> Result<Option<SlotStep>> {
        let n = self.config.num_users;
        let slot = self.slot;
        // Chaff phase: always-follow for the real service, one
        // controller step per chaff lane (lane order, like the batch
        // engine).
        for user in 0..n {
            let cell = self.user_row[user];
            self.users[user].now = Some(cell);
            let (lo, hi) = (self.service_starts[user], self.service_starts[user + 1]);
            let (real, planned) = self.planned_row[lo..hi]
                .split_first_mut()
                .expect("every user owns its real service");
            *real = cell;
            let lanes = &mut self.chaffs[lo - user..hi - user - 1];
            for (out, (lane, chaff_rng)) in planned.iter_mut().zip(lanes) {
                *out = lane.advance(cell, &[], chaff_rng);
            }
        }
        // Placement phase: the shared slot kernel with capacity, the
        // planned row itself without.
        let placed: &[CellId] = if let Some((network, actual)) = &mut self.network {
            let counts = if slot == 0 {
                network.launch_slot(&self.planned_row, actual)?
            } else {
                network.replay_slot(&self.planned_row, actual)?
            };
            self.stats.migrations += counts.migrations;
            self.stats.spills += counts.spills;
            actual
        } else {
            if slot > 0 {
                self.stats.migrations += self
                    .planned_row
                    .iter()
                    .zip(&self.planned_prev)
                    .filter(|(now, prev)| now != prev)
                    .count();
            }
            &self.planned_row
        };
        for (&cell, &position) in placed.iter().zip(&self.perm) {
            self.observed_row[position] = cell;
        }
        std::mem::swap(&mut self.planned_prev, &mut self.planned_row);
        self.ring.push(&self.observed_row);
        // Detection phase: the shared per-slot kernel. Cells come from a
        // validated model or a pre-validated ingest row, so this cannot
        // fail — but a typed propagation beats an unwrap if an invariant
        // ever breaks.
        let detection = self.detector.push_slot(&self.observed_row)?;
        // Incremental accuracy: the per-slot bodies of
        // `mean_tracking_accuracy_columnar` / `mean_detection_accuracy`.
        let tie = detection.tie_set();
        for &i in tie {
            self.histogram[self.observed_row[i].index()] += 1;
        }
        let mut hits = 0usize;
        for &u in &self.user_observed_indices {
            hits += self.histogram[self.observed_row[u].index()];
        }
        let tracking_accuracy = hits as f64 / tie.len() as f64 / n as f64;
        for &i in tie {
            self.histogram[self.observed_row[i].index()] = 0;
        }
        let named = tie.iter().filter(|&&i| self.is_user[i]).count();
        let detection_accuracy = named as f64 / tie.len() as f64 / n as f64;
        self.stats.user_slots += n;
        self.slot += 1;
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
