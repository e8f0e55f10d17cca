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
//! 1. **Draw / ingest and chaff, one banded pass.** Users are cut into
//!    at most as many contiguous bands as the detector has shards
//!    ([`FleetConfig::with_shards`]), and every band runs as one job on
//!    [`chaff_core::pool::global`]. A band owns disjoint slices of the
//!    user row, the user RNGs, the planned row and the chaff lanes. Per
//!    user, in turn: the next cell comes from its mobility chain
//!    ([`step`](StreamingFleetEngine::step)), or was already written by
//!    an external per-slot feed
//!    ([`step_ingested`](StreamingFleetEngine::step_ingested), e.g. a
//!    quantized trace stream); the real service follows it; then each
//!    chaff lane advances its controller (the IM, CML or MO arm of one
//!    enum, held by value) with its own RNG stream. Every draw reads
//!    only its own stream and its own user's cell, so neither the band
//!    count nor the order bands run in changes a single draw. Without
//!    capacity, migrations are counted as the planned row is
//!    overwritten in place: an integer sum of per-band counts.
//! 2. **Place.** Optional shared-capacity replay through one
//!    [`MecNetwork`]'s slot kernel, serial, the same calls the batch
//!    engine makes per slot: [`MecNetwork::launch_slot`] on slot 0, then
//!    [`MecNetwork::replay_slot`]. Per service the kernel releases the
//!    previous node and retakes the wanted one when it has room; a
//!    service that stays put releases a node holding at most `capacity`
//!    instances, so it always gets it straight back, and `from == to`
//!    needs no branch of its own. Only placements that spill take a
//!    branch, into the nearest-free-node search. A fleet with more
//!    services than the network has slots is rejected at construction,
//!    so placement never fails mid-stream.
//! 3. **Anonymize, by gather.** The fleet's Fisher–Yates permutation
//!    (drawn once, up front, from the same seed stream as the batch
//!    engine) is kept as its inverse `inv`, and the observed row is
//!    filled over destination bands on the pool:
//!    `observed[p] = placed[inv[p]]`. The permutation is a bijection, so
//!    this writes exactly the scatter `observed[perm[s]] = placed[s]`,
//!    each output cell once, by one band. In the same pool scope each
//!    user band counts the cells its users' real services were placed
//!    in (`user_hist`).
//! 4. **Detect.** The row feeds a
//!    [`StreamingPrefixDetector`], which shares the batch detector's
//!    per-slot kernel.
//! 5. **Accuracy, by cell counts.** The tie set's cells are counted
//!    into `tie_hist`, and tracking hits are
//!    `Σ_c tie_hist[c] · user_hist[c]`: the per-user sum
//!    `Σ_u tie_hist[cell(u)]` regrouped by cell, an exact integer
//!    identity, so the accuracy is bit-for-bit the per-user loop's.
//!
//! Because every random draw comes from the same per-user / per-chaff /
//! shuffle seed streams as the batch engine, and the detector shares the
//! batch per-slot kernel, a streamed run is **bit-for-bit** the batch
//! `run_chaffed` + unified `detect_prefixes` pipeline, for every band
//! count — proptested across shard counts, budgets and mobility classes
//! in `tests/streaming_equivalence.rs`.
//!
//! # Memory bound
//!
//! The engine never materializes the `N × T` grid. It holds the
//! detector's running scores (`O(N · classes)`), a handful of row
//! scratch buffers, per-user RNG/controller state
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
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// One band of the fused draw+chaff pass: users
/// `first..first + cells.len()` with their disjoint slices of the user
/// row, the user RNGs, the planned row (their `service_starts` range)
/// and the chaff lanes.
struct UserBand<'s, 'a> {
    first: usize,
    cells: &'s mut [CellId],
    rngs: &'s mut [StdRng],
    planned: &'s mut [CellId],
    chaffs: &'s mut [(ChaffLane<'a>, StdRng)],
}

/// One band of the anonymizing gather: a destination range of the
/// observed row with its `inv` entries, plus one user band's real
/// services and the cell counts it fills.
struct GatherBand<'s> {
    out: &'s mut [CellId],
    inv: &'s [u32],
    user_services: &'s [usize],
    user_hist: &'s mut [usize],
}

/// Cuts the front `len` elements off `rest` and returns them, leaving
/// the remainder in `rest`.
fn take_front<'s, T>(rest: &mut &'s mut [T], len: usize) -> &'s mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(len);
    *rest = back;
    front
}

/// Runs `work` on every band, one job per band on the process-wide
/// pool. Bands own disjoint data, so the result never depends on which
/// band runs first.
fn run_bands<B: Send>(bands: impl Iterator<Item = B>, work: impl Fn(B) + Sync) {
    let work = &work;
    chaff_core::pool::global().scope(|scope| {
        for band in bands {
            scope.spawn(move || work(band));
        }
    });
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
    /// `inv[position]` = the service observed at that post-shuffle
    /// position: the inverse of the anonymization permutation (identity
    /// when anonymization is off).
    inv: Vec<u32>,
    user_observed_indices: Vec<usize>,
    /// `is_user[observed index]`: does this column carry a real user?
    is_user: Vec<bool>,
    /// Each user's own mobility stream (unused on the ingest path). The
    /// user's current cell is `user_row[u]`.
    user_rngs: Vec<StdRng>,
    /// Every chaff's controller with its independent RNG stream, flat in
    /// chaff-service order: user `u`'s lanes are
    /// `service_starts[u] - u..service_starts[u + 1] - u - 1`.
    chaffs: Vec<(ChaffLane<'a>, StdRng)>,
    /// Users per band of the fused draw+chaff pass and of the gather.
    band_users: usize,
    detector: StreamingPrefixDetector,
    ring: SlotRing,
    /// This slot's planned (pre-shuffle) row. The draw+chaff pass
    /// overwrites last slot's row in place, counting changed cells as
    /// migrations when there is no capacity replay.
    planned_row: Vec<CellId>,
    observed_row: Vec<CellId>,
    user_row: Vec<CellId>,
    /// Capacity replay state: the shared network plus each service's
    /// current actual cell.
    network: Option<(MecNetwork, Vec<CellId>)>,
    /// Per band, how many users' real services were placed in each
    /// cell this slot (`bands × cells`).
    user_hist: Vec<usize>,
    /// How many tie-set services sit in each cell (zero between slots).
    tie_hist: Vec<usize>,
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
        config.validate()?;
        policy.validate(model.num_classes(), config.num_users)?;
        let n = config.num_users;
        let service_starts = service_layout(n, config.horizon, |user| {
            policy.budget_of(user, model.class_of(user), n)
        })?;
        let num_services = *service_starts.last().expect("layout has n + 1 entries");
        let width = u32::try_from(num_services).map_err(|_| SimError::InvalidConfig {
            parameter: "num_services",
            reason: format!("{num_services} services exceed the u32 service index"),
        })?;
        check_fleet_fits(&config, model.num_states(), num_services)?;
        // Per-user persistent state: the same seed streams and chaff
        // lanes as the batch engine's `simulate_user_into`.
        let user_rngs: Vec<StdRng> = (0..n)
            .map(|user| StdRng::seed_from_u64(user_seed(config.seed, user as u64)))
            .collect();
        let mut chaffs = Vec::with_capacity(num_services - n);
        for user in 0..n {
            let budget = service_starts[user + 1] - service_starts[user] - 1;
            chaffs.extend(model.chaff_lanes(policy, config.seed, user, budget));
        }
        // The batch engine shuffles once, at assembly; the same
        // permutation (same seed stream), inverted, gathers every slot
        // row here.
        let (inv, user_observed_indices) = if config.anonymize {
            let mut rng = StdRng::seed_from_u64(shuffle_seed(config.seed));
            let perm = fisher_yates(num_services, &mut rng);
            let mut inv = vec![0u32; num_services];
            for (service, &position) in (0..width).zip(&perm) {
                inv[position] = service;
            }
            let indices = (0..n).map(|u| perm[service_starts[u]]).collect();
            (inv, indices)
        } else {
            ((0..width).collect(), service_starts[..n].to_vec())
        };
        let mut is_user = vec![false; num_services];
        for &idx in &user_observed_indices {
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
        let network = match config.node_capacity {
            Some(capacity) => Some((
                MecNetwork::new(model.num_states(), Some(capacity))?,
                vec![CellId::new(0); num_services],
            )),
            None => None,
        };
        // The simulation bands are the detector's shards: one knob.
        let band_users = n.div_ceil(shards);
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
            inv,
            user_observed_indices,
            is_user,
            user_rngs,
            chaffs,
            band_users,
            detector,
            ring: SlotRing::new(DEFAULT_RING_DEPTH, 0),
            planned_row: vec![CellId::new(0); num_services],
            observed_row: vec![CellId::new(0); num_services],
            user_row: vec![CellId::new(0); n],
            network,
            user_hist: vec![0; n.div_ceil(band_users) * model.num_states()],
            tie_hist: vec![0; model.num_states()],
            stats,
            slot: 0,
        })
    }

    /// Sets the depth of the trailing observed-row ring (clamped to at
    /// least one row). On an engine that has already stepped, the rows
    /// buffered so far are dropped and the new ring starts at the next
    /// slot.
    pub fn with_ring_depth(mut self, depth: usize) -> Self {
        self.ring = SlotRing::new(depth, self.slot);
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
        let rows = self.planned_row.capacity() * 4
            + self.observed_row.capacity() * 4
            + self.user_row.capacity() * 4;
        let tables = self.inv.capacity() * 4
            + self.service_starts.capacity() * 8
            + self.user_observed_indices.capacity() * 8
            + self.is_user.capacity()
            + (self.user_hist.capacity() + self.tie_hist.capacity()) * 8;
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
        self.advance_slot(false)
    }

    /// One slot: the banded draw+chaff pass (drawing user cells when
    /// `draw`, else reading the ingested `user_row`), optional capacity
    /// replay, the banded anonymizing gather, ring append, online
    /// detection and accuracy by cell counts.
    fn advance_slot(&mut self, draw: bool) -> Result<Option<SlotStep>> {
        let n = self.config.num_users;
        let slot = self.slot;
        let planned_moves = self.draw_and_chaff(draw);
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
                self.stats.migrations += planned_moves;
            }
            &self.planned_row
        };
        // Anonymize phase: gather through `inv` over destination bands;
        // the same jobs count where each user band's real services went.
        let states = self.tie_hist.len();
        let bands = n.div_ceil(self.band_users);
        let dest_len = self.num_services.div_ceil(bands);
        let mut out = &mut self.observed_row[..];
        let mut inv = &self.inv[..];
        let mut users = &self.service_starts[..n];
        let mut hists = &mut self.user_hist[..];
        let bands = (0..bands).map(|_| {
            let (inv_band, inv_rest) = inv.split_at(dest_len.min(inv.len()));
            inv = inv_rest;
            let (user_band, user_rest) = users.split_at(self.band_users.min(users.len()));
            users = user_rest;
            GatherBand {
                out: take_front(&mut out, inv_band.len()),
                inv: inv_band,
                user_services: user_band,
                user_hist: take_front(&mut hists, states),
            }
        });
        run_bands(bands, |band| {
            for (cell, &service) in band.out.iter_mut().zip(band.inv) {
                *cell = placed[service as usize];
            }
            band.user_hist.fill(0);
            for &service in band.user_services {
                band.user_hist[placed[service].index()] += 1;
            }
        });
        self.ring.push(&self.observed_row);
        // Detection phase: the shared per-slot kernel. Cells come from a
        // validated model or a pre-validated ingest row, so this cannot
        // fail — but a typed propagation beats an unwrap if an invariant
        // ever breaks.
        let detection = self.detector.push_slot(&self.observed_row)?;
        // Accuracy phase: the per-slot bodies of
        // `mean_tracking_accuracy_columnar` / `mean_detection_accuracy`,
        // with the per-user tracking sum regrouped by cell.
        let tie = detection.tie_set();
        for &i in tie {
            self.tie_hist[self.observed_row[i].index()] += 1;
        }
        let hits: usize = self
            .user_hist
            .chunks_exact(states)
            .flat_map(|band| band.iter().zip(&self.tie_hist))
            .map(|(&users, &ties)| users * ties)
            .sum();
        let tracking_accuracy = hits as f64 / tie.len() as f64 / n as f64;
        for &i in tie {
            self.tie_hist[self.observed_row[i].index()] = 0;
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

    /// The fused draw+chaff pass over user bands. Each user in turn
    /// draws its cell (when `draw`; the ingest path has already written
    /// it to `user_row`), writes its real service, then advances its
    /// chaff lanes, all into the planned row in place. Returns how many
    /// planned cells changed from last slot's row: the uncapped
    /// migration count once `slot > 0`.
    fn draw_and_chaff(&mut self, draw: bool) -> usize {
        let StreamingFleetEngine {
            model,
            service_starts,
            user_rngs,
            chaffs,
            band_users,
            planned_row,
            user_row,
            slot,
            ..
        } = self;
        let (model, slot, band_users, starts) = (*model, *slot, *band_users, &service_starts[..]);
        let n = user_row.len();
        let mut cells = &mut user_row[..];
        let mut rngs = &mut user_rngs[..];
        let mut planned = &mut planned_row[..];
        let mut lanes = &mut chaffs[..];
        let bands = (0..n).step_by(band_users).map(|first| {
            let last = (first + band_users).min(n);
            let services = starts[last] - starts[first];
            UserBand {
                first,
                cells: take_front(&mut cells, last - first),
                rngs: take_front(&mut rngs, last - first),
                planned: take_front(&mut planned, services),
                chaffs: take_front(&mut lanes, services - (last - first)),
            }
        });
        let moves = AtomicUsize::new(0);
        run_bands(bands, |band| {
            let base = starts[band.first];
            let mut band_moves = 0usize;
            for (j, (now, rng)) in band.cells.iter_mut().zip(band.rngs).enumerate() {
                let user = band.first + j;
                if draw {
                    // Each user's arrival is drawn from that slot's
                    // epoch-active chain, from its own stream.
                    let chain = model.chain_at_slot(user, slot);
                    *now = if slot == 0 {
                        chain.initial().sample(rng)
                    } else {
                        chain.step(*now, rng)
                    };
                }
                let cell = *now;
                // Always-follow for the real service, then one
                // controller step per chaff lane (lane order, like the
                // batch engine).
                let (lo, hi) = (starts[user] - base, starts[user + 1] - base);
                let (real, planned) = band.planned[lo..hi]
                    .split_first_mut()
                    .expect("every user owns its real service");
                band_moves += usize::from(*real != cell);
                *real = cell;
                let lanes = &mut band.chaffs[lo - j..hi - j - 1];
                for (out, (lane, chaff_rng)) in planned.iter_mut().zip(lanes) {
                    let next = lane.advance(cell, &[], chaff_rng);
                    band_moves += usize::from(*out != next);
                    *out = next;
                }
            }
            moves.fetch_add(band_moves, Ordering::Relaxed);
        });
        moves.into_inner()
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
