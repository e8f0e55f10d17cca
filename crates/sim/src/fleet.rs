//! The fleet engine: sharded multi-user simulation over one shared MEC
//! world.
//!
//! Sec. II-A of the paper observes that in a real deployment every
//! coexisting user (and their chaffs) adds natural protection, making
//! single-user results lower bounds. [`FleetSimulation`] makes that
//! regime the first-class workload: `N` independent users — each with
//! their own mobility draw and optionally their own chaff services —
//! move through one MEC network with shared per-node capacity, and the
//! eavesdropper observes the union of all service trajectories under one
//! global anonymization shuffle.
//!
//! # The chaff-policy layer
//!
//! The chaff-based arXiv version (He et al., 1709.03133) frames the
//! defense as a *budgeted multi-user game*: each user buys some number of
//! chaff services. [`FleetChaffPolicy`] is that layer: it assigns every
//! user an online chaff strategy ([`FleetChaffStrategy`]: IM, CML or MO)
//! and a per-user budget via a [`BudgetAllocation`] — uniform (`B` chaffs
//! each), proportional (a fleet-wide total spread deterministically
//! across users), class-based (budget per mobility class), or *adaptive*
//! ([`AdaptiveBudgets`]: the same fleet-wide total re-apportioned between
//! epochs from detector-side accuracy feedback, the defender's move in
//! the best-response equilibrium sweep).
//! [`FleetSimulation::run_chaffed`] drives a whole fleet under one
//! policy; budget `B = 0` reproduces the undefended fleet bit-for-bit.
//!
//! # Heterogeneous mobility
//!
//! A fleet may mix mobility-model *classes* (commuters vs couriers):
//! construct with [`FleetSimulation::with_registry`] over a
//! [`MobilityRegistry`], and each user moves by (and its chaffs mimic)
//! the chain of its class — memory stays `O(classes)`, not `O(users)`.
//!
//! # Execution plan
//!
//! There is one fleet engine. [`FleetSimulation::run_chaffed`] and the
//! slot-at-a-time [`StreamingFleetEngine`](crate::streaming::StreamingFleetEngine)
//! drive the same crate-private stepper; a batch run steps it to the
//! horizon in tiles of a fixed number of slots, writing each tile's rows
//! straight into the observed [`CellGrid`], while the streaming engine
//! steps one-slot tiles and detects as it goes. Each step keeps its
//! bit-for-bit argument:
//!
//! 1. **Layout.** Per-user budgets are pure functions of `(user, class,
//!    N)`, so the per-user service offset table is computed up front —
//!    with checked arithmetic, so a large budget × large `N` fails
//!    loudly ([`SimError::BudgetOverflow`]) instead of wrapping. A
//!    capacity-limited fleet with more services than the network has
//!    slots is rejected here, so placement can never fail later.
//! 2. **Seed.** Every user draws from an RNG seeded by SplitMix64 over
//!    `(fleet seed, user index)`, and every chaff from its own stream
//!    over `(fleet seed, user, chaff)` ([`chaff_seed`]). Users are cut
//!    into contiguous bands (one per shard; with a capacity, at least one
//!    per 2¹⁶ services, see step 4), and each band seeds its users and
//!    builds their chaff lanes as one job on the worker pool.
//!    Streams depend on indices only, so results are bit-identical for
//!    every shard count, growing the fleet never perturbs existing
//!    users' streams, and growing a user's chaff budget never perturbs
//!    the user's own trajectory.
//!
//!    **Lane state.** A band keeps one flat vector per strategy, in user
//!    then lane order, holding only what the strategy's step reads: an
//!    IM lane its stream and cell, a CML lane its cell, an MO lane its
//!    previous cell, its user's previous cell and its gap `γ`. Only IM
//!    lanes seed a stream, because CML and MO never draw; an IM lane's
//!    stream is the same `chaff_seed` stream as before, so its draws are
//!    unchanged. A lane holds no chain source: the kernel passes it its
//!    user's chain at the slot. A controller's epoch source advances one
//!    slot per call and a lane is called once per slot from slot 0, so
//!    at slot `t` that source yields the chain of the user's class at
//!    `epoch_of(t)` — the user's own chain at `t`. Nor does a lane hold
//!    a "launched" flag: its first call is at slot 0, so `t == 0` is the
//!    launch. The step bodies are the ones the public controllers run
//!    (`chaff_core::strategy::{im_step, cml_step, mo_step}`), so every
//!    lane's cells are its controller's, draw for draw;
//!    `tests/chaff_lanes.rs` replays the controllers to check it.
//! 3. **Draw and chaff, one tile at a time (parallel).** Each band job
//!    advances its users through the tile, slot by slot: the user's cell
//!    from that slot's epoch-active chain (always-follow placement, so
//!    the real service takes it too), then each chaff lane's cell
//!    against it. Rows of at most 16 successors are searched by counting
//!    the prefix sums `≤ u` rather than by bisection; on a
//!    non-decreasing table the count is the bisection's answer, so every
//!    draw lands on the same cell. The tile is service-major, so a user's RNG and lanes
//!    stay hot for the whole tile. Every draw reads only its own stream
//!    and its own user's cells, so neither the band count nor the tile
//!    length changes a draw. Without a capacity, migrations are counted
//!    as cells are written, each against its service's previous slot —
//!    at a tile's first slot, the last slot of the previous tile, which
//!    is always full (only the last tile can be short).
//! 4. **Capacity replay (only when a capacity is set).** Each tile slot,
//!    in slot order, goes through one shared
//!    [`MecNetwork`](crate::network::MecNetwork)'s slot kernel
//!    (`launch_slot` on slot 0, then `replay_slot`) in global service
//!    order, spilling to
//!    the nearest free node exactly like the single-user simulator. The
//!    calls are the same whatever the tile length.
//!
//!    **Placement beside the draw.** A tile's first slot is placed band
//!    by band inside the draw's pool scope: the pool threads draw bands
//!    in increasing order while the calling thread places each band as
//!    soon as it is drawn (and draws unclaimed bands itself while it
//!    waits); a batch tile's later slots are placed after the scope.
//!    Services are laid out user by user, so each band owns a
//!    contiguous service range, and the bands are placed in band order:
//!    consecutive ranges, in order, are the whole row, so every service
//!    is placed in the same order against the same occupancy
//!    trajectory. A band's draws read only its own users' streams and
//!    lanes, so they do not depend on where the bands are cut, and the
//!    counts are integer sums. A capacity-limited fleet therefore takes
//!    at least one band per 2¹⁶ services: with one band per thread,
//!    every band finishes at once and nothing overlaps.
//! 5. **Anonymize, by gather.** One Fisher–Yates permutation across all
//!    services, driven by the fleet seed, is drawn up front and kept as
//!    its inverse; each observed row is gathered through it over
//!    destination bands on the pool. The permutation is a bijection, so
//!    every output cell is written exactly once. The streaming engine
//!    gathers in place into its one observed row and has each band
//!    count the cells of the positions holding a real user: an integer
//!    count of the same cells the users' services were placed in.
//!
//! `tests/fleet_goldens.rs` pins whole outcomes of this pipeline.
//!
//! The outcome pairs with the streaming columnar detection core
//! (`chaff_core::detector::BatchPrefixDetector`, whose unified
//! `detect_prefixes` entry scores heterogeneous chaffed candidate sets
//! straight off the grid) for fleet-scale evaluation at `N = 10⁵–10⁶`,
//! and persists through `chaff-store` (see [`crate::persist`]) for
//! checkpoint/resume at `N = 10⁶–10⁷`.

use crate::stepper::{FleetStepper, BATCH_TILE_SLOTS};
use crate::{Result, SimError};
use chaff_core::strategy::{
    CmlController, EpochChains, ImController, MoController, OnlineChaffController,
};
use chaff_markov::{CellGrid, MarkovChain, MobilityRegistry, TrajectoryArena};

/// Fleet configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of independent users `N`.
    pub num_users: usize,
    /// Number of slots to simulate.
    pub horizon: usize,
    /// Optional uniform per-MEC service capacity, shared by the whole
    /// fleet.
    pub node_capacity: Option<usize>,
    /// Whether to shuffle service order in the observation log.
    pub anonymize: bool,
    /// Master seed: drives every user's RNG, every chaff's RNG and the
    /// anonymization shuffle.
    pub seed: u64,
    /// Number of simulation bands (and detector shards); `None` sizes
    /// from available parallelism. Results never depend on this.
    pub shards: Option<usize>,
}

impl FleetConfig {
    /// Creates a fleet of `num_users` users over `horizon` slots with no
    /// capacity limit, anonymization on and seed 0. Chaff budgets come
    /// from the [`FleetChaffPolicy`] a run is given.
    pub fn new(num_users: usize, horizon: usize) -> Self {
        FleetConfig {
            num_users,
            horizon,
            node_capacity: None,
            anonymize: true,
            seed: 0,
            shards: None,
        }
    }

    /// Sets the shared per-node capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.node_capacity = Some(capacity);
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the generation shard count (results are identical for every
    /// value; this only controls parallelism).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Disables observation-log shuffling.
    pub fn without_anonymization(mut self) -> Self {
        self.anonymize = false;
        self
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.num_users == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "num_users",
                reason: "must be positive".into(),
            });
        }
        if self.horizon == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "horizon",
                reason: "must be positive".into(),
            });
        }
        Ok(())
    }

    pub(crate) fn effective_shards(&self) -> usize {
        let requested = self
            .shards
            .unwrap_or_else(|| chaff_core::pool::global().threads());
        requested.clamp(1, self.num_users.max(1))
    }
}

/// An online chaff strategy a fleet policy can assign to users. Only the
/// paper's *online* strategies qualify — offline ones (ML, OO) need the
/// whole user trajectory in advance, which the strictly causal fleet
/// driver never has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetChaffStrategy {
    /// Impersonating (Sec. IV-A): an independent draw of the user's
    /// chain; the only strategy whose protection grows with budget
    /// against the ML detector.
    Im,
    /// Constrained maximum likelihood (Sec. V-C1): greedy most-likely
    /// moves that never co-locate with the user.
    Cml,
    /// Myopic online (Algorithm 2): one-step lookahead on likelihood and
    /// co-location.
    Mo,
}

impl FleetChaffStrategy {
    /// Builds the per-slot controller for one chaff over `chain`.
    pub fn controller<'a>(self, chain: &'a MarkovChain) -> Box<dyn OnlineChaffController + 'a> {
        self.boxed(EpochChains::stationary(chain))
    }

    /// Builds the per-slot controller for one chaff of a class-`class`
    /// user over the registry's epoch-active chains.
    ///
    /// The controller keeps one *continuous* cross-slot state (walk
    /// position, likelihood gap) while its chain switches with the
    /// slot's epoch — chaffs stay statistically indistinguishable from
    /// users across epoch boundaries (IM walks the same time-varying
    /// process the users do), and MO's γ race is scored under the same
    /// slot-active tables a schedule-aware detector applies. Controllers
    /// consume exactly the per-slot RNG draws of the stationary path (IM
    /// draws once per slot, CML and MO draw nothing), so a schedule
    /// whose epochs hold identical chains replays the stationary seed
    /// stream bit for bit.
    pub fn scheduled_controller<'a>(
        self,
        registry: &'a MobilityRegistry,
        class: usize,
    ) -> Box<dyn OnlineChaffController + 'a> {
        self.boxed(EpochChains::registry(registry, class))
    }

    /// This strategy's boxed controller over `chains`.
    fn boxed(self, chains: EpochChains<'_>) -> Box<dyn OnlineChaffController + '_> {
        match self {
            FleetChaffStrategy::Im => Box::new(ImController::scheduled(chains)),
            FleetChaffStrategy::Cml => Box::new(CmlController::scheduled(chains)),
            FleetChaffStrategy::Mo => Box::new(MoController::scheduled(chains)),
        }
    }
}

impl std::fmt::Display for FleetChaffStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FleetChaffStrategy::Im => "IM",
            FleetChaffStrategy::Cml => "CML",
            FleetChaffStrategy::Mo => "MO",
        })
    }
}

/// How a [`FleetChaffPolicy`] distributes chaff budget over users.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetAllocation {
    /// Every user gets exactly `B` chaffs.
    Uniform(usize),
    /// A fleet-wide total spread proportionally (i.e. as evenly as
    /// integers allow): user `u` gets `total / N` chaffs plus one more
    /// when `u < total mod N`. Deterministic and independent of sharding.
    Proportional {
        /// Total chaff services across the whole fleet.
        total: usize,
    },
    /// Budget per mobility class (indexed like the fleet's
    /// [`MobilityRegistry`]; a homogeneous fleet has exactly one class).
    PerClass(Vec<usize>),
    /// Feedback-adaptive: an explicit per-user budget vector, re-weighted
    /// between epochs from detector-side accuracy feedback
    /// ([`AdaptiveBudgets::adapt`]) while conserving the fleet-wide
    /// total. Within one epoch the vector is as static as any other
    /// allocation, so runs stay deterministic and shard-independent; and
    /// because budgets never feed the per-user / per-chaff seed streams,
    /// re-weighting never perturbs user trajectories.
    Adaptive(AdaptiveBudgets),
}

/// The state of the adaptive budget loop: a fleet-wide chaff total and
/// its current per-user split.
///
/// The initial split is exactly the proportional allocation (`total / N`
/// each, low indices taking the remainder). Each
/// [`adapt`](AdaptiveBudgets::adapt) epoch re-apportions the same total
/// by largest-remainder (Hamilton) rounding over *damped* weights — the
/// mean of each user's share of the reported detection accuracy and its
/// share of the current budget — so budget flows towards the users the
/// detector tracks best, half-way per epoch, without overshoot. Two
/// invariants hold by construction, under checked arithmetic:
///
/// * the budget vector always sums to the total (nothing is minted or
///   lost by rounding);
/// * uniform feedback is a fixed point: when every user reports the same
///   accuracy (including all-zero feedback), the proportional split
///   reproduces itself bit-for-bit, epoch after epoch.
///
/// All remainder and accuracy ties break towards the **lowest user
/// index** — mirroring the detector-side
/// [`AccuracyFeedback`](chaff_core::detector::AccuracyFeedback) ranking
/// rule — so the loop cannot oscillate run-to-run on tie order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveBudgets {
    total: usize,
    budgets: Vec<usize>,
}

impl AdaptiveBudgets {
    /// The initial allocation: `total` chaffs over `num_users` users,
    /// split proportionally (low indices take the remainder). A fleet of
    /// zero users carries a zero total (the fleet config rejects `N = 0`
    /// before any run).
    pub fn new(num_users: usize, total: usize) -> Self {
        if num_users == 0 {
            return AdaptiveBudgets {
                total: 0,
                budgets: Vec::new(),
            };
        }
        let budgets = (0..num_users)
            .map(|u| total / num_users + usize::from(u < total % num_users))
            .collect();
        AdaptiveBudgets { total, budgets }
    }

    /// The conserved fleet-wide chaff total.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The current per-user budget vector (always sums to
    /// [`total`](Self::total)).
    pub fn budgets(&self) -> &[usize] {
        &self.budgets
    }

    /// The current budget of one user.
    pub fn budget_of(&self, user: usize) -> usize {
        self.budgets[user]
    }

    /// One best-response epoch: re-apportions the total over damped
    /// weights `(accuracy share + budget share) / 2` by largest-remainder
    /// rounding, and returns the largest per-user budget movement (the
    /// quantity equilibrium sweeps compare against ε). All-zero feedback
    /// is treated as uniform, so a detector that never locked onto
    /// anyone leaves the allocation alone.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `accuracies` does not
    /// supply one finite non-negative sample per user, and
    /// [`SimError::BudgetOverflow`] if the apportionment sums ever
    /// overflow `usize` (checked arithmetic throughout).
    pub fn adapt(&mut self, accuracies: &[f64]) -> Result<usize> {
        let n = self.budgets.len();
        if accuracies.len() != n {
            return Err(SimError::InvalidConfig {
                parameter: "feedback.accuracies",
                reason: format!("{} accuracy samples for {n} users", accuracies.len()),
            });
        }
        for (user, &a) in accuracies.iter().enumerate() {
            if !a.is_finite() || a < 0.0 {
                return Err(SimError::InvalidConfig {
                    parameter: "feedback.accuracies",
                    reason: format!("user {user} reported accuracy {a}"),
                });
            }
        }
        if self.total == 0 || n == 0 {
            return Ok(0);
        }
        let overflow = || SimError::BudgetOverflow { users: n };
        let mass: f64 = accuracies.iter().sum();
        let uniform = 1.0 / n as f64;
        let total = self.total as f64;
        // Damped ideal seats: half the accuracy share, half the current
        // budget share. Identical inputs produce identical floats, so
        // remainder ties are exact — and broken by lowest user index.
        let ideals: Vec<f64> = (0..n)
            .map(|u| {
                let share = if mass > 0.0 {
                    accuracies[u] / mass
                } else {
                    uniform
                };
                0.5 * (share + self.budgets[u] as f64 / total) * total
            })
            .collect();
        let mut next: Vec<usize> = ideals.iter().map(|&x| x.floor() as usize).collect();
        let assigned = next
            .iter()
            .try_fold(0usize, |acc, &b| acc.checked_add(b))
            .ok_or_else(overflow)?;
        let leftover = self.total.checked_sub(assigned).ok_or_else(overflow)?;
        // Largest-remainder seats, ties to the lowest user index; the
        // round-robin wrap is unreachable for exact floors (leftover < N)
        // but keeps pathological float error from indexing out.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let (fa, fb) = (ideals[a] - ideals[a].floor(), ideals[b] - ideals[b].floor());
            fb.total_cmp(&fa).then(a.cmp(&b))
        });
        for k in 0..leftover {
            next[order[k % n]] = next[order[k % n]].checked_add(1).ok_or_else(overflow)?;
        }
        let delta = next
            .iter()
            .zip(&self.budgets)
            .map(|(&new, &old)| new.abs_diff(old))
            .max()
            .unwrap_or(0);
        self.budgets = next;
        Ok(delta)
    }
}

/// How a [`FleetChaffPolicy`] assigns chaff strategies to users.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyAllocation {
    /// Every user runs the same strategy.
    Uniform(FleetChaffStrategy),
    /// One strategy per mobility class.
    PerClass(Vec<FleetChaffStrategy>),
}

/// The fleet-scale chaff-policy layer: assigns each user an online chaff
/// strategy and a per-user budget.
///
/// Budgets and strategies are pure functions of `(user, class, N)` — for
/// the adaptive allocation, of the current epoch's budget vector — so a
/// policy is deterministic, shard-independent, and stable under fleet
/// growth for the uniform and class-based allocations (the proportional
/// and adaptive allocations depend on `N` by design — they spread a
/// fixed total).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetChaffPolicy {
    allocation: BudgetAllocation,
    strategies: StrategyAllocation,
}

impl FleetChaffPolicy {
    /// Every user runs `strategy` with exactly `budget` chaffs.
    pub fn uniform(strategy: FleetChaffStrategy, budget: usize) -> Self {
        FleetChaffPolicy {
            allocation: BudgetAllocation::Uniform(budget),
            strategies: StrategyAllocation::Uniform(strategy),
        }
    }

    /// Every user runs `strategy`; a fleet-wide `total` of chaffs is
    /// spread as evenly as integers allow (low user indices take the
    /// remainder).
    pub fn proportional(strategy: FleetChaffStrategy, total: usize) -> Self {
        FleetChaffPolicy {
            allocation: BudgetAllocation::Proportional { total },
            strategies: StrategyAllocation::Uniform(strategy),
        }
    }

    /// Class-based assignment: class `c` users run `classes[c].0` with
    /// `classes[c].1` chaffs each. The length must match the fleet's
    /// number of mobility classes (checked at run time).
    pub fn per_class(classes: Vec<(FleetChaffStrategy, usize)>) -> Self {
        let (strategies, budgets) = classes.into_iter().unzip();
        FleetChaffPolicy {
            allocation: BudgetAllocation::PerClass(budgets),
            strategies: StrategyAllocation::PerClass(strategies),
        }
    }

    /// A custom combination of allocation and strategy assignment.
    pub fn new(allocation: BudgetAllocation, strategies: StrategyAllocation) -> Self {
        FleetChaffPolicy {
            allocation,
            strategies,
        }
    }

    /// Every user runs `strategy` under the feedback-adaptive allocation:
    /// `total` chaffs over `num_users` users, starting from the
    /// proportional split and re-weighted between epochs with
    /// [`adapt`](Self::adapt).
    pub fn adaptive(strategy: FleetChaffStrategy, num_users: usize, total: usize) -> Self {
        FleetChaffPolicy {
            allocation: BudgetAllocation::Adaptive(AdaptiveBudgets::new(num_users, total)),
            strategies: StrategyAllocation::Uniform(strategy),
        }
    }

    /// The policy's budget allocation.
    pub fn allocation(&self) -> &BudgetAllocation {
        &self.allocation
    }

    /// The adaptive budget state, when this policy is adaptive.
    pub fn adaptive_budgets(&self) -> Option<&AdaptiveBudgets> {
        match &self.allocation {
            BudgetAllocation::Adaptive(a) => Some(a),
            _ => None,
        }
    }

    /// One adaptive epoch: folds per-user accuracy feedback into the
    /// budget vector (see [`AdaptiveBudgets::adapt`]) and returns the
    /// largest per-user budget movement.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a non-adaptive policy or
    /// malformed feedback, and [`SimError::BudgetOverflow`] on
    /// apportionment overflow.
    pub fn adapt(&mut self, accuracies: &[f64]) -> Result<usize> {
        match &mut self.allocation {
            BudgetAllocation::Adaptive(a) => a.adapt(accuracies),
            _ => Err(SimError::InvalidConfig {
                parameter: "policy.allocation",
                reason: "adapt() requires BudgetAllocation::Adaptive".into(),
            }),
        }
    }

    /// The chaff budget of `user` (in class `class`, fleet size
    /// `num_users`).
    pub fn budget_of(&self, user: usize, class: usize, num_users: usize) -> usize {
        match &self.allocation {
            BudgetAllocation::Uniform(b) => *b,
            BudgetAllocation::Proportional { total } => {
                total / num_users + usize::from(user < total % num_users)
            }
            BudgetAllocation::PerClass(budgets) => budgets[class],
            BudgetAllocation::Adaptive(a) => a.budget_of(user),
        }
    }

    /// The chaff strategy of a user in class `class`.
    pub fn strategy_of(&self, class: usize) -> FleetChaffStrategy {
        match &self.strategies {
            StrategyAllocation::Uniform(s) => *s,
            StrategyAllocation::PerClass(v) => v[class],
        }
    }

    /// Total chaff services this policy launches across a fleet of
    /// `num_users` users mapped to classes by `class_of`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetOverflow`] when the total does not fit
    /// `usize` — a large per-user budget times a large population must
    /// not wrap silently in release builds.
    pub fn total_budget(
        &self,
        num_users: usize,
        mut class_of: impl FnMut(usize) -> usize,
    ) -> Result<usize> {
        let overflow = || SimError::BudgetOverflow { users: num_users };
        match &self.allocation {
            BudgetAllocation::Uniform(b) => b.checked_mul(num_users).ok_or_else(overflow),
            BudgetAllocation::Proportional { total } => Ok(*total),
            BudgetAllocation::Adaptive(a) => Ok(a.total()),
            BudgetAllocation::PerClass(_) => (0..num_users).try_fold(0usize, |acc, u| {
                acc.checked_add(self.budget_of(u, class_of(u), num_users))
                    .ok_or_else(overflow)
            }),
        }
    }

    /// Checks class-indexed tables against the fleet's class count and
    /// user-indexed budget vectors against the fleet size.
    pub(crate) fn validate(&self, num_classes: usize, num_users: usize) -> Result<()> {
        if let BudgetAllocation::PerClass(budgets) = &self.allocation {
            if budgets.len() != num_classes {
                return Err(SimError::InvalidConfig {
                    parameter: "policy.budgets",
                    reason: format!(
                        "{} per-class budgets for {num_classes} mobility classes",
                        budgets.len()
                    ),
                });
            }
        }
        if let BudgetAllocation::Adaptive(a) = &self.allocation {
            if a.budgets().len() != num_users {
                return Err(SimError::InvalidConfig {
                    parameter: "policy.budgets",
                    reason: format!(
                        "{} adaptive per-user budgets for {num_users} users",
                        a.budgets().len()
                    ),
                });
            }
        }
        if let StrategyAllocation::PerClass(strategies) = &self.strategies {
            if strategies.len() != num_classes {
                return Err(SimError::InvalidConfig {
                    parameter: "policy.strategies",
                    reason: format!(
                        "{} per-class strategies for {num_classes} mobility classes",
                        strategies.len()
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Aggregate fleet counters (per-service ledgers would dwarf the
/// trajectories at fleet scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Total service migrations (cell changes) across the fleet.
    pub migrations: usize,
    /// Placements diverted by capacity spills.
    pub spills: usize,
    /// Simulated user-slots (`num_users × horizon`), the throughput
    /// denominator.
    pub user_slots: usize,
    /// Chaff services launched across the fleet (0 on undefended runs).
    pub chaff_services: usize,
}

/// Everything a fleet run produces.
///
/// Both trajectory sets are columnar (one contiguous 4-byte-per-cell
/// arena each): at `N = 10⁶` users the per-trajectory representation's
/// allocation and pointer overhead alone would dwarf the cells.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The eavesdropper's view: one column per service (all users' real
    /// services and chaffs together), shuffled when anonymization is on.
    /// Feed it straight to the unified
    /// `BatchPrefixDetector::detect_prefixes` entry; use
    /// [`CellGrid::trajectory`]/[`CellGrid::to_trajectories`] to bridge
    /// to per-trajectory consumers.
    pub observed: CellGrid,
    /// Ground truth: `user_observed_indices[u]` is the index of user
    /// `u`'s real service inside [`observed`](FleetOutcome::observed).
    pub user_observed_indices: Vec<usize>,
    /// Each user's physical cell per slot (row `u` = user `u`).
    pub user_cells: TrajectoryArena,
    /// Aggregate counters.
    pub stats: FleetStats,
}

/// The mobility substrate a fleet runs on: one shared chain, or a
/// registry of model classes. `FleetSimulation` and the streaming
/// engine both hand it to the one fleet stepper, so every class and
/// chain lookup is the same code.
#[derive(Clone, Copy)]
pub(crate) enum FleetModel<'a> {
    /// Every user moves by the same chain.
    Homogeneous(&'a MarkovChain),
    /// User `u` moves by the chain of its registry class.
    Heterogeneous(&'a MobilityRegistry),
}

impl<'a> FleetModel<'a> {
    pub(crate) fn num_classes(&self) -> usize {
        match self {
            FleetModel::Homogeneous(_) => 1,
            FleetModel::Heterogeneous(r) => r.num_classes(),
        }
    }

    pub(crate) fn class_of(&self, user: usize) -> usize {
        match self {
            FleetModel::Homogeneous(_) => 0,
            FleetModel::Heterogeneous(r) => r.class_of(user),
        }
    }

    pub(crate) fn chain_of(&self, user: usize) -> &'a MarkovChain {
        match self {
            FleetModel::Homogeneous(c) => c,
            FleetModel::Heterogeneous(r) => r.chain_of(user),
        }
    }

    /// The one chain governing all of user `user`'s arrivals, unless
    /// the model is a multi-epoch registry (`None`: look the chain up per
    /// slot with [`chain_at_slot`](Self::chain_at_slot)).
    pub(crate) fn stationary_chain(&self, user: usize) -> Option<&'a MarkovChain> {
        match *self {
            FleetModel::Heterogeneous(r) if !r.is_stationary() => None,
            _ => Some(self.chain_of(user)),
        }
    }

    /// The chain governing user `user`'s arrival at slot `slot` — the
    /// epoch-active chain of the user's class. For homogeneous fleets and
    /// one-epoch registries this is [`chain_of`](Self::chain_of) at every
    /// slot, so the stationary draw sequence is untouched.
    #[inline]
    pub(crate) fn chain_at_slot(&self, user: usize, slot: usize) -> &'a MarkovChain {
        match self {
            FleetModel::Homogeneous(c) => c,
            FleetModel::Heterogeneous(r) => r.chain_of_at(user, slot),
        }
    }

    pub(crate) fn num_states(&self) -> usize {
        match self {
            FleetModel::Homogeneous(c) => c.num_states(),
            FleetModel::Heterogeneous(r) => r.num_states(),
        }
    }
}

/// A configured fleet simulation over one mobility model or a registry of
/// model classes.
///
/// # Example
///
/// ```
/// use chaff_core::detector::{BatchPrefixDetector, DetectInput};
/// use chaff_markov::{models::ModelKind, MarkovChain};
/// use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
/// let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 2);
/// let outcome = FleetSimulation::new(&chain, FleetConfig::new(200, 30).with_seed(7))
///     .run_chaffed(&policy)?;
/// assert_eq!(outcome.observed.num_trajectories(), 200 * 3); // real + 2 chaffs each
/// let detections =
///     BatchPrefixDetector::new().detect_prefixes(DetectInput::new(&chain, &outcome.observed))?;
/// assert_eq!(detections.len(), 30);
/// # Ok(())
/// # }
/// ```
pub struct FleetSimulation<'a> {
    model: FleetModel<'a>,
    config: FleetConfig,
}

impl<'a> FleetSimulation<'a> {
    /// Creates a homogeneous fleet simulation (every user moves by
    /// `chain`) with always-follow placement.
    pub fn new(chain: &'a MarkovChain, config: FleetConfig) -> Self {
        FleetSimulation {
            model: FleetModel::Homogeneous(chain),
            config,
        }
    }

    /// Creates a heterogeneous fleet over a registry of mobility-model
    /// classes: user `u` moves by (and its chaffs mimic)
    /// `registry.chain_of(u)` — or, for a multi-epoch registry, the
    /// epoch-active chain of `u`'s class at every slot.
    pub fn with_registry(registry: &'a MobilityRegistry, config: FleetConfig) -> Self {
        FleetSimulation {
            model: FleetModel::Heterogeneous(registry),
            config,
        }
    }

    /// Runs a fleet with no chaff services: every user's protection comes
    /// from the other users (the paper's natural-chaff observation).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors, including
    /// [`SimError::InvalidConfig`] on `node_capacity` when the fleet has
    /// more services than the network has slots.
    pub fn run_natural(self) -> Result<FleetOutcome> {
        self.run_chaffed(&FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 0))
    }

    /// Runs the fleet under a chaff policy: each user gets the strategy
    /// and budget the policy assigns to it (by user index and mobility
    /// class), with every chaff drawing from its own deterministic RNG
    /// stream. A policy whose budgets are all zero reproduces
    /// [`run_natural`](FleetSimulation::run_natural) bit-for-bit.
    ///
    /// Time-varying fleets step one continuous controller per chaff
    /// against the epoch-active chains; the stationary path keeps the
    /// bare controller.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors; rejects class-based policies
    /// whose tables do not match the fleet's class count, and a
    /// capacity-limited fleet with more services than the network has
    /// slots ([`SimError::InvalidConfig`] on `node_capacity`), before
    /// any simulation work.
    pub fn run_chaffed(self, policy: &FleetChaffPolicy) -> Result<FleetOutcome> {
        let mut stepper = FleetStepper::new(self.model, &self.config, policy, BATCH_TILE_SLOTS)?;
        let (n, horizon) = (self.config.num_users, self.config.horizon);
        let mut observed = CellGrid::with_horizon(stepper.num_services(), horizon);
        let mut user_cells = TrajectoryArena::new(n, horizon);
        // One tile of slots per band of grid rows; only the last tile can
        // be short.
        for rows in observed.row_bands_mut(BATCH_TILE_SLOTS) {
            let len = rows.len() / stepper.num_services();
            stepper.step_into(len, true, rows, Some(&mut user_cells), None)?;
        }
        Ok(FleetOutcome {
            observed,
            user_observed_indices: stepper.user_observed_indices().to_vec(),
            user_cells,
            stats: stepper.stats(),
        })
    }
}

/// Derives user `u`'s RNG seed from the fleet seed (`user_seed(base, u)`),
/// the workspace's one seed derivation.
pub use chaff_core::derive_seed as user_seed;

/// Derives the RNG seed for chaff `chaff` of user `user`: a second
/// SplitMix64 scramble over the user's seed under a chaff-lane salt, so
/// chaff streams are independent of the user's own stream (the budget
/// never perturbs the user's trajectory) and of each other.
pub fn chaff_seed(base: u64, user: u64, chaff: u64) -> u64 {
    user_seed(user_seed(base, user) ^ 0xC4AF_F000_0000_0000, chaff)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(seed: u64) -> MarkovChain {
        crate::test_support::nonskewed_chain(seed, 10)
    }

    fn registry(seed: u64, classes: usize) -> MobilityRegistry {
        crate::test_support::mixed_registry(seed, 10, classes)
    }

    #[test]
    fn natural_fleet_produces_consistent_outcome() {
        let c = chain(1);
        let outcome = FleetSimulation::new(&c, FleetConfig::new(25, 12).with_seed(5))
            .run_natural()
            .unwrap();
        assert_eq!(outcome.observed.num_trajectories(), 25);
        assert_eq!(outcome.user_cells.num_trajectories(), 25);
        assert_eq!(outcome.stats.user_slots, 25 * 12);
        assert_eq!(outcome.stats.chaff_services, 0);
        for (u, &idx) in outcome.user_observed_indices.iter().enumerate() {
            assert_eq!(
                outcome.observed.trajectory(idx).as_slice(),
                outcome.user_cells.row(u),
                "user {u}"
            );
        }
    }

    #[test]
    fn results_are_identical_across_shard_counts() {
        let c = chain(2);
        let reference =
            FleetSimulation::new(&c, FleetConfig::new(17, 9).with_seed(3).with_shards(1))
                .run_natural()
                .unwrap();
        for shards in [2, 4, 17, 64] {
            let outcome =
                FleetSimulation::new(&c, FleetConfig::new(17, 9).with_seed(3).with_shards(shards))
                    .run_natural()
                    .unwrap();
            assert_eq!(outcome.observed, reference.observed, "shards = {shards}");
            assert_eq!(
                outcome.user_observed_indices, reference.user_observed_indices,
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn chaff_controllers_run_per_user() {
        let c = chain(3);
        let config = FleetConfig::new(6, 10)
            .with_seed(11)
            .without_anonymization();
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Cml, 2);
        let outcome = FleetSimulation::new(&c, config)
            .run_chaffed(&policy)
            .unwrap();
        assert_eq!(outcome.observed.num_trajectories(), 6 * 3);
        assert_eq!(outcome.stats.chaff_services, 12);
        // Without anonymization user u's real service sits at u * 3.
        for (u, &idx) in outcome.user_observed_indices.iter().enumerate() {
            assert_eq!(idx, u * 3);
            assert_eq!(
                outcome.observed.trajectory(idx).as_slice(),
                outcome.user_cells.row(u)
            );
        }
        // CML is deterministic: both chaffs of a user coincide.
        for u in 0..6 {
            assert_eq!(
                outcome.observed.trajectory(u * 3 + 1),
                outcome.observed.trajectory(u * 3 + 2)
            );
        }
    }

    #[test]
    fn capacity_one_keeps_services_disjoint() {
        let c = chain(4);
        let config = FleetConfig::new(3, 8)
            .with_capacity(1)
            .with_seed(7)
            .without_anonymization();
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
        let outcome = FleetSimulation::new(&c, config)
            .run_chaffed(&policy)
            .unwrap();
        for t in 0..8 {
            let mut cells: Vec<usize> = outcome.observed.row(t).iter().map(|c| c.index()).collect();
            cells.sort_unstable();
            cells.dedup();
            assert_eq!(cells.len(), 6, "slot {t}");
        }
        assert!(outcome.stats.spills > 0, "co-location attempts must spill");
    }

    #[test]
    fn over_subscribed_capacity_is_rejected_up_front() {
        let c = crate::test_support::nonskewed_chain(4, 4);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 2);
        // 2 users × (1 + 2) services on 4 cells × capacity 1.
        let over = FleetConfig::new(2, 5).with_capacity(1);
        for run in [
            FleetSimulation::new(&c, over.clone()).run_chaffed(&policy),
            FleetSimulation::new(&c, over.clone().with_capacity(0)).run_natural(),
        ] {
            match run {
                Err(SimError::InvalidConfig { parameter, .. }) => {
                    assert_eq!(parameter, "node_capacity");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        // A huge capacity cannot overflow the check, and a tight fit runs.
        let roomy = FleetConfig::new(2, 5).with_capacity(usize::MAX);
        assert!(FleetSimulation::new(&c, roomy).run_chaffed(&policy).is_ok());
        let tight = FleetConfig::new(2, 5).with_capacity(2);
        let outcome = FleetSimulation::new(&c, tight)
            .run_chaffed(&policy)
            .unwrap();
        assert_eq!(outcome.observed.num_trajectories(), 6);
    }

    #[test]
    fn user_streams_are_independent_of_population_size() {
        // Growing the fleet must not change the trajectories of existing
        // users (per-user seeding, not a shared stream).
        let c = chain(5);
        let small = FleetSimulation::new(&c, FleetConfig::new(4, 10).with_seed(21))
            .run_natural()
            .unwrap();
        let large = FleetSimulation::new(&c, FleetConfig::new(9, 10).with_seed(21))
            .run_natural()
            .unwrap();
        for u in 0..4 {
            assert_eq!(small.user_cells.row(u), large.user_cells.row(u), "user {u}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = chain(6);
        assert!(FleetSimulation::new(&c, FleetConfig::new(0, 5))
            .run_natural()
            .is_err());
        assert!(FleetSimulation::new(&c, FleetConfig::new(5, 0))
            .run_natural()
            .is_err());
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
        assert!(FleetSimulation::new(&c, FleetConfig::new(0, 5))
            .run_chaffed(&policy)
            .is_err());
    }

    #[test]
    fn migrations_are_counted_on_the_fast_path() {
        let c = chain(7);
        let outcome = FleetSimulation::new(&c, FleetConfig::new(10, 20).with_seed(9))
            .run_natural()
            .unwrap();
        let expected: usize = (0..outcome.user_cells.num_trajectories())
            .map(|u| {
                let row = outcome.user_cells.row(u);
                row.windows(2).filter(|w| w[0] != w[1]).count()
            })
            .sum();
        assert_eq!(outcome.stats.migrations, expected);
    }

    #[test]
    fn uniform_policy_launches_budget_chaffs_per_user() {
        let c = chain(8);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 3);
        let outcome = FleetSimulation::new(&c, FleetConfig::new(7, 9).with_seed(13))
            .run_chaffed(&policy)
            .unwrap();
        assert_eq!(outcome.observed.num_trajectories(), 7 * 4);
        assert_eq!(outcome.stats.chaff_services, 21);
        for (u, &idx) in outcome.user_observed_indices.iter().enumerate() {
            assert_eq!(
                outcome.observed.trajectory(idx).as_slice(),
                outcome.user_cells.row(u),
                "user {u}"
            );
        }
    }

    #[test]
    fn proportional_allocation_spreads_the_total_with_low_index_remainder() {
        let policy = FleetChaffPolicy::proportional(FleetChaffStrategy::Im, 7);
        let budgets: Vec<usize> = (0..5).map(|u| policy.budget_of(u, 0, 5)).collect();
        assert_eq!(budgets, vec![2, 2, 1, 1, 1]);
        assert_eq!(budgets.iter().sum::<usize>(), 7);
        assert_eq!(policy.total_budget(5, |_| 0).unwrap(), 7);

        let c = chain(9);
        let outcome = FleetSimulation::new(
            &c,
            FleetConfig::new(5, 6).with_seed(17).without_anonymization(),
        )
        .run_chaffed(&policy)
        .unwrap();
        assert_eq!(outcome.observed.num_trajectories(), 5 + 7);
        // Real services sit at the per-user prefix offsets 0, 3, 6, 8, 10.
        assert_eq!(outcome.user_observed_indices, vec![0, 3, 6, 8, 10]);
    }

    #[test]
    fn budget_totals_fail_typed_instead_of_wrapping() {
        // Uniform: budget × N at the usize boundary. In release builds
        // the old unchecked multiply wrapped to a tiny total.
        let huge = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, usize::MAX / 2);
        assert!(matches!(
            huge.total_budget(3, |_| 0),
            Err(SimError::BudgetOverflow { users: 3 })
        ));
        // The exact boundary still fits...
        let fit = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, usize::MAX / 3);
        assert_eq!(fit.total_budget(3, |_| 0).unwrap(), usize::MAX / 3 * 3);
        // ... and per-class sums are checked the same way.
        let per_class = FleetChaffPolicy::per_class(vec![(FleetChaffStrategy::Im, usize::MAX / 2)]);
        assert!(matches!(
            per_class.total_budget(4, |_| 0),
            Err(SimError::BudgetOverflow { users: 4 })
        ));
        // Proportional totals are exact by construction.
        let prop = FleetChaffPolicy::proportional(FleetChaffStrategy::Im, usize::MAX);
        assert_eq!(prop.total_budget(1_000, |_| 0).unwrap(), usize::MAX);
    }

    #[test]
    fn oversized_per_user_budgets_are_rejected_by_the_driver() {
        // The service layout (budget + 1 real service per user, summed
        // over users) is checked before any allocation happens.
        let c = chain(16);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, usize::MAX);
        let err = FleetSimulation::new(&c, FleetConfig::new(2, 4))
            .run_chaffed(&policy)
            .unwrap_err();
        assert!(
            matches!(err, SimError::BudgetOverflow { users: 2 }),
            "{err}"
        );
        let near = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, usize::MAX / 2);
        let err = FleetSimulation::new(&c, FleetConfig::new(3, 4))
            .run_chaffed(&near)
            .unwrap_err();
        assert!(
            matches!(err, SimError::BudgetOverflow { users: 3 }),
            "{err}"
        );
    }

    #[test]
    fn class_based_policies_follow_the_registry() {
        let r = registry(10, 2);
        let policy = FleetChaffPolicy::per_class(vec![
            (FleetChaffStrategy::Im, 2),
            (FleetChaffStrategy::Cml, 0),
        ]);
        let outcome = FleetSimulation::with_registry(
            &r,
            FleetConfig::new(6, 8).with_seed(19).without_anonymization(),
        )
        .run_chaffed(&policy)
        .unwrap();
        // Users 0, 2, 4 are class 0 (budget 2); users 1, 3, 5 class 1
        // (budget 0): 3 * 3 + 3 * 1 services.
        assert_eq!(outcome.observed.num_trajectories(), 12);
        assert_eq!(outcome.stats.chaff_services, 6);
        assert_eq!(policy.total_budget(6, |u| r.class_of(u)).unwrap(), 6);

        // Wrong class arity is rejected.
        let bad = FleetChaffPolicy::per_class(vec![(FleetChaffStrategy::Im, 1)]);
        assert!(FleetSimulation::with_registry(&r, FleetConfig::new(6, 8))
            .run_chaffed(&bad)
            .is_err());
    }

    #[test]
    fn adaptive_budgets_start_proportional_and_conserve_the_total() {
        let mut a = AdaptiveBudgets::new(5, 7);
        assert_eq!(a.budgets(), &[2, 2, 1, 1, 1]);
        assert_eq!(a.total(), 7);
        // Skewed feedback moves budget towards the tracked users while
        // conserving the total...
        let delta = a.adapt(&[0.9, 0.02, 0.02, 0.02, 0.04]).unwrap();
        assert!(delta > 0);
        assert_eq!(a.budgets().iter().sum::<usize>(), 7);
        assert!(a.budget_of(0) > 2, "budgets {:?}", a.budgets());
        // ...and repeated epochs keep converging onto the tracked user.
        for _ in 0..10 {
            a.adapt(&[0.9, 0.02, 0.02, 0.02, 0.04]).unwrap();
            assert_eq!(a.budgets().iter().sum::<usize>(), 7);
        }
        assert!(a.budget_of(0) >= 5, "budgets {:?}", a.budgets());
    }

    #[test]
    fn uniform_feedback_is_a_fixed_point_of_the_adaptive_split() {
        // The ISSUE 9 reduction: feedback frozen at uniform accuracy must
        // keep the budget vector exactly at the static proportional
        // split — including the all-zero "no signal" case — so the
        // adaptive policy degrades gracefully to proportional.
        for (n, total) in [(5usize, 7usize), (4, 4), (3, 10), (6, 0), (7, 20)] {
            let proportional: Vec<usize> = (0..n)
                .map(|u| total / n + usize::from(u < total % n))
                .collect();
            let mut a = AdaptiveBudgets::new(n, total);
            assert_eq!(a.budgets(), proportional.as_slice());
            for accuracy in [0.0, 0.25, 1.0] {
                let delta = a.adapt(&vec![accuracy; n]).unwrap();
                assert_eq!(delta, 0, "N = {n}, total = {total}, a = {accuracy}");
                assert_eq!(a.budgets(), proportional.as_slice());
            }
        }
    }

    #[test]
    fn adaptive_remainder_ties_break_towards_the_lowest_user() {
        // Saturated detector ties hand every user identical feedback;
        // the leftover seats must land on the lowest indices (the same
        // deterministic rule as proportional), never oscillate.
        let mut a = AdaptiveBudgets::new(4, 6);
        assert_eq!(a.budgets(), &[2, 2, 1, 1]);
        a.adapt(&[0.25; 4]).unwrap();
        assert_eq!(a.budgets(), &[2, 2, 1, 1]);
    }

    #[test]
    fn adaptive_feedback_is_validated() {
        let mut a = AdaptiveBudgets::new(3, 5);
        assert!(matches!(
            a.adapt(&[0.1, 0.2]),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            a.adapt(&[0.1, f64::NAN, 0.2]),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            a.adapt(&[0.1, -0.5, 0.2]),
            Err(SimError::InvalidConfig { .. })
        ));
        // A non-adaptive policy refuses to adapt.
        let mut policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
        assert!(matches!(
            policy.adapt(&[0.5]),
            Err(SimError::InvalidConfig { .. })
        ));
        // An adaptive policy built for the wrong fleet size is rejected
        // by the driver before any run.
        let c = chain(17);
        let wrong = FleetChaffPolicy::adaptive(FleetChaffStrategy::Im, 4, 4);
        assert!(FleetSimulation::new(&c, FleetConfig::new(6, 5))
            .run_chaffed(&wrong)
            .is_err());
    }

    #[test]
    fn adaptive_policy_runs_and_keeps_user_trajectories_fixed() {
        // Re-weighting budgets between epochs must never perturb the
        // users' own trajectories: per-user and per-chaff RNG streams are
        // keyed by (seed, user[, chaff]), not by budgets.
        let c = chain(18);
        let undefended = FleetSimulation::new(&c, FleetConfig::new(8, 12).with_seed(47))
            .run_natural()
            .unwrap();
        let mut policy = FleetChaffPolicy::adaptive(FleetChaffStrategy::Im, 8, 8);
        for epoch in 0..3 {
            let outcome = FleetSimulation::new(&c, FleetConfig::new(8, 12).with_seed(47))
                .run_chaffed(&policy)
                .unwrap();
            assert_eq!(outcome.user_cells, undefended.user_cells, "epoch {epoch}");
            assert_eq!(outcome.stats.chaff_services, 8);
            // Skew the allocation and go again.
            let mut feedback = vec![0.1; 8];
            feedback[epoch] = 0.9;
            policy.adapt(&feedback).unwrap();
        }
        assert_eq!(policy.adaptive_budgets().unwrap().total(), 8);
    }

    #[test]
    fn zero_budget_policy_reproduces_the_undefended_fleet() {
        let c = chain(11);
        let natural = FleetSimulation::new(&c, FleetConfig::new(23, 14).with_seed(29))
            .run_natural()
            .unwrap();
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Cml, 0);
        let chaffed = FleetSimulation::new(&c, FleetConfig::new(23, 14).with_seed(29))
            .run_chaffed(&policy)
            .unwrap();
        assert_eq!(chaffed.observed, natural.observed);
        assert_eq!(chaffed.user_observed_indices, natural.user_observed_indices);
        assert_eq!(chaffed.user_cells, natural.user_cells);
        assert_eq!(chaffed.stats, natural.stats);
    }

    #[test]
    fn chaff_budget_does_not_perturb_user_trajectories() {
        let c = chain(12);
        let undefended = FleetSimulation::new(&c, FleetConfig::new(9, 11).with_seed(31))
            .run_natural()
            .unwrap();
        for budget in [1, 3] {
            let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, budget);
            let chaffed = FleetSimulation::new(&c, FleetConfig::new(9, 11).with_seed(31))
                .run_chaffed(&policy)
                .unwrap();
            assert_eq!(chaffed.user_cells, undefended.user_cells, "B = {budget}");
        }
    }

    #[test]
    fn chaffed_results_are_identical_across_shard_counts() {
        let r = registry(13, 3);
        let policy = FleetChaffPolicy::proportional(FleetChaffStrategy::Im, 11);
        let run = |shards: usize| {
            FleetSimulation::with_registry(
                &r,
                FleetConfig::new(10, 7).with_seed(37).with_shards(shards),
            )
            .run_chaffed(&policy)
            .unwrap()
        };
        let reference = run(1);
        for shards in [2, 5, 10, 32] {
            let outcome = run(shards);
            assert_eq!(outcome.observed, reference.observed, "shards = {shards}");
            assert_eq!(
                outcome.user_observed_indices, reference.user_observed_indices,
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn heterogeneous_users_follow_their_class_chains() {
        // A 2-class registry where class 1 is the (deterministic-ish)
        // temporally skewed walk: check users use distinct chains by
        // verifying per-class log-likelihood dominance on average.
        let r = registry(14, 2);
        let outcome = FleetSimulation::with_registry(
            &r,
            FleetConfig::new(40, 30)
                .with_seed(41)
                .without_anonymization(),
        )
        .run_natural()
        .unwrap();
        let mut own = 0.0;
        let mut other = 0.0;
        for u in 0..outcome.user_cells.num_trajectories() {
            let cells = outcome.user_cells.trajectory(u);
            let class = r.class_of(u);
            own += r.chain(class).log_likelihood(&cells);
            other += r.chain(1 - class).log_likelihood(&cells);
        }
        assert!(
            own > other,
            "users should be better explained by their own class ({own} vs {other})"
        );
    }

    #[test]
    fn chaff_streams_are_distinct_across_lanes() {
        let c = chain(15);
        let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 2);
        let outcome = FleetSimulation::new(
            &c,
            FleetConfig::new(4, 25)
                .with_seed(43)
                .without_anonymization(),
        )
        .run_chaffed(&policy)
        .unwrap();
        // IM chaffs draw independently: the two lanes of a user must not
        // be identical (overwhelmingly unlikely over 25 slots).
        for u in 0..4 {
            assert_ne!(
                outcome.observed.trajectory(u * 3 + 1),
                outcome.observed.trajectory(u * 3 + 2),
                "user {u} chaff lanes collide"
            );
        }
    }
}
