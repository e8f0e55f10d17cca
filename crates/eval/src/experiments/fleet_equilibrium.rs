//! Tentpole experiment (ISSUE 9): the defender–detector equilibrium
//! sweep under adaptive chaff budgets.
//!
//! The fleet game of Sec. VII becomes dynamic once the defender can
//! *observe* the eavesdropper: each epoch the fleet operator reads the
//! detector's running per-user accuracy ([`AccuracyFeedback`]) and
//! plays a best response — shifting chaff budget towards the users the
//! detector currently locks onto
//! ([`FleetChaffPolicy::adapt`]) while conserving the fleet-wide
//! total. This experiment iterates that loop to a fixed point and asks
//! the paper-level question: *does adapting beat spending the same
//! total statically?*
//!
//! Per population rung `N` (total budget `N · B`):
//!
//! 1. score the three static baselines at equal total — uniform `B`
//!    per user, proportional (largest-remainder over `N · B`), and a
//!    per-class split that gives class 0 everything;
//! 2. run best-response iteration from the proportional start:
//!    simulate → detect → feed accuracies back → re-apportion, until
//!    the largest per-user budget movement falls below [`EPSILON`] or
//!    [`MAX_ROUNDS`] epochs elapse;
//! 3. report rounds-to-convergence and the equilibrium tracking /
//!    detection accuracy next to every baseline.
//!
//! The detector's feedback is *part of the game state*: budgets feed
//! back into budgets only, never into any RNG stream, so every epoch
//! re-simulates the same user trajectories (see
//! `adaptive_policy_runs_and_keeps_user_trajectories_fixed` in
//! `chaff-sim`).

use super::{score_columns, SyntheticConfig};
use crate::report::Table;
use chaff_core::detector::{AccuracyFeedback, BatchPrefixDetector, DetectInput};
use chaff_markov::MobilityRegistry;
use chaff_sim::fleet::{
    BudgetAllocation, FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation,
    StrategyAllocation,
};
use chaff_sim::test_support::mixed_registry;

/// Populations swept by the full experiment.
pub const POPULATIONS: [usize; 3] = [100, 1_000, 10_000];

/// Populations swept under `--quick`.
pub const QUICK_POPULATIONS: [usize; 2] = [50, 200];

/// Per-user budget `B`; every allocation spends the same `N · B` total.
pub const BUDGET: usize = 1;

/// Slots per epoch. Short on purpose: the loop re-simulates the fleet
/// every epoch, and the equilibrium structure is horizon-independent.
pub const EQ_HORIZON: usize = 20;

/// Mobility classes in the heterogeneous registry (populations are
/// even, so the per-class baseline splits the total exactly).
pub const CLASSES: usize = 2;

/// Convergence threshold: the sweep stops once one best-response epoch
/// moves no per-user budget by `EPSILON` or more.
pub const EPSILON: usize = 2;

/// Epoch cap — the sweep reports `converged = false` if the budget
/// vector still moves after this many best responses.
pub const MAX_ROUNDS: usize = 16;

/// One scored allocation at one population rung.
#[derive(Debug, Clone, PartialEq)]
pub struct EquilibriumPoint {
    /// Fleet size `N`.
    pub num_users: usize,
    /// Fleet-wide chaff total (identical across allocations).
    pub total_budget: usize,
    /// Allocation label (`"uniform"`, `"proportional"`, `"per-class"`,
    /// `"adaptive"`).
    pub allocation: &'static str,
    /// Best-response epochs run (0 for the static baselines).
    pub rounds: usize,
    /// Whether the budget vector stopped moving within [`MAX_ROUNDS`]
    /// (vacuously true for the static baselines).
    pub converged: bool,
    /// Mean time-average tracking accuracy over all designated users.
    pub tracking_accuracy: f64,
    /// Mean time-average detection accuracy (exact identification).
    pub detection_accuracy: f64,
}

/// Fleet-wide accuracies of one policy plus the per-user feedback
/// vector the adaptive loop consumes.
struct Scored {
    tracking: f64,
    detection: f64,
    per_user: Vec<f64>,
}

/// The registry every rung runs on: deterministic in `seed`.
pub fn equilibrium_registry(seed: u64, num_cells: usize) -> MobilityRegistry {
    mixed_registry(seed, num_cells, CLASSES)
}

/// Runs one fleet under `policy` and scores it through the batched
/// detection core. The per-user feedback comes from the same
/// [`AccuracyFeedback`] bridge the streaming engine maintains online,
/// so batch sweeps and streamed deployments adapt on identical
/// numbers.
fn score(
    registry: &MobilityRegistry,
    policy: &FleetChaffPolicy,
    num_users: usize,
    horizon: usize,
    seed: u64,
) -> crate::Result<Scored> {
    let config = FleetConfig::new(num_users, horizon).with_seed(seed);
    let outcome = FleetSimulation::with_registry(registry, config).run_chaffed(policy)?;
    let detections = BatchPrefixDetector::new()
        .detect_prefixes(DetectInput::new(registry, &outcome.observed))?;
    let feedback =
        AccuracyFeedback::from_detections(outcome.observed.num_trajectories(), &detections);
    let users = outcome.user_observed_indices.iter().copied();
    let (tracking, detection) = score_columns(&outcome.observed, users.clone(), &detections);
    let per_user = users.map(|u| feedback.accuracy(u)).collect();
    Ok(Scored {
        tracking: tracking / num_users as f64,
        detection: detection / num_users as f64,
        per_user,
    })
}

fn static_point(
    registry: &MobilityRegistry,
    policy: &FleetChaffPolicy,
    label: &'static str,
    num_users: usize,
    horizon: usize,
    seed: u64,
) -> crate::Result<EquilibriumPoint> {
    let scored = score(registry, policy, num_users, horizon, seed)?;
    Ok(EquilibriumPoint {
        num_users,
        total_budget: num_users * BUDGET,
        allocation: label,
        rounds: 0,
        converged: true,
        tracking_accuracy: scored.tracking,
        detection_accuracy: scored.detection,
    })
}

/// Runs the best-response iteration for one population and returns the
/// equilibrium point together with the final budget vector.
///
/// Every epoch re-simulates under the *same* seed — the game is
/// repeated over one fixed fleet realization, so the only state that
/// moves between epochs is the budget vector itself, and a fixed point
/// of [`FleetChaffPolicy::adapt`] is a genuine mutual best response.
///
/// # Errors
///
/// Propagates simulation and detection errors.
pub fn equilibrium(
    registry: &MobilityRegistry,
    num_users: usize,
    horizon: usize,
    seed: u64,
) -> crate::Result<(EquilibriumPoint, Vec<usize>)> {
    let total = num_users * BUDGET;
    let mut policy = FleetChaffPolicy::adaptive(FleetChaffStrategy::Im, num_users, total);
    let mut scored = score(registry, &policy, num_users, horizon, seed)?;
    let mut rounds = 0;
    let mut converged = false;
    while rounds < MAX_ROUNDS {
        let delta = policy.adapt(&scored.per_user)?;
        rounds += 1;
        scored = score(registry, &policy, num_users, horizon, seed)?;
        if delta < EPSILON {
            converged = true;
            break;
        }
    }
    let budgets = policy
        .adaptive_budgets()
        .expect("the policy was built adaptive")
        .budgets()
        .to_vec();
    Ok((
        EquilibriumPoint {
            num_users,
            total_budget: total,
            allocation: "adaptive",
            rounds,
            converged,
            tracking_accuracy: scored.tracking,
            detection_accuracy: scored.detection,
        },
        budgets,
    ))
}

/// Scores the three static baselines plus the adaptive equilibrium at
/// one population rung, all at total `N · B`.
///
/// # Errors
///
/// Propagates simulation and detection errors.
pub fn measure(
    registry: &MobilityRegistry,
    num_users: usize,
    horizon: usize,
    seed: u64,
) -> crate::Result<Vec<EquilibriumPoint>> {
    let strategy = FleetChaffStrategy::Im;
    let uniform = FleetChaffPolicy::uniform(strategy, BUDGET);
    let proportional = FleetChaffPolicy::proportional(strategy, num_users * BUDGET);
    // All of the total on class 0; with the registry's round-robin
    // assignment and an even `N` this spends exactly `N · B`.
    let mut class_budgets = vec![0; CLASSES];
    class_budgets[0] = CLASSES * BUDGET;
    let per_class = FleetChaffPolicy::new(
        BudgetAllocation::PerClass(class_budgets),
        StrategyAllocation::Uniform(strategy),
    );
    let mut points = vec![
        static_point(registry, &uniform, "uniform", num_users, horizon, seed)?,
        static_point(
            registry,
            &proportional,
            "proportional",
            num_users,
            horizon,
            seed,
        )?,
        static_point(registry, &per_class, "per-class", num_users, horizon, seed)?,
    ];
    let (adaptive, _) = equilibrium(registry, num_users, horizon, seed)?;
    points.push(adaptive);
    Ok(points)
}

/// Runs the sweep over `populations` and renders the report table.
///
/// # Errors
///
/// Propagates [`measure`] errors.
pub fn run_with(config: &SyntheticConfig, populations: &[usize]) -> crate::Result<Table> {
    let registry = equilibrium_registry(config.seed, config.num_cells);
    let mut table = Table::new(
        "fleet_equilibrium",
        format!(
            "Defender–detector equilibrium: adaptive budgets vs static \
             baselines at equal total (B = {BUDGET}, T = {EQ_HORIZON}, \
             ε = {EPSILON})"
        ),
        vec![
            "N".into(),
            "total".into(),
            "allocation".into(),
            "rounds".into(),
            "converged".into(),
            "tracking".into(),
            "detection".into(),
        ],
    );
    for &num_users in populations {
        for point in measure(&registry, num_users, EQ_HORIZON, config.seed)? {
            table.push(vec![
                point.num_users.to_string(),
                point.total_budget.to_string(),
                point.allocation.into(),
                point.rounds.to_string(),
                point.converged.to_string(),
                format!("{:.4}", point.tracking_accuracy),
                format!("{:.6}", point.detection_accuracy),
            ]);
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_allocation_spends_the_same_total() {
        let registry = equilibrium_registry(1709, 8);
        let points = measure(&registry, 40, 4, 11).unwrap();
        assert_eq!(points.len(), 4);
        for point in &points {
            assert_eq!(point.total_budget, 40 * BUDGET, "{}", point.allocation);
        }
        assert_eq!(points[3].allocation, "adaptive");
        assert!(points[3].rounds >= 1);
    }

    #[test]
    fn the_equilibrium_budget_vector_conserves_the_total() {
        let registry = equilibrium_registry(1709, 8);
        let (point, budgets) = equilibrium(&registry, 30, 6, 5).unwrap();
        assert_eq!(budgets.len(), 30);
        assert_eq!(budgets.iter().sum::<usize>(), point.total_budget);
    }

    #[test]
    fn table_has_four_rows_per_population() {
        let config = SyntheticConfig::quick();
        let table = run_with(&config, &[10, 20]).unwrap();
        assert_eq!(table.rows.len(), 8);
    }
}
