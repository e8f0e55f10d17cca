//! Extension experiment: chaffed fleets at scale — the budgeted
//! multi-user game.
//!
//! The chaff-based arXiv version (He et al., 1709.03133) frames the
//! defense as a fleet-wide game: every user buys `B` chaff services, and
//! the eavesdropper's ML detector faces the enlarged candidate set of
//! `N · (1 + B)` trajectories. This experiment sweeps the per-user
//! budget `B` over whole fleets ([`FleetSimulation::run_chaffed`] under
//! a [`FleetChaffPolicy`], scored by the batched detection core) and
//! reports, per `(N, B)`:
//!
//! * the mean *tracking* accuracy over all designated users, against the
//!   eq. (11) prediction for the chaffed population `N · (1 + B)` and
//!   the undefended baseline at `N` (each `multiuser` fleet run is a
//!   `B = 0` [`measure`] call; the emitted table seeds each `(N, B)`
//!   cell independently, while `multiuser` Monte-Carlo-averages over
//!   runs);
//! * the mean *detection* accuracy (naming exactly the user's service),
//!   which falls by the chaff-dilution factor `1 / (1 + B)`;
//! * engine throughput in **user-slots per second** (simulate + detect),
//!   so scaling regressions surface next to the accuracy numbers.

use super::{build_model, score_columns, SyntheticConfig};
use crate::report::Table;
use chaff_core::detector::{BatchPrefixDetector, DetectInput};
use chaff_core::theory::im_tracking_accuracy;
use chaff_markov::models::ModelKind;
use chaff_markov::MarkovChain;
use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
use std::time::Instant;

/// Per-user chaff budgets swept by the full experiment.
pub const BUDGETS: [usize; 6] = [0, 1, 2, 3, 4, 5];

/// Budgets swept under `--quick`.
pub const QUICK_BUDGETS: [usize; 3] = [0, 1, 2];

/// Populations swept by the full experiment.
pub const POPULATIONS: [usize; 3] = [100, 1_000, 10_000];

/// Populations swept under `--quick`.
pub const QUICK_POPULATIONS: [usize; 2] = [50, 200];

/// One measured cell of the budget sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaffPoint {
    /// Fleet size `N`.
    pub num_users: usize,
    /// Per-user chaff budget `B`.
    pub budget: usize,
    /// Observed services (`N · (1 + B)` under a uniform policy).
    pub services: usize,
    /// Mean time-average tracking accuracy over all designated users.
    pub tracking_accuracy: f64,
    /// Mean time-average detection accuracy (exact identification).
    pub detection_accuracy: f64,
    /// The eq. (11) prediction at the chaffed population `N · (1 + B)`.
    pub predicted: f64,
    /// The eq. (11) undefended baseline at `N` (the `B = 0` row's
    /// prediction).
    pub undefended_baseline: f64,
    /// Fleet-engine throughput, user-slots/sec over simulate + detect.
    pub throughput: f64,
}

/// Measures one `(N, B)` cell: a uniform IM policy over one fleet run,
/// scored through the chaff-aware batch detection path.
///
/// The `multiuser` experiment's fleet runs are this call at
/// `budget = 0`.
///
/// # Errors
///
/// Propagates fleet-configuration errors.
pub fn measure(
    chain: &MarkovChain,
    num_users: usize,
    budget: usize,
    horizon: usize,
    seed: u64,
    shards: Option<usize>,
) -> crate::Result<ChaffPoint> {
    let mut config = FleetConfig::new(num_users, horizon).with_seed(seed);
    if let Some(shards) = shards {
        config = config.with_shards(shards);
    }
    let detector = match shards {
        Some(s) => BatchPrefixDetector::with_shards(s),
        None => BatchPrefixDetector::new(),
    };
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, budget);
    let started = Instant::now();
    let outcome = FleetSimulation::new(chain, config).run_chaffed(&policy)?;
    let table = chain.log_likelihood_table();
    let detections = detector.detect_prefixes(DetectInput::new(&table, &outcome.observed))?;
    let elapsed = started.elapsed().as_secs_f64();
    let (tracking, detection) = score_columns(
        &outcome.observed,
        outcome.user_observed_indices.iter().copied(),
        &detections,
    );
    let services = outcome.observed.num_trajectories();
    Ok(ChaffPoint {
        num_users,
        budget,
        services,
        tracking_accuracy: tracking / num_users as f64,
        detection_accuracy: detection / num_users as f64,
        predicted: im_tracking_accuracy(chain.initial(), services),
        undefended_baseline: im_tracking_accuracy(chain.initial(), num_users),
        throughput: outcome.stats.user_slots as f64 / elapsed.max(f64::MIN_POSITIVE),
    })
}

/// Runs the sweep over `populations × budgets` (the repro binary passes
/// the full or `--quick` constants).
///
/// # Errors
///
/// Propagates model-construction and fleet errors.
pub fn run_with(
    config: &SyntheticConfig,
    populations: &[usize],
    budgets: &[usize],
) -> crate::Result<Table> {
    let chain = build_model(ModelKind::NonSkewed, config)?;
    let mut table = Table::new(
        "fleet_chaff",
        "chaffed fleets: per-user budget sweep (uniform IM policy)",
        vec![
            "N".into(),
            "B".into(),
            "services".into(),
            "tracking".into(),
            "eq. (11) @N(1+B)".into(),
            "undefended eq. (11)".into(),
            "detection".into(),
            "user-slots/s".into(),
        ],
    );
    for (i, &n) in populations.iter().enumerate() {
        for (j, &b) in budgets.iter().enumerate() {
            let seed = config.seed ^ (0xC4AF + (i * budgets.len() + j) as u64);
            let point = measure(&chain, n, b, config.horizon, seed, None)?;
            table.push(vec![
                point.num_users.to_string(),
                point.budget.to_string(),
                point.services.to_string(),
                format!("{:.4}", point.tracking_accuracy),
                format!("{:.4}", point.predicted),
                format!("{:.4}", point.undefended_baseline),
                format!("{:.6}", point.detection_accuracy),
                format!("{:.0}", point.throughput),
            ]);
        }
    }
    Ok(table)
}

/// Runs the full sweep.
///
/// # Errors
///
/// Propagates model-construction and fleet errors.
pub fn run(config: &SyntheticConfig) -> crate::Result<Table> {
    run_with(config, &POPULATIONS, &BUDGETS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_ten_thousand_users_budget_two() {
        // The ISSUE 3 acceptance run: N = 10,000 users, B = 2 chaffs
        // each, through simulation + batched detection to completion.
        let config = SyntheticConfig::quick();
        let chain = build_model(ModelKind::NonSkewed, &config).unwrap();
        let point = measure(&chain, 10_000, 2, 20, 1709, None).unwrap();
        assert_eq!(point.services, 30_000);
        assert!(point.throughput > 0.0);
        // Tracking accuracy sits at the eq. (11) value for the enlarged
        // population N(1+B).
        assert!(
            (point.tracking_accuracy - point.predicted).abs() < 0.05,
            "tracking {} vs predicted {}",
            point.tracking_accuracy,
            point.predicted
        );
        // ... which is strictly below the undefended baseline.
        assert!(point.predicted < point.undefended_baseline);
        // Detection accuracy is diluted by the chaff factor. Undefended,
        // the per-slot argmax mass always sits on real services, so the
        // mean detection accuracy is exactly 1/N; chaffed, only about
        // 1/(1+B) of the argmax mass lands on real services, so the mean
        // drops towards 1/(N(1+B)) — a factor-3 gap that dwarfs the
        // 20-slot sampling noise.
        let undefended = measure(&chain, 10_000, 0, 20, 1709, None).unwrap();
        assert!(
            point.detection_accuracy < undefended.detection_accuracy,
            "chaffed detection {} vs undefended {}",
            point.detection_accuracy,
            undefended.detection_accuracy
        );
    }

    #[test]
    fn detection_accuracy_falls_monotonically_with_budget() {
        let config = SyntheticConfig::quick();
        let chain = build_model(ModelKind::NonSkewed, &config).unwrap();
        let points: Vec<ChaffPoint> = BUDGETS
            .iter()
            .map(|&b| measure(&chain, 100, b, 60, 1709 ^ b as u64, None).unwrap())
            .collect();
        // The closed-form prediction is strictly decreasing in B ...
        for w in points.windows(2) {
            assert!(w[1].predicted < w[0].predicted);
        }
        // ... and the simulated accuracies follow within Monte Carlo
        // noise (each step down, with a noise allowance; strictly down
        // end to end).
        let noise = 0.02;
        for w in points.windows(2) {
            assert!(
                w[1].tracking_accuracy <= w[0].tracking_accuracy + noise,
                "B {} -> {}: tracking {} -> {}",
                w[0].budget,
                w[1].budget,
                w[0].tracking_accuracy,
                w[1].tracking_accuracy
            );
            assert!(
                w[1].detection_accuracy <= w[0].detection_accuracy + noise,
                "B {} -> {}: detection {} -> {}",
                w[0].budget,
                w[1].budget,
                w[0].detection_accuracy,
                w[1].detection_accuracy
            );
        }
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        assert!(last.tracking_accuracy < first.tracking_accuracy);
        assert!(last.detection_accuracy < first.detection_accuracy);
        // Every simulated point tracks its eq. (11) prediction.
        for p in &points {
            assert!(
                (p.tracking_accuracy - p.predicted).abs() < 0.05,
                "B = {}: sim {} vs formula {}",
                p.budget,
                p.tracking_accuracy,
                p.predicted
            );
        }
    }

    #[test]
    fn table_has_one_row_per_population_budget_pair() {
        let config = SyntheticConfig::quick();
        let table = run_with(&config, &[8, 16], &[0, 1]).unwrap();
        assert_eq!(table.rows.len(), 4);
    }
}
