//! Fig. 7: tracking accuracy of the *advanced* eavesdropper (aware of the
//! chaff-control strategy) against the IM strategy and the robust
//! randomized strategies RML / ROO / RMO, with `N = 10`.
//!
//! The paper's headline: the deterministic strategies collapse against
//! this eavesdropper (not shown in the figure), while slight random
//! perturbations both evade recognition and approximately preserve the
//! deterministic strategies' performance.

use super::{build_model, SyntheticConfig};
use crate::montecarlo;
use crate::report::{Figure, Series};
use chaff_core::detector::AdvancedDetector;
use chaff_core::metrics::{mean_series, tracking_accuracy_series};
use chaff_core::strategy::StrategyKind;
use chaff_markov::models::ModelKind;
use chaff_markov::MarkovChain;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategies shown in Fig. 7 (all with `N = 10`, i.e. 9 chaffs).
const STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::Im,
    StrategyKind::Rml,
    StrategyKind::Roo,
    StrategyKind::Rmo,
];

/// Number of chaffs (the paper's `N − 1` with `N = 10`).
const NUM_CHAFFS: usize = 9;

fn one_run(chain: &MarkovChain, horizon: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let user = chain.sample_trajectory(horizon, &mut rng);
    STRATEGIES
        .iter()
        .map(|kind| {
            let strategy = kind.build();
            let chaffs = strategy
                .generate(chain, &user, NUM_CHAFFS, &mut rng)
                .expect("valid user");
            let mut observed = vec![user.clone()];
            observed.extend(chaffs);
            let detector = AdvancedDetector::new(strategy.as_ref());
            let detections = detector
                .detect_prefixes(chain, &observed)
                .expect("valid observations");
            tracking_accuracy_series(&observed, 0, &detections)
        })
        .collect()
}

/// Runs the experiment for one mobility model.
///
/// # Errors
///
/// Propagates model-construction errors and a per-run series length
/// mismatch from `mean_series`.
pub fn run(config: &SyntheticConfig, kind: ModelKind) -> crate::Result<Figure> {
    let chain = build_model(kind, config)?;
    let per_run = montecarlo::run_parallel(config.runs, config.seed ^ 0x7, |_, seed| {
        one_run(&chain, config.horizon, seed)
    });
    let mut figure = Figure::new(
        format!("fig7{}", kind.letter()),
        format!("advanced eavesdropper tracking accuracy (N = 10), {kind}"),
        "time",
        "accuracy",
    );
    for (s, kind) in STRATEGIES.iter().enumerate() {
        let series: Vec<Vec<f64>> = per_run.iter().map(|run| run[s].clone()).collect();
        figure.push(Series::from_values(kind.to_string(), mean_series(&series)?));
    }
    Ok(figure)
}

/// Runs all four panels.
///
/// # Errors
///
/// Propagates model-construction errors.
pub fn run_all(config: &SyntheticConfig) -> crate::Result<Vec<Figure>> {
    ModelKind::ALL.iter().map(|&k| run(config, k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaff_core::metrics::time_average;

    #[test]
    fn robust_strategies_hold_up_against_the_advanced_eavesdropper() {
        let config = SyntheticConfig {
            runs: 60,
            horizon: 40,
            ..SyntheticConfig::default()
        };
        let figure = run(&config, ModelKind::NonSkewed).unwrap();
        assert_eq!(figure.series.len(), 4);
        let avg =
            |label: &str| time_average(&figure.series.iter().find(|s| s.label == label).unwrap().y);
        // Nobody collapses to ~1 (that is the deterministic strategies'
        // fate, which the figure omits).
        for kind in STRATEGIES {
            assert!(
                avg(&kind.to_string()) < 0.6,
                "{kind}: {}",
                avg(&kind.to_string())
            );
        }
        // ROO/RML approximate their deterministic counterparts under a
        // basic eavesdropper: far below IM on the random model.
        assert!(
            avg("ROO") < avg("IM"),
            "roo {} vs im {}",
            avg("ROO"),
            avg("IM")
        );
        assert!(avg("RML") < avg("IM") + 0.1);
    }

    #[test]
    fn deterministic_strategies_do_collapse_for_contrast() {
        // Not part of the figure, but the paper asserts it; verify the
        // contrast that motivates the robust variants.
        let config = SyntheticConfig {
            runs: 20,
            horizon: 30,
            ..SyntheticConfig::default()
        };
        let chain = build_model(ModelKind::NonSkewed, &config).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut total = 0.0;
        for _ in 0..config.runs {
            let user = chain.sample_trajectory(config.horizon, &mut rng);
            let strategy = StrategyKind::Oo.build();
            let chaffs = strategy.generate(&chain, &user, 1, &mut rng).unwrap();
            let mut observed = vec![user];
            observed.extend(chaffs);
            let detector = AdvancedDetector::new(strategy.as_ref());
            let detections = detector.detect_prefixes(&chain, &observed).unwrap();
            total += time_average(&tracking_accuracy_series(&observed, 0, &detections));
        }
        let mean = total / config.runs as f64;
        assert!(mean > 0.9, "deterministic OO should collapse: {mean}");
    }
}
