//! Extension experiment: coexisting users as natural chaffs, at fleet
//! scale.
//!
//! Sec. II-A remarks that in a multi-user system every other user (and
//! their chaffs) adds protection, so the single-user results are lower
//! bounds; the extended version (arXiv:1709.03133) frames them the same
//! way. Here all `N` trajectories are real users following the same
//! model — statistically identical to the IM strategy — and the measured
//! accuracy of tracking a designated user should match eq. (11).
//!
//! Each fleet run is a zero-budget [`fleet_chaff::measure`] call (the
//! fleet engine plus the batched detection core), which keeps
//! populations up to `N = 10,000` tractable. Users are exchangeable, so
//! each fleet run averages the tracking accuracy over *every* user as
//! its designated target — `N` correlated-but-distinct samples per run —
//! and the Monte Carlo budget shrinks as the population grows.

use super::{build_model, fleet_chaff, SyntheticConfig};
use crate::montecarlo;
use crate::report::{Figure, Series};
use chaff_core::derive_seed;
use chaff_core::theory::im_tracking_accuracy;
use chaff_markov::models::ModelKind;
use chaff_markov::MarkovChain;

/// Population sizes swept: the paper-scale regime plus the fleet-scale
/// extension.
pub const POPULATIONS: [usize; 8] = [2, 5, 10, 20, 50, 100, 1_000, 10_000];

/// Simulated tracking accuracy for one population size, spreading the
/// Monte Carlo budget across runs (small fleets) or users (large fleets).
/// Each fleet run is one zero-budget [`fleet_chaff::measure`] call.
fn population_accuracy(
    chain: &MarkovChain,
    n: usize,
    config: &SyntheticConfig,
    salt: u64,
) -> crate::Result<f64> {
    let fleet_run = |seed, shards| {
        fleet_chaff::measure(chain, n, 0, config.horizon, seed, shards)
            .map(|point| point.tracking_accuracy)
    };
    // Keep roughly `runs` designated-user samples regardless of N.
    let runs = config.runs.div_ceil(n).max(1);
    let base = config.seed ^ salt;
    if runs == 1 {
        // One big fleet: let the engine parallelize internally.
        fleet_run(derive_seed(base, 0), None)
    } else {
        // Many small fleets: parallelize over runs, keep each fleet
        // single-sharded so threads do not multiply.
        let accuracies = montecarlo::run_parallel(runs, base, |_, seed| fleet_run(seed, Some(1)))
            .into_iter()
            .collect::<crate::Result<Vec<f64>>>()?;
        Ok(accuracies.iter().sum::<f64>() / accuracies.len().max(1) as f64)
    }
}

/// Runs the experiment for one model: simulated multi-user tracking
/// accuracy vs the eq. (11) prediction, as a function of the population
/// size `N`.
///
/// # Errors
///
/// Propagates model-construction errors.
pub fn run(config: &SyntheticConfig, kind: ModelKind) -> crate::Result<Figure> {
    let chain = build_model(kind, config)?;
    let mut simulated = Vec::with_capacity(POPULATIONS.len());
    for (i, &n) in POPULATIONS.iter().enumerate() {
        simulated.push(population_accuracy(&chain, n, config, 0xAA00 + i as u64)?);
    }
    let mut figure = Figure::new(
        format!("multiuser_{}", kind.letter()),
        format!("multi-user natural protection, {kind}"),
        "population size N",
        "accuracy of tracking one user",
    );
    let xs: Vec<f64> = POPULATIONS.iter().map(|&n| n as f64).collect();
    figure.push(Series::new("simulated", xs.clone(), simulated));
    figure.push(Series::new(
        "eq. (11)",
        xs,
        POPULATIONS
            .iter()
            .map(|&n| im_tracking_accuracy(chain.initial(), n))
            .collect(),
    ));
    Ok(figure)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_matches_equation_11_through_fleet_scale() {
        let config = SyntheticConfig {
            runs: 2000,
            horizon: 40,
            ..SyntheticConfig::default()
        };
        let figure = run(&config, ModelKind::NonSkewed).unwrap();
        let sim = &figure.series[0].y;
        let formula = &figure.series[1].y;
        for ((s, f), &n) in sim.iter().zip(formula).zip(POPULATIONS.iter()) {
            assert!((s - f).abs() < 0.05, "N = {n}: sim {s} vs formula {f}");
        }
        // Accuracy decreases with population but plateaus at the
        // collision probability.
        assert!(sim.last().unwrap() < &sim[0]);
        let collision = sim.last().unwrap();
        assert!(
            (collision - formula.last().unwrap()).abs() < 0.05,
            "fleet-scale plateau"
        );
    }

    #[test]
    fn fleet_accuracy_is_deterministic_in_the_seed() {
        let config = SyntheticConfig::quick();
        let chain = build_model(ModelKind::NonSkewed, &config).unwrap();
        let a = fleet_chaff::measure(&chain, 200, 0, 20, 99, None).unwrap();
        let b = fleet_chaff::measure(&chain, 200, 0, 20, 99, Some(3)).unwrap();
        assert_eq!(
            a.tracking_accuracy, b.tracking_accuracy,
            "shard count must not affect results"
        );
    }
}
