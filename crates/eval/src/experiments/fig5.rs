//! Fig. 5: tracking accuracy of the *basic* eavesdropper versus time,
//! under each chaff-control strategy.
//!
//! Per Monte Carlo run, the user samples a trajectory from the model; each
//! strategy generates its chaffs; the eavesdropper performs prefix-ML
//! detection at every slot (tracking in real time) and scores a hit when
//! the detected trajectory co-locates with the user. Curves are averaged
//! over runs. The paper's strategy/chaff-count grid: IM, ML, OO, MO, CML
//! with `N = 2` and IM with `N = 10`.

use super::{build_model, SyntheticConfig};
use crate::montecarlo;
use crate::report::{Figure, Series};
use chaff_core::detector::MlDetector;
use chaff_core::metrics::{mean_series, tracking_accuracy_series};
use chaff_core::strategy::StrategyKind;
use chaff_markov::models::ModelKind;
use chaff_markov::MarkovChain;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's strategy grid for this figure: (strategy, number of
/// chaffs, label).
fn grid() -> Vec<(StrategyKind, usize, &'static str)> {
    vec![
        (StrategyKind::Im, 1, "IM (N = 2)"),
        (StrategyKind::Ml, 1, "ML (N = 2)"),
        (StrategyKind::Oo, 1, "OO (N = 2)"),
        (StrategyKind::Mo, 1, "MO (N = 2)"),
        (StrategyKind::Cml, 1, "CML (N = 2)"),
        (StrategyKind::Im, 9, "IM (N = 10)"),
    ]
}

/// One Monte Carlo run: per-strategy per-slot accuracy series.
fn one_run(chain: &MarkovChain, horizon: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let user = chain.sample_trajectory(horizon, &mut rng);
    grid()
        .into_iter()
        .map(|(kind, num_chaffs, _)| {
            let strategy = kind.build();
            let chaffs = strategy
                .generate(chain, &user, num_chaffs, &mut rng)
                .expect("valid user trajectory");
            let mut observed = vec![user.clone()];
            observed.extend(chaffs);
            let detections = MlDetector
                .detect_prefixes(chain, &observed)
                .expect("validated observations");
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
    let per_run = montecarlo::run_parallel(config.runs, config.seed, |_, seed| {
        one_run(&chain, config.horizon, seed)
    });
    let mut figure = Figure::new(
        format!("fig5{}", kind.letter()),
        format!("basic eavesdropper tracking accuracy, {kind}"),
        "time",
        "accuracy",
    );
    for (s, (_, _, label)) in grid().into_iter().enumerate() {
        let series: Vec<Vec<f64>> = per_run.iter().map(|run| run[s].clone()).collect();
        figure.push(Series::from_values(label, mean_series(&series)?));
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

    fn by_label<'a>(figure: &'a Figure, label: &str) -> &'a Series {
        figure
            .series
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("missing series {label}"))
    }

    #[test]
    fn reproduces_the_papers_qualitative_ordering() {
        let config = SyntheticConfig {
            runs: 120,
            horizon: 60,
            ..SyntheticConfig::default()
        };
        let figure = run(&config, ModelKind::NonSkewed).unwrap();
        assert_eq!(figure.series.len(), 6);

        let im2 = time_average(&by_label(&figure, "IM (N = 2)").y);
        let im10 = time_average(&by_label(&figure, "IM (N = 10)").y);
        let oo = time_average(&by_label(&figure, "OO (N = 2)").y);
        let mo = time_average(&by_label(&figure, "MO (N = 2)").y);
        let cml = time_average(&by_label(&figure, "CML (N = 2)").y);

        // (iii) IM benefits from more chaffs.
        assert!(im10 < im2, "im10 {im10} !< im2 {im2}");
        // (i) OO/MO/CML drive accuracy far below IM on the random model.
        assert!(oo < 0.35 * im2, "oo {oo} vs im2 {im2}");
        assert!(mo < 0.5 * im2, "mo {mo} vs im2 {im2}");
        assert!(cml < 0.5 * im2, "cml {cml} vs im2 {im2}");
        // Late-horizon accuracy of OO decays towards zero.
        let oo_tail = &by_label(&figure, "OO (N = 2)").y;
        let tail_mean = oo_tail[oo_tail.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!(tail_mean < 0.1, "OO tail = {tail_mean}");
    }

    #[test]
    fn skewed_models_are_harder_to_hide_in() {
        // (ii) more skewness -> higher tracking accuracy for IM.
        let config = SyntheticConfig {
            runs: 80,
            horizon: 40,
            ..SyntheticConfig::default()
        };
        let plain = run(&config, ModelKind::NonSkewed).unwrap();
        let skewed = run(&config, ModelKind::SpatioTemporallySkewed).unwrap();
        let im_plain = time_average(&by_label(&plain, "IM (N = 2)").y);
        let im_skewed = time_average(&by_label(&skewed, "IM (N = 2)").y);
        assert!(
            im_skewed > im_plain,
            "skewed {im_skewed} !> plain {im_plain}"
        );
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let config = SyntheticConfig {
            runs: 10,
            horizon: 20,
            ..SyntheticConfig::default()
        };
        let a = run(&config, ModelKind::TemporallySkewed).unwrap();
        let b = run(&config, ModelKind::TemporallySkewed).unwrap();
        assert_eq!(a, b);
    }
}
