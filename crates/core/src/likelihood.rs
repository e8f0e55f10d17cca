//! Per-slot log-likelihood differences between the user and a chaff.
//!
//! The paper's analysis revolves around the quantities (eqs. 14–15)
//!
//! ```text
//! c_1 = log π(x_{1,1}) − log π(x_{2,1})
//! c_t = log P(x_{1,t} | x_{1,t−1}) − log P(x_{2,t} | x_{2,t−1}),  t > 1
//! ```
//!
//! and their running sum `γ_t = Σ_{s≤t} c_s` — the gap between the user's
//! and the chaff's cumulative log-likelihoods. The ML detector prefers the
//! chaff exactly when `γ_t < 0`. Fig. 6 plots the empirical CDF of `c_t`
//! under the CML and MO strategies, and `E[c_t] < 0` is the condition for
//! exponential decay of the tracking accuracy (Theorems V.4 and V.5).

use crate::{CoreError, Result};
use chaff_markov::{MarkovChain, Trajectory};

/// The per-slot series `c_t` for a (user, chaff) trajectory pair.
///
/// Element 0 is `c_1` (the initial-distribution term); element `t` is the
/// transition term. Entries may be `±inf` when one of the trajectories
/// takes a zero-probability step.
///
/// # Errors
///
/// Returns an error when either trajectory is empty or their lengths differ.
pub fn ct_series(chain: &MarkovChain, user: &Trajectory, chaff: &Trajectory) -> Result<Vec<f64>> {
    if user.is_empty() || chaff.is_empty() {
        return Err(CoreError::EmptyTrajectory);
    }
    if user.len() != chaff.len() {
        return Err(CoreError::LengthMismatch {
            expected: user.len(),
            found: chaff.len(),
        });
    }
    let user_steps = chain.step_log_likelihoods(user);
    let chaff_steps = chain.step_log_likelihoods(chaff);
    Ok(user_steps
        .into_iter()
        .zip(chaff_steps)
        .map(|(u, c)| diff_with_infinities(u, c))
        .collect())
}

/// `a − b` with the convention that `(−inf) − (−inf) = 0` (both steps
/// impossible: neither trajectory gains likelihood over the other).
fn diff_with_infinities(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY && b == f64::NEG_INFINITY {
        0.0
    } else {
        a - b
    }
}

/// Empirical cumulative distribution function of a sample.
///
/// Returns the sorted sample paired with CDF values `i / n`; non-finite
/// samples are dropped (they correspond to impossible transitions and
/// carry no distributional information for Fig. 6).
pub fn empirical_cdf(mut samples: Vec<f64>) -> Vec<(f64, f64)> {
    samples.retain(|v| v.is_finite());
    samples.sort_by(f64::total_cmp);
    let n = samples.len() as f64;
    samples
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaff_markov::TransitionMatrix;

    fn chain() -> MarkovChain {
        let m = TransitionMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.3, 0.7]]).unwrap();
        MarkovChain::new(m).unwrap()
    }

    #[test]
    fn ct_matches_manual_computation() {
        let c = chain();
        let user = Trajectory::from_indices([0, 0]);
        let chaff = Trajectory::from_indices([1, 1]);
        let cts = ct_series(&c, &user, &chaff).unwrap();
        let pi = c.initial();
        let expected0 = pi.log_prob(user.cell(0)) - pi.log_prob(chaff.cell(0));
        assert!((cts[0] - expected0).abs() < 1e-12);
        let expected1 = (0.9f64).ln() - (0.7f64).ln();
        assert!((cts[1] - expected1).abs() < 1e-12);
    }

    #[test]
    fn identical_trajectories_have_zero_gap() {
        let c = chain();
        let x = Trajectory::from_indices([0, 1, 1, 0]);
        for ct in ct_series(&c, &x, &x).unwrap() {
            assert_eq!(ct, 0.0);
        }
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let c = chain();
        let user = Trajectory::from_indices([0, 1]);
        let chaff = Trajectory::from_indices([0]);
        assert!(matches!(
            ct_series(&c, &user, &chaff),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn empty_trajectory_is_an_error() {
        let c = chain();
        assert!(matches!(
            ct_series(&c, &Trajectory::new(), &Trajectory::new()),
            Err(CoreError::EmptyTrajectory)
        ));
    }

    #[test]
    fn impossible_step_gives_infinite_ct() {
        let m = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.5, 0.5]]).unwrap();
        let c = MarkovChain::new(m).unwrap();
        // The user self-loops at 0, which is impossible; the chaff moves
        // legally.
        let user = Trajectory::from_indices([0, 0]);
        let chaff = Trajectory::from_indices([0, 1]);
        let cts = ct_series(&c, &user, &chaff).unwrap();
        assert_eq!(cts[1], f64::NEG_INFINITY);
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let cdf = empirical_cdf(vec![0.3, -1.0, 0.2, f64::INFINITY, -0.5]);
        assert_eq!(cdf.len(), 4); // infinity dropped
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn cdf_of_empty_sample_is_empty() {
        assert!(empirical_cdf(vec![]).is_empty());
        assert!(empirical_cdf(vec![f64::NAN]).is_empty());
    }
}
