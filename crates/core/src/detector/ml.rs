//! The basic maximum-likelihood eavesdropper (eq. 1), full-trajectory
//! and per-prefix variants.

use super::{argmax_set, Detection};
use crate::{CoreError, Result};
use chaff_markov::{MarkovChain, Trajectory};

/// The basic eavesdropper: a maximum-likelihood detector (eq. 1).
///
/// Knows the user's mobility model (transition matrix and steady state,
/// e.g. from profiling typical users) but not the chaff-control strategy.
/// Among the observed trajectories it picks the one with the largest
/// likelihood `π(x_1) ∏ P(x_t | x_{t−1})`; under equal priors this is the
/// maximum-a-posteriori choice.
///
/// # Example
///
/// ```
/// use chaff_core::detector::MlDetector;
/// use chaff_markov::{MarkovChain, Trajectory, TransitionMatrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let m = TransitionMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.3, 0.7]])?;
/// let chain = MarkovChain::new(m)?;
/// let likely = Trajectory::from_indices([0, 0, 0]);
/// let unlikely = Trajectory::from_indices([0, 1, 0]);
/// let d = MlDetector.detect(&chain, &[unlikely, likely])?;
/// assert_eq!(d.tie_set(), &[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MlDetector;

impl MlDetector {
    /// Detects over full trajectories.
    ///
    /// # Errors
    ///
    /// Returns an error when no trajectories are supplied, when they are
    /// empty, or when their lengths differ.
    pub fn detect(&self, chain: &MarkovChain, observed: &[Trajectory]) -> Result<Detection> {
        let scores = full_log_likelihoods(chain, observed)?;
        Ok(Detection::new(argmax_set(&scores, None)))
    }

    /// Detects once per slot using trajectory prefixes: element `t` of the
    /// result is the decision an eavesdropper would make after observing
    /// slots `0..=t`.
    ///
    /// Runs in `O(N · T)` total — cumulative log-likelihoods are updated
    /// incrementally. For fleet-scale populations prefer
    /// [`BatchPrefixDetector`](super::BatchPrefixDetector), which produces
    /// identical detections from a cached likelihood table in parallel
    /// shards.
    ///
    /// # Errors
    ///
    /// Same conditions as [`detect`](MlDetector::detect).
    pub fn detect_prefixes(
        &self,
        chain: &MarkovChain,
        observed: &[Trajectory],
    ) -> Result<Vec<Detection>> {
        self.detect_prefixes_among(chain, observed, None)
    }

    /// [`detect_prefixes`](MlDetector::detect_prefixes) restricted to a
    /// candidate subset — the second stage of the advanced eavesdropper.
    /// Exposed so evaluation code can combine cached strategy-map filters
    /// with prefix detection.
    ///
    /// A `None` candidate set means all indices are candidates.
    ///
    /// # Errors
    ///
    /// Same conditions as [`detect`](MlDetector::detect).
    pub fn detect_prefixes_among(
        &self,
        chain: &MarkovChain,
        observed: &[Trajectory],
        candidates: Option<&[usize]>,
    ) -> Result<Vec<Detection>> {
        let horizon = validate_observations(chain, observed)?;
        let n = observed.len();
        let mut cumulative = vec![0.0f64; n];
        let steps: Vec<Vec<f64>> = observed
            .iter()
            .map(|x| chain.step_log_likelihoods(x))
            .collect();
        let mut out = Vec::with_capacity(horizon);
        for t in 0..horizon {
            for (acc, step) in cumulative.iter_mut().zip(&steps) {
                // -inf + inf cannot occur: increments are log-probs <= 0.
                *acc += step[t];
            }
            out.push(Detection::new(argmax_set(&cumulative, candidates)));
        }
        Ok(out)
    }
}

/// Validates an observation set: non-empty, equal-length, in-range
/// trajectories. Returns the common horizon.
///
/// Shared by every detector front-end so batch and per-trajectory paths
/// reject exactly the same inputs.
fn validate_observations(chain: &MarkovChain, observed: &[Trajectory]) -> Result<usize> {
    if observed.is_empty() {
        return Err(CoreError::NoTrajectories);
    }
    let horizon = observed[0].len();
    if horizon == 0 {
        return Err(CoreError::EmptyTrajectory);
    }
    for x in observed {
        if x.len() != horizon {
            return Err(CoreError::LengthMismatch {
                expected: horizon,
                found: x.len(),
            });
        }
        for cell in x.iter() {
            if cell.index() >= chain.num_states() {
                return Err(CoreError::CellOutOfRange {
                    cell: cell.index(),
                    states: chain.num_states(),
                });
            }
        }
    }
    Ok(horizon)
}

/// Validates the observation set and returns full-trajectory
/// log-likelihood scores.
pub(crate) fn full_log_likelihoods(
    chain: &MarkovChain,
    observed: &[Trajectory],
) -> Result<Vec<f64>> {
    validate_observations(chain, observed)?;
    Ok(observed.iter().map(|x| chain.log_likelihood(x)).collect())
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
    fn picks_highest_likelihood() {
        let c = chain();
        let stay = Trajectory::from_indices([0, 0, 0, 0]);
        let bounce = Trajectory::from_indices([0, 1, 0, 1]);
        let d = MlDetector.detect(&c, &[bounce, stay]).unwrap();
        assert_eq!(d.tie_set(), &[1]);
    }

    #[test]
    fn identical_trajectories_tie() {
        let c = chain();
        let x = Trajectory::from_indices([0, 0, 1]);
        let d = MlDetector.detect(&c, &[x.clone(), x.clone(), x]).unwrap();
        assert_eq!(d.tie_set(), &[0, 1, 2]);
    }

    #[test]
    fn prefix_detection_can_switch_over_time() {
        let c = chain();
        // a starts in the likelier cell but then keeps paying the 0.1-cost
        // transition; b starts worse but self-loops cheaply.
        let a = Trajectory::from_indices([0, 1, 0, 1, 0, 1]);
        let b = Trajectory::from_indices([1, 1, 1, 1, 1, 1]);
        let detections = MlDetector.detect_prefixes(&c, &[a, b]).unwrap();
        assert_eq!(detections[0].tie_set(), &[0]); // pi(0) = 0.75 > pi(1)
        assert_eq!(detections[5].tie_set(), &[1]); // b has overtaken
    }

    #[test]
    fn prefix_detection_last_slot_matches_full_detection() {
        let c = chain();
        let xs = vec![
            Trajectory::from_indices([0, 0, 1, 1]),
            Trajectory::from_indices([1, 0, 0, 0]),
            Trajectory::from_indices([0, 1, 1, 0]),
        ];
        let full = MlDetector.detect(&c, &xs).unwrap();
        let prefixes = MlDetector.detect_prefixes(&c, &xs).unwrap();
        assert_eq!(prefixes.last().unwrap(), &full);
    }

    #[test]
    fn prefix_detection_rejects_what_detect_rejects() {
        let c = chain();
        assert!(matches!(
            MlDetector.detect_prefixes(&c, &[]),
            Err(CoreError::NoTrajectories)
        ));
        assert!(matches!(
            MlDetector.detect_prefixes(&c, &[Trajectory::new()]),
            Err(CoreError::EmptyTrajectory)
        ));
        let short = Trajectory::from_indices([0]);
        let long = Trajectory::from_indices([0, 1]);
        assert!(matches!(
            MlDetector.detect_prefixes(&c, &[long.clone(), short]),
            Err(CoreError::LengthMismatch { .. })
        ));
        let out = Trajectory::from_indices([0, 5]);
        assert!(matches!(
            MlDetector.detect_prefixes_among(&c, &[long, out], None),
            Err(CoreError::CellOutOfRange { .. })
        ));
    }

    #[test]
    fn error_cases() {
        let c = chain();
        assert!(matches!(
            MlDetector.detect(&c, &[]),
            Err(CoreError::NoTrajectories)
        ));
        assert!(matches!(
            MlDetector.detect(&c, &[Trajectory::new()]),
            Err(CoreError::EmptyTrajectory)
        ));
        let short = Trajectory::from_indices([0]);
        let long = Trajectory::from_indices([0, 1]);
        assert!(matches!(
            MlDetector.detect(&c, &[long, short]),
            Err(CoreError::LengthMismatch { .. })
        ));
        let out = Trajectory::from_indices([5]);
        assert!(matches!(
            MlDetector.detect(&c, &[out]),
            Err(CoreError::CellOutOfRange { .. })
        ));
    }

    #[test]
    fn impossible_trajectories_lose_to_possible_ones() {
        let m = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.5, 0.5]]).unwrap();
        let c = MarkovChain::new(m).unwrap();
        let impossible = Trajectory::from_indices([0, 0]); // P(0->0) = 0
        let possible = Trajectory::from_indices([0, 1]);
        let d = MlDetector.detect(&c, &[impossible, possible]).unwrap();
        assert_eq!(d.tie_set(), &[1]);
    }
}
