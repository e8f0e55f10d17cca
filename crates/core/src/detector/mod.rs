//! The eavesdropper's side: trajectory detectors.
//!
//! A detector observes `N` anonymous service trajectories (one real user,
//! `N − 1` chaffs) and guesses which one belongs to the user. The basic
//! eavesdropper ([`MlDetector`]) knows the user's mobility model and runs
//! maximum-likelihood detection (eq. 1). The advanced eavesdropper
//! ([`AdvancedDetector`]) also knows the chaff-control strategy and filters
//! out trajectories the strategy would produce before running ML detection
//! (Sec. VI-A).
//!
//! Detection is exposed in two forms:
//!
//! * [`MlDetector::detect`] — one decision from full trajectories;
//! * [`MlDetector::detect_prefixes`] — one decision per slot `t` using only
//!   the first `t` observations, which is what "tracking accuracy at time
//!   t" means in the paper's figures (the eavesdropper tracks in real
//!   time).
//!
//! [`AdvancedDetector`] offers the same two forms. The fleet engine
//! uses [`BatchPrefixDetector`], which computes identical prefix
//! detections from cached likelihood tables in parallel shards (see
//! [`batch`]): [`BatchPrefixDetector::detect_prefixes`] takes one
//! [`DetectInput`] covering every model representation (chain, table,
//! per-class tables, registry) crossed with every observation
//! representation (trajectories, columnar grid, paged [`SlotRowSource`]
//! stream — see [`input`]).
//!
//! Ties are returned explicitly as the full argmax set; accuracy metrics
//! average over the set, which equals the expectation over the paper's
//! "random guess among ties" without adding Monte Carlo noise.

mod advanced;
pub mod batch;
pub mod input;
pub mod kernel;
mod ml;
pub mod streaming;

pub use advanced::AdvancedDetector;
pub use batch::{BatchPrefixDetector, MAX_POPULATION};
pub use input::{DetectInput, DetectModel, DetectObservations, GridRowSource, SlotRowSource};
pub use ml::MlDetector;
pub use streaming::{AccuracyFeedback, StreamingPrefixDetector};

/// Outcome of one detection decision: the set of trajectory indices that
/// attain the maximum posterior (usually a single element; larger on ties).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    tie_set: Vec<usize>,
}

impl Detection {
    /// Creates a detection from the argmax index set.
    ///
    /// # Panics
    ///
    /// Panics if `tie_set` is empty — a detector must always guess.
    pub fn new(tie_set: Vec<usize>) -> Self {
        assert!(
            !tie_set.is_empty(),
            "a detection must name at least one index"
        );
        Detection { tie_set }
    }

    /// The argmax index set (non-empty, strictly increasing).
    pub fn tie_set(&self) -> &[usize] {
        &self.tie_set
    }

    /// Probability that a uniform random guess over the tie set names
    /// `index`.
    pub fn prob_of(&self, index: usize) -> f64 {
        if self.tie_set.contains(&index) {
            1.0 / self.tie_set.len() as f64
        } else {
            0.0
        }
    }
}

/// Selects the argmax set of a score slice under the log-likelihood
/// tolerance, optionally restricted to `candidates`.
///
/// Returns indices in increasing order. Used by both detectors.
pub(crate) fn argmax_set(scores: &[f64], candidates: Option<&[usize]>) -> Vec<usize> {
    let indices: Vec<usize> = match candidates {
        Some(c) => c.to_vec(),
        None => (0..scores.len()).collect(),
    };
    let mut best = f64::NEG_INFINITY;
    for &i in &indices {
        if scores[i] > best {
            best = scores[i];
        }
    }
    indices
        .into_iter()
        .filter(|&i| crate::loglik_cmp(scores[i], best).is_eq())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_probability_splits_over_ties() {
        let d = Detection::new(vec![0, 2]);
        assert_eq!(d.prob_of(0), 0.5);
        assert_eq!(d.prob_of(1), 0.0);
        assert_eq!(d.prob_of(2), 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one index")]
    fn empty_detection_panics() {
        Detection::new(vec![]);
    }

    #[test]
    fn argmax_set_finds_all_ties() {
        let scores = [1.0, 3.0, 3.0 + 1e-12, -1.0];
        assert_eq!(argmax_set(&scores, None), vec![1, 2]);
    }

    #[test]
    fn argmax_set_respects_candidates() {
        let scores = [5.0, 3.0, 4.0];
        assert_eq!(argmax_set(&scores, Some(&[1, 2])), vec![2]);
    }

    #[test]
    fn argmax_set_with_all_neg_infinity() {
        let scores = [f64::NEG_INFINITY, f64::NEG_INFINITY];
        assert_eq!(argmax_set(&scores, None), vec![0, 1]);
    }
}
