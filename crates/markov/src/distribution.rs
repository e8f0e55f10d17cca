//! Probability distributions over cells: validation, sampling, total
//! variation and collision probability.

use crate::matrix::first_max;
use crate::{CellId, MarkovError, Result};
use rand::Rng;

/// Tolerance used when checking that a distribution sums to one.
const SUM_TOLERANCE: f64 = 1e-6;

/// A validated probability distribution over the cell space.
///
/// Used both for initial distributions and for stationary distributions
/// (the paper's `π`). Provides the aggregate quantities the analysis needs:
/// the collision probability `Σ_x π(x)²` of eq. (11), the largest and
/// second-largest masses (`π_max`, `π_2` of Theorem V.4), entropy, and
/// deterministic-tie-break argmax selection for the greedy strategies.
///
/// # Example
///
/// ```
/// use chaff_markov::StateDistribution;
///
/// # fn main() -> Result<(), chaff_markov::MarkovError> {
/// let d = StateDistribution::from_vec(vec![0.2, 0.5, 0.3])?;
/// assert_eq!(d.argmax(None).index(), 1);
/// assert!((d.collision_probability() - (0.04 + 0.25 + 0.09)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateDistribution {
    probs: Vec<f64>,
    /// Sequential prefix sums of `probs`, for inverse-CDF sampling.
    cdf: Vec<f64>,
    /// The last cell with positive mass: the sampling fallback when
    /// floating-point slack leaves a draw at or above the final sum.
    last_positive: usize,
}

impl StateDistribution {
    /// Builds a distribution from a probability vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty, contains negative or
    /// non-finite entries, or does not sum to one within `1e-6`.
    pub fn from_vec(probs: Vec<f64>) -> Result<Self> {
        if probs.is_empty() {
            return Err(MarkovError::Empty);
        }
        let mut sum = 0.0;
        for (j, &p) in probs.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(MarkovError::InvalidProbability {
                    row: 0,
                    col: j,
                    value: p,
                });
            }
            sum += p;
        }
        if (sum - 1.0).abs() > SUM_TOLERANCE {
            return Err(MarkovError::NotNormalized { sum });
        }
        Ok(Self::with_tables(probs))
    }

    /// Wraps a validated probability vector with its sampling tables.
    fn with_tables(probs: Vec<f64>) -> Self {
        let mut acc = 0.0;
        let cdf = probs
            .iter()
            .map(|&p| {
                acc += p;
                acc
            })
            .collect();
        let last_positive = probs.iter().rposition(|&p| p > 0.0).unwrap_or(0);
        StateDistribution {
            probs,
            cdf,
            last_positive,
        }
    }

    /// Builds a distribution by normalizing non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty, has invalid entries, or
    /// sums to zero.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(MarkovError::Empty);
        }
        let mut sum = 0.0;
        for (j, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(MarkovError::InvalidProbability {
                    row: 0,
                    col: j,
                    value: w,
                });
            }
            sum += w;
        }
        if sum <= 0.0 {
            return Err(MarkovError::NotNormalized { sum });
        }
        Self::from_vec(weights.into_iter().map(|w| w / sum).collect())
    }

    /// The uniform distribution over `n` cells.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] if `n == 0`.
    pub fn uniform(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(MarkovError::Empty);
        }
        Ok(Self::with_tables(vec![1.0 / n as f64; n]))
    }

    /// A point mass on `cell` over `n` cells.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `cell` is out of range.
    pub fn point_mass(n: usize, cell: CellId) -> Result<Self> {
        if n == 0 {
            return Err(MarkovError::Empty);
        }
        if cell.index() >= n {
            return Err(MarkovError::CellOutOfRange {
                cell: cell.index(),
                states: n,
            });
        }
        let mut probs = vec![0.0; n];
        probs[cell.index()] = 1.0;
        Ok(Self::with_tables(probs))
    }

    /// Number of cells in the space.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.probs.len()
    }

    /// Probability mass at `cell`.
    #[inline]
    pub fn prob(&self, cell: CellId) -> f64 {
        self.probs[cell.index()]
    }

    /// Natural-log probability; `-inf` when the mass is zero.
    #[inline]
    pub fn log_prob(&self, cell: CellId) -> f64 {
        let p = self.prob(cell);
        if p > 0.0 {
            p.ln()
        } else {
            f64::NEG_INFINITY
        }
    }

    /// The underlying probability slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }

    /// Most probable cell, excluding `exclude` if given.
    ///
    /// Ties break towards the lowest index (deterministic, known to the
    /// advanced eavesdropper per Sec. VI-A2).
    ///
    /// # Panics
    ///
    /// Panics if the exclusion removes the only cell of a one-cell space.
    pub fn argmax(&self, exclude: Option<CellId>) -> CellId {
        let kept = self.probs.iter().copied().enumerate();
        let kept = kept.filter(|&(j, _)| Some(CellId::new(j)) != exclude);
        CellId::new(first_max(kept).expect("non-empty distribution after exclusion"))
    }

    /// Largest mass (the paper's `π_max`).
    pub fn max(&self) -> f64 {
        self.probs.iter().copied().fold(0.0, f64::max)
    }

    /// Second-largest mass (the paper's `π_2`).
    pub fn second_max(&self) -> f64 {
        let mut best = 0.0f64;
        let mut second = 0.0f64;
        for &p in &self.probs {
            if p > best {
                second = best;
                best = p;
            } else if p > second {
                second = p;
            }
        }
        second
    }

    /// The collision probability `Σ_x π(x)²` — the probability that two
    /// independent draws coincide, which drives the IM-strategy accuracy
    /// floor of eq. (11).
    pub fn collision_probability(&self) -> f64 {
        self.probs.iter().map(|p| p * p).sum()
    }

    /// Shannon entropy in nats.
    pub fn entropy(&self) -> f64 {
        -self
            .probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>()
    }

    /// Samples one cell: one uniform draw, inverted through the cached
    /// prefix sums ([`quantile`](Self::quantile)).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CellId {
        self.quantile(rng.random())
    }

    /// Inverse-CDF lookup: the first cell whose sequential prefix sum
    /// exceeds `u`, or the last cell with positive mass when
    /// floating-point slack leaves `u` at or above the final sum.
    ///
    /// The prefix sums are the running totals a linear scan accumulates
    /// and they are monotone, so the search (`cdf_rank`) stops exactly
    /// where the scan would; a zero-mass cell repeats its predecessor's
    /// sum and can never be the first to exceed `u ≥ 0`.
    #[inline]
    pub fn quantile(&self, u: f64) -> CellId {
        let j = cdf_rank(&self.cdf, u);
        CellId::new(if j < self.cdf.len() {
            j
        } else {
            self.last_positive
        })
    }

    /// Total variation distance to another distribution.
    ///
    /// # Panics
    ///
    /// Panics if the two distributions have different lengths.
    pub fn total_variation(&self, other: &StateDistribution) -> f64 {
        crate::mixing::total_variation(&self.probs, &other.probs)
    }
}

/// Prefix-sum tables of at most this many entries are searched by
/// counting instead of by bisection: a short row fits in a few cache
/// lines, and a count has no data-dependent branch to mispredict.
const COUNT_SEARCH_MAX: usize = 16;

/// How many prefix sums are `≤ u`: the first position whose sum exceeds
/// `u` (`cdf.len()` when none does). Because `cdf` is non-decreasing,
/// the entries `≤ u` are exactly a prefix, so counting them gives the
/// same position as `partition_point`, which longer tables keep.
#[inline]
pub(crate) fn cdf_rank(cdf: &[f64], u: f64) -> usize {
    if cdf.len() <= COUNT_SEARCH_MAX {
        cdf.iter().map(|&acc| usize::from(acc <= u)).sum()
    } else {
        cdf.partition_point(|&acc| acc <= u)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Weights over 1–40 cells (so tables fall on both sides of
    /// [`COUNT_SEARCH_MAX`]), about a quarter of them zero, at least one
    /// positive.
    pub(crate) fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((0u8..4, 0.01f64..1.0), 1usize..=40).prop_map(|cells| {
            let mut weights: Vec<f64> = cells
                .iter()
                .map(|&(tag, w)| if tag == 0 { 0.0 } else { w })
                .collect();
            if weights.iter().all(|&w| w == 0.0) {
                weights[0] = 1.0;
            }
            weights
        })
    }

    /// Search keys over a prefix-sum table: every sum exactly, 0, the
    /// final sum and the next float past it, 1, 2, and `u`.
    pub(crate) fn probes(cdf: &[f64], u: f64) -> Vec<f64> {
        let last = cdf[cdf.len() - 1];
        let mut keys = cdf.to_vec();
        keys.extend([0.0, last, f64::from_bits(last.to_bits() + 1), 1.0, 2.0, u]);
        keys
    }

    proptest! {
        #[test]
        fn count_search_equals_bisection_and_the_old_fallback(
            weights in arb_weights(),
            u in 0.0f64..1.0,
        ) {
            let d = StateDistribution::from_weights(weights).unwrap();
            for u in probes(&d.cdf, u) {
                let bisected = d.cdf.partition_point(|&acc| acc <= u);
                prop_assert_eq!(cdf_rank(&d.cdf, u), bisected);
                let old = if bisected < d.cdf.len() {
                    bisected
                } else {
                    d.last_positive
                };
                prop_assert_eq!(d.quantile(u), CellId::new(old));
            }
        }
    }

    #[test]
    fn rejects_unnormalized() {
        assert!(matches!(
            StateDistribution::from_vec(vec![0.5, 0.6]).unwrap_err(),
            MarkovError::NotNormalized { .. }
        ));
    }

    #[test]
    fn rejects_empty_and_negative() {
        assert_eq!(
            StateDistribution::from_vec(vec![]).unwrap_err(),
            MarkovError::Empty
        );
        assert!(matches!(
            StateDistribution::from_vec(vec![1.5, -0.5]).unwrap_err(),
            MarkovError::InvalidProbability { .. }
        ));
    }

    #[test]
    fn from_weights_normalizes() {
        let d = StateDistribution::from_weights(vec![1.0, 3.0]).unwrap();
        assert!((d.prob(CellId::new(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn point_mass_checks_range() {
        assert!(StateDistribution::point_mass(3, CellId::new(3)).is_err());
        let d = StateDistribution::point_mass(3, CellId::new(1)).unwrap();
        assert_eq!(d.prob(CellId::new(1)), 1.0);
        assert_eq!(d.log_prob(CellId::new(0)), f64::NEG_INFINITY);
    }

    #[test]
    fn argmax_with_exclusion() {
        let d = StateDistribution::from_vec(vec![0.2, 0.5, 0.3]).unwrap();
        assert_eq!(d.argmax(None), CellId::new(1));
        assert_eq!(d.argmax(Some(CellId::new(1))), CellId::new(2));
    }

    #[test]
    fn argmax_tie_breaks_low() {
        let d = StateDistribution::from_vec(vec![0.4, 0.4, 0.2]).unwrap();
        assert_eq!(d.argmax(None), CellId::new(0));
    }

    #[test]
    fn maxima_and_collision() {
        let d = StateDistribution::from_vec(vec![0.5, 0.3, 0.2]).unwrap();
        assert_eq!(d.max(), 0.5);
        assert_eq!(d.second_max(), 0.3);
        let expected = 0.25 + 0.09 + 0.04;
        assert!((d.collision_probability() - expected).abs() < 1e-12);
    }

    #[test]
    fn uniform_entropy_is_log_n() {
        let d = StateDistribution::uniform(8).unwrap();
        assert!((d.entropy() - (8.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn lemma_v1_collision_at_most_max() {
        // Lemma V.1: sum of squares <= max, equality iff uniform.
        let skewed = StateDistribution::from_vec(vec![0.7, 0.2, 0.1]).unwrap();
        assert!(skewed.collision_probability() <= skewed.max() + 1e-12);
        let uniform = StateDistribution::uniform(5).unwrap();
        assert!((uniform.collision_probability() - uniform.max()).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let d = StateDistribution::from_vec(vec![0.1, 0.9]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let ones = (0..n)
            .filter(|_| d.sample(&mut rng) == CellId::new(1))
            .count();
        let freq = ones as f64 / n as f64;
        assert!((freq - 0.9).abs() < 0.02, "freq = {freq}");
    }

    #[test]
    fn sample_handles_point_mass_tail() {
        let d = StateDistribution::point_mass(4, CellId::new(2)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), CellId::new(2));
        }
    }
}
