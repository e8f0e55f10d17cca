//! Chaff-based location privacy for mobile edge clouds.
//!
//! This crate implements the primary contribution of *Location Privacy in
//! Mobile Edge Clouds: A Chaff-based Approach* (He, Ciftcioglu, Wang,
//! Chan; ICDCS'17 / arXiv:1709.03133): an eavesdropper who observes service
//! migrations between MECs can track a mobile user, and the user defends by
//! launching *chaff* services whose migrations are controlled to confuse
//! the eavesdropper.
//!
//! # The two sides
//!
//! **Eavesdropper** ([`detector`]): given `N` observed service trajectories,
//! pick the user's. The basic eavesdropper runs maximum-likelihood
//! detection under the user's mobility model (eq. 1). The *advanced*
//! eavesdropper additionally knows the user's chaff-control strategy and
//! filters out trajectories the strategy would have produced (Sec. VI-A).
//!
//! **User** ([`strategy`]): control the chaffs' mobility. Implemented
//! strategies, in the paper's order:
//!
//! | Strategy | Kind | Idea |
//! |---|---|---|
//! | [`strategy::ImStrategy`] | randomized | chaffs move like i.i.d. copies of the user |
//! | [`strategy::MlStrategy`] | deterministic, offline | globally most-likely trajectory (trellis shortest path, Fig. 2) |
//! | [`strategy::CmlStrategy`] | deterministic, online | greedy most-likely move that never co-locates (Sec. V-C) |
//! | [`strategy::OoStrategy`] | deterministic, offline | minimize co-location subject to winning the likelihood race (Algorithm 1) |
//! | [`strategy::MoStrategy`] | deterministic, online | myopic per-slot cost minimization (Algorithm 2) |
//! | [`strategy::RmlStrategy`], [`strategy::RooStrategy`], [`strategy::RmoStrategy`] | randomized | avoid-set perturbations robust to strategy-aware eavesdroppers (Sec. VI-B) |
//!
//! [`theory`] evaluates the paper's closed forms and concentration bounds
//! (eq. 11, Theorems V.4/V.5, Corollary V.6) so simulations can be checked
//! against analysis.
//!
//! # Example
//!
//! ```
//! use chaff_core::detector::MlDetector;
//! use chaff_core::metrics::tracking_accuracy_series;
//! use chaff_core::strategy::{ChaffStrategy, OoStrategy};
//! use chaff_markov::{models::ModelKind, MarkovChain};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(42);
//! let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
//! let user = chain.sample_trajectory(60, &mut rng);
//!
//! // One optimally-controlled chaff...
//! let chaffs = OoStrategy.generate(&chain, &user, 1, &mut rng)?;
//!
//! // ...versus a maximum-likelihood eavesdropper.
//! let mut observed = vec![user.clone()];
//! observed.extend(chaffs);
//! let detections = MlDetector.detect_prefixes(&chain, &observed)?;
//! let accuracy = tracking_accuracy_series(&observed, 0, &detections);
//! let time_avg = accuracy.iter().sum::<f64>() / accuracy.len() as f64;
//! assert!(time_avg < 0.5, "the chaff should defeat most tracking");
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
// The PR-8 detection shims stay one release for downstream callers, but
// no call site inside the crate may regress onto them.
#![deny(deprecated)]
#![warn(missing_docs)]

mod error;

pub mod detector;
pub mod likelihood;
pub mod metrics;
pub mod pool;
pub mod strategy;
pub mod theory;
pub mod trellis;

pub use error::CoreError;

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Absolute tolerance used when comparing accumulated log-likelihoods.
///
/// Path costs are sums of up to `T` logarithms computed in different
/// association orders by different algorithms; two mathematically equal
/// costs can drift apart by a few ulps per term. All likelihood-race
/// comparisons in this crate (detector ties, constraint (5) of the OO
/// strategy, the MO acceptance test) treat values within this tolerance as
/// equal.
pub const LOG_LIKELIHOOD_TOLERANCE: f64 = 1e-9;

/// Compares accumulated log-likelihood values with tolerance.
///
/// Returns `Ordering::Equal` when the values are within
/// [`LOG_LIKELIHOOD_TOLERANCE`]; infinities compare exactly.
pub fn loglik_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    if a == b || (a - b).abs() <= LOG_LIKELIHOOD_TOLERANCE {
        Ordering::Equal
    } else if a < b {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

/// Derives the seed of stream `index` from a base seed: SplitMix64 over
/// `base ^ index·φ` (φ the 64-bit golden-ratio constant).
///
/// Every seeded fan-out in the workspace uses it (fleet users and their
/// chaff lanes, Monte Carlo runs, replicated trace nodes), so sibling
/// streams never correlate the way `base + index` seeds would.
#[inline]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn derive_seed_outputs_are_pinned() {
        // Every seeded golden in the workspace hangs off these values.
        assert_eq!(derive_seed(0, 0), 0); // SplitMix64's fixed point
        assert_eq!(derive_seed(1, 0), 0x5692_161d_100b_05e5);
        assert_eq!(derive_seed(42, 7), 0x53ad_348a_f3dd_af4b);
        assert_eq!(derive_seed(u64::MAX, u64::MAX), 0xe4d9_7177_1b65_2c20);
    }

    #[test]
    fn loglik_cmp_tolerates_drift() {
        assert_eq!(loglik_cmp(1.0, 1.0 + 1e-12), Ordering::Equal);
        assert_eq!(loglik_cmp(1.0, 1.1), Ordering::Less);
        assert_eq!(loglik_cmp(1.1, 1.0), Ordering::Greater);
    }

    #[test]
    fn loglik_cmp_handles_infinities() {
        assert_eq!(
            loglik_cmp(f64::NEG_INFINITY, f64::NEG_INFINITY),
            Ordering::Equal
        );
        assert_eq!(loglik_cmp(f64::NEG_INFINITY, 0.0), Ordering::Less);
        assert_eq!(loglik_cmp(0.0, f64::NEG_INFINITY), Ordering::Greater);
    }
}
