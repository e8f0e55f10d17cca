//! The four synthetic mobility models of the paper's evaluation
//! (Sec. VII-A1, Fig. 4).
//!
//! * **(a) non-skewed** — transition probabilities drawn uniformly at
//!   random and row-normalized; neither spatially nor temporally skewed.
//! * **(b) spatially-skewed** — as (a) but one column ("cell 5" in the
//!   paper, index 4 here) is boosted to weight 2 before normalization, so
//!   every cell is likely to transit into the hot cell.
//! * **(c) temporally-skewed** — a wrapping (ring) random walk with
//!   probability `p = 0.5` of moving right, `q = 0.25` of moving left and
//!   `1 − p − q` of staying; uniform steady state but highly predictable
//!   steps. Transitions between non-adjacent cells get probability
//!   `ε = 1e-5`.
//! * **(d) spatially & temporally skewed** — the same walk without
//!   wrapping (steps beyond the boundary turn into "stay"), which tilts the
//!   steady state geometrically towards the high end.
//!
//! The paper's KL temporal-skewness figures for (a)–(d) are 0.44, 0.34,
//! 8.18 and 8.48; [`ModelKind::build`] reproduces those magnitudes (exact
//! values for (a) and (b) depend on the RNG draw).

use crate::{Result, TransitionMatrix};
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// Default hot-cell weight used by the spatially-skewed model
/// (the paper sets the j-th column to 2).
pub const DEFAULT_HOT_WEIGHT: f64 = 2.0;

/// Default index of the hot cell (the paper's `j = 5`, 1-indexed).
pub const DEFAULT_HOT_CELL: usize = 4;

/// Default probability of moving right in the random-walk models.
pub const DEFAULT_P_RIGHT: f64 = 0.5;

/// Default probability of moving left in the random-walk models.
pub const DEFAULT_Q_LEFT: f64 = 0.25;

/// Default probability of a jump between non-adjacent cells
/// (the paper's `ε = 1e-5`).
pub const DEFAULT_EPSILON: f64 = 1e-5;

/// Model (a): random transition weights in `[0, 1]`, rows normalized.
///
/// # Errors
///
/// Returns an error if `l == 0`.
pub fn random_dense<R: Rng + ?Sized>(l: usize, rng: &mut R) -> Result<TransitionMatrix> {
    let rows = (0..l)
        .map(|_| (0..l).map(|_| rng.random::<f64>()).collect())
        .collect();
    TransitionMatrix::from_weights(rows)
}

/// Model (b): random weights with column `hot_cell` set to `hot_weight`
/// before normalization, giving every cell a high probability of moving to
/// the hot cell.
///
/// # Errors
///
/// Returns an error if `l == 0` or `hot_cell >= l`.
pub fn spatially_skewed<R: Rng + ?Sized>(
    l: usize,
    hot_cell: usize,
    hot_weight: f64,
    rng: &mut R,
) -> Result<TransitionMatrix> {
    if hot_cell >= l {
        return Err(crate::MarkovError::CellOutOfRange {
            cell: hot_cell,
            states: l,
        });
    }
    let rows = (0..l)
        .map(|_| {
            (0..l)
                .map(|j| {
                    if j == hot_cell {
                        hot_weight
                    } else {
                        rng.random::<f64>()
                    }
                })
                .collect()
        })
        .collect();
    TransitionMatrix::from_weights(rows)
}

/// Model (c): wrapping ring random walk with right/left/stay probabilities
/// `p`, `q`, `1 − p − q` and `epsilon` weight on every non-adjacent cell.
///
/// Has a uniform steady state by symmetry.
///
/// # Errors
///
/// Returns an error if `l == 0`, probabilities are out of range, or
/// `p + q > 1`.
pub fn ring_walk(l: usize, p: f64, q: f64, epsilon: f64) -> Result<TransitionMatrix> {
    walk_weights(l, p, q, epsilon, true).and_then(TransitionMatrix::from_weights)
}

/// Model (d): the same walk without wrapping; moves past a boundary become
/// "stay", which skews the steady state towards the drift direction.
///
/// # Errors
///
/// See [`ring_walk`].
pub fn line_walk(l: usize, p: f64, q: f64, epsilon: f64) -> Result<TransitionMatrix> {
    walk_weights(l, p, q, epsilon, false).and_then(TransitionMatrix::from_weights)
}

fn walk_weights(l: usize, p: f64, q: f64, epsilon: f64, wrap: bool) -> Result<Vec<Vec<f64>>> {
    if l == 0 {
        return Err(crate::MarkovError::Empty);
    }
    for (value, name) in [(p, "p"), (q, "q"), (epsilon, "epsilon")] {
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            let _ = name;
            return Err(crate::MarkovError::InvalidProbability {
                row: 0,
                col: 0,
                value,
            });
        }
    }
    if p + q > 1.0 {
        return Err(crate::MarkovError::RowNotStochastic { row: 0, sum: p + q });
    }
    let stay = 1.0 - p - q;
    let mut rows = vec![vec![0.0; l]; l];
    for (i, row) in rows.iter_mut().enumerate() {
        let right = if i + 1 < l {
            Some(i + 1)
        } else if wrap {
            Some(0)
        } else {
            None
        };
        let left = if i > 0 {
            Some(i - 1)
        } else if wrap {
            Some(l - 1)
        } else {
            None
        };
        row[i] += stay;
        match right {
            Some(r) => row[r] += p,
            None => row[i] += p, // step beyond the boundary becomes "stay"
        }
        match left {
            Some(ml) => row[ml] += q,
            None => row[i] += q,
        }
        // The paper gives every remaining (non-adjacent) cell ε weight.
        for w in row.iter_mut() {
            if *w == 0.0 {
                *w = epsilon;
            }
        }
    }
    Ok(rows)
}

/// The four synthetic mobility models of Sec. VII-A1, with the paper's
/// default parameters baked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Model (a): neither spatially nor temporally skewed.
    NonSkewed,
    /// Model (b): spatially skewed (hot cell 5).
    SpatiallySkewed,
    /// Model (c): temporally skewed (wrapping drift walk).
    TemporallySkewed,
    /// Model (d): spatially and temporally skewed (non-wrapping drift walk).
    SpatioTemporallySkewed,
}

impl ModelKind {
    /// All four models in the paper's (a)–(d) order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::NonSkewed,
        ModelKind::SpatiallySkewed,
        ModelKind::TemporallySkewed,
        ModelKind::SpatioTemporallySkewed,
    ];

    /// Builds the transition matrix with the paper's default parameters.
    ///
    /// Models (a) and (b) consume randomness; (c) and (d) are deterministic
    /// but still take the RNG for a uniform interface.
    ///
    /// # Errors
    ///
    /// Returns an error if `l` is zero (or smaller than the hot-cell index
    /// for model (b)).
    pub fn build<R: Rng + ?Sized>(self, l: usize, rng: &mut R) -> Result<TransitionMatrix> {
        match self {
            ModelKind::NonSkewed => random_dense(l, rng),
            ModelKind::SpatiallySkewed => {
                let hot = DEFAULT_HOT_CELL.min(l.saturating_sub(1));
                spatially_skewed(l, hot, DEFAULT_HOT_WEIGHT, rng)
            }
            ModelKind::TemporallySkewed => {
                ring_walk(l, DEFAULT_P_RIGHT, DEFAULT_Q_LEFT, DEFAULT_EPSILON)
            }
            ModelKind::SpatioTemporallySkewed => {
                line_walk(l, DEFAULT_P_RIGHT, DEFAULT_Q_LEFT, DEFAULT_EPSILON)
            }
        }
    }

    /// The paper's one-letter label: `a`, `b`, `c` or `d`.
    pub fn letter(self) -> char {
        match self {
            ModelKind::NonSkewed => 'a',
            ModelKind::SpatiallySkewed => 'b',
            ModelKind::TemporallySkewed => 'c',
            ModelKind::SpatioTemporallySkewed => 'd',
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ModelKind::NonSkewed => "non-skewed",
            ModelKind::SpatiallySkewed => "spatially-skewed",
            ModelKind::TemporallySkewed => "temporally-skewed",
            ModelKind::SpatioTemporallySkewed => "spatially&temporally-skewed",
        };
        f.write_str(name)
    }
}

impl FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "a" | "non-skewed" | "nonskewed" => Ok(ModelKind::NonSkewed),
            "b" | "spatial" | "spatially-skewed" => Ok(ModelKind::SpatiallySkewed),
            "c" | "temporal" | "temporally-skewed" => Ok(ModelKind::TemporallySkewed),
            "d" | "both" | "spatially&temporally-skewed" | "spatiotemporal" => {
                Ok(ModelKind::SpatioTemporallySkewed)
            }
            other => Err(format!(
                "unknown model '{other}', expected one of a, b, c, d"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stationary::stationary;
    use crate::{entropy, CellId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_models_are_ergodic_stochastic() {
        let mut rng = StdRng::seed_from_u64(11);
        for kind in ModelKind::ALL {
            let m = kind.build(10, &mut rng).unwrap();
            assert_eq!(m.num_states(), 10);
            assert!(m.is_ergodic(), "{kind} not ergodic");
        }
    }

    #[test]
    fn spatially_skewed_concentrates_on_hot_cell() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = ModelKind::SpatiallySkewed.build(10, &mut rng).unwrap();
        let pi = stationary(&m).unwrap();
        let hot = CellId::new(DEFAULT_HOT_CELL);
        // Fig. 4(b): the hot cell carries around 0.3 steady-state mass.
        assert!(pi.prob(hot) > 0.2, "hot mass = {}", pi.prob(hot));
        assert_eq!(pi.argmax(None), hot);
    }

    #[test]
    fn ring_walk_has_uniform_stationary() {
        let m = ring_walk(10, 0.5, 0.25, 1e-5).unwrap();
        let pi = stationary(&m).unwrap();
        for i in 0..10 {
            assert!(
                (pi.prob(CellId::new(i)) - 0.1).abs() < 1e-6,
                "pi[{i}] = {}",
                pi.prob(CellId::new(i))
            );
        }
    }

    #[test]
    fn line_walk_skews_towards_drift() {
        let m = line_walk(10, 0.5, 0.25, 1e-5).unwrap();
        let pi = stationary(&m).unwrap();
        // Fig. 4(d): mass increases towards the high-index end, peaking
        // around 0.45-0.5.
        assert!(pi.prob(CellId::new(9)) > pi.prob(CellId::new(0)));
        assert!(pi.prob(CellId::new(9)) > 0.3);
        // Roughly geometric with ratio p/q = 2 in the bulk.
        let ratio = pi.prob(CellId::new(5)) / pi.prob(CellId::new(4));
        assert!((ratio - 2.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn kl_skewness_reproduces_paper_magnitudes() {
        // Paper (Sec. VII-A1): KL distances 0.44, 0.34, 8.18, 8.48 for
        // models a-d at L = 10. Random models vary with the seed, so check
        // magnitude bands rather than exact values.
        let mut rng = StdRng::seed_from_u64(2024);
        let a = entropy::avg_pairwise_row_kl(&ModelKind::NonSkewed.build(10, &mut rng).unwrap());
        let b =
            entropy::avg_pairwise_row_kl(&ModelKind::SpatiallySkewed.build(10, &mut rng).unwrap());
        let c =
            entropy::avg_pairwise_row_kl(&ModelKind::TemporallySkewed.build(10, &mut rng).unwrap());
        let d = entropy::avg_pairwise_row_kl(
            &ModelKind::SpatioTemporallySkewed
                .build(10, &mut rng)
                .unwrap(),
        );
        assert!((0.2..1.0).contains(&a), "model a KL = {a}");
        assert!((0.1..1.0).contains(&b), "model b KL = {b}");
        assert!(c > 5.0, "model c KL = {c}");
        assert!(d > 5.0, "model d KL = {d}");
        assert!(b < a, "spatial skew lowers row diversity: {b} vs {a}");
    }

    #[test]
    fn walk_rejects_bad_parameters() {
        assert!(ring_walk(0, 0.5, 0.25, 0.0).is_err());
        assert!(ring_walk(5, 0.8, 0.5, 0.0).is_err());
        assert!(ring_walk(5, -0.1, 0.5, 0.0).is_err());
        assert!(line_walk(5, 0.5, 0.25, 1.5).is_err());
    }

    #[test]
    fn spatially_skewed_rejects_out_of_range_hot_cell() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(spatially_skewed(3, 3, 2.0, &mut rng).is_err());
    }

    #[test]
    fn model_kind_parses_letters_and_names() {
        assert_eq!("a".parse::<ModelKind>().unwrap(), ModelKind::NonSkewed);
        assert_eq!(
            "spatially-skewed".parse::<ModelKind>().unwrap(),
            ModelKind::SpatiallySkewed
        );
        assert_eq!("D".parse::<ModelKind>().unwrap().letter(), 'd');
        assert!("x".parse::<ModelKind>().is_err());
    }

    #[test]
    fn two_cell_walks_still_valid() {
        // Degenerate sizes should not panic or produce invalid rows.
        let m = ring_walk(2, 0.5, 0.25, 1e-5).unwrap();
        assert!(m.is_ergodic());
        let m = line_walk(1, 0.5, 0.25, 0.0).unwrap();
        assert_eq!(m.prob(CellId::new(0), CellId::new(0)), 1.0);
    }
}
