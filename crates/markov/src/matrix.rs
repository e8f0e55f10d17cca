//! Row-stochastic transition matrices with cached sparsity support.

use crate::distribution::cdf_rank;
use crate::{CellId, MarkovError, Result};

/// Tolerance used when checking that a row sums to one.
const ROW_SUM_TOLERANCE: f64 = 1e-6;

/// A validated row-stochastic transition matrix over a finite cell space.
///
/// This is the matrix `P = (P(x_t | x_{t-1}))` of the paper's user mobility
/// model (Sec. II-C). Rows are indexed by the *origin* cell and columns by
/// the *destination* cell, so `prob(from, to)` is the probability of moving
/// from `from` to `to` in one slot.
///
/// Besides dense storage, the matrix keeps a sorted support list per row
/// (the columns with strictly positive probability). Empirical matrices
/// estimated from traces are extremely sparse, and every downstream
/// algorithm (trellis shortest path, the OO dynamic program, the greedy
/// online strategies) iterates supports instead of full rows, which is what
/// makes the paper's 959-cell trace experiments tractable.
///
/// # Example
///
/// ```
/// use chaff_markov::{CellId, TransitionMatrix};
///
/// # fn main() -> Result<(), chaff_markov::MarkovError> {
/// let matrix = TransitionMatrix::from_rows(vec![
///     vec![0.5, 0.5],
///     vec![0.25, 0.75],
/// ])?;
/// assert_eq!(matrix.num_states(), 2);
/// assert_eq!(matrix.prob(CellId::new(1), CellId::new(0)), 0.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrix {
    n: usize,
    /// Row-major dense probabilities, length `n * n`.
    data: Vec<f64>,
    /// The per-row support tables, built once at construction.
    rows: RowTables,
}

/// Marks an absent runner-up in [`RowTables::ranked`].
const NO_ENTRY: u32 = u32::MAX;

/// Per-row tables over each row's support, stored flat (CSR): row `i`
/// owns entries `starts[i]..starts[i + 1]` of `support`, `cdf` and
/// `log_probs`. Everything is `nnz`-sized, so sparse matrices stay cheap.
///
/// The tables are pure functions of the dense data, computed with the
/// exact arithmetic the per-call scans used to perform, so every value
/// read from them is bit-for-bit the value a scan would produce.
#[derive(Debug, Clone, PartialEq)]
struct RowTables {
    starts: Vec<usize>,
    /// Sorted column indices with positive probability.
    support: Vec<u32>,
    /// Sequential prefix sums of each row's support probabilities,
    /// accumulated in support order.
    cdf: Vec<f64>,
    /// `ln p` of each support entry.
    log_probs: Vec<f64>,
    /// Per row, the row-local positions of the argmax and of the
    /// runner-up (the argmax with the first excluded), ties towards the
    /// lowest index; [`NO_ENTRY`] when the row has a single successor.
    ranked: Vec<[u32; 2]>,
}

impl RowTables {
    /// Builds the tables from a validated row-major `n × n` buffer.
    fn build(data: &[f64], n: usize) -> Self {
        let nnz = data.iter().filter(|&&p| p > 0.0).count();
        let mut tables = RowTables {
            starts: Vec::with_capacity(n + 1),
            support: Vec::with_capacity(nnz),
            cdf: Vec::with_capacity(nnz),
            log_probs: Vec::with_capacity(nnz),
            ranked: Vec::with_capacity(n),
        };
        tables.starts.push(0);
        for row in data.chunks_exact(n) {
            let lo = tables.support.len();
            let mut acc = 0.0;
            for (j, &p) in row.iter().enumerate() {
                if p > 0.0 {
                    acc += p;
                    tables.support.push(j as u32);
                    tables.cdf.push(acc);
                    tables.log_probs.push(p.ln());
                }
            }
            let probs = || tables.support[lo..].iter().map(|&j| row[j as usize]);
            let first = argmax_position(probs(), NO_ENTRY);
            let second = argmax_position(probs(), first);
            tables.ranked.push([first, second]);
            tables.starts.push(tables.support.len());
        }
        tables
    }

    #[inline]
    fn range(&self, row: usize) -> std::ops::Range<usize> {
        self.starts[row]..self.starts[row + 1]
    }
}

/// Position of the largest value, skipping position `skip`; ties break
/// towards the lowest position, exactly like the per-call argmax scans.
/// [`NO_ENTRY`] when nothing is left.
fn argmax_position(values: impl Iterator<Item = f64>, skip: u32) -> u32 {
    let mut best: Option<(u32, f64)> = None;
    for (k, p) in values.enumerate() {
        let k = k as u32;
        if k == skip {
            continue;
        }
        match best {
            Some((_, bp)) if bp >= p => {}
            _ => best = Some((k, p)),
        }
    }
    best.map_or(NO_ENTRY, |(k, _)| k)
}

/// A successor cell with its cached transition log-probability; see
/// [`TransitionMatrix::ranked_successors`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedSuccessor {
    /// The destination cell.
    pub cell: CellId,
    /// `ln P(cell | from)`, bit-for-bit [`TransitionMatrix::log_prob`].
    pub log_prob: f64,
}

impl TransitionMatrix {
    /// Builds a matrix from per-row probability vectors.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is empty, rows have inconsistent
    /// lengths, any entry is negative or non-finite, or any row does not
    /// sum to one (within `1e-6`).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        let n = rows.len();
        if n == 0 {
            return Err(MarkovError::Empty);
        }
        let mut data = Vec::with_capacity(n * n);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(MarkovError::NotSquare {
                    rows: n,
                    data_len: n * row.len(),
                });
            }
            for (j, &p) in row.iter().enumerate() {
                if !p.is_finite() || p < 0.0 {
                    return Err(MarkovError::InvalidProbability {
                        row: i,
                        col: j,
                        value: p,
                    });
                }
            }
            data.extend_from_slice(row);
        }
        Self::from_flat(n, data)
    }

    /// Builds a matrix from a row-major flat buffer of `n * n` entries.
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as [`from_rows`].
    ///
    /// [`from_rows`]: TransitionMatrix::from_rows
    pub fn from_flat(n: usize, data: Vec<f64>) -> Result<Self> {
        if n == 0 {
            return Err(MarkovError::Empty);
        }
        if data.len() != n * n {
            return Err(MarkovError::NotSquare {
                rows: n,
                data_len: data.len(),
            });
        }
        for i in 0..n {
            let row = &data[i * n..(i + 1) * n];
            let mut sum = 0.0;
            for (j, &p) in row.iter().enumerate() {
                if !p.is_finite() || p < 0.0 {
                    return Err(MarkovError::InvalidProbability {
                        row: i,
                        col: j,
                        value: p,
                    });
                }
                sum += p;
            }
            if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
                return Err(MarkovError::RowNotStochastic { row: i, sum });
            }
        }
        let rows = RowTables::build(&data, n);
        Ok(TransitionMatrix { n, data, rows })
    }

    /// Builds a matrix by normalizing non-negative row weights.
    ///
    /// Each row is divided by its sum; this is how the paper constructs the
    /// synthetic models ("generating a matrix of random values ... and
    /// normalizing each row").
    ///
    /// # Errors
    ///
    /// Returns an error if the input is empty or ragged, any weight is
    /// negative or non-finite, or a row sums to zero.
    pub fn from_weights(rows: Vec<Vec<f64>>) -> Result<Self> {
        let n = rows.len();
        if n == 0 {
            return Err(MarkovError::Empty);
        }
        let mut normalized = Vec::with_capacity(n);
        for (i, row) in rows.into_iter().enumerate() {
            if row.len() != n {
                return Err(MarkovError::NotSquare {
                    rows: n,
                    data_len: n * row.len(),
                });
            }
            let mut sum = 0.0;
            for (j, &w) in row.iter().enumerate() {
                if !w.is_finite() || w < 0.0 {
                    return Err(MarkovError::InvalidProbability {
                        row: i,
                        col: j,
                        value: w,
                    });
                }
                sum += w;
            }
            if sum <= 0.0 {
                return Err(MarkovError::RowNotStochastic { row: i, sum });
            }
            normalized.push(row.into_iter().map(|w| w / sum).collect());
        }
        Self::from_rows(normalized)
    }

    /// Builds the uniform matrix where every transition has probability `1/n`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] if `n == 0`.
    pub fn uniform(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(MarkovError::Empty);
        }
        let p = 1.0 / n as f64;
        Self::from_flat(n, vec![p; n * n])
    }

    /// Builds the identity matrix (every state is absorbing).
    ///
    /// Useful as a degenerate fixture in tests; note it is not ergodic for
    /// `n > 1`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] if `n == 0`.
    pub fn identity(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(MarkovError::Empty);
        }
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Self::from_flat(n, data)
    }

    /// Number of states (cells) in the space.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Transition probability `P(to | from)`.
    ///
    /// # Panics
    ///
    /// Panics if either cell index is out of range.
    #[inline]
    pub fn prob(&self, from: CellId, to: CellId) -> f64 {
        self.data[from.index() * self.n + to.index()]
    }

    /// Natural-log transition probability; `-inf` when the probability is 0.
    ///
    /// Read from the log table cached at construction (a binary search of
    /// the row's support), never recomputed.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    #[inline]
    pub fn log_prob(&self, from: CellId, to: CellId) -> f64 {
        let range = self.rows.range(from.index());
        let lo = range.start;
        match self.rows.support[range].binary_search(&(to.index() as u32)) {
            Ok(k) => self.rows.log_probs[lo + k],
            Err(_) => f64::NEG_INFINITY,
        }
    }

    /// The dense probability row for origin `from`.
    #[inline]
    pub fn row(&self, from: CellId) -> &[f64] {
        &self.data[from.index() * self.n..(from.index() + 1) * self.n]
    }

    /// Sorted destination indices with positive probability from `from`.
    #[inline]
    pub fn support(&self, from: CellId) -> &[u32] {
        &self.rows.support[self.rows.range(from.index())]
    }

    /// Iterates `(destination, probability)` pairs with positive probability,
    /// in increasing destination order.
    pub fn successors(&self, from: CellId) -> impl Iterator<Item = (CellId, f64)> + '_ {
        let row = self.row(from);
        self.support(from)
            .iter()
            .map(move |&j| (CellId::new(j as usize), row[j as usize]))
    }

    /// Total number of positive entries across all rows.
    pub fn nnz(&self) -> usize {
        self.rows.support.len()
    }

    /// Inverse-CDF draw from row `from`: the first successor whose
    /// sequential prefix sum exceeds `u`, or the last successor when
    /// floating-point slack leaves `u` at or above the final prefix sum.
    ///
    /// The prefix sums are the running totals a linear scan of the row
    /// accumulates, and they are monotone, so the search (a count over
    /// short rows, a binary search over long ones) finds exactly the
    /// successor the scan would stop at.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    #[inline]
    pub fn successor_quantile(&self, from: CellId, u: f64) -> CellId {
        let range = self.rows.range(from.index());
        let support = &self.rows.support[range.clone()];
        let k = cdf_rank(&self.rows.cdf[range], u);
        match support.get(k).or(support.last()) {
            Some(&j) => CellId::new(j as usize),
            // Unreachable for a validated matrix (every row has mass).
            None => from,
        }
    }

    /// The most likely successor of `from` and the runner-up (the most
    /// likely once the first is excluded), with their log-probabilities.
    /// Ties break towards the lowest cell index. Precomputed per row, so
    /// this is two table reads.
    #[inline]
    pub fn ranked_successors(
        &self,
        from: CellId,
    ) -> (Option<RankedSuccessor>, Option<RankedSuccessor>) {
        let lo = self.rows.starts[from.index()];
        let entry = |k: u32| {
            (k != NO_ENTRY).then(|| RankedSuccessor {
                cell: CellId::new(self.rows.support[lo + k as usize] as usize),
                log_prob: self.rows.log_probs[lo + k as usize],
            })
        };
        let [first, second] = self.rows.ranked[from.index()];
        (entry(first), entry(second))
    }

    /// Most likely destination from `from`, excluding `exclude` if given.
    ///
    /// Ties break towards the lowest cell index, which makes every strategy
    /// built on this helper deterministic — the paper's advanced-eavesdropper
    /// analysis assumes the tie-breaker is known (Sec. VI-A2).
    ///
    /// Returns `None` when every admissible destination has zero probability.
    pub fn argmax_successor(&self, from: CellId, exclude: Option<CellId>) -> Option<(CellId, f64)> {
        // Excluding anything but the argmax leaves the argmax; excluding
        // the argmax leaves the runner-up.
        let (first, second) = self.ranked_successors(from);
        let pick = match first {
            Some(f) if Some(f.cell) == exclude => second,
            other => other,
        };
        pick.map(|s| (s.cell, self.prob(from, s.cell)))
    }

    /// Largest transition probability in the whole matrix (the paper's
    /// `p_max`).
    pub fn max_prob(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// Smallest *positive* transition probability (the paper's `p_min`).
    ///
    /// Returns `None` for the (invalid) all-zero matrix, which construction
    /// rules out.
    pub fn min_positive_prob(&self) -> Option<f64> {
        self.data
            .iter()
            .copied()
            .filter(|&p| p > 0.0)
            .fold(None, |acc, p| Some(acc.map_or(p, |a: f64| a.min(p))))
    }

    /// Second-largest probability in row `from` (the paper's `p_2(x')`),
    /// i.e. the largest probability attainable after excluding one copy of
    /// the row maximum.
    ///
    /// Returns 0 when the row has a single positive entry.
    pub fn second_max_in_row(&self, from: CellId) -> f64 {
        let mut best = 0.0f64;
        let mut second = 0.0f64;
        for (_, p) in self.successors(from) {
            if p > best {
                second = best;
                best = p;
            } else if p > second {
                second = p;
            }
        }
        second
    }

    /// Minimum over rows of the second-largest row probability (the paper's
    /// `p_2 = min_{x'} p_2(x')`).
    pub fn p2(&self) -> f64 {
        (0..self.n)
            .map(|i| self.second_max_in_row(CellId::new(i)))
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether the support digraph is strongly connected (irreducible chain).
    pub fn is_irreducible(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        self.reaches_all_forward() && self.reaches_all_backward()
    }

    /// Whether the chain is aperiodic, assuming it is irreducible.
    ///
    /// Computes the gcd of closed-walk lengths through state 0 using the
    /// standard BFS-level argument; an irreducible chain is aperiodic iff
    /// that gcd is 1. A self-loop anywhere makes an irreducible chain
    /// aperiodic immediately.
    pub fn is_aperiodic(&self) -> bool {
        if (0..self.n).any(|i| self.prob(CellId::new(i), CellId::new(i)) > 0.0) {
            return true;
        }
        // gcd of (level(u) + 1 - level(v)) over all edges u -> v, from a BFS
        // rooted at state 0.
        let mut level = vec![usize::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        level[0] = 0;
        queue.push_back(0usize);
        let mut g: usize = 0;
        while let Some(u) = queue.pop_front() {
            for &jv in self.support(CellId::new(u)) {
                let v = jv as usize;
                if level[v] == usize::MAX {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                } else {
                    let diff = (level[u] + 1).abs_diff(level[v]);
                    g = gcd(g, diff);
                    if g == 1 {
                        return true;
                    }
                }
            }
        }
        g == 1
    }

    /// Whether the chain is ergodic (irreducible and aperiodic), i.e. has a
    /// unique stationary distribution that every start converges to.
    pub fn is_ergodic(&self) -> bool {
        self.is_irreducible() && self.is_aperiodic()
    }

    /// Multiplies a distribution (row vector) by this matrix: `out = d P`.
    ///
    /// Iterates row supports, so the cost is `O(nnz)` rather than `O(n^2)`.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != num_states()` (debug assertion) — callers inside
    /// this workspace always pass matching dimensions.
    pub(crate) fn apply_left(&self, d: &[f64], out: &mut [f64]) {
        debug_assert_eq!(d.len(), self.n);
        debug_assert_eq!(out.len(), self.n);
        out.fill(0.0);
        for (i, &mass) in d.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            let row = &self.data[i * self.n..(i + 1) * self.n];
            for &j in self.support(CellId::new(i)) {
                out[j as usize] += mass * row[j as usize];
            }
        }
    }

    fn reaches_all_forward(&self) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &j in self.support(CellId::new(u)) {
                let v = j as usize;
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.n
    }

    fn reaches_all_backward(&self) -> bool {
        // Build reverse adjacency once.
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); self.n];
        for u in 0..self.n {
            for &j in self.support(CellId::new(u)) {
                rev[j as usize].push(u as u32);
            }
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &j in &rev[u] {
                let v = j as usize;
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.n
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::tests::{arb_weights, probes};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn successor_draw_equals_bisection_and_the_old_fallback(
            weights in arb_weights(),
            u in 0.0f64..1.0,
        ) {
            // Row `i` is the weights rotated by `i`: every row has the
            // same support size, 1–40 entries.
            let n = weights.len();
            let rows = (0..n)
                .map(|i| (0..n).map(|j| weights[(j + i) % n]).collect())
                .collect();
            let m = TransitionMatrix::from_weights(rows).unwrap();
            for from in (0..n).map(CellId::new) {
                let range = m.rows.range(from.index());
                let (support, cdf) = (&m.rows.support[range.clone()], &m.rows.cdf[range]);
                for u in probes(cdf, u) {
                    let bisected = cdf.partition_point(|&acc| acc <= u);
                    prop_assert_eq!(cdf_rank(cdf, u), bisected);
                    let old = support.get(bisected).or(support.last()).unwrap();
                    prop_assert_eq!(m.successor_quantile(from, u), CellId::new(*old as usize));
                }
            }
        }
    }

    fn two_state() -> TransitionMatrix {
        TransitionMatrix::from_rows(vec![vec![0.5, 0.5], vec![0.25, 0.75]]).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            TransitionMatrix::from_rows(vec![]).unwrap_err(),
            MarkovError::Empty
        );
    }

    #[test]
    fn rejects_non_square() {
        let err = TransitionMatrix::from_rows(vec![vec![1.0, 0.0]]).unwrap_err();
        assert!(matches!(err, MarkovError::NotSquare { .. }));
    }

    #[test]
    fn rejects_bad_row_sum() {
        let err = TransitionMatrix::from_rows(vec![vec![0.5, 0.4], vec![0.5, 0.5]]).unwrap_err();
        assert!(matches!(err, MarkovError::RowNotStochastic { row: 0, .. }));
    }

    #[test]
    fn rejects_negative_entry() {
        let err = TransitionMatrix::from_rows(vec![vec![1.5, -0.5], vec![0.5, 0.5]]).unwrap_err();
        assert!(matches!(
            err,
            MarkovError::InvalidProbability { row: 0, col: 1, .. }
        ));
    }

    #[test]
    fn rejects_nan() {
        let err =
            TransitionMatrix::from_rows(vec![vec![f64::NAN, 1.0], vec![0.5, 0.5]]).unwrap_err();
        assert!(matches!(err, MarkovError::InvalidProbability { .. }));
    }

    #[test]
    fn from_weights_normalizes() {
        let m = TransitionMatrix::from_weights(vec![vec![2.0, 2.0], vec![1.0, 3.0]]).unwrap();
        assert!((m.prob(CellId::new(0), CellId::new(1)) - 0.5).abs() < 1e-12);
        assert!((m.prob(CellId::new(1), CellId::new(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_weights_rejects_zero_row() {
        let err = TransitionMatrix::from_weights(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap_err();
        assert!(matches!(err, MarkovError::RowNotStochastic { row: 0, .. }));
    }

    #[test]
    fn support_lists_positive_entries_only() {
        let m = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.5, 0.5]]).unwrap();
        assert_eq!(m.support(CellId::new(0)), &[1]);
        assert_eq!(m.support(CellId::new(1)), &[0, 1]);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn log_prob_of_zero_is_neg_infinity() {
        let m = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.5, 0.5]]).unwrap();
        assert_eq!(
            m.log_prob(CellId::new(0), CellId::new(0)),
            f64::NEG_INFINITY
        );
        assert_eq!(m.log_prob(CellId::new(0), CellId::new(1)), 0.0);
    }

    #[test]
    fn argmax_successor_breaks_ties_low_index() {
        let m = TransitionMatrix::from_rows(vec![
            vec![0.4, 0.4, 0.2],
            vec![0.2, 0.4, 0.4],
            vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ])
        .unwrap();
        let (best, p) = m.argmax_successor(CellId::new(0), None).unwrap();
        assert_eq!(best, CellId::new(0));
        assert!((p - 0.4).abs() < 1e-12);
        // Excluding the winner moves to the next-lowest tied index.
        let (second, _) = m
            .argmax_successor(CellId::new(0), Some(CellId::new(0)))
            .unwrap();
        assert_eq!(second, CellId::new(1));
    }

    #[test]
    fn argmax_successor_none_when_all_excluded() {
        let m = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.0, 1.0]]).unwrap();
        assert!(m
            .argmax_successor(CellId::new(0), Some(CellId::new(1)))
            .is_none());
    }

    #[test]
    fn extrema_constants_match_paper_definitions() {
        let m = two_state();
        assert_eq!(m.max_prob(), 0.75);
        assert_eq!(m.min_positive_prob(), Some(0.25));
        // p2(x0) = 0.5 (ties), p2(x1) = 0.25 -> p2 = 0.25.
        assert_eq!(m.second_max_in_row(CellId::new(0)), 0.5);
        assert_eq!(m.second_max_in_row(CellId::new(1)), 0.25);
        assert_eq!(m.p2(), 0.25);
    }

    #[test]
    fn irreducibility_detects_disconnection() {
        let m = TransitionMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(!m.is_irreducible());
        assert!(two_state().is_irreducible());
    }

    #[test]
    fn aperiodicity_detects_two_cycle() {
        let swap = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        assert!(swap.is_irreducible());
        assert!(!swap.is_aperiodic());
        assert!(!swap.is_ergodic());
        assert!(two_state().is_ergodic());
    }

    #[test]
    fn three_cycle_is_periodic() {
        let m = TransitionMatrix::from_rows(vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
        ])
        .unwrap();
        assert!(!m.is_aperiodic());
    }

    #[test]
    fn apply_left_preserves_mass() {
        let m = two_state();
        let d = vec![0.3, 0.7];
        let mut out = vec![0.0; 2];
        m.apply_left(&d, &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // d P = [0.3*0.5 + 0.7*0.25, 0.3*0.5 + 0.7*0.75]
        assert!((out[0] - 0.325).abs() < 1e-12);
        assert!((out[1] - 0.675).abs() < 1e-12);
    }

    #[test]
    fn uniform_and_identity_fixtures() {
        let u = TransitionMatrix::uniform(4).unwrap();
        assert!((u.prob(CellId::new(2), CellId::new(3)) - 0.25).abs() < 1e-12);
        assert!(u.is_ergodic());
        let i = TransitionMatrix::identity(3).unwrap();
        assert_eq!(i.prob(CellId::new(1), CellId::new(1)), 1.0);
        assert!(!i.is_irreducible());
    }
}
