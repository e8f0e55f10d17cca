//! Columnar log-likelihood kernel: a precomputed log-transition table
//! plus slot-major batch scoring for fleet-scale detection.
//!
//! [`MarkovChain::log_likelihood`] recomputes `ln` per step and walks the
//! matrix row by row per trajectory — fine for one user, wasteful for a
//! fleet. [`LogLikelihoodTable`] pays the `ln` cost once per model (dense
//! table for small state spaces, sparse per-row tables above
//! [`DENSE_STATE_LIMIT`]) and then scores arbitrarily many trajectories
//! with pure lookups. [`LogLikelihoodTable::add_step_batch`] advances a
//! block of running scores by one slot under one table; the fleet
//! detectors in `chaff-core` advance theirs through [`sweep_slot`], which
//! scores every mobility class of a slot in one pass over the services.

use crate::{CellId, MarkovChain, MarkovError, Result, Trajectory};
use std::borrow::Borrow;

/// Largest state-space size for which the dense `L × L` log table is
/// materialized; larger models use sparse per-row tables (trace-driven
/// matrices are extremely sparse, so the dense table would be mostly
/// `-inf` padding).
pub const DENSE_STATE_LIMIT: usize = 2048;

/// Fixed chunk width (in `f64` lanes) used by the batched kernels.
///
/// [`sweep_slot`] and the argmax kernels in `chaff-core` process users
/// in chunks of this many lanes so the
/// autovectorizer can lower the straight-line chunk bodies to SIMD
/// (eight `f64`s fill an AVX-512 register, or two AVX2 registers).
/// Chunking never changes results: each user's accumulator receives
/// exactly the same single add per slot regardless of the chunk width.
pub const LANE_WIDTH: usize = 8;

/// Storage backing a [`LogLikelihoodTable`].
#[derive(Debug, Clone)]
enum TableStorage {
    /// Row-major `n * n` log-probabilities (`-inf` on zero entries).
    Dense(Vec<f64>),
    /// CSR-style per-row support: `cols[row_starts[i]..row_starts[i+1]]`
    /// are the sorted positive-probability destinations from `i`, with
    /// matching log-probabilities in `logs`.
    Sparse {
        row_starts: Vec<usize>,
        cols: Vec<u32>,
        logs: Vec<f64>,
    },
}

/// A precomputed log-likelihood table for one mobility model.
///
/// Holds `log π` and `log P` so that scoring a step is a table lookup
/// instead of a `ln` evaluation. Build it once per model via
/// [`MarkovChain::log_likelihood_table`] and reuse it across every
/// trajectory in a fleet.
///
/// # Example
///
/// ```
/// use chaff_markov::{MarkovChain, Trajectory, TransitionMatrix};
///
/// # fn main() -> Result<(), chaff_markov::MarkovError> {
/// let m = TransitionMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.3, 0.7]])?;
/// let chain = MarkovChain::new(m)?;
/// let table = chain.log_likelihood_table();
/// let x = Trajectory::from_indices([0, 0, 1]);
/// let mut total = 0.0;
/// let mut prev = None;
/// for cell in x.iter() {
///     total += table.step(prev, cell);
///     prev = Some(cell);
/// }
/// assert_eq!(total, table.log_likelihood(&x));
/// assert_eq!(total, chain.log_likelihood(&x));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LogLikelihoodTable {
    n: usize,
    log_initial: Vec<f64>,
    transitions: TableStorage,
}

impl LogLikelihoodTable {
    /// Builds the table for `chain`, choosing dense or sparse storage by
    /// state-space size.
    pub fn new(chain: &MarkovChain) -> Self {
        Self::with_storage(chain, chain.num_states() <= DENSE_STATE_LIMIT)
    }

    /// Builds the table with an explicit storage choice. Exposed so tests
    /// and memory-constrained callers can force the sparse representation
    /// below [`DENSE_STATE_LIMIT`].
    pub fn with_storage(chain: &MarkovChain, dense: bool) -> Self {
        let n = chain.num_states();
        let log_initial: Vec<f64> = (0..n)
            .map(|i| chain.initial().log_prob(CellId::new(i)))
            .collect();
        let transitions = if dense {
            let mut data = vec![f64::NEG_INFINITY; n * n];
            for i in 0..n {
                let from = CellId::new(i);
                for (to, p) in chain.matrix().successors(from) {
                    data[i * n + to.index()] = p.ln();
                }
            }
            TableStorage::Dense(data)
        } else {
            let mut row_starts = Vec::with_capacity(n + 1);
            let mut cols = Vec::with_capacity(chain.matrix().nnz());
            let mut logs = Vec::with_capacity(chain.matrix().nnz());
            row_starts.push(0);
            for i in 0..n {
                let from = CellId::new(i);
                for (to, p) in chain.matrix().successors(from) {
                    cols.push(to.index() as u32);
                    logs.push(p.ln());
                }
                row_starts.push(cols.len());
            }
            TableStorage::Sparse {
                row_starts,
                cols,
                logs,
            }
        };
        LogLikelihoodTable {
            n,
            log_initial,
            transitions,
        }
    }

    /// Number of cells in the state space.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Whether the table uses the dense `n × n` representation.
    pub fn is_dense(&self) -> bool {
        matches!(self.transitions, TableStorage::Dense(_))
    }

    /// `log π(cell)`.
    #[inline]
    pub fn log_initial(&self, cell: CellId) -> f64 {
        self.log_initial[cell.index()]
    }

    /// `log P(to | from)`; `-inf` when the transition has zero probability.
    #[inline]
    pub fn log_transition(&self, from: CellId, to: CellId) -> f64 {
        match &self.transitions {
            TableStorage::Dense(data) => data[from.index() * self.n + to.index()],
            TableStorage::Sparse {
                row_starts,
                cols,
                logs,
            } => sparse_walk(row_starts, cols, logs, from, to),
        }
    }

    /// The per-slot increment for slot `t`: `log π(x_t)` at the first slot,
    /// `log P(x_t | x_{t-1})` afterwards.
    #[inline]
    pub fn step(&self, prev: Option<CellId>, cell: CellId) -> f64 {
        match prev {
            None => self.log_initial(cell),
            Some(p) => self.log_transition(p, cell),
        }
    }

    /// Advances a block of running scores by one slot: for every lane `j`,
    /// `accs[j] += step(prev[j], row[j])` — `log π(row[j])` when `prev` is
    /// `None` (slot zero), `log P(row[j] | prev[j])` afterwards.
    ///
    /// This is the one-table, add-only call of [`sweep_slot`]: the
    /// storage `match` is hoisted out of the inner loop (the per-element
    /// [`step`](Self::step) re-dispatches on every lookup) and the loop
    /// body processes users in [`LANE_WIDTH`] chunks. Each accumulator
    /// receives exactly one add, so results are bit-for-bit those of the
    /// scalar per-element walk in any chunking. `-inf + -inf` is fine;
    /// `+inf` never occurs (increments are log-probs ≤ 0), so no NaN can
    /// appear.
    ///
    /// Both rows are validated before any accumulator is touched: a
    /// failed call leaves `accs` untouched.
    ///
    /// # Errors
    ///
    /// [`MarkovError::LengthMismatch`] when `prev` or `accs` disagrees
    /// with `row` on arity, [`MarkovError::CellOutOfRange`] (lowest lane
    /// first) when a cell falls outside the state space.
    pub fn add_step_batch(
        &self,
        prev: Option<&[CellId]>,
        row: &[CellId],
        accs: &mut [f64],
    ) -> Result<()> {
        sweep_slot(std::slice::from_ref(self), prev, row, accs, None).map(drop)
    }

    /// Full-trajectory log-likelihood via the table (matches
    /// [`MarkovChain::log_likelihood`] bit-for-bit: both sum the same
    /// increments in slot order).
    pub fn log_likelihood(&self, trajectory: &Trajectory) -> f64 {
        let mut acc = 0.0;
        let mut prev: Option<CellId> = None;
        for cell in trajectory.iter() {
            acc += self.step(prev, cell);
            prev = Some(cell);
        }
        acc
    }
}

/// The CSR row walk: binary search of `to` in `from`'s sorted support.
///
/// Factored out of [`LogLikelihoodTable::log_transition`] so both the
/// scalar lookup and the batched sparse gather loop inline the identical
/// walk (same comparisons, same `-inf` miss) instead of re-dispatching
/// on the storage enum per element.
#[inline(always)]
fn sparse_walk(row_starts: &[usize], cols: &[u32], logs: &[f64], from: CellId, to: CellId) -> f64 {
    let range = row_starts[from.index()]..row_starts[from.index() + 1];
    match cols[range.clone()].binary_search(&(to.index() as u32)) {
        Ok(offset) => logs[range.start + offset],
        Err(_) => f64::NEG_INFINITY,
    }
}

/// Checks every cell of `row` against the state-space size, reporting the
/// lowest offending lane.
#[inline]
fn validate_cells(row: &[CellId], states: usize) -> Result<()> {
    match CellId::first_out_of_range(row, states) {
        None => Ok(()),
        Some(bad) => Err(MarkovError::CellOutOfRange {
            cell: bad.index(),
            states,
        }),
    }
}

/// Advances every class's running scores by one slot in one sweep over
/// the services, and returns the slot maximum of the best-class scores
/// (`-inf` for an empty row).
///
/// `accs` is class-major: `accs[k * width + j]` is service `j`'s score
/// under `tables[k]` (`width == row.len()`). For every service the sweep
/// computes the table index once, adds each class's increment
/// (`log π(row[j])` when `prev` is `None`, i.e. at slot zero,
/// `log P(row[j] | prev[j])` afterwards) to that class's accumulator,
/// folds the best class with a strict `>` in ascending class order, and
/// folds the slot maximum over [`LANE_WIDTH`] lanes. With `scores`, the
/// best-class score of service `j` is written to `scores[j]`.
///
/// Bit-for-bit, this is one [`add_step_batch`](LogLikelihoodTable::add_step_batch)
/// per class followed by the class and row maximum folds: each
/// accumulator still gets exactly one add; the strict-`>` fold seeded
/// with `-inf` yields class 0's value first, as a fold seeded with class
/// 0 does; and the maximum of NaN-free values does not depend on the
/// order in which they are visited.
///
/// A fleet whose tables share one state space and, after slot zero, are
/// all dense runs the loop monomorphized over flat lookups; any CSR table
/// after slot zero runs the same loop over a per-table storage dispatch.
///
/// Every check runs before any accumulator moves, so a failed call
/// leaves `accs` and `scores` untouched.
///
/// # Errors
///
/// [`MarkovError::Empty`] for an empty `tables`;
/// [`MarkovError::LengthMismatch`] when `accs` is not
/// `row.len() * tables.len()` long or `scores` not `row.len()` long; then,
/// for each table in class order, [`MarkovError::CellOutOfRange`] (lowest
/// lane first) when a `row` cell falls outside the table's state space,
/// [`MarkovError::LengthMismatch`] when `prev` disagrees with `row` on
/// arity and [`MarkovError::CellOutOfRange`] for a `prev` cell outside it.
pub fn sweep_slot<T: Borrow<LogLikelihoodTable>>(
    tables: &[T],
    prev: Option<&[CellId]>,
    row: &[CellId],
    accs: &mut [f64],
    scores: Option<&mut [f64]>,
) -> Result<f64> {
    let first = tables.first().ok_or(MarkovError::Empty)?.borrow();
    let width = row.len();
    if accs.len() != width * tables.len() {
        return Err(MarkovError::LengthMismatch {
            expected: width * tables.len(),
            found: accs.len(),
        });
    }
    if let Some(scores) = &scores {
        if scores.len() != width {
            return Err(MarkovError::LengthMismatch {
                expected: width,
                found: scores.len(),
            });
        }
    }
    // A table at least as wide as one already passed accepts both rows
    // too, so only narrower tables are checked again; the first failing
    // class still names the error.
    let mut passed = usize::MAX;
    for table in tables {
        let states = table.borrow().n;
        if states >= passed {
            continue;
        }
        validate_cells(row, states)?;
        if let Some(prev) = prev {
            if prev.len() != width {
                return Err(MarkovError::LengthMismatch {
                    expected: width,
                    found: prev.len(),
                });
            }
            validate_cells(prev, states)?;
        }
        passed = states;
    }
    let n = first.n;
    let flat = tables.iter().all(|t| {
        t.borrow().n == n && matches!(Lookup::of(t.borrow(), prev.is_none()), Lookup::Flat { .. })
    });
    Ok(if flat {
        sweep::<Flat, T>(tables, n, prev, row, accs, scores)
    } else {
        sweep::<Lookup, T>(tables, n, prev, row, accs, scores)
    })
}

/// One table's increments at one slot, with its storage resolved once per
/// lane chunk instead of once per service.
trait Gather<'a>: Copy {
    /// Resolves `table` for a slot (`initial` at slot zero). `last` is the
    /// largest flat index over the tables' shared state space.
    fn of(table: &'a LogLikelihoodTable, initial: bool, last: usize) -> Self;

    /// The increment of one service: `key` is its flat index
    /// `from · n + to` (`to` at slot zero) clamped to `last`.
    fn get(self, key: usize, from: CellId, to: CellId) -> f64;
}

/// A flat array over the shared key space, read at the service's key:
/// the lookup of fleets without CSR tables after slot zero. Sliced to
/// `..=last`, so the clamped key needs no bounds check.
#[derive(Clone, Copy)]
struct Flat<'a>(&'a [f64]);

impl<'a> Gather<'a> for Flat<'a> {
    #[inline(always)]
    fn of(table: &'a LogLikelihoodTable, initial: bool, last: usize) -> Self {
        match Lookup::of(table, initial) {
            Lookup::Flat { data, .. } => Flat(&data[..=last]),
            Lookup::Csr { .. } => unreachable!("the flat sweep runs only over flat increments"),
        }
    }

    #[inline(always)]
    fn get(self, key: usize, _: CellId, _: CellId) -> f64 {
        self.0[key]
    }
}

/// Any table at any slot: a flat array read at `from · stride + to` (its
/// own state count as the stride, zero at slot zero) or the CSR row walk.
#[derive(Clone, Copy)]
enum Lookup<'a> {
    Flat {
        data: &'a [f64],
        stride: usize,
    },
    Csr {
        row_starts: &'a [usize],
        cols: &'a [u32],
        logs: &'a [f64],
    },
}

impl<'a> Lookup<'a> {
    /// `log π` at slot zero (`initial`); the table's own storage after.
    #[inline(always)]
    fn of(table: &'a LogLikelihoodTable, initial: bool) -> Self {
        match (&table.transitions, initial) {
            (_, true) => Lookup::Flat {
                data: &table.log_initial,
                stride: 0,
            },
            (TableStorage::Dense(data), false) => Lookup::Flat {
                data,
                stride: table.n,
            },
            (
                TableStorage::Sparse {
                    row_starts,
                    cols,
                    logs,
                },
                false,
            ) => Lookup::Csr {
                row_starts,
                cols,
                logs,
            },
        }
    }
}

impl<'a> Gather<'a> for Lookup<'a> {
    #[inline(always)]
    fn of(table: &'a LogLikelihoodTable, initial: bool, _: usize) -> Self {
        Lookup::of(table, initial)
    }

    #[inline(always)]
    fn get(self, _: usize, from: CellId, to: CellId) -> f64 {
        match self {
            Lookup::Flat { data, stride } => data[from.index() * stride + to.index()],
            Lookup::Csr {
                row_starts,
                cols,
                logs,
            } => sparse_walk(row_starts, cols, logs, from, to),
        }
    }
}

/// The sweep behind [`sweep_slot`], generic over the lookup. Shapes and
/// cells are validated by the caller; `n` is the first table's state
/// count.
#[inline(always)]
fn sweep<'a, G: Gather<'a>, T: Borrow<LogLikelihoodTable>>(
    tables: &'a [T],
    n: usize,
    prev: Option<&[CellId]>,
    row: &[CellId],
    accs: &mut [f64],
    mut scores: Option<&mut [f64]>,
) -> f64 {
    let width = row.len();
    let initial = prev.is_none();
    // At slot zero the previous row is unused: `from` is the cell itself
    // and the stride is zero, so the key is the cell.
    let (from_row, stride, last) = match prev {
        None => (row, 0, n - 1),
        Some(prev) => (prev, n, n.saturating_mul(n) - 1),
    };
    let mut maxima = [f64::NEG_INFINITY; LANE_WIDTH];
    let full = width - width % LANE_WIDTH;
    let mut lanes = Lanes {
        tables,
        initial,
        stride,
        last,
        from_row,
        row,
        accs,
        maxima: &mut maxima,
    };
    for start in (0..full).step_by(LANE_WIDTH) {
        lanes.chunk::<G>(start, LANE_WIDTH, scores.as_deref_mut());
    }
    if full < width {
        lanes.chunk::<G>(full, width - full, scores);
    }
    maxima
        .into_iter()
        .fold(f64::NEG_INFINITY, |m, x| if x > m { x } else { m })
}

/// The state one [`sweep`] threads through its lane chunks.
struct Lanes<'a, 'r, T> {
    tables: &'a [T],
    initial: bool,
    stride: usize,
    last: usize,
    from_row: &'r [CellId],
    row: &'r [CellId],
    accs: &'r mut [f64],
    maxima: &'r mut [f64; LANE_WIDTH],
}

impl<'a, T: Borrow<LogLikelihoodTable>> Lanes<'a, '_, T> {
    /// Sweeps the `len ≤ LANE_WIDTH` services from `start`: one key per
    /// service, one add per class, the best-class and lane maximum folds.
    /// Inlined with `len == LANE_WIDTH` for every full chunk, so the lane
    /// loops have a constant trip count.
    #[inline(always)]
    fn chunk<G: Gather<'a>>(&mut self, start: usize, len: usize, scores: Option<&mut [f64]>) {
        let width = self.row.len();
        let from = &self.from_row[start..start + len];
        let to = &self.row[start..start + len];
        let mut keys = [0usize; LANE_WIDTH];
        for i in 0..len {
            keys[i] = (from[i].index() * self.stride + to[i].index()).min(self.last);
        }
        let mut best = [f64::NEG_INFINITY; LANE_WIDTH];
        for (k, table) in self.tables.iter().enumerate() {
            let lookup = G::of(table.borrow(), self.initial, self.last);
            let lane = &mut self.accs[k * width + start..k * width + start + len];
            for i in 0..len {
                let acc = lane[i] + lookup.get(keys[i], from[i], to[i]);
                lane[i] = acc;
                best[i] = if acc > best[i] { acc } else { best[i] };
            }
        }
        if let Some(scores) = scores {
            scores[start..start + len].copy_from_slice(&best[..len]);
        }
        for (max, &b) in self.maxima.iter_mut().zip(&best[..len]) {
            *max = if b > *max { b } else { *max };
        }
    }
}

impl MarkovChain {
    /// Builds the precomputed [`LogLikelihoodTable`] for this model.
    ///
    /// The table is immutable and self-contained; build it once and share
    /// it (e.g. across detection shards) by reference.
    pub fn log_likelihood_table(&self) -> LogLikelihoodTable {
        LogLikelihoodTable::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransitionMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain() -> MarkovChain {
        let m = TransitionMatrix::from_rows(vec![
            vec![0.9, 0.1, 0.0],
            vec![0.3, 0.2, 0.5],
            vec![0.0, 0.5, 0.5],
        ])
        .unwrap();
        MarkovChain::new(m).unwrap()
    }

    #[test]
    fn table_matches_chain_lookups() {
        let c = chain();
        let table = c.log_likelihood_table();
        assert!(table.is_dense());
        assert_eq!(table.num_states(), 3);
        for i in 0..3 {
            assert_eq!(
                table.log_initial(CellId::new(i)),
                c.initial().log_prob(CellId::new(i))
            );
            for j in 0..3 {
                assert_eq!(
                    table.log_transition(CellId::new(i), CellId::new(j)),
                    c.matrix().log_prob(CellId::new(i), CellId::new(j)),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn zero_probability_transitions_are_neg_infinity() {
        let table = chain().log_likelihood_table();
        assert_eq!(
            table.log_transition(CellId::new(0), CellId::new(2)),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn add_step_batch_matches_scalar_steps_bit_for_bit() {
        let c = chain();
        let mut rng = StdRng::seed_from_u64(14);
        // Widths straddling the lane count exercise both the chunked and
        // the remainder paths; 8 and 16 are exact multiples.
        for width in [1usize, 3, 7, 8, 9, 16, 21] {
            for table in [
                LogLikelihoodTable::with_storage(&c, true),
                LogLikelihoodTable::with_storage(&c, false),
            ] {
                let xs: Vec<Trajectory> = (0..width)
                    .map(|_| c.sample_trajectory(6, &mut rng))
                    .collect();
                let mut accs = vec![0.0f64; width];
                let mut prev_row: Option<Vec<CellId>> = None;
                for t in 0..6 {
                    let row: Vec<CellId> = xs.iter().map(|x| x.cell(t)).collect();
                    table
                        .add_step_batch(prev_row.as_deref(), &row, &mut accs)
                        .unwrap();
                    for (j, x) in xs.iter().enumerate() {
                        let expected: f64 = {
                            let mut acc = 0.0;
                            let mut prev = None;
                            for cell in x.iter().take(t + 1) {
                                acc += table.step(prev, cell);
                                prev = Some(cell);
                            }
                            acc
                        };
                        assert_eq!(
                            accs[j].to_bits(),
                            expected.to_bits(),
                            "width {width}, slot {t}, lane {j}"
                        );
                    }
                    prev_row = Some(row);
                }
            }
        }
    }

    #[test]
    fn add_step_batch_rejects_bad_shapes_and_cells_atomically() {
        let table = chain().log_likelihood_table();
        let row = vec![CellId::new(0), CellId::new(1)];
        let mut accs = vec![1.5f64; 2];
        assert_eq!(
            table
                .add_step_batch(None, &row, &mut accs[..1])
                .unwrap_err(),
            MarkovError::LengthMismatch {
                expected: 2,
                found: 1
            }
        );
        assert_eq!(
            table
                .add_step_batch(Some(&row[..1]), &row, &mut accs)
                .unwrap_err(),
            MarkovError::LengthMismatch {
                expected: 2,
                found: 1
            }
        );
        let bad = vec![CellId::new(0), CellId::new(7)];
        assert_eq!(
            table.add_step_batch(None, &bad, &mut accs).unwrap_err(),
            MarkovError::CellOutOfRange { cell: 7, states: 3 }
        );
        assert_eq!(
            table
                .add_step_batch(Some(&bad), &row, &mut accs)
                .unwrap_err(),
            MarkovError::CellOutOfRange { cell: 7, states: 3 }
        );
        // Every failure above left the accumulators untouched.
        assert_eq!(accs, vec![1.5, 1.5]);
    }

    #[test]
    fn table_log_likelihood_matches_chain() {
        let c = chain();
        let table = c.log_likelihood_table();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let x = c.sample_trajectory(25, &mut rng);
            let a = table.log_likelihood(&x);
            let b = c.log_likelihood(&x);
            assert_eq!(a.to_bits(), b.to_bits(), "bit-for-bit equality");
        }
    }

    #[test]
    fn sparse_storage_agrees_with_dense_bit_for_bit() {
        let c = chain();
        let dense = LogLikelihoodTable::with_storage(&c, true);
        let sparse = LogLikelihoodTable::with_storage(&c, false);
        assert!(dense.is_dense());
        assert!(!sparse.is_dense());
        for i in 0..3 {
            for j in 0..3 {
                let a = dense.log_transition(CellId::new(i), CellId::new(j));
                let b = sparse.log_transition(CellId::new(i), CellId::new(j));
                assert_eq!(a.to_bits(), b.to_bits(), "({i},{j})");
            }
        }
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..4 {
            let x = c.sample_trajectory(9, &mut rng);
            let mut prev = None;
            for cell in x.iter() {
                let a = dense.step(prev, cell);
                let b = sparse.step(prev, cell);
                assert_eq!(a.to_bits(), b.to_bits(), "{prev:?} -> {cell:?}");
                prev = Some(cell);
            }
        }
    }
}
