//! The vectorized per-slot detection kernels under every
//! detection path.
//!
//! One slot of fleet-scale ML detection is two passes over a shard
//! lane's contiguous block of services (see
//! [`streaming`](super::streaming) for the lanes and the two loops that
//! run them):
//!
//! 1. **sweep** — [`sweep_slot`] visits each service once: it computes
//!    the table index once, adds every class's log-likelihood increment
//!    to that class's running prefix score, folds the best class with a
//!    strict `>` in ascending class order and folds the lane maximum, in
//!    [`LANE_WIDTH`]-service chunks. Fleets without CSR tables after slot
//!    zero run it over flat lookups; CSR tables keep an `#[inline]` row
//!    walk in the same loop;
//! 2. **ties** — [`collect_ties`] builds a 64-bit mask per block of 64
//!    best-class scores from a branch-free `>=` prefilter against the
//!    maximum minus [`LOG_LIKELIHOOD_TOLERANCE`], and runs the exact
//!    tolerance comparison only on the set bits, lowest first.
//!
//! # Why results stay bit-for-bit identical to the scalar kernels
//!
//! * Each accumulator receives exactly one add per slot, in slot order,
//!   regardless of chunking or of how many classes share the sweep —
//!   per-user sums are unchanged to the last bit.
//! * The best-class value is the same strict-`>` fold in ascending class
//!   order; seeding it with `-inf` yields class 0's value first, as the
//!   scalar class walk does.
//! * The maximum of a set of non-NaN floats does not depend on the
//!   visit order, so the chunked lane reduction equals the legacy
//!   left-to-right running max. (Scores are sums of log-probs ≤ 0:
//!   no NaN and no `-0.0`/`+0.0` ambiguity can arise.)
//! * The legacy fold's retain-on-new-max bookkeeping ends in exactly
//!   the set `{ i : loglik_cmp(score_i, final_max) == Equal }` in
//!   ascending index order — which is what the tie pass computes
//!   directly, with the same predicate, visiting indices in ascending
//!   order (see [`fold`]'s docs for the argument).
//!
//! The differential batteries in `tests/columnar.rs`,
//! `tests/streaming_equivalence.rs`, `tests/kernels.rs` and
//! `tests/kernel_sweep.rs` hold the kernels to that guarantee.

use crate::{loglik_cmp, Result, LOG_LIKELIHOOD_TOLERANCE};
use chaff_markov::{sweep_slot, CellId, LogLikelihoodTable, MarkovError};
use std::borrow::Borrow;

pub use chaff_markov::LANE_WIDTH;

use super::batch::service_index;

/// Maps substrate errors onto the detector error vocabulary: cell-range
/// and arity failures keep the variants the scalar kernels reported, so
/// callers observe identical errors from either implementation.
pub(crate) fn map_markov(e: MarkovError) -> crate::CoreError {
    match e {
        MarkovError::CellOutOfRange { cell, states } => {
            crate::CoreError::CellOutOfRange { cell, states }
        }
        MarkovError::LengthMismatch { expected, found } => {
            crate::CoreError::LengthMismatch { expected, found }
        }
        other => crate::CoreError::Markov(other),
    }
}

/// The exact maximum of `scores` (`-inf` for an empty row), computed as a
/// branchless two-pass reduction: [`LANE_WIDTH`] independent running
/// maxima over the chunked body (compare-select per lane, no
/// data-dependent branch), then a horizontal reduce folding in the
/// remainder.
///
/// Equals the legacy left-to-right `if s > best` scan for every NaN-free
/// input — the maximum of a set does not depend on visit order.
pub fn row_max(scores: &[f64]) -> f64 {
    let mut chunks = scores.chunks_exact(LANE_WIDTH);
    let mut lanes = [f64::NEG_INFINITY; LANE_WIDTH];
    for chunk in &mut chunks {
        for i in 0..LANE_WIDTH {
            lanes[i] = if chunk[i] > lanes[i] {
                chunk[i]
            } else {
                lanes[i]
            };
        }
    }
    let mut best = f64::NEG_INFINITY;
    for &lane in &lanes {
        if lane > best {
            best = lane;
        }
    }
    for &s in chunks.remainder() {
        if s > best {
            best = s;
        }
    }
    best
}

/// Lane-wise maximum fold: `scores[j] = max(scores[j], block[j])` with the
/// legacy strict-`>` comparison, chunked in [`LANE_WIDTH`] lanes. Folding
/// one class block per call in ascending class order gives the best-class
/// scores [`sweep_slot`] writes in its single pass.
pub fn lane_max_into(scores: &mut [f64], block: &[f64]) {
    let mut score_chunks = scores.chunks_exact_mut(LANE_WIDTH);
    let mut block_chunks = block.chunks_exact(LANE_WIDTH);
    for (s, b) in (&mut score_chunks).zip(&mut block_chunks) {
        for i in 0..LANE_WIDTH {
            s[i] = if b[i] > s[i] { b[i] } else { s[i] };
        }
    }
    for (s, b) in score_chunks
        .into_remainder()
        .iter_mut()
        .zip(block_chunks.remainder())
    {
        if *b > *s {
            *s = *b;
        }
    }
}

/// Appends `(global index, score)` for every lane whose score is within
/// tolerance of `best` (`loglik_cmp(score, best) == Equal`), in ascending
/// index order. Lane `j` maps to global service index `lo + j`; the
/// caller guarantees `lo + scores.len()` fits the `u32` index space
/// (every detector entry point checks the population against
/// [`MAX_POPULATION`](super::MAX_POPULATION) first).
///
/// Each block of 64 scores is prefiltered into a bitmask by a
/// branch-free `>=` compare against `best - LOG_LIKELIHOOD_TOLERANCE`:
/// an exact superset of the tolerance-equality test, so no tie is ever
/// missed. The full comparison then runs only on the set bits, lowest
/// first, which keeps the ascending order.
pub fn collect_ties(scores: &[f64], lo: usize, best: f64, out: &mut Vec<(u32, f64)>) {
    let threshold = best - LOG_LIKELIHOOD_TOLERANCE;
    let mut blocks = scores.chunks_exact(TIE_BLOCK);
    let mut start = 0;
    for block in &mut blocks {
        push_ties(block, near_mask(block, threshold), lo + start, best, out);
        start += TIE_BLOCK;
    }
    let tail = blocks.remainder();
    push_ties(tail, near_mask(tail, threshold), lo + start, best, out);
}

/// Scores per bitmask block of [`collect_ties`].
const TIE_BLOCK: usize = 64;

/// Bit `i` set iff `block[i] >= threshold`; `block` holds at most
/// [`TIE_BLOCK`] scores.
#[inline(always)]
fn near_mask(block: &[f64], threshold: f64) -> u64 {
    block
        .iter()
        .enumerate()
        .fold(0, |mask, (i, &s)| mask | (u64::from(s >= threshold) << i))
}

/// Pushes the ties among the set bits of `mask`, lowest bit first; bit
/// `i` is `block[i]`, global index `lo + i`.
#[inline(always)]
fn push_ties(block: &[f64], mut mask: u64, lo: usize, best: f64, out: &mut Vec<(u32, f64)>) {
    while mask != 0 {
        let i = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let s = block[i];
        if loglik_cmp(s, best).is_eq() {
            out.push((service_index(lo, i), s));
        }
    }
}

/// Advances one slot of the single-table columnar kernel: the cumulative
/// score of trajectory `lo + j` moves from `accs[j]` to
/// `accs[j] + increment(prev_row[j] -> row[j])` (the `log π` initial
/// increment when `prev_row` is `None`, i.e. at slot zero), and the
/// refreshed scores pass through the tie collection into `best` / `slot`.
///
/// This is *the* single-class per-slot inner loop: the shard lanes run it
/// for [`StreamingPrefixDetector`](super::StreamingPrefixDetector) and for
/// every columnar, paged and time-varying
/// [`BatchPrefixDetector`](super::BatchPrefixDetector) request, so the
/// online path is bit-for-bit the batch path by construction. The passes
/// and the bit-for-bit argument are in the [module docs](self).
///
/// # Errors
///
/// [`CoreError::CellOutOfRange`](crate::CoreError::CellOutOfRange) (lowest
/// lane first) for cells outside the table's state space,
/// [`CoreError::LengthMismatch`](crate::CoreError::LengthMismatch) when
/// `prev_row` or `accs` disagrees with `row` on arity — in both cases
/// before any accumulator is touched.
pub fn advance_slot_single(
    table: &LogLikelihoodTable,
    lo: usize,
    row: &[CellId],
    prev_row: Option<&[CellId]>,
    accs: &mut [f64],
    best: &mut f64,
    slot: &mut Vec<(u32, f64)>,
) -> Result<()> {
    let row_best =
        sweep_slot(std::slice::from_ref(table), prev_row, row, accs, None).map_err(map_markov)?;
    fold_row(accs, lo, row_best, best, slot);
    Ok(())
}

/// Advances one slot of the multi-class (mixture) columnar kernel. The
/// accumulator block is class-major: `accs[k * width + j]` is trajectory
/// `lo + j`'s running score under class `k` (`width == row.len()`). One
/// [`sweep_slot`] adds every class's increment and writes the
/// per-trajectory prefix score — the *maximum* lane across classes, the
/// best class explanation, folded in ascending class order — into
/// `scores`, which then passes through the same tie collection as the
/// single-table kernel.
///
/// Run by the same shard lanes as [`advance_slot_single`].
///
/// # Errors
///
/// Same errors as [`advance_slot_single`], plus
/// [`CoreError::LengthMismatch`](crate::CoreError::LengthMismatch) when
/// `accs` is not `row.len() * tables.len()` long or `scores` is not
/// `row.len()` long, and [`MarkovError::Empty`] for an empty `tables`
/// slice. `row` and `prev_row` are checked against every table, in class
/// order, and the first failing class names the error. Every check runs
/// before any accumulator moves, so a failed call advances no class.
#[allow(clippy::too_many_arguments)] // hot kernel: flat args keep the call free of wrapper structs
pub fn advance_slot_mixture<T: Borrow<LogLikelihoodTable>>(
    tables: &[T],
    lo: usize,
    row: &[CellId],
    prev_row: Option<&[CellId]>,
    accs: &mut [f64],
    scores: &mut [f64],
    best: &mut f64,
    slot: &mut Vec<(u32, f64)>,
) -> Result<()> {
    let row_best = sweep_slot(tables, prev_row, row, accs, Some(scores)).map_err(map_markov)?;
    fold_row(scores, lo, row_best, best, slot);
    Ok(())
}

/// Folds one swept row, whose maximum is `row_best`, into a slot's
/// running `best` and tie candidates.
#[inline(always)]
fn fold_row(scores: &[f64], lo: usize, row_best: f64, best: &mut f64, slot: &mut Vec<(u32, f64)>) {
    if row_best > *best {
        *best = row_best;
        slot.retain(|&(_, s)| loglik_cmp(s, row_best).is_eq());
    }
    collect_ties(scores, lo, *best, slot);
}

/// Folds one cumulative score into a slot's running max / tie trackers —
/// the legacy scalar argmax, kept only as the differential reference for
/// the two-pass kernels (`tests/kernel_sweep.rs` and the unit tests
/// below); no detection path calls it. Calls must arrive in increasing
/// trajectory index per slot so tie sets stay ascending.
///
/// The running tie tracking is equivalent to `argmax_set`'s two-pass
/// (exact max, then tolerance filter): the running max only grows, so a
/// score outside tolerance of the running max can never re-enter, and
/// every max update re-filters the surviving candidates.
#[inline(always)]
pub fn fold(best: &mut f64, slot: &mut Vec<(u32, f64)>, i: u32, acc: f64) {
    if acc > *best {
        *best = acc;
        slot.retain(|&(_, s)| loglik_cmp(s, acc).is_eq());
        slot.push((i, acc));
    } else if loglik_cmp(acc, *best).is_eq() {
        slot.push((i, acc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_max_matches_scalar_scan_on_lane_straddling_widths() {
        for width in [0usize, 1, 7, 8, 9, 15, 16, 17, 40] {
            let scores: Vec<f64> = (0..width).map(|j| -((j * 37 % 11) as f64)).collect();
            let mut expected = f64::NEG_INFINITY;
            for &s in &scores {
                if s > expected {
                    expected = s;
                }
            }
            assert_eq!(row_max(&scores).to_bits(), expected.to_bits(), "{width}");
        }
    }

    #[test]
    fn collect_ties_matches_fold_on_tie_dense_rows() {
        // Scores clustered within and just outside the tolerance band.
        let scores = [
            -1.0,
            -1.0 + 1e-10,
            -1.0 - 1e-10,
            -1.0 - 2e-9,
            -1.0 + 1e-10,
            f64::NEG_INFINITY,
        ];
        let best = row_max(&scores);
        let mut two_pass = Vec::new();
        collect_ties(&scores, 5, best, &mut two_pass);
        let mut legacy_best = f64::NEG_INFINITY;
        let mut legacy = Vec::new();
        for (j, &s) in scores.iter().enumerate() {
            fold(&mut legacy_best, &mut legacy, (5 + j) as u32, s);
        }
        assert_eq!(legacy_best.to_bits(), best.to_bits());
        assert_eq!(two_pass, legacy);
    }

    #[test]
    fn all_neg_infinity_rows_tie_everywhere() {
        let scores = [f64::NEG_INFINITY; 11];
        let best = row_max(&scores);
        assert_eq!(best, f64::NEG_INFINITY);
        let mut out = Vec::new();
        collect_ties(&scores, 0, best, &mut out);
        assert_eq!(out.len(), 11);
    }

    #[test]
    fn lane_max_into_is_an_elementwise_running_max() {
        let mut scores = vec![
            -3.0,
            -1.0,
            f64::NEG_INFINITY,
            -2.0,
            -5.0,
            -4.0,
            -9.0,
            -8.0,
            -7.0,
        ];
        let block = vec![
            -2.0,
            -4.0,
            -6.0,
            -2.0,
            f64::NEG_INFINITY,
            -1.0,
            -9.5,
            -0.5,
            -7.0,
        ];
        let expected: Vec<f64> = scores
            .iter()
            .zip(&block)
            .map(|(&s, &b)| if b > s { b } else { s })
            .collect();
        lane_max_into(&mut scores, &block);
        assert_eq!(scores, expected);
    }

    /// Runs the mixture kernel over a 3-service row with the given
    /// buffer sizes and reports the error plus whether `accs` moved.
    fn mixture_with(
        classes: usize,
        accs_len: usize,
        scores_len: usize,
    ) -> (crate::CoreError, bool) {
        let m = chaff_markov::TransitionMatrix::from_rows(vec![vec![0.5, 0.5], vec![0.5, 0.5]])
            .unwrap();
        let table = chaff_markov::MarkovChain::new(m)
            .unwrap()
            .log_likelihood_table();
        let tables = vec![&table; classes];
        let row = [CellId::new(0), CellId::new(1), CellId::new(0)];
        let mut accs = vec![-1.0f64; accs_len];
        let mut scores = vec![0.0f64; scores_len];
        let (mut best, mut slot) = (f64::NEG_INFINITY, Vec::new());
        let err = advance_slot_mixture(
            &tables,
            0,
            &row,
            None,
            &mut accs,
            &mut scores,
            &mut best,
            &mut slot,
        )
        .unwrap_err();
        (err, accs.iter().any(|&a| a != -1.0))
    }

    #[test]
    fn mixture_rejects_mis_sized_accumulators_before_advancing() {
        let (err, moved) = mixture_with(2, 5, 3);
        assert!(matches!(
            err,
            crate::CoreError::LengthMismatch {
                expected: 6,
                found: 5
            }
        ));
        assert!(!moved);
    }

    #[test]
    fn mixture_rejects_mis_sized_scores_before_advancing() {
        let (err, moved) = mixture_with(2, 6, 2);
        assert!(matches!(
            err,
            crate::CoreError::LengthMismatch {
                expected: 3,
                found: 2
            }
        ));
        assert!(!moved);
    }

    #[test]
    fn mixture_rejects_an_empty_table_set() {
        let (err, _) = mixture_with(0, 0, 3);
        assert!(matches!(err, crate::CoreError::Markov(MarkovError::Empty)));
    }
}
