//! The vectorized per-slot detection kernels under every slot-major
//! detection path.
//!
//! One slot of fleet-scale ML detection is three phases over a shard
//! lane's contiguous block of services (see
//! [`streaming`](super::streaming) for the lanes and the two loops that
//! run them):
//!
//! 1. **gather/add** — [`LogLikelihoodTable::add_step_batch`] gathers the
//!    per-user log-likelihood increments and adds them into the running
//!    prefix scores, with the table-storage dispatch hoisted out of the
//!    loop and the loop body chunked in [`LANE_WIDTH`] `f64` lanes;
//! 2. **running max** — [`row_max`] reduces the refreshed scores to the
//!    exact row maximum with a branchless chunked compare-select (no
//!    data-dependent branches, unlike the legacy compare-per-user scan);
//! 3. **tie collection** — [`collect_ties`] re-scans the scores and emits
//!    every lane within [`LOG_LIKELIHOOD_TOLERANCE`]
//!    of the maximum, in ascending index order.
//!
//! # Why results stay bit-for-bit identical to the scalar kernels
//!
//! * Each user's accumulator receives exactly one add per slot, in slot
//!   order, regardless of chunking — per-user sums are unchanged to the
//!   last bit.
//! * The maximum of a set of non-NaN floats does not depend on the
//!   visit order, so the chunked lane reduction equals the legacy
//!   left-to-right running max. (Scores are sums of log-probs ≤ 0:
//!   no NaN and no `-0.0`/`+0.0` ambiguity can arise.)
//! * The legacy fold's retain-on-new-max bookkeeping ends in exactly
//!   the set `{ i : loglik_cmp(score_i, final_max) == Equal }` in
//!   ascending index order — which is what the two-pass collection
//!   computes directly (see [`fold`]'s docs for the argument).
//!
//! The differential batteries in `tests/columnar.rs`,
//! `tests/streaming_equivalence.rs` and `tests/kernels.rs` hold the
//! kernels to that guarantee.

use crate::{loglik_cmp, Result, LOG_LIKELIHOOD_TOLERANCE};
use chaff_markov::{CellId, LogLikelihoodTable, MarkovError};
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
/// legacy strict-`>` comparison, chunked in [`LANE_WIDTH`] lanes. The
/// mixture kernel folds one mobility class per call, in ascending class
/// order — the same per-user comparison sequence as the scalar
/// class walk.
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
/// The scan prefilters with a single vectorizable `>=` compare against
/// `best - LOG_LIKELIHOOD_TOLERANCE` — an exact superset of the
/// tolerance-equality test, so no tie is ever missed and the full
/// comparison runs only on (rare) near-max lanes.
pub fn collect_ties(scores: &[f64], lo: usize, best: f64, out: &mut Vec<(u32, f64)>) {
    let threshold = best - LOG_LIKELIHOOD_TOLERANCE;
    for (j, &s) in scores.iter().enumerate() {
        if s >= threshold && loglik_cmp(s, best).is_eq() {
            out.push((service_index(lo, j), s));
        }
    }
}

/// Advances one slot of the single-table columnar kernel: the cumulative
/// score of trajectory `lo + j` moves from `accs[j]` to
/// `accs[j] + increment(prev_row[j] -> row[j])` (the `log π` initial
/// increment when `prev_row` is `None`, i.e. at slot zero), and the
/// refreshed scores pass through the two-pass running-max + tie-collection
/// argmax into `best` / `slot`.
///
/// This is *the* single-class per-slot inner loop: the shard lanes run it
/// for [`StreamingPrefixDetector`](super::StreamingPrefixDetector) and for
/// every columnar, paged and time-varying
/// [`BatchPrefixDetector`](super::BatchPrefixDetector) request, so the
/// online path is bit-for-bit the batch path by construction. The phases
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
    table
        .add_step_batch(prev_row, row, accs)
        .map_err(map_markov)?;
    let row_best = row_max(accs);
    if row_best > *best {
        *best = row_best;
        slot.retain(|&(_, s)| loglik_cmp(s, row_best).is_eq());
    }
    collect_ties(accs, lo, *best, slot);
    Ok(())
}

/// Advances one slot of the multi-class (mixture) columnar kernel. The
/// accumulator block is class-major: `accs[k * width + j]` is trajectory
/// `lo + j`'s running score under class `k` (`width == row.len()`), so
/// each class advances through one contiguous
/// [`add_step_batch`](LogLikelihoodTable::add_step_batch) call. The
/// per-trajectory prefix score — the *maximum* lane across classes, the
/// best class explanation — is materialized into `scores` (ascending
/// class fold, legacy comparison order) and passed through the same
/// two-pass argmax as the single-table kernel.
///
/// Run by the same shard lanes as [`advance_slot_single`].
///
/// # Errors
///
/// Same errors as [`advance_slot_single`], plus
/// [`CoreError::LengthMismatch`](crate::CoreError::LengthMismatch) when
/// `accs` is not `row.len() * tables.len()` long or `scores` is not
/// `row.len()` long, and [`MarkovError::Empty`] for an empty `tables`
/// slice — all before any accumulator is touched. A cell or
/// arity failure on a later class leaves earlier classes advanced
/// (callers either discard the block or pre-validate the row, so a
/// partial advance is never observed).
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
    if tables.is_empty() {
        return Err(crate::CoreError::Markov(MarkovError::Empty));
    }
    let width = row.len();
    if accs.len() != width * tables.len() {
        return Err(crate::CoreError::LengthMismatch {
            expected: width * tables.len(),
            found: accs.len(),
        });
    }
    if scores.len() != width {
        return Err(crate::CoreError::LengthMismatch {
            expected: width,
            found: scores.len(),
        });
    }
    for (k, table) in tables.iter().enumerate() {
        table
            .borrow()
            .add_step_batch(prev_row, row, &mut accs[k * width..(k + 1) * width])
            .map_err(map_markov)?;
    }
    // scores[j] = max over classes of accs[k * width + j]: seeding from
    // class 0 then strict-`>` folding classes 1.. reproduces the legacy
    // `-inf`-seeded ascending class walk value-for-value (class 0 either
    // beats `-inf` or *is* `-inf`).
    scores.copy_from_slice(&accs[..width]);
    for k in 1..tables.len() {
        lane_max_into(scores, &accs[k * width..(k + 1) * width]);
    }
    let row_best = row_max(scores);
    if row_best > *best {
        *best = row_best;
        slot.retain(|&(_, s)| loglik_cmp(s, row_best).is_eq());
    }
    collect_ties(scores, lo, *best, slot);
    Ok(())
}

/// Folds one cumulative score into a slot's running max / tie trackers —
/// the legacy scalar argmax, kept for the per-trajectory shard passes and
/// as the differential reference for the two-pass kernels. Calls must
/// arrive in increasing trajectory index per slot so tie sets stay
/// ascending.
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
