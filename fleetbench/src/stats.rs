//! Order statistics with an honest tail: a percentile is reported only
//! when enough samples lie beyond it to make it more than one outlier.

/// Samples that must lie strictly beyond a reported percentile. With
/// fewer, the "percentile" is just one of the worst few samples (with 10
/// samples, nearest-rank p95 and p99 are both the single worst one).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it. A run therefore
/// needs at least `100 · MIN_BEYOND / (100 − p)` samples for `p`: 100 for
/// p90, 1,000 for p99.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the middle pair for even counts), or
/// `None` when empty. Used where a handful of repetitions is all there
/// is (set-up time, probes); no tail rule applies to the centre.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn ten_samples_support_no_tail_percentile() {
        let samples = ramp(10);
        assert_eq!(percentile(&samples, 95.0), None);
        assert_eq!(percentile(&samples, 99.0), None);
        assert_eq!(percentile(&samples, 90.0), None);
    }

    #[test]
    fn a_hundred_samples_support_p90_but_not_p99() {
        let samples = ramp(100);
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 99.0), None);
        // One sample short of the rule withholds p90.
        assert_eq!(percentile(&ramp(99), 90.0), None);
    }

    #[test]
    fn a_thousand_samples_support_p99() {
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn degenerate_requests_are_withheld() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(100), 0.0), None);
        assert_eq!(percentile(&ramp(100), 100.0), None);
        assert_eq!(percentile(&ramp(100), f64::NAN), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
