//! Tracking- and detection-accuracy metrics (Sec. II-D).
//!
//! The eavesdropper's *tracking accuracy* is the time-average probability
//! of locating the user correctly: if it believes trajectory `û` is the
//! user's, slot `t` counts as tracked when `x_{û,t} = x_{1,t}` — note this
//! can hold even when `û` names a chaff that happens to co-locate. The
//! *detection accuracy* is the stricter event `û = 1`.
//!
//! Ties are handled in expectation: a [`Detection`]
//! carries its whole argmax set, and each metric averages over it — equal
//! to the paper's "random guess among ties" without Monte Carlo noise.

use crate::detector::Detection;
use crate::{CoreError, Result};
use chaff_markov::{CellGrid, Trajectory};

/// Per-slot tracking accuracy: element `t` is the probability that the
/// detected trajectory co-locates with the user at slot `t`.
///
/// `detections[t]` must be the decision made at slot `t` (e.g. from
/// [`MlDetector::detect_prefixes`](crate::detector::MlDetector::detect_prefixes));
/// `user_index` is the position of the real user in `observed`.
///
/// # Panics
///
/// Panics if `detections` is longer than the trajectories or indices are
/// out of range.
pub fn tracking_accuracy_series(
    observed: &[Trajectory],
    user_index: usize,
    detections: &[Detection],
) -> Vec<f64> {
    let user = &observed[user_index];
    detections
        .iter()
        .enumerate()
        .map(|(t, d)| {
            let tie = d.tie_set();
            let hits = tie
                .iter()
                .filter(|&&u| observed[u].cell(t) == user.cell(t))
                .count();
            hits as f64 / tie.len() as f64
        })
        .collect()
}

/// Per-slot detection accuracy: the probability that the decision at slot
/// `t` names the user's trajectory exactly.
pub fn detection_accuracy_series(user_index: usize, detections: &[Detection]) -> Vec<f64> {
    detections.iter().map(|d| d.prob_of(user_index)).collect()
}

/// [`tracking_accuracy_series`] over a slot-major [`CellGrid`] — the
/// fleet-scale path: slot `t` reads one contiguous grid row instead of
/// gathering across `N` trajectory allocations.
///
/// # Panics
///
/// Panics if `detections` is longer than the grid's horizon or indices
/// are out of range.
pub fn tracking_accuracy_series_columnar(
    observed: &CellGrid,
    user_index: usize,
    detections: &[Detection],
) -> Vec<f64> {
    detections
        .iter()
        .enumerate()
        .map(|(t, d)| {
            let row = observed.row(t);
            let user_cell = row[user_index];
            let tie = d.tie_set();
            let hits = tie.iter().filter(|&&u| row[u] == user_cell).count();
            hits as f64 / tie.len() as f64
        })
        .collect()
}

/// Mean (over the designated users) time-average tracking accuracy of a
/// whole fleet, equal to averaging
/// [`tracking_accuracy_series_columnar`] + [`time_average`] over every
/// user — but computed per slot through a cell histogram of the tie
/// set, so the cost is `O(N + |ties|)` per slot instead of the per-user
/// `O(N · |ties|)`. At `N = 10⁶` with a small cell space the slot-0 tie
/// set holds `~N / L` members, which makes the per-user path quadratic
/// in `N`; this one stays linear.
///
/// `users[k]` is the observed index of designated user `k`'s real
/// service; `num_cells` bounds the cell space. Returns 0 when there are
/// no users or no detections.
///
/// # Panics
///
/// Panics if `detections` is longer than the grid's horizon, an index
/// is out of range, or a tie-set cell is `>= num_cells`.
pub fn mean_tracking_accuracy_columnar(
    observed: &CellGrid,
    users: &[usize],
    detections: &[Detection],
    num_cells: usize,
) -> f64 {
    if users.is_empty() || detections.is_empty() {
        return 0.0;
    }
    let mut histogram = vec![0usize; num_cells];
    let mut total = 0.0;
    for (t, d) in detections.iter().enumerate() {
        let row = observed.row(t);
        let tie = d.tie_set();
        for &i in tie {
            histogram[row[i].index()] += 1;
        }
        // A user is tracked by every tie member sharing its cell.
        let mut hits = 0usize;
        for &u in users {
            hits += histogram[row[u].index()];
        }
        total += hits as f64 / tie.len() as f64;
        for &i in tie {
            histogram[row[i].index()] = 0;
        }
    }
    total / (users.len() * detections.len()) as f64
}

/// Mean (over the designated users) time-average detection accuracy of
/// a whole fleet, equal to averaging [`detection_accuracy_series`] +
/// [`time_average`] over every user — computed per slot through a
/// membership table, `O(N + |ties|)` per slot instead of the per-user
/// `O(N · |ties|)`.
///
/// `num_services` bounds the observed index space. Returns 0 when there
/// are no users or no detections.
///
/// # Panics
///
/// Panics if an index in `users` or a tie set is `>= num_services`.
pub fn mean_detection_accuracy(
    num_services: usize,
    users: &[usize],
    detections: &[Detection],
) -> f64 {
    if users.is_empty() || detections.is_empty() {
        return 0.0;
    }
    let mut is_user = vec![false; num_services];
    for &u in users {
        is_user[u] = true;
    }
    let mut total = 0.0;
    for d in detections {
        let tie = d.tie_set();
        let named = tie.iter().filter(|&&i| is_user[i]).count();
        total += named as f64 / tie.len() as f64;
    }
    total / (users.len() * detections.len()) as f64
}

/// Arithmetic mean of a series — the paper's time-average accuracy
/// `1/T Σ_t`.
///
/// Returns 0 for an empty series.
pub fn time_average(series: &[f64]) -> f64 {
    if series.is_empty() {
        0.0
    } else {
        series.iter().sum::<f64>() / series.len() as f64
    }
}

/// Element-wise mean of several equal-length series — the Monte Carlo
/// average used to produce the accuracy-vs-time curves of Figs. 5, 7.
///
/// # Errors
///
/// [`CoreError::LengthMismatch`] if a series' length differs from the
/// first's.
pub fn mean_series(series: &[Vec<f64>]) -> Result<Vec<f64>> {
    let Some(first) = series.first() else {
        return Ok(Vec::new());
    };
    let len = first.len();
    let mut out = vec![0.0; len];
    for s in series {
        if s.len() != len {
            return Err(CoreError::LengthMismatch {
                expected: len,
                found: s.len(),
            });
        }
        for (o, v) in out.iter_mut().zip(s) {
            *o += v;
        }
    }
    let n = series.len() as f64;
    for o in &mut out {
        *o /= n;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> Vec<Trajectory> {
        vec![
            Trajectory::from_indices([0, 1, 2]), // user
            Trajectory::from_indices([0, 9, 2]), // chaff co-locating at t=0,2
            Trajectory::from_indices([5, 5, 5]), // disjoint chaff
        ]
    }

    #[test]
    fn unique_detection_of_user_tracks_everywhere() {
        let detections = vec![Detection::new(vec![0]); 3];
        let acc = tracking_accuracy_series(&obs(), 0, &detections);
        assert_eq!(acc, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn chaff_detection_tracks_only_on_co_location() {
        let detections = vec![Detection::new(vec![1]); 3];
        let acc = tracking_accuracy_series(&obs(), 0, &detections);
        assert_eq!(acc, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn ties_average_over_the_set() {
        let detections = vec![Detection::new(vec![1, 2]); 3];
        let acc = tracking_accuracy_series(&obs(), 0, &detections);
        assert_eq!(acc, vec![0.5, 0.0, 0.5]);
    }

    #[test]
    fn detection_accuracy_is_stricter_than_tracking() {
        // The chaff co-locates at t=0, so tracking succeeds but detection
        // fails.
        let detections = vec![Detection::new(vec![1]); 3];
        let tracking = tracking_accuracy_series(&obs(), 0, &detections);
        let detection = detection_accuracy_series(0, &detections);
        assert_eq!(detection, vec![0.0, 0.0, 0.0]);
        assert!(tracking[0] > detection[0]);
    }

    #[test]
    fn columnar_tracking_matches_the_trajectory_path() {
        let grid = CellGrid::from_trajectories(&obs()).unwrap();
        for tie in [vec![0], vec![1], vec![1, 2]] {
            let detections = vec![Detection::new(tie); 3];
            assert_eq!(
                tracking_accuracy_series_columnar(&grid, 0, &detections),
                tracking_accuracy_series(&obs(), 0, &detections)
            );
        }
    }

    #[test]
    fn aggregate_fleet_metrics_match_the_per_user_paths() {
        // Mixed tie sets including multi-way ties and chaff hits.
        let grid = CellGrid::from_trajectories(&obs()).unwrap();
        let detections = vec![
            Detection::new(vec![1, 2]),
            Detection::new(vec![0]),
            Detection::new(vec![1]),
        ];
        let users = vec![0usize, 2];
        let mut tracking = 0.0;
        let mut detection = 0.0;
        for &u in &users {
            tracking += time_average(&tracking_accuracy_series_columnar(&grid, u, &detections));
            detection += time_average(&detection_accuracy_series(u, &detections));
        }
        let fast_tracking = mean_tracking_accuracy_columnar(&grid, &users, &detections, 10);
        let fast_detection = mean_detection_accuracy(3, &users, &detections);
        assert!((fast_tracking - tracking / 2.0).abs() < 1e-12);
        assert!((fast_detection - detection / 2.0).abs() < 1e-12);
        // Empty inputs are zero, matching time_average's convention.
        assert_eq!(
            mean_tracking_accuracy_columnar(&grid, &[], &detections, 10),
            0.0
        );
        assert_eq!(mean_detection_accuracy(3, &users, &[]), 0.0);
    }

    #[test]
    fn time_average_basics() {
        assert_eq!(time_average(&[]), 0.0);
        assert!((time_average(&[1.0, 0.0, 0.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_series_averages_elementwise() {
        let m = mean_series(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert_eq!(m, vec![0.5, 0.5]);
        assert!(mean_series(&[]).unwrap().is_empty());
    }

    #[test]
    fn mean_series_rejects_ragged_input() {
        assert_eq!(
            mean_series(&[vec![1.0], vec![1.0, 2.0]]),
            Err(CoreError::LengthMismatch {
                expected: 1,
                found: 2
            })
        );
    }
}
