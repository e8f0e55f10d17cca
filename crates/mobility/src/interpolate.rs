//! Trace regularization: inactive-node filtering and linear interpolation.
//!
//! The paper (footnote 11): *"The traces have irregular update intervals.
//! We filter out inactive nodes (no update for 5 minutes) and regulate the
//! intervals through linear interpolation."* This module implements
//! exactly that: a node survives if it covers the whole evaluation window
//! with no inter-update gap exceeding the threshold, and its position at
//! each slot boundary is linearly interpolated between the bracketing
//! updates.

use crate::geo::GeoPoint;
use crate::record::NodeTrace;

/// The paper's inactivity threshold: 5 minutes.
pub const DEFAULT_MAX_GAP_S: i64 = 5 * 60;

/// Regularization parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotGrid {
    /// UNIX timestamp of slot 0.
    pub start_timestamp: i64,
    /// Slot length in seconds (the paper uses 1-minute slots).
    pub slot_s: i64,
    /// Number of slots (the paper uses a 100-slot window).
    pub num_slots: usize,
    /// Maximum tolerated gap between consecutive updates.
    pub max_gap_s: i64,
}

impl SlotGrid {
    /// A grid of `num_slots` one-minute slots starting at
    /// `start_timestamp`, with the paper's 5-minute inactivity threshold.
    pub fn minutes(start_timestamp: i64, num_slots: usize) -> Self {
        SlotGrid {
            start_timestamp,
            slot_s: 60,
            num_slots,
            max_gap_s: DEFAULT_MAX_GAP_S,
        }
    }

    /// The timestamp of slot `k`.
    pub fn slot_time(&self, k: usize) -> i64 {
        self.start_timestamp + self.slot_s * k as i64
    }
}

/// Why a node was dropped by the inactivity filter — the typed diagnosis
/// behind [`regularize`] returning `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InactivityReason {
    /// The trace has no records (or the slot grid has no slots).
    Empty,
    /// The trace does not span the whole evaluation window.
    DoesNotCoverWindow {
        /// First record timestamp (the window starts at the grid start).
        first: i64,
        /// Last record timestamp (the window ends at the grid's last slot).
        last: i64,
    },
    /// An inter-update gap inside the window exceeds the threshold.
    GapTooLarge {
        /// The offending gap, in seconds.
        gap_s: i64,
        /// Timestamp at which the gap starts.
        at: i64,
    },
}

impl std::fmt::Display for InactivityReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InactivityReason::Empty => write!(f, "trace has no records"),
            InactivityReason::DoesNotCoverWindow { first, last } => {
                write!(f, "records {first}..{last} do not cover the window")
            }
            InactivityReason::GapTooLarge { gap_s, at } => {
                write!(f, "gap of {gap_s} s starting at {at} exceeds the threshold")
            }
        }
    }
}

/// Diagnoses why `trace` would be dropped by [`regularize`], or `None`
/// when the node is active. Exactly complements `regularize`:
/// `regularize(t, g).is_none() == inactivity_reason(t, g).is_some()`.
pub fn inactivity_reason(trace: &NodeTrace, grid: &SlotGrid) -> Option<InactivityReason> {
    let records = &trace.records;
    if records.is_empty() || grid.num_slots == 0 {
        return Some(InactivityReason::Empty);
    }
    let window_start = grid.slot_time(0);
    let window_end = grid.slot_time(grid.num_slots - 1);
    let first = records[0].timestamp;
    let last = records.last().expect("non-empty").timestamp;
    if first > window_start || last < window_end {
        return Some(InactivityReason::DoesNotCoverWindow { first, last });
    }
    for w in records.windows(2) {
        let (a, b) = (w[0].timestamp, w[1].timestamp);
        if b < window_start || a > window_end {
            continue;
        }
        if b - a > grid.max_gap_s {
            return Some(InactivityReason::GapTooLarge {
                gap_s: b - a,
                at: a,
            });
        }
    }
    None
}

/// Regularizes one node onto the slot grid.
///
/// Returns `None` — the node is *inactive* and must be dropped — when the
/// trace does not cover the whole window or has an update gap larger than
/// `grid.max_gap_s` anywhere inside it ([`inactivity_reason`] names the
/// cause). Otherwise returns one interpolated position per slot.
pub fn regularize(trace: &NodeTrace, grid: &SlotGrid) -> Option<Vec<GeoPoint>> {
    // One shared drop predicate: delegating keeps the documented
    // complement invariant with `inactivity_reason` structural rather
    // than maintained in two hand-synchronized copies.
    if inactivity_reason(trace, grid).is_some() {
        return None;
    }
    let records = &trace.records;
    let mut out = Vec::with_capacity(grid.num_slots);
    let mut cursor = 0usize;
    for k in 0..grid.num_slots {
        let t = grid.slot_time(k);
        while cursor + 1 < records.len() && records[cursor + 1].timestamp < t {
            cursor += 1;
        }
        let a = &records[cursor];
        let p = if a.timestamp >= t {
            a.point
        } else {
            let b = &records[cursor + 1];
            let span = (b.timestamp - a.timestamp) as f64;
            let frac = if span > 0.0 {
                (t - a.timestamp) as f64 / span
            } else {
                0.0
            };
            a.point.lerp(&b.point, frac)
        };
        out.push(p);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    fn rec(ts: i64, lat: f64) -> TraceRecord {
        TraceRecord {
            point: GeoPoint::new(lat, -122.4),
            occupied: false,
            timestamp: ts,
        }
    }

    #[test]
    fn interpolates_linearly_between_updates() {
        let trace = NodeTrace::new("n", vec![rec(0, 37.0), rec(120, 37.2)]);
        let grid = SlotGrid {
            start_timestamp: 0,
            slot_s: 60,
            num_slots: 3,
            max_gap_s: 300,
        };
        let pos = regularize(&trace, &grid).unwrap();
        assert_eq!(pos.len(), 3);
        assert!((pos[0].lat - 37.0).abs() < 1e-12);
        assert!((pos[1].lat - 37.1).abs() < 1e-12); // midpoint at t=60
        assert!((pos[2].lat - 37.2).abs() < 1e-12);
    }

    #[test]
    fn drops_nodes_with_long_gaps() {
        let trace = NodeTrace::new("n", vec![rec(0, 37.0), rec(400, 37.1), rec(500, 37.2)]);
        let grid = SlotGrid {
            start_timestamp: 0,
            slot_s: 60,
            num_slots: 8,
            max_gap_s: 300,
        };
        assert!(regularize(&trace, &grid).is_none());
    }

    #[test]
    fn drops_nodes_not_covering_the_window() {
        let trace = NodeTrace::new("n", vec![rec(100, 37.0), rec(200, 37.1)]);
        let grid = SlotGrid {
            start_timestamp: 0,
            slot_s: 60,
            num_slots: 5,
            max_gap_s: 300,
        };
        assert!(regularize(&trace, &grid).is_none(), "starts after slot 0");
    }

    #[test]
    fn gap_outside_the_window_is_tolerated() {
        // Long gap before the window starts; dense coverage inside.
        let trace = NodeTrace::new(
            "n",
            vec![
                rec(-10_000, 36.9),
                rec(-60, 37.0),
                rec(60, 37.1),
                rec(200, 37.2),
            ],
        );
        let grid = SlotGrid {
            start_timestamp: 0,
            slot_s: 60,
            num_slots: 3,
            max_gap_s: 300,
        };
        assert!(regularize(&trace, &grid).is_some());
    }

    #[test]
    fn exact_update_times_are_passed_through() {
        let trace = NodeTrace::new("n", vec![rec(0, 37.0), rec(60, 37.5), rec(120, 37.9)]);
        let grid = SlotGrid::minutes(0, 3);
        let pos = regularize(&trace, &grid).unwrap();
        assert!((pos[1].lat - 37.5).abs() < 1e-12);
    }

    #[test]
    fn fleet_regularization_filters_and_labels() {
        let good = NodeTrace::new("good", vec![rec(0, 37.0), rec(60, 37.1), rec(120, 37.2)]);
        let bad = NodeTrace::new("bad", vec![rec(0, 37.0), rec(1_000, 37.1)]);
        let grid = SlotGrid::minutes(0, 3);
        let kept: Vec<&str> = [&good, &bad]
            .into_iter()
            .filter(|t| regularize(t, &grid).is_some())
            .map(|t| t.node_id.as_str())
            .collect();
        assert_eq!(kept, ["good"]);
    }

    #[test]
    fn inactivity_reason_complements_regularize() {
        let grid = SlotGrid::minutes(0, 5);
        let cases = vec![
            NodeTrace::new("empty", vec![]),
            NodeTrace::new("late", vec![rec(100, 37.0), rec(400, 37.1)]),
            NodeTrace::new("gappy", vec![rec(0, 37.0), rec(400, 37.1)]),
            NodeTrace::new(
                "good",
                (0..6)
                    .map(|i| rec(60 * i, 37.0 + 0.01 * i as f64))
                    .collect(),
            ),
        ];
        for trace in &cases {
            assert_eq!(
                regularize(trace, &grid).is_none(),
                inactivity_reason(trace, &grid).is_some(),
                "{}",
                trace.node_id
            );
        }
        assert_eq!(
            inactivity_reason(&cases[0], &grid),
            Some(InactivityReason::Empty)
        );
        assert!(matches!(
            inactivity_reason(&cases[1], &grid),
            Some(InactivityReason::DoesNotCoverWindow { first: 100, .. })
        ));
        assert_eq!(
            inactivity_reason(&cases[2], &grid),
            Some(InactivityReason::GapTooLarge { gap_s: 400, at: 0 })
        );
        // Reasons render with their numbers so error messages are useful.
        let text = InactivityReason::GapTooLarge { gap_s: 400, at: 0 }.to_string();
        assert!(text.contains("400"));
    }

    #[test]
    fn empty_grid_marks_every_node_inactive() {
        let trace = NodeTrace::new("n", vec![rec(0, 37.0)]);
        let grid = SlotGrid::minutes(0, 0);
        assert!(regularize(&trace, &grid).is_none());
        assert_eq!(
            inactivity_reason(&trace, &grid),
            Some(InactivityReason::Empty)
        );
    }

    #[test]
    fn paper_default_grid() {
        let grid = SlotGrid::minutes(1_000, 100);
        assert_eq!(grid.slot_time(0), 1_000);
        assert_eq!(grid.slot_time(99), 1_000 + 99 * 60);
        assert_eq!(grid.max_gap_s, 300);
    }
}
