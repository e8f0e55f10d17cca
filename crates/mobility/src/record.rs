//! Raw GPS trace records.

use crate::geo::GeoPoint;

/// One GPS update of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Position at the update.
    pub point: GeoPoint,
    /// Whether the taxi carried a passenger (CRAWDAD's occupancy flag);
    /// unused by the privacy pipeline but preserved for fidelity.
    pub occupied: bool,
    /// UNIX timestamp (seconds).
    pub timestamp: i64,
}

/// The full update history of one node, sorted by ascending timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrace {
    /// Stable identifier (file stem for CRAWDAD data, generated for
    /// synthetic fleets).
    pub node_id: String,
    /// Updates in ascending time order.
    pub records: Vec<TraceRecord>,
}

impl NodeTrace {
    /// Creates a trace, sorting records by timestamp.
    pub fn new(node_id: impl Into<String>, mut records: Vec<TraceRecord>) -> Self {
        records.sort_by_key(|r| r.timestamp);
        NodeTrace {
            node_id: node_id.into(),
            records,
        }
    }

    /// Time span covered, in seconds (0 for fewer than two records).
    pub fn duration_s(&self) -> i64 {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.timestamp - a.timestamp,
            _ => 0,
        }
    }

    /// The largest gap between consecutive updates, in seconds
    /// (0 for fewer than two records).
    pub fn max_gap_s(&self) -> i64 {
        self.records
            .windows(2)
            .map(|w| w[1].timestamp - w[0].timestamp)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: i64) -> TraceRecord {
        TraceRecord {
            point: GeoPoint::new(37.7, -122.4),
            occupied: false,
            timestamp: ts,
        }
    }

    #[test]
    fn constructor_sorts_by_time() {
        let t = NodeTrace::new("n1", vec![rec(30), rec(10), rec(20)]);
        let times: Vec<i64> = t.records.iter().map(|r| r.timestamp).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn duration_and_max_gap() {
        let t = NodeTrace::new("n1", vec![rec(0), rec(60), rec(400)]);
        assert_eq!(t.duration_s(), 400);
        assert_eq!(t.max_gap_s(), 340);
        let empty = NodeTrace::new("n2", vec![]);
        assert_eq!(empty.duration_s(), 0);
        assert_eq!(empty.max_gap_s(), 0);
    }
}
