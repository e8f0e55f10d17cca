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
}
