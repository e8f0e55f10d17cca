//! Parser for the CRAWDAD `epfl/mobility` trace format.
//!
//! The dataset the paper uses (\[30\], Piorkowski et al. 2009) ships one
//! text file per taxi (`new_<id>.txt`), each line holding
//! `latitude longitude occupancy timestamp` separated by spaces, newest
//! record first. The dataset itself is license-gated and not
//! redistributable; this parser lets the real files be dropped into the
//! pipeline unchanged, while [`crate::taxi`] provides a synthetic
//! stand-in with matching statistics.
//!
//! All errors are typed [`MobilityError`]s that name the offending node,
//! so a single corrupt file in a 500-file directory is identifiable from
//! the message alone. For streamed ingestion of a directory (one batch of
//! files at a time instead of a fully materialized `Vec`), see
//! [`crate::stream::CrawdadDirStream`].

use crate::geo::{BoundingBox, GeoPoint};
use crate::record::{NodeTrace, TraceRecord};
use crate::{MobilityError, Result};
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// Parses one node file from any reader.
///
/// # Errors
///
/// Returns a parse error naming the node and the 1-based line number on
/// malformed input; blank lines are skipped.
pub fn parse_node<R: BufRead>(node_id: impl Into<String>, reader: R) -> Result<NodeTrace> {
    let node_id = node_id.into();
    let mut records = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        records.push(parse_line(&node_id, trimmed, idx + 1)?);
    }
    Ok(NodeTrace::new(node_id, records))
}

fn parse_line(node: &str, line: &str, line_no: usize) -> Result<TraceRecord> {
    let mut fields = line.split_whitespace();
    let mut next_field = |name: &str| {
        fields.next().ok_or_else(|| MobilityError::Parse {
            node: node.to_string(),
            line: line_no,
            reason: format!("missing field '{name}'"),
        })
    };
    let lat: f64 = parse_field(node, next_field("latitude")?, "latitude", line_no)?;
    let lon: f64 = parse_field(node, next_field("longitude")?, "longitude", line_no)?;
    let occ: u8 = parse_field(node, next_field("occupancy")?, "occupancy", line_no)?;
    let ts: i64 = parse_field(node, next_field("timestamp")?, "timestamp", line_no)?;
    if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lon) {
        return Err(MobilityError::Parse {
            node: node.to_string(),
            line: line_no,
            reason: format!("coordinates out of range: {lat}, {lon}"),
        });
    }
    Ok(TraceRecord {
        point: GeoPoint::new(lat, lon),
        occupied: occ != 0,
        timestamp: ts,
    })
}

fn parse_field<T: std::str::FromStr>(
    node: &str,
    raw: &str,
    name: &str,
    line_no: usize,
) -> Result<T> {
    raw.parse().map_err(|_| MobilityError::Parse {
        node: node.to_string(),
        line: line_no,
        reason: format!("invalid {name}: '{raw}'"),
    })
}

/// Checks that every record of `trace` lies inside `bbox`.
///
/// The CRAWDAD files occasionally contain GPS glitches that teleport a
/// taxi across the globe; quantizing such a record would silently assign
/// it to a border cell, so strict ingestion rejects it instead.
///
/// # Errors
///
/// Returns [`MobilityError::OutOfBbox`] naming the node and the (0-based,
/// time-sorted) record index of the first offender.
pub fn check_bbox(trace: &NodeTrace, bbox: &BoundingBox) -> Result<()> {
    for (record, r) in trace.records.iter().enumerate() {
        if !bbox.contains(&r.point) {
            return Err(MobilityError::OutOfBbox {
                node: trace.node_id.clone(),
                record,
                lat: r.point.lat,
                lon: r.point.lon,
            });
        }
    }
    Ok(())
}

/// Lists the `new_*.txt` node files of a CRAWDAD directory in sorted
/// (deterministic) order.
///
/// # Errors
///
/// Propagates directory-reading I/O errors.
pub fn node_files(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == "txt")
                && p.file_stem()
                    .and_then(|s| s.to_str())
                    .is_some_and(|s| s.starts_with("new_"))
        })
        .collect();
    entries.sort();
    Ok(entries)
}

/// Loads every `new_*.txt` node file in a directory.
///
/// # Errors
///
/// Propagates I/O and parse errors; an empty directory yields an empty
/// vector (the caller decides whether that is fatal).
pub fn load_directory(dir: &Path) -> Result<Vec<NodeTrace>> {
    let mut traces = Vec::new();
    for path in node_files(dir)? {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("unknown")
            .to_string();
        let file = std::fs::File::open(&path)?;
        traces.push(parse_node(stem, std::io::BufReader::new(file))?);
    }
    Ok(traces)
}

/// Serializes a trace back to the CRAWDAD line format (newest first), the
/// inverse of [`parse_node`]. Used to round-trip synthetic fleets into
/// dataset-shaped files.
pub fn to_crawdad_text(trace: &NodeTrace) -> String {
    let mut out = String::new();
    for r in trace.records.iter().rev() {
        out.push_str(&format!(
            "{:.5} {:.5} {} {}\n",
            r.point.lat,
            r.point.lon,
            u8::from(r.occupied),
            r.timestamp
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "\
37.75134 -122.39488 0 1213084687
37.75136 -122.39527 0 1213084659
37.75199 -122.3946 1 1213084540
";

    #[test]
    fn parses_the_documented_format() {
        let trace = parse_node("new_abboip", Cursor::new(SAMPLE)).unwrap();
        assert_eq!(trace.records.len(), 3);
        // Sorted ascending despite newest-first input.
        assert_eq!(trace.records[0].timestamp, 1213084540);
        assert!(trace.records[0].occupied);
        assert!((trace.records[2].point.lat - 37.75134).abs() < 1e-9);
    }

    #[test]
    fn skips_blank_lines() {
        let trace = parse_node("n", Cursor::new("\n37.7 -122.4 0 100\n\n")).unwrap();
        assert_eq!(trace.records.len(), 1);
    }

    #[test]
    fn reports_node_and_line_numbers_on_errors() {
        let bad = "37.7 -122.4 0 100\n37.7 -122.4 zero 100\n";
        let err = parse_node("new_bad", Cursor::new(bad)).unwrap_err();
        match err {
            MobilityError::Parse { node, line, reason } => {
                assert_eq!(node, "new_bad");
                assert_eq!(line, 2);
                assert!(reason.contains("occupancy"));
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_range_coordinates() {
        let err = parse_node("n", Cursor::new("99.0 -122.4 0 100\n")).unwrap_err();
        assert!(matches!(err, MobilityError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_missing_fields() {
        let err = parse_node("n", Cursor::new("37.7 -122.4 0\n")).unwrap_err();
        match err {
            MobilityError::Parse { reason, .. } => assert!(reason.contains("timestamp")),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn bbox_check_names_node_and_record() {
        let trace = parse_node("new_glitchy", Cursor::new(SAMPLE)).unwrap();
        assert!(check_bbox(&trace, &BoundingBox::san_francisco()).is_ok());
        let london = BoundingBox::new(51.0, 52.0, -1.0, 1.0).unwrap();
        match check_bbox(&trace, &london).unwrap_err() {
            MobilityError::OutOfBbox { node, record, .. } => {
                assert_eq!(node, "new_glitchy");
                assert_eq!(record, 0);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn round_trips_through_text() {
        let trace = parse_node("n", Cursor::new(SAMPLE)).unwrap();
        let text = to_crawdad_text(&trace);
        let reparsed = parse_node("n", Cursor::new(text)).unwrap();
        assert_eq!(trace.records.len(), reparsed.records.len());
        for (a, b) in trace.records.iter().zip(&reparsed.records) {
            assert_eq!(a.timestamp, b.timestamp);
            assert_eq!(a.occupied, b.occupied);
            assert!((a.point.lat - b.point.lat).abs() < 1e-5);
        }
    }

    #[test]
    fn loads_directory_of_files() {
        let dir = chaff_temp::TempPath::new("crawdad_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("new_a.txt"), SAMPLE).unwrap();
        std::fs::write(dir.join("new_b.txt"), SAMPLE).unwrap();
        std::fs::write(dir.join("readme.md"), "not a trace").unwrap();
        let traces = load_directory(&dir).unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].node_id, "new_a");
        let files = node_files(&dir).unwrap();
        assert_eq!(files.len(), 2);
    }
}
