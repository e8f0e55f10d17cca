//! `chaff-store` — the persistent paged fleet store (ISSUE 8).
//!
//! Every experiment used to regenerate its fleet from scratch, capping
//! runs below the paper's "millions of users served by edge clouds"
//! regime (He et al., ICDCS'17). This crate persists a simulated fleet
//! — the anonymized observed [`CellGrid`](chaff_markov::CellGrid), the
//! ground-truth user [`TrajectoryArena`](chaff_markov::TrajectoryArena)
//! and the observation log's offset tables — in a versioned, paged,
//! checksummed on-disk format, so an `N = 10⁶`–`10⁷` experiment can
//! checkpoint, resume, and stream populations larger than RAM through
//! detection.
//!
//! Three access paths:
//!
//! * [`FleetStoreWriter`] — streamed append, one slot row at a time
//!   (from `FleetSimulation` or `StreamingFleetEngine` in `chaff-sim`);
//!   the full population never resides in memory.
//! * [`FleetStoreReader::load`] — whole-grid restore, bit-for-bit equal
//!   to the in-memory arenas (proptested across shards and budgets).
//! * [`FleetStoreReader::stream_slots`] — chunked-read iterator feeding
//!   the unified `chaff_core` detection entry page by page, enabling
//!   `N = 10⁷` detection in bounded RSS.
//!
//! See the [format module](mod@format) for the byte layout, [`error`] for
//! the corruption taxonomy, and the workspace ARCHITECTURE.md for the
//! design rationale and versioning policy.

pub mod crc32;
pub mod error;
pub mod format;
mod meta;
mod reader;
mod writer;

pub use error::{Result, StoreError};
pub use meta::{StoreMeta, StoreStats};
pub use reader::{FleetStoreReader, SlotStream, StoredFleet};
pub use writer::FleetStoreWriter;

#[cfg(test)]
mod tests {
    use super::*;
    use chaff_markov::CellId;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A temp path unique per call: tests run on parallel threads of one
    /// process, so the pid alone would let one test delete another's file.
    fn temp_path(name: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let call = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("chaff_store_{}_{call}_{name}", std::process::id()))
    }

    fn tiny_meta() -> StoreMeta {
        StoreMeta {
            num_services: 3,
            num_users: 1,
            horizon: 4,
            shard_starts: vec![0, 2, 3],
            user_observed_indices: vec![1],
        }
    }

    #[test]
    fn write_load_round_trips_bit_for_bit() {
        let path = temp_path("roundtrip");
        let mut writer = FleetStoreWriter::create(&path, tiny_meta()).unwrap();
        for t in 0..4usize {
            let observed: Vec<CellId> = (0..3).map(|i| CellId::new(t * 3 + i)).collect();
            let user = [CellId::new(t)];
            writer.append_slot(&observed, &user).unwrap();
        }
        let stats = StoreStats {
            migrations: 5,
            spills: 1,
            user_slots: 4,
            chaff_services: 2,
        };
        writer.finish(stats).unwrap();

        let mut reader = FleetStoreReader::open(&path).unwrap();
        assert_eq!(reader.num_services(), 3);
        assert_eq!(reader.num_users(), 1);
        assert_eq!(reader.horizon(), 4);
        let fleet = reader.load().unwrap();
        assert_eq!(fleet.stats, stats);
        assert_eq!(fleet.shard_starts, vec![0, 2, 3]);
        assert_eq!(fleet.user_observed_indices, vec![1]);
        for t in 0..4usize {
            let expected: Vec<CellId> = (0..3).map(|i| CellId::new(t * 3 + i)).collect();
            assert_eq!(fleet.observed.row(t), &expected[..]);
        }
        assert_eq!(
            fleet.user_cells.row(0),
            &[
                CellId::new(0),
                CellId::new(1),
                CellId::new(2),
                CellId::new(3)
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stream_slots_yields_the_written_rows_in_order() {
        let path = temp_path("stream");
        let mut writer = FleetStoreWriter::create(&path, tiny_meta()).unwrap();
        for t in 0..4usize {
            let observed: Vec<CellId> = (0..3).map(|i| CellId::new(t + i)).collect();
            writer.append_slot(&observed, &[CellId::new(t)]).unwrap();
        }
        writer.finish(StoreStats::default()).unwrap();
        let mut reader = FleetStoreReader::open(&path).unwrap();
        let mut stream = reader.stream_slots();
        assert_eq!(stream.num_trajectories(), 3);
        assert_eq!(stream.horizon(), 4);
        for t in 0..4usize {
            let expected: Vec<CellId> = (0..3).map(|i| CellId::new(t + i)).collect();
            assert_eq!(stream.next_row().unwrap().unwrap(), &expected[..]);
        }
        assert!(stream.next_row().unwrap().is_none());
        assert_eq!(stream.rows_emitted(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_wrong_arity_and_stays_usable() {
        let path = temp_path("arity");
        let mut writer = FleetStoreWriter::create(&path, tiny_meta()).unwrap();
        let err = writer
            .append_slot(&[CellId::new(0)], &[CellId::new(0)])
            .unwrap_err();
        assert!(matches!(
            err,
            StoreError::RowArity {
                section: "observed",
                expected: 3,
                found: 1
            }
        ));
        let err = writer.append_slot(&[CellId::new(0); 3], &[]).unwrap_err();
        assert!(matches!(
            err,
            StoreError::RowArity {
                section: "users",
                ..
            }
        ));
        // The rejected slots were not counted.
        assert_eq!(writer.rows_written(), 0);
        for t in 0..4usize {
            writer
                .append_slot(&[CellId::new(t); 3], &[CellId::new(t)])
                .unwrap();
        }
        // A fifth slot exceeds the declared horizon.
        assert!(matches!(
            writer.append_slot(&[CellId::new(0); 3], &[CellId::new(0)]),
            Err(StoreError::Layout { .. })
        ));
        writer.finish(StoreStats::default()).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn finishing_early_is_an_incomplete_error() {
        let path = temp_path("incomplete");
        let writer = FleetStoreWriter::create(&path, tiny_meta()).unwrap();
        assert!(matches!(
            writer.finish(StoreStats::default()),
            Err(StoreError::Incomplete {
                expected: 4,
                found: 0
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unfinished_files_do_not_open() {
        let path = temp_path("unfinished");
        let mut writer = FleetStoreWriter::create(&path, tiny_meta()).unwrap();
        for t in 0..4usize {
            writer
                .append_slot(&[CellId::new(t); 3], &[CellId::new(t)])
                .unwrap();
        }
        // Dropped without finish(): no footer, so open() must refuse.
        drop(writer);
        assert!(matches!(
            FleetStoreReader::open(&path),
            Err(StoreError::Truncated { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_rejects_inconsistent_meta() {
        let mut meta = tiny_meta();
        meta.user_observed_indices = vec![9];
        assert!(matches!(
            FleetStoreWriter::create(temp_path("badmeta"), meta),
            Err(StoreError::Layout { .. })
        ));
    }

    #[test]
    fn multi_page_populations_split_and_reassemble() {
        // Rows big enough that the target payload forces several pages:
        // 70k cells/row × 4 B = 280 kB → 3 rows/page at the 1 MiB target.
        let n = 70_000;
        let horizon = 8;
        let meta = StoreMeta {
            num_services: n,
            num_users: 2,
            horizon,
            shard_starts: vec![0, n / 2, n],
            user_observed_indices: vec![7, 11],
        };
        let path = temp_path("multipage");
        let mut writer = FleetStoreWriter::create(&path, meta).unwrap();
        let row = |t: usize| -> Vec<CellId> {
            (0..n)
                .map(|i| CellId::new((i * 7 + t * 13) % 1000))
                .collect()
        };
        for t in 0..horizon {
            writer
                .append_slot(&row(t), &[CellId::new(t), CellId::new(t + 1)])
                .unwrap();
        }
        writer.finish(StoreStats::default()).unwrap();
        let mut reader = FleetStoreReader::open(&path).unwrap();
        let fleet = reader.load().unwrap();
        for t in 0..horizon {
            assert_eq!(fleet.observed.row(t), &row(t)[..], "slot {t}");
        }
        let mut stream = reader.stream_slots();
        for t in 0..horizon {
            assert_eq!(stream.next_row().unwrap().unwrap(), &row(t)[..], "slot {t}");
        }
        assert!(stream.next_row().unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_horizon_stores_round_trip() {
        let meta = StoreMeta {
            num_services: 5,
            num_users: 2,
            horizon: 0,
            shard_starts: vec![0, 5],
            user_observed_indices: vec![0, 1],
        };
        let path = temp_path("empty");
        let writer = FleetStoreWriter::create(&path, meta).unwrap();
        writer.finish(StoreStats::default()).unwrap();
        let mut reader = FleetStoreReader::open(&path).unwrap();
        let fleet = reader.load().unwrap();
        assert_eq!(fleet.observed.horizon(), 0);
        assert_eq!(fleet.observed.num_trajectories(), 5);
        assert!(reader.stream_slots().next_row().unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
