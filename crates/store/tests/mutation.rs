//! Mutation battery over the paged read path: a truncated or bit-flipped
//! store must read back as a typed [`StoreError`] or as exactly the
//! original rows — never a panic, never silently different data — on
//! the whole-grid `load()` path *and* the page-at-a-time
//! `stream_slots()` path that paged detection drives.

mod common;

use chaff_markov::CellId;
use chaff_store::format::{Section, FOOTER_TAIL_LEN, HEADER_LEN};
use chaff_store::{
    FleetStoreReader, FleetStoreWriter, StoreError, StoreMeta, StoreStats, StoredFleet,
};
use common::{footer_index, temp_path};
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// Writes a small store (6 services, 3 users, 5 slots, 2 shards) and
/// returns its bytes.
fn small_store() -> Vec<u8> {
    let meta = StoreMeta {
        num_services: 6,
        num_users: 3,
        horizon: 5,
        shard_starts: vec![0, 3, 6],
        user_observed_indices: vec![0, 2, 4],
    };
    let path = temp_path("small");
    let mut writer = FleetStoreWriter::create(&path, meta).expect("create");
    for t in 0..5usize {
        let observed: Vec<CellId> = (0..6).map(|i| CellId::new(t * 31 + i * 7 + 1)).collect();
        let users: Vec<CellId> = (0..3).map(|u| CellId::new(t * 5 + u * 11 + 2)).collect();
        writer.append_slot(&observed, &users).expect("append");
    }
    writer
        .finish(StoreStats {
            migrations: 4,
            spills: 1,
            user_slots: 15,
            chaff_services: 3,
        })
        .expect("finish");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).expect("cleanup");
    bytes
}

/// Every observed row `stream_slots()` yields, or its first error.
fn stream_rows(reader: &mut FleetStoreReader) -> Result<Vec<Vec<CellId>>, StoreError> {
    let mut stream = reader.stream_slots();
    let mut rows = Vec::new();
    while let Some(row) = stream.next_row()? {
        rows.push(row.to_vec());
    }
    Ok(rows)
}

/// What one read of a (possibly damaged) store produced.
#[derive(Debug, Default)]
struct Verdict {
    open_failed: bool,
    stream_failed: bool,
    load_failed: bool,
}

/// Reads `path` through `open`, `stream_slots()` and `load()`; any data
/// a path does return must equal `original` exactly.
fn read_back(path: &Path, original: &StoredFleet) -> Verdict {
    let mut reader = match FleetStoreReader::open(path) {
        Ok(reader) => reader,
        Err(_) => {
            return Verdict {
                open_failed: true,
                ..Verdict::default()
            }
        }
    };
    let mut verdict = Verdict::default();
    match stream_rows(&mut reader) {
        Ok(rows) => {
            let expected: Vec<Vec<CellId>> = (0..original.observed.horizon())
                .map(|t| original.observed.row(t).to_vec())
                .collect();
            assert_eq!(rows, expected, "stream returned different rows");
        }
        Err(_) => verdict.stream_failed = true,
    }
    match reader.load() {
        Ok(fleet) => assert_eq!(&fleet, original, "load returned a different fleet"),
        Err(_) => verdict.load_failed = true,
    }
    verdict
}

#[test]
fn truncation_at_every_offset_fails_typed() {
    let bytes = small_store();
    let path = temp_path("truncate");
    let original = {
        std::fs::write(&path, &bytes).unwrap();
        FleetStoreReader::open(&path).unwrap().load().unwrap()
    };
    let file = OpenOptions::new().write(true).open(&path).unwrap();
    for len in (0..bytes.len()).rev() {
        file.set_len(len as u64).unwrap();
        let verdict = read_back(&path, &original);
        assert!(
            verdict.open_failed || (verdict.stream_failed && verdict.load_failed),
            "store truncated to {len} of {} bytes read back as complete",
            bytes.len()
        );
    }
    drop(file);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn single_bit_flips_fail_typed_or_read_back_identically() {
    let bytes = small_store();
    let (footer_start, entries) = footer_index(&bytes);
    let pages: Vec<_> = entries
        .iter()
        .map(|e| (e.section, e.offset as usize..(e.offset + e.len) as usize))
        .collect();
    let in_page = |at: usize| pages.iter().find(|(_, r)| r.contains(&at)).map(|(s, _)| *s);
    let path = temp_path("flip");
    std::fs::write(&path, &bytes).unwrap();
    let original = FleetStoreReader::open(&path).unwrap().load().unwrap();
    let mut file = OpenOptions::new().write(true).open(&path).unwrap();
    let mut flipped = 0;
    // Every byte that carries meaning, plus a sample of page padding
    // (which no reader ever reads).
    for at in 0..bytes.len() {
        let meaningful = at < HEADER_LEN || at >= footer_start || in_page(at).is_some();
        if !meaningful && at % 61 != 0 {
            continue;
        }
        for bit in 0..8 {
            file.seek(SeekFrom::Start(at as u64)).unwrap();
            file.write_all(&[bytes[at] ^ (1 << bit)]).unwrap();
            let verdict = read_back(&path, &original);
            if in_page(at) == Some(Section::Observed) {
                // The footer is intact, so the damage surfaces as the
                // observed page is paged in — on both read paths.
                assert!(
                    !verdict.open_failed && verdict.stream_failed && verdict.load_failed,
                    "flip of byte {at} bit {bit} in an observed page: {verdict:?}"
                );
            }
            if meaningful {
                assert!(
                    verdict.open_failed || verdict.stream_failed || verdict.load_failed,
                    "flip of byte {at} bit {bit} went unnoticed: {verdict:?}"
                );
            }
            flipped += 1;
        }
        file.seek(SeekFrom::Start(at as u64)).unwrap();
        file.write_all(&bytes[at..=at]).unwrap();
    }
    assert!(flipped > 8 * (HEADER_LEN + FOOTER_TAIL_LEN));
    drop(file);
    std::fs::remove_file(&path).unwrap();
}
