//! Mutation battery over the paged read path: a truncated, bit-flipped
//! or spliced store must read back as a typed [`StoreError`] or as
//! exactly the original rows — never a panic, never silently different
//! data — on the whole-grid `load()` path *and* the page-at-a-time
//! `stream_slots()` path that paged detection drives. Every store is
//! built and damaged in memory.

mod common;

use chaff_markov::CellId;
use chaff_store::format::{encode_footer, PageEntry, Section, FOOTER_TAIL_LEN, HEADER_LEN};
use chaff_store::{FleetStoreReader, StoreError, StoreMeta, StoreStats, StoredFleet};
use common::{footer_index, memory_writer};
use std::io::{Cursor, Read, Seek};

/// Writes a store of `num_services` services, 3 users, `horizon` slots
/// and 2 shards, and returns its bytes. At 6 services each section is
/// one page; at 100k services (400 kB rows, two to a 1 MiB page) 5 slots
/// page their observed rows as 2 + 2 + 1.
fn store_bytes(num_services: usize, horizon: usize) -> Vec<u8> {
    let meta = StoreMeta {
        num_services,
        num_users: 3,
        horizon,
        shard_starts: vec![0, num_services / 2, num_services],
        user_observed_indices: vec![0, 2, 4],
    };
    let mut writer = memory_writer(meta);
    for t in 0..horizon {
        let observed: Vec<CellId> = (0..num_services)
            .map(|i| CellId::new(t * 31 + i * 7 + 1))
            .collect();
        let users: Vec<CellId> = (0..3).map(|u| CellId::new(t * 5 + u * 11 + 2)).collect();
        writer.append_slot(&observed, &users).expect("append");
    }
    writer
        .finish(StoreStats {
            migrations: 4,
            spills: 1,
            user_slots: 3 * horizon,
            chaff_services: num_services - 3,
        })
        .expect("finish")
        .into_inner()
}

/// Loads an undamaged store.
fn load(bytes: &[u8]) -> StoredFleet {
    FleetStoreReader::new(Cursor::new(bytes))
        .and_then(|mut reader| reader.load())
        .expect("valid store")
}

/// Every observed row `stream_slots()` yields, or its first error.
fn stream_rows<R: Read + Seek>(
    reader: &mut FleetStoreReader<R>,
) -> Result<Vec<Vec<CellId>>, StoreError> {
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

/// Reads `bytes` through `open`, `stream_slots()` and `load()`; any
/// data a path does return must equal `original` exactly.
fn read_back(bytes: &[u8], original: &StoredFleet) -> Verdict {
    let mut reader = match FleetStoreReader::new(Cursor::new(bytes)) {
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
    let bytes = store_bytes(6, 5);
    let original = load(&bytes);
    for len in (0..bytes.len()).rev() {
        let verdict = read_back(&bytes[..len], &original);
        assert!(
            verdict.open_failed || (verdict.stream_failed && verdict.load_failed),
            "store truncated to {len} of {} bytes read back as complete",
            bytes.len()
        );
    }
}

#[test]
fn single_bit_flips_fail_typed_or_read_back_identically() {
    let mut bytes = store_bytes(6, 5);
    let (footer_start, entries) = footer_index(&bytes);
    let pages: Vec<_> = entries
        .iter()
        .map(|e| (e.section, e.offset as usize..(e.offset + e.len) as usize))
        .collect();
    let in_page = |at: usize| pages.iter().find(|(_, r)| r.contains(&at)).map(|(s, _)| *s);
    let original = load(&bytes);
    let mut flipped = 0;
    // Every byte that carries meaning, plus a sample of page padding
    // (which no reader ever reads).
    for at in 0..bytes.len() {
        let meaningful = at < HEADER_LEN || at >= footer_start || in_page(at).is_some();
        if !meaningful && at % 61 != 0 {
            continue;
        }
        for bit in 0..8 {
            bytes[at] ^= 1 << bit;
            let verdict = read_back(&bytes, &original);
            bytes[at] ^= 1 << bit;
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
    }
    assert!(flipped > 8 * (HEADER_LEN + FOOTER_TAIL_LEN));
}

/// Index positions of every same-section pair of data pages.
fn same_section_pairs(entries: &[PageEntry]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (i, a) in entries.iter().enumerate() {
        for (j, b) in entries.iter().enumerate().skip(i + 1) {
            if a.section == b.section && a.section != Section::Offsets {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

#[test]
fn swapped_page_entries_fail_typed() {
    // Two pages trade their payload pointers (offset, length and CRC)
    // in the index, and the index CRC is re-sealed: every checksum still
    // matches, so only the reader's row-coverage check stands between
    // the splice and rows served out of order.
    let bytes = store_bytes(100_000, 5);
    let original = load(&bytes);
    let (index_start, entries) = footer_index(&bytes);
    let pairs = same_section_pairs(&entries);
    assert!(pairs.len() >= 3, "the observed section spans three pages");
    for (i, j) in pairs {
        let mut spliced = entries.clone();
        let (a, b) = (spliced[i], spliced[j]);
        (spliced[i].offset, spliced[i].len, spliced[i].crc) = (b.offset, b.len, b.crc);
        (spliced[j].offset, spliced[j].len, spliced[j].crc) = (a.offset, a.len, a.crc);
        let mut damaged = bytes[..index_start].to_vec();
        damaged.extend_from_slice(&encode_footer(&spliced));
        let verdict = read_back(&damaged, &original);
        assert!(
            verdict.open_failed || verdict.stream_failed || verdict.load_failed,
            "pages {i} and {j} swapped in the index read back: {verdict:?}"
        );
    }
}

#[test]
fn page_payload_copied_over_another_fails_typed() {
    // One page's bytes overwrite another's in place; the index is
    // untouched, so the target page's checksum no longer matches.
    let bytes = store_bytes(100_000, 5);
    let original = load(&bytes);
    let (_, entries) = footer_index(&bytes);
    for (i, j) in same_section_pairs(&entries)
        .iter()
        .flat_map(|&(i, j)| [(i, j), (j, i)])
    {
        let (from, to) = (entries[i], entries[j]);
        let len = from.len.min(to.len) as usize;
        let mut damaged = bytes.clone();
        let (from, to) = (from.offset as usize, to.offset as usize);
        damaged.copy_within(from..from + len, to);
        let verdict = read_back(&damaged, &original);
        assert!(
            verdict.open_failed || verdict.stream_failed || verdict.load_failed,
            "page {i} copied over page {j} read back: {verdict:?}"
        );
    }
}
