//! Corruption battery over hand-built fixtures (ISSUE 8 satellite).
//!
//! `tests/fixtures/store/` holds one canonical store file plus damaged
//! variants — truncation, flipped payload byte, foreign magic, future
//! version, wrong cell width — committed as bytes so the *reader of
//! today* is exercised against the *files of yesterday*, not just
//! against its own writer. A sync test regenerates every fixture from
//! the current writer and fails if the committed bytes drift, which is
//! exactly the signal that a format change forgot to bump
//! `FORMAT_VERSION`.
//!
//! Regenerate after an intentional format bump with:
//! `cargo test -p chaff-store --test corruption -- --ignored`

mod common;

use chaff_markov::CellId;
use chaff_store::crc32::crc32;
use chaff_store::format::{encode_footer, PageEntry, Section};
use chaff_store::{FleetStoreReader, FleetStoreWriter, StoreError, StoreMeta, StoreStats};
use common::{footer_index, temp_path};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store")
}

/// Builds the canonical fixture store (4 services, 2 users, 3 slots,
/// 2 shards) and returns its bytes. Fully deterministic: the writer
/// has no clocks, no randomness and no platform-dependent fields.
fn canonical_bytes() -> Vec<u8> {
    let meta = StoreMeta {
        num_services: 4,
        num_users: 2,
        horizon: 3,
        shard_starts: vec![0, 2, 4],
        user_observed_indices: vec![3, 0],
    };
    let path = temp_path("canonical");
    let mut writer = FleetStoreWriter::create(&path, meta).expect("create");
    for t in 0..3usize {
        let observed: Vec<CellId> = (0..4).map(|i| CellId::new((t * 4 + i) % 9)).collect();
        let users = [CellId::new(t % 9), CellId::new((t + 5) % 9)];
        writer.append_slot(&observed, &users).expect("append");
    }
    writer
        .finish(StoreStats {
            migrations: 6,
            spills: 1,
            user_slots: 6,
            chaff_services: 2,
        })
        .expect("finish");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).expect("cleanup");
    bytes
}

/// Every fixture as `(file name, bytes)`, derived from the canonical
/// store. The first observed data page sits at offset 4096 (the first
/// page boundary after the 64-byte header).
fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
    let valid = canonical_bytes();
    let truncated = valid[..valid.len() - 5].to_vec();
    let mut bad_magic = valid.clone();
    bad_magic[0] = b'X';
    let mut wrong_version = valid.clone();
    wrong_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    // Wrong cell width *with a recomputed header CRC*, so the reader's
    // verdict is the width — not a checksum excuse.
    let mut wrong_cell_width = valid.clone();
    wrong_cell_width[12..16].copy_from_slice(&8u32.to_le_bytes());
    let crc = crc32(&wrong_cell_width[..60]);
    wrong_cell_width[60..64].copy_from_slice(&crc.to_le_bytes());
    let mut flipped_page_byte = valid.clone();
    flipped_page_byte[4096 + 5] ^= 0x10;
    vec![
        ("valid.store", valid),
        ("truncated.store", truncated),
        ("bad_magic.store", bad_magic),
        ("wrong_version.store", wrong_version),
        ("wrong_cell_width.store", wrong_cell_width),
        ("flipped_page_byte.store", flipped_page_byte),
    ]
}

fn open_fixture(name: &str) -> Result<FleetStoreReader, StoreError> {
    let path = fixture_dir().join(name);
    assert!(
        path.exists(),
        "fixture {name} missing — run `cargo test -p chaff-store --test corruption -- --ignored`"
    );
    FleetStoreReader::open(&path)
}

/// Run once (with `--ignored`) to materialize the committed fixtures.
#[test]
#[ignore = "writes the committed fixture files; run manually after intentional format changes"]
fn regenerate_fixtures() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).expect("fixture dir");
    for (name, bytes) in fixtures() {
        std::fs::write(dir.join(name), bytes).expect("write fixture");
    }
}

/// The committed fixture bytes must match what the current writer
/// produces: drift means the format changed without a version bump.
#[test]
fn fixtures_are_in_sync_with_the_writer() {
    for (name, expected) in fixtures() {
        let committed = std::fs::read(fixture_dir().join(name)).unwrap_or_else(|_| {
            panic!(
                "fixture {name} missing — run \
                 `cargo test -p chaff-store --test corruption -- --ignored`"
            )
        });
        assert_eq!(
            committed, expected,
            "{name} drifted from the current writer: format change without a version bump?"
        );
    }
}

#[test]
fn valid_fixture_loads_completely() {
    let mut reader = open_fixture("valid.store").expect("valid fixture opens");
    assert_eq!(reader.num_services(), 4);
    assert_eq!(reader.num_users(), 2);
    assert_eq!(reader.horizon(), 3);
    assert_eq!(reader.stats().migrations, 6);
    let fleet = reader.load().expect("valid fixture loads");
    assert_eq!(fleet.observed.row(0)[1], CellId::new(1));
    assert_eq!(fleet.user_observed_indices, vec![3, 0]);
}

#[test]
fn truncated_file_is_a_typed_truncation_error() {
    assert!(matches!(
        open_fixture("truncated.store"),
        Err(StoreError::Truncated { .. })
    ));
}

#[test]
fn foreign_magic_is_rejected_as_not_a_store() {
    match open_fixture("bad_magic.store") {
        Err(StoreError::BadMagic { found }) => assert_eq!(found[0], b'X'),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_reported_with_both_versions() {
    match open_fixture("wrong_version.store") {
        Err(StoreError::UnsupportedVersion { found, expected }) => {
            assert_eq!(found, 99);
            assert_eq!(expected, chaff_store::format::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn wrong_cell_width_is_reported_with_both_widths() {
    match open_fixture("wrong_cell_width.store") {
        Err(StoreError::WrongCellWidth { found, expected }) => {
            assert_eq!(found, 8);
            assert_eq!(expected, 4);
        }
        other => panic!("expected WrongCellWidth, got {other:?}"),
    }
}

#[test]
fn flipped_payload_byte_names_the_offending_page_on_both_read_paths() {
    // The footer itself is intact, so the store opens; the damage
    // surfaces when the page is read, naming page 0 (the first observed
    // page) on the load path and the streaming path alike.
    let mut reader = open_fixture("flipped_page_byte.store").expect("footer is intact");
    match reader.load() {
        Err(StoreError::PageChecksum { page: 0, .. }) => {}
        other => panic!("expected PageChecksum naming page 0, got {other:?}"),
    }
    let mut stream = reader.stream_slots();
    match stream.next_row() {
        Err(StoreError::PageChecksum { page: 0, .. }) => {}
        other => panic!("expected PageChecksum naming page 0, got {other:?}"),
    }
}

#[test]
fn corrupt_footer_index_is_typed() {
    let bytes = canonical_bytes();
    // Flip a byte inside the index region (40 bytes before the tail).
    let mut corrupt = bytes.clone();
    let at = corrupt.len() - 28 - 30;
    corrupt[at] ^= 0x01;
    let path = temp_path("footer_corrupt");
    std::fs::write(&path, &corrupt).unwrap();
    assert!(matches!(
        FleetStoreReader::open(&path),
        Err(StoreError::FooterCorrupt { .. }) | Err(StoreError::Truncated { .. })
    ));
    std::fs::remove_file(&path).unwrap();

    // Damage the entry count in the tail itself.
    let mut corrupt = bytes;
    let len = corrupt.len();
    corrupt[len - 28] ^= 0xFF;
    let path = temp_path("tail_corrupt");
    std::fs::write(&path, &corrupt).unwrap();
    assert!(matches!(
        FleetStoreReader::open(&path),
        Err(StoreError::FooterCorrupt { .. })
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn flipped_header_byte_is_a_header_checksum_error() {
    let mut bytes = canonical_bytes();
    bytes[17] ^= 0x04; // inside num_services
    let path = temp_path("header_flip");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        FleetStoreReader::open(&path),
        Err(StoreError::HeaderChecksum { .. })
    ));
    std::fs::remove_file(&path).unwrap();
}

/// Rewrites `bytes`' footer index through `edit` and re-encodes it with
/// a recomputed index CRC, so the reader's verdict is about the entries
/// themselves — not a checksum excuse.
fn with_edited_index(bytes: &[u8], edit: impl FnOnce(&mut Vec<PageEntry>)) -> Vec<u8> {
    let (index_start, mut entries) = footer_index(bytes);
    edit(&mut entries);
    let mut out = bytes[..index_start].to_vec();
    out.extend_from_slice(&encode_footer(&entries));
    out
}

#[test]
fn zero_row_data_page_in_the_index_is_footer_corrupt() {
    // Regression: a CRC-valid index listing an empty observed page used
    // to pass `open` and `load`, then panic inside `SlotStream::next_row`
    // slicing the empty page.
    let crafted = with_edited_index(&canonical_bytes(), |entries| {
        let first = entries
            .iter()
            .find(|e| e.section == Section::Observed)
            .copied()
            .expect("an observed page");
        entries.insert(
            0,
            PageEntry {
                num_rows: 0,
                len: 0,
                ..first
            },
        );
    });
    let path = temp_path("zero_row_page");
    std::fs::write(&path, &crafted).unwrap();
    match FleetStoreReader::open(&path) {
        Err(StoreError::FooterCorrupt { reason }) => {
            assert!(reason.contains("no rows"), "{reason}")
        }
        other => panic!("expected FooterCorrupt, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}
