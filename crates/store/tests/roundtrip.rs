//! Property battery: write → load / stream round-trips are bit-for-bit
//! across population shapes, shard layouts and page boundaries.

mod common;

use chaff_markov::CellId;
use chaff_store::{FleetStoreReader, FleetStoreWriter, StoreMeta, StoreStats};
use chaff_temp::TempPath;
use common::memory_writer;
use proptest::prelude::*;
use std::io::Cursor;

/// SplitMix64 — deterministic per-case cell material without touching
/// the vendored RNG.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn cell(seed: u64, t: usize, i: usize, num_cells: usize) -> CellId {
    CellId::new((mix(seed ^ ((t as u64) << 32) ^ i as u64) % num_cells as u64) as usize)
}

/// Builds a meta with `shards` roughly balanced shard ranges.
fn meta_for(num_services: usize, num_users: usize, horizon: usize, shards: usize) -> StoreMeta {
    let shards = shards.clamp(1, num_services.max(1));
    let chunk = num_services.div_ceil(shards).max(1);
    let mut shard_starts = vec![0];
    let mut lo = 0;
    while lo < num_services {
        let hi = (lo + chunk).min(num_services);
        shard_starts.push(hi);
        lo = hi;
    }
    if shard_starts.len() < 2 {
        shard_starts.push(num_services);
    }
    StoreMeta {
        num_services,
        num_users,
        horizon,
        shard_starts,
        user_observed_indices: (0..num_users).map(|u| u % num_services.max(1)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole round-trip: every cell, offset table and stat
    /// survives the store unchanged, on both read paths.
    #[test]
    fn write_then_load_and_stream_are_bit_for_bit(
        seed in 0u64..10_000,
        num_users in 1usize..20,
        budget in 0usize..3,
        horizon in 0usize..12,
        shards in 1usize..8,
        num_cells in 1usize..50,
    ) {
        let num_services = num_users * (1 + budget);
        let meta = meta_for(num_services, num_users, horizon, shards);
        let mut writer = memory_writer(meta.clone());
        for t in 0..horizon {
            let observed: Vec<CellId> =
                (0..num_services).map(|i| cell(seed, t, i, num_cells)).collect();
            let users: Vec<CellId> =
                (0..num_users).map(|u| cell(!seed, t, u, num_cells)).collect();
            writer.append_slot(&observed, &users).unwrap();
        }
        let stats = StoreStats {
            migrations: mix(seed) as usize % 1000,
            spills: mix(seed + 1) as usize % 1000,
            user_slots: num_users * horizon,
            chaff_services: num_services - num_users,
        };
        let store = writer.finish(stats).unwrap();

        let mut reader = FleetStoreReader::new(store).unwrap();
        prop_assert_eq!(reader.meta(), &meta);
        let fleet = reader.load().unwrap();
        prop_assert_eq!(fleet.stats, stats);
        prop_assert_eq!(&fleet.shard_starts, &meta.shard_starts);
        prop_assert_eq!(&fleet.user_observed_indices, &meta.user_observed_indices);
        prop_assert_eq!(fleet.observed.num_trajectories(), num_services);
        prop_assert_eq!(fleet.observed.horizon(), horizon);
        for t in 0..horizon {
            let observed: Vec<CellId> =
                (0..num_services).map(|i| cell(seed, t, i, num_cells)).collect();
            prop_assert_eq!(fleet.observed.row(t), &observed[..], "slot {}", t);
        }
        prop_assert_eq!(fleet.user_cells.num_trajectories(), num_users);
        for u in 0..num_users {
            let expected: Vec<CellId> =
                (0..horizon).map(|t| cell(!seed, t, u, num_cells)).collect();
            prop_assert_eq!(fleet.user_cells.row(u), &expected[..], "user {}", u);
        }
        // The streaming path replays the same rows in the same order.
        let mut stream = reader.stream_slots();
        for t in 0..horizon {
            let row = stream.next_row().unwrap().expect("within horizon").to_vec();
            prop_assert_eq!(&row[..], fleet.observed.row(t), "slot {}", t);
        }
        prop_assert!(stream.next_row().unwrap().is_none());
    }

    /// Fuzzing the bytes: flipping any single byte of a valid store
    /// either surfaces a typed error or (padding bytes only) leaves the
    /// decoded fleet identical — never a panic, never silent corruption.
    #[test]
    fn single_byte_flips_never_panic_or_corrupt_silently(
        seed in 0u64..1_000,
        flip_at in 0usize..100_000,
        flip_bit in 0u8..8,
    ) {
        let num_services = 12;
        let num_users = 4;
        let horizon = 6;
        let meta = meta_for(num_services, num_users, horizon, 3);
        let mut writer = memory_writer(meta);
        for t in 0..horizon {
            let observed: Vec<CellId> =
                (0..num_services).map(|i| cell(seed, t, i, 30)).collect();
            let users: Vec<CellId> = (0..num_users).map(|u| cell(!seed, t, u, 30)).collect();
            writer.append_slot(&observed, &users).unwrap();
        }
        let mut bytes = writer.finish(StoreStats::default()).unwrap().into_inner();
        let baseline = FleetStoreReader::new(Cursor::new(&bytes)).unwrap().load().unwrap();

        let at = flip_at % bytes.len();
        bytes[at] ^= 1 << flip_bit;

        match FleetStoreReader::new(Cursor::new(bytes)) {
            Err(_) => {} // typed rejection at open: fine
            Ok(mut reader) => match reader.load() {
                Err(_) => {} // typed rejection at read: fine
                Ok(fleet) => prop_assert_eq!(
                    fleet, baseline,
                    "undetected flip at byte {} changed the fleet", at
                ),
            },
        }
    }
}

/// One store code path: a file writer and an in-memory writer fed the
/// same meta, rows and stats write the same bytes. Rows of 70k cells
/// (280 kB) span several pages, so the page padding is compared too.
#[test]
fn file_and_memory_writers_produce_identical_bytes() {
    let meta = meta_for(70_000, 2, 8, 3);
    let path = TempPath::new("same_bytes.store");
    let mut file = FleetStoreWriter::create(&path, meta.clone()).unwrap();
    let mut memory = memory_writer(meta);
    for t in 0..8 {
        let observed: Vec<CellId> = (0..70_000).map(|i| cell(7, t, i, 1000)).collect();
        let users = [cell(8, t, 0, 1000), cell(8, t, 1, 1000)];
        file.append_slot(&observed, &users).unwrap();
        memory.append_slot(&observed, &users).unwrap();
    }
    let stats = StoreStats {
        migrations: 3,
        spills: 2,
        user_slots: 16,
        chaff_services: 69_998,
    };
    file.finish(stats).unwrap();
    let bytes = memory.finish(stats).unwrap().into_inner();
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
}
