//! Persistent fleet-store benchmarks: checkpoint write, whole-grid
//! load, paged stream-detection and the page checksum.
//!
//! Four groups cover the store's hot paths at the `N = 5 × 10⁴` rung:
//!
//! * `fleet_store/write` — serialize a finished fleet outcome into a
//!   fresh store file ([`FleetOutcome::checkpoint`]).
//! * `fleet_store/encode` — the same checkpoint into an in-memory
//!   buffer ([`FleetOutcome::checkpoint_to`]): encoding and
//!   checksums without file I/O, so `write` minus `encode` is the I/O.
//! * `fleet_store/load` — reopen the file and rebuild the full
//!   observation grid and user arenas ([`FleetStoreReader::load`]).
//! * `fleet_store/stream_detect` — reopen the file and run the unified
//!   [`detect_prefixes`](chaff_core::detector::BatchPrefixDetector::detect_prefixes)
//!   entry over the paged [`SlotStream`](chaff_store::SlotStream),
//!   never materializing the grid.
//!
//! A fifth, `fleet_store/crc32`, times the CRC32 on its own, so the
//! gate tracks checksum throughput apart from I/O. It has two inputs: a
//! 64 KiB buffer, which takes the interleaved-lane kernel alone, and one
//! 1 MiB page, which the checksum also splits across the worker pool.
//! The group runs at `sample_size(100)`: with 10 samples the gated
//! nearest-rank p99 would be the single worst sample.
//!
//! The criterion shim records `peak_rss_bytes` per group, so the CI
//! bench gate (`ci/compare_bench.py`) guards both the time and the
//! resident-set budget of every path — a regression that silently
//! materializes the grid inside the stream path shows up as an RSS
//! jump even if it is not slower.

use chaff_bench::{fixture_chain, record_bench_metadata};
use chaff_core::detector::{BatchPrefixDetector, DetectInput};
use chaff_markov::models::ModelKind;
use chaff_sim::fleet::{FleetConfig, FleetOutcome, FleetSimulation};
use chaff_store::crc32::crc32;
use chaff_store::format::TARGET_PAGE_PAYLOAD;
use chaff_store::FleetStoreReader;
use chaff_temp::TempPath;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::io::Cursor;
use std::time::Duration;

/// Fleet size of the bench rung.
const USERS: usize = 50_000;

/// Persisted slots per store file.
const HORIZON: usize = 12;

/// One natural fleet outcome shared by every group in this binary.
fn fixture_outcome() -> FleetOutcome {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 71);
    FleetSimulation::new(&chain, FleetConfig::new(USERS, HORIZON).with_seed(72))
        .run_natural()
        .expect("valid fleet")
}

/// Checkpoint write: outcome → store file (overwritten every iter).
fn bench_write(c: &mut Criterion) {
    let outcome = fixture_outcome();
    let path = TempPath::new("bench_write.store");
    let mut group = c.benchmark_group("fleet_store/write");
    group.bench_with_input(BenchmarkId::from_parameter(USERS), &USERS, |b, _| {
        b.iter(|| outcome.checkpoint(black_box(&path)).unwrap())
    });
    group.finish();
}

/// Checkpoint encode: outcome → store bytes in memory, no file I/O. The
/// buffer is reused, so after the first iteration no page is faulted in.
fn bench_encode(c: &mut Criterion) {
    let outcome = fixture_outcome();
    let mut bytes = Vec::new();
    let mut group = c.benchmark_group("fleet_store/encode");
    group.bench_with_input(BenchmarkId::from_parameter(USERS), &USERS, |b, _| {
        b.iter(|| {
            bytes.clear();
            outcome.checkpoint_to(Cursor::new(&mut bytes)).unwrap();
            black_box(bytes.len())
        })
    });
    group.finish();
}

/// Whole-grid restore: open + rebuild grid and arenas.
fn bench_load(c: &mut Criterion) {
    let outcome = fixture_outcome();
    let path = TempPath::new("bench_load.store");
    outcome.checkpoint(&path).expect("checkpoint");
    let mut group = c.benchmark_group("fleet_store/load");
    group.bench_with_input(BenchmarkId::from_parameter(USERS), &USERS, |b, _| {
        b.iter(|| {
            let mut reader = FleetStoreReader::open(black_box(&path)).unwrap();
            black_box(reader.load().unwrap())
        })
    });
    group.finish();
}

/// Paged detection straight off the file: one store page resident.
fn bench_stream_detect(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 71);
    let outcome = fixture_outcome();
    let path = TempPath::new("bench_stream.store");
    outcome.checkpoint(&path).expect("checkpoint");
    let detector = BatchPrefixDetector::new();
    let mut group = c.benchmark_group("fleet_store/stream_detect");
    group.bench_with_input(BenchmarkId::from_parameter(USERS), &USERS, |b, _| {
        b.iter(|| {
            let mut reader = FleetStoreReader::open(black_box(&path)).unwrap();
            let mut stream = reader.stream_slots();
            black_box(
                detector
                    .detect_prefixes(DetectInput::new(&chain, &mut stream))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// Page checksum in isolation: CRC32 of a 64 KiB buffer (below the pool
/// split threshold) and of one full-size (1 MiB) page payload, the cost
/// every page write and every page read pays.
fn bench_crc32(c: &mut Criterion) {
    let page: Vec<u8> = (0..TARGET_PAGE_PAYLOAD)
        .map(|i| (i as u32).wrapping_mul(0x9E37_79B9).to_le_bytes()[3])
        .collect();
    let mut group = c.benchmark_group("fleet_store/crc32");
    for len in [64 << 10, TARGET_PAGE_PAYLOAD] {
        group.bench_with_input(
            BenchmarkId::from_parameter(len),
            &page[..len],
            |b, bytes| b.iter(|| crc32(black_box(bytes))),
        );
    }
    group.finish();
}

/// Stamps pool size and lane width into the baseline before any record.
fn bench_metadata(_c: &mut Criterion) {
    record_bench_metadata();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_millis(500))
}

/// The checksum calls take under a millisecond, so 100 samples fit the
/// same budget and give the gated p99 a real tail.
fn configured_crc32() -> Criterion {
    configured().sample_size(100)
}

criterion_group! {
    name = fleet_store;
    config = configured();
    targets =
        bench_metadata,
        bench_write,
        bench_encode,
        bench_load,
        bench_stream_detect,
}
criterion_group! {
    name = fleet_store_crc32;
    config = configured_crc32();
    targets = bench_crc32,
}
criterion_main!(fleet_store, fleet_store_crc32);
