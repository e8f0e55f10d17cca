//! Trace-ingestion benchmarks: the one ingestion engine behind
//! `TraceDatasetBuilder::build` at pinned shard counts, plus the
//! replica-amplified path that feeds empirical fleets.
//!
//! Part of the `BENCH_fleet` CI baseline: `ci/compare_bench.py` gates
//! these like detection throughput, so a regression in the
//! regularize→quantize→estimate hot path fails CI.

use chaff_mobility::pipeline::TraceDatasetBuilder;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// The common reduced-scale recipe: big enough that sharding matters,
/// small enough for CI (~60 nodes, ~260 cells, 60 one-minute slots).
fn builder(seed: u64) -> TraceDatasetBuilder {
    TraceDatasetBuilder::new()
        .num_nodes(60)
        .num_towers(300)
        .horizon_slots(60)
        .seed(seed)
}

/// The engine at pinned shard counts (shards=1 measures the serial
/// batch loop; higher counts measure the parallel speedup).
fn bench_streamed(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingestion/streamed");
    for shards in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| b.iter(|| builder(black_box(31)).shards(shards).build().unwrap()),
        );
    }
    group.finish();
}

/// The amplification path: 8 replica fleets (~480 nodes) through the
/// sharded engine — the rung towards the 10⁴–10⁵-node empirical fleets.
fn bench_amplified(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingestion/amplified");
    group.bench_with_input(BenchmarkId::from_parameter(8), &8, |b, &replicas| {
        b.iter(|| {
            builder(black_box(32))
                .replicas(replicas)
                .shards(4)
                .build()
                .unwrap()
        })
    });
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = ingestion;
    config = configured();
    targets =
        bench_streamed,
        bench_amplified,
}
criterion_main!(ingestion);
