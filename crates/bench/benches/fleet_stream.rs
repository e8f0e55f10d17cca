//! Streaming-engine benchmarks: per-slot step latency at scale.
//!
//! The batch benches measure whole-run throughput; an online observer
//! cares about the latency of *one slot* — draw/ingest, chaff, gather,
//! incremental detection — and especially its tail, since one
//! slow slot stalls the live window. Each `iter` sample here is a
//! single [`StreamingFleetEngine::step`], so the criterion shim's
//! `p50_ns`/`p95_ns`/`p99_ns` fields are exactly the per-slot latency
//! percentiles, and the CI `BENCH_fleet` gate (`ci/compare_bench.py`)
//! fails on a >25% p99 regression the same way it does for `mean_ns`
//! and `peak_rss_bytes`.
//!
//! The engines are built with a horizon far beyond what the time
//! budget can consume, so the routine never hits the end-of-horizon
//! path mid-measurement; streaming state is horizon-independent, so
//! the oversized horizon costs nothing. Each bench function builds its
//! engine **once** and pre-warms it past its launch slot before
//! handing it to the measurement loop, so every measured sample is a
//! steady-state step — construction, first-touch faulting and the
//! chaff launch never contaminate the percentiles.

use chaff_bench::{fixture_chain, record_bench_metadata};
use chaff_markov::models::ModelKind;
use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig};
use chaff_sim::streaming::StreamingFleetEngine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Far more slots than the measurement budget can step through.
const BENCH_HORIZON: usize = 1_000_000;

/// Per-slot step at the acceptance rung, chaffed: N = 10⁵ users at
/// B = 2, i.e. 300,000 observed services per slot.
fn bench_step_chaffed(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 61);
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 2);
    let users = 100_000usize;
    let mut engine = StreamingFleetEngine::new(
        &chain,
        FleetConfig::new(users, BENCH_HORIZON).with_seed(62),
        &policy,
    )
    .expect("valid streaming config");
    prewarm(&mut engine);
    let mut group = c.benchmark_group("fleet_stream/step_chaffed");
    group.bench_with_input(BenchmarkId::from_parameter(users), &users, |b, _| {
        b.iter(|| black_box(engine.step().unwrap()))
    });
    group.finish();
}

/// Per-slot step at the million-user rung (undefended): the acceptance
/// latency-percentile surface for N = 10⁶.
fn bench_step_million(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 63);
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 0);
    let users = 1_000_000usize;
    let mut engine = StreamingFleetEngine::new(
        &chain,
        FleetConfig::new(users, BENCH_HORIZON).with_seed(64),
        &policy,
    )
    .expect("valid streaming config");
    prewarm(&mut engine);
    let mut group = c.benchmark_group("fleet_stream/step");
    group.bench_with_input(BenchmarkId::from_parameter(users), &users, |b, _| {
        b.iter(|| black_box(engine.step().unwrap()))
    });
    group.finish();
}

/// Per-slot step through capacity placement: N = 10⁵ users at IM
/// `B = 1` on 10 cells, each node holding 10% more than an even spread
/// of the 200,000 services, so a share of every slot's placements spill
/// and the p99 gate watches the slot kernel.
fn bench_step_capacity(c: &mut Criterion) {
    let cells = 10;
    let chain = fixture_chain(ModelKind::NonSkewed, cells, 65);
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, 1);
    let users = 100_000usize;
    let capacity = (2 * users).div_ceil(cells) * 11 / 10;
    let mut engine = StreamingFleetEngine::new(
        &chain,
        FleetConfig::new(users, BENCH_HORIZON)
            .with_seed(66)
            .with_capacity(capacity),
        &policy,
    )
    .expect("valid streaming config");
    prewarm(&mut engine);
    assert!(
        engine.stats().spills > 0,
        "capacity {capacity} never spilled"
    );
    let mut group = c.benchmark_group("fleet_stream/step_capacity");
    group.bench_with_input(BenchmarkId::from_parameter(users), &users, |b, _| {
        b.iter(|| black_box(engine.step().unwrap()))
    });
    group.finish();
}

/// Steps the shared engine past its launch slot outside measurement:
/// the first step launches the chaffs and first touches every buffer.
/// After this, the measured routine is pure steady-state — no
/// construction, no first-touch faults — and `p99_ns` is the per-slot
/// tail, not a setup artifact.
fn prewarm(engine: &mut StreamingFleetEngine) {
    engine
        .step()
        .expect("pre-warm step")
        .expect("horizon covers pre-warm");
}

/// Stamps pool size and lane width into the baseline before any record.
fn bench_metadata(_c: &mut Criterion) {
    record_bench_metadata();
}

/// 100 samples per bench: with the shim's nearest-rank percentiles, 10
/// samples would make `p99_ns` (the gated figure) the single worst
/// sample, so one scheduler hiccup would fire the gate.
fn configured() -> Criterion {
    Criterion::default()
        .sample_size(100)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = fleet_stream;
    config = configured();
    targets =
        bench_metadata,
        bench_step_chaffed,
        bench_step_capacity,
        bench_step_million,
}
criterion_main!(fleet_stream);
