//! Columnar fleet-store benchmarks: the `N = 10⁵` scaling rung.
//!
//! Tracks (a) columnar fleet generation straight into the observed
//! grid and the user arena, without chaffs and with `B = 2` chaffs per
//! user under each online strategy (the fused draw+chaff kernel), (b)
//! the streaming columnar detection kernel over the grid, and (c) the
//! end-to-end chaffed pipeline at `N = 50,000`. Joins the
//! CI `BENCH_fleet` baseline: `ci/compare_bench.py` gates both
//! `mean_ns` and — via the criterion shim's per-benchmark `VmHWM`
//! watermark — `peak_rss_bytes`, so a memory regression in the columnar
//! store fails CI the same way a runtime regression does.

use chaff_bench::{fixture_chain, record_bench_metadata};
use chaff_core::detector::{BatchPrefixDetector, DetectInput};
use chaff_markov::models::ModelKind;
use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Matches `chaff_eval::experiments::fleet_scale::SCALE_HORIZON`.
const HORIZON: usize = 24;
const USERS: usize = 50_000;

fn policy(budget: usize) -> FleetChaffPolicy {
    FleetChaffPolicy::uniform(FleetChaffStrategy::Im, budget)
}

/// Columnar fleet generation (no chaffs): N users into one slot-major
/// observed grid and one user arena, no per-trajectory allocations.
fn bench_simulate(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 51);
    let mut group = c.benchmark_group("fleet_scale/simulate");
    group.bench_with_input(BenchmarkId::from_parameter(USERS), &USERS, |b, &n| {
        b.iter(|| {
            FleetSimulation::new(
                &chain,
                FleetConfig::new(n, HORIZON).with_seed(black_box(52)),
            )
            .run_natural()
            .unwrap()
        })
    });
    group.finish();
}

/// Chaffed fleet generation at `B = 2` under each online strategy:
/// the draw+chaff kernel with IM walks, CML and MO decisions.
fn bench_simulate_chaffed(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 57);
    let mut group = c.benchmark_group("fleet_scale/simulate_chaffed");
    for (name, strategy) in [
        ("im", FleetChaffStrategy::Im),
        ("cml", FleetChaffStrategy::Cml),
        ("mo", FleetChaffStrategy::Mo),
    ] {
        let policy = FleetChaffPolicy::uniform(strategy, 2);
        group.bench_with_input(BenchmarkId::from_parameter(name), &USERS, |b, &n| {
            b.iter(|| {
                FleetSimulation::new(
                    &chain,
                    FleetConfig::new(n, HORIZON).with_seed(black_box(58)),
                )
                .run_chaffed(&policy)
                .unwrap()
            })
        });
    }
    group.finish();
}

/// Streaming columnar detection over a prebuilt observation grid.
fn bench_detect_columnar(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 53);
    let outcome = FleetSimulation::new(&chain, FleetConfig::new(USERS, HORIZON).with_seed(54))
        .run_natural()
        .expect("valid fleet");
    let table = chain.log_likelihood_table();
    let detector = BatchPrefixDetector::new();
    let mut group = c.benchmark_group("fleet_scale/detect_columnar");
    group.bench_with_input(BenchmarkId::from_parameter(USERS), &USERS, |b, _| {
        b.iter(|| {
            detector
                .detect_prefixes(DetectInput::new(&table, black_box(&outcome.observed)))
                .unwrap()
        })
    });
    group.finish();
}

/// End-to-end chaffed columnar pipeline: simulate N users at B = 2 and
/// detect over the 3N-service grid.
fn bench_pipeline(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 55);
    let table = chain.log_likelihood_table();
    let mut group = c.benchmark_group("fleet_scale/pipeline");
    group.bench_with_input(BenchmarkId::from_parameter(USERS), &USERS, |b, &n| {
        b.iter(|| {
            let outcome = FleetSimulation::new(&chain, FleetConfig::new(n, HORIZON).with_seed(56))
                .run_chaffed(&policy(2))
                .unwrap();
            BatchPrefixDetector::new()
                .detect_prefixes(DetectInput::new(&[&table], black_box(&outcome.observed)))
                .unwrap()
        })
    });
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

criterion_group! {
    name = fleet_scale;
    config = configured();
    targets =
        bench_metadata,
        bench_simulate,
        bench_simulate_chaffed,
        bench_detect_columnar,
        bench_pipeline,
}
criterion_main!(fleet_scale);
