//! Chaffed-fleet benchmarks: the budgeted multi-user game end to end.
//!
//! Tracks the cost of (a) simulating a fleet under a uniform IM chaff
//! policy, per strategy over a 3-class registry, and with a capacity
//! limit that spills, (b) batched detection over the enlarged `N · (1 + B)`
//! candidate set, (c) the multi-class (mixture) detection kernel over a
//! heterogeneous registry, and (d) the full simulate + detect pipeline.
//! CI archives the results in the `BENCH_fleet` baseline and fails on
//! >25% regressions (see `ci/compare_bench.py`).

use chaff_bench::fixture_chain;
use chaff_core::detector::{BatchPrefixDetector, DetectInput};
use chaff_markov::models::ModelKind;
use chaff_markov::{MobilityRegistry, Trajectory};
use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

const HORIZON: usize = 100;
const USERS: usize = 1_000;

fn policy(budget: usize) -> FleetChaffPolicy {
    FleetChaffPolicy::uniform(FleetChaffStrategy::Im, budget)
}

/// A chaffed observation set: `USERS` users with `budget` chaffs each.
fn chaffed_observations(budget: usize) -> (chaff_markov::MarkovChain, Vec<Trajectory>) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 35);
    let outcome = FleetSimulation::new(&chain, FleetConfig::new(USERS, HORIZON).with_seed(36))
        .run_chaffed(&policy(budget))
        .expect("valid fleet");
    (chain, outcome.observed.to_trajectories())
}

/// The heterogeneous fleet of the multi-class benches: non-skewed,
/// spatially and temporally skewed classes over one 10-cell space.
fn three_class_registry() -> MobilityRegistry {
    MobilityRegistry::new(vec![
        fixture_chain(ModelKind::NonSkewed, 10, 37),
        fixture_chain(ModelKind::SpatiallySkewed, 10, 38),
        fixture_chain(ModelKind::TemporallySkewed, 10, 39),
    ])
    .expect("shared cell space")
}

/// Chaffed fleet simulation: IM at per-user budgets 1 and 2, each
/// online strategy at B = 2 over the 3-class registry, and IM at B = 2
/// under a per-node capacity tight enough to spill.
fn bench_simulate(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 35);
    let mut group = c.benchmark_group("fleet_chaff/simulate");
    for budget in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::from_parameter(budget),
            &budget,
            |b, &budget| {
                b.iter(|| {
                    FleetSimulation::new(
                        &chain,
                        FleetConfig::new(USERS, HORIZON).with_seed(black_box(36)),
                    )
                    .run_chaffed(&policy(budget))
                    .unwrap()
                })
            },
        );
    }
    let registry = three_class_registry();
    for strategy in [
        FleetChaffStrategy::Im,
        FleetChaffStrategy::Cml,
        FleetChaffStrategy::Mo,
    ] {
        let policy = FleetChaffPolicy::uniform(strategy, 2);
        let id = strategy.to_string().to_lowercase();
        group.bench_function(id, |b| {
            b.iter(|| {
                FleetSimulation::with_registry(
                    &registry,
                    FleetConfig::new(USERS, HORIZON).with_seed(black_box(36)),
                )
                .run_chaffed(&policy)
                .unwrap()
            })
        });
    }
    // 3,000 services over 10 nodes of 320 instances: placements crowd
    // the popular cells, so the capacity replay spills every run.
    let capped = || {
        FleetSimulation::new(
            &chain,
            FleetConfig::new(USERS, HORIZON)
                .with_seed(black_box(36))
                .with_capacity(320),
        )
        .run_chaffed(&policy(2))
        .unwrap()
    };
    assert!(capped().stats.spills > 0, "the capped case must spill");
    group.bench_function("capped", |b| b.iter(capped));
    group.finish();
}

/// Batched detection over the enlarged chaffed candidate set.
fn bench_detect(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_chaff/detect");
    for budget in [1usize, 2] {
        let (chain, observed) = chaffed_observations(budget);
        let table = chain.log_likelihood_table();
        let detector = BatchPrefixDetector::new();
        group.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, _| {
            b.iter(|| {
                detector
                    .detect_prefixes(DetectInput::new(&[&table], black_box(&observed)))
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// The multi-class mixture kernel: detection over a heterogeneous
/// 3-class fleet (max-over-class scoring).
fn bench_detect_multi_class(c: &mut Criterion) {
    let registry = three_class_registry();
    let outcome =
        FleetSimulation::with_registry(&registry, FleetConfig::new(USERS, HORIZON).with_seed(40))
            .run_chaffed(&policy(1))
            .expect("valid fleet");
    let observed = outcome.observed.to_trajectories();
    let tables = registry.tables();
    let detector = BatchPrefixDetector::new();
    let mut group = c.benchmark_group("fleet_chaff/detect_multi_class");
    group.bench_with_input(BenchmarkId::from_parameter(3), &3, |b, _| {
        b.iter(|| {
            detector
                .detect_prefixes(DetectInput::new(&tables, black_box(&observed)))
                .unwrap()
        })
    });
    group.finish();
}

/// End-to-end chaffed pipeline: simulate the fleet under budget B = 2
/// and detect over the enlarged candidate set.
fn bench_pipeline(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, 10, 41);
    let table = chain.log_likelihood_table();
    let mut group = c.benchmark_group("fleet_chaff/pipeline");
    group.bench_with_input(BenchmarkId::from_parameter(USERS), &USERS, |b, &n| {
        b.iter(|| {
            let outcome = FleetSimulation::new(&chain, FleetConfig::new(n, HORIZON).with_seed(42))
                .run_chaffed(&policy(2))
                .unwrap();
            BatchPrefixDetector::new()
                .detect_prefixes(DetectInput::new(&[&table], black_box(&outcome.observed)))
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
    name = fleet_chaff;
    config = configured();
    targets =
        bench_simulate,
        bench_detect,
        bench_detect_multi_class,
        bench_pipeline,
}
criterion_main!(fleet_chaff);
