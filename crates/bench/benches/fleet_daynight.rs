//! Day/night commuter fleet benchmarks (time-varying-mobility tentpole).
//!
//! Tracks what the epoch dimension costs on the fleet hot paths at
//! `N = 10⁴`: (a) simulating a chaffed commuter fleet from epoch-active
//! chains (`simulate` — per-slot chain selection rides the existing
//! SplitMix64 lanes), and (b) scoring the same observed grid under the
//! schedule-aware detector against the stationary mixture
//! (`detect/epoch_aware` vs `detect/stationary` — table switching is a
//! per-slot pointer swap, so the two should track each other). CI
//! archives the records next to the other fleet groups and gates them
//! with `ci/compare_bench.py`; the records carry an `epochs` metadata
//! key so a baseline produced under a different schedule shape reads as
//! a fixture change.

use chaff_bench::record_bench_metadata_with;
use chaff_core::detector::{BatchPrefixDetector, DetectInput, DetectModel};
use chaff_eval::experiments::fleet_daynight::{build_registries, DayNightConfig};
use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

const USERS: usize = 10_000;
const BUDGET: usize = 1;

fn daynight_config() -> DayNightConfig {
    DayNightConfig {
        num_users: USERS,
        ..DayNightConfig::default()
    }
}

/// Simulate the chaffed commuter fleet from the epoch-active chains.
fn bench_simulate(c: &mut Criterion) {
    let config = daynight_config();
    let (aware, _) = build_registries(&config).expect("registries");
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, BUDGET);
    let mut group = c.benchmark_group("fleet_daynight/simulate");
    group.bench_with_input(BenchmarkId::from_parameter(USERS), &USERS, |b, &n| {
        b.iter(|| {
            FleetSimulation::with_registry(
                &aware,
                FleetConfig::new(n, config.horizon()).with_seed(black_box(1709)),
            )
            .run_chaffed(&policy)
            .expect("fleet")
        })
    });
    group.finish();
}

/// Score one observed commuter grid under both adversary models.
fn bench_detect(c: &mut Criterion) {
    let config = daynight_config();
    let (aware, stationary) = build_registries(&config).expect("registries");
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, BUDGET);
    let outcome = FleetSimulation::with_registry(
        &aware,
        FleetConfig::new(USERS, config.horizon()).with_seed(1709),
    )
    .run_chaffed(&policy)
    .expect("fleet");
    let detector = BatchPrefixDetector::new();
    let mut group = c.benchmark_group("fleet_daynight/detect");
    group.bench_function(BenchmarkId::new("epoch_aware", USERS), |b| {
        b.iter(|| {
            detector
                .detect_prefixes(DetectInput::new(
                    DetectModel::Schedule(&aware),
                    black_box(&outcome.observed),
                ))
                .expect("detection")
        })
    });
    group.bench_function(BenchmarkId::new("stationary", USERS), |b| {
        b.iter(|| {
            detector
                .detect_prefixes(DetectInput::new(&stationary, black_box(&outcome.observed)))
                .expect("detection")
        })
    });
    group.finish();
}

fn bench_metadata(_c: &mut Criterion) {
    let config = daynight_config();
    let schedule = chaff_markov::EpochSchedule::day_night(config.day_slots, config.night_slots)
        .expect("schedule");
    record_bench_metadata_with(&[("epochs", schedule.num_epochs() as u64)]);
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = fleet_daynight;
    config = configured();
    targets =
        bench_simulate,
        bench_detect,
        bench_metadata,
}
criterion_main!(fleet_daynight);
