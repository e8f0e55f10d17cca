//! Benchmark-only crate: shared fixtures for the Criterion benches.
//!
//! The benches live in `benches/`:
//!
//! * `figures` — one benchmark per reproduced paper artifact (Table 1,
//!   Figs. 4–10, theory checks) at reduced Monte Carlo scale, so the cost
//!   of regenerating each result is tracked over time;
//! * `strategies` — chaff-strategy complexity ablations: OO's `O(T²·nnz)`
//!   against ML's `O(T·nnz)` and MO's `O(T·s)`, dense versus sparse
//!   models, and the trellis DP against the paper's Dijkstra;
//! * `detectors` — the `O(N·T)` ML detector and the strategy-aware
//!   advanced detector;
//! * `batch_detection` — the fleet engine's batched, sharded detection
//!   core against the per-trajectory path at `N = 1,000` / `10,000`,
//!   plus the end-to-end fleet pipeline (CI archives these as
//!   `BENCH_fleet.json`);
//! * `fleet_chaff` — the chaffed-fleet subsystem: policy-driven
//!   simulation, detection over the enlarged `N · (1 + B)` candidate
//!   set, the multi-class mixture kernel, and the end-to-end pipeline
//!   (also part of the CI baseline, gated by `ci/compare_bench.py`);
//! * `fleet_daynight` — the time-varying commuter fleet at `N = 10⁴`:
//!   simulation from epoch-active chains and schedule-aware detection
//!   against the stationary mixture; records stamp an `epochs` metadata
//!   key;
//! * `fleet_scale` — the columnar fleet store at `N = 50,000`:
//!   arena-backed generation, the streaming columnar detection kernel
//!   and the end-to-end chaffed pipeline; its records carry
//!   `peak_rss_bytes` so the CI gate catches memory regressions in the
//!   columnar store, not just runtime regressions;
//! * `ingestion` — the trace pipeline: the one sharded ingestion engine
//!   at shard counts 1 and 4 and the replica-amplified path (also
//!   baseline-gated, so trace-pipeline throughput regressions fail CI
//!   like detection regressions);
//! * `substrates` — Markov/stationary/Voronoi substrate operations.

use chaff_markov::models::ModelKind;
use chaff_markov::MarkovChain;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic mobility model fixture shared by the benches.
pub fn fixture_chain(kind: ModelKind, cells: usize, seed: u64) -> MarkovChain {
    let mut rng = StdRng::seed_from_u64(seed);
    MarkovChain::new(kind.build(cells, &mut rng).expect("valid size")).expect("ergodic")
}

/// A deterministic user trajectory fixture.
pub fn fixture_user(chain: &MarkovChain, horizon: usize, seed: u64) -> chaff_markov::Trajectory {
    let mut rng = StdRng::seed_from_u64(seed);
    chain.sample_trajectory(horizon, &mut rng)
}

/// Stamps the measurement environment into the `CRITERION_JSON`
/// baseline: the worker-pool thread count every sharded hot path
/// dispatches onto, and the `f64` lane width the detection kernels chunk
/// by. Call once per bench binary (a no-op when `CRITERION_JSON` is
/// unset), so archived baselines record what machine shape produced
/// them — a 2× "regression" after a move from 16 to 8 cores reads as a
/// machine change, not a code change.
pub fn record_bench_metadata() {
    record_bench_metadata_with(&[]);
}

/// [`record_bench_metadata`] plus bench-specific keys — e.g. the
/// time-varying fleet benches stamp `epochs` so a baseline produced
/// under a different schedule shape reads as a fixture change, not a
/// code regression.
pub fn record_bench_metadata_with(extra: &[(&str, u64)]) {
    let mut pairs = vec![
        (
            "worker_pool_threads",
            chaff_core::pool::global().threads() as u64,
        ),
        ("lane_width", chaff_markov::LANE_WIDTH as u64),
    ];
    pairs.extend_from_slice(extra);
    criterion::record_metadata(&pairs);
}
