//! Microbenchmarks of the vectorized per-slot detection kernels.
//!
//! `fleet_scale` measures whole detections; this group isolates the
//! three phases one slot is made of, so a regression report names the
//! phase, not just the pipeline: the gather+add accumulator advance
//! (dense and CSR storage), the two-pass running-max + tie-collection
//! argmax, and the CSR row walk behind each sparse gather. A fourth
//! group times the simulation side's successor draw (one inverse-CDF
//! lookup per step of a walk) on a short dense row and on a long
//! sparse chain. Widths cover
//! the paper-scale fleet rung (`N = 10⁴`) and the million-user rung
//! (`N = 10⁶`). Part of the CI `BENCH_fleet` baseline: the `kernels/*`
//! records are gated by `ci/compare_bench.py` on `mean_ns` / `p99_ns` /
//! `peak_rss_bytes` exactly like the pipeline groups.

use chaff_bench::{fixture_chain, record_bench_metadata};
use chaff_core::detector::kernel::{collect_ties, row_max};
use chaff_markov::models::ModelKind;
use chaff_markov::{CellId, LogLikelihoodTable, MarkovChain, TransitionMatrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

const WIDTHS: [usize; 2] = [10_000, 1_000_000];
const CELLS: usize = 10;

/// One slot of observations: `width` services' previous and current
/// cells, sampled from the chain so transition support matches reality.
fn slot_rows(chain: &MarkovChain, width: usize, seed: u64) -> (Vec<CellId>, Vec<CellId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let prev: Vec<CellId> = (0..width)
        .map(|_| CellId::new(rng.random_range(0..CELLS)))
        .collect();
    let row: Vec<CellId> = prev.iter().map(|&p| chain.step(p, &mut rng)).collect();
    (prev, row)
}

/// Phase 1 — gather per-service increments and add into the running
/// accumulators, for both table storages.
fn bench_gather_add(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, CELLS, 71);
    for (name, dense) in [("gather_add_dense", true), ("gather_add_sparse", false)] {
        let table = LogLikelihoodTable::with_storage(&chain, dense);
        let mut group = c.benchmark_group(format!("kernels/{name}"));
        for width in WIDTHS {
            let (prev, row) = slot_rows(&chain, width, 72);
            let mut accs = vec![0.0f64; width];
            group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
                b.iter(|| {
                    table
                        .add_step_batch(Some(black_box(&prev)), black_box(&row), &mut accs)
                        .unwrap()
                })
            });
        }
        group.finish();
    }
}

/// Phases 2+3 — the branchless two-pass argmax: exact row maximum, then
/// tolerance-band tie collection, over realistic accumulated scores.
fn bench_argmax(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, CELLS, 73);
    let table = chain.log_likelihood_table();
    let mut group = c.benchmark_group("kernels/argmax");
    for width in WIDTHS {
        // Scores accumulated over a few slots, so magnitudes and tie
        // density match what detection actually scans.
        let mut scores = vec![0.0f64; width];
        let mut rows = slot_rows(&chain, width, 74);
        for _ in 0..8 {
            table
                .add_step_batch(Some(&rows.0), &rows.1, &mut scores)
                .unwrap();
            std::mem::swap(&mut rows.0, &mut rows.1);
        }
        let mut ties: Vec<(u32, f64)> = Vec::new();
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            b.iter(|| {
                let best = row_max(black_box(&scores));
                ties.clear();
                collect_ties(&scores, 0, best, &mut ties);
                black_box(ties.len())
            })
        });
    }
    group.finish();
}

/// The CSR row walk behind every sparse gather: one binary-searched
/// `log_transition` lookup per (from, to) pair.
fn bench_csr_row_walk(c: &mut Criterion) {
    let chain = fixture_chain(ModelKind::NonSkewed, CELLS, 75);
    let table = LogLikelihoodTable::with_storage(&chain, false);
    let mut group = c.benchmark_group("kernels/csr_row_walk");
    for width in WIDTHS {
        let (prev, row) = slot_rows(&chain, width, 76);
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for (&from, &to) in prev.iter().zip(black_box(&row)) {
                    acc += table.log_transition(from, to);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// Steps per iteration of the successor-draw walk.
const WALK_STEPS: usize = 4_096;

/// The successor draw behind every simulated move: a `WALK_STEPS`-step
/// walk, one uniform and one inverse-CDF row lookup per step, over a
/// dense 10-cell chain (rows of 10 entries) and a 1,024-cell sparse ring
/// walk (rows of 5 entries; its 1,024-entry initial distribution keeps
/// the binary search).
fn bench_successor_draw(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/successor_draw");
    for (name, chain) in [
        ("dense_10", fixture_chain(ModelKind::NonSkewed, CELLS, 77)),
        ("sparse_1024", sparse_ring_walk(1_024)),
    ] {
        let mut rng = StdRng::seed_from_u64(78);
        group.bench_with_input(BenchmarkId::from_parameter(name), &chain, |b, chain| {
            b.iter(|| {
                let mut cell = chain.initial().sample(&mut rng);
                for _ in 0..WALK_STEPS {
                    cell = chain.step(black_box(cell), &mut rng);
                }
                cell
            })
        });
    }
    group.finish();
}

/// A ring walk over `cells` cells that moves at most two cells either
/// way: five nonzero entries per row.
fn sparse_ring_walk(cells: usize) -> MarkovChain {
    let weights = [0.1, 0.2, 0.4, 0.2, 0.1];
    let rows = (0..cells)
        .map(|i| {
            let mut row = vec![0.0; cells];
            for (k, w) in weights.iter().enumerate() {
                row[(i + cells + k - 2) % cells] += w;
            }
            row
        })
        .collect();
    MarkovChain::new(TransitionMatrix::from_rows(rows).expect("stochastic rows"))
        .expect("ergodic walk")
}

/// Stamps pool size and lane width into the baseline before any record.
fn bench_metadata(_c: &mut Criterion) {
    record_bench_metadata();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = kernels;
    config = configured();
    targets =
        bench_metadata,
        bench_gather_add,
        bench_argmax,
        bench_csr_row_walk,
        bench_successor_draw,
}
criterion_main!(kernels);
