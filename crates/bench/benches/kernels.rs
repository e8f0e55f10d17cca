//! Microbenchmarks of the vectorized per-slot detection kernels.
//!
//! `fleet_scale` measures whole detections; this group times one slot
//! whole and in parts, so a regression report names the part, not just
//! the pipeline: the whole slot kernel (`slot_single` on one class,
//! `slot_mixture` on three dense 10-cell classes, sweep plus tie pass),
//! the one-table add-only sweep (dense and CSR storage), the
//! running-max + tie-collection argmax, and the CSR row walk behind each
//! sparse lookup. Two last groups time the simulation side: the
//! successor draw (one inverse-CDF lookup per step of a walk) on a short
//! dense row and on a long sparse chain, and the IM/CML/MO chaff steps
//! on the same two chains. Widths cover
//! the paper-scale fleet rung (`N = 10⁴`) and the million-user rung
//! (`N = 10⁶`). Part of the CI `BENCH_fleet` baseline: the `kernels/*`
//! records are gated by `ci/compare_bench.py` on `mean_ns` / `p99_ns` /
//! `peak_rss_bytes` exactly like the pipeline groups.

use chaff_bench::{fixture_chain, record_bench_metadata};
use chaff_core::detector::kernel::{
    advance_slot_mixture, advance_slot_single, collect_ties, row_max,
};
use chaff_core::strategy::{cml_step, im_step, mo_step};
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

/// The whole slot kernel, as the detector's shard lanes run it: the
/// fused sweep and the tie pass, over one class (`slot_single`) and over
/// three dense 10-cell classes (`slot_mixture`). Accumulators are
/// pre-advanced a few slots, so score magnitudes and tie density match
/// what detection scans.
fn bench_slot(c: &mut Criterion) {
    let kinds = [
        ModelKind::NonSkewed,
        ModelKind::SpatiallySkewed,
        ModelKind::TemporallySkewed,
    ];
    let chains: Vec<MarkovChain> = kinds
        .iter()
        .zip(80u64..)
        .map(|(&kind, seed)| fixture_chain(kind, CELLS, seed))
        .collect();
    let tables: Vec<LogLikelihoodTable> = chains.iter().map(|c| c.log_likelihood_table()).collect();
    for (name, classes) in [("slot_single", 1), ("slot_mixture", 3)] {
        let tables = &tables[..classes];
        let mut group = c.benchmark_group(format!("kernels/{name}"));
        for width in WIDTHS {
            let (prev, row) = slot_rows(&chains[0], width, 84);
            let mut accs = vec![0.0f64; width * classes];
            let mut scores = vec![0.0f64; width];
            let mut ties: Vec<(u32, f64)> = Vec::new();
            let slot = |accs: &mut [f64], scores: &mut [f64], ties: &mut Vec<(u32, f64)>| {
                let mut best = f64::NEG_INFINITY;
                ties.clear();
                if let [table] = tables {
                    advance_slot_single(table, 0, &row, Some(&prev), accs, &mut best, ties)
                } else {
                    advance_slot_mixture(
                        tables,
                        0,
                        &row,
                        Some(&prev),
                        accs,
                        scores,
                        &mut best,
                        ties,
                    )
                }
                .unwrap()
            };
            for _ in 0..8 {
                slot(&mut accs, &mut scores, &mut ties);
            }
            group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
                b.iter(|| {
                    slot(&mut accs, &mut scores, &mut ties);
                    black_box(ties.len())
                })
            });
        }
        group.finish();
    }
}

/// The one-table, add-only sweep: gather per-service increments and add
/// into the running accumulators, for both table storages.
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

/// The argmax on its own: exact row maximum, then the masked
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

/// One online chaff strategy's step behind every simulated chaff move:
/// a `WALK_STEPS`-step walk of `im_step`, `cml_step` and `mo_step` on the
/// dense 10-cell chain, and of `mo_step` on the 1,024-cell sparse ring
/// walk, whose CSR rows keep `log_prob`'s binary search (a dense row
/// reads its entry at the destination's offset). CML and MO follow a
/// user walk drawn before timing; each iteration launches the chaff at
/// the walk's first slot and steps it through the rest.
fn bench_chaff_step(c: &mut Criterion) {
    let dense = fixture_chain(ModelKind::NonSkewed, CELLS, 79);
    let sparse = sparse_ring_walk(1_024);
    let user_walk = |chain: &MarkovChain| {
        let mut rng = StdRng::seed_from_u64(80);
        let mut cell = chain.initial().sample(&mut rng);
        (0..WALK_STEPS)
            .map(|_| {
                cell = chain.step(cell, &mut rng);
                cell
            })
            .collect::<Vec<CellId>>()
    };
    let mut group = c.benchmark_group("kernels/chaff_step");
    let mut rng = StdRng::seed_from_u64(81);
    group.bench_function("im_dense_10", |b| {
        b.iter(|| {
            let mut cell = im_step(&dense, None, &mut rng);
            for _ in 1..WALK_STEPS {
                cell = im_step(&dense, Some(black_box(cell)), &mut rng);
            }
            cell
        })
    });
    let walk = user_walk(&dense);
    group.bench_function("cml_dense_10", |b| {
        b.iter(|| {
            let mut chaff = cml_step(&dense, None, walk[0], &[]);
            for &user in &walk[1..] {
                chaff = cml_step(&dense, Some(black_box(chaff)), user, &[]);
            }
            chaff
        })
    });
    for (name, chain) in [("mo_dense_10", &dense), ("mo_sparse_1024", &sparse)] {
        let walk = user_walk(chain);
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut gamma = 0.0;
                let mut chaff = mo_step(chain, None, &mut gamma, walk[0], &[]);
                for pair in walk.windows(2) {
                    let prev = Some((black_box(chaff), pair[0]));
                    chaff = mo_step(chain, prev, &mut gamma, pair[1], &[]);
                }
                chaff
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
        bench_slot,
        bench_gather_add,
        bench_argmax,
        bench_csr_row_walk,
        bench_successor_draw,
        bench_chaff_step,
}
criterion_main!(kernels);
