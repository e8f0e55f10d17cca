//! Storage and class-count battery for the per-slot detection kernels.
//!
//! `tests/kernels.rs` proptests the kernels on dense 3–6-state chains.
//! This file pins the cases a storage-generic slot sweep has to get
//! right: dense, CSR (`with_storage(false)`) and mixed dense+CSR table
//! sets, 1–5 mobility classes, slot 0 (`log π`) and later slots, widths
//! on the lane-width and 64-lane-block edges, and uniform chains, where
//! every service ties at every slot. The reference is the scalar
//! [`LogLikelihoodTable::step`] walk folded by [`kernel::fold`].
//!
//! The last test runs the whole batch detector over a registry of walks
//! larger than [`DENSE_STATE_LIMIT`], whose tables are CSR, against the
//! paper-scale [`MlDetector`].

use chaff_core::detector::kernel::{self, advance_slot_mixture, advance_slot_single};
use chaff_core::detector::{BatchPrefixDetector, DetectInput, MlDetector};
use chaff_markov::{
    CellGrid, CellId, LogLikelihoodTable, MarkovChain, MobilityRegistry, StateDistribution,
    TransitionMatrix, DENSE_STATE_LIMIT,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Widths at the edges of the 8-lane chunks and the 64-score tie blocks.
const WIDTHS: [usize; 8] = [0, 7, 8, 9, 63, 64, 65, 129];
const HORIZON: usize = 4;
const STATES: usize = 6;

/// How a class set stores its tables.
#[derive(Debug, Clone, Copy)]
enum Storage {
    Dense,
    Csr,
    /// Odd classes dense, even classes CSR.
    Mixed,
}

impl Storage {
    fn dense(self, class: usize) -> bool {
        match self {
            Storage::Dense => true,
            Storage::Csr => false,
            Storage::Mixed => class % 2 == 1,
        }
    }
}

/// A random chain over `STATES` cells; a quarter of its entries are
/// zero, so CSR rows have gaps and some transitions score `-inf`.
fn random_chain(rng: &mut StdRng) -> MarkovChain {
    let rows: Vec<Vec<f64>> = (0..STATES)
        .map(|i| {
            (0..STATES)
                .map(|j| {
                    if i != j && rng.random_range(0..4) == 0 {
                        0.0
                    } else {
                        rng.random_range(0.05..1.0)
                    }
                })
                .collect()
        })
        .collect();
    MarkovChain::new(TransitionMatrix::from_weights(rows).expect("positive rows"))
        .expect("self-loops make the chain aperiodic")
}

fn uniform_chain() -> MarkovChain {
    MarkovChain::new(TransitionMatrix::uniform(STATES).expect("states")).expect("ergodic")
}

/// `width` services observed for `HORIZON` slots, as slot-major rows.
/// Cells are drawn uniformly, so the rows also cross zero-probability
/// transitions of the random chains.
fn random_rows(width: usize, rng: &mut StdRng) -> Vec<Vec<CellId>> {
    (0..HORIZON)
        .map(|_| {
            (0..width)
                .map(|_| CellId::new(rng.random_range(0..STATES)))
                .collect()
        })
        .collect()
}

/// The scalar reference state for one class set: user-major per-class
/// accumulators advanced by `LogLikelihoodTable::step`.
struct Reference {
    accs: Vec<Vec<f64>>,
}

impl Reference {
    fn new(width: usize, classes: usize) -> Self {
        Reference {
            accs: vec![vec![0.0; classes]; width],
        }
    }

    /// Advances one slot and returns the best-class scores, the slot
    /// maximum and the tie candidates of the legacy fold.
    fn advance(
        &mut self,
        tables: &[LogLikelihoodTable],
        prev: Option<&[CellId]>,
        row: &[CellId],
        lo: usize,
    ) -> (Vec<f64>, f64, Vec<(u32, f64)>) {
        let scores: Vec<f64> = self
            .accs
            .iter_mut()
            .enumerate()
            .map(|(j, per_class)| {
                let mut score = f64::NEG_INFINITY;
                for (acc, table) in per_class.iter_mut().zip(tables) {
                    *acc += table.step(prev.map(|p| p[j]), row[j]);
                    if *acc > score {
                        score = *acc;
                    }
                }
                score
            })
            .collect();
        let mut best = f64::NEG_INFINITY;
        let mut slot = Vec::new();
        for (j, &s) in scores.iter().enumerate() {
            kernel::fold(&mut best, &mut slot, (lo + j) as u32, s);
        }
        (scores, best, slot)
    }
}

/// Runs both kernels (the single-table one only for one class) over
/// `rows` and asserts bit identity with the reference at every slot.
fn check(tables: &[LogLikelihoodTable], rows: &[Vec<CellId>], lo: usize, what: &str) {
    let width = rows[0].len();
    let classes = tables.len();
    let mut reference = Reference::new(width, classes);
    let mut accs = vec![0.0f64; width * classes];
    let mut scores = vec![0.0f64; width];
    let mut single_accs = vec![0.0f64; width];
    for (t, row) in rows.iter().enumerate() {
        let prev = t.checked_sub(1).map(|p| rows[p].as_slice());
        let (ref_scores, ref_best, ref_slot) = reference.advance(tables, prev, row, lo);

        let (mut best, mut slot) = (f64::NEG_INFINITY, Vec::new());
        advance_slot_mixture(
            tables,
            lo,
            row,
            prev,
            &mut accs,
            &mut scores,
            &mut best,
            &mut slot,
        )
        .expect("valid rows");
        for j in 0..width {
            for k in 0..classes {
                assert_eq!(
                    accs[k * width + j].to_bits(),
                    reference.accs[j][k].to_bits(),
                    "{what}: slot {t}, service {j}, class {k}"
                );
            }
            assert_eq!(
                scores[j].to_bits(),
                ref_scores[j].to_bits(),
                "{what}: slot {t}, score {j}"
            );
        }
        assert_eq!(best.to_bits(), ref_best.to_bits(), "{what}: slot {t} best");
        assert_eq!(slot, ref_slot, "{what}: slot {t} ties");

        if let [table] = tables {
            let (mut best, mut slot) = (f64::NEG_INFINITY, Vec::new());
            advance_slot_single(table, lo, row, prev, &mut single_accs, &mut best, &mut slot)
                .expect("valid rows");
            for (j, (acc, per_class)) in single_accs.iter().zip(&reference.accs).enumerate() {
                assert_eq!(
                    acc.to_bits(),
                    per_class[0].to_bits(),
                    "{what}: single slot {t}, service {j}"
                );
            }
            assert_eq!(best.to_bits(), ref_best.to_bits(), "{what}: single best");
            assert_eq!(slot, ref_slot, "{what}: single slot {t} ties");
        }
    }
}

fn tables_for(chains: &[MarkovChain], storage: Storage) -> Vec<LogLikelihoodTable> {
    chains
        .iter()
        .enumerate()
        .map(|(k, chain)| LogLikelihoodTable::with_storage(chain, storage.dense(k)))
        .collect()
}

#[test]
fn kernels_match_the_scalar_walk_for_every_storage_and_class_count() {
    let mut rng = StdRng::seed_from_u64(2401);
    for classes in 1..=5 {
        let chains: Vec<MarkovChain> = (0..classes).map(|_| random_chain(&mut rng)).collect();
        for storage in [Storage::Dense, Storage::Csr, Storage::Mixed] {
            let tables = tables_for(&chains, storage);
            for width in WIDTHS {
                let rows = random_rows(width, &mut rng);
                let what = format!("{classes} classes, {storage:?}, width {width}");
                check(&tables, &rows, 3, &what);
            }
        }
    }
}

#[test]
fn uniform_chains_tie_every_service_for_every_storage_and_class_count() {
    let mut rng = StdRng::seed_from_u64(2402);
    for classes in 1..=5 {
        let chains = vec![uniform_chain(); classes];
        for storage in [Storage::Dense, Storage::Csr, Storage::Mixed] {
            let tables = tables_for(&chains, storage);
            for width in WIDTHS {
                let rows = random_rows(width, &mut rng);
                let what = format!("uniform, {classes} classes, {storage:?}, width {width}");
                check(&tables, &rows, 0, &what);
                // Every service scores the same, so every slot names all.
                let mut accs = vec![0.0f64; width * classes];
                let mut scores = vec![0.0f64; width];
                for (t, row) in rows.iter().enumerate() {
                    let prev = t.checked_sub(1).map(|p| rows[p].as_slice());
                    let (mut best, mut slot) = (f64::NEG_INFINITY, Vec::new());
                    advance_slot_mixture(
                        &tables,
                        0,
                        row,
                        prev,
                        &mut accs,
                        &mut scores,
                        &mut best,
                        &mut slot,
                    )
                    .expect("valid rows");
                    let named: Vec<u32> = slot.iter().map(|&(i, _)| i).collect();
                    assert_eq!(named, (0..width as u32).collect::<Vec<_>>(), "{what}");
                }
            }
        }
    }
}

/// A ring walk over `cells` cells (right 0.5, left 0.25, stay 0.25) with
/// its uniform stationary start: three nonzero entries per row.
fn ring_walk(cells: usize) -> MarkovChain {
    let mut data = vec![0.0f64; cells * cells];
    for i in 0..cells {
        data[i * cells + (i + 1) % cells] += 0.5;
        data[i * cells + (i + cells - 1) % cells] += 0.25;
        data[i * cells + i] += 0.25;
    }
    let matrix = TransitionMatrix::from_flat(cells, data).expect("stochastic rows");
    MarkovChain::with_initial(matrix, StateDistribution::uniform(cells).expect("cells"))
        .expect("matching cell counts")
}

#[test]
fn batch_detection_on_csr_registries_matches_the_ml_detector() {
    let walk = ring_walk(DENSE_STATE_LIMIT + 1);
    let mut rng = StdRng::seed_from_u64(2403);
    let mut observed: Vec<_> = (0..150)
        .map(|_| walk.sample_trajectory(10, &mut rng))
        .collect();
    // Repeat one walk on every third service so ties span lanes.
    let first = observed[0].clone();
    for x in observed.iter_mut().skip(3).step_by(3) {
        *x = first.clone();
    }
    let expected = MlDetector
        .detect_prefixes(&walk, &observed)
        .expect("oracle");
    let grid = CellGrid::from_trajectories(&observed).expect("rectangular population");
    // One class runs the single-table kernel; two copies of the walk run
    // the mixture kernel, whose best class then equals the walk's score.
    for registry in [
        MobilityRegistry::single(walk.clone()),
        MobilityRegistry::new(vec![walk.clone(), walk.clone()]).expect("registry"),
    ] {
        assert!(registry.tables().iter().all(|t| !t.is_dense()));
        for shards in [1, 3] {
            let detected = BatchPrefixDetector::with_shards(shards)
                .detect_prefixes(DetectInput::new(&registry, &grid))
                .expect("detection");
            assert_eq!(
                detected,
                expected,
                "{} classes, {shards} shards",
                registry.num_classes()
            );
        }
    }
}

/// Classes over different state spaces: the kernel checks `row` and
/// `prev` against every table, in class order, before any class moves.
#[test]
fn mixture_checks_every_class_before_advancing_any() {
    let mut rng = StdRng::seed_from_u64(2404);
    let wide = random_chain(&mut rng);
    let narrow = MarkovChain::new(TransitionMatrix::uniform(4).expect("states")).expect("ergodic");
    for storage in [Storage::Dense, Storage::Csr, Storage::Mixed] {
        let tables = tables_for(&[wide.clone(), narrow.clone()], storage);
        // Cells inside both spaces score like any other class set.
        let rows: Vec<Vec<CellId>> = (0..HORIZON)
            .map(|_| {
                (0..9)
                    .map(|_| CellId::new(rng.random_range(0..4)))
                    .collect()
            })
            .collect();
        check(&tables, &rows, 0, &format!("mixed widths, {storage:?}"));

        let good = vec![CellId::new(1); 9];
        let mut bad = good.clone();
        bad[6] = CellId::new(5);
        let cases: [(Option<&[CellId]>, &[CellId]); 3] =
            [(None, &bad), (Some(&good[..8]), &good), (Some(&bad), &good)];
        for (prev, row) in cases {
            let mut accs = vec![-1.5f64; 2 * 9];
            let mut scores = vec![-2.5f64; 9];
            let (mut best, mut slot) = (f64::NEG_INFINITY, Vec::new());
            let err = advance_slot_mixture(
                &tables,
                0,
                row,
                prev,
                &mut accs,
                &mut scores,
                &mut best,
                &mut slot,
            )
            .expect_err("the narrow class rejects the slot");
            let expected_len = prev.is_some_and(|p| p.len() != row.len());
            if expected_len {
                assert!(matches!(
                    err,
                    chaff_core::CoreError::LengthMismatch {
                        expected: 9,
                        found: 8
                    }
                ));
            } else {
                assert!(matches!(
                    err,
                    chaff_core::CoreError::CellOutOfRange { cell: 5, states: 4 }
                ));
            }
            assert!(
                accs.iter().all(|&a| a == -1.5),
                "{storage:?}: a class moved"
            );
            assert!(
                scores.iter().all(|&s| s == -2.5),
                "{storage:?}: scores moved"
            );
        }
    }
}
