//! Property-based tests for the Markov substrate.

use chaff_markov::{
    entropy, mixing, models, stationary, CellId, MarkovChain, StateDistribution, Trajectory,
    TransitionMatrix,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy producing a random row-stochastic matrix of size 2..=8 with
/// strictly positive entries (hence ergodic).
fn arb_dense_matrix() -> impl Strategy<Value = TransitionMatrix> {
    (2usize..=8).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(0.05f64..1.0, n), n)
            .prop_map(|rows| TransitionMatrix::from_weights(rows).expect("positive weights"))
    })
}

/// Strategy producing a probability distribution of size 2..=8.
fn arb_distribution() -> impl Strategy<Value = StateDistribution> {
    (2usize..=8).prop_flat_map(|n| {
        proptest::collection::vec(0.01f64..1.0, n)
            .prop_map(|w| StateDistribution::from_weights(w).expect("positive weights"))
    })
}

proptest! {
    #[test]
    fn constructed_matrices_are_row_stochastic(m in arb_dense_matrix()) {
        for i in 0..m.num_states() {
            let sum: f64 = m.row(CellId::new(i)).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn support_matches_positive_entries(m in arb_dense_matrix()) {
        for i in 0..m.num_states() {
            let from = CellId::new(i);
            let by_scan: Vec<u32> = m.row(from).iter().enumerate()
                .filter(|(_, &p)| p > 0.0)
                .map(|(j, _)| j as u32)
                .collect();
            prop_assert_eq!(m.support(from), &by_scan[..]);
        }
    }

    #[test]
    fn stationary_is_fixed_point(m in arb_dense_matrix()) {
        let pi = stationary::stationary(&m).expect("ergodic");
        let n = m.num_states();
        for j in 0..n {
            let mut acc = 0.0;
            for i in 0..n {
                acc += pi.prob(CellId::new(i)) * m.prob(CellId::new(i), CellId::new(j));
            }
            prop_assert!((acc - pi.prob(CellId::new(j))).abs() < 1e-8);
        }
    }

    #[test]
    fn direct_and_power_solvers_agree(m in arb_dense_matrix()) {
        let a = stationary::stationary(&m).expect("power");
        let b = stationary::direct_solve(&m).expect("direct");
        prop_assert!(a.total_variation(&b) < 1e-7);
    }

    #[test]
    fn lemma_v1_collision_probability(d in arb_distribution()) {
        // Lemma V.1: sum pi^2 <= max pi.
        prop_assert!(d.collision_probability() <= d.max() + 1e-12);
    }

    #[test]
    fn entropy_rate_bounded_by_log_n(m in arb_dense_matrix()) {
        let pi = stationary::stationary(&m).expect("ergodic");
        let h = entropy::entropy_rate(&m, &pi);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (m.num_states() as f64).ln() + 1e-9);
    }

    #[test]
    fn kl_divergence_nonnegative(m in arb_dense_matrix()) {
        let n = m.num_states();
        for i in 0..n {
            for j in 0..n {
                let kl = entropy::kl_divergence(m.row(CellId::new(i)), m.row(CellId::new(j)));
                prop_assert!(kl >= -1e-12);
            }
        }
    }

    #[test]
    fn sampled_trajectories_have_positive_likelihood(
        m in arb_dense_matrix(),
        seed in 0u64..1000,
        len in 1usize..50,
    ) {
        let chain = MarkovChain::new(m).expect("ergodic");
        let mut rng = StdRng::seed_from_u64(seed);
        let x = chain.sample_trajectory(len, &mut rng);
        prop_assert_eq!(x.len(), len);
        prop_assert!(chain.log_likelihood(&x).is_finite());
    }

    #[test]
    fn prefix_likelihood_is_monotone_decreasing(
        m in arb_dense_matrix(),
        seed in 0u64..1000,
    ) {
        // Each increment is a log-probability <= 0.
        let chain = MarkovChain::new(m).expect("ergodic");
        let mut rng = StdRng::seed_from_u64(seed);
        let x = chain.sample_trajectory(30, &mut rng);
        let prefixes = chain.prefix_log_likelihoods(&x);
        for w in prefixes.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn mixing_time_zero_iff_already_uniform(n in 2usize..6) {
        let m = TransitionMatrix::uniform(n).expect("n > 0");
        let pi = stationary::stationary(&m).expect("ergodic");
        // Point masses at t=0 are far from uniform; one step mixes exactly.
        prop_assert_eq!(mixing::mixing_time(&m, &pi, 1e-9, 5), Some(1));
    }

    #[test]
    fn coincidences_bounded_by_length(
        a in proptest::collection::vec(0usize..5, 0..30),
        b in proptest::collection::vec(0usize..5, 0..30),
    ) {
        let ta = Trajectory::from_indices(a.clone());
        let tb = Trajectory::from_indices(b.clone());
        let c = ta.coincidences(&tb);
        prop_assert!(c <= a.len().min(b.len()));
        // Symmetry.
        prop_assert_eq!(c, tb.coincidences(&ta));
    }

    #[test]
    fn model_builders_always_ergodic(l in 2usize..12, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in models::ModelKind::ALL {
            let m = kind.build(l, &mut rng).expect("valid size");
            prop_assert!(m.is_ergodic());
        }
    }
}

// ---------------------------------------------------------------------
// Differential battery: the cached row tables against the sequential
// scans they replaced. The scans below are the legacy per-call code,
// kept here as oracles.
// ---------------------------------------------------------------------

/// The linear CDF scan `MarkovChain::step` ran before the row tables.
fn scan_successor(m: &TransitionMatrix, from: CellId, u: f64) -> CellId {
    let mut acc = 0.0;
    let mut last = from;
    for (cell, p) in m.successors(from) {
        acc += p;
        last = cell;
        if u < acc {
            return cell;
        }
    }
    last
}

/// The linear CDF scan `StateDistribution::sample` ran before its
/// prefix table.
fn scan_quantile(d: &StateDistribution, u: f64) -> CellId {
    let mut acc = 0.0;
    for (j, &p) in d.as_slice().iter().enumerate() {
        acc += p;
        if u < acc {
            return CellId::new(j);
        }
    }
    let last = d.as_slice().iter().rposition(|&p| p > 0.0).unwrap();
    CellId::new(last)
}

/// The per-call argmax scan over a row's support.
fn scan_argmax(m: &TransitionMatrix, from: CellId, exclude: Option<CellId>) -> Option<CellId> {
    let mut best: Option<(CellId, f64)> = None;
    for (cell, p) in m.successors(from) {
        if Some(cell) == exclude {
            continue;
        }
        match best {
            Some((_, bp)) if bp >= p => {}
            _ => best = Some((cell, p)),
        }
    }
    best.map(|(c, _)| c)
}

/// Row weights mixing the shapes the tables must get right: zeros
/// (sparse rows), one repeated weight (dense ties), subnormals, and
/// ordinary random weights.
fn arb_weight(kind: usize, w: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => 0.25,
        2 => 5e-310,
        _ => w,
    }
}

/// A random matrix of size 1..=9 whose rows mix the shapes of
/// [`arb_weight`]; a row with no mass left gets one random successor.
fn arb_mixed_matrix() -> impl Strategy<Value = TransitionMatrix> {
    (1usize..=9).prop_flat_map(|n| {
        proptest::collection::vec(
            (
                proptest::collection::vec((0usize..5, 0.01f64..1.0), n),
                0usize..9,
            ),
            n,
        )
        .prop_map(move |rows| {
            let rows = rows
                .into_iter()
                .map(|(entries, fallback)| {
                    let mut row: Vec<f64> =
                        entries.into_iter().map(|(k, w)| arb_weight(k, w)).collect();
                    if row.iter().sum::<f64>() < 1e-3 {
                        row[fallback % n] = 1.0;
                    }
                    row
                })
                .collect();
            TransitionMatrix::from_weights(rows).expect("every row has mass")
        })
    })
}

/// Probes for `u`: random draws plus the edges of the last prefix sum,
/// where the fallback to the last support entry takes over.
fn u_probes(total: f64, random: &[f64]) -> Vec<f64> {
    let mut us = random.to_vec();
    us.extend([
        0.0,
        total,
        f64::from_bits(total.to_bits() - 1),
        f64::from_bits(total.to_bits() + 1),
        1.0 - f64::EPSILON / 2.0,
        1.0,
        2.0,
    ]);
    us
}

proptest! {
    #[test]
    fn row_table_draws_match_the_sequential_scan(
        m in arb_mixed_matrix(),
        random in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        for i in 0..m.num_states() {
            let from = CellId::new(i);
            let total = m.successors(from).fold(0.0, |acc, (_, p)| acc + p);
            for u in u_probes(total, &random) {
                prop_assert_eq!(m.successor_quantile(from, u), scan_successor(&m, from, u));
            }
        }
    }

    #[test]
    fn chain_steps_replay_the_scan_stream(m in arb_mixed_matrix(), seed in 0u64..1000) {
        let n = m.num_states();
        let chain = MarkovChain::with_initial(m, StateDistribution::uniform(n).unwrap()).unwrap();
        let mut table_rng = StdRng::seed_from_u64(seed);
        let mut scan_rng = StdRng::seed_from_u64(seed);
        let mut cell = CellId::new(0);
        for _ in 0..64 {
            let next = chain.step(cell, &mut table_rng);
            let u: f64 = rand::Rng::random(&mut scan_rng);
            prop_assert_eq!(next, scan_successor(chain.matrix(), cell, u));
            cell = next;
        }
    }

    #[test]
    fn distribution_draws_match_the_sequential_scan(
        entries in proptest::collection::vec((0usize..5, 0.01f64..1.0), 1..12),
        random in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let mut weights: Vec<f64> = entries.into_iter().map(|(k, w)| arb_weight(k, w)).collect();
        if weights.iter().sum::<f64>() < 1e-3 {
            weights[0] = 1.0;
        }
        let d = StateDistribution::from_weights(weights).unwrap();
        let total = d.as_slice().iter().fold(0.0, |acc, &p| acc + p);
        for u in u_probes(total, &random) {
            prop_assert_eq!(d.quantile(u), scan_quantile(&d, u));
        }
    }

    #[test]
    fn ranked_successors_match_the_argmax_scans(m in arb_mixed_matrix()) {
        for i in 0..m.num_states() {
            let from = CellId::new(i);
            let (first, second) = m.ranked_successors(from);
            let first_cell = scan_argmax(&m, from, None);
            prop_assert_eq!(first.map(|s| s.cell), first_cell);
            prop_assert_eq!(
                second.map(|s| s.cell),
                first_cell.and_then(|f| scan_argmax(&m, from, Some(f)))
            );
            for ranked in [first, second].into_iter().flatten() {
                let p = m.prob(from, ranked.cell);
                prop_assert_eq!(ranked.log_prob.to_bits(), p.ln().to_bits());
            }
            for x in 0..m.num_states() {
                let exclude = Some(CellId::new(x));
                prop_assert_eq!(
                    m.argmax_successor(from, exclude).map(|(c, _)| c),
                    scan_argmax(&m, from, exclude)
                );
            }
        }
    }

    #[test]
    fn cached_logs_match_ln_of_the_dense_entries(m in arb_mixed_matrix()) {
        for i in 0..m.num_states() {
            for j in 0..m.num_states() {
                let (from, to) = (CellId::new(i), CellId::new(j));
                let p = m.prob(from, to);
                let expected = if p > 0.0 { p.ln() } else { f64::NEG_INFINITY };
                prop_assert_eq!(m.log_prob(from, to).to_bits(), expected.to_bits());
            }
        }
    }
}
