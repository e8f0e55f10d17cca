//! Property-based tests for detectors and chaff strategies.

use chaff_core::detector::{AdvancedDetector, MlDetector};
use chaff_core::strategy::{
    ChaffStrategy, CmlStrategy, ImStrategy, MlStrategy, MoStrategy, OoStrategy, StrategyKind,
};
use chaff_core::{loglik_cmp, trellis};
use chaff_markov::{MarkovChain, Trajectory, TransitionMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;

/// A random ergodic chain of 3..=7 states with strictly positive entries.
fn arb_chain() -> impl Strategy<Value = MarkovChain> {
    (3usize..=7).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(0.05f64..1.0, n), n).prop_map(|rows| {
            MarkovChain::new(TransitionMatrix::from_weights(rows).expect("positive"))
                .expect("ergodic")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ml_strategy_attains_global_max_likelihood(
        chain in arb_chain(),
        seed in 0u64..500,
        horizon in 1usize..25,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let user = chain.sample_trajectory(horizon, &mut rng);
        let chaff = &MlStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
        // No sampled trajectory may beat the ML chaff.
        for _ in 0..20 {
            let probe = chain.sample_trajectory(horizon, &mut rng);
            prop_assert!(chain.log_likelihood(&probe) <= chain.log_likelihood(chaff) + 1e-9);
        }
        prop_assert!(chain.log_likelihood(chaff) >= chain.log_likelihood(&user) - 1e-9);
    }

    #[test]
    fn oo_satisfies_constraint_and_beats_cml_coincidences(
        chain in arb_chain(),
        seed in 0u64..500,
        horizon in 2usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let user = chain.sample_trajectory(horizon, &mut rng);
        let oo = &OoStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
        // Constraint (5): chaff likelihood >= user's (equality fallback ok).
        prop_assert!(
            loglik_cmp(chain.log_likelihood(oo), chain.log_likelihood(&user))
                != Ordering::Less
        );
        // Optimality relative to the feasible CML trajectory: if CML's
        // trajectory wins the likelihood race, OO (optimal) must co-locate
        // no more than it.
        let cml = &CmlStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
        if loglik_cmp(chain.log_likelihood(cml), chain.log_likelihood(&user))
            == Ordering::Greater
        {
            prop_assert!(user.coincidences(oo) <= user.coincidences(cml));
        }
    }

    #[test]
    fn oo_never_beaten_by_ml_strategy_coincidences(
        chain in arb_chain(),
        seed in 0u64..500,
        horizon in 2usize..25,
    ) {
        // The ML trajectory is one feasible point of OO's program (it wins
        // or ties the race), so OO's objective value is at most its.
        let mut rng = StdRng::seed_from_u64(seed);
        let user = chain.sample_trajectory(horizon, &mut rng);
        let oo = &OoStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
        let ml = &MlStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
        if loglik_cmp(chain.log_likelihood(ml), chain.log_likelihood(&user))
            == Ordering::Greater
        {
            prop_assert!(user.coincidences(oo) <= user.coincidences(ml));
        }
    }

    #[test]
    fn detector_is_permutation_equivariant(
        chain in arb_chain(),
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Trajectory> =
            (0..4).map(|_| chain.sample_trajectory(12, &mut rng)).collect();
        let d = MlDetector.detect(&chain, &xs).unwrap();
        // Reverse the observation order; the winner must map accordingly.
        let reversed: Vec<Trajectory> = xs.iter().rev().cloned().collect();
        let d_rev = MlDetector.detect(&chain, &reversed).unwrap();
        let mapped: Vec<usize> =
            d_rev.tie_set().iter().map(|&i| xs.len() - 1 - i).rev().collect();
        prop_assert_eq!(d.tie_set(), &mapped[..]);
    }

    #[test]
    fn prefix_detection_consistent_with_direct_recomputation(
        chain in arb_chain(),
        seed in 0u64..500,
        horizon in 1usize..15,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Trajectory> =
            (0..3).map(|_| chain.sample_trajectory(horizon, &mut rng)).collect();
        let prefixes = MlDetector.detect_prefixes(&chain, &xs).unwrap();
        #[allow(clippy::needless_range_loop)]
        for t in 0..horizon {
            let truncated: Vec<Trajectory> = xs
                .iter()
                .map(|x| x.iter().take(t + 1).collect())
                .collect();
            let direct = MlDetector.detect(&chain, &truncated).unwrap();
            prop_assert_eq!(&prefixes[t], &direct, "slot {}", t);
        }
    }

    #[test]
    fn cml_never_co_locates_on_full_support_chains(
        chain in arb_chain(),
        seed in 0u64..500,
        horizon in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let user = chain.sample_trajectory(horizon, &mut rng);
        let chaff = &CmlStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
        prop_assert_eq!(user.coincidences(chaff), 0);
    }

    #[test]
    fn mo_chaff_moves_follow_the_support(
        chain in arb_chain(),
        seed in 0u64..500,
        horizon in 2usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let user = chain.sample_trajectory(horizon, &mut rng);
        let chaff = &MoStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
        for t in 1..horizon {
            prop_assert!(chain.matrix().prob(chaff.cell(t - 1), chaff.cell(t)) > 0.0);
        }
    }

    #[test]
    fn advanced_detector_beats_every_deterministic_strategy(
        chain in arb_chain(),
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let user = chain.sample_trajectory(20, &mut rng);
        for kind in StrategyKind::ALL.into_iter().filter(|k| k.is_deterministic()) {
            let strategy = kind.build();
            let chaffs = strategy.generate(&chain, &user, 2, &mut rng).unwrap();
            // Skip the measure-zero degenerate case where the user's own
            // trajectory coincides with the manufactured one.
            if chaffs.contains(&user) {
                continue;
            }
            let mut observed = vec![user.clone()];
            observed.extend(chaffs);
            let detector = AdvancedDetector::new(strategy.as_ref());
            let d = detector.detect(&chain, &observed).unwrap();
            prop_assert_eq!(d.tie_set(), &[0][..], "{}", kind);
        }
    }

    #[test]
    fn im_chaffs_are_valid_chain_samples(
        chain in arb_chain(),
        seed in 0u64..500,
        horizon in 1usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let user = chain.sample_trajectory(horizon, &mut rng);
        for chaff in ImStrategy.generate(&chain, &user, 3, &mut rng).unwrap() {
            prop_assert!(chain.log_likelihood(&chaff).is_finite());
        }
    }

    #[test]
    fn trellis_cost_is_monotone_in_horizon(
        chain in arb_chain(),
        horizon in 2usize..25,
    ) {
        // Extending the horizon can only add non-negative edge costs.
        let shorter = trellis::most_likely_trajectory(&chain, horizon - 1, None).unwrap();
        let longer = trellis::most_likely_trajectory(&chain, horizon, None).unwrap();
        prop_assert!(longer.cost >= shorter.cost - 1e-9);
    }
}

// Batch/single detection equivalence: the fleet detection core must be a
// drop-in replacement for the per-trajectory path (same detections,
// bit-for-bit) and its sharding must be unobservable.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_detector_matches_single_path_exactly(
        chain in arb_chain(),
        seed in 0u64..1000,
        population in 1usize..60,
        horizon in 1usize..25,
        shards in 1usize..8,
    ) {
        use chaff_core::detector::BatchPrefixDetector;
        let mut rng = StdRng::seed_from_u64(seed);
        let observed: Vec<Trajectory> = (0..population)
            .map(|_| chain.sample_trajectory(horizon, &mut rng))
            .collect();
        let single = MlDetector.detect_prefixes(&chain, &observed).unwrap();
        let batch = BatchPrefixDetector::with_shards(shards)
            .detect_prefixes(chaff_core::detector::DetectInput::new(&chain, &observed))
            .unwrap();
        prop_assert_eq!(&batch, &single);
        // The full-trajectory decision coincides with the last prefix.
        let full = MlDetector.detect(&chain, &observed).unwrap();
        prop_assert_eq!(&full, single.last().unwrap());
    }

    #[test]
    fn batch_detector_is_invariant_to_shard_count(
        chain in arb_chain(),
        seed in 0u64..1000,
        population in 2usize..50,
        horizon in 1usize..20,
    ) {
        use chaff_core::detector::BatchPrefixDetector;
        let mut rng = StdRng::seed_from_u64(seed);
        // Include duplicated trajectories so ties regularly straddle
        // shard boundaries.
        let mut observed: Vec<Trajectory> = (0..population)
            .map(|_| chain.sample_trajectory(horizon, &mut rng))
            .collect();
        let copy = observed[0].clone();
        observed.push(copy);
        let reference = BatchPrefixDetector::with_shards(1)
            .detect_prefixes(chaff_core::detector::DetectInput::new(&chain, &observed))
            .unwrap();
        for shards in [2usize, 3, 5, 16, 64] {
            let sharded = BatchPrefixDetector::with_shards(shards)
                .detect_prefixes(chaff_core::detector::DetectInput::new(&chain, &observed))
                .unwrap();
            prop_assert_eq!(&sharded, &reference, "shards = {}", shards);
        }
    }

    #[test]
    fn batch_detector_equivalence_survives_chaff_strategies(
        chain in arb_chain(),
        seed in 0u64..1000,
        horizon in 2usize..20,
    ) {
        use chaff_core::detector::BatchPrefixDetector;
        // Strategy-generated observation sets (not i.i.d. fleet draws)
        // exercise ties and -inf scores more aggressively.
        let mut rng = StdRng::seed_from_u64(seed);
        let user = chain.sample_trajectory(horizon, &mut rng);
        let mut observed = vec![user.clone()];
        observed.extend(MlStrategy.generate(&chain, &user, 2, &mut rng).unwrap());
        observed.extend(ImStrategy.generate(&chain, &user, 2, &mut rng).unwrap());
        let single = MlDetector.detect_prefixes(&chain, &observed).unwrap();
        let batch = BatchPrefixDetector::with_shards(3)
            .detect_prefixes(chaff_core::detector::DetectInput::new(&chain, &observed))
            .unwrap();
        prop_assert_eq!(batch, single);
    }
}
