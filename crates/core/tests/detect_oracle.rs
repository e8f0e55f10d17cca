//! Oracle battery for the unified detection entry point.
//!
//! The representation-equivalence batteries (`columnar.rs`,
//! `streaming_equivalence.rs`) compare `BatchPrefixDetector` against
//! itself over different observation layouts. This file instead holds
//! every layout — trajectories, a columnar [`CellGrid`] and a paged
//! [`GridRowSource`] — at shard counts {1, 2, 3, 7} against references
//! that share no code with the detection code paths:
//!
//! * single tables: [`MlDetector::detect_prefixes`], the paper-scale
//!   per-trajectory detector;
//! * 2-class mixtures: a naive per-prefix walk summing
//!   [`LogLikelihoodTable::step`] per class and taking the best class;
//! * a 2-epoch [`DetectModel::Schedule`]: the same naive walk, with each
//!   slot's increments taken from that slot's epoch tables.
//!
//! Populations optionally repeat one trajectory on every other index so
//! tie sets span shard boundaries.

use chaff_core::detector::{
    BatchPrefixDetector, DetectInput, DetectModel, Detection, GridRowSource, MlDetector,
};
use chaff_core::loglik_cmp;
use chaff_markov::{
    CellGrid, EpochSchedule, LogLikelihoodTable, MarkovChain, MobilityRegistry, Trajectory,
    TransitionMatrix,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARDS: [usize; 4] = [1, 2, 3, 7];

/// `count` random ergodic chains over one shared state space of 3..=6
/// cells, with strictly positive entries.
fn arb_chains(count: usize) -> impl Strategy<Value = Vec<MarkovChain>> {
    (3usize..=6).prop_flat_map(move |n| {
        let rows = proptest::collection::vec(proptest::collection::vec(0.05f64..1.0, n), n);
        proptest::collection::vec(rows, count).prop_map(|all| {
            all.into_iter()
                .map(|rows| {
                    MarkovChain::new(TransitionMatrix::from_weights(rows).expect("positive"))
                        .expect("ergodic")
                })
                .collect()
        })
    })
}

/// `n` trajectories drawn round-robin from `chains`; with `tie_dense`,
/// every odd index repeats trajectory 0.
fn population(
    chains: &[MarkovChain],
    n: usize,
    horizon: usize,
    seed: u64,
    tie_dense: bool,
) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut observed: Vec<Trajectory> = (0..n)
        .map(|i| chains[i % chains.len()].sample_trajectory(horizon, &mut rng))
        .collect();
    if tie_dense {
        let first = observed[0].clone();
        for x in observed.iter_mut().skip(1).step_by(2) {
            *x = first.clone();
        }
    }
    observed
}

/// The naive reference: each trajectory's prefix score at slot `t` is
/// the best class's running sum of [`LogLikelihoodTable::step`]
/// increments, where `tables_at(t)` names the per-class tables scoring
/// the arrival at slot `t`. The slot's detection is every trajectory
/// within tolerance of the exact maximum, in index order.
fn naive_walk<'a>(
    observed: &[Trajectory],
    tables_at: impl Fn(usize) -> Vec<&'a LogLikelihoodTable>,
) -> Vec<Detection> {
    let horizon = observed[0].len();
    let classes = tables_at(0).len();
    let mut accs = vec![vec![0.0f64; classes]; observed.len()];
    let mut out = Vec::with_capacity(horizon);
    for t in 0..horizon {
        let tables = tables_at(t);
        let scores: Vec<f64> = observed
            .iter()
            .zip(accs.iter_mut())
            .map(|(x, acc)| {
                let prev = (t > 0).then(|| x.as_slice()[t - 1]);
                let now = x.as_slice()[t];
                let mut score = f64::NEG_INFINITY;
                for (a, table) in acc.iter_mut().zip(&tables) {
                    *a += table.step(prev, now);
                    score = score.max(*a);
                }
                score
            })
            .collect();
        let best = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let tie_set = (0..scores.len())
            .filter(|&i| loglik_cmp(scores[i], best).is_eq())
            .collect();
        out.push(Detection::new(tie_set));
    }
    out
}

/// Runs `model` over every observation layout and shard count and
/// asserts each result equals `expected`.
fn assert_every_layout(model: DetectModel<'_>, observed: &[Trajectory], expected: &[Detection]) {
    let grid = CellGrid::from_trajectories(observed).expect("rectangular population");
    for shards in SHARDS {
        let detector = BatchPrefixDetector::with_shards(shards);
        let trajectories = detector
            .detect_prefixes(DetectInput::new(model, observed))
            .expect("trajectories");
        assert_eq!(&trajectories[..], expected, "trajectories, shards {shards}");
        let columnar = detector
            .detect_prefixes(DetectInput::new(model, &grid))
            .expect("columnar");
        assert_eq!(&columnar[..], expected, "columnar, shards {shards}");
        let mut source = GridRowSource::new(&grid);
        let paged = detector
            .detect_prefixes(DetectInput::new(model, &mut source))
            .expect("paged");
        assert_eq!(&paged[..], expected, "paged, shards {shards}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn single_table_layouts_match_the_ml_detector(
        chains in arb_chains(1),
        seed in 0u64..1_000,
        n in 1usize..80,
        horizon in 1usize..16,
        tie_dense in 0u8..2,
    ) {
        let chain = &chains[0];
        let observed = population(&chains, n, horizon, seed, tie_dense == 1);
        let expected = MlDetector.detect_prefixes(chain, &observed).expect("oracle");
        let table = chain.log_likelihood_table();
        assert_every_layout(DetectModel::Chain(chain), &observed, &expected);
        assert_every_layout(DetectModel::Table(&table), &observed, &expected);
        assert_every_layout(DetectModel::Tables(&[&table]), &observed, &expected);
    }

    #[test]
    fn two_class_mixture_layouts_match_the_naive_max_over_class_walk(
        chains in arb_chains(2),
        seed in 0u64..1_000,
        n in 1usize..80,
        horizon in 1usize..16,
        tie_dense in 0u8..2,
    ) {
        let observed = population(&chains, n, horizon, seed, tie_dense == 1);
        let (ta, tb) = (chains[0].log_likelihood_table(), chains[1].log_likelihood_table());
        let expected = naive_walk(&observed, |_| vec![&ta, &tb]);
        assert_every_layout(DetectModel::Tables(&[&ta, &tb]), &observed, &expected);
        let registry = MobilityRegistry::new(chains.clone()).expect("registry");
        assert_every_layout(DetectModel::Registry(&registry), &observed, &expected);
    }

    #[test]
    fn two_epoch_schedule_layouts_match_the_naive_per_slot_epoch_walk(
        chains in arb_chains(4),
        seed in 0u64..1_000,
        n in 1usize..80,
        horizon in 1usize..16,
        day in 1usize..4,
        night in 1usize..4,
        tie_dense in 0u8..2,
    ) {
        // Two classes per epoch: day = chains[0..2], night = chains[2..4].
        let schedule = EpochSchedule::day_night(day, night).expect("schedule");
        let registry = MobilityRegistry::with_epochs(
            vec![chains[..2].to_vec(), chains[2..].to_vec()],
            schedule.clone(),
        )
        .expect("registry");
        let observed = population(&chains, n, horizon, seed, tie_dense == 1);
        let expected = naive_walk(&observed, |t| registry.tables_at(schedule.epoch_of(t)));
        assert_every_layout(DetectModel::Schedule(&registry), &observed, &expected);
    }
}
