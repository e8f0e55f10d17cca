//! The fleet's chaff lanes against the paper-scale controllers.
//!
//! With anonymization off, user `u`'s services are observed columns
//! `user_observed_indices[u]` (the real service) and the `budget`
//! columns after it (its chaffs, in lane order). Each chaff column must
//! equal the public [`ImController`] / [`CmlController`] /
//! [`MoController`] replayed over the user's ground-truth cells, drawing
//! from `StdRng::seed_from_u64(chaff_seed(seed, u, c))` — the stream the
//! fleet documents for chaff `c` of user `u`. The cases cover the three
//! online strategies and a per-class mix of them, a homogeneous chain
//! and a day/night registry whose horizon crosses epoch boundaries,
//! shard counts {1, 2, 7} and horizons {1, 17}, through both the batch
//! engine and the streaming engine.

use chaff_core::strategy::{CmlController, EpochChains, ImController, MoController};
use chaff_markov::{CellId, EpochSchedule, MarkovChain, MobilityRegistry};
use chaff_sim::fleet::{
    chaff_seed, FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetOutcome, FleetSimulation,
};
use chaff_sim::streaming::StreamingFleetEngine;
use chaff_sim::test_support::mixed_registry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use FleetChaffStrategy::{Cml, Im, Mo};

const CELLS: usize = 10;
const USERS: usize = 101;
const SEED: u64 = 4242;

/// The model a case runs on.
enum Model {
    Chain(MarkovChain),
    /// Three classes whose chains switch on a 5-slot day / 3-slot night
    /// schedule, so a 17-slot horizon crosses four epoch boundaries.
    DayNight(MobilityRegistry),
}

impl Model {
    /// A spatially skewed chain: most moves head for one hot cell, so
    /// chaffs often collide with their user and MO's gap decides.
    fn chain() -> Self {
        Model::Chain(mixed_registry(31, CELLS, 2).chain(1).clone())
    }

    fn day_night() -> Self {
        let day = mixed_registry(2017, CELLS, 3);
        let night = mixed_registry(1709, CELLS, 3);
        let epoch = |r: &MobilityRegistry| -> Vec<MarkovChain> {
            (0..r.num_classes()).map(|c| r.chain(c).clone()).collect()
        };
        Model::DayNight(
            MobilityRegistry::with_epochs(
                vec![epoch(&day), epoch(&night)],
                EpochSchedule::day_night(5, 3).expect("day/night schedule"),
            )
            .expect("two-epoch registry"),
        )
    }

    fn num_classes(&self) -> usize {
        match self {
            Model::Chain(_) => 1,
            Model::DayNight(r) => r.num_classes(),
        }
    }

    fn class_of(&self, user: usize) -> usize {
        match self {
            Model::Chain(_) => 0,
            Model::DayNight(r) => r.class_of(user),
        }
    }

    /// The per-slot chain source a chaff of `user` steps against.
    fn chains(&self, user: usize) -> EpochChains<'_> {
        match self {
            Model::Chain(c) => EpochChains::stationary(c),
            Model::DayNight(r) => EpochChains::registry(r, r.class_of(user)),
        }
    }

    fn run(&self, config: FleetConfig, policy: &FleetChaffPolicy) -> FleetOutcome {
        let simulation = match self {
            Model::Chain(c) => FleetSimulation::new(c, config),
            Model::DayNight(r) => FleetSimulation::with_registry(r, config),
        };
        simulation.run_chaffed(policy).expect("fleet run")
    }

    /// Every observed row of a streamed run, slot-major.
    fn stream(&self, config: FleetConfig, policy: &FleetChaffPolicy) -> Vec<Vec<CellId>> {
        let horizon = config.horizon;
        let engine = match self {
            Model::Chain(c) => StreamingFleetEngine::new(c, config, policy),
            Model::DayNight(r) => StreamingFleetEngine::with_registry(r, config, policy),
        };
        let mut engine = engine.expect("streaming engine").with_ring_depth(horizon);
        while engine.step().expect("streamed slot").is_some() {}
        (0..horizon)
            .map(|t| engine.observed_row(t).expect("buffered row").to_vec())
            .collect()
    }
}

/// Chaff `c` of `user`, replayed by the public controller over the
/// user's cells.
fn replay(
    model: &Model,
    strategy: FleetChaffStrategy,
    user: usize,
    c: usize,
    user_cells: &[CellId],
) -> Vec<CellId> {
    let mut rng = StdRng::seed_from_u64(chaff_seed(SEED, user as u64, c as u64));
    let chains = model.chains(user);
    match strategy {
        Im => {
            let mut controller = ImController::scheduled(chains);
            user_cells
                .iter()
                .map(|_| controller.walk(&mut rng))
                .collect()
        }
        Cml => {
            let mut controller = CmlController::scheduled(chains);
            user_cells
                .iter()
                .map(|&cell| controller.decide(cell, &[]))
                .collect()
        }
        Mo => {
            let mut controller = MoController::scheduled(chains);
            user_cells
                .iter()
                .map(|&cell| controller.decide(cell, &[]))
                .collect()
        }
    }
}

/// Checks every chaff column of an ordered batch outcome, and the same
/// columns of a streamed run, against the controller replays.
fn check(model: &Model, policy: &FleetChaffPolicy, shards: usize, horizon: usize) {
    let config = FleetConfig::new(USERS, horizon)
        .with_seed(SEED)
        .with_shards(shards)
        .without_anonymization();
    let outcome = model.run(config.clone(), policy);
    let streamed = model.stream(config, policy);
    let indices = &outcome.user_observed_indices;
    let services = outcome.observed.num_trajectories();
    let mut chaffs = 0;
    for user in 0..USERS {
        let class = model.class_of(user);
        let budget = policy.budget_of(user, class, USERS);
        let start = indices[user];
        let end = indices.get(user + 1).copied().unwrap_or(services);
        assert_eq!(end - start, budget + 1, "user {user}'s service count");
        let cells = outcome.user_cells.row(user);
        let strategy = policy.strategy_of(class);
        for c in 0..budget {
            let column = start + 1 + c;
            let expected = replay(model, strategy, user, c, cells);
            let observed: Vec<CellId> = (0..horizon)
                .map(|t| outcome.observed.row(t)[column])
                .collect();
            assert_eq!(
                observed, expected,
                "batch {strategy} chaff {c} of user {user} (shards {shards}, T = {horizon})"
            );
            let streamed: Vec<CellId> = streamed.iter().map(|row| row[column]).collect();
            assert_eq!(
                streamed, expected,
                "streamed {strategy} chaff {c} of user {user} (shards {shards}, T = {horizon})"
            );
            chaffs += 1;
        }
    }
    assert!(chaffs > 0, "the case launched no chaff");
}

fn policies(model: &Model) -> Vec<FleetChaffPolicy> {
    let mut policies: Vec<FleetChaffPolicy> = [Im, Cml, Mo]
        .into_iter()
        .map(|s| FleetChaffPolicy::uniform(s, 2))
        .collect();
    policies.push(FleetChaffPolicy::proportional(Mo, USERS + 5));
    if model.num_classes() == 3 {
        policies.push(FleetChaffPolicy::per_class(vec![
            (Im, 1),
            (Cml, 2),
            (Mo, 3),
        ]));
    }
    policies
}

fn check_all(model: &Model) {
    for policy in policies(model) {
        for shards in [1, 2, 7] {
            for horizon in [1, 17] {
                check(model, &policy, shards, horizon);
            }
        }
    }
}

#[test]
fn homogeneous_lanes_replay_the_public_controllers() {
    check_all(&Model::chain());
}

#[test]
fn day_night_lanes_replay_the_public_controllers_across_epochs() {
    check_all(&Model::day_night());
}
