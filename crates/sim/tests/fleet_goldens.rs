//! Fixed-seed goldens of the batch fleet engine.
//!
//! Every case runs `FleetSimulation::run_natural` / `run_chaffed` at
//! shard counts {1, 2, 7} and folds the whole [`FleetOutcome`] — the
//! observed grid, `user_observed_indices`, the ground-truth user cells
//! and the stats — into one FNV-1a digest, pinned below. The matrix
//! covers the three online chaff strategies, uniform, proportional,
//! per-class and adaptive budgets, a homogeneous chain, a 3-class
//! registry and a day/night registry, capacity-limited runs that spill,
//! anonymized and ordered observation, and horizons {1, 7, 17, 24} (so
//! horizons shorter than, equal to and not divisible by any internal
//! slot tiling are all pinned). A streamed `run_to_store` file must
//! restore to the same digest.
//!
//! The digests are the contract between the fleet engines and every
//! experiment built on them: a change to how a fleet is simulated must
//! leave all of them untouched.

use chaff_markov::{CellId, EpochSchedule, MarkovChain, MobilityRegistry};
use chaff_sim::fleet::{
    FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetOutcome, FleetSimulation,
};
use chaff_sim::streaming::StreamingFleetEngine;
use chaff_sim::test_support::{mixed_registry, nonskewed_chain};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use FleetChaffStrategy::{Cml, Im, Mo};

const CELLS: usize = 10;

/// FNV-1a over every field of a fleet outcome, shapes included.
fn digest(outcome: &FleetOutcome) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let cells = |mix: &mut dyn FnMut(u64), cells: &[CellId]| {
        for cell in cells {
            mix(cell.index() as u64);
        }
    };
    mix(outcome.observed.num_trajectories() as u64);
    mix(outcome.observed.horizon() as u64);
    cells(&mut mix, outcome.observed.as_cells());
    mix(outcome.user_observed_indices.len() as u64);
    for &index in &outcome.user_observed_indices {
        mix(index as u64);
    }
    mix(outcome.user_cells.num_trajectories() as u64);
    mix(outcome.user_cells.horizon() as u64);
    cells(&mut mix, outcome.user_cells.as_cells());
    let stats = outcome.stats;
    for v in [
        stats.migrations,
        stats.spills,
        stats.user_slots,
        stats.chaff_services,
    ] {
        mix(v as u64);
    }
    hash
}

/// The fleet models the goldens run on.
#[derive(Clone, Copy)]
enum Model {
    /// One non-skewed chain.
    Chain,
    /// Three classes: non-skewed, spatially and temporally skewed.
    Classes,
    /// Three classes whose chains switch on a 5-slot day / 3-slot night
    /// schedule.
    DayNight,
}

struct Models {
    chain: MarkovChain,
    classes: MobilityRegistry,
    day_night: MobilityRegistry,
}

impl Models {
    fn new() -> Self {
        let day = mixed_registry(2017, CELLS, 3);
        let night = mixed_registry(1709, CELLS, 3);
        let epoch = |r: &MobilityRegistry| -> Vec<MarkovChain> {
            (0..r.num_classes()).map(|c| r.chain(c).clone()).collect()
        };
        let day_night = MobilityRegistry::with_epochs(
            vec![epoch(&day), epoch(&night)],
            EpochSchedule::day_night(5, 3).expect("day/night schedule"),
        )
        .expect("two-epoch registry");
        Models {
            chain: nonskewed_chain(19, CELLS),
            classes: day,
            day_night,
        }
    }

    fn simulation(&self, model: Model, config: FleetConfig) -> FleetSimulation<'_> {
        match model {
            Model::Chain => FleetSimulation::new(&self.chain, config),
            Model::Classes => FleetSimulation::with_registry(&self.classes, config),
            Model::DayNight => FleetSimulation::with_registry(&self.day_night, config),
        }
    }

    fn engine(
        &self,
        model: Model,
        config: FleetConfig,
        policy: &FleetChaffPolicy,
    ) -> StreamingFleetEngine<'_> {
        match model {
            Model::Chain => StreamingFleetEngine::new(&self.chain, config, policy),
            Model::Classes => StreamingFleetEngine::with_registry(&self.classes, config, policy),
            Model::DayNight => StreamingFleetEngine::with_registry(&self.day_night, config, policy),
        }
        .expect("valid fleet")
    }
}

/// One pinned run: a model, a fleet shape and a policy (`None` runs
/// `run_natural`).
struct Case {
    name: &'static str,
    model: Model,
    users: usize,
    horizon: usize,
    capacity: Option<usize>,
    anonymize: bool,
    policy: Option<FleetChaffPolicy>,
    golden: u64,
}

impl Case {
    fn config(&self, shards: usize) -> FleetConfig {
        let mut config = FleetConfig::new(self.users, self.horizon)
            .with_seed(0x601D + self.users as u64 * 31 + self.horizon as u64)
            .with_shards(shards);
        if let Some(capacity) = self.capacity {
            config = config.with_capacity(capacity);
        }
        if !self.anonymize {
            config = config.without_anonymization();
        }
        config
    }

    fn run(&self, models: &Models, shards: usize) -> FleetOutcome {
        let sim = models.simulation(self.model, self.config(shards));
        match &self.policy {
            None => sim.run_natural(),
            Some(policy) => sim.run_chaffed(policy),
        }
        .unwrap_or_else(|e| panic!("{}: {e}", self.name))
    }
}

/// An adaptive policy one feedback epoch past its proportional start,
/// so per-user budgets are genuinely uneven.
fn adapted(strategy: FleetChaffStrategy, users: usize, total: usize) -> FleetChaffPolicy {
    let mut policy = FleetChaffPolicy::adaptive(strategy, users, total);
    let feedback: Vec<f64> = (0..users).map(|u| ((u * 7) % 5) as f64 / 4.0).collect();
    policy.adapt(&feedback).expect("well-formed feedback");
    policy
}

#[allow(clippy::too_many_arguments)]
fn case(
    name: &'static str,
    model: Model,
    users: usize,
    horizon: usize,
    capacity: Option<usize>,
    anonymize: bool,
    policy: Option<FleetChaffPolicy>,
    golden: u64,
) -> Case {
    Case {
        name,
        model,
        users,
        horizon,
        capacity,
        anonymize,
        policy,
        golden,
    }
}

#[rustfmt::skip]
fn cases() -> Vec<Case> {
    use Model::{Chain, Classes, DayNight};
    let uniform = FleetChaffPolicy::uniform;
    let proportional = FleetChaffPolicy::proportional;
    let three = |a, b, c| FleetChaffPolicy::per_class(vec![a, b, c]);
    vec![
        case("natural/chain/T17", Chain, 41, 17, None, true, None, 0xb20a5b8c52e66e7b),
        case("natural/classes/T1", Classes, 23, 1, None, true, None, 0x58ad90599dbe9512),
        case("natural/day_night/T24/ordered", DayNight, 29, 24, None, false, None, 0xce597a3a27ebc346),
        case("im/chain/B2/T24", Chain, 37, 24, None, true, Some(uniform(Im, 2)), 0x57c373834cb9c5af),
        case("cml/chain/B2/T7", Chain, 31, 7, None, true, Some(uniform(Cml, 2)), 0x4e0126fa50be3232),
        case("mo/chain/B2/T17/ordered", Chain, 27, 17, None, false, Some(uniform(Mo, 2)), 0x25dc8fed6a56f8a1),
        case("im/classes/B2/T1", Classes, 19, 1, None, true, Some(uniform(Im, 2)), 0x80b2b46f29edc059),
        case("cml/classes/B2/T24", Classes, 33, 24, None, true, Some(uniform(Cml, 2)), 0x6005e3f57089b3a8),
        case("mo/classes/B2/T7", Classes, 35, 7, None, true, Some(uniform(Mo, 2)), 0xba5a27f46a197d57),
        case("im/day_night/B2/T17", DayNight, 26, 17, None, true, Some(uniform(Im, 2)), 0x8dd2557de5fe340b),
        case("cml/day_night/B1/T24", DayNight, 22, 24, None, true, Some(uniform(Cml, 1)), 0x243b6fe74ff7952e),
        case("mo/day_night/B2/T7/ordered", DayNight, 21, 7, None, false, Some(uniform(Mo, 2)), 0x9fcf201ff59064df),
        case("proportional/im/chain/T17", Chain, 30, 17, None, true, Some(proportional(Im, 47)), 0x6501a97dc612a5aa),
        case("proportional/mo/classes/T24", Classes, 28, 24, None, true, Some(proportional(Mo, 39)), 0x31898997a2938e0c),
        case("per_class/classes/T17", Classes, 36, 17, None, true, Some(three((Im, 2), (Cml, 1), (Mo, 0))), 0xb4b73cb80c379f96),
        case("per_class/day_night/T24/ordered", DayNight, 24, 24, None, false, Some(three((Mo, 1), (Im, 0), (Cml, 2))), 0xb09b47f311fc52fa),
        case("adaptive/im/chain/T7", Chain, 25, 7, None, true, Some(adapted(Im, 25, 40)), 0xc4d3f1563eceb694),
        case("adaptive/cml/day_night/T17", DayNight, 20, 17, None, true, Some(adapted(Cml, 20, 33)), 0x82830e6552a69540),
        case("capped/natural/chain/T24", Chain, 18, 24, Some(2), true, None, 0x8020b514390c9b67),
        case("capped/im/chain/B2/T17", Chain, 12, 17, Some(4), true, Some(uniform(Im, 2)), 0xe48f0d03b32ee12f),
        case("capped/cml/classes/B1/T7/ordered", Classes, 14, 7, Some(3), false, Some(uniform(Cml, 1)), 0x8ee6708abfae712f),
        case("capped/mo/day_night/B2/T24", DayNight, 11, 24, Some(4), true, Some(uniform(Mo, 2)), 0xc07fdfb84488ac70),
        case("capped/per_class/classes/T1", Classes, 15, 1, Some(3), true, Some(three((Im, 1), (Mo, 2), (Cml, 0))), 0x650d4d1541f3f350),
    ]
}

#[test]
fn batch_fleet_outcomes_match_their_pinned_digests() {
    let models = Models::new();
    let mut mismatches = Vec::new();
    for case in cases() {
        let reference = case.run(&models, 1);
        let digest_1 = digest(&reference);
        for shards in [2, 7] {
            let outcome = case.run(&models, shards);
            assert_eq!(
                digest(&outcome),
                digest_1,
                "{}: shards = {shards} diverged from shards = 1",
                case.name
            );
        }
        if case.capacity.is_some() {
            assert!(reference.stats.spills > 0, "{}: no spill", case.name);
        }
        if digest_1 != case.golden {
            mismatches.push(format!("{}: {digest_1:#018x}", case.name));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}

fn temp_path(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "chaff_fleet_goldens_{}_{}_{name}.store",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn streamed_stores_restore_to_the_pinned_batch_digests() {
    let models = Models::new();
    let picks = [
        "im/classes/B2/T1",
        "cml/day_night/B1/T24",
        "per_class/classes/T17",
        "capped/mo/day_night/B2/T24",
    ];
    for case in cases().into_iter().filter(|c| picks.contains(&c.name)) {
        let policy = case
            .policy
            .clone()
            .unwrap_or_else(|| FleetChaffPolicy::uniform(Im, 0));
        let mut engine = models.engine(case.model, case.config(2), &policy);
        let path = temp_path(&case.name.replace('/', "_"));
        let steps = engine.run_to_store(&path).expect("streamed store");
        assert_eq!(steps.len(), case.horizon, "{}", case.name);
        let restored = FleetOutcome::restore(&path).expect("sealed store");
        std::fs::remove_file(&path).expect("remove store");
        assert_eq!(digest(&restored), case.golden, "{}", case.name);
    }
}
