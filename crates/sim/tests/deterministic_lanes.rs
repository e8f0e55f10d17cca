//! CML and MO chaff lanes draw nothing, so every lane of a user walks
//! the same trajectory, and the fleet's migration count is a property
//! of the observed grid alone.
//!
//! On random uncapped CML/MO fleets with uneven `proportional` budgets
//! (zero for some users, up to 5 for others) over one to three classes,
//! and horizons that cross several batch tiles:
//!
//! - `stats.migrations`, from the batch and the streaming engine, equals
//!   the recount Σ over observed columns Σ over `t ≥ 1` of
//!   `[x_t ≠ x_{t−1}]`. The recount does not depend on the anonymizing
//!   permutation, so it holds with anonymization on and off.
//! - With anonymization off, every chaff column of a user equals that
//!   user's first chaff column.

use chaff_markov::CellGrid;
use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
use chaff_sim::streaming::StreamingFleetEngine;
use chaff_sim::test_support::mixed_registry;
use proptest::prelude::*;

/// Cells that change from one slot to the next, over every column.
fn recount_migrations(grid: &CellGrid) -> usize {
    (1..grid.horizon())
        .map(|t| {
            let (prev, row) = (grid.row(t - 1), grid.row(t));
            prev.iter().zip(row).filter(|(a, b)| a != b).count()
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn deterministic_lanes_repeat_their_first_column_and_count_every_move(
        model_seed in 0u64..1_000,
        fleet_seed in 0u64..1_000,
        num_users in 1usize..24,
        // Up to 5 chaffs a user; below `num_users`, some users get none.
        total_per_user in 0usize..5,
        remainder in 0usize..24,
        horizon in 1usize..40,
        mo in 0u8..2,
        classes in 1usize..4,
        shards in 1usize..6,
        anonymize in 0u8..2,
    ) {
        let strategy = if mo == 1 {
            FleetChaffStrategy::Mo
        } else {
            FleetChaffStrategy::Cml
        };
        let total = total_per_user * num_users + remainder % num_users;
        let policy = FleetChaffPolicy::proportional(strategy, total);
        let registry = mixed_registry(model_seed, 8, classes);
        let mut config = FleetConfig::new(num_users, horizon)
            .with_seed(fleet_seed)
            .with_shards(shards);
        if anonymize == 0 {
            config = config.without_anonymization();
        }
        let outcome = FleetSimulation::with_registry(&registry, config.clone())
            .run_chaffed(&policy)
            .unwrap();
        let migrations = recount_migrations(&outcome.observed);
        prop_assert_eq!(outcome.stats.migrations, migrations);

        let mut engine = StreamingFleetEngine::with_registry(&registry, config, &policy).unwrap();
        while engine.step().unwrap().is_some() {}
        prop_assert_eq!(engine.stats().migrations, migrations);

        if anonymize == 0 {
            let grid = &outcome.observed;
            for user in 0..num_users {
                let first = outcome.user_observed_indices[user] + 1;
                let budget = policy.budget_of(user, registry.class_of(user), num_users);
                for column in first + 1..first + budget {
                    for t in 0..horizon {
                        prop_assert_eq!(
                            grid.cell(t, column),
                            grid.cell(t, first),
                            "user {} chaff column {} at slot {}",
                            user,
                            column - first,
                            t
                        );
                    }
                }
            }
        }
    }
}
