//! Heterogeneous-mobility registry: a small set of model *classes*
//! shared by an arbitrarily large fleet, optionally varying over time.
//!
//! Real populations are not i.i.d. draws of one chain — commuters,
//! couriers and tourists move differently (Esper et al., 2306.15740
//! motivate exactly this dimension). Modeling every user with their own
//! chain would cost `O(users)` tables at fleet scale; the registry
//! instead keeps a handful of [`MarkovChain`] *classes*, precomputes one
//! [`LogLikelihoodTable`] per class, and maps users onto classes with a
//! deterministic round-robin, so the memory footprint stays
//! `O(classes × epochs)` no matter how many users the fleet simulates.
//!
//! The *epoch* dimension ([`EpochSchedule`]) generalizes the classes over
//! time: a registry may hold one chain per class **per epoch** (e.g. day
//! and night commuter dynamics), and consumers look the active set up by
//! slot. A one-epoch registry — every constructor that does not name a
//! schedule — reduces bit-for-bit to the stationary behavior: epoch 0 is
//! the only epoch, and the epoch-indexed accessors collapse onto the
//! plain ones.
//!
//! The round-robin assignment `class_of(u) = u mod num_classes` is
//! deliberate: a user's class never changes when the fleet grows, which
//! preserves the fleet engine's guarantee that adding users never
//! perturbs existing users' trajectories.

use crate::{EpochSchedule, LogLikelihoodTable, MarkovChain, MarkovError, Result};

/// A registry of mobility model classes with per-class (× per-epoch)
/// cached log-likelihood tables and a deterministic user→class mapping.
///
/// All classes of all epochs must share one cell space (the MEC coverage
/// layout is common to the whole fleet even when movement patterns
/// differ).
///
/// # Example
///
/// ```
/// use chaff_markov::{models::ModelKind, MarkovChain, MobilityRegistry};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), chaff_markov::MarkovError> {
/// let mut rng = StdRng::seed_from_u64(9);
/// let registry = MobilityRegistry::new(vec![
///     MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?,
///     MarkovChain::new(ModelKind::SpatiallySkewed.build(10, &mut rng)?)?,
/// ])?;
/// assert_eq!(registry.num_classes(), 2);
/// assert_eq!(registry.num_epochs(), 1);
/// assert_eq!(registry.class_of(0), 0);
/// assert_eq!(registry.class_of(7), 1);
/// assert_eq!(registry.table(1).num_states(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MobilityRegistry {
    /// Epoch-major chain storage: `chains[epoch][class]`. Stationary
    /// registries hold exactly one epoch.
    chains: Vec<Vec<MarkovChain>>,
    /// Cached log-likelihood tables, aligned with `chains`.
    tables: Vec<Vec<LogLikelihoodTable>>,
    /// The slot → epoch map; [`EpochSchedule::stationary`] for every
    /// constructor that does not name a schedule.
    schedule: EpochSchedule,
    /// Optional explicit user→class map; `class_of(u)` reads
    /// `assignment[u % assignment.len()]`, falling back to plain
    /// round-robin when absent. Trace-backed fleets use this to keep each
    /// simulated user on the class its source trace node was clustered
    /// into (replica blocks of an amplified fleet repeat the pattern).
    assignment: Option<Vec<usize>>,
}

impl MobilityRegistry {
    /// Builds a stationary (one-epoch) registry from one chain per
    /// class, precomputing every class's log-likelihood table up front.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] when no classes are supplied and
    /// [`MarkovError::DimensionMismatch`] when the classes disagree on
    /// the number of cells.
    pub fn new(chains: Vec<MarkovChain>) -> Result<Self> {
        Self::with_epochs(vec![chains], EpochSchedule::stationary())
    }

    /// Builds a time-varying registry: one chain per class **per epoch**
    /// (`per_epoch[epoch][class]`), with `schedule` naming the epoch
    /// active at each slot. Every epoch must supply the same classes over
    /// the same cell space; a one-epoch schedule reduces bit-for-bit to
    /// [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] when `per_epoch` (or any epoch's
    /// class list) is empty, [`MarkovError::LengthMismatch`] when epochs
    /// disagree on the class count or `per_epoch` does not cover
    /// `schedule.num_epochs()`, and [`MarkovError::DimensionMismatch`]
    /// when any chain disagrees on the number of cells.
    pub fn with_epochs(per_epoch: Vec<Vec<MarkovChain>>, schedule: EpochSchedule) -> Result<Self> {
        let first_epoch = per_epoch.first().ok_or(MarkovError::Empty)?;
        let first = first_epoch.first().ok_or(MarkovError::Empty)?;
        if per_epoch.len() != schedule.num_epochs() {
            return Err(MarkovError::LengthMismatch {
                expected: schedule.num_epochs(),
                found: per_epoch.len(),
            });
        }
        let classes = first_epoch.len();
        let states = first.num_states();
        for epoch in &per_epoch {
            if epoch.len() != classes {
                return Err(MarkovError::LengthMismatch {
                    expected: classes,
                    found: epoch.len(),
                });
            }
            for chain in epoch {
                if chain.num_states() != states {
                    return Err(MarkovError::DimensionMismatch {
                        expected: states,
                        found: chain.num_states(),
                    });
                }
            }
        }
        let tables = per_epoch
            .iter()
            .map(|epoch| {
                epoch
                    .iter()
                    .map(MarkovChain::log_likelihood_table)
                    .collect()
            })
            .collect();
        Ok(MobilityRegistry {
            chains: per_epoch,
            tables,
            schedule,
            assignment: None,
        })
    }

    /// Builds a stationary registry with an explicit user→class
    /// assignment pattern: user `u` belongs to
    /// `assignment[u % assignment.len()]`.
    ///
    /// This is how empirically-clustered trace fleets are wired up: the
    /// ingestion pipeline partitions trace nodes into model classes,
    /// estimates one empirical chain per class, and passes the per-node
    /// class labels here so fleet user `u` moves by the chain of trace
    /// node `u mod nodes`. Like the round-robin default, the pattern is a
    /// pure function of the user index — growing the fleet never
    /// reassigns existing users.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] when `chains` or `assignment` is
    /// empty, [`MarkovError::DimensionMismatch`] when the classes
    /// disagree on the number of cells, and
    /// [`MarkovError::ClassOutOfRange`] when an assignment entry names a
    /// class that does not exist.
    pub fn with_assignment(chains: Vec<MarkovChain>, assignment: Vec<usize>) -> Result<Self> {
        let mut registry = Self::new(chains)?;
        if assignment.is_empty() {
            return Err(MarkovError::Empty);
        }
        if let Some(&bad) = assignment.iter().find(|&&c| c >= registry.num_classes()) {
            return Err(MarkovError::ClassOutOfRange {
                class: bad,
                classes: registry.num_classes(),
            });
        }
        registry.assignment = Some(assignment);
        Ok(registry)
    }

    /// A single-class stationary registry (the homogeneous fleet as a
    /// degenerate case).
    pub fn single(chain: MarkovChain) -> Self {
        let tables = vec![vec![chain.log_likelihood_table()]];
        MobilityRegistry {
            chains: vec![vec![chain]],
            tables,
            schedule: EpochSchedule::stationary(),
            assignment: None,
        }
    }

    /// Number of model classes.
    pub fn num_classes(&self) -> usize {
        self.chains[0].len()
    }

    /// Number of epochs (1 for stationary registries).
    pub fn num_epochs(&self) -> usize {
        self.chains.len()
    }

    /// The slot → epoch map ([`EpochSchedule::stationary`] for
    /// stationary registries).
    pub fn schedule(&self) -> &EpochSchedule {
        &self.schedule
    }

    /// Whether this registry holds a single epoch (and therefore behaves
    /// exactly like the pre-epoch stationary registry).
    pub fn is_stationary(&self) -> bool {
        self.num_epochs() == 1
    }

    /// Number of cells in the (shared) state space.
    pub fn num_states(&self) -> usize {
        self.chains[0][0].num_states()
    }

    /// The class user `user` belongs to: the explicit assignment pattern
    /// when one was given ([`with_assignment`](Self::with_assignment)),
    /// deterministic round-robin otherwise. Either way the class is a
    /// pure function of the user index, independent of the fleet size.
    #[inline]
    pub fn class_of(&self, user: usize) -> usize {
        match &self.assignment {
            Some(map) => map[user % map.len()],
            None => user % self.num_classes(),
        }
    }

    /// The epoch-0 mobility chain of class `class` — the stationary view
    /// (for a one-epoch registry, *the* chain of the class).
    ///
    /// # Panics
    ///
    /// Panics if `class >= num_classes()`.
    pub fn chain(&self, class: usize) -> &MarkovChain {
        &self.chains[0][class]
    }

    /// The chain of class `class` in epoch `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `class >= num_classes()` or `epoch >= num_epochs()`.
    pub fn chain_at(&self, class: usize, epoch: usize) -> &MarkovChain {
        &self.chains[epoch][class]
    }

    /// The epoch-0 chain user `user` moves by (stationary view).
    pub fn chain_of(&self, user: usize) -> &MarkovChain {
        self.chain(self.class_of(user))
    }

    /// The chain governing user `user`'s arrival at slot `slot`: the
    /// user's class under the epoch `schedule().epoch_of(slot)` names.
    /// For a one-epoch registry this is [`chain_of`](Self::chain_of) for
    /// every slot.
    #[inline]
    pub fn chain_of_at(&self, user: usize, slot: usize) -> &MarkovChain {
        &self.chains[self.schedule.epoch_of(slot)][self.class_of(user)]
    }

    /// The precomputed epoch-0 log-likelihood table of class `class`
    /// (stationary view).
    ///
    /// # Panics
    ///
    /// Panics if `class >= num_classes()`.
    pub fn table(&self, class: usize) -> &LogLikelihoodTable {
        &self.tables[0][class]
    }

    /// All epoch-0 per-class tables in class order — the stationary
    /// detector-side view (the eavesdropper knows the population's model
    /// mix, not any user's class).
    pub fn tables(&self) -> Vec<&LogLikelihoodTable> {
        self.tables_at(0)
    }

    /// All per-class tables of epoch `epoch`, in class order.
    ///
    /// # Panics
    ///
    /// Panics if `epoch >= num_epochs()`.
    pub fn tables_at(&self, epoch: usize) -> Vec<&LogLikelihoodTable> {
        self.tables[epoch].iter().collect()
    }

    /// Owned clones of every epoch's per-class tables, epoch-major — the
    /// construction input of schedule-aware streaming detectors, which
    /// must own their tables to outlive the registry borrow.
    pub fn to_epoch_tables(&self) -> Vec<Vec<LogLikelihoodTable>> {
        self.tables.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain(kind: ModelKind, cells: usize, seed: u64) -> MarkovChain {
        let mut rng = StdRng::seed_from_u64(seed);
        MarkovChain::new(kind.build(cells, &mut rng).unwrap()).unwrap()
    }

    #[test]
    fn round_robin_is_fleet_size_independent() {
        let registry = MobilityRegistry::new(vec![
            chain(ModelKind::NonSkewed, 6, 1),
            chain(ModelKind::SpatiallySkewed, 6, 2),
            chain(ModelKind::TemporallySkewed, 6, 3),
        ])
        .unwrap();
        assert_eq!(registry.num_classes(), 3);
        for user in 0..30 {
            assert_eq!(registry.class_of(user), user % 3);
        }
    }

    #[test]
    fn tables_match_their_chains() {
        let registry = MobilityRegistry::new(vec![
            chain(ModelKind::NonSkewed, 5, 4),
            chain(ModelKind::SpatiallySkewed, 5, 5),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for class in 0..registry.num_classes() {
            let x = registry.chain(class).sample_trajectory(12, &mut rng);
            let a = registry.table(class).log_likelihood(&x);
            let b = registry.chain(class).log_likelihood(&x);
            assert_eq!(a.to_bits(), b.to_bits(), "class {class}");
        }
    }

    #[test]
    fn rejects_empty_and_mismatched_cell_spaces() {
        assert!(matches!(
            MobilityRegistry::new(Vec::new()),
            Err(MarkovError::Empty)
        ));
        let err = MobilityRegistry::new(vec![
            chain(ModelKind::NonSkewed, 5, 7),
            chain(ModelKind::NonSkewed, 6, 8),
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            MarkovError::DimensionMismatch {
                expected: 5,
                found: 6
            }
        ));
    }

    #[test]
    fn explicit_assignment_patterns_repeat_and_are_validated() {
        let chains = vec![
            chain(ModelKind::NonSkewed, 6, 11),
            chain(ModelKind::SpatiallySkewed, 6, 12),
        ];
        // A 3-node pattern: nodes 0 and 2 are class 1, node 1 is class 0.
        let registry = MobilityRegistry::with_assignment(chains.clone(), vec![1, 0, 1]).unwrap();
        assert_eq!(registry.num_classes(), 2);
        for user in 0..12 {
            assert_eq!(registry.class_of(user), [1, 0, 1][user % 3], "user {user}");
        }
        // Growing the fleet never reassigns existing users.
        assert_eq!(registry.class_of(4), registry.class_of(4));

        // Out-of-range class labels and empty patterns are rejected,
        // with a class-worded (not cell-worded) error.
        let err = MobilityRegistry::with_assignment(chains.clone(), vec![0, 2]).unwrap_err();
        assert!(matches!(
            err,
            MarkovError::ClassOutOfRange {
                class: 2,
                classes: 2
            }
        ));
        assert!(err.to_string().contains("mobility classes"), "{err}");
        assert!(matches!(
            MobilityRegistry::with_assignment(chains, Vec::new()),
            Err(MarkovError::Empty)
        ));
    }

    #[test]
    fn single_class_registry_wraps_one_chain() {
        let registry = MobilityRegistry::single(chain(ModelKind::NonSkewed, 4, 9));
        assert_eq!(registry.num_classes(), 1);
        assert_eq!(registry.num_states(), 4);
        assert_eq!(registry.num_epochs(), 1);
        assert!(registry.is_stationary());
        assert_eq!(registry.class_of(123), 0);
        assert_eq!(registry.tables().len(), 1);
    }

    #[test]
    fn epoch_registry_looks_up_the_slot_active_chain() {
        let day = vec![
            chain(ModelKind::NonSkewed, 6, 21),
            chain(ModelKind::SpatiallySkewed, 6, 22),
        ];
        let night = vec![
            chain(ModelKind::TemporallySkewed, 6, 23),
            chain(ModelKind::SpatioTemporallySkewed, 6, 24),
        ];
        let schedule = EpochSchedule::day_night(2, 3).unwrap();
        let registry =
            MobilityRegistry::with_epochs(vec![day.clone(), night.clone()], schedule).unwrap();
        assert_eq!(registry.num_epochs(), 2);
        assert_eq!(registry.num_classes(), 2);
        assert!(!registry.is_stationary());
        // Slots 0–1 are day, 2–4 night, then the pattern repeats.
        assert_eq!(
            registry.chain_of_at(0, 1).matrix(),
            registry.chain_at(0, 0).matrix()
        );
        assert_eq!(
            registry.chain_of_at(0, 3).matrix(),
            registry.chain_at(0, 1).matrix()
        );
        assert_eq!(
            registry.chain_of_at(1, 5).matrix(),
            registry.chain_at(1, 0).matrix()
        );
        // The stationary accessors are the epoch-0 (day) view.
        assert_eq!(registry.chain(1).matrix(), day[1].matrix());
        assert_eq!(registry.table(1).num_states(), 6);
        assert_eq!(registry.chain_at(1, 1).matrix(), night[1].matrix());
        // Per-epoch tables match their chains bit-for-bit.
        let mut rng = StdRng::seed_from_u64(25);
        for epoch in 0..2 {
            for class in 0..2 {
                let x = registry
                    .chain_at(class, epoch)
                    .sample_trajectory(9, &mut rng);
                let a = registry.tables_at(epoch)[class].log_likelihood(&x);
                let b = registry.chain_at(class, epoch).log_likelihood(&x);
                assert_eq!(a.to_bits(), b.to_bits(), "epoch {epoch} class {class}");
            }
        }
        assert_eq!(registry.to_epoch_tables().len(), 2);
        assert_eq!(registry.tables_at(1).len(), 2);
    }

    #[test]
    fn one_epoch_registry_reduces_to_the_stationary_constructor() {
        let chains = vec![
            chain(ModelKind::NonSkewed, 5, 31),
            chain(ModelKind::SpatiallySkewed, 5, 32),
        ];
        let stationary = MobilityRegistry::new(chains.clone()).unwrap();
        let epoch =
            MobilityRegistry::with_epochs(vec![chains], EpochSchedule::stationary()).unwrap();
        for class in 0..2 {
            assert_eq!(
                stationary.chain(class).matrix(),
                epoch.chain(class).matrix()
            );
            for slot in 0..7 {
                assert_eq!(
                    epoch.chain_of_at(class, slot).matrix(),
                    stationary.chain_of(class).matrix()
                );
            }
        }
    }

    #[test]
    fn epoch_constructors_validate_shapes() {
        let a = chain(ModelKind::NonSkewed, 5, 41);
        let b = chain(ModelKind::SpatiallySkewed, 5, 42);
        let wide = chain(ModelKind::NonSkewed, 6, 43);
        let two = EpochSchedule::day_night(1, 1).unwrap();
        // Epoch count must match the schedule.
        assert!(matches!(
            MobilityRegistry::with_epochs(vec![vec![a.clone()]], two.clone()),
            Err(MarkovError::LengthMismatch {
                expected: 2,
                found: 1
            })
        ));
        // Epochs must agree on the class count.
        assert!(matches!(
            MobilityRegistry::with_epochs(vec![vec![a.clone(), b], vec![a.clone()]], two.clone()),
            Err(MarkovError::LengthMismatch {
                expected: 2,
                found: 1
            })
        ));
        // All chains must share the cell space.
        assert!(matches!(
            MobilityRegistry::with_epochs(vec![vec![a], vec![wide]], two),
            Err(MarkovError::DimensionMismatch {
                expected: 5,
                found: 6
            })
        ));
        // Empty inputs fail typed.
        assert!(matches!(
            MobilityRegistry::with_epochs(Vec::new(), EpochSchedule::stationary()),
            Err(MarkovError::Empty)
        ));
        assert!(matches!(
            MobilityRegistry::with_epochs(vec![Vec::new()], EpochSchedule::stationary()),
            Err(MarkovError::Empty)
        ));
    }
}
