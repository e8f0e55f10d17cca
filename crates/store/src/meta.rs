//! Fleet-shape metadata and aggregate stats carried by a store file.

use crate::error::{Result, StoreError};

/// The fleet shape and offset tables a store is created with.
///
/// Mirrors what `chaff_sim`'s fleet pipeline knows before the first
/// slot is generated: the observed population width, the user count,
/// the horizon, the sharded observation log's shard boundaries and the
/// post-anonymization index of every user's real service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreMeta {
    /// Observed trajectories per slot (users + chaffs).
    pub num_services: usize,
    /// Ground-truth users.
    pub num_users: usize,
    /// Slots the store will hold.
    pub horizon: usize,
    /// Shard boundary prefix table of the observation log
    /// (`shard_starts[s]..shard_starts[s + 1]` is shard `s`'s service
    /// range; first entry 0, last entry `num_services`).
    pub shard_starts: Vec<usize>,
    /// Post-shuffle observed index of each user's real service
    /// (`num_users` entries, each `< num_services`).
    pub user_observed_indices: Vec<usize>,
}

impl StoreMeta {
    /// Validates the internal consistency of the metadata.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Layout`] naming the offending table when
    /// the shard starts are not a monotone prefix table over
    /// `num_services` or the user indices do not match the population.
    pub fn validate(&self) -> Result<()> {
        let starts_ok = self.shard_starts.len() >= 2
            && self.shard_starts.first() == Some(&0)
            && self.shard_starts.last() == Some(&self.num_services)
            && self.shard_starts.windows(2).all(|w| w[0] <= w[1]);
        if !starts_ok {
            return Err(StoreError::Layout {
                reason: format!(
                    "shard_starts {:?} is not a monotone prefix table over {} services",
                    self.shard_starts, self.num_services
                ),
            });
        }
        if self.user_observed_indices.len() != self.num_users {
            return Err(StoreError::Layout {
                reason: format!(
                    "{} user indices for {} users",
                    self.user_observed_indices.len(),
                    self.num_users
                ),
            });
        }
        if let Some(&bad) = self
            .user_observed_indices
            .iter()
            .find(|&&i| i >= self.num_services.max(1))
        {
            return Err(StoreError::Layout {
                reason: format!(
                    "user observed index {bad} exceeds {} services",
                    self.num_services
                ),
            });
        }
        Ok(())
    }
}

/// Aggregate fleet counters (per-service ledgers would dwarf the
/// trajectories at fleet scale): what a fleet run counts, re-exported as
/// `chaff_sim::fleet::FleetStats`, and what a store persists at
/// [`finish`](crate::FleetStoreWriter::finish).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total service migrations (cell changes) across the fleet.
    pub migrations: usize,
    /// Placements diverted by capacity spills.
    pub spills: usize,
    /// Simulated user-slots (`num_users × horizon`), the throughput
    /// denominator.
    pub user_slots: usize,
    /// Chaff services launched across the fleet (0 on undefended runs).
    pub chaff_services: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> StoreMeta {
        StoreMeta {
            num_services: 6,
            num_users: 2,
            horizon: 3,
            shard_starts: vec![0, 4, 6],
            user_observed_indices: vec![5, 0],
        }
    }

    #[test]
    fn valid_meta_passes() {
        meta().validate().unwrap();
    }

    #[test]
    fn malformed_tables_are_rejected() {
        let mut m = meta();
        m.shard_starts = vec![0, 7];
        assert!(matches!(m.validate(), Err(StoreError::Layout { .. })));
        let mut m = meta();
        m.shard_starts = vec![4, 6];
        assert!(m.validate().is_err());
        let mut m = meta();
        m.user_observed_indices = vec![5];
        assert!(m.validate().is_err());
        let mut m = meta();
        m.user_observed_indices = vec![5, 6];
        assert!(m.validate().is_err());
    }
}
