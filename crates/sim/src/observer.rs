//! The cyber eavesdropper's observation log.
//!
//! The eavesdropper sees where every service instance runs and how it
//! migrates — it can *link* a service across slots (instances have stable
//! platform identities) but cannot tell from content which instance is
//! real (chaffs are independent instances of the same service type,
//! Sec. II-B). The log therefore exposes per-service trajectories under
//! shuffled indices, plus the ground-truth index for evaluation code only.
//!
//! [`ObservationLog`] is the single-simulation log (one user plus
//! chaffs), per-trajectory storage at paper scale. Fleets observe the
//! same way at scale: the fleet stepper gathers each slot row through
//! the inverse of one global Fisher–Yates permutation (the same draw
//! [`ObservationLog::into_anonymized`] makes) straight into a slot-major
//! [`CellGrid`](chaff_markov::CellGrid).

use crate::{Result, SimError};
use chaff_markov::{CellId, Trajectory};
use rand::Rng;

/// Samples a Fisher–Yates permutation of `0..n`: `perm[original]` is the
/// post-shuffle position of `original`. The fleet stepper draws the same
/// permutation up front and gathers each slot row through its inverse.
pub(crate) fn fisher_yates<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// Applies `perm` to `trajectories`: output slot `perm[original]` receives
/// trajectory `original`.
fn apply_permutation(trajectories: Vec<Trajectory>, perm: &[usize]) -> Vec<Trajectory> {
    let mut shuffled = vec![Trajectory::new(); trajectories.len()];
    for (original, trajectory) in trajectories.into_iter().enumerate() {
        shuffled[perm[original]] = trajectory;
    }
    shuffled
}

/// Builder that records service locations slot by slot.
#[derive(Debug, Clone)]
pub struct ObservationLog {
    /// One trajectory per service; index 0 is the real service until
    /// shuffling.
    trajectories: Vec<Trajectory>,
}

impl ObservationLog {
    /// Creates a log for `num_services` services.
    pub fn new(num_services: usize) -> Self {
        ObservationLog {
            trajectories: vec![Trajectory::new(); num_services],
        }
    }

    /// Records the location of every service for the current slot.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ObservationArity`] (naming the offending
    /// slot) if `locations` does not match the number of services —
    /// recoverable, so fleet-scale drivers don't take down sibling users
    /// on one malformed slot.
    pub fn record_slot(&mut self, locations: &[CellId]) -> Result<()> {
        if locations.len() != self.trajectories.len() {
            return Err(SimError::ObservationArity {
                expected: self.trajectories.len(),
                found: locations.len(),
                slot: self.trajectories.first().map_or(0, Trajectory::len),
                user: None,
            });
        }
        for (t, &cell) in self.trajectories.iter_mut().zip(locations) {
            t.push(cell);
        }
        Ok(())
    }

    /// Number of services tracked.
    pub fn num_services(&self) -> usize {
        self.trajectories.len()
    }

    /// Finalizes the log: shuffles service order (what the eavesdropper
    /// sees carries no ordering hint) and returns the trajectories
    /// together with the real service's post-shuffle index.
    pub fn into_anonymized<R: Rng + ?Sized>(self, rng: &mut R) -> (Vec<Trajectory>, usize) {
        let perm = fisher_yates(self.trajectories.len(), rng);
        let user_index = perm.first().copied().unwrap_or(0);
        (apply_permutation(self.trajectories, &perm), user_index)
    }

    /// Finalizes the log without shuffling (index 0 stays the real
    /// service). Used by deterministic tests.
    pub fn into_ordered(self) -> Vec<Trajectory> {
        self.trajectories
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn records_per_service_trajectories() {
        let mut log = ObservationLog::new(2);
        log.record_slot(&[CellId::new(0), CellId::new(5)]).unwrap();
        log.record_slot(&[CellId::new(1), CellId::new(5)]).unwrap();
        let ts = log.into_ordered();
        assert_eq!(ts[0], Trajectory::from_indices([0, 1]));
        assert_eq!(ts[1], Trajectory::from_indices([5, 5]));
    }

    #[test]
    fn slot_arity_is_a_recoverable_error() {
        let mut log = ObservationLog::new(2);
        let err = log.record_slot(&[CellId::new(0)]).unwrap_err();
        assert!(matches!(
            err,
            SimError::ObservationArity {
                expected: 2,
                found: 1,
                slot: 0,
                user: None
            }
        ));
        // The log stays usable after the rejected slot.
        log.record_slot(&[CellId::new(0), CellId::new(1)]).unwrap();
        // A later mismatch names the later slot.
        let err = log.record_slot(&[CellId::new(0)]).unwrap_err();
        assert!(matches!(err, SimError::ObservationArity { slot: 1, .. }));
        assert_eq!(log.into_ordered()[0].len(), 1);
    }

    #[test]
    fn anonymization_preserves_the_multiset_and_tracks_the_user() {
        let mut log = ObservationLog::new(3);
        log.record_slot(&[CellId::new(0), CellId::new(1), CellId::new(2)])
            .unwrap();
        log.record_slot(&[CellId::new(0), CellId::new(1), CellId::new(2)])
            .unwrap();
        let original: Vec<Trajectory> = log.clone_for_test();
        let mut rng = StdRng::seed_from_u64(3);
        let (shuffled, user_index) = log.into_anonymized(&mut rng);
        assert_eq!(shuffled.len(), 3);
        // The user's trajectory is found at the reported index.
        assert_eq!(shuffled[user_index], original[0]);
        // Same multiset of trajectories.
        let mut a: Vec<String> = original.iter().map(|t| t.to_string()).collect();
        let mut b: Vec<String> = shuffled.iter().map(|t| t.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn shuffle_actually_permutes() {
        // Across seeds, the user must not always stay at index 0.
        let mut seen_nonzero = false;
        for seed in 0..20 {
            let mut log = ObservationLog::new(4);
            log.record_slot(&[
                CellId::new(0),
                CellId::new(1),
                CellId::new(2),
                CellId::new(3),
            ])
            .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, idx) = log.into_anonymized(&mut rng);
            if idx != 0 {
                seen_nonzero = true;
            }
        }
        assert!(seen_nonzero);
    }

    impl ObservationLog {
        fn clone_for_test(&self) -> Vec<Trajectory> {
            self.trajectories.clone()
        }
    }
}
