//! Epoch schedules: the slot → epoch map behind time-varying mobility.
//!
//! Real fleets are non-stationary — commuters move differently at 8 am
//! than at 3 am — but a plain [`MarkovChain`](crate::MarkovChain) fixes
//! one transition matrix for the whole horizon. An [`EpochSchedule`]
//! introduces the time dimension in the cheapest possible form: a
//! repeating pattern of *epoch* labels over slots, so slot `s` is
//! governed by epoch `pattern[s % period]`. Every layer that consumes a
//! mobility model (sampling, detection kernels, empirical estimation)
//! looks the active epoch up through [`epoch_of`](EpochSchedule::epoch_of)
//! and swaps in that epoch's chain or log-likelihood table.
//!
//! The convention, shared by the whole stack: **the epoch of slot `s`
//! governs the arrival at slot `s`** — the step `x_{s-1} → x_s` is drawn
//! from (and scored under) `epoch_of(s)`'s chain, and slot 0 draws from
//! `epoch_of(0)`'s initial distribution. Empirical estimation counts the
//! same way, so estimated per-epoch chains are consistent with the
//! generative convention.
//!
//! A one-epoch schedule ([`stationary`](EpochSchedule::stationary)) makes
//! every lookup return epoch 0, reducing the whole machinery bit-for-bit
//! to the stationary path.

use crate::{MarkovError, Result};

/// A repeating slot → epoch map (e.g. day/night, or one epoch per hour).
///
/// # Example
///
/// ```
/// use chaff_markov::EpochSchedule;
///
/// # fn main() -> Result<(), chaff_markov::MarkovError> {
/// // 12 day slots followed by 12 night slots, repeating.
/// let schedule = EpochSchedule::day_night(12, 12)?;
/// assert_eq!(schedule.num_epochs(), 2);
/// assert_eq!(schedule.period(), 24);
/// assert_eq!(schedule.epoch_of(0), 0);
/// assert_eq!(schedule.epoch_of(13), 1);
/// assert_eq!(schedule.epoch_of(24), 0); // wraps
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSchedule {
    /// One epoch label per slot of the repeating period.
    pattern: Vec<usize>,
    /// `max(pattern) + 1` — the number of per-epoch models a consumer
    /// must supply.
    num_epochs: usize,
}

impl EpochSchedule {
    /// The one-epoch schedule: every slot maps to epoch 0. The entire
    /// epoch machinery reduces bit-for-bit to the stationary path under
    /// this schedule.
    pub fn stationary() -> Self {
        EpochSchedule {
            pattern: vec![0],
            num_epochs: 1,
        }
    }

    /// Builds a schedule from an explicit repeating pattern of epoch
    /// labels: slot `s` belongs to `pattern[s % pattern.len()]`, and
    /// [`num_epochs`](Self::num_epochs) is `max(pattern) + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] for an empty pattern.
    pub fn from_pattern(pattern: Vec<usize>) -> Result<Self> {
        let max = *pattern.iter().max().ok_or(MarkovError::Empty)?;
        Ok(EpochSchedule {
            pattern,
            num_epochs: max + 1,
        })
    }

    /// The commuter schedule: `day_slots` slots of epoch 0 (day) followed
    /// by `night_slots` slots of epoch 1 (night), repeating. A zero
    /// `night_slots` (or `day_slots`) degenerates to a one-epoch
    /// schedule.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] when both lengths are zero.
    pub fn day_night(day_slots: usize, night_slots: usize) -> Result<Self> {
        let mut pattern = vec![0usize; day_slots];
        pattern.extend(std::iter::repeat_n(1usize, night_slots));
        // Relabel the degenerate all-night case so epoch indices stay
        // contiguous from 0.
        if day_slots == 0 {
            pattern.iter_mut().for_each(|e| *e = 0);
        }
        Self::from_pattern(pattern)
    }

    /// The epoch governing the arrival at slot `slot` (see the module
    /// docs for the convention).
    #[inline]
    pub fn epoch_of(&self, slot: usize) -> usize {
        self.pattern[slot % self.pattern.len()]
    }

    /// Number of distinct epochs (`max(pattern) + 1`): the number of
    /// per-epoch chains or tables a consumer must supply.
    pub fn num_epochs(&self) -> usize {
        self.num_epochs
    }

    /// Length of the repeating pattern in slots.
    pub fn period(&self) -> usize {
        self.pattern.len()
    }

    /// The repeating pattern itself, one epoch label per slot.
    pub fn pattern(&self) -> &[usize] {
        &self.pattern
    }

    /// Whether this schedule has a single epoch (and therefore reduces to
    /// the stationary path).
    pub fn is_stationary(&self) -> bool {
        self.num_epochs == 1
    }

    /// How many slots of `horizon` fall into each epoch — the weights a
    /// stationarity-assuming observer would blend per-epoch matrices by.
    pub fn slot_counts(&self, horizon: usize) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_epochs];
        for slot in 0..horizon {
            counts[self.epoch_of(slot)] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_maps_every_slot_to_epoch_zero() {
        let s = EpochSchedule::stationary();
        assert!(s.is_stationary());
        assert_eq!(s.num_epochs(), 1);
        assert_eq!(s.period(), 1);
        for slot in [0, 1, 7, 1_000_000] {
            assert_eq!(s.epoch_of(slot), 0);
        }
    }

    #[test]
    fn day_night_alternates_with_the_requested_lengths() {
        let s = EpochSchedule::day_night(3, 2).unwrap();
        assert_eq!(s.num_epochs(), 2);
        assert_eq!(s.period(), 5);
        let epochs: Vec<usize> = (0..10).map(|t| s.epoch_of(t)).collect();
        assert_eq!(epochs, vec![0, 0, 0, 1, 1, 0, 0, 0, 1, 1]);
        assert_eq!(s.slot_counts(10), vec![6, 4]);
    }

    #[test]
    fn degenerate_day_night_is_stationary() {
        for s in [
            EpochSchedule::day_night(4, 0).unwrap(),
            EpochSchedule::day_night(0, 4).unwrap(),
        ] {
            assert!(s.is_stationary(), "{s:?}");
            assert_eq!(s.epoch_of(2), 0);
        }
        assert!(matches!(
            EpochSchedule::day_night(0, 0),
            Err(MarkovError::Empty)
        ));
    }

    #[test]
    fn from_pattern_sizes_epochs_from_the_max_label() {
        let s = EpochSchedule::from_pattern(vec![0, 2, 1, 2]).unwrap();
        assert_eq!(s.num_epochs(), 3);
        assert_eq!(s.pattern(), &[0, 2, 1, 2]);
        assert_eq!(s.epoch_of(5), 2);
        assert!(matches!(
            EpochSchedule::from_pattern(Vec::new()),
            Err(MarkovError::Empty)
        ));
    }

    #[test]
    fn slot_counts_cover_partial_periods() {
        let s = EpochSchedule::from_pattern(vec![0, 1, 1]).unwrap();
        assert_eq!(s.slot_counts(4), vec![2, 2]);
        assert_eq!(s.slot_counts(0), vec![0, 0]);
    }
}
