//! Trajectories: cell sequences over consecutive slots, with the
//! coincidence (co-location) count used throughout the paper.

use crate::CellId;
use std::fmt;

/// A sequence of cells occupied over consecutive time slots.
///
/// This is a trajectory `x = (x_t)_{t=1}^T` in the paper's notation. Slots
/// are 0-indexed in code (`get(0)` is the paper's `x_1`).
///
/// # Example
///
/// ```
/// use chaff_markov::{CellId, Trajectory};
///
/// let a = Trajectory::from_indices([0, 1, 2]);
/// let b = Trajectory::from_indices([0, 2, 2]);
/// assert_eq!(a.len(), 3);
/// assert_eq!(a.coincidences(&b), 2); // slots 0 and 2
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Trajectory {
    cells: Vec<CellId>,
}

impl Trajectory {
    /// Creates an empty trajectory.
    pub fn new() -> Self {
        Trajectory { cells: Vec::new() }
    }

    /// Creates an empty trajectory with capacity for `n` slots.
    pub fn with_capacity(n: usize) -> Self {
        Trajectory {
            cells: Vec::with_capacity(n),
        }
    }

    /// Builds a trajectory from raw cell indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        Trajectory {
            cells: indices.into_iter().map(CellId::new).collect(),
        }
    }

    /// Number of time slots covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the trajectory covers no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell occupied in slot `t` (0-indexed), if within range.
    #[inline]
    pub fn get(&self, t: usize) -> Option<CellId> {
        self.cells.get(t).copied()
    }

    /// The cell occupied in slot `t` (0-indexed).
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    #[inline]
    pub fn cell(&self, t: usize) -> CellId {
        self.cells[t]
    }

    /// The final cell, if the trajectory is non-empty.
    #[inline]
    pub fn last(&self) -> Option<CellId> {
        self.cells.last().copied()
    }

    /// Appends a slot.
    #[inline]
    pub fn push(&mut self, cell: CellId) {
        self.cells.push(cell);
    }

    /// Iterates cells in slot order.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, CellId>> {
        self.cells.iter().copied()
    }

    /// The underlying cell slice.
    #[inline]
    pub fn as_slice(&self) -> &[CellId] {
        &self.cells
    }

    /// A view of the first `t` slots (clamped to the length).
    pub fn prefix(&self, t: usize) -> &[CellId] {
        &self.cells[..t.min(self.cells.len())]
    }

    /// Number of slots where this trajectory co-locates with `other`
    /// (the objective of the paper's OO strategy, eq. 4).
    ///
    /// Compares up to the shorter of the two lengths.
    pub fn coincidences(&self, other: &Trajectory) -> usize {
        self.cells
            .iter()
            .zip(&other.cells)
            .filter(|(a, b)| a == b)
            .count()
    }

    /// Fraction of slots occupied in each cell: the empirical occupancy
    /// distribution (used as the empirical steady state for traces).
    ///
    /// Returns a weight vector of length `num_cells`; all zeros if the
    /// trajectory is empty.
    pub fn occupancy(&self, num_cells: usize) -> Vec<f64> {
        let mut counts = vec![0.0; num_cells];
        for &c in &self.cells {
            counts[c.index()] += 1.0;
        }
        if !self.cells.is_empty() {
            let n = self.cells.len() as f64;
            for w in &mut counts {
                *w /= n;
            }
        }
        counts
    }
}

impl From<Vec<CellId>> for Trajectory {
    fn from(cells: Vec<CellId>) -> Self {
        Trajectory { cells }
    }
}

impl FromIterator<CellId> for Trajectory {
    fn from_iter<I: IntoIterator<Item = CellId>>(iter: I) -> Self {
        Trajectory {
            cells: iter.into_iter().collect(),
        }
    }
}

impl Extend<CellId> for Trajectory {
    fn extend<I: IntoIterator<Item = CellId>>(&mut self, iter: I) {
        self.cells.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trajectory {
    type Item = CellId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, CellId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for Trajectory {
    type Item = CellId;
    type IntoIter = std::vec::IntoIter<CellId>;

    fn into_iter(self) -> Self::IntoIter {
        self.cells.into_iter()
    }
}

impl fmt::Display for Trajectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", c.index())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coincidences_counts_matching_slots() {
        let a = Trajectory::from_indices([0, 1, 2, 3]);
        let b = Trajectory::from_indices([0, 9, 2, 9]);
        assert_eq!(a.coincidences(&b), 2);
    }

    #[test]
    fn coincidences_use_shorter_length() {
        let a = Trajectory::from_indices([0, 1, 2]);
        let b = Trajectory::from_indices([0, 1]);
        assert_eq!(a.coincidences(&b), 2);
    }

    #[test]
    fn prefix_clamps() {
        let a = Trajectory::from_indices([4, 5, 6]);
        assert_eq!(a.prefix(2).len(), 2);
        assert_eq!(a.prefix(10).len(), 3);
    }

    #[test]
    fn occupancy_normalizes() {
        let a = Trajectory::from_indices([0, 0, 1, 2]);
        let occ = a.occupancy(4);
        assert!((occ[0] - 0.5).abs() < 1e-12);
        assert!((occ[3] - 0.0).abs() < 1e-12);
        assert!((occ.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collect_and_display() {
        let t: Trajectory = (0..3).map(CellId::new).collect();
        assert_eq!(t.to_string(), "[0 1 2]");
        assert_eq!(t.last(), Some(CellId::new(2)));
    }

    #[test]
    fn empty_trajectory_behaviour() {
        let t = Trajectory::new();
        assert!(t.is_empty());
        assert_eq!(t.get(0), None);
        assert_eq!(t.occupancy(3), vec![0.0; 3]);
    }
}
