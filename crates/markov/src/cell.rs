//! Cell identifiers: the discrete locations (one MEC per cell) that all
//! substrate types index into.

use crate::MarkovError;
use std::fmt;

/// Identifier of one MEC coverage cell.
///
/// The paper quantizes the network field into cells, one per MEC, and a
/// `CellId` indexes into that quantization (the set `L` of Sec. II-A).
/// Cell ids are dense indices `0..L` so they double as array indices
/// throughout the workspace.
///
/// # Representation
///
/// Stored as a `u32` (4 bytes), which halves the footprint of every
/// trajectory arena and columnar observation log relative to a `usize`
/// cell — the difference between fitting an `N = 10⁶` fleet in memory
/// and not. Real cell spaces are bounded by the tower/MEC count, so
/// `u32` is never the limit in practice; dataset boundaries that index
/// cells from untrusted counts use the checked
/// [`from_usize`](CellId::from_usize) instead of the panicking
/// [`new`](CellId::new).
///
/// # Example
///
/// ```
/// use chaff_markov::CellId;
///
/// let cell = CellId::new(3);
/// assert_eq!(cell.index(), 3);
/// assert_eq!(format!("{cell}"), "c3");
/// assert_eq!(std::mem::size_of::<CellId>(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(u32);

impl CellId {
    /// The largest representable cell index.
    pub const MAX_INDEX: usize = u32::MAX as usize;

    /// Creates a cell id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`CellId::MAX_INDEX`]; use
    /// [`from_usize`](CellId::from_usize) at dataset boundaries where the
    /// index is not already bounded by a validated state-space size.
    #[inline]
    pub const fn new(index: usize) -> Self {
        assert!(index <= CellId::MAX_INDEX, "cell index exceeds u32 range");
        CellId(index as u32)
    }

    /// Checked conversion from a dense index, for dataset boundaries
    /// (trace ingestion, tower quantization) where the cell count is not
    /// yet bounded by a validated model.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::CellIndexOverflow`] when `index` exceeds
    /// [`CellId::MAX_INDEX`].
    #[inline]
    pub fn from_usize(index: usize) -> crate::Result<Self> {
        u32::try_from(index)
            .map(CellId)
            .map_err(|_| MarkovError::CellIndexOverflow { index })
    }

    /// Returns the dense index of this cell.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The lowest-indexed cell of `row` outside a state space of `states`
    /// cells, or `None` when every cell is inside it.
    ///
    /// Each block of 1,024 cells is checked with an OR of
    /// `u32` compares, which has no data-dependent branch and vectorizes;
    /// only a block holding a bad cell is scanned again to name the
    /// lowest one. On a hot 2M-cell row (2-vCPU Xeon) this read
    /// 0.49–0.59 ms against 1.7–2.9 ms for an early-exit scan, which
    /// branches per cell.
    pub fn first_out_of_range(row: &[CellId], states: usize) -> Option<CellId> {
        // A state space wider than `u32` holds every representable cell.
        let limit = u32::try_from(states).ok()?;
        let outside = |cell: &CellId| cell.0 >= limit;
        row.chunks(RANGE_CHECK_BLOCK)
            .find(|block| block.iter().fold(false, |any, cell| any | outside(cell)))
            .and_then(|block| block.iter().copied().find(outside))
    }
}

/// Cells per block of [`CellId::first_out_of_range`]'s branch-free check.
const RANGE_CHECK_BLOCK: usize = 1024;

impl From<usize> for CellId {
    /// # Panics
    ///
    /// Panics if `index` exceeds [`CellId::MAX_INDEX`] (see
    /// [`CellId::new`]).
    #[inline]
    fn from(index: usize) -> Self {
        CellId::new(index)
    }
}

impl From<CellId> for usize {
    #[inline]
    fn from(cell: CellId) -> Self {
        cell.index()
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_usize() {
        let cell = CellId::new(42);
        assert_eq!(usize::from(cell), 42);
        assert_eq!(CellId::from(42usize), cell);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(CellId::new(1) < CellId::new(2));
        assert_eq!(CellId::new(5), CellId::new(5));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(CellId::new(0).to_string(), "c0");
        assert_eq!(CellId::new(958).to_string(), "c958");
    }

    #[test]
    fn cells_are_four_bytes() {
        // The whole point of the u32 representation: 4 bytes per cell in
        // every trajectory arena and columnar log.
        assert_eq!(std::mem::size_of::<CellId>(), 4);
        assert_eq!(std::mem::size_of::<Option<CellId>>(), 8);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn first_out_of_range_names_the_lowest_bad_cell_across_blocks() {
        let mut row = vec![CellId::new(3); 3 * RANGE_CHECK_BLOCK + 5];
        assert_eq!(CellId::first_out_of_range(&row, 4), None);
        assert_eq!(CellId::first_out_of_range(&[], 0), None);
        row[2 * RANGE_CHECK_BLOCK + 1] = CellId::new(9);
        row[3 * RANGE_CHECK_BLOCK + 4] = CellId::new(7);
        assert_eq!(CellId::first_out_of_range(&row, 4), Some(CellId::new(9)));
        row[RANGE_CHECK_BLOCK - 1] = CellId::new(4);
        assert_eq!(CellId::first_out_of_range(&row, 4), Some(CellId::new(4)));
        assert_eq!(CellId::first_out_of_range(&row, 3), Some(CellId::new(3)));
        assert_eq!(CellId::first_out_of_range(&row, 10), None);
        let top = [CellId::from_usize(CellId::MAX_INDEX).unwrap()];
        assert_eq!(
            CellId::first_out_of_range(&top, CellId::MAX_INDEX),
            Some(top[0])
        );
        assert_eq!(
            CellId::first_out_of_range(&top, CellId::MAX_INDEX + 1),
            None
        );
    }

    #[test]
    fn checked_conversion_accepts_the_full_u32_range() {
        assert_eq!(CellId::from_usize(0).unwrap(), CellId::new(0));
        assert_eq!(
            CellId::from_usize(CellId::MAX_INDEX).unwrap().index(),
            CellId::MAX_INDEX
        );
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn checked_conversion_rejects_oversized_indices() {
        let err = CellId::from_usize(CellId::MAX_INDEX + 1).unwrap_err();
        assert!(matches!(
            err,
            MarkovError::CellIndexOverflow { index } if index == CellId::MAX_INDEX + 1
        ));
        assert!(err.to_string().contains("cell index"));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "cell index exceeds u32 range")]
    fn unchecked_constructor_panics_on_overflow() {
        let _ = CellId::new(CellId::MAX_INDEX + 1);
    }
}
