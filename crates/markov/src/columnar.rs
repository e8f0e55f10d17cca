//! Compact columnar trajectory storage for fleet-scale populations.
//!
//! A fleet of `N = 10⁵–10⁶` users cannot afford one heap allocation per
//! trajectory: a `Vec<Trajectory>` costs 24 bytes of `Vec` header plus
//! an allocation per service on top of the cells themselves. The two
//! arena types here store *all* cells of a uniform-horizon population in
//! one contiguous `Vec<CellId>` (4 bytes per cell) plus `O(1)` shape
//! metadata:
//!
//! * [`CellGrid`] — **slot-major** (`cells[t * N + i]`): one row per
//!   time slot. This is the eavesdropper's natural view (everything
//!   observed during slot `t` is contiguous) and exactly the access
//!   order of the streaming prefix detectors in `chaff-core`, which
//!   advance every trajectory's running score one row at a time.
//! * [`TrajectoryArena`] — **trajectory-major** (`cells[i * T + t]`):
//!   one row per trajectory. This is the generator's natural view (a
//!   simulation worker emits one user's cells slot by slot) and the
//!   layout for per-user ground truth.
//!
//! Memory math: at `N = 10⁵` users with budget `B = 2` and `T = 24`
//! slots, the observed population is `3·10⁵` services × 24 cells ×
//! 4 bytes ≈ 29 MB in one allocation; the same population as
//! `Vec<Trajectory>` with 8-byte cells costs ≈ 65 MB spread over
//! 300,001 allocations. At `N = 10⁶` the columnar grid is ≈ 288 MB —
//! still a single allocation.
//!
//! # Byte stability
//!
//! Both arenas expose their backing cells via `as_cells`, and the layout
//! is a **stable contract** relied on by `chaff-store`'s on-disk format:
//! a [`CellGrid`] is exactly its slot-major rows in slot order
//! (`cells[t * N + i]`), a [`TrajectoryArena`] exactly its
//! trajectory-major rows in trajectory order (`cells[i * T + t]`), with
//! no padding, headers or interleaved metadata. Each cell is one
//! [`CellId`] (a `u32` index). Reordering either layout is a format
//! break and must bump the store's on-disk version.

use crate::{CellId, MarkovError, Trajectory};
use std::ops::Range;

/// Slot-major columnar trajectory store: `cells[t * N + i]` is the cell
/// of trajectory `i` at slot `t`.
///
/// All trajectories share one horizon (uniform-length populations are
/// the fleet invariant; ragged inputs are rejected at construction).
///
/// # Example
///
/// ```
/// use chaff_markov::{CellGrid, Trajectory};
///
/// # fn main() -> Result<(), chaff_markov::MarkovError> {
/// let grid = CellGrid::from_trajectories(&[
///     Trajectory::from_indices([0, 1, 2]),
///     Trajectory::from_indices([5, 5, 5]),
/// ])?;
/// assert_eq!(grid.num_trajectories(), 2);
/// assert_eq!(grid.horizon(), 3);
/// assert_eq!(grid.cell(1, 0).index(), 1);
/// assert_eq!(grid.row(2), &[2usize.into(), 5usize.into()]);
/// assert_eq!(grid.trajectory(1), Trajectory::from_indices([5, 5, 5]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellGrid {
    /// Slot-major cells: row `t` occupies `cells[t * n..(t + 1) * n]`.
    cells: Vec<CellId>,
    /// Number of trajectories `N` (columns).
    num_trajectories: usize,
    /// Number of slots `T` (rows).
    horizon: usize,
}

impl CellGrid {
    /// An empty grid over `num_trajectories` columns and no slots yet;
    /// grow it row by row with [`push_row`](CellGrid::push_row).
    pub fn new(num_trajectories: usize) -> Self {
        CellGrid {
            cells: Vec::new(),
            num_trajectories,
            horizon: 0,
        }
    }

    /// A zero-filled `num_trajectories × horizon` grid, for writers that
    /// scatter cells with [`set`](CellGrid::set) (e.g. per-shard fleet
    /// generation workers).
    ///
    /// # Panics
    ///
    /// Panics if `num_trajectories × horizon` overflows `usize` (callers
    /// sizing grids from untrusted inputs should pre-check, as
    /// `chaff-sim`'s fleet layout does; a wrapped product would
    /// otherwise allocate a too-small arena in release builds).
    pub fn with_horizon(num_trajectories: usize, horizon: usize) -> Self {
        let len = num_trajectories
            .checked_mul(horizon)
            .expect("cell count overflows usize");
        CellGrid {
            cells: vec![CellId::new(0); len],
            num_trajectories,
            horizon,
        }
    }

    /// Builds a grid from per-trajectory cell sequences.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] when the trajectories
    /// do not share one length.
    pub fn from_trajectories(trajectories: &[Trajectory]) -> crate::Result<Self> {
        let horizon = trajectories.first().map_or(0, Trajectory::len);
        let n = trajectories.len();
        let mut cells = vec![CellId::new(0); n * horizon];
        for (i, x) in trajectories.iter().enumerate() {
            if x.len() != horizon {
                return Err(MarkovError::DimensionMismatch {
                    expected: horizon,
                    found: x.len(),
                });
            }
            for (t, cell) in x.iter().enumerate() {
                cells[t * n + i] = cell;
            }
        }
        Ok(CellGrid {
            cells,
            num_trajectories: n,
            horizon,
        })
    }

    /// Number of trajectories `N` (columns).
    #[inline]
    pub fn num_trajectories(&self) -> usize {
        self.num_trajectories
    }

    /// Number of slots `T` (rows).
    #[inline]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Whether the grid holds no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell of trajectory `i` at slot `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= horizon()` or `i >= num_trajectories()`.
    #[inline]
    pub fn cell(&self, t: usize, i: usize) -> CellId {
        assert!(i < self.num_trajectories, "trajectory index out of range");
        self.cells[t * self.num_trajectories + i]
    }

    /// Writes the cell of trajectory `i` at slot `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= horizon()` or `i >= num_trajectories()`.
    #[inline]
    pub fn set(&mut self, t: usize, i: usize, cell: CellId) {
        assert!(i < self.num_trajectories, "trajectory index out of range");
        self.cells[t * self.num_trajectories + i] = cell;
    }

    /// All `N` cells observed during slot `t`, in trajectory order.
    ///
    /// # Panics
    ///
    /// Panics if `t >= horizon()`.
    #[inline]
    pub fn row(&self, t: usize) -> &[CellId] {
        &self.cells[t * self.num_trajectories..(t + 1) * self.num_trajectories]
    }

    /// Mutable access to the `N` cells of slot `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= horizon()`.
    #[inline]
    pub fn row_mut(&mut self, t: usize) -> &mut [CellId] {
        &mut self.cells[t * self.num_trajectories..(t + 1) * self.num_trajectories]
    }

    /// Splits the grid into disjoint bands of (up to) `rows` whole slot
    /// rows each, in slot order, for concurrent writers (one band per
    /// worker). Slot-major storage makes every band one contiguous
    /// slice: band `b` holds slots `b * rows..`, row by row.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` while the grid is non-empty.
    pub fn row_bands_mut(&mut self, rows: usize) -> std::slice::ChunksMut<'_, CellId> {
        let len = if self.cells.is_empty() {
            1
        } else {
            rows * self.num_trajectories
        };
        self.cells.chunks_mut(len)
    }

    /// Appends one slot's cells (one per trajectory) — the streaming
    /// fill used by capacity-constrained replay.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] when `row` does not
    /// hold exactly one cell per trajectory.
    pub fn push_row(&mut self, row: &[CellId]) -> crate::Result<()> {
        if row.len() != self.num_trajectories {
            return Err(MarkovError::DimensionMismatch {
                expected: self.num_trajectories,
                found: row.len(),
            });
        }
        self.cells.extend_from_slice(row);
        self.horizon += 1;
        Ok(())
    }

    /// Copies trajectory `i` out of the grid (a strided gather; prefer
    /// [`row`](CellGrid::row) on hot paths).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_trajectories()`.
    pub fn trajectory(&self, i: usize) -> Trajectory {
        assert!(i < self.num_trajectories, "trajectory index out of range");
        (0..self.horizon).map(|t| self.cell(t, i)).collect()
    }

    /// Expands the grid into one [`Trajectory`] per column — the bridge
    /// back to the legacy per-trajectory representation (tests, small
    /// populations, the paper-scale detectors).
    pub fn to_trajectories(&self) -> Vec<Trajectory> {
        let mut out = vec![Trajectory::with_capacity(self.horizon); self.num_trajectories];
        for t in 0..self.horizon {
            for (x, &cell) in out.iter_mut().zip(self.row(t)) {
                x.push(cell);
            }
        }
        out
    }

    /// Bytes spent on cell storage (`N × T × 4`); shape metadata is
    /// `O(1)` on top.
    pub fn cell_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<CellId>()
    }

    /// The backing cells, slot-major: `as_cells()[t * N + i]` is the
    /// cell of trajectory `i` at slot `t`. This layout is a stable
    /// serialization contract (see the module-level *Byte stability*
    /// section) — persisted grids round-trip bit for bit through it.
    #[inline]
    pub fn as_cells(&self) -> &[CellId] {
        &self.cells
    }
}

/// Trajectory-major contiguous arena: `cells[i * T + t]` is the cell of
/// trajectory `i` at slot `t`.
///
/// The generator-side dual of [`CellGrid`]: one simulation worker owns a
/// contiguous range of rows and fills each row slot by slot — no
/// per-trajectory allocation, no false sharing across workers.
///
/// # Example
///
/// ```
/// use chaff_markov::{CellId, Trajectory, TrajectoryArena};
///
/// let mut arena = TrajectoryArena::new(2, 3);
/// arena.row_mut(1).copy_from_slice(&[CellId::new(4), CellId::new(5), CellId::new(6)]);
/// assert_eq!(arena.trajectory(1), Trajectory::from_indices([4, 5, 6]));
/// assert_eq!(arena.row(0), &[CellId::new(0); 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectoryArena {
    /// Trajectory-major cells: row `i` occupies `cells[i * T..(i + 1) * T]`.
    cells: Vec<CellId>,
    /// Number of trajectories (rows) — stored explicitly so a
    /// zero-horizon arena still reports the row count it was built with.
    num_trajectories: usize,
    /// Number of slots `T` per trajectory.
    horizon: usize,
}

impl TrajectoryArena {
    /// Slots per tile of the slot-row transposes
    /// ([`copy_slots_into`](TrajectoryArena::copy_slots_into),
    /// [`copy_slots_from`](TrajectoryArena::copy_slots_from)): 16 cells
    /// are one 64-byte cache line of a trajectory row.
    pub const TRANSPOSE_TILE: usize = 16;

    /// A zero-filled arena of `num_trajectories` rows × `horizon` slots.
    ///
    /// # Panics
    ///
    /// Panics if `num_trajectories × horizon` overflows `usize` (see
    /// [`CellGrid::with_horizon`]).
    pub fn new(num_trajectories: usize, horizon: usize) -> Self {
        let len = num_trajectories
            .checked_mul(horizon)
            .expect("cell count overflows usize");
        TrajectoryArena {
            cells: vec![CellId::new(0); len],
            num_trajectories,
            horizon,
        }
    }

    /// Number of trajectories (rows).
    #[inline]
    pub fn num_trajectories(&self) -> usize {
        self.num_trajectories
    }

    /// Number of slots `T` per trajectory.
    #[inline]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Trajectory `i`'s cells, contiguous.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_trajectories()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[CellId] {
        assert!(i < self.num_trajectories, "trajectory index out of range");
        &self.cells[i * self.horizon..(i + 1) * self.horizon]
    }

    /// Mutable access to trajectory `i`'s cells.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_trajectories()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [CellId] {
        assert!(i < self.num_trajectories, "trajectory index out of range");
        &mut self.cells[i * self.horizon..(i + 1) * self.horizon]
    }

    /// Copies trajectory `i` out of the arena.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_trajectories()`.
    pub fn trajectory(&self, i: usize) -> Trajectory {
        self.row(i).iter().copied().collect()
    }

    /// Splits the arena into disjoint chunks of (up to) `rows` whole
    /// trajectories each, for concurrent fills (one chunk per worker).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` while the arena is non-empty.
    pub fn chunks_of_rows_mut(&mut self, rows: usize) -> Vec<ArenaRowsMut<'_>> {
        let horizon = self.horizon;
        if self.cells.is_empty() {
            return Vec::new();
        }
        self.cells
            .chunks_mut(rows * horizon.max(1))
            .map(|cells| ArenaRowsMut { cells, horizon })
            .collect()
    }

    /// Transposes slots `slots` of every trajectory into slot-major
    /// rows: `out[k * N + i]` becomes trajectory `i`'s cell at slot
    /// `slots.start + k`. The inverse of
    /// [`copy_slots_from`](TrajectoryArena::copy_slots_from).
    ///
    /// Works in tiles of 16 slots, one cache line of each trajectory
    /// row, so reads stream through the arena while writes advance
    /// along at most 16 output rows — instead of one strided read per
    /// cell.
    ///
    /// # Panics
    ///
    /// Panics if `slots` runs past the horizon or `out.len()` is not
    /// `slots.len() × N`.
    pub fn copy_slots_into(&self, slots: Range<usize>, out: &mut [CellId]) {
        self.check_slot_rows(&slots, out.len());
        let (n, horizon) = (self.num_trajectories, self.horizon);
        for t0 in slots.clone().step_by(Self::TRANSPOSE_TILE) {
            let t1 = (t0 + Self::TRANSPOSE_TILE).min(slots.end);
            let tile = &mut out[(t0 - slots.start) * n..(t1 - slots.start) * n];
            for (i, src) in self.cells.chunks_exact(horizon).enumerate() {
                for (k, &cell) in src[t0..t1].iter().enumerate() {
                    tile[k * n + i] = cell;
                }
            }
        }
    }

    /// Writes slot-major rows into slots `slots` of every trajectory:
    /// `rows[k * N + i]` becomes trajectory `i`'s cell at slot
    /// `slots.start + k`. The inverse of
    /// [`copy_slots_into`](TrajectoryArena::copy_slots_into), tiled the
    /// same way.
    ///
    /// # Panics
    ///
    /// Panics if `slots` runs past the horizon or `rows.len()` is not
    /// `slots.len() × N`.
    pub fn copy_slots_from(&mut self, slots: Range<usize>, rows: &[CellId]) {
        self.check_slot_rows(&slots, rows.len());
        let (n, horizon) = (self.num_trajectories, self.horizon);
        for t0 in slots.clone().step_by(Self::TRANSPOSE_TILE) {
            let t1 = (t0 + Self::TRANSPOSE_TILE).min(slots.end);
            let tile = &rows[(t0 - slots.start) * n..(t1 - slots.start) * n];
            for (i, dst) in self.cells.chunks_exact_mut(horizon).enumerate() {
                for (k, cell) in dst[t0..t1].iter_mut().enumerate() {
                    *cell = tile[k * n + i];
                }
            }
        }
    }

    /// Shape check shared by the two slot-row transposes.
    fn check_slot_rows(&self, slots: &Range<usize>, cells: usize) {
        assert!(
            slots.start <= slots.end && slots.end <= self.horizon,
            "slot range {slots:?} out of bounds for horizon {}",
            self.horizon
        );
        assert_eq!(
            cells,
            slots.len() * self.num_trajectories,
            "slot rows must hold one cell per trajectory per slot"
        );
    }

    /// Bytes spent on cell storage (`N × T × 4`).
    pub fn cell_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<CellId>()
    }

    /// The backing cells, trajectory-major: `as_cells()[i * T + t]` is
    /// the cell of trajectory `i` at slot `t` — the stable
    /// serialization contract dual to [`CellGrid::as_cells`].
    #[inline]
    pub fn as_cells(&self) -> &[CellId] {
        &self.cells
    }
}

/// A worker's exclusive window onto a contiguous run of
/// [`TrajectoryArena`] rows (see
/// [`chunks_of_rows_mut`](TrajectoryArena::chunks_of_rows_mut)).
#[derive(Debug)]
pub struct ArenaRowsMut<'a> {
    cells: &'a mut [CellId],
    horizon: usize,
}

impl ArenaRowsMut<'_> {
    /// Number of whole trajectories in this window.
    pub fn num_rows(&self) -> usize {
        self.cells.len().checked_div(self.horizon).unwrap_or(0)
    }

    /// Mutable access to the window-local trajectory `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [CellId] {
        &mut self.cells[i * self.horizon..(i + 1) * self.horizon]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_trajectories_round_trips() {
        let xs = vec![
            Trajectory::from_indices([0, 1, 2, 3]),
            Trajectory::from_indices([9, 8, 7, 6]),
            Trajectory::from_indices([4, 4, 4, 4]),
        ];
        let grid = CellGrid::from_trajectories(&xs).unwrap();
        assert_eq!(grid.num_trajectories(), 3);
        assert_eq!(grid.horizon(), 4);
        assert_eq!(grid.to_trajectories(), xs);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(&grid.trajectory(i), x);
        }
    }

    #[test]
    fn rows_are_slot_major() {
        let grid = CellGrid::from_trajectories(&[
            Trajectory::from_indices([0, 1]),
            Trajectory::from_indices([2, 3]),
        ])
        .unwrap();
        assert_eq!(grid.row(0), &[CellId::new(0), CellId::new(2)]);
        assert_eq!(grid.row(1), &[CellId::new(1), CellId::new(3)]);
    }

    #[test]
    fn ragged_trajectories_are_rejected() {
        let err = CellGrid::from_trajectories(&[
            Trajectory::from_indices([0, 1]),
            Trajectory::from_indices([0]),
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            MarkovError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn push_row_streams_slots() {
        let mut grid = CellGrid::new(2);
        grid.push_row(&[CellId::new(1), CellId::new(2)]).unwrap();
        grid.push_row(&[CellId::new(3), CellId::new(4)]).unwrap();
        assert_eq!(grid.horizon(), 2);
        assert_eq!(grid.trajectory(0), Trajectory::from_indices([1, 3]));
        // Wrong arity is a typed, recoverable error.
        let err = grid.push_row(&[CellId::new(0)]).unwrap_err();
        assert!(matches!(err, MarkovError::DimensionMismatch { .. }));
        assert_eq!(grid.horizon(), 2);
    }

    #[test]
    fn set_and_cell_are_inverses() {
        let mut grid = CellGrid::with_horizon(3, 2);
        grid.set(1, 2, CellId::new(7));
        assert_eq!(grid.cell(1, 2), CellId::new(7));
        assert_eq!(grid.cell(0, 2), CellId::new(0));
    }

    #[test]
    fn cell_bytes_are_four_per_cell_plus_constant_shape() {
        let grid = CellGrid::with_horizon(100, 7);
        assert_eq!(grid.cell_bytes(), 100 * 7 * 4);
        let arena = TrajectoryArena::new(100, 7);
        assert_eq!(arena.cell_bytes(), 100 * 7 * 4);
    }

    #[test]
    fn arena_rows_are_contiguous_and_chunkable() {
        let mut arena = TrajectoryArena::new(5, 3);
        {
            let mut chunks = arena.chunks_of_rows_mut(2);
            assert_eq!(chunks.len(), 3); // 2 + 2 + 1 rows
            assert_eq!(chunks[0].num_rows(), 2);
            assert_eq!(chunks[2].num_rows(), 1);
            for (w, chunk) in chunks.iter_mut().enumerate() {
                for j in 0..chunk.num_rows() {
                    let row = chunk.row_mut(j);
                    for (t, cell) in row.iter_mut().enumerate() {
                        *cell = CellId::new(w * 10 + j * 3 + t);
                    }
                }
            }
        }
        assert_eq!(arena.trajectory(0), Trajectory::from_indices([0, 1, 2]));
        assert_eq!(arena.trajectory(3), Trajectory::from_indices([13, 14, 15]));
        assert_eq!(arena.trajectory(4), Trajectory::from_indices([20, 21, 22]));
        assert_eq!(arena.num_trajectories(), 5);
    }

    #[test]
    fn as_cells_exposes_the_documented_layouts() {
        let grid = CellGrid::from_trajectories(&[
            Trajectory::from_indices([0, 1]),
            Trajectory::from_indices([2, 3]),
        ])
        .unwrap();
        // Slot-major: slot 0's cells first, then slot 1's.
        assert_eq!(
            grid.as_cells(),
            &[
                CellId::new(0),
                CellId::new(2),
                CellId::new(1),
                CellId::new(3)
            ]
        );
        let mut arena = TrajectoryArena::new(2, 2);
        arena
            .row_mut(1)
            .copy_from_slice(&[CellId::new(4), CellId::new(5)]);
        // Trajectory-major: trajectory 0's cells first, then 1's.
        assert_eq!(
            arena.as_cells(),
            &[
                CellId::new(0),
                CellId::new(0),
                CellId::new(4),
                CellId::new(5)
            ]
        );
    }

    #[test]
    fn slot_row_transposes_are_inverse_at_tile_edges() {
        for horizon in [0usize, 1, 15, 16, 17, 33] {
            let n = 5;
            let mut arena = TrajectoryArena::new(n, horizon);
            for i in 0..n {
                for (t, cell) in arena.row_mut(i).iter_mut().enumerate() {
                    *cell = CellId::new(i * 100 + t);
                }
            }
            for slots in [0..horizon, horizon / 3..horizon, 0..horizon / 2] {
                let mut rows = vec![CellId::new(0); slots.len() * n];
                arena.copy_slots_into(slots.clone(), &mut rows);
                for (k, row) in rows.chunks_exact(n).enumerate() {
                    for (i, &cell) in row.iter().enumerate() {
                        assert_eq!(cell, arena.row(i)[slots.start + k], "T={horizon}");
                    }
                }
                let mut back = TrajectoryArena::new(n, horizon);
                back.copy_slots_from(slots.clone(), &rows);
                for i in 0..n {
                    assert_eq!(back.row(i)[slots.clone()], arena.row(i)[slots.clone()]);
                }
            }
        }
        // Zero trajectories: any in-horizon range moves no cells.
        let mut empty = TrajectoryArena::new(0, 20);
        empty.copy_slots_into(3..19, &mut []);
        empty.copy_slots_from(0..20, &[]);
    }

    #[test]
    #[should_panic(expected = "one cell per trajectory")]
    fn slot_row_transpose_rejects_a_short_buffer() {
        TrajectoryArena::new(3, 4).copy_slots_into(0..2, &mut [CellId::new(0); 5]);
    }

    #[test]
    fn empty_shapes_behave() {
        let grid = CellGrid::new(0);
        assert!(grid.is_empty());
        assert_eq!(grid.to_trajectories(), Vec::<Trajectory>::new());
        let mut arena = TrajectoryArena::new(0, 5);
        assert_eq!(arena.num_trajectories(), 0);
        assert!(arena.chunks_of_rows_mut(4).is_empty());
    }
}
