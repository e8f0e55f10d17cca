//! The cyber eavesdropper's observation log.
//!
//! The eavesdropper sees where every service instance runs and how it
//! migrates — it can *link* a service across slots (instances have stable
//! platform identities) but cannot tell from content which instance is
//! real (chaffs are independent instances of the same service type,
//! Sec. II-B). The log therefore exposes per-service trajectories under
//! shuffled indices, plus the ground-truth index for evaluation code only.
//!
//! Two implementations share those semantics:
//!
//! * [`ObservationLog`] — the single-simulation log (one user plus
//!   chaffs), per-trajectory storage at paper scale;
//! * [`ShardedObservationLog`] — the fleet-scale log: **columnar**
//!   per-shard arenas. Each shard holds one contiguous slot-major
//!   [`CellGrid`] (4 bytes per cell, zero per-trajectory allocations)
//!   over its contiguous service range, with an offset table mapping
//!   shards to global service indices — `O(shards + users)` metadata on
//!   top of the cells. Worker threads fill disjoint arenas concurrently;
//!   anonymization runs a *single* Fisher–Yates over one global
//!   permutation, so the shard layout leaves no trace in what the
//!   eavesdropper sees.

use crate::{Result, SimError};
use chaff_markov::{CellGrid, CellId, Trajectory};
use rand::Rng;

/// Samples a Fisher–Yates permutation of `0..n`: `perm[original]` is the
/// post-shuffle position of `original`. Shared with [`crate::streaming`],
/// which draws the same permutation up front and scatters each slot row
/// through it as the row is generated.
pub(crate) fn fisher_yates<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// The user owning global service index `service` under the per-user
/// prefix layout `starts` (`n + 1` entries, last = total services).
/// Indices at or past the total clamp to the last user.
fn owner_of(starts: &[usize], service: usize) -> usize {
    match starts.binary_search(&service) {
        Ok(u) => u.min(starts.len().saturating_sub(2)),
        Err(pos) => pos.saturating_sub(1),
    }
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

/// Fleet-scale observation log: compact columnar per-shard arenas.
///
/// Shards partition the global service index space into contiguous
/// ranges; shard `s` stores its services' cells in one slot-major
/// [`CellGrid`] (`arena.row(t)[j]` is the cell of global service
/// `starts[s] + j` at slot `t`). A fleet driver hands each worker thread
/// exclusive mutable access to its own arena (via
/// [`arenas_mut`](ShardedObservationLog::arenas_mut)) and fills all of
/// them concurrently with zero synchronization and zero per-trajectory
/// allocations. Anonymization runs a *single* Fisher–Yates over one
/// global permutation — the shard layout leaves no trace in what the
/// eavesdropper sees.
///
/// Memory: `4 bytes × services × horizon` of cells
/// ([`cell_bytes`](ShardedObservationLog::cell_bytes)) plus
/// `O(shards + users)` offsets
/// ([`offset_bytes`](ShardedObservationLog::offset_bytes)).
#[derive(Debug, Clone)]
pub struct ShardedObservationLog {
    /// Arena `s` holds services `starts[s]..starts[s + 1]`, slot-major.
    arenas: Vec<CellGrid>,
    starts: Vec<usize>,
    /// Total services across all arenas (`starts` last entry, cached so
    /// no slice access needs an unwrap).
    num_services: usize,
    /// Optional fleet layout: `user_starts[u]..user_starts[u + 1]` are
    /// the services of user `u`. Only used to attribute errors to users.
    user_starts: Option<Vec<usize>>,
}

impl ShardedObservationLog {
    /// Creates a streaming log for `num_services` services split into
    /// (at most) `num_shards` balanced contiguous arenas, with no slots
    /// recorded yet (grow it with
    /// [`record_slot`](ShardedObservationLog::record_slot)).
    pub fn new(num_services: usize, num_shards: usize) -> Self {
        let shards = num_shards.clamp(1, num_services.max(1));
        let chunk = num_services.div_ceil(shards).max(1);
        let mut arenas = Vec::new();
        let mut starts = vec![0];
        let mut lo = 0;
        while lo < num_services {
            let hi = (lo + chunk).min(num_services);
            arenas.push(CellGrid::new(hi - lo));
            starts.push(hi);
            lo = hi;
        }
        if arenas.is_empty() {
            arenas.push(CellGrid::new(0));
            starts = vec![0, 0];
        }
        ShardedObservationLog {
            arenas,
            starts,
            num_services,
            user_starts: None,
        }
    }

    /// Creates a zero-filled log with explicit shard boundaries
    /// (`shard_starts[s]..shard_starts[s + 1]` is shard `s`'s service
    /// range) and a fixed horizon — the generation-side layout, where
    /// each worker scatter-fills its arena via
    /// [`arenas_mut`](ShardedObservationLog::arenas_mut).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `shard_starts` is not a
    /// monotone prefix table beginning at 0 with at least two entries.
    pub fn with_shard_starts(shard_starts: Vec<usize>, horizon: usize) -> Result<Self> {
        let valid = shard_starts.len() >= 2
            && shard_starts.first() == Some(&0)
            && shard_starts.windows(2).all(|w| w[0] <= w[1]);
        if !valid {
            return Err(SimError::InvalidConfig {
                parameter: "shard_starts",
                reason: "must be a monotone prefix table starting at 0".into(),
            });
        }
        let num_services = shard_starts.last().copied().unwrap_or(0);
        let arenas = shard_starts
            .windows(2)
            .map(|w| CellGrid::with_horizon(w[1] - w[0], horizon))
            .collect();
        Ok(ShardedObservationLog {
            arenas,
            starts: shard_starts,
            num_services,
            user_starts: None,
        })
    }

    /// Builds the log directly from per-shard columnar arenas (in global
    /// service order): the zero-copy path for drivers that generate
    /// whole populations shard by shard.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ObservationArity`] when the arenas disagree
    /// on the horizon (mixed-length populations cannot be anonymized
    /// into one grid).
    pub fn from_shards(arenas: Vec<CellGrid>) -> Result<Self> {
        let horizon = arenas.first().map_or(0, CellGrid::horizon);
        let mut starts = Vec::with_capacity(arenas.len() + 1);
        let mut total = 0usize;
        starts.push(0);
        for arena in &arenas {
            if arena.horizon() != horizon {
                return Err(SimError::ObservationArity {
                    expected: horizon,
                    found: arena.horizon(),
                    slot: horizon.min(arena.horizon()),
                    user: None,
                });
            }
            total += arena.num_trajectories();
            starts.push(total);
        }
        if arenas.is_empty() {
            return Ok(ShardedObservationLog::new(0, 1));
        }
        Ok(ShardedObservationLog {
            arenas,
            starts,
            num_services: total,
            user_starts: None,
        })
    }

    /// Attaches the fleet's per-user service layout
    /// (`user_starts[u]..user_starts[u + 1]` are user `u`'s services, the
    /// final entry being the total), so arity errors can name the
    /// offending user instead of only a global position.
    pub fn with_user_layout(mut self, user_starts: Vec<usize>) -> Self {
        self.user_starts = Some(user_starts);
        self
    }

    /// Total number of services tracked.
    pub fn num_services(&self) -> usize {
        self.num_services
    }

    /// Number of shard arenas.
    pub fn num_shards(&self) -> usize {
        self.arenas.len()
    }

    /// Number of slots recorded so far (arenas always advance in
    /// lockstep).
    pub fn horizon(&self) -> usize {
        self.arenas.first().map_or(0, CellGrid::horizon)
    }

    /// The global service range `(lo, hi)` owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_shards()`.
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        (self.starts[s], self.starts[s + 1])
    }

    /// Read access to the per-shard columnar arenas, in global service
    /// order (shard `s` covers [`shard_range`](Self::shard_range)`(s)`).
    pub fn shard_grids(&self) -> &[CellGrid] {
        &self.arenas
    }

    /// Exclusive access to every arena with its global start index —
    /// distribute these to worker threads (e.g. jobs on the shared
    /// `chaff_core::pool`) to fill the log concurrently.
    pub fn arenas_mut(&mut self) -> Vec<(usize, &mut CellGrid)> {
        self.starts
            .iter()
            .copied()
            .zip(self.arenas.iter_mut())
            .collect()
    }

    /// Bytes spent on cell storage across all arenas (4 bytes per cell).
    pub fn cell_bytes(&self) -> usize {
        self.arenas.iter().map(CellGrid::cell_bytes).sum()
    }

    /// Bytes spent on offset tables (per-shard starts plus the optional
    /// per-user layout) — the `O(shards + users)` metadata overhead.
    pub fn offset_bytes(&self) -> usize {
        let entries = self.starts.len() + self.user_starts.as_ref().map_or(0, Vec::len);
        entries * std::mem::size_of::<usize>()
    }

    /// Copies every service's planned cell for `slot` into `out`
    /// (cleared first), in global service order — the read side of
    /// capacity-constrained replay.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= horizon()`.
    pub fn copy_slot_into(&self, slot: usize, out: &mut Vec<CellId>) {
        out.clear();
        out.reserve(self.num_services);
        for arena in &self.arenas {
            out.extend_from_slice(arena.row(slot));
        }
    }

    /// Records the location of every service for the current slot (the
    /// streaming fill used by capacity-constrained replay).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ObservationArity`] if `locations` does not
    /// match the number of services, naming the offending slot and —
    /// when a user layout is attached via
    /// [`with_user_layout`](ShardedObservationLog::with_user_layout) —
    /// the user owning the first divergent service index.
    pub fn record_slot(&mut self, locations: &[CellId]) -> Result<()> {
        let expected = self.num_services;
        if locations.len() != expected {
            let divergent = locations.len().min(expected);
            return Err(SimError::ObservationArity {
                expected,
                found: locations.len(),
                slot: self.horizon(),
                user: self
                    .user_starts
                    .as_deref()
                    .map(|starts| owner_of(starts, divergent)),
            });
        }
        for (arena, lo) in self.arenas.iter_mut().zip(&self.starts) {
            let width = arena.num_trajectories();
            arena.push_row(&locations[*lo..*lo + width])?;
        }
        Ok(())
    }

    /// Finalizes the log: one global Fisher–Yates shuffle across all
    /// shards, scattered into a single slot-major [`CellGrid`]. Returns
    /// the shuffled grid and the permutation (`perm[original]` is the
    /// post-shuffle index of service `original`), so callers can locate
    /// every ground-truth service.
    ///
    /// The permutation is drawn sequentially from `rng`; the scatter then
    /// splits the output's slot rows into bands on the shared worker
    /// pool. A band writes only its own rows, and within a row the
    /// permutation sends every input cell to a distinct output cell, so
    /// each output cell is written exactly once and the grid does not
    /// depend on which band runs when.
    pub fn into_anonymized<R: Rng + ?Sized>(self, rng: &mut R) -> (CellGrid, Vec<usize>) {
        let perm = fisher_yates(self.num_services, rng);
        let horizon = self.horizon();
        let mut out = CellGrid::with_horizon(self.num_services, horizon);
        let pool = chaff_core::pool::global();
        let rows_per_band = horizon.div_ceil(pool.threads()).max(1);
        let width = self.num_services;
        let (arenas, starts, perm_ref) = (&self.arenas, &self.starts, &perm);
        pool.scope(|scope| {
            for (band, cells) in out.row_bands_mut(rows_per_band).enumerate() {
                scope.spawn(move || {
                    let rows = cells.chunks_exact_mut(width);
                    for (t, row) in (band * rows_per_band..).zip(rows) {
                        for (arena, &lo) in arenas.iter().zip(starts) {
                            let targets = &perm_ref[lo..lo + arena.num_trajectories()];
                            for (&target, &cell) in targets.iter().zip(arena.row(t)) {
                                row[target] = cell;
                            }
                        }
                    }
                });
            }
        });
        (out, perm)
    }

    /// Finalizes the log without shuffling (global service order).
    ///
    /// # Errors
    ///
    /// Every constructor keeps arena widths consistent with the offset
    /// table, so the concatenation cannot fail today; a future
    /// invariant break surfaces as the underlying arity error rather
    /// than a silently truncated grid.
    pub fn into_ordered(mut self) -> Result<CellGrid> {
        if self.arenas.len() == 1 {
            // Single arena: the shard *is* the global grid.
            return Ok(self.arenas.remove(0));
        }
        let horizon = self.horizon();
        let mut out = CellGrid::new(self.num_services);
        let mut row: Vec<CellId> = Vec::with_capacity(self.num_services);
        for t in 0..horizon {
            self.copy_slot_into(t, &mut row);
            out.push_row(&row)?;
        }
        Ok(out)
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

    #[test]
    fn sharded_log_partitions_services_contiguously() {
        let log = ShardedObservationLog::new(10, 3);
        assert_eq!(log.num_services(), 10);
        assert_eq!(log.num_shards(), 3);
        let mut covered = 0;
        for s in 0..log.num_shards() {
            let (lo, hi) = log.shard_range(s);
            assert_eq!(lo, covered);
            covered = hi;
        }
        assert_eq!(covered, 10);
    }

    #[test]
    fn sharded_record_slot_matches_flat_log() {
        let mut flat = ObservationLog::new(5);
        let mut sharded = ShardedObservationLog::new(5, 2);
        for t in 0..4 {
            let locations: Vec<CellId> = (0..5).map(|i| CellId::new((i + t) % 5)).collect();
            flat.record_slot(&locations).unwrap();
            sharded.record_slot(&locations).unwrap();
        }
        assert_eq!(
            flat.into_ordered(),
            sharded.into_ordered().unwrap().to_trajectories()
        );
    }

    #[test]
    fn sharded_record_slot_rejects_wrong_arity() {
        let mut log = ShardedObservationLog::new(3, 2);
        assert!(matches!(
            log.record_slot(&[CellId::new(0)]),
            Err(SimError::ObservationArity {
                expected: 3,
                found: 1,
                slot: 0,
                user: None
            })
        ));
    }

    #[test]
    fn arity_errors_name_the_offending_user_and_slot() {
        // Fleet layout: user 0 owns services 0..3, user 1 owns 3..5.
        let mut log = ShardedObservationLog::new(5, 2).with_user_layout(vec![0, 3, 5]);
        let full: Vec<CellId> = (0..5).map(CellId::new).collect();
        log.record_slot(&full).unwrap();
        log.record_slot(&full).unwrap();
        // Slot 2, four locations: the first missing service is index 4,
        // owned by user 1.
        let err = log.record_slot(&full[..4]).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::ObservationArity {
                    expected: 5,
                    found: 4,
                    slot: 2,
                    user: Some(1)
                }
            ),
            "got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("slot 2"), "{msg}");
        assert!(msg.contains("user 1"), "{msg}");
        // A location missing inside user 0's range points at user 0.
        let err = log.record_slot(&full[..2]).unwrap_err();
        assert!(matches!(
            err,
            SimError::ObservationArity { user: Some(0), .. }
        ));
        // Extra locations overflow the fleet: attributed to the last user.
        let six: Vec<CellId> = (0..6).map(CellId::new).collect();
        let err = log.record_slot(&six).unwrap_err();
        assert!(matches!(
            err,
            SimError::ObservationArity {
                expected: 5,
                found: 6,
                slot: 2,
                user: Some(1)
            }
        ));
    }

    #[test]
    fn sharded_anonymization_is_one_global_shuffle() {
        // Same seed, different shard layouts -> identical anonymized view.
        let fill = |num_shards: usize| {
            let mut log = ShardedObservationLog::new(6, num_shards);
            for t in 0..2 {
                let row: Vec<CellId> = (0..6).map(CellId::new).collect();
                let _ = t;
                log.record_slot(&row).unwrap();
            }
            // Overwrite via arenas so each service's cells encode its
            // global index.
            for (lo, arena) in log.arenas_mut() {
                let width = arena.num_trajectories();
                for t in 0..2 {
                    for j in 0..width {
                        arena.set(t, j, CellId::new(lo + j));
                    }
                }
            }
            log
        };
        let mut outputs = Vec::new();
        for num_shards in [1, 2, 3, 6] {
            let mut rng = StdRng::seed_from_u64(77);
            let (shuffled, perm) = fill(num_shards).into_anonymized(&mut rng);
            // perm maps originals to their observed slots.
            for (original, &target) in perm.iter().enumerate() {
                assert_eq!(
                    shuffled.trajectory(target),
                    Trajectory::from_indices([original, original])
                );
            }
            outputs.push(shuffled);
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
    }

    #[test]
    fn from_shards_preserves_global_order() {
        let arenas = vec![
            CellGrid::from_trajectories(&[
                Trajectory::from_indices([0]),
                Trajectory::from_indices([1]),
            ])
            .unwrap(),
            CellGrid::from_trajectories(&[Trajectory::from_indices([2])]).unwrap(),
        ];
        let log = ShardedObservationLog::from_shards(arenas).unwrap();
        assert_eq!(log.num_services(), 3);
        assert_eq!(log.shard_range(1), (2, 3));
        let ordered = log.into_ordered().unwrap();
        for (i, t) in ordered.to_trajectories().iter().enumerate() {
            assert_eq!(t, &Trajectory::from_indices([i]));
        }
    }

    #[test]
    fn from_shards_rejects_mismatched_horizons() {
        let arenas = vec![
            CellGrid::from_trajectories(&[Trajectory::from_indices([0, 1])]).unwrap(),
            CellGrid::from_trajectories(&[Trajectory::from_indices([2])]).unwrap(),
        ];
        assert!(matches!(
            ShardedObservationLog::from_shards(arenas),
            Err(SimError::ObservationArity { .. })
        ));
    }

    #[test]
    fn memory_footprint_is_four_bytes_per_cell_plus_offsets() {
        let mut log = ShardedObservationLog::with_shard_starts(vec![0, 40, 100], 12).unwrap();
        assert_eq!(log.cell_bytes(), 100 * 12 * 4);
        // Offsets: 3 shard starts, no user layout yet.
        assert_eq!(log.offset_bytes(), 3 * std::mem::size_of::<usize>());
        log = log.with_user_layout((0..=50).map(|u| u * 2).collect());
        assert_eq!(log.offset_bytes(), (3 + 51) * std::mem::size_of::<usize>());
    }

    #[test]
    fn with_shard_starts_rejects_malformed_tables() {
        assert!(ShardedObservationLog::with_shard_starts(vec![], 4).is_err());
        assert!(ShardedObservationLog::with_shard_starts(vec![0], 4).is_err());
        assert!(ShardedObservationLog::with_shard_starts(vec![1, 2], 4).is_err());
        assert!(ShardedObservationLog::with_shard_starts(vec![0, 3, 2], 4).is_err());
        assert!(ShardedObservationLog::with_shard_starts(vec![0, 2, 2, 5], 4).is_ok());
    }

    #[test]
    fn copy_slot_into_reads_global_service_order() {
        let mut log = ShardedObservationLog::new(4, 2);
        log.record_slot(&[
            CellId::new(9),
            CellId::new(8),
            CellId::new(7),
            CellId::new(6),
        ])
        .unwrap();
        let mut row = Vec::new();
        log.copy_slot_into(0, &mut row);
        assert_eq!(
            row,
            vec![
                CellId::new(9),
                CellId::new(8),
                CellId::new(7),
                CellId::new(6)
            ]
        );
    }

    impl ObservationLog {
        fn clone_for_test(&self) -> Vec<Trajectory> {
            self.trajectories.clone()
        }
    }
}
