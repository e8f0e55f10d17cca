//! The MEC network: one edge node per coverage cell, with optional
//! per-node service capacity.
//!
//! # The slot kernel
//!
//! The fleet stepper places a whole slot row at once through
//! [`MecNetwork::launch_slot`] (slot 0) and [`MecNetwork::replay_slot`]
//! (every later slot). The replay visits services in index order and,
//! per service, releases the node it held, then takes the wanted node if
//! it has room and falls back to the [`place_nearest`](MecNetwork::place_nearest)
//! spill search otherwise. That is [`migrate`](MecNetwork::migrate)
//! without its `from == to` branch: a service that stays put leaves a
//! node holding at most `capacity` instances, so after the release that
//! node has room and the same service takes it straight back, leaving
//! the occupancy where it was. The only data-dependent branch left is
//! the spill, and the visit order, occupancy trajectory and spill search
//! are `migrate`'s, so the placements are bit-for-bit the per-service
//! loop's. The single-user simulator keeps `migrate` as that per-service
//! oracle.
//!
//! Both calls carry no state between services but the occupancy table.
//! So calling them on consecutive service ranges of a row, in order,
//! is the call on the whole row: the same services visit the same
//! occupancy trajectory, and the counts are integer sums. The fleet
//! stepper relies on this to place a slot band by band, each band as
//! soon as it is drawn.
//!
//! A replay cannot fail: a released node always has room, so the spill
//! search always finds a node. Only the launch can run out of capacity,
//! and only when the row holds more services than the network has slots;
//! the fleet stepper rejects such fleets before any of its state exists.

use crate::{Result, SimError};
use chaff_markov::CellId;

/// The MEC deployment: node `i` serves cell `i`.
///
/// Tracks how many service instances each node currently hosts and
/// enforces an optional uniform capacity. Placement beyond capacity is
/// resolved by [`place_nearest`](MecNetwork::place_nearest), which spills
/// to the closest node (by cell-index distance, matching the 1-D random
/// walk models) with free capacity.
#[derive(Debug, Clone)]
pub struct MecNetwork {
    occupancy: Vec<usize>,
    capacity: Option<usize>,
}

impl MecNetwork {
    /// Creates a network of `num_cells` nodes with optional uniform
    /// `capacity` (in service instances per node).
    ///
    /// # Errors
    ///
    /// Returns an error when `num_cells == 0` or `capacity == Some(0)`.
    pub fn new(num_cells: usize, capacity: Option<usize>) -> Result<Self> {
        if num_cells == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "num_cells",
                reason: "must be positive".into(),
            });
        }
        if capacity == Some(0) {
            return Err(SimError::InvalidConfig {
                parameter: "capacity",
                reason: "must be positive when set".into(),
            });
        }
        Ok(MecNetwork {
            occupancy: vec![0; num_cells],
            capacity,
        })
    }

    /// Number of MEC nodes.
    pub fn num_nodes(&self) -> usize {
        self.occupancy.len()
    }

    /// Instances currently hosted at `cell`'s node.
    pub fn occupancy(&self, cell: CellId) -> usize {
        self.occupancy[cell.index()]
    }

    /// Whether `cell`'s node can host one more instance.
    pub fn has_room(&self, cell: CellId) -> bool {
        match self.capacity {
            None => true,
            Some(k) => self.occupancy[cell.index()] < k,
        }
    }

    /// Places an instance at `cell` if there is room.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoCapacity`] when the node is full.
    pub fn place(&mut self, cell: CellId) -> Result<()> {
        if !self.has_room(cell) {
            return Err(SimError::NoCapacity { cell: cell.index() });
        }
        self.occupancy[cell.index()] += 1;
        Ok(())
    }

    /// Places an instance at `cell` or, if full, at the nearest cell (by
    /// index distance, ties to the lower index) with room. Returns the
    /// cell actually used.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoCapacity`] when every node is full.
    pub fn place_nearest(&mut self, cell: CellId) -> Result<CellId> {
        let n = self.num_nodes();
        for radius in 0..n {
            for candidate in [
                cell.index().checked_sub(radius),
                Some(cell.index() + radius),
            ]
            .into_iter()
            .flatten()
            {
                if candidate >= n {
                    continue;
                }
                let c = CellId::new(candidate);
                if self.has_room(c) {
                    self.occupancy[candidate] += 1;
                    return Ok(c);
                }
            }
        }
        Err(SimError::NoCapacity { cell: cell.index() })
    }

    /// Places slot 0 of a fleet: `actual[i]` becomes the node
    /// [`place_nearest`](Self::place_nearest) gives `desired[i]`, in
    /// service order. Returns the slot's counts (no migrations on a
    /// launch).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoCapacity`] when every node is full; the
    /// services before the failing one stay placed.
    pub fn launch_slot(
        &mut self,
        desired: &[CellId],
        actual: &mut [CellId],
    ) -> Result<PlacementCounts> {
        debug_assert_eq!(desired.len(), actual.len(), "one placement per service");
        let mut spills = 0;
        for (placed, &want) in actual.iter_mut().zip(desired) {
            *placed = self.place_nearest(want)?;
            spills += usize::from(*placed != want);
        }
        Ok(PlacementCounts {
            migrations: 0,
            spills,
        })
    }

    /// Replays one later slot: `actual` holds every service's node from
    /// the previous slot (placed by this network) and is updated in
    /// place to this slot's nodes, moving each service towards
    /// `desired[i]` in service order exactly as
    /// [`migrate`](Self::migrate) would (see the module docs for why
    /// `from == to` needs no branch).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoCapacity`] only if `actual` was not placed
    /// by this network: a released node always has room.
    pub fn replay_slot(
        &mut self,
        desired: &[CellId],
        actual: &mut [CellId],
    ) -> Result<PlacementCounts> {
        debug_assert_eq!(desired.len(), actual.len(), "one placement per service");
        let capacity = self.capacity.unwrap_or(usize::MAX);
        let mut counts = PlacementCounts::default();
        for (held, &want) in actual.iter_mut().zip(desired) {
            let prev = *held;
            self.occupancy[prev.index()] -= 1;
            let occupancy = &mut self.occupancy[want.index()];
            let placed = if *occupancy < capacity {
                *occupancy += 1;
                want
            } else {
                self.place_nearest(want)?
            };
            counts.migrations += usize::from(placed != prev);
            counts.spills += usize::from(placed != want);
            *held = placed;
        }
        Ok(counts)
    }

    /// Removes an instance from `cell`'s node.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) when the node is already empty — that is a
    /// simulator bookkeeping bug, not a user error.
    pub fn remove(&mut self, cell: CellId) {
        debug_assert!(self.occupancy[cell.index()] > 0, "removing from empty node");
        self.occupancy[cell.index()] = self.occupancy[cell.index()].saturating_sub(1);
    }

    /// Moves an instance between nodes, spilling to the nearest node with
    /// room when the target is full. Returns the destination actually
    /// used.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoCapacity`] when every node is full.
    pub fn migrate(&mut self, from: CellId, to: CellId) -> Result<CellId> {
        if from == to {
            return Ok(to);
        }
        self.remove(from);
        match self.place_nearest(to) {
            Ok(cell) => Ok(cell),
            Err(e) => {
                // Roll back so the caller's view stays consistent.
                self.occupancy[from.index()] += 1;
                Err(e)
            }
        }
    }
}

/// What placing one slot row did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementCounts {
    /// Services that changed node since the previous slot.
    pub migrations: usize,
    /// Services placed away from the node they wanted.
    pub spills: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-service oracle: `place_nearest` on slot 0, `migrate`
    /// after, with the counts the fleet engines keep.
    fn oracle_slot(
        net: &mut MecNetwork,
        launch: bool,
        desired: &[CellId],
        actual: &mut [CellId],
    ) -> Result<PlacementCounts> {
        let mut counts = PlacementCounts::default();
        for (held, &want) in actual.iter_mut().zip(desired) {
            let placed = if launch {
                net.place_nearest(want)?
            } else {
                let cell = net.migrate(*held, want)?;
                counts.migrations += usize::from(cell != *held);
                cell
            };
            counts.spills += usize::from(placed != want);
            *held = placed;
        }
        Ok(counts)
    }

    /// Desired rows that stay put half the time (the `from == to` case)
    /// and otherwise crowd the low cells, so full nodes and spills are
    /// common.
    fn desired_rows(seed: u64, cells: usize, services: usize, slots: usize) -> Vec<Vec<CellId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut row: Vec<CellId> = (0..services)
            .map(|_| CellId::new(rng.random_range(0..cells)))
            .collect();
        let mut rows = Vec::with_capacity(slots);
        for _ in 0..slots {
            rows.push(row.clone());
            for cell in &mut row {
                if rng.random_bool(0.5) {
                    let hot = rng.random_range(0..cells);
                    *cell = CellId::new(rng.random_range(0..=hot));
                }
            }
        }
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slot kernel is the per-service loop, bit for bit: same
        /// placements, same occupancy after every slot, same counts.
        #[test]
        fn slot_kernel_matches_the_per_service_loop(
            cells in 1usize..=12,
            capacity in 1usize..=4,
            fill in 1usize..=100,
            slots in 1usize..10,
            seed in 0u64..1_000_000,
        ) {
            // From one service up to a tight fit of the whole network.
            let services = (cells * capacity * fill).div_ceil(100);
            let mut kernel = MecNetwork::new(cells, Some(capacity)).unwrap();
            let mut oracle = kernel.clone();
            let mut kernel_actual = vec![CellId::new(0); services];
            let mut oracle_actual = kernel_actual.clone();
            for (t, desired) in desired_rows(seed, cells, services, slots).iter().enumerate() {
                let got = if t == 0 {
                    kernel.launch_slot(desired, &mut kernel_actual)
                } else {
                    kernel.replay_slot(desired, &mut kernel_actual)
                }
                .unwrap();
                let want = oracle_slot(&mut oracle, t == 0, desired, &mut oracle_actual).unwrap();
                prop_assert_eq!(got, want, "slot {}", t);
                prop_assert_eq!(&kernel_actual, &oracle_actual, "slot {}", t);
                prop_assert_eq!(&kernel.occupancy, &oracle.occupancy, "slot {}", t);
            }
        }
    }

    #[test]
    fn replay_keeps_a_service_on_its_full_node() {
        // Both nodes full; service 0 stays on node 0, service 1 stays on
        // node 1: release-then-retake must not spill either of them.
        let mut net = MecNetwork::new(2, Some(1)).unwrap();
        let desired = [CellId::new(0), CellId::new(1)];
        let mut actual = [CellId::new(0); 2];
        net.launch_slot(&desired, &mut actual).unwrap();
        let counts = net.replay_slot(&desired, &mut actual).unwrap();
        assert_eq!(counts, PlacementCounts::default());
        assert_eq!(actual, desired);
        assert_eq!(net.occupancy, vec![1, 1]);
    }

    #[test]
    fn replay_spills_into_the_node_a_service_just_left() {
        // Service 0 leaves node 0 for full node 1; service 1 holds node 1.
        // Node 0 is the nearest with room, so service 0 spills back.
        let mut net = MecNetwork::new(2, Some(1)).unwrap();
        let mut actual = [CellId::new(0); 2];
        net.launch_slot(&[CellId::new(0), CellId::new(1)], &mut actual)
            .unwrap();
        let desired = [CellId::new(1), CellId::new(1)];
        let counts = net.replay_slot(&desired, &mut actual).unwrap();
        assert_eq!(actual, [CellId::new(0), CellId::new(1)]);
        assert_eq!(
            counts,
            PlacementCounts {
                migrations: 0,
                spills: 1
            }
        );
    }

    #[test]
    fn launch_beyond_the_network_fails_typed() {
        let mut net = MecNetwork::new(2, Some(1)).unwrap();
        let mut actual = [CellId::new(0); 3];
        assert!(matches!(
            net.launch_slot(&[CellId::new(1); 3], &mut actual),
            Err(SimError::NoCapacity { cell: 1 })
        ));
    }

    #[test]
    fn unlimited_capacity_always_has_room() {
        let mut net = MecNetwork::new(3, None).unwrap();
        for _ in 0..100 {
            net.place(CellId::new(1)).unwrap();
        }
        assert_eq!(net.occupancy(CellId::new(1)), 100);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut net = MecNetwork::new(3, Some(2)).unwrap();
        net.place(CellId::new(0)).unwrap();
        net.place(CellId::new(0)).unwrap();
        assert!(matches!(
            net.place(CellId::new(0)),
            Err(SimError::NoCapacity { cell: 0 })
        ));
    }

    #[test]
    fn place_nearest_spills_to_neighbors() {
        let mut net = MecNetwork::new(4, Some(1)).unwrap();
        assert_eq!(net.place_nearest(CellId::new(1)).unwrap(), CellId::new(1));
        // Cell 1 full: spills to 0 (lower index preferred at equal radius).
        assert_eq!(net.place_nearest(CellId::new(1)).unwrap(), CellId::new(0));
        assert_eq!(net.place_nearest(CellId::new(1)).unwrap(), CellId::new(2));
        assert_eq!(net.place_nearest(CellId::new(1)).unwrap(), CellId::new(3));
        assert!(net.place_nearest(CellId::new(1)).is_err());
    }

    #[test]
    fn migrate_moves_occupancy() {
        let mut net = MecNetwork::new(3, Some(1)).unwrap();
        net.place(CellId::new(0)).unwrap();
        let dest = net.migrate(CellId::new(0), CellId::new(2)).unwrap();
        assert_eq!(dest, CellId::new(2));
        assert_eq!(net.occupancy(CellId::new(0)), 0);
        assert_eq!(net.occupancy(CellId::new(2)), 1);
    }

    #[test]
    fn migrate_to_full_node_spills() {
        let mut net = MecNetwork::new(3, Some(1)).unwrap();
        net.place(CellId::new(0)).unwrap();
        net.place(CellId::new(2)).unwrap();
        // 2 is full; spilling from 2 tries 1.
        let dest = net.migrate(CellId::new(0), CellId::new(2)).unwrap();
        assert_eq!(dest, CellId::new(1));
    }

    #[test]
    fn migrate_self_is_noop() {
        let mut net = MecNetwork::new(2, Some(1)).unwrap();
        net.place(CellId::new(0)).unwrap();
        assert_eq!(
            net.migrate(CellId::new(0), CellId::new(0)).unwrap(),
            CellId::new(0)
        );
        assert_eq!(net.occupancy(CellId::new(0)), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(MecNetwork::new(0, None).is_err());
        assert!(MecNetwork::new(3, Some(0)).is_err());
    }
}
