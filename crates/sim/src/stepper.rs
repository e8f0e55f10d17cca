//! The one fleet simulation kernel, shared by `FleetSimulation` and
//! `StreamingFleetEngine`.
//!
//! [`FleetStepper`] owns everything a fleet needs to move: the service
//! layout, each user's RNG, every chaff lane, the inverse anonymization
//! permutation, the optional shared [`MecNetwork`] and the running
//! [`FleetStats`]. It advances the fleet one *tile* of `len ≤ stride`
//! slots at a time: the draw+chaff band kernel
//! ([`draw_tile`](FleetStepper::draw_tile)) writes a service-major tile
//! (`tile[service · stride + j]`), each tile slot goes through the
//! network's slot kernel in slot order when a capacity is set, and
//! [`gather`] writes the observed rows through `inv`. The steps and
//! their bit-for-bit arguments are the execution plan in
//! [`crate::fleet`]. The streaming engine steps tiles of one slot (the
//! tile *is* the planned row); the batch engine steps
//! [`BATCH_TILE_SLOTS`]-slot tiles straight into the observed grid.

use crate::fleet::{user_seed, ChaffLane, FleetChaffPolicy, FleetConfig, FleetModel, FleetStats};
use crate::network::MecNetwork;
use crate::observer::fisher_yates;
use crate::{Result, SimError};
use chaff_markov::{CellId, TrajectoryArena};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Slots per tile of a batch run: long enough that a user's RNG and
/// chaff lanes stay hot across many slots and the two pool scopes per
/// tile are few, short enough that the `services × tile` scratch stays
/// a fraction of the observed grid at day-long horizons.
pub(crate) const BATCH_TILE_SLOTS: usize = 16;

/// The persistent state of one user band: users `first..first +
/// rngs.len()`, their RNGs and their chaff lanes in lane order.
struct Band<'a> {
    first: usize,
    rngs: Vec<StdRng>,
    chaffs: Vec<(ChaffLane<'a>, StdRng)>,
}

/// The simulation half of a fleet: layout, RNG and lane state, the
/// inverse permutation and placement, advanced tile by tile.
pub(crate) struct FleetStepper<'a> {
    model: FleetModel<'a>,
    /// User `u` owns services `service_starts[u]..service_starts[u + 1]`,
    /// real service first.
    service_starts: Vec<usize>,
    /// `inv[position]` = the service observed at that post-shuffle
    /// position (identity when anonymization is off).
    inv: Vec<u32>,
    user_observed_indices: Vec<usize>,
    bands: Vec<Band<'a>>,
    /// Users per band (the last band may hold fewer).
    band_users: usize,
    /// Each user's cell at the last slot stepped.
    user_row: Vec<CellId>,
    /// Slots per tile: the tile's column length per service.
    stride: usize,
    /// The planned cells of the current tile, `tile[s · stride + j]`.
    tile: Vec<CellId>,
    /// The shared network with each service's placed cell, and the
    /// planned-row scratch its slot kernel reads when `stride > 1`.
    network: Option<(MecNetwork, Vec<CellId>, Vec<CellId>)>,
    stats: FleetStats,
    horizon: usize,
    /// Slots stepped so far.
    slot: usize,
}

impl<'a> FleetStepper<'a> {
    /// Validates the fleet and builds its state for tiles of up to
    /// `stride` slots.
    ///
    /// # Errors
    ///
    /// Invalid configs, mismatched policies, overflowing budgets, a
    /// capacity-limited fleet with more services than the network has
    /// slots, and more than `u32::MAX` services.
    pub(crate) fn new(
        model: FleetModel<'a>,
        config: &FleetConfig,
        policy: &FleetChaffPolicy,
        stride: usize,
    ) -> Result<Self> {
        config.validate()?;
        policy.validate(model.num_classes(), config.num_users)?;
        let n = config.num_users;
        let service_starts = service_layout(n, config.horizon, |user| {
            policy.budget_of(user, model.class_of(user), n)
        })?;
        let num_services = service_starts[n];
        let width = u32::try_from(num_services).map_err(|_| SimError::InvalidConfig {
            parameter: "num_services",
            reason: format!("{num_services} services exceed the u32 service index"),
        })?;
        check_fleet_fits(config, model.num_states(), num_services)?;
        // One band per shard; each band seeds its users' streams and
        // builds their lanes as one pool job.
        let band_users = n.div_ceil(config.effective_shards());
        let mut bands: Vec<Band<'a>> = (0..n)
            .step_by(band_users)
            .map(|first| Band {
                first,
                rngs: Vec::new(),
                chaffs: Vec::new(),
            })
            .collect();
        let (starts, seed) = (&service_starts, config.seed);
        run_bands(bands.iter_mut(), |band| {
            let users = band.first..(band.first + band_users).min(n);
            band.chaffs
                .reserve(starts[users.end] - starts[users.start] - users.len());
            for user in users.clone() {
                let budget = starts[user + 1] - starts[user] - 1;
                band.chaffs
                    .extend(model.chaff_lanes(policy, seed, user, budget));
            }
            band.rngs = users
                .map(|user| StdRng::seed_from_u64(user_seed(seed, user as u64)))
                .collect();
        });
        let (inv, user_observed_indices) = if config.anonymize {
            let mut rng = StdRng::seed_from_u64(shuffle_seed(config.seed));
            let perm = fisher_yates(num_services, &mut rng);
            let mut inv = vec![0u32; num_services];
            for (service, &position) in (0..width).zip(&perm) {
                inv[position] = service;
            }
            let indices = (0..n).map(|u| perm[service_starts[u]]).collect();
            (inv, indices)
        } else {
            ((0..width).collect(), service_starts[..n].to_vec())
        };
        let stride = stride.clamp(1, config.horizon);
        let network = match config.node_capacity {
            Some(capacity) => Some((
                MecNetwork::new(model.num_states(), Some(capacity))?,
                vec![CellId::new(0); num_services],
                Vec::with_capacity(if stride > 1 { num_services } else { 0 }),
            )),
            None => None,
        };
        Ok(FleetStepper {
            model,
            service_starts,
            inv,
            user_observed_indices,
            bands,
            band_users,
            user_row: vec![CellId::new(0); n],
            stride,
            tile: vec![CellId::new(0); num_services * stride],
            network,
            stats: FleetStats {
                migrations: 0,
                spills: 0,
                user_slots: 0,
                chaff_services: num_services - n,
            },
            horizon: config.horizon,
            slot: 0,
        })
    }

    pub(crate) fn model(&self) -> FleetModel<'a> {
        self.model
    }

    pub(crate) fn num_users(&self) -> usize {
        self.user_row.len()
    }

    pub(crate) fn num_services(&self) -> usize {
        self.inv.len()
    }

    pub(crate) fn horizon(&self) -> usize {
        self.horizon
    }

    /// Slots stepped so far.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// Users per band of the draw kernel.
    pub(crate) fn band_users(&self) -> usize {
        self.band_users
    }

    pub(crate) fn service_starts(&self) -> &[usize] {
        &self.service_starts
    }

    pub(crate) fn user_observed_indices(&self) -> &[usize] {
        &self.user_observed_indices
    }

    pub(crate) fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Each user's cell at the last slot stepped.
    pub(crate) fn user_row(&self) -> &[CellId] {
        &self.user_row
    }

    /// The row the ingest path fills before a one-slot step.
    pub(crate) fn user_row_mut(&mut self) -> &mut [CellId] {
        &mut self.user_row
    }

    /// The placed cell of every service at the last slot of a one-slot
    /// tile: the network's placement with a capacity, the planned row
    /// without.
    pub(crate) fn placed_row(&self) -> &[CellId] {
        debug_assert_eq!(self.stride, 1, "a placed row exists for one-slot tiles");
        match &self.network {
            Some((_, actual, _)) => actual,
            None => &self.tile,
        }
    }

    /// Bytes of the per-slot tables: the tile, the inverse permutation,
    /// the layout, the user index and cell rows, and the placement.
    pub(crate) fn state_bytes(&self) -> usize {
        let placement = self.network.as_ref().map_or(0, |(_, actual, row)| {
            (actual.capacity() + row.capacity()) * 4
        });
        (self.tile.capacity() + self.inv.capacity() + self.user_row.capacity()) * 4
            + (self.service_starts.capacity() + self.user_observed_indices.capacity()) * 8
            + placement
    }

    /// Advances the fleet `len` slots (`1 ≤ len ≤ stride`, not past the
    /// horizon) and writes the `len` observed rows, slot-major, into
    /// `out`, and the users' cells into their rows of `user_cells` when
    /// given. With `draw` off, the users' cells are the ones written to
    /// [`user_row_mut`](Self::user_row_mut), and `len` must be 1.
    ///
    /// # Errors
    ///
    /// Placement cannot fail once the fleet fits, so an error here means
    /// an internal invariant broke.
    pub(crate) fn step_into(
        &mut self,
        len: usize,
        draw: bool,
        out: &mut [CellId],
        user_cells: Option<&mut TrajectoryArena>,
    ) -> Result<()> {
        debug_assert!((1..=self.stride).contains(&len) && self.slot + len <= self.horizon);
        debug_assert!(draw || len == 1, "ingested rows arrive one slot at a time");
        let width = self.num_services();
        debug_assert_eq!(out.len(), len * width);
        let moves = self.draw_tile(len, draw, user_cells);
        let bands = self.bands.len();
        match &mut self.network {
            None => {
                self.stats.migrations += moves;
                gather(&self.inv, &self.tile, self.stride, out, bands);
            }
            Some((network, actual, row)) => {
                for (j, out_row) in out.chunks_exact_mut(width).enumerate() {
                    let planned: &[CellId] = if self.stride == 1 {
                        &self.tile
                    } else {
                        row.clear();
                        row.extend(self.tile.iter().skip(j).step_by(self.stride));
                        row
                    };
                    let counts = if self.slot + j == 0 {
                        network.launch_slot(planned, actual)?
                    } else {
                        network.replay_slot(planned, actual)?
                    };
                    self.stats.migrations += counts.migrations;
                    self.stats.spills += counts.spills;
                    gather(&self.inv, actual, 1, out_row, bands);
                }
            }
        }
        self.stats.user_slots += len * self.num_users();
        self.slot += len;
        Ok(())
    }

    /// The fused draw+chaff kernel over user bands: advances every user
    /// and chaff lane `len` slots into the tile (and the users' cells
    /// into `user_cells`). Returns how many planned cells differ from
    /// their service's previous slot (none counted at slot 0): the
    /// uncapped migration count.
    fn draw_tile(
        &mut self,
        len: usize,
        draw: bool,
        user_cells: Option<&mut TrajectoryArena>,
    ) -> usize {
        let FleetStepper {
            model,
            service_starts,
            bands,
            band_users,
            user_row,
            stride,
            tile,
            slot,
            ..
        } = self;
        let (model, starts, stride, slot0) = (*model, &service_starts[..], *stride, *slot);
        let mut cells = &mut user_row[..];
        let mut planned = &mut tile[..];
        let mut user_rows =
            user_cells.map(|arena| arena.chunks_of_rows_mut(*band_users).into_iter());
        let jobs = bands.iter_mut().map(|band| {
            let users = band.rngs.len();
            let services = starts[band.first + users] - starts[band.first];
            (
                band,
                take_front(&mut cells, users),
                take_front(&mut planned, services * stride),
                user_rows.as_mut().and_then(Iterator::next),
            )
        });
        let moves = AtomicUsize::new(0);
        run_bands(jobs, |(band, cells, planned, mut user_rows)| {
            let base = starts[band.first];
            let mut band_moves = 0usize;
            let mut lanes = &mut band.chaffs[..];
            for (i, (now, rng)) in cells.iter_mut().zip(&mut band.rngs).enumerate() {
                let user = band.first + i;
                let (lo, hi) = (starts[user] - base, starts[user + 1] - base);
                let (real, chaffs) = planned[lo * stride..hi * stride].split_at_mut(stride);
                // Slot by slot: the user's cell from that slot's
                // epoch-active chain and its own stream (the real service
                // follows it), then each chaff lane's cell, in lane
                // order, from its own stream. The user's and the lanes'
                // walks are independent chains of dependent draws, so
                // interleaving them per slot lets them overlap. Each cell
                // is counted against its service's previous slot, which
                // at `j = 0` is the previous tile's last.
                let fixed = model.stationary_chain(user);
                let user_lanes = take_front(&mut lanes, hi - lo - 1);
                let mut cell = *now;
                for j in 0..len {
                    let t = slot0 + j;
                    let back = if j == 0 { stride - 1 } else { j - 1 };
                    let counted = usize::from(t > 0);
                    if draw {
                        let chain = fixed.unwrap_or_else(|| model.chain_at_slot(user, t));
                        cell = if t == 0 {
                            chain.initial().sample(rng)
                        } else {
                            chain.step(cell, rng)
                        };
                    }
                    band_moves += usize::from(real[back] != cell) & counted;
                    real[j] = cell;
                    // Lane `c`'s column starts at `c · stride` (indexed, not
                    // chunked: no division per user).
                    for (c, (lane, chaff_rng)) in user_lanes.iter_mut().enumerate() {
                        let next = lane.advance(cell, &[], chaff_rng);
                        let column = c * stride;
                        band_moves += usize::from(chaffs[column + back] != next) & counted;
                        chaffs[column + j] = next;
                    }
                }
                *now = cell;
                if let Some(rows) = &mut user_rows {
                    rows.row_mut(i)[slot0..slot0 + len].copy_from_slice(&real[..len]);
                }
            }
            moves.fetch_add(band_moves, Ordering::Relaxed);
        });
        moves.into_inner()
    }
}

/// The anonymizing gather: `out` holds observed rows, slot-major, each
/// `inv.len()` wide, and `rows[j][p] = src[inv[p] · stride + j]`. The
/// destination columns are cut into `bands` ranges, one pool job each;
/// `inv` is a bijection, so every output cell is written once.
fn gather(inv: &[u32], src: &[CellId], stride: usize, out: &mut [CellId], bands: usize) {
    let width = inv.len();
    let band_len = width.div_ceil(bands.max(1)).max(1);
    let mut rows: Vec<_> = out
        .chunks_exact_mut(width)
        .map(|row| row.chunks_mut(band_len))
        .collect();
    let jobs = inv.chunks(band_len).map(|inv_band| {
        let outs: Vec<&mut [CellId]> = rows.iter_mut().filter_map(Iterator::next).collect();
        (inv_band, outs)
    });
    run_bands(jobs, |(inv_band, mut outs)| {
        if let [row] = &mut outs[..] {
            for (cell, &service) in row.iter_mut().zip(inv_band) {
                *cell = src[service as usize * stride];
            }
        } else {
            for (p, &service) in inv_band.iter().enumerate() {
                let column = &src[service as usize * stride..][..outs.len()];
                for (row, &cell) in outs.iter_mut().zip(column) {
                    row[p] = cell;
                }
            }
        }
    });
}

/// Seed stream for the anonymization shuffle (kept separate from user
/// streams so adding users never perturbs the permutation draw).
fn shuffle_seed(base: u64) -> u64 {
    user_seed(base, 0xF1EE_7000_0000_0001)
}

/// The per-user service offset table: user `u` owns global services
/// `starts[u]..starts[u + 1]` (real service first, then its chaffs).
/// Checked arithmetic throughout — oversized budgets fail typed
/// ([`SimError::BudgetOverflow`]) before any allocation, including the
/// `total × horizon` cell count the columnar stores would need.
fn service_layout<B>(num_users: usize, horizon: usize, budget_of: B) -> Result<Vec<usize>>
where
    B: Fn(usize) -> usize,
{
    let overflow = || SimError::BudgetOverflow { users: num_users };
    let mut service_starts = Vec::with_capacity(num_users + 1);
    let mut total = 0usize;
    service_starts.push(0);
    for user in 0..num_users {
        let services = budget_of(user).checked_add(1).ok_or_else(overflow)?;
        total = total.checked_add(services).ok_or_else(overflow)?;
        service_starts.push(total);
    }
    total.checked_mul(horizon).ok_or_else(overflow)?;
    Ok(service_starts)
}

/// Rejects a capacity-limited fleet with more services than the network
/// has slots (`num_cells × capacity`), before any engine state exists.
/// A fleet that fits can never run out of capacity: the launch finds a
/// node for every service, and a replay always has the node a service
/// just released.
fn check_fleet_fits(config: &FleetConfig, num_cells: usize, num_services: usize) -> Result<()> {
    let Some(capacity) = config.node_capacity else {
        return Ok(());
    };
    match num_cells.checked_mul(capacity) {
        Some(slots) if slots < num_services => Err(SimError::InvalidConfig {
            parameter: "node_capacity",
            reason: format!(
                "{num_services} services exceed {num_cells} nodes × {capacity} instances"
            ),
        }),
        _ => Ok(()),
    }
}

/// Cuts the front `len` elements off `rest` and returns them, leaving
/// the remainder in `rest`.
pub(crate) fn take_front<'s, T>(rest: &mut &'s mut [T], len: usize) -> &'s mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(len);
    *rest = back;
    front
}

/// Runs `work` on every band, one job per band on the process-wide
/// pool. Bands own disjoint data, so the result never depends on which
/// band runs first.
pub(crate) fn run_bands<B: Send>(bands: impl Iterator<Item = B>, work: impl Fn(B) + Sync) {
    let mut bands = bands.peekable();
    let Some(first) = bands.next() else { return };
    if bands.peek().is_none() {
        return work(first);
    }
    let work = &work;
    chaff_core::pool::global().scope(|scope| {
        scope.spawn(move || work(first));
        for band in bands {
            scope.spawn(move || work(band));
        }
    });
}
