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

use crate::fleet::{
    chaff_seed, user_seed, FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetModel,
    FleetStats,
};
use crate::network::MecNetwork;
use crate::observer::fisher_yates;
use crate::{Result, SimError};
use chaff_core::strategy::{cml_step, im_step, mo_step};
use chaff_markov::{CellId, MarkovChain, TrajectoryArena};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Slots per tile of a batch run: long enough that a user's RNG and
/// chaff lanes stay hot across many slots and the two pool scopes per
/// tile are few, short enough that the `services × tile` scratch stays
/// a fraction of the observed grid at day-long horizons.
pub(crate) const BATCH_TILE_SLOTS: usize = 16;

/// The persistent state of one user band: users `first..first +
/// rngs.len()`, their RNGs and their chaff lanes.
struct Band {
    first: usize,
    rngs: Vec<StdRng>,
    lanes: Lanes,
}

/// The chaff lanes of one band, one flat vector per strategy in user
/// then lane order, each holding only what its strategy's step reads.
/// A lane's chain is its user's chain at the slot (lanes advance once
/// per slot from slot 0, in step with the user), and slot 0 is the
/// launch slot, so neither a chain source nor a "launched" flag is
/// stored.
#[derive(Default)]
struct Lanes {
    /// IM: each walk's own `chaff_seed` stream and its cell (40 B a
    /// lane).
    im: Vec<(StdRng, CellId)>,
    /// CML: each chaff's cell (4 B a lane; CML draws nothing).
    cml: Vec<CellId>,
    /// MO: each chaff's and its user's previous cells and its gap `γ`
    /// (16 B a lane; MO draws nothing).
    mo: Vec<MoLane>,
}

#[derive(Clone, Copy)]
struct MoLane {
    chaff: CellId,
    user: CellId,
    gamma: f64,
}

impl Lanes {
    /// The lanes of `users`, whose budgets and strategies are given:
    /// each vector sized exactly, and only IM lanes seeded.
    fn build(
        users: impl Iterator<Item = (usize, usize, FleetChaffStrategy)> + Clone,
        seed: u64,
    ) -> Self {
        let mut counts = [0usize; 3];
        for (_, budget, strategy) in users.clone() {
            counts[strategy as usize] += budget;
        }
        let origin = CellId::new(0);
        let mut im = Vec::with_capacity(counts[FleetChaffStrategy::Im as usize]);
        for (user, budget, strategy) in users {
            if strategy == FleetChaffStrategy::Im {
                im.extend((0..budget).map(|c| {
                    let seed = chaff_seed(seed, user as u64, c as u64);
                    (StdRng::seed_from_u64(seed), origin)
                }));
            }
        }
        Lanes {
            im,
            cml: vec![origin; counts[FleetChaffStrategy::Cml as usize]],
            mo: vec![
                MoLane {
                    chaff: origin,
                    user: origin,
                    gamma: 0.0,
                };
                counts[FleetChaffStrategy::Mo as usize]
            ],
        }
    }
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
    /// The chaff strategy of each mobility class.
    strategies: Vec<FleetChaffStrategy>,
    bands: Vec<Band>,
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
        let strategies: Vec<FleetChaffStrategy> = (0..model.num_classes())
            .map(|class| policy.strategy_of(class))
            .collect();
        let mut bands: Vec<Band> = (0..n)
            .step_by(band_users)
            .map(|first| Band {
                first,
                rngs: Vec::new(),
                lanes: Lanes::default(),
            })
            .collect();
        let (starts, seed, strategies_of) = (&service_starts, config.seed, &strategies);
        run_bands(bands.iter_mut(), |band| {
            let users = band.first..(band.first + band_users).min(n);
            band.lanes = Lanes::build(
                users.clone().map(|user| {
                    let budget = starts[user + 1] - starts[user] - 1;
                    (user, budget, strategies_of[model.class_of(user)])
                }),
                seed,
            );
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
            strategies,
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

    /// Bands of the draw kernel, and of the gather.
    pub(crate) fn num_bands(&self) -> usize {
        self.bands.len()
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
    /// [`user_row_mut`](Self::user_row_mut), and `len` must be 1. A
    /// `tally` (one-slot tiles only) is filled as the row is gathered.
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
        mut tally: Option<UserTally<'_>>,
    ) -> Result<()> {
        debug_assert!((1..=self.stride).contains(&len) && self.slot + len <= self.horizon);
        debug_assert!(draw || len == 1, "ingested rows arrive one slot at a time");
        debug_assert!(
            tally.is_none() || self.stride == 1,
            "a tally counts one row"
        );
        let width = self.num_services();
        debug_assert_eq!(out.len(), len * width);
        let moves = self.draw_tile(len, draw, user_cells);
        let bands = self.bands.len();
        match &mut self.network {
            None => {
                self.stats.migrations += moves;
                gather(&self.inv, &self.tile, self.stride, out, bands, tally);
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
                    gather(&self.inv, actual, 1, out_row, bands, tally.take());
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
            strategies,
            bands,
            band_users,
            user_row,
            stride,
            tile,
            slot,
            ..
        } = self;
        let (starts, strategies) = (&service_starts[..], &strategies[..]);
        let shape = TileShape {
            model: *model,
            slot0: *slot,
            len,
            stride: *stride,
            draw,
        };
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
                take_front(&mut planned, services * shape.stride),
                user_rows.as_mut().and_then(Iterator::next),
            )
        });
        let moves = AtomicUsize::new(0);
        run_bands(jobs, |(band, cells, planned, mut user_rows)| {
            let base = starts[band.first];
            let mut band_moves = 0usize;
            let Lanes { im, cml, mo } = &mut band.lanes;
            let (mut im, mut cml, mut mo) = (&mut im[..], &mut cml[..], &mut mo[..]);
            for (i, (now, rng)) in cells.iter_mut().zip(&mut band.rngs).enumerate() {
                let user = band.first + i;
                let (lo, hi) = (starts[user] - base, starts[user + 1] - base);
                let columns = &mut planned[lo * shape.stride..hi * shape.stride];
                let lanes = hi - lo - 1;
                // Each strategy's step reads only its lane's own state,
                // its user's cell and the slot's chain; `t == 0` is the
                // launch slot.
                band_moves += match (lanes > 0).then(|| strategies[model.class_of(user)]) {
                    None => shape.walk_user(user, now, rng, columns, 0, |_, _, _, cell| cell),
                    Some(FleetChaffStrategy::Im) => {
                        let lanes_of_user = take_front(&mut im, lanes);
                        shape.walk_user(user, now, rng, columns, lanes, |c, chain, t, _| {
                            let (rng, cell) = &mut lanes_of_user[c];
                            *cell = im_step(chain, (t > 0).then_some(*cell), rng);
                            *cell
                        })
                    }
                    Some(FleetChaffStrategy::Cml) => {
                        let lanes_of_user = take_front(&mut cml, lanes);
                        shape.walk_user(user, now, rng, columns, lanes, |c, chain, t, cell| {
                            let lane = &mut lanes_of_user[c];
                            *lane = cml_step(chain, (t > 0).then_some(*lane), cell, &[]);
                            *lane
                        })
                    }
                    Some(FleetChaffStrategy::Mo) => {
                        let lanes_of_user = take_front(&mut mo, lanes);
                        shape.walk_user(user, now, rng, columns, lanes, |c, chain, t, cell| {
                            let lane = &mut lanes_of_user[c];
                            let prev = (t > 0).then_some((lane.chaff, lane.user));
                            let next = mo_step(chain, prev, &mut lane.gamma, cell, &[]);
                            (lane.chaff, lane.user) = (next, cell);
                            next
                        })
                    }
                };
                if let Some(rows) = &mut user_rows {
                    let slots = shape.slot0..shape.slot0 + len;
                    rows.row_mut(i)[slots].copy_from_slice(&columns[..len]);
                }
            }
            moves.fetch_add(band_moves, Ordering::Relaxed);
        });
        moves.into_inner()
    }
}

/// What every user of a tile shares in the draw+chaff kernel.
#[derive(Clone, Copy)]
struct TileShape<'a> {
    model: FleetModel<'a>,
    /// The tile's first slot.
    slot0: usize,
    /// Slots in the tile.
    len: usize,
    /// Column length per service.
    stride: usize,
    /// Draw the users' cells (else they were ingested into `now`).
    draw: bool,
}

impl<'a> TileShape<'a> {
    /// Advances `user` and its `lanes` chaff lanes through the tile.
    /// `columns` holds the user's service columns (real service first,
    /// then the lanes, `stride` cells each); `chaff(c, chain, t, cell)`
    /// steps lane `c` at slot `t` under the user's chain given the
    /// user's cell. Slot by slot: the user's cell from that slot's
    /// epoch-active chain and its own stream (the real service follows
    /// it), then each lane's cell, in lane order. The user's and the
    /// lanes' walks are independent chains of dependent draws, so
    /// interleaving them per slot lets them overlap. Each cell is
    /// counted against its service's previous slot, which at `j = 0` is
    /// the previous tile's last. Returns the count.
    #[inline(always)]
    fn walk_user(
        self,
        user: usize,
        now: &mut CellId,
        rng: &mut StdRng,
        columns: &mut [CellId],
        lanes: usize,
        mut chaff: impl FnMut(usize, &'a MarkovChain, usize, CellId) -> CellId,
    ) -> usize {
        let stride = self.stride;
        let (real, chaffs) = columns.split_at_mut(stride);
        let fixed = self.model.stationary_chain(user);
        let mut cell = *now;
        let mut moves = 0usize;
        for j in 0..self.len {
            let t = self.slot0 + j;
            let back = if j == 0 { stride - 1 } else { j - 1 };
            let counted = usize::from(t > 0);
            let chain = fixed.unwrap_or_else(|| self.model.chain_at_slot(user, t));
            if self.draw {
                cell = im_step(chain, (t > 0).then_some(cell), rng);
            }
            moves += usize::from(real[back] != cell) & counted;
            real[j] = cell;
            // Lane `c`'s column starts at `c · stride` (indexed, not
            // chunked: no division per user).
            for c in 0..lanes {
                let next = chaff(c, chain, t, cell);
                let column = c * stride;
                moves += usize::from(chaffs[column + back] != next) & counted;
                chaffs[column + j] = next;
            }
        }
        *now = cell;
        moves
    }
}

/// Per gather band, how many real user services were placed in each
/// cell: `hists[band · states + cell]`, counted by the band's gather job
/// as it writes the row (bands the gather does not reach stay as they
/// are, zero).
pub(crate) struct UserTally<'t> {
    /// `is_user[p]`: does observed position `p` carry a real user?
    pub(crate) is_user: &'t [bool],
    pub(crate) hists: &'t mut [usize],
    /// Cells per histogram.
    pub(crate) states: usize,
}

/// Observed positions per block of a tallied gather: a few KiB of
/// cells, so the count pass over a block reads it from L1.
const TALLY_BLOCK: usize = 1024;

/// The anonymizing gather: `out` holds observed rows, slot-major, each
/// `inv.len()` wide, and `rows[j][p] = src[inv[p] · stride + j]`. The
/// destination columns are cut into `bands` ranges, one pool job each;
/// `inv` is a bijection, so every output cell is written once. A
/// one-row gather fills `tally` in the same jobs.
fn gather(
    inv: &[u32],
    src: &[CellId],
    stride: usize,
    out: &mut [CellId],
    bands: usize,
    tally: Option<UserTally<'_>>,
) {
    let width = inv.len();
    let band_len = width.div_ceil(bands.max(1)).max(1);
    let mut rows: Vec<_> = out
        .chunks_exact_mut(width)
        .map(|row| row.chunks_mut(band_len))
        .collect();
    let mut tallies = tally.map(|t| t.is_user.chunks(band_len).zip(t.hists.chunks_mut(t.states)));
    let jobs = inv.chunks(band_len).map(|inv_band| {
        let outs: Vec<&mut [CellId]> = rows.iter_mut().filter_map(Iterator::next).collect();
        (inv_band, outs, tallies.as_mut().and_then(Iterator::next))
    });
    run_bands(jobs, |(inv_band, mut outs, tally)| {
        match (&mut outs[..], tally) {
            ([row], None) => {
                for (cell, &service) in row.iter_mut().zip(inv_band) {
                    *cell = src[service as usize * stride];
                }
            }
            ([row], Some((is_user, hist))) => {
                // Block by block: the gather's independent loads stay
                // free of the counts' read-modify-writes, which then run
                // over cells still in L1, into four histograms in turn so
                // that neighbouring cells never wait on each other's
                // store.
                let mut copies = vec![[0usize; 4]; hist.len()];
                let blocks = row
                    .chunks_mut(TALLY_BLOCK)
                    .zip(inv_band.chunks(TALLY_BLOCK));
                for ((row, inv_block), is_user) in blocks.zip(is_user.chunks(TALLY_BLOCK)) {
                    for (cell, &service) in row.iter_mut().zip(inv_block) {
                        *cell = src[service as usize * stride];
                    }
                    let (mut cells, mut users) = (row.chunks_exact(4), is_user.chunks_exact(4));
                    for (cells, users) in (&mut cells).zip(&mut users) {
                        for copy in 0..4 {
                            copies[cells[copy].index()][copy] += usize::from(users[copy]);
                        }
                    }
                    for (cell, &user) in cells.remainder().iter().zip(users.remainder()) {
                        copies[cell.index()][0] += usize::from(user);
                    }
                }
                for (count, copy) in hist.iter_mut().zip(&copies) {
                    *count = copy.iter().sum();
                }
            }
            (outs, _) => {
                for (p, &service) in inv_band.iter().enumerate() {
                    let column = &src[service as usize * stride..][..outs.len()];
                    for (row, &cell) in outs.iter_mut().zip(column) {
                        row[p] = cell;
                    }
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
