//! Checkpoint / resume bridge between the fleet engine and the
//! persistent paged store (`chaff-store`).
//!
//! Two write paths, one for a finished outcome and one for a run in
//! progress:
//!
//! * [`FleetOutcome::checkpoint`] — persist a finished batch run; the
//!   in-memory arenas are walked slot by slot, and the trajectory-major
//!   user arena is transposed into slot rows 16 slots at a time, so the
//!   only extra allocation is a 16-row tile of user cells.
//! * [`StreamingFleetEngine::run_to_store`] — drive a fresh streaming
//!   engine to its horizon, appending every slot as it is produced. The
//!   `N × T` grid never exists in memory on this path: the writer holds
//!   at most one partial page per section, the engine its latest
//!   observed row.
//!
//! [`FleetOutcome::restore`] is the inverse of both: the streaming
//! engine and the batch run step the same fleet stepper, so a store
//! written by either path restores to the same [`FleetOutcome`].
//!
//! A run killed before `finish` leaves a footer-less file that
//! [`FleetStoreReader::open`] rejects as `StoreError::Truncated`
//! (surfaced here as [`SimError::Store`]) — resume logic can therefore
//! distinguish "checkpoint usable" from "regenerate" with one `open`.

use crate::fleet::{FleetOutcome, FleetStats};
use crate::streaming::{SlotStep, StreamingFleetEngine};
use crate::{Result, SimError};
use chaff_markov::{CellId, TrajectoryArena};
use chaff_store::{FleetStoreReader, FleetStoreWriter, StoreMeta, StoreStats};
use std::path::Path;

impl From<FleetStats> for StoreStats {
    fn from(s: FleetStats) -> Self {
        StoreStats {
            migrations: s.migrations,
            spills: s.spills,
            user_slots: s.user_slots,
            chaff_services: s.chaff_services,
        }
    }
}

impl From<StoreStats> for FleetStats {
    fn from(s: StoreStats) -> Self {
        FleetStats {
            migrations: s.migrations,
            spills: s.spills,
            user_slots: s.user_slots,
            chaff_services: s.chaff_services,
        }
    }
}

impl FleetOutcome {
    /// Persists this outcome as a complete store file at `path`
    /// (created or truncated).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on any store-layer failure (I/O,
    /// layout validation).
    pub fn checkpoint(&self, path: impl AsRef<Path>) -> Result<()> {
        let num_services = self.observed.num_trajectories();
        let num_users = self.user_cells.num_trajectories();
        let horizon = self.observed.horizon();
        let meta = StoreMeta {
            num_services,
            num_users,
            horizon,
            // The sharded log's boundaries are an artifact of generation
            // parallelism, erased by the anonymization shuffle; a
            // finished outcome persists the trivial single-shard table.
            shard_starts: vec![0, num_services],
            user_observed_indices: self.user_observed_indices.clone(),
        };
        let mut writer = FleetStoreWriter::create(path, meta).map_err(SimError::Store)?;
        // One transpose tile of user rows at a time keeps the scratch at
        // `O(16 · users)` however long the horizon.
        const TILE: usize = TrajectoryArena::TRANSPOSE_TILE;
        let mut tile = vec![CellId::new(0); TILE.min(horizon) * num_users];
        for t0 in (0..horizon).step_by(TILE) {
            let t1 = (t0 + TILE).min(horizon);
            let user_rows = &mut tile[..(t1 - t0) * num_users];
            self.user_cells.copy_slots_into(t0..t1, user_rows);
            for t in t0..t1 {
                let k = t - t0;
                writer
                    .append_slot(
                        self.observed.row(t),
                        &user_rows[k * num_users..(k + 1) * num_users],
                    )
                    .map_err(SimError::Store)?;
            }
        }
        writer.finish(self.stats.into()).map_err(SimError::Store)
    }

    /// Restores a fleet outcome from a store file, bit-for-bit equal to
    /// the outcome that was checkpointed (or streamed) into it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] when the file is missing, truncated,
    /// corrupt or from an unsupported format version — every mode is a
    /// typed [`chaff_store::StoreError`], never a panic.
    pub fn restore(path: impl AsRef<Path>) -> Result<FleetOutcome> {
        let mut reader = FleetStoreReader::open(path).map_err(SimError::Store)?;
        let fleet = reader.load().map_err(SimError::Store)?;
        Ok(FleetOutcome {
            observed: fleet.observed,
            user_observed_indices: fleet.user_observed_indices,
            user_cells: fleet.user_cells,
            stats: fleet.stats.into(),
        })
    }
}

impl StreamingFleetEngine<'_> {
    /// Drives a *fresh* engine to its horizon, appending every slot to a
    /// store file at `path` as it is produced, then seals the store.
    /// Returns the per-slot detection steps.
    ///
    /// Memory stays horizon-independent: the engine's one row plus at most
    /// one partial page per store section. The resulting file restores
    /// ([`FleetOutcome::restore`]) to exactly the outcome of
    /// [`FleetSimulation::run_chaffed`](crate::fleet::FleetSimulation::run_chaffed)
    /// for the same configuration and policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the engine has already
    /// run slots (the store must contain the full horizon from slot 0),
    /// [`SimError::Store`] on store-layer failures, and propagates
    /// engine errors from [`step`](StreamingFleetEngine::step).
    pub fn run_to_store(&mut self, path: impl AsRef<Path>) -> Result<Vec<SlotStep>> {
        if self.slots_run() != 0 {
            return Err(SimError::InvalidConfig {
                parameter: "slots_run",
                reason: format!(
                    "run_to_store needs a fresh engine, but {} slots have already run",
                    self.slots_run()
                ),
            });
        }
        let meta = StoreMeta {
            num_services: self.num_services(),
            num_users: self.num_users(),
            horizon: self.horizon(),
            shard_starts: vec![0, self.num_services()],
            user_observed_indices: self.user_observed_indices().to_vec(),
        };
        let mut writer = FleetStoreWriter::create(path, meta).map_err(SimError::Store)?;
        let mut steps = Vec::with_capacity(self.horizon());
        while let Some(step) = self.step()? {
            writer
                .append_slot(&self.row, self.last_user_row())
                .map_err(SimError::Store)?;
            steps.push(step);
        }
        writer
            .finish(self.stats().into())
            .map_err(SimError::Store)?;
        Ok(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetChaffPolicy, FleetConfig, FleetSimulation};
    use crate::test_support::{mixed_registry, strategy_from};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("chaff_persist_{}_{name}", std::process::id()))
    }

    fn outcome_eq(a: &FleetOutcome, b: &FleetOutcome) {
        assert_eq!(a.observed, b.observed);
        assert_eq!(a.user_observed_indices, b.user_observed_indices);
        assert_eq!(a.user_cells, b.user_cells);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn checkpoint_restore_round_trips_a_chaffed_fleet() {
        let registry = mixed_registry(1709, 8, 2);
        let policy = FleetChaffPolicy::uniform(strategy_from(1), 2);
        let config = FleetConfig::new(60, 9).with_seed(7).with_shards(3);
        let outcome = FleetSimulation::with_registry(&registry, config)
            .run_chaffed(&policy)
            .unwrap();
        let path = temp_path("roundtrip");
        outcome.checkpoint(&path).unwrap();
        let restored = FleetOutcome::restore(&path).unwrap();
        outcome_eq(&outcome, &restored);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_restore_is_bit_for_bit_at_tile_edge_horizons() {
        let (users, services) = (37, 74);
        for horizon in [0usize, 1, 15, 16, 17, 33] {
            let mut observed = chaff_markov::CellGrid::with_horizon(services, horizon);
            for t in 0..horizon {
                for (i, cell) in observed.row_mut(t).iter_mut().enumerate() {
                    *cell = CellId::new((t * 7919 + i * 104_729) % 1_000_003);
                }
            }
            let mut user_cells = chaff_markov::TrajectoryArena::new(users, horizon);
            for u in 0..users {
                for (t, cell) in user_cells.row_mut(u).iter_mut().enumerate() {
                    *cell = CellId::new(u * 1_000 + t);
                }
            }
            let outcome = FleetOutcome {
                observed,
                user_observed_indices: (0..users).map(|u| 2 * u + 1).collect(),
                user_cells,
                stats: FleetStats {
                    migrations: horizon,
                    spills: 0,
                    user_slots: users * horizon,
                    chaff_services: users,
                },
            };
            let path = temp_path(&format!("tile_edge_{horizon}"));
            outcome.checkpoint(&path).unwrap();
            outcome_eq(&outcome, &FleetOutcome::restore(&path).unwrap());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn streamed_store_restores_to_the_batch_outcome() {
        let registry = mixed_registry(42, 10, 3);
        let policy = FleetChaffPolicy::uniform(strategy_from(2), 1);
        let config = FleetConfig::new(50, 11).with_seed(3);
        let batch = FleetSimulation::with_registry(&registry, config.clone())
            .run_chaffed(&policy)
            .unwrap();
        let mut engine = StreamingFleetEngine::with_registry(&registry, config, &policy).unwrap();
        let path = temp_path("streamed");
        let steps = engine.run_to_store(&path).unwrap();
        assert_eq!(steps.len(), 11);
        let restored = FleetOutcome::restore(&path).unwrap();
        outcome_eq(&batch, &restored);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn run_to_store_rejects_a_used_engine() {
        let registry = mixed_registry(5, 6, 1);
        let policy = FleetChaffPolicy::uniform(strategy_from(0), 0);
        let config = FleetConfig::new(4, 5).with_seed(1);
        let mut engine = StreamingFleetEngine::with_registry(&registry, config, &policy).unwrap();
        engine.step().unwrap();
        let err = engine.run_to_store(temp_path("used")).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    fn restoring_a_missing_or_truncated_file_is_a_typed_store_error() {
        let path = temp_path("missing");
        let err = FleetOutcome::restore(&path).unwrap_err();
        assert!(matches!(err, SimError::Store(_)));
        assert!(err.to_string().contains("fleet store"));
        // A footer-less (killed mid-write) file is rejected the same way.
        std::fs::write(&path, vec![0u8; 256]).unwrap();
        let err = FleetOutcome::restore(&path).unwrap_err();
        assert!(matches!(
            err,
            SimError::Store(chaff_store::StoreError::BadMagic { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
