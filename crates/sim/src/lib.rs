//! Slotted MEC simulator: the system context of the paper made executable.
//!
//! The paper's threat model (Secs. I–II) lives in an edge-cloud system:
//! services run in MECs (one per coverage cell), migrate to follow their
//! users, and a *cyber eavesdropper* inside the MEC platform observes
//! those migrations. This crate simulates that system end to end:
//!
//! * [`network`] — MEC nodes with optional per-node service capacity;
//! * [`migration`] — migration policies for the real service: the paper's
//!   worst-case *always-follow* (delay-sensitive services must stay
//!   co-located, Sec. II-A) plus a cost-aware *lazy* policy as the
//!   extension flagged in the paper's discussion;
//! * [`cost`] — migration / communication / chaff running costs, so the
//!   cost-privacy trade-off (Sec. VIII) is measurable;
//! * [`observer`] — the eavesdropper's observation log: anonymized but
//!   linkable per-service trajectories, exactly what the detectors in
//!   `chaff-core` consume;
//! * [`sim`] — the single-user driver, in two modes: fully online
//!   (per-slot chaff controllers) and planned (offline strategies like OO
//!   that need the user's whole trajectory);
//! * [`fleet`] — the fleet engine: banded simulation of thousands to
//!   millions of concurrent users through one shared MEC world, stepped
//!   to the horizon in slot tiles and paired with the batched detection
//!   core in `chaff-core`;
//! * [`streaming`] — the online form of the same engine: the fleet
//!   advanced one slot at a time with incremental detection and a
//!   horizon-independent memory bound, bit-for-bit equal to the batch
//!   pipeline;
//! * [`persist`] — checkpoint / restore through the paged on-disk store
//!   (`chaff-store`): batch outcomes persist slot by slot, the streaming
//!   engine appends as it runs, and either file restores bit-for-bit.
//!
//! # Example
//!
//! ```
//! use chaff_sim::sim::{Simulation, SimConfig};
//! use chaff_core::strategy::MoStrategy;
//! use chaff_markov::{models::ModelKind, MarkovChain};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let chain = MarkovChain::new(ModelKind::NonSkewed.build(10, &mut rng)?)?;
//! let outcome = Simulation::new(&chain, SimConfig::new(50, 1))
//!     .run_planned(&MoStrategy, &mut rng)?;
//! assert_eq!(outcome.observed.len(), 2); // user + 1 chaff
//! assert_eq!(outcome.observed[outcome.user_observed_index].len(), 50);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod cost;
pub mod fleet;
pub mod migration;
pub mod network;
pub mod observer;
pub mod persist;
pub mod sim;
mod stepper;
pub mod streaming;
pub mod test_support;

pub use error::SimError;

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, SimError>;
