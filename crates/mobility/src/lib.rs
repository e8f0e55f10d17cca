//! Mobility and trace substrate for the chaff-based location-privacy
//! system.
//!
//! The paper's trace-driven evaluation (Sec. VII-B) builds a mobility model
//! from the CRAWDAD `epfl/mobility` taxi traces: node positions are
//! quantized into 959 Voronoi cells induced by cell-tower locations
//! (towers within 100 m of another ignored), inactive nodes (no update for
//! 5 minutes) are filtered, update intervals are regularized by linear
//! interpolation, and the 174 surviving traces induce an empirical
//! transition matrix and occupancy distribution.
//!
//! This crate implements that entire pipeline:
//!
//! * [`geo`] — planar geography: points, bounding boxes, distances;
//! * [`towers`] — cell-tower layout generators plus the paper's
//!   minimum-separation filter;
//! * [`voronoi`] — nearest-tower quantization with a grid index;
//! * [`record`] — raw GPS trace records and per-node traces;
//! * [`crawdad`] — parser for the CRAWDAD `epfl/mobility` text format, so
//!   the real dataset can be dropped in;
//! * [`taxi`] — a seeded synthetic taxi-fleet generator substituting for
//!   the (license-gated) real traces, tuned to reproduce their
//!   spatially/temporally skewed statistics;
//! * [`interpolate`] — inactive-node filtering and linear interpolation to
//!   regular slots (the paper's footnote 11);
//! * [`empirical`] — empirical Markov-model estimation from quantized
//!   trajectories, including the mergeable integer-count accumulator the
//!   sharded engine reduces over and its epoch-indexed variant (one
//!   count set per epoch of an `EpochSchedule`);
//! * [`stream`] — streaming trace sources ([`stream::TraceStream`]):
//!   per-node record batches from the synthetic generator (bit-for-bit
//!   the eager stream), replica-amplified fleets for 10⁴–10⁵-node
//!   ingestion, and batched CRAWDAD directory reading;
//! * [`pipeline`] — the end-to-end dataset builder used by the evaluation
//!   harness: one sharded ingestion engine behind `build()` and
//!   `build_from_stream()`, bit-for-bit independent of shard count and
//!   batch size.
//!
//! # Example
//!
//! ```
//! use chaff_mobility::pipeline::TraceDatasetBuilder;
//!
//! # fn main() -> Result<(), chaff_mobility::MobilityError> {
//! let dataset = TraceDatasetBuilder::new()
//!     .num_nodes(20)
//!     .num_towers(50)
//!     .horizon_slots(30)
//!     .seed(7)
//!     .build()?;
//! assert!(dataset.trajectories().len() <= 20); // inactive nodes filtered
//! assert_eq!(dataset.model().num_states(), dataset.cell_map().num_cells());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod crawdad;
pub mod empirical;
pub mod geo;
pub mod interpolate;
pub mod pipeline;
pub mod record;
pub mod stream;
pub mod taxi;
pub mod towers;
pub mod voronoi;

pub use error::MobilityError;

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, MobilityError>;
