//! Streaming trace sources: per-node record batches instead of
//! whole-fleet `Vec`s.
//!
//! Materializing every raw GPS record of every node before the first
//! slot is quantized is fine at the paper's 174 nodes and a memory wall
//! at the 10⁴–10⁵-node fleets the fleet engine simulates. A
//! [`TraceStream`] instead hands the ingestion engine
//! ([`crate::pipeline::TraceDatasetBuilder`]) one batch of
//! [`NodeTrace`]s at a time; raw records live only as long as their
//! batch, while the (much smaller) quantized trajectories and the
//! mergeable transition-count accumulator persist.
//!
//! Sources:
//!
//! * [`TaxiTraceStream`] — the synthetic taxi generator, emitting the
//!   *exact* node sequence of [`crate::taxi::generate_fleet`] (same RNG
//!   stream), so a streamed fleet is bit-for-bit the eager one;
//! * [`ReplicatedTaxiStream`] — the amplification knob: `R` statistical
//!   replicas of one fleet configuration, each driven by its own
//!   SplitMix64-derived seed, synthesizing 10⁴–10⁵-node fleets from a
//!   174-node recipe;
//! * [`CrawdadDirStream`] — the real dataset, one batch of `new_*.txt`
//!   files at a time, with optional strict bounding-box validation;
//! * [`VecTraceStream`] — adapter for already-materialized traces
//!   (external datasets, test fixtures).

use crate::crawdad;
use crate::geo::BoundingBox;
use crate::record::NodeTrace;
use crate::taxi::{self, TaxiFleetConfig};
use crate::{MobilityError, Result};
use chaff_core::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// A source of node traces, delivered in batches.
///
/// Exhaustion is signalled by an empty batch; afterwards the stream keeps
/// returning empty batches.
pub trait TraceStream {
    /// Earliest first-record timestamp over every node the stream will
    /// emit, when known without draining the stream (the ingestion engine
    /// buffers the whole stream to find it otherwise).
    fn window_start(&self) -> Option<i64>;

    /// Total number of nodes the stream will emit, when known (sizing
    /// hint only — streams may emit fewer or more).
    fn len_hint(&self) -> Option<usize>;

    /// The next batch of up to `max_nodes` traces (empty = exhausted).
    ///
    /// # Errors
    ///
    /// Source-specific: I/O and parse errors for file-backed streams,
    /// configuration errors for generators.
    fn next_batch(&mut self, max_nodes: usize) -> Result<Vec<NodeTrace>>;
}

/// Adapter exposing an already-materialized trace set as a stream.
#[derive(Debug)]
pub struct VecTraceStream {
    traces: std::vec::IntoIter<NodeTrace>,
    window_start: Option<i64>,
    remaining: usize,
}

impl VecTraceStream {
    /// Wraps `traces` (emitted in order).
    pub fn new(traces: Vec<NodeTrace>) -> Self {
        let window_start = traces
            .iter()
            .filter_map(|t| t.records.first().map(|r| r.timestamp))
            .min();
        let remaining = traces.len();
        VecTraceStream {
            traces: traces.into_iter(),
            window_start,
            remaining,
        }
    }
}

impl TraceStream for VecTraceStream {
    fn window_start(&self) -> Option<i64> {
        self.window_start
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }

    fn next_batch(&mut self, max_nodes: usize) -> Result<Vec<NodeTrace>> {
        let take = max_nodes.min(self.remaining);
        let batch: Vec<NodeTrace> = self.traces.by_ref().take(take).collect();
        self.remaining -= batch.len();
        Ok(batch)
    }
}

/// The synthetic taxi fleet as a stream: node `i` is generated lazily on
/// demand, drawing from exactly the RNG stream
/// [`crate::taxi::generate_fleet`] would have used (hotspots first, then
/// taxis in index order) — so a streamed build is bit-for-bit identical
/// to the eager one.
#[derive(Debug)]
pub struct TaxiTraceStream {
    config: TaxiFleetConfig,
    hotspots: Vec<crate::geo::GeoPoint>,
    rng: StdRng,
    next: usize,
}

impl TaxiTraceStream {
    /// Creates a stream seeded independently (hotspots are drawn from
    /// `seed`'s stream immediately).
    ///
    /// # Errors
    ///
    /// Returns configuration errors from [`TaxiFleetConfig::validate`].
    pub fn new(config: TaxiFleetConfig, seed: u64) -> Result<Self> {
        Self::with_rng(config, StdRng::seed_from_u64(seed))
    }

    /// Creates a stream continuing an existing RNG — the constructor the
    /// pipeline uses so the tower draw and the fleet draw share one
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from [`TaxiFleetConfig::validate`].
    pub fn with_rng(config: TaxiFleetConfig, mut rng: StdRng) -> Result<Self> {
        config.validate()?;
        let hotspots = taxi::sample_hotspots(&config, &mut rng);
        Ok(TaxiTraceStream {
            config,
            hotspots,
            rng,
            next: 0,
        })
    }
}

impl TraceStream for TaxiTraceStream {
    fn window_start(&self) -> Option<i64> {
        // Every synthetic taxi's first record sits at the window start.
        Some(self.config.start_timestamp)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.config.num_nodes - self.next)
    }

    fn next_batch(&mut self, max_nodes: usize) -> Result<Vec<NodeTrace>> {
        let end = self.config.num_nodes.min(self.next + max_nodes);
        let batch = (self.next..end)
            .map(|i| taxi::generate_taxi(i, &self.config, &self.hotspots, &mut self.rng))
            .collect();
        self.next = end;
        Ok(batch)
    }
}

/// The amplification knob: `replicas` statistical copies of one
/// [`TaxiFleetConfig`], concatenated. Replica `r` draws its own hotspot
/// layout and taxis from an independent SplitMix64 stream
/// ([`derive_seed`]`(base_seed, r)`), and its node ids carry an `@r<r>`
/// suffix so the amplified fleet's identifiers stay unique.
#[derive(Debug)]
pub struct ReplicatedTaxiStream {
    config: TaxiFleetConfig,
    base_seed: u64,
    replicas: usize,
    current: Option<(usize, TaxiTraceStream)>,
    next_replica: usize,
    emitted: usize,
}

impl ReplicatedTaxiStream {
    /// Creates an amplified stream of `replicas` fleets.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from [`TaxiFleetConfig::validate`],
    /// and an invalid-config error when `replicas == 0`.
    pub fn new(config: TaxiFleetConfig, base_seed: u64, replicas: usize) -> Result<Self> {
        if replicas == 0 {
            return Err(MobilityError::InvalidConfig {
                parameter: "replicas",
                reason: "must be positive".into(),
            });
        }
        config.validate()?;
        Ok(ReplicatedTaxiStream {
            config,
            base_seed,
            replicas,
            current: None,
            next_replica: 0,
            emitted: 0,
        })
    }

    /// Total nodes the amplified fleet will emit.
    pub fn total_nodes(&self) -> usize {
        self.config.num_nodes * self.replicas
    }
}

impl TraceStream for ReplicatedTaxiStream {
    fn window_start(&self) -> Option<i64> {
        Some(self.config.start_timestamp)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.total_nodes() - self.emitted)
    }

    fn next_batch(&mut self, max_nodes: usize) -> Result<Vec<NodeTrace>> {
        loop {
            if self.current.is_none() {
                if self.next_replica >= self.replicas {
                    return Ok(Vec::new());
                }
                let r = self.next_replica;
                self.next_replica += 1;
                let stream = TaxiTraceStream::new(
                    self.config.clone(),
                    derive_seed(self.base_seed, r as u64),
                )?;
                self.current = Some((r, stream));
            }
            let (r, stream) = self.current.as_mut().expect("just ensured");
            let replica = *r;
            let mut batch = stream.next_batch(max_nodes)?;
            if batch.is_empty() {
                self.current = None;
                continue;
            }
            for trace in &mut batch {
                trace.node_id = format!("{}@r{replica:03}", trace.node_id);
            }
            self.emitted += batch.len();
            return Ok(batch);
        }
    }
}

/// Streams a CRAWDAD directory one batch of `new_*.txt` files at a time.
///
/// File order is sorted (deterministic). With
/// [`with_bbox`](CrawdadDirStream::with_bbox) set, every parsed trace is
/// validated against the box and an out-of-box record fails ingestion
/// with a typed [`MobilityError::OutOfBbox`] naming the node.
///
/// The earliest timestamp of a directory is unknown without reading every
/// file, so [`window_start`](TraceStream::window_start) is `None` unless
/// pinned via [`with_window_start`](CrawdadDirStream::with_window_start);
/// the ingestion engine buffers the whole stream in that case.
#[derive(Debug)]
pub struct CrawdadDirStream {
    files: Vec<PathBuf>,
    next: usize,
    bbox: Option<BoundingBox>,
    window_start: Option<i64>,
}

impl CrawdadDirStream {
    /// Opens a directory, listing (but not yet reading) its node files.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing I/O errors.
    pub fn new(dir: &Path) -> Result<Self> {
        Ok(CrawdadDirStream {
            files: crawdad::node_files(dir)?,
            next: 0,
            bbox: None,
            window_start: None,
        })
    }

    /// Enables strict bounding-box validation of every record.
    pub fn with_bbox(mut self, bbox: BoundingBox) -> Self {
        self.bbox = Some(bbox);
        self
    }

    /// Pins the evaluation-window start so the engine can stream without
    /// buffering (the caller knows the dataset's time origin).
    pub fn with_window_start(mut self, start_timestamp: i64) -> Self {
        self.window_start = Some(start_timestamp);
        self
    }
}

impl TraceStream for CrawdadDirStream {
    fn window_start(&self) -> Option<i64> {
        self.window_start
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.files.len() - self.next)
    }

    fn next_batch(&mut self, max_nodes: usize) -> Result<Vec<NodeTrace>> {
        let end = self.files.len().min(self.next + max_nodes);
        let mut batch = Vec::with_capacity(end - self.next);
        for path in &self.files[self.next..end] {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("unknown")
                .to_string();
            let file = std::fs::File::open(path)?;
            let trace = crawdad::parse_node(stem, std::io::BufReader::new(file))?;
            if let Some(bbox) = &self.bbox {
                crawdad::check_bbox(&trace, bbox)?;
            }
            batch.push(trace);
        }
        self.next = end;
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxi::generate_fleet;

    fn small_config() -> TaxiFleetConfig {
        TaxiFleetConfig {
            num_nodes: 9,
            duration_s: 20 * 60,
            ..TaxiFleetConfig::default()
        }
    }

    /// Drains a stream with a given batch size.
    fn drain(stream: &mut dyn TraceStream, batch: usize) -> Vec<NodeTrace> {
        let mut all = Vec::new();
        loop {
            let b = stream.next_batch(batch).unwrap();
            if b.is_empty() {
                return all;
            }
            all.extend(b);
        }
    }

    #[test]
    fn taxi_stream_reproduces_the_eager_generator() {
        let config = small_config();
        let eager = generate_fleet(&config, &mut StdRng::seed_from_u64(55)).unwrap();
        for batch in [1usize, 4, 100] {
            let mut stream = TaxiTraceStream::new(config.clone(), 55).unwrap();
            assert_eq!(stream.window_start(), Some(config.start_timestamp));
            assert_eq!(stream.len_hint(), Some(9));
            let streamed = drain(&mut stream, batch);
            assert_eq!(streamed, eager, "batch = {batch}");
            // Exhausted streams stay exhausted.
            assert!(stream.next_batch(8).unwrap().is_empty());
        }
    }

    #[test]
    fn vec_stream_round_trips_and_reports_window_start() {
        let fleet = generate_fleet(&small_config(), &mut StdRng::seed_from_u64(56)).unwrap();
        let expected_start = fleet
            .iter()
            .filter_map(|t| t.records.first().map(|r| r.timestamp))
            .min();
        let mut stream = VecTraceStream::new(fleet.clone());
        assert_eq!(stream.window_start(), expected_start);
        assert_eq!(drain(&mut stream, 2), fleet);
        assert_eq!(VecTraceStream::new(Vec::new()).window_start(), None);
    }

    #[test]
    fn replicated_stream_amplifies_with_unique_ids() {
        let config = small_config();
        let mut stream = ReplicatedTaxiStream::new(config.clone(), 77, 3).unwrap();
        assert_eq!(stream.total_nodes(), 27);
        let all = drain(&mut stream, 4);
        assert_eq!(all.len(), 27);
        let mut ids: Vec<&str> = all.iter().map(|t| t.node_id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 27, "replica ids must be unique");
        // Replica r is exactly the fleet generated under its derived seed.
        let replica1 =
            generate_fleet(&config, &mut StdRng::seed_from_u64(derive_seed(77, 1))).unwrap();
        for (a, b) in all[9..18].iter().zip(&replica1) {
            assert_eq!(a.node_id, format!("{}@r001", b.node_id));
            assert_eq!(a.records, b.records);
        }
        // Replicas differ statistically (independent streams).
        assert_ne!(all[0].records, all[9].records);
    }

    #[test]
    fn replicated_stream_is_deterministic_and_batch_size_independent() {
        let a = drain(
            &mut ReplicatedTaxiStream::new(small_config(), 78, 2).unwrap(),
            3,
        );
        let b = drain(
            &mut ReplicatedTaxiStream::new(small_config(), 78, 2).unwrap(),
            100,
        );
        assert_eq!(a, b);
        assert!(ReplicatedTaxiStream::new(small_config(), 78, 0).is_err());
    }

    #[test]
    fn crawdad_stream_reads_batches_and_validates_bbox() {
        let dir = std::env::temp_dir().join(format!("crawdad_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sf = "37.751 -122.395 0 100\n37.752 -122.396 0 40\n";
        std::fs::write(dir.join("new_a.txt"), sf).unwrap();
        std::fs::write(dir.join("new_b.txt"), sf).unwrap();
        std::fs::write(dir.join("new_c.txt"), "51.5 -0.1 0 10\n").unwrap();

        let mut stream = CrawdadDirStream::new(&dir).unwrap();
        assert_eq!(stream.window_start(), None);
        let first = stream.next_batch(2).unwrap();
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].node_id, "new_a");
        assert_eq!(stream.next_batch(2).unwrap().len(), 1);

        // Strict bbox rejects the London glitch, naming the node.
        let mut strict = CrawdadDirStream::new(&dir)
            .unwrap()
            .with_bbox(BoundingBox::san_francisco())
            .with_window_start(40);
        assert_eq!(strict.window_start(), Some(40));
        let _ = strict.next_batch(2).unwrap();
        match strict.next_batch(2).unwrap_err() {
            MobilityError::OutOfBbox { node, .. } => assert_eq!(node, "new_c"),
            other => panic!("unexpected error: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replica_seeds_are_scrambled() {
        let seeds: Vec<u64> = (0..8).map(|r| derive_seed(123, r)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }
}
