//! Tentpole experiment (ISSUE 8): persistent paged fleet store —
//! write → checkpoint → kill → resume → verify.
//!
//! The paper's fleet regime ("millions of users served by edge clouds",
//! He et al., ICDCS'17) makes regenerating a population for every
//! detector pass the dominant cost. This experiment exercises the full
//! persistence loop per population rung:
//!
//! 1. **Write.** A fresh [`StreamingFleetEngine`] streams the fleet
//!    into a store file slot by slot
//!    ([`run_to_store`](StreamingFleetEngine::run_to_store)) — the
//!    `N × T` grid never exists in the writing process.
//! 2. **Kill.** A truncated copy of the file (a simulated crash before
//!    `finish`) must be *rejected typed* by
//!    [`FleetStoreReader::open`], proving resume logic can distinguish
//!    a usable checkpoint from a torn one.
//! 3. **Resume.** The intact store is reopened and its slot rows are
//!    streamed page by page through the unified
//!    [`detect_prefixes`](BatchPrefixDetector::detect_prefixes) entry
//!    ([`DetectObservations::Paged`](chaff_core::detector::DetectObservations))
//!    — detection without ever materializing the grid.
//! 4. **Verify.** The paged detections must match the in-memory batch
//!    pipeline (simulate + columnar detect) *bit for bit*, compared via
//!    [`detection_checksum`]; the whole-grid
//!    [`FleetOutcome::restore`] path must reproduce the batch arenas
//!    exactly.

use super::SyntheticConfig;
use crate::report::Table;
use chaff_core::detector::{BatchPrefixDetector, DetectInput, Detection};
use chaff_markov::MobilityRegistry;
use chaff_sim::fleet::{FleetChaffPolicy, FleetConfig, FleetOutcome, FleetSimulation};
use chaff_sim::streaming::StreamingFleetEngine;
use chaff_sim::test_support::{mixed_registry, strategy_from};
use chaff_store::FleetStoreReader;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Populations swept by the full experiment.
pub const POPULATIONS: [usize; 2] = [10_000, 100_000];

/// Populations swept under `--quick`.
pub const QUICK_POPULATIONS: [usize; 1] = [2_000];

/// Per-user chaff budget of the sweep (uniform CML policy): one chaff
/// each keeps the persisted width at `2N` while still exercising the
/// mixture detection path.
pub const BUDGET: usize = 1;

/// Slots persisted per rung. Short on purpose: persistence cost is
/// linear in `N · T` and the round-trip contract is slot-count
/// independent.
pub const PERSIST_HORIZON: usize = 12;

/// Mobility classes in the heterogeneous registry.
pub const CLASSES: usize = 3;

/// Order-sensitive FNV-1a checksum of a detection sequence: folds every
/// slot's tie-set length and indices.
/// Two detection runs agree bit-for-bit iff their checksums agree
/// (up to hash collision), which lets a `N = 10⁶` equality check
/// travel as one `u64` — the golden value pinned in tier-1.
pub fn detection_checksum(detections: &[Detection]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for detection in detections {
        mix(detection.tie_set().len() as u64);
        for &index in detection.tie_set() {
            mix(index as u64);
        }
    }
    hash
}

/// One measured rung of the persistence loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistPoint {
    /// Fleet size `N`.
    pub num_users: usize,
    /// Persisted services `N · (1 + B)`.
    pub services: usize,
    /// Store file size in bytes.
    pub file_bytes: u64,
    /// Seconds to stream-simulate and persist the fleet.
    pub write_secs: f64,
    /// Seconds to detect straight off the file, page by page.
    pub stream_detect_secs: f64,
    /// [`detection_checksum`] of the paged detections.
    pub checksum: u64,
    /// Whether paged detection matched the in-memory pipeline AND the
    /// whole-grid restore reproduced the batch arenas bit-for-bit.
    pub bit_equal: bool,
    /// Whether the truncated (killed mid-write) copy was rejected
    /// typed at open.
    pub kill_detected: bool,
}

/// The registry every rung runs on: deterministic in `seed`.
pub fn persist_registry(seed: u64, num_cells: usize) -> MobilityRegistry {
    mixed_registry(seed, num_cells, CLASSES)
}

/// Runs the write → kill → resume → verify loop for one population.
///
/// Store files are created under `dir` and removed before returning.
///
/// # Errors
///
/// Propagates simulation, store and detection errors.
pub fn measure(
    registry: &MobilityRegistry,
    num_users: usize,
    horizon: usize,
    seed: u64,
    dir: &Path,
) -> crate::Result<PersistPoint> {
    let policy = FleetChaffPolicy::uniform(strategy_from(1), BUDGET);
    let config = FleetConfig::new(num_users, horizon).with_seed(seed);
    // Keyed by pid and a per-call counter, so concurrent calls (threads
    // of one process, or processes sharing `dir`) never share a file.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let stem = format!(
        "fleet_persist_{num_users}_{}_{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    );
    let path = dir.join(format!("{stem}.store"));

    // 1. Write: stream the fleet to disk.
    let mut engine = StreamingFleetEngine::with_registry(registry, config.clone(), &policy)?;
    let started = Instant::now();
    engine.run_to_store(&path)?;
    let write_secs = started.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(&path)?.len();

    // 2. Kill: a copy truncated mid-write must be rejected typed.
    let kill_path = dir.join(format!("{stem}.killed"));
    let bytes = std::fs::read(&path)?;
    std::fs::write(&kill_path, &bytes[..bytes.len() * 2 / 3])?;
    let kill_detected = FleetStoreReader::open(&kill_path).is_err();
    std::fs::remove_file(&kill_path)?;

    // 3. Resume: paged detection straight off the store file.
    let mut reader = FleetStoreReader::open(&path)?;
    let detector = BatchPrefixDetector::new();
    let started = Instant::now();
    let paged = {
        let mut stream = reader.stream_slots();
        detector.detect_prefixes(DetectInput::new(registry, &mut stream))?
    };
    let stream_detect_secs = started.elapsed().as_secs_f64();
    let checksum = detection_checksum(&paged);

    // 4. Verify against the in-memory batch pipeline.
    let outcome = FleetSimulation::with_registry(registry, config).run_chaffed(&policy)?;
    let reference = detector.detect_prefixes(DetectInput::new(registry, &outcome.observed))?;
    let restored = FleetOutcome::restore(&path)?;
    let bit_equal = paged == reference
        && restored.observed == outcome.observed
        && restored.user_cells == outcome.user_cells
        && restored.user_observed_indices == outcome.user_observed_indices
        && restored.stats == outcome.stats;
    std::fs::remove_file(&path)?;

    Ok(PersistPoint {
        num_users,
        services: num_users * (1 + BUDGET),
        file_bytes,
        write_secs,
        stream_detect_secs,
        checksum,
        bit_equal,
        kill_detected,
    })
}

/// Runs the sweep over `populations` and renders the report table.
///
/// # Errors
///
/// Propagates [`measure`] errors.
pub fn run_with(config: &SyntheticConfig, populations: &[usize]) -> crate::Result<Table> {
    let registry = persist_registry(config.seed, config.num_cells);
    let dir = std::env::temp_dir();
    let mut table = Table::new(
        "fleet_persist",
        format!(
            "Persistent paged fleet store: write / kill / resume / verify \
             (B = {BUDGET}, T = {PERSIST_HORIZON})"
        ),
        vec![
            "N".into(),
            "services".into(),
            "file MB".into(),
            "write s".into(),
            "stream-detect s".into(),
            "checksum".into(),
            "bit-equal".into(),
            "kill-detected".into(),
        ],
    );
    for &num_users in populations {
        let point = measure(&registry, num_users, PERSIST_HORIZON, config.seed, &dir)?;
        table.push(vec![
            format!("{}", point.num_users),
            format!("{}", point.services),
            format!("{:.1}", point.file_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.2}", point.write_secs),
            format!("{:.2}", point.stream_detect_secs),
            format!("{:#018x}", point.checksum),
            format!("{}", point.bit_equal),
            format!("{}", point.kill_detected),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_persistence_loop_round_trips_at_small_scale() {
        let registry = persist_registry(1709, 8);
        let point = measure(&registry, 120, 6, 9, &std::env::temp_dir()).unwrap();
        assert!(point.bit_equal);
        assert!(point.kill_detected);
        assert_eq!(point.services, 240);
        assert!(point.file_bytes > 0);
    }

    #[test]
    fn concurrent_same_size_calls_keep_their_own_files() {
        let registry = &persist_registry(1709, 8);
        let dir = &std::env::temp_dir();
        let points: Vec<PersistPoint> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..2)
                .map(|seed| scope.spawn(move || measure(registry, 150, 5, seed, dir)))
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("no panic").expect("measured"))
                .collect()
        });
        for point in points {
            assert!(point.bit_equal);
            assert!(point.kill_detected);
        }
    }

    #[test]
    fn detection_checksums_separate_different_runs() {
        let a = [Detection::new(vec![0]), Detection::new(vec![1, 2])];
        let b = [Detection::new(vec![0]), Detection::new(vec![1, 3])];
        let c = [Detection::new(vec![0]), Detection::new(vec![1, 2])];
        assert_ne!(detection_checksum(&a), detection_checksum(&b));
        assert_eq!(detection_checksum(&a), detection_checksum(&c));
        assert_ne!(detection_checksum(&a), detection_checksum(&a[..1]));
    }
}
