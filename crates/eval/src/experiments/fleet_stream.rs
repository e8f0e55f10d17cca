//! Extension experiment: the streaming online detection engine at
//! `N = 10⁵–10⁶`, scored against eq. (11).
//!
//! An online adversary runs the paper's detector *as the fleet moves*:
//! what it knows at slot `t` is the accuracy of the prefix detections
//! so far, before the horizon completes. This experiment drives
//! [`StreamingFleetEngine`] slot by slot under a uniform IM policy
//! (He et al., arXiv:1709.03133) and records, per `(N, B)` cell:
//!
//! * the **live accuracy curve**: per-slot tracking and detection
//!   accuracy as they evolve;
//! * the curve's mean next to the **eq. (11) prediction** at the
//!   chaffed population `N · (1 + B)`;
//! * the engine's **resident state** next to what the batch engine's
//!   full `services × horizon` observation grid would hold: the
//!   `O(width + N)` vs `O(N · T)` bound the streaming design
//!   exists for.
//!
//! Step latency is not measured here: fleetbench's `online_stream`
//! workload and the criterion `fleet_stream` group time it under a
//! gate.

use super::{build_model, SyntheticConfig};
use crate::report::{Figure, Series, Table};
use chaff_core::metrics::time_average;
use chaff_core::theory::im_tracking_accuracy;
use chaff_markov::models::ModelKind;
use chaff_markov::MarkovChain;
use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig};
use chaff_sim::streaming::StreamingFleetEngine;

/// Populations swept by the full experiment: the release acceptance
/// rung and the million-user rung.
pub const POPULATIONS: [usize; 2] = [100_000, 1_000_000];

/// Populations swept under `--quick`.
pub const QUICK_POPULATIONS: [usize; 2] = [10_000, 50_000];

/// Per-user chaff budgets swept (undefended baseline plus the
/// acceptance budget).
pub const BUDGETS: [usize; 2] = [0, 2];

/// Horizon used by the full sweep. Shorter than the paper's `T = 100`:
/// at `N = 10⁶` with `B = 2` every slot costs 3 million cells, and the
/// eq. (11) dilution this experiment reports is horizon-independent.
pub const STREAM_HORIZON: usize = 24;

/// One measured `(N, B)` cell of the streaming sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPoint {
    /// Fleet size `N`.
    pub num_users: usize,
    /// Per-user chaff budget `B`.
    pub budget: usize,
    /// Observed services `N · (1 + B)`.
    pub services: usize,
    /// Slots streamed.
    pub horizon: usize,
    /// Per-slot tracking accuracy, one entry per slot (the live curve).
    pub tracking_curve: Vec<f64>,
    /// Per-slot detection accuracy, one entry per slot.
    pub detection_curve: Vec<f64>,
    /// Engine-resident bytes after the run (observed row + detector +
    /// lanes).
    pub state_bytes: usize,
    /// What the batch engine's full columnar observation grid would
    /// hold for the same population (4 bytes per cell).
    pub batch_grid_bytes: usize,
}

impl StreamPoint {
    /// Mean of the live tracking curve (the batch engine's
    /// time-averaged metric, reconstructed online).
    pub fn mean_tracking(&self) -> f64 {
        time_average(&self.tracking_curve)
    }

    /// Mean of the live detection curve.
    pub fn mean_detection(&self) -> f64 {
        time_average(&self.detection_curve)
    }
}

/// Streams one `(N, B)` cell to the horizon.
///
/// # Errors
///
/// Propagates fleet-configuration and detection errors.
pub fn measure(
    chain: &MarkovChain,
    num_users: usize,
    budget: usize,
    horizon: usize,
    seed: u64,
) -> crate::Result<StreamPoint> {
    let config = FleetConfig::new(num_users, horizon).with_seed(seed);
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, budget);
    let mut engine = StreamingFleetEngine::new(chain, config, &policy)?;
    let services = engine.num_services();
    let mut tracking_curve = Vec::with_capacity(horizon);
    let mut detection_curve = Vec::with_capacity(horizon);
    while let Some(step) = engine.step()? {
        tracking_curve.push(step.tracking_accuracy);
        detection_curve.push(step.detection_accuracy);
    }
    Ok(StreamPoint {
        num_users,
        budget,
        services,
        horizon,
        tracking_curve,
        detection_curve,
        state_bytes: engine.state_bytes(),
        batch_grid_bytes: services * horizon * 4,
    })
}

/// Runs the sweep over `populations × budgets` at `horizon` slots.
/// Returns the summary table plus the live accuracy curves (one
/// tracking series per `(N, B)` cell) as a figure.
///
/// # Errors
///
/// Propagates model-construction and fleet errors.
pub fn run_with(
    config: &SyntheticConfig,
    populations: &[usize],
    budgets: &[usize],
    horizon: usize,
) -> crate::Result<(Table, Figure)> {
    let chain = build_model(ModelKind::NonSkewed, config)?;
    let mut table = Table::new(
        "fleet_stream",
        "streaming online detection: live accuracy vs eq. (11) (uniform IM policy)",
        vec![
            "N".into(),
            "B".into(),
            "services".into(),
            "tracking".into(),
            "eq. (11) @N(1+B)".into(),
            "detection".into(),
            "state MB".into(),
            "batch grid MB".into(),
        ],
    );
    let mut curves = Figure::new(
        "fleet_stream_curve",
        "live tracking accuracy while streaming (one series per N, B)",
        "slot",
        "tracking accuracy",
    );
    for (i, &n) in populations.iter().enumerate() {
        for (j, &b) in budgets.iter().enumerate() {
            let seed = config.seed ^ (0x57EA + (i * budgets.len() + j) as u64);
            let point = measure(&chain, n, b, horizon, seed)?;
            let predicted = im_tracking_accuracy(chain.initial(), point.services);
            table.push(vec![
                point.num_users.to_string(),
                point.budget.to_string(),
                point.services.to_string(),
                format!("{:.4}", point.mean_tracking()),
                format!("{predicted:.4}"),
                format!("{:.6}", point.mean_detection()),
                format!("{:.1}", point.state_bytes as f64 / 1e6),
                format!("{:.1}", point.batch_grid_bytes as f64 / 1e6),
            ]);
            curves.push(Series::from_values(
                format!("N={n} B={b}"),
                point.tracking_curve.clone(),
            ));
        }
    }
    Ok((table, curves))
}

/// Runs the full sweep.
///
/// # Errors
///
/// Propagates model-construction and fleet errors.
pub fn run(config: &SyntheticConfig) -> crate::Result<(Table, Figure)> {
    run_with(config, &POPULATIONS, &BUDGETS, STREAM_HORIZON)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance rung: N = 100,000 streamed end to end with a
    /// 24-slot horizon, undefended and with B = 2 IM
    /// chaffs. Each live curve's mean matches eq. (11) at its own
    /// population, chaff dilutes identification, and the resident
    /// state stays a small fraction of the batch grid.
    #[test]
    fn acceptance_one_hundred_thousand_users_streamed() {
        let config = SyntheticConfig::quick();
        let chain = build_model(ModelKind::NonSkewed, &config).unwrap();
        let undefended = measure(&chain, 100_000, 0, 24, 1709).unwrap();
        let chaffed = measure(&chain, 100_000, 2, 24, 1709).unwrap();
        assert_eq!(undefended.services, 100_000);
        assert_eq!(chaffed.services, 300_000);
        for point in [&undefended, &chaffed] {
            assert_eq!(point.tracking_curve.len(), 24);
            // The live curve's mean lands on the eq. (11) prediction,
            // like the batch metric it reconstructs.
            let predicted = im_tracking_accuracy(chain.initial(), point.services);
            assert!(
                (point.mean_tracking() - predicted).abs() < 0.05,
                "B = {}: tracking {} vs predicted {}",
                point.budget,
                point.mean_tracking(),
                predicted
            );
            // The streaming engine never holds the batch grid.
            assert!(
                point.state_bytes < point.batch_grid_bytes,
                "B = {}: state {} vs grid {}",
                point.budget,
                point.state_bytes,
                point.batch_grid_bytes
            );
        }
        // Chaff dilution: the chaffed fleet is harder to identify.
        assert!(
            chaffed.mean_detection() < undefended.mean_detection(),
            "chaffed {} vs undefended {}",
            chaffed.mean_detection(),
            undefended.mean_detection()
        );
    }

    /// The million-user smoke rung: short horizon, but the full
    /// per-slot path — draw, chaff, detect, live accuracy — at N = 10⁶.
    #[test]
    fn million_user_smoke() {
        let config = SyntheticConfig::quick();
        let chain = build_model(ModelKind::NonSkewed, &config).unwrap();
        let point = measure(&chain, 1_000_000, 0, 4, 1709).unwrap();
        assert_eq!(point.services, 1_000_000);
        assert_eq!(point.tracking_curve.len(), 4);
        let predicted = im_tracking_accuracy(chain.initial(), point.services);
        assert!(
            (point.mean_tracking() - predicted).abs() < 0.05,
            "tracking {} vs predicted {}",
            point.mean_tracking(),
            predicted
        );
    }

    #[test]
    fn table_has_one_row_per_cell_and_one_curve_each() {
        let config = SyntheticConfig::quick();
        let (table, curves) = run_with(&config, &[64, 128], &[0, 1], 8).unwrap();
        assert_eq!(table.rows.len(), 4);
        assert_eq!(curves.series.len(), 4);
        assert_eq!(curves.series[0].y.len(), 8);
    }
}
