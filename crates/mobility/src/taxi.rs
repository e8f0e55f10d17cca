//! Synthetic taxi-fleet generator — the stand-in for the CRAWDAD
//! `epfl/mobility` dataset.
//!
//! The paper's pipeline only consumes three properties of the real traces:
//! (i) *spatially skewed* occupancy (taxis concentrate downtown),
//! (ii) *temporally skewed* dynamics (taxis drive towards destinations, so
//! successive cells are highly predictable), and (iii) heterogeneous
//! per-node predictability (a handful of users are trackable far above the
//! `1/N` baseline — Fig. 9a). The generator reproduces all three with a
//! hotspot-attracted waypoint process:
//!
//! * each taxi repeatedly picks a destination — a hotspot with probability
//!   `hotspot_bias`, else uniform in the box — and drives towards it at
//!   its cruising speed;
//! * a per-taxi speed drawn once (heterogeneity: slow taxis linger in few
//!   cells and become highly trackable);
//! * GPS updates arrive at irregular intervals (uniform around the mean),
//!   and taxis occasionally go *inactive* for longer than the 5-minute
//!   filter threshold, exactly the artifacts footnote 11 cleans up.

use crate::geo::{BoundingBox, GeoPoint};
use crate::record::{NodeTrace, TraceRecord};
use crate::{MobilityError, Result};
use rand::Rng;

/// Configuration for [`generate_fleet`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaxiFleetConfig {
    /// Number of taxis (the paper extracts 174 usable nodes).
    pub num_nodes: usize,
    /// Trace duration in seconds (the paper uses a 100-minute window).
    pub duration_s: i64,
    /// Mean seconds between GPS updates (the paper's traces update about
    /// once a minute).
    pub mean_update_interval_s: i64,
    /// Geographic region.
    pub bbox: BoundingBox,
    /// Number of hotspot destinations.
    pub num_hotspots: usize,
    /// Probability that a new destination is a hotspot.
    pub hotspot_bias: f64,
    /// Probability that a new destination is the taxi's personal home
    /// base (its waiting spot between fares). Home dwellers in quiet
    /// cells dominate their cell's empirical statistics and become the
    /// isolated, highly trackable "user 1" of Fig. 9(a).
    pub home_bias: f64,
    /// Gaussian-ish scatter around a hotspot, in degrees (spreads hotspot
    /// visitors over several Voronoi cells instead of stacking them in
    /// one).
    pub hotspot_jitter_deg: f64,
    /// Minimum / maximum cruising speed in m/s (drawn per taxi).
    pub speed_range_mps: (f64, f64),
    /// Range of per-taxi dwell propensity: on arrival a taxi parks with
    /// its personal probability drawn from this range. Dwellers produce
    /// the highly predictable, highly trackable users of Fig. 9(a);
    /// movers are hard to track.
    pub dwell_prob_range: (f64, f64),
    /// Min/max parking duration in seconds when a taxi dwells.
    pub dwell_duration_s: (i64, i64),
    /// Probability per update that the taxi goes inactive.
    pub inactivity_prob: f64,
    /// Inactivity duration in seconds (must exceed the 5-minute filter to
    /// matter).
    pub inactivity_duration_s: i64,
    /// UNIX timestamp of the window start.
    pub start_timestamp: i64,
}

impl Default for TaxiFleetConfig {
    fn default() -> Self {
        TaxiFleetConfig {
            num_nodes: 174,
            duration_s: 100 * 60,
            mean_update_interval_s: 60,
            bbox: BoundingBox::san_francisco(),
            num_hotspots: 8,
            hotspot_bias: 0.35,
            home_bias: 0.35,
            hotspot_jitter_deg: 0.02,
            speed_range_mps: (2.0, 14.0),
            dwell_prob_range: (0.1, 0.8),
            dwell_duration_s: (120, 900),
            // Survival compounds per update: 0.998^100 ≈ 0.82, so of 174
            // simulated taxis roughly 140 survive the 5-minute filter —
            // the same order as the paper's 174 usable nodes.
            inactivity_prob: 0.002,
            inactivity_duration_s: 8 * 60,
            start_timestamp: 1_213_000_000,
        }
    }
}

impl TaxiFleetConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::InvalidConfig`] naming the first offending
    /// parameter.
    pub fn validate(&self) -> Result<()> {
        if self.num_nodes == 0 {
            return Err(invalid("num_nodes", "must be positive"));
        }
        if self.duration_s <= 0 {
            return Err(invalid("duration_s", "must be positive"));
        }
        if self.mean_update_interval_s <= 0 {
            return Err(invalid("mean_update_interval_s", "must be positive"));
        }
        if self.num_hotspots == 0 {
            return Err(invalid("num_hotspots", "must be positive"));
        }
        if !(0.0..=1.0).contains(&self.hotspot_bias) {
            return Err(invalid("hotspot_bias", "must be in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.home_bias) || self.hotspot_bias + self.home_bias > 1.0 {
            return Err(invalid("home_bias", "need hotspot_bias + home_bias <= 1"));
        }
        let (lo, hi) = self.speed_range_mps;
        if !(lo > 0.0 && hi >= lo) {
            return Err(invalid("speed_range_mps", "need 0 < lo <= hi"));
        }
        if !(0.0..=1.0).contains(&self.inactivity_prob) {
            return Err(invalid("inactivity_prob", "must be in [0, 1]"));
        }
        if self.inactivity_duration_s < 0 {
            return Err(invalid("inactivity_duration_s", "must be non-negative"));
        }
        if !self.hotspot_jitter_deg.is_finite() || self.hotspot_jitter_deg < 0.0 {
            return Err(invalid("hotspot_jitter_deg", "must be non-negative"));
        }
        let (dlo, dhi) = self.dwell_prob_range;
        if !(0.0..=1.0).contains(&dlo) || !(0.0..=1.0).contains(&dhi) || dlo > dhi {
            return Err(invalid("dwell_prob_range", "need 0 <= lo <= hi <= 1"));
        }
        let (tlo, thi) = self.dwell_duration_s;
        if tlo < 0 || thi < tlo {
            return Err(invalid("dwell_duration_s", "need 0 <= lo <= hi"));
        }
        Ok(())
    }
}

fn invalid(parameter: &'static str, reason: &str) -> MobilityError {
    MobilityError::InvalidConfig {
        parameter,
        reason: reason.into(),
    }
}

/// Generates a seeded synthetic fleet.
///
/// # Errors
///
/// Returns configuration errors from [`TaxiFleetConfig::validate`].
pub fn generate_fleet<R: Rng + ?Sized>(
    config: &TaxiFleetConfig,
    rng: &mut R,
) -> Result<Vec<NodeTrace>> {
    config.validate()?;
    let hotspots = sample_hotspots(config, rng);
    let traces = (0..config.num_nodes)
        .map(|i| generate_taxi(i, config, &hotspots, rng))
        .collect();
    Ok(traces)
}

/// Draws the fleet's hotspot destinations — the first RNG consumption of
/// [`generate_fleet`], split out so the streaming source
/// (`crate::stream::TaxiTraceStream`) reproduces the eager generator's
/// stream exactly.
pub(crate) fn sample_hotspots<R: Rng + ?Sized>(
    config: &TaxiFleetConfig,
    rng: &mut R,
) -> Vec<GeoPoint> {
    (0..config.num_hotspots)
        .map(|_| config.bbox.sample(rng))
        .collect()
}

pub(crate) fn generate_taxi<R: Rng + ?Sized>(
    index: usize,
    config: &TaxiFleetConfig,
    hotspots: &[GeoPoint],
    rng: &mut R,
) -> NodeTrace {
    let (lo, hi) = config.speed_range_mps;
    let speed = if hi > lo {
        rng.random_range(lo..hi)
    } else {
        lo
    };
    let (dlo, dhi) = config.dwell_prob_range;
    // The taxi's personal parking propensity: the source of the per-user
    // trackability heterogeneity in Fig. 9(a).
    let dwell_prob = if dhi > dlo {
        rng.random_range(dlo..dhi)
    } else {
        dlo
    };
    // The taxi's personal waiting spot between fares.
    let home = config.bbox.sample(rng);
    // Start near a hotspot or home with the same bias as destinations, so
    // the initial occupancy is already skewed.
    let mut position = pick_destination(config, hotspots, home, rng);
    let mut destination = pick_destination(config, hotspots, home, rng);
    let mut dwell_left = 0.0f64; // seconds of parking still to serve
    let mut t = config.start_timestamp;
    let end = config.start_timestamp + config.duration_s;
    let mut records = Vec::new();
    records.push(TraceRecord {
        point: position,
        occupied: rng.random::<f64>() < 0.5,
        timestamp: t,
    });
    while t < end {
        // Irregular update interval: uniform in [mean/2, 3*mean/2].
        let mean = config.mean_update_interval_s;
        let mut dt = rng.random_range(mean / 2..=mean + mean / 2).max(1);
        if rng.random::<f64>() < config.inactivity_prob {
            dt += config.inactivity_duration_s;
        }
        // Advance for dt seconds: serve any parking time first, then move
        // along the waypoint path, switching destinations on arrival.
        let mut time_left = dt as f64;
        let mut arrivals = 0usize;
        while time_left > 0.0 && arrivals < 64 {
            if dwell_left > 0.0 {
                let consumed = dwell_left.min(time_left);
                dwell_left -= consumed;
                time_left -= consumed;
                continue;
            }
            let dist = position.distance_m(&destination);
            let reach = speed * time_left;
            if dist <= reach {
                time_left -= dist / speed;
                position = destination;
                destination = pick_destination(config, hotspots, home, rng);
                arrivals += 1;
                if rng.random::<f64>() < dwell_prob {
                    let (tlo, thi) = config.dwell_duration_s;
                    dwell_left = if thi > tlo {
                        rng.random_range(tlo..=thi) as f64
                    } else {
                        tlo as f64
                    };
                }
            } else {
                position = position.lerp(&destination, reach / dist);
                time_left = 0.0;
            }
        }
        t += dt;
        if t > end {
            break;
        }
        records.push(TraceRecord {
            point: config.bbox.clamp(&position),
            occupied: rng.random::<f64>() < 0.5,
            timestamp: t,
        });
    }
    NodeTrace::new(format!("taxi_{index:03}"), records)
}

fn pick_destination<R: Rng + ?Sized>(
    config: &TaxiFleetConfig,
    hotspots: &[GeoPoint],
    home: GeoPoint,
    rng: &mut R,
) -> GeoPoint {
    let r: f64 = rng.random();
    if r < config.hotspot_bias {
        // Scatter around the hotspot so taxis spread over neighbouring
        // Voronoi cells instead of stacking in one.
        let h = hotspots[rng.random_range(0..hotspots.len())];
        let jitter = config.hotspot_jitter_deg.max(f64::MIN_POSITIVE);
        let p = GeoPoint::new(
            h.lat + rng.random_range(-jitter..jitter),
            h.lon + rng.random_range(-jitter..jitter),
        );
        config.bbox.clamp(&p)
    } else if r < config.hotspot_bias + config.home_bias {
        // Return to the personal waiting spot (tight ~100 m jitter: the
        // taxi reliably lands in the same cell).
        let jitter = 1e-3;
        let p = GeoPoint::new(
            home.lat + rng.random_range(-jitter..jitter),
            home.lon + rng.random_range(-jitter..jitter),
        );
        config.bbox.clamp(&p)
    } else {
        config.bbox.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> TaxiFleetConfig {
        TaxiFleetConfig {
            num_nodes: 12,
            duration_s: 30 * 60,
            ..TaxiFleetConfig::default()
        }
    }

    #[test]
    fn generates_requested_fleet() {
        let mut rng = StdRng::seed_from_u64(70);
        let fleet = generate_fleet(&small_config(), &mut rng).unwrap();
        assert_eq!(fleet.len(), 12);
        for trace in &fleet {
            assert!(trace.records.len() >= 2, "{}", trace.node_id);
            // Timestamps strictly increase.
            for w in trace.records.windows(2) {
                assert!(w[1].timestamp > w[0].timestamp);
            }
            // All positions in the box.
            for r in &trace.records {
                assert!(small_config().bbox.contains(&r.point));
            }
        }
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let a = generate_fleet(&small_config(), &mut StdRng::seed_from_u64(71)).unwrap();
        let b = generate_fleet(&small_config(), &mut StdRng::seed_from_u64(71)).unwrap();
        assert_eq!(a, b);
        let c = generate_fleet(&small_config(), &mut StdRng::seed_from_u64(72)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn movement_respects_speed_limit() {
        let config = small_config();
        let mut rng = StdRng::seed_from_u64(73);
        let fleet = generate_fleet(&config, &mut rng).unwrap();
        let (_, hi) = config.speed_range_mps;
        for trace in &fleet {
            for w in trace.records.windows(2) {
                let dt = (w[1].timestamp - w[0].timestamp) as f64;
                let dist = w[0].point.distance_m(&w[1].point);
                assert!(
                    dist <= hi * dt * 1.05 + 1.0,
                    "{}: {dist} m in {dt} s",
                    trace.node_id
                );
            }
        }
    }

    #[test]
    fn hotspot_bias_skews_occupancy() {
        // With full hotspot bias, positions concentrate near a handful of
        // points; with zero bias they spread uniformly. Compare dispersion.
        let mut biased_cfg = small_config();
        biased_cfg.hotspot_bias = 1.0;
        biased_cfg.home_bias = 0.0;
        biased_cfg.num_nodes = 30;
        let mut uniform_cfg = biased_cfg.clone();
        uniform_cfg.hotspot_bias = 0.0;
        let spread = |fleet: &[NodeTrace]| {
            let pts: Vec<GeoPoint> = fleet
                .iter()
                .flat_map(|t| t.records.iter().map(|r| r.point))
                .collect();
            let cx = pts.iter().map(|p| p.lat).sum::<f64>() / pts.len() as f64;
            let cy = pts.iter().map(|p| p.lon).sum::<f64>() / pts.len() as f64;
            let center = GeoPoint::new(cx, cy);
            pts.iter().map(|p| p.distance_m(&center)).sum::<f64>() / pts.len() as f64
        };
        // Same seed so the hotspot layout matches.
        // A single layout draw is noisy (the hotspots themselves may land
        // far apart), so compare the dispersion averaged over seeds.
        let mut biased_total = 0.0;
        let mut uniform_total = 0.0;
        for seed in 70..80 {
            let biased = generate_fleet(&biased_cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
            let uniform = generate_fleet(&uniform_cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
            biased_total += spread(&biased);
            uniform_total += spread(&uniform);
        }
        assert!(
            biased_total < uniform_total,
            "biased spread {biased_total} !< uniform spread {uniform_total}"
        );
    }

    #[test]
    fn inactivity_creates_long_gaps() {
        let mut config = small_config();
        config.inactivity_prob = 0.5;
        config.inactivity_duration_s = 600;
        let fleet = generate_fleet(&config, &mut StdRng::seed_from_u64(75)).unwrap();
        let max_gap = fleet
            .iter()
            .flat_map(|trace| trace.records.windows(2))
            .map(|w| w[1].timestamp.abs_diff(w[0].timestamp))
            .max()
            .unwrap();
        assert!(max_gap > 300, "max gap = {max_gap}");
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut c = small_config();
        c.num_nodes = 0;
        assert!(generate_fleet(&c, &mut StdRng::seed_from_u64(1)).is_err());
        let mut c = small_config();
        c.speed_range_mps = (5.0, 2.0);
        assert!(c.validate().is_err());
        let mut c = small_config();
        c.hotspot_bias = 1.5;
        assert!(c.validate().is_err());
    }
}
