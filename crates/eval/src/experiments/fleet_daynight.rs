//! Extension experiment: time-varying mobility — an epoch-aware detector
//! against a stationarity-assuming one on a commuter fleet.
//!
//! Everything upstream of this experiment models mobility as one chain
//! per class, implicitly assuming time-homogeneity over the window. Real
//! populations commute: the day-time chain and the night-time chain are
//! different objects, and the paper's Sec. VIII explicitly flags
//! time-varying mobility as the open extension. This experiment builds
//! the sharpest possible instance of that gap:
//!
//! * `2 · P` commuter classes over `2 · P` cells, arranged in *swapped
//!   pairs*: class `2p` lives at cell `a_p` and works at cell `b_p`,
//!   class `2p + 1` lives at `b_p` and works at `a_p`. Day chains anchor
//!   every user at the class's work cell, night chains at its home cell
//!   (with `1 − stickiness` uniform noise), under an
//!   [`EpochSchedule::day_night`] slot map.
//! * The fleet is simulated from the epoch-active chains
//!   ([`FleetSimulation`] with a non-stationary [`MobilityRegistry`]).
//! * Two eavesdroppers score the same observed services. Both play the
//!   paper's targeted game: to track a user of class `c` they rank every
//!   service under *that class's* model (a fleet-wide mixture argmax
//!   would crown one global winner per slot, telling us nothing about
//!   per-class model quality). The *epoch-aware* adversary uses the
//!   class's slot-active tables ([`DetectModel::Schedule`]); the
//!   *stationary* adversary uses the class's chains blended by epoch
//!   dwell time ([`EpochSchedule::slot_counts`]) — exactly what a
//!   stationarity-assuming estimator would recover from the same
//!   traffic.
//!
//! The swapped-pair construction makes the stationary observer's blind
//! spot structural, not statistical: with equal day and night dwell, the
//! blended chains of a pair are *identical*, so the stationary detector
//! cannot tell a class from its swapped twin and tracks the wrong anchor
//! about half the time. The epoch-aware detector separates them from the
//! first slot. Reported per budget `B`: tracking and detection accuracy
//! under both detectors, plus fleet throughput.

use super::score_columns;
use crate::report::Table;
use chaff_core::detector::{BatchPrefixDetector, DetectInput, DetectModel};
use chaff_markov::{
    EpochSchedule, MarkovChain, MobilityRegistry, StateDistribution, TransitionMatrix,
};
use chaff_sim::fleet::{FleetChaffPolicy, FleetChaffStrategy, FleetConfig, FleetSimulation};
use std::time::Instant;

/// Per-user chaff budgets swept by the full experiment.
pub const BUDGETS: [usize; 2] = [0, 1];

/// Budgets swept under `--quick`.
pub const QUICK_BUDGETS: [usize; 1] = [0];

/// Configuration of the day/night commuter fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayNightConfig {
    /// Fleet size `N`.
    pub num_users: usize,
    /// Anchor pairs `P`: the fleet has `2P` classes over `2P` cells.
    pub num_pairs: usize,
    /// Day-epoch slots per cycle.
    pub day_slots: usize,
    /// Night-epoch slots per cycle.
    pub night_slots: usize,
    /// Day/night cycles simulated (horizon = `cycles · (day + night)`).
    pub cycles: usize,
    /// Probability mass a chain keeps on its epoch anchor (the rest is
    /// uniform noise).
    pub stickiness: f64,
    /// Experiment seed.
    pub seed: u64,
    /// Worker shards for simulation and detection; `None` sizes from
    /// available parallelism. Results never depend on this.
    pub shards: Option<usize>,
}

impl Default for DayNightConfig {
    fn default() -> Self {
        DayNightConfig {
            num_users: 10_000,
            num_pairs: 3,
            day_slots: 6,
            night_slots: 6,
            cycles: 2,
            stickiness: 0.9,
            seed: 1709,
            shards: None,
        }
    }
}

impl DayNightConfig {
    /// A reduced-scale configuration for tests and `--quick` runs.
    pub fn quick() -> Self {
        DayNightConfig {
            num_users: 400,
            num_pairs: 2,
            day_slots: 4,
            night_slots: 4,
            cycles: 2,
            stickiness: 0.9,
            seed: 1705,
            shards: None,
        }
    }

    /// Simulated slots: `cycles` full day/night periods (equal day and
    /// night dwell keeps the pair blends exactly symmetric).
    pub fn horizon(&self) -> usize {
        self.cycles * (self.day_slots + self.night_slots)
    }

    /// Commuter classes (`2P`): each anchor pair in both orientations.
    pub fn num_classes(&self) -> usize {
        2 * self.num_pairs
    }

    /// Cells (`2P`): one per anchor.
    pub fn num_cells(&self) -> usize {
        2 * self.num_pairs
    }
}

/// A chain that keeps `stickiness` mass on `anchor` from every cell (and
/// starts there with the same law): the one-parameter commuter regime.
fn anchored_chain(num_cells: usize, anchor: usize, stickiness: f64) -> crate::Result<MarkovChain> {
    let noise = (1.0 - stickiness) / num_cells as f64;
    let row: Vec<f64> = (0..num_cells)
        .map(|i| {
            if i == anchor {
                stickiness + noise
            } else {
                noise
            }
        })
        .collect();
    let matrix = TransitionMatrix::from_rows(vec![row.clone(); num_cells])?;
    let initial = StateDistribution::from_weights(row)?;
    Ok(MarkovChain::with_initial(matrix, initial)?)
}

/// The dwell-time blend of a class's day and night chains — the chain a
/// stationarity-assuming estimator converges to on this traffic.
fn blended_chain(
    day: &MarkovChain,
    night: &MarkovChain,
    day_weight: f64,
    night_weight: f64,
) -> crate::Result<MarkovChain> {
    let l = day.num_states();
    let total = day_weight + night_weight;
    let (wd, wn) = (day_weight / total, night_weight / total);
    let blend = |a: f64, b: f64| wd * a + wn * b;
    let rows: Vec<Vec<f64>> = (0..l)
        .map(|i| {
            (0..l)
                .map(|j| {
                    let (from, to) = (chaff_markov::CellId::new(i), chaff_markov::CellId::new(j));
                    blend(day.matrix().prob(from, to), night.matrix().prob(from, to))
                })
                .collect()
        })
        .collect();
    let initial: Vec<f64> = day
        .initial()
        .as_slice()
        .iter()
        .zip(night.initial().as_slice())
        .map(|(&a, &b)| blend(a, b))
        .collect();
    let matrix = TransitionMatrix::from_rows(rows)?;
    Ok(MarkovChain::with_initial(
        matrix,
        StateDistribution::from_weights(initial)?,
    )?)
}

/// Builds the two adversary models over one commuter population: the
/// epoch-aware registry (day and night chains under the day/night
/// schedule) and its stationary blend.
///
/// Both registries assign users round-robin over the same `2P` classes,
/// so user `u` means the same commuter under either detector.
///
/// # Errors
///
/// Propagates chain and registry shape errors.
pub fn build_registries(
    config: &DayNightConfig,
) -> crate::Result<(MobilityRegistry, MobilityRegistry)> {
    let cells = config.num_cells();
    let schedule = EpochSchedule::day_night(config.day_slots, config.night_slots)?;
    let mut day_chains = Vec::with_capacity(config.num_classes());
    let mut night_chains = Vec::with_capacity(config.num_classes());
    for class in 0..config.num_classes() {
        let pair = class / 2;
        let swapped = class % 2;
        let home = 2 * pair + swapped;
        let work = 2 * pair + 1 - swapped;
        day_chains.push(anchored_chain(cells, work, config.stickiness)?);
        night_chains.push(anchored_chain(cells, home, config.stickiness)?);
    }
    let counts = schedule.slot_counts(config.horizon());
    let blended: Vec<MarkovChain> = day_chains
        .iter()
        .zip(&night_chains)
        .map(|(d, n)| blended_chain(d, n, counts[0] as f64, counts[1] as f64))
        .collect::<crate::Result<_>>()?;
    let aware = MobilityRegistry::with_epochs(vec![day_chains, night_chains], schedule)?;
    let stationary = MobilityRegistry::new(blended)?;
    Ok((aware, stationary))
}

/// One measured budget cell: the same fleet outcome scored by both
/// detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayNightPoint {
    /// Fleet size `N`.
    pub num_users: usize,
    /// Commuter classes (`2P`).
    pub classes: usize,
    /// Per-user chaff budget `B`.
    pub budget: usize,
    /// Observed services (`N · (1 + B)`).
    pub services: usize,
    /// Simulated slots.
    pub horizon: usize,
    /// Mean time-average tracking accuracy, epoch-aware detector.
    pub aware_tracking: f64,
    /// Mean time-average tracking accuracy, stationary detector.
    pub stationary_tracking: f64,
    /// Mean time-average detection accuracy, epoch-aware detector.
    pub aware_detection: f64,
    /// Mean time-average detection accuracy, stationary detector.
    pub stationary_detection: f64,
    /// Fleet throughput, user-slots/sec over simulate + both detections.
    pub throughput: f64,
}

/// Measures one budget cell: simulate the commuter fleet from the
/// epoch-active chains, then score the observed services under both
/// adversary models.
///
/// Both adversaries play the paper's targeted game: the services are
/// ranked once per *class* under that class's model (slot-active tables
/// for the epoch-aware one, the dwell-time blend for the stationary
/// one), and a user's accuracy is read from their own class's ranking.
///
/// # Errors
///
/// Propagates fleet and detection errors.
pub fn measure(
    aware: &MobilityRegistry,
    stationary: &MobilityRegistry,
    budget: usize,
    config: &DayNightConfig,
) -> crate::Result<DayNightPoint> {
    let mut fleet_config =
        FleetConfig::new(config.num_users, config.horizon()).with_seed(config.seed ^ 0xDA1_11677);
    if let Some(shards) = config.shards {
        fleet_config = fleet_config.with_shards(shards);
    }
    let detector = match config.shards {
        Some(s) => BatchPrefixDetector::with_shards(s),
        None => BatchPrefixDetector::new(),
    };
    let policy = FleetChaffPolicy::uniform(FleetChaffStrategy::Im, budget);
    let started = Instant::now();
    let outcome = FleetSimulation::with_registry(aware, fleet_config).run_chaffed(&policy)?;
    let mut aware_tracking = 0.0;
    let mut aware_detection = 0.0;
    let mut stationary_tracking = 0.0;
    let mut stationary_detection = 0.0;
    for class in 0..config.num_classes() {
        // The epoch-aware adversary models the target class with its
        // slot-active day/night chains...
        let per_epoch: Vec<Vec<MarkovChain>> = (0..aware.num_epochs())
            .map(|epoch| vec![aware.chain_at(class, epoch).clone()])
            .collect();
        let class_registry = MobilityRegistry::with_epochs(per_epoch, aware.schedule().clone())?;
        let aware_scores = detector.detect_prefixes(DetectInput::new(
            DetectModel::Schedule(&class_registry),
            &outcome.observed,
        ))?;
        // ...the stationary adversary with the class's dwell-time blend.
        let blended = stationary.chain(class).log_likelihood_table();
        let stationary_scores =
            detector.detect_prefixes(DetectInput::new(&blended, &outcome.observed))?;
        let members = (0..config.num_users)
            .filter(|&u| aware.class_of(u) == class)
            .map(|u| outcome.user_observed_indices[u]);
        let (t, d) = score_columns(&outcome.observed, members.clone(), &aware_scores);
        aware_tracking += t;
        aware_detection += d;
        let (t, d) = score_columns(&outcome.observed, members, &stationary_scores);
        stationary_tracking += t;
        stationary_detection += d;
    }
    let n = config.num_users as f64;
    let aware_tracking = aware_tracking / n;
    let aware_detection = aware_detection / n;
    let stationary_tracking = stationary_tracking / n;
    let stationary_detection = stationary_detection / n;
    let elapsed = started.elapsed().as_secs_f64();
    Ok(DayNightPoint {
        num_users: config.num_users,
        classes: config.num_classes(),
        budget,
        services: outcome.observed.num_trajectories(),
        horizon: config.horizon(),
        aware_tracking,
        stationary_tracking,
        aware_detection,
        stationary_detection,
        throughput: outcome.stats.user_slots as f64 / elapsed.max(f64::MIN_POSITIVE),
    })
}

/// Runs the budget sweep: one registry pair, one fleet run per budget,
/// both detectors on each run.
///
/// # Errors
///
/// Propagates chain, fleet and detection errors.
pub fn run_with(config: &DayNightConfig, budgets: &[usize]) -> crate::Result<Table> {
    let (aware, stationary) = build_registries(config)?;
    let mut table = Table::new(
        "fleet_daynight",
        "day/night commuter fleet: epoch-aware vs stationarity-assuming detection",
        vec![
            "N".into(),
            "classes".into(),
            "B".into(),
            "services".into(),
            "T".into(),
            "tracking (epoch)".into(),
            "tracking (stationary)".into(),
            "detection (epoch)".into(),
            "detection (stationary)".into(),
            "user-slots/s".into(),
        ],
    );
    for &budget in budgets {
        let point = measure(&aware, &stationary, budget, config)?;
        table.push(vec![
            point.num_users.to_string(),
            point.classes.to_string(),
            point.budget.to_string(),
            point.services.to_string(),
            point.horizon.to_string(),
            format!("{:.4}", point.aware_tracking),
            format!("{:.4}", point.stationary_tracking),
            format!("{:.6}", point.aware_detection),
            format!("{:.6}", point.stationary_detection),
            format!("{:.0}", point.throughput),
        ]);
    }
    Ok(table)
}

/// Runs the full sweep.
///
/// # Errors
///
/// Propagates chain, fleet and detection errors.
pub fn run(config: &DayNightConfig) -> crate::Result<Table> {
    run_with(config, &BUDGETS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swapped_pair_blends_are_identical_but_epochs_differ() {
        let config = DayNightConfig::quick();
        let (aware, stationary) = build_registries(&config).unwrap();
        assert_eq!(aware.num_epochs(), 2);
        assert_eq!(stationary.num_epochs(), 1);
        assert_eq!(aware.num_classes(), config.num_classes());
        for pair in 0..config.num_pairs {
            let (a, b) = (2 * pair, 2 * pair + 1);
            // The stationary observer cannot tell a class from its twin...
            assert_eq!(
                stationary.chain(a).matrix(),
                stationary.chain(b).matrix(),
                "pair {pair} blends must coincide"
            );
            // ...while the epoch-resolved chains are anchored oppositely.
            assert_ne!(aware.chain_at(a, 0).matrix(), aware.chain_at(b, 0).matrix());
            assert_eq!(aware.chain_at(a, 0).matrix(), aware.chain_at(b, 1).matrix());
        }
    }

    #[test]
    fn epoch_aware_detection_beats_stationary_at_quick_scale() {
        let config = DayNightConfig::quick();
        let (aware, stationary) = build_registries(&config).unwrap();
        let point = measure(&aware, &stationary, 0, &config).unwrap();
        assert_eq!(point.services, config.num_users);
        // The structural blind spot: the stationary detector confuses a
        // commuter with its swapped twin, so it tracks the wrong anchor
        // about half the time. Require a wide, not marginal, gap.
        assert!(
            point.aware_tracking > point.stationary_tracking + 0.15,
            "aware {} vs stationary {}",
            point.aware_tracking,
            point.stationary_tracking
        );
        // Per-slot argmax mass sums to 1 within each class's ranking, so
        // a class's members can share at most 1.0 of detection credit per
        // slot and the fleet mean is bounded by classes/N under any
        // model. The epoch-aware ranking keeps (nearly) all of that mass
        // on in-class services; the stationary one leaks about half to
        // each class's swapped twin.
        let ceiling = config.num_classes() as f64 / config.num_users as f64;
        assert!(point.aware_detection <= ceiling + 1e-9);
        assert!(point.stationary_detection <= ceiling + 1e-9);
        assert!(
            point.aware_detection > 0.8 * ceiling,
            "aware detection {} vs ceiling {}",
            point.aware_detection,
            ceiling
        );
        assert!(
            point.stationary_detection < 0.8 * point.aware_detection,
            "stationary detection {} should trail aware {}",
            point.stationary_detection,
            point.aware_detection
        );
    }

    #[test]
    fn results_are_shard_count_independent() {
        let mut config = DayNightConfig::quick();
        config.num_users = 120;
        let (aware, stationary) = build_registries(&config).unwrap();
        let mut reference: Option<DayNightPoint> = None;
        for shards in [1usize, 2, 7] {
            config.shards = Some(shards);
            let point = measure(&aware, &stationary, 1, &config).unwrap();
            if let Some(r) = &reference {
                assert_eq!(r.aware_tracking.to_bits(), point.aware_tracking.to_bits());
                assert_eq!(
                    r.stationary_tracking.to_bits(),
                    point.stationary_tracking.to_bits()
                );
                assert_eq!(r.services, point.services);
            } else {
                reference = Some(point);
            }
        }
    }

    #[test]
    fn table_has_one_row_per_budget() {
        let mut config = DayNightConfig::quick();
        config.num_users = 60;
        let table = run_with(&config, &[0, 1]).unwrap();
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.columns.len(), 10);
    }
}
