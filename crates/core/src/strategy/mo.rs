//! The myopic online (MO) chaff strategy — Algorithm 2 (Sec. IV-D).

use super::{replay_controller, validate_user, ChaffStrategy, OnlineChaffController};
use crate::{loglik_cmp, Result};
use chaff_markov::{CellId, MarkovChain, StateDistribution, Trajectory, TransitionMatrix};
use rand::RngCore;
use std::cmp::Ordering;

/// The myopic online (MO) strategy — Algorithm 2 (Sec. IV-D).
///
/// The online counterpart of [`OoStrategy`](super::OoStrategy): it only
/// observes the user's *past* trajectory. The paper casts the online
/// problem as a finite-horizon MDP whose per-slot cost is the
/// eavesdropper's per-slot tracking accuracy, and MO is the myopic policy
/// (eq. 9) minimizing the immediate cost:
///
/// 1. move to the most likely next cell `x⁽¹⁾` if it does not coincide
///    with the user;
/// 2. otherwise move to the second most likely cell `x⁽²⁾` — but only if
///    the chaff's cumulative likelihood stays at least the user's
///    (`γ_t ≤ 0`);
/// 3. otherwise accept co-location at `x⁽¹⁾` this slot, keeping the
///    likelihood race winnable in future slots.
///
/// Theorem V.5 shows MO also drives per-slot tracking accuracy to zero
/// when `E[c_t] < 0`, at an `O(1/T)` time-average rate (Corollary V.6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoStrategy;

impl ChaffStrategy for MoStrategy {
    fn name(&self) -> &'static str {
        "MO"
    }

    fn generate(
        &self,
        chain: &MarkovChain,
        user: &Trajectory,
        num_chaffs: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Trajectory>> {
        validate_user(chain, user)?;
        let mut controller = MoController::new(chain);
        let chaff = replay_controller(&mut controller, user, rng);
        Ok(vec![chaff; num_chaffs])
    }

    fn deterministic_map(&self, chain: &MarkovChain, observed: &Trajectory) -> Option<Trajectory> {
        if observed.is_empty() {
            return None;
        }
        let mut controller = MoController::new(chain);
        let mut out = Trajectory::with_capacity(observed.len());
        for user_now in observed.iter() {
            out.push(controller.decide(user_now, &[]));
        }
        Some(out)
    }
}

/// Online form of [`MoStrategy`]; also usable directly by the MEC
/// simulator.
///
/// The controller tracks the chaff's previous cell, the user's previous
/// cell and the log-likelihood gap `γ_t` (Sec. IV-D). It is fully
/// deterministic — the `rng` required by the
/// [`OnlineChaffController`] interface is never consumed.
#[derive(Debug, Clone)]
pub struct MoController<'a> {
    chains: super::EpochChains<'a>,
    /// The chaff's and the user's cells one slot ago (`None` before the
    /// launch slot).
    prev: Option<(CellId, CellId)>,
    /// γ_{t-1}: cumulative user-minus-chaff log-likelihood gap.
    gamma: f64,
}

impl<'a> MoController<'a> {
    /// Creates a controller for one chaff over a stationary chain.
    pub fn new(chain: &'a MarkovChain) -> Self {
        Self::scheduled(super::EpochChains::stationary(chain))
    }

    /// Creates a controller stepping against epoch-active chains: γ's
    /// per-slot increments are scored under the slot-active chain — the
    /// same tables a schedule-aware detector applies to that slot — and
    /// the chaff/user positions carry across epoch boundaries.
    pub fn scheduled(chains: super::EpochChains<'a>) -> Self {
        MoController {
            chains,
            prev: None,
            gamma: 0.0,
        }
    }

    /// The current log-likelihood gap `γ_t` (positive = user more likely).
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Decides the chaff's cell for this slot given the user's cell.
    ///
    /// `avoid` adds extra forbidden cells (the RMO strategy's avoid lists);
    /// it is best-effort: if every admissible cell is forbidden the
    /// controller ignores the list rather than stall the chaff.
    #[inline]
    pub fn decide(&mut self, user_now: CellId, avoid: &[CellId]) -> CellId {
        let choice = mo_step(
            self.chains.advance(),
            self.prev,
            &mut self.gamma,
            user_now,
            avoid,
        );
        self.prev = Some((choice, user_now));
        choice
    }
}

/// One MO step under the slot-active `chain`: `prev` holds the chaff's
/// and the user's cells one slot ago (`None` at the launch slot) and
/// `gamma` the running gap `γ`, updated in place. Returns the chaff's
/// cell. The body of [`MoController::decide`], shared with the fleet's
/// flat chaff lanes, which hold only `prev` and `γ`.
#[doc(hidden)]
#[inline]
pub fn mo_step(
    chain: &MarkovChain,
    prev: Option<(CellId, CellId)>,
    gamma: &mut f64,
    user_now: CellId,
    avoid: &[CellId],
) -> CellId {
    let matrix = chain.matrix();
    // The user's realized move, scored once: it feeds both the dodge
    // test and the γ update.
    let (choice, user_inc, chaff_inc) = match prev {
        None => {
            let pi = chain.initial();
            let choice = decide_first(pi, user_now, avoid);
            (choice, pi.log_prob(user_now), pi.log_prob(choice))
        }
        Some((chaff, user)) => {
            let user_inc = matrix.log_prob(user, user_now);
            let (choice, chaff_inc) = if avoid.is_empty() {
                step_ranked(matrix, chaff, user_now, *gamma, user_inc)
            } else {
                let choice = step_scan(matrix, chaff, user_now, avoid, *gamma, user_inc);
                (choice, matrix.log_prob(chaff, choice))
            };
            (choice, user_inc, chaff_inc)
        }
    };
    *gamma = add_gap(*gamma, user_inc, chaff_inc);
    choice
}

/// Slot 1 (lines 1–11 of Algorithm 2), using the steady state.
fn decide_first(pi: &StateDistribution, user_now: CellId, avoid: &[CellId]) -> CellId {
    let first = argmax_dist(pi, &[], avoid);
    let Some(first) = first else {
        return user_now; // degenerate: no admissible cell at all
    };
    if first != user_now {
        return first;
    }
    match argmax_dist(pi, &[user_now], avoid) {
        Some(second) if loglik_cmp(pi.prob(second), pi.prob(user_now)) != Ordering::Less => second,
        _ => first,
    }
}

/// Slots t ≥ 2 (lines 12–23 of Algorithm 2) with no avoid list, read off
/// the row's cached top two successors: `x⁽¹⁾` is the row argmax and,
/// when it collides with the user, `x⁽²⁾` — the argmax excluding the
/// user's cell — is the runner-up. Returns the move and its cached
/// log-probability; `user_inc` is the user's realized step.
#[inline]
fn step_ranked(
    matrix: &TransitionMatrix,
    prev: CellId,
    user_now: CellId,
    gamma: f64,
    user_inc: f64,
) -> (CellId, f64) {
    let (first, second) = matrix.ranked_successors(prev);
    let Some(first) = first else {
        // No successors at all: stay put.
        return (prev, matrix.log_prob(prev, prev));
    };
    if first.cell != user_now {
        return (first.cell, first.log_prob);
    }
    // x⁽¹⁾ collides with the user; take x⁽²⁾ if it keeps the cumulative
    // likelihood race at least tied (γ_t ≤ 0).
    match second {
        Some(second)
            if loglik_cmp(add_gap(gamma, user_inc, second.log_prob), 0.0) != Ordering::Greater =>
        {
            (second.cell, second.log_prob)
        }
        _ => (first.cell, first.log_prob),
    }
}

/// Slots t ≥ 2 by scanning the row, honoring `avoid` best-effort: the
/// RMO path, and the oracle [`step_ranked`] is tested against.
fn step_scan(
    matrix: &TransitionMatrix,
    prev: CellId,
    user_now: CellId,
    avoid: &[CellId],
    gamma: f64,
    user_inc: f64,
) -> CellId {
    let first = argmax_row(matrix, prev, &[], avoid);
    let Some(first) = first else {
        return prev; // no successors at all: stay put
    };
    if first != user_now {
        return first;
    }
    if let Some(second) = argmax_row(matrix, prev, &[user_now], avoid) {
        let gamma_if_second = add_gap(gamma, user_inc, matrix.log_prob(prev, second));
        if loglik_cmp(gamma_if_second, 0.0) != Ordering::Greater {
            return second;
        }
    }
    first
}

impl OnlineChaffController for MoController<'_> {
    fn next(&mut self, user_now: CellId, avoid: &[CellId], _rng: &mut dyn RngCore) -> CellId {
        self.decide(user_now, avoid)
    }
}

/// `gamma + user_inc − chaff_inc` with `(−inf) − (−inf) = 0` (both moves
/// impossible — no information either way).
fn add_gap(gamma: f64, user_inc: f64, chaff_inc: f64) -> f64 {
    let diff = if user_inc == f64::NEG_INFINITY && chaff_inc == f64::NEG_INFINITY {
        0.0
    } else {
        user_inc - chaff_inc
    };
    if gamma.is_infinite() && diff.is_infinite() && gamma.signum() != diff.signum() {
        0.0
    } else {
        gamma + diff
    }
}

/// Argmax over the steady state, skipping `exclude` and (best-effort)
/// `avoid`. Retries without `avoid` when it eliminates every candidate.
fn argmax_dist(pi: &StateDistribution, exclude: &[CellId], avoid: &[CellId]) -> Option<CellId> {
    let pick = |use_avoid: bool| -> Option<CellId> {
        let mut best: Option<(CellId, f64)> = None;
        for j in 0..pi.num_states() {
            let cell = CellId::new(j);
            if exclude.contains(&cell) || (use_avoid && avoid.contains(&cell)) {
                continue;
            }
            let p = pi.prob(cell);
            match best {
                Some((_, bp)) if bp >= p => {}
                _ => best = Some((cell, p)),
            }
        }
        best.map(|(c, _)| c)
    };
    pick(true).or_else(|| pick(false))
}

/// Argmax over successors of `prev`, skipping `exclude` and (best-effort)
/// `avoid`.
fn argmax_row(
    matrix: &TransitionMatrix,
    prev: CellId,
    exclude: &[CellId],
    avoid: &[CellId],
) -> Option<CellId> {
    let pick = |use_avoid: bool| -> Option<CellId> {
        let mut best: Option<(CellId, f64)> = None;
        for (cell, p) in matrix.successors(prev) {
            if exclude.contains(&cell) || (use_avoid && avoid.contains(&cell)) {
                continue;
            }
            match best {
                Some((_, bp)) if bp >= p => {}
                _ => best = Some((cell, p)),
            }
        }
        best.map(|(c, _)| c)
    };
    pick(true).or_else(|| pick(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaff_markov::models::ModelKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn follows_algorithm_2_case_one() {
        // Whenever x(1) differs from the user's cell, MO must take it.
        let mut rng = StdRng::seed_from_u64(51);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(8, &mut rng).unwrap()).unwrap();
        let user = chain.sample_trajectory(40, &mut rng);
        let chaff = &MoStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
        for t in 1..40 {
            let x1 = chain
                .matrix()
                .argmax_successor(chaff.cell(t - 1), None)
                .unwrap()
                .0;
            if x1 != user.cell(t) {
                assert_eq!(chaff.cell(t), x1, "slot {t}");
            }
        }
    }

    #[test]
    fn gamma_tracks_the_likelihood_gap() {
        let mut rng = StdRng::seed_from_u64(52);
        let chain =
            MarkovChain::new(ModelKind::TemporallySkewed.build(10, &mut rng).unwrap()).unwrap();
        let user = chain.sample_trajectory(30, &mut rng);
        let mut controller = MoController::new(&chain);
        let mut chaff = Trajectory::new();
        for cell in user.iter() {
            chaff.push(controller.decide(cell, &[]));
        }
        let expected = chain.log_likelihood(&user) - chain.log_likelihood(&chaff);
        assert!((controller.gamma() - expected).abs() < 1e-9);
    }

    #[test]
    fn chaff_likelihood_stays_competitive_on_skewed_models() {
        // On model (c)/(d) MO's chaff takes the high-probability drift move
        // almost every slot, so its cumulative likelihood should not fall
        // behind the user's by the end of the horizon.
        let mut rng = StdRng::seed_from_u64(53);
        for kind in [
            ModelKind::TemporallySkewed,
            ModelKind::SpatioTemporallySkewed,
        ] {
            let chain = MarkovChain::new(kind.build(10, &mut rng).unwrap()).unwrap();
            let mut wins = 0;
            let runs = 30;
            for _ in 0..runs {
                let user = chain.sample_trajectory(100, &mut rng);
                let chaff = &MoStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
                if chain.log_likelihood(chaff) >= chain.log_likelihood(&user) - 1e-9 {
                    wins += 1;
                }
            }
            assert!(wins >= runs * 8 / 10, "{kind}: wins = {wins}/{runs}");
        }
    }

    #[test]
    fn avoids_user_when_second_choice_is_free() {
        // Two exactly-equal top choices: dodging to x(2) costs nothing in
        // likelihood (γ stays 0 ≤ 0), so MO must never co-locate.
        let m = TransitionMatrix::from_rows(vec![
            vec![0.45, 0.45, 0.10],
            vec![0.45, 0.45, 0.10],
            vec![0.45, 0.45, 0.10],
        ])
        .unwrap();
        let chain = MarkovChain::new(m).unwrap();
        let user = Trajectory::from_indices([0, 0, 0, 0]);
        let chaff = &MoStrategy
            .generate(&chain, &user, 1, &mut rand::rng())
            .unwrap()[0];
        assert_eq!(user.coincidences(chaff), 0, "chaff = {chaff}");
    }

    #[test]
    fn co_locates_rather_than_losing_the_race() {
        // One dominant cell: dodging to the second choice is so expensive
        // that γ would flip positive, so case 3 applies and MO co-locates.
        let m = TransitionMatrix::from_rows(vec![
            vec![0.98, 0.01, 0.01],
            vec![0.98, 0.01, 0.01],
            vec![0.98, 0.01, 0.01],
        ])
        .unwrap();
        let chain = MarkovChain::new(m).unwrap();
        let user = Trajectory::from_indices([0, 0, 0, 0, 0, 0]);
        let chaff = &MoStrategy
            .generate(&chain, &user, 1, &mut rand::rng())
            .unwrap()[0];
        // After at most one dodge the gap is too big; most slots co-locate.
        assert!(user.coincidences(chaff) >= 4, "chaff = {chaff}");
    }

    #[test]
    fn deterministic_map_matches_generate() {
        let mut rng = StdRng::seed_from_u64(54);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(7, &mut rng).unwrap()).unwrap();
        let user = chain.sample_trajectory(20, &mut rng);
        let map = MoStrategy.deterministic_map(&chain, &user).unwrap();
        let gen = MoStrategy.generate(&chain, &user, 1, &mut rng).unwrap();
        assert_eq!(map, gen[0]);
    }

    #[test]
    fn ranked_step_matches_the_scan_over_random_states() {
        let mut rng = StdRng::seed_from_u64(56);
        // Dense rows, exact-tie rows and rows with a single successor.
        let mut matrices: Vec<TransitionMatrix> = ModelKind::ALL
            .iter()
            .map(|kind| kind.build(8, &mut rng).unwrap())
            .collect();
        matrices.push(
            TransitionMatrix::from_rows(vec![
                vec![0.45, 0.45, 0.10],
                vec![0.0, 1.0, 0.0],
                vec![0.5, 0.0, 0.5],
            ])
            .unwrap(),
        );
        matrices.push(TransitionMatrix::identity(3).unwrap());
        let gammas = [0.0, -0.0, 1e-300, -1e-300, f64::INFINITY, f64::NEG_INFINITY];
        for m in &matrices {
            let n = m.num_states();
            for _ in 0..400 {
                let prev = CellId::new(rng.random_range(0..n));
                let user = CellId::new(rng.random_range(0..n));
                let from = CellId::new(rng.random_range(0..n));
                let user_inc = m.log_prob(from, user);
                let gamma = if rng.random_bool(0.3) {
                    gammas[rng.random_range(0..gammas.len())]
                } else {
                    rng.random_range(-3.0..3.0)
                };
                let (cell, log_prob) = step_ranked(m, prev, user, gamma, user_inc);
                let scanned = step_scan(m, prev, user, &[], gamma, user_inc);
                assert_eq!(cell, scanned, "prev {prev}, user {user}, γ {gamma}");
                let p = m.prob(prev, cell);
                let ln = if p > 0.0 { p.ln() } else { f64::NEG_INFINITY };
                assert_eq!(log_prob.to_bits(), ln.to_bits());
            }
        }
    }

    #[test]
    fn avoid_list_is_honored_when_possible() {
        let mut rng = StdRng::seed_from_u64(55);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(8, &mut rng).unwrap()).unwrap();
        let mut plain = MoController::new(&chain);
        let mut avoiding = MoController::new(&chain);
        let user = CellId::new(0);
        let plain_first = plain.decide(user, &[]);
        let avoided = avoiding.decide(user, &[plain_first]);
        assert_ne!(avoided, plain_first);
    }
}
