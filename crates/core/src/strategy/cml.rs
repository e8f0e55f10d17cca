//! The constrained maximum-likelihood (CML) chaff strategy (Sec. V-C1).

use super::{replay_controller, validate_user, ChaffStrategy, OnlineChaffController};
use crate::Result;
use chaff_markov::{CellId, MarkovChain, Trajectory};
use rand::RngCore;

/// The constrained maximum-likelihood (CML) strategy (Sec. V-C1).
///
/// Greedily maximizes the chaff's likelihood under the hard constraint of
/// never co-locating with the user: at each slot the chaff moves to its
/// most likely next cell *excluding the user's current cell*. CML is the
/// analyzable auxiliary strategy whose tracking accuracy upper-bounds the
/// OO strategy's (Theorem V.4) — and it is fully online.
///
/// When the exclusion leaves no admissible move (possible only on very
/// sparse empirical models), the controller falls back to the
/// unconstrained most likely cell, accepting one co-location; the paper's
/// models always have an admissible second choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmlStrategy;

impl ChaffStrategy for CmlStrategy {
    fn name(&self) -> &'static str {
        "CML"
    }

    fn generate(
        &self,
        chain: &MarkovChain,
        user: &Trajectory,
        num_chaffs: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Trajectory>> {
        validate_user(chain, user)?;
        let mut controller = CmlController::new(chain);
        let chaff = replay_controller(&mut controller, user, rng);
        Ok(vec![chaff; num_chaffs])
    }

    fn deterministic_map(&self, chain: &MarkovChain, observed: &Trajectory) -> Option<Trajectory> {
        if observed.is_empty() {
            return None;
        }
        let mut controller = CmlController::new(chain);
        let mut rng = UnusedRng(0);
        Some(replay_controller(&mut controller, observed, &mut rng))
    }
}

/// Online form of [`CmlStrategy`]. On a time-varying model
/// ([`scheduled`](Self::scheduled)) the greedy walk stays continuous:
/// each move is the constrained argmax of the slot-active chain from
/// wherever the chaff was one slot ago.
#[derive(Debug, Clone)]
pub struct CmlController<'a> {
    chains: super::EpochChains<'a>,
    current: Option<CellId>,
}

impl<'a> CmlController<'a> {
    /// Creates a controller for one chaff over a stationary chain.
    pub fn new(chain: &'a MarkovChain) -> Self {
        Self::scheduled(super::EpochChains::stationary(chain))
    }

    /// Creates a controller stepping against epoch-active chains.
    pub fn scheduled(chains: super::EpochChains<'a>) -> Self {
        CmlController {
            chains,
            current: None,
        }
    }
}

impl CmlController<'_> {
    /// Decides the chaff's cell for this slot given the user's cell (the
    /// [`OnlineChaffController::next`] body; CML draws no randomness).
    #[inline]
    pub fn decide(&mut self, user_now: CellId, avoid: &[CellId]) -> CellId {
        let choice = cml_step(self.chains.advance(), self.current, user_now, avoid);
        self.current = Some(choice);
        choice
    }
}

/// One CML step under the slot-active `chain`: at the launch slot
/// (`current` is `None`) the most probable steady-state cell other than
/// the user's, otherwise the constrained argmax successor of `current`.
/// The body of [`CmlController::decide`], shared with the fleet's flat
/// chaff lanes, which hold only the cell.
#[doc(hidden)]
#[inline]
pub fn cml_step(
    chain: &MarkovChain,
    current: Option<CellId>,
    user_now: CellId,
    avoid: &[CellId],
) -> CellId {
    match current {
        None => {
            // t = 1: most probable steady-state cell other than the
            // user's.
            let pi = chain.initial();
            let mut best: Option<(CellId, f64)> = None;
            for j in 0..pi.num_states() {
                let cell = CellId::new(j);
                if cell == user_now || avoid.contains(&cell) {
                    continue;
                }
                let p = pi.prob(cell);
                match best {
                    Some((_, bp)) if bp >= p => {}
                    _ => best = Some((cell, p)),
                }
            }
            best.map(|(c, _)| c).unwrap_or(user_now)
        }
        Some(prev) => pick_constrained_argmax(chain, prev, user_now, avoid),
    }
}

impl OnlineChaffController for CmlController<'_> {
    fn next(&mut self, user_now: CellId, avoid: &[CellId], _rng: &mut dyn RngCore) -> CellId {
        self.decide(user_now, avoid)
    }
}

/// Most likely successor of `prev` excluding the user's cell and the avoid
/// list; falls back to the unconstrained argmax (accepting co-location),
/// then to staying put, when exclusions leave nothing.
///
/// This is the paper's `f(x_{1,t}, x_{2,t-1})` (eq. 17); the theory module
/// reuses it to build the CML product chain.
///
/// With no avoid list this reads the row's cached top two successors:
/// excluding one cell leaves the argmax unless that cell *is* the argmax,
/// in which case it leaves the runner-up — the same tie-broken winner the
/// scan finds.
#[inline]
pub(crate) fn pick_constrained_argmax(
    chain: &MarkovChain,
    prev: CellId,
    user_now: CellId,
    avoid: &[CellId],
) -> CellId {
    if !avoid.is_empty() {
        return pick_constrained_argmax_scan(chain, prev, user_now, avoid);
    }
    match chain.matrix().ranked_successors(prev) {
        (Some(first), _) if first.cell != user_now => first.cell,
        (Some(first), second) => second.map_or(first.cell, |s| s.cell),
        (None, _) => prev,
    }
}

/// [`pick_constrained_argmax`] by scanning the row: the path for a
/// non-empty avoid list, and the oracle the cached path is tested against.
fn pick_constrained_argmax_scan(
    chain: &MarkovChain,
    prev: CellId,
    user_now: CellId,
    avoid: &[CellId],
) -> CellId {
    let mut best: Option<(CellId, f64)> = None;
    for (cell, p) in chain.matrix().successors(prev) {
        if cell == user_now || avoid.contains(&cell) {
            continue;
        }
        match best {
            Some((_, bp)) if bp >= p => {}
            _ => best = Some((cell, p)),
        }
    }
    if let Some((cell, _)) = best {
        return cell;
    }
    match chain.matrix().argmax_successor(prev, None) {
        Some((cell, _)) => cell,
        None => prev,
    }
}

/// An `RngCore` for replaying *deterministic* controllers through
/// interfaces that formally require randomness. The CML controller never
/// consults it; should a future controller draw from it anyway, it
/// yields a fixed SplitMix64 stream — the replay stays deterministic and
/// the process stays up (this used to be a trio of `unreachable!` panic
/// sites reachable through the public strategy API).
struct UnusedRng(u64);

impl RngCore for UnusedRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        // SplitMix64: the workspace's standard stream-derivation mixer.
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaff_markov::models::ModelKind;
    use chaff_markov::TransitionMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chaff_never_co_locates_on_dense_models() {
        let mut rng = StdRng::seed_from_u64(31);
        for kind in ModelKind::ALL {
            let chain = MarkovChain::new(kind.build(10, &mut rng).unwrap()).unwrap();
            for _ in 0..10 {
                let user = chain.sample_trajectory(60, &mut rng);
                let chaff = &CmlStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
                assert_eq!(user.coincidences(chaff), 0, "{kind}");
            }
        }
    }

    #[test]
    fn chaff_moves_are_greedy_argmax() {
        let mut rng = StdRng::seed_from_u64(32);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(8, &mut rng).unwrap()).unwrap();
        let user = chain.sample_trajectory(30, &mut rng);
        let chaff = &CmlStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
        for t in 1..30 {
            let prev = chaff.cell(t - 1);
            let expected = chain
                .matrix()
                .argmax_successor(prev, Some(user.cell(t)))
                .unwrap()
                .0;
            assert_eq!(chaff.cell(t), expected, "slot {t}");
        }
    }

    #[test]
    fn first_slot_picks_best_non_user_cell() {
        let mut rng = StdRng::seed_from_u64(33);
        let chain =
            MarkovChain::new(ModelKind::SpatiallySkewed.build(10, &mut rng).unwrap()).unwrap();
        let user = chain.sample_trajectory(5, &mut rng);
        let chaff = &CmlStrategy.generate(&chain, &user, 1, &mut rng).unwrap()[0];
        let expected = chain.initial().argmax(Some(user.cell(0)));
        assert_eq!(chaff.cell(0), expected);
    }

    #[test]
    fn forced_co_location_falls_back_gracefully() {
        // From cell 0 the only possible move is to cell 1; if the user is
        // at cell 1 the chaff has no admissible move and co-locates.
        let m = TransitionMatrix::from_rows(vec![vec![0.0, 1.0], vec![0.5, 0.5]]).unwrap();
        let chain = MarkovChain::new(m).unwrap();
        let mut controller = CmlController::new(&chain);
        let mut rng = StdRng::seed_from_u64(1);
        // t=1: user at 1 -> chaff takes cell 0 (only other cell).
        let c1 = controller.next(CellId::new(1), &[], &mut rng);
        assert_eq!(c1, CellId::new(0));
        // t=2: from 0 the chaff can only reach 1, but the user sits there.
        let c2 = controller.next(CellId::new(1), &[], &mut rng);
        assert_eq!(c2, CellId::new(1));
    }

    #[test]
    fn cached_argmax_matches_the_scan_over_random_states() {
        let mut rng = StdRng::seed_from_u64(35);
        // Dense rows, tie-dense rows and rows with a single successor.
        let mut chains: Vec<MarkovChain> = ModelKind::ALL
            .iter()
            .map(|kind| MarkovChain::new(kind.build(9, &mut rng).unwrap()).unwrap())
            .collect();
        let ties = TransitionMatrix::from_weights(
            (0..6)
                .map(|i| (0..6).map(|j| [1.0, 2.0, 0.0][(i * j + i) % 3]).collect())
                .collect(),
        )
        .unwrap();
        let single = TransitionMatrix::from_rows(vec![
            vec![0.0, 1.0, 0.0],
            vec![0.5, 0.0, 0.5],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        for m in [ties, single] {
            let n = m.num_states();
            let pi = chaff_markov::StateDistribution::uniform(n).unwrap();
            chains.push(MarkovChain::with_initial(m, pi).unwrap());
        }
        for chain in &chains {
            let n = chain.num_states();
            for prev in 0..n {
                for user in 0..n {
                    let (prev, user) = (CellId::new(prev), CellId::new(user));
                    assert_eq!(
                        pick_constrained_argmax(chain, prev, user, &[]),
                        pick_constrained_argmax_scan(chain, prev, user, &[]),
                        "prev {prev}, user {user}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_map_matches_generate() {
        let mut rng = StdRng::seed_from_u64(34);
        let chain =
            MarkovChain::new(ModelKind::TemporallySkewed.build(10, &mut rng).unwrap()).unwrap();
        let user = chain.sample_trajectory(25, &mut rng);
        let by_map = CmlStrategy.deterministic_map(&chain, &user).unwrap();
        let by_generate = CmlStrategy.generate(&chain, &user, 1, &mut rng).unwrap();
        assert_eq!(by_map, by_generate[0]);
    }
}
