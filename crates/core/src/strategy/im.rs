//! The impersonating (IM) chaff strategy (Sec. IV-A).

use super::{validate_user, ChaffStrategy, OnlineChaffController};
use crate::Result;
use chaff_markov::{CellId, MarkovChain, Trajectory};
use rand::{Rng, RngCore};

/// The impersonating (IM) strategy (Sec. IV-A).
///
/// Each chaff follows an independent trajectory drawn from the *same*
/// Markov chain as the user, so all `N` observed trajectories are
/// statistically identical and any detector — including the ML detector —
/// is reduced to a random guess. Its accuracy floor is eq. (11):
/// `P_IM = Σπ² + (1 − Σπ²)/N`, bounded away from zero even as `N → ∞`
/// unless the steady state is uniform.
///
/// IM is the only strategy in the paper that is *fully robust*: knowing
/// the strategy gives the advanced eavesdropper no extra power
/// (Sec. VI-A1), and the only one whose accuracy improves with more chaffs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImStrategy;

impl ChaffStrategy for ImStrategy {
    fn name(&self) -> &'static str {
        "IM"
    }

    fn generate(
        &self,
        chain: &MarkovChain,
        user: &Trajectory,
        num_chaffs: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Trajectory>> {
        validate_user(chain, user)?;
        Ok((0..num_chaffs)
            .map(|_| chain.sample_trajectory(user.len(), rng))
            .collect())
    }
}

/// Online form of [`ImStrategy`]: a chaff that walks the user's chain
/// independently, one step per slot. On a time-varying model
/// ([`scheduled`](Self::scheduled)) the walk stays continuous — each
/// step is drawn from the slot-active chain conditioned on wherever the
/// chaff was one slot ago, exactly the process the users follow.
#[derive(Debug, Clone)]
pub struct ImController<'a> {
    chains: super::EpochChains<'a>,
    current: Option<CellId>,
}

impl<'a> ImController<'a> {
    /// Creates a controller for one chaff over a stationary chain.
    pub fn new(chain: &'a MarkovChain) -> Self {
        Self::scheduled(super::EpochChains::stationary(chain))
    }

    /// Creates a controller stepping against epoch-active chains.
    pub fn scheduled(chains: super::EpochChains<'a>) -> Self {
        ImController {
            chains,
            current: None,
        }
    }
}

impl ImController<'_> {
    /// The chaff's cell for this slot: one draw from `rng` (the
    /// [`OnlineChaffController::next`] body, generic over the RNG so a
    /// concrete generator is called without dynamic dispatch).
    #[inline]
    pub fn walk<R: Rng + ?Sized>(&mut self, rng: &mut R) -> CellId {
        let chain = self.chains.advance();
        let next = match self.current {
            None => chain.initial().sample(rng),
            Some(cell) => chain.step(cell, rng),
        };
        self.current = Some(next);
        next
    }
}

impl OnlineChaffController for ImController<'_> {
    fn next(&mut self, _user_now: CellId, _avoid: &[CellId], rng: &mut dyn RngCore) -> CellId {
        self.walk(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaff_markov::TransitionMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain() -> MarkovChain {
        let m = TransitionMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.3, 0.7]]).unwrap();
        MarkovChain::new(m).unwrap()
    }

    #[test]
    fn generates_independent_trajectories_of_user_length() {
        let c = chain();
        let mut rng = StdRng::seed_from_u64(10);
        let user = c.sample_trajectory(50, &mut rng);
        let chaffs = ImStrategy.generate(&c, &user, 5, &mut rng).unwrap();
        assert_eq!(chaffs.len(), 5);
        for chaff in &chaffs {
            assert_eq!(chaff.len(), 50);
        }
        // With overwhelming probability the samples differ from each other.
        assert_ne!(chaffs[0], chaffs[1]);
    }

    #[test]
    fn chaff_statistics_match_the_chain() {
        // The fraction of slots a long IM chaff spends in cell 0 should
        // approach the stationary mass of cell 0.
        let c = chain();
        let mut rng = StdRng::seed_from_u64(11);
        let user = c.sample_trajectory(20_000, &mut rng);
        let chaff = &ImStrategy.generate(&c, &user, 1, &mut rng).unwrap()[0];
        let occ = chaff.occupancy(2);
        let pi0 = c.initial().prob(CellId::new(0));
        assert!((occ[0] - pi0).abs() < 0.02, "occ = {}, pi = {pi0}", occ[0]);
    }

    #[test]
    fn controller_replay_matches_interface() {
        let c = chain();
        let mut rng = StdRng::seed_from_u64(12);
        let mut controller = ImController::new(&c);
        let mut prev: Option<CellId> = None;
        for _ in 0..30 {
            let cell = controller.next(CellId::new(0), &[], &mut rng);
            if let Some(p) = prev {
                // Every move must follow the chain's support.
                assert!(c.matrix().prob(p, cell) > 0.0);
            }
            prev = Some(cell);
        }
    }

    #[test]
    fn rejects_empty_user() {
        let c = chain();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(ImStrategy
            .generate(&c, &Trajectory::new(), 1, &mut rng)
            .is_err());
    }
}
