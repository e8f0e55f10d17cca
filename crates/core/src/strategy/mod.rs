//! The user's side: chaff-control strategies (Sec. IV and VI-B).
//!
//! A strategy decides where the chaff services are launched and migrated.
//! The challenge (Sec. I) is to *maximally resemble the real service while
//! minimally co-locating with it*: a chaff that never moves is conspicuous,
//! and a chaff glued to the user protects nothing.
//!
//! Two interfaces are provided:
//!
//! * [`ChaffStrategy`] — the batch interface: given the user's (full)
//!   trajectory, produce `N − 1` chaff trajectories. Offline strategies
//!   (ML, OO) need the whole trajectory; online strategies implement this
//!   by replaying their per-slot controller.
//! * [`OnlineChaffController`] — the per-slot interface used by the MEC
//!   simulator: observe the user's current cell, emit the chaff's next
//!   cell. Only online strategies (IM, CML, MO) provide controllers.
//!
//! Deterministic strategies additionally expose their strategy map
//! `Γ(x)` — the chaff trajectory they would produce for a hypothetical
//! user trajectory `x` — via [`ChaffStrategy::deterministic_map`]. This is
//! what the advanced eavesdropper exploits (Sec. VI-A) and what the robust
//! strategies randomize away (Sec. VI-B).

mod cml;
mod im;
mod ml;
mod mo;
mod oo;
mod robust;
mod rollout;

#[doc(hidden)]
pub use cml::cml_step;
pub(crate) use cml::pick_constrained_argmax;
pub use cml::{CmlController, CmlStrategy};
#[doc(hidden)]
pub use im::im_step;
pub use im::{ImController, ImStrategy};
pub use ml::MlStrategy;
#[doc(hidden)]
pub use mo::mo_step;
pub use mo::{MoController, MoStrategy};
pub use oo::OoStrategy;
pub use robust::{RmlStrategy, RmoStrategy, RooStrategy};
pub use rollout::{RolloutStrategy, DEFAULT_ROLLOUT_SAMPLES};

use crate::Result;
use chaff_markov::{CellId, MarkovChain, MobilityRegistry, Trajectory};
use rand::RngCore;
use std::fmt;
use std::str::FromStr;

/// A chaff-control strategy: produces chaff trajectories that accompany
/// the user's real service trajectory.
pub trait ChaffStrategy {
    /// Short name used in reports and figures (e.g. `"OO"`).
    fn name(&self) -> &'static str;

    /// Generates `num_chaffs` chaff trajectories for the given user
    /// trajectory.
    ///
    /// Deterministic strategies return `num_chaffs` copies of their single
    /// trajectory — the paper notes that against a deterministic detector
    /// at most one chaff has any effect (Sec. IV-B), so extra budget is
    /// spent on duplicates rather than left unused.
    ///
    /// # Errors
    ///
    /// Returns an error when the user trajectory is empty, visits cells
    /// outside the model, or (for constrained variants) no feasible chaff
    /// trajectory exists.
    fn generate(
        &self,
        chain: &MarkovChain,
        user: &Trajectory,
        num_chaffs: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Trajectory>>;

    /// The strategy map `Γ(x)` of Sec. VI-A for deterministic strategies:
    /// the chaff trajectory this strategy would emit if `observed` were the
    /// user's trajectory. Randomized strategies return `None`.
    ///
    /// Robust strategies return the map of their deterministic *base*
    /// strategy: the advanced eavesdropper knows the strategy class but not
    /// its private randomness, so the base map is the best deterministic
    /// predictor available to it.
    fn deterministic_map(
        &self,
        _chain: &MarkovChain,
        _observed: &Trajectory,
    ) -> Option<Trajectory> {
        None
    }
}

/// The chain source an online controller steps against: one chain per
/// epoch of a [`MobilityRegistry`] class, selected by the controller's
/// own call count. The fleet drivers call a controller exactly once per
/// slot, in order, so the counter *is* the slot index.
///
/// This keeps a time-varying chaff's cross-slot state (walk position,
/// likelihood gap) *continuous* across epoch boundaries — exactly like
/// the users it must resemble, whose arrivals are drawn from the
/// slot-active chain conditioned on wherever they were one slot ago. A
/// stationary source ([`EpochChains::stationary`]) always yields its
/// single chain, so the one-epoch path is the unchanged stationary code.
///
/// Both sources only borrow their chains: building one allocates
/// nothing, so a fleet can hold one per chaff lane by value.
#[derive(Debug, Clone)]
pub struct EpochChains<'a> {
    source: ChainSource<'a>,
    slot: usize,
}

#[derive(Debug, Clone)]
enum ChainSource<'a> {
    Stationary(&'a MarkovChain),
    Registry {
        registry: &'a MobilityRegistry,
        class: usize,
    },
}

impl<'a> EpochChains<'a> {
    /// A source that yields `chain` on every slot.
    pub fn stationary(chain: &'a MarkovChain) -> Self {
        EpochChains {
            source: ChainSource::Stationary(chain),
            slot: 0,
        }
    }

    /// A source yielding `registry.chain_at(class, epoch_of(slot))` at
    /// each slot, under the registry's own schedule (shape-validated when
    /// the registry was built).
    ///
    /// # Panics
    ///
    /// [`advance`](Self::advance) panics if `class` is not a class of
    /// `registry`.
    pub fn registry(registry: &'a MobilityRegistry, class: usize) -> Self {
        EpochChains {
            source: ChainSource::Registry { registry, class },
            slot: 0,
        }
    }

    /// The chain governing the upcoming slot; advances the slot clock.
    #[inline]
    pub fn advance(&mut self) -> &'a MarkovChain {
        let chain = match self.source {
            ChainSource::Stationary(chain) => chain,
            ChainSource::Registry { registry, class } => {
                registry.chain_at(class, registry.schedule().epoch_of(self.slot))
            }
        };
        self.slot += 1;
        chain
    }
}

/// A per-slot chaff controller for online operation inside the MEC
/// simulator.
///
/// Call [`next`](OnlineChaffController::next) once per slot, in order,
/// passing the user's current cell; it returns the chaff's cell for that
/// slot. The first call corresponds to the launch slot `t = 1`.
pub trait OnlineChaffController {
    /// Decides the chaff's cell for the current slot.
    ///
    /// `avoid` lists cells the chaff should additionally avoid this slot
    /// (used by the robust RMO strategy); controllers treat it as a soft
    /// constraint and may ignore it when no admissible move exists.
    fn next(&mut self, user_now: CellId, avoid: &[CellId], rng: &mut dyn RngCore) -> CellId;
}

/// Replays an online controller over a full user trajectory — the batch
/// form of an online strategy.
pub(crate) fn replay_controller<C: OnlineChaffController>(
    controller: &mut C,
    user: &Trajectory,
    rng: &mut dyn RngCore,
) -> Trajectory {
    let mut out = Trajectory::with_capacity(user.len());
    for user_now in user.iter() {
        out.push(controller.next(user_now, &[], rng));
    }
    out
}

/// Validates a user trajectory against the model's state space.
pub(crate) fn validate_user(chain: &MarkovChain, user: &Trajectory) -> Result<()> {
    if user.is_empty() {
        return Err(crate::CoreError::EmptyTrajectory);
    }
    for cell in user.iter() {
        if cell.index() >= chain.num_states() {
            return Err(crate::CoreError::CellOutOfRange {
                cell: cell.index(),
                states: chain.num_states(),
            });
        }
    }
    Ok(())
}

/// Identifier for every strategy shipped with this crate; the evaluation
/// harness and the `repro` binary select strategies by this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Impersonating (Sec. IV-A).
    Im,
    /// Maximum likelihood (Sec. IV-B).
    Ml,
    /// Constrained maximum likelihood (Sec. V-C1).
    Cml,
    /// Optimal offline, Algorithm 1 (Sec. IV-C).
    Oo,
    /// Myopic online, Algorithm 2 (Sec. IV-D).
    Mo,
    /// Robust ML (Sec. VI-B1).
    Rml,
    /// Robust OO (Sec. VI-B2).
    Roo,
    /// Robust MO (Sec. VI-B3).
    Rmo,
    /// Sampling-based one-step lookahead (extension of Sec. IV-D's MDP).
    Rollout,
}

impl StrategyKind {
    /// All strategies in the paper's presentation order.
    pub const ALL: [StrategyKind; 9] = [
        StrategyKind::Im,
        StrategyKind::Ml,
        StrategyKind::Cml,
        StrategyKind::Oo,
        StrategyKind::Mo,
        StrategyKind::Rml,
        StrategyKind::Roo,
        StrategyKind::Rmo,
        StrategyKind::Rollout,
    ];

    /// Instantiates the strategy with default parameters.
    pub fn build(self) -> Box<dyn ChaffStrategy + Send + Sync> {
        match self {
            StrategyKind::Im => Box::new(ImStrategy),
            StrategyKind::Ml => Box::new(MlStrategy),
            StrategyKind::Cml => Box::new(CmlStrategy),
            StrategyKind::Oo => Box::new(OoStrategy),
            StrategyKind::Mo => Box::new(MoStrategy),
            StrategyKind::Rml => Box::new(RmlStrategy),
            StrategyKind::Roo => Box::new(RooStrategy),
            StrategyKind::Rmo => Box::new(RmoStrategy),
            StrategyKind::Rollout => Box::new(RolloutStrategy::default()),
        }
    }

    /// Whether the strategy output is a deterministic function of the user
    /// trajectory (making it vulnerable to the advanced eavesdropper).
    pub fn is_deterministic(self) -> bool {
        matches!(
            self,
            StrategyKind::Ml | StrategyKind::Cml | StrategyKind::Oo | StrategyKind::Mo
        )
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StrategyKind::Im => "IM",
            StrategyKind::Ml => "ML",
            StrategyKind::Cml => "CML",
            StrategyKind::Oo => "OO",
            StrategyKind::Mo => "MO",
            StrategyKind::Rml => "RML",
            StrategyKind::Roo => "ROO",
            StrategyKind::Rmo => "RMO",
            StrategyKind::Rollout => "ROLLOUT",
        };
        f.write_str(s)
    }
}

impl FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim().to_ascii_uppercase().as_str() {
            "IM" => Ok(StrategyKind::Im),
            "ML" => Ok(StrategyKind::Ml),
            "CML" => Ok(StrategyKind::Cml),
            "OO" => Ok(StrategyKind::Oo),
            "MO" => Ok(StrategyKind::Mo),
            "RML" => Ok(StrategyKind::Rml),
            "ROO" => Ok(StrategyKind::Roo),
            "RMO" => Ok(StrategyKind::Rmo),
            "ROLLOUT" => Ok(StrategyKind::Rollout),
            other => Err(format!("unknown strategy '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaff_markov::models::ModelKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn strategy_kind_round_trips_through_strings() {
        for kind in StrategyKind::ALL {
            let parsed: StrategyKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<StrategyKind>().is_err());
    }

    #[test]
    fn all_strategies_generate_valid_trajectories() {
        let mut rng = StdRng::seed_from_u64(3);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(6, &mut rng).unwrap()).unwrap();
        let user = chain.sample_trajectory(20, &mut rng);
        for kind in StrategyKind::ALL {
            let strategy = kind.build();
            let chaffs = strategy.generate(&chain, &user, 3, &mut rng).unwrap();
            assert_eq!(chaffs.len(), 3, "{kind}");
            for chaff in &chaffs {
                assert_eq!(chaff.len(), user.len(), "{kind}");
                for cell in chaff.iter() {
                    assert!(cell.index() < chain.num_states(), "{kind}");
                }
            }
        }
    }

    #[test]
    fn deterministic_strategies_expose_their_map() {
        let mut rng = StdRng::seed_from_u64(5);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(6, &mut rng).unwrap()).unwrap();
        let user = chain.sample_trajectory(15, &mut rng);
        for kind in StrategyKind::ALL {
            let strategy = kind.build();
            let map = strategy.deterministic_map(&chain, &user);
            if kind == StrategyKind::Im || kind == StrategyKind::Rollout {
                assert!(map.is_none(), "{kind} should not expose a map");
            } else {
                assert!(map.is_some(), "{kind} should expose a map");
            }
            if kind.is_deterministic() {
                // Γ(user) must equal what generate() produces.
                let chaffs = strategy.generate(&chain, &user, 1, &mut rng).unwrap();
                assert_eq!(chaffs[0], map.unwrap(), "{kind}");
            }
        }
    }

    #[test]
    fn validate_user_rejects_bad_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let chain = MarkovChain::new(ModelKind::NonSkewed.build(4, &mut rng).unwrap()).unwrap();
        assert!(validate_user(&chain, &Trajectory::new()).is_err());
        assert!(validate_user(&chain, &Trajectory::from_indices([9])).is_err());
        assert!(validate_user(&chain, &Trajectory::from_indices([0, 3])).is_ok());
    }
}
