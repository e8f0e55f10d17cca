//! The auxiliary trellis graph of Fig. 2 and shortest-path solvers.
//!
//! The paper converts the maximum-likelihood trajectory search (eq. 2) into
//! a shortest-path problem: layer `t` holds one vertex per cell, the edge
//! from the virtual source into `(x, 1)` costs `-log π(x)`, the edge from
//! `(x, t-1)` to `(x', t)` costs `-log P(x' | x)`, and edges into the
//! virtual sink are free. A path's cost is the negative log-likelihood of
//! the corresponding trajectory, so the shortest path is the most likely
//! trajectory.
//!
//! Because the trellis is a layered DAG, the shortest path is computable by
//! a forward dynamic program in `O(T · nnz)`; a textbook Dijkstra
//! implementation (the solver the paper names) is also provided and the two
//! are cross-checked in tests. Both support *avoid-sets* — (cell, slot)
//! pairs whose vertex is removed — which is exactly the perturbation the
//! robust RML/ROO strategies apply (Sec. VI-B).

use crate::{CoreError, Result};
use chaff_markov::{CellId, MarkovChain, Trajectory};
use std::collections::BinaryHeap;

/// A set of (slot, cell) pairs that a trajectory must avoid.
///
/// Slot indices are 0-based. Used by the robust strategies: removing the
/// vertex for cell `l` at slot `t` forces the shortest path around it.
///
/// # Example
///
/// ```
/// use chaff_core::trellis::AvoidSet;
/// use chaff_markov::CellId;
///
/// let mut avoid = AvoidSet::new(5, 10);
/// avoid.insert(3, CellId::new(7));
/// assert!(avoid.contains(3, CellId::new(7)));
/// assert!(!avoid.contains(2, CellId::new(7)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AvoidSet {
    /// `mask[t * num_cells + cell]` — true when the vertex is removed.
    mask: Vec<bool>,
    num_cells: usize,
    horizon: usize,
}

impl AvoidSet {
    /// Creates an empty avoid-set for `horizon` slots over `num_cells` cells.
    pub fn new(horizon: usize, num_cells: usize) -> Self {
        AvoidSet {
            mask: vec![false; horizon * num_cells],
            num_cells,
            horizon,
        }
    }

    /// Marks `cell` as forbidden at `slot` (0-based). Out-of-range slots are
    /// ignored.
    pub fn insert(&mut self, slot: usize, cell: CellId) {
        if slot < self.horizon && cell.index() < self.num_cells {
            self.mask[slot * self.num_cells + cell.index()] = true;
        }
    }

    /// Whether `cell` is forbidden at `slot`.
    #[inline]
    pub fn contains(&self, slot: usize, cell: CellId) -> bool {
        slot < self.horizon
            && cell.index() < self.num_cells
            && self.mask[slot * self.num_cells + cell.index()]
    }

    /// Number of slots covered.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Number of forbidden (slot, cell) pairs.
    pub fn len(&self) -> usize {
        self.mask.iter().filter(|&&b| b).count()
    }

    /// Whether no pair is forbidden.
    pub fn is_empty(&self) -> bool {
        !self.mask.iter().any(|&b| b)
    }
}

/// Result of a trellis shortest-path computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPath {
    /// The minimizing trajectory.
    pub trajectory: Trajectory,
    /// Its path cost, i.e. its negative log-likelihood.
    pub cost: f64,
}

/// Computes the most likely trajectory of length `horizon` (the solution of
/// eq. 2) by forward dynamic programming over the trellis.
///
/// `avoid` removes vertices; pass `None` for the unconstrained problem.
/// Ties break towards the lowest cell index at every layer, making the
/// result deterministic (the advanced-eavesdropper analysis assumes the
/// tie-breaker is known).
///
/// # Errors
///
/// Returns [`CoreError::NoFeasiblePath`] when every path is blocked (all
/// remaining moves have zero probability), and
/// [`CoreError::EmptyTrajectory`] when `horizon == 0`.
pub fn most_likely_trajectory(
    chain: &MarkovChain,
    horizon: usize,
    avoid: Option<&AvoidSet>,
) -> Result<ShortestPath> {
    if horizon == 0 {
        return Err(CoreError::EmptyTrajectory);
    }
    let l = chain.num_states();
    let blocked = |t: usize, c: CellId| avoid.is_some_and(|a| a.contains(t, c));

    // dist[x] = cost of the cheapest path reaching cell x at the current
    // layer; prev[t][x] = predecessor cell index at layer t-1.
    let mut dist = vec![f64::INFINITY; l];
    let mut prev: Vec<Vec<u32>> = Vec::with_capacity(horizon);
    prev.push(vec![u32::MAX; l]); // layer 0 has no predecessor
    #[allow(clippy::needless_range_loop)]
    for x in 0..l {
        let cell = CellId::new(x);
        if !blocked(0, cell) {
            let lp = chain.initial().log_prob(cell);
            if lp.is_finite() {
                dist[x] = -lp;
            }
        }
    }
    let mut next = vec![f64::INFINITY; l];
    for t in 1..horizon {
        next.fill(f64::INFINITY);
        let mut layer_prev = vec![u32::MAX; l];
        for (x, &d) in dist.iter().enumerate() {
            if !d.is_finite() {
                continue;
            }
            for (succ, p) in chain.matrix().successors(CellId::new(x)) {
                if blocked(t, succ) {
                    continue;
                }
                let cand = d - p.ln();
                let j = succ.index();
                if cand < next[j] {
                    next[j] = cand;
                    layer_prev[j] = x as u32;
                }
            }
        }
        std::mem::swap(&mut dist, &mut next);
        prev.push(layer_prev);
    }

    // Pick the cheapest terminal vertex (ties to the lowest index).
    let (best_cell, best_cost) = dist
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_finite())
        .min_by(|(i1, d1), (i2, d2)| d1.partial_cmp(d2).unwrap().then(i1.cmp(i2)))
        .map(|(i, &d)| (i, d))
        .ok_or(CoreError::NoFeasiblePath)?;

    // Reconstruct backwards.
    let mut cells = vec![CellId::new(best_cell)];
    let mut cursor = best_cell as u32;
    for t in (1..horizon).rev() {
        cursor = prev[t][cursor as usize];
        debug_assert_ne!(
            cursor,
            u32::MAX,
            "finite-cost vertex must have a predecessor"
        );
        cells.push(CellId::new(cursor as usize));
    }
    cells.reverse();
    Ok(ShortestPath {
        trajectory: Trajectory::from(cells),
        cost: best_cost,
    })
}

/// Heap entry for [`most_likely_trajectory_dijkstra`]: min-heap by cost.
#[derive(PartialEq)]
struct HeapNode {
    cost: f64,
    slot: usize,
    cell: usize,
}

impl Eq for HeapNode {}

impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse cost ordering for a min-heap; break ties by slot then cell
        // to keep the pop order deterministic. Costs are -log
        // probabilities, never NaN, so total_cmp agrees with the partial
        // order while staying panic-free.
        other
            .cost
            .total_cmp(&self.cost)
            .then(other.slot.cmp(&self.slot))
            .then(other.cell.cmp(&self.cell))
    }
}

/// Computes the most likely trajectory with Dijkstra's algorithm — the
/// solver the paper names for eq. (3).
///
/// All edge costs (`-log` probabilities) are non-negative, so Dijkstra
/// applies. The layered DP in [`most_likely_trajectory`] is asymptotically
/// faster on this DAG; this implementation exists for fidelity to the paper
/// and as an independent cross-check (the two are compared in tests and in
/// a Criterion ablation bench).
///
/// # Errors
///
/// Same conditions as [`most_likely_trajectory`].
pub fn most_likely_trajectory_dijkstra(
    chain: &MarkovChain,
    horizon: usize,
    avoid: Option<&AvoidSet>,
) -> Result<ShortestPath> {
    if horizon == 0 {
        return Err(CoreError::EmptyTrajectory);
    }
    let l = chain.num_states();
    let blocked = |t: usize, c: CellId| avoid.is_some_and(|a| a.contains(t, c));
    let idx = |t: usize, x: usize| t * l + x;

    let mut dist = vec![f64::INFINITY; horizon * l];
    let mut prev = vec![u32::MAX; horizon * l];
    let mut settled = vec![false; horizon * l];
    let mut heap = BinaryHeap::new();

    for x in 0..l {
        let cell = CellId::new(x);
        if blocked(0, cell) {
            continue;
        }
        let lp = chain.initial().log_prob(cell);
        if lp.is_finite() {
            dist[idx(0, x)] = -lp;
            heap.push(HeapNode {
                cost: -lp,
                slot: 0,
                cell: x,
            });
        }
    }

    let mut best_terminal: Option<(usize, f64)> = None;
    while let Some(HeapNode { cost, slot, cell }) = heap.pop() {
        let node = idx(slot, cell);
        if settled[node] {
            continue;
        }
        settled[node] = true;
        if slot == horizon - 1 {
            // First settled terminal vertex is optimal; keep scanning is
            // unnecessary because Dijkstra settles in cost order.
            best_terminal = Some((cell, cost));
            break;
        }
        for (succ, p) in chain.matrix().successors(CellId::new(cell)) {
            if blocked(slot + 1, succ) {
                continue;
            }
            let next_node = idx(slot + 1, succ.index());
            let cand = cost - p.ln();
            if cand < dist[next_node] {
                dist[next_node] = cand;
                prev[next_node] = node as u32;
                heap.push(HeapNode {
                    cost: cand,
                    slot: slot + 1,
                    cell: succ.index(),
                });
            }
        }
    }

    let (terminal_cell, cost) = best_terminal.ok_or(CoreError::NoFeasiblePath)?;
    let mut cells = Vec::with_capacity(horizon);
    let mut cursor = idx(horizon - 1, terminal_cell);
    loop {
        cells.push(CellId::new(cursor % l));
        let p = prev[cursor];
        if p == u32::MAX {
            break;
        }
        cursor = p as usize;
    }
    cells.reverse();
    debug_assert_eq!(cells.len(), horizon);
    Ok(ShortestPath {
        trajectory: Trajectory::from(cells),
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaff_markov::{models::ModelKind, StateDistribution, TransitionMatrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_chain() -> MarkovChain {
        // State 0 is "sticky" and has the highest stationary mass.
        let m = TransitionMatrix::from_rows(vec![
            vec![0.8, 0.1, 0.1],
            vec![0.5, 0.3, 0.2],
            vec![0.4, 0.3, 0.3],
        ])
        .unwrap();
        MarkovChain::new(m).unwrap()
    }

    /// Enumerates all trajectories to find the true ML one (test oracle).
    fn brute_force_ml(chain: &MarkovChain, horizon: usize) -> (Trajectory, f64) {
        let l = chain.num_states();
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut stack = vec![(Vec::<usize>::new(), 0.0f64)];
        while let Some((path, cost)) = stack.pop() {
            if path.len() == horizon {
                match &best {
                    Some((_, bc)) if *bc <= cost => {}
                    _ => best = Some((path, cost)),
                }
                continue;
            }
            for x in 0..l {
                let inc = if path.is_empty() {
                    -chain.initial().log_prob(CellId::new(x))
                } else {
                    -chain
                        .matrix()
                        .log_prob(CellId::new(*path.last().unwrap()), CellId::new(x))
                };
                if inc.is_finite() {
                    let mut p = path.clone();
                    p.push(x);
                    stack.push((p, cost + inc));
                }
            }
        }
        let (path, cost) = best.expect("feasible");
        (Trajectory::from_indices(path), cost)
    }

    #[test]
    fn dp_matches_brute_force() {
        let chain = toy_chain();
        for horizon in 1..=6 {
            let dp = most_likely_trajectory(&chain, horizon, None).unwrap();
            let (_, brute_cost) = brute_force_ml(&chain, horizon);
            assert!(
                (dp.cost - brute_cost).abs() < 1e-9,
                "horizon {horizon}: {} vs {}",
                dp.cost,
                brute_cost
            );
        }
    }

    #[test]
    fn dp_and_dijkstra_agree() {
        let mut rng = StdRng::seed_from_u64(17);
        for kind in ModelKind::ALL {
            let chain = MarkovChain::new(kind.build(8, &mut rng).unwrap()).unwrap();
            for horizon in [1, 2, 5, 20] {
                let dp = most_likely_trajectory(&chain, horizon, None).unwrap();
                let dj = most_likely_trajectory_dijkstra(&chain, horizon, None).unwrap();
                assert!((dp.cost - dj.cost).abs() < 1e-9, "{kind} horizon {horizon}");
            }
        }
    }

    #[test]
    fn cost_equals_negative_log_likelihood() {
        let chain = toy_chain();
        let sp = most_likely_trajectory(&chain, 10, None).unwrap();
        assert!((sp.cost + chain.log_likelihood(&sp.trajectory)).abs() < 1e-9);
    }

    #[test]
    fn ml_trajectory_dominates_samples() {
        let chain = toy_chain();
        let sp = most_likely_trajectory(&chain, 15, None).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let x = chain.sample_trajectory(15, &mut rng);
            assert!(chain.log_likelihood(&x) <= -sp.cost + 1e-9);
        }
    }

    #[test]
    fn sticky_chain_ml_path_stays_in_sticky_cell() {
        let chain = toy_chain();
        let sp = most_likely_trajectory(&chain, 8, None).unwrap();
        for cell in sp.trajectory.iter() {
            assert_eq!(cell, CellId::new(0));
        }
    }

    #[test]
    fn avoid_set_forces_detour() {
        let chain = toy_chain();
        let unconstrained = most_likely_trajectory(&chain, 6, None).unwrap();
        let mut avoid = AvoidSet::new(6, 3);
        avoid.insert(3, CellId::new(0));
        let constrained = most_likely_trajectory(&chain, 6, Some(&avoid)).unwrap();
        assert_ne!(constrained.trajectory.cell(3), CellId::new(0));
        assert!(constrained.cost >= unconstrained.cost);
        // Dijkstra agrees under the same avoid-set.
        let dj = most_likely_trajectory_dijkstra(&chain, 6, Some(&avoid)).unwrap();
        assert!((dj.cost - constrained.cost).abs() < 1e-9);
    }

    #[test]
    fn fully_blocked_layer_is_infeasible() {
        let chain = toy_chain();
        let mut avoid = AvoidSet::new(4, 3);
        for x in 0..3 {
            avoid.insert(2, CellId::new(x));
        }
        assert!(matches!(
            most_likely_trajectory(&chain, 4, Some(&avoid)),
            Err(CoreError::NoFeasiblePath)
        ));
        assert!(matches!(
            most_likely_trajectory_dijkstra(&chain, 4, Some(&avoid)),
            Err(CoreError::NoFeasiblePath)
        ));
    }

    #[test]
    fn zero_horizon_is_an_error() {
        let chain = toy_chain();
        assert!(matches!(
            most_likely_trajectory(&chain, 0, None),
            Err(CoreError::EmptyTrajectory)
        ));
    }

    #[test]
    fn zero_probability_transitions_are_never_used() {
        let m = TransitionMatrix::from_rows(vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
        ])
        .unwrap();
        let chain = MarkovChain::with_initial(m, StateDistribution::uniform(3).unwrap()).unwrap();
        let sp = most_likely_trajectory(&chain, 7, None).unwrap();
        // The only feasible paths follow the cycle, so consecutive cells
        // must differ by +1 mod 3.
        for w in sp.trajectory.as_slice().windows(2) {
            assert_eq!((w[0].index() + 1) % 3, w[1].index());
        }
    }

    #[test]
    fn avoid_set_accessors() {
        let mut a = AvoidSet::new(3, 4);
        assert!(a.is_empty());
        a.insert(1, CellId::new(2));
        a.insert(99, CellId::new(0)); // silently ignored: out of horizon
        assert_eq!(a.len(), 1);
        assert_eq!(a.horizon(), 3);
        assert!(!a.contains(99, CellId::new(0)));
    }
}
