//! Seeded, parallel Monte Carlo execution.
//!
//! Every experiment averages over independent runs (the paper uses 1000).
//! Runs are distributed over all cores through the process-wide worker
//! pool ([`chaff_core::pool`] — repeated sweeps never spawn fresh
//! threads); each run gets a deterministic seed derived from the
//! experiment seed and its run index, so results are reproducible
//! regardless of thread interleaving.

use chaff_core::derive_seed;

/// Runs `f(run_index, seed)` for `runs` independent runs in parallel and
/// returns the results in run order.
///
/// `f` must be deterministic in its arguments for reproducibility.
pub fn run_parallel<T, F>(runs: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let pool = chaff_core::pool::global();
    let threads = pool.threads().min(runs.max(1));
    if threads <= 1 || runs <= 1 {
        return (0..runs)
            .map(|i| f(i, derive_seed(base_seed, i as u64)))
            .collect();
    }
    let mut results: Vec<Option<T>> = (0..runs).map(|_| None).collect();
    let chunk = runs.div_ceil(threads);
    pool.scope(|scope| {
        for (worker, slice) in results.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let offset = worker * chunk;
                for (j, slot) in slice.iter_mut().enumerate() {
                    let i = offset + j;
                    *slot = Some(f(i, derive_seed(base_seed, i as u64)));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_run_order() {
        let out = run_parallel(100, 7, |i, _| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a = run_parallel(50, 42, |_, seed| seed);
        let b = run_parallel(50, 42, |_, seed| seed);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50, "seeds must not collide");
        let c = run_parallel(50, 43, |_, seed| seed);
        assert_ne!(a, c);
    }

    #[test]
    fn handles_edge_sizes() {
        assert!(run_parallel(0, 1, |i, _| i).is_empty());
        assert_eq!(run_parallel(1, 1, |i, _| i), vec![0]);
    }

    #[test]
    fn parallel_mean_matches_serial_mean() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let serial: Vec<f64> = (0..64)
            .map(|i| StdRng::seed_from_u64(derive_seed(5, i)).random::<f64>())
            .collect();
        let parallel = run_parallel(64, 5, |_, seed| StdRng::seed_from_u64(seed).random::<f64>());
        assert_eq!(serial, parallel);
    }
}
