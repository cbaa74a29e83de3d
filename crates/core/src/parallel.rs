//! Deterministic parallel fan-out for independent simulation jobs.
//!
//! The paper's evaluation grid is hundreds of *independent* runs — each a
//! pure function of a `(scenario constructor, seed)` pair — so they can be
//! spread across OS threads without any work stealing or shared mutable
//! state. Execution lives in [`irs_pool`]: one scoped fan-out per call, in
//! which the calling thread and its helpers claim indices one at a time
//! from an atomic cursor. Every figure sends its runs as one batch, so
//! thread start-up is paid once per batch.
//!
//! Because each job owns its entire state (the `System` constructs its own
//! [`irs_sim::SimRng`] from the scenario seed) and results are reassembled
//! canonically **into index order**, the output is *bit-for-bit identical*
//! for any worker count — `--jobs 8` and `--jobs 1` produce the same
//! tables. Worker threads only affect wall-clock time, never results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Process-wide default worker count used when a call site passes
/// `jobs == 0`. Itself `0` (the initial value) means "ask the OS", i.e.
/// [`std::thread::available_parallelism`].
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count (the `figures --jobs` flag
/// lands here). `0` restores "use all available cores".
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The worker count used when a call site passes `jobs == 0`: the value
/// from [`set_default_jobs`] if any, otherwise the machine's available
/// parallelism (at least 1).
pub fn default_jobs() -> usize {
    let configured = DEFAULT_JOBS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a per-call worker request: `0` means [`default_jobs`].
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        default_jobs()
    } else {
        jobs
    }
}

/// Runs `f(0..n)` across up to `jobs` workers (`0` = default) and returns
/// the results in index order.
///
/// `f` must be a pure function of its index for the determinism guarantee
/// to hold; the engine guarantees each index runs exactly once and that
/// `out[i] == f(i)` regardless of worker count or scheduling. With one
/// worker (or `n <= 1`) no thread is started, so `jobs = 1` is *exactly*
/// the sequential code path. Wider calls run on the calling thread plus
/// scoped [`irs_pool`] helpers, at most 256 executors in all.
///
/// A panic in any job propagates to the caller with its original payload
/// once every helper has been joined.
pub fn ordered_map<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    irs_pool::ordered_map(resolve_jobs(jobs), n, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 3, 8] {
            let out = ordered_map(jobs, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_resolves_to_a_positive_default() {
        assert!(default_jobs() >= 1);
        let out = ordered_map(0, 5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn set_default_jobs_round_trips() {
        // Note: process-global; keep the test self-restoring.
        set_default_jobs(3);
        assert_eq!(default_jobs(), 3);
        assert_eq!(resolve_jobs(0), 3);
        assert_eq!(resolve_jobs(7), 7);
        set_default_jobs(0);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(ordered_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(ordered_map(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn worker_count_does_not_change_heavyish_results() {
        // A job with nontrivial per-index state, run at several widths.
        let f = |i: usize| {
            let mut acc = i as u64;
            for k in 0..1000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        let sequential = ordered_map(1, 64, f);
        for jobs in [2, 4, 16] {
            assert_eq!(ordered_map(jobs, 64, f), sequential);
        }
    }

    #[test]
    #[should_panic(expected = "boom at 13")]
    fn worker_panics_propagate() {
        let _ = ordered_map(4, 32, |i| {
            if i == 13 {
                panic!("boom at 13");
            }
            i
        });
    }
}
