//! # irs-pool — a scoped, index-ordered fan-out
//!
//! The experiment engine (`irs_core::parallel`) fans independent
//! simulation runs across OS threads. [`ordered_map`] does it with one
//! `std::thread::scope` per call:
//!
//! * the **calling thread and `workers - 1` scoped helpers** claim indices
//!   one at a time from an atomic cursor, so each index runs exactly once,
//!   in no particular order, and `jobs = N` means N executors, not N+1;
//! * each result lands in its own per-index slot and comes back **in
//!   index order**, making the output bit-for-bit identical for any worker
//!   count;
//! * the scope joins every helper before the call returns, so a job may
//!   borrow anything on the caller's stack, and a helper's panic is
//!   re-raised on the caller with its original payload.
//!
//! Every `figures` experiment sends its runs as one batch, so a call pays
//! thread start-up once per batch: tens of microseconds against batches
//! of simulations that take milliseconds to seconds (DESIGN.md §2.5).

#![forbid(unsafe_code)]
#![forbid(dead_code)]

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Clamp on the executors of one call, well above any sensible `--jobs`:
/// a request for more starts at most this many threads.
const MAX_WORKERS: usize = 256;

/// Runs `f(0..n)` across up to `workers` executors (the calling thread
/// plus `workers - 1` scoped helpers) and returns the results in index
/// order.
///
/// `f` must be a pure function of its index for the determinism guarantee
/// to hold; each index runs exactly once and `out[i] == f(i)` regardless
/// of worker count or scheduling. With `workers <= 1` or `n <= 1` no
/// thread is started — that is *exactly* the sequential path. A job may
/// call `ordered_map` again; the inner call fans out on its own scope.
///
/// A panic in any job propagates to the caller with its original payload
/// once every helper has been joined.
pub fn ordered_map<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(MAX_WORKERS).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // One slot per index. Each is locked once, to store a value computed
    // outside the lock, so no slot is contended or poisoned.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let job = |i: usize| {
        let value = f(i);
        *slots[i]
            .lock()
            .expect("a slot lock is never held across a job") = Some(value);
    };
    fan_out(workers, n, &job);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot lock is never held across a job")
                .expect("every index ran")
        })
        .collect()
}

/// Runs `job(0..n)` on the calling thread and `workers - 1` scoped
/// helpers. The job is type-erased so this thread code is compiled once,
/// not once per `ordered_map` call site.
fn fan_out(workers: usize, n: usize, job: &(dyn Fn(usize) + Sync)) {
    // The cursor only hands out indices; results travel through the slot
    // locks and the joins, so `Relaxed` publishes nothing it must order.
    let cursor = AtomicUsize::new(0);
    let claim = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        job(i);
    };
    let helper_panic = thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(claim)).collect();
        claim();
        // Join every helper, so none is left for the scope to report
        // without its payload, and keep the first panic.
        let mut first = None;
        for helper in helpers {
            if let Err(payload) = helper.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = helper_panic {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn ordered_and_identical_at_any_width() {
        let f = |i: usize| {
            let mut acc = i as u64;
            for k in 0..1000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        let sequential: Vec<u64> = (0..64).map(f).collect();
        for workers in [2, 3, 8, 16] {
            assert_eq!(ordered_map(workers, 64, f), sequential);
        }
    }

    #[test]
    fn nested_fan_out_returns_ordered_results() {
        let out = ordered_map(4, 8, |i| {
            let inner = ordered_map(4, 4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_fan_outs_return_ordered_results() {
        let a = std::thread::spawn(|| ordered_map(3, 40, |i| i + 1));
        let b = ordered_map(3, 40, |i| i + 2);
        assert_eq!(a.join().unwrap(), (1..=40).collect::<Vec<_>>());
        assert_eq!(b, (2..=41).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "pool boom at 7")]
    fn panics_propagate_with_their_payload() {
        let _ = ordered_map(4, 16, |i| {
            if i == 7 {
                panic!("pool boom at 7");
            }
            i
        });
    }

    #[test]
    fn a_helper_panic_keeps_its_payload() {
        // Both jobs wait on one barrier, so each runs on its own thread;
        // the one not on the calling thread panics.
        let caller = std::thread::current().id();
        let barrier = Barrier::new(2);
        let err = panic::catch_unwind(|| {
            ordered_map(2, 2, |_| {
                barrier.wait();
                if std::thread::current().id() != caller {
                    panic!("helper boom");
                }
            })
        })
        .expect_err("the helper's panic must reach the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"helper boom"));
    }

    #[test]
    fn threads_used_never_exceed_the_width() {
        let threads_used = |workers: usize, n: usize| {
            ordered_map(workers, n, |_| std::thread::current().id())
                .into_iter()
                .collect::<HashSet<_>>()
                .len()
        };
        for workers in [1, 2, 3, 8] {
            assert!(threads_used(workers, 64) <= workers);
        }
        assert!(threads_used(1_000, 300) <= MAX_WORKERS);
    }

    #[test]
    fn zero_and_single_inputs() {
        assert_eq!(ordered_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(ordered_map(4, 1, |i| i + 10), vec![10]);
    }
}
