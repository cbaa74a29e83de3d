//! PARSEC-like presets (pthreads; the paper compiles them with blocking
//! synchronization — mutexes, condition variables, barriers).
//!
//! The per-benchmark parameters encode each program's published structure:
//! what it synchronizes with, how often, and how memory-bound it is. These
//! are exactly the attributes the paper uses to explain Fig 5's spread —
//! e.g. dedup/ferret gain little (pipeline, >1 thread per vCPU), raytrace
//! is already resilient (user-level work stealing), memory-intensive codes
//! regress under 4-inter migration churn.

use super::{data_parallel, lock_parallel, pipeline};
use crate::bundle::WorkloadBundle;
use crate::program::ProgramBuilder;
use irs_sync::{SyncSpace, WaitMode};

/// blackscholes: embarrassingly parallel option pricing; a barrier per
/// coarse iteration.
pub fn blackscholes(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("blackscholes", n, 30, 60_000, 0.05, mode, 0.2)
}

/// bodytrack: per-frame barriers plus a small shared-state lock.
pub fn bodytrack(n: usize, mode: WaitMode) -> WorkloadBundle {
    lock_parallel("bodytrack", n, 100, 15_000, 50, 1, mode, 0.4)
}

/// canneal: fine-grained lock contention on the netlist (memory heavy).
pub fn canneal(n: usize, mode: WaitMode) -> WorkloadBundle {
    lock_parallel("canneal", n, 3_000, 400, 30, 0, mode, 0.8)
}

/// dedup: 4-stage pipeline with `n` threads per stage (the paper: "4
/// threads for each pipeline stage"), so 4×`n` threads on `n` vCPUs.
pub fn dedup(n: usize) -> WorkloadBundle {
    pipeline("dedup", 4, n, 1_200, 1_200, 0.6)
}

/// facesim: barrier-synchronized physics phases, memory intensive.
pub fn facesim(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("facesim", n, 40, 45_000, 0.1, mode, 0.7)
}

/// ferret: 5-stage similarity-search pipeline, `n` threads per stage.
pub fn ferret(n: usize) -> WorkloadBundle {
    pipeline("ferret", 5, n, 1_500, 1_000, 0.5)
}

/// fluidanimate: fine-grained per-cell mutexes plus per-frame barriers.
pub fn fluidanimate(n: usize, mode: WaitMode) -> WorkloadBundle {
    lock_parallel("fluidanimate", n, 300, 5_000, 20, 5, mode, 0.5)
}

/// raytrace: user-level work stealing over a shared tile pool — the
/// paper's interference-resilient exhibit (no kernel help needed).
pub fn raytrace(n: usize) -> WorkloadBundle {
    let mut space = SyncSpace::new();
    let pool = space.new_pool(6_000);
    let threads = (0..n)
        .map(|_| ProgramBuilder::new().steal_loop(pool, 1_000, 0.2).build())
        .collect();
    WorkloadBundle::parallel("raytrace", threads, space, 0.3)
}

/// streamcluster: barriers every 20–30 ms of compute (§5.1's "fine-grained
/// synchronization at the granularity of 20-30ms"), memory intensive.
pub fn streamcluster(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("streamcluster", n, 70, 25_000, 0.08, mode, 0.7)
}

/// swaptions: almost no synchronization; one long independent slab each.
pub fn swaptions(n: usize, mode: WaitMode) -> WorkloadBundle {
    data_parallel("swaptions", n, 1, 1_600_000, 0.05, mode, 0.2)
}

/// vips: image pipeline approximated by moderate lock + barrier phases.
pub fn vips(n: usize, mode: WaitMode) -> WorkloadBundle {
    lock_parallel("vips", n, 50, 30_000, 40, 1, mode, 0.4)
}

/// x264: exclusively mutex-based point-to-point synchronization between
/// neighbouring worker threads (§5.5 "x264 (mutex)").
pub fn x264(n: usize, mode: WaitMode) -> WorkloadBundle {
    assert!(n >= 2, "x264 needs at least two threads");
    let mut space = SyncSpace::new();
    let locks: Vec<_> = (0..n).map(|_| space.new_lock(mode)).collect();
    let join = space.new_barrier(n, mode);
    let threads = (0..n)
        .map(|i| {
            let own = locks[i];
            let next = locks[(i + 1) % n];
            ProgramBuilder::new()
                .repeat(150, |b| {
                    b.compute_us(10_000, 0.1)
                        .lock(own)
                        .compute_us(30, 0.1)
                        .unlock(own)
                        .lock(next)
                        .compute_us(30, 0.1)
                        .unlock(next)
                })
                .barrier(join)
                .build()
        })
        .collect();
    WorkloadBundle::parallel("x264", threads, space, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::WorkloadKind;
    use crate::program::Op;
    use crate::runner::ProgramRunner;

    /// Rough single-thread work estimate (ns), ignoring waiting.
    fn solo_work_ns(bundle: &mut WorkloadBundle, thread: usize) -> u64 {
        let mut r = ProgramRunner::new(bundle.threads[thread].clone());
        let mut total = 0u64;
        while let Some(op) = r.next(&mut bundle.space) {
            if let Op::Compute { mean_ns, .. } = op {
                total += mean_ns;
            }
        }
        total
    }

    #[test]
    fn per_thread_work_is_in_the_1_to_3s_band() {
        // Keeps simulated experiments comparable across benchmarks.
        for (name, mut b) in [
            ("blackscholes", blackscholes(4, WaitMode::Block)),
            ("streamcluster", streamcluster(4, WaitMode::Block)),
            ("facesim", facesim(4, WaitMode::Block)),
            ("swaptions", swaptions(4, WaitMode::Block)),
            ("fluidanimate", fluidanimate(4, WaitMode::Block)),
            ("bodytrack", bodytrack(4, WaitMode::Block)),
            ("canneal", canneal(4, WaitMode::Block)),
            ("vips", vips(4, WaitMode::Block)),
            ("x264", x264(4, WaitMode::Block)),
        ] {
            let work = solo_work_ns(&mut b, 0);
            assert!(
                (1_000_000_000..3_000_000_000).contains(&work),
                "{name}: {} ms per thread",
                work / 1_000_000
            );
        }
    }

    #[test]
    fn raytrace_threads_share_one_pool() {
        let mut b = raytrace(4);
        // One thread alone would do all 6000 chunks.
        let work = solo_work_ns(&mut b, 0);
        assert!(work > 5_000_000_000, "pool fully consumed by one thread");
        // The pool is now empty: the remaining threads finish immediately.
        let rest = solo_work_ns(&mut b, 1);
        assert_eq!(rest, 0);
    }

    #[test]
    fn pipelines_have_threads_per_stage() {
        assert_eq!(dedup(4).n_threads(), 16);
        assert_eq!(ferret(4).n_threads(), 20);
    }

    #[test]
    fn all_are_parallel_kind() {
        assert_eq!(raytrace(4).kind, WorkloadKind::Parallel);
        assert_eq!(dedup(4).kind, WorkloadKind::Parallel);
        assert_eq!(x264(4, WaitMode::Block).kind, WorkloadKind::Parallel);
    }

    #[test]
    #[should_panic(expected = "at least two threads")]
    fn x264_rejects_single_thread() {
        x264(1, WaitMode::Block);
    }
}
