//! The benchmark catalog.
//!
//! Each preset reproduces the *synchronization structure* of its namesake —
//! the property the paper's results hinge on — at a scale that keeps
//! simulated runs fast (solo makespans around 1.5–2 virtual seconds).
//! Compute grains are chosen so that the ratio of synchronization interval
//! to the hypervisor's 30 ms slice matches each benchmark's published
//! character (e.g. 20–30 ms barriers for §5.1's fine-grained case).
//!
//! The 21 paper benchmarks are one table with one row per benchmark, read
//! through [`by_name`]: the 12 PARSEC-like ones of Fig 5 ([`PARSEC_NAMES`])
//! and then the 9 NPB-like ones of Fig 6 ([`NPB_NAMES`]). A row names the
//! benchmark's shape (barrier, lock, pipeline, work-steal or
//! neighbour-lock) with that shape's parameters, and its memory intensity.
//! The other presets are modules:
//!
//! * [`server`] — SPECjbb-like closed-loop and ab-like open-loop servers.
//! * [`hog`] — the CPU-hog interference micro-benchmark.
//! * [`adversarial`] — scheduler-attack tenants for the fleet campaign.

pub mod adversarial;
pub mod hog;
pub mod server;

use crate::bundle::WorkloadBundle;
use crate::program::ProgramBuilder;
use irs_sync::{SyncSpace, WaitMode};
use Shape::{Barrier, Lock, NeighbourLock, Pipeline, WorkSteal};

/// A benchmark's synchronization structure, with its parameters. Grains
/// are mean microseconds of compute, drawn with the given or a fixed
/// jitter. Barriers and locks wait in the `mode` the catalog is asked for.
enum Shape {
    /// `iters` rounds of a compute grain, each ended by a full barrier.
    Barrier {
        iters: u64,
        grain_us: u64,
        jitter: f64,
    },
    /// Rounds of a compute grain and then a `cs_us` critical section under
    /// one shared lock, with a full barrier every `barrier_every` rounds
    /// (0: none) and a final join, so the slowest thread sets the makespan.
    Lock {
        iters: u64,
        grain_us: u64,
        cs_us: u64,
        barrier_every: u64,
    },
    /// `stages` stages of `n` workers each, joined by bounded channels.
    /// Every worker handles an equal share of `items`, so the counts
    /// balance and no close protocol is needed.
    Pipeline {
        stages: usize,
        items: u64,
        stage_us: u64,
    },
    /// Every thread claims `chunk_us` chunks from one shared pool of
    /// `chunks` until it is empty.
    WorkSteal {
        chunks: u64,
        chunk_us: u64,
        jitter: f64,
    },
    /// Each round, thread `i` takes its own lock and then its neighbour
    /// `i + 1`'s for a `cs_us` critical section each; a final join.
    NeighbourLock {
        iters: u64,
        grain_us: u64,
        cs_us: u64,
    },
}

/// The catalog: each benchmark's name, shape and memory intensity, Fig 5's
/// columns and then Fig 6's, each in figure order. The comment above a row
/// gives the published structure it models: what the benchmark
/// synchronizes with, how often and how memory-bound it is, which are the
/// attributes the paper explains its spread with.
#[rustfmt::skip]
const CATALOG: [(&str, Shape, f64); 21] = [
    // PARSEC (pthreads; the paper builds them with blocking mutexes,
    // condition variables and barriers). Pipelines with more than one
    // thread per vCPU gain little, work stealing is already resilient, and
    // memory-intensive codes regress under 4-inter migration churn.

    // Embarrassingly parallel option pricing; a barrier per coarse iteration.
    ("blackscholes", Barrier { iters: 30, grain_us: 60_000, jitter: 0.05 }, 0.2),
    // 4-stage pipeline with `n` threads per stage (the paper: "4 threads for each pipeline stage"), so 4×`n` threads on `n` vCPUs.
    ("dedup", Pipeline { stages: 4, items: 1_200, stage_us: 1_200 }, 0.6),
    // Barriers every 20–30 ms of compute (§5.1's "fine-grained synchronization at the granularity of 20-30ms"); memory intensive.
    ("streamcluster", Barrier { iters: 70, grain_us: 25_000, jitter: 0.08 }, 0.7),
    // Fine-grained lock contention on the netlist; memory heavy.
    ("canneal", Lock { iters: 3_000, grain_us: 400, cs_us: 30, barrier_every: 0 }, 0.8),
    // Fine-grained per-cell mutexes plus per-frame barriers.
    ("fluidanimate", Lock { iters: 300, grain_us: 5_000, cs_us: 20, barrier_every: 5 }, 0.5),
    // Image pipeline approximated by moderate lock and barrier phases.
    ("vips", Lock { iters: 50, grain_us: 30_000, cs_us: 40, barrier_every: 1 }, 0.4),
    // Per-frame barriers plus a small shared-state lock.
    ("bodytrack", Lock { iters: 100, grain_us: 15_000, cs_us: 50, barrier_every: 1 }, 0.4),
    // 5-stage similarity-search pipeline, `n` threads per stage.
    ("ferret", Pipeline { stages: 5, items: 1_500, stage_us: 1_000 }, 0.5),
    // Almost no synchronization; one long independent slab each.
    ("swaptions", Barrier { iters: 1, grain_us: 1_600_000, jitter: 0.05 }, 0.2),
    // Exclusively mutex-based point-to-point synchronization between neighbouring worker threads (§5.5's mutex case).
    ("x264", NeighbourLock { iters: 150, grain_us: 10_000, cs_us: 30 }, 0.5),
    // User-level work stealing over a shared tile pool: the paper's interference-resilient exhibit (no kernel help needed).
    ("raytrace", WorkSteal { chunks: 6_000, chunk_us: 1_000, jitter: 0.2 }, 0.3),
    // Barrier-synchronized physics phases; memory intensive.
    ("facesim", Barrier { iters: 40, grain_us: 45_000, jitter: 0.1 }, 0.7),
    // NPB (OpenMP; spinning under `OMP_WAIT_POLICY=active` in Fig 6,
    // blocking under `passive` in Fig 2). Every kernel is barrier-iterative;
    // barrier granularity and memory intensity separate their columns.

    // Block-tridiagonal solver; coarse iterations.
    ("BT", Barrier { iters: 12, grain_us: 130_000, jitter: 0.06 }, 0.5),
    // Lower-upper decomposition; the coarsest-grained kernel (§5.1's coarse-grained background interference).
    ("LU", Barrier { iters: 7, grain_us: 230_000, jitter: 0.05 }, 0.5),
    // Conjugate gradient; fine-grained barriers, memory heavy.
    ("CG", Barrier { iters: 200, grain_us: 8_000, jitter: 0.08 }, 0.7),
    // Embarrassingly parallel; one slab and a final join (§5.5: it "performs less synchronization").
    ("EP", Barrier { iters: 2, grain_us: 800_000, jitter: 0.04 }, 0.1),
    // 3-D FFT; coarse transposes, very memory intensive.
    ("FT", Barrier { iters: 16, grain_us: 100_000, jitter: 0.07 }, 0.8),
    // Integer sort; very fine-grained barriers.
    ("IS", Barrier { iters: 300, grain_us: 5_000, jitter: 0.1 }, 0.6),
    // Multigrid; fine-grained barriers (§5.5's spinning case).
    ("MG", Barrier { iters: 160, grain_us: 10_000, jitter: 0.08 }, 0.7),
    // Scalar pentadiagonal; fine-grained barriers.
    ("SP", Barrier { iters: 220, grain_us: 7_000, jitter: 0.08 }, 0.6),
    // Unstructured adaptive mesh; medium-grained barriers plus shared locks (§5.1's fine-grained background interference, "1-2s" at full scale).
    ("UA", Lock { iters: 90, grain_us: 18_000, cs_us: 60, barrier_every: 1 }, 0.6),
];

/// The PARSEC benchmark names in the order Fig 5 plots them.
pub const PARSEC_NAMES: [&str; 12] = names(0);

/// The NPB benchmark names in the order Fig 6 plots them.
pub const NPB_NAMES: [&str; 9] = names(PARSEC_NAMES.len());

const _: () = assert!(PARSEC_NAMES.len() + NPB_NAMES.len() == CATALOG.len());

/// The names of the `N` catalog rows from row `first` on.
const fn names<const N: usize>(first: usize) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = CATALOG[first + i].0;
        i += 1;
    }
    out
}

/// Builds the catalog benchmark `name` with `n_threads` threads per stage
/// (a pipeline) or in all, or returns `None` for a name the catalog lacks.
/// Names match case-insensitively. `mode` is how barrier and lock waiters
/// wait; the paper's runs take it from [`wait_mode`].
///
/// # Panics
///
/// Panics if `n_threads` is 0, or 1 for a neighbour-lock benchmark.
pub fn by_name(name: &str, n_threads: usize, mode: WaitMode) -> Option<WorkloadBundle> {
    let (name, shape, memory_intensity) = CATALOG
        .iter()
        .find(|(row, ..)| row.eq_ignore_ascii_case(name))?;
    Some(shape.build(name, n_threads, mode, *memory_intensity))
}

/// How `name`'s waiters wait in the paper's runs: NPB spins
/// (`OMP_WAIT_POLICY=active`, Fig 6) and everything else blocks
/// (pthreads, Fig 5). Names match case-insensitively.
pub fn wait_mode(name: &str) -> WaitMode {
    if NPB_NAMES.iter().any(|n| n.eq_ignore_ascii_case(name)) {
        WaitMode::Spin
    } else {
        WaitMode::Block
    }
}

impl Shape {
    /// Builds the `n` thread programs of this shape, or `n` per stage for
    /// a pipeline, over a fresh sync space.
    fn build(&self, name: &str, n: usize, mode: WaitMode, memory_intensity: f64) -> WorkloadBundle {
        assert!(n > 0, "{name} needs at least one thread");
        let mut space = SyncSpace::new();
        let threads = match *self {
            Barrier {
                iters,
                grain_us,
                jitter,
            } => {
                let bar = space.new_barrier(n, mode);
                (0..n)
                    .map(|_| {
                        ProgramBuilder::new()
                            .repeat(iters, |b| b.compute_us(grain_us, jitter).barrier(bar))
                            .build()
                    })
                    .collect()
            }
            Lock {
                iters,
                grain_us,
                cs_us,
                barrier_every,
            } => {
                let lock = space.new_lock(mode);
                let bar = (barrier_every > 0).then(|| space.new_barrier(n, mode));
                let (outer, inner) = match barrier_every {
                    0 => (1, iters),
                    k => (iters / k, k),
                };
                let join = space.new_barrier(n, mode);
                (0..n)
                    .map(|_| {
                        ProgramBuilder::new()
                            .repeat(outer, |b| {
                                let b = b.repeat(inner, |b| {
                                    b.compute_us(grain_us, 0.1)
                                        .lock(lock)
                                        .compute_us(cs_us, 0.1)
                                        .unlock(lock)
                                });
                                match bar {
                                    Some(bar) => b.barrier(bar),
                                    None => b,
                                }
                            })
                            .barrier(join)
                            .build()
                    })
                    .collect()
            }
            Pipeline {
                stages,
                items,
                stage_us,
            } => {
                assert!(stages >= 2, "{name} pipeline needs at least two stages");
                let share = (items / n as u64).max(1);
                let chans: Vec<_> = (1..stages).map(|_| space.new_channel(8 * n)).collect();
                (0..stages)
                    .flat_map(|stage| std::iter::repeat_n(stage, n))
                    .map(|stage| {
                        ProgramBuilder::new()
                            .repeat(share, |mut b| {
                                if stage > 0 {
                                    b = b.pop(chans[stage - 1]);
                                }
                                b = b.compute_us(stage_us, 0.15);
                                if stage < stages - 1 {
                                    b = b.push(chans[stage]);
                                }
                                b
                            })
                            .build()
                    })
                    .collect()
            }
            WorkSteal {
                chunks,
                chunk_us,
                jitter,
            } => {
                let pool = space.new_pool(chunks);
                (0..n)
                    .map(|_| {
                        ProgramBuilder::new()
                            .steal_loop(pool, chunk_us, jitter)
                            .build()
                    })
                    .collect()
            }
            NeighbourLock {
                iters,
                grain_us,
                cs_us,
            } => {
                assert!(n >= 2, "{name} needs at least two threads");
                let locks: Vec<_> = (0..n).map(|_| space.new_lock(mode)).collect();
                let join = space.new_barrier(n, mode);
                (0..n)
                    .map(|i| {
                        let (own, next) = (locks[i], locks[(i + 1) % n]);
                        ProgramBuilder::new()
                            .repeat(iters, |b| {
                                b.compute_us(grain_us, 0.1)
                                    .lock(own)
                                    .compute_us(cs_us, 0.1)
                                    .unlock(own)
                                    .lock(next)
                                    .compute_us(cs_us, 0.1)
                                    .unlock(next)
                            })
                            .barrier(join)
                            .build()
                    })
                    .collect()
            }
        };
        WorkloadBundle::parallel(name, threads, space, memory_intensity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Op;
    use crate::runner::ProgramRunner;
    use irs_sync::{BarrierId, BarrierOutcome};

    /// Rough single-thread work estimate (ns), ignoring waiting.
    pub(super) fn solo_work_ns(bundle: &mut WorkloadBundle, thread: usize) -> u64 {
        let mut r = ProgramRunner::new(bundle.threads[thread].clone());
        let mut total = 0u64;
        while let Some(op) = r.next(&mut bundle.space) {
            if let Op::Compute { mean_ns, .. } = op {
                total += mean_ns;
            }
        }
        total
    }

    /// Asserts that one thread of `name`, built as the paper runs it, does
    /// 1–3 s of work, which keeps simulated experiments comparable across
    /// benchmarks.
    pub(super) fn assert_work_in_the_1_to_3s_band(name: &str) {
        let mut b = by_name(name, 4, wait_mode(name)).unwrap();
        let work = solo_work_ns(&mut b, 0);
        assert!(
            (1_000_000_000..3_000_000_000).contains(&work),
            "{name}: {} ms per thread",
            work / 1_000_000
        );
    }

    /// The catalog rows whose threads all meet at a barrier: every shape
    /// but pipelines and work stealing.
    pub(super) fn barrier_rows() -> impl Iterator<Item = &'static str> {
        CATALOG
            .iter()
            .filter(|(_, shape, _)| !matches!(shape, Pipeline { .. } | WorkSteal { .. }))
            .map(|(name, ..)| *name)
    }

    #[test]
    fn catalog_covers_every_published_name() {
        for name in PARSEC_NAMES.iter().chain(NPB_NAMES.iter()) {
            let b = by_name(name, 4, WaitMode::Block)
                .unwrap_or_else(|| panic!("{name} missing from catalog"));
            assert!(b.n_threads() >= 4, "{name} has too few threads");
            assert_eq!(b.name, *name);
            let lower = by_name(&name.to_ascii_lowercase(), 4, WaitMode::Block).unwrap();
            assert_eq!(lower.name, *name, "names match case-insensitively");
        }
        assert!(by_name("doom", 4, WaitMode::Block).is_none());
    }

    #[test]
    fn name_lists_are_in_figure_order() {
        assert_eq!(
            PARSEC_NAMES.join(" "),
            "blackscholes dedup streamcluster canneal fluidanimate vips bodytrack ferret \
             swaptions x264 raytrace facesim"
        );
        assert_eq!(NPB_NAMES.join(" "), "BT LU CG EP FT IS MG SP UA");
    }

    #[test]
    fn npb_spins_and_the_rest_blocks() {
        assert_eq!(wait_mode("MG"), WaitMode::Spin);
        assert_eq!(wait_mode("lu"), WaitMode::Spin);
        assert_eq!(wait_mode("streamcluster"), WaitMode::Block);
        assert_eq!(wait_mode("x264"), WaitMode::Block);
    }

    #[test]
    fn mode_parameter_controls_wait_mode() {
        for name in barrier_rows() {
            for mode in [WaitMode::Spin, WaitMode::Block] {
                let mut b = by_name(name, 4, mode).unwrap();
                let bar = b.space.barrier(BarrierId(0));
                assert_eq!(
                    bar.arrive(irs_guest::TaskId(0)),
                    BarrierOutcome::MustWait(mode),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn data_parallel_shape() {
        let shape = Barrier {
            iters: 10,
            grain_us: 1_000,
            jitter: 0.1,
        };
        let b = shape.build("t", 4, WaitMode::Block, 0.5);
        assert_eq!(b.n_threads(), 4);
        // repeat(10){compute;barrier} = LoopStart + 2 ops + LoopEnd
        assert_eq!(b.threads[0].len(), 4);
    }

    #[test]
    fn pipeline_thread_count_is_stages_times_workers() {
        let shape = Pipeline {
            stages: 4,
            items: 160,
            stage_us: 1_000,
        };
        assert_eq!(shape.build("t", 4, WaitMode::Block, 0.5).n_threads(), 16);
    }

    #[test]
    #[should_panic(expected = "at least two stages")]
    fn single_stage_pipeline_panics() {
        let shape = Pipeline {
            stages: 1,
            items: 100,
            stage_us: 1_000,
        };
        shape.build("t", 4, WaitMode::Block, 0.5);
    }
}

/// Checks of the PARSEC rows, the columns of Fig 5.
#[cfg(test)]
mod parsec {
    mod tests {
        use super::super::tests::{assert_work_in_the_1_to_3s_band, barrier_rows, solo_work_ns};
        use super::super::*;
        use crate::bundle::WorkloadKind;

        #[test]
        fn per_thread_work_is_in_the_1_to_3s_band() {
            for name in barrier_rows().filter(|name| PARSEC_NAMES.contains(name)) {
                assert_work_in_the_1_to_3s_band(name);
            }
        }

        #[test]
        fn raytrace_threads_share_one_pool() {
            let mut b = by_name("raytrace", 4, WaitMode::Block).unwrap();
            // One thread alone would do all 6000 chunks.
            let work = solo_work_ns(&mut b, 0);
            assert!(work > 5_000_000_000, "pool fully consumed by one thread");
            // The pool is now empty: the remaining threads finish immediately.
            let rest = solo_work_ns(&mut b, 1);
            assert_eq!(rest, 0);
        }

        #[test]
        fn pipelines_have_threads_per_stage() {
            // The paper: "4 threads for each pipeline stage".
            let threads = |name| by_name(name, 4, WaitMode::Block).unwrap().n_threads();
            assert_eq!(threads("dedup"), 16);
            assert_eq!(threads("ferret"), 20);
        }

        #[test]
        fn all_are_parallel_kind() {
            // The PARSEC rows use every shape the catalog has.
            for name in PARSEC_NAMES {
                let b = by_name(name, 4, WaitMode::Block).unwrap();
                assert_eq!(b.kind, WorkloadKind::Parallel, "{name}");
            }
        }

        #[test]
        #[should_panic(expected = "at least two threads")]
        fn x264_rejects_single_thread() {
            by_name("x264", 1, WaitMode::Block);
        }
    }
}

/// Checks of the NPB rows, the columns of Fig 6.
#[cfg(test)]
mod npb {
    mod tests {
        use super::super::tests::assert_work_in_the_1_to_3s_band;
        use super::super::*;

        #[test]
        fn all_kernels_are_in_the_1_to_3s_band() {
            for name in NPB_NAMES {
                assert_work_in_the_1_to_3s_band(name);
            }
        }

        #[test]
        fn granularity_ordering_matches_the_paper() {
            // §5.1's coarse- and fine-grained backgrounds: LU's barrier
            // interval is coarser than UA's, which is coarser than IS's.
            let grain = |name: &str| match CATALOG.iter().find(|(n, ..)| *n == name) {
                Some((_, Barrier { grain_us, .. } | Lock { grain_us, .. }, _)) => *grain_us,
                _ => panic!("{name} has no barrier interval"),
            };
            assert!(grain("LU") > grain("UA") && grain("UA") > grain("IS"));
        }
    }
}
