//! The benchmark catalog.
//!
//! Each preset reproduces the *synchronization structure* of its namesake —
//! the property the paper's results hinge on — at a scale that keeps
//! simulated runs fast (solo makespans around 1.5–2 virtual seconds).
//! Compute grains are chosen so that the ratio of synchronization interval
//! to the hypervisor's 30 ms slice matches each benchmark's published
//! character (e.g. streamcluster's 20–30 ms barriers, §5.1).
//!
//! * [`parsec`] — 12 pthread-style benchmarks (blocking by default).
//! * [`npb`] — 9 OpenMP-style kernels (spinning with
//!   `OMP_WAIT_POLICY=active`, blocking with `passive`).
//! * [`server`] — SPECjbb-like closed-loop and ab-like open-loop servers.
//! * [`hog`] — the CPU-hog interference micro-benchmark.
//! * [`adversarial`] — scheduler-attack tenants for the fleet campaign.

pub mod adversarial;
pub mod hog;
pub mod npb;
pub mod parsec;
pub mod server;

use crate::bundle::WorkloadBundle;
use crate::program::ProgramBuilder;
use irs_sync::{SyncSpace, WaitMode};

/// Builds a classic data-parallel benchmark: `iters` rounds of a compute
/// grain followed by a full barrier, one program per thread.
pub(crate) fn data_parallel(
    name: &str,
    n_threads: usize,
    iters: u64,
    grain_us: u64,
    jitter: f64,
    mode: WaitMode,
    memory_intensity: f64,
) -> WorkloadBundle {
    assert!(n_threads > 0, "{name} needs at least one thread");
    let mut space = SyncSpace::new();
    let bar = space.new_barrier(n_threads, mode);
    let threads = (0..n_threads)
        .map(|_| {
            ProgramBuilder::new()
                .repeat(iters, |b| b.compute_us(grain_us, jitter).barrier(bar))
                .build()
        })
        .collect();
    WorkloadBundle::parallel(name, threads, space, memory_intensity)
}

/// Builds a mutex-centric benchmark: rounds of a compute grain, then a
/// short critical section under a single shared lock, with a periodic
/// barrier every `barrier_every` rounds (0 disables the barrier).
#[allow(clippy::too_many_arguments)]
pub(crate) fn lock_parallel(
    name: &str,
    n_threads: usize,
    iters: u64,
    grain_us: u64,
    cs_us: u64,
    barrier_every: u64,
    mode: WaitMode,
    memory_intensity: f64,
) -> WorkloadBundle {
    assert!(n_threads > 0, "{name} needs at least one thread");
    let mut space = SyncSpace::new();
    let lock = space.new_lock(mode);
    let bar = if barrier_every > 0 {
        Some(space.new_barrier(n_threads, mode))
    } else {
        None
    };
    let outer = match barrier_every {
        0 => 1,
        n => iters / n,
    };
    let inner = if barrier_every > 0 { barrier_every } else { iters };
    // A final join barrier so the makespan is set by the slowest thread
    // even when no periodic barrier exists.
    let join = space.new_barrier(n_threads, mode);
    let threads = (0..n_threads)
        .map(|_| {
            ProgramBuilder::new()
                .repeat(outer.max(1), |b| {
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
        .collect();
    WorkloadBundle::parallel(name, threads, space, memory_intensity)
}

/// Builds an `n_stage` pipeline with `threads_per_stage` workers per stage
/// connected by bounded channels. Every worker handles a fixed share of
/// `items`; counts balance exactly so no close/sentinel protocol is needed.
pub(crate) fn pipeline(
    name: &str,
    n_stages: usize,
    threads_per_stage: usize,
    items: u64,
    stage_cost_us: u64,
    memory_intensity: f64,
) -> WorkloadBundle {
    assert!(n_stages >= 2, "{name} pipeline needs at least two stages");
    assert!(threads_per_stage > 0);
    let mut space = SyncSpace::new();
    let share = (items / threads_per_stage as u64).max(1);
    let chans: Vec<_> = (0..n_stages - 1)
        .map(|_| space.new_channel(8 * threads_per_stage))
        .collect();
    let mut threads = Vec::new();
    for stage in 0..n_stages {
        for _ in 0..threads_per_stage {
            let p = match stage {
                0 => ProgramBuilder::new()
                    .repeat(share, |b| b.compute_us(stage_cost_us, 0.15).push(chans[0]))
                    .build(),
                s if s == n_stages - 1 => ProgramBuilder::new()
                    .repeat(share, |b| {
                        b.pop(chans[s - 1]).compute_us(stage_cost_us, 0.15)
                    })
                    .build(),
                s => ProgramBuilder::new()
                    .repeat(share, |b| {
                        b.pop(chans[s - 1])
                            .compute_us(stage_cost_us, 0.15)
                            .push(chans[s])
                    })
                    .build(),
            };
            threads.push(p);
        }
    }
    WorkloadBundle::parallel(name, threads, space, memory_intensity)
}

/// Looks up any parallel preset by its benchmark name.
///
/// PARSEC names use blocking synchronization and NPB names use the given
/// `mode` (PARSEC ignores `mode` except where the paper varies it), matching
/// the paper's §5.1 configuration. Returns `None` for unknown names.
pub fn by_name(name: &str, n_threads: usize, mode: WaitMode) -> Option<WorkloadBundle> {
    let b = match name {
        // PARSEC (pthreads, blocking)
        "blackscholes" => parsec::blackscholes(n_threads, mode),
        "bodytrack" => parsec::bodytrack(n_threads, mode),
        "canneal" => parsec::canneal(n_threads, mode),
        "dedup" => parsec::dedup(n_threads),
        "facesim" => parsec::facesim(n_threads, mode),
        "ferret" => parsec::ferret(n_threads),
        "fluidanimate" => parsec::fluidanimate(n_threads, mode),
        "raytrace" => parsec::raytrace(n_threads),
        "streamcluster" => parsec::streamcluster(n_threads, mode),
        "swaptions" => parsec::swaptions(n_threads, mode),
        "vips" => parsec::vips(n_threads, mode),
        "x264" => parsec::x264(n_threads, mode),
        // NPB (OpenMP)
        "BT" | "bt" => npb::bt(n_threads, mode),
        "CG" | "cg" => npb::cg(n_threads, mode),
        "EP" | "ep" => npb::ep(n_threads, mode),
        "FT" | "ft" => npb::ft(n_threads, mode),
        "IS" | "is" => npb::is(n_threads, mode),
        "LU" | "lu" => npb::lu(n_threads, mode),
        "MG" | "mg" => npb::mg(n_threads, mode),
        "SP" | "sp" => npb::sp(n_threads, mode),
        "UA" | "ua" => npb::ua(n_threads, mode),
        _ => return None,
    };
    Some(b)
}

/// The PARSEC benchmark names in the order Fig 5 plots them.
pub const PARSEC_NAMES: [&str; 12] = [
    "blackscholes",
    "dedup",
    "streamcluster",
    "canneal",
    "fluidanimate",
    "vips",
    "bodytrack",
    "ferret",
    "swaptions",
    "x264",
    "raytrace",
    "facesim",
];

/// The NPB benchmark names in the order Fig 6 plots them.
pub const NPB_NAMES: [&str; 9] = ["BT", "LU", "CG", "EP", "FT", "IS", "MG", "SP", "UA"];

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_published_name() {
        for name in PARSEC_NAMES.iter().chain(NPB_NAMES.iter()) {
            let b = by_name(name, 4, WaitMode::Block)
                .unwrap_or_else(|| panic!("{name} missing from catalog"));
            assert!(b.n_threads() >= 4, "{name} has too few threads");
        }
        assert!(by_name("doom", 4, WaitMode::Block).is_none());
    }

    #[test]
    fn npb_spins_and_the_rest_blocks() {
        assert_eq!(wait_mode("MG"), WaitMode::Spin);
        assert_eq!(wait_mode("lu"), WaitMode::Spin);
        assert_eq!(wait_mode("streamcluster"), WaitMode::Block);
        assert_eq!(wait_mode("x264"), WaitMode::Block);
    }

    #[test]
    fn data_parallel_shape() {
        let b = data_parallel("t", 4, 10, 1_000, 0.1, WaitMode::Block, 0.5);
        assert_eq!(b.n_threads(), 4);
        // repeat(10){compute;barrier} = LoopStart + 2 ops + LoopEnd
        assert_eq!(b.threads[0].len(), 4);
    }

    #[test]
    fn pipeline_thread_count_is_stages_times_workers() {
        let b = pipeline("t", 4, 4, 160, 1_000, 0.5);
        assert_eq!(b.n_threads(), 16);
    }

    #[test]
    #[should_panic(expected = "at least two stages")]
    fn single_stage_pipeline_panics() {
        pipeline("t", 1, 4, 100, 1_000, 0.5);
    }
}
