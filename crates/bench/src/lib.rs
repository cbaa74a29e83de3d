//! # irs-bench — the figure harness
//!
//! One function per table/figure of the paper's evaluation; each returns an
//! [`irs_metrics::Table`] whose rendering prints the same rows/series the
//! paper plots. The `figures` binary is the CLI front end: one registry
//! entry per experiment.
//!
//! Figure functions are deterministic given [`Opts`]: every data point is
//! the mean over `opts.seeds` seeded repetitions (the paper averages five
//! runs; `--seeds 1` drops to one for smoke testing). Each figure lists every
//! distinct run it needs once and sends them to [`irs_core::runner::grid`]
//! as one batch, so a baseline shared by several strategies runs once per
//! cell. Only `fig1b`, which steps a `System` itself to time a migration,
//! keeps its own seed loop.

#![forbid(unsafe_code)]
#![forbid(dead_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod chaos;
pub mod fairness;
pub mod fig1;
pub mod fig2;
pub mod fig5_6;
pub mod fig7_9;
pub mod fig8;
pub mod fig10_11;
pub mod fig12_13;
pub mod fleet;
pub mod io_latency;
pub mod perf;
pub mod serving;

use irs_core::{runner, Strategy, System};
use irs_metrics::Summary;

/// Repetition options shared by every figure function.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seeded repetitions per data point (paper: 5).
    pub seeds: u64,
    /// First seed; repetition `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Worker threads for the run fan-out; `0` means the process default
    /// (`--jobs` flag, else all available cores). Any value produces
    /// identical tables — see [`irs_core::parallel`].
    pub jobs: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            seeds: 3,
            base_seed: 1,
            jobs: 0,
        }
    }
}

/// Seed-averaged makespan (ms) of each constructor's measured VM: one
/// [`runner::grid`] batch that keeps one `f64` per run.
pub(crate) fn mean_makespans<M>(opts: Opts, makes: &[M]) -> Vec<f64>
where
    M: Fn(u64) -> System + Sync,
{
    runner::grid(opts.base_seed, opts.seeds, opts.jobs, makes, |r| {
        r.measured().makespan_ms()
    })
    .iter()
    .map(|runs| mean(runs))
    .collect()
}

/// Mean of one constructor's per-seed samples, summed in seed order.
pub(crate) fn mean(samples: &[f64]) -> f64 {
    Summary::of(samples).mean
}

/// Per-component [`mean`]s of one constructor's per-seed sample pairs.
pub(crate) fn mean_pair(samples: &[(f64, f64)]) -> (f64, f64) {
    let (a, b): (Vec<f64>, Vec<f64>) = samples.iter().copied().unzip();
    (mean(&a), mean(&b))
}

/// The strategy columns the paper's grouped bar charts use.
pub const STRATEGIES: [Strategy; 3] = [Strategy::Ple, Strategy::RelaxedCo, Strategy::Irs];
