//! # irs-bench — the figure harness
//!
//! One function per table/figure of the paper's evaluation; each returns an
//! [`irs_metrics::Table`] whose rendering prints the same rows/series the
//! paper plots. The `figures` binary is the CLI front end; the Criterion
//! benches reuse scaled-down versions of the same functions.
//!
//! Figure functions are deterministic given [`Opts`]: every data point is
//! the mean over `opts.seeds` seeded repetitions (the paper averages five
//! runs; `--quick` drops to one for smoke testing).

#![forbid(unsafe_code)]
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

use irs_core::{runner, Scenario, Strategy};

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

impl Opts {
    /// Single-seed smoke-test options.
    pub fn quick() -> Self {
        Opts {
            seeds: 1,
            base_seed: 1,
            jobs: 0,
        }
    }
}

/// Mean makespan (ms) of the measured VM for `make(seed)` over the seeds.
pub fn mean_makespan_ms<F>(opts: Opts, make: F) -> f64
where
    F: Fn(u64) -> Scenario + Sync,
{
    runner::grid_mean_makespans(opts.base_seed, opts.seeds, opts.jobs, &[&make])[0]
}

/// Mean improvement (%) of `strategy` over vanilla for the same scenario
/// constructor — the y-axis of Figs 5, 6, 10, 11, 12, 13. Baseline and
/// variant repetitions share one parallel fan-out.
pub fn improvement_over_vanilla<F>(opts: Opts, strategy: Strategy, make: F) -> f64
where
    F: Fn(Strategy, u64) -> Scenario + Sync,
{
    let vanilla = |s| make(Strategy::Vanilla, s);
    let variant = |s| make(strategy, s);
    let means =
        runner::grid_mean_makespans(opts.base_seed, opts.seeds, opts.jobs, &[&vanilla, &variant]);
    irs_metrics::improvement_pct(means[0], means[1])
}

/// The strategy columns the paper's grouped bar charts use.
pub const STRATEGIES: [Strategy; 3] = [Strategy::Ple, Strategy::RelaxedCo, Strategy::Irs];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_opts_are_single_seed() {
        assert_eq!(Opts::quick().seeds, 1);
        assert_eq!(Opts::default().seeds, 3);
    }

    #[test]
    fn improvement_helper_matches_direct_computation() {
        let opts = Opts::quick();
        let make = |strat, seed| Scenario::fig5_style("EP", 1, strat, seed);
        let base = mean_makespan_ms(opts, |s| make(Strategy::Vanilla, s));
        let irs = mean_makespan_ms(opts, |s| make(Strategy::Irs, s));
        let expected = irs_metrics::improvement_pct(base, irs);
        let got = improvement_over_vanilla(opts, Strategy::Irs, make);
        assert!((expected - got).abs() < 1e-9);
        assert!(got > 10.0, "EP under 1-inter must benefit from IRS");
    }
}
