//! Figures 7 and 9: system-wide weighted speedup when the measured
//! application is consolidated with a real background application.
//!
//! Speedup of the foreground is `vanilla makespan / makespan`; the
//! background application never terminates (it repeats), so its speedup is
//! its useful-work *rate* relative to vanilla. The weighted speedup is the
//! average of the two, reported in percent (100 = vanilla parity).

use crate::{mean_pair, Opts, STRATEGIES};
use irs_core::{runner, Scenario, Strategy, System};
use irs_metrics::{Series, Table};
use irs_workloads::presets;

/// One weighted-speedup panel over `benches` with `background` interference.
///
/// Every (n_inter × {Vanilla + strategy} × bench) cell runs once in one
/// batch; each run keeps its foreground makespan (ms) and background
/// useful-work rate, and every strategy reads the same vanilla cell.
pub fn weighted_panel(title: &str, benches: &[&str], background: &str, opts: Opts) -> Table {
    let nb = benches.len();
    let mut ctors = Vec::new();
    for n_inter in [1usize, 2, 4] {
        for strategy in std::iter::once(Strategy::Vanilla).chain(STRATEGIES) {
            for &bench in benches {
                ctors.push(move |seed| {
                    System::new(Scenario::real_interference(
                        bench, background, n_inter, strategy, seed,
                    ))
                });
            }
        }
    }
    let cells: Vec<(f64, f64)> = runner::grid(opts.base_seed, opts.seeds, opts.jobs, &ctors, |r| {
        (r.measured().makespan_ms(), r.vms[1].work_rate(r.elapsed))
    })
    .iter()
    .map(|runs| mean_pair(runs))
    .collect();

    let mut table = Table::new(format!("{title} (w/ {background})"));
    let block = (1 + STRATEGIES.len()) * nb;
    for (gi, n_inter) in [1usize, 2, 4].into_iter().enumerate() {
        for (si, strategy) in STRATEGIES.into_iter().enumerate() {
            let mut series = Series::new(format!("{n_inter}-inter. {strategy}"));
            for (bi, &bench) in benches.iter().enumerate() {
                let (fg_v, bg_v) = cells[gi * block + bi];
                let (fg_s, bg_s) = cells[gi * block + (si + 1) * nb + bi];
                let fg_speedup = if fg_s > 0.0 { fg_v / fg_s } else { 0.0 };
                let bg_speedup = if bg_v > 0.0 { bg_s / bg_v } else { 0.0 };
                series.point(bench, (fg_speedup + bg_speedup) / 2.0 * 100.0);
            }
            table.add(series);
        }
    }
    table
}

/// Fig 7: weighted speedup of PARSEC applications (panels: fluidanimate
/// and streamcluster backgrounds).
pub fn fig7(opts: Opts, background: &str) -> Table {
    weighted_panel(
        "Fig 7 — weighted speedup of two PARSEC applications (higher is better)",
        &presets::PARSEC_NAMES,
        background,
        opts,
    )
}

/// Fig 9: weighted speedup of NPB applications (panels: LU and UA
/// backgrounds).
pub fn fig9(opts: Opts, background: &str) -> Table {
    weighted_panel(
        "Fig 9 — weighted speedup of NPB applications (higher is better)",
        &presets::NPB_NAMES,
        background,
        opts,
    )
}
