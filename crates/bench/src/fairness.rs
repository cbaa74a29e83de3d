//! The §5.4 fairness audit: IRS must not let the foreground VM exceed its
//! fair CPU share, and the SA delay must stay in the paper's 20–26 µs band.

use crate::{mean, Opts};
use irs_core::{runner, Scenario, Strategy, System};
use irs_metrics::{Series, Table};

/// Fairness audit: foreground-VM CPU share of the contended pCPUs under
/// vanilla and IRS. With `n_inter` hogs the foreground's fair share of the
/// whole 4-pCPU machine is `4 - n_inter/2` pCPUs.
pub fn fairness(opts: Opts) -> Table {
    let mut table =
        Table::new("Fairness — foreground CPU consumption relative to fair share (must be <= ~1)");
    let strategies = [Strategy::Vanilla, Strategy::Irs];
    let cells: Vec<(&str, usize)> = ["streamcluster", "UA"]
        .into_iter()
        .flat_map(|bench| [1usize, 2, 4].map(|n_inter| (bench, n_inter)))
        .collect();
    let mut ctors = Vec::new();
    for strategy in strategies {
        for &(bench, n_inter) in &cells {
            ctors.push(move |seed| {
                System::new(Scenario::fig5_style(bench, n_inter, strategy, seed))
            });
        }
    }
    let mut runs = runner::grid(opts.base_seed, opts.seeds, opts.jobs, &ctors, |r| r).into_iter();
    for strategy in strategies {
        let mut series = Series::new(format!("{strategy}"));
        for (&(bench, n_inter), results) in cells.iter().zip(runs.by_ref()) {
            let fair_pcpus = 4.0 - n_inter as f64 / 2.0;
            let samples: Vec<f64> = results
                .iter()
                .map(|r| {
                    r.measured()
                        .utilization_vs_fair_share(fair_pcpus, r.elapsed)
                })
                .collect();
            series.point(format!("{bench} {n_inter}-inter."), mean(&samples));
        }
        table.add(series);
    }
    table
}

/// SA round statistics: rounds sent/acked/timed out and the per-round
/// delay imposed on the hypervisor's schedule path (configured per §3.1's
/// 20–26 µs profile; the audit confirms timeouts never fire in fault-free
/// runs — [`crate::chaos`] drives the timeout path deliberately).
pub fn sa_stats(opts: Opts) -> Table {
    let mut table = Table::new("SA round statistics (IRS, streamcluster, per interference level)");
    let mut rows = [
        "sa sent",
        "sa acked",
        "sa timeouts",
        "migrator moves",
        "idle-vCPU targets",
    ]
    .map(Series::new);
    let inters = [1usize, 2, 4];
    let ctors = inters.map(|n_inter| {
        move |seed| {
            let s = Scenario::fig5_style("streamcluster", n_inter, Strategy::Irs, seed);
            System::new(s)
        }
    });
    let counts = runner::grid(opts.base_seed, opts.seeds, opts.jobs, &ctors, |r| {
        let g = &r.measured().guest;
        [
            r.hv.sa_sent,
            r.hv.sa_acked,
            r.hv.sa_timeouts,
            g.sa_migrations,
            g.sa_idle_targets,
        ]
    });
    for (n_inter, runs) in inters.into_iter().zip(&counts) {
        // Summed in seed order, then divided once.
        let mut sums = [0f64; 5];
        for run in runs {
            for (acc, &c) in sums.iter_mut().zip(run) {
                *acc += c as f64;
            }
        }
        for (row, sum) in rows.iter_mut().zip(sums) {
            row.point(format!("{n_inter}-inter."), sum / opts.seeds as f64);
        }
    }
    for row in rows {
        table.add(row);
    }
    table
}
