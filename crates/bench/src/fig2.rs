//! Figure 2: CPU utilization relative to fair share under interference.
//!
//! Blocking workloads leave their fair share on the table (deceptive
//! idleness); raytrace's user-level work stealing keeps utilization at the
//! fair share. One hog contends one of four pCPUs, so the parallel VM's
//! fair share is 3 full pCPUs plus half of the contended one.

use crate::{mean, Opts};
use irs_core::{runner, Scenario, System};
use irs_metrics::{Series, Table};

/// The fair CPU share of the parallel VM in the Fig 2 setup, in pCPUs.
pub const FAIR_PCPUS: f64 = 3.5;

/// The benchmarks Fig 2 plots (PARSEC, then NPB with passive waits, then
/// the work-stealing exhibit).
pub const FIG2_BENCHMARKS: [&str; 14] = [
    "streamcluster",
    "canneal",
    "fluidanimate",
    "bodytrack",
    "x264",
    "facesim",
    "blackscholes",
    "BT",
    "CG",
    "MG",
    "FT",
    "SP",
    "UA",
    "raytrace",
];

/// Fig 2: utilization of the parallel VM relative to its fair share.
pub fn fig2(opts: Opts) -> Table {
    let mut table =
        Table::new("Fig 2 — CPU utilization relative to fair share (blocking waits, 1 hog)");
    let ctors =
        FIG2_BENCHMARKS.map(|bench| move |seed| System::new(Scenario::fig2_style(bench, seed)));
    let utils = runner::grid(opts.base_seed, opts.seeds, opts.jobs, &ctors, |r| {
        r.measured()
            .utilization_vs_fair_share(FAIR_PCPUS, r.elapsed)
    });
    let mut series = Series::new("util / fair share");
    for (bench, runs) in FIG2_BENCHMARKS.into_iter().zip(&utils) {
        series.point(bench, mean(runs));
    }
    table.add(series);
    table
}
