//! Figures 10 and 11: scalability and sensitivity (§5.5).
//!
//! Fig 10: 8-vCPU VMs on 8 pCPUs, IRS improvement as the number of
//! interfered vCPUs grows 1→8, for four synchronization archetypes.
//! Fig 11: IRS improvement as the consolidation depth grows (1–3
//! interfering VMs per contended pCPU).

use crate::{mean_makespans, Opts};
use irs_core::{Scenario, Strategy, System};
use irs_metrics::{improvement_pct, Series, Table};

/// The four archetypes the paper selects: x264 (mutex), blackscholes
/// (barrier), EP (blocking, little sync), MG (spinning).
pub const ARCHETYPES: [&str; 4] = ["x264", "blackscholes", "EP", "MG"];

/// Background interference options per archetype, as in the paper: the
/// micro-benchmark plus two real applications (PARSEC ones for PARSEC
/// benchmarks, NPB ones for NPB benchmarks).
pub fn backgrounds_for(bench: &str) -> [Option<&'static str>; 3] {
    if irs_workloads::presets::NPB_NAMES
        .iter()
        .any(|n| n.eq_ignore_ascii_case(bench))
    {
        [None, Some("LU"), Some("UA")]
    } else {
        [None, Some("fluidanimate"), Some("streamcluster")]
    }
}

/// A table of IRS improvements (%) over vanilla: one series per row
/// label, each with the same point labels, where `makes` holds one
/// scenario constructor `make(strategy, seed)` per (row, point). Every
/// point's vanilla and IRS runs go out as one batch.
fn irs_table<M>(opts: Opts, title: &str, rows: Vec<String>, points: &[&str], makes: &[M]) -> Table
where
    M: Fn(Strategy, u64) -> Scenario + Sync,
{
    let mut ctors = Vec::new();
    for make in makes {
        for strategy in [Strategy::Vanilla, Strategy::Irs] {
            ctors.push(move |seed| System::new(make(strategy, seed)));
        }
    }
    let means = mean_makespans(opts, &ctors);
    let mut pairs = means.chunks(2);
    let mut table = Table::new(title);
    for row in rows {
        let mut series = Series::new(row);
        for &point in points {
            let m = pairs.next().expect("one vanilla/IRS pair per point");
            series.point(point, improvement_pct(m[0], m[1]));
        }
        table.add(series);
    }
    table
}

/// Fig 10: IRS improvement vs number of interfered vCPUs (1..=8).
pub fn fig10(opts: Opts) -> Table {
    let mut rows = Vec::new();
    let mut makes = Vec::new();
    for bench in ARCHETYPES {
        for bg in backgrounds_for(bench) {
            rows.push(format!("{bench} w/ {}", bg.unwrap_or("microbenchmark")));
            for n_inter in 1..=8usize {
                makes.push(move |strat, seed| {
                    Scenario::fig10_style(bench, bg, n_inter, strat, seed)
                });
            }
        }
    }
    let title = "Fig 10 — IRS improvement (%) with a varying number of interferences (8-vCPU VMs)";
    let points = ["1", "2", "3", "4", "5", "6", "7", "8"];
    irs_table(opts, title, rows, &points, &makes)
}

/// Fig 11: IRS improvement vs number of interfering VMs (1..=3) at
/// {1, 2, 4} interfered vCPUs.
pub fn fig11(opts: Opts) -> Table {
    let mut rows = Vec::new();
    let mut makes = Vec::new();
    for bench in ARCHETYPES {
        for n_inter in [1usize, 2, 4] {
            rows.push(format!("{bench} {n_inter}-inter."));
            for n_vms in 1..=3usize {
                makes.push(move |strat, seed| {
                    Scenario::fig11_style(bench, n_inter, n_vms, strat, seed)
                });
            }
        }
    }
    let title =
        "Fig 11 — IRS improvement (%) with a varying degree of interference (1-3 VMs per pCPU)";
    irs_table(opts, title, rows, &["1 VM", "2 VM", "3 VM"], &makes)
}
