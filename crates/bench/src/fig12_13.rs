//! Figures 12 and 13: the CPU-stacking study (§5.6) — all vCPUs unpinned,
//! 4-inter CPU hogs, hypervisor-level load balancing active.
//!
//! Also the §2.3 baseline: how much unpinning alone costs vanilla
//! Xen/Linux (the "5-20x" stacking observation, at our simulator's scale).

use crate::fig5_6::improvement_table;
use crate::{mean_makespans, Opts};
use irs_core::{Scenario, Strategy, System};
use irs_metrics::{Series, Table};
use irs_workloads::presets;

/// Builds an unpinned 4-inter scenario (the stacking configuration).
pub fn unpinned_scenario(bench: &str, strategy: Strategy, seed: u64) -> Scenario {
    let mut s = Scenario::fig5_style(bench, 4, strategy, seed);
    for vm in &mut s.vms {
        vm.pinning = None;
    }
    s
}

/// Improvement (%) of every strategy over vanilla for every bench, from
/// one batch in which each bench's vanilla baseline runs once.
fn stacking_panel(title: &str, benches: &[&str], opts: Opts) -> Table {
    let blocks = [(String::new(), unpinned_scenario)];
    improvement_table(title.to_string(), benches, &blocks, opts)
}

/// Fig 12: NPB performance in response to CPU stacking (no deceptive
/// idleness — NPB spins — so every strategy has room to help).
pub fn fig12(opts: Opts) -> Table {
    stacking_panel(
        "Fig 12 — NPB performance in response to CPU stacking (improvement %, unpinned, 4-inter)",
        &presets::NPB_NAMES,
        opts,
    )
}

/// Fig 13: PARSEC performance in response to CPU stacking (deceptive
/// idleness: PLE and relaxed-co can make things worse; IRS keeps vCPUs
/// exhibiting their factual demand).
pub fn fig13(opts: Opts) -> Table {
    stacking_panel(
        "Fig 13 — PARSEC performance in response to CPU stacking (improvement %, unpinned, 4-inter)",
        &presets::PARSEC_NAMES,
        opts,
    )
}

/// §2.3 baseline: vanilla slowdown of unpinning versus the pinned setup —
/// the cost of CPU stacking itself.
pub fn stacking_baseline(opts: Opts) -> Table {
    let mut table =
        Table::new("CPU stacking baseline — vanilla unpinned vs pinned slowdown (factor)");
    let benches = ["streamcluster", "fluidanimate", "canneal", "MG", "CG", "UA"];
    let mut ctors = Vec::new();
    for bench in benches {
        for pinned in [true, false] {
            ctors.push(move |seed| {
                System::new(if pinned {
                    Scenario::fig5_style(bench, 4, Strategy::Vanilla, seed)
                } else {
                    unpinned_scenario(bench, Strategy::Vanilla, seed)
                })
            });
        }
    }
    let means = mean_makespans(opts, &ctors);
    let mut series = Series::new("unpinned / pinned");
    for (bi, bench) in benches.into_iter().enumerate() {
        series.point(
            bench,
            irs_metrics::slowdown(means[2 * bi], means[2 * bi + 1]),
        );
    }
    table.add(series);
    table
}
