//! Figures 5 and 6: per-benchmark performance improvement over vanilla
//! Xen/Linux, for {1, 2, 4} interfered vCPUs × {PLE, Relaxed-Co, IRS},
//! under micro-benchmark or real-application interference.

use crate::{mean_makespans, Opts, STRATEGIES};
use irs_core::{Scenario, Strategy, System};
use irs_metrics::{Series, Table};
use irs_workloads::presets;

/// The interference running in the background VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interference {
    /// CPU hogs (the paper's micro-benchmark).
    Micro,
    /// A real parallel application, repeated for the whole run.
    RealApp(&'static str),
}

impl Interference {
    /// Panel label, matching the paper's sub-captions.
    pub fn label(&self) -> String {
        match self {
            Interference::Micro => "w/ Microbenchmark".to_string(),
            Interference::RealApp(name) => format!("w/ {name}"),
        }
    }
}

fn scenario(
    bench: &str,
    inter: Interference,
    n_inter: usize,
    strategy: irs_core::Strategy,
    seed: u64,
) -> Scenario {
    match inter {
        Interference::Micro => Scenario::fig5_style(bench, n_inter, strategy, seed),
        Interference::RealApp(bg) => {
            Scenario::real_interference(bench, bg, n_inter, strategy, seed)
        }
    }
}

/// Improvement (%) over vanilla of every strategy in [`STRATEGIES`] for
/// every bench, one series per (block, strategy) labelled
/// `{prefix}{strategy}`; `make(bench, strategy, seed)` builds a block's
/// scenario. Every (block × {Vanilla + strategy} × bench) cell goes to the
/// worker pool in one batch, each block's vanilla baselines once.
pub(crate) fn improvement_table<M>(
    title: String,
    benches: &[&str],
    blocks: &[(String, M)],
    opts: Opts,
) -> Table
where
    M: Fn(&str, Strategy, u64) -> Scenario + Sync,
{
    let nb = benches.len();
    let mut ctors = Vec::new();
    for (_, make) in blocks {
        for strategy in std::iter::once(Strategy::Vanilla).chain(STRATEGIES) {
            for &bench in benches {
                ctors.push(move |seed| System::new(make(bench, strategy, seed)));
            }
        }
    }
    let means = mean_makespans(opts, &ctors);
    let mut table = Table::new(title);
    let block = (1 + STRATEGIES.len()) * nb;
    for ((prefix, _), means) in blocks.iter().zip(means.chunks(block)) {
        for (si, strategy) in STRATEGIES.into_iter().enumerate() {
            let mut series = Series::new(format!("{prefix}{strategy}"));
            for (bi, &bench) in benches.iter().enumerate() {
                let variant = means[(si + 1) * nb + bi];
                series.point(bench, irs_metrics::improvement_pct(means[bi], variant));
            }
            table.add(series);
        }
    }
    table
}

/// One panel of Fig 5/6: improvement (%) for every benchmark in `benches`,
/// with series `{1,2,4}-inter × {PLE, Relaxed-Co, IRS}`, from one batch.
pub fn improvement_panel(
    title: &str,
    benches: &[&str],
    inter: Interference,
    opts: Opts,
) -> Table {
    let blocks = [1usize, 2, 4].map(|n_inter| {
        let make =
            move |bench: &str, strategy, seed| scenario(bench, inter, n_inter, strategy, seed);
        (format!("{n_inter}-inter. "), make)
    });
    let title = format!("{title} ({})", inter.label());
    improvement_table(title, benches, &blocks, opts)
}

/// Fig 5: PARSEC (blocking) improvement, one panel per interference type
/// (micro-benchmark, streamcluster, fluidanimate).
pub fn fig5(opts: Opts, inter: Interference) -> Table {
    improvement_panel(
        "Fig 5 — improvement on PARSEC performance (blocking)",
        &presets::PARSEC_NAMES,
        inter,
        opts,
    )
}

/// Fig 6: NPB (spinning) improvement, one panel per interference type
/// (micro-benchmark, UA, LU).
pub fn fig6(opts: Opts, inter: Interference) -> Table {
    improvement_panel(
        "Fig 6 — improvement on NPB performance (spinning)",
        &presets::NPB_NAMES,
        inter,
        opts,
    )
}
