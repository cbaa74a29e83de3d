//! Figures 5 and 6: per-benchmark performance improvement over vanilla
//! Xen/Linux, for {1, 2, 4} interfered vCPUs × {PLE, Relaxed-Co, IRS},
//! under micro-benchmark or real-application interference.
//!
//! A real-application panel is a projection of a [`RealAppGrid`], the
//! seed-mean cells of one background, which Figures 7 and 9 project too.

use crate::{mean_makespans, mean_pair, Opts, STRATEGIES};
use irs_core::{runner, Scenario, Strategy, System};
use irs_metrics::{Series, Table};
use irs_workloads::presets;

/// Interfered-vCPU counts, one block of cells each.
const N_INTERS: [usize; 3] = [1, 2, 4];

const FIG5_TITLE: &str = "Fig 5 — improvement on PARSEC performance (blocking)";
const FIG6_TITLE: &str = "Fig 6 — improvement on NPB performance (spinning)";

/// The interference running in the background VM of [`fig5`] and
/// [`fig6`]. A real application's panel is a [`RealAppGrid`]'s instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interference {
    /// CPU hogs (the paper's micro-benchmark).
    Micro,
}

impl Interference {
    /// Panel label, matching the paper's sub-captions.
    pub fn label(&self) -> String {
        match self {
            Interference::Micro => "w/ Microbenchmark".to_string(),
        }
    }
}

/// Improvement (%) over vanilla of every strategy in [`STRATEGIES`], one
/// series per (block, strategy) labelled `{prefix}{strategy}`, from
/// seed-mean makespans in cell order: per block, vanilla then each
/// strategy, each over every bench.
fn improvement_from(
    title: String,
    benches: &[&str],
    prefixes: impl IntoIterator<Item = String>,
    means: &[f64],
) -> Table {
    let nb = benches.len();
    let mut table = Table::new(title);
    let block = (1 + STRATEGIES.len()) * nb;
    for (prefix, means) in prefixes.into_iter().zip(means.chunks(block)) {
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

/// One run constructor per cell, in cell order: per block, vanilla then
/// each strategy, each over every bench; `make(bench, strategy, seed)`
/// builds a block's scenario.
fn cell_ctors<'a, M>(
    benches: &'a [&'a str],
    blocks: impl IntoIterator<Item = &'a M>,
) -> Vec<impl Fn(u64) -> System + Sync + 'a>
where
    M: Fn(&str, Strategy, u64) -> Scenario + Sync + 'a,
{
    let mut ctors = Vec::new();
    for make in blocks {
        for strategy in std::iter::once(Strategy::Vanilla).chain(STRATEGIES) {
            for &bench in benches {
                ctors.push(move |seed| System::new(make(bench, strategy, seed)));
            }
        }
    }
    ctors
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
    let ctors = cell_ctors(benches, blocks.iter().map(|(_, make)| make));
    let means = mean_makespans(opts, &ctors);
    let prefixes = blocks.iter().map(|(prefix, _)| prefix.clone());
    improvement_from(title, benches, prefixes, &means)
}

/// The real-application cells of one background: every
/// (n_inter ∈ {1, 2, 4}) × {Vanilla + strategy} × bench run of
/// [`Scenario::real_interference`], each kept as the seed means of the
/// foreground makespan (ms) and the background's useful-work rate.
///
/// Fig 5/6's real-application panels read the makespans and Fig 7/9 read
/// both, so one grid per background feeds both figures.
pub struct RealAppGrid<'a> {
    benches: &'a [&'a str],
    background: &'a str,
    /// `(makespan ms, background work rate)` seed means, in cell order:
    /// n_inter, then vanilla and each strategy, then bench.
    cells: Vec<(f64, f64)>,
}

impl<'a> RealAppGrid<'a> {
    /// Runs every cell of `benches` under `background` once, in one batch.
    pub fn run(benches: &'a [&'a str], background: &'a str, opts: Opts) -> Self {
        let blocks = N_INTERS.map(|n_inter| {
            move |bench: &str, strategy, seed| {
                Scenario::real_interference(bench, background, n_inter, strategy, seed)
            }
        });
        let ctors = cell_ctors(benches, &blocks);
        let cells = runner::grid(opts.base_seed, opts.seeds, opts.jobs, &ctors, |r| {
            (r.measured().makespan_ms(), r.vms[1].work_rate(r.elapsed))
        })
        .iter()
        .map(|runs| mean_pair(runs))
        .collect();
        RealAppGrid {
            benches,
            background,
            cells,
        }
    }

    /// The improvement panel: foreground makespan improvement (%) over
    /// vanilla, series `{1,2,4}-inter × {PLE, Relaxed-Co, IRS}`.
    pub fn improvement(&self, title: &str) -> Table {
        let makespans: Vec<f64> = self.cells.iter().map(|&(fg, _)| fg).collect();
        improvement_from(
            format!("{title} (w/ {})", self.background),
            self.benches,
            N_INTERS.map(|n_inter| format!("{n_inter}-inter. ")),
            &makespans,
        )
    }

    /// The weighted-speedup panel: the mean of the foreground's speedup
    /// (`vanilla makespan / makespan`) and the background's (its work rate
    /// relative to vanilla), in percent (100 = vanilla parity).
    pub fn weighted_speedup(&self, title: &str) -> Table {
        let nb = self.benches.len();
        let block = (1 + STRATEGIES.len()) * nb;
        let mut table = Table::new(format!("{title} (w/ {})", self.background));
        for (n_inter, cells) in N_INTERS.into_iter().zip(self.cells.chunks(block)) {
            for (si, strategy) in STRATEGIES.into_iter().enumerate() {
                let mut series = Series::new(format!("{n_inter}-inter. {strategy}"));
                for (bi, &bench) in self.benches.iter().enumerate() {
                    let (fg_v, bg_v) = cells[bi];
                    let (fg_s, bg_s) = cells[(si + 1) * nb + bi];
                    let fg_speedup = if fg_s > 0.0 { fg_v / fg_s } else { 0.0 };
                    let bg_speedup = if bg_v > 0.0 { bg_s / bg_v } else { 0.0 };
                    series.point(bench, (fg_speedup + bg_speedup) / 2.0 * 100.0);
                }
                table.add(series);
            }
        }
        table
    }
}

/// One micro-benchmark panel of Fig 5/6: improvement (%) for every
/// benchmark in `benches`, with series `{1,2,4}-inter × {PLE, Relaxed-Co,
/// IRS}`, from one batch.
pub fn improvement_panel(title: &str, benches: &[&str], inter: Interference, opts: Opts) -> Table {
    let blocks = N_INTERS.map(|n_inter| {
        let make =
            move |bench: &str, strategy, seed| Scenario::fig5_style(bench, n_inter, strategy, seed);
        (format!("{n_inter}-inter. "), make)
    });
    let title = format!("{title} ({})", inter.label());
    improvement_table(title, benches, &blocks, opts)
}

/// Fig 5: PARSEC (blocking) improvement under the micro-benchmark; the
/// streamcluster and fluidanimate panels are [`fig5_of`] a grid.
pub fn fig5(opts: Opts, inter: Interference) -> Table {
    improvement_panel(FIG5_TITLE, &presets::PARSEC_NAMES, inter, opts)
}

/// Fig 5's panel for a PARSEC grid's background.
pub fn fig5_of(grid: &RealAppGrid) -> Table {
    grid.improvement(FIG5_TITLE)
}

/// Fig 6: NPB (spinning) improvement under the micro-benchmark; the UA
/// and LU panels are [`fig6_of`] a grid.
pub fn fig6(opts: Opts, inter: Interference) -> Table {
    improvement_panel(FIG6_TITLE, &presets::NPB_NAMES, inter, opts)
}

/// Fig 6's panel for an NPB grid's background.
pub fn fig6_of(grid: &RealAppGrid) -> Table {
    grid.improvement(FIG6_TITLE)
}
