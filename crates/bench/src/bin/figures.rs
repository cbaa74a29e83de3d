//! Regenerates the paper's tables and figures as fixed-width text (and
//! optionally CSV).
//!
//! ```text
//! figures <experiment>... [--seeds N] [--base-seed S] [--jobs N] [--quick]
//!                         [--check] [--check-perf] [--smoke] [--hosts N]
//!                         [--parity] [--csv DIR]
//! ```
//!
//! Every experiment is one entry of the [`registry`]: its name, the alias
//! that queues it, the experiment-specific flags it reads, and one `run`
//! returning its tables with their CSV names, any text, a summary line
//! and floor failures. The help text, the `core`/`all` aliases, the flag
//! checks and the main loop all read that one list, so they cannot drift
//! apart. `core` is the per-figure set used by EXPERIMENTS.md (`fig1a` …
//! `fig13`, `fairness`, `sa_stats`); `all` adds the extras (`io_latency`,
//! the ablations, `chaos`, `fleet` — the datacenter-scale fleet campaign —
//! and `serving` — the open-loop latency-SLO serving campaign). `perf` (the
//! engine self-benchmark; writes BENCH_runner.json) runs by name only. A
//! figure with one table writes `{name}.csv`, one with several
//! `{name}_{i}.csv`; the fleet adds `fleet_accounting.csv`.
//!
//! `--jobs N` sets the worker-thread count for the run fan-out (default:
//! all available cores). Tables are identical for every worker count.
//! `--check` arms the online invariant sanitizer
//! ([`irs_core::check`]) for every simulated run: each system validates
//! scheduler invariants after every event, in one pass per entity, and
//! panics with the tail of its typed trace on the first violation. Tables
//! and stdout are identical with and without it, so `figures all --check`
//! is the one checked pass over every table (`scripts/verify.sh` step 4).
//! `--smoke` shrinks the fleet and serving campaigns for CI. Only the fleet
//! reads the next two flags; like `--smoke`, naming one when no queued
//! experiment reads it exits 2 with usage.
//! `--hosts N` (N ≥ 1) rescales the fleet campaign to an `N`-host
//! fleet (tenant load scales along): the *scale* configuration.
//! `--parity` re-runs the fleet campaign with the incremental engine
//! disabled and asserts the SLO tables are bit-identical.
//!
//! `--check-perf` is scoped the same way: only `perf` and `fleet` have
//! floors. It exits 1 after the last experiment if a run broke one:
//! `perf`'s speedup (ticked sequential over parallel) below its noise band
//! (0.85 — the true ratio is ~1.0 on 1-core boxes) or its queue
//! micro-benchmark below its absolute floor, and the scale fleet's ≥5×
//! incrementality floor. Each floor is computed from the run itself, so it
//! holds under `--check` and `--parity` too.

use irs_bench::fig5_6::{self, Interference};
use irs_bench::{
    ablations, chaos, fairness, fig1, fig10_11, fig12_13, fig2, fig7_9, fig8, fleet, io_latency,
    perf, serving, Opts,
};
use irs_metrics::Table;
use std::time::Instant;

/// Which alias queues an experiment.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Alias {
    /// `core` (and so `all`): the per-figure set EXPERIMENTS.md uses.
    Core,
    /// `all` only: the extras.
    All,
    /// Neither: run by name only.
    Named,
}

/// Flags only some experiments read. Naming one when no queued
/// experiment reads it is a usage error, not a silent no-op.
const SCOPED_FLAGS: [&str; 4] = ["--smoke", "--hosts", "--parity", "--check-perf"];

/// The parsed command line, as every experiment's `run` sees it.
struct Args {
    opts: Opts,
    smoke: bool,
    hosts: Option<usize>,
    parity: bool,
}

/// What one experiment produced.
#[derive(Default)]
struct Output {
    /// Text printed before the tables (perf's report).
    text: String,
    /// The tables in print order, each with its CSV file stem.
    tables: Vec<(String, Table)>,
    /// Detail for the `[<name> done in …]` line on stderr.
    summary: String,
    /// `--check-perf` floor violations.
    floor_failures: Vec<String>,
}

impl Output {
    /// Tables named `{name}.csv`, or `{name}_{i}.csv` when there are
    /// several.
    fn tables(name: &str, tables: Vec<Table>) -> Output {
        let mut tables: Vec<(String, Table)> = tables
            .into_iter()
            .enumerate()
            .map(|(i, t)| (format!("{name}_{i}"), t))
            .collect();
        if let [(stem, _)] = &mut tables[..] {
            *stem = name.to_string();
        }
        Output {
            tables,
            ..Output::default()
        }
    }
}

/// One experiment of the registry.
struct Experiment {
    name: &'static str,
    alias: Alias,
    /// The [`SCOPED_FLAGS`] it reads.
    flags: &'static [&'static str],
    run: Box<dyn Fn(&Args) -> Output>,
}

/// A figure: tables from [`Opts`] alone.
fn figure(
    name: &'static str,
    alias: Alias,
    tables: impl Fn(Opts) -> Vec<Table> + 'static,
) -> Experiment {
    Experiment {
        name,
        alias,
        flags: &[],
        run: Box::new(move |args| Output::tables(name, tables(args.opts))),
    }
}

/// A figure with a single table.
fn table(name: &'static str, alias: Alias, table: fn(Opts) -> Table) -> Experiment {
    figure(name, alias, move |o| vec![table(o)])
}

/// An experiment that reads the whole command line.
fn campaign(
    name: &'static str,
    alias: Alias,
    flags: &'static [&'static str],
    run: fn(&Args) -> Output,
) -> Experiment {
    Experiment {
        name,
        alias,
        flags,
        run: Box::new(run),
    }
}

/// Every experiment, in presentation order: the single source for
/// [`usage`], alias expansion, flag checks and dispatch.
fn registry() -> Vec<Experiment> {
    use Alias::{All, Core, Named};
    use Interference::{Micro, RealApp};
    vec![
        table("fig1a", Core, fig1::fig1a),
        table("fig1b", Core, fig1::fig1b),
        table("fig2", Core, fig2::fig2),
        figure("fig5", Core, |o| {
            let panels = [Micro, RealApp("streamcluster"), RealApp("fluidanimate")];
            panels.map(|i| fig5_6::fig5(o, i)).into()
        }),
        figure("fig6", Core, |o| {
            let panels = [Micro, RealApp("UA"), RealApp("LU")];
            panels.map(|i| fig5_6::fig6(o, i)).into()
        }),
        figure("fig7", Core, |o| {
            let backgrounds = ["fluidanimate", "streamcluster"];
            backgrounds.map(|bg| fig7_9::fig7(o, bg)).into()
        }),
        figure("fig8", Core, fig8::fig8),
        figure("fig9", Core, |o| {
            ["LU", "UA"].map(|bg| fig7_9::fig9(o, bg)).into()
        }),
        table("fig10", Core, fig10_11::fig10),
        table("fig11", Core, fig10_11::fig11),
        table("fig12", Core, fig12_13::fig12),
        table("fig13", Core, fig12_13::fig13),
        table("fairness", Core, fairness::fairness),
        table("sa_stats", Core, fairness::sa_stats),
        table("io_latency", All, io_latency::io_latency),
        table("ablate_strict_co", All, ablations::ablate_strict_co),
        table("stacking_baseline", All, fig12_13::stacking_baseline),
        table("ablate_pingpong", All, ablations::ablate_pingpong),
        table("ablate_idle_first", All, ablations::ablate_idle_first),
        table("ablate_sa_delay", All, ablations::ablate_sa_delay),
        table("ablate_pull", All, ablations::ablate_pull),
        table("ablate_slice", All, ablations::ablate_slice),
        table("ablate_pv_spin", All, ablations::ablate_pv_spin),
        table("chaos", All, chaos::chaos),
        campaign(
            "fleet",
            All,
            &["--smoke", "--hosts", "--parity", "--check-perf"],
            run_fleet,
        ),
        campaign("serving", All, &["--smoke"], run_serving),
        campaign("perf", Named, &["--check-perf"], run_perf),
    ]
}

/// The fleet campaign (`--parity` re-runs it from scratch and compares):
/// six SLO tables plus the accounting table.
fn run_fleet(args: &Args) -> Output {
    let outcome = if args.parity {
        fleet::assert_incremental_parity(args.opts, args.smoke, args.hosts)
    } else {
        fleet::fleet(args.opts, args.smoke, args.hosts)
    };
    let mut out = Output::tables("fleet", outcome.report.tables.clone());
    out.tables.push((
        "fleet_accounting".to_string(),
        outcome.report.accounting.clone(),
    ));
    out.summary = fleet::summary(&outcome);
    if args.parity {
        out.summary.push_str("; incremental parity OK");
    }
    out.floor_failures = fleet::floor_failures(&outcome);
    out
}

/// The open-loop serving campaign.
fn run_serving(args: &Args) -> Output {
    let outcome = serving::serving(args.opts, args.smoke);
    Output {
        summary: serving::summary(&outcome),
        ..Output::tables("serving", vec![outcome.table])
    }
}

/// The engine self-benchmark; also writes `BENCH_runner.json`.
fn run_perf(args: &Args) -> Output {
    let report = perf::perf(args.opts);
    if let Err(e) = std::fs::write("BENCH_runner.json", report.to_json()) {
        eprintln!("cannot write BENCH_runner.json: {e}");
        std::process::exit(1);
    }
    Output {
        text: report.render(),
        floor_failures: report.floor_failures(),
        ..Output::default()
    }
}

fn usage() -> ! {
    let registry = registry();
    let names = |alias: Alias| {
        registry
            .iter()
            .filter(|e| e.alias == alias)
            .map(|e| e.name)
            .collect::<Vec<_>>()
            .join(" ")
    };
    let scoped = registry
        .iter()
        .filter(|e| !e.flags.is_empty())
        .map(|e| format!("{} ({})", e.name, e.flags.join(" ")))
        .collect::<Vec<_>>()
        .join(", ");
    eprintln!(
        "usage: figures <experiment>... [--seeds N] [--base-seed S] [--jobs N] [--quick] [--check] [--check-perf] [--smoke] [--hosts N] [--parity] [--csv DIR]\n\
         experiments:\n\
         \u{20} {}\n\
         \u{20} {}\n\
         \u{20} {}   (by name only; the engine self-benchmark, writes BENCH_runner.json)\n\
         \u{20} core   (= the per-figure set used by EXPERIMENTS.md)\n\
         \u{20} all    (= core + the extras on the second line)\n\
         experiment-specific flags: {scoped}",
        names(Alias::Core),
        names(Alias::All),
        names(Alias::Named),
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut opts = Opts::default();
    let mut csv_dir: Option<String> = None;
    let mut check_perf = false;
    let mut smoke = false;
    let mut hosts: Option<usize> = None;
    let mut parity = false;
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts = Opts { seeds: 1, ..opts },
            "--seeds" => {
                // Every data point is a mean over the seeds: zero has none.
                let n = it.next().unwrap_or_else(|| usage());
                opts.seeds = n
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--base-seed" => {
                let n = it.next().unwrap_or_else(|| usage());
                opts.base_seed = n.parse().unwrap_or_else(|_| usage());
            }
            "--jobs" => {
                let n = it.next().unwrap_or_else(|| usage());
                opts.jobs = n.parse().unwrap_or_else(|_| usage());
                // Helpers that take no Opts (and `opts.jobs == 0` call
                // sites) resolve through the process default.
                irs_core::parallel::set_default_jobs(opts.jobs);
            }
            "--check" => irs_core::check::set_check_enabled(true),
            "--check-perf" => check_perf = true,
            // Shrinks the fleet and serving campaigns to their CI variants.
            "--smoke" => smoke = true,
            // Rescales the fleet campaign (the scale configuration).
            "--hosts" => {
                // A fleet needs at least one host to place tenants on.
                let n = it.next().unwrap_or_else(|| usage());
                hosts = Some(
                    n.parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                );
            }
            // Incremental-vs-full bit-identity gate for the fleet.
            "--parity" => parity = true,
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| usage()));
            }
            other if other.starts_with('-') => usage(),
            other => experiments.push(other.to_string()),
        }
    }

    let registry = registry();
    let mut queue: Vec<&Experiment> = Vec::new();
    for e in &experiments {
        match e.as_str() {
            "all" => queue.extend(registry.iter().filter(|x| x.alias != Alias::Named)),
            "core" => queue.extend(registry.iter().filter(|x| x.alias == Alias::Core)),
            other => match registry.iter().find(|x| x.name == other) {
                Some(x) => queue.push(x),
                None => {
                    eprintln!("unknown experiment: {other}");
                    usage();
                }
            },
        }
    }
    if queue.is_empty() {
        usage();
    }
    let args = Args {
        opts,
        smoke,
        hosts,
        parity,
    };
    let given = [args.smoke, args.hosts.is_some(), args.parity, check_perf];
    for (flag, given) in SCOPED_FLAGS.into_iter().zip(given) {
        if given && !queue.iter().any(|e| e.flags.contains(&flag)) {
            eprintln!("{flag}: no queued experiment reads it");
            usage();
        }
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create csv directory {dir}: {e}");
            std::process::exit(1);
        }
    }

    // Every experiment's floor failures, gated together after the last
    // experiment.
    let mut failures = Vec::new();
    for exp in queue {
        let start = Instant::now();
        let out = (exp.run)(&args);
        print!("{}", out.text);
        for (stem, table) in &out.tables {
            print!("{table}");
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/{stem}.csv");
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        let detail = if out.summary.is_empty() {
            String::new()
        } else {
            format!(": {}", out.summary)
        };
        eprintln!(
            "[{} done in {:.1}s{detail}]",
            exp.name,
            start.elapsed().as_secs_f64()
        );
        println!();
        failures.extend(out.floor_failures);
    }
    if check_perf && !failures.is_empty() {
        for f in &failures {
            eprintln!("perf regression: {f}");
        }
        std::process::exit(1);
    }
}
