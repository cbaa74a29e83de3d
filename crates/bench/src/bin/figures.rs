//! Regenerates the paper's tables and figures as fixed-width text (and
//! optionally CSV).
//!
//! ```text
//! figures <experiment>... [--seeds N] [--base-seed S] [--jobs N] [--quick]
//!                         [--check] [--check-perf] [--csv DIR]
//! ```
//!
//! Experiment names are listed by [`usage`], generated from the one
//! [`EXPERIMENTS`] registry (so the help text, the `core`/`all` aliases,
//! and this doc cannot drift apart): the core per-figure set used by
//! EXPERIMENTS.md (`fig1a` … `fig13`, `fairness`, `sa_stats`), the extras
//! (`io_latency`, `ablate_strict_co`, `stacking_baseline`,
//! `ablate_pingpong`, `ablate_idle_first`, `ablate_sa_delay`,
//! `ablate_pull`, `ablate_slice`, `ablate_pv_spin`, `chaos`), `perf`
//! (engine self-benchmark; writes BENCH_runner.json), `fleet` (the
//! datacenter-scale fleet campaign; `--smoke` shrinks it for CI), and
//! `serving` (the open-loop latency-SLO serving campaign; `--smoke`
//! likewise).
//!
//! `--jobs N` sets the worker-thread count for the run fan-out (default:
//! all available cores). Tables are identical for every worker count.
//! `--check` arms the online invariant sanitizer
//! ([`irs_core::check`]) for every simulated run: each system validates
//! scheduler invariants after every event and panics with a trace dump on
//! the first violation. Tables are identical with and without it.
//! `--hosts N` rescales the fleet campaign to an `N`-host fleet (tenant
//! load scales along); its history phase is `fleet-scale` and its
//! `--check-perf` gate ratchets *effective* events/sec (logical volume
//! per wall second) plus a deterministic ≥5× incrementality floor.
//! `--parity` re-runs the fleet campaign with the incremental engine
//! disabled and asserts the SLO tables are bit-identical (no history,
//! no ratchet — it is a correctness gate).
//!
//! `perf`, `fleet` and `serving` each produce history records
//! ([`irs_bench::perf::PerfRecord`]: `perf` one per phase — `ticked`,
//! `parallel`, `queue` — the campaigns one each, phases `fleet` /
//! `fleet-smoke` / `fleet-scale` / `serving` / `serving-smoke`). After
//! the last experiment they are appended to `BENCH_history.jsonl` in one
//! go for trend tracking. `--check-perf` turns that step into a
//! regression gate: exit 1 if any record regresses past the ratchet
//! tolerance against the best matching history record (same phase /
//! worker count / host core count), or if a campaign breaks its own
//! floor — `perf`'s speedup (ticked sequential over parallel) below its
//! noise band (0.85 — the true ratio is ~1.0 on 1-core boxes) or its
//! queue micro-benchmark below its absolute floor, and the scale fleet's
//! incrementality floor. Under `--check` (the sanitizer tax) or
//! `--parity` (a full re-simulation) throughput is incomparable, so
//! nothing is appended or ratcheted; the floors still apply.

use irs_bench::fig5_6::Interference;
use irs_bench::perf::{host_cores, PerfRecord};
use irs_bench::Opts;
use irs_metrics::Table;
use std::time::Instant;

/// Every experiment name the dispatcher understands, in presentation
/// order, tagged with whether the `core` alias includes it (`all` takes
/// the whole list). The single source for [`usage`] and alias expansion.
const EXPERIMENTS: [(&str, bool); 26] = [
    ("fig1a", true),
    ("fig1b", true),
    ("fig2", true),
    ("fig5", true),
    ("fig6", true),
    ("fig7", true),
    ("fig8", true),
    ("fig9", true),
    ("fig10", true),
    ("fig11", true),
    ("fig12", true),
    ("fig13", true),
    ("fairness", true),
    ("sa_stats", true),
    ("io_latency", false),
    ("ablate_strict_co", false),
    ("stacking_baseline", false),
    ("ablate_pingpong", false),
    ("ablate_idle_first", false),
    ("ablate_sa_delay", false),
    ("ablate_pull", false),
    ("ablate_slice", false),
    ("ablate_pv_spin", false),
    ("chaos", false),
    ("fleet", false),
    ("serving", false),
];

fn usage() -> ! {
    let join = |core: bool| {
        EXPERIMENTS
            .iter()
            .filter(|(_, c)| *c == core)
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "usage: figures <experiment>... [--seeds N] [--base-seed S] [--jobs N] [--quick] [--check] [--check-perf] [--smoke] [--hosts N] [--parity] [--csv DIR]\n\
         experiments:\n\
         \u{20} {}\n\
         \u{20} {}\n\
         \u{20} perf   (engine self-benchmark; writes BENCH_runner.json)\n\
         \u{20} core   (= the per-figure set used by EXPERIMENTS.md)\n\
         \u{20} all    (= core + the extras on the second line)",
        join(true),
        join(false),
    );
    std::process::exit(2);
}

/// Builds the tables for one experiment name.
fn run_experiment(exp: &str, opts: Opts) -> Vec<Table> {
    match exp {
        "fig1a" => vec![irs_bench::fig1::fig1a(opts)],
        "fig1b" => vec![irs_bench::fig1::fig1b(opts)],
        "fig2" => vec![irs_bench::fig2::fig2(opts)],
        "fig5" => [
            Interference::Micro,
            Interference::RealApp("streamcluster"),
            Interference::RealApp("fluidanimate"),
        ]
        .into_iter()
        .map(|i| irs_bench::fig5_6::fig5(opts, i))
        .collect(),
        "fig6" => [
            Interference::Micro,
            Interference::RealApp("UA"),
            Interference::RealApp("LU"),
        ]
        .into_iter()
        .map(|i| irs_bench::fig5_6::fig6(opts, i))
        .collect(),
        "fig7" => ["fluidanimate", "streamcluster"]
            .into_iter()
            .map(|bg| irs_bench::fig7_9::fig7(opts, bg))
            .collect(),
        "fig8" => vec![irs_bench::fig8::fig8(opts), irs_bench::fig8::fig8_raw(opts)],
        "fig9" => ["LU", "UA"]
            .into_iter()
            .map(|bg| irs_bench::fig7_9::fig9(opts, bg))
            .collect(),
        "fig10" => vec![irs_bench::fig10_11::fig10(opts)],
        "fig11" => vec![irs_bench::fig10_11::fig11(opts)],
        "fig12" => vec![irs_bench::fig12_13::fig12(opts)],
        "fig13" => vec![irs_bench::fig12_13::fig13(opts)],
        "fairness" => vec![irs_bench::fairness::fairness(opts)],
        "sa_stats" => vec![irs_bench::fairness::sa_stats(opts)],
        "stacking_baseline" => vec![irs_bench::fig12_13::stacking_baseline(opts)],
        "ablate_pingpong" => vec![irs_bench::ablations::ablate_pingpong(opts)],
        "ablate_idle_first" => vec![irs_bench::ablations::ablate_idle_first(opts)],
        "ablate_sa_delay" => vec![irs_bench::ablations::ablate_sa_delay(opts)],
        "ablate_pull" => vec![irs_bench::ablations::ablate_pull(opts)],
        "ablate_slice" => vec![irs_bench::ablations::ablate_slice(opts)],
        "ablate_pv_spin" => vec![irs_bench::ablations::ablate_pv_spin(opts)],
        "io_latency" => vec![irs_bench::io_latency::io_latency(opts)],
        "chaos" => vec![irs_bench::chaos::chaos(opts)],
        "ablate_strict_co" => vec![irs_bench::ablations::ablate_strict_co(opts)],
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    }
}

/// The current commit and unix time, stamped into every history record.
fn commit_and_timestamp() -> (String, u64) {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    (commit, timestamp)
}

/// Appends records to `BENCH_history.jsonl` (append-only trend log: one
/// line per measured phase, each tagged with commit, timestamp, and
/// configuration — including the host core count — so `--check-perf`
/// can ratchet against matching records only). History is best-effort —
/// a read-only checkout warns instead of failing the benchmark.
fn append_history(lines: &str) {
    let appended = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open("BENCH_history.jsonl")
        .and_then(|mut f| std::io::Write::write_all(&mut f, lines.as_bytes()));
    if let Err(e) = appended {
        eprintln!("cannot append to BENCH_history.jsonl: {e}");
    }
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
            // Shrinks the fleet campaign to its CI variant.
            "--smoke" => smoke = true,
            // Rescales the fleet campaign (phase `fleet-scale`).
            "--hosts" => {
                let n = it.next().unwrap_or_else(|| usage());
                hosts = Some(n.parse().unwrap_or_else(|_| usage()));
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

    let mut queue: Vec<String> = Vec::new();
    for e in &experiments {
        match e.as_str() {
            "all" => queue.extend(EXPERIMENTS.iter().map(|(n, _)| n.to_string())),
            "core" => queue.extend(
                EXPERIMENTS
                    .iter()
                    .filter(|(_, core)| *core)
                    .map(|(n, _)| n.to_string()),
            ),
            other => {
                if other != "perf" && !EXPERIMENTS.iter().any(|(n, _)| *n == other) {
                    eprintln!("unknown experiment: {other}");
                    usage();
                }
                queue.push(other.to_string());
            }
        }
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create csv directory {dir}: {e}");
            std::process::exit(1);
        }
    }

    // Every campaign's history records and floor failures, logged and
    // gated together after the last experiment.
    let jobs = irs_core::parallel::resolve_jobs(opts.jobs);
    let mut records: Vec<PerfRecord> = Vec::new();
    let mut floor_failures: Vec<String> = Vec::new();
    for exp in queue {
        let start = Instant::now();
        if exp == "perf" {
            let report = irs_bench::perf::perf(opts);
            print!("{}", report.render());
            if let Err(e) = std::fs::write("BENCH_runner.json", report.to_json()) {
                eprintln!("cannot write BENCH_runner.json: {e}");
                std::process::exit(1);
            }
            records.extend(report.records());
            floor_failures.extend(report.floor_failures());
            eprintln!("[perf done in {:.1}s]", start.elapsed().as_secs_f64());
            println!();
            continue;
        }
        if exp == "fleet" {
            let outcome = if parity {
                irs_bench::fleet::assert_incremental_parity(opts, smoke, hosts)
            } else {
                irs_bench::fleet::fleet(opts, smoke, hosts)
            };
            for (i, table) in outcome.report.tables.iter().enumerate() {
                print!("{table}");
                if let Some(dir) = &csv_dir {
                    let path = format!("{dir}/fleet_{i}.csv");
                    if let Err(e) = std::fs::write(&path, table.to_csv()) {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            print!("{}", outcome.report.accounting);
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/fleet_accounting.csv");
                if let Err(e) = std::fs::write(&path, outcome.report.accounting.to_csv()) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
            let cache = &outcome.report.cache;
            eprintln!(
                "[fleet done in {:.1}s: {} hosts, {} host runs ({} elided, {} carried), \
                 {} events logical ({:.0}/s effective), {} executed ({:.0}/s), \
                 fork_warmup_saved={}, cache hit rate {:.1}% ({:.1} MiB resident, \
                 {} evictions), {} tenants placed, {} rejected{}]",
                outcome.wall_s,
                outcome.hosts,
                outcome.report.host_runs,
                outcome.report.runs_elided,
                outcome.report.hosts_carried,
                outcome.report.events,
                irs_bench::fleet::effective_events_per_sec(&outcome),
                irs_bench::fleet::events_executed(&outcome),
                irs_bench::fleet::events_per_sec(&outcome),
                outcome.report.fork_warmup_saved,
                100.0 * cache.hit_rate().max(0.0),
                cache.resident_bytes as f64 / (1 << 20) as f64,
                cache.evictions,
                outcome.report.tenants_placed,
                outcome.report.tenants_rejected,
                if parity { "; incremental parity OK" } else { "" },
            );
            records.push(irs_bench::fleet::record(&outcome, jobs));
            floor_failures.extend(irs_bench::fleet::floor_failures(&outcome));
            println!();
            continue;
        }
        if exp == "serving" {
            let outcome = irs_bench::serving::serving(opts, smoke);
            print!("{}", outcome.table);
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/serving.csv");
                if let Err(e) = std::fs::write(&path, outcome.table.to_csv()) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
            eprintln!(
                "[serving done in {:.1}s: {} runs, {} requests, {} events ({:.0}/s)]",
                outcome.wall_s,
                outcome.runs,
                outcome.requests,
                outcome.events,
                irs_bench::serving::events_per_sec(&outcome),
            );
            records.push(irs_bench::serving::record(&outcome, jobs));
            println!();
            continue;
        }
        let tables = run_experiment(&exp, opts);
        for (i, table) in tables.iter().enumerate() {
            print!("{table}");
            if let Some(dir) = &csv_dir {
                let path = if tables.len() == 1 {
                    format!("{dir}/{exp}.csv")
                } else {
                    format!("{dir}/{exp}_{i}.csv")
                };
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        eprintln!("[{exp} done in {:.1}s]", start.elapsed().as_secs_f64());
        println!();
    }

    // Sanitized runs pay the invariant-checking tax and parity runs pay a
    // full re-simulation, so neither is comparable to normal records:
    // neither log them nor ratchet against them. The floors are ratios
    // and counters of the run itself, so they apply either way.
    let mut failures = Vec::new();
    if !records.is_empty() && !irs_core::check::check_enabled() && !parity {
        // Read the trend log *before* appending so the ratchet compares
        // against prior invocations, not this one.
        let history = std::fs::read_to_string("BENCH_history.jsonl").unwrap_or_default();
        let (commit, timestamp) = commit_and_timestamp();
        let cores = host_cores();
        append_history(
            &records
                .iter()
                .map(|r| r.to_line(&commit, timestamp, cores))
                .collect::<String>(),
        );
        if check_perf {
            failures.extend(records.iter().filter_map(|r| r.ratchet(&history, cores)));
        }
    }
    if check_perf {
        failures.extend(floor_failures);
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("perf regression: {f}");
        }
        std::process::exit(1);
    }
}
