//! irs-sched benchmark: one workload per process, `jobs = 1`.
//!
//! ```text
//! irs-perfbench --workload paper|serving|fleet --seed N --seconds S --trace 0|1
//!               [--root DIR] [--out DIR]
//! ```
//!
//! Set-up is timed in cold child processes of this binary (see
//! [`cold_setup_s`]). Then *library passes* run for `--seconds`: each
//! calls the library's figure/campaign functions once and times each
//! call. Passes are identical deterministic work and host noise only ever
//! adds time, so the workload's wall time is each call's fastest time,
//! summed.
//!
//! With `--trace 1`, a *re-derived* pass follows each library pass: it
//! drives the same public scenario constructors itself, with a span around
//! each layer call, and must reproduce the library pass's tables. Its
//! spans and counters give the per-layer metrics; the fastest one is
//! written as Chrome Trace Event JSON to `--out`. The `paper` figure
//! functions report no event count, so a `--trace 0` run on `paper` makes
//! one untimed re-derived pass after the timed ones to count the events.
//!
//! Every table of every pass is checked (see `check`); the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod check;
mod trace;
mod workloads;

use check::Checker;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use trace::Recorder;
use workloads::{Inputs, Workload, REFERENCE_SEED};

/// Cold set-up processes per run; the median is reported.
const SETUP_PROCESSES: usize = 31;
/// Timed passes a run makes even when one pass outlasts `--seconds`.
const MIN_PASSES: u32 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    out: PathBuf,
    /// Set by [`cold_setup_s`] in its children: the wall clock (ns since
    /// the Unix epoch) just before the child was started.
    spawned_at: Option<u128>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut root = PathBuf::from(".");
    let mut out = PathBuf::from(".bench_build/perfbench");
    let mut spawned_at = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--root" => root = PathBuf::from(value()?),
            "--out" => out = PathBuf::from(value()?),
            "--spawned-at" => {
                spawned_at = Some(value()?.parse().map_err(|e| format!("--spawned-at: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        root,
        out,
        spawned_at,
    })
}

/// Everything before the first pass: arguments, seed → inputs (the
/// `Opts` or campaign spec the library receives), and the references.
fn setup(argv: &[String]) -> Result<(Args, Inputs, Vec<Option<String>>), String> {
    let args = parse_args(argv)?;
    let inputs = Inputs::new(args.workload, args.seed);
    let references = args
        .workload
        .references()
        .iter()
        .map(|rel| {
            if args.seed != REFERENCE_SEED {
                return Ok(None);
            }
            let path = args.root.join(rel);
            std::fs::read_to_string(&path)
                .map(Some)
                .map_err(|e| format!("cannot read reference {}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((args, inputs, references))
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Set-up time of a cold process: the median over [`SETUP_PROCESSES`]
/// children of this binary, each started with this run's arguments plus
/// `--spawned-at`. A child sets up and prints the seconds from just before
/// its start to where its first pass would begin, so process creation,
/// loading and first-touch costs count; it then exits.
fn cold_setup_s(argv: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROCESSES);
    for _ in 0..SETUP_PROCESSES {
        let child = Command::new(&exe)
            .args(argv)
            .arg("--spawned-at")
            .arg(unix_ns().to_string())
            .output()
            .map_err(|e| format!("cannot start a set-up process: {e}"))?;
        let s: f64 = String::from_utf8_lossy(&child.stdout)
            .trim()
            .parse()
            .map_err(|_| {
                format!(
                    "set-up process failed: {}",
                    String::from_utf8_lossy(&child.stderr).trim()
                )
            })?;
        samples.push(s);
    }
    Ok(median(&samples))
}

/// Runs `f`, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into())
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Identifies this build of the benchmark, so the counter ledger only
/// compares runs of one binary.
fn build_identity() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{} {mtime}", m.len())
        })
        .unwrap_or_else(|_| "unknown".into())
}

/// The timed library passes of one run: the wall seconds of each library
/// call of each pass.
#[derive(Default)]
struct Passes {
    units: Vec<Vec<f64>>,
}

impl Passes {
    fn totals(&self) -> Vec<f64> {
        self.units.iter().map(|u| u.iter().sum()).collect()
    }

    /// The workload's wall time: each library call's fastest time across
    /// passes, summed. Passes are identical deterministic work and host
    /// noise only ever adds time, so the fastest reading is the truest.
    fn fastest(&self) -> f64 {
        let n = self.units.first().map_or(0, Vec::len);
        if n == 0 || self.units.iter().any(|u| u.len() != n) {
            return f64::NAN;
        }
        (0..n)
            .map(|i| {
                self.units
                    .iter()
                    .map(|u| u[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    /// Median pass over fastest pass, minus one: the noise between whole
    /// passes of this run.
    fn spread(&self) -> f64 {
        median(&self.totals()) / min(&self.totals()) - 1.0
    }
}

/// One re-derived pass, checked against the run's first pass.
fn derived(
    inputs: &Inputs,
    rec: &mut Recorder,
    checker: &mut Checker,
) -> Option<workloads::Derived> {
    match guarded(|| workloads::derived_pass(inputs, rec)) {
        Ok(d) => {
            checker.pass("re-derived pass", Ok(&d.tables));
            checker.counts("derived", &d.counts);
            if inputs.workload == Workload::Fleet && rec.enabled() {
                checker.attempted += 1;
                if let Some(e) = &d.probe_error {
                    checker.failed += 1;
                    checker.notes.push(e.clone());
                }
            }
            Some(d)
        }
        Err(msg) => {
            checker.pass("re-derived pass", Err(&msg));
            None
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("irs-perfbench: {msg}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, inputs, references) = setup(&argv).unwrap_or_else(|e| fail(&e));
    if let Some(t0) = args.spawned_at {
        println!("{}", unix_ns().saturating_sub(t0) as f64 / 1e9);
        return;
    }
    let setup_s = if args.trace {
        f64::NAN
    } else {
        cold_setup_s(&argv).unwrap_or_else(|e| fail(&e))
    };
    // `jobs: 0` call sites (the fleet's FleetConfig) resolve to one worker.
    irs_core::parallel::set_default_jobs(1);
    let mut checker = Checker::new(references);

    let budget = Duration::from_secs_f64(args.seconds);
    let mut passes = Passes::default();
    let mut events = None;
    let mut traced_walls = Vec::new();
    let mut fastest_traced: Option<(workloads::Derived, Recorder)> = None;
    let start = Instant::now();
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        match guarded(|| workloads::library_pass(&inputs)) {
            Ok(l) => {
                checker.pass("library pass", Ok(&l.tables));
                checker.counts("library", &l.counts);
                events = l.events.or(events);
                passes.units.push(l.unit_walls);
            }
            Err(msg) => checker.pass("library pass", Err(&msg)),
        }
        if args.trace {
            let mut rec = Recorder::new(true);
            if let Some(d) = derived(&inputs, &mut rec, &mut checker) {
                traced_walls.push(d.pass_s);
                if fastest_traced
                    .as_ref()
                    .is_none_or(|(f, _)| d.pass_s < f.pass_s)
                {
                    fastest_traced = Some((d, rec));
                }
            }
        }
        // Stop before a round that would end past the budget.
        let elapsed = start.elapsed();
        if rounds >= MIN_PASSES && elapsed + elapsed / rounds > budget {
            break;
        }
    }
    let derived_events = match &fastest_traced {
        Some((d, _)) => Some(d.events),
        None if events.is_none() => {
            derived(&inputs, &mut Recorder::new(false), &mut checker).map(|d| d.events)
        }
        None => None,
    };
    if let (Some(lib), Some(d)) = (events, derived_events) {
        if lib != d {
            checker
                .unstable
                .push(format!("library events {lib} != re-derived events {d}"));
        }
    }
    let events = events.or(derived_events).unwrap_or(0) as f64;
    let ledger = args.out.join(format!(
        "counts-{}-seed{}.txt",
        args.workload.name(),
        args.seed
    ));
    checker.ledger(&ledger, &build_identity());
    checker.finish_counts();
    let self_test = checker.self_test();

    let fastest = passes.fastest();
    eprintln!(
        "irs-perfbench {} seed {}: {} timed passes, wall {:.4} s (sum of fastest calls), \
         pass fastest {:.4} s, median {:.4} s (median/fastest - 1 = {:.2}%), \
         {} logical events per pass, cold set-up median {:.6} s",
        args.workload.name(),
        args.seed,
        passes.units.len(),
        fastest,
        min(&passes.totals()),
        median(&passes.totals()),
        100.0 * passes.spread(),
        events,
        setup_s,
    );
    for n in checker.notes.iter().chain(&checker.unstable) {
        eprintln!("irs-perfbench: {n}");
    }
    eprintln!(
        "irs-perfbench: self-test (perturbed tables counted as failed): {}",
        if self_test { "ok" } else { "NOT DETECTED" }
    );

    let metrics: Vec<(String, f64, &str)> = if !args.trace {
        vec![
            ("wall_s".into(), fastest, "s"),
            ("events_per_s".into(), events / fastest, "1/s"),
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ]
    } else {
        let mut layers = fastest_traced
            .as_ref()
            .map(|f| f.0.layers.clone())
            .unwrap_or_default();
        // Both are whole passes of the same simulated work: the fastest
        // traced re-derived pass against the fastest untraced library pass.
        layers.insert(
            "trace.overhead_frac",
            min(&traced_walls) / min(&passes.totals()) - 1.0,
        );
        layers.insert("bench.passes", passes.units.len() as f64);
        layers.insert("bench.pass_spread", passes.spread());
        if let Some((_, rec)) = &fastest_traced {
            write_trace(&args, rec);
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    layers.get(name).copied().unwrap_or(0.0),
                    *unit,
                )
            })
            .collect()
    };
    let correct = checker.failed == 0 && self_test;
    println!(
        "{}",
        result_json(correct, checker.attempted, checker.failed, &metrics)
    );
}

fn write_trace(args: &Args, rec: &Recorder) {
    let path = args.out.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|_| std::fs::write(&path, rec.to_chrome_json()));
    match written {
        Ok(()) => eprintln!(
            "irs-perfbench: trace ({} spans) written to {}",
            rec.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("irs-perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Every per-layer metric the traced run reports, with its unit (must
/// match `per_layer` in BENCHMARK.json).
const PER_LAYER: &[(&str, &str)] = &[
    ("system.step_count", "count"),
    ("system.step_ns", "ns"),
    ("system.run_s", "s"),
    ("system.virtual_s", "s"),
    ("system.events_per_virtual_s", "1/s"),
    ("scenario.build_s", "s"),
    ("scenario.count", "count"),
    ("system.boot_s", "s"),
    ("system.boot_count", "count"),
    ("xen.schedules", "count"),
    ("xen.preemptions", "count"),
    ("xen.wakes", "count"),
    ("xen.boosts", "count"),
    ("xen.vcpu_migrations", "count"),
    ("xen.ple_exits", "count"),
    ("xen.co_parks", "count"),
    ("xen.sa_sent", "count"),
    ("xen.sa_ack_ratio", "ratio"),
    ("xen.sa_timeouts", "count"),
    ("guest.context_switches", "count"),
    ("guest.wakeups", "count"),
    ("guest.migrations", "count"),
    ("guest.sa_upcalls", "count"),
    ("guest.idle_blocks", "count"),
    ("workloads.requests", "count"),
    ("workloads.requests_truncated", "count"),
    ("workloads.lhp", "count"),
    ("workloads.lwp", "count"),
    ("workloads.steal_frac", "ratio"),
    ("snapshot.take_ns", "ns"),
    ("snapshot.resume_ns", "ns"),
    ("snapshot.bytes", "bytes"),
    ("cache.result_hits", "count"),
    ("cache.snapshot_hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.resident_mb", "MB"),
    ("runner.fork_warmup_saved", "count"),
    ("fleet.campaign_s", "s"),
    ("fleet.host_runs", "count"),
    ("fleet.runs_elided", "count"),
    ("fleet.hosts_carried", "count"),
    ("fleet.events_executed", "count"),
    ("fleet.elision_ratio", "ratio"),
    ("fleet.tenants_placed", "count"),
    ("fleet.tenants_rejected", "count"),
    ("metrics.aggregate_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("bench.passes", "count"),
    ("bench.pass_spread", "ratio"),
];

/// The result line. Non-finite values (nothing to divide by) print as 0.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // `+ 0.0` turns an empty sum's -0 into 0.
            let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer section")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                per_layer.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn result_line_has_the_four_keys_and_no_nan() {
        let line = result_json(
            true,
            3,
            0,
            &[("a".into(), f64::NAN, "s"), ("b".into(), -0.0, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload fleet --seed 7 --seconds 30 --trace 1")).expect("valid");
        assert_eq!((a.workload, a.seed, a.trace), (Workload::Fleet, 7, true));
        assert_eq!(a.spawned_at, None);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper --seed -1 --seconds 1 --trace 0",
            "--workload paper --seed 1 --seconds 0 --trace 0",
            "--workload paper --seed 1 --seconds 1 --trace 2",
            "--workload paper --seconds 1 --trace 0",
            "--workload paper --seed 1 --seconds 1 --trace 0 --spawned-at x",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn fastest_sums_each_call_fastest_time() {
        let p = Passes {
            units: vec![vec![2.0, 1.0], vec![1.5, 1.2], vec![3.0, 0.9]],
        };
        assert_eq!(p.fastest(), 1.5 + 0.9);
        assert_eq!(p.totals(), vec![3.0, 2.7, 3.9]);
        assert!((p.spread() - (3.0 / 2.7 - 1.0)).abs() < 1e-12);
    }
}
