//! `figures perf` — self-benchmark and regression gate of the simulation
//! engine.
//!
//! Runs a fixed mix of scenarios three times over the same grid:
//!
//! 1. **ticked sequential** — `jobs = 1`: the baseline cost of
//!    dispatching every event;
//! 2. **parallel** — `opts.jobs` workers on the persistent pool: the
//!    configuration `figures --jobs N` runs;
//! 3. **forked** — parallel again, but the grid's repeated cells share
//!    one warmup each: every distinct `(scenario, seed)` runs to a fixed
//!    virtual time once, is snapshotted, and the repeats resume from the
//!    [`irs_core::Snapshot`] instead of re-simulating the prefix.
//!
//! The engine is deterministic and snapshot forking is bit-exact, so all
//! three passes must produce bit-identical results — the harness asserts
//! it (`Debug` rendering, which is shortest-roundtrip for every float)
//! before reporting. The headline `speedup` is sequential over parallel:
//! what the worker pool buys, which is also what the `--check-perf`
//! regression gate holds at ≥ [`SPEEDUP_FLOOR`] (single-core CI boxes
//! cannot promise thread-level scaling — the true ratio there sits at
//! ~1.0 — but the pool must never make the engine *materially slower*
//! than the sequential baseline).
//!
//! An untimed warm-up pass runs first and doubles as a probe: the mix is
//! repeated enough times that each timed pass lasts at least
//! [`MIN_TIMED_WALL_S`] and the grid holds at least [`MIN_GRID_RUNS`]
//! runs. Without the scaling, a release-mode mix finishes in ~10 ms and
//! the parallel pass mostly measures pool startup — which is how an
//! earlier report shipped a "speedup" of 0.76x. Each phase is then timed
//! as the **best of [`MEASURE_PASSES`] shorter passes** (minimum wall —
//! the classic defence against one-sided scheduling noise: interference
//! only ever adds time, so the minimum is the least-contaminated
//! reading). A single long pass is at the mercy of whatever the CI box's
//! neighbours were doing during that one window, which is how the gate
//! used to fail on commits that touched no engine code at all.
//!
//! The report serializes to `BENCH_runner.json` (per-phase walls,
//! speedups, `fork_warmup_saved`);
//! `scripts/verify.sh` fills in the trailing `verify_wall_s` field.
//! `figures perf` also appends one line per invocation to
//! `BENCH_history.jsonl` for trend tracking.

use crate::Opts;
use irs_core::{parallel, Scenario, Snapshot, Strategy, System, SystemConfig};
use irs_sim::{EventQueue, SimTime};
use std::time::Instant;

/// Wall-clock and throughput numbers from one [`perf`] run.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Independent simulation runs in the timed grid.
    pub runs: usize,
    /// Discrete events processed across the grid (identical in every
    /// pass: a forked branch's count includes its shared warmup prefix).
    pub events: u64,
    /// Wall-clock of the ticked sequential pass, seconds.
    pub ticked_wall_s: f64,
    /// Wall-clock of the parallel pass, seconds.
    pub parallel_wall_s: f64,
    /// Wall-clock of the forked pass (parallel with per-cell shared
    /// warmups), seconds. Excludes the warmup/snapshot prologue — that is
    /// the cost the sharing pays once, not per branch.
    pub forked_wall_s: f64,
    /// Worker count the parallel and forked passes ran with.
    pub parallel_jobs: usize,
    /// Events the forked pass avoided re-executing: per distinct cell,
    /// warmup events × (repeats − 1). Zero when the grid has no repeats
    /// (nothing to share).
    pub fork_warmup_saved: u64,
    /// Event-queue micro-benchmark: schedule/cancel/pop operations per
    /// second under a churn pattern that keeps the slab and tombstone
    /// machinery hot.
    pub queue_ops_per_sec: f64,
}

impl PerfReport {
    /// Ticked sequential throughput in simulation events per second.
    pub fn ticked_events_per_sec(&self) -> f64 {
        self.events as f64 / self.ticked_wall_s.max(1e-9)
    }

    /// Parallel throughput in simulation events per second.
    pub fn parallel_events_per_sec(&self) -> f64 {
        self.events as f64 / self.parallel_wall_s.max(1e-9)
    }

    /// The headline: ticked sequential over parallel wall-clock — what
    /// the worker pool buys, and what `--check-perf` gates on.
    pub fn speedup(&self) -> f64 {
        self.ticked_wall_s / self.parallel_wall_s.max(1e-9)
    }

    /// What warmup sharing buys on top of the parallel configuration:
    /// parallel over forked wall-clock.
    pub fn forked_speedup(&self) -> f64 {
        self.parallel_wall_s / self.forked_wall_s.max(1e-9)
    }

    /// Forked-pass throughput in simulation events per second. `events`
    /// counts the full grid (what the pass *delivers*), so sharing the
    /// warmup prefix shows up here as throughput above the parallel pass.
    pub fn forked_events_per_sec(&self) -> f64 {
        self.events as f64 / self.forked_wall_s.max(1e-9)
    }

    /// The `BENCH_runner.json` payload. `verify_wall_s` is emitted null;
    /// `scripts/verify.sh` substitutes the measured value.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"runs\": {},\n  \"events\": {},\n  \"ticked_wall_s\": {:.6},\n  \
             \"parallel_wall_s\": {:.6},\n  \
             \"forked_wall_s\": {:.6},\n  \"parallel_jobs\": {},\n  \"speedup\": {:.3},\n  \
             \"forked_speedup\": {:.3},\n  \
             \"fork_warmup_saved\": {},\n  \
             \"ticked_events_per_sec\": {:.0},\n  \"parallel_events_per_sec\": {:.0},\n  \
             \"forked_events_per_sec\": {:.0},\n  \
             \"queue_ops_per_sec\": {:.0},\n  \"verify_wall_s\": null\n}}\n",
            self.runs,
            self.events,
            self.ticked_wall_s,
            self.parallel_wall_s,
            self.forked_wall_s,
            self.parallel_jobs,
            self.speedup(),
            self.forked_speedup(),
            self.fork_warmup_saved,
            self.ticked_events_per_sec(),
            self.parallel_events_per_sec(),
            self.forked_events_per_sec(),
            self.queue_ops_per_sec,
        )
    }

    /// The `BENCH_history.jsonl` records for one invocation: one line per
    /// measured phase, each self-describing via `phase` / `jobs` / `cores`
    /// / `timestamp`; `--check-perf` ratchets each phase against matching
    /// records only.
    /// `cores` is the recording host's core count ([`host_cores`]): a
    /// throughput measured on a multi-core box must never become the
    /// ratchet baseline for a 1-core container, or vice versa.
    pub fn to_history_lines(&self, commit: &str, timestamp: u64, cores: usize) -> String {
        let head = |phase: &str, jobs: usize| {
            format!(
                "{{\"commit\": \"{commit}\", \"timestamp\": {timestamp}, \
                 \"phase\": \"{phase}\", \"jobs\": {jobs}, \"cores\": {cores}"
            )
        };
        format!(
            "{}, \"events_per_sec\": {:.0}}}\n\
             {}, \"events_per_sec\": {:.0}, \"speedup\": {:.3}}}\n\
             {}, \"events_per_sec\": {:.0}, \"fork_warmup_saved\": {}}}\n\
             {}, \"ops_per_sec\": {:.0}}}\n",
            head("ticked", 1),
            self.ticked_events_per_sec(),
            head("parallel", self.parallel_jobs),
            self.parallel_events_per_sec(),
            self.speedup(),
            head("forked", self.parallel_jobs),
            self.forked_events_per_sec(),
            self.fork_warmup_saved,
            head("queue", 1),
            self.queue_ops_per_sec,
        )
    }

    /// The `--check-perf` regression gate. Returns one message per
    /// violated check; empty means the gate passes. `history` is the raw
    /// `BENCH_history.jsonl` content (pre-append), used to *ratchet*: each
    /// phase's current throughput must stay above [`RATCHET_FRAC`] of the
    /// best history record with the **matching configuration** (same
    /// phase, worker count, and host core count, and every event
    /// dispatched — see [`dispatched_every_event`]) — records from other
    /// configurations, legacy lines without a `phase` or `cores` field,
    /// and records whose `jobs` / `cores` / metric fields are malformed (a
    /// quoted count, a non-numeric value, a truncated line from an
    /// interrupted append) are ignored rather than matched by accident: a
    /// corrupt record must never be able to fail — or pass — the gate. The
    /// loose fraction absorbs the ±30% wall-clock noise of shared CI boxes
    /// while still catching structural regressions (a heap-class queue
    /// would land at ~15% of the wheel's ops/s).
    pub fn check_perf(&self, history: &str) -> Vec<String> {
        self.check_perf_at(history, host_cores())
    }

    /// [`check_perf`](Self::check_perf) against an explicit host core
    /// count (the testable entry point; production use passes
    /// [`host_cores`]).
    pub fn check_perf_at(&self, history: &str, cores: usize) -> Vec<String> {
        let mut failures = Vec::new();
        if self.speedup() < SPEEDUP_FLOOR {
            failures.push(format!(
                "speedup {:.3} < {SPEEDUP_FLOOR} ({} workers must not run materially \
                 slower than the ticked sequential baseline)",
                self.speedup(),
                self.parallel_jobs,
            ));
        }
        if self.queue_ops_per_sec < QUEUE_OPS_FLOOR {
            failures.push(format!(
                "queue_ops_per_sec {:.0} below the {:.0} floor (timer-wheel \
                 schedule/cancel/pop churn must not regress toward heap costs)",
                self.queue_ops_per_sec, QUEUE_OPS_FLOOR,
            ));
        }
        let phases: [(&str, usize, f64, &str); 4] = [
            ("ticked", 1, self.ticked_events_per_sec(), "events_per_sec"),
            (
                "parallel",
                self.parallel_jobs,
                self.parallel_events_per_sec(),
                "events_per_sec",
            ),
            (
                "forked",
                self.parallel_jobs,
                self.forked_events_per_sec(),
                "events_per_sec",
            ),
            ("queue", 1, self.queue_ops_per_sec, "ops_per_sec"),
        ];
        for (phase, jobs, current, metric) in phases {
            let best = history
                .lines()
                .filter(|l| {
                    json_str_field(l, "phase").as_deref() == Some(phase)
                        && dispatched_every_event(l)
                        && json_usize_field(l, "jobs") == Some(jobs)
                        && json_usize_field(l, "cores") == Some(cores)
                })
                .filter_map(|l| {
                    json_raw_field(l, metric)
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|v| v.is_finite() && *v > 0.0)
                })
                .fold(f64::NAN, f64::max);
            if best.is_finite() && current < RATCHET_FRAC * best {
                failures.push(format!(
                    "{phase} phase ratchet: {current:.0} {metric} is below {:.0}% of the \
                     best matching record ({best:.0}; jobs={jobs})",
                    RATCHET_FRAC * 100.0,
                ));
            }
        }
        failures
    }

    /// Human-readable summary (what the `perf` subcommand prints).
    pub fn render(&self) -> String {
        format!(
            "engine self-benchmark ({} runs, {} events)\n\
             \u{20} ticked  seq: {:>8.3} s  ({:.0} events/s)\n\
             \u{20} {:>2} workers: {:>8.3} s  ({:.0} events/s, {:.2}x over sequential)\n\
             \u{20} forked:      {:>8.3} s  ({:.0} events/s, {:.2}x over parallel, \
             {} warmup events shared)\n\
             \u{20} event queue: {:.2}M ops/s (schedule/cancel/pop churn)\n",
            self.runs,
            self.events,
            self.ticked_wall_s,
            self.ticked_events_per_sec(),
            self.parallel_jobs,
            self.parallel_wall_s,
            self.parallel_events_per_sec(),
            self.speedup(),
            self.forked_wall_s,
            self.forked_events_per_sec(),
            self.forked_speedup(),
            self.fork_warmup_saved,
            self.queue_ops_per_sec / 1e6,
        )
    }
}

/// The fixed scenario mix: a spread of cheap and mid-weight benchmarks
/// across strategies, so both guest layers and all three hypervisor
/// schedulers appear in the profile.
const MIX: [(&str, usize, Strategy); 6] = [
    ("EP", 1, Strategy::Vanilla),
    ("EP", 2, Strategy::Irs),
    ("blackscholes", 1, Strategy::Ple),
    ("streamcluster", 1, Strategy::Irs),
    ("LU", 1, Strategy::RelaxedCo),
    ("swaptions", 2, Strategy::Irs),
];

/// Minimum wall-clock of each timed pass. Pool wake-up costs microseconds
/// per campaign, but a pass must still dwarf scheduling noise or
/// "speedup" measures jitter, not the engine. Shorter than the old single
/// 0.5 s pass because each phase now takes the best of
/// [`MEASURE_PASSES`]: three 0.25 s windows reject one-sided interference
/// far better than one 0.5 s window that a noisy neighbour can poison
/// end to end.
const MIN_TIMED_WALL_S: f64 = 0.25;

/// Timed passes per phase; the minimum wall (maximum throughput) is
/// reported. Interference is one-sided — it only ever slows a pass — so
/// min-of-N converges on the engine's true cost as N grows; 3 is enough
/// to drop the gate's false-failure rate on shared boxes to noise.
const MEASURE_PASSES: usize = 3;

/// Minimum grid size: the regression gate is specified over a grid of at
/// least this many runs, so short machines scale up by repetition.
const MIN_GRID_RUNS: usize = 200;

/// Absolute floor on the queue micro-benchmark, in ops per second. The
/// timer wheel measures 35–60M ops/s on the reference box and the old
/// binary heap ~5–6M, so 20M splits the two populations with margin for
/// machine noise on both sides: a wheel on a slow box stays above it, a
/// heap regression on a fast box stays below it.
const QUEUE_OPS_FLOOR: f64 = 20.0e6;

/// Ratchet tolerance: a phase fails when its current throughput drops
/// below this fraction of the best matching history record.
const RATCHET_FRAC: f64 = 0.5;

/// Floor on the sequential-over-parallel speedup. On a 1-core CI box
/// the pool has no second core to use, so the *true* ratio sits at ~1.0
/// and a hard `>= 1.0` gate is a coin flip — the main historical source
/// of `--check-perf` false failures. The band absorbs that measurement
/// noise (same idiom as the chaos campaign's 1.15 degradation margin)
/// while still catching structural regressions, which land far below
/// it: a serialized or thrashing pool halves throughput, it doesn't
/// shave 10%. The per-phase history ratchet and the queue floor remain
/// the precise instruments.
const SPEEDUP_FLOOR: f64 = 0.85;

/// The recording host's core count, stamped into every history record
/// and required to match during ratcheting: 1-core CI containers and
/// multi-core dev boxes measure incomparable throughputs, and mixing
/// them made the ratchet either toothless (1-core best) or a guaranteed
/// failure (multi-core best).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Extract the raw (unquoted) value of a top-level `"key": value` pair
/// from a single-line JSON object. Good enough for the flat records this
/// module writes; not a general JSON parser. Matches are anchored: the
/// quoted key must sit where a key can sit (line start, or after `{` or
/// `,`), so a string *value* that happens to contain `"jobs":` cannot
/// alias the `jobs` field.
pub(crate) fn json_raw_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let mut from = 0;
    while let Some(off) = line[from..].find(&pat) {
        let idx = from + off;
        if idx == 0 || line[..idx].trim_end().ends_with(['{', ',']) {
            let rest = line[idx + pat.len()..].trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            return Some(rest[..end].trim().to_string());
        }
        from = idx + pat.len();
    }
    None
}

/// Like [`json_raw_field`] but strips one layer of surrounding quotes.
pub(crate) fn json_str_field(line: &str, key: &str) -> Option<String> {
    let raw = json_raw_field(line, key)?;
    Some(raw.trim_matches('"').to_string())
}

/// True when a history record measured the engine as it runs today,
/// dispatching every event: its `tickless` field is absent (current
/// records) or the bare literal `false`. Older records taken with event
/// elision on (`"tickless": true`) measured a different engine, and a
/// malformed flag (a quoted `"true"`, a `1`, a truncated token) is
/// skipped rather than guessed at, so neither can set a ratchet baseline.
pub(crate) fn dispatched_every_event(line: &str) -> bool {
    matches!(
        json_raw_field(line, "tickless").as_deref(),
        None | Some("false")
    )
}

/// Strictly-parsed JSON unsigned integer: bare ASCII digits only. Rejects
/// quoted numbers, signs, floats, and empty tokens.
pub(crate) fn json_usize_field(line: &str, key: &str) -> Option<usize> {
    let raw = json_raw_field(line, key)?;
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    raw.parse().ok()
}

/// Runs `f` [`MEASURE_PASSES`] times and returns the first pass's result
/// with the **minimum** wall-clock across passes. The engine is
/// deterministic, so every pass returns the same value; interference is
/// one-sided, so the minimum wall is the cleanest reading.
fn best_of<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = None;
    let mut best = f64::INFINITY;
    for _ in 0..MEASURE_PASSES {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        if out.is_none() {
            out = Some(r);
        }
    }
    (out.expect("MEASURE_PASSES >= 1"), best)
}

/// Virtual-time warmup depth for the forked pass: far enough that the
/// shared prefix holds real scheduling history (SA round trips, credit
/// refills), well short of any run's completion.
const FORK_WARMUP: SimTime = SimTime::from_millis(50);

/// Times the grid in all three configurations and returns the combined
/// report. `opts.seeds` seeds per mix entry; the whole mix is then
/// repeated (identically — the engine is deterministic) until a timed
/// pass is expected to take at least [`MIN_TIMED_WALL_S`] and the grid
/// holds at least [`MIN_GRID_RUNS`] runs. The repetition is what the
/// forked phase exploits: `runs / base_runs` branches per distinct cell
/// share one warmup each.
pub fn perf(opts: Opts) -> PerfReport {
    // Best-of-N for the micro-benchmark too: its loop already runs to a
    // minimum wall, so take the fastest of the repeated windows.
    let queue_ops = (0..MEASURE_PASSES).map(|_| queue_ops_per_sec()).fold(0.0, f64::max);
    let per = opts.seeds.max(1) as usize;
    let base_runs = MIX.len() * per;
    let cell = |i: usize| {
        let i = i % base_runs;
        let (bench, n_inter, strategy) = MIX[i / per];
        let seed = opts.base_seed + (i % per) as u64;
        Scenario::fig5_style(bench, n_inter, strategy, seed)
    };
    let job = |i: usize| cell(i).run();

    // Warm-up: faults code and allocator arenas in, and its wall-clock
    // sizes the timed passes.
    let t_probe = Instant::now();
    let _ = parallel::ordered_map(1, base_runs, job);
    let probe_wall_s = t_probe.elapsed().as_secs_f64();
    let repeat_for_wall = (MIN_TIMED_WALL_S / probe_wall_s.max(1e-6)).ceil() as usize;
    let repeat_for_grid = MIN_GRID_RUNS.div_ceil(base_runs);
    let runs = base_runs * repeat_for_wall.max(repeat_for_grid).clamp(1, 4096);

    // Phase 1: ticked sequential.
    let (ticked, ticked_wall_s) = best_of(|| parallel::ordered_map(1, runs, job));
    let events: u64 = ticked.iter().map(|r| r.events).sum();

    // Phase 2: parallel on the persistent pool.
    let parallel_jobs = parallel::resolve_jobs(opts.jobs);
    let (par, parallel_wall_s) = best_of(|| parallel::ordered_map(parallel_jobs, runs, job));

    // Phase 3: forked — each distinct cell runs its warmup prefix once
    // (untimed, like the probe: it is paid once per campaign, not per
    // branch), and every grid slot resumes from its cell's snapshot.
    // `job` maps slot i to cell i % base_runs, so slot-for-slot identity
    // with the other passes is well-defined.
    let snaps: Vec<Snapshot> = parallel::ordered_map(parallel_jobs, base_runs, |i| {
        let mut sys = System::with_config(cell(i), SystemConfig::default());
        sys.run_until(FORK_WARMUP);
        sys.snapshot()
    });
    let repeats = (runs / base_runs) as u64;
    let fork_warmup_saved: u64 = snaps
        .iter()
        .map(|s| s.events_processed().saturating_mul(repeats.saturating_sub(1)))
        .sum();
    let (forked, forked_wall_s) = best_of(|| {
        parallel::ordered_map(parallel_jobs, runs, |i| snaps[i % base_runs].resume().run())
    });

    // The determinism contract, asserted over the full result surface:
    // every float, counter, and latency sample must agree across all
    // three configurations.
    assert_eq!(
        format!("{ticked:?}"),
        format!("{par:?}"),
        "parallel pass diverged from sequential"
    );
    assert_eq!(
        format!("{par:?}"),
        format!("{forked:?}"),
        "forked pass diverged from the parallel pass: snapshot fork broke bit-identity"
    );

    PerfReport {
        runs,
        events,
        ticked_wall_s,
        parallel_wall_s,
        forked_wall_s,
        parallel_jobs,
        fork_warmup_saved,
        queue_ops_per_sec: queue_ops,
    }
}

/// Steady-state live population for the queue micro-benchmark: one busy
/// simulated host's worth of armed timers (64 pCPUs × ~8 armed timers
/// each — slice expiries, guest ticks, accounting beats, PLE windows).
const QUEUE_BENCH_POPULATION: usize = 512;

/// Micro-benchmark of [`EventQueue`]: interleaved schedule / cancel / pop
/// shaped like the simulator's own timer churn, measured at 83–88% short
/// periodic timers. Every event is armed
/// *relative to the advancing clock*: 85% are ~1 ms beats (`HvTick`,
/// guest CFS ticks, jittered ±10%), the rest are golden-ratio scattered
/// over 1 µs..34 ms (PLE windows to slice expiries). Each round also arms
/// and immediately cancels a timer (a slice timer dying to an early
/// block) and pops three events forward, holding the live population at
/// [`QUEUE_BENCH_POPULATION`]; the id slab and tombstone reclamation stay
/// on the measured path.
fn queue_ops_per_sec() -> f64 {
    const TARGET_OPS: u64 = 1_000_000;
    fn delta(k: u64) -> u64 {
        let r = k.wrapping_mul(0x9e37_79b9);
        if r % 100 < 85 {
            900_000 + r % 200_000
        } else {
            1_000 + r % 33_554_432
        }
    }
    let mut total_ops = 0u64;
    let t0 = Instant::now();
    // Repeat whole rounds until the wall window is long enough that
    // scheduler jitter on a busy host stops dominating the reading.
    loop {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut k = 0u64;
        let mut now = 0u64;
        let mut ops = 0u64;
        for _ in 0..QUEUE_BENCH_POPULATION {
            k += 1;
            q.schedule(SimTime::from_nanos(now + delta(k)), k);
        }
        while ops < TARGET_OPS {
            for _ in 0..3 {
                k += 1;
                q.schedule(SimTime::from_nanos(now + delta(k)), k);
            }
            let id = q.schedule(SimTime::from_nanos(now + delta(k ^ 7)), k);
            q.cancel(id);
            for _ in 0..3 {
                if let Some((t, _)) = q.pop() {
                    now = t.as_nanos();
                }
            }
            ops += 8;
        }
        while q.pop().is_some() {
            ops += 1;
        }
        total_ops += ops;
        if t0.elapsed().as_secs_f64() >= MIN_TIMED_WALL_S {
            break;
        }
    }
    total_ops as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PerfReport {
        PerfReport {
            runs: 216,
            events: 3456,
            ticked_wall_s: 3.0,
            parallel_wall_s: 1.0,
            forked_wall_s: 0.5,
            parallel_jobs: 4,
            fork_warmup_saved: 2000,
            queue_ops_per_sec: 1e6,
        }
    }

    #[test]
    fn report_round_trips_to_json() {
        let r = report();
        let json = r.to_json();
        assert!(json.contains("\"runs\": 216"));
        assert!(json.contains("\"speedup\": 3.000"));
        assert!(json.contains("\"forked_speedup\": 2.000"));
        assert!(json.contains("\"fork_warmup_saved\": 2000"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"verify_wall_s\": null"));
        // verify.sh substitutes the trailing field; it must stay last.
        assert!(json.trim_end().ends_with("\"verify_wall_s\": null\n}"));
        assert!((r.speedup() - 3.0).abs() < 1e-9);
        assert!((r.forked_speedup() - 2.0).abs() < 1e-9);
        assert!((r.ticked_events_per_sec() - 1152.0).abs() < 1e-6);
    }

    #[test]
    fn history_lines_are_one_json_object_per_phase() {
        let lines = report().to_history_lines("abc1234", 1_700_000_000, 8);
        let parsed: Vec<&str> = lines.lines().collect();
        assert_eq!(parsed.len(), 4, "one record per measured phase");
        for l in &parsed {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert_eq!(json_str_field(l, "commit").as_deref(), Some("abc1234"));
            assert_eq!(json_raw_field(l, "timestamp").as_deref(), Some("1700000000"));
            assert!(json_str_field(l, "phase").is_some());
            assert_eq!(json_usize_field(l, "cores"), Some(8));
            assert!(dispatched_every_event(l));
        }
        // Phase records carry the numbers the ratchet keys on.
        assert!(parsed[0].contains("\"phase\": \"ticked\""));
        assert!(parsed[0].contains("\"jobs\": 1"));
        assert!(parsed[1].contains("\"phase\": \"parallel\""));
        assert!(parsed[1].contains("\"jobs\": 4"));
        assert!(parsed[1].contains("\"speedup\": 3.000"));
        assert!(parsed[2].contains("\"phase\": \"forked\""));
        assert!(parsed[2].contains("\"jobs\": 4"));
        assert!(parsed[2].contains("\"fork_warmup_saved\": 2000"));
        assert!(parsed[3].contains("\"phase\": \"queue\""));
        assert!(parsed[3].contains("\"ops_per_sec\": 1000000"));
    }

    #[test]
    fn check_perf_passes_on_empty_history() {
        let mut r = report();
        r.queue_ops_per_sec = 40.0e6;
        assert!(r.check_perf("").is_empty());
    }

    #[test]
    fn check_perf_enforces_queue_floor_and_speedup() {
        let mut r = report();
        r.queue_ops_per_sec = 1e6; // heap-class number: below the floor
        r.parallel_wall_s = 4.0; // slower than ticked: speedup < 1.0
        let failures = r.check_perf("");
        assert_eq!(failures.len(), 2);
        assert!(failures.iter().any(|f| f.contains("queue_ops_per_sec")));
        assert!(failures.iter().any(|f| f.contains("speedup")));
    }

    #[test]
    fn check_perf_ratchets_against_matching_config_only() {
        let mut r = report();
        r.queue_ops_per_sec = 40.0e6;
        // Best matching parallel record is 10x the current report's
        // throughput -> ratchet fires. A same-phase record with a
        // different job count, one from a host with a different core
        // count, a legacy line without `phase`, and a legacy line
        // without `cores` must all be ignored.
        let history = "\
            {\"commit\": \"old0001\", \"jobs\": 4, \"events_per_sec\": 99999999, \"speedup\": 1.9}\n\
            {\"commit\": \"old0002\", \"timestamp\": 1, \"phase\": \"parallel\", \"jobs\": 8, \"cores\": 4, \"events_per_sec\": 99999999, \"speedup\": 1.9}\n\
            {\"commit\": \"old0004\", \"timestamp\": 1, \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 64, \"events_per_sec\": 99999999, \"speedup\": 1.9}\n\
            {\"commit\": \"old0005\", \"timestamp\": 1, \"phase\": \"parallel\", \"jobs\": 4, \"events_per_sec\": 99999999, \"speedup\": 1.9}\n\
            {\"commit\": \"old0003\", \"timestamp\": 2, \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 34560, \"speedup\": 1.9}\n";
        let failures = r.check_perf_at(history, 4);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("parallel phase ratchet"));
        // Within tolerance of the matching record -> passes.
        let close = "{\"commit\": \"old0003\", \"timestamp\": 2, \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 4000, \"speedup\": 1.9}\n";
        assert!(r.check_perf_at(close, 4).is_empty());
        // The same records never arm the ratchet on a different host.
        assert!(r.check_perf_at(history, 1).is_empty());
    }

    #[test]
    fn check_perf_skips_records_taken_with_event_elision() {
        let mut r = report();
        r.queue_ops_per_sec = 40.0e6;
        // Old records carry the retired flag. `false` ran every event, as
        // the engine does now, so the ticked baseline still arms; `true`
        // measured elided runs, so the parallel one must not.
        let history = "\
            {\"commit\": \"old1\", \"phase\": \"ticked\", \"tickless\": false, \"jobs\": 1, \"cores\": 4, \"events_per_sec\": 99999999}\n\
            {\"commit\": \"old2\", \"phase\": \"parallel\", \"tickless\": true, \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 99999999}\n";
        let failures = r.check_perf_at(history, 4);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("ticked phase ratchet"));
    }

    #[test]
    fn check_perf_ignores_malformed_records() {
        let mut r = report();
        r.queue_ops_per_sec = 40.0e6;
        // Each record matches the parallel phase on `phase` but is
        // corrupt in one field. None may arm the ratchet — the gate used
        // to false-fail when a mangled line's huge number slipped in.
        let history = "\
            {\"commit\": \"bad1\", \"phase\": \"parallel\", \"tickless\": \"true\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 99999999}\n\
            {\"commit\": \"bad2\", \"phase\": \"parallel\", \"tickless\": 1, \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 99999999}\n\
            {\"commit\": \"bad3\", \"phase\": \"parallel\", \"jobs\": \"4\", \"cores\": 4, \"events_per_sec\": 99999999}\n\
            {\"commit\": \"bad4\", \"phase\": \"parallel\", \"jobs\": four, \"cores\": 4, \"events_per_sec\": 99999999}\n\
            {\"commit\": \"bad5\", \"phase\": \"parallel\", \"jobs\": -4, \"cores\": 4, \"events_per_sec\": 99999999}\n\
            {\"commit\": \"bad6\", \"phase\": \"parallel\", \"jobs\": 4, \"cores\": \"4\", \"events_per_sec\": 99999999}\n\
            {\"commit\": \"bad7\", \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": NaN}\n\
            {\"commit\": \"bad8\", \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\":\n";
        let failures = r.check_perf_at(history, 4);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn json_fields_are_anchored_and_strict() {
        // A value containing a key-shaped string must not alias the key.
        let line = "{\"commit\": \"x \\\"jobs\\\": 99\", \"jobs\": 4}";
        assert_eq!(json_usize_field(line, "jobs"), Some(4));
        // Substring keys don't alias (`jobs` vs a hypothetical `xjobs`).
        assert_eq!(json_usize_field("{\"xjobs\": 7}", "jobs"), None);
        // Strictness.
        assert_eq!(json_usize_field("{\"jobs\": \"4\"}", "jobs"), None);
        assert_eq!(json_usize_field("{\"jobs\": 4.0}", "jobs"), None);
        assert_eq!(json_usize_field("{\"jobs\": }", "jobs"), None);
    }

    #[test]
    fn queue_microbench_reports_positive_throughput() {
        assert!(queue_ops_per_sec() > 0.0);
    }
}
