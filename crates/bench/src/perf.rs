//! `figures perf` — self-benchmark and regression gate of the simulation
//! engine — and [`PerfRecord`], the one `BENCH_history.jsonl` record
//! format and ratchet that the perf, fleet and serving campaigns share.
//!
//! Runs a fixed mix of scenarios twice over the same grid:
//!
//! 1. **ticked sequential** — `jobs = 1`: the baseline cost of
//!    dispatching every event;
//! 2. **parallel** — one scoped fan-out of `opts.jobs` workers: the
//!    configuration `figures --jobs N` runs.
//!
//! The engine is deterministic, so both passes must produce bit-identical
//! results — the harness asserts it (`Debug` rendering, which is
//! shortest-roundtrip for every float) before reporting. (Snapshot-fork
//! bit-identity on the same mix is pinned by `crates/core/tests/fork.rs`.)
//! The headline `speedup` is sequential over parallel: what the worker
//! threads buy, which is also what the `--check-perf` regression gate
//! holds at ≥ [`SPEEDUP_FLOOR`] (single-core CI boxes cannot promise
//! thread-level scaling — the true ratio there sits at ~1.0 — but the
//! fan-out must never make the engine *materially slower* than the
//! sequential baseline).
//!
//! An untimed warm-up pass runs first and doubles as a probe: the mix is
//! repeated enough times that each timed pass lasts at least
//! [`MIN_TIMED_WALL_S`] and the grid holds at least [`MIN_GRID_RUNS`]
//! runs. Without the scaling, a release-mode mix finishes in ~10 ms and
//! the parallel pass mostly measures thread start-up — which is how an
//! earlier report shipped a "speedup" of 0.76x. Each phase is then timed
//! as the **best of [`MEASURE_PASSES`] shorter passes** (minimum wall —
//! the classic defence against one-sided scheduling noise: interference
//! only ever adds time, so the minimum is the least-contaminated
//! reading). A single long pass is at the mercy of whatever the CI box's
//! neighbours were doing during that one window, which is how the gate
//! used to fail on commits that touched no engine code at all.
//!
//! The report serializes to `BENCH_runner.json` (per-phase walls,
//! speedup, events/sec, queue ops/sec); `scripts/verify.sh` fills in the
//! trailing `verify_wall_s` field. [`PerfReport::records`] — one per
//! phase: `ticked`, `parallel`, `queue` — go to `BENCH_history.jsonl`
//! for trend tracking, and [`PerfReport::floor_failures`] holds the
//! report's absolute floors.

use crate::Opts;
use irs_core::{parallel, Scenario, Strategy};
use irs_sim::{EventQueue, SimTime};
use std::time::Instant;

/// Wall-clock and throughput numbers from one [`perf`] run.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Independent simulation runs in the timed grid.
    pub runs: usize,
    /// Discrete events processed across the grid (identical in every
    /// pass).
    pub events: u64,
    /// Wall-clock of the ticked sequential pass, seconds.
    pub ticked_wall_s: f64,
    /// Wall-clock of the parallel pass, seconds.
    pub parallel_wall_s: f64,
    /// Worker count the parallel pass ran with.
    pub parallel_jobs: usize,
    /// Event-queue micro-benchmark: schedule/pop operations per second
    /// under the simulator's own timer churn.
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
    /// the worker threads buy, and what `--check-perf` gates on.
    pub fn speedup(&self) -> f64 {
        self.ticked_wall_s / self.parallel_wall_s.max(1e-9)
    }

    /// The `BENCH_runner.json` payload. `verify_wall_s` is emitted null;
    /// `scripts/verify.sh` substitutes the measured value.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"runs\": {},\n  \"events\": {},\n  \"ticked_wall_s\": {:.6},\n  \
             \"parallel_wall_s\": {:.6},\n  \"parallel_jobs\": {},\n  \"speedup\": {:.3},\n  \
             \"ticked_events_per_sec\": {:.0},\n  \"parallel_events_per_sec\": {:.0},\n  \
             \"queue_ops_per_sec\": {:.0},\n  \"verify_wall_s\": null\n}}\n",
            self.runs,
            self.events,
            self.ticked_wall_s,
            self.parallel_wall_s,
            self.parallel_jobs,
            self.speedup(),
            self.ticked_events_per_sec(),
            self.parallel_events_per_sec(),
            self.queue_ops_per_sec,
        )
    }

    /// The `BENCH_history.jsonl` records for one invocation, one per
    /// measured phase: `ticked` and `queue` at one worker, `parallel` at
    /// [`parallel_jobs`](Self::parallel_jobs).
    pub fn records(&self) -> Vec<PerfRecord> {
        let record = |phase, jobs, fields, ratchet_on| PerfRecord {
            phase,
            jobs,
            hosts: None,
            fields,
            ratchet_on,
        };
        vec![
            record(
                "ticked",
                1,
                vec![("events_per_sec", self.ticked_events_per_sec(), 0)],
                "events_per_sec",
            ),
            record(
                "parallel",
                self.parallel_jobs,
                vec![
                    ("events_per_sec", self.parallel_events_per_sec(), 0),
                    ("speedup", self.speedup(), 3),
                ],
                "events_per_sec",
            ),
            record(
                "queue",
                1,
                vec![("ops_per_sec", self.queue_ops_per_sec, 0)],
                "ops_per_sec",
            ),
        ]
    }

    /// The report's absolute `--check-perf` floors, independent of
    /// history: the speedup stays at or above [`SPEEDUP_FLOOR`] and the
    /// queue micro-benchmark at or above [`QUEUE_OPS_FLOOR`]. Returns one
    /// message per violated floor; empty means both hold.
    pub fn floor_failures(&self) -> Vec<String> {
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
                 schedule/pop churn must not regress toward heap costs)",
                self.queue_ops_per_sec, QUEUE_OPS_FLOOR,
            ));
        }
        failures
    }

    /// Human-readable summary (what the `perf` subcommand prints).
    pub fn render(&self) -> String {
        format!(
            "engine self-benchmark ({} runs, {} events)\n\
             \u{20} ticked  seq: {:>8.3} s  ({:.0} events/s)\n\
             \u{20} {:>2} workers: {:>8.3} s  ({:.0} events/s, {:.2}x over sequential)\n\
             \u{20} event queue: {:.2}M ops/s (schedule/pop churn)\n",
            self.runs,
            self.events,
            self.ticked_wall_s,
            self.ticked_events_per_sec(),
            self.parallel_jobs,
            self.parallel_wall_s,
            self.parallel_events_per_sec(),
            self.speedup(),
            self.queue_ops_per_sec / 1e6,
        )
    }
}

/// One `BENCH_history.jsonl` record: a measured phase of some campaign,
/// with the configuration it ran under and its metrics. Every writer of
/// the trend log goes through [`to_line`](Self::to_line), and every
/// `--check-perf` ratchet through [`ratchet`](Self::ratchet).
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Phase name (`ticked`, `fleet-smoke`, `serving`, …); records only
    /// ratchet against history lines of the same phase.
    pub phase: &'static str,
    /// Worker count the phase ran with.
    pub jobs: usize,
    /// Fleet size, for campaigns whose throughput depends on it. `None`
    /// writes no `hosts` field and matches history lines of any size.
    pub hosts: Option<usize>,
    /// Metric fields in line order: key, value, and the decimal places
    /// written (counts go through `f64`, exact below 2^53).
    pub fields: Vec<(&'static str, f64, usize)>,
    /// The key of the field [`ratchet`](Self::ratchet) compares; must name
    /// one of [`fields`](Self::fields).
    pub ratchet_on: &'static str,
}

impl PerfRecord {
    /// The record as one flat JSON line (with its trailing newline),
    /// stamped with the commit, unix time, and the recording host's core
    /// count ([`host_cores`]): a throughput measured on a multi-core box
    /// must never become the ratchet baseline for a 1-core container, or
    /// vice versa.
    pub fn to_line(&self, commit: &str, timestamp: u64, cores: usize) -> String {
        let mut line = format!(
            "{{\"commit\": \"{commit}\", \"timestamp\": {timestamp}, \"phase\": \"{}\", \
             \"jobs\": {}, \"cores\": {cores}",
            self.phase, self.jobs,
        );
        if let Some(hosts) = self.hosts {
            line += &format!(", \"hosts\": {hosts}");
        }
        for &(key, value, decimals) in &self.fields {
            line += &format!(", \"{key}\": {value:.decimals$}");
        }
        line + "}\n"
    }

    /// The `--check-perf` ratchet: `Some(message)` when the ratcheted
    /// metric is below [`RATCHET_FRAC`] of the best history record with
    /// the **matching configuration** — same phase, worker count, and
    /// host core count; the same `hosts` when this record carries one (a
    /// line without `hosts` predates fleet sizes and still matches); and
    /// every event dispatched (see [`dispatched_every_event`]). Legacy
    /// lines without a `phase` or `cores` field, and lines whose `jobs` /
    /// `cores` / metric fields are malformed (a quoted count, a
    /// non-numeric value, a truncated line from an interrupted append),
    /// are ignored rather than matched by accident: a corrupt record must
    /// never be able to fail — or pass — the gate. `history` is the raw
    /// trend log as it stood before this invocation appended to it.
    ///
    /// # Panics
    ///
    /// Panics if [`ratchet_on`](Self::ratchet_on) names no field.
    pub fn ratchet(&self, history: &str, cores: usize) -> Option<String> {
        let metric = self.ratchet_on;
        let current = self
            .fields
            .iter()
            .find(|(key, ..)| *key == metric)
            .map(|&(_, value, _)| value)
            .unwrap_or_else(|| panic!("{} record has no {metric} field", self.phase));
        let best = history
            .lines()
            .filter(|l| {
                json_str_field(l, "phase").as_deref() == Some(self.phase)
                    && dispatched_every_event(l)
                    && json_usize_field(l, "jobs") == Some(self.jobs)
                    && json_usize_field(l, "cores") == Some(cores)
                    && self
                        .hosts
                        .is_none_or(|h| json_usize_field(l, "hosts").is_none_or(|x| x == h))
            })
            .filter_map(|l| {
                json_raw_field(l, metric)
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|v| v.is_finite() && *v > 0.0)
            })
            .fold(f64::NAN, f64::max);
        (best.is_finite() && current < RATCHET_FRAC * best).then(|| {
            format!(
                "{} phase ratchet: {current:.0} {metric} is below {:.0}% of the best \
                 matching record ({best:.0}; jobs={}, cores={cores})",
                self.phase,
                RATCHET_FRAC * 100.0,
                self.jobs,
            )
        })
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

/// Minimum wall-clock of each timed pass. Thread start-up costs tens of
/// microseconds per fan-out, but a pass must still dwarf scheduling noise or
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
/// timer wheel measures 40–53M ops/s on the reference box and the old
/// binary heap ~5–6M, so 20M splits the two populations with margin for
/// machine noise on both sides: a wheel on a slow box stays above it, a
/// heap regression on a fast box stays below it.
const QUEUE_OPS_FLOOR: f64 = 20.0e6;

/// Ratchet tolerance: a record fails when its ratcheted metric drops
/// below this fraction of the best matching history record. The loose
/// fraction absorbs the ±30% wall-clock noise of shared CI boxes while
/// still catching structural regressions (a heap-class queue would land
/// at ~15% of the wheel's ops/s).
const RATCHET_FRAC: f64 = 0.5;

/// Floor on the sequential-over-parallel speedup. On a 1-core CI box
/// the fan-out has no second core to use, so the *true* ratio sits at ~1.0
/// and a hard `>= 1.0` gate is a coin flip — the main historical source
/// of `--check-perf` false failures. The band absorbs that measurement
/// noise (same idiom as the chaos campaign's 1.15 degradation margin)
/// while still catching structural regressions, which land far below
/// it: a serialized or thrashing fan-out halves throughput, it doesn't
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
/// from a single-line JSON object. Good enough for the flat records
/// [`PerfRecord::to_line`] writes; not a general JSON parser. Matches are anchored: the
/// quoted key must sit where a key can sit (line start, or after `{` or
/// `,`), so a string *value* that happens to contain `"jobs":` cannot
/// alias the `jobs` field.
fn json_raw_field(line: &str, key: &str) -> Option<String> {
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
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let raw = json_raw_field(line, key)?;
    Some(raw.trim_matches('"').to_string())
}

/// True when a history record measured the engine as it runs today,
/// dispatching every event: its `tickless` field is absent (current
/// records) or the bare literal `false`. Older records taken with event
/// elision on (`"tickless": true`) measured a different engine, and a
/// malformed flag (a quoted `"true"`, a `1`, a truncated token) is
/// skipped rather than guessed at, so neither can set a ratchet baseline.
fn dispatched_every_event(line: &str) -> bool {
    matches!(
        json_raw_field(line, "tickless").as_deref(),
        None | Some("false")
    )
}

/// Strictly-parsed JSON unsigned integer: bare ASCII digits only. Rejects
/// quoted numbers, signs, floats, and empty tokens.
fn json_usize_field(line: &str, key: &str) -> Option<usize> {
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

/// Times the grid in both configurations and returns the combined
/// report. `opts.seeds` seeds per mix entry; the whole mix is then
/// repeated (identically — the engine is deterministic) until a timed
/// pass is expected to take at least [`MIN_TIMED_WALL_S`] and the grid
/// holds at least [`MIN_GRID_RUNS`] runs.
pub fn perf(opts: Opts) -> PerfReport {
    // Best-of-N for the micro-benchmark too: its loop already runs to a
    // minimum wall, so take the fastest of the repeated windows.
    let queue_ops = (0..MEASURE_PASSES).map(|_| queue_ops_per_sec()).fold(0.0, f64::max);
    let per = opts.seeds.max(1) as usize;
    let base_runs = MIX.len() * per;
    let job = |i: usize| {
        let i = i % base_runs;
        let (bench, n_inter, strategy) = MIX[i / per];
        let seed = opts.base_seed + (i % per) as u64;
        Scenario::fig5_style(bench, n_inter, strategy, seed).run()
    };

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

    // Phase 2: one scoped fan-out at the requested width.
    let parallel_jobs = parallel::resolve_jobs(opts.jobs);
    let (par, parallel_wall_s) = best_of(|| parallel::ordered_map(parallel_jobs, runs, job));

    // The determinism contract, asserted over the full result surface:
    // every float, counter, and latency sample must agree.
    assert_eq!(
        format!("{ticked:?}"),
        format!("{par:?}"),
        "parallel pass diverged from sequential"
    );

    PerfReport {
        runs,
        events,
        ticked_wall_s,
        parallel_wall_s,
        parallel_jobs,
        queue_ops_per_sec: queue_ops,
    }
}

/// Steady-state live population for the queue micro-benchmark: one busy
/// simulated host's worth of armed timers (64 pCPUs × ~8 armed timers
/// each — slice expiries, guest ticks, accounting beats, PLE windows).
const QUEUE_BENCH_POPULATION: usize = 512;

/// Micro-benchmark of [`EventQueue`]: interleaved schedule / pop shaped
/// like the simulator's own timer churn, measured at 83–88% short
/// periodic timers. Every event is armed
/// *relative to the advancing clock*: 85% are ~1 ms beats (`HvTick`,
/// guest CFS ticks, jittered ±10%), the rest are golden-ratio scattered
/// over 1 µs..34 ms (PLE windows to slice expiries). Each round arms three
/// timers and pops three events forward, holding the live population at
/// [`QUEUE_BENCH_POPULATION`].
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
            for _ in 0..3 {
                if let Some((t, _)) = q.pop() {
                    now = t.as_nanos();
                }
            }
            ops += 6;
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
pub(crate) mod tests {
    use super::*;

    fn report() -> PerfReport {
        PerfReport {
            runs: 216,
            events: 3456,
            ticked_wall_s: 3.0,
            parallel_wall_s: 1.0,
            parallel_jobs: 4,
            queue_ops_per_sec: 1e6,
        }
    }

    #[test]
    fn report_round_trips_to_json() {
        let r = report();
        let json = r.to_json();
        assert!(json.contains("\"runs\": 216"));
        assert!(json.contains("\"speedup\": 3.000"));
        assert!(!json.contains("fork"), "the forked phase is gone: {json}");
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"verify_wall_s\": null"));
        // verify.sh substitutes the trailing field; it must stay last.
        assert!(json.trim_end().ends_with("\"verify_wall_s\": null\n}"));
        assert!((r.speedup() - 3.0).abs() < 1e-9);
        assert!((r.ticked_events_per_sec() - 1152.0).abs() < 1e-6);
    }

    /// Golden: the perf phases' lines, byte for byte as the trend log has
    /// always stored them.
    #[test]
    fn history_lines_are_one_json_object_per_phase() {
        let records = report().records();
        let lines: String = records
            .iter()
            .map(|r| r.to_line("abc1234", 1_700_000_000, 4))
            .collect();
        assert_eq!(
            lines,
            "{\"commit\": \"abc1234\", \"timestamp\": 1700000000, \"phase\": \"ticked\", \"jobs\": 1, \"cores\": 4, \"events_per_sec\": 1152}\n\
             {\"commit\": \"abc1234\", \"timestamp\": 1700000000, \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 3456, \"speedup\": 3.000}\n\
             {\"commit\": \"abc1234\", \"timestamp\": 1700000000, \"phase\": \"queue\", \"jobs\": 1, \"cores\": 4, \"ops_per_sec\": 1000000}\n"
        );
        let metrics: Vec<_> = records.iter().map(|r| r.ratchet_on).collect();
        assert_eq!(metrics, ["events_per_sec", "events_per_sec", "ops_per_sec"]);
    }

    #[test]
    fn check_perf_passes_on_empty_history() {
        let mut r = report();
        r.queue_ops_per_sec = 40.0e6;
        assert!(r.floor_failures().is_empty());
        for record in r.records() {
            assert_eq!(record.ratchet("", 4), None, "{}", record.phase);
        }
    }

    #[test]
    fn check_perf_enforces_queue_floor_and_speedup() {
        let mut r = report();
        r.queue_ops_per_sec = 1e6; // heap-class number: below the floor
        r.parallel_wall_s = 4.0; // slower than ticked: speedup < 1.0
        let failures = r.floor_failures();
        assert_eq!(failures.len(), 2);
        assert!(failures.iter().any(|f| f.contains("queue_ops_per_sec")));
        assert!(failures.iter().any(|f| f.contains("speedup")));
    }

    /// A record ratcheting on one metric, shaped like the campaigns' own.
    fn rec(
        phase: &'static str,
        jobs: usize,
        hosts: Option<usize>,
        metric: &'static str,
        value: f64,
    ) -> PerfRecord {
        PerfRecord {
            phase,
            jobs,
            hosts,
            fields: vec![(metric, value, 0)],
            ratchet_on: metric,
        }
    }

    /// Every ratchet case of every campaign, in one table: which history
    /// lines match a record (phase, jobs, host cores, fleet size, full
    /// event dispatch, well-formed fields) and when a match fires. Each
    /// row belongs to a group, and each group is run by one test here or
    /// beside the campaign it covers.
    pub(crate) fn assert_ratchet_cases(group: &str) {
        // Current values: the perf, fleet and serving fixtures'.
        let ticked = rec("ticked", 1, None, "events_per_sec", 1152.0);
        let parallel = rec("parallel", 4, None, "events_per_sec", 3456.0);
        let fleet = rec("fleet", 2, Some(120), "events_per_sec", 5000.0);
        let scale = rec(
            "fleet-scale",
            2,
            Some(1000),
            "effective_events_per_sec",
            27_500.0,
        );
        let serving = rec("serving", 2, None, "events_per_sec", 5000.0);
        // (group, case, record, host cores, history, expected message
        // fragment; `None` means the ratchet holds).
        type Case<'a> = (&'a str, &'a str, &'a PerfRecord, usize, &'a str, Option<&'a str>);
        let cases: &[Case] = &[
            ("matching", "empty history", &parallel, 4, "", None),
            ("matching", "matching record 10x faster",
             &parallel, 4, "{\"commit\": \"old0003\", \"timestamp\": 2, \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 34560, \"speedup\": 1.9}",
             Some("parallel phase ratchet: 3456 events_per_sec")),
            ("matching", "matching record within tolerance",
             &parallel, 4, "{\"commit\": \"old0003\", \"timestamp\": 2, \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 4000, \"speedup\": 1.9}",
             None),
            ("matching", "same records on another host",
             &parallel, 1, "{\"commit\": \"old0003\", \"timestamp\": 2, \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 34560, \"speedup\": 1.9}",
             None),
            ("matching", "legacy line without phase",
             &parallel, 4, "{\"commit\": \"old0001\", \"jobs\": 4, \"events_per_sec\": 99999999, \"speedup\": 1.9}",
             None),
            ("matching", "other worker count",
             &parallel, 4, "{\"commit\": \"old0002\", \"timestamp\": 1, \"phase\": \"parallel\", \"jobs\": 8, \"cores\": 4, \"events_per_sec\": 99999999, \"speedup\": 1.9}",
             None),
            ("matching", "other core count",
             &parallel, 4, "{\"commit\": \"old0004\", \"timestamp\": 1, \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 64, \"events_per_sec\": 99999999, \"speedup\": 1.9}",
             None),
            ("matching", "legacy line without cores",
             &parallel, 4, "{\"commit\": \"old0005\", \"timestamp\": 1, \"phase\": \"parallel\", \"jobs\": 4, \"events_per_sec\": 99999999, \"speedup\": 1.9}",
             None),
            // Old records carry the retired `tickless` flag: `false` ran
            // every event, as the engine does now, so it arms; `true`
            // measured elided runs, so it must not.
            ("elision", "ran every event",
             &ticked, 4, "{\"commit\": \"old1\", \"phase\": \"ticked\", \"tickless\": false, \"jobs\": 1, \"cores\": 4, \"events_per_sec\": 99999999}",
             Some("ticked phase ratchet")),
            ("elision", "taken with event elision",
             &parallel, 4, "{\"commit\": \"old2\", \"phase\": \"parallel\", \"tickless\": true, \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            // Corrupt in one field each: none may arm the ratchet — the
            // gate used to false-fail when a mangled line's huge number
            // slipped in.
            ("malformed", "bad1 quoted flag",
             &parallel, 4, "{\"commit\": \"bad1\", \"phase\": \"parallel\", \"tickless\": \"true\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            ("malformed", "bad2 numeric flag",
             &parallel, 4, "{\"commit\": \"bad2\", \"phase\": \"parallel\", \"tickless\": 1, \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            ("malformed", "bad3 quoted jobs",
             &parallel, 4, "{\"commit\": \"bad3\", \"phase\": \"parallel\", \"jobs\": \"4\", \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            ("malformed", "bad4 word jobs",
             &parallel, 4, "{\"commit\": \"bad4\", \"phase\": \"parallel\", \"jobs\": four, \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            ("malformed", "bad5 negative jobs",
             &parallel, 4, "{\"commit\": \"bad5\", \"phase\": \"parallel\", \"jobs\": -4, \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            ("malformed", "bad6 quoted cores",
             &parallel, 4, "{\"commit\": \"bad6\", \"phase\": \"parallel\", \"jobs\": 4, \"cores\": \"4\", \"events_per_sec\": 99999999}",
             None),
            ("malformed", "bad7 NaN metric",
             &parallel, 4, "{\"commit\": \"bad7\", \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": NaN}",
             None),
            ("malformed", "bad8 truncated line",
             &parallel, 4, "{\"commit\": \"bad8\", \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\":",
             None),
            // Fleet: a line without `hosts` predates fleet sizes and
            // matches; a line with one must name this fleet's size.
            ("fleet", "fleet within tolerance",
             &fleet, 4, "{\"phase\": \"fleet\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 6000}",
             None),
            ("fleet", "fleet record without hosts",
             &fleet, 4, "{\"phase\": \"fleet\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 99999999}",
             Some("fleet phase ratchet")),
            ("fleet", "fleet other worker count",
             &fleet, 4, "{\"phase\": \"fleet\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            ("fleet", "fleet other core count",
             &fleet, 64, "{\"phase\": \"fleet\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            ("fleet", "fleet smoke phase",
             &fleet, 4, "{\"phase\": \"fleet-smoke\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            ("hosts", "fleet other size",
             &fleet, 4, "{\"phase\": \"fleet\", \"jobs\": 2, \"cores\": 4, \"hosts\": 1000, \"events_per_sec\": 99999999}",
             None),
            ("hosts", "fleet same size",
             &fleet, 4, "{\"phase\": \"fleet\", \"jobs\": 2, \"cores\": 4, \"hosts\": 120, \"events_per_sec\": 99999999}",
             Some("fleet phase ratchet")),
            // The scale phase ratchets effective (logical) throughput.
            ("scale", "scale effective 36x faster",
             &scale, 4, "{\"phase\": \"fleet-scale\", \"jobs\": 2, \"cores\": 4, \"hosts\": 1000, \"effective_events_per_sec\": 999999999}",
             Some("fleet-scale phase ratchet: 27500 effective_events_per_sec")),
            ("scale", "scale effective within tolerance",
             &scale, 4, "{\"phase\": \"fleet-scale\", \"jobs\": 2, \"cores\": 4, \"hosts\": 1000, \"effective_events_per_sec\": 30000}",
             None),
            ("scale", "scale ignores executed throughput",
             &scale, 4, "{\"phase\": \"fleet-scale\", \"jobs\": 2, \"cores\": 4, \"hosts\": 1000, \"events_per_sec\": 999999999}",
             None),
            ("serving", "serving within tolerance",
             &serving, 4, "{\"phase\": \"serving\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 6000}",
             None),
            ("serving", "serving matching record",
             &serving, 4, "{\"phase\": \"serving\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 99999999}",
             Some("serving phase ratchet")),
            ("serving", "serving other worker count",
             &serving, 4, "{\"phase\": \"serving\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            ("serving", "serving other core count",
             &serving, 64, "{\"phase\": \"serving\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            ("serving", "serving smoke phase",
             &serving, 4, "{\"phase\": \"serving-smoke\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 99999999}",
             None),
            // A record without `hosts` does not check the field at all.
            ("hosts", "serving ignores hosts",
             &serving, 4, "{\"phase\": \"serving\", \"jobs\": 2, \"cores\": 4, \"hosts\": 16, \"events_per_sec\": 99999999}",
             Some("serving phase ratchet")),
            // The best matching line sets the bar, wherever it sits.
            ("matching", "best of several matches",
             &serving, 4, "{\"phase\": \"serving\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 6000}\n\
                           {\"phase\": \"serving\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 12000}\n\
                           {\"phase\": \"serving\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 7000}",
             Some("best matching record (12000;")),
            ("matching", "non-matching lines around a match",
             &parallel, 4, "{\"commit\": \"old0001\", \"jobs\": 4, \"events_per_sec\": 99999999, \"speedup\": 1.9}\n\
                            {\"commit\": \"bad8\", \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\":\n\
                            {\"commit\": \"old0003\", \"timestamp\": 2, \"phase\": \"parallel\", \"jobs\": 4, \"cores\": 4, \"events_per_sec\": 34560, \"speedup\": 1.9}",
             Some("(34560; jobs=4, cores=4)")),
            ("matching", "zero metric",
             &serving, 4, "{\"phase\": \"serving\", \"jobs\": 2, \"cores\": 4, \"events_per_sec\": 0}",
             None),
            ("matching", "other metric only",
             &ticked, 4, "{\"phase\": \"ticked\", \"jobs\": 1, \"cores\": 4, \"ops_per_sec\": 99999999}",
             None),
        ];
        let groups = [
            "matching",
            "elision",
            "malformed",
            "fleet",
            "hosts",
            "scale",
            "serving",
        ];
        for &(g, case, ..) in cases {
            assert!(groups.contains(&g), "{case}: no test runs group {g:?}");
        }
        let mut ran = 0;
        for &(_, case, record, cores, history, want) in cases.iter().filter(|c| c.0 == group) {
            ran += 1;
            let got = record.ratchet(history, cores);
            match want {
                None => assert_eq!(got, None, "{case}"),
                Some(fragment) => assert!(
                    got.as_deref().is_some_and(|m| m.contains(fragment)),
                    "{case}: want a failure containing {fragment:?}, got {got:?}"
                ),
            }
        }
        assert!(ran > 0, "no ratchet cases in group {group:?}");
    }

    #[test]
    fn check_perf_ratchets_against_matching_config_only() {
        assert_ratchet_cases("matching");
    }

    #[test]
    fn check_perf_skips_records_taken_with_event_elision() {
        assert_ratchet_cases("elision");
    }

    #[test]
    fn check_perf_ignores_malformed_records() {
        assert_ratchet_cases("malformed");
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
