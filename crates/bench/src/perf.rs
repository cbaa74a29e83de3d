//! `figures perf` — self-benchmark and regression gate of the simulation
//! engine.
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
//! holds at ≥ `SPEEDUP_FLOOR` (single-core CI boxes cannot promise
//! thread-level scaling — the true ratio there sits at ~1.0 — but the
//! fan-out must never make the engine *materially slower* than the
//! sequential baseline).
//!
//! An untimed warm-up pass runs first and doubles as a probe: the mix is
//! repeated enough times that each timed pass lasts at least
//! `MIN_TIMED_WALL_S` and the grid holds at least `MIN_GRID_RUNS`
//! runs. Without the scaling, a release-mode mix finishes in ~10 ms and
//! the parallel pass mostly measures thread start-up — which is how an
//! earlier report shipped a "speedup" of 0.76x. Each phase is then timed
//! as the **best of `MEASURE_PASSES` shorter passes** (minimum wall —
//! the classic defence against one-sided scheduling noise: interference
//! only ever adds time, so the minimum is the least-contaminated
//! reading). A single long pass is at the mercy of whatever the CI box's
//! neighbours were doing during that one window, which is how the gate
//! used to fail on commits that touched no engine code at all.
//!
//! The report serializes to `BENCH_runner.json` (per-phase walls,
//! speedup, events/sec, queue ops/sec); `scripts/verify.sh` fills in the
//! trailing `verify_wall_s` field. [`PerfReport::floor_failures`] holds
//! the report's absolute floors, which `--check-perf` enforces.

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

    /// The report's absolute `--check-perf` floors: the speedup stays at
    /// or above `SPEEDUP_FLOOR` and the queue micro-benchmark at or
    /// above `QUEUE_OPS_FLOOR`. Returns one message per violated floor;
    /// empty means both hold.
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
/// `MEASURE_PASSES`: three 0.25 s windows reject one-sided interference
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

/// Floor on the sequential-over-parallel speedup. On a 1-core CI box
/// the fan-out has no second core to use, so the *true* ratio sits at ~1.0
/// and a hard `>= 1.0` gate is a coin flip — the main historical source
/// of `--check-perf` false failures. The band absorbs that measurement
/// noise (same idiom as the chaos campaign's 1.15 degradation margin)
/// while still catching structural regressions, which land far below
/// it: a serialized or thrashing fan-out halves throughput, it doesn't
/// shave 10%. The queue floor is the precise instrument.
const SPEEDUP_FLOOR: f64 = 0.85;

/// Runs `f` `MEASURE_PASSES` times and returns the first pass's result
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
/// pass is expected to take at least `MIN_TIMED_WALL_S` and the grid
/// holds at least `MIN_GRID_RUNS` runs.
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
mod tests {
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

    #[test]
    fn check_perf_passes_above_both_floors() {
        let mut r = report();
        r.queue_ops_per_sec = 40.0e6;
        assert!(r.floor_failures().is_empty());
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

    #[test]
    fn queue_microbench_reports_positive_throughput() {
        assert!(queue_ops_per_sec() > 0.0);
    }
}
