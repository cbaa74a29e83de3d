//! Multi-run experiment helpers.
//!
//! The paper reports the average of (at least) five runs per data point:
//! [`grid_mean_makespans`] runs scenario constructors across seeds and
//! averages them. [`run_forked_grid`] and [`run_forked_grid_cached`] run
//! groups of identical simulations, sharing a warmup snapshot (and, with
//! the cache, completed results) within each group.

use crate::parallel;
use crate::results::RunResult;
use crate::scenario::Scenario;
use crate::system::{Snapshot, System, SystemConfig};
use irs_metrics::Summary;
use irs_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A borrowed scenario constructor, the unit of work in a
/// [`grid_mean_makespans`] batch.
pub type ScenarioFn<'a> = &'a (dyn Fn(u64) -> Scenario + Sync);

/// Mean makespans for a whole batch of scenario constructors in one
/// fan-out: `makes.len() × seeds` independent runs share the worker pool,
/// so narrow panels still saturate wide hosts.
///
/// Entry `k` of the result is the seed-averaged makespan of `makes[k]`
/// over seeds `base_seed..base_seed + seeds` (job order is
/// constructor-major, seed-minor — canonical and therefore
/// deterministic). `jobs = 0` means the process default
/// ([`parallel::default_jobs`]); results are identical for every value.
///
/// # Panics
///
/// Panics if `seeds` is 0 (a mean over no runs), or if any run's measured
/// VM failed to complete within the horizon.
pub fn grid_mean_makespans(
    base_seed: u64,
    seeds: u64,
    jobs: usize,
    makes: &[ScenarioFn<'_>],
) -> Vec<f64> {
    assert!(
        seeds >= 1,
        "grid_mean_makespans: `seeds` must be at least 1, got 0"
    );
    let per = seeds as usize;
    let samples = parallel::ordered_map(jobs, makes.len() * per, |i| {
        let make = makes[i / per];
        make(base_seed + (i % per) as u64).run().measured().makespan_ms()
    });
    samples
        .chunks(per)
        .map(|chunk| Summary::of(chunk).mean)
        .collect()
}

/// One warmup per group, many branches: group `g` (of
/// `group_sizes.len()`) is built from `make(g)`, run to `warmup` virtual
/// time once, snapshotted, and branched into `group_sizes[g]` forked
/// completions (`jobs = 0` means the process default). `warmup = None`
/// runs every member from scratch instead, sharing nothing.
///
/// Every branch is bit-identical to a from-scratch run of the same
/// `(scenario, cfg)` pair — the [`crate::Snapshot`] determinism contract —
/// so a campaign whose grid repeats a cell pays the shared warmup prefix
/// once instead of once per repeat, and both modes return the same
/// results. A `warmup` past the run's completion is harmless: the
/// snapshot is then of the finished state and branches return immediately
/// ([`System::run`] re-checks completion before stepping).
///
/// Both the warmups and the branches fan out through the worker pool in
/// one canonical order each (group-major), so results are bit-identical
/// for every `jobs` value. Returns the per-group branch results plus the
/// total number of events the sharing avoided re-executing (the sum of
/// each group's `warmup events × (size − 1)`; 0 without a warmup).
///
/// This is the fleet campaign's primitive: hosts with identical tenant
/// composition are identical simulations, so one warmup serves them all.
pub fn run_forked_grid<F>(
    jobs: usize,
    warmup: Option<SimTime>,
    cfg: &SystemConfig,
    group_sizes: &[usize],
    make: F,
) -> (Vec<Vec<RunResult>>, u64)
where
    F: Fn(usize) -> Scenario + Sync,
{
    let snaps: Vec<Snapshot> = match warmup {
        Some(w) => parallel::ordered_map(jobs, group_sizes.len(), |g| {
            let mut sys = System::with_config(make(g), cfg.clone());
            sys.run_until(w);
            sys.snapshot()
        }),
        None => Vec::new(),
    };
    let saved = snaps
        .iter()
        .zip(group_sizes)
        .map(|(s, &n)| {
            s.events_processed()
                .saturating_mul(n.saturating_sub(1) as u64)
        })
        .sum();
    // Flatten to one branch fan-out: slot i belongs to group `owner[i]`.
    let owner: Vec<usize> = group_sizes
        .iter()
        .enumerate()
        .flat_map(|(g, &n)| std::iter::repeat_n(g, n))
        .collect();
    let flat = parallel::ordered_map(jobs, owner.len(), |i| match snaps.get(owner[i]) {
        Some(snap) => snap.resume().run(),
        None => System::with_config(make(owner[i]), cfg.clone()).run(),
    });
    let mut grouped: Vec<Vec<RunResult>> = group_sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (i, r) in flat.into_iter().enumerate() {
        grouped[owner[i]].push(r);
    }
    (grouped, saved)
}

/// Counters of a [`ForkCache`]'s behaviour, cheap to copy out for
/// reporting. Hits and misses count *groups* (one lookup per group per
/// [`run_forked_grid_cached`] call), not member branches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkCacheStats {
    /// Groups served entirely from a cached [`RunResult`] (no simulation).
    pub result_hits: u64,
    /// Groups that reused a cached warmup [`Snapshot`] but had to run one
    /// completion (result was missing — e.g. evicted separately).
    pub snapshot_hits: u64,
    /// Groups with no usable entry: warmup (when enabled) and one
    /// completion both ran.
    pub misses: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// Estimated bytes currently resident (see [`Snapshot::approx_bytes`]
    /// and [`RunResult::approx_bytes`] for what "estimated" means).
    pub resident_bytes: usize,
}

impl ForkCacheStats {
    /// Fraction of lookups served from the cache (result or snapshot);
    /// `NaN` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.result_hits + self.snapshot_hits;
        hits as f64 / (hits + self.misses) as f64
    }
}

/// One cached warmup/result pair.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// Warmup checkpoint; `None` when the owning call ran from scratch
    /// (no shared warmup requested).
    snapshot: Option<Snapshot>,
    /// Completed-run result; branches of one snapshot are bit-identical,
    /// so a single result stands for every member of the group.
    result: Option<Arc<RunResult>>,
    /// Events the warmup prefix had processed (0 for scratch runs).
    warmup_events: u64,
    /// Estimated resident bytes of this entry.
    bytes: usize,
    /// LRU stamp (monotonic lookup counter).
    last_used: u64,
}

/// Cross-call snapshot/result cache for [`run_forked_grid_cached`]: the
/// cross-epoch carry-over store behind the fleet campaign's incremental
/// mode.
///
/// Keys are caller-chosen `u64`s that must uniquely identify the
/// `(scenario, config)` pair (the fleet uses its composition seed, which
/// *is* the scenario seed). Entries hold the warmup [`Snapshot`] and the
/// completed-run [`RunResult`] for that key; because the snapshot/fork
/// determinism contract makes every branch bit-identical, one cached
/// result serves any number of future members — reuse cannot change any
/// table derived from the results.
///
/// The cache is memory-bounded: entry sizes are *estimated* (coarse but
/// deterministic — see [`Snapshot::approx_bytes`]) and least-recently-used
/// entries are evicted once the estimate exceeds the budget. All
/// bookkeeping happens on the driver thread in deterministic order, so
/// hit/miss/eviction counts are identical for every `--jobs N`.
#[derive(Debug)]
pub struct ForkCache {
    max_bytes: usize,
    tick: u64,
    entries: BTreeMap<u64, CacheEntry>,
    stats: ForkCacheStats,
}

impl ForkCache {
    /// Creates a cache holding at most (an estimated) `max_bytes`. A budget
    /// smaller than any single entry still works — every insertion is
    /// evicted right back out, degrading to recompute-always.
    pub fn new(max_bytes: usize) -> Self {
        ForkCache {
            max_bytes,
            tick: 0,
            entries: BTreeMap::new(),
            stats: ForkCacheStats::default(),
        }
    }

    /// Current counters (resident bytes included).
    pub fn stats(&self) -> ForkCacheStats {
        self.stats
    }

    /// The configured byte budget.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evicts least-recently-used entries until the byte estimate fits the
    /// budget.
    fn evict_to_budget(&mut self) {
        while self.stats.resident_bytes > self.max_bytes && !self.entries.is_empty() {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty cache has an LRU entry");
            let e = self.entries.remove(&lru).expect("key just observed");
            self.stats.resident_bytes -= e.bytes;
            self.stats.evictions += 1;
        }
    }
}

/// Outcome of one [`run_forked_grid_cached`] call.
///
/// `results[g]` is the single result shared by every member of group `g`
/// (branches are bit-identical by the snapshot determinism contract, so
/// handing the same `Arc` to each member is observationally equal to
/// running them all). The counters decompose the *logical* event volume
/// (`Σ size[g] × results[g].events`) so that
///
/// ```text
/// executed = logical − fork_warmup_saved − events_elided
/// ```
///
/// always equals the events this call actually simulated.
#[derive(Debug, Clone)]
pub struct CachedGrid {
    /// One shared result per group, in input order.
    pub results: Vec<Arc<RunResult>>,
    /// Warmup events not re-executed thanks to snapshot sharing/caching:
    /// `warmup_events × (members − warmups run)` summed over groups.
    pub fork_warmup_saved: u64,
    /// Post-warmup events not re-executed thanks to result memoization:
    /// `(total − warmup) events × (members − completions run)` summed.
    pub events_elided: u64,
    /// Member runs served by a memoized result instead of a simulation
    /// (`members − completions run`, summed over groups).
    pub runs_elided: u64,
}

/// [`run_forked_grid`] with a cross-call [`ForkCache`]: group `g` is
/// identified by `groups[g].0` and has `groups[g].1` members; `make(g)`
/// builds its scenario on a miss.
///
/// Per group, at most one warmup and one completion are ever executed —
/// within a call (members share their group's single result) *and across
/// calls* (a later call with the same key reuses the cached result, or at
/// least the cached warmup snapshot). `warmup = None` disables the
/// snapshot layer: misses run from scratch and only results are cached.
///
/// Keys must be unique within one call, and — like [`run_forked_grid`] — the
/// shared-result shortcut is sound because branches of one snapshot are
/// bit-identical to from-scratch runs: reuse is invisible in the results.
pub fn run_forked_grid_cached<F>(
    jobs: usize,
    warmup: Option<SimTime>,
    cfg: &SystemConfig,
    groups: &[(u64, usize)],
    make: F,
    cache: &mut ForkCache,
) -> CachedGrid
where
    F: Fn(usize) -> Scenario + Sync,
{
    #[derive(Clone, Copy, PartialEq)]
    enum Plan {
        ResultHit,
        SnapshotHit,
        Miss,
    }
    debug_assert!(
        groups.iter().map(|&(k, _)| k).collect::<std::collections::BTreeSet<_>>().len()
            == groups.len(),
        "cache keys must be unique within one call"
    );

    // Classify each group against the cache (sequential: deterministic
    // hit/miss order at any worker count).
    let mut plan = Vec::with_capacity(groups.len());
    for &(key, _) in groups {
        cache.tick += 1;
        let p = match cache.entries.get_mut(&key) {
            Some(e) if e.result.is_some() => {
                e.last_used = cache.tick;
                cache.stats.result_hits += 1;
                Plan::ResultHit
            }
            Some(e) if warmup.is_some() && e.snapshot.is_some() => {
                e.last_used = cache.tick;
                cache.stats.snapshot_hits += 1;
                Plan::SnapshotHit
            }
            _ => {
                cache.stats.misses += 1;
                Plan::Miss
            }
        };
        plan.push(p);
    }

    // Warmups for the misses (one canonical fan-out, group order).
    let miss: Vec<usize> = (0..groups.len()).filter(|&g| plan[g] == Plan::Miss).collect();
    let fresh_snaps: Vec<Snapshot> = match warmup {
        Some(w) => parallel::ordered_map(jobs, miss.len(), |i| {
            let mut sys = System::with_config(make(miss[i]), cfg.clone());
            sys.run_until(w);
            sys.snapshot()
        }),
        None => Vec::new(),
    };

    // One completion per group that lacks a memoized result.
    enum Job<'a> {
        Resume(&'a Snapshot),
        Scratch(usize),
    }
    let need_run: Vec<usize> = (0..groups.len()).filter(|&g| plan[g] != Plan::ResultHit).collect();
    let run_jobs: Vec<Job<'_>> = need_run
        .iter()
        .map(|&g| match plan[g] {
            Plan::SnapshotHit => {
                let e = &cache.entries[&groups[g].0];
                Job::Resume(e.snapshot.as_ref().expect("classified as snapshot hit"))
            }
            Plan::Miss if warmup.is_some() => {
                let i = miss.binary_search(&g).expect("miss listed in order");
                Job::Resume(&fresh_snaps[i])
            }
            _ => Job::Scratch(g),
        })
        .collect();
    let mut run_results: std::collections::VecDeque<RunResult> =
        parallel::ordered_map(jobs, run_jobs.len(), |i| match &run_jobs[i] {
            Job::Resume(s) => s.resume().run(),
            Job::Scratch(g) => System::with_config(make(*g), cfg.clone()).run(),
        })
        .into();
    drop(run_jobs);

    // Assemble results, account savings, and feed the cache.
    let mut out = CachedGrid {
        results: Vec::with_capacity(groups.len()),
        fork_warmup_saved: 0,
        events_elided: 0,
        runs_elided: 0,
    };
    let mut fresh_snaps: std::collections::VecDeque<Snapshot> = fresh_snaps.into();
    for (g, &(key, size)) in groups.iter().enumerate() {
        let n = size as u64;
        match plan[g] {
            Plan::ResultHit => {
                let e = &cache.entries[&key];
                let r = e.result.clone().expect("classified as result hit");
                out.fork_warmup_saved += n * e.warmup_events;
                out.events_elided += n * (r.events - e.warmup_events);
                out.runs_elided += n;
                out.results.push(r);
            }
            Plan::SnapshotHit => {
                let r = Arc::new(run_results.pop_front().expect("one run per non-hit group"));
                let e = cache.entries.get_mut(&key).expect("entry just used");
                out.fork_warmup_saved += n * e.warmup_events;
                out.events_elided += n.saturating_sub(1) * (r.events - e.warmup_events);
                out.runs_elided += n.saturating_sub(1);
                e.bytes += r.approx_bytes();
                cache.stats.resident_bytes += r.approx_bytes();
                e.result = Some(r.clone());
                out.results.push(r);
            }
            Plan::Miss => {
                let r = Arc::new(run_results.pop_front().expect("one run per non-hit group"));
                let snapshot = warmup.map(|_| fresh_snaps.pop_front().expect("one per miss"));
                let warmup_events = snapshot.as_ref().map_or(0, |s| s.events_processed());
                out.fork_warmup_saved += n.saturating_sub(1) * warmup_events;
                out.events_elided += n.saturating_sub(1) * (r.events - warmup_events);
                out.runs_elided += n.saturating_sub(1);
                let bytes =
                    snapshot.as_ref().map_or(0, |s| s.approx_bytes()) + r.approx_bytes();
                // A stale entry may exist (e.g. snapshot-only under a
                // scratch call): replace it without leaking its bytes.
                if let Some(old) = cache.entries.remove(&key) {
                    cache.stats.resident_bytes -= old.bytes;
                }
                cache.stats.resident_bytes += bytes;
                cache.entries.insert(
                    key,
                    CacheEntry {
                        snapshot,
                        result: Some(r.clone()),
                        warmup_events,
                        bytes,
                        last_used: cache.tick,
                    },
                );
                out.results.push(r);
            }
        }
    }
    cache.evict_to_budget();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    fn quick(seed: u64) -> Scenario {
        // Tiny controlled run: EP is the cheapest preset.
        Scenario::fig5_style("EP", 1, Strategy::Vanilla, seed)
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let a = quick(7).run();
        let b = quick(7).run();
        assert_eq!(a.measured().makespan, b.measured().makespan);
        assert_eq!(a.hv.preemptions, b.hv.preemptions);
    }

    #[test]
    fn different_seeds_differ_slightly() {
        let a = quick(1).run();
        let b = quick(2).run();
        // Jittered compute makes exact ties essentially impossible.
        assert_ne!(a.measured().makespan, b.measured().makespan);
    }

    #[test]
    fn forked_branches_match_scratch() {
        let scratch = quick(3).run();
        let (grouped, saved) = run_forked_grid(
            2,
            Some(SimTime::from_millis(50)),
            &SystemConfig::default(),
            &[3],
            |_| quick(3),
        );
        let [branches] = &grouped[..] else {
            panic!("one group in, {} groups out", grouped.len());
        };
        assert_eq!(branches.len(), 3);
        assert!(saved > 0, "a 50 ms warmup must have processed events");
        for b in branches {
            assert_eq!(format!("{b:?}"), format!("{scratch:?}"));
        }
    }

    #[test]
    fn forked_grid_matches_scratch_per_group() {
        let make = |g: usize| {
            // Two distinct groups: vanilla and IRS of the same workload.
            let strat = if g == 0 { Strategy::Vanilla } else { Strategy::Irs };
            Scenario::fig5_style("EP", 1, strat, 11)
        };
        // With a shared warmup and without one: same branches, and only
        // the warmup mode saves events.
        for warmup in [Some(SimTime::from_millis(40)), None] {
            let (grouped, saved) =
                run_forked_grid(2, warmup, &SystemConfig::default(), &[2, 3], make);
            assert_eq!(grouped[0].len(), 2);
            assert_eq!(grouped[1].len(), 3);
            if warmup.is_some() {
                assert!(saved > 0, "two groups of >1 branches must share warmups");
            } else {
                assert_eq!(saved, 0, "scratch members share nothing");
            }
            for (g, branches) in grouped.iter().enumerate() {
                let scratch = format!("{:?}", make(g).run());
                for b in branches {
                    assert_eq!(format!("{b:?}"), scratch, "warmup={warmup:?}");
                }
            }
        }
    }

    #[test]
    fn grid_matches_per_constructor_means() {
        let irs = |seed| Scenario::fig5_style("EP", 1, Strategy::Irs, seed);
        let grid = grid_mean_makespans(1, 2, 2, &[&quick, &irs]);
        // The same means, computed one sequential run at a time.
        let mean = |make: &dyn Fn(u64) -> Scenario| {
            let samples: Vec<f64> = (1..=2)
                .map(|seed| make(seed).run().measured().makespan_ms())
                .collect();
            Summary::of(&samples).mean
        };
        assert_eq!(grid, vec![mean(&quick), mean(&irs)]);
    }

    #[test]
    #[should_panic(expected = "`seeds` must be at least 1")]
    fn grid_rejects_zero_seeds() {
        grid_mean_makespans(1, 0, 1, &[&quick]);
    }

    /// Two groups keyed by seed; `make` mirrors the fleet's
    /// composition-to-scenario mapping (key ↔ scenario bijection).
    fn cached_groups() -> Vec<(u64, usize)> {
        vec![(3, 2), (11, 3)]
    }

    fn cached_make(i: usize, groups: &[(u64, usize)]) -> Scenario {
        quick(groups[i].0)
    }

    #[test]
    fn cached_grid_matches_scratch_and_accounts_exactly() {
        let groups = cached_groups();
        let mut cache = ForkCache::new(1 << 30);
        let out = run_forked_grid_cached(
            2,
            Some(SimTime::from_millis(40)),
            &SystemConfig::default(),
            &groups,
            |i| cached_make(i, &groups),
            &mut cache,
        );
        assert_eq!(out.results.len(), 2);
        for (g, &(key, _)) in groups.iter().enumerate() {
            let scratch = format!("{:?}", quick(key).run());
            assert_eq!(format!("{:?}", *out.results[g]), scratch);
        }
        // First call: every group misses, runs one warmup + one
        // completion, and shares the result among its members.
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.result_hits + stats.snapshot_hits, 0);
        assert_eq!(out.runs_elided, (2 - 1) + (3 - 1));
        assert!(out.fork_warmup_saved > 0);
        assert!(out.events_elided > 0);
        assert!(stats.resident_bytes > 0);
        let logical: u64 = groups
            .iter()
            .zip(&out.results)
            .map(|(&(_, n), r)| n as u64 * r.events)
            .sum();
        // What actually ran: each group's full run once (warmup included).
        let executed: u64 = out.results.iter().map(|r| r.events).sum();
        assert_eq!(executed, logical - out.fork_warmup_saved - out.events_elided);
    }

    #[test]
    fn cached_grid_second_call_is_all_result_hits() {
        let groups = cached_groups();
        let mut cache = ForkCache::new(1 << 30);
        let warm = Some(SimTime::from_millis(40));
        let cfg = SystemConfig::default();
        let first =
            run_forked_grid_cached(1, warm, &cfg, &groups, |i| cached_make(i, &groups), &mut cache);
        let second =
            run_forked_grid_cached(1, warm, &cfg, &groups, |i| cached_make(i, &groups), &mut cache);
        let stats = cache.stats();
        assert_eq!(stats.result_hits, 2, "second call must be memoized");
        assert_eq!(stats.misses, 2, "only the first call missed");
        // Every member run is elided, and the whole logical volume is
        // split between warmup savings and elision.
        assert_eq!(second.runs_elided, 2 + 3);
        let logical: u64 = groups
            .iter()
            .zip(&second.results)
            .map(|(&(_, n), r)| n as u64 * r.events)
            .sum();
        assert_eq!(second.fork_warmup_saved + second.events_elided, logical);
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "hit must be bit-identical");
        }
    }

    #[test]
    fn cached_grid_without_warmup_runs_scratch_and_still_memoizes() {
        let groups = cached_groups();
        let mut cache = ForkCache::new(1 << 30);
        let cfg = SystemConfig::default();
        let first =
            run_forked_grid_cached(1, None, &cfg, &groups, |i| cached_make(i, &groups), &mut cache);
        assert_eq!(first.fork_warmup_saved, 0, "no warmup layer, no sharing");
        assert!(first.events_elided > 0, "multi-member groups still share");
        let second =
            run_forked_grid_cached(1, None, &cfg, &groups, |i| cached_make(i, &groups), &mut cache);
        assert_eq!(cache.stats().result_hits, 2);
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn cache_evicts_lru_under_byte_pressure() {
        let groups = cached_groups();
        let mut cache = ForkCache::new(1);
        let cfg = SystemConfig::default();
        let warm = Some(SimTime::from_millis(40));
        run_forked_grid_cached(1, warm, &cfg, &groups, |i| cached_make(i, &groups), &mut cache);
        let stats = cache.stats();
        assert!(stats.evictions >= 2, "a 1-byte budget evicts everything");
        assert_eq!(stats.resident_bytes, 0);
        assert!(cache.is_empty());
        // Degrades to recompute-always, never to wrong results.
        let again = run_forked_grid_cached(
            1,
            warm,
            &cfg,
            &groups,
            |i| cached_make(i, &groups),
            &mut cache,
        );
        assert_eq!(cache.stats().result_hits, 0);
        for (g, &(key, _)) in groups.iter().enumerate() {
            assert_eq!(
                format!("{:?}", *again.results[g]),
                format!("{:?}", quick(key).run())
            );
        }
    }
}
