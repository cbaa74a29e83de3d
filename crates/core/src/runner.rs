//! Multi-run experiment helpers.
//!
//! The paper reports the average of (at least) five runs per data point:
//! [`grid`] runs a batch of run constructors across seeds and hands each
//! run to a projection that keeps what the caller's table reads.
//! [`run_forked_grid_cached`] runs groups of identical simulations once
//! per group, memoizing the results across calls.

use crate::parallel;
use crate::results::RunResult;
use crate::scenario::Scenario;
use crate::system::System;
use irs_sim::SimTime;
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

/// Runs a whole batch of run constructors in one fan-out:
/// `makes.len() × seeds` independent runs share the worker pool.
///
/// A constructor maps a seed to a ready-to-run [`System`], so scenario
/// and [`SystemConfig`](crate::SystemConfig) knobs go through the same
/// path. `project` runs in the worker on each completed run and keeps
/// only what the caller needs. Entry `k` holds `makes[k]`'s projections
/// over seeds `base_seed..base_seed + seeds`, in seed order (job order is
/// constructor-major, seed-minor). `jobs = 0` means the process default
/// ([`parallel::default_jobs`]); results are identical for every value.
///
/// # Panics
///
/// Panics if `seeds` is 0 (a data point over no runs), or if a
/// constructor or the projection panics.
pub fn grid<M, T, P>(
    base_seed: u64,
    seeds: u64,
    jobs: usize,
    makes: &[M],
    project: P,
) -> Vec<Vec<T>>
where
    M: Fn(u64) -> System + Sync,
    T: Send,
    P: Fn(RunResult) -> T + Sync,
{
    assert!(seeds >= 1, "grid: `seeds` must be at least 1, got 0");
    let per = seeds as usize;
    let mut runs = parallel::ordered_map(jobs, makes.len() * per, |i| {
        project(makes[i / per](base_seed + (i % per) as u64).run())
    })
    .into_iter();
    makes
        .iter()
        .map(|_| runs.by_ref().take(per).collect())
        .collect()
}

/// Counters of a [`ForkCache`]'s behaviour, cheap to copy out for
/// reporting. Hits and misses count *groups* (one lookup per group per
/// [`run_forked_grid_cached`] call), not member runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkCacheStats {
    /// Groups served entirely from a cached [`RunResult`] (no simulation).
    pub result_hits: u64,
    /// Always 0: the cache keeps no warmup snapshots to resume. Kept so
    /// reports keep one counter set.
    pub snapshot_hits: u64,
    /// Groups with no cached result: one run was executed.
    pub misses: u64,
    /// Always 0: the cache never evicts. Kept so reports keep one counter
    /// set.
    pub evictions: u64,
    /// Estimated bytes of the held results (the sum of
    /// [`RunResult::approx_bytes`]).
    pub resident_bytes: usize,
}

impl ForkCacheStats {
    /// Fraction of lookups served from the cache; `NaN` before the first
    /// lookup.
    pub fn hit_rate(&self) -> f64 {
        self.result_hits as f64 / (self.result_hits + self.misses) as f64
    }
}

/// One memoized run.
#[derive(Debug)]
struct CacheEntry {
    /// The completed run; runs are deterministic, so one result stands
    /// for every member of the group, in this call and later ones.
    result: Arc<RunResult>,
    /// Events the run had processed at the warmup boundary.
    warmup_events: u64,
}

/// Cross-call result memo for [`run_forked_grid_cached`]: the
/// cross-epoch carry-over store behind the fleet campaign's incremental
/// mode.
///
/// Keys are the caller's own: the cache never inspects a scenario, so
/// two keys are two runs even when they build the same scenario, and one
/// key must always build the same one (the fleet keys by arm and
/// composition, inside one campaign whose seed and host shape are fixed).
/// Each entry holds the completed [`RunResult`] for its key; because runs
/// are deterministic, one cached result serves any number of future
/// members — reuse cannot change any table derived from the results.
///
/// The cache holds one small result per executed run and never evicts, so
/// it grows with the work simulated, not with the number of lookups. All
/// bookkeeping happens on the driver thread in deterministic order, so
/// hit/miss counts are identical for every `--jobs N`.
#[derive(Debug, Default)]
pub struct ForkCache<K> {
    entries: BTreeMap<K, CacheEntry>,
    stats: ForkCacheStats,
}

impl<K> ForkCache<K> {
    /// Current counters (resident bytes included).
    pub fn stats(&self) -> ForkCacheStats {
        self.stats
    }

    /// Number of held results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no results are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The held result for `key`, if any, without counting a hit or a
    /// miss.
    pub fn get(&self, key: &K) -> Option<&Arc<RunResult>>
    where
        K: Ord,
    {
        self.entries.get(key).map(|e| &e.result)
    }
}

/// Outcome of one [`run_forked_grid_cached`] call.
///
/// `results[g]` is the single result shared by every member of group `g`
/// (runs are deterministic, so handing the same `Arc` to each member is
/// observationally equal to running them all). The counters decompose the
/// *logical* event volume (`Σ size[g] × results[g].events`) so that
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
    /// Warmup-prefix events of the member runs served by a shared result:
    /// `warmup_events × runs elided`, summed over groups.
    pub fork_warmup_saved: u64,
    /// The rest of those runs' events:
    /// `(total − warmup) events × runs elided`, summed over groups.
    pub events_elided: u64,
    /// Member runs served by a shared result instead of a simulation
    /// (`members − runs executed`, summed over groups).
    pub runs_elided: u64,
}

/// Runs groups of identical simulations once per group, memoizing the
/// results across calls in a [`ForkCache`]: group `g` is identified by
/// `groups[g].0` and has `groups[g].1` members; `make(g)` builds its
/// scenario on a miss.
///
/// Per group at most one run is ever executed — within a call (members
/// share their group's single result) *and across calls* (a later call
/// with the same key reuses the cached result). The misses fan out through
/// the worker pool in group order, so results are bit-identical for every
/// `jobs` value (`0` means the process default).
///
/// `warmup` is an accounting boundary, not a checkpoint: a miss runs
/// straight through, reading its event count at `warmup` virtual time on
/// the way. Members served by a shared result are credited that prefix
/// as `fork_warmup_saved` and the rest of the run as `events_elided` —
/// exactly what resuming one warmup [`crate::Snapshot`] per group would
/// save, since [`System::snapshot`] mutates nothing.
///
/// Keys must be unique within one call.
pub fn run_forked_grid_cached<K, F>(
    jobs: usize,
    warmup: SimTime,
    groups: &[(K, usize)],
    make: F,
    cache: &mut ForkCache<K>,
) -> CachedGrid
where
    K: Ord + Clone,
    F: Fn(usize) -> Scenario + Sync,
{
    debug_assert!(
        groups
            .iter()
            .map(|(k, _)| k)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            == groups.len(),
        "cache keys must be unique within one call"
    );

    // One run per group the cache has not seen, in group order.
    let miss: Vec<usize> = (0..groups.len())
        .filter(|&g| !cache.entries.contains_key(&groups[g].0))
        .collect();
    let mut fresh = parallel::ordered_map(jobs, miss.len(), |i| {
        let mut sys = System::new(make(miss[i]));
        sys.run_until(warmup);
        let warmup_events = sys.events_processed();
        CacheEntry {
            result: Arc::new(sys.run()),
            warmup_events,
        }
    })
    .into_iter();

    // Assemble results, account savings, and feed the cache (sequential:
    // deterministic counters at any worker count).
    let mut out = CachedGrid {
        results: Vec::with_capacity(groups.len()),
        fork_warmup_saved: 0,
        events_elided: 0,
        runs_elided: 0,
    };
    for (key, size) in groups {
        let n = *size as u64;
        // Members that ran nothing: all of them on a hit, all but the one
        // that ran on a miss.
        let (e, elided) = match cache.entries.entry(key.clone()) {
            Entry::Occupied(e) => {
                cache.stats.result_hits += 1;
                (e.into_mut(), n)
            }
            Entry::Vacant(v) => {
                let e = fresh.next().expect("one run per miss");
                cache.stats.misses += 1;
                cache.stats.resident_bytes += e.result.approx_bytes();
                (v.insert(e), n.saturating_sub(1))
            }
        };
        out.fork_warmup_saved += elided * e.warmup_events;
        out.events_elided += elided * (e.result.events - e.warmup_events);
        out.runs_elided += elided;
        out.results.push(e.result.clone());
    }
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

    /// Two constructors: plain vanilla and IRS with paravirtual
    /// spin-then-halt on (EP's NPB waiters spin, so the knob matters).
    fn pv_irs(seed: u64) -> System {
        let cfg = crate::SystemConfig {
            pv_spin: Some(SimTime::from_micros(100)),
            ..crate::SystemConfig::default()
        };
        System::with_config(Scenario::fig5_style("EP", 1, Strategy::Irs, seed), cfg)
    }

    fn plain(seed: u64) -> System {
        System::new(quick(seed))
    }

    fn debug(r: RunResult) -> String {
        format!("{r:?}")
    }

    #[test]
    fn grid_matches_direct_runs() {
        let makes: [&(dyn Fn(u64) -> System + Sync); 2] = [&plain, &pv_irs];
        let want: Vec<Vec<String>> = makes
            .iter()
            .map(|make| (5..7).map(|seed| debug(make(seed).run())).collect())
            .collect();
        // Entry k holds makes[k]'s runs in seed order, at any width.
        for jobs in [1, 2] {
            assert_eq!(grid(5, 2, jobs, &makes, debug), want, "jobs={jobs}");
        }
    }

    #[test]
    fn grid_honours_system_config() {
        let with_pv = grid(1, 1, 1, &[pv_irs], debug);
        let without = debug(Scenario::fig5_style("EP", 1, Strategy::Irs, 1).run());
        assert_ne!(
            with_pv[0][0], without,
            "the constructor's pv_spin was dropped"
        );
    }

    #[test]
    #[should_panic(expected = "`seeds` must be at least 1")]
    fn grid_rejects_zero_seeds() {
        grid(1, 0, 1, &[plain], debug);
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
        let mut cache = ForkCache::default();
        let out = run_forked_grid_cached(
            2,
            SimTime::from_millis(40),
            &groups,
            |i| cached_make(i, &groups),
            &mut cache,
        );
        assert_eq!(out.results.len(), 2);
        for (g, &(key, _)) in groups.iter().enumerate() {
            let scratch = format!("{:?}", quick(key).run());
            assert_eq!(format!("{:?}", *out.results[g]), scratch);
        }
        // First call: every group misses, runs once, and shares the
        // result among its members.
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.result_hits + stats.snapshot_hits, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.len(), 2, "one held result per executed run");
        let held: usize = out.results.iter().map(|r| r.approx_bytes()).sum();
        assert_eq!(stats.resident_bytes, held);
        assert_eq!(out.runs_elided, (2 - 1) + (3 - 1));
        assert!(out.events_elided > 0);
        // Each group's saving is (members − 1) × the events a snapshot
        // taken at the same warmup holds — the `warmup saved` row of the
        // fleet accounting table depends on that equivalence.
        let want_saved: u64 = groups
            .iter()
            .map(|&(key, n)| {
                let mut sys = System::new(quick(key));
                sys.run_until(SimTime::from_millis(40));
                (n as u64 - 1) * sys.snapshot().resume().events_processed()
            })
            .sum();
        assert!(want_saved > 0, "a 40 ms warmup must have processed events");
        assert_eq!(out.fork_warmup_saved, want_saved);
        let logical: u64 = groups
            .iter()
            .zip(&out.results)
            .map(|(&(_, n), r)| n as u64 * r.events)
            .sum();
        // What actually ran: each group's full run once (warmup included).
        let executed: u64 = out.results.iter().map(|r| r.events).sum();
        assert_eq!(
            executed,
            logical - out.fork_warmup_saved - out.events_elided
        );
    }

    #[test]
    fn cached_grid_second_call_is_all_result_hits() {
        let groups = cached_groups();
        let mut cache = ForkCache::default();
        let warm = SimTime::from_millis(40);
        let first =
            run_forked_grid_cached(1, warm, &groups, |i| cached_make(i, &groups), &mut cache);
        let second =
            run_forked_grid_cached(1, warm, &groups, |i| cached_make(i, &groups), &mut cache);
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
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "hit must be bit-identical"
            );
        }
    }

    #[test]
    fn cached_grid_trusts_the_key_not_the_scenario() {
        // Two keys whose constructor builds the same scenario are two
        // runs: the memo never aliases callers' keys, so a caller that
        // keys by more than the scenario seed (the fleet keys by arm and
        // composition) keeps its entries apart.
        let groups = [("vanilla", 1), ("irs", 1)];
        let mut cache = ForkCache::default();
        let warm = SimTime::from_millis(40);
        let out = run_forked_grid_cached(1, warm, &groups, |_| quick(3), &mut cache);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "both keys must miss");
        assert_eq!(stats.result_hits, 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(
            format!("{:?}", *out.results[0]),
            format!("{:?}", *out.results[1])
        );
    }
}
