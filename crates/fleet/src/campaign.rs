//! The fleet campaign: N hosts × tenant churn × placement policies ×
//! adversary mixes, vanilla vs IRS, aggregated into fleet-wide SLO
//! tables.
//!
//! # Structure
//!
//! The campaign grid is *cells*: one `(placement policy, adversary mix,
//! overcommit)` combination. Each cell simulates the same fleet twice —
//! once per strategy arm (vanilla Xen and IRS) — over `epochs` rounds of
//! tenant churn. Within an epoch every occupied host is one independent
//! [`System`] run to the epoch horizon; per-tenant *slowdown* is the
//! tenant's solo useful-work rate divided by its rate in the contended
//! run.
//!
//! # Result reuse
//!
//! Hosts whose tenant composition (multiset of tenant kinds) is
//! identical are *identical simulations*: the scenario seed derives from
//! the composition alone — not the epoch, policy, mix, overcommit or host
//! index — so their runs are bit-for-bit equal wherever the composition
//! recurs. The campaign's *incremental* mode (`FleetConfig::incremental`,
//! on by default) exploits this at two layers:
//!
//! * **Dirty-host carry-over** — each host tracks whether churn
//!   (arrival or departure; telemetry feeds only placement) touched it
//!   this epoch. Clean hosts carry their previous epoch's
//!   `Arc<RunResult>` per arm and skip simulation entirely.
//! * **Composition-keyed result memo** — groups not resolved by carry go
//!   through [`irs_core::runner::run_forked_grid_cached`], whose
//!   [`ForkCache`] runs each composition once per arm and keeps its
//!   result, keyed by (arm, composition), for every later epoch and cell.
//!
//! With `incremental` off — the reference `figures fleet --parity`
//! compares against — every occupied host is simulated from scratch. Both
//! modes absorb one result per host in the same group-major order, so the
//! SLO tables are bit-identical; the statistical meaning is the same
//! either way, since equal-composition hosts are exchangeable by
//! construction (placement never feeds back into a host's *internal*
//! schedule). The elision counters (`runs_elided`, `events_elided`,
//! `hosts_carried`) together with `fork_warmup_saved` (the memoized
//! runs' events before `FleetConfig::warmup`) decompose the logical
//! event volume: `executed = events − fork_warmup_saved − events_elided`
//! always holds.
//!
//! # Determinism
//!
//! Churn, placement, and lifetimes are drawn sequentially from one
//! `SimRng` forked per cell; host runs fan out only through
//! [`irs_core::parallel::ordered_map`]. Cache bookkeeping and carry
//! resolution happen sequentially on the driver thread. Tables and every
//! counter are therefore bit-identical for every `--jobs` value.

use crate::placement::{PlacementIndex, PlacementPolicy};
use crate::tenant::{AdversaryMix, Tenant, TenantKind};
use irs_core::runner::{run_forked_grid_cached, ForkCache, ForkCacheStats};
use irs_core::{parallel, RunResult, Scenario, Strategy, VmScenario, DEGRADATION_MARGIN};
use irs_metrics::{percentile, Series, Summary, Table};
use irs_sim::{SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The two strategy arms every cell compares.
pub const FLEET_STRATEGIES: [Strategy; 2] = [Strategy::Vanilla, Strategy::Irs];

/// Slowdowns are capped here so a tenant that made no progress at all in
/// an epoch contributes a large finite sample instead of infinity.
pub const SLOWDOWN_CAP: f64 = 1_000.0;

/// Fleet shape and churn parameters (one cell's worth; the campaign
/// varies policy/mix/overcommit around one config).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of hosts in the fleet.
    pub hosts: usize,
    /// Physical CPUs per host.
    pub host_pcpus: usize,
    /// vCPUs (= threads) per tenant VM.
    pub tenant_vcpus: usize,
    /// vCPU overcommit factor: per-host capacity = pCPUs × overcommit.
    pub overcommit: f64,
    /// Churn rounds; each occupied host runs once per epoch per arm.
    pub epochs: u64,
    /// Accounting boundary: of a host run served from the result memo,
    /// the events before this virtual instant are reported as `warmup
    /// saved` and the rest as `events elided`. Must precede
    /// `epoch_horizon`.
    pub warmup: SimTime,
    /// Virtual run length of one epoch (includes the warmup prefix).
    pub epoch_horizon: SimTime,
    /// Tenants placed in epoch 0.
    pub initial_tenants: usize,
    /// Tenant arrivals per later epoch.
    pub arrivals_per_epoch: usize,
    /// Per-epoch departure probability (geometric lifetimes).
    pub depart_chance: f64,
    /// Fleet seed: the single root of all churn and scenario randomness.
    pub seed: u64,
    /// Worker threads (0 = process default); tables are jobs-invariant.
    pub jobs: usize,
    /// Reuse results across epochs, arms, and cells: clean (churn-free)
    /// hosts carry their previous result forward, and a
    /// composition-keyed result memo runs each remaining composition
    /// once. Tables are bit-identical either way; `false` simulates every
    /// occupied host from scratch (the reference mode the parity tests
    /// compare against).
    pub incremental: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            hosts: 120,
            host_pcpus: 4,
            tenant_vcpus: 2,
            overcommit: 1.5,
            epochs: 3,
            warmup: SimTime::from_millis(50),
            epoch_horizon: SimTime::from_millis(400),
            initial_tenants: 300,
            arrivals_per_epoch: 100,
            depart_chance: 0.35,
            seed: 1,
            jobs: 0,
            incremental: true,
        }
    }
}

impl FleetConfig {
    /// Per-host vCPU capacity under this overcommit factor.
    pub fn capacity_vcpus(&self) -> usize {
        (self.host_pcpus as f64 * self.overcommit).round() as usize
    }
}

/// The full campaign: a fleet config plus the grid axes.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Shared fleet shape (its `overcommit` is the grid's default).
    pub fleet: FleetConfig,
    /// Placement policies to compare (table columns).
    pub policies: Vec<PlacementPolicy>,
    /// Adversary mixes to run (one SLO table each).
    pub mixes: Vec<AdversaryMix>,
    /// Extra overcommit factors swept at first policy × last mix
    /// (empty disables the sweep table).
    pub overcommit_sweep: Vec<f64>,
    /// Assert the degradation contract (IRS p95 and mean slowdown ≤
    /// vanilla × [`DEGRADATION_MARGIN`]) in every cell.
    pub assert_contract: bool,
}

/// Everything `figures fleet` reports.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One SLO table per adversary mix, then the overcommit sweep table
    /// (if enabled).
    pub tables: Vec<Table>,
    /// Events before the warmup boundary ([`FleetConfig::warmup`]) in the
    /// host runs the result memo served; 0 in full mode.
    pub fork_warmup_saved: u64,
    /// All other events not re-executed: the rest of the memoized runs,
    /// and carried runs whole. `events − fork_warmup_saved −
    /// events_elided` is what the campaign actually simulated.
    pub events_elided: u64,
    /// Logical fleet event volume (sum over all host runs, each counted
    /// in full whether it was simulated, memoized or carried).
    pub events: u64,
    /// Host runs in the logical grid (hosts × epochs × arms × cells,
    /// occupied hosts only) — identical in incremental and full modes.
    pub host_runs: usize,
    /// Logical host runs served without a fresh simulation (carried or
    /// memoized); 0 in full mode.
    pub runs_elided: u64,
    /// Host runs served specifically by the dirty-host carry-over layer
    /// (a subset of `runs_elided`).
    pub hosts_carried: u64,
    /// Tenants successfully placed across all cells.
    pub tenants_placed: u64,
    /// Tenant arrivals rejected because no host had capacity.
    pub tenants_rejected: u64,
    /// Final result-memo counters (all zero in full mode).
    pub cache: ForkCacheStats,
    /// Logical-vs-executed accounting per mix column (not part of
    /// `tables` so incremental/full SLO parity can be compared directly).
    pub accounting: Table,
}

/// Per-arm sample accumulators for one cell.
#[derive(Debug, Clone, Default)]
struct ArmSamples {
    /// Slowdown of every honest tenant-epoch observation.
    honest: Vec<f64>,
    /// Honest tenants co-located with at least one adversary.
    victim: Vec<f64>,
    /// Slowdown of adversarial tenants (their attacks' cost to them).
    attacker: Vec<f64>,
    sa_timeouts: u64,
    /// Requests still in flight at epoch horizons (latency-server
    /// tenants): the truncated tail, surfaced instead of silently
    /// dropped.
    requests_truncated: u64,
    events: u64,
    runs: usize,
}

/// One cell's outcome: both arms plus churn and elision accounting.
#[derive(Debug, Clone)]
struct CellOutcome {
    arms: [ArmSamples; 2],
    fork_warmup_saved: u64,
    events_elided: u64,
    runs_elided: u64,
    hosts_carried: u64,
    placed: u64,
    rejected: u64,
}

/// FNV-1a over the cell/composition identity — the scenario seed.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The result memo's key: (strategy arm, composition).
type MemoKey = (usize, Vec<u8>);

/// The memo key of a host composition under one strategy arm. Within one
/// campaign the fleet seed and host shape are fixed, so it names exactly
/// one scenario. It carries no seed, so the arms stay apart even when
/// they share a scenario seed.
fn memo_key(arm: usize, comp: &[u8]) -> MemoKey {
    (arm, comp.to_vec())
}

/// Scenario seed for a host composition under one strategy arm. Depends
/// only on (fleet seed, arm, composition): equal-composition hosts are
/// identical runs — the invariant result reuse relies on.
fn comp_seed(fleet_seed: u64, arm: usize, comp: &[u8]) -> u64 {
    let mut bytes = fleet_seed.to_le_bytes().to_vec();
    bytes.push(arm as u8);
    bytes.extend_from_slice(comp);
    fnv1a64(&bytes)
}

/// Builds the host scenario for one composition (sorted kind ids) under
/// one strategy arm. Honest tenants run SA-capable guests when the
/// strategy supports them; adversaries never cooperate with the SA
/// protocol. VMs are unpinned, so the credit scheduler load-balances.
fn scenario_for(comp: &[u8], arm: usize, cfg: &FleetConfig) -> Scenario {
    let strategy = FLEET_STRATEGIES[arm];
    let seed = comp_seed(cfg.seed, arm, comp);
    let mut s = Scenario::new(cfg.host_pcpus, strategy, seed).horizon(cfg.epoch_horizon);
    for &kid in comp {
        let kind = TenantKind::ALL[kid as usize];
        let mut vm = VmScenario::new(kind.bundle(cfg.tenant_vcpus), cfg.tenant_vcpus);
        if !kind.is_adversarial() && strategy.sa_capable_guest() {
            vm = vm.irs_guest(true);
        }
        s = s.vm(vm);
    }
    s
}

/// Solo useful-work rates per (kind, arm): the slowdown baselines. One
/// single-tenant host run each, through one fan-out.
fn solo_rates(cfg: &FleetConfig) -> BTreeMap<(u8, usize), f64> {
    let pairs: Vec<(u8, usize)> = (0..FLEET_STRATEGIES.len())
        .flat_map(|arm| TenantKind::ALL.map(|k| (k.id(), arm)))
        .collect();
    let rates = parallel::ordered_map(cfg.jobs, pairs.len(), |i| {
        let (kid, arm) = pairs[i];
        let r = scenario_for(&[kid], arm, cfg).run();
        r.vms[0].work_rate(r.elapsed)
    });
    pairs.into_iter().zip(rates).collect()
}

/// Slowdown vs solo, capped at [`SLOWDOWN_CAP`].
fn slowdown(solo_rate: f64, contended_rate: f64) -> f64 {
    if solo_rate <= 0.0 {
        return 1.0;
    }
    if contended_rate <= solo_rate / SLOWDOWN_CAP {
        SLOWDOWN_CAP
    } else {
        solo_rate / contended_rate
    }
}

/// Folds one host run into the arm's samples and the host's steal
/// telemetry. Both modes absorb through it in exactly the same order with
/// exactly the same float accumulation — the root of incremental/full
/// bit-identity.
fn absorb_host_run(
    samples: &mut ArmSamples,
    comp: &[u8],
    has_adversary: bool,
    solo: &BTreeMap<(u8, usize), f64>,
    arm: usize,
    r: &RunResult,
    steal_frac: &mut f64,
) {
    samples.sa_timeouts += r.hv.sa_timeouts;
    samples.events += r.events;
    samples.runs += 1;
    let mut cpu = 0.0;
    let mut steal = 0.0;
    for (vm, &kid) in r.vms.iter().zip(comp) {
        let kind = TenantKind::ALL[kid as usize];
        samples.requests_truncated += vm.requests_truncated;
        let sd = slowdown(solo[&(kid, arm)], vm.work_rate(r.elapsed));
        if kind.is_adversarial() {
            samples.attacker.push(sd);
        } else {
            samples.honest.push(sd);
            if has_adversary {
                samples.victim.push(sd);
            }
        }
        cpu += vm.cpu_time.as_secs_f64();
        steal += vm.steal_time.as_secs_f64();
    }
    if cpu + steal > 0.0 {
        // Half-weight per arm: the EWMA input is the mean over both arms.
        *steal_frac += 0.5 * steal / (cpu + steal);
    }
}

/// Runs one cell: `epochs` rounds of churn, each epoch simulated under
/// both strategy arms with the *same* placement trace.
fn run_cell(
    cfg: &FleetConfig,
    policy: PlacementPolicy,
    mix: &AdversaryMix,
    solo: &BTreeMap<(u8, usize), f64>,
    cache: &mut ForkCache<MemoKey>,
) -> CellOutcome {
    let capacity = cfg.capacity_vcpus();
    assert!(
        cfg.tenant_vcpus <= capacity,
        "tenant vCPUs exceed host capacity"
    );
    assert!(cfg.warmup < cfg.epoch_horizon, "warmup must precede horizon");
    // One RNG per cell, salted with the cell coordinates; all churn is
    // drawn sequentially from it.
    let cell_salt = fnv1a64(&[
        &[policy.id()][..],
        mix.name.as_bytes(),
        &capacity.to_le_bytes(),
    ]
    .concat());
    let mut rng = SimRng::seed_from(cfg.seed).fork(cell_salt);

    let mut index = PlacementIndex::new(cfg.hosts, capacity);
    // Churn dirtiness and per-arm carried results. A host whose tenant
    // set did not change re-runs the exact same scenario next epoch
    // (seeds depend only on composition), so its previous result stands
    // in verbatim; any arrival or departure clears the carry. Telemetry
    // updates feed only placement and never dirty a host.
    let mut dirty = vec![false; cfg.hosts];
    let mut carry: Vec<[Option<Arc<RunResult>>; 2]> = vec![[None, None]; cfg.hosts];
    let mut active: Vec<Tenant> = Vec::new();
    let mut out = CellOutcome {
        arms: [ArmSamples::default(), ArmSamples::default()],
        fork_warmup_saved: 0,
        events_elided: 0,
        runs_elided: 0,
        hosts_carried: 0,
        placed: 0,
        rejected: 0,
    };

    for epoch in 0..cfg.epochs {
        // Departures leave before this epoch's runs.
        active.retain(|t| {
            let stays = t.departs_at > epoch;
            if !stays {
                index.remove_tenant(t.host, cfg.tenant_vcpus);
                dirty[t.host] = true;
                carry[t.host] = [None, None];
            }
            stays
        });
        // Arrivals: kind, lifetime, then placement.
        let n_arrivals = if epoch == 0 {
            cfg.initial_tenants
        } else {
            cfg.arrivals_per_epoch
        };
        for _ in 0..n_arrivals {
            let kind = mix.draw(&mut rng);
            let mut life = 1;
            while life < 32 && !rng.chance(cfg.depart_chance) {
                life += 1;
            }
            match index.place(policy, cfg.tenant_vcpus) {
                Some(host) => {
                    index.add_tenant(host, cfg.tenant_vcpus);
                    dirty[host] = true;
                    carry[host] = [None, None];
                    active.push(Tenant {
                        kind,
                        host,
                        departs_at: epoch + life,
                    });
                    out.placed += 1;
                }
                None => out.rejected += 1,
            }
        }

        // Tenants per host in canonical (kind, arrival) order = the VM
        // order of the host's scenario.
        let mut tenants_of: Vec<Vec<TenantKind>> = vec![Vec::new(); cfg.hosts];
        for t in &active {
            tenants_of[t.host].push(t.kind);
        }
        for ts in &mut tenants_of {
            ts.sort_by_key(|k| k.id());
        }
        // Group occupied hosts by composition.
        let mut groups: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
        for (h, ts) in tenants_of.iter().enumerate() {
            if !ts.is_empty() {
                let comp: Vec<u8> = ts.iter().map(|k| k.id()).collect();
                groups.entry(comp).or_default().push(h);
            }
        }
        let comps: Vec<&Vec<u8>> = groups.keys().collect();
        let sizes: Vec<usize> = groups.values().map(|m| m.len()).collect();
        let members: Vec<&Vec<usize>> = groups.values().collect();

        // Mean steal fraction per host across the two arms, for the
        // placement EWMA.
        let mut steal_frac = vec![0.0f64; cfg.hosts];

        for (arm, _strategy) in FLEET_STRATEGIES.iter().enumerate() {
            // One result per occupied host, group-major in member order —
            // the order both modes absorb samples in.
            let runs: Vec<Arc<RunResult>> = if cfg.incremental {
                // Clean-host carry first (free), then the
                // composition-keyed memo, which runs what it has not seen.
                let mut shared: Vec<Option<Arc<RunResult>>> = vec![None; comps.len()];
                for (g, slot) in shared.iter_mut().enumerate() {
                    let carried = members[g]
                        .iter()
                        .filter(|&&h| !dirty[h])
                        .find_map(|&h| carry[h][arm].clone());
                    if let Some(r) = carried {
                        let n = sizes[g] as u64;
                        out.hosts_carried += n;
                        out.runs_elided += n;
                        out.events_elided += n * r.events;
                        *slot = Some(r);
                    }
                }
                let pending: Vec<usize> =
                    (0..comps.len()).filter(|&g| shared[g].is_none()).collect();
                let keyed: Vec<(MemoKey, usize)> = pending
                    .iter()
                    .map(|&g| (memo_key(arm, comps[g]), sizes[g]))
                    .collect();
                let grid = run_forked_grid_cached(
                    cfg.jobs,
                    cfg.warmup,
                    &keyed,
                    |i| scenario_for(comps[pending[i]], arm, cfg),
                    cache,
                );
                out.fork_warmup_saved += grid.fork_warmup_saved;
                out.events_elided += grid.events_elided;
                out.runs_elided += grid.runs_elided;
                for (i, r) in grid.results.into_iter().enumerate() {
                    shared[pending[i]] = Some(r);
                }
                shared
                    .into_iter()
                    .zip(&sizes)
                    .flat_map(|(r, &n)| std::iter::repeat_n(r.expect("every group resolved"), n))
                    .collect()
            } else {
                // The reference: every occupied host from scratch.
                let owner: Vec<usize> = sizes
                    .iter()
                    .enumerate()
                    .flat_map(|(g, &n)| std::iter::repeat_n(g, n))
                    .collect();
                parallel::ordered_map(cfg.jobs, owner.len(), |i| {
                    Arc::new(scenario_for(comps[owner[i]], arm, cfg).run())
                })
            };

            let samples = &mut out.arms[arm];
            let mut runs = runs.into_iter();
            for (g, comp) in comps.iter().enumerate() {
                let has_adversary = comp
                    .iter()
                    .any(|&kid| TenantKind::ALL[kid as usize].is_adversarial());
                for &host in members[g] {
                    let r = runs.next().expect("one run per occupied host");
                    absorb_host_run(
                        samples,
                        comp,
                        has_adversary,
                        solo,
                        arm,
                        &r,
                        &mut steal_frac[host],
                    );
                    carry[host][arm] = Some(r);
                }
            }
        }

        for (h, &frac) in steal_frac.iter().enumerate() {
            // Empty hosts decay toward zero; occupied hosts blend in the
            // fresh observation.
            index.set_steal(h, 0.5 * index.steal(h) + 0.5 * frac);
        }
        // Next epoch's churn defines dirtiness afresh: every host that
        // ran this epoch now has a current carry for both arms.
        dirty.fill(false);
    }
    out
}

/// p50/p95/p99 + mean of a sample set (percentiles are NaN when empty —
/// rendered as `—` — while the mean is 0).
fn dist(samples: &[f64]) -> (f64, f64, f64, f64) {
    (
        percentile(samples, 50.0),
        percentile(samples, 95.0),
        percentile(samples, 99.0),
        Summary::of(samples).mean,
    )
}

/// Asserts the fleet degradation contract for one cell.
fn assert_cell_contract(label: &str, arms: &[ArmSamples; 2]) {
    // The contract compares percentiles, which are NaN over an empty
    // sample (and every NaN comparison would trip the asserts below with
    // a misleading message) — demand the samples exist first.
    assert!(
        !arms[0].honest.is_empty() && !arms[1].honest.is_empty(),
        "cell {label} produced no honest-tenant samples; \
         the degradation contract is vacuous"
    );
    let (_, van_p95, _, van_mean) = dist(&arms[0].honest);
    let (_, irs_p95, _, irs_mean) = dist(&arms[1].honest);
    assert!(
        irs_p95 <= van_p95 * DEGRADATION_MARGIN,
        "degradation contract violated in cell {label}: \
         IRS p95 honest slowdown {irs_p95:.3} > vanilla {van_p95:.3} × {DEGRADATION_MARGIN}"
    );
    assert!(
        irs_mean <= van_mean * DEGRADATION_MARGIN,
        "degradation contract violated in cell {label}: \
         IRS mean honest slowdown {irs_mean:.3} > vanilla {van_mean:.3} × {DEGRADATION_MARGIN}"
    );
}

/// Table row order (victim/attacker rows appear only in cells that
/// actually placed adversaries).
const SERIES_ORDER: [&str; 14] = [
    "van p50",
    "van p95",
    "van p99",
    "irs p50",
    "irs p95",
    "irs p99",
    "van victim p95",
    "irs victim p95",
    "van attack p50",
    "irs attack p50",
    "van req-trunc",
    "irs req-trunc",
    "irs sa-timeout",
    "rejected",
];

/// Adds one cell's column to the per-mix series set.
fn add_cell_points(series: &mut BTreeMap<&'static str, Series>, col: &str, cell: &CellOutcome) {
    let mut point = |name: &'static str, v: f64| {
        series
            .entry(name)
            .or_insert_with(|| Series::new(name))
            .point(col.to_string(), v);
    };
    let (van_p50, van_p95, van_p99, _) = dist(&cell.arms[0].honest);
    let (irs_p50, irs_p95, irs_p99, _) = dist(&cell.arms[1].honest);
    point("van p50", van_p50);
    point("van p95", van_p95);
    point("van p99", van_p99);
    point("irs p50", irs_p50);
    point("irs p95", irs_p95);
    point("irs p99", irs_p99);
    if !cell.arms[0].victim.is_empty() || !cell.arms[1].victim.is_empty() {
        point("van victim p95", percentile(&cell.arms[0].victim, 95.0));
        point("irs victim p95", percentile(&cell.arms[1].victim, 95.0));
        point("van attack p50", percentile(&cell.arms[0].attacker, 50.0));
        point("irs attack p50", percentile(&cell.arms[1].attacker, 50.0));
    }
    point("van req-trunc", cell.arms[0].requests_truncated as f64);
    point("irs req-trunc", cell.arms[1].requests_truncated as f64);
    point("irs sa-timeout", cell.arms[1].sa_timeouts as f64);
    point("rejected", cell.rejected as f64);
}

/// Runs the whole campaign and assembles the SLO tables.
///
/// # Panics
///
/// Panics if the fleet has no hosts, or when `spec.assert_contract` is
/// set and any cell violates the fleet degradation contract (that's the
/// point).
pub fn run_campaign(spec: &CampaignSpec) -> FleetReport {
    assert!(
        spec.fleet.hosts >= 1,
        "run_campaign: `fleet.hosts` must be at least 1, got 0"
    );
    assert!(!spec.policies.is_empty() && !spec.mixes.is_empty());
    let cfg = &spec.fleet;
    let solo = solo_rates(cfg);
    // One memo for the whole campaign: compositions repeat across epochs
    // *and* cells (a host's scenario ignores policy, mix, and
    // overcommit), so cross-cell reuse is sound and frequent.
    let mut cache = ForkCache::default();
    let mut report = FleetReport {
        tables: Vec::new(),
        fork_warmup_saved: 0,
        events_elided: 0,
        events: 0,
        host_runs: 0,
        runs_elided: 0,
        hosts_carried: 0,
        tenants_placed: 0,
        tenants_rejected: 0,
        cache: ForkCacheStats::default(),
        accounting: Table::new(
            "Fleet incremental accounting — logical vs executed simulation volume",
        ),
    };
    /// Logical-vs-executed totals for one accounting column.
    #[derive(Default)]
    struct ColTotals {
        runs: u64,
        runs_elided: u64,
        carried: u64,
        events: u64,
        warmup_saved: u64,
        events_elided: u64,
    }
    let mut acct_cols: Vec<(String, ColTotals)> = Vec::new();
    let absorb = |report: &mut FleetReport, col: &mut ColTotals, cell: &CellOutcome| {
        let events = cell.arms.iter().map(|a| a.events).sum::<u64>();
        let runs = cell.arms.iter().map(|a| a.runs).sum::<usize>();
        report.fork_warmup_saved += cell.fork_warmup_saved;
        report.events_elided += cell.events_elided;
        report.events += events;
        report.host_runs += runs;
        report.runs_elided += cell.runs_elided;
        report.hosts_carried += cell.hosts_carried;
        report.tenants_placed += cell.placed;
        report.tenants_rejected += cell.rejected;
        col.runs += runs as u64;
        col.runs_elided += cell.runs_elided;
        col.carried += cell.hosts_carried;
        col.events += events;
        col.warmup_saved += cell.fork_warmup_saved;
        col.events_elided += cell.events_elided;
    };

    for mix in &spec.mixes {
        let mut series: BTreeMap<&'static str, Series> = BTreeMap::new();
        let mut col = ColTotals::default();
        for policy in &spec.policies {
            let cell = run_cell(cfg, *policy, mix, &solo, &mut cache);
            if spec.assert_contract {
                assert_cell_contract(&format!("{}/{}", policy.label(), mix.name), &cell.arms);
            }
            add_cell_points(&mut series, policy.label(), &cell);
            absorb(&mut report, &mut col, &cell);
        }
        acct_cols.push((mix.name.to_string(), col));
        let mut table = Table::new(format!(
            "Fleet SLO — honest-tenant slowdown vs solo ({} mix, {} hosts, oc {:.2}, {} epochs)",
            mix.name, cfg.hosts, cfg.overcommit, cfg.epochs
        ));
        for name in SERIES_ORDER {
            if let Some(s) = series.remove(name) {
                table.add(s);
            }
        }
        report.tables.push(table);
    }

    if !spec.overcommit_sweep.is_empty() {
        let policy = spec.policies[0];
        let mix = spec.mixes[spec.mixes.len() - 1];
        let mut table = Table::new(format!(
            "Fleet SLO vs overcommit ({} policy, {} mix, {} hosts)",
            policy.label(),
            mix.name,
            cfg.hosts
        ));
        let mut series: BTreeMap<&'static str, Series> = BTreeMap::new();
        let mut col = ColTotals::default();
        for &oc in &spec.overcommit_sweep {
            let cell_cfg = FleetConfig {
                overcommit: oc,
                ..cfg.clone()
            };
            // A host's scenario ignores overcommit (it only moves
            // placement capacity), so the sweep shares the same cache.
            let cell = run_cell(&cell_cfg, policy, &mix, &solo, &mut cache);
            if spec.assert_contract {
                assert_cell_contract(&format!("{}/{}/oc{oc:.2}", policy.label(), mix.name), &cell.arms);
            }
            add_cell_points(&mut series, &format!("oc {oc:.2}"), &cell);
            absorb(&mut report, &mut col, &cell);
        }
        acct_cols.push(("oc sweep".to_string(), col));
        for name in SERIES_ORDER {
            if let Some(s) = series.remove(name) {
                table.add(s);
            }
        }
        report.tables.push(table);
    }

    type AcctRow = (&'static str, fn(&ColTotals) -> f64);
    const ACCT_ROWS: [AcctRow; 8] = [
        ("host runs", |c| c.runs as f64),
        ("runs executed", |c| (c.runs - c.runs_elided) as f64),
        ("runs elided", |c| c.runs_elided as f64),
        ("hosts carried", |c| c.carried as f64),
        ("events (logical)", |c| c.events as f64),
        ("events executed", |c| {
            (c.events - c.warmup_saved - c.events_elided) as f64
        }),
        ("warmup saved", |c| c.warmup_saved as f64),
        ("events elided", |c| c.events_elided as f64),
    ];
    for (name, project) in ACCT_ROWS {
        let mut s = Series::new(name);
        for (col, totals) in &acct_cols {
            s.point(col.clone(), project(totals));
        }
        report.accounting.add(s);
    }
    report.cache = cache.stats();

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_caps_and_guards() {
        assert_eq!(slowdown(0.0, 1.0), 1.0);
        assert_eq!(slowdown(1e9, 0.0), SLOWDOWN_CAP);
        assert!((slowdown(2.0, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn comp_seed_depends_on_every_coordinate() {
        let a = comp_seed(1, 0, &[0, 1]);
        assert_ne!(a, comp_seed(2, 0, &[0, 1]));
        assert_ne!(a, comp_seed(1, 1, &[0, 1]));
        assert_ne!(a, comp_seed(1, 0, &[1, 1]));
    }

    #[test]
    fn memo_keys_keep_the_arms_apart() {
        // The key takes no seed, so this holds at every fleet seed, and
        // also where both arms run one shared scenario seed.
        let comps: [&[u8]; 5] = [&[], &[0], &[0, 1], &[1, 1, 2], &[0, 0, 0, 0]];
        for (i, a) in comps.iter().enumerate() {
            assert_ne!(memo_key(0, a), memo_key(1, a), "arms alias on {a:?}");
            for b in &comps[i + 1..] {
                assert_ne!(memo_key(0, a), memo_key(0, b), "{a:?} aliases {b:?}");
            }
        }
    }

    #[test]
    fn capacity_rounds_from_overcommit() {
        let cfg = FleetConfig {
            host_pcpus: 4,
            overcommit: 1.5,
            ..FleetConfig::default()
        };
        assert_eq!(cfg.capacity_vcpus(), 6);
    }

    #[test]
    #[should_panic(expected = "`fleet.hosts` must be at least 1")]
    fn campaign_rejects_an_empty_fleet() {
        run_campaign(&CampaignSpec {
            fleet: FleetConfig {
                hosts: 0,
                ..FleetConfig::default()
            },
            policies: vec![PlacementPolicy::FirstFit],
            mixes: vec![AdversaryMix::CLEAN],
            overcommit_sweep: vec![],
            assert_contract: false,
        });
    }
}
