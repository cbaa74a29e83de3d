//! The three workloads: their inputs (generated from the seed), the
//! library pass (the library's figure/campaign functions, each call
//! timed) whose tables are checked, and the re-derived pass that drives
//! the same public scenario constructors itself, spans each layer call
//! when tracing, and counts each layer's work.

use crate::check::{Counts, Output};
use crate::trace::Recorder;
use irs_bench::fig5_6::{self, Interference};
use irs_bench::{fig12_13, serving, Opts, STRATEGIES};
use irs_core::{RunResult, Scenario, Strategy, System, SystemConfig, VmScenario};
use irs_fleet::{CampaignSpec, FleetReport, TenantKind};
use irs_metrics::{percentile, Series, Summary, Table};
use irs_sim::SimTime;
use irs_workloads::presets;
use std::collections::BTreeMap;
use std::time::Instant;

/// The seed whose tables are committed as references.
pub const REFERENCE_SEED: u64 = 1;
/// Seeded repetitions per data point (the `figures` default).
const SEEDS: u64 = 3;
/// Fleet size of the `fleet` workload.
pub const FLEET_HOSTS: usize = 1000;
/// Virtual-time chunk the traced step loop advances a system by; every
/// `STEP_SAMPLE_EVERY`-th chunk is timed, so clock reads stay a small
/// share of the ~100 ns steps they bracket.
const STEP_CHUNK: SimTime = SimTime::from_millis(1);
const STEP_SAMPLE_EVERY: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Serving,
    Fleet,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "paper" => Some(Workload::Paper),
            "serving" => Some(Workload::Serving),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Serving => "serving",
            Workload::Fleet => "fleet",
        }
    }

    /// Reference CSV of each output table at [`REFERENCE_SEED`], relative
    /// to the checkout root, in pass order.
    pub fn references(self) -> &'static [&'static str] {
        match self {
            Workload::Paper => &[
                "results_csv/fig5_0.csv",
                "results_csv/fig6_0.csv",
                "results_csv/fig13.csv",
            ],
            Workload::Serving => &["results_csv/serving.csv"],
            Workload::Fleet => &[
                "perfbench/reference/fleet1000_0.csv",
                "perfbench/reference/fleet1000_1.csv",
                "perfbench/reference/fleet1000_2.csv",
                "perfbench/reference/fleet1000_3.csv",
                "perfbench/reference/fleet1000_4.csv",
                "perfbench/reference/fleet1000_5.csv",
                "perfbench/reference/fleet1000_accounting.csv",
            ],
        }
    }
}

/// Everything a pass needs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub opts: Opts,
    /// The campaign spec (fleet only).
    pub spec: Option<CampaignSpec>,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let opts = Opts {
            seeds: SEEDS,
            base_seed: seed,
            jobs: 1,
        };
        // The degradation contract is a reproduction claim checked at the
        // reference seed; at 1000 hosts it does not hold for every seed
        // (seeds 5, 6, 7, 14 and 22 of 0..30 break it), so elsewhere the
        // tables are checked pass against pass instead.
        let spec = (workload == Workload::Fleet).then(|| CampaignSpec {
            assert_contract: seed == REFERENCE_SEED,
            ..irs_bench::fleet::spec(opts, false, Some(FLEET_HOSTS))
        });
        Inputs {
            workload,
            opts,
            spec,
        }
    }

    fn spec(&self) -> &CampaignSpec {
        self.spec
            .as_ref()
            .expect("fleet inputs carry a campaign spec")
    }
}

/// What one library pass produced.
#[derive(Debug)]
pub struct LibraryPass {
    pub tables: Vec<Output>,
    /// Logical simulated events, when the library reports them.
    pub events: Option<u64>,
    pub counts: Counts,
    /// Wall seconds of each library call, in pass order.
    pub unit_walls: Vec<f64>,
}

/// Runs `f`, appending its wall seconds to `walls`.
fn timed<T>(walls: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    walls.push(t.elapsed().as_secs_f64());
    out
}

/// One pass through the library's public figure/campaign functions, each
/// call timed: `fig5`, `fig6` and `fig13` on `paper`, `serving` on
/// `serving`, `run_campaign` on `fleet`.
pub fn library_pass(inp: &Inputs) -> LibraryPass {
    let opts = inp.opts;
    let mut walls = Vec::new();
    match inp.workload {
        Workload::Paper => {
            let tables = [
                timed(&mut walls, || fig5_6::fig5(opts, Interference::Micro)),
                timed(&mut walls, || fig5_6::fig6(opts, Interference::Micro)),
                timed(&mut walls, || fig12_13::fig13(opts)),
            ];
            LibraryPass {
                tables: tables.iter().map(Output::of).collect(),
                events: None,
                counts: Counts::new(),
                unit_walls: walls,
            }
        }
        Workload::Serving => {
            let o = timed(&mut walls, || serving::serving(opts, false));
            LibraryPass {
                tables: vec![Output::of(&o.table)],
                events: Some(o.events),
                counts: [
                    ("serving.events", o.events),
                    ("serving.requests", o.requests),
                    ("serving.runs", o.runs as u64),
                ]
                .into_iter()
                .collect(),
                unit_walls: walls,
            }
        }
        Workload::Fleet => {
            let r = timed(&mut walls, || irs_fleet::run_campaign(inp.spec()));
            LibraryPass {
                tables: fleet_tables(&r),
                events: Some(r.events),
                counts: fleet_counts(&r),
                unit_walls: walls,
            }
        }
    }
}

fn fleet_tables(r: &FleetReport) -> Vec<Output> {
    r.tables
        .iter()
        .chain(std::iter::once(&r.accounting))
        .map(Output::of)
        .collect()
}

fn fleet_counts(r: &FleetReport) -> Counts {
    [
        ("fleet.host_runs", r.host_runs as u64),
        ("fleet.runs_elided", r.runs_elided),
        ("fleet.hosts_carried", r.hosts_carried),
        ("fleet.events_logical", r.events),
        ("fleet.events_executed", executed(r)),
        ("fleet.tenants_placed", r.tenants_placed),
        ("fleet.tenants_rejected", r.tenants_rejected),
        ("runner.fork_warmup_saved", r.fork_warmup_saved),
        ("cache.result_hits", r.cache.result_hits),
        ("cache.snapshot_hits", r.cache.snapshot_hits),
        ("cache.misses", r.cache.misses),
        ("cache.evictions", r.cache.evictions),
        ("cache.resident_bytes", r.cache.resident_bytes as u64),
    ]
    .into_iter()
    .collect()
}

fn executed(r: &FleetReport) -> u64 {
    r.events
        .saturating_sub(r.fork_warmup_saved)
        .saturating_sub(r.events_elided)
}

/// Exact work counts summed over every run a derived pass drove.
#[derive(Debug, Default, Clone)]
struct Tally {
    runs: u64,
    steps: u64,
    virtual_ns: u64,
    hv: [u64; 10],
    guest: [u64; 5],
    requests: u64,
    truncated: u64,
    lhp: u64,
    lwp: u64,
    steal_ns: u64,
    cpu_ns: u64,
    /// Timed step chunks (traced passes only).
    sampled_steps: u64,
    sampled_ns: u64,
}

const HV_NAMES: [&str; 10] = [
    "xen.schedules",
    "xen.preemptions",
    "xen.wakes",
    "xen.boosts",
    "xen.vcpu_migrations",
    "xen.ple_exits",
    "xen.co_parks",
    "xen.sa_sent",
    "xen.sa_acked",
    "xen.sa_timeouts",
];
const GUEST_NAMES: [&str; 5] = [
    "guest.context_switches",
    "guest.wakeups",
    "guest.migrations",
    "guest.sa_upcalls",
    "guest.idle_blocks",
];

impl Tally {
    fn absorb(&mut self, r: &RunResult) {
        self.runs += 1;
        self.steps += r.events;
        self.virtual_ns += r.elapsed.as_nanos();
        let h = &r.hv;
        let hv = [
            h.schedules,
            h.preemptions,
            h.wakes,
            h.boosts,
            h.vcpu_migrations,
            h.ple_exits,
            h.co_parks,
            h.sa_sent,
            h.sa_acked,
            h.sa_timeouts,
        ];
        for (a, b) in self.hv.iter_mut().zip(hv) {
            *a += b;
        }
        for vm in &r.vms {
            let g = &vm.guest;
            let guest = [
                g.context_switches,
                g.wakeups,
                g.push_migrations
                    + g.pull_migrations
                    + g.wake_migrations
                    + g.sa_migrations
                    + g.stopper_migrations,
                g.sa_upcalls,
                g.idle_blocks,
            ];
            for (a, b) in self.guest.iter_mut().zip(guest) {
                *a += b;
            }
            self.requests += vm.requests;
            self.truncated += vm.requests_truncated;
            self.lhp += vm.lhp;
            self.lwp += vm.lwp;
            self.steal_ns += vm.steal_time.as_nanos();
            self.cpu_ns += vm.cpu_time.as_nanos();
        }
    }

    fn counts(&self) -> Counts {
        let mut c: Counts = [
            ("system.step_count", self.steps),
            ("system.virtual_ns", self.virtual_ns),
            ("scenario.count", self.runs),
            ("system.boot_count", self.runs),
            ("workloads.requests", self.requests),
            ("workloads.requests_truncated", self.truncated),
            ("workloads.lhp", self.lhp),
            ("workloads.lwp", self.lwp),
            ("workloads.steal_ns", self.steal_ns),
            ("workloads.cpu_ns", self.cpu_ns),
        ]
        .into_iter()
        .collect();
        c.extend(HV_NAMES.iter().copied().zip(self.hv));
        c.extend(GUEST_NAMES.iter().copied().zip(self.guest));
        c
    }

    /// Builds, boots and runs one scenario, spanning each layer call.
    fn run(
        &mut self,
        rec: &mut Recorder,
        label: impl Fn() -> String,
        make: impl FnOnce() -> Scenario,
    ) -> RunResult {
        let scenario = rec.span("scenario.build", &label, |_| make());
        let sys = rec.span("system.boot", &label, |_| {
            System::with_config(scenario, SystemConfig::default())
        });
        let r = if rec.enabled() {
            rec.span("system.run", &label, |_| self.drive(sys))
        } else {
            sys.run()
        };
        self.absorb(&r);
        r
    }

    /// Runs `sys` to completion in virtual-time chunks, timing every
    /// `STEP_SAMPLE_EVERY`-th chunk. `run_until` checks completion before
    /// every step, so chunked driving reaches exactly the state `run`
    /// would (the prefix/suffix contract snapshots rely on).
    fn drive(&mut self, mut sys: System) -> RunResult {
        let mut until = sys.now();
        let mut chunk = 0u64;
        loop {
            until += STEP_CHUNK;
            let more = if chunk.is_multiple_of(STEP_SAMPLE_EVERY) {
                let before = sys.events_processed();
                let t = Instant::now();
                let more = sys.run_until(until);
                self.sampled_ns += t.elapsed().as_nanos() as u64;
                self.sampled_steps += sys.events_processed() - before;
                more
            } else {
                sys.run_until(until)
            };
            chunk += 1;
            if !more {
                return sys.run();
            }
        }
    }
}

/// What one re-derived pass produced.
#[derive(Debug)]
pub struct Derived {
    pub tables: Vec<Output>,
    pub counts: Counts,
    /// Per-layer metrics (times from this pass's spans; counts as f64).
    pub layers: BTreeMap<&'static str, f64>,
    /// Logical simulated events of one pass.
    pub events: u64,
    /// Snapshot probe failure, if any (fleet only).
    pub probe_error: Option<String>,
    /// Wall seconds of the pass's workload — the same work a library pass
    /// does, so the two compare — excluding the fleet's snapshot probe.
    pub pass_s: f64,
}

/// One pass that re-derives the workload's tables from the public
/// scenario constructors (paper, serving) or calls the campaign under a
/// span (fleet), tallying every layer's exact work counts. With a
/// recording `rec`, each layer call is spanned and steps are sampled.
pub fn derived_pass(inp: &Inputs, rec: &mut Recorder) -> Derived {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut layers = BTreeMap::new();
    let mut probe_error = None;
    let pass_s;
    let (tables, counts, events) = match inp.workload {
        Workload::Paper => {
            let tables = paper_tables(inp.opts, rec, &mut tally);
            pass_s = start.elapsed().as_secs_f64();
            (
                tables.iter().map(Output::of).collect(),
                tally.counts(),
                tally.steps,
            )
        }
        Workload::Serving => {
            let table = serving_table(inp.opts, rec, &mut tally);
            pass_s = start.elapsed().as_secs_f64();
            (vec![Output::of(&table)], tally.counts(), tally.steps)
        }
        Workload::Fleet => {
            let spec = inp.spec();
            let r = rec.span(
                "fleet.campaign",
                || format!("{FLEET_HOSTS} hosts"),
                |_| irs_fleet::run_campaign(spec),
            );
            pass_s = start.elapsed().as_secs_f64();
            let mut counts = fleet_counts(&r);
            counts.insert("system.step_count", executed(&r));
            let logical_virtual_ns = r.host_runs as u64 * spec.fleet.epoch_horizon.as_nanos();
            counts.insert("system.virtual_ns", logical_virtual_ns);
            layers.insert("fleet.campaign_s", rec.total_s("fleet.campaign"));
            layers.insert(
                "fleet.elision_ratio",
                r.events as f64 / executed(&r).max(1) as f64,
            );
            layers.insert("cache.hit_rate", r.cache.hit_rate().max(0.0));
            layers.insert(
                "cache.resident_mb",
                r.cache.resident_bytes as f64 / (1 << 20) as f64,
            );
            if rec.enabled() {
                match snapshot_probe(&spec.fleet, inp.opts.base_seed, rec, &mut tally) {
                    Ok(p) => layers.extend(p),
                    Err(e) => probe_error = Some(e),
                }
            }
            (fleet_tables(&r), counts, r.events)
        }
    };
    for (k, v) in &counts {
        layers.insert(k, *v as f64);
    }
    let virtual_s = counts.get("system.virtual_ns").copied().unwrap_or(0) as f64 / 1e9;
    layers.insert("system.virtual_s", virtual_s);
    let steps = counts.get("system.step_count").copied().unwrap_or(0) as f64;
    layers.insert("system.events_per_virtual_s", ratio(steps, virtual_s));
    layers.insert(
        "system.step_ns",
        ratio(tally.sampled_ns as f64, tally.sampled_steps as f64),
    );
    layers.insert("scenario.build_s", rec.total_s("scenario.build"));
    layers.insert("system.boot_s", rec.total_s("system.boot"));
    layers.insert("system.run_s", rec.total_s("system.run"));
    layers.insert("metrics.aggregate_s", rec.total_s("metrics.aggregate"));
    // On fleet the tally holds only the snapshot probe's host.
    if inp.workload != Workload::Fleet {
        layers.insert(
            "xen.sa_ack_ratio",
            ratio(tally.hv[8] as f64, tally.hv[7] as f64),
        );
        layers.insert(
            "workloads.steal_frac",
            ratio(
                tally.steal_ns as f64,
                (tally.steal_ns + tally.cpu_ns) as f64,
            ),
        );
    }
    Derived {
        tables,
        counts,
        layers,
        events,
        probe_error,
        pass_s,
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

// ----------------------------------------------------------------------
// paper: Fig 5 and Fig 6 micro-benchmark panels, Fig 13
// ----------------------------------------------------------------------

const FIG5_TITLE: &str = "Fig 5 — improvement on PARSEC performance (blocking)";
const FIG6_TITLE: &str = "Fig 6 — improvement on NPB performance (spinning)";
const FIG13_TITLE: &str =
    "Fig 13 — PARSEC performance in response to CPU stacking (improvement %, unpinned, 4-inter)";

/// Seed-averaged makespan (ms) of `make`, as `grid_mean_makespans` forms it.
fn mean_makespan(
    opts: Opts,
    rec: &mut Recorder,
    tally: &mut Tally,
    label: &str,
    make: impl Fn(u64) -> Scenario,
) -> f64 {
    let samples: Vec<f64> = (0..opts.seeds)
        .map(|i| {
            let seed = opts.base_seed + i;
            tally
                .run(rec, || format!("{label} seed {seed}"), || make(seed))
                .measured()
                .makespan_ms()
        })
        .collect();
    Summary::of(&samples).mean
}

fn paper_tables(opts: Opts, rec: &mut Recorder, tally: &mut Tally) -> Vec<Table> {
    let mut tables = Vec::new();
    for (title, benches) in [
        (FIG5_TITLE, &presets::PARSEC_NAMES[..]),
        (FIG6_TITLE, &presets::NPB_NAMES[..]),
    ] {
        // Cell order of `improvement_panel`: n_inter, then vanilla and each
        // strategy, then benchmark.
        let mut means = Vec::new();
        for n in [1usize, 2, 4] {
            for s in std::iter::once(Strategy::Vanilla).chain(STRATEGIES) {
                for &b in benches {
                    let label = format!("{b} {n}-inter {s}");
                    means.push(mean_makespan(opts, rec, tally, &label, |seed| {
                        Scenario::fig5_style(b, n, s, seed)
                    }));
                }
            }
        }
        let table = rec.span(
            "metrics.aggregate",
            || title.to_string(),
            |_| {
                let mut table = Table::new(format!("{title} ({})", Interference::Micro.label()));
                let nb = benches.len();
                let block = (1 + STRATEGIES.len()) * nb;
                for (gi, n) in [1usize, 2, 4].into_iter().enumerate() {
                    for (si, s) in STRATEGIES.into_iter().enumerate() {
                        let mut series = Series::new(format!("{n}-inter. {s}"));
                        for (bi, &b) in benches.iter().enumerate() {
                            let vanilla = means[gi * block + bi];
                            let variant = means[gi * block + (si + 1) * nb + bi];
                            series.point(b, irs_metrics::improvement_pct(vanilla, variant));
                        }
                        table.add(series);
                    }
                }
                table
            },
        );
        tables.push(table);
    }
    // Fig 13: `stacking_panel` runs a fresh vanilla baseline per strategy.
    let mut pairs = Vec::new();
    for s in STRATEGIES {
        for &b in &presets::PARSEC_NAMES {
            let base = mean_makespan(opts, rec, tally, &format!("{b} unpinned vanilla"), |seed| {
                fig12_13::unpinned_scenario(b, Strategy::Vanilla, seed)
            });
            let var = mean_makespan(opts, rec, tally, &format!("{b} unpinned {s}"), |seed| {
                fig12_13::unpinned_scenario(b, s, seed)
            });
            pairs.push((base, var));
        }
    }
    let fig13 = rec.span(
        "metrics.aggregate",
        || "fig13".into(),
        |_| {
            let mut table = Table::new(FIG13_TITLE);
            let mut it = pairs.iter();
            for s in STRATEGIES {
                let mut series = Series::new(format!("{s}"));
                for &b in &presets::PARSEC_NAMES {
                    let (base, var) = it.next().expect("one pair per strategy and benchmark");
                    series.point(b, irs_metrics::improvement_pct(*base, *var));
                }
                table.add(series);
            }
            table
        },
    );
    tables.push(fig13);
    tables
}

// ----------------------------------------------------------------------
// serving: the full open-loop serving campaign
// ----------------------------------------------------------------------

const SERVING_INTERS: [usize; 4] = [0, 1, 2, 3];
const SERVING_ARMS: [(Strategy, &str); 2] = [(Strategy::Vanilla, "van"), (Strategy::Irs, "irs")];

fn serving_table(opts: Opts, rec: &mut Recorder, tally: &mut Tally) -> Table {
    let mut results = Vec::new();
    for &n in &SERVING_INTERS {
        for (s, arm) in SERVING_ARMS {
            for i in 0..opts.seeds {
                let seed = opts.base_seed + i;
                results.push(tally.run(
                    rec,
                    || format!("{n}-inter {arm} seed {seed}"),
                    || serving::serving_scenario(n, s, seed, serving::HORIZON),
                ));
            }
        }
    }
    // Same aggregation as `serving::serving`: pooled-latency percentiles,
    // mean goodput, total truncated tail per cell.
    rec.span(
        "metrics.aggregate",
        || "serving".into(),
        |_| {
            let mut table = Table::new(format!(
                "Serving SLO — open-loop two-tier service latency (µs) under CPU-hog \
             interference ({:.0} s horizon, load {}, {} seed(s))",
                serving::HORIZON.as_secs_f64(),
                serving::OFFERED_LOAD,
                opts.seeds,
            ));
            let mut series: Vec<Series> = ["p50", "p99", "p999", "goodput rps", "req-trunc"]
                .iter()
                .flat_map(|m| {
                    SERVING_ARMS
                        .iter()
                        .map(move |(_, a)| Series::new(format!("{a} {m}")))
                })
                .collect();
            let per = opts.seeds as usize;
            for (ci, &n) in SERVING_INTERS.iter().enumerate() {
                let col = format!("{n}-inter.");
                for arm in 0..SERVING_ARMS.len() {
                    let cell = &results[(ci * SERVING_ARMS.len() + arm) * per..][..per];
                    let mut lat: Vec<f64> = Vec::new();
                    let mut goodput: Vec<f64> = Vec::new();
                    let mut trunc = 0u64;
                    for r in cell {
                        let m = r.measured();
                        lat.extend_from_slice(&m.latencies_us);
                        goodput.push(m.throughput_rps(r.elapsed));
                        trunc += m.requests_truncated;
                    }
                    let vals = [
                        percentile(&lat, 50.0),
                        percentile(&lat, 99.0),
                        percentile(&lat, 99.9),
                        Summary::of(&goodput).mean,
                        trunc as f64,
                    ];
                    for (mi, v) in vals.into_iter().enumerate() {
                        series[mi * SERVING_ARMS.len() + arm].point(col.clone(), v);
                    }
                }
            }
            for s in series {
                table.add(s);
            }
            table
        },
    )
}

// ----------------------------------------------------------------------
// fleet: a fleet-shaped host for the snapshot probe
// ----------------------------------------------------------------------

/// A host like the campaign's: unpinned tenants on `host_pcpus`, honest
/// tenants SA-capable where the strategy allows.
fn fleet_host(
    cfg: &irs_fleet::FleetConfig,
    strategy: Strategy,
    seed: u64,
    kinds: &[TenantKind],
) -> Scenario {
    let mut s = Scenario::new(cfg.host_pcpus, strategy, seed).horizon(cfg.epoch_horizon);
    for &kind in kinds {
        let mut vm = VmScenario::new(kind.bundle(cfg.tenant_vcpus), cfg.tenant_vcpus);
        if !kind.is_adversarial() && strategy.sa_capable_guest() {
            vm = vm.irs_guest(true);
        }
        s = s.vm(vm);
    }
    s
}

/// Snapshot repetitions; the fastest is reported.
const PROBE_REPS: usize = 16;

/// Times `System::snapshot` and `Snapshot::resume` on a full fleet host
/// at the campaign's warmup instant, and checks that the resumed run and
/// the snapshotted system itself both finish exactly as a scratch run.
fn snapshot_probe(
    cfg: &irs_fleet::FleetConfig,
    seed: u64,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let kinds = [
        TenantKind::BarrierBatch,
        TenantKind::LatencyServer,
        TenantKind::BoostGamer,
    ];
    let make = || fleet_host(cfg, Strategy::Irs, seed, &kinds);
    let scratch = tally.run(rec, || "probe scratch".into(), make);
    let mut sys = rec.span(
        "system.boot",
        || "probe".into(),
        |_| System::with_config(make(), SystemConfig::default()),
    );
    sys.run_until(cfg.warmup);
    let mut take_ns = u64::MAX;
    let mut resume_ns = u64::MAX;
    let mut snap = None;
    let mut resumed = None;
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        let s = rec.span("snapshot.take", String::new, |_| sys.snapshot());
        take_ns = take_ns.min(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let r = rec.span("snapshot.resume", String::new, |_| s.resume());
        resume_ns = resume_ns.min(t.elapsed().as_nanos() as u64);
        snap = Some(s);
        resumed = Some(r);
    }
    let snap = snap.expect("at least one repetition");
    let want = format!("{scratch:?}");
    let forked = format!("{:?}", resumed.expect("at least one repetition").run());
    let original = format!("{:?}", sys.run());
    if forked != want || original != want {
        return Err("snapshot probe: resumed or snapshotted run differs from scratch".into());
    }
    Ok([
        ("snapshot.take_ns", take_ns as f64),
        ("snapshot.resume_ns", resume_ns as f64),
        ("snapshot.bytes", snap.approx_bytes() as f64),
    ]
    .into_iter()
    .collect())
}
