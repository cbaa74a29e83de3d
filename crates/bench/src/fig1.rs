//! Figure 1: the motivating measurements.
//!
//! (a) LHP/LWP slow parallel programs down except under user-level load
//! balancing; (b) in-guest process migration latency grows by one
//! hypervisor scheduling delay per co-located VM.

use crate::Opts;
use irs_core::{Scenario, Strategy, System, VmScenario};
use irs_guest::TaskId;
use irs_metrics::{slowdown, Series, Summary, Table};
use irs_sim::SimTime;
use irs_sync::SyncSpace;
use irs_workloads::{presets, ProgramBuilder, WorkloadBundle};

/// Fig 1(a): slowdown of fluidanimate (blocking), ua (spinning), and
/// raytrace (work stealing) under one co-located CPU hog, relative to
/// running alone.
pub fn fig1a(opts: Opts) -> Table {
    let mut table = Table::new(
        "Fig 1(a) — performance slowdown under interference (relative to no interference)",
    );
    let benches = ["fluidanimate", "ua", "raytrace"];
    let mut ctors = Vec::new();
    for bench in benches {
        for solo in [true, false] {
            ctors.push(move |seed| {
                let mut s = Scenario::fig5_style(bench, 1, Strategy::Vanilla, seed);
                if solo {
                    s.vms.truncate(1); // drop the interfering VM
                }
                System::new(s)
            });
        }
    }
    let means = crate::mean_makespans(opts, &ctors);
    let mut none = Series::new("no interference");
    let mut with = Series::new("w/ interference");
    for (bi, bench) in benches.into_iter().enumerate() {
        none.point(bench, 1.0);
        with.point(bench, slowdown(means[2 * bi], means[2 * bi + 1]));
    }
    table.add(none);
    table.add(with);
    table
}

/// Builds the Fig 1(b) victim scenario: a 2-vCPU VM with one CPU-bound
/// task, vCPU0 contended by `n_vms` single-hog VMs.
fn fig1b_scenario(n_vms: usize, seed: u64) -> Scenario {
    let prog = ProgramBuilder::new()
        .forever(|b| b.compute_us(10_000, 0.0))
        .build();
    let victim = WorkloadBundle::interference("victim", vec![prog], SyncSpace::new(), 0.0);
    let mut s = Scenario::new(2, Strategy::Vanilla, seed)
        .vm(VmScenario::new(victim, 2)
            .pin(vec![irs_xen::PcpuId(0), irs_xen::PcpuId(1)])
            .measured())
        .horizon(SimTime::from_secs(60));
    for _ in 0..n_vms {
        s = s.vm(VmScenario::new(presets::hog::cpu_hogs(1), 1).pin(vec![irs_xen::PcpuId(0)]));
    }
    s
}

/// Measures the latency of migrating the victim's running task off the
/// contended vCPU, averaged over `rounds` migrations (paper: 30).
pub fn migration_latency_ms(n_vms: usize, seed: u64, rounds: usize) -> f64 {
    let mut sys = System::new(fig1b_scenario(n_vms, seed));
    let task = TaskId(0);
    // Reach steady state first.
    while sys.now() < SimTime::from_millis(100) {
        sys.step();
    }
    let mut samples = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // Park the task back on the contended vCPU0 if needed.
        if sys.guest(0).task(task).cpu != 0 {
            sys.migrate_task(0, task, 0);
            let deadline = sys.now() + SimTime::from_secs(1);
            while sys.guest(0).task(task).cpu != 0 && sys.now() < deadline {
                if !sys.step() {
                    break;
                }
            }
        }
        // De-phase rounds so they sample different slice and tick offsets
        // (an exactly tick-aligned request completes in the same instant).
        let settle = sys.now() + SimTime::from_micros(40_137 + round as u64 * 7_013 % 60_000);
        while sys.now() < settle {
            sys.step();
        }
        let t0 = sys.now();
        sys.migrate_task(0, task, 1);
        while sys.guest(0).task(task).cpu != 1 {
            if !sys.step() {
                break;
            }
        }
        samples.push((sys.now() - t0).as_nanos() as f64 / 1e6);
    }
    Summary::of(&samples).mean
}

/// Fig 1(b): process-migration latency versus number of co-located VMs
/// (paper: 1 ms alone, then 26.4 / 53.2 / 79.8 ms).
pub fn fig1b(opts: Opts) -> Table {
    let mut table = Table::new("Fig 1(b) — in-guest process migration latency (ms)");
    let mut series = Series::new("migration latency");
    for n_vms in 0..=3usize {
        let samples: Vec<f64> = (0..opts.seeds)
            .map(|i| migration_latency_ms(n_vms, opts.base_seed + i, 30))
            .collect();
        let label = match n_vms {
            0 => "alone".to_string(),
            n => format!("{n}VM"),
        };
        series.point(label, Summary::of(&samples).mean);
    }
    table.add(series);
    table
}
