//! Figure 8: multi-threaded server workloads (§5.3) — SPECjbb-like
//! closed-loop throughput/latency and ab-like open-loop tail latency,
//! improvement of IRS over vanilla under 1–4 CPU hogs.

use crate::{mean_pair, Opts};
use irs_core::{runner, Scenario, Strategy, System, VmScenario};
use irs_metrics::{improvement_pct, Series, Table};
use irs_sim::SimTime;
use irs_workloads::presets;

/// Measurement horizon for the server runs.
pub const HORIZON: SimTime = SimTime::from_secs(10);

fn specjbb_scenario(n_inter: usize, strategy: Strategy, seed: u64) -> Scenario {
    Scenario::new(4, strategy, seed)
        .vm(VmScenario::new(presets::server::specjbb(4), 4)
            .pin_one_to_one()
            .measured())
        .vm(VmScenario::new(presets::hog::cpu_hogs(n_inter), 4).pin_one_to_one())
        .horizon(HORIZON)
}

fn ab_scenario(n_inter: usize, strategy: Strategy, seed: u64) -> Scenario {
    // 512 worker threads (MaxClient), open loop at 45% of 4-vCPU capacity —
    // stable even at 4-inter, where the VM's effective capacity halves.
    Scenario::new(4, strategy, seed)
        .vm(VmScenario::new(presets::server::apache_ab(512, 4, 0.45), 4)
            .pin_one_to_one()
            .measured())
        .vm(VmScenario::new(presets::hog::cpu_hogs(n_inter), 4).pin_one_to_one())
        .horizon(HORIZON)
}

/// Fig 8: throughput and latency improvement of IRS over vanilla for
/// specjbb and ab (99th-percentile latency), under 1–4 hogs, followed by
/// the raw numbers of both strategies (useful for EXPERIMENTS.md).
///
/// Both tables read one batch: every (server × strategy × n_inter) cell
/// runs once, keeping its throughput (rps) and p99 latency (µs).
pub fn fig8(opts: Opts) -> Vec<Table> {
    let servers = ["specjbb", "ab"];
    let makes: [fn(usize, Strategy, u64) -> Scenario; 2] = [specjbb_scenario, ab_scenario];
    let strategies = [Strategy::Vanilla, Strategy::Irs];
    let mut ctors = Vec::new();
    for make in makes {
        for strategy in strategies {
            for n_inter in 1..=4usize {
                ctors.push(move |seed| System::new(make(n_inter, strategy, seed)));
            }
        }
    }
    let cells: Vec<(f64, f64)> = runner::grid(opts.base_seed, opts.seeds, opts.jobs, &ctors, |r| {
        let m = r.measured();
        (m.throughput_rps(r.elapsed), m.latency_percentile_us(99.0))
    })
    .iter()
    .map(|runs| mean_pair(runs))
    .collect();
    // Cell of (server, strategy, n_inter), in batch order.
    let cell = |server: usize, strategy: usize, n_inter: usize| {
        cells[(server * strategies.len() + strategy) * 4 + n_inter - 1]
    };

    let mut gains =
        Table::new("Fig 8 — improvement on server throughput and latency (IRS vs vanilla, %)");
    for (si, name) in servers.iter().enumerate() {
        let mut thr = Series::new(format!("{name} throughput"));
        let mut lat = Series::new(format!("{name} latency (99th)"));
        for n_inter in 1..=4usize {
            let label = format!("{n_inter}-inter.");
            let (thr_v, p99_v) = cell(si, 0, n_inter);
            let (thr_i, p99_i) = cell(si, 1, n_inter);
            // Throughput is a benefit metric: improvement = (new-old)/old.
            thr.point(label.clone(), (thr_i - thr_v) / thr_v * 100.0);
            lat.point(label, improvement_pct(p99_v, p99_i));
        }
        gains.add(thr);
        gains.add(lat);
    }

    let mut raw = Table::new("Fig 8 (raw) — server numbers per strategy");
    for (si, name) in servers.iter().enumerate() {
        for (ki, strategy) in strategies.iter().enumerate() {
            let mut thr = Series::new(format!("{name} {strategy} thr (rps)"));
            let mut lat = Series::new(format!("{name} {strategy} lat (us)"));
            for n_inter in 1..=4usize {
                let label = format!("{n_inter}-inter.");
                let (t, p99) = cell(si, ki, n_inter);
                thr.point(label.clone(), t);
                lat.point(label, p99);
            }
            raw.add(thr);
            raw.add(lat);
        }
    }
    vec![gains, raw]
}
