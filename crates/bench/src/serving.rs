//! `figures serving` — the open-loop latency-SLO serving campaign.
//!
//! A two-tier request service ([`presets::server::serving_tiers`]) is
//! driven by deterministic open-loop Poisson arrivals and measured under
//! 0–3 CPU hogs, vanilla vs IRS. Because latency is anchored at each
//! request's *scheduled arrival instant*, the tail percentiles include
//! every microsecond the service fell behind its schedule (no
//! coordinated omission) — the metric a latency SLO is actually written
//! against. The table reports p50/p99/p999 service latency, goodput,
//! and the in-flight requests truncated at the horizon; it is
//! bit-identical for every `--jobs` value. `--smoke` shrinks the grid
//! and horizon for CI and asserts the same cell contracts.

use crate::Opts;
use irs_core::{runner, Scenario, Strategy, System, VmScenario};
use irs_metrics::{percentile, Series, Summary, Table};
use irs_sim::SimTime;
use irs_workloads::presets;
use std::time::Instant;

/// Measurement horizon of the full campaign.
pub const HORIZON: SimTime = SimTime::from_secs(10);
/// Measurement horizon of the `--smoke` variant.
pub const SMOKE_HORIZON: SimTime = SimTime::from_secs(2);

/// Offered load as a fraction of the slower tier's capacity.
pub const OFFERED_LOAD: f64 = 0.6;

/// The two strategy arms, in table-row order.
const ARMS: [(Strategy, &str); 2] = [(Strategy::Vanilla, "van"), (Strategy::Irs, "irs")];

/// Campaign outcome plus the wall-clock facts its summary reports.
#[derive(Debug, Clone)]
pub struct ServingOutcome {
    /// The latency-SLO table (p50/p99/p999, goodput, truncated tail).
    pub table: Table,
    /// Discrete events across all runs.
    pub events: u64,
    /// Individual simulated runs (cells × seeds).
    pub runs: usize,
    /// Completed requests across all runs.
    pub requests: u64,
    /// Wall-clock of the whole campaign, seconds.
    pub wall_s: f64,
}

/// The serving scenario: a 4-vCPU two-tier service pinned one-to-one,
/// sharing its pCPUs with `n_inter` pinned CPU hogs.
pub fn serving_scenario(
    n_inter: usize,
    strategy: Strategy,
    seed: u64,
    horizon: SimTime,
) -> Scenario {
    let s = Scenario::new(4, strategy, seed).vm(VmScenario::new(
        presets::server::serving_tiers(2, 2, OFFERED_LOAD),
        4,
    )
    .pin_one_to_one()
    .measured());
    let s = if n_inter == 0 {
        s
    } else {
        s.vm(VmScenario::new(presets::hog::cpu_hogs(n_inter), 4).pin_one_to_one())
    };
    s.horizon(horizon)
}

/// Runs the campaign grid — interference levels × both arms × seeds —
/// through one ordered fan-out, and assembles the SLO table.
///
/// # Panics
///
/// Panics if any cell completes no requests: every percentile in the
/// table is load-bearing, and a NaN cell here would mean the load
/// generator never ran.
pub fn serving(opts: Opts, smoke: bool) -> ServingOutcome {
    let (horizon, inters): (SimTime, Vec<usize>) = if smoke {
        (SMOKE_HORIZON, vec![0, 2])
    } else {
        (HORIZON, vec![0, 1, 2, 3])
    };

    // One constructor per (interference level, arm), in presentation
    // order. Each run keeps its measured VM's result, elapsed time and
    // event count; the rest of the `RunResult` is dropped in the worker.
    let mut ctors = Vec::new();
    for &n_inter in &inters {
        for (strategy, _) in ARMS {
            ctors.push(move |seed| System::new(serving_scenario(n_inter, strategy, seed, horizon)));
        }
    }
    let t = Instant::now();
    let cells = runner::grid(opts.base_seed, opts.seeds, opts.jobs, &ctors, |mut r| {
        let measured = r.vms.iter().position(|v| v.measured);
        let vm = r
            .vms
            .swap_remove(measured.expect("scenario had no measured VM"));
        (vm, r.elapsed, r.events)
    });
    let wall_s = t.elapsed().as_secs_f64();

    let mut table = Table::new(format!(
        "Serving SLO — open-loop two-tier service latency (µs) under CPU-hog \
         interference ({:.0} s horizon, load {OFFERED_LOAD}, {} seed(s))",
        horizon.as_secs_f64(),
        opts.seeds,
    ));
    let mut series: Vec<Series> = ["p50", "p99", "p999", "goodput rps", "req-trunc"]
        .iter()
        .flat_map(|m| {
            ARMS.iter()
                .map(move |(_, a)| Series::new(format!("{a} {m}")))
        })
        .collect();
    let mut events = 0u64;
    let mut requests = 0u64;
    let mut runs = cells.into_iter();
    for &n_inter in &inters {
        let col = format!("{n_inter}-inter.");
        for (arm, (_, arm_label)) in ARMS.iter().enumerate() {
            // Pool latencies across seeds (percentiles of the pooled
            // sample), average goodput, and total the truncated tail.
            let mut lat: Vec<f64> = Vec::new();
            let mut goodput: Vec<f64> = Vec::new();
            let mut trunc = 0u64;
            for (m, elapsed, run_events) in runs.next().expect("one cell per arm") {
                goodput.push(m.throughput_rps(elapsed));
                trunc += m.requests_truncated;
                events += run_events;
                requests += m.requests;
                lat.extend(m.latencies_us);
            }
            assert!(
                !lat.is_empty(),
                "serving cell {col}/{arm_label} completed no requests"
            );
            let vals = [
                percentile(&lat, 50.0),
                percentile(&lat, 99.0),
                percentile(&lat, 99.9),
                Summary::of(&goodput).mean,
                trunc as f64,
            ];
            for (mi, v) in vals.into_iter().enumerate() {
                series[mi * ARMS.len() + arm].point(col.clone(), v);
            }
        }
    }
    for s in series {
        table.add(s);
    }
    ServingOutcome {
        table,
        events,
        runs: inters.len() * ARMS.len() * opts.seeds as usize,
        requests,
        wall_s,
    }
}

/// Simulation throughput of the campaign (events per wall second).
pub fn events_per_sec(o: &ServingOutcome) -> f64 {
    o.events as f64 / o.wall_s.max(1e-9)
}

/// The campaign's one-line summary for the `figures` progress line.
pub fn summary(o: &ServingOutcome) -> String {
    format!(
        "{} runs, {} requests, {} events ({:.0}/s)",
        o.runs,
        o.requests,
        o.events,
        events_per_sec(o),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_is_jobs_invariant() {
        // The headline determinism contract: bit-identical rendering at
        // any worker count.
        let mk = |jobs| {
            serving(
                Opts {
                    seeds: 1,
                    base_seed: 1,
                    jobs,
                },
                true,
            )
        };
        let one = mk(1);
        let two = mk(2);
        assert_eq!(one.table.render(), two.table.render());
        assert_eq!(one.events, two.events);
        assert_eq!(one.requests, two.requests);
        // The truncated-tail row is part of the table contract.
        assert!(one.table.render().contains("req-trunc"));
    }
}
