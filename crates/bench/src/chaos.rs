//! The chaos campaign: fault-injection sweep over fault profiles ×
//! scheduling strategies, asserting the degradation contract of
//! `irs_core::faults` (DESIGN.md §2.4).
//!
//! Contract checked per profile:
//!
//! * **every run terminates** — the SA completion-limit force path bounds
//!   every injected freeze, so no fault mix may hang a run;
//! * **graceful degradation** — IRS's mean makespan degrades *toward*
//!   vanilla credit but never materially past it (`<= vanilla × 1.15`);
//! * **the force path actually fires** — the wedged-guest profile must
//!   produce `sa_timeouts > 0` on IRS, proving the campaign exercises the
//!   §4.1 timeout branch rather than idling around it;
//! * **bit-reproducibility** — the table is identical at any `--jobs N`
//!   (the fault stream is forked from the scenario seed, never from the
//!   worker that happens to run the cell).

use crate::{mean, Opts};
use irs_core::{
    runner, FaultConfig, RunResult, Scenario, Strategy, System, SystemConfig, DEGRADATION_MARGIN,
};
use irs_metrics::{Series, Table};
use irs_sim::SimTime;

/// The fault profiles the campaign sweeps, worst-knob-per-column style:
/// each non-baseline profile turns one fault family up hard, and
/// `everything` stacks them all.
fn profiles() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("baseline", FaultConfig::none()),
        ("upcall-storm", FaultConfig::upcall_storm()),
        ("ack-chaos", FaultConfig::ack_chaos()),
        ("wedge", FaultConfig::wedged_guest()),
        ("jitter", FaultConfig::jittery_timer()),
        ("degrade", FaultConfig::degraded_host()),
        ("everything", FaultConfig::everything()),
    ]
}

/// The strategy columns: vanilla credit as the degradation baseline plus
/// the paper's three contenders.
const CHAOS_STRATEGIES: [Strategy; 4] = [
    Strategy::Vanilla,
    Strategy::Ple,
    Strategy::RelaxedCo,
    Strategy::Irs,
];

/// One cell of the campaign grid.
struct Cell {
    /// Measured-VM makespan (ms); falls back to elapsed time when the
    /// horizon truncated the run (only possible with a horizon override).
    makespan_ms: f64,
    /// Whether the measured workload actually completed.
    completed: bool,
    sa_timeouts: u64,
    injected: u64,
}

impl Cell {
    fn of(r: RunResult) -> Cell {
        let m = r.measured();
        Cell {
            makespan_ms: m.makespan.unwrap_or(r.elapsed).as_nanos() as f64 / 1e6,
            completed: m.makespan.is_some(),
            sa_timeouts: r.hv.sa_timeouts,
            injected: r.faults.map(|f| f.total()).unwrap_or(0),
        }
    }
}

/// Runs the full grid and builds the table; `horizon` shortens runs for
/// in-crate tests (which also relaxes the must-complete assertion, since a
/// truncated run legitimately ends at the horizon).
fn campaign(opts: Opts, benchmark: &str, n_inter: usize, horizon: Option<SimTime>) -> Table {
    let profiles = profiles();
    let mut ctors = Vec::new();
    for (_, faults) in &profiles {
        for strategy in CHAOS_STRATEGIES {
            ctors.push(move |seed| {
                let mut sc = Scenario::fig5_style(benchmark, n_inter, strategy, seed);
                if let Some(h) = horizon {
                    sc.horizon = h;
                }
                let cfg = SystemConfig {
                    faults: Some(faults.clone()),
                    ..SystemConfig::default()
                };
                System::with_config(sc, cfg)
            });
        }
    }
    let cells = runner::grid(opts.base_seed, opts.seeds, opts.jobs, &ctors, Cell::of);
    // The runs of (profile, strategy), in seed order.
    let runs = |pi: usize, si: usize| &cells[pi * CHAOS_STRATEGIES.len() + si];

    let mut table = Table::new(format!(
        "Chaos — makespan (ms) under fault injection ({benchmark}, {n_inter} hogs)"
    ));
    let mut means = vec![vec![0.0f64; CHAOS_STRATEGIES.len()]; profiles.len()];
    for (si, strategy) in CHAOS_STRATEGIES.iter().enumerate() {
        let mut series = Series::new(format!("{strategy}"));
        for (pi, (name, _)) in profiles.iter().enumerate() {
            let samples: Vec<f64> = runs(pi, si).iter().map(|c| c.makespan_ms).collect();
            means[pi][si] = mean(&samples);
            series.point((*name).to_string(), means[pi][si]);
        }
        table.add(series);
    }
    // Diagnostic rows: the campaign is only meaningful if faults are
    // actually landing and the timeout branch actually fires.
    let irs = CHAOS_STRATEGIES
        .iter()
        .position(|s| *s == Strategy::Irs)
        .expect("campaign always sweeps IRS");
    let mut timeouts = Series::new("Irs sa-timeouts");
    let mut injected = Series::new("Irs faults injected");
    for (pi, (name, _)) in profiles.iter().enumerate() {
        let t: u64 = runs(pi, irs).iter().map(|c| c.sa_timeouts).sum();
        let f: u64 = runs(pi, irs).iter().map(|c| c.injected).sum();
        timeouts.point((*name).to_string(), t as f64);
        injected.point((*name).to_string(), f as f64);
    }
    table.add(timeouts);
    table.add(injected);

    // --- the degradation contract -------------------------------------
    if horizon.is_none() {
        for (i, c) in cells.iter().flatten().enumerate() {
            assert!(
                c.completed,
                "chaos cell {i} did not complete its measured workload"
            );
        }
    }
    let wedge = profiles
        .iter()
        .position(|(n, _)| *n == "wedge")
        .expect("wedge profile present");
    let wedge_timeouts: u64 = runs(wedge, irs).iter().map(|c| c.sa_timeouts).sum();
    assert!(
        wedge_timeouts > 0,
        "wedged-guest profile never drove the SA timeout force path"
    );
    let vanilla = CHAOS_STRATEGIES
        .iter()
        .position(|s| *s == Strategy::Vanilla)
        .expect("campaign always sweeps vanilla");
    for (pi, (name, _)) in profiles.iter().enumerate() {
        assert!(
            means[pi][irs] <= means[pi][vanilla] * DEGRADATION_MARGIN,
            "IRS degraded past vanilla under '{name}': {:.2} ms vs {:.2} ms",
            means[pi][irs],
            means[pi][vanilla],
        );
    }
    table
}

/// The `figures chaos` campaign: fault profiles × strategies over the
/// fig5-style streamcluster/2-hog scenario.
pub fn chaos(opts: Opts) -> Table {
    campaign(opts, "streamcluster", 2, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance-criteria determinism check: the same seeds render the
    /// same table bytes at `--jobs 1` and `--jobs 2` (EP keeps the test
    /// cheap; the contract is scenario-independent).
    #[test]
    fn chaos_table_is_bit_identical_across_jobs() {
        let mk = |jobs| {
            let opts = Opts {
                seeds: 1,
                base_seed: 1,
                jobs,
            };
            campaign(opts, "EP", 1, None).render()
        };
        assert_eq!(mk(1), mk(2));
    }
}
