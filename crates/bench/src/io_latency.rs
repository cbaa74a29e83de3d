//! The §3.1 caveat, quantified: "if vCPU preemption is due to prioritizing
//! an I/O-bound vCPU, the \[SA\] delay will add to I/O latency."
//!
//! An I/O-bound VM (sleep 5 ms → tiny compute, i.e. a ping-style loop)
//! shares a pCPU with one vCPU of an IRS-enabled parallel VM. Every wake of
//! the I/O vCPU arrives with BOOST and preempts the parallel vCPU — which,
//! under IRS, first runs a 20–26 µs scheduler-activation round. The
//! experiment measures exactly how much of that shows up in I/O latency.

use crate::{mean_pair, Opts};
use irs_core::{runner, Scenario, Strategy, System, VmScenario};
use irs_metrics::{Series, Table};
use irs_sim::SimTime;
use irs_sync::SyncSpace;
use irs_workloads::{presets, ProgramBuilder, WorkloadBundle};
use irs_xen::PcpuId;

/// Sleep period of the I/O loop.
const SLEEP: SimTime = SimTime::from_millis(5);
/// Post-wake service compute.
const SERVICE_US: u64 = 100;

fn io_bundle() -> WorkloadBundle {
    let prog = ProgramBuilder::new()
        .forever(|b| {
            b.request_start()
                .sleep_us(SLEEP.as_micros())
                .compute_us(SERVICE_US, 0.0)
                .request_done()
        })
        .build();
    WorkloadBundle::server("io-ping", vec![prog], SyncSpace::new(), 0.0, None)
}

fn scenario(strategy: Strategy, seed: u64) -> Scenario {
    let fg = presets::by_name("streamcluster", 4, irs_sync::WaitMode::Block).unwrap();
    Scenario::new(4, strategy, seed)
        .vm(
            VmScenario::new(fg.into_background(), 4)
                .pin_one_to_one()
                // The parallel VM carries the IRS guest when the strategy
                // is IRS, even though the I/O VM is the one measured.
                .irs_guest(strategy.sa_capable_guest()),
        )
        .vm(
            VmScenario::new(io_bundle(), 1)
                .pin(vec![PcpuId(0)])
                .measured(),
        )
        .horizon(SimTime::from_secs(10))
}

/// The strategies compared, in table-column order.
const STRATEGIES: [Strategy; 2] = [Strategy::Vanilla, Strategy::Irs];

/// Mean and p99 wake overhead (µs beyond the ideal sleep + service time)
/// per strategy of [`STRATEGIES`], from one batch.
fn wake_overheads_us(opts: Opts) -> Vec<(f64, f64)> {
    let ideal_us = SLEEP.as_micros() as f64 + SERVICE_US as f64;
    let ctors = STRATEGIES.map(|strategy| move |seed| System::new(scenario(strategy, seed)));
    runner::grid(opts.base_seed, opts.seeds, opts.jobs, &ctors, |r| {
        let m = r.measured();
        (
            m.mean_latency_us() - ideal_us,
            m.latency_percentile_us(99.0) - ideal_us,
        )
    })
    .iter()
    .map(|runs| mean_pair(runs))
    .collect()
}

/// The experiment table: wake overhead per strategy, plus the IRS delta —
/// which should sit near the configured 22 µs SA round.
pub fn io_latency(opts: Opts) -> Table {
    let mut table = Table::new(
        "I/O wake latency under a co-located IRS VM (overhead beyond sleep+service, us)",
    );
    let mut mean_row = Series::new("mean overhead");
    let mut p99_row = Series::new("p99 overhead");
    let overheads = wake_overheads_us(opts);
    for (strategy, &(mean, p99)) in STRATEGIES.iter().zip(&overheads) {
        mean_row.point(strategy.to_string(), mean);
        p99_row.point(strategy.to_string(), p99);
    }
    let mut delta = Series::new("IRS - vanilla (mean)");
    delta.point("delta", overheads[1].0 - overheads[0].0);
    table.add(mean_row);
    table.add(p99_row);
    table.add(delta);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §3.1 number shows up at the tail: a wake that preempts
    /// an SA-capable vCPU pays the ~22 µs SA round (p99). The *mean* can go
    /// either way — IRS also vacates preempted vCPUs, which often leaves
    /// the I/O vCPU's pCPU free.
    #[test]
    fn irs_adds_one_sa_round_to_the_wake_tail() {
        let overheads = wake_overheads_us(Opts {
            seeds: 1,
            ..Opts::default()
        });
        let (vanilla_mean, vanilla_p99) = overheads[0];
        let (irs_mean, irs_p99) = overheads[1];
        let tail_delta = irs_p99 - vanilla_p99;
        assert!(
            (2.0..40.0).contains(&tail_delta),
            "p99 should carry roughly one 22 us SA round, got {tail_delta:.1} us \
             (vanilla {vanilla_p99:.1}, irs {irs_p99:.1})"
        );
        // And the mean must not blow up: the SA delay is bounded.
        assert!(
            irs_mean < vanilla_mean + 80.0,
            "mean overhead regressed: {vanilla_mean:.1} -> {irs_mean:.1}"
        );
    }
}
