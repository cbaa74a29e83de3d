//! Integration tests of §5.3 (servers) and §5.6 (CPU stacking).

use irs_sched::sim::SimTime;
use irs_sched::workloads::presets;
use irs_sched::{Scenario, Strategy, VmScenario};

fn unpinned(bench: &str, strategy: Strategy, seed: u64) -> f64 {
    let mut s = Scenario::fig5_style(bench, 4, strategy, seed);
    for vm in &mut s.vms {
        vm.pinning = None;
    }
    s.run().measured().makespan_ms()
}

/// §2.3/§5.6: unpinning under full hog load costs vanilla real time
/// (stacking), for both blocking and spinning workloads.
#[test]
fn stacking_hurts_vanilla() {
    for bench in ["streamcluster", "MG"] {
        let pinned = Scenario::fig5_style(bench, 4, Strategy::Vanilla, 1)
            .run()
            .measured()
            .makespan_ms();
        let un = unpinned(bench, Strategy::Vanilla, 1);
        assert!(
            un > pinned * 1.15,
            "{bench}: stacking must cost vanilla (pinned {pinned:.0} vs unpinned {un:.0})"
        );
    }
}

/// §5.6: IRS mitigates stacking (it keeps vCPUs exhibiting their factual
/// demand), while PLE makes blocking workloads idle even more. Stacking
/// severity depends heavily on the (seeded) initial placement, so this
/// averages several seeds.
#[test]
fn irs_mitigates_stacking() {
    let mean = |bench: &str, strategy: Strategy| -> f64 {
        (1..=6u64)
            .map(|s| unpinned(bench, strategy, s))
            .sum::<f64>()
            / 6.0
    };
    for bench in ["streamcluster", "MG"] {
        let van = mean(bench, Strategy::Vanilla);
        let irs = mean(bench, Strategy::Irs);
        assert!(
            irs < van * 0.98,
            "{bench}: IRS must beat vanilla under stacking ({irs:.0} vs {van:.0})"
        );
    }
    // PLE on a blocking workload converts spin-grace into extra idling.
    let van = mean("streamcluster", Strategy::Vanilla);
    let ple = mean("streamcluster", Strategy::Ple);
    assert!(
        ple > van * 0.95,
        "PLE must not be the best answer to blocking stacking"
    );
}

fn server_run(strategy: Strategy, seed: u64) -> irs_sched::RunResult {
    Scenario::new(4, strategy, seed)
        .vm(VmScenario::new(presets::server::specjbb(4), 4)
            .pin_one_to_one()
            .measured())
        .vm(VmScenario::new(presets::hog::cpu_hogs(1), 4).pin_one_to_one())
        .horizon(SimTime::from_secs(8))
        .run()
}

/// §5.3: IRS collapses the specjbb tail latency under one interferer while
/// leaving throughput roughly unchanged.
#[test]
fn irs_improves_server_tail_latency() {
    let v = server_run(Strategy::Vanilla, 7);
    let i = server_run(Strategy::Irs, 7);
    let v_p99 = v.measured().latency_percentile_us(99.0);
    let i_p99 = i.measured().latency_percentile_us(99.0);
    assert!(
        i_p99 < v_p99 * 0.7,
        "p99 must drop substantially: vanilla {v_p99:.0} us vs IRS {i_p99:.0} us"
    );
    let v_thr = v.measured().throughput_rps(v.elapsed);
    let i_thr = i.measured().throughput_rps(i.elapsed);
    assert!(
        (i_thr - v_thr).abs() / v_thr < 0.10,
        "throughput roughly unchanged: {v_thr:.0} vs {i_thr:.0} rps"
    );
}

/// §5.3: the ab open loop stays stable (no drops at 60% load) and IRS does
/// not hurt it despite 512 threads on 4 vCPUs.
#[test]
fn ab_open_loop_is_stable() {
    for strategy in [Strategy::Vanilla, Strategy::Irs] {
        let r = Scenario::new(4, strategy, 7)
            .vm(VmScenario::new(presets::server::apache_ab(256, 4, 0.6), 4)
                .pin_one_to_one()
                .measured())
            .vm(VmScenario::new(presets::hog::cpu_hogs(1), 4).pin_one_to_one())
            .horizon(SimTime::from_secs(5))
            .run();
        let m = r.measured();
        assert_eq!(m.dropped_requests, 0, "{strategy}: accept queue overflowed");
        // Offered: 60% of (4 - 0.5) effective pCPUs ≈ 1050 rps; the served
        // rate must be close to offered.
        let thr = m.throughput_rps(r.elapsed);
        assert!(
            thr > 900.0,
            "{strategy}: open loop fell behind at {thr:.0} rps"
        );
    }
}

/// Fig 8's `ab` cells compare service, not load: both arms of a cell are
/// offered one arrival schedule, so every request either strategy saw
/// (completed, still open at the horizon, or dropped) adds up to the same
/// count.
#[test]
fn both_arms_of_an_ab_cell_get_one_schedule() {
    let offered = |strategy| {
        let r = Scenario::new(4, strategy, 1)
            .vm(VmScenario::new(presets::server::apache_ab(512, 4, 0.45), 4)
                .pin_one_to_one()
                .measured())
            .vm(VmScenario::new(presets::hog::cpu_hogs(3), 4).pin_one_to_one())
            .horizon(SimTime::from_secs(10))
            .run();
        let m = r.measured();
        m.requests + m.requests_truncated + m.dropped_requests
    };
    assert_eq!(offered(Strategy::Vanilla), offered(Strategy::Irs));
}

/// §2.1: strict co-scheduling eliminates LHP within the VM (its makespan is
/// the clean time-shared bound) but fragments the machine — every pCPU
/// except the hog's idles during the hog VM's gang slot.
#[test]
fn strict_co_trades_lhp_for_fragmentation() {
    let solo = {
        let mut s = Scenario::fig5_style("streamcluster", 1, Strategy::Vanilla, 1);
        s.vms.truncate(1);
        s.run().measured().makespan_ms()
    };
    let r = Scenario::fig5_style("streamcluster", 1, Strategy::StrictCo, 1).run();
    let gang_ms = r.measured().makespan_ms();
    // Clean alternation: the parallel VM gets ~half the wall clock with all
    // four pCPUs and zero LHP => makespan ~2x solo (within slack).
    assert!(
        gang_ms > solo * 1.7 && gang_ms < solo * 2.4,
        "gang makespan {gang_ms:.0} vs solo {solo:.0}"
    );
    assert!(
        r.hv.gang_rotations > 50,
        "rotations: {}",
        r.hv.gang_rotations
    );
    // Fragmentation: during the hog VM's slots three pCPUs idle.
    let total_cpu: f64 = r.vms.iter().map(|v| v.cpu_time.as_secs_f64()).sum();
    let idle_frac = 1.0 - total_cpu / (4.0 * r.elapsed.as_secs_f64());
    assert!(
        idle_frac > 0.30,
        "strict co must fragment the machine, idle {idle_frac:.2}"
    );
    // No SA traffic, obviously.
    assert_eq!(r.hv.sa_sent, 0);
}
