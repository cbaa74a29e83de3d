//! Integration tests of the paper's §1–§2 observations: the semantic gaps
//! themselves, before any fix is applied.

use irs_sched::sim::SimTime;
use irs_sched::workloads::{presets, ProgramBuilder, WorkloadBundle};
use irs_sched::xen::PcpuId;
use irs_sched::{Scenario, Strategy, System, VmScenario};

/// §1 / Fig 1(a): a blocking parallel program slows down far more than its
/// lost CPU share, while the work-stealing program barely notices.
#[test]
fn lhp_slowdown_exceeds_cpu_share_loss() {
    let solo = {
        let mut s = Scenario::fig5_style("fluidanimate", 1, Strategy::Vanilla, 1);
        s.vms.truncate(1);
        s.run().measured().makespan_ms()
    };
    let inter = Scenario::fig5_style("fluidanimate", 1, Strategy::Vanilla, 1)
        .run()
        .measured()
        .makespan_ms();
    let slowdown = inter / solo;
    // Losing half of one of four pCPUs is a 12.5% capacity cut; LHP makes
    // the whole program pay far more than that.
    assert!(
        slowdown > 1.5,
        "LHP amplification missing: slowdown only {slowdown:.2}x"
    );

    let solo_rt = {
        let mut s = Scenario::fig5_style("raytrace", 1, Strategy::Vanilla, 1);
        s.vms.truncate(1);
        s.run().measured().makespan_ms()
    };
    let inter_rt = Scenario::fig5_style("raytrace", 1, Strategy::Vanilla, 1)
        .run()
        .measured()
        .makespan_ms();
    let rt_slowdown = inter_rt / solo_rt;
    assert!(
        rt_slowdown < 1.3,
        "work stealing should absorb interference, got {rt_slowdown:.2}x"
    );
    assert!(rt_slowdown < slowdown, "raytrace must be the resilient one");
}

fn victim_scenario(n_vms: usize, seed: u64) -> Scenario {
    let prog = ProgramBuilder::new()
        .forever(|b| b.compute_us(10_000, 0.0))
        .build();
    let victim =
        WorkloadBundle::interference("victim", vec![prog], irs_sched::sync::SyncSpace::new(), 0.0);
    let mut s = Scenario::new(2, Strategy::Vanilla, seed)
        .vm(VmScenario::new(victim, 2)
            .pin(vec![PcpuId(0), PcpuId(1)])
            .measured())
        .horizon(SimTime::from_secs(30));
    for _ in 0..n_vms {
        s = s.vm(VmScenario::new(presets::hog::cpu_hogs(1), 1).pin(vec![PcpuId(0)]));
    }
    s
}

/// §1 / Fig 1(b): migrating a *running* task must wait for its source vCPU
/// to be scheduled, so each co-located VM adds roughly one hypervisor
/// scheduling delay — the staircase.
#[test]
fn migration_latency_staircase() {
    let latency = |n_vms: usize| -> f64 {
        let mut sys = System::new(victim_scenario(n_vms, 11));
        while sys.now() < SimTime::from_millis(100) {
            sys.step();
        }
        let mut total = 0.0;
        let rounds = 10;
        for round in 0..rounds {
            if sys.guest(0).task(irs_sched::guest::TaskId(0)).cpu != 0 {
                sys.migrate_task(0, irs_sched::guest::TaskId(0), 0);
                while sys.guest(0).task(irs_sched::guest::TaskId(0)).cpu != 0 {
                    assert!(sys.step(), "queue drained mid-test");
                }
            }
            let settle = sys.now() + SimTime::from_micros(40_137 + round * 7013);
            while sys.now() < settle {
                sys.step();
            }
            let t0 = sys.now();
            sys.migrate_task(0, irs_sched::guest::TaskId(0), 1);
            while sys.guest(0).task(irs_sched::guest::TaskId(0)).cpu != 1 {
                assert!(sys.step(), "queue drained mid-test");
            }
            total += (sys.now() - t0).as_nanos() as f64 / 1e6;
        }
        total / rounds as f64
    };

    let alone = latency(0);
    let one = latency(1);
    let two = latency(2);
    let three = latency(3);
    assert!(
        alone < 2.0,
        "uncontended migration should be ~a tick, got {alone:.1} ms"
    );
    assert!(one > alone, "one VM must add scheduling delay");
    assert!(
        two > one + 5.0,
        "each VM adds roughly a slice: {one:.1} -> {two:.1}"
    );
    assert!(
        three > two + 5.0,
        "each VM adds roughly a slice: {two:.1} -> {three:.1}"
    );
}

/// §2.3: the guest pull balancer never takes a "running" task, even when
/// its vCPU is preempted — verified end to end by checking that a vanilla
/// guest performs no stopper/SA migrations during an interfered run.
#[test]
fn vanilla_guest_cannot_rescue_the_stranded_task() {
    let r = Scenario::fig5_style("streamcluster", 1, Strategy::Vanilla, 1).run();
    let g = &r.measured().guest;
    assert_eq!(g.sa_migrations, 0, "vanilla has no SA machinery");
    assert_eq!(r.hv.sa_sent, 0, "vanilla hypervisor sends no SA");
    // The threads that matter are 'current' on their vCPUs; pull/push can
    // only move *queued* tasks, which a 4-thread/4-vCPU run has only in
    // fleeting wake-up races — never the stranded lock holder.
    assert!(
        g.pull_migrations + g.push_migrations < 5,
        "vanilla balancing moved {} tasks",
        g.pull_migrations + g.push_migrations
    );
    assert_eq!(g.stopper_migrations, 0);
}

/// Fig 2: blocking workloads leave fair share unused; spinning workloads
/// burn their full share without profiting.
#[test]
fn utilization_shapes() {
    let r = Scenario::fig2_style("streamcluster", 1).run();
    let util = r.measured().utilization_vs_fair_share(3.5, r.elapsed);
    assert!(
        util < 0.8,
        "blocking run must under-use its share, got {util:.2}"
    );

    let r = Scenario::fig5_style("UA", 1, Strategy::Vanilla, 1).run(); // spinning
    let util = r.measured().utilization_vs_fair_share(3.5, r.elapsed);
    assert!(
        util > 0.9,
        "spinning run must consume its full share, got {util:.2}"
    );
}
