//! Event-level walkthrough of one complete scheduler-activation round:
//! the mechanism of paper Figures 3/4 and Algorithms 1/2, observed through
//! the public API step by step.

use irs_core::{Scenario, Strategy, System, SystemConfig, VmScenario};
use irs_guest::TaskId;
use irs_sim::SimTime;
use irs_sync::SyncSpace;
use irs_workloads::{presets, ProgramBuilder, WorkloadBundle};
use irs_xen::{PcpuId, RunState, VcpuRef, VmId};

/// A checked, traced run of a 2-vCPU IRS VM with one long-running task per
/// vCPU, plus one hog VM contending pCPU 0. The hog's slice-expiry
/// preemptions of vCPU 0 must go through the full SA round.
fn build() -> System {
    let mut space = SyncSpace::new();
    let _ = &mut space;
    let prog = ProgramBuilder::new()
        .forever(|b| b.compute_us(10_000, 0.0))
        .build();
    let bundle = WorkloadBundle::interference(
        "busy",
        vec![prog.clone(), prog],
        SyncSpace::new(),
        0.0,
    );
    let scenario = Scenario::new(2, Strategy::Irs, 3)
        .vm(
            VmScenario::new(bundle, 2)
                .pin(vec![PcpuId(0), PcpuId(1)])
                .measured()
                .irs_guest(true),
        )
        .vm(VmScenario::new(presets::hog::cpu_hogs(1), 1).pin(vec![PcpuId(0)]))
        .horizon(SimTime::from_secs(20));
    System::with_config(
        scenario,
        SystemConfig {
            trace_capacity: 1 << 16,
            check: true,
            ..SystemConfig::default()
        },
    )
}

#[test]
fn one_complete_sa_round() {
    let mut sys = build();
    let v0 = VcpuRef::new(VmId(0), 0);

    // Step until the first SA is delivered.
    while sys.hypervisor().stats().sa_sent == 0 {
        assert!(sys.step());
        assert!(
            sys.now() < SimTime::from_secs(2),
            "an SA round must occur within the first contended slices"
        );
    }
    let sent_at = sys.now();
    assert!(sys.hypervisor().is_sa_pending(v0), "pending flag set");
    assert_eq!(
        sys.hypervisor().pcpu_current(PcpuId(0)),
        Some(v0),
        "the preemption is deferred: the preemptee keeps running"
    );
    // The guest has not handled the upcall yet: the receiver and context
    // switcher run one round delay after delivery.
    assert_eq!(sys.guest(0).stats().sa_upcalls, 0);

    // Step until the round completes (ack processed).
    while sys.hypervisor().is_sa_pending(v0) {
        assert!(sys.step());
    }
    assert_eq!(
        sys.guest(0).stats().sa_upcalls,
        1,
        "the ack lands in the same event that handles the upcall"
    );
    let acked_at = sys.now();
    let delay = acked_at - sent_at;
    assert!(
        delay >= SimTime::from_micros(20) && delay <= SimTime::from_micros(30),
        "SA round took {delay}, expected the paper's 20-26 us band"
    );
    assert_eq!(sys.hypervisor().stats().sa_acked, 1);
    assert_eq!(sys.hypervisor().stats().sa_timeouts, 0);

    // The preemption has now actually happened: the hog runs on pCPU 0 and
    // v0 is runnable or (post context-switch with an empty queue) blocked.
    let cur = sys.hypervisor().pcpu_current(PcpuId(0)).expect("busy pCPU");
    assert_eq!(cur.vm, VmId(1), "the hog won the pCPU after the ack");
    assert_ne!(sys.hypervisor().vcpu_state(v0), RunState::Running);

    // The migrator then moves the descheduled task off vCPU 0 — not
    // necessarily on the very first round: its rt_avg comparison uses the
    // steal-clock EWMA, which needs a preemption or two to see vCPU 0's
    // contention. Within a few rounds the move must happen, targeting the
    // uncontended vCPU 1.
    let deadline = sys.now() + SimTime::from_millis(200);
    while sys.guest(0).stats().sa_migrations == 0 {
        assert!(sys.step());
        assert!(
            sys.now() < deadline,
            "migrator never moved the descheduled task"
        );
    }
    let g = sys.guest(0);
    assert!(g.stats().sa_migrations >= 1);

    // The trace recorded the full round.
    let dump = sys.trace_dump();
    assert!(dump.contains("VIRQ_SA_UPCALL"));
    assert!(dump.contains("SCHEDOP"), "ack visible");
    assert!(
        dump.contains("migrate task0 v0 -> v1") || dump.contains("migrate task1 v0 -> v1"),
        "the stranded task lands on the uncontended vCPU 1"
    );
}

#[test]
fn sa_rounds_repeat_for_every_preemption() {
    let mut sys = build();
    while sys.now() < SimTime::from_secs(3) {
        assert!(sys.step());
    }
    let hv = sys.hypervisor().stats().clone();
    // pCPU 0 alternates ~30 ms slices between the hog and whatever hosts
    // the VM's work; every involuntary preemption of the SA-capable vCPU
    // must be announced. Expect dozens of rounds in 3 s.
    assert!(hv.sa_sent > 20, "only {} SA rounds in 3s", hv.sa_sent);
    assert_eq!(hv.sa_sent, hv.sa_acked + hv.sa_timeouts);
    assert_eq!(hv.sa_timeouts, 0);
}

#[test]
fn vanilla_round_for_comparison_has_no_deferral() {
    // Same setup, vanilla strategy: the preemption happens instantly at
    // slice expiry; no SA, no guest reaction, the task strands.
    let prog = ProgramBuilder::new()
        .forever(|b| b.compute_us(10_000, 0.0))
        .build();
    let bundle = WorkloadBundle::interference(
        "busy",
        vec![prog.clone(), prog],
        SyncSpace::new(),
        0.0,
    );
    let scenario = Scenario::new(2, Strategy::Vanilla, 3)
        .vm(
            VmScenario::new(bundle, 2)
                .pin(vec![PcpuId(0), PcpuId(1)])
                .measured(),
        )
        .vm(VmScenario::new(presets::hog::cpu_hogs(1), 1).pin(vec![PcpuId(0)]))
        .horizon(SimTime::from_secs(20));
    let cfg = SystemConfig {
        check: true,
        ..SystemConfig::default()
    };
    let mut sys = System::with_config(scenario, cfg);
    while sys.now() < SimTime::from_secs(2) {
        assert!(sys.step());
    }
    assert_eq!(sys.hypervisor().stats().sa_sent, 0);
    assert_eq!(sys.guest(0).stats().sa_migrations, 0);
    // The stranded task never leaves vCPU 0.
    assert_eq!(sys.guest(0).task(TaskId(0)).cpu, 0);
    assert!(sys.hypervisor().stats().preemptions > 20);
}
