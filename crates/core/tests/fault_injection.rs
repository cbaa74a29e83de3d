//! End-to-end fault-injection tests (`irs_core::faults`): a wedged guest
//! drives the SA completion-limit force path, dropped/delayed acks resolve
//! without desync, the sanitizer stays clean under faults, and fault
//! schedules are bit-reproducible.

use irs_core::{FaultConfig, Scenario, Strategy, System, SystemConfig};
use irs_sim::SimTime;
use irs_xen::{PcpuId, RunState};

fn short_fig5(strategy: Strategy, seed: u64) -> Scenario {
    Scenario::fig5_style("streamcluster", 2, strategy, seed).horizon(SimTime::from_secs(5))
}

fn cfg_with(faults: FaultConfig) -> SystemConfig {
    SystemConfig {
        faults: Some(faults),
        check: true,
        ..SystemConfig::default()
    }
}

/// The ISSUE's flagship scenario: vCPUs that wedge (ignore vIRQs) for
/// multi-millisecond windows force the hypervisor through the §4.1 timeout
/// path. The victim must come off with yield semantics (still runnable,
/// never blocked), every freeze must clear, the online sanitizer must stay
/// clean throughout, and the system must quiesce.
#[test]
fn wedged_guest_drives_the_timeout_force_path() {
    let faults = FaultConfig {
        wedge_prob: 1.0,
        wedge_window: SimTime::from_millis(3),
        ..FaultConfig::default()
    };
    let mut sys = System::with_config(short_fig5(Strategy::Irs, 11), cfg_with(faults));
    let bound = SimTime::from_secs(5);

    // Step until the first forced timeout, tracking which vCPU held the
    // freeze so we can check what the force did to it.
    let mut victim = None;
    while sys.hypervisor().stats().sa_timeouts == 0 {
        for p in 0..sys.hypervisor().n_pcpus() {
            if let Some(w) = sys.hypervisor().pcpu_sa_wait(PcpuId(p)) {
                victim = Some(w);
            }
        }
        assert!(sys.step(), "ran out of events before any SA timeout");
        assert!(sys.now() < bound, "no SA timeout before the horizon");
    }
    let victim = victim.expect("a timeout implies a frozen pCPU was seen");
    // Yield semantics: the forced victim is still schedulable, not parked.
    let st = sys.hypervisor().vcpu_state(victim);
    assert!(
        st == RunState::Runnable || st == RunState::Running,
        "forced victim must stay runnable, got {st:?}"
    );
    assert!(!sys.hypervisor().is_sa_pending(victim), "round must be closed");

    // Run to quiescence; the sanitizer (check: true) panics on any
    // invariant violation, so completing is itself the assertion.
    let r = sys.run();
    assert!(r.hv.sa_timeouts > 0);
    assert!(r.hv.sa_sent > r.hv.sa_acked, "wedges must cost some acks");
    let f = r.faults.expect("fault stats present when faults configured");
    assert!(f.wedges > 0, "wedge schedule never fired");
    assert!(
        r.measured().makespan.is_some(),
        "measured workload must still complete under wedges"
    );
}

/// 100% upcall loss: the guest never sees a single SA vIRQ. Rounds can
/// still close as acks when the frozen-but-running vCPU *voluntarily*
/// blocks or yields for its own reasons (any `sched_op` from the pending
/// vCPU releases the freeze); everything else must resolve through the
/// completion limit — and the run must still terminate.
#[test]
fn total_upcall_loss_resolves_every_round_by_timeout() {
    let faults = FaultConfig {
        upcall_loss: 1.0,
        ..FaultConfig::default()
    };
    let r = System::with_config(short_fig5(Strategy::Irs, 3), cfg_with(faults)).run();
    assert!(r.hv.sa_sent > 0, "scenario produced no SA rounds");
    assert!(r.hv.sa_timeouts > 0, "lost upcalls must drive the force path");
    // Voluntary acks + timeouts cover all but in-flight rounds (at most
    // one open per pCPU at termination).
    assert!(r.hv.sa_sent - r.hv.sa_timeouts - r.hv.sa_acked <= 4);
    assert_eq!(r.faults.unwrap().upcalls_dropped, r.hv.sa_sent);
    assert!(r.measured().makespan.is_some());
}

/// Acks deferred past the completion limit always lose the race: the
/// timeout force-closes the round first and the late ack must be discarded
/// as stale instead of desynchronizing a newer round.
#[test]
fn delayed_acks_past_the_limit_are_discarded_as_stale() {
    assert!(irs_core::faults::ACK_DELAY > irs_xen::SA_COMPLETION_LIMIT);
    let faults = FaultConfig {
        ack_delay_prob: 1.0,
        ..FaultConfig::default()
    };
    let r = System::with_config(short_fig5(Strategy::Irs, 5), cfg_with(faults)).run();
    let f = r.faults.unwrap();
    assert!(f.acks_delayed > 0);
    assert!(f.stale_acks_discarded > 0, "delayed acks must lose to the timeout");
    // Delayed acks still in flight at termination never get discarded.
    assert!(f.stale_acks_discarded <= f.acks_delayed);
    assert_eq!(r.hv.sa_acked, 0, "an 800 µs delay can never beat a 500 µs limit");
    assert!(r.hv.sa_timeouts > 0);
}

/// The fault stream is forked from the scenario seed, not from the
/// checking machinery: the same faulted scenario is bit-identical with the
/// sanitizer on and off, down to every per-VM metric and fault counter.
#[test]
fn faulted_runs_are_bit_identical_checked_vs_unchecked() {
    let run = |check: bool| {
        let cfg = SystemConfig {
            faults: Some(FaultConfig::everything()),
            check,
            ..SystemConfig::default()
        };
        System::with_config(short_fig5(Strategy::Irs, 42), cfg).run()
    };
    let plain = run(false);
    let checked = run(true);
    assert_eq!(plain.events, checked.events, "event counts diverged");
    assert_eq!(plain.elapsed, checked.elapsed, "elapsed time diverged");
    assert_eq!(plain.faults, checked.faults, "fault schedules diverged");
    assert_eq!(
        format!("{:?}", plain.vms),
        format!("{:?}", checked.vms),
        "per-VM results diverged between checked and unchecked faulted runs"
    );
}

/// Every shipping strategy survives every fault preset under the sanitizer
/// and still terminates — the graceful-degradation floor of the chaos
/// campaign, at e2e-test scale.
#[test]
fn all_strategies_survive_all_presets_checked() {
    let presets = [
        FaultConfig::upcall_storm(),
        FaultConfig::ack_chaos(),
        FaultConfig::wedged_guest(),
        FaultConfig::jittery_timer(),
        FaultConfig::degraded_host(),
        FaultConfig::everything(),
    ];
    for strategy in Strategy::ALL {
        for preset in &presets {
            let r =
                System::with_config(short_fig5(strategy, 7), cfg_with(preset.clone())).run();
            assert!(r.events > 0, "{strategy}: no events processed");
        }
    }
}
