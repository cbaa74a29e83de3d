//! Whole-system invariant runs: drive diverse scenarios under the online
//! sanitizer, which checks every vCPU, pCPU, execution window and current
//! task after each event, and sweeps both layers' queues and every task at
//! each accounting pass and at the end of the run.

use irs_sched::sim::SimTime;
use irs_sched::workloads::presets;
use irs_sched::{Scenario, Strategy, System, SystemConfig, VmScenario};

/// Runs `scenario` checked until `end` (or its completion) and returns
/// the virtual time it reached. A violation panics.
fn checked_run(scenario: Scenario, end: SimTime) -> SimTime {
    let cfg = SystemConfig {
        check: true,
        ..SystemConfig::default()
    };
    System::with_config(scenario.horizon(end), cfg)
        .run()
        .elapsed
}

/// A checked run of up to 1.5 s that lasts at least five accounting
/// passes.
fn sweep(scenario: Scenario, label: &str) {
    let elapsed = checked_run(scenario, SimTime::from_millis(1500));
    assert!(
        elapsed > SimTime::from_millis(150),
        "{label}: the run ended at {elapsed}, before five accounting sweeps"
    );
}

#[test]
fn invariants_hold_under_irs_blocking() {
    sweep(
        Scenario::fig5_style("fluidanimate", 2, Strategy::Irs, 5),
        "irs blocking",
    );
}

#[test]
fn invariants_hold_under_irs_spinning() {
    sweep(
        Scenario::fig5_style("MG", 4, Strategy::Irs, 5),
        "irs spinning 4-inter",
    );
}

#[test]
fn invariants_hold_under_ple() {
    sweep(
        Scenario::fig5_style("CG", 2, Strategy::Ple, 5),
        "ple spinning",
    );
}

#[test]
fn invariants_hold_under_relaxed_co() {
    sweep(
        Scenario::fig5_style("streamcluster", 2, Strategy::RelaxedCo, 5),
        "relaxed-co blocking",
    );
}

#[test]
fn invariants_hold_under_strict_co() {
    sweep(
        Scenario::fig5_style("UA", 2, Strategy::StrictCo, 5),
        "strict co-scheduling",
    );
}

#[test]
fn invariants_hold_unpinned() {
    let mut s = Scenario::fig5_style("canneal", 4, Strategy::Irs, 5);
    for vm in &mut s.vms {
        vm.pinning = None;
    }
    sweep(s, "unpinned stacking");
}

/// Regression: relaxed-co's accounting pass emits a batch of schedule
/// actions; applying one (a started vCPU with nothing to run blocks
/// immediately) re-enters the hypervisor, whose nested schedule can steal
/// and re-dispatch a vCPU named by a *stale* stop action later in the same
/// batch. Unguarded, that stale stop closed the fresh execution window and
/// froze the task forever (observed with bodytrack/Relaxed-Co/seed 2,
/// unpinned, at the 58th accounting boundary). The checked run covers the
/// window where the freeze occurred.
#[test]
fn invariants_hold_under_relaxed_co_unpinned() {
    let mut s = Scenario::fig5_style("bodytrack", 4, Strategy::RelaxedCo, 2);
    for vm in &mut s.vms {
        vm.pinning = None;
    }
    checked_run(s, SimTime::from_secs(2));
}

/// Companion to the sweep above: the previously-frozen configuration must
/// run to completion.
#[test]
fn relaxed_co_unpinned_completes() {
    let mut s = Scenario::fig5_style("bodytrack", 4, Strategy::RelaxedCo, 2);
    for vm in &mut s.vms {
        vm.pinning = None;
    }
    let r = s.run();
    assert!(
        r.measured().makespan.is_some(),
        "bodytrack/Relaxed-Co/seed 2 unpinned must complete"
    );
}

#[test]
fn invariants_hold_for_pipelines() {
    sweep(
        Scenario::fig5_style("dedup", 2, Strategy::Irs, 5),
        "pipeline",
    );
}

#[test]
fn invariants_hold_for_servers() {
    let s = Scenario::new(4, Strategy::Irs, 5)
        .vm(
            VmScenario::new(presets::server::apache_ab(64, 4, 0.5), 4)
                .pin_one_to_one()
                .measured(),
        )
        .vm(VmScenario::new(presets::hog::cpu_hogs(2), 4).pin_one_to_one());
    sweep(s, "open-loop server");
}

#[test]
fn invariants_hold_for_pull_oracle() {
    sweep(
        Scenario::fig5_style("blackscholes", 2, Strategy::IrsPull, 5),
        "pull oracle",
    );
}

/// Parallel workloads complete and release every task; nothing leaks.
#[test]
fn every_task_terminates() {
    for strategy in [Strategy::Vanilla, Strategy::Irs, Strategy::Ple, Strategy::RelaxedCo] {
        let r = Scenario::fig5_style("EP", 2, strategy, 5).run();
        assert!(
            r.measured().makespan.is_some(),
            "{strategy}: EP failed to complete"
        );
    }
}
