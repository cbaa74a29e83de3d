//! End-to-end tests for the online invariant sanitizer (`irs_core::check`)
//! and the typed trace its reports render: clean strategies stay clean,
//! a nested dispatch owns the task it advanced, checking never perturbs
//! results, and the trace sees every task migration. (The per-invariant
//! detection matrix, including a violation caught inside a real run with
//! its trace dump, lives beside the checker, in `check.rs`.)

use irs_core::{Scenario, Strategy, System, SystemConfig, VmScenario};
use irs_sim::SimTime;
use irs_workloads::presets;

fn checked_cfg() -> SystemConfig {
    SystemConfig {
        check: true,
        ..SystemConfig::default()
    }
}

fn short_fig5(strategy: Strategy, seed: u64) -> Scenario {
    Scenario::fig5_style("streamcluster", 2, strategy, seed).horizon(SimTime::from_secs(5))
}

/// Every shipping strategy survives a checked run with zero violations
/// (a violation panics, so reaching the result *is* the assertion).
#[test]
fn checked_runs_are_clean_for_all_strategies() {
    for strategy in Strategy::ALL {
        let res = System::with_config(short_fig5(strategy, 7), checked_cfg()).run();
        assert!(res.events > 0, "{strategy}: no events processed");
    }
}

/// Strict co-scheduling exercises the gang-rotation paths the default four
/// strategies never touch; keep it honest under the sanitizer too.
#[test]
fn checked_strict_co_is_clean() {
    let res = System::with_config(short_fig5(Strategy::StrictCo, 7), checked_cfg()).run();
    assert!(res.events > 0);
}

/// A zero-cost program step (a release, a barrier arrival, a channel
/// hand-off) can grant another task whose wake deschedules the stepping
/// task and dispatches it again in the same call chain. The nested
/// dispatch advances the task itself, so the loop that was stepping it
/// must let go: it may neither reset the task's activity nor draw a step
/// over the nested one. Each checked run below reaches that path and
/// fails if the outer loop keeps the task:
///
/// * ferret under vanilla scheduling: a nested dispatch starts a compute
///   segment that the outer loop would overwrite with a second one
///   (`Computing -> Computing`, an `activity-transition`);
/// * blackscholes under IRS: a task finishes inside a nested dispatch,
///   and the outer loop would put it back to `Resume` while the guest
///   holds it exited (`task-activity`).
#[test]
fn a_nested_dispatch_owns_the_task_it_advanced() {
    for (app, strategy, seed) in [
        ("ferret", Strategy::Vanilla, 2),
        ("blackscholes", Strategy::Irs, 1),
    ] {
        let scenario = Scenario::fig5_style(app, 2, strategy, seed);
        let res = System::with_config(scenario, checked_cfg()).run();
        assert!(res.vms[0].makespan.is_some(), "{app} did not finish");
    }
}

/// An open-loop serving shape: a two-tier service with its own arrival
/// processes and wake timers, beside CPU hogs.
fn serving_shaped(seed: u64) -> Scenario {
    Scenario::new(4, Strategy::Irs, seed)
        .vm(
            VmScenario::new(presets::server::serving_tiers(2, 2, 0.6), 4)
                .pin_one_to_one()
                .measured(),
        )
        .vm(VmScenario::new(presets::hog::cpu_hogs(2), 4).pin_one_to_one())
        .horizon(SimTime::from_secs(1))
}

/// Every VM unpinned: vCPU migration between pCPUs and guest wake
/// placement across vCPUs.
fn unpinned(seed: u64) -> Scenario {
    let mut s = Scenario::fig5_style("streamcluster", 4, Strategy::Irs, seed)
        .horizon(SimTime::from_secs(6));
    for vm in &mut s.vms {
        vm.pinning = None;
    }
    s
}

/// Runs `scenario` checked and unchecked and asserts the debug renderings
/// of the whole `RunResult`s, hypervisor stats included, are identical.
fn assert_unperturbed(name: &str, scenario: fn(u64) -> Scenario) {
    let plain = System::new(scenario(42)).run();
    let checked = System::with_config(scenario(42), checked_cfg()).run();
    assert!(plain.events > 0, "{name}: no events processed");
    assert_eq!(
        format!("{plain:?}"),
        format!("{checked:?}"),
        "{name}: results diverged between checked and unchecked runs"
    );
}

/// The sanitizer (and the trace rings it arms) must be observers only:
/// the same scenario with checking on and off produces bit-identical
/// results, on pinned, open-loop and unpinned inputs.
#[test]
fn checking_does_not_perturb_results() {
    assert_unperturbed("pinned fig5", |seed| short_fig5(Strategy::Irs, seed));
    assert_unperturbed("open-loop serving", serving_shaped);
    assert_unperturbed("unpinned", unpinned);
}

/// Every task migration and every context switch shows on the typed
/// trace: in a traced run whose rings never evict, the `guest.migrate`
/// lines equal the sum of every task's migration count, and the
/// `guest.run` lines equal the guests' context switches, boot's first
/// picks included. IRS moves tasks by wake placement, balancing and the
/// SA migrator; the pull oracle also pulls running tasks.
#[test]
fn typed_trace_records_every_migration() {
    const CAP: usize = 1 << 20;
    for strategy in [Strategy::Irs, Strategy::IrsPull] {
        let mut sys = System::with_config(
            Scenario::fig5_style("streamcluster", 2, strategy, 7),
            SystemConfig {
                trace_capacity: CAP,
                ..SystemConfig::default()
            },
        );
        while sys.now() < SimTime::from_millis(500) {
            assert!(sys.step());
        }
        let dump = sys.trace_dump();
        // The two rings together hold fewer than CAP records, so neither
        // evicted one.
        assert!(dump.lines().count() < CAP);
        let (mut migrations, mut switches) = (0, 0);
        for vm in 0..sys.hypervisor().n_vms() {
            let os = sys.guest(vm);
            migrations += (0..os.n_tasks())
                .map(|t| os.task(irs_guest::TaskId(t)).migrations)
                .sum::<u64>();
            switches += os.stats().context_switches;
        }
        let traced = |tag: &str| dump.lines().filter(|l| l.contains(tag)).count() as u64;
        assert!(migrations > 0, "{strategy}: no task migrated");
        assert_eq!(
            traced("guest.migrate"),
            migrations,
            "{strategy}: the trace missed migrations"
        );
        assert_eq!(
            traced("guest.run"),
            switches,
            "{strategy}: the trace missed context switches"
        );
    }
}
