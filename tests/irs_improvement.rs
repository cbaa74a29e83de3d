//! Integration tests of the paper's headline results (§5.2, §5.5): where
//! IRS must win, where it must not matter, and how the gain scales.

use irs_sched::metrics::improvement_pct;
use irs_sched::{Scenario, Strategy};

fn improvement(bench: &str, n_inter: usize, strategy: Strategy, seed: u64) -> f64 {
    let base = Scenario::fig5_style(bench, n_inter, Strategy::Vanilla, seed)
        .run()
        .measured()
        .makespan_ms();
    let var = Scenario::fig5_style(bench, n_inter, strategy, seed)
        .run()
        .measured()
        .makespan_ms();
    improvement_pct(base, var)
}

/// Blocking workloads gain substantially at 1-inter (paper: up to 42%).
#[test]
fn irs_helps_blocking_parsec() {
    for bench in ["streamcluster", "blackscholes", "facesim"] {
        let imp = improvement(bench, 1, Strategy::Irs, 1);
        assert!(
            imp > 15.0,
            "{bench}: IRS must recover a large fraction of the stall ({imp:+.1}%)"
        );
    }
}

/// Spinning workloads gain too (paper: up to 43%) — via guest-granularity
/// rescheduling rather than idle vCPUs. EP, with almost no
/// synchronization, gains as well.
#[test]
fn irs_helps_spinning_npb() {
    for bench in ["MG", "CG", "UA", "EP"] {
        let imp = improvement(bench, 1, Strategy::Irs, 1);
        assert!(imp > 10.0, "{bench}: IRS should help spinning ({imp:+.1}%)");
    }
}

/// Pipeline workloads (threads ≫ vCPUs) and user-level work stealing gain
/// little — the paper's dedup/ferret/raytrace observation.
#[test]
fn irs_is_marginal_where_the_guest_already_balances() {
    for bench in ["dedup", "ferret", "raytrace"] {
        let imp = improvement(bench, 1, Strategy::Irs, 1);
        assert!(
            imp.abs() < 10.0,
            "{bench}: IRS should be marginal ({imp:+.1}%)"
        );
    }
}

/// The gain diminishes as interference covers more vCPUs (Fig 5/6 trend),
/// and at 4-inter it may turn negative but never as deep as the 1-inter
/// gain was high.
#[test]
fn gain_diminishes_with_interference() {
    let one = improvement("streamcluster", 1, Strategy::Irs, 1);
    let four = improvement("streamcluster", 4, Strategy::Irs, 1);
    assert!(
        one > four + 10.0,
        "interference-free vCPUs drive the gain: 1-inter {one:+.1}% vs 4-inter {four:+.1}%"
    );
}

/// Barrier (group) synchronization benefits more than mutex
/// (point-to-point) — the §5.5 archetype comparison at one interferer.
#[test]
fn group_sync_gains_at_least_as_much_as_point_to_point() {
    let barrier = improvement("blackscholes", 1, Strategy::Irs, 2);
    let mutex = improvement("x264", 1, Strategy::Irs, 2);
    assert!(barrier > 10.0 && mutex > 10.0);
    // Both benefit; group sync must not lag far behind point-to-point.
    assert!(
        barrier > mutex - 12.0,
        "barrier {barrier:+.1}% vs mutex {mutex:+.1}%"
    );
}

/// PLE must not beat IRS for blocking workloads (it has nothing to stop:
/// blocking primitives barely spin), per §5.2.
#[test]
fn ple_trails_irs_on_blocking_workloads() {
    for bench in ["streamcluster", "facesim"] {
        let irs = improvement(bench, 1, Strategy::Irs, 1);
        let ple = improvement(bench, 1, Strategy::Ple, 1);
        assert!(
            irs > ple,
            "{bench}: IRS ({irs:+.1}%) must beat PLE ({ple:+.1}%)"
        );
    }
}

/// Fig 11: the IRS gain *increases* with consolidation depth (more VMs per
/// contended pCPU), because each extra VM stretches the vanilla stall.
#[test]
fn gain_grows_with_consolidation_depth() {
    let imp = |n_vms: usize| {
        let base = Scenario::fig11_style("blackscholes", 1, n_vms, Strategy::Vanilla, 1)
            .run()
            .measured()
            .makespan_ms();
        let irs = Scenario::fig11_style("blackscholes", 1, n_vms, Strategy::Irs, 1)
            .run()
            .measured()
            .makespan_ms();
        improvement_pct(base, irs)
    };
    let one = imp(1);
    let three = imp(3);
    assert!(
        three > one,
        "deeper consolidation must increase the gain: 1 VM {one:+.1}% vs 3 VMs {three:+.1}%"
    );
}

/// The §6 pull-based oracle is at least as good as push-based IRS on
/// blocking workloads (it removes the load-estimate guesswork).
#[test]
fn pull_oracle_bounds_push_irs() {
    let push = improvement("streamcluster", 2, Strategy::Irs, 3);
    let pull = improvement("streamcluster", 2, Strategy::IrsPull, 3);
    assert!(
        pull > push - 8.0,
        "oracle should be comparable or better: push {push:+.1}% vs pull {pull:+.1}%"
    );
}

/// Fig 10's frame: the 8-vCPU configuration behaves like the 4-vCPU one —
/// strong gain at one interference, near-zero when everything is contended.
#[test]
fn eight_vcpu_scaling() {
    let imp = |n_inter: usize| {
        let base = Scenario::fig10_style("blackscholes", None, n_inter, Strategy::Vanilla, 1)
            .run()
            .measured()
            .makespan_ms();
        let irs = Scenario::fig10_style("blackscholes", None, n_inter, Strategy::Irs, 1)
            .run()
            .measured()
            .makespan_ms();
        improvement_pct(base, irs)
    };
    let one = imp(1);
    let eight = imp(8);
    assert!(
        one > 20.0,
        "1 of 8 interfered: large gain expected ({one:+.1}%)"
    );
    assert!(
        eight < 12.0,
        "all 8 interfered: nowhere to migrate ({eight:+.1}%)"
    );
    assert!(one > eight + 10.0);
}

/// Real-application interference (§5.2): gains persist when the interferer
/// is itself a parallel program that suffers LHP/LWP.
#[test]
fn real_interference_also_benefits() {
    let base =
        Scenario::real_interference("streamcluster", "fluidanimate", 2, Strategy::Vanilla, 1)
            .run()
            .measured()
            .makespan_ms();
    let irs = Scenario::real_interference("streamcluster", "fluidanimate", 2, Strategy::Irs, 1)
        .run()
        .measured()
        .makespan_ms();
    let imp = improvement_pct(base, irs);
    assert!(imp > 15.0, "got {imp:+.1}%");
}
