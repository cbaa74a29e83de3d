//! Calibration probes: run the paper's headline setups and print the key
//! numbers so the shape can be compared against the published figures.
//! (Assertions here are deliberately loose — the strict shape checks live
//! in the integration suite at the workspace root.)

use irs_core::{Scenario, Strategy};
use irs_metrics::{improvement_pct, slowdown};

fn makespan_ms(s: Scenario) -> f64 {
    s.run().measured().makespan_ms()
}

#[test]
fn fig1a_slowdowns() {
    for bench in ["fluidanimate", "ua", "raytrace"] {
        let solo = {
            let mut s = Scenario::fig5_style(bench, 1, Strategy::Vanilla, 1);
            s.vms.truncate(1); // no interference
            makespan_ms(s)
        };
        let inter = makespan_ms(Scenario::fig5_style(bench, 1, Strategy::Vanilla, 1));
        println!(
            "fig1a {bench}: solo {solo:.0} ms, 1-inter {inter:.0} ms, slowdown {:.2}x",
            slowdown(solo, inter)
        );
    }
}

#[test]
fn fig5_streamcluster_irs() {
    for n_inter in [1usize, 2, 4] {
        let base = makespan_ms(Scenario::fig5_style(
            "streamcluster",
            n_inter,
            Strategy::Vanilla,
            1,
        ));
        let irs = makespan_ms(Scenario::fig5_style(
            "streamcluster",
            n_inter,
            Strategy::Irs,
            1,
        ));
        let ple = makespan_ms(Scenario::fig5_style(
            "streamcluster",
            n_inter,
            Strategy::Ple,
            1,
        ));
        let co = makespan_ms(Scenario::fig5_style(
            "streamcluster",
            n_inter,
            Strategy::RelaxedCo,
            1,
        ));
        println!(
            "fig5 streamcluster {n_inter}-inter: vanilla {base:.0} ms | IRS {:+.1}% | PLE {:+.1}% | Co {:+.1}%",
            improvement_pct(base, irs),
            improvement_pct(base, ple),
            improvement_pct(base, co),
        );
    }
}

#[test]
fn fig6_mg_spinning() {
    for n_inter in [1usize, 2, 4] {
        let base = makespan_ms(Scenario::fig5_style("MG", n_inter, Strategy::Vanilla, 1));
        let irs = makespan_ms(Scenario::fig5_style("MG", n_inter, Strategy::Irs, 1));
        let ple = makespan_ms(Scenario::fig5_style("MG", n_inter, Strategy::Ple, 1));
        println!(
            "fig6 MG {n_inter}-inter: vanilla {base:.0} ms | IRS {:+.1}% | PLE {:+.1}%",
            improvement_pct(base, irs),
            improvement_pct(base, ple),
        );
    }
}

#[test]
fn fig2_utilization() {
    for bench in ["streamcluster", "raytrace", "ua"] {
        let r = Scenario::fig5_style(bench, 1, Strategy::Vanilla, 1).run();
        let m = r.measured();
        // Fair share: 3 uncontended pCPUs + half of the contended one.
        let util = m.utilization_vs_fair_share(3.5, r.elapsed);
        println!("fig2 {bench}: utilization vs fair share {:.2}", util);
    }
}

#[test]
fn sa_round_statistics() {
    let r = Scenario::fig5_style("streamcluster", 1, Strategy::Irs, 1).run();
    println!(
        "IRS run: sa_sent {} acked {} timeouts {} | guest sa_migrations {} idle_targets {} | lhp {} lwp {}",
        r.hv.sa_sent,
        r.hv.sa_acked,
        r.hv.sa_timeouts,
        r.measured().guest.sa_migrations,
        r.measured().guest.sa_idle_targets,
        r.measured().lhp,
        r.measured().lwp,
    );
    assert!(r.hv.sa_sent > 0, "SA rounds must occur under interference");
    assert_eq!(r.hv.sa_sent, r.hv.sa_acked + r.hv.sa_timeouts);
}

#[test]
fn trace_captures_the_sa_round_trip() {
    use irs_core::{System, SystemConfig};
    let scenario = Scenario::fig5_style("streamcluster", 1, Strategy::Irs, 1);
    let mut sys = System::with_config(
        scenario,
        SystemConfig {
            trace_capacity: 4096,
            ..SystemConfig::default()
        },
    );
    while sys.now() < irs_sim::SimTime::from_millis(200) {
        assert!(sys.step());
    }
    let dump = sys.trace_dump();
    assert!(
        dump.contains("VIRQ_SA_UPCALL"),
        "trace must show the upcall"
    );
    assert!(dump.contains("migrate"), "trace must show migrator moves");
    assert!(dump.contains("xen"), "hypervisor actions recorded");
    assert!(dump.contains("guest"), "guest actions recorded");
}

#[test]
fn pv_spin_halt_helps_vanilla_spinning() {
    use irs_core::{System, SystemConfig};
    let run = |pv: Option<irs_sim::SimTime>| -> f64 {
        let scenario = Scenario::fig5_style("MG", 2, Strategy::Vanilla, 1);
        System::with_config(
            scenario,
            SystemConfig {
                pv_spin: pv,
                ..SystemConfig::default()
            },
        )
        .run()
        .measured()
        .makespan_ms()
    };
    let plain = run(None);
    let pv = run(Some(irs_sim::SimTime::from_micros(100)));
    assert!(
        pv < plain * 0.95,
        "spin-then-halt must beat pure spinning under contention: {pv:.0} vs {plain:.0}"
    );
}

#[test]
fn slice_override_changes_the_hypervisor_slice() {
    use irs_core::System;
    let scenario = Scenario::fig5_style("EP", 1, Strategy::Vanilla, 1)
        .time_slice(irs_sim::SimTime::from_millis(6));
    let sys = System::new(scenario);
    assert_eq!(
        sys.hypervisor().config().time_slice,
        irs_sim::SimTime::from_millis(6)
    );
}
