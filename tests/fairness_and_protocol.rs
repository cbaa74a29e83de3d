//! Integration tests of §5.4 (fairness) and the SA protocol accounting.

use irs_sched::{Scenario, Strategy};

/// §5.4: IRS never lets the foreground VM exceed its fair share of the
/// pCPUs.
#[test]
fn irs_respects_fair_share() {
    for n_inter in [1usize, 2, 4] {
        let fair_pcpus = 4.0 - n_inter as f64 / 2.0;
        let r = Scenario::fig5_style("streamcluster", n_inter, Strategy::Irs, 1).run();
        let util = r
            .measured()
            .utilization_vs_fair_share(fair_pcpus, r.elapsed);
        assert!(
            util <= 1.05,
            "{n_inter}-inter: foreground exceeded fair share ({util:.2})"
        );
    }
}

/// §5.4: the background VM keeps roughly its fair share of the contended
/// pCPU under IRS (the foreground's gain comes from its own idle cycles,
/// not from starving the competitor).
#[test]
fn background_is_not_starved() {
    let r = Scenario::fig5_style("streamcluster", 2, Strategy::Irs, 1).run();
    // 2 hogs → the background VM's fair share is 2 × 0.5 pCPU = 1 pCPU.
    let bg_cpu = r.vms[1].cpu_time.as_secs_f64();
    let fair = r.elapsed.as_secs_f64() * 1.0;
    assert!(
        bg_cpu > 0.75 * fair,
        "background got only {:.0}% of its fair share",
        bg_cpu / fair * 100.0
    );
}

/// Every SA round is accounted for: sent = acknowledged + timed out; a
/// well-behaved guest never trips the completion limit.
#[test]
fn sa_protocol_accounting() {
    for n_inter in [1usize, 2, 4] {
        let r = Scenario::fig5_style("UA", n_inter, Strategy::Irs, 1).run();
        assert!(r.hv.sa_sent > 0, "{n_inter}-inter: SA must fire");
        assert_eq!(r.hv.sa_sent, r.hv.sa_acked + r.hv.sa_timeouts);
        assert_eq!(r.hv.sa_timeouts, 0, "default budget must never time out");
    }
}

/// Non-IRS strategies never emit SA traffic, and the IRS guest never
/// receives SA without interference-induced preemption pressure.
#[test]
fn sa_only_under_irs() {
    for strategy in [Strategy::Vanilla, Strategy::Ple, Strategy::RelaxedCo] {
        let r = Scenario::fig5_style("streamcluster", 2, strategy, 1).run();
        assert_eq!(r.hv.sa_sent, 0, "{strategy} must not send SA");
        assert_eq!(r.measured().guest.sa_migrations, 0);
    }
}

/// Determinism: a scenario is a pure function of its seed.
#[test]
fn runs_are_deterministic() {
    for strategy in [Strategy::Vanilla, Strategy::Irs, Strategy::Ple] {
        let a = Scenario::fig5_style("MG", 2, strategy, 9).run();
        let b = Scenario::fig5_style("MG", 2, strategy, 9).run();
        assert_eq!(a.measured().makespan, b.measured().makespan, "{strategy}");
        assert_eq!(a.hv.preemptions, b.hv.preemptions, "{strategy}");
        assert_eq!(a.hv.sa_sent, b.hv.sa_sent, "{strategy}");
        assert_eq!(
            a.measured().guest.context_switches,
            b.measured().guest.context_switches,
            "{strategy}"
        );
    }
}

/// The Fig 4 pingpong fix pays off: with tagging, blocking workloads do at
/// least as well as without, and pingpong preemptions actually occur.
#[test]
fn pingpong_tagging_is_active_and_not_harmful() {
    // Whether the exact Fig 4 situation (a waiter waking onto a vCPU whose
    // current is a tagged intruder) arises depends on interleaving; scan a
    // few configurations for at least one trigger.
    let mut triggered = 0u64;
    let mut on_total = 0.0;
    let mut off_total = 0.0;
    for (bench, seed) in [
        ("fluidanimate", 1u64),
        ("fluidanimate", 2),
        ("bodytrack", 1),
        ("canneal", 2),
    ] {
        let with = Scenario::fig5_style(bench, 2, Strategy::Irs, seed).run();
        triggered += with.measured().guest.pingpong_preempts;
        on_total += with.measured().makespan_ms();
        let mut off = Scenario::fig5_style(bench, 2, Strategy::Irs, seed);
        off.vms[0].sa_override = Some(irs_sched::guest::GuestSaConfig {
            pingpong_tagging: false,
            ..irs_sched::guest::GuestSaConfig::default()
        });
        off_total += off.run().measured().makespan_ms();
    }
    assert!(
        triggered > 0,
        "the Fig 4 path must trigger somewhere across blocking workloads"
    );
    assert!(
        on_total < off_total * 1.10,
        "tagging must not cost more than noise: on {on_total:.0} vs off {off_total:.0}"
    );
}
