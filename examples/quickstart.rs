//! Quickstart: reproduce the paper's headline result in one file.
//!
//! A 4-vCPU VM runs streamcluster (barriers every ~25 ms, blocking waits)
//! while a CPU hog contends one of its pCPUs. Lock-holder/waiter preemption
//! makes vanilla Xen/Linux lose a third of the machine; IRS recovers most
//! of it by migrating the critical thread off the preempted vCPU.
//!
//! Run with: `cargo run --release --example quickstart`

use irs_sched::metrics::improvement_pct;
use irs_sched::{Scenario, Strategy};

fn main() {
    println!("streamcluster, 4 vCPUs, 1 CPU hog on pCPU0 — five seeds each\n");

    let seeds = 5u64;
    let mean = |strategy: Strategy| -> f64 {
        (0..seeds)
            .map(|seed| {
                Scenario::fig5_style("streamcluster", 1, strategy, 1 + seed)
                    .run()
                    .measured()
                    .makespan_ms()
            })
            .sum::<f64>()
            / seeds as f64
    };

    // The no-interference reference.
    let solo = (0..seeds)
        .map(|seed| {
            let mut s = Scenario::fig5_style("streamcluster", 1, Strategy::Vanilla, 1 + seed);
            s.vms.truncate(1);
            s.run().measured().makespan_ms()
        })
        .sum::<f64>()
        / seeds as f64;
    println!("  alone                : {solo:7.0} ms");

    let vanilla = mean(Strategy::Vanilla);
    println!(
        "  vanilla Xen/Linux    : {vanilla:7.0} ms   ({:.2}x slowdown)",
        vanilla / solo
    );

    for strategy in [Strategy::Ple, Strategy::RelaxedCo, Strategy::Irs] {
        let ms = mean(strategy);
        println!(
            "  {strategy:<21}: {ms:7.0} ms   ({:+.1}% vs vanilla)",
            improvement_pct(vanilla, ms)
        );
    }

    // Peek inside one IRS run.
    let r = Scenario::fig5_style("streamcluster", 1, Strategy::Irs, 1).run();
    let m = r.measured();
    println!(
        "\nInside one IRS run: {} scheduler activations sent, {} acknowledged, \
         {} timed out;\nthe guest migrator moved {} threads ({} onto idle vCPUs).",
        r.hv.sa_sent,
        r.hv.sa_acked,
        r.hv.sa_timeouts,
        m.guest.sa_migrations,
        m.guest.sa_idle_targets
    );
}
