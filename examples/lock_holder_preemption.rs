//! Watch lock-holder preemption happen, and watch IRS defuse it.
//!
//! A canneal-like workload hammers one shared mutex. Whenever the
//! hypervisor preempts the vCPU whose current task holds that mutex, every
//! other thread piles up behind it for up to a 30 ms Xen slice. This
//! example counts those LHP/LWP events and shows how IRS changes both the
//! counts and the outcome.
//!
//! Run with: `cargo run --release --example lock_holder_preemption`

use irs_sched::{Scenario, Strategy};

fn main() {
    println!("canneal (fine-grained mutex), 2 CPU hogs, seeds 1-3\n");
    println!(
        "{:<10} {:>12} {:>8} {:>8} {:>10} {:>12}",
        "strategy", "makespan", "LHP", "LWP", "SA sent", "migrations"
    );
    for strategy in [
        Strategy::Vanilla,
        Strategy::Ple,
        Strategy::RelaxedCo,
        Strategy::Irs,
    ] {
        let mut ms = 0.0;
        let mut lhp = 0;
        let mut lwp = 0;
        let mut sa = 0;
        let mut migr = 0;
        let seeds = 3u64;
        for seed in 1..=seeds {
            let r = Scenario::fig5_style("canneal", 2, strategy, seed).run();
            let m = r.measured();
            ms += m.makespan_ms();
            lhp += m.lhp;
            lwp += m.lwp;
            sa += r.hv.sa_sent;
            migr += m.guest.sa_migrations;
        }
        println!(
            "{:<10} {:>9.0} ms {:>8} {:>8} {:>10} {:>12}",
            strategy.to_string(),
            ms / seeds as f64,
            lhp / seeds,
            lwp / seeds,
            sa / seeds,
            migr / seeds
        );
    }
    println!(
        "\nLHP = the preempted vCPU's current task held the shared mutex;\n\
         LWP = it was first in line for it. Under IRS the context switcher\n\
         pulls that task off before the preemption lands, so the counters\n\
         shift from stalls into migrations."
    );
}
