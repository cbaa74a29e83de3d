//! Server workloads under interference (§5.3): a SPECjbb-like closed loop
//! and an ab-like open loop, vanilla vs IRS. Latency — especially the tail
//! — is where IRS shows up for servers.
//!
//! Run with: `cargo run --release --example server_latency`

use irs_sched::sim::SimTime;
use irs_sched::workloads::presets;
use irs_sched::{Scenario, Strategy, VmScenario};

fn main() {
    let horizon = SimTime::from_secs(10);
    println!("10 s of virtual time per run, one CPU hog on pCPU0\n");

    for (name, open_loop) in [
        ("specjbb (4 warehouses)", false),
        ("ab (512 workers)", true),
    ] {
        println!("{name}:");
        for strategy in [Strategy::Vanilla, Strategy::Irs] {
            let bundle = if open_loop {
                presets::server::apache_ab(512, 4, 0.6)
            } else {
                presets::server::specjbb(4)
            };
            let r = Scenario::new(4, strategy, 7)
                .vm(VmScenario::new(bundle, 4).pin_one_to_one().measured())
                .vm(VmScenario::new(presets::hog::cpu_hogs(1), 4).pin_one_to_one())
                .horizon(horizon)
                .run();
            let m = r.measured();
            println!(
                "  {:<8} {:>7.0} req/s | mean {:>7.0} us | p95 {:>7.0} us | p99 {:>7.0} us{}",
                strategy.to_string(),
                m.throughput_rps(r.elapsed),
                m.mean_latency_us(),
                m.latency_percentile_us(95.0),
                m.latency_percentile_us(99.0),
                if m.dropped_requests > 0 {
                    format!(" | {} dropped", m.dropped_requests)
                } else {
                    String::new()
                }
            );
        }
        println!();
    }
    println!(
        "The warehouse thread stuck on the preempted vCPU is what stretches\n\
         the tail; IRS migrates it, so p99 collapses while the mean barely\n\
         moves — matching the paper's \"latency, not throughput\" finding."
    );
}
