//! Watch the SA protocol on the wire: run a contended IRS scenario with the
//! scheduling trace enabled and print the first full scheduler-activation
//! round — upcall delivery, context switch, acknowledgement, migration —
//! followed by a `System::debug_vm` snapshot of the guest at that moment.
//!
//! Run with: `cargo run --release --example trace_debugging`

use irs_sched::sim::SimTime;
use irs_sched::{Scenario, Strategy, System, SystemConfig};

fn main() {
    let scenario = Scenario::fig5_style("streamcluster", 1, Strategy::Irs, 1);
    let mut sys = System::with_config(
        scenario,
        SystemConfig {
            trace_capacity: 1 << 14,
            ..SystemConfig::default()
        },
    );

    // Run until the first SA round has completed and the migrator moved.
    while sys.guest(0).stats().sa_migrations == 0 {
        assert!(sys.step(), "simulation ended unexpectedly");
        assert!(sys.now() < SimTime::from_secs(5), "no SA round within 5s");
    }
    // A little extra so the consequences are visible too.
    let until = sys.now() + SimTime::from_millis(2);
    while sys.now() < until {
        sys.step();
    }

    // Print the window around the SA round.
    let dump = sys.trace_dump();
    let lines: Vec<&str> = dump.lines().collect();
    let first_sa = lines
        .iter()
        .position(|l| l.contains("VIRQ_SA_UPCALL"))
        .expect("the trace contains the upcall");
    let start = first_sa.saturating_sub(6);
    let end = (first_sa + 24).min(lines.len());
    println!("--- trace excerpt around the first scheduler activation ---");
    for line in &lines[start..end] {
        println!("{line}");
    }
    println!("--- {} trace records total ---", lines.len());

    // Cross-layer snapshot of the measured VM right after the SA round:
    // per-vCPU hypervisor runstates, guest-current tasks, and every task's
    // scheduler state — the view to reach for when a run looks stuck.
    println!("--- vm0 snapshot at {} ---", sys.now());
    print!("{}", sys.debug_vm(0));
}
