//! Consolidating two real applications (the §5.4 setup): UA in the
//! foreground, LU repeating forever in the background, sharing four pCPUs
//! pairwise. Reports per-VM outcomes and the system-wide weighted speedup.
//!
//! Run with: `cargo run --release --example consolidation`

use irs_sched::{Scenario, Strategy};

fn run(strategy: Strategy, seed: u64) -> (f64, f64, f64) {
    let r = Scenario::real_interference("UA", "LU", 2, strategy, seed).run();
    let fg = r.measured().makespan_ms();
    let bg_rate = r.vms[1].work_rate(r.elapsed);
    let fg_cpu = r.measured().cpu_time.as_secs_f64() / r.elapsed.as_secs_f64();
    (fg, bg_rate, fg_cpu)
}

fn main() {
    println!("UA (foreground, spinning) + LU (background, repeating), 2 threads each\n");
    let seeds = 3u64;
    let mut base = (0.0, 0.0);
    for strategy in [
        Strategy::Vanilla,
        Strategy::Ple,
        Strategy::RelaxedCo,
        Strategy::Irs,
    ] {
        let mut fg = 0.0;
        let mut bg = 0.0;
        let mut cpu = 0.0;
        for seed in 1..=seeds {
            let (f, b, c) = run(strategy, seed);
            fg += f / seeds as f64;
            bg += b / seeds as f64;
            cpu += c / seeds as f64;
        }
        if strategy == Strategy::Vanilla {
            base = (fg, bg);
        }
        let fg_speedup = base.0 / fg;
        let bg_speedup = bg / base.1;
        let weighted = (fg_speedup + bg_speedup) / 2.0 * 100.0;
        println!(
            "{:<11} UA {fg:7.0} ms (speedup {fg_speedup:5.2}) | LU rate speedup {bg_speedup:5.2} | \
             weighted {weighted:6.1}% | UA uses {:.2} pCPUs",
            strategy.to_string(),
            cpu * 4.0
        );
    }
    println!(
        "\nWeighted speedup averages the foreground and background speedups\n\
         (100% = vanilla parity). IRS lifts the foreground without starving\n\
         the background — the paper's fairness claim (§5.4)."
    );
}
