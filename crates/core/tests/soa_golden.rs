//! SoA/struct coherence golden test.
//!
//! The hot-state layout refactor (struct-of-arrays task state in
//! `irs_core::domain`, the flattened vCPU arena in `irs_xen`, the timer
//! wheel in `irs_sim`) must be observationally invisible: the same
//! scenarios must produce the same `RunResult` — every float, counter,
//! and latency sample — as the pre-refactor binary-heap/AoS code did.
//!
//! `golden/soa_baseline.txt` was captured from the pre-refactor tree
//! (one `Debug`-rendered `RunResult` per scenario; Rust's `f64` Debug is
//! shortest-roundtrip, so text equality is bit equality). Every run here
//! executes with the online invariant sanitizer armed, so the comparison
//! also proves the sanitizer reads identical values through the new SoA
//! accessors (`irs_core::check` walks credits, runstates, vruntimes, and
//! task states through the refactored layout on every event).
//!
//! To re-bless after an *intentional* semantic change:
//! `IRS_BLESS=1 cargo test -p irs-core --test soa_golden`.

use irs_core::{FaultConfig, Scenario, Strategy, System, SystemConfig};

/// The fixed scenario battery: every strategy, 1–2 interferers, plus a
/// fault-injected run, so credits, SA rounds, co-scheduling, PLE windows,
/// and the fault paths all appear in the baseline.
const BATTERY: [(&str, usize, Strategy); 6] = [
    ("EP", 1, Strategy::Vanilla),
    ("EP", 2, Strategy::Irs),
    ("blackscholes", 1, Strategy::Ple),
    ("streamcluster", 1, Strategy::Irs),
    ("LU", 1, Strategy::RelaxedCo),
    ("swaptions", 2, Strategy::Irs),
];

/// Renders the whole battery, checked, plus one fault-injected run
/// covering the injector paths.
fn render() -> String {
    let mut out = String::new();
    let mut emit = |label: &str,
                    bench: &str,
                    n_inter: usize,
                    strategy: Strategy,
                    faults: Option<FaultConfig>| {
        let cfg = SystemConfig {
            check: true,
            faults,
            ..SystemConfig::default()
        };
        let scenario = Scenario::fig5_style(bench, n_inter, strategy, 42);
        let result = System::with_config(scenario, cfg).run();
        out.push_str(&format!("=== {label}\n{result:?}\n"));
    };
    for (bench, n_inter, strategy) in BATTERY {
        emit(
            &format!("{bench}+{n_inter} {strategy:?}"),
            bench,
            n_inter,
            strategy,
            None,
        );
    }
    emit(
        "EP+1 Irs faulted",
        "EP",
        1,
        Strategy::Irs,
        Some(FaultConfig::everything()),
    );
    out
}

#[test]
fn run_results_match_pre_refactor_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/soa_baseline.txt");
    let got = render();
    if std::env::var_os("IRS_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &got).unwrap();
        eprintln!("blessed {path}");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing; run with IRS_BLESS=1 to create it");
    // Compare per line so a mismatch names the offending scenario instead
    // of dumping two multi-kilobyte blobs.
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "SoA refactor diverged from the pre-refactor baseline");
    }
    assert_eq!(got.len(), want.len(), "baseline length mismatch");
}
