//! Snapshot/fork determinism — the headline contract of `System::snapshot`:
//! a forked branch must be **bit-identical** (Debug-rendered `RunResult` +
//! `FaultStats`) to a from-scratch run of the same scenario and config, at
//! any `--jobs N`, checked or not.
//!
//! Comparison is by `Debug` rendering: `f64` Debug is shortest-roundtrip,
//! so equal renderings mean every float is bit-equal.

use irs_core::{parallel, FaultConfig, Scenario, Strategy, System, SystemConfig};
use irs_sim::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn quick(strategy: Strategy, seed: u64) -> Scenario {
    // EP is the cheapest preset; one interferer keeps scheduling non-trivial.
    Scenario::fig5_style("EP", 1, strategy, seed)
}

/// Scratch-runs `make()` under the config, then forks two branches off a
/// 40 ms warmup and completes them through the worker pool at `--jobs 1`
/// and `--jobs 2`; every branch (and the warmup system itself) must render
/// identically, and the warmup must be a non-empty shared prefix.
fn assert_fork_identity(make: impl Fn() -> Scenario, faults: Option<FaultConfig>) {
    let cfg = SystemConfig {
        faults,
        ..SystemConfig::default()
    };
    let s = make();
    let label = format!(
        "{} {:?} seed={} faults={:?}",
        s.vms[0].bundle.name, s.strategy, s.seed, cfg.faults
    );
    let scratch = System::with_config(s, cfg.clone()).run();
    let want = format!("{scratch:?}");

    let mut warm = System::with_config(make(), cfg);
    warm.run_until(SimTime::from_millis(40));
    let snap = warm.snapshot();
    assert!(snap.events_processed() > 0, "[{label}] shared an empty warmup");
    for jobs in [1usize, 2] {
        let branches = parallel::ordered_map(jobs, 2, |_| snap.resume().run());
        for b in &branches {
            assert_eq!(
                format!("{b:?}"),
                want,
                "[{label}] forked branch diverged from scratch at jobs={jobs}"
            );
            assert_eq!(b.faults, scratch.faults, "[{label}] FaultStats diverged");
        }
    }
    // The warmup system is itself a branch: finishing it must agree too.
    let warm_result = warm.run();
    assert_eq!(format!("{warm_result:?}"), want, "[{label}] warmup finish diverged");
}

/// The acceptance matrix: 4 strategies × fault profiles. Every strategy
/// runs clean, under the chatty `ack_chaos` protocol faults, and under the
/// `everything` stack; each also pairs with a rotating heavy profile, so
/// every fault family crosses the snapshot boundary somewhere.
#[test]
fn fork_matrix_strategies_faults() {
    let rotating = [
        FaultConfig::everything(),
        FaultConfig::wedged_guest(),
        FaultConfig::ack_chaos(),
        FaultConfig::jittery_timer(),
    ];
    let strategies = [
        Strategy::Vanilla,
        Strategy::Ple,
        Strategy::RelaxedCo,
        Strategy::Irs,
    ];
    for (i, strategy) in strategies.into_iter().enumerate() {
        let mut profiles = vec![
            None,
            Some(FaultConfig::ack_chaos()),
            Some(FaultConfig::everything()),
        ];
        let extra = Some(rotating[i].clone());
        if !profiles.contains(&extra) {
            profiles.push(extra);
        }
        for faults in profiles {
            assert_fork_identity(|| quick(strategy, 11), faults);
        }
    }
}

/// The `figures perf` scenario mix: heavier presets, two interferers and
/// every strategy with a distinct hypervisor path, beyond the cheap EP
/// cells above.
#[test]
fn fork_identity_on_perf_mix() {
    let mix = [
        ("EP", 1, Strategy::Vanilla),
        ("EP", 2, Strategy::Irs),
        ("blackscholes", 1, Strategy::Ple),
        ("streamcluster", 1, Strategy::Irs),
        ("LU", 1, Strategy::RelaxedCo),
        ("swaptions", 2, Strategy::Irs),
    ];
    for (bench, n_inter, strategy) in mix {
        assert_fork_identity(|| Scenario::fig5_style(bench, n_inter, strategy, 1), None);
    }
}

/// Gang scheduling keeps a `GangRotate` timer permanently in flight — the
/// snapshot must carry that timer across too.
#[test]
fn fork_under_strict_co() {
    assert_fork_identity(|| quick(Strategy::StrictCo, 11), None);
}

/// Forking a *checked* run rebuilds the sanitizer at the snapshot instant;
/// results must still match an unchecked scratch run (checking is already
/// proven result-neutral in `sanitizer.rs`).
#[test]
fn fork_with_sanitizer_armed() {
    let scratch = System::new(quick(Strategy::Irs, 23)).run();
    let cfg = SystemConfig {
        check: true,
        ..SystemConfig::default()
    };
    let mut warm = System::with_config(quick(Strategy::Irs, 23), cfg);
    warm.run_until(SimTime::from_millis(40));
    for sys in warm.fork(2) {
        let b = sys.run();
        assert_eq!(format!("{b:?}"), format!("{scratch:?}"));
    }
}

/// `restore` rewinds: run past the snapshot point, rewind, and the re-run
/// must replay the identical suffix.
#[test]
fn restore_rewinds_to_the_snapshot_instant() {
    let mut sys = System::new(quick(Strategy::Irs, 5));
    sys.run_until(SimTime::from_millis(30));
    let snap = sys.snapshot();
    let first = sys.run();
    let mut rewound = snap.resume();
    rewound.restore(&snap);
    assert_eq!(rewound.now(), snap.now());
    assert_eq!(rewound.events_processed(), snap.events_processed());
    let second = rewound.run();
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
}

/// Snapshotting at *any* boundary is valid, including a completed run and
/// time zero (a boot snapshot is just a from-scratch run).
#[test]
fn snapshot_boundaries_are_arbitrary() {
    let want = format!("{:?}", System::new(quick(Strategy::Vanilla, 9)).run());
    // Boot snapshot.
    let boot = System::new(quick(Strategy::Vanilla, 9)).snapshot();
    assert_eq!(format!("{:?}", boot.resume().run()), want);
    // Completed snapshot: resuming is a no-op finish.
    let mut done = System::new(quick(Strategy::Vanilla, 9));
    assert!(!done.run_until(SimTime::MAX), "run must complete");
    let snap = done.snapshot();
    assert_eq!(format!("{:?}", snap.resume().run()), want);
}

/// Rolling checkpoints + sanitizer: a violation re-runs the window from
/// the last checkpoint with a deep trace ring armed and appends the
/// replay's report — which must reproduce the same named invariant.
#[test]
fn sanitizer_violation_replays_from_checkpoint() {
    let cfg = SystemConfig {
        check: true,
        checkpoint_period: Some(SimTime::from_millis(5)),
        ..SystemConfig::default()
    };
    let scenario = Scenario::fig5_style("streamcluster", 2, Strategy::FaultDoubleRun, 42)
        .horizon(SimTime::from_secs(5));
    let result = catch_unwind(AssertUnwindSafe(|| {
        System::with_config(scenario, cfg).run()
    }));
    let err = result.expect_err("the double-run fault must trip the sanitizer");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload should be a string");
    assert!(
        msg.contains("scheduler invariant violated: pcpu-double-run"),
        "report does not name the tripped invariant:\n{msg}"
    );
    assert!(
        msg.contains("--- checkpoint replay:"),
        "report carries no checkpoint replay:\n{msg}"
    );
    assert_eq!(
        msg.matches("scheduler invariant violated: pcpu-double-run").count(),
        2,
        "the replay must reproduce the violation:\n{msg}"
    );
}

/// Checkpointing must never perturb results (snapshots mutate nothing).
#[test]
fn checkpointing_does_not_perturb_results() {
    let plain = System::new(quick(Strategy::Irs, 17)).run();
    let cfg = SystemConfig {
        checkpoint_period: Some(SimTime::from_millis(10)),
        ..SystemConfig::default()
    };
    let checkpointed = System::with_config(quick(Strategy::Irs, 17), cfg).run();
    assert_eq!(format!("{plain:?}"), format!("{checkpointed:?}"));
}
