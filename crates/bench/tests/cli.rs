//! Bad command lines exit 2 with usage before any experiment runs, a
//! checked run prints what an unchecked one does, and a good one writes
//! nothing it was not asked for.
//!
//! Each case runs the `figures` binary. An input that would be silently
//! ignored counts as bad too: a flag that no queued experiment reads.

use std::path::Path;
use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "figures {args:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: figures") && !stderr.contains(" done in "),
        "figures {args:?} must print usage before running anything; stderr:\n{stderr}"
    );
}

/// No arguments, malformed or zero counts, an unknown experiment, and
/// removed flags.
#[test]
fn malformed_command_lines() {
    assert_usage_error(&[]);
    assert_usage_error(&["fig2", "--jobs", "abc"]);
    assert_usage_error(&["fig2", "--jobs"]);
    assert_usage_error(&["fig5", "--seeds", "0"]);
    assert_usage_error(&["fleet", "--hosts", "0"]);
    assert_usage_error(&["fig99"]);
    assert_usage_error(&["fig2", "--tickless"]);
    assert_usage_error(&["fig2", "--fork-smoke"]);
    assert_usage_error(&["fig2", "--quick"]);
}

/// `--hosts`, `--parity` and `--smoke` only mean something to the fleet
/// and serving campaigns, and `--check-perf` only to `perf` and `fleet`;
/// with only a figure queued they would be no-ops.
#[test]
fn flags_no_queued_experiment_reads() {
    assert_usage_error(&["fig1a", "--hosts", "3"]);
    assert_usage_error(&["fig1a", "--parity"]);
    assert_usage_error(&["fig1a", "--smoke"]);
    assert_usage_error(&["fig1a", "--check-perf"]);
    // `serving` reads `--smoke` but neither `--parity` nor `--check-perf`.
    assert_usage_error(&["serving", "--parity"]);
    assert_usage_error(&["serving", "--check-perf"]);
}

/// `--check` arms the invariant sanitizer process-wide: a checked run
/// exits 0 and prints exactly the unchecked run's table.
#[test]
fn a_checked_run_prints_the_same_table() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("figures binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "figures {args:?} failed; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let plain = run(&["fig2", "--seeds", "1"]);
    let checked = run(&["fig2", "--seeds", "1", "--check"]);
    assert!(!plain.is_empty(), "fig2 printed no table");
    assert_eq!(
        String::from_utf8_lossy(&checked),
        String::from_utf8_lossy(&plain),
        "--check changed the table"
    );
}

/// Without `--csv`, a campaign writes no file into its working directory:
/// no trend log, no stray output.
#[test]
fn a_run_leaves_its_directory_empty() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures-leaves-no-files");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the temporary directory");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["serving", "--smoke", "--seeds", "1", "--jobs", "1"])
        .current_dir(&dir)
        .output()
        .expect("figures binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read the temporary directory")
        .map(|e| e.expect("directory entry").file_name())
        .collect();
    assert!(left.is_empty(), "figures left files behind: {left:?}");
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
}
