//! The committed reference tables are what the figure functions produce.
//!
//! Each test renders its tables at `Opts::default()` — the options
//! `figures all` runs with — and byte-compares their CSVs with the copies
//! in `results_csv/`. The seven single tables are the cheap ones (about
//! 2.6 s together in a debug build); `fig1b` is the paper's motivating
//! migration-latency table, whose numbers move if any caller observes a
//! different `System::now()` between steps. The fleet campaign (about
//! 3.4 s) pins its six SLO tables and its accounting table, whose
//! `warmup saved` and `events elided` rows move if the result reuse
//! changes what it counts.
//!
//! After an intentional change to a table, regenerate `results_csv/` with
//! `figures all --csv results_csv` and review the diff.

use irs_bench::{ablations, fairness, fig1, fig2, fleet, io_latency, Opts};
use irs_metrics::Table;

fn assert_matches_reference(name: &str, table: Table) {
    let path = format!(
        "{}/../../results_csv/{name}.csv",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert_eq!(
        table.to_csv(),
        want,
        "{name} diverged from results_csv/{name}.csv"
    );
}

#[test]
fn fig1a_matches_reference() {
    assert_matches_reference("fig1a", fig1::fig1a(Opts::default()));
}

#[test]
fn fig1b_matches_reference() {
    assert_matches_reference("fig1b", fig1::fig1b(Opts::default()));
}

#[test]
fn fig2_matches_reference() {
    assert_matches_reference("fig2", fig2::fig2(Opts::default()));
}

#[test]
fn fairness_matches_reference() {
    assert_matches_reference("fairness", fairness::fairness(Opts::default()));
}

#[test]
fn sa_stats_matches_reference() {
    assert_matches_reference("sa_stats", fairness::sa_stats(Opts::default()));
}

#[test]
fn io_latency_matches_reference() {
    assert_matches_reference("io_latency", io_latency::io_latency(Opts::default()));
}

#[test]
fn ablate_strict_co_matches_reference() {
    assert_matches_reference(
        "ablate_strict_co",
        ablations::ablate_strict_co(Opts::default()),
    );
}

#[test]
fn fleet_tables_match_reference() {
    let report = fleet::fleet(Opts::default(), false, None).report;
    assert_eq!(
        report.tables.len(),
        6,
        "five mixes plus the overcommit sweep"
    );
    for (i, table) in report.tables.into_iter().enumerate() {
        assert_matches_reference(&format!("fleet_{i}"), table);
    }
    assert_matches_reference("fleet_accounting", report.accounting);
}
