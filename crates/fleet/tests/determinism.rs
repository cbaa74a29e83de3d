//! Fleet-level determinism contract (the `crates/core/tests/fork.rs`
//! pattern, one layer up): the reference campaign's SLO tables must be
//! bit-identical across worker counts.

use irs_fleet::{
    run_campaign, AdversaryMix, CampaignSpec, FleetConfig, FleetReport, PlacementPolicy,
};
use irs_sim::SimTime;

/// A fleet small enough for debug-build CI but large enough to exercise
/// churn, rejection, adversaries, and composition grouping.
fn spec(jobs: usize) -> CampaignSpec {
    CampaignSpec {
        fleet: FleetConfig {
            hosts: 8,
            host_pcpus: 4,
            tenant_vcpus: 2,
            overcommit: 1.5,
            epochs: 2,
            warmup: SimTime::from_millis(25),
            epoch_horizon: SimTime::from_millis(120),
            initial_tenants: 10,
            arrivals_per_epoch: 4,
            depart_chance: 0.5,
            seed: 7,
            jobs,
            // This suite pins the *full* (reference) execution path;
            // tests/incremental.rs pins incremental-vs-full parity.
            incremental: false,
        },
        policies: vec![
            PlacementPolicy::FirstFit,
            PlacementPolicy::InterferenceAware,
        ],
        mixes: vec![AdversaryMix::BLEND],
        overcommit_sweep: vec![],
        // The contract is asserted by the full-size campaign; this fleet
        // is too small for stable percentiles.
        assert_contract: false,
    }
}

fn rendered(report: &FleetReport) -> String {
    report
        .tables
        .iter()
        .map(|t| t.render())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn tables_are_bit_identical_across_jobs() {
    let seq = run_campaign(&spec(1));
    let par = run_campaign(&spec(2));
    assert_eq!(rendered(&seq), rendered(&par));
    assert_eq!(seq.fork_warmup_saved, 0, "the reference reuses nothing");
    assert_eq!(seq.fork_warmup_saved, par.fork_warmup_saved);
    assert_eq!(seq.events, par.events);
    assert_eq!(seq.host_runs, par.host_runs);
}

#[test]
fn churn_accounting_is_consistent() {
    let r = run_campaign(&spec(1));
    assert!(r.tenants_placed > 0);
    assert!(r.host_runs > 0);
    // 2 policies × 1 mix, 2 epochs, 2 arms: every cell must have run.
    assert!(r.tables.len() == 1, "one SLO table per mix");
}
