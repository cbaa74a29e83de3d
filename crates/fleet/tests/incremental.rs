//! Incremental-epoch parity contract: the campaign's incremental mode
//! (dirty-host carry-over + composition-keyed result memo) must produce
//! SLO tables bit-identical to a full re-simulation — for every policy
//! in the spec, every adversary mix and every `jobs` value — while
//! actually eliding work, and while its accounting decomposition stays
//! exact.

use irs_fleet::{
    run_campaign, AdversaryMix, CampaignSpec, FleetConfig, FleetReport, PlacementPolicy,
};
use irs_sim::SimTime;

/// Same shape as the determinism suite's fleet: small enough for
/// debug-build CI, churny enough that epochs have both clean hosts
/// (carry-over fires) and dirty ones (the cache fires).
fn spec(jobs: usize, incremental: bool) -> CampaignSpec {
    CampaignSpec {
        fleet: FleetConfig {
            hosts: 8,
            host_pcpus: 4,
            tenant_vcpus: 2,
            overcommit: 1.5,
            epochs: 3,
            warmup: SimTime::from_millis(25),
            epoch_horizon: SimTime::from_millis(120),
            initial_tenants: 10,
            arrivals_per_epoch: 3,
            depart_chance: 0.5,
            seed: 7,
            jobs,
            incremental,
        },
        policies: vec![
            PlacementPolicy::FirstFit,
            PlacementPolicy::WorstFit,
            PlacementPolicy::InterferenceAware,
        ],
        mixes: vec![AdversaryMix::CLEAN, AdversaryMix::BLEND],
        overcommit_sweep: vec![1.0, 2.0],
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

/// The logical-work counters every mode must agree on, plus the SLO
/// tables themselves.
fn assert_parity(full: &FleetReport, inc: &FleetReport, label: &str) {
    assert_eq!(
        rendered(full),
        rendered(inc),
        "SLO tables diverged under {label}"
    );
    assert_eq!(full.events, inc.events, "logical events diverged ({label})");
    assert_eq!(
        full.host_runs, inc.host_runs,
        "host runs diverged ({label})"
    );
    assert_eq!(full.tenants_placed, inc.tenants_placed, "{label}");
    assert_eq!(full.tenants_rejected, inc.tenants_rejected, "{label}");
}

#[test]
fn incremental_matches_full_across_share_and_jobs() {
    let full = run_campaign(&spec(1, false));
    assert_eq!(full.runs_elided, 0, "full mode must not elide");
    assert_eq!(
        full.fork_warmup_saved, 0,
        "full mode must not reuse warmups"
    );
    assert_eq!(full.hosts_carried, 0);
    for jobs in [1, 2] {
        let inc = run_campaign(&spec(jobs, true));
        let label = format!("jobs={jobs}");
        assert_parity(&full, &inc, &label);
        // Incremental mode must actually have skipped work: churn leaves
        // clean hosts (carry) and repeated compositions (memo) in every
        // one of these configurations.
        assert!(inc.runs_elided > 0, "nothing elided under {label}");
        assert!(inc.hosts_carried > 0, "no carry-over under {label}");
        assert!(
            inc.runs_elided >= inc.hosts_carried,
            "carried runs are a subset of elided runs ({label})"
        );
        assert!(inc.events_elided > 0, "no events elided under {label}");
        assert!(inc.cache.result_hits > 0, "cache never hit under {label}");
        // The memo holds results only and never evicts.
        assert_eq!(inc.cache.snapshot_hits, 0, "{label}");
        assert_eq!(inc.cache.evictions, 0, "{label}");
        assert!(
            inc.runs_elided as usize <= inc.host_runs,
            "elided more runs than the logical grid has ({label})"
        );
        // The decomposition must stay within the logical volume.
        assert!(inc.fork_warmup_saved + inc.events_elided <= inc.events);
    }
}

#[test]
fn incremental_counters_are_jobs_invariant() {
    let a = run_campaign(&spec(1, true));
    let b = run_campaign(&spec(2, true));
    assert_eq!(rendered(&a), rendered(&b));
    assert_eq!(a.fork_warmup_saved, b.fork_warmup_saved);
    assert_eq!(a.events_elided, b.events_elided);
    assert_eq!(a.runs_elided, b.runs_elided);
    assert_eq!(a.hosts_carried, b.hosts_carried);
    assert_eq!(a.cache, b.cache, "cache stats must be jobs-invariant");
    assert_eq!(
        a.accounting.render(),
        b.accounting.render(),
        "accounting table must be jobs-invariant"
    );
}

#[test]
fn accounting_table_decomposes_the_logical_volume() {
    let inc = run_campaign(&spec(1, true));
    let t = &inc.accounting;
    let row = |name: &str| -> Vec<f64> {
        t.series()
            .iter()
            .find(|s| s.name() == name)
            .unwrap_or_else(|| panic!("accounting row {name} missing"))
            .values()
    };
    let logical = row("events (logical)");
    let executed = row("events executed");
    let warmup = row("warmup saved");
    let elided = row("events elided");
    let runs = row("host runs");
    let runs_exec = row("runs executed");
    let runs_elided = row("runs elided");
    assert!(!logical.is_empty());
    for i in 0..logical.len() {
        assert_eq!(logical[i], executed[i] + warmup[i] + elided[i]);
        assert_eq!(runs[i], runs_exec[i] + runs_elided[i]);
    }
    // Column sums must equal the report-level totals.
    assert_eq!(logical.iter().sum::<f64>(), inc.events as f64);
    assert_eq!(warmup.iter().sum::<f64>(), inc.fork_warmup_saved as f64);
    assert_eq!(elided.iter().sum::<f64>(), inc.events_elided as f64);
    assert_eq!(runs.iter().sum::<f64>(), inc.host_runs as f64);
}
