//! `figures fleet` — the datacenter-scale fleet campaign
//! (`irs_fleet`), sized for the CLI, plus its BENCH_history.jsonl
//! record and `--check-perf` floor.
//!
//! The full campaign runs a 120-host fleet over three churn epochs:
//! three placement policies × five adversary mixes, plus an overcommit
//! sweep, every cell simulated under both vanilla and IRS and held to
//! the degradation contract ([`irs_core::DEGRADATION_MARGIN`]). The
//! `--smoke` variant shrinks the fleet (16 hosts, 2 policies × 2 mixes)
//! for CI; it asserts the same contract. `--hosts N` rescales the fleet
//! shape (tenant load grows proportionally) — the *scale* configuration,
//! whose history phase is `fleet-scale` and whose ratchet tracks
//! *effective* throughput: logical events (what a non-incremental
//! campaign would have simulated) per wall second. The incremental
//! engine (dirty-host carry-over + composition-keyed result memo) is
//! what makes 1000-host fleets affordable; `--parity` re-runs the
//! campaign with every host simulated from scratch and asserts the SLO
//! tables are bit-identical.

use crate::perf::PerfRecord;
use crate::Opts;
use irs_fleet::{AdversaryMix, CampaignSpec, FleetConfig, FleetReport, PlacementPolicy};
use std::time::Instant;

/// Campaign outcome plus the wall-clock facts the history record needs.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The campaign report (tables, elision accounting, churn).
    pub report: FleetReport,
    /// Wall-clock of the whole campaign, seconds.
    pub wall_s: f64,
    /// Whether this was the `--smoke` variant (separate history phase).
    pub smoke: bool,
    /// Fleet size actually simulated (default, smoke, or `--hosts`).
    pub hosts: usize,
    /// Whether `--hosts` rescaled the fleet (the `fleet-scale` phase).
    pub scale: bool,
}

/// The scale configuration's incrementality floor: the logical event
/// volume must be at least this multiple of what was actually executed
/// (counter-based, so the gate is deterministic).
const SCALE_MIN_ELISION: u64 = 5;

/// Builds the campaign spec for the CLI: full-size by default, the CI
/// smoke variant with `smoke`, rescaled to `hosts` when given (tenant
/// load scales with the fleet so occupancy stays comparable).
/// `opts.base_seed` seeds the fleet; `opts.seeds` is ignored (the
/// campaign is a population study — its sample count is tenant-epochs,
/// not repeated runs).
pub fn spec(opts: Opts, smoke: bool, hosts: Option<usize>) -> CampaignSpec {
    let mut fleet = FleetConfig {
        seed: opts.base_seed,
        jobs: opts.jobs,
        ..FleetConfig::default()
    };
    if smoke {
        fleet = FleetConfig {
            hosts: 16,
            epochs: 2,
            initial_tenants: 28,
            arrivals_per_epoch: 8,
            ..fleet
        };
    }
    if let Some(n) = hosts {
        // Stock ratios: 120 hosts carry 300 initial tenants and 100
        // arrivals per epoch — 5/2 and 5/6 per host.
        fleet.hosts = n;
        fleet.initial_tenants = n * 5 / 2;
        fleet.arrivals_per_epoch = (n * 5 / 6).max(1);
    }
    if smoke {
        CampaignSpec {
            fleet,
            policies: vec![PlacementPolicy::FirstFit, PlacementPolicy::InterferenceAware],
            mixes: vec![AdversaryMix::CLEAN, AdversaryMix::BLEND],
            overcommit_sweep: vec![],
            assert_contract: true,
        }
    } else {
        CampaignSpec {
            fleet,
            policies: vec![
                PlacementPolicy::FirstFit,
                PlacementPolicy::WorstFit,
                PlacementPolicy::InterferenceAware,
            ],
            mixes: vec![
                AdversaryMix::CLEAN,
                AdversaryMix::BOOST,
                AdversaryMix::STEAL,
                AdversaryMix::EVADE,
                AdversaryMix::BLEND,
            ],
            overcommit_sweep: vec![1.0, 1.5, 2.0],
            assert_contract: true,
        }
    }
}

/// Runs the fleet campaign and times it.
///
/// # Panics
///
/// Panics if any cell violates the degradation contract, or if no host
/// run reused another's result (a fleet without repeated compositions
/// would mean the churn model degenerated).
pub fn fleet(opts: Opts, smoke: bool, hosts: Option<usize>) -> FleetOutcome {
    let spec = spec(opts, smoke, hosts);
    let fleet_hosts = spec.fleet.hosts;
    let t = Instant::now();
    let report = irs_fleet::run_campaign(&spec);
    let wall_s = t.elapsed().as_secs_f64();
    assert!(
        report.fork_warmup_saved > 0,
        "fleet campaign reused no run across equal-composition hosts"
    );
    FleetOutcome {
        report,
        wall_s,
        smoke,
        hosts: fleet_hosts,
        scale: hosts.is_some() && !smoke,
    }
}

/// Runs the campaign twice — incremental and full — and asserts the SLO
/// tables are bit-identical (the incremental-parity gate). Returns the
/// incremental outcome; the full run is compared and dropped.
///
/// # Panics
///
/// Panics on any table divergence or logical-counter mismatch.
pub fn assert_incremental_parity(opts: Opts, smoke: bool, hosts: Option<usize>) -> FleetOutcome {
    let mut inc_spec = spec(opts, smoke, hosts);
    inc_spec.fleet.incremental = true;
    let mut full_spec = inc_spec.clone();
    full_spec.fleet.incremental = false;
    let outcome = fleet(opts, smoke, hosts);
    let full = irs_fleet::run_campaign(&full_spec);
    let render = |r: &FleetReport| {
        r.tables
            .iter()
            .map(|t| t.render())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        render(&full),
        render(&outcome.report),
        "incremental SLO tables diverged from full re-simulation"
    );
    assert_eq!(full.events, outcome.report.events, "logical events diverged");
    assert_eq!(full.host_runs, outcome.report.host_runs, "host runs diverged");
    assert!(
        outcome.report.runs_elided > 0,
        "parity held but incrementality elided nothing"
    );
    outcome
}

/// Events actually executed: the logical volume minus the reused
/// events (`fork_warmup_saved` and `events_elided`).
pub fn events_executed(o: &FleetOutcome) -> u64 {
    o.report
        .events
        .saturating_sub(o.report.fork_warmup_saved)
        .saturating_sub(o.report.events_elided)
}

/// Simulation throughput of the campaign: events actually executed per
/// wall second (the engine-speed metric — elided work excluded).
pub fn events_per_sec(o: &FleetOutcome) -> f64 {
    events_executed(o) as f64 / o.wall_s.max(1e-9)
}

/// *Effective* throughput: logical events per wall second — what the
/// campaign delivers per second counting carried/memoized host runs at
/// face value. This is the `fleet-scale` ratchet metric: it rises with
/// both engine speed and elision rate.
pub fn effective_events_per_sec(o: &FleetOutcome) -> f64 {
    o.report.events as f64 / o.wall_s.max(1e-9)
}

/// The campaign's BENCH_history.jsonl record, run with `jobs` workers.
/// Smoke, full, and scale campaigns are separate phases (`fleet-smoke`,
/// `fleet`, `fleet-scale`: they simulate different fleets), and every
/// record carries its fleet size. The `fleet` / `fleet-smoke` phases
/// ratchet *executed* events/sec (engine speed, comparable across the
/// incremental transition); `fleet-scale` ratchets *effective*
/// events/sec.
pub fn record(o: &FleetOutcome, jobs: usize) -> PerfRecord {
    let (phase, ratchet_on) = if o.smoke {
        ("fleet-smoke", "events_per_sec")
    } else if o.scale {
        ("fleet-scale", "effective_events_per_sec")
    } else {
        ("fleet", "events_per_sec")
    };
    PerfRecord {
        phase,
        jobs,
        hosts: Some(o.hosts),
        fields: vec![
            ("events_per_sec", events_per_sec(o), 0),
            ("effective_events_per_sec", effective_events_per_sec(o), 0),
            ("fork_warmup_saved", o.report.fork_warmup_saved as f64, 0),
            ("runs_elided", o.report.runs_elided as f64, 0),
            ("host_runs", o.report.host_runs as f64, 0),
        ],
        ratchet_on,
    }
}

/// The fleet's absolute `--check-perf` floor: a scale campaign's logical
/// event volume must be at least [`SCALE_MIN_ELISION`]× what it executed
/// (counter-based, so deterministic). Returns one message per violation.
pub fn floor_failures(o: &FleetOutcome) -> Vec<String> {
    let executed = events_executed(o);
    if !o.scale || o.smoke || o.report.events >= SCALE_MIN_ELISION * executed {
        return Vec::new();
    }
    vec![format!(
        "fleet-scale incrementality floor: logical volume {} is below \
         {SCALE_MIN_ELISION}x the {executed} events executed \
         (runs_elided={}, hosts_carried={})",
        o.report.events, o.report.runs_elided, o.report.hosts_carried,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::runner::ForkCacheStats;
    use irs_metrics::Table;

    fn outcome(smoke: bool, scale: bool) -> FleetOutcome {
        FleetOutcome {
            report: FleetReport {
                tables: Vec::new(),
                fork_warmup_saved: 1_000,
                events_elided: 4_000,
                events: 15_000,
                host_runs: 40,
                runs_elided: 10,
                hosts_carried: 6,
                tenants_placed: 30,
                tenants_rejected: 2,
                cache: ForkCacheStats::default(),
                accounting: Table::new("accounting"),
            },
            wall_s: 2.0,
            smoke,
            hosts: if smoke { 16 } else { 120 },
            scale,
        }
    }

    #[test]
    fn throughput_metrics_decompose() {
        let o = outcome(true, false);
        // Executed: 15000 − 1000 − 4000.
        assert_eq!(events_executed(&o), 10_000);
        assert_eq!(events_per_sec(&o), 5_000.0);
        assert_eq!(effective_events_per_sec(&o), 7_500.0);
    }

    /// Golden: the fleet phases' lines, byte for byte as the trend log
    /// has always stored them.
    #[test]
    fn history_line_is_one_self_describing_record() {
        let mut scale = outcome(false, true);
        scale.hosts = 1000;
        let line = |o: &FleetOutcome| record(o, 2).to_line("abc1234", 1_700_000_000, 4);
        assert_eq!(
            line(&outcome(false, false)),
            "{\"commit\": \"abc1234\", \"timestamp\": 1700000000, \"phase\": \"fleet\", \"jobs\": 2, \"cores\": 4, \"hosts\": 120, \"events_per_sec\": 5000, \"effective_events_per_sec\": 7500, \"fork_warmup_saved\": 1000, \"runs_elided\": 10, \"host_runs\": 40}\n"
        );
        assert_eq!(
            line(&outcome(true, false)),
            "{\"commit\": \"abc1234\", \"timestamp\": 1700000000, \"phase\": \"fleet-smoke\", \"jobs\": 2, \"cores\": 4, \"hosts\": 16, \"events_per_sec\": 5000, \"effective_events_per_sec\": 7500, \"fork_warmup_saved\": 1000, \"runs_elided\": 10, \"host_runs\": 40}\n"
        );
        assert_eq!(
            line(&scale),
            "{\"commit\": \"abc1234\", \"timestamp\": 1700000000, \"phase\": \"fleet-scale\", \"jobs\": 2, \"cores\": 4, \"hosts\": 1000, \"events_per_sec\": 5000, \"effective_events_per_sec\": 7500, \"fork_warmup_saved\": 1000, \"runs_elided\": 10, \"host_runs\": 40}\n"
        );
    }

    // The fleet ratchet cases are rows of the one ratchet table in
    // `perf.rs`; these tests run the fleet's groups of it.
    #[test]
    fn fleet_ratchet_matches_config_and_fires() {
        crate::perf::tests::assert_ratchet_cases("fleet");
    }

    #[test]
    fn hosts_aware_matching_skips_other_sizes() {
        crate::perf::tests::assert_ratchet_cases("hosts");
    }

    /// The scale phase ratchets effective throughput and floors elision.
    #[test]
    fn scale_phase_ratchets_effective_throughput_and_floors_elision() {
        crate::perf::tests::assert_ratchet_cases("scale");
        let mut o = outcome(false, true);
        o.hosts = 1000;
        let rec = record(&o, 2);
        assert_eq!(
            (rec.phase, rec.ratchet_on),
            ("fleet-scale", "effective_events_per_sec")
        );
        for o in [outcome(false, false), outcome(true, false)] {
            assert_eq!(record(&o, 2).ratchet_on, "events_per_sec");
        }
        // 15000 logical < 5 × 10000 executed: the elision floor fires,
        // whatever the history holds.
        let failures = floor_failures(&o);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("incrementality floor"));
        // Only the scale configuration carries the floor.
        assert!(floor_failures(&outcome(false, false)).is_empty());
        assert!(floor_failures(&outcome(true, false)).is_empty());
        // With enough elision the floor passes.
        o.report.events_elided = 50_000;
        o.report.events = 55_000; // executed 4000; 55000 ≥ 5×4000
        assert!(floor_failures(&o).is_empty());
    }
}
