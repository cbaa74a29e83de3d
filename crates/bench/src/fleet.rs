//! `figures fleet` — the datacenter-scale fleet campaign
//! (`irs_fleet`), sized for the CLI, plus its `--check-perf` floor.
//!
//! The full campaign runs a 120-host fleet over three churn epochs:
//! three placement policies × five adversary mixes, plus an overcommit
//! sweep, every cell simulated under both vanilla and IRS and held to
//! the degradation contract ([`irs_core::DEGRADATION_MARGIN`]). The
//! `--smoke` variant shrinks the fleet (16 hosts, 2 policies × 2 mixes)
//! for CI; it asserts the same contract. `--hosts N` rescales the fleet
//! shape (tenant load grows proportionally) — the *scale* configuration,
//! which `--check-perf` holds to a deterministic elision floor. The
//! incremental engine (dirty-host carry-over + composition-keyed result
//! memo) is what makes 1000-host fleets affordable; `--parity` re-runs
//! the campaign with every host simulated from scratch and asserts the
//! SLO tables are bit-identical.

use crate::Opts;
use irs_fleet::{AdversaryMix, CampaignSpec, FleetConfig, FleetReport, PlacementPolicy};
use std::time::Instant;

/// Campaign outcome plus the wall-clock facts its summary reports.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The campaign report (tables, elision accounting, churn).
    pub report: FleetReport,
    /// Wall-clock of the whole campaign, seconds.
    pub wall_s: f64,
    /// Fleet size actually simulated (default, smoke, or `--hosts`).
    pub hosts: usize,
    /// Whether `--hosts` rescaled the fleet (the scale configuration).
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
/// face value. It rises with both engine speed and elision rate.
pub fn effective_events_per_sec(o: &FleetOutcome) -> f64 {
    o.report.events as f64 / o.wall_s.max(1e-9)
}

/// The campaign's one-line summary for the `figures` progress line.
pub fn summary(o: &FleetOutcome) -> String {
    let r = &o.report;
    format!(
        "{} hosts, {} host runs ({} elided, {} carried), \
         {} events logical ({:.0}/s effective), {} executed ({:.0}/s), \
         fork_warmup_saved={}, cache hit rate {:.1}% ({:.1} MiB resident), \
         {} tenants placed, {} rejected",
        o.hosts,
        r.host_runs,
        r.runs_elided,
        r.hosts_carried,
        r.events,
        effective_events_per_sec(o),
        events_executed(o),
        events_per_sec(o),
        r.fork_warmup_saved,
        100.0 * r.cache.hit_rate().max(0.0),
        r.cache.resident_bytes as f64 / (1 << 20) as f64,
        r.tenants_placed,
        r.tenants_rejected,
    )
}

/// The fleet's absolute `--check-perf` floor: a scale campaign's logical
/// event volume must be at least `SCALE_MIN_ELISION`× what it executed
/// (counter-based, so deterministic). Returns one message per violation.
pub fn floor_failures(o: &FleetOutcome) -> Vec<String> {
    let executed = events_executed(o);
    if !o.scale || o.report.events >= SCALE_MIN_ELISION * executed {
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

    fn outcome(scale: bool) -> FleetOutcome {
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
            hosts: if scale { 1000 } else { 120 },
            scale,
        }
    }

    #[test]
    fn throughput_metrics_decompose() {
        let o = outcome(false);
        // Executed: 15000 − 1000 − 4000.
        assert_eq!(events_executed(&o), 10_000);
        assert_eq!(events_per_sec(&o), 5_000.0);
        assert_eq!(effective_events_per_sec(&o), 7_500.0);
    }

    /// Only the scale configuration carries the elision floor.
    #[test]
    fn scale_configuration_floors_elision() {
        let mut o = outcome(true);
        // 15000 logical < 5 × 10000 executed: the elision floor fires.
        let failures = floor_failures(&o);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("incrementality floor"));
        assert!(floor_failures(&outcome(false)).is_empty());
        // With enough elision the floor passes.
        o.report.events_elided = 50_000;
        o.report.events = 55_000; // executed 4000; 55000 ≥ 5×4000
        assert!(floor_failures(&o).is_empty());
    }
}
