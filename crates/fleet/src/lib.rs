//! # irs-fleet — datacenter-scale fleet campaign
//!
//! Scales the single-host IRS reproduction to a simulated datacenter:
//! `N` hosts (each an [`irs_core::System`]), a tenant model with seeded
//! arrival/departure churn and overcommit, pluggable placement policies,
//! and adversarial tenants running scheduler attacks. Each campaign cell
//! runs the same fleet under vanilla Xen and under IRS, and the results
//! aggregate into fleet-wide SLO tables (per-tenant slowdown p50/p95/p99,
//! victim-vs-attacker breakdown, SA timeout counts) asserting the shared
//! degradation contract ([`irs_core::DEGRADATION_MARGIN`]) per cell.
//!
//! The module layout mirrors the campaign's layers:
//!
//! * [`TenantKind`] / [`AdversaryMix`] — who rents VMs, and which of the
//!   arrivals are hostile (boost gamer, cycle stealer, tick evader from
//!   `irs_workloads::presets::adversarial`).
//! * [`PlacementPolicy`] / [`PlacementIndex`] — first-fit,
//!   worst-fit/spread, and interference-aware placement over a per-host
//!   steal-time EWMA, all answered from one segment tree over the hosts.
//! * [`run_campaign`] — the grid driver: result reuse across
//!   equal-composition hosts (one run per composition, memoized across
//!   epochs and cells), parallel host fan-out via `irs_core::parallel`
//!   (bit-identical tables at any `--jobs N`), and table assembly via
//!   `irs_metrics`.
//!
//! The `figures fleet` subcommand of `irs-bench` is the CLI front end.

#![forbid(unsafe_code)]
#![forbid(dead_code)]
#![warn(missing_docs)]

mod campaign;
mod placement;
mod tenant;

pub use campaign::{
    run_campaign, CampaignSpec, FleetConfig, FleetReport, FLEET_STRATEGIES, SLOWDOWN_CAP,
};
pub use placement::{PlacementIndex, PlacementPolicy};
pub use tenant::{AdversaryMix, Tenant, TenantKind};
