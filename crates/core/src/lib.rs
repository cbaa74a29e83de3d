//! # irs-core — interference-resilient SMP VM scheduling, assembled
//!
//! This crate is the paper's system put together: it co-simulates the
//! Xen-like hypervisor (`irs-xen`) and one Linux-like guest per VM
//! (`irs-guest`), executes workload programs (`irs-workloads`) over the
//! synchronization substrate (`irs-sync`), and wires the **scheduler
//! activation** round trip end to end:
//!
//! ```text
//!   Xen credit scheduler decides to preempt a runnable vCPU
//!     └─ SA sender: VIRQ_SA_UPCALL, preemption delayed        (irs-xen)
//!          └─ SA receiver + context switcher: deschedule the
//!             current task, mark it migrating, pick next,
//!             ack with SCHEDOP_block / SCHEDOP_yield          (irs-guest)
//!               └─ migrator: probe real vCPU runstates, move
//!                  the task to an idle or least-loaded
//!                  *running* sibling                          (irs-guest)
//!                    └─ preemption completes ~20-26 µs after
//!                       the notification                      (here)
//! ```
//!
//! The public surface:
//!
//! * [`Strategy`] — Vanilla Xen, PLE, Relaxed-Co, IRS, and the paper's
//!   §6 future-work variant `IrsPull`.
//! * [`Scenario`] / [`VmScenario`] — declarative experiment setup: pCPUs,
//!   VMs with workloads, pinning, interference.
//! * [`System`] — the discrete-event co-simulation.
//! * [`RunResult`] / [`VmResult`] — makespans, utilization, request
//!   latencies, LHP/LWP counts, scheduler statistics.
//! * [`runner`] — multi-seed experiment helpers (the paper averages 5
//!   runs).
//! * [`faults`] — deterministic fault injection for the SA protocol
//!   (upcall loss, ack loss/delay, guest wedge, deadline jitter, pCPU
//!   degradation), driving the `figures chaos` campaign.
//!
//! # Example
//!
//! Reproduce the core of the paper in a dozen lines — streamcluster in a
//! 4-vCPU VM, one CPU hog co-located with vCPU 0, vanilla vs IRS:
//!
//! ```
//! use irs_core::{Scenario, Strategy};
//!
//! let vanilla = Scenario::fig5_style("streamcluster", 1, Strategy::Vanilla, 42)
//!     .run();
//! let irs = Scenario::fig5_style("streamcluster", 1, Strategy::Irs, 42).run();
//! let base = vanilla.vms[0].makespan.expect("completed");
//! let with_irs = irs.vms[0].makespan.expect("completed");
//! assert!(with_irs < base, "IRS must beat vanilla under interference");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod domain;
mod events;
mod exec;
pub mod faults;
pub mod parallel;
mod results;
pub mod runner;
mod scenario;
mod strategy;
mod system;

/// The degradation contract's shared threshold: under faults or hostile
/// neighbors, IRS's cost metric must stay within this factor of vanilla's
/// (IRS ≤ vanilla × 1.15). Both the `figures chaos` campaign (per fault
/// profile) and the `figures fleet` campaign (per policy × adversary-mix
/// cell) assert against this one constant so the two contracts cannot
/// drift apart.
pub const DEGRADATION_MARGIN: f64 = 1.15;

pub use faults::{FaultConfig, FaultStats};
pub use results::{RunResult, VmResult};
pub use scenario::{Scenario, VmScenario};
pub use strategy::Strategy;
pub use system::{Snapshot, System, SystemConfig};
