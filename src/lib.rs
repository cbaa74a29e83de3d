//! # irs-sched
//!
//! A full-system reproduction of **"Scheduler Activations for
//! Interference-Resilient SMP Virtual Machine Scheduling"** (Zhao, Suo,
//! Cheng, Rao — Middleware '17) on a deterministic two-level scheduling
//! simulator, written from scratch in Rust.
//!
//! The paper's system — **IRS** — bridges the *reverse semantic gap* in
//! virtualized SMP scheduling: the guest OS never learns that the
//! hypervisor preempted one of its vCPUs, so the thread running there
//! (often a lock holder or the next lock waiter) silently stalls for a full
//! hypervisor time slice. IRS sends the guest a **scheduler activation**
//! right before the preemption; the guest context-switches the critical
//! thread off the doomed vCPU and its migrator moves it to a sibling vCPU
//! that is actually running.
//!
//! This crate is the front door of a workspace that rebuilds everything the
//! paper depends on:
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] | discrete-event kernel: virtual time, timer-wheel event queue, seeded RNG |
//! | [`xen`] | Xen-like hypervisor: credit scheduler, runstates, SA sender, PLE, relaxed-co |
//! | [`guest`] | Linux-like guest: CFS, load balancing, SA receiver/context switcher/migrator |
//! | [`sync`] | blocking & spinning locks/barriers, pipelines, work stealing |
//! | [`workloads`] | PARSEC-like, NPB-like, server, and CPU-hog workload models |
//! | [`core`] | the co-simulation, scheduling strategies, scenarios, results |
//! | [`metrics`] | statistics and figure rendering |
//!
//! # Quickstart
//!
//! ```
//! use irs_sched::{Scenario, Strategy};
//!
//! // streamcluster in a 4-vCPU VM, one CPU hog co-located with vCPU 0.
//! let vanilla = Scenario::fig5_style("streamcluster", 1, Strategy::Vanilla, 1).run();
//! let irs = Scenario::fig5_style("streamcluster", 1, Strategy::Irs, 1).run();
//! let improvement = irs_sched::metrics::improvement_pct(
//!     vanilla.measured().makespan_ms(),
//!     irs.measured().makespan_ms(),
//! );
//! assert!(improvement > 15.0, "IRS recovers a large fraction of the stall time");
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the `figures`
//! binary in `irs-bench` for the full evaluation harness.

#![forbid(unsafe_code)]
#![forbid(dead_code)]
#![warn(missing_docs)]

pub use irs_core::{
    parallel, runner, RunResult, Scenario, Strategy, System, SystemConfig, VmResult, VmScenario,
};

/// The discrete-event simulation kernel.
pub mod sim {
    pub use irs_sim::*;
}

/// The Xen-like hypervisor model.
pub mod xen {
    pub use irs_xen::*;
}

/// The Linux-like guest kernel model.
pub mod guest {
    pub use irs_guest::*;
}

/// Synchronization primitives (blocking and spinning).
pub mod sync {
    pub use irs_sync::*;
}

/// Workload models and the benchmark preset catalog.
pub mod workloads {
    pub use irs_workloads::*;
}

/// Statistics and table/series rendering.
pub mod metrics {
    pub use irs_metrics::*;
}
