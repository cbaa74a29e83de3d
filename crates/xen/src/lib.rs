//! # irs-xen — a Xen-like hypervisor model
//!
//! This crate reimplements the hypervisor half of the system evaluated in
//! *Scheduler Activations for Interference-Resilient SMP Virtual Machine
//! Scheduling* (Middleware '17): **Xen 4.5's credit scheduler** plus the
//! paper's ~30-line hypervisor patch (the scheduler-activation *SA sender*),
//! and the two hypervisor-side baselines the paper compares against
//! (**pause-loop-exiting** yields and **relaxed co-scheduling**).
//!
//! The model is faithful to the mechanisms the paper's analysis depends on:
//!
//! * 30 ms time slices, a 10 ms credit-burn tick, and a 30 ms accounting
//!   period that replenishes credits in equal per-VM shares, every VM
//!   running at Xen's default weight ([`credit`], [`XenConfig`]).
//! * Three-level run priorities `BOOST > UNDER > OVER`, where a vCPU waking
//!   from the blocked state is boosted — the property that makes IRS's
//!   "migrate to an idle (hence hypervisor-blocked) sibling" strategy pay off.
//! * vCPU runstates `running / runnable / blocked` with full
//!   steal-time accounting, exposed to guests through the
//!   `VCPUOP_get_runstate` hypercall surface ([`RunstateInfo`]) — the same
//!   channel the paper's migrator uses to see through the "online but
//!   preempted" illusion.
//! * Hard CPU affinity (pinning) as used in §5.1, and load-based placement +
//!   idle stealing when unpinned, which reproduces the §5.6 CPU-stacking
//!   pathology.
//! * The SA sender of Algorithm 1: on an involuntary preemption of a
//!   runnable vCPU, send `VIRQ_SA_UPCALL`, set the per-vCPU `sa_pending`
//!   flag, and *delay the preemption* until the guest acknowledges via
//!   `SCHEDOP_block`/`SCHEDOP_yield` (or a hard completion limit fires).
//!
//! The crate is a *library of state machines*: methods mutate hypervisor
//! state and return [`HvAction`]s (context-switch notifications and SA
//! upcalls) that the embedding simulation interprets. The
//! guest OS lives in `irs-guest`; the two only meet in `irs-core`.
//!
//! # Example
//!
//! Two single-vCPU VMs pinned to one pCPU time-share it in 30 ms slices:
//!
//! ```
//! use irs_sim::SimTime;
//! use irs_xen::{Hypervisor, PcpuId, VmSpec, XenConfig};
//!
//! let mut hv = Hypervisor::new(XenConfig::default(), 1);
//! let a = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
//! let b = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
//! let actions = hv.start(SimTime::ZERO);
//! assert!(!actions.is_empty());
//! // One of the two vCPUs is running, the other is runnable (preempted).
//! let running = hv.pcpu_current(PcpuId(0)).unwrap();
//! assert!(running.vm == a || running.vm == b);
//! ```

#![forbid(unsafe_code)]
#![forbid(dead_code)]
#![warn(missing_docs)]

mod actions;
mod config;
pub mod credit;
mod hypervisor;
mod ids;
mod pcpu;
pub mod relaxed_co;
mod runstate;
pub mod sa;
mod stats;
pub mod strict_co;
mod vcpu;
mod vm;

pub use actions::{HvAction, SchedOp, ScheduleReason};
pub use config::{
    HvMode, XenConfig, ACCOUNTING_PERIOD, PLE_WINDOW, SA_COMPLETION_LIMIT, TICK_PERIOD,
};
pub use hypervisor::{Hypervisor, VcpuProbe};
pub use ids::{PcpuId, VcpuRef, VmId};
pub use pcpu::DispatchInfo;
pub use runstate::{RunState, RunstateClock, RunstateInfo};
pub use stats::HvStats;
pub use vcpu::CreditPriority;
pub use vm::VmSpec;
