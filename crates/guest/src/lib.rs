//! # irs-guest — a Linux-like paravirtual guest kernel model
//!
//! The guest half of the *Scheduler Activations for Interference-Resilient
//! SMP Virtual Machine Scheduling* reproduction. The paper's ~130-line Linux
//! 3.18 patch lives in a kernel whose scheduling machinery this crate
//! remodels:
//!
//! * **CFS essentials** ([`Runqueue`]): per-vCPU runqueues ordered by
//!   `vruntime`, a 6 ms scheduling latency with a minimum granularity, and
//!   wakeup preemption — the "finer-grained time slices (6 ms)" and
//!   "migrated task likely has smaller virtual runtime and would be
//!   prioritized" effects the paper invokes in §5.2.
//! * **Load balancing** (`balance` module): periodic push balancing, idle
//!   (pull) balancing, and wakeup placement. Exactly as the paper observes,
//!   none of these can move a task that is *current* on a vCPU — even when
//!   that vCPU has been preempted by the hypervisor — and the hypervisor's
//!   imbalance is invisible to them. That is the reverse semantic gap.
//! * **`rt_avg`-style load tracking** including **steal time** obtained from
//!   the hypervisor's runstate accounting (the paravirtual steal clock).
//! * **The migration stopper** ([`GuestOs::request_stop_migration`]): the
//!   vanilla path for migrating a *running* task must execute on the source
//!   vCPU — which is precisely why Fig 1(b)'s migration latency grows by one
//!   hypervisor scheduling delay per co-located VM.
//! * **The IRS guest side** (`sa` module): the `VIRQ_SA_UPCALL` receiver,
//!   the context switcher that deschedules the current task and answers the
//!   hypervisor with `SCHEDOP_block`/`SCHEDOP_yield`, the migrator kernel
//!   thread implementing Algorithm 2, and the pingpong-avoidance wake-up
//!   tagging of Fig 4.
//!
//! Like `irs-xen`, this crate is a library of state machines: methods mutate
//! guest state and return [`GuestAction`]s that the embedding simulation
//! (`irs-core`) interprets — hypercalls go up, context-switch notifications
//! go out.
//!
//! # Example
//!
//! ```
//! use irs_guest::GuestOs;
//!
//! // A vanilla kernel (no IRS support) on two vCPUs.
//! let mut guest = GuestOs::new(None, 2);
//! let t0 = guest.spawn(0);
//! let t1 = guest.spawn(1);
//! let actions = guest.start();
//! assert_eq!(actions.len(), 2, "one dispatch per vCPU");
//! assert_eq!(guest.current(0), Some(t0));
//! assert_eq!(guest.current(1), Some(t1));
//! ```

#![forbid(unsafe_code)]
#![forbid(dead_code)]
#![warn(missing_docs)]

mod actions;
pub mod balance;
mod config;
mod guest;
mod rq;
pub mod sa;
mod stats;
mod task;

pub use actions::{GuestAction, VcpuView};
pub use config::{GuestSaConfig, MIGRATOR_DELAY, TICK_PERIOD};
pub use guest::GuestOs;
pub use rq::Runqueue;
pub use stats::GuestStats;
pub use task::{Task, TaskId, TaskState};
