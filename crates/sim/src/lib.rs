//! # irs-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the lowest substrate of the `irs-sched` reproduction of
//! *Scheduler Activations for Interference-Resilient SMP Virtual Machine
//! Scheduling* (Middleware '17). The paper's evaluation runs on a physical
//! Xen testbed; we reproduce the two-level scheduling dynamics on a
//! discrete-event simulator instead, so every higher layer (the Xen-like
//! hypervisor, the Linux-like guest, the workloads) needs a common notion of
//! **virtual time**, a deterministic **event queue**, and **seeded
//! randomness** so that every experiment is exactly reproducible.
//!
//! The kernel is intentionally tiny and allocation-light:
//!
//! * [`SimTime`] — a nanosecond-resolution instant on the virtual timeline.
//! * [`EventQueue`] — a monotonic priority queue of `(SimTime, payload)`
//!   entries with stable FIFO ordering for simultaneous events. It has no
//!   cancel: callers retire a timer by bumping a generation number that
//!   the payload carries, and ignore stale firings.
//! * [`SimRng`] — a small, fast, seedable RNG wrapper with the handful of
//!   distributions the workload models need.
//! * [`trace`] — an optional bounded in-memory trace ring used by tests and
//!   the debugging tooling.
//!
//! # Example
//!
//! ```
//! use irs_sim::{EventQueue, SimTime};
//!
//! // A timer stays armed until it fires; a bumped generation retires it.
//! let mut slice_gen = 0u64;
//! let mut q: EventQueue<(&'static str, u64)> = EventQueue::new();
//! q.schedule(SimTime::from_millis(10), ("slice expiry", slice_gen));
//! slice_gen += 1; // the vCPU blocked early: the armed expiry is stale
//! q.schedule(SimTime::from_millis(30), ("tick", 0));
//! let (at, (what, gen)) = q.pop().expect("two pending events");
//! assert_eq!((at, what), (SimTime::from_millis(10), "slice expiry"));
//! assert_ne!(gen, slice_gen, "the handler drops this firing");
//! assert_eq!(q.pop().map(|(at, _)| at), Some(SimTime::from_millis(30)));
//! ```

#![forbid(unsafe_code)]
#![forbid(dead_code)]
#![warn(missing_docs)]

mod event;
mod rng;
mod time;
pub mod trace;

pub use event::EventQueue;
pub use rng::SimRng;
pub use time::SimTime;
