//! # irs-workloads — workload models for the IRS reproduction
//!
//! The paper evaluates IRS on PARSEC (pthreads, blocking synchronization),
//! NPB (OpenMP, spinning when `OMP_WAIT_POLICY=active`), SPECjbb2005, the
//! Apache `ab` benchmark, and a CPU-hog micro-benchmark. None of those can
//! run on a scheduling simulator directly, so this crate provides the
//! closest synthetic equivalents: each benchmark becomes a set of small
//! **programs** (one per thread) over the `irs-sync` primitives, with
//! per-benchmark parameters — synchronization type and granularity,
//! pipeline shape, memory intensity — matched to the structural properties
//! the paper's analysis relies on (see `DESIGN.md` §1 for the substitution
//! table and `presets` for the catalog).
//!
//! The pieces:
//!
//! * [`Program`] / [`ProgramBuilder`] — a tiny validated bytecode: compute
//!   segments with jitter, lock/unlock, barrier arrival, channel push/pop,
//!   work-steal loops, bounded/infinite loops, request markers, sleeps,
//!   gang-epoch safepoint polls, and deterministic open-loop arrival
//!   waits (`await_arrival`).
//! * [`ProgramRunner`] — resumable interpreter; resolves loops, jumps and
//!   work stealing itself and hands every other [`Op`] to the embedding
//!   simulation as written, which models time (drawing compute jitter),
//!   blocking, and spinning.
//! * [`WorkloadBundle`] — a named set of thread programs plus their
//!   [`SyncSpace`](irs_sync::SyncSpace), memory intensity, and (for `ab`)
//!   the open-loop source: an arrival process of that space feeding a
//!   channel.
//! * [`presets`] — the catalog: 12 PARSEC-like, 9 NPB-like, 3 server, the
//!   hog micro-benchmark and the fleet's adversarial tenants.
//!
//! # Example
//!
//! ```
//! use irs_sim::SimRng;
//! use irs_sync::WaitMode;
//! use irs_workloads::presets;
//! use irs_workloads::{Op, ProgramRunner};
//!
//! let mut bundle = presets::by_name("streamcluster", 4, WaitMode::Block).unwrap();
//! assert_eq!(bundle.threads.len(), 4);
//! let mut runner = ProgramRunner::new(bundle.threads[0].clone());
//! // A barrier benchmark's thread starts with a compute segment;
//! // whoever runs it draws the segment's jitter.
//! match runner.next(&mut bundle.space) {
//!     Some(Op::Compute { mean_ns, jitter }) => {
//!         let ns = SimRng::seed_from(1).jittered(mean_ns, jitter);
//!         assert!(ns > 0);
//!     }
//!     other => panic!("unexpected first instruction {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![forbid(dead_code)]
#![warn(missing_docs)]

mod bundle;
pub mod presets;
mod program;
mod runner;

pub use bundle::{OpenLoop, WorkloadBundle, WorkloadKind};
pub use program::{Op, Program, ProgramBuilder};
pub use runner::ProgramRunner;
