//! # irs-sync — guest-level synchronization substrate
//!
//! The synchronization primitives whose interaction with two-level
//! scheduling *is* the subject of the reproduced paper:
//!
//! * [`Lock`] — a mutex in either **blocking** mode (pthread-mutex-style:
//!   contended waiters sleep, the vCPU can idle) or **spinning** mode
//!   (ticket-lock / `OMP_WAIT_POLICY=active`-style: waiters burn CPU in a
//!   PAUSE loop, which is what pause-loop exiting detects). A preempted
//!   holder is a **lock-holder preemption (LHP)**; a preempted next-in-line
//!   ticket waiter is a **lock-waiter preemption (LWP)**.
//! * [`Barrier`] — group synchronization in the same two modes; the paper's
//!   PARSEC runs block, its NPB runs spin.
//! * [`Channel`] — a bounded queue for pipeline-parallel programs
//!   (dedup/ferret), whose surplus of threads per stage is why IRS gains
//!   little there (§5.2). Its items are request stamps, so a request's
//!   latency spans every tier it crosses.
//! * [`WorkPool`] — a shared chunk pool modelling user-level work stealing
//!   (raytrace), the paper's exhibit for interference resilience *without*
//!   kernel help.
//! * [`Epoch`] — a **time-anchored** gang rendezvous (wall-clock-periodic
//!   stop-the-world safepoints, the JVM shape behind Fig 8's specjbb): polls
//!   between deadlines pass free, a pending deadline parks every participant
//!   until the last one arrives.
//! * [`ArrivalProcess`] — a seeded open-loop source of absolute request
//!   arrival instants (Poisson inter-arrivals) for open-loop servers: the
//!   latency-SLO serving tiers and `ab`'s accept queue.
//!
//! Primitives are pure state machines over [`TaskId`](irs_guest::TaskId)s: operations return
//! outcomes (`Acquired` / `MustWait(mode)` / grants) that the embedding
//! simulation turns into guest scheduler calls. A waiter learns its
//! [`WaitMode`] when it must wait; a grant names only the waiters whose
//! waits it completes, since each waiter already knows how it waits. All
//! primitives of one VM live in a [`SyncSpace`].
//!
//! # Example
//!
//! ```
//! use irs_guest::TaskId;
//! use irs_sync::{AcquireOutcome, SyncSpace, WaitMode};
//!
//! let mut space = SyncSpace::new();
//! let lock = space.new_lock(WaitMode::Block);
//! let (a, b) = (TaskId(0), TaskId(1));
//! assert_eq!(space.lock(lock).acquire(a), AcquireOutcome::Acquired);
//! assert_eq!(space.lock(lock).acquire(b), AcquireOutcome::MustWait(WaitMode::Block));
//! let release = space.lock(lock).release(a);
//! assert_eq!(release.next_holder, Some(b));
//! ```

#![forbid(unsafe_code)]
#![forbid(dead_code)]
#![warn(missing_docs)]

mod arrival;
mod barrier;
mod channel;
mod epoch;
mod lock;
mod pool;
mod space;

pub use arrival::ArrivalProcess;
pub use barrier::{Barrier, BarrierOutcome};
pub use channel::{Channel, OfferOutcome, PopOutcome, PushOutcome};
pub use epoch::{Epoch, EpochPoll};
pub use lock::{AcquireOutcome, Lock, ReleaseOutcome};
pub use pool::WorkPool;
pub use space::{ArrivalId, BarrierId, ChannelId, EpochId, LockId, PoolId, SyncSpace};

/// How a contended primitive makes its waiters wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitMode {
    /// Sleep until woken (futex-style). The host vCPU may go idle — the
    /// deceptive-idleness input to CPU stacking (§5.6).
    Block,
    /// Busy-wait in a PAUSE loop, consuming CPU without progress — visible
    /// to pause-loop exiting, invisible to utilization metrics.
    Spin,
}
