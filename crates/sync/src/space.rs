//! The per-VM container of synchronization objects.

use crate::arrival::ArrivalProcess;
use crate::barrier::Barrier;
use crate::channel::Channel;
use crate::epoch::Epoch;
use crate::lock::Lock;
use crate::pool::WorkPool;
use crate::WaitMode;
use std::fmt;

macro_rules! sync_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub usize);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

sync_id!(
    /// Handle to a [`Lock`] in a [`SyncSpace`].
    LockId,
    "lock"
);
sync_id!(
    /// Handle to a [`Barrier`] in a [`SyncSpace`].
    BarrierId,
    "barrier"
);
sync_id!(
    /// Handle to a [`Channel`] in a [`SyncSpace`].
    ChannelId,
    "chan"
);
sync_id!(
    /// Handle to a [`WorkPool`] in a [`SyncSpace`].
    PoolId,
    "pool"
);
sync_id!(
    /// Handle to an [`Epoch`] in a [`SyncSpace`].
    EpochId,
    "epoch"
);
sync_id!(
    /// Handle to an [`ArrivalProcess`] in a [`SyncSpace`].
    ArrivalId,
    "arrival"
);

/// All synchronization objects of one VM's workload.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Default, Clone)]
pub struct SyncSpace {
    locks: Vec<Lock>,
    barriers: Vec<Barrier>,
    channels: Vec<Channel>,
    pools: Vec<WorkPool>,
    epochs: Vec<Epoch>,
    arrivals: Vec<ArrivalProcess>,
}

impl SyncSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        SyncSpace::default()
    }

    /// Allocates a lock.
    pub fn new_lock(&mut self, mode: WaitMode) -> LockId {
        self.locks.push(Lock::new(mode));
        LockId(self.locks.len() - 1)
    }

    /// Allocates a barrier.
    pub fn new_barrier(&mut self, parties: usize, mode: WaitMode) -> BarrierId {
        self.barriers.push(Barrier::new(parties, mode));
        BarrierId(self.barriers.len() - 1)
    }

    /// Allocates a bounded channel.
    pub fn new_channel(&mut self, capacity: usize) -> ChannelId {
        self.channels.push(Channel::new(capacity));
        ChannelId(self.channels.len() - 1)
    }

    /// Allocates a work pool.
    pub fn new_pool(&mut self, chunks: u64) -> PoolId {
        self.pools.push(WorkPool::new(chunks));
        PoolId(self.pools.len() - 1)
    }

    /// Allocates a gang epoch (time-anchored safepoint rendezvous).
    pub fn new_epoch(&mut self, period_ns: u64, participants: usize, mode: WaitMode) -> EpochId {
        self.epochs.push(Epoch::new(period_ns, participants, mode));
        EpochId(self.epochs.len() - 1)
    }

    /// Allocates an open-loop Poisson arrival process with mean gap
    /// `mean_ns`. The embedding simulation reseeds it from the scenario
    /// seed before any task runs.
    pub fn new_arrival(&mut self, mean_ns: u64) -> ArrivalId {
        self.arrivals.push(ArrivalProcess::new(mean_ns));
        ArrivalId(self.arrivals.len() - 1)
    }

    /// Mutable access to a lock.
    pub fn lock(&mut self, id: LockId) -> &mut Lock {
        &mut self.locks[id.0]
    }

    /// Mutable access to a barrier.
    pub fn barrier(&mut self, id: BarrierId) -> &mut Barrier {
        &mut self.barriers[id.0]
    }

    /// Mutable access to a channel.
    pub fn channel(&mut self, id: ChannelId) -> &mut Channel {
        &mut self.channels[id.0]
    }

    /// Mutable access to a pool.
    pub fn pool(&mut self, id: PoolId) -> &mut WorkPool {
        &mut self.pools[id.0]
    }

    /// Mutable access to an epoch.
    pub fn epoch(&mut self, id: EpochId) -> &mut Epoch {
        &mut self.epochs[id.0]
    }

    /// Mutable access to an arrival process.
    pub fn arrival(&mut self, id: ArrivalId) -> &mut ArrivalProcess {
        &mut self.arrivals[id.0]
    }

    /// Shared access to a lock.
    pub fn lock_ref(&self, id: LockId) -> &Lock {
        &self.locks[id.0]
    }

    /// Shared access to an epoch.
    pub fn epoch_ref(&self, id: EpochId) -> &Epoch {
        &self.epochs[id.0]
    }

    /// Requests held across every channel: stamps queued or held for a
    /// blocked producer.
    pub fn held_requests(&self) -> usize {
        self.channels.iter().map(Channel::held_requests).sum()
    }

    /// Number of locks allocated.
    pub fn n_locks(&self) -> usize {
        self.locks.len()
    }

    /// Number of barriers allocated.
    pub fn n_barriers(&self) -> usize {
        self.barriers.len()
    }

    /// Number of channels allocated.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of work pools allocated.
    pub fn n_pools(&self) -> usize {
        self.pools.len()
    }

    /// Number of epochs allocated.
    pub fn n_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Number of arrival processes allocated.
    pub fn n_arrivals(&self) -> usize {
        self.arrivals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AcquireOutcome, BarrierOutcome};
    use irs_guest::TaskId;

    #[test]
    fn allocation_returns_distinct_handles() {
        let mut s = SyncSpace::new();
        let a = s.new_lock(WaitMode::Block);
        let b = s.new_lock(WaitMode::Spin);
        assert_ne!(a, b);
        assert_eq!(s.n_locks(), 2);
        // Each lock keeps the mode it was allocated with.
        for (l, mode) in [(a, WaitMode::Block), (b, WaitMode::Spin)] {
            assert_eq!(s.lock(l).acquire(TaskId(0)), AcquireOutcome::Acquired);
            assert_eq!(s.lock(l).acquire(TaskId(1)), AcquireOutcome::MustWait(mode));
        }
    }

    #[test]
    fn objects_are_independent() {
        let mut s = SyncSpace::new();
        let l = s.new_lock(WaitMode::Block);
        let bar = s.new_barrier(2, WaitMode::Spin);
        assert_eq!(s.lock(l).acquire(TaskId(0)), AcquireOutcome::Acquired);
        assert_eq!(
            s.barrier(bar).arrive(TaskId(0)),
            BarrierOutcome::MustWait(WaitMode::Spin)
        );
        assert_eq!(s.lock_ref(l).holder(), Some(TaskId(0)));
        // The barrier counted only its own arrival.
        assert_eq!(
            s.barrier(bar).arrive(TaskId(1)),
            BarrierOutcome::Released {
                waiters: vec![TaskId(0)]
            }
        );
    }

    #[test]
    fn ids_render() {
        assert_eq!(LockId(1).to_string(), "lock1");
        assert_eq!(BarrierId(2).to_string(), "barrier2");
        assert_eq!(ChannelId(3).to_string(), "chan3");
        assert_eq!(PoolId(4).to_string(), "pool4");
        assert_eq!(EpochId(5).to_string(), "epoch5");
        assert_eq!(ArrivalId(6).to_string(), "arrival6");
    }

    #[test]
    fn epoch_and_arrival_allocation() {
        let mut s = SyncSpace::new();
        let e = s.new_epoch(1_000_000, 4, WaitMode::Block);
        let a = s.new_arrival(500);
        assert_eq!(s.n_epochs(), 1);
        assert_eq!(s.n_arrivals(), 1);
        assert_eq!(s.epoch_ref(e).participants(), 4);
        assert!(s.arrival(a).next_arrival_ns() > 0);
    }
}
