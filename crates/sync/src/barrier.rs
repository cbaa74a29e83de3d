//! Group synchronization with blocking or spinning waiters.

use crate::WaitMode;
use irs_guest::TaskId;

/// Outcome of arriving at a barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// Not everyone is here yet: wait in the given mode.
    MustWait(WaitMode),
    /// The caller was the last arriver: the barrier opens, and every
    /// waiter's wait is granted.
    Released {
        /// The tasks that were waiting (excluding the last arriver).
        waiters: Vec<TaskId>,
    },
}

/// A cyclic barrier for `parties` tasks.
///
/// Barriers are the paper's worst case for LHP: one preempted participant
/// stalls *all* `parties − 1` others ("programs with group synchronization
/// suffer more from LHP and LWP, thereby benefiting more from IRS", §5.5).
#[derive(Debug, Clone)]
pub struct Barrier {
    parties: usize,
    mode: WaitMode,
    waiting: Vec<TaskId>,
}

impl Barrier {
    /// Creates a barrier for `parties` tasks waiting in `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`.
    pub fn new(parties: usize, mode: WaitMode) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        Barrier {
            parties,
            mode,
            waiting: Vec::new(),
        }
    }

    /// `who` arrives at the barrier.
    ///
    /// # Panics
    ///
    /// Panics if `who` is already waiting at this barrier (double arrival
    /// within one generation is a workload-model bug).
    pub fn arrive(&mut self, who: TaskId) -> BarrierOutcome {
        assert!(
            !self.waiting.contains(&who),
            "{who} arrived twice in one barrier generation"
        );
        if self.waiting.len() + 1 == self.parties {
            let waiters = std::mem::take(&mut self.waiting);
            BarrierOutcome::Released { waiters }
        } else {
            self.waiting.push(who);
            BarrierOutcome::MustWait(self.mode)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn last_arriver_releases_everyone() {
        let mut b = Barrier::new(3, WaitMode::Block);
        assert_eq!(b.arrive(t(0)), BarrierOutcome::MustWait(WaitMode::Block));
        assert_eq!(b.arrive(t(1)), BarrierOutcome::MustWait(WaitMode::Block));
        match b.arrive(t(2)) {
            BarrierOutcome::Released { waiters } => assert_eq!(waiters, vec![t(0), t(1)]),
            other => panic!("expected release, got {other:?}"),
        }
        // The release emptied the barrier: the first arriver of the next
        // generation waits, and may be one that waited before.
        assert_eq!(b.arrive(t(0)), BarrierOutcome::MustWait(WaitMode::Block));
    }

    #[test]
    fn barrier_is_cyclic() {
        let mut b = Barrier::new(2, WaitMode::Spin);
        b.arrive(t(0));
        assert!(matches!(b.arrive(t(1)), BarrierOutcome::Released { .. }));
        // Next generation works identically.
        assert_eq!(b.arrive(t(1)), BarrierOutcome::MustWait(WaitMode::Spin));
        match b.arrive(t(0)) {
            BarrierOutcome::Released { waiters } => assert_eq!(waiters, vec![t(1)]),
            other => panic!("expected release, got {other:?}"),
        }
    }

    #[test]
    fn single_party_barrier_never_waits() {
        let mut b = Barrier::new(1, WaitMode::Block);
        match b.arrive(t(0)) {
            BarrierOutcome::Released { waiters } => assert!(waiters.is_empty()),
            other => panic!("expected release, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut b = Barrier::new(3, WaitMode::Block);
        b.arrive(t(0));
        b.arrive(t(0));
    }
}
