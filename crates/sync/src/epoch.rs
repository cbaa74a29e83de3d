//! Gang-epoch rendezvous: the time-anchored stop-the-world safepoint.
//!
//! A JVM-style safepoint is *wall-clock-periodic*: a pending flag raises
//! at absolute times `period, 2·period, …`, and every mutator thread
//! checks it at its next *poll site*. Threads that poll while no
//! safepoint is pending pass for free; once the flag is up, every
//! arriving thread parks until the **last** participant arrives, at
//! which point all release together and the next deadline is armed. A
//! thread that exits leaves the gang ([`Epoch::leave`]); its departure
//! completes a pending safepoint if everyone else is already parked.
//!
//! This is the construct the work-anchored DSL could not express (the
//! root cause of the Fig 8 specjbb fidelity gap): the stall per epoch is
//! the *slowest thread's time-to-poll*, so one preempted vCPU delays the
//! whole gang — exactly the amplification IRS's preemption hand-off
//! removes.

use crate::WaitMode;
use irs_guest::TaskId;

/// Outcome of a [`Epoch::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochPoll {
    /// No safepoint pending: the thread passes the poll site for free.
    Pass,
    /// A safepoint is pending and other participants are still running:
    /// wait in the given mode.
    MustWait(WaitMode),
    /// The caller was the last participant to arrive: the epoch
    /// completes, and every parked task's wait is granted.
    Released {
        /// The tasks that were parked (excluding the last arriver).
        waiters: Vec<TaskId>,
    },
}

/// A wall-clock-periodic gang rendezvous for `participants` tasks.
///
/// Unlike a [`Barrier`](crate::Barrier) (work-anchored: every iteration
/// arrives), an epoch is **time-anchored**: polls between deadlines are
/// free, and missed deadlines coalesce — however late the gang runs, one
/// rendezvous discharges every boundary passed, and the next deadline is
/// the first boundary strictly after the release instant.
#[derive(Debug, Clone)]
pub struct Epoch {
    period_ns: u64,
    participants: usize,
    mode: WaitMode,
    waiting: Vec<TaskId>,
    next_deadline_ns: u64,
}

impl Epoch {
    /// Creates an epoch with deadlines at `period_ns, 2·period_ns, …`
    /// for `participants` tasks waiting in `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `period_ns == 0` or `participants == 0`.
    pub fn new(period_ns: u64, participants: usize, mode: WaitMode) -> Self {
        assert!(period_ns > 0, "an epoch needs a non-zero period");
        assert!(participants > 0, "an epoch needs at least one participant");
        Epoch {
            period_ns,
            participants,
            mode,
            waiting: Vec::new(),
            next_deadline_ns: period_ns,
        }
    }

    /// `who` reaches a poll site at absolute time `now_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `who` is already parked at this epoch (double poll
    /// without release is a workload-model bug).
    pub fn poll(&mut self, who: TaskId, now_ns: u64) -> EpochPoll {
        if now_ns < self.next_deadline_ns {
            return EpochPoll::Pass;
        }
        assert!(
            !self.waiting.contains(&who),
            "{who} polled twice within one epoch generation"
        );
        if self.waiting.len() + 1 == self.participants {
            let waiters = std::mem::take(&mut self.waiting);
            // Coalesce missed boundaries: the next deadline is the first
            // period multiple strictly after the release instant.
            self.next_deadline_ns = (now_ns / self.period_ns + 1) * self.period_ns;
            EpochPoll::Released { waiters }
        } else {
            self.waiting.push(who);
            EpochPoll::MustWait(self.mode)
        }
    }

    /// `who`, a participant that will never poll again (its thread
    /// exited), leaves the epoch at absolute time `now_ns`. If a safepoint
    /// is pending and every remaining participant is already parked, the
    /// departure completes it as a last arrival would: the parked tasks
    /// are returned for their grants and the next deadline is armed.
    /// Otherwise returns no task.
    ///
    /// # Panics
    ///
    /// Panics if `who` is parked at this epoch or no participant is left.
    pub fn leave(&mut self, who: TaskId, now_ns: u64) -> Vec<TaskId> {
        assert!(
            !self.waiting.contains(&who),
            "{who} left an epoch it is parked at"
        );
        assert!(
            self.participants > 0,
            "{who} left an epoch with no participants"
        );
        self.participants -= 1;
        let pending = now_ns >= self.next_deadline_ns;
        if pending && !self.waiting.is_empty() && self.waiting.len() == self.participants {
            self.next_deadline_ns = (now_ns / self.period_ns + 1) * self.period_ns;
            std::mem::take(&mut self.waiting)
        } else {
            Vec::new()
        }
    }

    /// Participants required to discharge a pending safepoint.
    pub fn participants(&self) -> usize {
        self.participants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn polls_before_the_deadline_pass_free() {
        let mut e = Epoch::new(1_000, 2, WaitMode::Block);
        assert_eq!(e.poll(t(0), 0), EpochPoll::Pass);
        assert_eq!(e.poll(t(1), 999), EpochPoll::Pass);
        // Passing discharged nothing: the deadline still parks.
        assert_eq!(e.poll(t(0), 1_000), EpochPoll::MustWait(WaitMode::Block));
    }

    #[test]
    fn pending_safepoint_parks_until_last_arrival() {
        let mut e = Epoch::new(1_000, 3, WaitMode::Block);
        assert_eq!(e.poll(t(0), 1_000), EpochPoll::MustWait(WaitMode::Block));
        assert_eq!(e.poll(t(1), 1_200), EpochPoll::MustWait(WaitMode::Block));
        match e.poll(t(2), 1_500) {
            EpochPoll::Released { waiters } => assert_eq!(waiters, vec![t(0), t(1)]),
            other => panic!("expected release, got {other:?}"),
        }
        // The deadline advanced past the release instant, to 2_000.
        assert_eq!(e.poll(t(0), 1_500), EpochPoll::Pass);
        assert_eq!(e.poll(t(1), 1_999), EpochPoll::Pass);
        assert_eq!(e.poll(t(0), 2_000), EpochPoll::MustWait(WaitMode::Block));
    }

    #[test]
    fn missed_deadlines_coalesce() {
        let mut e = Epoch::new(1_000, 1, WaitMode::Block);
        // A lone participant arriving 3.5 periods late discharges every
        // missed boundary at once.
        match e.poll(t(0), 3_500) {
            EpochPoll::Released { waiters } => assert!(waiters.is_empty()),
            other => panic!("expected release, got {other:?}"),
        }
        // The next deadline is 4_000, not one of the missed ones.
        assert_eq!(e.poll(t(0), 3_999), EpochPoll::Pass);
        assert!(matches!(e.poll(t(0), 4_000), EpochPoll::Released { .. }));
    }

    #[test]
    fn release_exactly_on_a_boundary_arms_the_next_one() {
        let mut e = Epoch::new(1_000, 1, WaitMode::Block);
        assert!(matches!(e.poll(t(0), 1_000), EpochPoll::Released { .. }));
        assert_eq!(e.poll(t(0), 1_999), EpochPoll::Pass);
        assert!(matches!(e.poll(t(0), 2_000), EpochPoll::Released { .. }));
        assert_eq!(e.poll(t(0), 2_999), EpochPoll::Pass);
        assert!(matches!(e.poll(t(0), 3_000), EpochPoll::Released { .. }));
    }

    #[test]
    fn a_departure_releases_the_parked_rest() {
        let mut e = Epoch::new(1_000, 4, WaitMode::Spin);
        // Before the deadline nobody waits, so a departure releases no one
        // but still lowers the count.
        assert_eq!(e.leave(t(3), 500), Vec::new());
        assert_eq!(e.participants(), 3);
        assert_eq!(e.poll(t(0), 1_000), EpochPoll::MustWait(WaitMode::Spin));
        // task1 still runs toward its poll: no release yet.
        assert_eq!(e.leave(t(2), 1_100), Vec::new());
        // The last other participant leaves instead of polling: the parked
        // task is released and the next deadline (2_000) is armed.
        assert_eq!(e.leave(t(1), 1_400), vec![t(0)]);
        assert_eq!(e.participants(), 1);
        assert_eq!(e.poll(t(0), 1_999), EpochPoll::Pass);
        // Alone now, the remaining task completes each safepoint itself.
        assert!(matches!(e.poll(t(0), 2_000), EpochPoll::Released { .. }));
    }

    #[test]
    #[should_panic(expected = "left an epoch it is parked at")]
    fn a_parked_task_cannot_leave() {
        let mut e = Epoch::new(1_000, 2, WaitMode::Block);
        e.poll(t(0), 1_000);
        e.leave(t(0), 1_001);
    }

    #[test]
    #[should_panic(expected = "polled twice")]
    fn double_poll_while_parked_panics() {
        let mut e = Epoch::new(1_000, 2, WaitMode::Block);
        e.poll(t(0), 1_000);
        e.poll(t(0), 1_001);
    }
}
