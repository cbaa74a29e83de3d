//! Mutual exclusion with blocking or spinning waiters.

use crate::WaitMode;
use irs_guest::TaskId;
use std::collections::VecDeque;

/// Outcome of an acquire attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The caller now holds the lock and may enter the critical section.
    Acquired,
    /// The caller must wait in the given mode (sleep or PAUSE-spin).
    MustWait(WaitMode),
}

/// Outcome of a release: FIFO hand-off, as in a ticket lock / fair futex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseOutcome {
    /// The waiter that now owns the lock: its wait is granted.
    pub next_holder: Option<TaskId>,
}

/// A mutex with FIFO hand-off and a configurable wait mode.
///
/// FIFO hand-off makes the spinning variant a **ticket lock**, which is the
/// shape under which lock-waiter preemption (LWP) hurts most: only the
/// at-the-head waiter can make progress, so preempting *it* stalls everyone
/// behind it.
#[derive(Debug, Clone)]
pub struct Lock {
    mode: WaitMode,
    holder: Option<TaskId>,
    waiters: VecDeque<TaskId>,
}

impl Lock {
    /// Creates a free lock whose waiters wait in `mode`.
    pub fn new(mode: WaitMode) -> Self {
        Lock {
            mode,
            holder: None,
            waiters: VecDeque::new(),
        }
    }

    /// Attempts to acquire for `who`.
    ///
    /// # Panics
    ///
    /// Panics if `who` already holds or already waits for this lock —
    /// either is a bug in the calling workload model.
    pub fn acquire(&mut self, who: TaskId) -> AcquireOutcome {
        assert_ne!(self.holder, Some(who), "{who} re-acquired a held lock");
        assert!(
            !self.waiters.contains(&who),
            "{who} is already waiting on this lock"
        );
        if self.holder.is_none() {
            self.holder = Some(who);
            AcquireOutcome::Acquired
        } else {
            self.waiters.push_back(who);
            AcquireOutcome::MustWait(self.mode)
        }
    }

    /// Releases the lock, handing it to the FIFO-first waiter if any.
    ///
    /// # Panics
    ///
    /// Panics if `who` is not the holder.
    pub fn release(&mut self, who: TaskId) -> ReleaseOutcome {
        assert_eq!(
            self.holder,
            Some(who),
            "{who} released a lock it does not hold"
        );
        match self.waiters.pop_front() {
            Some(next) => {
                self.holder = Some(next);
                ReleaseOutcome {
                    next_holder: Some(next),
                }
            }
            None => {
                self.holder = None;
                ReleaseOutcome { next_holder: None }
            }
        }
    }

    /// The current holder.
    pub fn holder(&self) -> Option<TaskId> {
        self.holder
    }

    /// The waiter at the head of the queue (the LWP victim candidate).
    pub fn head_waiter(&self) -> Option<TaskId> {
        self.waiters.front().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn uncontended_acquire_succeeds() {
        let mut l = Lock::new(WaitMode::Block);
        assert_eq!(l.acquire(t(0)), AcquireOutcome::Acquired);
        assert_eq!(l.holder(), Some(t(0)));
    }

    #[test]
    fn contended_acquire_waits_in_lock_mode() {
        let mut spin = Lock::new(WaitMode::Spin);
        spin.acquire(t(0));
        assert_eq!(spin.acquire(t(1)), AcquireOutcome::MustWait(WaitMode::Spin));
        let mut blk = Lock::new(WaitMode::Block);
        blk.acquire(t(0));
        assert_eq!(blk.acquire(t(1)), AcquireOutcome::MustWait(WaitMode::Block));
    }

    #[test]
    fn release_hands_off_fifo() {
        let mut l = Lock::new(WaitMode::Block);
        l.acquire(t(0));
        l.acquire(t(1));
        l.acquire(t(2));
        assert_eq!(l.head_waiter(), Some(t(1)));
        let r = l.release(t(0));
        assert_eq!(r.next_holder, Some(t(1)));
        assert_eq!(l.holder(), Some(t(1)));
        let r = l.release(t(1));
        assert_eq!(r.next_holder, Some(t(2)));
        let r = l.release(t(2));
        assert_eq!(r.next_holder, None);
        assert_eq!(l.holder(), None);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn foreign_release_panics() {
        let mut l = Lock::new(WaitMode::Block);
        l.acquire(t(0));
        l.release(t(1));
    }

    #[test]
    #[should_panic(expected = "re-acquired")]
    fn reacquire_panics() {
        let mut l = Lock::new(WaitMode::Block);
        l.acquire(t(0));
        l.acquire(t(0));
    }
}
