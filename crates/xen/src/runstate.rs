//! vCPU runstates and cumulative runstate accounting.
//!
//! Xen exposes, per vCPU, the cumulative time spent in each runstate
//! through `VCPUOP_get_runstate_info`. Two pieces of the paper
//! hinge on this surface:
//!
//! * **Steal time** (time `runnable` — wanting to run but preempted) feeds
//!   the Linux guest's `rt_avg` load metric, which the IRS migrator uses to
//!   rank sibling vCPUs (Algorithm 2, line 12-17).
//! * The migrator "calls down to the hypervisor to check the actual vCPU
//!   state" (Algorithm 2, line 7) because preempted vCPUs still look
//!   *online* to the guest.

use irs_sim::SimTime;
use std::fmt;

/// Execution state of a vCPU, mirroring Xen's `RUNSTATE_*`. Xen's fourth
/// state, `RUNSTATE_offline`, is not modelled: no vCPU here ever leaves
/// scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunState {
    /// Currently executing on a pCPU.
    Running,
    /// Wants to run but has been preempted (this is steal time).
    Runnable,
    /// Voluntarily idle or waiting for an event (no work to do).
    Blocked,
}

impl RunState {
    /// True if the vCPU wants CPU time (running or waiting for it).
    pub fn wants_cpu(self) -> bool {
        matches!(self, RunState::Running | RunState::Runnable)
    }
}

impl fmt::Display for RunState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RunState::Running => "running",
            RunState::Runnable => "runnable",
            RunState::Blocked => "blocked",
        };
        f.write_str(s)
    }
}

/// Cumulative per-state residency clock for one vCPU.
///
/// The accounting is *transition-driven*: [`RunstateClock::transition`]
/// charges the elapsed interval to the outgoing state. Queries at an
/// arbitrary instant use [`RunstateClock::info`], which includes the
/// in-progress interval.
#[derive(Debug, Clone)]
pub struct RunstateClock {
    state: RunState,
    since: SimTime,
    running: SimTime,
    runnable: SimTime,
    blocked: SimTime,
}

impl RunstateClock {
    /// Creates a clock starting in `state` at instant `now`.
    pub fn new(state: RunState, now: SimTime) -> Self {
        RunstateClock {
            state,
            since: now,
            running: SimTime::ZERO,
            runnable: SimTime::ZERO,
            blocked: SimTime::ZERO,
        }
    }

    /// Current state.
    #[inline]
    pub fn state(&self) -> RunState {
        self.state
    }

    /// Moves to `new` at instant `now`, charging the elapsed interval to the
    /// outgoing state. Transitioning to the current state is a no-op for the
    /// state but still folds in elapsed time.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `now` precedes the last transition — the
    /// simulation must never move backwards.
    pub fn transition(&mut self, new: RunState, now: SimTime) {
        debug_assert!(
            now >= self.since,
            "runstate transition to {new} moves time backwards: {now:?} < {:?}",
            self.since
        );
        let elapsed = now.saturating_sub(self.since);
        self.charge(elapsed);
        self.state = new;
        self.since = now;
    }

    fn charge(&mut self, elapsed: SimTime) {
        match self.state {
            RunState::Running => self.running += elapsed,
            RunState::Runnable => self.runnable += elapsed,
            RunState::Blocked => self.blocked += elapsed,
        }
    }

    /// Snapshot of cumulative residencies at instant `now`, including the
    /// open interval in the current state.
    #[inline]
    pub fn info(&self, now: SimTime) -> RunstateInfo {
        let open = now.saturating_sub(self.since);
        let mut info = RunstateInfo {
            state: self.state,
            running: self.running,
            runnable: self.runnable,
            blocked: self.blocked,
        };
        match self.state {
            RunState::Running => info.running += open,
            RunState::Runnable => info.runnable += open,
            RunState::Blocked => info.blocked += open,
        }
        info
    }
}

/// Snapshot returned by the `VCPUOP_get_runstate_info` hypercall surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunstateInfo {
    /// State at the time of the query.
    pub state: RunState,
    /// Cumulative time spent executing.
    pub running: SimTime,
    /// Cumulative steal time (runnable but preempted).
    pub runnable: SimTime,
    /// Cumulative voluntarily-idle time.
    pub blocked: SimTime,
}

impl RunstateInfo {
    /// Total accounted time.
    pub fn total(&self) -> SimTime {
        self.running + self.runnable + self.blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn transitions_charge_outgoing_state() {
        let mut c = RunstateClock::new(RunState::Running, t(0));
        c.transition(RunState::Runnable, t(10));
        c.transition(RunState::Running, t(40));
        c.transition(RunState::Blocked, t(50));
        let info = c.info(t(60));
        assert_eq!(info.running, t(20));
        assert_eq!(info.runnable, t(30));
        assert_eq!(info.blocked, t(10));
        assert_eq!(info.state, RunState::Blocked);
    }

    #[test]
    fn info_includes_open_interval() {
        let c = RunstateClock::new(RunState::Runnable, t(5));
        let info = c.info(t(30));
        assert_eq!(info.runnable, t(25));
        assert_eq!(info.total(), t(25));
    }

    #[test]
    fn self_transition_folds_elapsed_time() {
        let mut c = RunstateClock::new(RunState::Running, t(0));
        c.transition(RunState::Running, t(15));
        assert_eq!(c.info(t(15)).running, t(15));
    }

    #[test]
    fn wants_cpu_classification() {
        assert!(RunState::Running.wants_cpu());
        assert!(RunState::Runnable.wants_cpu());
        assert!(!RunState::Blocked.wants_cpu());
    }
}
