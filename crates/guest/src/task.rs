//! Guest tasks (threads) as the scheduler sees them.

use std::fmt;

/// Identifier of a task within one guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Scheduler-visible task state.
///
/// Note the gap the paper §2.3 dwells on: a task that is `Running` on a
/// vCPU which the *hypervisor* has preempted still reports `Running` here —
/// the guest cannot tell, and that is why pull migration skips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// On a runqueue, waiting to be picked.
    Ready,
    /// Current on some vCPU (whether or not that vCPU holds a pCPU).
    Running,
    /// Sleeping (blocking synchronization, I/O, …).
    Blocked,
    /// Finished; never scheduled again.
    Exited,
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskState::Ready => "ready",
            TaskState::Running => "running",
            TaskState::Blocked => "blocked",
            TaskState::Exited => "exited",
        };
        f.write_str(s)
    }
}

/// Scheduler bookkeeping for one task. Every task is nice-0.
#[derive(Debug, Clone)]
pub struct Task {
    /// Identity.
    pub id: TaskId,
    /// Virtual runtime in nanoseconds.
    pub vruntime: u64,
    /// Scheduler state.
    pub state: TaskState,
    /// Index of the vCPU whose runqueue owns this task.
    pub cpu: usize,
    /// IRS tag: this task was migrated off a preempted vCPU (Fig 4). The
    /// wakeup balancer lets a waking task preempt a tagged task in place
    /// instead of migrating away, preserving locality.
    pub preempt_migrated: bool,
    /// In IRS-migrator custody: descheduled by the SA context switcher and
    /// awaiting placement (Ready but on no runqueue).
    pub in_custody: bool,
    /// Number of cross-vCPU migrations this task has suffered.
    pub migrations: u64,
}

impl Task {
    pub(crate) fn new(id: TaskId, cpu: usize) -> Self {
        Task {
            id,
            vruntime: 0,
            state: TaskState::Ready,
            cpu,
            preempt_migrated: false,
            in_custody: false,
            migrations: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(TaskId(3).to_string(), "task3");
        assert_eq!(TaskState::Blocked.to_string(), "blocked");
    }
}
