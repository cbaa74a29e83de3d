//! Actions emitted by guest state transitions, and the hypervisor view the
//! guest receives through paravirtual channels.

use crate::task::TaskId;
use irs_xen::{RunState, SchedOp};
use std::fmt;

/// Externally visible consequence of a guest scheduling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuestAction {
    /// `task` became current on `vcpu`: resume executing its program.
    RunTask {
        /// vCPU index within this guest.
        vcpu: usize,
        /// The task now current.
        task: TaskId,
    },
    /// `task` was descheduled on `vcpu`: checkpoint its execution progress.
    StopTask {
        /// vCPU index within this guest.
        vcpu: usize,
        /// The task that stopped.
        task: TaskId,
    },
    /// Return control to the hypervisor (`HYPERVISOR_sched_op`).
    ///
    /// Emitted when a vCPU goes idle (`SCHEDOP_block`) and as the SA
    /// acknowledgement (either op, per the context switcher's decision).
    Hypercall {
        /// vCPU index within this guest performing the hypercall.
        vcpu: usize,
        /// The scheduling operation.
        op: SchedOp,
    },
    /// Ask the hypervisor to wake `vcpu` (a task was enqueued on a vCPU
    /// that is blocked in the hypervisor).
    WakeVcpu {
        /// vCPU index within this guest.
        vcpu: usize,
    },
    /// Wake the IRS migrator kernel thread (asynchronously, after
    /// [`crate::MIGRATOR_DELAY`]).
    WakeMigrator,
    /// `task` moved between runqueues; the embedder applies the cache
    /// warm-up penalty to its next compute segment.
    TaskMigrated {
        /// The migrated task.
        task: TaskId,
        /// Source vCPU index.
        from: usize,
        /// Destination vCPU index.
        to: usize,
    },
}

impl fmt::Display for GuestAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuestAction::RunTask { vcpu, task } => write!(f, "run {task} on v{vcpu}"),
            GuestAction::StopTask { vcpu, task } => write!(f, "stop {task} on v{vcpu}"),
            GuestAction::Hypercall { vcpu, op } => write!(f, "v{vcpu} hypercall {op}"),
            GuestAction::WakeVcpu { vcpu } => write!(f, "wake v{vcpu}"),
            GuestAction::WakeMigrator => write!(f, "wake migrator"),
            GuestAction::TaskMigrated { task, from, to } => {
                write!(f, "migrate {task}: v{from} -> v{to}")
            }
        }
    }
}

/// What the guest can learn about one of its own vCPUs from the hypervisor:
/// the actual runstate (via `VCPUOP_get_runstate`) and the recent steal
/// fraction (via the paravirtual steal clock).
///
/// The embedding simulation constructs these views; the guest consumes them
/// in the migrator (Algorithm 2 line 7) and in `rt_avg` load estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcpuView {
    /// Actual hypervisor runstate of the vCPU.
    pub state: RunState,
    /// Fraction of recent time stolen (runnable-but-preempted), in `[0, 1]`.
    pub steal_frac: f64,
}

impl VcpuView {
    /// A view of an uncontended running vCPU (useful default in tests).
    pub fn running() -> Self {
        VcpuView {
            state: RunState::Running,
            steal_frac: 0.0,
        }
    }

    /// A view of a vCPU that is idle in the hypervisor.
    pub fn blocked() -> Self {
        VcpuView {
            state: RunState::Blocked,
            steal_frac: 0.0,
        }
    }

    /// A view of a preempted vCPU with the given recent steal fraction.
    pub fn preempted(steal_frac: f64) -> Self {
        VcpuView {
            state: RunState::Runnable,
            steal_frac,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_render() {
        assert_eq!(
            GuestAction::RunTask {
                vcpu: 1,
                task: TaskId(3)
            }
            .to_string(),
            "run task3 on v1"
        );
        assert_eq!(
            GuestAction::Hypercall {
                vcpu: 0,
                op: SchedOp::Block
            }
            .to_string(),
            "v0 hypercall SCHEDOP_block"
        );
        assert_eq!(
            GuestAction::TaskMigrated {
                task: TaskId(2),
                from: 0,
                to: 3
            }
            .to_string(),
            "migrate task2: v0 -> v3"
        );
    }

    #[test]
    fn view_constructors() {
        assert_eq!(VcpuView::running().state, RunState::Running);
        assert_eq!(VcpuView::blocked().state, RunState::Blocked);
        let p = VcpuView::preempted(0.5);
        assert_eq!(p.state, RunState::Runnable);
        assert!((p.steal_frac - 0.5).abs() < 1e-12);
    }
}
