//! Actions emitted by hypervisor state transitions.
//!
//! The hypervisor never calls into the guest directly (there is a strict
//! privilege boundary in the real system, and a strict crate boundary here).
//! Every externally visible consequence of a scheduling decision is returned
//! as an [`HvAction`] for the embedding simulation to interpret.

use crate::ids::{PcpuId, VcpuRef};
use crate::runstate::RunState;
use irs_sim::SimTime;
use std::fmt;

/// Externally visible consequence of a hypervisor state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HvAction {
    /// `vcpu` was context-switched **in** on `pcpu`. The embedder should
    /// resume execution of whatever the guest had current on that vCPU.
    VcpuStarted {
        /// The vCPU now running.
        vcpu: VcpuRef,
        /// The pCPU it runs on.
        pcpu: PcpuId,
    },
    /// `vcpu` was context-switched **out** and is now in `state`. The
    /// embedder should checkpoint the progress of the guest task that was
    /// executing on it.
    VcpuStopped {
        /// The vCPU that stopped.
        vcpu: VcpuRef,
        /// Its new runstate (`Runnable` if preempted, `Blocked` if idle).
        state: RunState,
    },
    /// `VIRQ_SA_UPCALL` must be delivered to the guest owning `vcpu`
    /// (Algorithm 1). The hypervisor has set `sa_pending` and is delaying
    /// the preemption; the embedder must arm a timeout at `deadline` (the
    /// send instant plus [`crate::SA_COMPLETION_LIMIT`]) in case the guest
    /// never acknowledges.
    SaUpcall {
        /// Target vCPU (the interrupt is per-vCPU).
        vcpu: VcpuRef,
        /// The hard completion deadline.
        deadline: SimTime,
    },
}

/// Guest-to-hypervisor scheduling operation (`HYPERVISOR_sched_op`).
///
/// IRS's context switcher returns one of these to acknowledge an SA
/// notification (paper §3.2): `Block` if the vCPU's runqueue drained (the
/// idle task was installed), `Yield` if other runnable tasks remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedOp {
    /// `SCHEDOP_block` — the vCPU has no work; put it in the blocked state.
    Block,
    /// `SCHEDOP_yield` — keep the vCPU runnable but cede the pCPU.
    Yield,
}

impl fmt::Display for SchedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedOp::Block => write!(f, "SCHEDOP_block"),
            SchedOp::Yield => write!(f, "SCHEDOP_yield"),
        }
    }
}

/// Why the scheduler ran on a pCPU (statistics and tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleReason {
    /// Initial dispatch at simulation start.
    Start,
    /// The running vCPU exhausted its time slice.
    SliceExpiry,
    /// A wake-up tickled this pCPU.
    Wake,
    /// The running vCPU blocked.
    Block,
    /// The running vCPU yielded.
    Yield,
    /// Credit accounting changed priorities.
    Accounting,
    /// The guest acknowledged a scheduler activation.
    SaAck,
    /// The SA completion limit fired before the guest acknowledged.
    SaTimeout,
    /// A pause-loop VM-exit yielded the spinning vCPU.
    PleExit,
    /// Relaxed co-scheduling parked the leading sibling.
    CoPark,
    /// A forced maintenance preemption (injected pCPU capacity
    /// degradation, [`Hypervisor::force_preempt`](crate::Hypervisor)).
    Degrade,
}

impl ScheduleReason {
    /// Static rendering, usable as a [`irs_sim::trace::TraceEvent`] tag.
    pub fn as_str(self) -> &'static str {
        match self {
            ScheduleReason::Start => "start",
            ScheduleReason::SliceExpiry => "slice-expiry",
            ScheduleReason::Wake => "wake",
            ScheduleReason::Block => "block",
            ScheduleReason::Yield => "yield",
            ScheduleReason::Accounting => "accounting",
            ScheduleReason::SaAck => "sa-ack",
            ScheduleReason::SaTimeout => "sa-timeout",
            ScheduleReason::PleExit => "ple-exit",
            ScheduleReason::CoPark => "co-park",
            ScheduleReason::Degrade => "degrade",
        }
    }
}

impl fmt::Display for ScheduleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_ops_render_like_xen() {
        assert_eq!(SchedOp::Block.to_string(), "SCHEDOP_block");
        assert_eq!(SchedOp::Yield.to_string(), "SCHEDOP_yield");
    }
}
