//! Scheduler event counters.
//!
//! These feed the paper's profiling claims (SA rounds, preemption counts,
//! migration counts for the CPU-stacking analysis) and the test suite's
//! invariant checks.

/// Global hypervisor counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HvStats {
    /// Scheduler invocations.
    pub schedules: u64,
    /// Involuntary preemptions of a runnable vCPU (the LHP/LWP trigger).
    pub preemptions: u64,
    /// SA notifications sent (`VIRQ_SA_UPCALL`).
    pub sa_sent: u64,
    /// SA rounds acknowledged by the guest in time.
    pub sa_acked: u64,
    /// SA rounds cut short by the hard completion limit.
    pub sa_timeouts: u64,
    /// Pause-loop VM-exits acted upon.
    pub ple_exits: u64,
    /// Relaxed-co leader parks.
    pub co_parks: u64,
    /// vCPU wake-ups.
    pub wakes: u64,
    /// Wake-ups that received BOOST priority.
    pub boosts: u64,
    /// vCPU migrations between pCPUs (placement or stealing).
    pub vcpu_migrations: u64,
    /// Gang rotations performed (strict co-scheduling).
    pub gang_rotations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = HvStats::default();
        assert_eq!(s.preemptions, 0);
        assert_eq!(s.sa_sent, 0);
    }
}
