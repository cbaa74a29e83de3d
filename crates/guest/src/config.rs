//! The guest scheduler's fixed constants (Linux 3.18 CFS as characterized
//! in the paper; §5.2 cites the guest's ~6 ms slices) and the parameters of
//! the guest half of IRS.

use irs_sim::SimTime;

/// Periodic scheduler tick (1 ms, `CONFIG_HZ=1000`).
pub const TICK_PERIOD: SimTime = SimTime::from_millis(1);

/// CFS targeted scheduling latency (6 ms).
pub(crate) const SCHED_LATENCY: SimTime = SimTime::from_millis(6);

/// CFS minimum preemption granularity (0.75 ms).
pub(crate) const MIN_GRANULARITY: SimTime = SimTime::from_micros(750);

/// Wakeup preemption granularity (1 ms).
pub(crate) const WAKEUP_GRANULARITY: SimTime = SimTime::from_millis(1);

/// The periodic (push) load balancer runs every this many ticks.
pub(crate) const BALANCE_INTERVAL_TICKS: u64 = 4;

/// Delay before the asynchronously woken migrator thread runs.
pub const MIGRATOR_DELAY: SimTime = SimTime::from_micros(5);

/// Parameters of the guest half of IRS (§4.2). A guest built without them
/// models a vanilla kernel that has no `VIRQ_SA_UPCALL` handler and simply
/// ignores SA notifications.
#[derive(Debug, Clone)]
pub struct GuestSaConfig {
    /// Total delay the SA round imposes on the hypervisor's schedule path:
    /// the vIRQ receiver raising the softirq plus the context switcher
    /// (deschedule + pick next). The migrator runs asynchronously and does
    /// not hold up the preemption. The paper profiles the whole round at
    /// 20–26 µs; the default is 22 µs.
    pub round_delay: SimTime,
    /// Fig 4 pingpong-avoidance tagging; disable for the ablation bench.
    pub pingpong_tagging: bool,
    /// Algorithm 2's idle-vCPU fast path (line 8-10). Disabling it makes
    /// the migrator rank every candidate purely by `rt_avg` — the design
    /// ablation called out in DESIGN.md §5.
    pub idle_first: bool,
}

impl Default for GuestSaConfig {
    fn default() -> Self {
        GuestSaConfig {
            round_delay: SimTime::from_micros(22),
            pingpong_tagging: true,
            idle_first: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_linux_cfs() {
        assert_eq!(TICK_PERIOD, SimTime::from_millis(1));
        assert_eq!(SCHED_LATENCY, SimTime::from_millis(6));
        assert!(MIN_GRANULARITY < SCHED_LATENCY);
    }

    #[test]
    fn sa_round_delay_is_in_the_papers_band() {
        // Paper §3.1: 20–26 µs added to the hypervisor scheduling path.
        let d = GuestSaConfig::default().round_delay;
        assert!(d >= SimTime::from_micros(20) && d <= SimTime::from_micros(26));
    }
}
