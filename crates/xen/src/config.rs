//! Hypervisor configuration and the credit scheduler's fixed constants.

use irs_sim::SimTime;

/// Period of the credit-burn tick (Xen 4.5: 10 ms).
pub const TICK_PERIOD: SimTime = SimTime::from_millis(10);

/// Period of credit replenishment and priority recomputation (Xen 4.5:
/// 30 ms). A vCPU receives BOOST on wake at most once per period.
pub const ACCOUNTING_PERIOD: SimTime = SimTime::from_millis(30);

/// Hard limit on guest SA processing before the hypervisor forces the
/// preemption anyway — the paper's defense against rogue guests that never
/// return control (§4.1). SA processing normally takes 20–26 µs, so the
/// 500 µs limit never triggers for well-behaved guests.
pub const SA_COMPLETION_LIMIT: SimTime = SimTime::from_micros(500);

/// Continuous spin window that triggers a pause-loop VM-exit (order of
/// tens of µs on real hardware).
pub const PLE_WINDOW: SimTime = SimTime::from_micros(25);

/// Progress skew between sibling vCPUs that triggers a relaxed
/// co-scheduling leader/laggard swap.
pub(crate) const CO_SKEW_THRESHOLD: SimTime = SimTime::from_millis(30);

/// The one strategy mechanism the hypervisor runs on top of the credit
/// scheduler, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HvMode {
    /// The plain credit scheduler (vanilla Xen 4.5).
    #[default]
    Credit,
    /// Scheduler-activation (IRS) sender, with the
    /// [`SA_COMPLETION_LIMIT`] force path (paper §3.1, §4.1).
    Sa,
    /// Pause-loop-exiting response: yield a vCPU whose guest spun for
    /// [`PLE_WINDOW`]. The *detection* is modelled by the embedding
    /// simulation (it knows when a task spins); this mode selects the
    /// hypervisor's response.
    Ple,
    /// Relaxed co-scheduling (the paper's reimplementation of VMware's
    /// scheme, §5.1). Every accounting period the hypervisor measures
    /// per-vCPU *progress*, where — crucially, and deliberately — **idle
    /// (blocked) time counts as progress**. If the skew between the most-
    /// and least-progressed sibling exceeds 30 ms (`CO_SKEW_THRESHOLD`), the
    /// leading vCPU is stopped for one period and the most-lagging runnable
    /// sibling is boosted.
    RelaxedCo,
    /// Strict (gang) co-scheduling — the VMware ESX 2.x baseline of §2.1:
    /// whole VMs rotate on gang slices; see [`crate::Hypervisor::gang_rotate`].
    StrictCo,
}

/// Configuration of the hypervisor and its credit scheduler.
///
/// Defaults mirror Xen 4.5's credit scheduler as described in the paper:
/// 30 ms time slice, no slice perturbation, placement salt 0 and no
/// strategy mechanism ([`HvMode::Credit`]). The credit tick
/// ([`TICK_PERIOD`]), the accounting period ([`ACCOUNTING_PERIOD`]),
/// BOOST on wake, and the load-based wake placement and idle stealing of
/// unpinned vCPUs are fixed; pinned vCPUs never move.
///
/// # Example
///
/// ```
/// use irs_sim::SimTime;
/// use irs_xen::{HvMode, XenConfig};
///
/// let cfg = XenConfig {
///     mode: HvMode::Sa,
///     ..XenConfig::default()
/// };
/// assert_eq!(cfg.time_slice, SimTime::from_millis(30));
/// ```
#[derive(Debug, Clone)]
pub struct XenConfig {
    /// Maximum time a vCPU runs before the scheduler re-decides (30 ms).
    pub time_slice: SimTime,
    /// Half-width of the deterministic per-dispatch slice perturbation.
    ///
    /// Real hosts never run slices in perfect lockstep: interrupts, softirqs
    /// and timer skew desynchronize the per-pCPU schedules. Without this,
    /// co-located deterministic workloads phase-lock (all contended vCPUs
    /// stall in the same windows), which understates the stall unions that
    /// drive the paper's vanilla slowdowns. Zero disables the perturbation
    /// (unit tests rely on exact slice arithmetic).
    pub slice_jitter: SimTime,
    /// Salt of the initial placement of unpinned vCPUs: each one's home is
    /// a hash of `(salt, vm, vcpu)`, producing the lumpy placements real
    /// creation order yields. Lumpy placement is a precondition for the
    /// §5.6 CPU-stacking pathology: with no idle pCPU to steal from,
    /// initially co-located sibling vCPUs stay co-located.
    pub placement_salt: u64,
    /// The strategy mechanism on top of the credit scheduler.
    pub mode: HvMode,
}

impl Default for XenConfig {
    fn default() -> Self {
        XenConfig {
            time_slice: SimTime::from_millis(30),
            slice_jitter: SimTime::ZERO,
            placement_salt: 0,
            mode: HvMode::Credit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_xen_credit() {
        let cfg = XenConfig::default();
        assert_eq!(cfg.time_slice, SimTime::from_millis(30));
        assert_eq!(TICK_PERIOD, SimTime::from_millis(10));
        assert_eq!(ACCOUNTING_PERIOD, SimTime::from_millis(30));
        assert_eq!(cfg.mode, HvMode::Credit);
    }

    #[test]
    fn sa_limit_is_generous_relative_to_processing_cost() {
        // Paper: SA processing takes 20–26 µs; limit must not clip it.
        assert!(SA_COMPLETION_LIMIT > SimTime::from_micros(26));
    }

    #[test]
    fn ple_window_is_sub_slice() {
        assert!(PLE_WINDOW < XenConfig::default().time_slice);
    }
}
