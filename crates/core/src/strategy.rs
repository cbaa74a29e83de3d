//! The scheduling strategies compared throughout the evaluation.

use irs_sim::SimTime;
use irs_xen::{HvMode, XenConfig};
use std::fmt;

/// Half-width of the slice perturbation every strategy but strict
/// co-scheduling runs with.
const SLICE_JITTER: SimTime = SimTime::from_millis(2);

/// A hypervisor/guest scheduling strategy (§5.1 "Scheduling strategies").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Unmodified Xen credit scheduler + unmodified Linux guest: the
    /// baseline every figure normalizes against.
    Vanilla,
    /// Pause-loop exiting: the hypervisor yields a vCPU caught spinning
    /// beyond the PLE window (hardware-assisted spin mitigation).
    Ple,
    /// The paper's reimplementation of VMware's relaxed co-scheduling:
    /// per-period skew monitoring, park the leader, boost the laggard
    /// (idle counts as progress — deliberately).
    RelaxedCo,
    /// Interference-resilient scheduling: scheduler activations from the
    /// hypervisor plus guest-side context switcher and migrator.
    Irs,
    /// Strict (gang) co-scheduling — the VMware ESX 2.x scheme §2.1
    /// discusses: whole VMs rotate on gang slices. Immune to LHP/LWP by
    /// construction, but pays CPU fragmentation and slot-wait latency.
    StrictCo,
    /// The paper's §6 "Limitation" thought experiment: ideal *pull-based*
    /// migration, where an idle vCPU pulls the stranded "running" task off
    /// a preempted sibling directly. Not realizable in a real guest without
    /// new kernel machinery; implemented here as the upper-bound oracle.
    IrsPull,
}

impl Strategy {
    /// Every strategy, in the order the paper's figures list them.
    pub const ALL: [Strategy; 4] = [
        Strategy::Vanilla,
        Strategy::Ple,
        Strategy::RelaxedCo,
        Strategy::Irs,
    ];

    /// Hypervisor configuration implementing this strategy.
    ///
    /// Every strategy but strict co-scheduling runs with a small slice
    /// perturbation ([`XenConfig::slice_jitter`]) so co-located
    /// deterministic workloads do not phase-lock, mirroring real-host
    /// timer noise. Gang rotation replaces per-pCPU slice scheduling, and
    /// the perturbation would only desynchronize the rotation.
    pub fn xen_config(self) -> XenConfig {
        let (mode, slice_jitter) = match self {
            Strategy::Vanilla => (HvMode::Credit, SLICE_JITTER),
            Strategy::Ple => (HvMode::Ple, SLICE_JITTER),
            Strategy::RelaxedCo => (HvMode::RelaxedCo, SLICE_JITTER),
            Strategy::StrictCo => (HvMode::StrictCo, SimTime::ZERO),
            Strategy::Irs | Strategy::IrsPull => (HvMode::Sa, SLICE_JITTER),
        };
        XenConfig {
            mode,
            slice_jitter,
            ..XenConfig::default()
        }
    }

    /// Whether foreground VMs register the SA upcall handler: they run the
    /// guest half of IRS (the paper's foreground VM; background VMs always
    /// run vanilla kernels — see §5.4 footnote 1).
    pub fn sa_capable_guest(self) -> bool {
        matches!(self, Strategy::Irs | Strategy::IrsPull)
    }

    /// Whether the idle-pull oracle (§6) is active.
    pub fn pull_oracle(self) -> bool {
        self == Strategy::IrsPull
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::Vanilla => "Vanilla",
            Strategy::Ple => "PLE",
            Strategy::RelaxedCo => "Relaxed-Co",
            Strategy::StrictCo => "Strict-Co",
            Strategy::Irs => "IRS",
            Strategy::IrsPull => "IRS-pull",
        };
        f.pad(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_match_strategies() {
        assert_eq!(Strategy::Vanilla.xen_config().mode, HvMode::Credit);
        assert_eq!(Strategy::RelaxedCo.xen_config().mode, HvMode::RelaxedCo);
        assert_eq!(Strategy::Irs.xen_config().mode, HvMode::Sa);
        assert_eq!(Strategy::IrsPull.xen_config().mode, HvMode::Sa);
        // PLE is decided once: only `Ple` answers pause-loop exits, so
        // only its runs arm PLE windows.
        for s in Strategy::ALL
            .into_iter()
            .chain([Strategy::StrictCo, Strategy::IrsPull])
        {
            assert_eq!(
                s.xen_config().mode == HvMode::Ple,
                s == Strategy::Ple,
                "{s}"
            );
        }
    }

    #[test]
    fn only_irs_strategies_enable_the_guest_side() {
        assert!(!Strategy::Vanilla.sa_capable_guest());
        assert!(!Strategy::Ple.sa_capable_guest());
        assert!(Strategy::Irs.sa_capable_guest());
    }

    #[test]
    fn display_names() {
        assert_eq!(Strategy::RelaxedCo.to_string(), "Relaxed-Co");
        assert_eq!(Strategy::Irs.to_string(), "IRS");
    }
}
