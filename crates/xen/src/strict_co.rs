//! Strict (gang) co-scheduling — the VMware ESX 2.x baseline of §2.1.
//!
//! All sibling vCPUs of a VM are scheduled and descheduled *synchronously*:
//! the machine is time-sliced between whole VMs. Within a VM's slot no
//! sibling can be preempted by another VM, so LHP/LWP cannot occur — but
//! a VM with fewer runnable vCPUs than pCPUs leaves the remainder idle
//! (**CPU fragmentation**), and a vCPU waking outside its VM's slot waits
//! for the next one (**priority inversion** against latency-sensitive
//! work). Both costs are exactly what the paper cites from its reference
//! \[28\] (the VMware co-scheduling white paper).
//!
//! The model is deliberately simple: VMs with at least one runnable vCPU
//! rotate round-robin on a gang slice; wakes during a foreign slot queue
//! until the VM's own slot. Every VM has the same weight, as in the
//! paper's comparison.

use crate::actions::{HvAction, ScheduleReason};
use crate::config::HvMode;
use crate::hypervisor::Hypervisor;
use crate::ids::{PcpuId, VmId};
use crate::runstate::RunState;
use irs_sim::SimTime;

impl Hypervisor {
    /// The VM whose gang slot is currently open (`None` before the first
    /// rotation or when gang mode is off).
    pub fn gang_current(&self) -> Option<VmId> {
        self.gang_current
    }

    /// True when the hypervisor runs in strict co-scheduling mode.
    pub fn is_gang_mode(&self) -> bool {
        self.cfg.mode == HvMode::StrictCo
    }

    /// Rotates the gang slot to the next VM with runnable work and
    /// synchronously switches every pCPU to that VM's vCPUs.
    ///
    /// The embedder calls this every gang slice (and may call it early when
    /// the current gang VM goes fully idle — see
    /// [`Hypervisor::gang_vm_fully_idle`]).
    ///
    /// # Panics
    ///
    /// Panics if strict co-scheduling is not configured.
    pub fn gang_rotate(&mut self, now: SimTime) -> Vec<HvAction> {
        assert!(
            self.cfg.mode == HvMode::StrictCo,
            "gang_rotate requires strict co-scheduling"
        );
        let mut out = self.out_buf();
        let n_vms = self.vms.len();
        if n_vms == 0 {
            return out;
        }
        // Next VM (round-robin) with at least one vCPU wanting CPU.
        let start = self.gang_current.map(|v| v.0 + 1).unwrap_or(0);
        let mut next = None;
        for off in 0..n_vms {
            let cand = VmId((start + off) % n_vms);
            let wants = self.vm_vcpus(cand).iter().any(|v| v.state().wants_cpu());
            if wants {
                next = Some(cand);
                break;
            }
        }
        let Some(gang) = next else {
            // Nothing runnable anywhere: close the slot.
            for p in 0..self.pcpus.len() {
                if self.pcpus[p].current.is_some() {
                    self.stop_current(PcpuId(p), RunState::Runnable, now, &mut out);
                }
            }
            self.gang_current = None;
            return out;
        };
        self.gang_current = Some(gang);
        self.stats.gang_rotations += 1;

        // Synchronously stop every foreign current and start the gang VM's
        // runnable vCPUs on their home pCPUs.
        for p in 0..self.pcpus.len() {
            let pid = PcpuId(p);
            if let Some(cur) = self.pcpus[p].current {
                if cur.vm != gang {
                    self.stats.preemptions += 1;
                    self.stop_current(pid, RunState::Runnable, now, &mut out);
                }
            }
            if self.pcpus[p].current.is_none() {
                // Left idle if the gang VM has nothing runnable here
                // (fragmentation).
                self.do_schedule(pid, now, ScheduleReason::Start, false, &mut out);
            }
        }
        out
    }

    /// True when the gang VM has no runnable or running vCPU left — the
    /// embedder should rotate early rather than idle the whole machine.
    pub fn gang_vm_fully_idle(&self) -> bool {
        match self.gang_current {
            None => true,
            Some(vm) => !self.vm_vcpus(vm).iter().any(|v| v.state().wants_cpu()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::SchedOp;
    use crate::config::XenConfig;
    use crate::ids::VcpuRef;
    use crate::vm::VmSpec;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn gang_hv() -> Hypervisor {
        let mut hv = Hypervisor::new(
            XenConfig {
                mode: HvMode::StrictCo,
                ..XenConfig::default()
            },
            4,
        );
        // A 4-vCPU parallel VM and a 1-vCPU sequential VM.
        hv.create_vm(VmSpec::new(4).pin((0..4).map(PcpuId).collect()));
        hv.create_vm(VmSpec::new(1).pin(vec![PcpuId(0)]));
        hv.start(t(0));
        hv
    }

    #[test]
    fn rotation_schedules_whole_gangs() {
        let mut hv = gang_hv();
        hv.gang_rotate(t(0));
        assert_eq!(hv.gang_current(), Some(VmId(0)));
        // All four pCPUs run VM 0's vCPUs simultaneously.
        for p in 0..4 {
            let cur = hv.pcpu_current(PcpuId(p)).expect("gang slot fills pCPU");
            assert_eq!(cur.vm, VmId(0));
        }
        hv.check_invariants().unwrap();
    }

    #[test]
    fn fragmentation_idles_pcpus_in_small_vm_slots() {
        let mut hv = gang_hv();
        hv.gang_rotate(t(0)); // VM 0's slot
        hv.gang_rotate(t(30)); // VM 1's slot
        assert_eq!(hv.gang_current(), Some(VmId(1)));
        assert_eq!(
            hv.pcpu_current(PcpuId(0)).map(|v| v.vm),
            Some(VmId(1)),
            "the sequential VM runs on its pCPU"
        );
        // The other three pCPUs are idle: CPU fragmentation.
        let idle = (1..4)
            .filter(|&p| hv.pcpu_current(PcpuId(p)).is_none())
            .count();
        assert_eq!(idle, 3, "three pCPUs fragment during the small VM's slot");
        hv.check_invariants().unwrap();
    }

    #[test]
    fn no_cross_vm_preemption_within_a_slot() {
        let mut hv = gang_hv();
        hv.gang_rotate(t(0)); // VM 0's slot
                              // VM 1's vCPU waking mid-slot must wait (priority inversion).
        let v1 = VcpuRef::new(VmId(1), 0);
        hv.sched_op(v1, SchedOp::Block, t(1)); // it is queued, not running: no-op
        let before = hv.pcpu_current(PcpuId(0));
        hv.vcpu_wake(v1, t(2));
        assert_eq!(hv.pcpu_current(PcpuId(0)), before, "no preemption mid-slot");
        hv.check_invariants().unwrap();
    }

    #[test]
    fn rotation_skips_fully_idle_vms() {
        let mut hv = gang_hv();
        hv.gang_rotate(t(0));
        // Block all of VM 0's vCPUs.
        for i in 0..4 {
            let v = VcpuRef::new(VmId(0), i);
            if hv.pcpu_current(PcpuId(i)) == Some(v) {
                hv.sched_op(v, SchedOp::Block, t(1));
            }
        }
        assert!(hv.gang_vm_fully_idle() || hv.gang_current() == Some(VmId(0)));
        let _ = hv.gang_rotate(t(2));
        assert_eq!(hv.gang_current(), Some(VmId(1)), "idle VM skipped");
        hv.check_invariants().unwrap();
    }

    #[test]
    fn rotation_counts_in_stats() {
        let mut hv = gang_hv();
        hv.gang_rotate(t(0));
        hv.gang_rotate(t(30));
        assert_eq!(hv.stats().gang_rotations, 2);
    }
}
