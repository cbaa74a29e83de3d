//! Relaxed co-scheduling (the paper's reimplementation of VMware's scheme).
//!
//! Per §5.1: *"Relaxed-Co monitors the execution skew of each vCPU and stops
//! the vCPU that makes significantly more progress than the slowest vCPU. A
//! vCPU is considered to make progress when it executes guest instructions
//! or it is in the IDLE state. [...] when a VM's leading vCPU is stopped,
//! the hypervisor switches it with its slowest sibling vCPU to boost the
//! execution of this lagging vCPU."*
//!
//! The deliberate flaw the paper analyzes is kept: **blocked (idle) time
//! counts as progress**, so a vCPU idling because its sibling holds the lock
//! looks like a leader, while only steal time counts as lag. For spinning
//! workloads the leader really is ahead and parking it helps; for blocking
//! workloads the scheme parks victims and becomes destructive (Figs 5, 7).

use crate::actions::{HvAction, ScheduleReason};
use crate::config::CO_SKEW_THRESHOLD;
use crate::hypervisor::Hypervisor;
use crate::ids::VcpuRef;
use crate::runstate::RunState;
use crate::vcpu::CreditPriority;
use irs_sim::SimTime;

impl Hypervisor {
    /// Runs the skew check for every multi-vCPU VM. Called from the 30 ms
    /// accounting pass when relaxed-co is configured.
    pub(crate) fn relaxed_co_balance(&mut self, now: SimTime, out: &mut Vec<HvAction>) {
        // Last period's parks expire first: every vCPU gets a fresh chance.
        for v in &mut self.vcpus {
            v.parked = false;
        }

        for vm_idx in 0..self.vms.len() {
            if self.vms[vm_idx].n_vcpus < 2 {
                continue;
            }
            // Progress = running + blocked (idle-as-progress); lag = steal.
            // Measured against the baseline captured at the last trigger so
            // skew is per-round, as a co-stop/co-start cycle would be.
            let progress: Vec<(VcpuRef, SimTime)> = self
                .vm_vcpus(crate::ids::VmId(vm_idx))
                .iter()
                .map(|v| {
                    let info = v.clock.info(now);
                    (
                        v.vref,
                        (info.running + info.blocked).saturating_sub(v.co_baseline),
                    )
                })
                .collect();
            // Only a vCPU that wants CPU can meaningfully be stopped.
            let Some(&(leader, lead_p)) = progress
                .iter()
                .filter(|&&(v, _)| self.vc(v).state().wants_cpu())
                .max_by_key(|&&(_, p)| p)
            else {
                continue;
            };
            let Some(&(laggard, lag_p)) = progress.iter().min_by_key(|&&(_, p)| p) else {
                continue;
            };
            if leader == laggard || lead_p.saturating_sub(lag_p) <= CO_SKEW_THRESHOLD {
                continue;
            }
            // Reset the measurement round.
            for v in self.vm_vcpus_mut(crate::ids::VmId(vm_idx)) {
                let info = v.clock.info(now);
                v.co_baseline = info.running + info.blocked;
            }

            // Stop the leader for one period.
            self.vc_mut(leader).parked = true;
            self.stats.co_parks += 1;
            let leader_home = self.vc(leader).home;
            if self.pcpus[leader_home.0].current == Some(leader)
                && self.pcpus[leader_home.0].sa_wait.is_none()
            {
                self.stop_current(leader_home, RunState::Runnable, now, out);
                self.do_schedule(leader_home, now, ScheduleReason::CoPark, false, out);
            }

            // Boost the laggard if it wants CPU: a preempted laggard takes
            // its pCPU back immediately; a running laggard's BOOST shields
            // it from preemption until the next tick (co-start semantics).
            if self.vc(laggard).state().wants_cpu() {
                self.vc_mut(laggard).priority = CreditPriority::Boost;
                let lag_home = self.vc(laggard).home;
                if self.vc(laggard).state() == RunState::Runnable {
                    let preempt = match self.pcpus[lag_home.0].current {
                        None => true,
                        Some(cur) => CreditPriority::Boost < self.vc(cur).priority,
                    };
                    if preempt {
                        self.do_schedule(lag_home, now, ScheduleReason::CoPark, false, out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::SchedOp;
    use crate::config::{HvMode, XenConfig};
    use crate::ids::PcpuId;
    use crate::vm::VmSpec;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn co_hv(n_pcpus: usize) -> Hypervisor {
        Hypervisor::new(
            XenConfig {
                mode: HvMode::RelaxedCo,
                ..XenConfig::default()
            },
            n_pcpus,
        )
    }

    /// Builds the canonical skew scenario: a 2-vCPU VM on two pCPUs where
    /// vCPU0 runs unhindered (leader) and vCPU1 is starved by a hog VM
    /// sharing its pCPU (laggard, accumulating steal time).
    fn skewed() -> (Hypervisor, VcpuRef, VcpuRef, VcpuRef) {
        let mut hv = co_hv(2);
        let par = hv.create_vm(VmSpec::new(2).pin(vec![PcpuId(0), PcpuId(1)]));
        let hog = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(1)));
        hv.start(t(0));
        let v0 = VcpuRef::new(par, 0);
        let v1 = VcpuRef::new(par, 1);
        let h = VcpuRef::new(hog, 0);
        // Ensure the hog is running on pcpu1 so v1 lags.
        if hv.pcpu_current(PcpuId(1)) != Some(h) {
            hv.sched_op(v1, SchedOp::Yield, t(0));
        }
        assert_eq!(hv.pcpu_current(PcpuId(1)), Some(h));
        (hv, v0, v1, h)
    }

    #[test]
    fn leader_is_parked_and_laggard_boosted() {
        let (mut hv, v0, v1, _h) = skewed();
        // After 60 ms: v0 progressed 60 ms, v1 progressed 0 (all steal).
        let acts = {
            let mut out = Vec::new();
            hv.relaxed_co_balance(t(60), &mut out);
            out
        };
        hv.check_invariants().unwrap();
        assert!(hv.vc(v0).parked, "leader must be parked");
        assert_eq!(hv.vc(v1).priority, CreditPriority::Boost);
        // Leader was running alone on pcpu0: descheduled; pcpu0 idles
        // (nothing else runnable there).
        assert_eq!(hv.pcpu_current(PcpuId(0)), None);
        // Laggard preempted the hog on pcpu1.
        assert_eq!(hv.pcpu_current(PcpuId(1)), Some(v1));
        assert!(!acts.is_empty());
        assert_eq!(hv.stats().co_parks, 1);
    }

    #[test]
    fn no_action_below_threshold() {
        let (mut hv, v0, _v1, _h) = skewed();
        let mut out = Vec::new();
        // Only 10 ms of skew: below the 30 ms threshold.
        hv.relaxed_co_balance(t(10), &mut out);
        assert!(!hv.vc(v0).parked);
        assert_eq!(hv.stats().co_parks, 0);
    }

    #[test]
    fn parks_expire_next_period() {
        let (mut hv, v0, _v1, _h) = skewed();
        let mut out = Vec::new();
        hv.relaxed_co_balance(t(60), &mut out);
        assert!(hv.vc(v0).parked);
        // Next accounting: v0's park expires (it may be re-parked only if
        // skew persists — it does here, so park again; then verify a pass
        // without skew unparks).
        let mut out2 = Vec::new();
        hv.relaxed_co_balance(t(61), &mut out2);
        // Either way, the parked flag was recomputed, not sticky from round 1.
        // Catch the unpark by checking a single-vCPU VM is never parked.
        let mut hv2 = co_hv(1);
        let solo = hv2.create_vm(VmSpec::new(1));
        hv2.start(t(0));
        let mut out3 = Vec::new();
        hv2.relaxed_co_balance(t(120), &mut out3);
        assert!(!hv2.vc(VcpuRef::new(solo, 0)).parked);
    }

    #[test]
    fn idle_counts_as_progress() {
        // A 2-vCPU VM alone on 2 pCPUs: vCPU0 runs, vCPU1 blocks (idle).
        // Blocking counts as progress, so no skew accumulates and relaxed-co
        // must NOT intervene — this is exactly the deceptive-idleness flaw.
        let mut hv = co_hv(2);
        let par = hv.create_vm(VmSpec::new(2).pin(vec![PcpuId(0), PcpuId(1)]));
        hv.start(t(0));
        let v1 = VcpuRef::new(par, 1);
        hv.sched_op(v1, SchedOp::Block, t(0));
        let mut out = Vec::new();
        hv.relaxed_co_balance(t(200), &mut out);
        assert_eq!(hv.stats().co_parks, 0, "idle sibling looks progressed");
        assert!(!hv.vc(VcpuRef::new(par, 0)).parked);
    }

    #[test]
    fn parked_vcpu_is_not_picked() {
        let (mut hv, v0, _v1, _h) = skewed();
        let mut out = Vec::new();
        hv.relaxed_co_balance(t(60), &mut out);
        assert!(hv.vc(v0).parked);
        // pcpu0 has only the parked v0 queued: scheduling leaves it idle.
        let mut out2 = Vec::new();
        hv.do_schedule(
            PcpuId(0),
            t(61),
            ScheduleReason::Accounting,
            false,
            &mut out2,
        );
        assert_eq!(hv.pcpu_current(PcpuId(0)), None);
        hv.check_invariants().unwrap();
    }

    #[test]
    fn single_vcpu_vms_are_skipped() {
        let mut hv = co_hv(1);
        hv.create_vm(VmSpec::new(1));
        hv.create_vm(VmSpec::new(1));
        hv.start(t(0));
        let mut out = Vec::new();
        hv.relaxed_co_balance(t(500), &mut out);
        assert_eq!(hv.stats().co_parks, 0);
    }
}
