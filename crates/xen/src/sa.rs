//! The scheduler-activation sender (paper Algorithm 1, hypervisor side).
//!
//! The ~30-line Xen patch the paper describes does three things, all
//! reproduced here:
//!
//! 1. On the critical schedule path, when the scheduler decides to preempt a
//!    **runnable** vCPU **involuntarily**, send `VIRQ_SA_UPCALL` over a
//!    dedicated event channel — but only if no SA is already pending on that
//!    vCPU (the per-vCPU `sa_pending` flag, Algorithm 1 lines 4–5).
//! 2. **Delay the preemption**: the preemptee keeps running so the guest can
//!    handle the vIRQ, context-switch the critical task off, and wake its
//!    migrator (line 7, `continue_running`).
//! 3. Accept the acknowledgement through `HYPERVISOR_sched_op` (handled in
//!    [`Hypervisor::sched_op`]) and clear the pending flag; or, if a rogue or
//!    wedged guest never responds, **force** the preemption after a hard
//!    completion limit (§4.1's security note).

use crate::actions::{HvAction, ScheduleReason};
use crate::config::{HvMode, SA_COMPLETION_LIMIT};
use crate::hypervisor::Hypervisor;
use crate::ids::{PcpuId, VcpuRef};
use crate::runstate::RunState;
use irs_sim::trace::TraceEvent;
use irs_sim::SimTime;

impl Hypervisor {
    /// Sends the SA upcall to `vcpu` (currently running on `pcpu`) and
    /// freezes scheduling on that pCPU until acknowledgement or timeout.
    ///
    /// Callers have already verified the Algorithm 1 preconditions: the
    /// vCPU is runnable, the preemption is involuntary, SA is configured,
    /// the VM is SA-capable, and no SA is pending.
    pub(crate) fn send_sa(
        &mut self,
        pcpu: PcpuId,
        vcpu: VcpuRef,
        now: SimTime,
        out: &mut Vec<HvAction>,
    ) {
        debug_assert_eq!(self.cfg.mode, HvMode::Sa, "send_sa requires SA mode");
        {
            let vc = self.vc_mut(vcpu);
            debug_assert!(!vc.sa_pending);
            vc.sa_pending = true;
            vc.sa_gen += 1;
        }
        self.pcpus[pcpu.0].sa_wait = Some(vcpu);
        self.stats.sa_sent += 1;
        self.trace.emit(now, || TraceEvent::SaSend {
            vm: vcpu.vm.0,
            vcpu: vcpu.idx,
        });
        out.push(HvAction::SaUpcall {
            vcpu,
            deadline: now + SA_COMPLETION_LIMIT,
        });
    }

    /// The hard completion limit fired before the guest acknowledged.
    ///
    /// `generation` must be the [`Hypervisor::sa_generation`] observed when
    /// the upcall was delivered; a stale timeout (the guest acked and a new
    /// round started) is ignored. The wedged vCPU is forced off the pCPU
    /// with yield semantics — it stays runnable but loses the CPU.
    pub fn sa_timeout(&mut self, vcpu: VcpuRef, generation: u64, now: SimTime) -> Vec<HvAction> {
        let mut out = self.out_buf();
        {
            let vc = self.vc(vcpu);
            if !vc.sa_pending || vc.sa_gen != generation {
                return out; // stale: the guest acknowledged in time
            }
        }
        self.vc_mut(vcpu).sa_pending = false;
        self.stats.sa_timeouts += 1;
        self.trace.emit(now, || TraceEvent::SaTimeout {
            vm: vcpu.vm.0,
            vcpu: vcpu.idx,
        });

        // The frozen pCPU is normally the vCPU's home, but trusting `home`
        // here force-schedules the wrong pCPU if the vCPU was re-homed
        // between send and timeout (a migration/work-steal race, or a
        // fault-injected interleaving). Find the pCPU that is actually
        // frozen on this round instead, and release exactly that one.
        let frozen = self
            .pcpus
            .iter()
            .position(|p| p.sa_wait == Some(vcpu))
            .map(PcpuId);
        let Some(pcpu) = frozen else {
            // No pCPU is frozen on this round any more; clearing the
            // pending flag above was all there was left to do.
            return out;
        };
        self.pcpus[pcpu.0].sa_wait = None;

        if self.pcpus[pcpu.0].current == Some(vcpu)
            && self.vc(vcpu).state() == RunState::Running
        {
            self.vc_mut(vcpu).yield_bias = true;
            self.stats.preemptions += 1;
            self.stop_current(pcpu, RunState::Runnable, now, &mut out);
            self.do_schedule(pcpu, now, ScheduleReason::SaTimeout, false, &mut out);
        } else {
            // The waited-on vCPU is no longer current on the frozen pCPU:
            // there is nothing to force off, but the pCPU was refusing to
            // schedule while frozen, so it must be kicked or it idles
            // forever.
            self.do_schedule(pcpu, now, ScheduleReason::SaTimeout, false, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::SchedOp;
    use crate::config::XenConfig;
    use crate::vm::VmSpec;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sa_hv() -> Hypervisor {
        Hypervisor::new(
            XenConfig {
                mode: HvMode::Sa,
                ..XenConfig::default()
            },
            1,
        )
    }

    /// Sets up: SA-capable VM's vCPU running on pcpu0, competitor VM's vCPU
    /// queued, and forces a slice expiry to trigger the SA path. Returns
    /// (hv, preemptee, competitor).
    fn trigger_sa() -> (Hypervisor, VcpuRef, VcpuRef) {
        let mut hv = sa_hv();
        let fg = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)).sa_capable(true));
        let bg = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let vfg = VcpuRef::new(fg, 0);
        let vbg = VcpuRef::new(bg, 0);
        // Make the SA-capable vCPU the runner.
        if hv.pcpu_current(PcpuId(0)) != Some(vfg) {
            let gen = hv.dispatch_info(PcpuId(0)).unwrap().generation;
            // bg runs; expiring its slice switches to fg without SA (bg VM
            // is not SA-capable).
            hv.slice_expired(PcpuId(0), gen, t(30));
        }
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vfg));
        let gen = hv.dispatch_info(PcpuId(0)).unwrap().generation;
        let since = hv.dispatch_info(PcpuId(0)).unwrap().since;
        let sent_at = since + t(30);
        let acts = hv.slice_expired(PcpuId(0), gen, sent_at);
        assert!(
            acts.contains(&HvAction::SaUpcall {
                vcpu: vfg,
                deadline: sent_at + SA_COMPLETION_LIMIT,
            }),
            "slice expiry of an SA-capable runnable vCPU must send SA with a \
             deadline of the send instant plus SA_COMPLETION_LIMIT, got {acts:?}"
        );
        (hv, vfg, vbg)
    }

    #[test]
    fn sa_defers_the_preemption() {
        let (hv, vfg, _) = trigger_sa();
        // The preemptee is still running: the switch was deferred.
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vfg));
        assert!(hv.is_sa_pending(vfg));
        assert_eq!(hv.stats().sa_sent, 1);
        hv.check_invariants().unwrap();
    }

    #[test]
    fn ack_with_yield_completes_the_preemption() {
        let (mut hv, vfg, vbg) = trigger_sa();
        let acts = hv.sched_op(vfg, SchedOp::Yield, t(61));
        hv.check_invariants().unwrap();
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vbg));
        assert_eq!(hv.vcpu_state(vfg), RunState::Runnable);
        assert!(!hv.is_sa_pending(vfg));
        assert_eq!(hv.stats().sa_acked, 1);
        assert!(acts.iter().any(|a| matches!(a, HvAction::VcpuStarted { .. })));
    }

    #[test]
    fn ack_with_block_parks_the_vcpu() {
        let (mut hv, vfg, vbg) = trigger_sa();
        hv.sched_op(vfg, SchedOp::Block, t(61));
        hv.check_invariants().unwrap();
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vbg));
        assert_eq!(hv.vcpu_state(vfg), RunState::Blocked);
        assert!(!hv.is_sa_pending(vfg));
    }

    #[test]
    fn no_duplicate_sa_while_pending() {
        let (mut hv, _vfg, _) = trigger_sa();
        assert_eq!(hv.stats().sa_sent, 1);
        // Another scheduling trigger while pending must not re-send.
        let gen = hv.dispatch_info(PcpuId(0)).unwrap().generation;
        let acts = hv.slice_expired(PcpuId(0), gen, t(90));
        assert!(acts.is_empty());
        assert_eq!(hv.stats().sa_sent, 1);
        hv.check_invariants().unwrap();
    }

    #[test]
    fn timeout_forces_the_preemption() {
        let (mut hv, vfg, vbg) = trigger_sa();
        let generation = hv.sa_generation(vfg);
        let acts = hv.sa_timeout(vfg, generation, t(61));
        hv.check_invariants().unwrap();
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vbg));
        assert_eq!(hv.vcpu_state(vfg), RunState::Runnable);
        assert_eq!(hv.stats().sa_timeouts, 1);
        assert!(!acts.is_empty());
    }

    #[test]
    fn stale_timeout_is_ignored_after_ack() {
        let (mut hv, vfg, _) = trigger_sa();
        let generation = hv.sa_generation(vfg);
        hv.sched_op(vfg, SchedOp::Yield, t(61));
        let acts = hv.sa_timeout(vfg, generation, t(62));
        assert!(acts.is_empty());
        assert_eq!(hv.stats().sa_timeouts, 0);
        hv.check_invariants().unwrap();
    }

    #[test]
    fn sa_not_sent_to_non_capable_vm() {
        let mut hv = sa_hv();
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let gen = hv.dispatch_info(PcpuId(0)).unwrap().generation;
        let acts = hv.slice_expired(PcpuId(0), gen, t(30));
        assert!(!acts.iter().any(|a| matches!(a, HvAction::SaUpcall { .. })));
        assert_eq!(hv.stats().sa_sent, 0);
        // The preemption happened immediately instead.
        assert!(acts.iter().any(|a| matches!(a, HvAction::VcpuStarted { .. })));
    }

    #[test]
    fn voluntary_block_is_never_an_sa() {
        let mut hv = sa_hv();
        let fg = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)).sa_capable(true));
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let vfg = VcpuRef::new(fg, 0);
        if hv.pcpu_current(PcpuId(0)) != Some(vfg) {
            let gen = hv.dispatch_info(PcpuId(0)).unwrap().generation;
            hv.slice_expired(PcpuId(0), gen, t(30));
        }
        hv.sched_op(vfg, SchedOp::Block, t(35));
        assert_eq!(hv.stats().sa_sent, 0, "blocking is voluntary: no SA");
        hv.check_invariants().unwrap();
    }

    #[test]
    fn wake_boost_preemption_also_goes_through_sa() {
        let mut hv = sa_hv();
        let fg = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)).sa_capable(true));
        let io = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let vfg = VcpuRef::new(fg, 0);
        let vio = VcpuRef::new(io, 0);
        // Get vio blocked and vfg running.
        if hv.pcpu_current(PcpuId(0)) == Some(vfg) {
            // A voluntary yield hands the pCPU to vio without triggering SA.
            hv.sched_op(vfg, SchedOp::Yield, t(1));
        }
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vio));
        hv.sched_op(vio, SchedOp::Block, t(2));
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vfg));
        // vio wakes with BOOST: would preempt vfg; SA must fire first.
        let acts = hv.vcpu_wake(vio, t(40));
        assert!(acts.iter().any(|a| matches!(a, HvAction::SaUpcall { .. })));
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vfg), "preemption deferred");
        // Guest acks; the boosted waker takes over.
        hv.sched_op(vfg, SchedOp::Yield, t(40) + SimTime::from_micros(25));
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vio));
        hv.check_invariants().unwrap();
    }

    #[test]
    fn timeout_is_idempotent() {
        // Regression: a second timeout for the same round (duplicate or
        // late-queued event) must be a no-op, not a double force.
        let (mut hv, vfg, vbg) = trigger_sa();
        let generation = hv.sa_generation(vfg);
        hv.sa_timeout(vfg, generation, t(61));
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vbg));
        let acts = hv.sa_timeout(vfg, generation, t(62));
        assert!(acts.is_empty());
        assert_eq!(hv.stats().sa_timeouts, 1);
        assert_eq!(hv.stats().preemptions, 1);
        hv.check_invariants().unwrap();
    }

    #[test]
    fn stale_timeout_after_rehome_leaves_new_home_alone() {
        // Regression for the wrong-pCPU force: the guest acks with Block,
        // the vCPU later wakes and is re-dispatched (possibly on another
        // pCPU under migration), and only then does the old round's timeout
        // event pop. It must not disturb the new dispatch.
        let (mut hv, vfg, vbg) = trigger_sa();
        let generation = hv.sa_generation(vfg);
        hv.sched_op(vfg, SchedOp::Block, t(61));
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vbg));
        // vfg wakes with BOOST; a fresh SA round starts against vbg, which
        // acks, handing the pCPU to vfg.
        hv.vcpu_wake(vfg, t(70));
        if hv.is_sa_pending(vbg) {
            hv.sched_op(vbg, SchedOp::Yield, t(70) + SimTime::from_micros(25));
        }
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vfg));
        let info_before = hv.dispatch_info(PcpuId(0)).unwrap();
        // The stale timeout from the acked round fires now.
        let acts = hv.sa_timeout(vfg, generation, t(71));
        assert!(acts.is_empty(), "stale timeout must not touch the pCPU");
        assert_eq!(hv.stats().sa_timeouts, 0);
        assert_eq!(hv.dispatch_info(PcpuId(0)).unwrap(), info_before);
        hv.check_invariants().unwrap();
    }

    #[test]
    fn timeout_recovers_a_freeze_without_a_current() {
        // Regression: if an interleaving ever deschedules the waited-on
        // vCPU while its pCPU is frozen (the state the old
        // `debug_assert_eq!(pcpus[home].sa_wait, Some(vcpu))` assumed away),
        // the timeout must still release the freeze and reschedule the
        // pCPU instead of panicking or leaving it frozen forever. The state
        // is constructed directly — no public-API sequence produces it
        // today, which is exactly why the recovery path needs pinning.
        let (mut hv, vfg, _vbg) = trigger_sa();
        let generation = hv.sa_generation(vfg);
        // Simulate the rogue deschedule: vfg off the pCPU, queued runnable,
        // freeze left behind.
        hv.pcpus[0].current = None;
        hv.vc_mut(vfg).clock.transition(RunState::Runnable, t(60));
        hv.enqueue(vfg, PcpuId(0));
        assert_eq!(hv.pcpu_sa_wait(PcpuId(0)), Some(vfg));

        let acts = hv.sa_timeout(vfg, generation, t(61));
        assert_eq!(hv.pcpu_sa_wait(PcpuId(0)), None, "freeze released");
        assert!(!hv.is_sa_pending(vfg));
        assert!(
            hv.pcpu_current(PcpuId(0)).is_some(),
            "the unfrozen pCPU must schedule again, got {acts:?}"
        );
        hv.check_invariants().unwrap();
    }

    #[test]
    fn ack_recovers_a_freeze_without_a_current() {
        // Same constructed race as above, resolved through the ack path:
        // `sched_op` must release the freeze and kick the pCPU even though
        // the acknowledging vCPU is no longer current there (the spurious
        // guard used to swallow the unfreeze).
        let (mut hv, vfg, _vbg) = trigger_sa();
        hv.pcpus[0].current = None;
        hv.vc_mut(vfg).clock.transition(RunState::Runnable, t(60));
        hv.enqueue(vfg, PcpuId(0));
        assert_eq!(hv.pcpu_sa_wait(PcpuId(0)), Some(vfg));

        hv.sched_op(vfg, SchedOp::Yield, t(61));
        assert_eq!(hv.pcpu_sa_wait(PcpuId(0)), None, "freeze released");
        assert!(!hv.is_sa_pending(vfg));
        assert_eq!(hv.stats().sa_acked, 1);
        assert!(hv.pcpu_current(PcpuId(0)).is_some(), "pCPU rescheduled");
        hv.check_invariants().unwrap();
    }

    #[test]
    fn sa_delay_is_microseconds_not_slices() {
        // End-to-end: the deferred preemption completes as soon as the guest
        // acks (25 µs later), not a slice later.
        let (mut hv, vfg, vbg) = trigger_sa();
        let ack_at = t(60) + SimTime::from_micros(25);
        hv.sched_op(vfg, SchedOp::Yield, ack_at);
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(vbg));
        let info = hv.dispatch_info(PcpuId(0)).unwrap();
        assert_eq!(info.since, ack_at);
    }
}
