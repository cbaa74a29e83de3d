//! The credit scheduler.
//!
//! A faithful model of the mechanisms in Xen 4.5's `sched_credit.c` that the
//! paper's analysis rests on:
//!
//! * **30 ms time slices** — the source of the "one more VM ⇒ +30 ms
//!   migration latency" staircase in Fig 1(b).
//! * **10 ms tick** burning credits of the running vCPU, and a **30 ms
//!   accounting period** replenishing credits in equal per-VM shares
//!   (every VM runs at Xen's default weight).
//! * **Priorities `BOOST > UNDER > OVER`**, with BOOST granted on wake-up
//!   from the blocked state — the property IRS exploits when it migrates a
//!   critical thread to an idle (hypervisor-blocked) sibling vCPU.
//! * **Hard affinity** (the paper pins vCPUs in §5.1–5.5) and, when
//!   unpinned, **load-based wake placement + idle stealing**, which is
//!   exactly the combination that produces the §5.6 CPU-stacking pathology
//!   under deceptive idleness.
//!
//! The scheduler-activation hook sits on the involuntary-preemption path in
//! `Hypervisor::do_schedule`: where vanilla Xen would context-switch a
//! runnable vCPU out, an SA-enabled hypervisor first notifies the guest and
//! defers the switch (see [`crate::sa`]).

use crate::actions::{HvAction, SchedOp, ScheduleReason};
use crate::config::{HvMode, ACCOUNTING_PERIOD, TICK_PERIOD};
use crate::hypervisor::Hypervisor;
use crate::ids::{PcpuId, VcpuRef};
use crate::runstate::RunState;
use crate::vcpu::CreditPriority;
use irs_sim::trace::TraceEvent;
use irs_sim::SimTime;

/// Credits burned by a running vCPU per 10 ms tick (Xen: `CSCHED_CREDITS_PER_TICK`).
pub const CREDITS_PER_TICK: i64 = 100;
/// Credits distributed per pCPU per 30 ms accounting period.
pub const CREDITS_PER_ACCT: i64 = 300;
/// Upper bound on a vCPU's credit balance.
pub const CREDIT_CAP: i64 = 300;
/// Lower bound on a vCPU's credit balance.
pub const CREDIT_FLOOR: i64 = -300;

impl Hypervisor {
    // ==================================================================
    // periodic machinery
    // ==================================================================

    /// The 10 ms credit-burn tick.
    ///
    /// Burns credits in proportion to the running time each vCPU actually
    /// consumed since the previous tick ([`CREDITS_PER_TICK`] per full tick
    /// period), expires BOOST priorities of vCPUs caught running, and
    /// preempts where a queued vCPU now outranks the runner.
    pub fn tick(&mut self, now: SimTime) -> Vec<HvAction> {
        let mut out = self.out_buf();
        let tick_ns = TICK_PERIOD.as_nanos();
        // One linear pass over the flat vCPU arena (VM-major order, same as
        // the old per-VM nesting).
        for i in 0..self.vcpus.len() {
            let vc = &mut self.vcpus[i];
            let run = vc.clock.info(now).running;
            let delta = run.saturating_sub(vc.burn_baseline).as_nanos();
            vc.burn_baseline = run;
            if delta > 0 {
                let burn = (delta as i64 * CREDITS_PER_TICK) / tick_ns as i64;
                vc.credits = (vc.credits - burn).max(CREDIT_FLOOR);
                let credits = vc.credits;
                let vref = vc.vref;
                self.trace.emit(now, || TraceEvent::CreditTick {
                    vm: vref.vm.0,
                    vcpu: vref.idx,
                    burned: burn,
                    credits,
                });
            }
            let vc = &mut self.vcpus[i];
            vc.refresh_priority();
        }
        for p in 0..self.pcpus.len() {
            let pid = PcpuId(p);
            if let Some(cur) = self.pcpus[p].current {
                // BOOST is a wake-up transient: it expires at the first tick
                // that observes the vCPU running (as in Xen's csched_tick).
                let vc = self.vc_mut(cur);
                vc.unboost();
            }
            self.preempt_check(pid, now, ScheduleReason::Accounting, &mut out);
        }
        out
    }

    /// The 30 ms accounting pass: replenish credits in equal per-VM shares,
    /// recompute priorities, run relaxed-co skew balancing if configured,
    /// and preempt where priorities changed.
    pub fn accounting(&mut self, now: SimTime) -> Vec<HvAction> {
        let mut out = self.out_buf();
        // Every VM runs at Xen's default weight, so the pot splits evenly
        // between VMs. Xen distributes a domain's share among its *active*
        // vCPUs: those that want CPU, plus blocked vCPUs still paying off a
        // credit debt (they stay on the active list until their balance
        // recovers, which is what lets them wake back up at UNDER and earn
        // BOOST).
        if !self.vms.is_empty() {
            let pot = CREDITS_PER_ACCT * self.pcpus.len() as i64;
            let share = pot / self.vms.len() as i64;
            for vm_idx in 0..self.vms.len() {
                let base = self.vm_base[vm_idx] as usize;
                let n = self.vms[vm_idx].n_vcpus;
                let active: Vec<usize> = (base..base + n)
                    .filter(|&i| {
                        let v = &self.vcpus[i];
                        v.state().wants_cpu() || v.credits < 0
                    })
                    .collect();
                if active.is_empty() {
                    continue;
                }
                let per_vcpu = share / active.len() as i64;
                for i in active {
                    let v = &mut self.vcpus[i];
                    v.credits = (v.credits + per_vcpu).min(CREDIT_CAP);
                    v.refresh_priority();
                }
            }
        }
        if self.cfg.mode == HvMode::RelaxedCo {
            self.relaxed_co_balance(now, &mut out);
        }
        for p in 0..self.pcpus.len() {
            self.preempt_check(PcpuId(p), now, ScheduleReason::Accounting, &mut out);
        }
        out
    }

    /// If a queued vCPU strictly outranks the runner on `pcpu`, reschedule.
    fn preempt_check(
        &mut self,
        pcpu: PcpuId,
        now: SimTime,
        reason: ScheduleReason,
        out: &mut Vec<HvAction>,
    ) {
        let Some(cur) = self.pcpus[pcpu.0].current else {
            // An idle pCPU with queued work should not exist (enqueue paths
            // dispatch immediately), but be safe.
            if self.pick_local(pcpu).is_some() {
                self.do_schedule(pcpu, now, reason, true, out);
            }
            return;
        };
        let cur_prio = self.vc(cur).priority;
        if let Some(best) = self.pick_local(pcpu) {
            if self.vc(best).priority < cur_prio {
                self.do_schedule(pcpu, now, reason, true, out);
            }
        }
    }

    // ==================================================================
    // external scheduling entry points
    // ==================================================================

    /// The running vCPU on `pcpu` exhausted its slice. `generation` guards
    /// against stale timers: pass the value from [`crate::DispatchInfo`].
    pub fn slice_expired(
        &mut self,
        pcpu: PcpuId,
        generation: u64,
        now: SimTime,
    ) -> Vec<HvAction> {
        let mut out = self.out_buf();
        if self.pcpus[pcpu.0].dispatch_gen != generation {
            return out; // a context switch beat the timer
        }
        self.do_schedule(pcpu, now, ScheduleReason::SliceExpiry, true, &mut out);
        out
    }

    /// Forced maintenance-style preemption of whatever `pcpu` is running,
    /// regardless of slice or priority state — the capacity-degradation
    /// hook of `irs_core::faults`. Routed through the same involuntary
    /// preemption shape as a slice-expiry switch, so an SA-capable victim
    /// gets a normal SA round rather than a silent context switch. No-op
    /// on an idle or SA-frozen pCPU, or when nothing else is runnable
    /// locally (degradation models losing the CPU to a competitor, not
    /// self-preemption churn).
    pub fn force_preempt(&mut self, pcpu: PcpuId, now: SimTime) -> Vec<HvAction> {
        let mut out = self.out_buf();
        if self.pcpus[pcpu.0].sa_wait.is_some() {
            return out;
        }
        let Some(cur) = self.pcpus[pcpu.0].current else {
            return out;
        };
        if self.vc(cur).state() != RunState::Running {
            return out;
        }
        let Some(next) = self.pick_local(pcpu) else {
            return out;
        };
        if self.cfg.mode == HvMode::Sa
            && self.vms[cur.vm.0].sa_capable
            && !self.vc(cur).sa_pending
        {
            self.send_sa(pcpu, cur, now, &mut out);
            return out;
        }
        self.remove_queued(next, pcpu);
        self.stats.preemptions += 1;
        self.stop_current(pcpu, RunState::Runnable, now, &mut out);
        self.dispatch(pcpu, next, now, ScheduleReason::Degrade, &mut out);
        out
    }

    /// Wakes `v` from the blocked state: places it (by load when unpinned),
    /// grants BOOST where eligible, and tickles the target pCPU.
    ///
    /// Waking a non-blocked vCPU is a harmless no-op (spurious wake).
    pub fn vcpu_wake(&mut self, v: VcpuRef, now: SimTime) -> Vec<HvAction> {
        let mut out = self.out_buf();
        if self.vc(v).state() != RunState::Blocked {
            return out;
        }
        self.stats.wakes += 1;

        let target = if self.cfg.mode != HvMode::StrictCo && self.vc(v).affinity.is_none() {
            self.pick_pcpu(v)
        } else {
            self.vc(v).affinity.unwrap_or(self.vc(v).home)
        };
        if target != self.vc(v).home {
            self.stats.vcpu_migrations += 1;
        }

        self.runstate_epoch[v.vm.0] += 1;
        {
            let vc = self.vc_mut(v);
            vc.clock.transition(RunState::Runnable, now);
            // BOOST is rate-limited to one grant per accounting period: a
            // vCPU cycling through fast block/wake churn (e.g. migrator
            // bounces) must not monopolize the pCPU over plain-UNDER
            // siblings (a boost storm).
            let recently_boosted = vc
                .last_boost
                .is_some_and(|t| now.saturating_sub(t) < ACCOUNTING_PERIOD);
            if vc.credits >= 0 && !recently_boosted {
                vc.priority = CreditPriority::Boost;
                vc.last_boost = Some(now);
            } else {
                vc.refresh_priority();
            }
        }
        if self.vc(v).priority == CreditPriority::Boost {
            self.stats.boosts += 1;
        }
        self.enqueue(v, target);
        self.trace.emit(now, || TraceEvent::Wake {
            vm: v.vm.0,
            vcpu: v.idx,
            pcpu: target.0,
        });

        let should_tickle = match self.pcpus[target.0].current {
            None => true,
            Some(cur) => self.vc(v).priority < self.vc(cur).priority,
        };
        if should_tickle {
            self.do_schedule(target, now, ScheduleReason::Wake, true, &mut out);
        }
        out
    }

    /// `HYPERVISOR_sched_op` from the guest running on `v`'s pCPU.
    ///
    /// Doubles as the SA acknowledgement channel (paper Algorithm 1 line
    /// 15): if an SA round is pending on `v`, it is completed first and the
    /// deferred preemption then proceeds under the requested operation.
    pub fn sched_op(&mut self, v: VcpuRef, op: SchedOp, now: SimTime) -> Vec<HvAction> {
        let mut out = self.out_buf();
        let home = self.vc(v).home;
        // The acknowledgement must release the pCPU that is actually frozen
        // on `v` — after a re-home race that may no longer be `v`'s home, so
        // search rather than trust the home index (mirrors `sa_timeout`).
        let frozen = self.pcpus.iter().position(|p| p.sa_wait == Some(v));
        let was_sa = self.vc(v).sa_pending && frozen.is_some();
        if was_sa {
            let p = frozen.unwrap();
            self.vc_mut(v).sa_pending = false;
            self.pcpus[p].sa_wait = None;
            self.stats.sa_acked += 1;
            let op_str = match op {
                SchedOp::Block => "SCHEDOP_block",
                SchedOp::Yield => "SCHEDOP_yield",
            };
            self.trace.emit(now, || TraceEvent::SaAck {
                vm: v.vm.0,
                vcpu: v.idx,
                op: op_str,
            });
            if self.pcpus[p].current != Some(v) {
                // The freeze outlived `v`'s tenure on that pCPU: unfreezing
                // must reschedule it, or it idles frozen forever.
                self.do_schedule(PcpuId(p), now, ScheduleReason::SaAck, false, &mut out);
            }
        }
        if self.pcpus[home.0].current != Some(v) || self.vc(v).state() != RunState::Running {
            return out; // spurious: only the running vCPU can hypercall
        }
        let reason = if was_sa {
            ScheduleReason::SaAck
        } else {
            match op {
                SchedOp::Block => ScheduleReason::Block,
                SchedOp::Yield => ScheduleReason::Yield,
            }
        };
        match op {
            SchedOp::Block => {
                self.stop_current(home, RunState::Blocked, now, &mut out);
            }
            SchedOp::Yield => {
                self.vc_mut(v).yield_bias = true;
                self.stop_current(home, RunState::Runnable, now, &mut out);
            }
        }
        self.do_schedule(home, now, reason, false, &mut out);
        out
    }

    /// A pause-loop VM-exit: the guest on `v` has been spinning beyond the
    /// PLE window. Xen's response is to yield the spinning vCPU.
    ///
    /// No-op unless PLE is configured and `v` is currently running.
    pub fn ple_exit(&mut self, v: VcpuRef, now: SimTime) -> Vec<HvAction> {
        let mut out = self.out_buf();
        if self.cfg.mode != HvMode::Ple {
            return out;
        }
        let home = self.vc(v).home;
        if self.pcpus[home.0].current != Some(v) || self.pcpus[home.0].sa_wait.is_some() {
            return out;
        }
        self.stats.ple_exits += 1;
        self.vc_mut(v).yield_bias = true;
        self.stop_current(home, RunState::Runnable, now, &mut out);
        self.do_schedule(home, now, ScheduleReason::PleExit, false, &mut out);
        out
    }

    // ==================================================================
    // the scheduler core
    // ==================================================================

    /// The central scheduling decision for one pCPU.
    ///
    /// When an involuntary preemption of a runnable vCPU is decided and the
    /// target VM is SA-capable, the preemption is *deferred*: an SA upcall
    /// is delivered instead and the pCPU freezes until [`Hypervisor::sched_op`]
    /// (the acknowledgement) or [`Hypervisor::sa_timeout`] unfreezes it.
    pub(crate) fn do_schedule(
        &mut self,
        pcpu: PcpuId,
        now: SimTime,
        reason: ScheduleReason,
        allow_sa: bool,
        out: &mut Vec<HvAction>,
    ) {
        if self.pcpus[pcpu.0].sa_wait.is_some() {
            return; // frozen awaiting the guest's SA acknowledgement
        }
        self.stats.schedules += 1;

        let cur = self.pcpus[pcpu.0].current;
        let cur_running =
            cur.is_some_and(|c| self.vc(c).state() == RunState::Running);

        if !cur_running {
            // Idle path (or the caller already stopped the previous vCPU).
            let candidate = self
                .pick_local(pcpu)
                .or_else(|| self.steal_for(pcpu));
            if let Some(next) = candidate {
                self.remove_queued(next, pcpu);
                self.dispatch(pcpu, next, now, reason, out);
            }
            return;
        }

        let c = cur.expect("cur_running implies current");
        let cur_prio = self.vc(c).priority;
        let slice_end = self.pcpus[pcpu.0].dispatch_start + self.pcpus[pcpu.0].cur_slice;
        let slice_up = now >= slice_end;

        let best = self.pick_local(pcpu);
        let switch = match best {
            None => false,
            Some(b) => {
                let bp = self.vc(b).priority;
                bp < cur_prio || (slice_up && bp <= cur_prio)
            }
        };

        if !switch {
            if slice_up {
                // Fresh slice for the incumbent; bump the generation so the
                // embedder re-arms the expiry timer.
                let slice = self.effective_slice(pcpu);
                let p = &mut self.pcpus[pcpu.0];
                p.dispatch_start = now;
                p.cur_slice = slice;
                p.dispatch_gen += 1;
                self.dispatch_epoch += 1;
            }
            return;
        }

        // Involuntary preemption of a runnable vCPU — the SA hook point.
        if allow_sa
            && self.cfg.mode == HvMode::Sa
            && self.vms[c.vm.0].sa_capable
            && !self.vc(c).sa_pending
        {
            self.send_sa(pcpu, c, now, out);
            return;
        }

        let next = best.expect("switch implies a candidate");
        self.remove_queued(next, pcpu);
        self.stats.preemptions += 1;
        self.stop_current(pcpu, RunState::Runnable, now, out);
        self.dispatch(pcpu, next, now, reason, out);
    }

    /// Context-switches the current vCPU of `pcpu` out into `to`.
    pub(crate) fn stop_current(
        &mut self,
        pcpu: PcpuId,
        to: RunState,
        now: SimTime,
        out: &mut Vec<HvAction>,
    ) {
        let c = self.pcpus[pcpu.0]
            .current
            .take()
            .expect("stop_current on an idle pCPU");
        debug_assert!(self.pcpus[pcpu.0].sa_wait.is_none());
        // BOOST is a wake-latency transient: it ends no later than the end
        // of the boosted dispatch. Without this, wake/block cycles shorter
        // than a tick sustain BOOST indefinitely (a boost storm) and starve
        // plain-UNDER siblings queued behind them.
        self.vc_mut(c).unboost();
        self.runstate_epoch[c.vm.0] += 1;
        self.vc_mut(c).clock.transition(to, now);
        self.trace.emit(now, || match to {
            RunState::Runnable => TraceEvent::Preempt {
                pcpu: pcpu.0,
                vm: c.vm.0,
                vcpu: c.idx,
            },
            _ => TraceEvent::Block {
                pcpu: pcpu.0,
                vm: c.vm.0,
                vcpu: c.idx,
            },
        });
        if to == RunState::Runnable {
            self.enqueue(c, pcpu);
        }
        self.pcpus[pcpu.0].dispatch_gen += 1;
        self.dispatch_epoch += 1;
        out.push(HvAction::VcpuStopped { vcpu: c, state: to });
    }

    /// Context-switches `next` in on `pcpu`. The caller must already have
    /// removed `next` from whatever runqueue held it.
    pub(crate) fn dispatch(
        &mut self,
        pcpu: PcpuId,
        next: VcpuRef,
        now: SimTime,
        reason: ScheduleReason,
        out: &mut Vec<HvAction>,
    ) {
        debug_assert!(self.pcpus[pcpu.0].current.is_none());
        self.trace.emit(now, || TraceEvent::Schedule {
            pcpu: pcpu.0,
            vm: next.vm.0,
            vcpu: next.idx,
            reason: reason.as_str(),
        });
        self.runstate_epoch[next.vm.0] += 1;
        {
            let vc = self.vc_mut(next);
            debug_assert_eq!(vc.state(), RunState::Runnable);
            vc.home = pcpu;
            vc.clock.transition(RunState::Running, now);
            vc.yield_bias = false;
        }
        let slice = self.effective_slice(pcpu);
        let p = &mut self.pcpus[pcpu.0];
        p.current = Some(next);
        p.dispatch_start = now;
        p.cur_slice = slice;
        p.dispatch_gen += 1;
        self.dispatch_epoch += 1;
        // Yield flags are one-shot (Xen clears CSCHED_FLAG_VCPU_YIELD once
        // the scheduler has acted on it): anyone still queued after this
        // completed decision competes normally next time.
        let queued: Vec<VcpuRef> = self.pcpus[pcpu.0].runq.iter().copied().collect();
        for v in queued {
            self.vc_mut(v).yield_bias = false;
        }
        out.push(HvAction::VcpuStarted { vcpu: next, pcpu });
    }

    /// Effective slice for the next dispatch on `pcpu`: the base slice plus
    /// a deterministic hash-based perturbation in `[-jitter, +jitter)`,
    /// keyed by the dispatch generation so repeated runs stay reproducible.
    fn effective_slice(&self, pcpu: PcpuId) -> SimTime {
        let jitter = self.cfg.slice_jitter.as_nanos();
        if jitter == 0 {
            return self.cfg.time_slice;
        }
        let gen = self.pcpus[pcpu.0].dispatch_gen;
        let mut h = gen
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(pcpu.0 as u64 + 1);
        h ^= h >> 31;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
        let offset = h % (2 * jitter);
        SimTime::from_nanos(
            (self.cfg.time_slice.as_nanos() + offset).saturating_sub(jitter),
        )
    }

    // ==================================================================
    // candidate selection
    // ==================================================================

    /// Best runnable vCPU queued locally on `pcpu`: highest priority first,
    /// non-yielding before yielding, FIFO within a class. Parked vCPUs
    /// (relaxed-co) are invisible.
    pub(crate) fn pick_local(&self, pcpu: PcpuId) -> Option<VcpuRef> {
        let mut best: Option<(CreditPriority, bool, VcpuRef)> = None;
        for &v in &self.pcpus[pcpu.0].runq {
            let vc = self.vc(v);
            if vc.parked {
                continue;
            }
            // Strict co-scheduling: only the gang VM's vCPUs are eligible.
            if self.cfg.mode == HvMode::StrictCo && Some(v.vm) != self.gang_current {
                continue;
            }
            let key = (vc.priority, vc.yield_bias);
            match &best {
                Some((bp, by, _)) if (*bp, *by) <= key => {}
                _ => best = Some((key.0, key.1, v)),
            }
        }
        best.map(|(_, _, v)| v)
    }

    /// Steals the best migratable vCPU queued elsewhere, for a pCPU that
    /// would otherwise idle. Only unpinned vCPUs may move.
    fn steal_for(&mut self, pcpu: PcpuId) -> Option<VcpuRef> {
        // Gang mode owns placement: stealing would smuggle a foreign VM's
        // vCPU into the current gang slot.
        if self.cfg.mode == HvMode::StrictCo {
            return None;
        }
        let mut best: Option<(CreditPriority, bool, u64, VcpuRef)> = None;
        for p in &self.pcpus {
            if p.id == pcpu {
                continue;
            }
            for &v in &p.runq {
                let vc = self.vc(v);
                if vc.parked || vc.affinity.is_some() {
                    continue;
                }
                let key = (vc.priority, vc.yield_bias, vc.queued_at);
                match &best {
                    Some((bp, by, bq, _)) if (*bp, *by, *bq) <= key => {}
                    _ => best = Some((key.0, key.1, key.2, v)),
                }
            }
        }
        let stolen = best.map(|(_, _, _, v)| v);
        if stolen.is_some() {
            self.stats.vcpu_migrations += 1;
        }
        stolen
    }

    /// Removes `v` from the runqueue that holds it and re-homes it to
    /// `target` (identity re-home for local picks).
    fn remove_queued(&mut self, v: VcpuRef, target: PcpuId) {
        let home = self.vc(v).home;
        let removed = self.pcpus[home.0].dequeue(v);
        debug_assert!(removed, "{v} was not queued on its home {home}");
        self.vc_mut(v).home = target;
    }

    /// Wake-time placement for an unpinned vCPU, as Xen's
    /// `_csched_cpu_pick` does it: prefer an **idle** pCPU; with none, stay
    /// home. Queue depths are *not* compared — which is exactly why
    /// stacking persists under full load: once sibling vCPUs share a pCPU
    /// and no pCPU ever idles (CPU hogs everywhere), nothing moves them.
    /// A pCPU looks idle when every vCPU on it is blocked — deceptive
    /// idleness feeding the §5.6 pathology.
    fn pick_pcpu(&self, v: VcpuRef) -> PcpuId {
        let home = self.vc(v).home;
        if self.pcpus[home.0].load() == 0 {
            return home;
        }
        for p in &self.pcpus {
            if p.load() == 0 {
                return p.id;
            }
        }
        home
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XenConfig;
    
    use crate::vm::VmSpec;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Two always-runnable vCPUs pinned to one pCPU round-robin in 30 ms
    /// slices.
    #[test]
    fn slice_expiry_round_robins_equal_priority() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let a = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        let b = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let first = hv.pcpu_current(PcpuId(0)).unwrap();
        let gen = hv.dispatch_info(PcpuId(0)).unwrap().generation;
        let acts = hv.slice_expired(PcpuId(0), gen, t(30));
        hv.check_invariants().unwrap();
        let second = hv.pcpu_current(PcpuId(0)).unwrap();
        assert_ne!(first, second);
        assert_eq!(
            [first.vm, second.vm].iter().collect::<std::collections::HashSet<_>>(),
            [a, b].iter().collect()
        );
        assert!(acts
            .iter()
            .any(|x| matches!(x, HvAction::VcpuStopped { state: RunState::Runnable, .. })));
    }

    #[test]
    fn stale_slice_timer_is_ignored() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let gen = hv.dispatch_info(PcpuId(0)).unwrap().generation;
        hv.slice_expired(PcpuId(0), gen, t(30));
        // The old generation's timer fires late: must be a no-op.
        let current = hv.pcpu_current(PcpuId(0));
        let acts = hv.slice_expired(PcpuId(0), gen, t(31));
        assert!(acts.is_empty());
        assert_eq!(hv.pcpu_current(PcpuId(0)), current);
    }

    #[test]
    fn sole_runner_gets_fresh_slice_without_switch() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let vm = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let info0 = hv.dispatch_info(PcpuId(0)).unwrap();
        let acts = hv.slice_expired(PcpuId(0), info0.generation, t(30));
        assert!(acts.is_empty());
        let info1 = hv.dispatch_info(PcpuId(0)).unwrap();
        assert_eq!(info1.vcpu, VcpuRef::new(vm, 0));
        assert_eq!(info1.since, t(30), "slice baseline refreshed");
        assert_ne!(info1.generation, info0.generation);
    }

    #[test]
    fn force_preempt_swaps_mid_slice() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let first = hv.pcpu_current(PcpuId(0)).unwrap();
        // Mid-slice, equal priority: the regular expiry path refuses...
        let gen = hv.dispatch_info(PcpuId(0)).unwrap().generation;
        hv.slice_expired(PcpuId(0), gen, t(5));
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(first));
        // ...but a forced maintenance preemption must not.
        let acts = hv.force_preempt(PcpuId(0), t(5));
        hv.check_invariants().unwrap();
        assert_ne!(hv.pcpu_current(PcpuId(0)), Some(first));
        assert_eq!(hv.vcpu_state(first), RunState::Runnable);
        assert!(acts
            .iter()
            .any(|x| matches!(x, HvAction::VcpuStopped { state: RunState::Runnable, .. })));
    }

    #[test]
    fn force_preempt_is_noop_without_competition() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let current = hv.pcpu_current(PcpuId(0));
        let acts = hv.force_preempt(PcpuId(0), t(5));
        assert!(acts.is_empty());
        assert_eq!(hv.pcpu_current(PcpuId(0)), current);
    }

    #[test]
    fn force_preempt_opens_an_sa_round_for_capable_vms() {
        let cfg = XenConfig {
            mode: HvMode::Sa,
            ..XenConfig::default()
        };
        let mut hv = Hypervisor::new(cfg, 1);
        let a = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)).sa_capable(true));
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let va = VcpuRef::new(a, 0);
        if hv.pcpu_current(PcpuId(0)) != Some(va) {
            // Rotate until the SA-capable vCPU holds the pCPU.
            hv.force_preempt(PcpuId(0), t(1));
        }
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(va));
        let acts = hv.force_preempt(PcpuId(0), t(5));
        hv.check_invariants().unwrap();
        // The victim is not silently switched out: it gets an SA round and
        // the pCPU freezes awaiting the acknowledgement.
        assert!(hv.is_sa_pending(va));
        assert_eq!(hv.pcpu_sa_wait(PcpuId(0)), Some(va));
        assert!(acts.iter().any(|x| matches!(x, HvAction::SaUpcall { .. })));
        // While frozen, further degradation hits are no-ops.
        assert!(hv.force_preempt(PcpuId(0), t(6)).is_empty());
    }

    #[test]
    fn block_then_wake_boosts_and_preempts() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let a = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        let b = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let va = VcpuRef::new(a, 0);
        let vb = VcpuRef::new(b, 0);
        let (first, second) = if hv.pcpu_current(PcpuId(0)) == Some(va) {
            (va, vb)
        } else {
            (vb, va)
        };
        // First blocks; second runs.
        hv.sched_op(first, SchedOp::Block, t(5));
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(second));
        assert_eq!(hv.vcpu_state(first), RunState::Blocked);
        // First wakes: BOOST preempts the incumbent immediately.
        let acts = hv.vcpu_wake(first, t(10));
        hv.check_invariants().unwrap();
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(first));
        assert!(acts
            .iter()
            .any(|x| matches!(x, HvAction::VcpuStarted { .. })));
        assert_eq!(hv.stats().boosts, 1);
        assert_eq!(hv.vcpu_state(second), RunState::Runnable);
    }

    #[test]
    fn boost_expires_at_tick() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let a = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let va = VcpuRef::new(a, 0);
        if hv.pcpu_current(PcpuId(0)) != Some(va) {
            // make va the runner for determinism
            let gen = hv.dispatch_info(PcpuId(0)).unwrap().generation;
            hv.slice_expired(PcpuId(0), gen, t(0));
        }
        hv.sched_op(va, SchedOp::Block, t(5));
        hv.vcpu_wake(va, t(10));
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(va));
        hv.tick(t(20));
        // After the tick the woken vCPU must no longer be BOOST.
        assert_ne!(hv.vc(va).priority, CreditPriority::Boost);
    }

    #[test]
    fn yield_moves_to_tail_but_sole_vcpu_continues() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let a = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let va = VcpuRef::new(a, 0);
        let acts = hv.sched_op(va, SchedOp::Yield, t(1));
        hv.check_invariants().unwrap();
        // Alone on the pCPU: yields but is redispatched immediately.
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(va));
        assert!(acts.iter().any(|x| matches!(x, HvAction::VcpuStarted { .. })));
    }

    #[test]
    fn yield_prefers_the_other_vcpu() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let first = hv.pcpu_current(PcpuId(0)).unwrap();
        hv.sched_op(first, SchedOp::Yield, t(1));
        assert_ne!(hv.pcpu_current(PcpuId(0)), Some(first));
    }

    #[test]
    fn accounting_converges_to_fair_share() {
        // One pCPU, two hog vCPUs: over many periods each should run ~50%.
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let a = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        let b = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let mut now = SimTime::ZERO;
        for step in 1..=300u64 {
            now = t(step * 10);
            hv.tick(now);
            if step % 3 == 0 {
                hv.accounting(now);
            }
            if let Some(info) = hv.dispatch_info(PcpuId(0)) {
                if now >= info.since + hv.config().time_slice {
                    hv.slice_expired(PcpuId(0), info.generation, now);
                }
            }
            hv.check_invariants().unwrap();
        }
        let ra = hv.vm_cpu_time(a, now).as_secs_f64() * 1e3;
        let rb = hv.vm_cpu_time(b, now).as_secs_f64() * 1e3;
        let total = ra + rb;
        assert!(total > 2900.0, "pCPU must stay busy, got {total}");
        let share = ra / total;
        assert!((0.4..=0.6).contains(&share), "share was {share}");
    }

    /// Two pCPUs and one unpinned VM whose vCPUs `salt` homes as `homes`.
    fn hashed(salt: u64, homes: &[usize]) -> (Hypervisor, crate::ids::VmId) {
        let cfg = XenConfig {
            placement_salt: salt,
            ..XenConfig::default()
        };
        let mut hv = Hypervisor::new(cfg, 2);
        let a = hv.create_vm(VmSpec::new(homes.len()));
        let got: Vec<usize> = (0..homes.len())
            .map(|i| hv.vc(VcpuRef::new(a, i)).home.0)
            .collect();
        assert_eq!(got, homes, "salt {salt} homes");
        (hv, a)
    }

    #[test]
    fn idle_pcpu_steals_unpinned_work() {
        let (mut hv, a) = hashed(6, &[0, 1]);
        hv.start(t(0));
        // Force both onto pcpu0's queue by blocking v1 and waking it while
        // pcpu0 is empty... simpler: both run already (one per pcpu). Block
        // the one on pcpu1, wake it when pcpu1 is also free: placement keeps
        // it on the emptier pcpu.
        let v1 = VcpuRef::new(a, 1);
        hv.sched_op(v1, SchedOp::Block, t(1));
        assert!(hv.pcpu_current(PcpuId(1)).is_none());
        let acts = hv.vcpu_wake(v1, t(2));
        // pcpu1 was idle and is the least loaded: v1 returns there.
        assert_eq!(hv.pcpu_current(PcpuId(1)), Some(v1));
        assert!(!acts.is_empty());
        hv.check_invariants().unwrap();
    }

    #[test]
    fn steal_fills_idle_pcpu() {
        let (mut hv, a) = hashed(38, &[0, 1, 1, 0]);
        hv.start(t(0));
        // pcpu0 runs a.v0 with a.v3 queued; pcpu1 runs a.v1 with a.v2 queued.
        // Block both vCPUs on pcpu1; the idle pcpu1 must steal a.v3 from
        // pcpu0's queue.
        hv.sched_op(VcpuRef::new(a, 1), SchedOp::Block, t(1));
        hv.check_invariants().unwrap();
        let cur = hv.pcpu_current(PcpuId(1));
        assert_eq!(cur, Some(VcpuRef::new(a, 2)));
        hv.sched_op(VcpuRef::new(a, 2), SchedOp::Block, t(2));
        let cur2 = hv.pcpu_current(PcpuId(1)).unwrap();
        assert_eq!(cur2, VcpuRef::new(a, 3));
        assert_eq!(hv.vc(cur2).home, PcpuId(1), "stolen vCPU re-homed");
        hv.check_invariants().unwrap();
        assert!(hv.stats().vcpu_migrations >= 1);
    }

    #[test]
    fn pinned_vcpus_are_never_stolen() {
        let mut hv = Hypervisor::new(XenConfig::default(), 2);
        let a = hv.create_vm(VmSpec::new(2).pin(vec![PcpuId(0), PcpuId(0)]));
        hv.start(t(0));
        // pcpu1 idles; a.v1 is queued on pcpu0 but pinned there.
        assert!(hv.pcpu_current(PcpuId(1)).is_none());
        assert_eq!(hv.vc(VcpuRef::new(a, 1)).home, PcpuId(0));
        hv.check_invariants().unwrap();
    }

    #[test]
    fn spurious_wake_and_foreign_schedop_are_noops() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let a = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        let b = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let running = hv.pcpu_current(PcpuId(0)).unwrap();
        let waiting = if running == VcpuRef::new(a, 0) {
            VcpuRef::new(b, 0)
        } else {
            VcpuRef::new(a, 0)
        };
        // Waking a runnable vCPU: no-op.
        assert!(hv.vcpu_wake(waiting, t(1)).is_empty());
        // A queued (non-running) vCPU cannot hypercall.
        assert!(hv.sched_op(waiting, SchedOp::Block, t(1)).is_empty());
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(running));
        hv.check_invariants().unwrap();
    }

    #[test]
    fn ple_exit_yields_the_spinner() {
        let cfg = XenConfig {
            mode: HvMode::Ple,
            ..XenConfig::default()
        };
        let mut hv = Hypervisor::new(cfg, 1);
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let spinner = hv.pcpu_current(PcpuId(0)).unwrap();
        hv.ple_exit(spinner, t(1));
        assert_ne!(hv.pcpu_current(PcpuId(0)), Some(spinner));
        assert_eq!(hv.stats().ple_exits, 1);
        hv.check_invariants().unwrap();
    }

    #[test]
    fn ple_disabled_ignores_exits() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let spinner = hv.pcpu_current(PcpuId(0)).unwrap();
        assert!(hv.ple_exit(spinner, t(1)).is_empty());
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(spinner));
    }

    #[test]
    fn tick_burns_credits_of_runner_only() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let a = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        let b = hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let runner = hv.pcpu_current(PcpuId(0)).unwrap();
        let waiter = if runner == VcpuRef::new(a, 0) {
            VcpuRef::new(b, 0)
        } else {
            VcpuRef::new(a, 0)
        };
        let before_r = hv.vc(runner).credits;
        let before_w = hv.vc(waiter).credits;
        hv.tick(t(10));
        assert_eq!(hv.vc(runner).credits, before_r - CREDITS_PER_TICK);
        assert_eq!(hv.vc(waiter).credits, before_w);
    }

    #[test]
    fn runstate_accounting_tracks_steal_time() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.create_vm(VmSpec::new(1).pin_all(PcpuId(0)));
        hv.start(t(0));
        let runner = hv.pcpu_current(PcpuId(0)).unwrap();
        let gen = hv.dispatch_info(PcpuId(0)).unwrap().generation;
        hv.slice_expired(PcpuId(0), gen, t(30));
        // The first runner has now been preempted for 30..60 ms.
        let info = hv.vc(runner).clock.info(t(60));
        assert_eq!(info.running, t(30));
        assert_eq!(info.runnable, t(30));
    }
}
