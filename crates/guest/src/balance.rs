//! Guest load balancing: wake-up placement, periodic (push) balancing, idle
//! (pull) balancing, and the stopper thread.
//!
//! These are the mechanisms §2.3 dissects. Two structural limits — kept
//! deliberately — explain why the vanilla guest cannot mitigate LHP/LWP:
//!
//! 1. **Only `Ready` tasks move.** A task that is current on a vCPU is
//!    `Running` to the guest even when the hypervisor preempted that vCPU,
//!    so pull migration skips exactly the lock holder that matters.
//! 2. **Hypervisor imbalance is invisible.** The balancers act on guest
//!    runqueue lengths (scaled by the steal clock where available); a
//!    preempted vCPU with one pinned task looks perfectly balanced.
//!
//! The wake-up path additionally carries IRS's Fig 4 modification: when the
//! task occupying the waker's previous vCPU is tagged `preempt_migrated`,
//! the waker preempts it in place rather than migrating away, preventing
//! pingpong migration.

use crate::actions::{GuestAction, VcpuView};
use crate::config::{SCHED_LATENCY, WAKEUP_GRANULARITY};
use crate::guest::{GuestOs, StopRequest};
use crate::task::{TaskId, TaskState};
use irs_xen::RunState;

impl GuestOs {
    // ==================================================================
    // wake-up placement
    // ==================================================================

    /// Wakes a blocked task: chooses a vCPU, enqueues, and applies wakeup
    /// preemption. Returns the actions for the embedder (including
    /// `WakeVcpu` when the chosen vCPU is idle in the hypervisor).
    ///
    /// Waking a task that is not blocked is a no-op (spurious wake).
    pub fn wake(&mut self, task: TaskId, views: &[VcpuView]) -> Vec<GuestAction> {
        let mut out = self.out_buf();
        if self.tasks[task.0].state != TaskState::Blocked {
            return out;
        }
        self.stats.wakeups += 1;
        let prev = self.tasks[task.0].cpu;

        // --- target selection -----------------------------------------
        let mut preempt_tagged = false;
        let target = if self.rqs[prev].current.is_none() {
            // Previous vCPU is free: wake in place.
            prev
        } else if self.pingpong_tagging_enabled()
            && self.rqs[prev]
                .current
                .is_some_and(|c| self.tasks[c.0].preempt_migrated)
        {
            // Fig 4: the occupant was migrated here off a preempted vCPU;
            // wake in place and preempt it instead of migrating away.
            preempt_tagged = true;
            prev
        } else if let Some(idle) = self.find_guest_idle_vcpu() {
            // select_idle_sibling: an idle vCPU runs the waker immediately.
            // (A *hypervisor-preempted* vCPU never looks idle here — its
            // stranded current task still occupies it — so this choice can
            // still be a bad one when the idle vCPU's pCPU is contended;
            // the guest cannot tell. That is the semantic gap.)
            idle
        } else {
            // Everyone is busy: least loaded by the steal-scaled rt_avg.
            self.least_loaded_vcpu(prev, views)
        };

        // --- enqueue with sleeper credit --------------------------------
        // Cross-queue wakes re-base the vruntime into the target queue's
        // clock first (CFS `migrate_task_rq_fair` does this for every
        // cross-rq move) — queue clocks diverge arbitrarily, and carrying
        // absolute vruntimes across them inflates without bound.
        let base_vr = if target != prev {
            self.rqs[target]
                .migration_vruntime(self.tasks[task.0].vruntime, self.rqs[prev].min_vruntime)
        } else {
            self.tasks[task.0].vruntime
        };
        let sleeper_bonus = SCHED_LATENCY.as_nanos() / 2;
        let floor = self.rqs[target].min_vruntime.saturating_sub(sleeper_bonus);
        let vr = base_vr.max(floor);
        self.tasks[task.0].vruntime = vr;
        self.tasks[task.0].state = TaskState::Ready;
        if target != prev {
            self.stats.wake_migrations += 1;
            self.move_task(task, target, &mut out);
        }
        self.rqs[target].enqueue(vr, task);

        // --- run / preempt ----------------------------------------------
        match self.rqs[target].current {
            None => {
                if views[target].state == RunState::Running {
                    // The vCPU is executing its idle loop right now: it
                    // picks the waker immediately.
                    self.pick_and_run(target, &mut out);
                } else {
                    // Idle in the hypervisor: ask for a (BOOSTed) wake; the
                    // embedder calls `ensure_current` when it starts.
                    out.push(GuestAction::WakeVcpu { vcpu: target });
                }
            }
            Some(cur) => {
                let should_preempt = if preempt_tagged {
                    self.stats.pingpong_preempts += 1;
                    true
                } else {
                    let gran = WAKEUP_GRANULARITY.as_nanos();
                    self.tasks[cur.0].vruntime > vr.saturating_add(gran)
                };
                // An in-place switch needs the vCPU to actually execute; on
                // a preempted vCPU the switch happens when it resumes (the
                // tick path picks it up).
                if should_preempt && views[target].state == RunState::Running {
                    self.deschedule_current(target, TaskState::Ready, &mut out);
                    self.run_specific(target, task, &mut out);
                }
            }
        }
        out
    }

    fn pingpong_tagging_enabled(&self) -> bool {
        self.sa.as_ref().is_some_and(|sa| sa.pingpong_tagging)
    }

    /// First guest-idle vCPU (no current, empty queue), if any.
    pub(crate) fn find_guest_idle_vcpu(&self) -> Option<usize> {
        (0..self.rqs.len()).find(|&v| self.rqs[v].is_idle())
    }

    /// The vCPU with the smallest steal-scaled load, preferring `prev`.
    #[allow(clippy::needless_range_loop)] // v indexes rqs *and* views
    fn least_loaded_vcpu(&self, prev: usize, views: &[VcpuView]) -> usize {
        let mut best = prev;
        let mut best_load = self.rt_avg(prev, &views[prev]);
        for v in 0..self.rqs.len() {
            let load = self.rt_avg(v, &views[v]);
            if load + 1e-9 < best_load {
                best = v;
                best_load = load;
            }
        }
        best
    }

    // ==================================================================
    // periodic (push) and idle (pull) balancing
    // ==================================================================

    /// Periodic balance toward `vcpu`: if the busiest runqueue's
    /// steal-scaled load exceeds this one's by more than one task, pull one
    /// *queued* task over. Clears the Fig 4 tag — this is the "existing
    /// Linux balancer moves the tagged task back" path.
    pub(crate) fn periodic_balance(
        &mut self,
        vcpu: usize,
        views: &[VcpuView],
        out: &mut Vec<GuestAction>,
    ) {
        let my_load = self.rt_avg(vcpu, &views[vcpu]);
        let Some((busiest_load, from)) = self.busiest_queue(vcpu, views) else {
            return;
        };
        // Pull only when the gap exceeds one *scaled* task-load on the
        // source: with every vCPU suffering similar steal, {2,1} queues are
        // balanced, and pulling would only bounce the task between queues
        // (resetting its preemption race each hop — a starvation recipe).
        if busiest_load <= my_load + (1.0 + views[from].steal_frac) {
            return;
        }
        // Steal the coldest queued task (largest vruntime): least likely to
        // be cache-hot on its current vCPU.
        let Some((_, victim)) = self.rqs[from].iter().last() else {
            return;
        };
        self.tasks[victim.0].preempt_migrated = false;
        self.migrate_queued(victim, vcpu, out);
        self.stats.push_migrations += 1;
        if self.rqs[vcpu].current.is_none() {
            self.pick_and_run(vcpu, out);
        }
    }

    /// Idle balance: a vCPU about to idle pulls one queued task from the
    /// busiest runqueue. **Running tasks are never pulled**, even if their
    /// vCPU is hypervisor-preempted — the semantic gap, verbatim.
    pub(crate) fn idle_pull(
        &mut self,
        vcpu: usize,
        views: &[VcpuView],
        out: &mut Vec<GuestAction>,
    ) {
        let Some((_, from)) = self.busiest_queue(vcpu, views) else {
            return;
        };
        let Some((_, victim)) = self.rqs[from].iter().last() else {
            return;
        };
        self.tasks[victim.0].preempt_migrated = false;
        self.migrate_queued(victim, vcpu, out);
        self.stats.pull_migrations += 1;
    }

    /// The steal-scaled load and index of the busiest runqueue other than
    /// `vcpu`'s that has a task queued. The first maximum wins a tie.
    #[allow(clippy::needless_range_loop)] // v indexes rqs *and* views
    fn busiest_queue(&self, vcpu: usize, views: &[VcpuView]) -> Option<(f64, usize)> {
        let mut busiest: Option<(f64, usize)> = None;
        for v in 0..self.rqs.len() {
            if v == vcpu || self.rqs[v].nr_queued() == 0 {
                continue;
            }
            let load = self.rt_avg(v, &views[v]);
            if busiest.is_none_or(|(bl, _)| load > bl) {
                busiest = Some((load, v));
            }
        }
        busiest
    }

    // ==================================================================
    // the stopper thread (vanilla running-task migration)
    // ==================================================================

    /// Requests migration of `task` to vCPU `dest` through the vanilla
    /// kernel path (`migration_cpu_stop` semantics):
    ///
    /// * a **queued** task moves immediately;
    /// * a **running** task needs the stopper to run **on its source
    ///   vCPU**, so the request parks until that vCPU's next tick — which
    ///   only fires when the vCPU actually executes. This is the mechanism
    ///   measured by Fig 1(b): each co-located VM adds one hypervisor
    ///   scheduling delay (~30 ms) before the source vCPU runs again.
    ///
    /// Returns actions for an immediate (queued-task) migration; `None`-like
    /// empty actions mean the stopper was parked.
    pub fn request_stop_migration(&mut self, task: TaskId, dest: usize) -> Vec<GuestAction> {
        let mut out = self.out_buf();
        match self.tasks[task.0].state {
            TaskState::Ready => {
                if self.tasks[task.0].in_custody {
                    // In IRS custody; the migrator will place it.
                    return out;
                }
                self.migrate_queued(task, dest, &mut out);
                self.stats.stopper_migrations += 1;
            }
            TaskState::Running => {
                self.stopper_pending.push(StopRequest { task, dest });
            }
            TaskState::Blocked | TaskState::Exited => {
                // Nothing to do: a blocked task migrates at wake-up.
            }
        }
        out
    }

    /// Executes pending stopper work whose source vCPU is `vcpu` (called
    /// from the tick, i.e. only while the vCPU truly runs).
    pub(crate) fn run_stopper(&mut self, vcpu: usize, out: &mut Vec<GuestAction>) {
        let mut i = 0;
        while i < self.stopper_pending.len() {
            let req = self.stopper_pending[i];
            let on_this_vcpu = self.tasks[req.task.0].cpu == vcpu;
            if !on_this_vcpu {
                i += 1;
                continue;
            }
            self.stopper_pending.remove(i);
            match self.tasks[req.task.0].state {
                TaskState::Running => {
                    // Deschedule on the source and move.
                    debug_assert_eq!(self.rqs[vcpu].current, Some(req.task));
                    self.deschedule_current(vcpu, TaskState::Ready, out);
                    self.migrate_queued(req.task, req.dest, out);
                    self.stats.stopper_migrations += 1;
                    if self.rqs[vcpu].leftmost().is_some() {
                        self.pick_and_run(vcpu, out);
                    }
                    if self.rqs[req.dest].current.is_none() {
                        self.pick_and_run(req.dest, out);
                        // If the destination vCPU is idle in the hypervisor
                        // the embedder must wake it.
                        out.push(GuestAction::WakeVcpu { vcpu: req.dest });
                    }
                }
                TaskState::Ready
                    // A task can land in IRS-migrator custody (Ready but
                    // unqueued) between the stop request and this tick; the
                    // migrator owns its placement then.
                    if !self.tasks[req.task.0].in_custody => {
                        self.migrate_queued(req.task, req.dest, out);
                        self.stats.stopper_migrations += 1;
                    }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GuestSaConfig;

    fn all_running(n: usize) -> Vec<VcpuView> {
        vec![VcpuView::running(); n]
    }

    #[test]
    fn wake_in_place_when_prev_vcpu_is_free() {
        let mut g = GuestOs::new(None, 2);
        let a = g.spawn(0);
        g.spawn(1);
        g.start();
        g.block_current(0, &all_running(2));
        let acts = g.wake(a, &all_running(2));
        g.check_invariants().unwrap();
        assert_eq!(g.task(a).cpu, 0);
        assert_eq!(g.current(0), Some(a), "idle-loop vCPU picks immediately");
        assert!(!acts
            .iter()
            .any(|x| matches!(x, GuestAction::TaskMigrated { .. })));
    }

    #[test]
    fn wake_emits_wake_vcpu_when_target_is_hv_blocked() {
        let mut g = GuestOs::new(None, 2);
        let a = g.spawn(0);
        g.spawn(1);
        g.start();
        g.block_current(0, &all_running(2));
        let views = vec![VcpuView::blocked(), VcpuView::running()];
        let acts = g.wake(a, &views);
        g.check_invariants().unwrap();
        assert_eq!(g.current(0), None, "switch deferred until the vCPU wakes");
        assert!(acts
            .iter()
            .any(|x| matches!(x, GuestAction::WakeVcpu { vcpu: 0 })));
        // The embedder then starts the vCPU and installs the task:
        let acts2 = g.ensure_current(0);
        assert_eq!(g.current(0), Some(a));
        assert!(acts2
            .iter()
            .any(|x| matches!(x, GuestAction::RunTask { .. })));
    }

    #[test]
    fn wake_moves_to_idle_sibling_when_prev_is_busy() {
        let mut g = GuestOs::new(None, 2);
        let a = g.spawn(0);
        g.spawn(0); // keeps vCPU0 busy after a blocks
        g.start();
        g.block_current(0, &all_running(2)); // a blocks; b runs on v0
        let acts = g.wake(a, &all_running(2));
        g.check_invariants().unwrap();
        assert_eq!(g.task(a).cpu, 1, "woken on the idle sibling");
        assert_eq!(g.current(1), Some(a));
        assert!(acts
            .iter()
            .any(|x| matches!(x, GuestAction::TaskMigrated { from: 0, to: 1, .. })));
        assert_eq!(g.stats().wake_migrations, 1);
    }

    #[test]
    fn pingpong_fix_wakes_in_place_and_preempts_tagged_task() {
        let mut g = GuestOs::new(Some(GuestSaConfig::default()), 2);
        let t1 = g.spawn(0); // will play the migrated lock holder
        let t2 = g.spawn(1); // the waiter whose vCPU t1 invades
        g.start();
        // t2 blocks on vCPU1; t1 gets "migrated" there and tagged (as the
        // IRS migrator would after vCPU0's preemption).
        g.block_current(1, &all_running(2));
        let mut out = Vec::new();
        g.deschedule_current(0, TaskState::Ready, &mut out);
        g.migrate_queued(t1, 1, &mut out);
        g.tasks[t1.0].preempt_migrated = true;
        g.pick_and_run(1, &mut out);
        assert_eq!(g.current(1), Some(t1));
        // t2 wakes: vanilla would migrate it away (vCPU1 busy); the Fig 4
        // fix wakes it in place and preempts the tagged t1.
        let acts = g.wake(t2, &all_running(2));
        g.check_invariants().unwrap();
        assert_eq!(g.task(t2).cpu, 1, "woken on its own vCPU");
        assert_eq!(g.current(1), Some(t2), "waker preempted the intruder");
        assert_eq!(g.task(t1).state, TaskState::Ready);
        assert_eq!(g.stats().pingpong_preempts, 1);
        assert!(!acts
            .iter()
            .any(|x| matches!(x, GuestAction::TaskMigrated { task, .. } if *task == t2)));
    }

    #[test]
    fn vanilla_guest_never_pingpong_preempts() {
        let mut g = GuestOs::new(None, 2);
        let t1 = g.spawn(0);
        let t2 = g.spawn(1);
        g.start();
        g.block_current(1, &all_running(2));
        let mut out = Vec::new();
        g.deschedule_current(0, TaskState::Ready, &mut out);
        g.migrate_queued(t1, 1, &mut out);
        g.tasks[t1.0].preempt_migrated = true; // tag exists but tagging is off
        g.pick_and_run(1, &mut out);
        g.wake(t2, &all_running(2));
        g.check_invariants().unwrap();
        assert_eq!(g.stats().pingpong_preempts, 0);
        // t2 migrated away to the now-idle vCPU0 — the pingpong the paper
        // diagnoses.
        assert_eq!(g.task(t2).cpu, 0);
    }

    #[test]
    fn periodic_balance_pulls_from_busiest() {
        let mut g = GuestOs::new(None, 2);
        g.spawn(0);
        g.spawn(0);
        g.spawn(0); // v0: 3 tasks
        g.spawn(1); // v1: 1 task
        g.start();
        let mut out = Vec::new();
        g.periodic_balance(1, &all_running(2), &mut out);
        g.check_invariants().unwrap();
        assert_eq!(g.stats().push_migrations, 1);
        assert_eq!(g.rq(1).nr_running(), 2);
        assert_eq!(g.rq(0).nr_running(), 2);
    }

    #[test]
    fn periodic_balance_respects_balance() {
        let mut g = GuestOs::new(None, 2);
        g.spawn(0);
        g.spawn(0);
        g.spawn(1);
        g.start();
        let mut out = Vec::new();
        g.periodic_balance(1, &all_running(2), &mut out);
        assert_eq!(g.stats().push_migrations, 0, "2 vs 1 is balanced enough");
    }

    #[test]
    fn steal_awareness_biases_balance() {
        // v0 has 2 tasks but 100% steal: its scaled load (4.0) exceeds
        // v1's (1.0) enough to justify pulling even though raw counts are
        // 2 vs 1.
        let mut g = GuestOs::new(None, 2);
        g.spawn(0);
        g.spawn(0);
        g.spawn(1);
        g.start();
        let views = vec![VcpuView::preempted(1.0), VcpuView::running()];
        let mut out = Vec::new();
        g.periodic_balance(1, &views, &mut out);
        assert_eq!(g.stats().push_migrations, 1);
    }

    #[test]
    fn pull_never_takes_a_running_task() {
        // v0 runs one task (its current); v1 goes idle. Nothing is queued
        // anywhere, so idle pull must find nothing — even though v0 might be
        // hypervisor-preempted with its "running" task stranded.
        let mut g = GuestOs::new(None, 2);
        let a = g.spawn(0);
        let b = g.spawn(1);
        g.start();
        let views = vec![VcpuView::preempted(0.9), VcpuView::running()];
        let acts = g.block_current(1, &views);
        g.check_invariants().unwrap();
        assert_eq!(g.task(a).cpu, 0, "running task may not be pulled");
        assert_eq!(g.current(0), Some(a));
        assert!(acts.iter().any(|x| matches!(
            x,
            GuestAction::Hypercall {
                vcpu: 1,
                op: irs_xen::SchedOp::Block
            }
        )));
        let _ = b;
    }

    #[test]
    fn idle_pull_takes_a_queued_task() {
        let mut g = GuestOs::new(None, 2);
        g.spawn(0);
        let queued = g.spawn(0);
        let b = g.spawn(1);
        g.start();
        let acts = g.block_current(1, &all_running(2));
        g.check_invariants().unwrap();
        assert_eq!(g.task(queued).cpu, 1, "queued task pulled to idle vCPU");
        assert_eq!(g.current(1), Some(queued));
        assert_eq!(g.stats().pull_migrations, 1);
        assert!(!acts
            .iter()
            .any(|x| matches!(x, GuestAction::Hypercall { .. })));
        let _ = b;
    }

    #[test]
    fn stopper_migrates_queued_task_immediately() {
        let mut g = GuestOs::new(None, 2);
        g.spawn(0);
        let queued = g.spawn(0);
        g.start();
        let acts = g.request_stop_migration(queued, 1);
        g.check_invariants().unwrap();
        assert_eq!(g.task(queued).cpu, 1);
        assert!(acts
            .iter()
            .any(|x| matches!(x, GuestAction::TaskMigrated { .. })));
    }

    #[test]
    fn stopper_waits_for_the_source_vcpu_to_run() {
        let mut g = GuestOs::new(None, 2);
        let running = g.spawn(0);
        g.start();
        let acts = g.request_stop_migration(running, 1);
        assert!(acts.is_empty(), "running task: stopper parked");
        assert_eq!(g.task(running).cpu, 0);
        // The migration completes at the source vCPU's next (real) tick.
        let out = g.tick(0, &all_running(2));
        g.check_invariants().unwrap();
        assert_eq!(g.task(running).cpu, 1);
        assert_eq!(g.current(1), Some(running));
        assert_eq!(g.stats().stopper_migrations, 1);
        assert!(out
            .iter()
            .any(|x| matches!(x, GuestAction::WakeVcpu { vcpu: 1 })));
    }

    #[test]
    fn stopper_ignores_blocked_tasks() {
        let mut g = GuestOs::new(None, 2);
        let a = g.spawn(0);
        g.start();
        g.block_current(0, &all_running(2));
        let acts = g.request_stop_migration(a, 1);
        assert!(acts.is_empty());
        assert_eq!(g.task(a).cpu, 0, "blocked tasks migrate at wake-up");
    }
}
