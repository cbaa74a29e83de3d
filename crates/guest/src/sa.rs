//! The guest half of IRS: SA receiver, context switcher, migrator.
//!
//! Paper §3.2–§3.3 and §4.2, condensed:
//!
//! * The **SA receiver** is the `VIRQ_SA_UPCALL` interrupt handler. It must
//!   be small, so it delegates to the context switcher, implemented as the
//!   bottom half of the vIRQ (a softirq at lower priority than the timer
//!   softirq). The embedder models the pair as one event, [`GuestOs::sa_upcall`],
//!   fired after the receiver delay; the tick is a separate event.
//! * The **context switcher** deschedules the current task on the preemptee
//!   vCPU, marks it migrating, picks the next task, and answers the
//!   hypervisor: `SCHEDOP_block` when the runqueue drained (the idle task
//!   was installed), `SCHEDOP_yield` otherwise — so the vCPU lands in the
//!   hypervisor state that preserves Xen's scheduling policy.
//! * The **migrator** is a system-wide kernel thread woken asynchronously.
//!   Unlike `migration_cpu_stop`, it need not run on the source vCPU; it
//!   probes actual vCPU runstates via `VCPUOP_get_runstate` and moves the
//!   descheduled task to an **idle** sibling if one exists, else to the
//!   sibling with the least `rt_avg` among those actually **running**
//!   (Algorithm 2). Preempted (runnable) siblings are never targets.

use crate::actions::{GuestAction, VcpuView};
use crate::guest::GuestOs;
use crate::task::TaskState;
use irs_xen::{RunState, SchedOp};

/// Result of handling one SA upcall: the acknowledgement operation to send
/// via `HYPERVISOR_sched_op`, plus the usual actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaOutcome {
    /// `SCHEDOP_block` if the vCPU is now idle, `SCHEDOP_yield` otherwise.
    pub op: SchedOp,
    /// Context-switch notifications and the migrator wake-up.
    pub actions: Vec<GuestAction>,
}

impl GuestOs {
    /// Handles a `VIRQ_SA_UPCALL` on `vcpu`: receiver + context switcher.
    ///
    /// The embedding simulation calls this after modelling the
    /// receiver/softirq delay ([`crate::GuestSaConfig::round_delay`]) and
    /// then forwards [`SaOutcome::op`] to the hypervisor as the
    /// acknowledgement.
    ///
    /// A vanilla guest (built without a [`crate::GuestSaConfig`]) has no handler
    /// registered; callers should not route the vIRQ here in that case, but
    /// doing so acknowledges with a plain yield and moves nothing —
    /// mirroring footnote 1 of the paper (the background VM "ignores the SA
    /// notification").
    pub fn sa_upcall(&mut self, vcpu: usize) -> SaOutcome {
        let mut actions = self.out_buf();
        if self.sa.is_none() {
            return SaOutcome {
                op: SchedOp::Yield,
                actions,
            };
        }
        self.stats.sa_upcalls += 1;

        let Some(cur) = self.rqs[vcpu].current else {
            // The vCPU was in (or entering) its idle loop: nothing to
            // migrate; tell the hypervisor to block or yield by queue state.
            let op = if self.rqs[vcpu].leftmost().is_none() {
                SchedOp::Block
            } else {
                SchedOp::Yield
            };
            return SaOutcome { op, actions };
        };

        // Context switcher: deschedule the current task and hand it to the
        // migrator (it is Ready but *not* enqueued — migrator custody).
        self.stop_current(vcpu, TaskState::Ready, &mut actions);
        self.tasks[cur.0].in_custody = true;
        self.migrator_pending.push_back(cur);
        actions.push(GuestAction::WakeMigrator);

        // Pick the next task so the vCPU reflects its true load when the
        // hypervisor re-examines it.
        let op = if self.rqs[vcpu].leftmost().is_some() {
            self.pick_and_run(vcpu, &mut actions);
            SchedOp::Yield
        } else {
            self.stats.idle_blocks += 1;
            SchedOp::Block
        };
        SaOutcome { op, actions }
    }

    /// Runs the migrator thread (Algorithm 2) over every task in custody.
    ///
    /// `views[v]` must reflect vCPU `v`'s actual hypervisor runstate and
    /// recent steal fraction at the time of the call.
    pub fn migrator_run(&mut self, views: &[VcpuView]) -> Vec<GuestAction> {
        let mut out = self.out_buf();
        while let Some(task) = self.migrator_pending.pop_front() {
            if !self.tasks[task.0].in_custody || self.tasks[task.0].state != TaskState::Ready {
                continue; // re-blocked, re-woken, or exited in the meantime
            }
            self.tasks[task.0].in_custody = false;
            let source = self.tasks[task.0].cpu;
            let target = self.pick_migration_target(source, views);
            match target {
                Some(dest) if dest != source => {
                    let was_idle = self.rqs[dest].is_idle();
                    let vr = self.rqs[dest].migration_vruntime(
                        self.tasks[task.0].vruntime,
                        self.rqs[source].min_vruntime,
                    );
                    self.tasks[task.0].vruntime = vr;
                    self.tasks[task.0].preempt_migrated =
                        self.sa.as_ref().is_some_and(|sa| sa.pingpong_tagging);
                    self.rqs[dest].enqueue(vr, task);
                    self.stats.sa_migrations += 1;
                    self.move_task(task, dest, &mut out);
                    if was_idle {
                        self.stats.sa_idle_targets += 1;
                        if views[dest].state == RunState::Running {
                            // Executing its idle loop: picks immediately.
                            self.pick_and_run(dest, &mut out);
                        } else {
                            // Sleeping (or preempted) in the hypervisor:
                            // ask for a wake — it will return BOOSTed,
                            // which is the IRS payoff.
                            out.push(GuestAction::WakeVcpu { vcpu: dest });
                        }
                    }
                }
                _ => {
                    // No better vCPU: leave the task queued on its source
                    // (keeping its vruntime — this is not a migration); it
                    // runs when the preempted vCPU is rescheduled. The
                    // source may have blocked when the context switcher
                    // drained it — wake it so the task is not stranded.
                    let vr = self.tasks[task.0].vruntime;
                    self.rqs[source].enqueue(vr, task);
                    if self.rqs[source].current.is_none() {
                        out.push(GuestAction::WakeVcpu { vcpu: source });
                    }
                }
            }
        }
        out
    }

    /// The §6 "Limitation" oracle: ideal **pull-based** migration. A vCPU
    /// that is about to idle pulls the stranded *running* task straight off
    /// a hypervisor-preempted sibling — the mechanism the paper says would
    /// require new kernel machinery ("migrating a 'running' task from a
    /// preempted vCPU"). Implemented here as the upper bound the real IRS
    /// is compared against in the ablation benches.
    ///
    /// # Panics
    ///
    /// Panics if `src` has no current task or `dst` is not idle.
    pub fn pull_running(&mut self, dst: usize, src: usize) -> Vec<GuestAction> {
        let mut out = self.out_buf();
        assert!(self.rqs[dst].current.is_none(), "pull target must be idle");
        let cur = self.stop_current(src, TaskState::Ready, &mut out);
        let vr = self.rqs[dst]
            .migration_vruntime(self.tasks[cur.0].vruntime, self.rqs[src].min_vruntime);
        self.tasks[cur.0].vruntime = vr;
        self.rqs[dst].enqueue(vr, cur);
        self.stats.pull_migrations += 1;
        self.move_task(cur, dst, &mut out);
        self.pick_and_run(dst, &mut out);
        out
    }

    /// Algorithm 2's target search: an idle vCPU short-circuits; otherwise
    /// the least `rt_avg` among vCPUs the hypervisor reports `Running`.
    /// Preempted (`Runnable`) vCPUs are skipped — migrating there would
    /// re-create the very stall IRS is resolving.
    #[allow(clippy::needless_range_loop)] // v indexes rqs *and* views
    fn pick_migration_target(&self, source: usize, views: &[VcpuView]) -> Option<usize> {
        let idle_first = self.sa.as_ref().is_none_or(|sa| sa.idle_first);
        // Staying costs waiting out the source's contention: the candidate
        // must beat the source's own effective load (queue + the returning
        // task, scaled by steal) or the migration only trades one stall for
        // another — the churn behind the paper's 4-inter regressions.
        let source_load =
            (self.rqs[source].nr_queued() as f64 + 1.0) * (1.0 + views[source].steal_frac);
        let mut min: Option<(f64, usize)> = None;
        for v in 0..self.rqs.len() {
            if v == source {
                continue;
            }
            match views[v].state {
                RunState::Blocked if self.rqs[v].is_idle() => {
                    if idle_first {
                        return Some(v); // idle fast path (Algorithm 2 line 8-10)
                    }
                    // Ablation: idle vCPUs rank by rt_avg like everyone else.
                    let load = self.rt_avg(v, &views[v]);
                    if min.is_none_or(|(ml, _)| load < ml) {
                        min = Some((load, v));
                    }
                }
                RunState::Running => {
                    let load = self.rt_avg(v, &views[v]);
                    if load < source_load && min.is_none_or(|(ml, _)| load < ml) {
                        min = Some((load, v));
                    }
                }
                _ => {}
            }
        }
        min.map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GuestSaConfig;
    use crate::task::TaskId;
    use irs_sim::SimTime;

    fn irs_guest(n: usize) -> GuestOs {
        GuestOs::new(Some(GuestSaConfig::default()), n)
    }

    #[test]
    fn upcall_deschedules_current_and_yields_when_queue_nonempty() {
        let mut g = irs_guest(1);
        let a = g.spawn(0);
        let b = g.spawn(0);
        g.start();
        let outcome = g.sa_upcall(0);
        g.check_invariants().unwrap();
        assert_eq!(outcome.op, SchedOp::Yield);
        assert_eq!(g.current(0), Some(b), "next task installed");
        assert_eq!(g.task(a).state, TaskState::Ready);
        assert!(g.migrator_pending.contains(&a));
        assert!(outcome
            .actions
            .iter()
            .any(|x| matches!(x, GuestAction::WakeMigrator)));
        assert_eq!(g.stats().sa_upcalls, 1);
    }

    #[test]
    fn upcall_blocks_when_queue_drains() {
        let mut g = irs_guest(1);
        let a = g.spawn(0);
        g.start();
        let outcome = g.sa_upcall(0);
        g.check_invariants().unwrap();
        assert_eq!(outcome.op, SchedOp::Block, "idle task installed");
        assert_eq!(g.current(0), None);
        assert!(g.migrator_pending.contains(&a));
    }

    #[test]
    fn upcall_on_vanilla_guest_is_inert() {
        let mut g = GuestOs::new(None, 1);
        let a = g.spawn(0);
        g.start();
        let outcome = g.sa_upcall(0);
        assert_eq!(outcome.op, SchedOp::Yield);
        assert!(outcome.actions.is_empty());
        assert_eq!(g.current(0), Some(a), "nothing descheduled");
        assert_eq!(g.stats().sa_upcalls, 0);
    }

    #[test]
    fn upcall_takes_its_buffer_from_the_pool() {
        let mut g = irs_guest(1);
        g.spawn(0);
        g.spawn(0);
        let boot = g.start();
        g.recycle_actions(boot);
        let spares = g.spare_bufs.len();
        assert!(spares >= 1);
        let outcome = g.sa_upcall(0);
        assert!(!outcome.actions.is_empty());
        g.recycle_actions(outcome.actions);
        assert_eq!(g.spare_bufs.len(), spares, "the round left an extra buffer");
    }

    #[test]
    fn migrator_prefers_idle_vcpu_and_wakes_it() {
        let mut g = irs_guest(3);
        let a = g.spawn(0);
        g.spawn(1); // vCPU1 busy
        g.start(); // vCPU2 idle (blocked in hv)
        g.sa_upcall(0);
        let views = vec![
            VcpuView::preempted(0.8), // source: being preempted
            VcpuView::running(),
            VcpuView::blocked(), // idle sibling
        ];
        let acts = g.migrator_run(&views);
        g.check_invariants().unwrap();
        assert_eq!(g.task(a).cpu, 2, "idle sibling chosen");
        assert!(g.task(a).preempt_migrated, "Fig 4 tag applied");
        assert_eq!(g.stats().sa_migrations, 1);
        assert_eq!(g.stats().sa_idle_targets, 1);
        assert!(acts
            .iter()
            .any(|x| matches!(x, GuestAction::WakeVcpu { vcpu: 2 })));
    }

    #[test]
    fn migrator_skips_preempted_siblings() {
        let mut g = irs_guest(3);
        let a = g.spawn(0);
        g.spawn(1);
        g.spawn(2);
        g.start();
        g.sa_upcall(0);
        // vCPU1 preempted (runnable); vCPU2 running: only vCPU2 qualifies.
        let views = vec![
            VcpuView::preempted(0.8),
            VcpuView::preempted(0.9),
            VcpuView::running(),
        ];
        g.migrator_run(&views);
        g.check_invariants().unwrap();
        assert_eq!(g.task(a).cpu, 2, "preempted sibling must be skipped");
    }

    #[test]
    fn migrator_picks_least_rt_avg_when_no_idle() {
        let mut g = irs_guest(3);
        let a = g.spawn(0);
        g.spawn(1);
        g.spawn(1); // vCPU1: 2 tasks
        g.spawn(2); // vCPU2: 1 task
        g.start();
        g.sa_upcall(0);
        let views = vec![
            VcpuView::preempted(0.5),
            VcpuView::running(),
            VcpuView::running(),
        ];
        g.migrator_run(&views);
        g.check_invariants().unwrap();
        assert_eq!(g.task(a).cpu, 2, "lighter running sibling wins");
    }

    #[test]
    fn steal_breaks_rt_avg_ties() {
        let mut g = irs_guest(3);
        let a = g.spawn(0);
        g.spawn(1);
        g.spawn(2);
        g.start();
        g.sa_upcall(0);
        // Same queue depth; vCPU1 suffers steal, vCPU2 does not.
        let views = vec![
            VcpuView::preempted(0.5),
            VcpuView {
                state: RunState::Running,
                steal_frac: 0.6,
            },
            VcpuView::running(),
        ];
        g.migrator_run(&views);
        assert_eq!(g.task(a).cpu, 2, "contended sibling loses");
    }

    #[test]
    fn migrator_falls_back_to_source_when_all_siblings_preempted() {
        let mut g = irs_guest(2);
        let a = g.spawn(0);
        g.spawn(1);
        g.start();
        g.sa_upcall(0);
        let views = vec![VcpuView::preempted(0.9), VcpuView::preempted(0.9)];
        let acts = g.migrator_run(&views);
        g.check_invariants().unwrap();
        assert_eq!(g.task(a).cpu, 0, "stays queued on the source");
        assert_eq!(g.stats().sa_migrations, 0);
        // The drained source must be re-woken or the task would strand.
        assert_eq!(acts, vec![GuestAction::WakeVcpu { vcpu: 0 }]);
        // And it is actually queued (not lost in custody).
        assert!(g.rq(0).iter().any(|(_, id)| id == a));
    }

    #[test]
    fn migrator_drops_tasks_that_blocked_in_custody() {
        let mut g = irs_guest(2);
        let a = g.spawn(0);
        g.start();
        g.sa_upcall(0);
        // The task blocks before the migrator runs (e.g. its futex grace
        // expired mid-custody): the custody entry must be discarded.
        g.block_queued(a);
        assert_eq!(g.task(a).state, TaskState::Blocked);
        let acts = g.migrator_run(&[VcpuView::preempted(0.5), VcpuView::blocked()]);
        assert!(acts.is_empty());
        g.check_invariants().unwrap();
        assert_eq!(g.task(TaskId(0)).cpu, 0);
    }

    #[test]
    fn pingpong_tag_not_applied_when_tagging_disabled() {
        let sa = GuestSaConfig {
            pingpong_tagging: false,
            ..GuestSaConfig::default()
        };
        let mut g = GuestOs::new(Some(sa), 2);
        let a = g.spawn(0);
        g.start();
        g.sa_upcall(0);
        g.migrator_run(&[VcpuView::preempted(0.5), VcpuView::blocked()]);
        assert_eq!(g.task(a).cpu, 1);
        assert!(!g.task(a).preempt_migrated);
    }

    #[test]
    fn pull_oracle_moves_the_running_task() {
        let mut g = irs_guest(2);
        let a = g.spawn(0);
        g.spawn(1);
        g.start();
        // vCPU1's task blocks; vCPU1 would idle. The oracle pulls a, which
        // is "running" on the (conceptually preempted) vCPU0.
        g.block_current(1, &[VcpuView::preempted(0.9), VcpuView::running()]);
        let acts = g.pull_running(1, 0);
        g.check_invariants().unwrap();
        assert_eq!(g.current(1), Some(a));
        assert_eq!(g.current(0), None);
        assert_eq!(g.task(a).cpu, 1);
        assert!(acts
            .iter()
            .any(|x| matches!(x, GuestAction::TaskMigrated { from: 0, to: 1, .. })));
    }

    #[test]
    fn timer_softirq_runs_before_the_upcall() {
        // §4.2: when a timer tick and an SA arrive together, the timer's
        // task switching runs first, so a task CFS was about to
        // deschedule is not pointlessly migrated. The embedder gives the
        // tick that precedence through event order (DESIGN.md §3); the
        // context switcher then takes the post-switch current.
        let mut g = irs_guest(1);
        let a = g.spawn(0);
        let b = g.spawn(0);
        g.start();
        assert_eq!(g.current(0), Some(a));
        // Run `a` far past its slice so the tick switches to `b`.
        g.account_runtime(0, SimTime::from_millis(10));
        g.tick(0, &[VcpuView::running()]);
        let out = g.sa_upcall(0);
        assert!(
            g.migrator_pending.contains(&b),
            "upcall ran after the switch"
        );
        assert!(!g.migrator_pending.contains(&a), "a was spared migration");
        assert_eq!(out.op, SchedOp::Yield);
        g.check_invariants().unwrap();
    }

    #[test]
    fn sa_round_counts_match() {
        let mut g = irs_guest(2);
        g.spawn(0);
        g.spawn(1);
        g.start();
        for _ in 0..5 {
            g.sa_upcall(0);
            g.migrator_run(&[VcpuView::preempted(0.5), VcpuView::running()]);
            // Re-install a current on vCPU0 if the queue has work.
            g.ensure_current(0);
        }
        assert_eq!(g.stats().sa_upcalls, 5);
        g.check_invariants().unwrap();
    }
}
