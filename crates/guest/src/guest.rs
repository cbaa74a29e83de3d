//! The guest kernel aggregate: tasks, runqueues, tick handling, and the
//! basic scheduling entry points. Load balancing lives in
//! [`crate::balance`], the IRS machinery in [`crate::sa`].

use crate::actions::{GuestAction, VcpuView};
use crate::config::{GuestSaConfig, BALANCE_INTERVAL_TICKS, MIN_GRANULARITY, SCHED_LATENCY};
use crate::rq::Runqueue;
use crate::stats::GuestStats;
use crate::task::{Task, TaskId, TaskState};
use irs_sim::SimTime;
use irs_xen::SchedOp;
use std::collections::VecDeque;

/// A pending stopper-thread migration (vanilla running-task migration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StopRequest {
    pub task: TaskId,
    pub dest: usize,
}

/// The Linux-like guest kernel of one VM.
///
/// See the [crate-level documentation](crate) for scope and an example.
///
/// `GuestOs` is `Clone` for `System::snapshot()` checkpointing: the clone
/// copies all CFS/migrator state.
#[derive(Debug, Clone)]
pub struct GuestOs {
    /// IRS guest support; `None` is a vanilla kernel.
    pub(crate) sa: Option<GuestSaConfig>,
    pub(crate) tasks: Vec<Task>,
    pub(crate) rqs: Vec<Runqueue>,
    /// Tasks descheduled by the SA context switcher, awaiting the migrator.
    pub(crate) migrator_pending: VecDeque<TaskId>,
    /// Stopper-thread requests, keyed by source vCPU at execution time.
    pub(crate) stopper_pending: Vec<StopRequest>,
    pub(crate) stats: GuestStats,
    /// Recycled action buffers — public entry points pop one instead of
    /// allocating, and the embedder hands drained buffers back via
    /// [`GuestOs::recycle_actions`].
    pub(crate) spare_bufs: Vec<Vec<GuestAction>>,
    tick_counts: Vec<u64>,
    started: bool,
}

impl GuestOs {
    /// Creates a guest kernel managing `n_vcpus` virtual CPUs, with the
    /// guest half of IRS when `sa` is set and a vanilla kernel otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `n_vcpus == 0`.
    pub fn new(sa: Option<GuestSaConfig>, n_vcpus: usize) -> Self {
        assert!(n_vcpus > 0, "a guest needs at least one vCPU");
        GuestOs {
            sa,
            tasks: Vec::new(),
            rqs: (0..n_vcpus).map(|_| Runqueue::new()).collect(),
            migrator_pending: VecDeque::new(),
            stopper_pending: Vec::new(),
            stats: GuestStats::default(),
            spare_bufs: Vec::new(),
            tick_counts: vec![0; n_vcpus],
            started: false,
        }
    }

    /// Pops a recycled action buffer (or allocates a fresh one).
    pub(crate) fn out_buf(&mut self) -> Vec<GuestAction> {
        self.spare_bufs.pop().unwrap_or_default()
    }

    /// Returns a drained action buffer to the pool so the next entry point
    /// can reuse its capacity instead of allocating. The pool is bounded;
    /// surplus buffers are simply dropped.
    pub fn recycle_actions(&mut self, mut buf: Vec<GuestAction>) {
        if self.spare_bufs.len() < 16 {
            buf.clear();
            self.spare_bufs.push(buf);
        }
    }

    /// Spawns a nice-0 task initially placed on `vcpu`'s runqueue.
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` is out of range.
    pub fn spawn(&mut self, vcpu: usize) -> TaskId {
        assert!(vcpu < self.rqs.len(), "vcpu {vcpu} out of range");
        let id = TaskId(self.tasks.len());
        let mut task = Task::new(id, vcpu);
        task.vruntime = self.rqs[vcpu].min_vruntime;
        self.tasks.push(task);
        let vr = self.tasks[id.0].vruntime;
        self.rqs[vcpu].enqueue(vr, id);
        id
    }

    /// Installs an initial current task on every vCPU. vCPUs with empty
    /// runqueues emit `SCHEDOP_block` so the hypervisor idles them.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) -> Vec<GuestAction> {
        assert!(!self.started, "start() must be called exactly once");
        self.started = true;
        let mut out = self.out_buf();
        for v in 0..self.rqs.len() {
            if self.rqs[v].is_idle() {
                self.stats.idle_blocks += 1;
                out.push(GuestAction::Hypercall {
                    vcpu: v,
                    op: SchedOp::Block,
                });
            } else {
                self.pick_and_run(v, &mut out);
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // time accounting
    // ------------------------------------------------------------------

    /// Charges `delta` of actual execution to the current task of `vcpu`.
    ///
    /// The embedding simulation calls this whenever it checkpoints task
    /// progress (at stops, ticks, and task program events); the guest only
    /// maintains vruntime, never wall time.
    #[inline]
    pub fn account_runtime(&mut self, vcpu: usize, delta: SimTime) {
        if delta.is_zero() {
            return;
        }
        let Some(cur) = self.rqs[vcpu].current else {
            return;
        };
        // Every task is nice-0: vruntime advances at wall-clock rate.
        let task = &mut self.tasks[cur.0];
        task.vruntime += delta.as_nanos();
        let vr = task.vruntime;
        self.rqs[vcpu].update_min_vruntime(vr);
    }

    // ------------------------------------------------------------------
    // the scheduler tick
    // ------------------------------------------------------------------

    /// The 1 ms scheduler tick for `vcpu` (the `TIMER_SOFTIRQ` body):
    /// pending stopper work, the CFS preemption check, and — every
    /// `BALANCE_INTERVAL_TICKS` ticks — periodic balancing plus the
    /// nohz kick.
    ///
    /// Only delivered while the vCPU actually executes (a preempted vCPU's
    /// ticks are deferred, exactly as on real hardware). An SA upcall is
    /// never handled here: the embedder runs [`GuestOs::sa_upcall`] as its
    /// own event after the receiver delay.
    pub fn tick(&mut self, vcpu: usize, views: &[VcpuView]) -> Vec<GuestAction> {
        let mut out = self.out_buf();
        self.run_stopper(vcpu, &mut out);
        self.preempt_check(vcpu, &mut out);
        self.tick_counts[vcpu] += 1;
        if self.tick_counts[vcpu].is_multiple_of(BALANCE_INTERVAL_TICKS) {
            self.periodic_balance(vcpu, views, &mut out);
        }
        // nohz balancer kick: an overloaded runqueue wakes a sleeping idle
        // vCPU so it can pull (Linux `nohz_balancer_kick`). Without this, a
        // vCPU that idled after the IRS migrator drained it would sleep
        // forever while siblings queue work.
        if self.rqs[vcpu].nr_queued() > 0 {
            if let Some(idle) = self.find_guest_idle_vcpu() {
                out.push(GuestAction::WakeVcpu { vcpu: idle });
            }
        }
        out
    }

    /// The scheduler tick for `vcpu` when it provably has nothing to do:
    /// counts the tick and returns `true` when no stopper request is
    /// pending, `vcpu`'s runqueue is empty and, on a balance tick, every
    /// runqueue is empty. Then [`GuestOs::tick`] would return no action
    /// and change nothing but the tick count, so the embedder need not
    /// call it. Otherwise changes nothing and returns `false`; the
    /// embedder runs the full tick.
    #[inline]
    pub fn tick_if_quiet(&mut self, vcpu: usize) -> bool {
        if !self.stopper_pending.is_empty() || self.rqs[vcpu].nr_queued() > 0 {
            return false;
        }
        let count = self.tick_counts[vcpu] + 1;
        if count.is_multiple_of(BALANCE_INTERVAL_TICKS)
            && self.rqs.iter().any(|rq| rq.nr_queued() > 0)
        {
            return false;
        }
        self.tick_counts[vcpu] = count;
        true
    }

    /// Idle balancing on a vCPU that just woke with nothing to run: pull
    /// from the busiest queue and start the pulled task (the receiving end
    /// of the nohz kick).
    pub fn idle_balance(&mut self, vcpu: usize, views: &[VcpuView]) -> Vec<GuestAction> {
        let mut out = self.out_buf();
        if self.rqs[vcpu].current.is_some() {
            return out;
        }
        if self.rqs[vcpu].leftmost().is_none() {
            self.idle_pull(vcpu, views, &mut out);
        }
        if self.rqs[vcpu].leftmost().is_some() {
            self.pick_and_run(vcpu, &mut out);
        }
        out
    }

    /// CFS `check_preempt_tick`: switch when the incumbent's vruntime lead
    /// over the leftmost queued task exceeds its ideal slice.
    pub(crate) fn preempt_check(&mut self, vcpu: usize, out: &mut Vec<GuestAction>) {
        let Some(cur) = self.rqs[vcpu].current else {
            return;
        };
        let Some((left_vr, _)) = self.rqs[vcpu].leftmost() else {
            return;
        };
        let nr = self.rqs[vcpu].nr_running().max(1) as u64;
        let slice_vr = (SCHED_LATENCY.as_nanos() / nr).max(MIN_GRANULARITY.as_nanos());
        if self.tasks[cur.0].vruntime > left_vr.saturating_add(slice_vr) {
            self.deschedule_current(vcpu, TaskState::Ready, out);
            self.pick_and_run(vcpu, out);
        }
    }

    // ------------------------------------------------------------------
    // blocking / exiting / resuming
    // ------------------------------------------------------------------

    /// The current task of `vcpu` blocks (sleeps on synchronization or I/O).
    ///
    /// Attempts idle (pull) balancing before conceding the vCPU; if nothing
    /// can be pulled, emits `SCHEDOP_block` so the hypervisor idles the vCPU.
    pub fn block_current(&mut self, vcpu: usize, views: &[VcpuView]) -> Vec<GuestAction> {
        let mut out = self.out_buf();
        if self.rqs[vcpu].current.is_none() {
            return out;
        }
        self.deschedule_current(vcpu, TaskState::Blocked, &mut out);
        self.find_work_or_block(vcpu, views, &mut out);
        out
    }

    /// The current task of `vcpu` exits.
    pub fn exit_current(&mut self, vcpu: usize, views: &[VcpuView]) -> Vec<GuestAction> {
        let mut out = self.out_buf();
        if self.rqs[vcpu].current.is_none() {
            return out;
        }
        self.deschedule_current(vcpu, TaskState::Exited, &mut out);
        self.find_work_or_block(vcpu, views, &mut out);
        out
    }

    /// Picks a next task or, failing idle-pull, blocks the vCPU.
    pub(crate) fn find_work_or_block(
        &mut self,
        vcpu: usize,
        views: &[VcpuView],
        out: &mut Vec<GuestAction>,
    ) {
        if self.rqs[vcpu].leftmost().is_none() {
            self.idle_pull(vcpu, views, out);
        }
        if self.rqs[vcpu].leftmost().is_some() {
            self.pick_and_run(vcpu, out);
        } else {
            self.stats.idle_blocks += 1;
            out.push(GuestAction::Hypercall {
                vcpu,
                op: SchedOp::Block,
            });
        }
    }

    /// A *ready* (not running) task goes to sleep — the futex path of a
    /// task that was descheduled (or handed to the IRS migrator) mid-wait.
    /// No-op for other states.
    pub fn block_queued(&mut self, task: TaskId) {
        if self.tasks[task.0].state != TaskState::Ready {
            return;
        }
        let cpu = self.tasks[task.0].cpu;
        let vr = self.tasks[task.0].vruntime;
        // A task in migrator custody is Ready but unqueued; it simply
        // blocks in place and the migrator discards its custody entry.
        if self.tasks[task.0].in_custody {
            self.tasks[task.0].in_custody = false;
        } else {
            let removed = self.rqs[cpu].dequeue(vr, task);
            debug_assert!(removed, "{task} Ready but neither queued nor in custody");
        }
        self.tasks[task.0].state = TaskState::Blocked;
    }

    /// Called when the hypervisor (re)starts a vCPU the guest had idled:
    /// picks a current task if work arrived in the meantime.
    pub fn ensure_current(&mut self, vcpu: usize) -> Vec<GuestAction> {
        let mut out = self.out_buf();
        if self.rqs[vcpu].current.is_none() && self.rqs[vcpu].leftmost().is_some() {
            self.pick_and_run(vcpu, &mut out);
        }
        out
    }

    // ------------------------------------------------------------------
    // internal switch helpers
    // ------------------------------------------------------------------

    /// Takes the current task off `vcpu` in state `to`, leaving it
    /// unqueued, and returns it. Every task stop goes through here, so the
    /// embedder sees each one as a `StopTask`.
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` has no current task.
    pub(crate) fn stop_current(
        &mut self,
        vcpu: usize,
        to: TaskState,
        out: &mut Vec<GuestAction>,
    ) -> TaskId {
        let cur = self.rqs[vcpu]
            .current
            .take()
            .expect("stop_current on an idle vCPU");
        self.tasks[cur.0].state = to;
        out.push(GuestAction::StopTask { vcpu, task: cur });
        cur
    }

    /// Takes the current task off `vcpu`, putting it into `to`. `Ready`
    /// re-enqueues locally; other states leave the task unqueued.
    pub(crate) fn deschedule_current(
        &mut self,
        vcpu: usize,
        to: TaskState,
        out: &mut Vec<GuestAction>,
    ) {
        let cur = self.stop_current(vcpu, to, out);
        if to == TaskState::Ready {
            let vr = self.tasks[cur.0].vruntime;
            self.rqs[vcpu].enqueue(vr, cur);
        }
    }

    /// Installs the leftmost queued task as current.
    pub(crate) fn pick_and_run(&mut self, vcpu: usize, out: &mut Vec<GuestAction>) {
        let (_, next) = self.rqs[vcpu]
            .pick_next()
            .expect("pick_and_run on an empty runqueue");
        self.switch_to(vcpu, next, out);
    }

    /// Installs a specific queued task as current (wakeup preemption puts
    /// the waker itself on CPU, not merely the leftmost task).
    pub(crate) fn run_specific(&mut self, vcpu: usize, task: TaskId, out: &mut Vec<GuestAction>) {
        debug_assert!(self.rqs[vcpu].current.is_none());
        let vr = self.tasks[task.0].vruntime;
        let removed = self.rqs[vcpu].dequeue(vr, task);
        debug_assert!(removed, "{task} not queued on v{vcpu}");
        self.rqs[vcpu].update_min_vruntime(vr);
        self.switch_to(vcpu, task, out);
    }

    /// The context switch both installers end in: `task`, already off
    /// every queue, becomes current on `vcpu` and the embedder is told
    /// (`RunTask`).
    fn switch_to(&mut self, vcpu: usize, task: TaskId, out: &mut Vec<GuestAction>) {
        self.tasks[task.0].state = TaskState::Running;
        self.tasks[task.0].cpu = vcpu;
        self.rqs[vcpu].current = Some(task);
        self.stats.context_switches += 1;
        out.push(GuestAction::RunTask { vcpu, task });
    }

    /// Moves a *queued* (Ready) task between runqueues.
    ///
    /// # Panics
    ///
    /// Panics if the task is not queued on its recorded runqueue.
    pub(crate) fn migrate_queued(&mut self, task: TaskId, to: usize, out: &mut Vec<GuestAction>) {
        let from = self.tasks[task.0].cpu;
        let vr = self.tasks[task.0].vruntime;
        let removed = self.rqs[from].dequeue(vr, task);
        assert!(removed, "{task} not queued on its recorded rq v{from}");
        let placed = self.rqs[to].migration_vruntime(vr, self.rqs[from].min_vruntime);
        self.tasks[task.0].vruntime = placed;
        self.rqs[to].enqueue(placed, task);
        self.move_task(task, to, out);
    }

    /// Records `task`'s move from its recorded vCPU to `to`: sets its
    /// `cpu`, counts the migration and tells the embedder
    /// (`TaskMigrated`). Every cross-vCPU migration goes through here;
    /// queue placement and vruntime stay with the caller.
    pub(crate) fn move_task(&mut self, task: TaskId, to: usize, out: &mut Vec<GuestAction>) {
        let from = self.tasks[task.0].cpu;
        self.tasks[task.0].cpu = to;
        self.tasks[task.0].migrations += 1;
        out.push(GuestAction::TaskMigrated { task, from, to });
    }

    // ------------------------------------------------------------------
    // read surface
    // ------------------------------------------------------------------

    /// Number of vCPUs.
    pub fn n_vcpus(&self) -> usize {
        self.rqs.len()
    }

    /// Number of tasks ever spawned.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The current task of `vcpu`, if any.
    #[inline]
    pub fn current(&self, vcpu: usize) -> Option<TaskId> {
        self.rqs[vcpu].current
    }

    /// Read access to a task.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Read access to a runqueue.
    #[inline]
    pub fn rq(&self, vcpu: usize) -> &Runqueue {
        &self.rqs[vcpu]
    }

    /// Guest scheduler counters.
    pub fn stats(&self) -> &GuestStats {
        &self.stats
    }

    /// The IRS parameters this guest was built with (`None`: vanilla).
    pub fn sa_config(&self) -> Option<&GuestSaConfig> {
        self.sa.as_ref()
    }

    /// The `rt_avg`-style load of `vcpu`: runnable weight scaled up by the
    /// recent steal fraction the paravirtual clock reports. This is the
    /// metric Algorithm 2 compares (line 12-17).
    pub fn rt_avg(&self, vcpu: usize, view: &VcpuView) -> f64 {
        self.rqs[vcpu].nr_running() as f64 * (1.0 + view.steal_frac)
    }

    /// Verifies the guest's queue membership. The embedder's sanitizer
    /// runs this at every accounting pass and at the end of a run
    /// (`irs_core::check`, as `task-queue-membership`); the test suites
    /// run it after their operations.
    ///
    /// Facts checked:
    /// * `Running` tasks are current on exactly their recorded vCPU;
    /// * `Ready` tasks are queued exactly once (or in migrator custody);
    /// * `Blocked`/`Exited` tasks appear nowhere;
    /// * only `Ready` tasks are in custody.
    ///
    /// # Errors
    ///
    /// Describes the first fact that does not hold.
    pub fn check_invariants(&self) -> Result<(), String> {
        for task in &self.tasks {
            let id = task.id;
            let queued: usize = self
                .rqs
                .iter()
                .map(|rq| rq.iter().filter(|&(_, q)| q == id).count())
                .sum();
            let current_on: Vec<usize> = self
                .rqs
                .iter()
                .enumerate()
                .filter(|(_, rq)| rq.current == Some(id))
                .map(|(v, _)| v)
                .collect();
            let in_custody = task.in_custody;
            let state = task.state;
            match state {
                TaskState::Running => {
                    ensure(current_on == [task.cpu], || {
                        format!(
                            "{id} running but current on {current_on:?} (cpu {})",
                            task.cpu
                        )
                    })?;
                    ensure(queued == 0, || format!("{id} running but queued"))?;
                }
                TaskState::Ready => {
                    ensure(current_on.is_empty(), || format!("{id} ready but current"))?;
                    let want = usize::from(!in_custody);
                    ensure(queued == want, || {
                        format!("{id} ready queued {queued} times (in custody: {in_custody})")
                    })?;
                }
                TaskState::Blocked | TaskState::Exited => {
                    ensure(current_on.is_empty(), || {
                        format!("{id} {state} but current")
                    })?;
                    ensure(queued == 0, || format!("{id} {state} but queued"))?;
                }
            }
            ensure(!in_custody || state == TaskState::Ready, || {
                format!("{id} {state} but in custody")
            })?;
        }
        Ok(())
    }
}

/// One fact of [`GuestOs::check_invariants`]: `Err(detail())` unless
/// `holds`.
fn ensure(holds: bool, detail: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(detail())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(n: usize) -> Vec<VcpuView> {
        vec![VcpuView::running(); n]
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn start_runs_one_task_per_vcpu_and_blocks_idle_vcpus() {
        let mut g = GuestOs::new(None, 3);
        let a = g.spawn(0);
        let b = g.spawn(0);
        let acts = g.start();
        g.check_invariants().unwrap();
        assert_eq!(g.current(0), Some(a));
        assert_eq!(g.task(b).state, TaskState::Ready);
        // vCPUs 1 and 2 have no work: they block in the hypervisor.
        let blocks = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    GuestAction::Hypercall {
                        op: SchedOp::Block,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(blocks, 2);
    }

    /// The walker's verdict on a consistent guest, where task0 runs on v0
    /// with task1 queued behind it and task2 runs on v1, after `corrupt`.
    fn walked_after(corrupt: impl FnOnce(&mut GuestOs)) -> Result<(), String> {
        let mut g = GuestOs::new(None, 2);
        for vcpu in [0, 0, 1] {
            g.spawn(vcpu);
        }
        g.start();
        assert_eq!(g.task(TaskId(1)).state, TaskState::Ready);
        g.check_invariants().unwrap();
        corrupt(&mut g);
        g.check_invariants()
    }

    /// Each corruption fails the walker, which names the broken fact.
    #[test]
    fn check_invariants_reports_each_broken_fact() {
        let cases = [
            (
                "ready queued 2 times",
                walked_after(|g| {
                    let vr = g.tasks[1].vruntime;
                    g.rqs[0].enqueue(vr + 1, TaskId(1));
                }),
            ),
            (
                "blocked but queued",
                walked_after(|g| g.tasks[1].state = TaskState::Blocked),
            ),
            (
                "blocked but in custody",
                walked_after(|g| {
                    g.block_current(1, &views(2));
                    g.tasks[2].in_custody = true;
                }),
            ),
        ];
        for (fact, verdict) in cases {
            let err = verdict.expect_err(fact);
            assert!(err.contains(fact), "expected {fact:?}, got {err:?}");
        }
    }

    #[test]
    fn account_runtime_advances_vruntime() {
        let mut g = GuestOs::new(None, 1);
        let a = g.spawn(0);
        g.start();
        g.account_runtime(0, SimTime::from_millis(2));
        assert_eq!(g.task(a).vruntime, 2_000_000);
    }

    #[test]
    fn tick_preempts_after_ideal_slice() {
        let mut g = GuestOs::new(None, 1);
        let a = g.spawn(0);
        let b = g.spawn(0);
        g.start();
        assert_eq!(g.current(0), Some(a));
        // Run a for 1 ms at a time; with 2 tasks the ideal slice is 3 ms, so
        // by the 4th tick the lead (4 ms > 3 ms) forces the switch.
        let mut switched_at = None;
        for i in 1..=6u64 {
            g.account_runtime(0, t(1));
            let out = g.tick(0, &views(1));
            if out
                .iter()
                .any(|x| matches!(x, GuestAction::RunTask { task, .. } if *task == b))
            {
                switched_at = Some(i);
                break;
            }
        }
        g.check_invariants().unwrap();
        assert_eq!(switched_at, Some(4), "CFS slice of 3 ms (+granularity)");
        assert_eq!(g.current(0), Some(b));
        assert_eq!(g.task(a).state, TaskState::Ready);
    }

    #[test]
    fn sole_task_is_never_preempted() {
        let mut g = GuestOs::new(None, 1);
        let a = g.spawn(0);
        g.start();
        for _ in 0..20 {
            g.account_runtime(0, t(1));
            let out = g.tick(0, &views(1));
            assert!(out.is_empty(), "unexpected actions: {out:?}");
        }
        assert_eq!(g.current(0), Some(a));
    }

    #[test]
    fn only_a_tick_with_nothing_queued_is_quiet() {
        // v0 runs a with nothing queued: quiet, and counted.
        let mut g = GuestOs::new(None, 2);
        let a = g.spawn(0);
        g.spawn(1);
        g.spawn(1);
        g.start();
        assert!(g.tick_if_quiet(0));
        assert_eq!(g.tick_counts[0], 1);
        // v1 has a task queued behind its current one.
        assert!(!g.tick_if_quiet(1));
        assert_eq!(
            g.tick_counts[1], 0,
            "a tick that is not quiet changes nothing"
        );
        // v0's balance tick sees v1's queued task.
        g.tick_counts[0] = BALANCE_INTERVAL_TICKS - 1;
        assert!(!g.tick_if_quiet(0));
        g.tick_counts[0] = 0;
        // A pending stopper request needs the full tick.
        g.request_stop_migration(a, 1);
        assert!(!g.tick_if_quiet(0));
    }

    #[test]
    fn block_switches_to_next_task() {
        let mut g = GuestOs::new(None, 1);
        let a = g.spawn(0);
        let b = g.spawn(0);
        g.start();
        let acts = g.block_current(0, &views(1));
        g.check_invariants().unwrap();
        assert_eq!(g.task(a).state, TaskState::Blocked);
        assert_eq!(g.current(0), Some(b));
        assert!(acts
            .iter()
            .any(|x| matches!(x, GuestAction::RunTask { .. })));
        assert!(!acts
            .iter()
            .any(|x| matches!(x, GuestAction::Hypercall { .. })));
    }

    #[test]
    fn block_with_empty_queue_blocks_the_vcpu() {
        let mut g = GuestOs::new(None, 1);
        let a = g.spawn(0);
        g.start();
        let acts = g.block_current(0, &views(1));
        g.check_invariants().unwrap();
        assert_eq!(g.task(a).state, TaskState::Blocked);
        assert_eq!(g.current(0), None);
        assert!(acts.iter().any(|x| matches!(
            x,
            GuestAction::Hypercall {
                vcpu: 0,
                op: SchedOp::Block
            }
        )));
    }

    #[test]
    fn exit_removes_the_task_for_good() {
        let mut g = GuestOs::new(None, 1);
        let a = g.spawn(0);
        g.spawn(0);
        g.start();
        g.exit_current(0, &views(1));
        g.check_invariants().unwrap();
        assert_eq!(g.task(a).state, TaskState::Exited);
        assert_ne!(g.current(0), Some(a));
    }

    #[test]
    fn ensure_current_fills_an_idle_vcpu() {
        let mut g = GuestOs::new(None, 2);
        let a = g.spawn(0);
        g.start();
        g.block_current(0, &views(2));
        assert_eq!(g.current(0), None);
        // Simulate a wake placing the task back (state juggling via wake is
        // exercised in balance tests; here drive the internals directly).
        let mut out = Vec::new();
        g.tasks[a.0].state = TaskState::Ready;
        let vr = g.tasks[a.0].vruntime.max(g.rqs[0].min_vruntime);
        g.tasks[a.0].vruntime = vr;
        g.rqs[0].enqueue(vr, a);
        let acts = g.ensure_current(0);
        out.extend(acts.iter().cloned());
        assert_eq!(g.current(0), Some(a));
        g.check_invariants().unwrap();
    }

    #[test]
    fn migrate_queued_normalizes_vruntime() {
        let mut g = GuestOs::new(None, 2);
        let a = g.spawn(0);
        let b = g.spawn(0);
        let c = g.spawn(1);
        g.start();
        // Run vcpu1's task far ahead so rq1.min_vruntime is large.
        g.account_runtime(1, t(50));
        let _ = c;
        // b is queued on rq0 with vruntime 0; migrate to rq1.
        let mut out = Vec::new();
        g.migrate_queued(b, 1, &mut out);
        g.check_invariants().unwrap();
        assert_eq!(g.task(b).cpu, 1);
        assert!(
            g.task(b).vruntime >= g.rq(1).min_vruntime,
            "incoming task must not starve the destination queue"
        );
        assert_eq!(g.task(b).migrations, 1);
        let _ = a;
        assert!(out
            .iter()
            .any(|x| matches!(x, GuestAction::TaskMigrated { from: 0, to: 1, .. })));
    }

    #[test]
    fn rt_avg_scales_with_steal() {
        let mut g = GuestOs::new(None, 1);
        g.spawn(0);
        g.spawn(0);
        g.start();
        let calm = g.rt_avg(0, &VcpuView::running());
        let stolen = g.rt_avg(0, &VcpuView::preempted(1.0));
        assert!((calm - 2.0).abs() < 1e-9);
        assert!((stolen - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn double_start_panics() {
        let mut g = GuestOs::new(None, 1);
        g.spawn(0);
        g.start();
        g.start();
    }
}
