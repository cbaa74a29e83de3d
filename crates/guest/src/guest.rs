//! The guest kernel aggregate: tasks, runqueues, tick handling, and the
//! basic scheduling entry points. Load balancing lives in
//! [`crate::balance`], the IRS machinery in [`crate::sa`].

use crate::actions::{GuestAction, VcpuView};
use crate::config::GuestConfig;
use crate::rq::Runqueue;
use crate::softirq::{Softirq, SoftirqOutcome};
use crate::stats::GuestStats;
use crate::task::{Task, TaskId, TaskState, NICE0_WEIGHT};
use irs_sim::trace::{TraceEvent, TraceRing};
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
/// copies all CFS/softirq/migrator state; the embedded trace ring clones
/// its configuration but starts empty (rings are observability, not state).
#[derive(Debug, Clone)]
pub struct GuestOs {
    pub(crate) cfg: GuestConfig,
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
    /// Pending softirq bits per vCPU (see [`crate::softirq`]).
    softirq_pending: Vec<u8>,
    tick_counts: Vec<u64>,
    started: bool,
    /// Typed trace bus for context-switch decisions (disabled by default).
    trace: TraceRing,
    /// VM index stamped into emitted trace events (set by `enable_trace`).
    trace_vm: usize,
    /// Latest virtual time the embedder synced; entry points without a
    /// `now` parameter timestamp their trace events with this.
    clock: SimTime,
}

impl GuestOs {
    /// Creates a guest kernel managing `n_vcpus` virtual CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `n_vcpus == 0`.
    pub fn new(cfg: GuestConfig, n_vcpus: usize) -> Self {
        assert!(n_vcpus > 0, "a guest needs at least one vCPU");
        GuestOs {
            cfg,
            tasks: Vec::new(),
            rqs: (0..n_vcpus).map(|_| Runqueue::new()).collect(),
            migrator_pending: VecDeque::new(),
            stopper_pending: Vec::new(),
            stats: GuestStats::default(),
            spare_bufs: Vec::new(),
            softirq_pending: vec![0; n_vcpus],
            tick_counts: vec![0; n_vcpus],
            started: false,
            trace: TraceRing::disabled(),
            trace_vm: 0,
            clock: SimTime::ZERO,
        }
    }

    /// Enables the typed trace bus with a ring of `capacity` records.
    /// Emitted events carry `vm` as their VM index. Tracing never changes
    /// scheduling decisions; it only captures them.
    pub fn enable_trace(&mut self, vm: usize, capacity: usize) {
        self.trace = TraceRing::enabled(capacity);
        self.trace_vm = vm;
    }

    /// The guest's trace ring (empty and disabled unless
    /// [`GuestOs::enable_trace`] was called).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Advances the timestamp used for trace events emitted by entry points
    /// that take no `now` (wakes, balancing, migrator runs). The embedding
    /// simulation calls this as virtual time advances; it has no effect on
    /// scheduling decisions.
    pub fn sync_clock(&mut self, now: SimTime) {
        self.clock = now;
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
        self.spawn_weighted(vcpu, NICE0_WEIGHT)
    }

    /// Spawns a task with an explicit CFS weight.
    pub fn spawn_weighted(&mut self, vcpu: usize, weight: u64) -> TaskId {
        assert!(vcpu < self.rqs.len(), "vcpu {vcpu} out of range");
        let id = TaskId(self.tasks.len());
        let mut task = Task::new(id, vcpu, weight);
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
    pub fn start(&mut self, _now: SimTime) -> Vec<GuestAction> {
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
    pub fn account_runtime(&mut self, vcpu: usize, delta: SimTime) {
        if delta.is_zero() {
            return;
        }
        let Some(cur) = self.rqs[vcpu].current else {
            return;
        };
        let vr_delta = self.tasks[cur.0].vruntime_delta(delta);
        let task = &mut self.tasks[cur.0];
        task.vruntime += vr_delta;
        task.total_runtime += delta;
        let vr = task.vruntime;
        self.rqs[vcpu].update_min_vruntime(vr);
    }

    // ------------------------------------------------------------------
    // the scheduler tick
    // ------------------------------------------------------------------

    /// The 1 ms scheduler tick for `vcpu`: raises and runs `TIMER_SOFTIRQ`.
    ///
    /// Only delivered while the vCPU actually executes (a preempted vCPU's
    /// ticks are deferred, exactly as on real hardware). A pending SA
    /// upcall is deliberately *not* consumed here: its bottom half carries
    /// a 20–26 µs processing cost that the embedder models as the
    /// softirq-delay event, which calls [`GuestOs::process_softirqs`] — and
    /// that path runs any simultaneous timer work first (§4.2's rule).
    pub fn tick(&mut self, vcpu: usize, now: SimTime, views: &[VcpuView]) -> SoftirqOutcome {
        self.raise_softirq(vcpu, Softirq::Timer);
        let mut outcome = SoftirqOutcome {
            actions: self.out_buf(),
            sa_ack: None,
        };
        self.softirq_pending[vcpu] &= !Softirq::Timer.bit();
        self.timer_softirq(vcpu, now, views, &mut outcome.actions);
        outcome
    }

    /// Marks a softirq pending on `vcpu` (interrupt top half).
    pub fn raise_softirq(&mut self, vcpu: usize, s: Softirq) {
        self.softirq_pending[vcpu] |= s.bit();
    }

    /// True if `s` is pending on `vcpu`.
    pub fn softirq_is_pending(&self, vcpu: usize, s: Softirq) -> bool {
        self.softirq_pending[vcpu] & s.bit() != 0
    }

    /// Runs pending softirq handlers on `vcpu` in priority order:
    /// `TIMER_SOFTIRQ` first, then `UPCALL_SOFTIRQ` (the IRS context
    /// switcher). See [`crate::softirq`].
    pub fn process_softirqs(
        &mut self,
        vcpu: usize,
        now: SimTime,
        views: &[VcpuView],
    ) -> SoftirqOutcome {
        let mut outcome = SoftirqOutcome {
            actions: self.out_buf(),
            sa_ack: None,
        };
        if self.softirq_pending[vcpu] & Softirq::Timer.bit() != 0 {
            self.softirq_pending[vcpu] &= !Softirq::Timer.bit();
            self.timer_softirq(vcpu, now, views, &mut outcome.actions);
        }
        if self.softirq_pending[vcpu] & Softirq::Upcall.bit() != 0 {
            self.softirq_pending[vcpu] &= !Softirq::Upcall.bit();
            let sa = self.upcall_softirq(vcpu);
            let mut buf = sa.actions;
            outcome.actions.append(&mut buf);
            self.recycle_actions(buf);
            outcome.sa_ack = Some(sa.op);
        }
        outcome
    }

    /// The `TIMER_SOFTIRQ` body: pending stopper work, the CFS preemption
    /// check, and — every [`GuestConfig::balance_interval_ticks`] ticks —
    /// periodic balancing plus the nohz kick.
    fn timer_softirq(
        &mut self,
        vcpu: usize,
        now: SimTime,
        views: &[VcpuView],
        out: &mut Vec<GuestAction>,
    ) {
        self.run_stopper(vcpu, out);
        self.preempt_check(vcpu, out);
        self.tick_counts[vcpu] += 1;
        if self.tick_counts[vcpu].is_multiple_of(self.cfg.balance_interval_ticks) {
            self.periodic_balance(vcpu, views, out);
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
        let _ = now;
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
        let slice = SimTime::from_nanos(
            (self.cfg.sched_latency.as_nanos() / nr).max(self.cfg.min_granularity.as_nanos()),
        );
        let slice_vr = self.tasks[cur.0].vruntime_delta(slice);
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
    pub fn block_current(
        &mut self,
        vcpu: usize,
        now: SimTime,
        views: &[VcpuView],
    ) -> Vec<GuestAction> {
        let mut out = self.out_buf();
        if self.rqs[vcpu].current.is_none() {
            return out;
        }
        self.deschedule_current(vcpu, TaskState::Blocked, &mut out);
        self.find_work_or_block(vcpu, views, &mut out);
        let _ = now;
        out
    }

    /// The current task of `vcpu` exits.
    pub fn exit_current(
        &mut self,
        vcpu: usize,
        now: SimTime,
        views: &[VcpuView],
    ) -> Vec<GuestAction> {
        let mut out = self.out_buf();
        if self.rqs[vcpu].current.is_none() {
            return out;
        }
        self.deschedule_current(vcpu, TaskState::Exited, &mut out);
        self.find_work_or_block(vcpu, views, &mut out);
        let _ = now;
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
    pub fn block_queued(&mut self, task: TaskId) -> Vec<GuestAction> {
        let out = Vec::new();
        if self.tasks[task.0].state != TaskState::Ready {
            return out;
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
        out
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

    /// Takes the current task off `vcpu`, putting it into `to`. `Ready`
    /// re-enqueues locally; other states leave the task unqueued.
    pub(crate) fn deschedule_current(
        &mut self,
        vcpu: usize,
        to: TaskState,
        out: &mut Vec<GuestAction>,
    ) {
        let cur = self.rqs[vcpu]
            .current
            .take()
            .expect("deschedule_current on an idle vCPU");
        self.tasks[cur.0].state = to;
        if to == TaskState::Ready {
            let vr = self.tasks[cur.0].vruntime;
            self.rqs[vcpu].enqueue(vr, cur);
        }
        let (at, vm) = (self.clock, self.trace_vm);
        self.trace.emit(at, || TraceEvent::TaskStop {
            vm,
            vcpu,
            task: cur.0,
        });
        out.push(GuestAction::StopTask { vcpu, task: cur });
    }

    /// Installs the leftmost queued task as current.
    pub(crate) fn pick_and_run(&mut self, vcpu: usize, out: &mut Vec<GuestAction>) {
        let (_, next) = self.rqs[vcpu]
            .pick_next()
            .expect("pick_and_run on an empty runqueue");
        self.tasks[next.0].state = TaskState::Running;
        self.tasks[next.0].cpu = vcpu;
        self.rqs[vcpu].current = Some(next);
        self.stats.context_switches += 1;
        let (at, vm) = (self.clock, self.trace_vm);
        self.trace.emit(at, || TraceEvent::TaskRun {
            vm,
            vcpu,
            task: next.0,
        });
        out.push(GuestAction::RunTask { vcpu, task: next });
    }

    /// Installs a specific queued task as current (wakeup preemption puts
    /// the waker itself on CPU, not merely the leftmost task).
    pub(crate) fn run_specific(&mut self, vcpu: usize, task: TaskId, out: &mut Vec<GuestAction>) {
        debug_assert!(self.rqs[vcpu].current.is_none());
        let vr = self.tasks[task.0].vruntime;
        let removed = self.rqs[vcpu].dequeue(vr, task);
        debug_assert!(removed, "{task} not queued on v{vcpu}");
        self.rqs[vcpu].update_min_vruntime(vr);
        self.tasks[task.0].state = TaskState::Running;
        self.tasks[task.0].cpu = vcpu;
        self.rqs[vcpu].current = Some(task);
        self.stats.context_switches += 1;
        let (at, vm) = (self.clock, self.trace_vm);
        self.trace.emit(at, || TraceEvent::TaskRun {
            vm,
            vcpu,
            task: task.0,
        });
        out.push(GuestAction::RunTask { vcpu, task });
    }

    /// Moves a *queued* (Ready) task between runqueues.
    ///
    /// # Panics
    ///
    /// Panics if the task is not queued on its recorded runqueue.
    pub(crate) fn migrate_queued(
        &mut self,
        task: TaskId,
        to: usize,
        out: &mut Vec<GuestAction>,
    ) {
        let from = self.tasks[task.0].cpu;
        let vr = self.tasks[task.0].vruntime;
        let removed = self.rqs[from].dequeue(vr, task);
        assert!(removed, "{task} not queued on its recorded rq v{from}");
        let placed = self.rqs[to].migration_vruntime(vr, self.rqs[from].min_vruntime);
        self.tasks[task.0].vruntime = placed;
        self.tasks[task.0].cpu = to;
        self.tasks[task.0].migrations += 1;
        self.rqs[to].enqueue(placed, task);
        let (at, vm) = (self.clock, self.trace_vm);
        self.trace.emit(at, || TraceEvent::TaskMigrate {
            vm,
            task: task.0,
            from,
            to,
        });
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
    pub fn current(&self, vcpu: usize) -> Option<TaskId> {
        self.rqs[vcpu].current
    }

    /// Read access to a task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Read access to a runqueue.
    pub fn rq(&self, vcpu: usize) -> &Runqueue {
        &self.rqs[vcpu]
    }

    /// Guest scheduler counters.
    pub fn stats(&self) -> &GuestStats {
        &self.stats
    }

    /// The configuration this guest was built with.
    pub fn config(&self) -> &GuestConfig {
        &self.cfg
    }

    /// The `rt_avg`-style load of `vcpu`: runnable weight scaled up by the
    /// recent steal fraction the paravirtual clock reports. This is the
    /// metric Algorithm 2 compares (line 12-17).
    pub fn rt_avg(&self, vcpu: usize, view: &VcpuView) -> f64 {
        self.rqs[vcpu].nr_running() as f64 * (1.0 + view.steal_frac)
    }

    /// Verifies internal consistency (used heavily by tests):
    /// * `Running` tasks are current on exactly their recorded vCPU;
    /// * `Ready` tasks are queued exactly once (or in migrator custody);
    /// * `Blocked`/`Exited` tasks appear nowhere.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on violation.
    pub fn check_invariants(&self) {
        for task in &self.tasks {
            let queued: usize = self
                .rqs
                .iter()
                .map(|rq| rq.iter().filter(|&(_, id)| id == task.id).count())
                .sum();
            let current_on: Vec<usize> = self
                .rqs
                .iter()
                .enumerate()
                .filter(|(_, rq)| rq.current == Some(task.id))
                .map(|(v, _)| v)
                .collect();
            let in_custody = task.in_custody;
            match task.state {
                TaskState::Running => {
                    assert_eq!(
                        current_on,
                        vec![task.cpu],
                        "{} Running but current on {current_on:?} (cpu {})",
                        task.id,
                        task.cpu
                    );
                    assert_eq!(queued, 0, "{} Running but queued", task.id);
                    assert!(!in_custody, "{} Running but in custody", task.id);
                }
                TaskState::Ready => {
                    assert!(current_on.is_empty(), "{} Ready but current", task.id);
                    if in_custody {
                        assert_eq!(queued, 0, "{} in custody but queued", task.id);
                    } else {
                        assert_eq!(queued, 1, "{} Ready queued {queued} times", task.id);
                    }
                }
                TaskState::Blocked => {
                    assert!(current_on.is_empty(), "{} blocked but current", task.id);
                    assert_eq!(queued, 0, "{} blocked but queued", task.id);
                    assert!(!in_custody, "{} blocked but in custody", task.id);
                }
                TaskState::Exited => {
                    assert!(current_on.is_empty(), "{} exited but current", task.id);
                    assert_eq!(queued, 0, "{} exited but queued", task.id);
                    assert!(!in_custody, "{} exited but in custody", task.id);
                }
            }
        }
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
        let mut g = GuestOs::new(GuestConfig::default(), 3);
        let a = g.spawn(0);
        let b = g.spawn(0);
        let acts = g.start(t(0));
        g.check_invariants();
        assert_eq!(g.current(0), Some(a));
        assert_eq!(g.task(b).state, TaskState::Ready);
        // vCPUs 1 and 2 have no work: they block in the hypervisor.
        let blocks = acts
            .iter()
            .filter(|a| matches!(a, GuestAction::Hypercall { op: SchedOp::Block, .. }))
            .count();
        assert_eq!(blocks, 2);
    }

    #[test]
    fn account_runtime_advances_vruntime() {
        let mut g = GuestOs::new(GuestConfig::default(), 1);
        let a = g.spawn(0);
        g.start(t(0));
        g.account_runtime(0, SimTime::from_millis(2));
        assert_eq!(g.task(a).vruntime, 2_000_000);
        assert_eq!(g.task(a).total_runtime, SimTime::from_millis(2));
    }

    #[test]
    fn tick_preempts_after_ideal_slice() {
        let mut g = GuestOs::new(GuestConfig::default(), 1);
        let a = g.spawn(0);
        let b = g.spawn(0);
        g.start(t(0));
        assert_eq!(g.current(0), Some(a));
        // Run a for 1 ms at a time; with 2 tasks the ideal slice is 3 ms, so
        // by the 4th tick the lead (4 ms > 3 ms) forces the switch.
        let mut switched_at = None;
        for i in 1..=6u64 {
            g.account_runtime(0, t(1));
            let out = g.tick(0, t(i), &views(1));
            if out
                .actions
                .iter()
                .any(|x| matches!(x, GuestAction::RunTask { task, .. } if *task == b))
            {
                switched_at = Some(i);
                break;
            }
        }
        g.check_invariants();
        assert_eq!(switched_at, Some(4), "CFS slice of 3 ms (+granularity)");
        assert_eq!(g.current(0), Some(b));
        assert_eq!(g.task(a).state, TaskState::Ready);
    }

    #[test]
    fn sole_task_is_never_preempted() {
        let mut g = GuestOs::new(GuestConfig::default(), 1);
        let a = g.spawn(0);
        g.start(t(0));
        for i in 1..=20u64 {
            g.account_runtime(0, t(1));
            let out = g.tick(0, t(i), &views(1));
            assert!(out.actions.is_empty(), "unexpected actions: {out:?}");
            assert!(out.sa_ack.is_none());
        }
        assert_eq!(g.current(0), Some(a));
    }

    #[test]
    fn block_switches_to_next_task() {
        let mut g = GuestOs::new(GuestConfig::default(), 1);
        let a = g.spawn(0);
        let b = g.spawn(0);
        g.start(t(0));
        let acts = g.block_current(0, t(1), &views(1));
        g.check_invariants();
        assert_eq!(g.task(a).state, TaskState::Blocked);
        assert_eq!(g.current(0), Some(b));
        assert!(acts.iter().any(|x| matches!(x, GuestAction::RunTask { .. })));
        assert!(!acts
            .iter()
            .any(|x| matches!(x, GuestAction::Hypercall { .. })));
    }

    #[test]
    fn block_with_empty_queue_blocks_the_vcpu() {
        let mut g = GuestOs::new(GuestConfig::default(), 1);
        let a = g.spawn(0);
        g.start(t(0));
        let acts = g.block_current(0, t(1), &views(1));
        g.check_invariants();
        assert_eq!(g.task(a).state, TaskState::Blocked);
        assert_eq!(g.current(0), None);
        assert!(acts.iter().any(|x| matches!(
            x,
            GuestAction::Hypercall { vcpu: 0, op: SchedOp::Block }
        )));
    }

    #[test]
    fn exit_removes_the_task_for_good() {
        let mut g = GuestOs::new(GuestConfig::default(), 1);
        let a = g.spawn(0);
        g.spawn(0);
        g.start(t(0));
        g.exit_current(0, t(1), &views(1));
        g.check_invariants();
        assert_eq!(g.task(a).state, TaskState::Exited);
        assert_ne!(g.current(0), Some(a));
    }

    #[test]
    fn ensure_current_fills_an_idle_vcpu() {
        let mut g = GuestOs::new(GuestConfig::default(), 2);
        let a = g.spawn(0);
        g.start(t(0));
        g.block_current(0, t(1), &views(2));
        assert_eq!(g.current(0), None);
        // Simulate a wake placing the task back (state juggling via wake is
        // exercised in balance tests; here drive the internals directly).
        let mut out = Vec::new();
        g.tasks[a.0].state = TaskState::Ready;
        let vr = g.rqs[0].normalized_vruntime(g.tasks[a.0].vruntime);
        g.tasks[a.0].vruntime = vr;
        g.rqs[0].enqueue(vr, a);
        let acts = g.ensure_current(0);
        out.extend(acts.iter().cloned());
        assert_eq!(g.current(0), Some(a));
        g.check_invariants();
    }

    #[test]
    fn migrate_queued_normalizes_vruntime() {
        let mut g = GuestOs::new(GuestConfig::default(), 2);
        let a = g.spawn(0);
        let b = g.spawn(0);
        let c = g.spawn(1);
        g.start(t(0));
        // Run vcpu1's task far ahead so rq1.min_vruntime is large.
        g.account_runtime(1, t(50));
        let _ = c;
        // b is queued on rq0 with vruntime 0; migrate to rq1.
        let mut out = Vec::new();
        g.migrate_queued(b, 1, &mut out);
        g.check_invariants();
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
        let mut g = GuestOs::new(GuestConfig::default(), 1);
        g.spawn(0);
        g.spawn(0);
        g.start(t(0));
        let calm = g.rt_avg(0, &VcpuView::running());
        let stolen = g.rt_avg(0, &VcpuView::preempted(1.0));
        assert!((calm - 2.0).abs() < 1e-9);
        assert!((stolen - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn double_start_panics() {
        let mut g = GuestOs::new(GuestConfig::default(), 1);
        g.spawn(0);
        g.start(t(0));
        g.start(t(0));
    }
}
