//! The task execution engine.
//!
//! The single rule everything hangs on: **a task makes progress exactly
//! while it is guest-current on a vCPU that the hypervisor is running.**
//! [`System::begin_exec`] opens such a window, [`System::end_exec`] closes
//! it and charges the elapsed time to the task (compute progress) and the
//! guest scheduler (vruntime). Spinning tasks hold a window without making
//! progress — CPU burned, nothing earned — which is how LWP wastes a
//! VM's fair share without lowering its utilization (§2.3).

use crate::domain::Activity;
use crate::events::Event;
use crate::system::System;
use irs_guest::TaskId;
use irs_sim::SimTime;
use irs_sync::{AcquireOutcome, BarrierOutcome, EpochPoll, PopOutcome, PushOutcome, WaitMode};
use irs_workloads::Step;
use irs_xen::{RunState, VcpuRef};

/// Futex grace: how long a blocking wait spins before actually sleeping
/// (glibc adaptive-mutex / futex fast-path behaviour). This is the brief
/// spinning on blocking primitives that PLE reacts to.
const FUTEX_GRACE: SimTime = SimTime::from_micros(30);

impl System {
    // ==================================================================
    // execution windows
    // ==================================================================

    /// Opens an execution window for the current task of `(vm, vcpu)`.
    /// No-op unless the vCPU is hypervisor-running and a current exists.
    pub(crate) fn begin_exec(&mut self, vm: usize, vcpu: usize) {
        let Some(task) = self.domains[vm].os.current(vcpu) else {
            return;
        };
        let v = VcpuRef::new(irs_xen::VmId(vm), vcpu);
        if self.hv.vcpu_state(v) != RunState::Running {
            return;
        }
        if let Some(ctx) = self.domains[vm].exec[vcpu] {
            if ctx.task == task.0 {
                return; // already executing
            }
            // A switch without a StopTask in between would be a bug.
            debug_assert!(false, "exec ctx leaked across a task switch");
        }
        self.domains[vm].exec[vcpu] = Some(crate::domain::ExecCtx {
            task: task.0,
            since: self.now,
        });
        match self.domains[vm].task_activity[task.0] {
            Activity::Computing { remaining, .. } => {
                let d = &mut self.domains[vm];
                d.task_step_gen[task.0] += 1;
                let gen = d.task_step_gen[task.0];
                self.queue.schedule(
                    self.now + SimTime::from_nanos(remaining),
                    Event::TaskStep {
                        vm: vm as u16,
                        task: task.0 as u32,
                        gen,
                    },
                );
            }
            Activity::Resume => self.advance_task(vm, task.0),
            Activity::SpinWait { granted: true } | Activity::GraceSpin { granted: true } => {
                self.domains[vm].task_activity[task.0] = Activity::Resume;
                self.advance_task(vm, task.0);
            }
            Activity::SpinWait { granted: false } | Activity::GraceSpin { granted: false } => {
                self.arm_ple(vm, vcpu)
            }
            Activity::BlockedSync | Activity::Sleeping | Activity::Done => {
                unreachable!("a waiting task cannot be current")
            }
        }
    }

    /// Closes the execution window on `(vm, vcpu)`, charging elapsed time.
    /// Idempotent.
    pub(crate) fn end_exec(&mut self, vm: usize, vcpu: usize) {
        let Some(ctx) = self.domains[vm].exec[vcpu].take() else {
            return;
        };
        let delta = self.now.saturating_sub(ctx.since);
        let d = &mut self.domains[vm];
        d.os.account_runtime(vcpu, delta);
        if let Activity::Computing { remaining, .. } = &mut d.task_activity[ctx.task] {
            *remaining = remaining.saturating_sub(delta.as_nanos());
        }
        d.task_step_gen[ctx.task] += 1;
        d.ple_gen[vcpu] += 1;
    }

    /// Charges the open window up to `now` without closing it (tick-path
    /// accounting; outstanding `TaskStep` timers stay valid because their
    /// absolute firing times do not move).
    pub(crate) fn sync_exec(&mut self, vm: usize, vcpu: usize) {
        let Some(ctx) = &mut self.domains[vm].exec[vcpu] else {
            return;
        };
        let delta = self.now.saturating_sub(ctx.since);
        if delta.is_zero() {
            return;
        }
        ctx.since = self.now;
        let task = ctx.task;
        let d = &mut self.domains[vm];
        d.os.account_runtime(vcpu, delta);
        if let Activity::Computing { remaining, .. } = &mut d.task_activity[task] {
            *remaining = remaining.saturating_sub(delta.as_nanos());
        }
    }

    /// Arms a PLE window for an ungranted spinner (PLE strategy only).
    fn arm_ple(&mut self, vm: usize, vcpu: usize) {
        let Some(window) = self.strategy.ple_window() else {
            return;
        };
        self.domains[vm].ple_gen[vcpu] += 1;
        let gen = self.domains[vm].ple_gen[vcpu];
        self.queue.schedule(
            self.now + window,
            Event::PleWindow {
                vm: vm as u16,
                vcpu: vcpu as u32,
                gen,
            },
        );
    }

    // ==================================================================
    // the program step machine
    // ==================================================================

    /// Drives `task`'s program forward until it produces a step that takes
    /// time or waits. Must be called inside an open execution window.
    pub(crate) fn advance_task(&mut self, vm: usize, task: usize) {
        loop {
            // A zero-cost step (e.g. a lock release) can wake another task
            // whose wakeup preemption deschedules *this* one. Stop driving
            // it then — it resumes from exactly this program point when it
            // is scheduled again.
            let cpu = self.domains[vm].os.task(TaskId(task)).cpu;
            let still_executing = self.domains[vm].os.current(cpu) == Some(TaskId(task))
                && self.domains[vm].exec[cpu].map(|c| c.task) == Some(task);
            if !still_executing {
                self.domains[vm].task_activity[task] = Activity::Resume;
                return;
            }
            let step = {
                let d = &mut self.domains[vm];
                d.tasks[task].runner.next(&mut self.rng, &mut d.space)
            };
            match step {
                Step::Compute { ns } => {
                    let d = &mut self.domains[vm];
                    let penalty = std::mem::take(&mut d.tasks[task].penalty_ns);
                    let total = ns + penalty;
                    d.task_activity[task] = Activity::Computing {
                        remaining: total,
                        useful: ns,
                    };
                    d.task_step_gen[task] += 1;
                    let gen = d.task_step_gen[task];
                    self.queue.schedule(
                        self.now + SimTime::from_nanos(total),
                        Event::TaskStep {
                            vm: vm as u16,
                            task: task as u32,
                            gen,
                        },
                    );
                    return;
                }
                Step::Acquire(l) => {
                    let outcome = self.domains[vm].space.lock(l).acquire(TaskId(task));
                    match outcome {
                        AcquireOutcome::Acquired => continue,
                        AcquireOutcome::MustWait(WaitMode::Block) => {
                            self.wait_block(vm, task);
                            return;
                        }
                        AcquireOutcome::MustWait(WaitMode::Spin) => {
                            self.wait_spin(vm, task);
                            return;
                        }
                    }
                }
                Step::Release(l) => {
                    let outcome = self.domains[vm].space.lock(l).release(TaskId(task));
                    if let Some((next, mode)) = outcome.next_holder {
                        self.grant(vm, next.0, mode);
                    }
                }
                Step::Arrive(b) => {
                    let outcome = self.domains[vm].space.barrier(b).arrive(TaskId(task));
                    match outcome {
                        BarrierOutcome::Released { waiters, mode } => {
                            for w in waiters {
                                self.grant(vm, w.0, mode);
                            }
                        }
                        BarrierOutcome::MustWait(WaitMode::Block) => {
                            self.wait_block(vm, task);
                            return;
                        }
                        BarrierOutcome::MustWait(WaitMode::Spin) => {
                            self.wait_spin(vm, task);
                            return;
                        }
                    }
                }
                Step::Push(c) => {
                    let outcome = self.domains[vm].space.channel(c).push(TaskId(task));
                    match outcome {
                        PushOutcome::Pushed { wake_consumer } => {
                            // The pushed item carries the producer's open
                            // request stamp (if any) downstream, so latency
                            // spans tiers in a pipeline service.
                            let stamp = self.domains[vm].tasks[task].req_open.take();
                            match wake_consumer {
                                Some(w) => {
                                    // Handed straight to a blocked consumer;
                                    // the item never sits in the queue.
                                    if stamp.is_some() {
                                        self.domains[vm].tasks[w.0].req_open = stamp;
                                    }
                                    self.resume_waiter(vm, w.0);
                                }
                                None => self.domains[vm].req_ledger[c.0].push_back(stamp),
                            }
                        }
                        PushOutcome::MustWait => {
                            self.wait_block(vm, task);
                            return;
                        }
                    }
                }
                Step::Pop(c) => {
                    let outcome = self.domains[vm].space.channel(c).pop(TaskId(task));
                    match outcome {
                        PopOutcome::Popped { wake_producer } => {
                            let entry = self.domains[vm].req_ledger[c.0].pop_front();
                            debug_assert!(entry.is_some(), "request ledger underflow");
                            if let Some(Some(t0)) = entry {
                                self.domains[vm].tasks[task].req_open = Some(t0);
                            }
                            if let Some(p) = wake_producer {
                                // The producer's blocked push completes now:
                                // its item (and stamp) enters the queue tail.
                                let stamp = self.domains[vm].tasks[p.0].req_open.take();
                                self.domains[vm].req_ledger[c.0].push_back(stamp);
                                self.resume_waiter(vm, p.0);
                            }
                        }
                        PopOutcome::MustWait => {
                            self.wait_block(vm, task);
                            return;
                        }
                        PopOutcome::Disconnected => {}
                    }
                }
                Step::Close(c) => {
                    let woken = self.domains[vm].space.channel(c).close();
                    for w in woken {
                        self.resume_waiter(vm, w.0);
                    }
                }
                Step::Sleep { ns } => {
                    self.sleep_task_until(vm, task, self.now + SimTime::from_nanos(ns));
                    return;
                }
                Step::SleepUntil { at_ns } => {
                    let at = SimTime::from_nanos(at_ns);
                    if at > self.now {
                        self.sleep_task_until(vm, task, at);
                        return;
                    }
                    // Anchor already in the past: proceed immediately.
                }
                Step::AlignTo { period_ns, offset_ns } => {
                    // Next boundary `k * period + offset` strictly after now.
                    let now_ns = self.now.as_nanos();
                    let next = if now_ns < offset_ns {
                        offset_ns
                    } else {
                        ((now_ns - offset_ns) / period_ns + 1) * period_ns + offset_ns
                    };
                    self.sleep_task_until(vm, task, SimTime::from_nanos(next));
                    return;
                }
                Step::SafepointPoll(e) => {
                    let outcome = self.domains[vm]
                        .space
                        .epoch(e)
                        .poll(TaskId(task), self.now.as_nanos());
                    match outcome {
                        EpochPoll::Pass => {}
                        EpochPoll::Released { waiters, mode } => {
                            for w in waiters {
                                self.grant(vm, w.0, mode);
                            }
                        }
                        EpochPoll::MustWait(WaitMode::Block) => {
                            self.wait_block(vm, task);
                            return;
                        }
                        EpochPoll::MustWait(WaitMode::Spin) => {
                            self.wait_spin(vm, task);
                            return;
                        }
                    }
                }
                Step::AwaitArrival(a) => {
                    // Open-loop source: the next request exists at its
                    // scheduled arrival instant regardless of when the
                    // serving task gets here — queueing delay while the
                    // task lags counts toward the request's latency
                    // (no coordinated omission).
                    let at = SimTime::from_nanos(self.domains[vm].space.arrival(a).next_arrival_ns());
                    self.domains[vm].tasks[task].req_open = Some(at);
                    if at > self.now {
                        self.sleep_task_until(vm, task, at);
                        return;
                    }
                }
                Step::RequestStart => {
                    self.domains[vm].tasks[task].req_open = Some(self.now);
                }
                Step::RequestDone => {
                    let d = &mut self.domains[vm];
                    if let Some(t0) = d.tasks[task].req_open.take() {
                        let us = self.now.saturating_sub(t0).as_nanos() as f64 / 1e3;
                        d.latencies_us.push(us);
                    }
                    d.requests += 1;
                }
                Step::Done => {
                    let d = &mut self.domains[vm];
                    d.task_activity[task] = Activity::Done;
                    d.live_tasks -= 1;
                    if d.live_tasks == 0 {
                        d.completed_at = Some(self.now);
                    }
                    let vcpu = d.os.task(TaskId(task)).cpu;
                    self.fill_views(vm);
                    let d = &mut self.domains[vm];
                    let acts = d.os.exit_current(vcpu, self.now, &d.view_buf);
                    self.apply_guest_actions(vm, acts);
                    return;
                }
            }
        }
    }

    // ==================================================================
    // waits, grants, wakes
    // ==================================================================

    /// Puts the current task `task` to sleep until the absolute instant
    /// `at`, waking through the ordinary timer path.
    fn sleep_task_until(&mut self, vm: usize, task: usize, at: SimTime) {
        self.domains[vm].task_activity[task] = Activity::Sleeping;
        self.queue.schedule(
            at,
            Event::WakeTimer {
                vm: vm as u16,
                task: task as u32,
            },
        );
        self.block_current_of(vm, task);
    }

    /// Begins a blocking wait: spin through the futex grace window first
    /// (the fast hand-off path), then actually sleep when it expires.
    fn wait_block(&mut self, vm: usize, task: usize) {
        let d = &mut self.domains[vm];
        d.task_activity[task] = Activity::GraceSpin { granted: false };
        d.task_wait_gen[task] += 1;
        let gen = d.task_wait_gen[task];
        self.queue.schedule(
            self.now + FUTEX_GRACE,
            Event::GraceExpire {
                vm: vm as u16,
                task: task as u32,
                gen,
            },
        );
        let vcpu = self.domains[vm].os.task(TaskId(task)).cpu;
        self.arm_ple(vm, vcpu);
    }

    /// Begins a spin wait. Pure user-level spinning burns CPU until
    /// granted; with paravirtual spin-then-halt configured, an expiry timer
    /// converts an over-budget spin into a halt that the releasing owner
    /// kicks awake (pv-spinlock semantics).
    fn wait_spin(&mut self, vm: usize, task: usize) {
        self.domains[vm].task_activity[task] = Activity::SpinWait { granted: false };
        let vcpu = self.domains[vm].os.task(TaskId(task)).cpu;
        self.arm_ple(vm, vcpu);
        if let Some(budget) = self.cfg.pv_spin {
            let d = &mut self.domains[vm];
            d.task_wait_gen[task] += 1;
            let gen = d.task_wait_gen[task];
            self.queue.schedule(
                self.now + budget,
                Event::PvSpinExpire {
                    vm: vm as u16,
                    task: task as u32,
                    gen,
                },
            );
        }
    }

    /// A paravirtual spin budget ran out: halt the waiter until kicked.
    pub(crate) fn on_pv_spin_expire(&mut self, vm: usize, task: usize, gen: u64) {
        if self.domains[vm].task_wait_gen[task] != gen {
            return; // granted in the meantime
        }
        if self.domains[vm].task_activity[task] != (Activity::SpinWait { granted: false }) {
            return;
        }
        self.domains[vm].task_wait_gen[task] += 1;
        self.domains[vm].task_activity[task] = Activity::BlockedSync;
        let tid = TaskId(task);
        let vcpu = self.domains[vm].os.task(tid).cpu;
        if self.domains[vm].os.current(vcpu) == Some(tid) {
            self.block_current_of(vm, task);
        } else {
            let acts = self.domains[vm].os.block_queued(tid);
            self.apply_guest_actions(vm, acts);
        }
    }

    /// The grace window of a blocking wait ran out: actually sleep.
    pub(crate) fn on_grace_expire(&mut self, vm: usize, task: usize, gen: u64) {
        if self.domains[vm].task_wait_gen[task] != gen {
            return; // granted (or otherwise resolved) in the meantime
        }
        if self.domains[vm].task_activity[task] != (Activity::GraceSpin { granted: false }) {
            return;
        }
        self.domains[vm].task_wait_gen[task] += 1;
        self.domains[vm].task_activity[task] = Activity::BlockedSync;
        let tid = TaskId(task);
        let vcpu = self.domains[vm].os.task(tid).cpu;
        if self.domains[vm].os.current(vcpu) == Some(tid) {
            self.block_current_of(vm, task);
        } else {
            // Guest CFS descheduled the grace-spinner; take it off its
            // runqueue directly (the futex sleep path of a ready task).
            let acts = self.domains[vm].os.block_queued(tid);
            self.apply_guest_actions(vm, acts);
        }
    }

    /// Hands a lock/barrier slot to `task` according to its wait mode.
    fn grant(&mut self, vm: usize, task: usize, mode: WaitMode) {
        match mode {
            WaitMode::Block => self.resume_waiter(vm, task),
            WaitMode::Spin => {
                let d = &mut self.domains[vm];
                match &mut d.task_activity[task] {
                    Activity::SpinWait { granted } => {
                        *granted = true;
                        d.task_wait_gen[task] += 1; // cancels any pv timer
                        // A spinner executing right now notices instantly.
                        let vcpu = d.os.task(TaskId(task)).cpu;
                        let executing = d.exec[vcpu].is_some_and(|ctx| ctx.task == task);
                        if executing {
                            self.sync_exec(vm, vcpu);
                            self.domains[vm].task_activity[task] = Activity::Resume;
                            self.advance_task(vm, task);
                        }
                    }
                    Activity::BlockedSync => {
                        // A pv-halted spin waiter: the release kicks it.
                        d.task_activity[task] = Activity::Resume;
                        self.wake_task(vm, task);
                    }
                    other => debug_assert!(false, "spin grant to {other:?}"),
                }
            }
        }
    }

    /// A blocking wait completed on `task`'s behalf: depending on where the
    /// waiter is in its futex path, this is a fast in-grace hand-off or a
    /// real wake-up.
    fn resume_waiter(&mut self, vm: usize, task: usize) {
        match self.domains[vm].task_activity[task] {
            Activity::GraceSpin { granted: false } => {
                let d = &mut self.domains[vm];
                d.task_wait_gen[task] += 1; // cancels the grace expiry
                d.task_activity[task] = Activity::GraceSpin { granted: true };
                let vcpu = d.os.task(TaskId(task)).cpu;
                let executing = d.exec[vcpu].is_some_and(|ctx| ctx.task == task);
                if executing {
                    self.sync_exec(vm, vcpu);
                    self.domains[vm].task_activity[task] = Activity::Resume;
                    self.advance_task(vm, task);
                }
            }
            Activity::BlockedSync => {
                self.domains[vm].task_activity[task] = Activity::Resume;
                self.wake_task(vm, task);
            }
            other => debug_assert!(false, "resume of a non-waiting task ({other:?})"),
        }
    }

    /// Wakes a blocked task through the guest's wakeup-balancing path.
    pub(crate) fn wake_task(&mut self, vm: usize, task: usize) {
        self.fill_views(vm);
        let d = &mut self.domains[vm];
        let acts = d.os.wake(TaskId(task), &d.view_buf);
        self.apply_guest_actions(vm, acts);
    }

    /// The current task `task` stops executing and waits: route through the
    /// guest's block path (which may pick a next task, idle-pull, or block
    /// the vCPU in the hypervisor).
    fn block_current_of(&mut self, vm: usize, task: usize) {
        let vcpu = self.domains[vm].os.task(TaskId(task)).cpu;
        debug_assert_eq!(self.domains[vm].os.current(vcpu), Some(TaskId(task)));
        self.fill_views(vm);
        let d = &mut self.domains[vm];
        let acts = d.os.block_current(vcpu, self.now, &d.view_buf);
        self.apply_guest_actions(vm, acts);
    }
}
