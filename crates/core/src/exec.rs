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
use irs_workloads::Op;
use irs_xen::{RunState, VcpuRef};

/// Futex grace: how long a blocking wait spins before actually sleeping
/// (glibc adaptive-mutex / futex fast-path behaviour). This is the brief
/// spinning on blocking primitives that PLE reacts to.
const FUTEX_GRACE: SimTime = SimTime::from_micros(30);

impl System {
    /// The one writer of a task's activity. Every change must be one of
    /// [`Activity::may_become`]'s edges: a checked run or a debug build
    /// reports any other as the `activity-transition` invariant. In-place
    /// edits of a segment's `remaining` change no activity and do not
    /// come through here.
    pub(crate) fn set_activity(&mut self, vm: usize, task: usize, to: Activity) {
        let from = self.domains[vm].task_activity[task];
        if self.cfg.check || cfg!(debug_assertions) {
            crate::check::activity_transition(self, vm, task, from, to);
        }
        self.domains[vm].task_activity[task] = to;
    }

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
            Activity::Spin => self.arm_ple(vm, vcpu),
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

    /// Arms a PLE window for a spinner, when the hypervisor
    /// answers pause-loop exits.
    fn arm_ple(&mut self, vm: usize, vcpu: usize) {
        if self.hv.config().mode != irs_xen::HvMode::Ple {
            return;
        }
        self.domains[vm].ple_gen[vcpu] += 1;
        let gen = self.domains[vm].ple_gen[vcpu];
        self.queue.schedule(
            self.now + irs_xen::PLE_WINDOW,
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
    /// time or waits. Must be called inside an open execution window, on a
    /// task in `Resume`.
    pub(crate) fn advance_task(&mut self, vm: usize, task: usize) {
        loop {
            // A zero-cost step (a release, a barrier arrival, a hand-off)
            // can grant another task whose wakeup preemption deschedules
            // *this* one; the same call chain may even dispatch it again,
            // and that nested dispatch advances it itself. Either way this
            // loop no longer owns the task: stop unless it still executes
            // and still awaits its next step. A descheduled task resumes
            // from exactly this program point when it is scheduled again.
            let cpu = self.domains[vm].os.task(TaskId(task)).cpu;
            let still_ours = self.domains[vm].os.current(cpu) == Some(TaskId(task))
                && self.domains[vm].exec[cpu].map(|c| c.task) == Some(task)
                && self.domains[vm].task_activity[task] == Activity::Resume;
            if !still_ours {
                return;
            }
            let op = {
                let d = &mut self.domains[vm];
                d.tasks[task].runner.next(&mut d.space)
            };
            let Some(op) = op else {
                self.finish_task(vm, task);
                return;
            };
            match op {
                Op::Compute { mean_ns, jitter } => {
                    let ns = self.rng.jittered(mean_ns, jitter);
                    let penalty = std::mem::take(&mut self.domains[vm].tasks[task].penalty_ns);
                    let total = ns + penalty;
                    self.set_activity(
                        vm,
                        task,
                        Activity::Computing {
                            remaining: total,
                            useful: ns,
                        },
                    );
                    let d = &mut self.domains[vm];
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
                Op::Lock(l) => {
                    let outcome = self.domains[vm].space.lock(l).acquire(TaskId(task));
                    match outcome {
                        AcquireOutcome::Acquired => continue,
                        AcquireOutcome::MustWait(mode) => {
                            self.wait(vm, task, mode);
                            return;
                        }
                    }
                }
                Op::Unlock(l) => {
                    let outcome = self.domains[vm].space.lock(l).release(TaskId(task));
                    if let Some(next) = outcome.next_holder {
                        self.grant(vm, next.0);
                    }
                }
                Op::Barrier(b) => {
                    let outcome = self.domains[vm].space.barrier(b).arrive(TaskId(task));
                    match outcome {
                        BarrierOutcome::Released { waiters } => {
                            for w in waiters {
                                self.grant(vm, w.0);
                            }
                        }
                        BarrierOutcome::MustWait(mode) => {
                            self.wait(vm, task, mode);
                            return;
                        }
                    }
                }
                Op::Push(c) => {
                    // The pushed item carries the producer's open request
                    // stamp (if any) downstream, so latency spans tiers in
                    // a pipeline service.
                    let stamp = self.domains[vm].tasks[task].req_open.take();
                    let outcome = self.domains[vm].space.channel(c).push(TaskId(task), stamp);
                    match outcome {
                        PushOutcome::Pushed { wake_consumer } => {
                            if let Some(w) = wake_consumer {
                                // Handed straight to a blocked consumer;
                                // the item never sits in the queue.
                                if stamp.is_some() {
                                    self.domains[vm].tasks[w.0].req_open = stamp;
                                }
                                self.grant(vm, w.0);
                            }
                        }
                        PushOutcome::MustWait => {
                            self.wait(vm, task, WaitMode::Block);
                            return;
                        }
                    }
                }
                Op::Pop(c) => {
                    let outcome = self.domains[vm].space.channel(c).pop(TaskId(task));
                    match outcome {
                        PopOutcome::Popped {
                            stamp,
                            wake_producer,
                        } => {
                            if stamp.is_some() {
                                self.domains[vm].tasks[task].req_open = stamp;
                            }
                            if let Some(p) = wake_producer {
                                // The producer's blocked push completes now:
                                // the channel moved its item into the tail.
                                self.grant(vm, p.0);
                            }
                        }
                        PopOutcome::MustWait => {
                            self.wait(vm, task, WaitMode::Block);
                            return;
                        }
                    }
                }
                Op::Sleep { ns } => {
                    self.sleep_task_until(vm, task, self.now + SimTime::from_nanos(ns));
                    return;
                }
                Op::SafepointPoll(e) => {
                    let outcome = self.domains[vm]
                        .space
                        .epoch(e)
                        .poll(TaskId(task), self.now.as_nanos());
                    match outcome {
                        EpochPoll::Pass => {}
                        EpochPoll::Released { waiters } => {
                            for w in waiters {
                                self.grant(vm, w.0);
                            }
                        }
                        EpochPoll::MustWait(mode) => {
                            self.wait(vm, task, mode);
                            return;
                        }
                    }
                }
                Op::AwaitArrival(a) => {
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
                Op::RequestStart => {
                    self.domains[vm].tasks[task].req_open = Some(self.now);
                }
                Op::RequestDone => {
                    let d = &mut self.domains[vm];
                    if let Some(t0) = d.tasks[task].req_open.take() {
                        let us = self.now.saturating_sub(t0).as_nanos() as f64 / 1e3;
                        d.latencies_us.push(us);
                    }
                    d.requests += 1;
                }
                Op::LoopStart { .. } | Op::LoopEnd | Op::Jump { .. } | Op::StealOrExit(_) => {
                    unreachable!("the runner resolves control flow")
                }
            }
        }
    }

    /// `task`'s program has ended: it exits, and leaves its gang epochs.
    fn finish_task(&mut self, vm: usize, task: usize) {
        self.set_activity(vm, task, Activity::Done);
        let d = &mut self.domains[vm];
        d.live_tasks -= 1;
        if d.live_tasks == 0 {
            d.completed_at = Some(self.now);
        }
        let vcpu = d.os.task(TaskId(task)).cpu;
        self.fill_views(vm);
        let d = &mut self.domains[vm];
        let acts = d.os.exit_current(vcpu, &d.view_buf);
        self.apply_guest_actions(vm, acts);
        // The task never polls its gang epochs again: leave them,
        // releasing any safepoint only it held up. This comes after the
        // exit, since a grant's wake can preempt the exiting task.
        let epochs = self.domains[vm].tasks[task]
            .runner
            .program()
            .epochs_polled();
        let now = self.now.as_nanos();
        for e in epochs {
            let released = self.domains[vm].space.epoch(e).leave(TaskId(task), now);
            for w in released {
                self.grant(vm, w.0);
            }
        }
    }

    // ==================================================================
    // waits, grants, wakes
    // ==================================================================

    /// Puts the current task `task` to sleep until the absolute instant
    /// `at`, waking through the ordinary timer path.
    fn sleep_task_until(&mut self, vm: usize, task: usize, at: SimTime) {
        self.set_activity(vm, task, Activity::Sleeping);
        self.queue.schedule(
            at,
            Event::WakeTimer {
                vm: vm as u16,
                task: task as u32,
            },
        );
        self.block_current_of(vm, task);
    }

    /// Begins a wait: `task` spins until granted. A blocking wait spins
    /// through the futex grace (the fast hand-off path) and then sleeps; a
    /// spinning wait burns PAUSE loops and, with paravirtual spin-then-halt
    /// configured, halts once its budget runs out until the releasing owner
    /// kicks it (pv-spinlock semantics). A spin with no budget never
    /// expires.
    fn wait(&mut self, vm: usize, task: usize, mode: WaitMode) {
        self.set_activity(vm, task, Activity::Spin);
        let budget = match mode {
            WaitMode::Block => Some(FUTEX_GRACE),
            WaitMode::Spin => self.cfg.pv_spin,
        };
        if let Some(budget) = budget {
            let d = &mut self.domains[vm];
            d.task_wait_gen[task] += 1;
            let gen = d.task_wait_gen[task];
            self.queue.schedule(
                self.now + budget,
                Event::WaitExpire {
                    vm: vm as u16,
                    task: task as u32,
                    gen,
                },
            );
        }
        let vcpu = self.domains[vm].os.task(TaskId(task)).cpu;
        self.arm_ple(vm, vcpu);
    }

    /// A wait's spin budget ran out before its grant: sleep until granted.
    pub(crate) fn on_wait_expire(&mut self, vm: usize, task: usize, gen: u64) {
        if self.domains[vm].task_wait_gen[task] != gen {
            return; // granted in the meantime
        }
        self.domains[vm].task_wait_gen[task] += 1;
        self.set_activity(vm, task, Activity::BlockedSync);
        let tid = TaskId(task);
        let vcpu = self.domains[vm].os.task(tid).cpu;
        if self.domains[vm].os.current(vcpu) == Some(tid) {
            self.block_current_of(vm, task);
        } else {
            // Guest CFS descheduled the spinner; take it off its runqueue
            // directly (the futex sleep path of a ready task).
            self.domains[vm].os.block_queued(tid);
        }
    }

    /// Completes `task`'s wait. A spinner executing right now proceeds at
    /// once, any other spinner the next time it executes; a sleeper is
    /// woken (a futex wake, or the kick of a pv-halted spinner).
    pub(crate) fn grant(&mut self, vm: usize, task: usize) {
        match self.domains[vm].task_activity[task] {
            Activity::Spin => {
                self.set_activity(vm, task, Activity::Resume);
                let d = &mut self.domains[vm];
                d.task_wait_gen[task] += 1; // cancels the wait expiry
                let vcpu = d.os.task(TaskId(task)).cpu;
                if d.exec[vcpu].is_some_and(|ctx| ctx.task == task) {
                    self.sync_exec(vm, vcpu);
                    self.advance_task(vm, task);
                }
            }
            Activity::BlockedSync => {
                self.set_activity(vm, task, Activity::Resume);
                self.wake_task(vm, task);
            }
            other => debug_assert!(false, "grant to a non-waiting task ({other:?})"),
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
        let acts = d.os.block_current(vcpu, &d.view_buf);
        self.apply_guest_actions(vm, acts);
    }
}
