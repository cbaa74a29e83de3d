//! Online scheduler-invariant sanitizer.
//!
//! When enabled (per-run via [`crate::SystemConfig::check`] or process-wide
//! via [`set_check_enabled`]), [`System::step`](crate::System::step) checks
//! eight families of cross-layer invariants (fifteen named checks) after
//! *every* event it dispatches; the eighth also checks each change of a
//! task's activity as it is made:
//!
//! 1. **Credit conservation** — per-vCPU credits stay inside
//!    `[CREDIT_FLOOR, CREDIT_CAP]`, never increase outside an accounting
//!    pass, and one accounting pass never mints more than the machine-wide
//!    pot (`CREDITS_PER_ACCT × n_pcpus`).
//! 2. **Runstate legality** — every runstate-clock component is
//!    non-decreasing and the components of each vCPU always sum to the
//!    current virtual time (no lost or double-counted intervals).
//! 3. **pCPU exclusivity** — at most one `Running` vCPU is homed on any
//!    pCPU, and the pCPU's `current` pointer agrees with the runstates in
//!    both directions. (So the machine can never report more `Running`
//!    vCPUs than it has pCPUs.)
//! 4. **No double-run** — a guest task is current on at most one vCPU, a
//!    current task is `Running` with a matching `cpu`, and CFS never holds
//!    a blocked or exited task current.
//! 5. **SA protocol** — `sa_pending` is never re-armed while already
//!    pending, and the SA generation counter never runs backwards.
//! 6. **Vruntime monotonicity** — a task's CFS vruntime never decreases
//!    except across a migration (where CFS re-baselines it against the
//!    destination queue).
//! 7. **SA freeze hygiene** — a pCPU frozen on an SA round (`sa_wait`)
//!    always has the waited-on vCPU current with its round pending, and no
//!    freeze outlives the completion limit by more than the checker's
//!    slack: `sa_wait` is always cleared and no vCPU freezes a pCPU
//!    forever, even under injected faults ([`crate::faults`]).
//! 8. **Task activity** — what the execution engine says a task is doing
//!    agrees with the guest's `TaskState`: exited ⇔ `Done`, blocked ⇔
//!    `BlockedSync` or `Sleeping`, ready or running ⇔ `Resume`,
//!    `Computing` or `Spin`, and a task with an open execution window is
//!    `Computing` or `Spin`, never `Resume` (`task-activity`). Every
//!    change of activity is one of the nine legal edges, checked as it is
//!    made rather than after the event (`activity-transition`).
//!
//! The check makes one pass per entity kind: every vCPU (probed in bulk by
//! [`irs_xen::Hypervisor::vcpu_probes`]), every pCPU, then each VM's
//! current tasks and tasks. Each entity is checked against its baseline
//! entry, which is then overwritten in place with what was just read, so
//! the steady state allocates nothing. The per-entity checks take the
//! probed values as plain arguments.
//!
//! A violation panics with the invariant's name, the offending values, and
//! the last 120 lines of the merged typed timeline
//! ([`crate::System::trace_dump`]) so the decision sequence that led to
//! the corruption is visible.

use crate::domain::Activity;
use crate::events::Event;
use crate::system::System;
use irs_guest::{TaskId, TaskState};
use irs_sim::SimTime;
use irs_xen::credit::{CREDITS_PER_ACCT, CREDIT_CAP, CREDIT_FLOOR};
use irs_xen::{PcpuId, RunState, VcpuProbe, VcpuRef, SA_COMPLETION_LIMIT, TICK_PERIOD};
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide sanitizer switch (see [`set_check_enabled`]).
static CHECK_ENABLED: AtomicBool = AtomicBool::new(false);

/// Trace lines a violation report carries.
const REPORT_LINES: usize = 120;

/// Enables or disables the invariant sanitizer for every [`System`] built
/// afterwards, regardless of its [`crate::SystemConfig`]. This is how
/// `figures --check` arms checking across a whole experiment sweep without
/// threading a flag through every call site.
pub fn set_check_enabled(enabled: bool) {
    CHECK_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the process-wide sanitizer switch is on.
pub fn check_enabled() -> bool {
    CHECK_ENABLED.load(Ordering::Relaxed)
}

/// Per-task baseline the vruntime-monotonicity check compares against.
#[derive(Debug, Clone, Copy)]
struct TaskBase {
    vruntime: u64,
    migrations: u64,
    /// The vCPU holding the task current in the step being checked; set by
    /// the current-task pass and cleared by the task pass.
    held_on: Option<usize>,
}

/// The sanitizer's rolling state: the last validated value of everything
/// whose *change* (not just value) is constrained.
#[derive(Debug, Clone)]
pub(crate) struct Checker {
    /// Per-vCPU probes, in [`irs_xen::Hypervisor::vcpu_probes`] order.
    vcpus: Vec<VcpuProbe>,
    /// Per-VM, per-task baselines.
    tasks: Vec<Vec<TaskBase>>,
    /// Per-pCPU: the `Running` vCPU homed there in the step being checked;
    /// set by the vCPU pass and cleared by the pCPU pass.
    running_on: Vec<Option<VcpuRef>>,
    /// Per-pCPU: the SA freeze observed there (`(vcpu, generation, since)`),
    /// where `since` is the first step at which this exact freeze was seen.
    /// Drives the no-freeze-forever check.
    sa_wait_since: Vec<Option<(VcpuRef, u64, SimTime)>>,
}

impl Checker {
    /// Takes the freshly booted system as the first baseline.
    pub(crate) fn new(sys: &System) -> Self {
        let hv = sys.hypervisor();
        let tasks = (0..hv.n_vms())
            .map(|vm| {
                let os = sys.guest(vm);
                (0..os.n_tasks())
                    .map(|t| {
                        let task = os.task(TaskId(t));
                        TaskBase {
                            vruntime: task.vruntime,
                            migrations: task.migrations,
                            held_on: None,
                        }
                    })
                    .collect()
            })
            .collect();
        Checker {
            vcpus: hv.vcpu_probes(sys.now()).collect(),
            tasks,
            running_on: vec![None; hv.n_pcpus()],
            sa_wait_since: vec![None; hv.n_pcpus()],
        }
    }

    /// Validates every invariant against the post-`ev` system state, rolling
    /// each baseline forward as it goes. Panics with a trace dump on
    /// violation.
    pub(crate) fn check(&mut self, sys: &System, ev: Event) {
        let step = Step { sys, ev };
        let hv = sys.hypervisor();
        let mut minted = 0;
        for (i, probe) in hv.vcpu_probes(sys.now()).enumerate() {
            minted += self.vcpu(step, i, probe);
        }
        let pot = CREDITS_PER_ACCT * hv.n_pcpus() as i64;
        if minted > pot {
            step.fail(
                "credit-conservation",
                format!("accounting minted {minted} credits, above the machine pot {pot}"),
            );
        }
        for p in 0..hv.n_pcpus() {
            let pcpu = PcpuId(p);
            self.pcpu(step, pcpu, hv.pcpu_current(pcpu), hv.pcpu_sa_wait(pcpu));
        }
        for (vm, d) in sys.domains.iter().enumerate() {
            let os = &d.os;
            for vcpu in 0..os.n_vcpus() {
                if let Some(t) = os.current(vcpu) {
                    let task = os.task(t);
                    self.current_task(step, vm, vcpu, t, task.state, task.cpu);
                }
            }
            for t in 0..os.n_tasks() {
                let task = os.task(TaskId(t));
                self.task(step, vm, t, task.vruntime, task.migrations);
                let executing = d.exec[task.cpu].is_some_and(|c| c.task == t);
                task_activity(step, vm, t, task.state, d.task_activity[t], executing);
            }
        }
    }

    /// Checks vCPU `i`'s probe (credits, runstate, SA protocol, pCPU
    /// exclusivity) against its baseline and makes it the new baseline.
    /// Returns the credits the vCPU gained, which only an accounting pass
    /// may mint.
    fn vcpu(&mut self, step: Step, i: usize, cur: VcpuProbe) -> i64 {
        let prev = std::mem::replace(&mut self.vcpus[i], cur);
        let v = cur.vcpu;
        let c = cur.credits;
        if !(CREDIT_FLOOR..=CREDIT_CAP).contains(&c) {
            step.fail(
                "credit-bounds",
                format!("{v} holds {c} credits, outside [{CREDIT_FLOOR}, {CREDIT_CAP}]"),
            );
        }
        if c > prev.credits && step.ev != Event::HvAccounting {
            step.fail(
                "credit-conservation",
                format!(
                    "{v} credits rose {} -> {c} outside an accounting pass",
                    prev.credits
                ),
            );
        }
        let (rs, prev_rs) = (cur.runstate, prev.runstate);
        if rs.running < prev_rs.running
            || rs.runnable < prev_rs.runnable
            || rs.blocked < prev_rs.blocked
        {
            step.fail(
                "runstate-monotonic",
                format!("{v} runstate component ran backwards: {prev_rs:?} -> {rs:?}"),
            );
        }
        let now = step.sys.now();
        if rs.total() != now {
            step.fail(
                "runstate-accounting",
                format!(
                    "{v} runstate components sum to {} at t={now}: {rs:?}",
                    rs.total()
                ),
            );
        }
        let (gen, prev_gen) = (cur.sa_generation, prev.sa_generation);
        if gen < prev_gen {
            step.fail(
                "sa-generation",
                format!("{v} SA generation ran backwards {prev_gen} -> {gen}"),
            );
        }
        if cur.sa_pending && prev.sa_pending && gen != prev_gen {
            step.fail(
                "sa-double-send",
                format!(
                    "{v} re-armed an SA (gen {prev_gen} -> {gen}) while one was already pending"
                ),
            );
        }
        if rs.state == RunState::Running {
            let home = cur.home;
            if let Some(other) = self.running_on[home.0] {
                step.fail(
                    "pcpu-double-run",
                    format!("{home} has two Running vCPUs: {other} and {v}"),
                );
            }
            self.running_on[home.0] = Some(v);
            let current = step.sys.hypervisor().pcpu_current(home);
            if current != Some(v) {
                step.fail(
                    "pcpu-current-consistency",
                    format!(
                        "{v} is Running and homed on {home}, but {home} current is {current:?}"
                    ),
                );
            }
        }
        (c - prev.credits).max(0)
    }

    /// Checks one pCPU's `current` and `sa_wait` pointers: the current vCPU
    /// is `Running`, and SA freeze hygiene holds.
    fn pcpu(
        &mut self,
        step: Step,
        pcpu: PcpuId,
        current: Option<VcpuRef>,
        sa_wait: Option<VcpuRef>,
    ) {
        let p = pcpu.0;
        self.running_on[p] = None;
        let hv = step.sys.hypervisor();
        if let Some(v) = current {
            let state = hv.vcpu_state(v);
            if state != RunState::Running {
                step.fail(
                    "pcpu-current-consistency",
                    format!("pcpu{p} current is {v} but its runstate is {state:?}"),
                );
            }
        }
        let Some(w) = sa_wait else {
            self.sa_wait_since[p] = None;
            return;
        };
        if current != Some(w) || !hv.is_sa_pending(w) {
            step.fail(
                "sa-wait-consistency",
                format!(
                    "pcpu{p} is frozen on {w}, but current={current:?} pending={}",
                    hv.is_sa_pending(w)
                ),
            );
        }
        let gen = hv.sa_generation(w);
        let now = step.sys.now();
        match self.sa_wait_since[p] {
            Some((pw, pg, since)) if pw == w && pg == gen => {
                // Deadline jitter can stretch the armed deadline to ~2x the
                // nominal limit; one tick period absorbs event granularity.
                let limit = SA_COMPLETION_LIMIT;
                let allowed = limit + limit + TICK_PERIOD;
                if now - since > allowed {
                    step.fail(
                        "sa-freeze",
                        format!(
                            "pcpu{p} frozen on {w} (gen {gen}) since {since}, \
                             {} exceeds the allowed {} (completion limit {})",
                            now - since,
                            allowed,
                            limit
                        ),
                    );
                }
            }
            _ => self.sa_wait_since[p] = Some((w, gen, now)),
        }
    }

    /// Checks the task `t` that `vm`'s `vcpu` holds current, given the
    /// task's `state` and recorded `cpu`.
    fn current_task(
        &mut self,
        step: Step,
        vm: usize,
        vcpu: usize,
        t: TaskId,
        state: TaskState,
        cpu: usize,
    ) {
        let base = &mut self.tasks[vm][t.0];
        if let Some(other) = base.held_on {
            step.fail(
                "task-double-run",
                format!("vm{vm} {t} is current on both v{other} and v{vcpu}"),
            );
        }
        base.held_on = Some(vcpu);
        match state {
            TaskState::Running => {}
            TaskState::Blocked | TaskState::Exited => step.fail(
                "blocked-task-current",
                format!("vm{vm} v{vcpu} holds {t} current in state {state}"),
            ),
            TaskState::Ready => step.fail(
                "task-double-run",
                format!("vm{vm} v{vcpu} holds {t} current but it is queued as ready"),
            ),
        }
        if cpu != vcpu {
            step.fail(
                "task-double-run",
                format!("vm{vm} {t} is current on v{vcpu} but records cpu=v{cpu}"),
            );
        }
    }

    /// Checks task `t`'s vruntime against its baseline and makes the probed
    /// values the new baseline.
    fn task(&mut self, step: Step, vm: usize, t: usize, vruntime: u64, migrations: u64) {
        let base = &mut self.tasks[vm][t];
        if vruntime < base.vruntime && migrations == base.migrations {
            step.fail(
                "vruntime-monotonic",
                format!(
                    "vm{vm} task{t} vruntime ran backwards {} -> {vruntime} without a migration",
                    base.vruntime
                ),
            );
        }
        *base = TaskBase {
            vruntime,
            migrations,
            held_on: None,
        };
    }
}

/// Checks that task `t`'s `activity` agrees with its guest `state`, and
/// that a task `executing` in an open window has a segment or a wait.
fn task_activity(
    step: Step,
    vm: usize,
    t: usize,
    state: TaskState,
    activity: Activity,
    executing: bool,
) {
    let agrees = match activity {
        Activity::Done => state == TaskState::Exited,
        Activity::BlockedSync | Activity::Sleeping => state == TaskState::Blocked,
        Activity::Resume | Activity::Computing { .. } | Activity::Spin => {
            matches!(state, TaskState::Ready | TaskState::Running)
        }
    };
    if !agrees {
        step.fail(
            "task-activity",
            format!("vm{vm} task{t} is {state} with activity {activity:?}"),
        );
    }
    if executing && !matches!(activity, Activity::Computing { .. } | Activity::Spin) {
        step.fail(
            "task-activity",
            format!("vm{vm} task{t} executes with activity {activity:?}"),
        );
    }
}

/// Checks one change of a task's activity, before it lands, against
/// [`Activity::may_become`]. `System::set_activity` calls it in checked
/// runs and in debug builds; the report names the change, not the event,
/// which is still being dispatched.
pub(crate) fn activity_transition(
    sys: &System,
    vm: usize,
    task: usize,
    from: Activity,
    to: Activity,
) {
    if !from.may_become(to) {
        report(
            sys,
            "activity-transition",
            format!("vm{vm} task{task} changed activity {from:?} -> {to:?}"),
            "while dispatching an event",
        );
    }
}

/// The step being checked: the post-event system and the event that led
/// to it, which is what a violation report shows.
#[derive(Clone, Copy)]
struct Step<'a> {
    sys: &'a System,
    ev: Event,
}

impl Step<'_> {
    /// Renders the violation report and panics.
    fn fail(self, invariant: &str, detail: String) -> ! {
        report(self.sys, invariant, detail, &format!("after {:?}", self.ev))
    }
}

/// Panics with the report of a violated `invariant`: its `detail`, the
/// instant and `when` in the event it was seen, and the last
/// [`REPORT_LINES`] lines of the merged typed timeline.
fn report(sys: &System, invariant: &str, detail: String, when: &str) -> ! {
    let dump = sys.trace_dump();
    let lines: Vec<&str> = dump.lines().collect();
    let trace = if lines.is_empty() {
        "  (trace ring disabled)\n".to_string()
    } else {
        lines[lines.len().saturating_sub(REPORT_LINES)..]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect()
    };
    panic!(
        "scheduler invariant violated: {invariant}\n  {detail}\n  at t={} {when} under {}\n\
         --- last scheduling decisions (oldest first) ---\n{trace}",
        sys.now(),
        sys.strategy,
    );
}

/// The detection matrix: every invariant name is tripped by one injected
/// defect, so a cheaper checker cannot silently become a weaker one. Delta
/// invariants are tripped by corrupting the baseline of a real checked
/// run; state invariants by handing a per-entity check a corrupted probe.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, Strategy, SystemConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A checked IRS run stepped until `ready` holds, with its checker
    /// taken out so the test can corrupt it.
    fn armed(ready: impl Fn(&System) -> bool) -> (System, Checker) {
        let scenario = Scenario::fig5_style("streamcluster", 2, Strategy::Irs, 42);
        let cfg = SystemConfig {
            check: true,
            ..SystemConfig::default()
        };
        let mut sys = System::with_config(scenario, cfg);
        while !ready(&sys) {
            assert!(sys.step(), "the run ended before the probe point");
        }
        let checker = sys.checker.take().expect("checking is armed");
        (sys, checker)
    }

    /// A checked run 50 ms in: every vCPU has run, blocked or queued.
    fn settled() -> (System, Checker) {
        armed(|s| s.now() >= SimTime::from_millis(50))
    }

    fn probes(sys: &System) -> Vec<VcpuProbe> {
        sys.hypervisor().vcpu_probes(sys.now()).collect()
    }

    /// The step a corrupted probe is checked under.
    fn tick(sys: &System) -> Step<'_> {
        Step {
            sys,
            ev: Event::HvTick,
        }
    }

    /// Runs `f`, which must panic with a report naming `invariant`,
    /// carrying `detail`, and ending in at most [`REPORT_LINES`] lines of
    /// timestamped trace.
    fn assert_trips(invariant: &str, detail: &str, f: impl FnOnce()) {
        let err = catch_unwind(AssertUnwindSafe(f))
            .expect_err(&format!("{invariant} must trip on the injected defect"));
        let msg = err
            .downcast_ref::<String>()
            .expect("the report is a formatted string");
        assert!(
            msg.starts_with(&format!("scheduler invariant violated: {invariant}\n")),
            "the report names another invariant:\n{msg}"
        );
        assert!(msg.contains(detail), "the report lacks {detail:?}:\n{msg}");
        assert!(
            msg.contains("--- last scheduling decisions (oldest first) ---\n"),
            "the report has no trace header:\n{msg}"
        );
        assert!(
            msg.lines()
                .any(|l| l.starts_with('[') && l.contains("xen.")),
            "the report carries no timestamped trace:\n{msg}"
        );
        let traced = msg.lines().filter(|l| l.starts_with('[')).count();
        assert!(
            traced <= REPORT_LINES,
            "the report carries {traced} trace lines"
        );
    }

    #[test]
    fn clean_state_passes_a_recheck() {
        let (sys, mut c) = settled();
        c.check(&sys, Event::HvTick);
        c.check(&sys, Event::HvAccounting);
    }

    #[test]
    fn credit_bounds_trips() {
        let (sys, mut c) = settled();
        let mut p = probes(&sys)[0];
        p.credits = CREDIT_CAP + 1;
        assert_trips("credit-bounds", "outside [", || {
            c.vcpu(tick(&sys), 0, p);
        });
    }

    #[test]
    fn credit_conservation_trips_outside_accounting() {
        let (sys, mut c) = settled();
        c.vcpus[0].credits -= 1;
        assert_trips("credit-conservation", "outside an accounting pass", || {
            c.check(&sys, Event::HvTick)
        });
    }

    #[test]
    fn credit_conservation_trips_above_the_pot() {
        let (sys, mut c) = settled();
        let pot = CREDITS_PER_ACCT * sys.hypervisor().n_pcpus() as i64;
        c.vcpus[0].credits -= pot + 1;
        assert_trips("credit-conservation", "above the machine pot", || {
            c.check(&sys, Event::HvAccounting)
        });
    }

    #[test]
    fn runstate_monotonic_trips() {
        let (sys, mut c) = settled();
        c.vcpus[0].runstate.blocked += SimTime::from_nanos(1);
        assert_trips("runstate-monotonic", "ran backwards", || {
            c.check(&sys, Event::HvTick)
        });
    }

    #[test]
    fn runstate_accounting_trips() {
        let (sys, mut c) = settled();
        let mut p = probes(&sys)[0];
        p.runstate.running += SimTime::from_nanos(1);
        assert_trips("runstate-accounting", "components sum to", || {
            c.vcpu(tick(&sys), 0, p);
        });
    }

    #[test]
    fn pcpu_double_run_trips() {
        let (sys, mut c) = settled();
        let all = probes(&sys);
        let running = all
            .iter()
            .position(|p| p.runstate.state == RunState::Running)
            .expect("some vCPU runs");
        let other = (running + 1) % all.len();
        let mut twin = all[other];
        twin.runstate.state = RunState::Running;
        twin.home = all[running].home;
        c.vcpu(tick(&sys), running, all[running]);
        assert_trips("pcpu-double-run", "two Running vCPUs", || {
            c.vcpu(tick(&sys), other, twin);
        });
    }

    #[test]
    fn pcpu_current_consistency_trips_both_ways() {
        let (sys, mut c) = settled();
        let all = probes(&sys);
        let idle = all
            .iter()
            .position(|p| p.runstate.state != RunState::Running)
            .expect("some vCPU waits");
        let mut ghost = all[idle];
        ghost.runstate.state = RunState::Running;
        assert_trips(
            "pcpu-current-consistency",
            "is Running and homed on",
            || {
                c.vcpu(tick(&sys), idle, ghost);
            },
        );
        assert_trips("pcpu-current-consistency", "but its runstate is", || {
            c.pcpu(tick(&sys), ghost.home, Some(ghost.vcpu), None)
        });
    }

    /// The first VM's first vCPU holding a current task, and that task.
    fn a_current_task(sys: &System) -> (usize, TaskId) {
        let os = sys.guest(0);
        (0..os.n_vcpus())
            .find_map(|v| os.current(v).map(|t| (v, t)))
            .expect("vm0 runs a task")
    }

    #[test]
    fn task_double_run_trips() {
        let (sys, mut c) = settled();
        let (vcpu, t) = a_current_task(&sys);
        let other = (vcpu + 1) % sys.guest(0).n_vcpus();
        let step = tick(&sys);
        c.current_task(step, 0, vcpu, t, TaskState::Running, vcpu);
        assert_trips("task-double-run", "is current on both", || {
            c.current_task(step, 0, other, t, TaskState::Running, other)
        });
        c.tasks[0][t.0].held_on = None;
        assert_trips("task-double-run", "queued as ready", || {
            c.current_task(step, 0, vcpu, t, TaskState::Ready, vcpu)
        });
        c.tasks[0][t.0].held_on = None;
        assert_trips("task-double-run", "records cpu=", || {
            c.current_task(step, 0, vcpu, t, TaskState::Running, other)
        });
    }

    #[test]
    fn blocked_task_current_trips() {
        let (sys, mut c) = settled();
        let (vcpu, t) = a_current_task(&sys);
        assert_trips("blocked-task-current", "current in state", || {
            c.current_task(tick(&sys), 0, vcpu, t, TaskState::Blocked, vcpu)
        });
    }

    #[test]
    fn task_activity_trips() {
        let (sys, _) = settled();
        let step = tick(&sys);
        assert_trips("task-activity", "is exited with activity Resume", || {
            task_activity(step, 0, 0, TaskState::Exited, Activity::Resume, false)
        });
        assert_trips("task-activity", "executes with activity Resume", || {
            task_activity(step, 0, 0, TaskState::Running, Activity::Resume, true)
        });
    }

    /// End to end: an illegal change made through the one writer is
    /// reported as it is made.
    #[test]
    fn activity_transition_trips() {
        let (mut sys, _) = settled();
        let t = (0..sys.guest(0).n_tasks())
            .find(|&t| matches!(sys.domains[0].task_activity[t], Activity::Computing { .. }))
            .expect("vm0 computes");
        assert_trips("activity-transition", "-> Sleeping", move || {
            sys.set_activity(0, t, Activity::Sleeping)
        });
    }

    #[test]
    fn vruntime_monotonic_trips() {
        let (sys, mut c) = settled();
        c.tasks[0][0].vruntime = sys.guest(0).task(TaskId(0)).vruntime + 1;
        assert_trips("vruntime-monotonic", "without a migration", || {
            c.check(&sys, Event::HvTick)
        });
    }

    #[test]
    fn sa_generation_trips() {
        let (sys, mut c) = settled();
        c.vcpus[0].sa_generation += 1;
        assert_trips("sa-generation", "ran backwards", || {
            c.check(&sys, Event::HvTick)
        });
    }

    /// End to end: a baseline corrupted mid-run is caught by the checker
    /// `System::step` runs after the next event, not by a direct call.
    #[test]
    fn sa_generation_trips_inside_a_real_run() {
        let (mut sys, mut c) = settled();
        c.vcpus[0].sa_generation += 1_000;
        sys.checker = Some(c);
        assert_trips("sa-generation", "ran backwards", move || {
            sys.run();
        });
    }

    #[test]
    fn sa_double_send_trips() {
        let (sys, mut c) = armed(|s| probes(s).iter().any(|p| p.sa_pending));
        let i = probes(&sys)
            .iter()
            .position(|p| p.sa_pending)
            .expect("a round is pending");
        c.vcpus[i].sa_generation -= 1;
        assert_trips("sa-double-send", "while one was already pending", || {
            c.check(&sys, Event::HvTick)
        });
    }

    #[test]
    fn sa_wait_consistency_trips() {
        let (sys, mut c) = settled();
        let v = probes(&sys)[0].vcpu;
        assert_trips("sa-wait-consistency", "is frozen on", || {
            c.pcpu(tick(&sys), PcpuId(0), None, Some(v))
        });
    }

    #[test]
    fn sa_freeze_trips() {
        let frozen = |s: &System| {
            (0..s.hypervisor().n_pcpus())
                .find(|&p| s.hypervisor().pcpu_sa_wait(PcpuId(p)).is_some())
        };
        let (sys, mut c) = armed(|s| s.now() >= SimTime::from_millis(100) && frozen(s).is_some());
        let hv = sys.hypervisor();
        let p = frozen(&sys).expect("a pCPU is frozen");
        let w = hv.pcpu_sa_wait(PcpuId(p)).expect("frozen on a vCPU");
        let allowed = SA_COMPLETION_LIMIT + SA_COMPLETION_LIMIT + TICK_PERIOD;
        let since = sys.now() - allowed - SimTime::from_nanos(1);
        c.sa_wait_since[p] = Some((w, hv.sa_generation(w), since));
        assert_trips("sa-freeze", "exceeds the allowed", || {
            c.check(&sys, Event::HvTick)
        });
    }
}
