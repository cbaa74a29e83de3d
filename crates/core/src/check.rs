//! Online scheduler-invariant sanitizer: the one checker of the
//! simulator's cross-layer bookkeeping.
//!
//! When enabled (per-run via [`crate::SystemConfig::check`] or process-wide
//! via [`set_check_enabled`]), it checks ten families of invariants
//! (nineteen named checks) at three points:
//!
//! * after *every* event [`System::step`](crate::System::step) dispatches:
//!   every vCPU, every pCPU, each vCPU's execution window, each vCPU's
//!   current task (double run, state, `cpu`, vruntime and activity), and
//!   each VM's live view cache;
//! * at every accounting pass (`Event::HvAccounting`, each 30 ms of
//!   virtual time) and once at the end of [`System::run`](crate::System::run),
//!   a full *sweep*: the hypervisor's and each guest's own queue walker,
//!   and every task's vruntime and activity. A fault in a task that is not
//!   current therefore surfaces within one accounting period, or at the
//!   end of the run;
//! * at each change of a task's activity, as it is made.
//!
//! The families:
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
//! 4. **No double-run** — a current task is `Running` with a matching
//!    `cpu` (so a task current on two vCPUs fails on one of them), and CFS
//!    never holds a blocked or exited task current.
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
//! 9. **Queue membership and execution windows** — the hypervisor's walker
//!    ([`irs_xen::Hypervisor::check_invariants`]: a runnable vCPU is queued
//!    exactly once, at its home; a running or blocked one nowhere; a pinned
//!    one at its pin) holds (`vcpu-queue-membership`), as does each guest's
//!    ([`irs_guest::GuestOs::check_invariants`]: a ready task is queued
//!    exactly once or in custody; a running, blocked or exited one
//!    nowhere) (`task-queue-membership`); and on each vCPU an execution
//!    window is open exactly when a guest-current task sits on a running
//!    vCPU, and belongs to that task (`exec-window`).
//! 10. **View cache** — while a VM's cached guest views are live (built
//!     under the hypervisor's current runstate epoch for the VM, and
//!     `now` before their deadline), every steal tracker of the VM is
//!     quiescent at `now` and the cache equals a rebuild from the
//!     runstates and the trackers' estimates (`views-cache`). This is the
//!     premise on which `System::fill_views` returns the cache untouched
//!     and a quiet guest tick skips the refill.
//!
//! The per-event check makes one pass per entity kind: every vCPU (probed
//! in bulk by [`irs_xen::Hypervisor::vcpu_probes`]), every pCPU, then each
//! vCPU's window and current task, reading the runstate from the probe
//! just taken. Each entity is checked against its baseline entry, which is
//! then overwritten in place with what was just read, so the steady state
//! allocates nothing. The per-entity checks take the probed values as
//! plain arguments.
//!
//! A violation panics with the invariant's name, the offending values, and
//! the last 120 lines of the merged typed timeline
//! ([`crate::System::trace_dump`]) so the decision sequence that led to
//! the corruption is visible.

use crate::domain::{Activity, Domain};
use crate::events::Event;
use crate::system::System;
use irs_guest::{TaskId, TaskState, VcpuView};
use irs_sim::SimTime;
use irs_xen::credit::{CREDITS_PER_ACCT, CREDIT_CAP, CREDIT_FLOOR};
use irs_xen::{PcpuId, RunState, VcpuProbe, VcpuRef, VmId, SA_COMPLETION_LIMIT, TICK_PERIOD};
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

    /// Validates the post-`ev` system state, rolling each baseline forward
    /// as it goes; an accounting pass adds the full sweep. Panics with a
    /// trace dump on violation.
    pub(crate) fn check(&mut self, sys: &System, ev: Event) {
        let step = Step { sys, ev: Some(ev) };
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
        // Each vCPU's window and current task, under the runstate the vCPU
        // pass just probed (now the baseline).
        for i in 0..self.vcpus.len() {
            let probe = self.vcpus[i];
            let (vm, vcpu) = (probe.vcpu.vm.0, probe.vcpu.idx);
            let d = &sys.domains[vm];
            let current = d.os.current(vcpu);
            let window = d.exec[vcpu].map(|c| c.task);
            exec_window(step, vm, vcpu, probe.runstate.state, current, window);
            if let Some(t) = current {
                let task = d.os.task(t);
                current_task(step, vm, vcpu, t, task.state, task.cpu);
                self.task(step, vm, t.0, task.vruntime, task.migrations);
                let executing = window == Some(t.0);
                task_activity(step, vm, t.0, task.state, d.task_activity[t.0], executing);
            }
        }
        for (vm, d) in sys.domains.iter().enumerate() {
            views_cache(step, vm, d);
        }
        if ev == Event::HvAccounting {
            self.sweep(step);
        }
    }

    /// The end-of-run sweep, [`System::run`](crate::System::run)'s last
    /// act: a run can end before its next accounting pass.
    pub(crate) fn finish(&mut self, sys: &System) {
        self.sweep(Step { sys, ev: None });
    }

    /// The full sweep: each layer's own queue walker, then every task's
    /// vruntime and activity, current or not.
    fn sweep(&mut self, step: Step) {
        let sys = step.sys;
        walked(
            step,
            "vcpu-queue-membership",
            sys.hypervisor().check_invariants(),
        );
        for (vm, d) in sys.domains.iter().enumerate() {
            let verdict = d.os.check_invariants().map_err(|e| format!("vm{vm} {e}"));
            walked(step, "task-queue-membership", verdict);
            for t in 0..d.os.n_tasks() {
                let task = d.os.task(TaskId(t));
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
        if c > prev.credits && step.ev != Some(Event::HvAccounting) {
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
        };
    }
}

/// Reports a layer walker's first violation as `invariant`.
fn walked(step: Step, invariant: &str, verdict: Result<(), String>) {
    if let Err(detail) = verdict {
        step.fail(invariant, detail);
    }
}

/// Checks `vm`'s `vcpu` execution window (`window`: the task holding it,
/// if open) against the vCPU's runstate `state` and the guest's `current`
/// task: a window is open exactly when a current task sits on a `Running`
/// vCPU, and it belongs to that task.
fn exec_window(
    step: Step,
    vm: usize,
    vcpu: usize,
    state: RunState,
    current: Option<TaskId>,
    window: Option<usize>,
) {
    let want = current.filter(|_| state == RunState::Running).map(|t| t.0);
    if window != want {
        step.fail(
            "exec-window",
            format!(
                "vm{vm} v{vcpu} has window {window:?} but runstate {state:?} and current {:?}",
                current.map(|t| t.0)
            ),
        );
    }
}

/// Checks the task `t` that `vm`'s `vcpu` holds current, given the task's
/// `state` and recorded `cpu`. A task current on two vCPUs records only
/// one of them, so it fails the `cpu` check on the other.
fn current_task(step: Step, vm: usize, vcpu: usize, t: TaskId, state: TaskState, cpu: usize) {
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

/// Checks `vm`'s cached guest views while they are live — built under the
/// VM's current runstate epoch, with `now` before their deadline, so
/// `System::fill_views` would hand them out untouched: every steal tracker
/// is quiescent at `now`, and each cached view is the vCPU's runstate and
/// its tracker's estimate, bit for bit.
fn views_cache(step: Step, vm: usize, d: &Domain) {
    let (sys, now) = (step.sys, step.sys.now());
    let hv = sys.hypervisor();
    if d.views_epoch != hv.runstate_epoch(VmId(vm)) || now >= d.views_deadline {
        return;
    }
    if let Some(v) = d.steal.iter().position(|t| !t.quiescent_at(now)) {
        step.fail(
            "views-cache",
            format!(
                "vm{vm} v{v}'s steal tracker is due a sample before the cache deadline {}",
                d.views_deadline
            ),
        );
    }
    let rebuild = || {
        hv.vm_clocks(VmId(vm))
            .zip(&d.steal)
            .map(|(clock, tracker)| VcpuView {
                state: clock.state(),
                steal_frac: tracker.ewma,
            })
    };
    let same = d.view_buf.len() == d.steal.len()
        && rebuild()
            .zip(&d.view_buf)
            .all(|(a, b)| a.state == b.state && a.steal_frac.to_bits() == b.steal_frac.to_bits());
    if !same {
        let rebuilt: Vec<VcpuView> = rebuild().collect();
        step.fail(
            "views-cache",
            format!(
                "vm{vm} cached views {:?} differ from a rebuild {rebuilt:?}",
                d.view_buf
            ),
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
/// to it (`None` at the end of a run), which is what a violation report
/// shows.
#[derive(Clone, Copy)]
struct Step<'a> {
    sys: &'a System,
    ev: Option<Event>,
}

impl Step<'_> {
    /// Renders the violation report and panics.
    fn fail(self, invariant: &str, detail: String) -> ! {
        let when = match self.ev {
            Some(ev) => format!("after {ev:?}"),
            None => "at the end of the run".to_string(),
        };
        report(self.sys, invariant, detail, &when)
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
/// Two more cases pin when the sweep runs: at an accounting pass and at
/// the end of a run, but not after other events.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, Strategy, SystemConfig, VmScenario};
    use irs_sync::SyncSpace;
    use irs_workloads::{ProgramBuilder, WorkloadBundle};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A checked run of `scenario` stepped until `ready` holds, with its
    /// checker taken out so the test can corrupt it.
    fn armed_on(scenario: Scenario, ready: impl Fn(&System) -> bool) -> (System, Checker) {
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

    /// A checked IRS run stepped until `ready` holds.
    fn armed(ready: impl Fn(&System) -> bool) -> (System, Checker) {
        let scenario = Scenario::fig5_style("streamcluster", 2, Strategy::Irs, 42);
        armed_on(scenario, ready)
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
            ev: Some(Event::HvTick),
        }
    }

    /// Runs `f`, which must panic with a report naming `invariant`,
    /// carrying `detail`, and ending in at most [`REPORT_LINES`] lines of
    /// timestamped trace. Returns the report.
    fn assert_trips(invariant: &str, detail: &str, f: impl FnOnce()) -> String {
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
        msg.clone()
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
        let (sys, _) = settled();
        let (vcpu, t) = a_current_task(&sys);
        let other = (vcpu + 1) % sys.guest(0).n_vcpus();
        let step = tick(&sys);
        // Current on both `vcpu`, where it records its cpu, and `other`:
        // the check passes on the first and trips on the second.
        current_task(step, 0, vcpu, t, TaskState::Running, vcpu);
        assert_trips("task-double-run", "records cpu=", || {
            current_task(step, 0, other, t, TaskState::Running, vcpu)
        });
        assert_trips("task-double-run", "queued as ready", || {
            current_task(step, 0, vcpu, t, TaskState::Ready, vcpu)
        });
    }

    #[test]
    fn blocked_task_current_trips() {
        let (sys, _) = settled();
        let (vcpu, t) = a_current_task(&sys);
        assert_trips("blocked-task-current", "current in state", || {
            current_task(tick(&sys), 0, vcpu, t, TaskState::Blocked, vcpu)
        });
    }

    #[test]
    fn exec_window_trips() {
        let (sys, _) = settled();
        let (vcpu, t) = a_current_task(&sys);
        let step = tick(&sys);
        let running = RunState::Running;
        exec_window(step, 0, vcpu, running, Some(t), Some(t.0));
        // A window left open on a preempted vCPU, none on a running one,
        // and one held by a task the guest no longer runs there.
        assert_trips("exec-window", "but runstate Runnable", || {
            exec_window(step, 0, vcpu, RunState::Runnable, Some(t), Some(t.0))
        });
        assert_trips("exec-window", "has window None", || {
            exec_window(step, 0, vcpu, running, Some(t), None)
        });
        assert_trips("exec-window", "and current None", || {
            exec_window(step, 0, vcpu, running, None, Some(t.0))
        });
    }

    /// The layer walkers' own tests (in irs-xen and irs-guest) corrupt a
    /// live hypervisor and guest, which a `System` offers no way to do;
    /// here each walker's verdict is reported through the sweep's path
    /// under its name, with the trace dump.
    #[test]
    fn queue_membership_trips() {
        let (sys, _) = settled();
        assert_trips("vcpu-queue-membership", "queued 2 times", || {
            let verdict = Err("vm0.v1 Runnable queued 2 times".to_string());
            walked(tick(&sys), "vcpu-queue-membership", verdict)
        });
        assert_trips("task-queue-membership", "blocked but queued", || {
            let verdict = Err("vm0 task1 blocked but queued".to_string());
            walked(tick(&sys), "task-queue-membership", verdict)
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
        let (_, t) = a_current_task(&sys);
        c.tasks[0][t.0].vruntime = sys.guest(0).task(t).vruntime + 1;
        assert_trips("vruntime-monotonic", "without a migration", || {
            c.check(&sys, Event::HvTick)
        });
    }

    /// The detection latency: a task that is not current is checked only
    /// by the sweep, so its falling vruntime passes an ordinary event and
    /// trips at the next accounting pass.
    #[test]
    fn a_task_that_is_not_current_trips_at_the_accounting_pass() {
        let idle = |s: &System| {
            let os = s.guest(0);
            let current: Vec<TaskId> = (0..os.n_vcpus()).filter_map(|v| os.current(v)).collect();
            (0..os.n_tasks()).map(TaskId).find(|t| !current.contains(t))
        };
        let (sys, mut c) = armed(|s| s.now() >= SimTime::from_millis(50) && idle(s).is_some());
        let t = idle(&sys).expect("a task is not current");
        c.tasks[0][t.0].vruntime = sys.guest(0).task(t).vruntime + 1;
        c.check(&sys, Event::HvTick);
        assert_trips("vruntime-monotonic", "without a migration", || {
            c.check(&sys, Event::HvAccounting)
        });
    }

    /// The end-of-run sweep: task0 of vm0 exits after 1 ms and task1
    /// computes until the 45 ms horizon, so the last accounting pass is
    /// at 30 ms. An exited task put back to `Resume` after it (the shape
    /// of a finished task reset by a re-entrant dispatch) is current on no
    /// vCPU, and only the sweep at the end of the run sees it.
    #[test]
    fn the_end_of_a_run_sweeps_every_task() {
        let short = ProgramBuilder::new().compute_us(1_000, 0.0).build();
        let long = ProgramBuilder::new()
            .forever(|b| b.compute_us(10_000, 0.0))
            .build();
        let bundle = WorkloadBundle::interference("exit", vec![short, long], SyncSpace::new(), 0.0);
        let scenario = Scenario::new(2, Strategy::Vanilla, 1)
            .vm(VmScenario::new(bundle, 2).pin_one_to_one())
            .horizon(SimTime::from_millis(45));
        let (mut sys, c) = armed_on(scenario, |s| s.now() > irs_xen::ACCOUNTING_PERIOD);
        assert_eq!(sys.domains[0].task_activity[0], Activity::Done);
        sys.domains[0].task_activity[0] = Activity::Resume;
        sys.checker = Some(c);
        let msg = assert_trips(
            "task-activity",
            "is exited with activity Resume",
            move || {
                sys.run();
            },
        );
        assert!(msg.contains("at the end of the run"), "{msg}");
    }

    /// The first VM whose view cache is live at `s`'s instant.
    fn live_views(s: &System) -> Option<usize> {
        let epoch = |vm| s.hypervisor().runstate_epoch(VmId(vm));
        s.domains
            .iter()
            .enumerate()
            .position(|(vm, d)| d.views_epoch == epoch(vm) && s.now() < d.views_deadline)
    }

    #[test]
    fn views_cache_trips() {
        let (mut sys, mut c) =
            armed(|s| s.now() >= SimTime::from_millis(50) && live_views(s).is_some());
        let vm = live_views(&sys).expect("a view cache is live");
        c.check(&sys, Event::HvTick);
        sys.domains[vm].view_buf[0].steal_frac += 0.25;
        assert_trips("views-cache", "differ from a rebuild", || {
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
