//! Online scheduler-invariant sanitizer.
//!
//! When enabled (per-run via [`crate::SystemConfig::check`] or process-wide
//! via [`set_check_enabled`]), [`System::step`](crate::System::step) re-runs
//! a battery of cross-layer invariants after *every* event it dispatches:
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
//!    both directions.
//! 4. **No double-run** — a guest task is current on at most one vCPU, a
//!    current task is `Running` with a matching `cpu`, and CFS never holds
//!    a blocked or exited task current.
//! 5. **SA protocol** — `sa_pending` is never re-armed while already
//!    pending, and the SA generation counter never runs backwards.
//! 6. **Utilization ≤ capacity** — the machine never reports more
//!    `Running` vCPUs than it has pCPUs.
//! 7. **Vruntime monotonicity** — a task's CFS vruntime never decreases
//!    except across a migration (where CFS re-baselines it against the
//!    destination queue).
//! 8. **SA freeze hygiene** — a pCPU frozen on an SA round (`sa_wait`)
//!    always has the waited-on vCPU current with its round pending, and no
//!    freeze outlives the completion limit by more than the checker's
//!    slack: `sa_wait` is always cleared and no vCPU freezes a pCPU
//!    forever, even under injected faults ([`crate::faults`]).
//!
//! A violation panics with the invariant's name, the offending values, and
//! the tail of the merged scheduling trace ([`crate::System::trace_dump`])
//! so the decision sequence that led to the corruption is visible.

use crate::events::Event;
use crate::system::System;
use irs_guest::TaskState;
use irs_xen::credit::{CREDITS_PER_ACCT, CREDIT_CAP, CREDIT_FLOOR};
use irs_xen::{PcpuId, RunState, RunstateInfo, VcpuRef};
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide sanitizer switch (see [`set_check_enabled`]).
static CHECK_ENABLED: AtomicBool = AtomicBool::new(false);

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

/// Per-task snapshot the vruntime-monotonicity check compares against.
#[derive(Debug, Clone, Copy)]
struct TaskSnap {
    vruntime: u64,
    migrations: u64,
}

/// The sanitizer's rolling state: snapshots of everything whose *change*
/// (not just value) is constrained, refreshed after each validated step.
#[derive(Debug, Clone)]
pub(crate) struct Checker {
    /// Per-vCPU credits, in [`irs_xen::Hypervisor::all_vcpus`] order.
    credits: Vec<i64>,
    /// Per-vCPU runstate accounting, same order.
    runstates: Vec<RunstateInfo>,
    /// Per-vCPU `(sa_pending, sa_generation)`, same order.
    sa: Vec<(bool, u64)>,
    /// Per-VM, per-task vruntime/migration snapshots.
    tasks: Vec<Vec<TaskSnap>>,
    /// Per-pCPU: the SA freeze observed there (`(vcpu, generation, since)`),
    /// where `since` is the first step at which this exact freeze was seen.
    /// Drives the no-freeze-forever check.
    sa_wait_since: Vec<Option<(VcpuRef, u64, irs_sim::SimTime)>>,
}

impl Checker {
    /// Snapshots the freshly booted system.
    pub(crate) fn new(sys: &System) -> Self {
        let mut c = Checker {
            credits: Vec::new(),
            runstates: Vec::new(),
            sa: Vec::new(),
            tasks: Vec::new(),
            sa_wait_since: vec![None; sys.hypervisor().n_pcpus()],
        };
        c.snapshot(sys);
        c
    }

    fn snapshot(&mut self, sys: &System) {
        let hv = sys.hypervisor();
        let now = sys.now();
        self.credits.clear();
        self.runstates.clear();
        self.sa.clear();
        for v in hv.all_vcpus() {
            self.credits.push(hv.vcpu_credits(v));
            self.runstates.push(hv.runstate(v, now));
            self.sa.push((hv.is_sa_pending(v), hv.sa_generation(v)));
        }
        self.tasks.clear();
        for vm in 0..hv.n_vms() {
            let os = sys.guest(vm);
            self.tasks.push(
                (0..os.n_tasks())
                    .map(|t| {
                        let task = os.task(irs_guest::TaskId(t));
                        TaskSnap {
                            vruntime: task.vruntime,
                            migrations: task.migrations,
                        }
                    })
                    .collect(),
            );
        }
    }

    /// Validates every invariant against the post-`ev` system state, then
    /// rolls the snapshots forward. Panics with a trace dump on violation.
    pub(crate) fn check(&mut self, sys: &System, ev: Event) {
        self.check_credits(sys, ev);
        self.check_runstates(sys, ev);
        self.check_pcpu_exclusivity(sys, ev);
        self.check_guest_tasks(sys, ev);
        self.check_sa_protocol(sys, ev);
        self.check_sa_freeze(sys, ev);
        self.snapshot(sys);
    }

    fn check_credits(&self, sys: &System, ev: Event) {
        let hv = sys.hypervisor();
        let accounting = ev == Event::HvAccounting;
        let mut minted: i64 = 0;
        for (i, v) in hv.all_vcpus().enumerate() {
            let c = hv.vcpu_credits(v);
            if !(CREDIT_FLOOR..=CREDIT_CAP).contains(&c) {
                fail(
                    sys,
                    ev,
                    "credit-bounds",
                    format!("{v} holds {c} credits, outside [{CREDIT_FLOOR}, {CREDIT_CAP}]"),
                );
            }
            let prev = self.credits[i];
            if c > prev {
                if !accounting {
                    fail(
                        sys,
                        ev,
                        "credit-conservation",
                        format!("{v} credits rose {prev} -> {c} outside an accounting pass"),
                    );
                }
                minted += c - prev;
            }
        }
        let pot = CREDITS_PER_ACCT * hv.n_pcpus() as i64;
        if minted > pot {
            fail(
                sys,
                ev,
                "credit-conservation",
                format!("accounting minted {minted} credits, above the machine pot {pot}"),
            );
        }
    }

    fn check_runstates(&self, sys: &System, ev: Event) {
        let hv = sys.hypervisor();
        let now = sys.now();
        for (i, v) in hv.all_vcpus().enumerate() {
            let cur = hv.runstate(v, now);
            let prev = self.runstates[i];
            if cur.running < prev.running
                || cur.runnable < prev.runnable
                || cur.blocked < prev.blocked
                || cur.offline < prev.offline
            {
                fail(
                    sys,
                    ev,
                    "runstate-monotonic",
                    format!("{v} runstate component ran backwards: {prev:?} -> {cur:?}"),
                );
            }
            if cur.total() != now {
                fail(
                    sys,
                    ev,
                    "runstate-accounting",
                    format!("{v} runstate components sum to {} at t={now}: {cur:?}", cur.total()),
                );
            }
        }
    }

    fn check_pcpu_exclusivity(&self, sys: &System, ev: Event) {
        let hv = sys.hypervisor();
        let mut running_on: Vec<Option<VcpuRef>> = vec![None; hv.n_pcpus()];
        let mut running_total = 0usize;
        for v in hv.all_vcpus() {
            if hv.vcpu_state(v) != RunState::Running {
                continue;
            }
            running_total += 1;
            let home = hv.vcpu_home(v);
            if let Some(other) = running_on[home.0] {
                fail(
                    sys,
                    ev,
                    "pcpu-double-run",
                    format!("{home} has two Running vCPUs: {other} and {v}"),
                );
            }
            running_on[home.0] = Some(v);
            if hv.pcpu_current(home) != Some(v) {
                fail(
                    sys,
                    ev,
                    "pcpu-current-consistency",
                    format!(
                        "{v} is Running and homed on {home}, but {home} current is {:?}",
                        hv.pcpu_current(home)
                    ),
                );
            }
        }
        for p in 0..hv.n_pcpus() {
            if let Some(v) = hv.pcpu_current(PcpuId(p)) {
                if hv.vcpu_state(v) != RunState::Running {
                    fail(
                        sys,
                        ev,
                        "pcpu-current-consistency",
                        format!(
                            "pcpu{p} current is {v} but its runstate is {:?}",
                            hv.vcpu_state(v)
                        ),
                    );
                }
            }
        }
        if running_total > hv.n_pcpus() {
            fail(
                sys,
                ev,
                "utilization-capacity",
                format!("{running_total} Running vCPUs on a {}-pCPU machine", hv.n_pcpus()),
            );
        }
    }

    fn check_guest_tasks(&self, sys: &System, ev: Event) {
        let hv = sys.hypervisor();
        for vm in 0..hv.n_vms() {
            let os = sys.guest(vm);
            let mut current_on: Vec<Option<usize>> = vec![None; os.n_tasks()];
            for vcpu in 0..os.n_vcpus() {
                let Some(t) = os.current(vcpu) else { continue };
                if let Some(other) = current_on[t.0] {
                    fail(
                        sys,
                        ev,
                        "task-double-run",
                        format!("vm{vm} {t} is current on both v{other} and v{vcpu}"),
                    );
                }
                current_on[t.0] = Some(vcpu);
                let task = os.task(t);
                match task.state {
                    TaskState::Running => {}
                    TaskState::Blocked | TaskState::Exited => fail(
                        sys,
                        ev,
                        "blocked-task-current",
                        format!("vm{vm} v{vcpu} holds {t} current in state {}", task.state),
                    ),
                    TaskState::Ready => fail(
                        sys,
                        ev,
                        "task-double-run",
                        format!("vm{vm} v{vcpu} holds {t} current but it is queued as ready"),
                    ),
                }
                if task.cpu != vcpu {
                    fail(
                        sys,
                        ev,
                        "task-double-run",
                        format!("vm{vm} {t} is current on v{vcpu} but records cpu=v{}", task.cpu),
                    );
                }
            }
            for t in 0..os.n_tasks() {
                let task = os.task(irs_guest::TaskId(t));
                let prev = self.tasks[vm][t];
                if task.vruntime < prev.vruntime && task.migrations == prev.migrations {
                    fail(
                        sys,
                        ev,
                        "vruntime-monotonic",
                        format!(
                            "vm{vm} task{t} vruntime ran backwards {} -> {} without a migration",
                            prev.vruntime, task.vruntime
                        ),
                    );
                }
            }
        }
    }

    fn check_sa_protocol(&self, sys: &System, ev: Event) {
        let hv = sys.hypervisor();
        for (i, v) in hv.all_vcpus().enumerate() {
            let pending = hv.is_sa_pending(v);
            let gen = hv.sa_generation(v);
            let (prev_pending, prev_gen) = self.sa[i];
            if gen < prev_gen {
                fail(
                    sys,
                    ev,
                    "sa-generation",
                    format!("{v} SA generation ran backwards {prev_gen} -> {gen}"),
                );
            }
            if pending && prev_pending && gen != prev_gen {
                fail(
                    sys,
                    ev,
                    "sa-double-send",
                    format!(
                        "{v} re-armed an SA (gen {prev_gen} -> {gen}) while one was already pending"
                    ),
                );
            }
        }
    }

    /// SA freeze hygiene: every frozen pCPU is frozen on its own current
    /// vCPU with a pending round, and no freeze outlives the completion
    /// limit (with slack for deadline jitter) — i.e. `sa_wait` is always
    /// cleared and no vCPU freezes a pCPU forever, even under faults.
    fn check_sa_freeze(&mut self, sys: &System, ev: Event) {
        let hv = sys.hypervisor();
        let now = sys.now();
        let Some(sa) = hv.config().sa.as_ref() else {
            return; // no SA configured: sa_wait can never be set
        };
        let limit = sa.completion_limit;
        // Deadline jitter can stretch the armed deadline to ~2x the nominal
        // limit; one tick period absorbs event granularity.
        let allowed = limit + limit + hv.config().tick_period;
        for p in 0..hv.n_pcpus() {
            let pcpu = PcpuId(p);
            match hv.pcpu_sa_wait(pcpu) {
                None => self.sa_wait_since[p] = None,
                Some(w) => {
                    if hv.pcpu_current(pcpu) != Some(w) || !hv.is_sa_pending(w) {
                        fail(
                            sys,
                            ev,
                            "sa-wait-consistency",
                            format!(
                                "pcpu{p} is frozen on {w}, but current={:?} pending={}",
                                hv.pcpu_current(pcpu),
                                hv.is_sa_pending(w)
                            ),
                        );
                    }
                    let gen = hv.sa_generation(w);
                    match self.sa_wait_since[p] {
                        Some((pw, pg, since)) if pw == w && pg == gen => {
                            if now - since > allowed {
                                fail(
                                    sys,
                                    ev,
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
            }
        }
    }
}

/// Renders the violation report and panics.
fn fail(sys: &System, ev: Event, invariant: &str, detail: String) -> ! {
    let dump = sys.trace_dump();
    let trace = if dump.is_empty() {
        "  (trace ring disabled)\n".to_string()
    } else {
        dump
    };
    panic!(
        "scheduler invariant violated: {invariant}\n  {detail}\n  at t={} after {:?} under {}\n\
         --- last scheduling decisions (oldest first) ---\n{trace}",
        sys.now(),
        ev,
        sys.strategy,
    );
}
