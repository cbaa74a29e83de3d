//! Per-VM runtime state: the guest kernel, the workload, and execution
//! bookkeeping.

use irs_guest::GuestOs;
use irs_sim::SimTime;
use irs_sync::SyncSpace;
use irs_workloads::{OpenLoop, ProgramRunner, WorkloadKind};
use irs_xen::RunstateInfo;

/// What a task is doing right now, from the execution engine's viewpoint.
/// Only `System::set_activity` changes it, and only along one of the nine
/// edges [`Activity::may_become`] lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Activity {
    /// Needs the next program step as soon as it executes (fresh task,
    /// finished segment, or completed wait).
    Resume,
    /// Computing; `remaining` ns of the segment left, `useful` credited on
    /// completion.
    Computing { remaining: u64, useful: u64 },
    /// Waiting on a synchronization object by busy-waiting: a spinning
    /// waiter's PAUSE loop, or the futex grace of a blocking one (the
    /// "very short period of time spinning when performing wait queue
    /// operations" that PLE reacts to on blocking workloads, paper §5.2).
    /// A wait whose spin budget runs out turns into `BlockedSync`; a
    /// grant turns it into `Resume`.
    Spin,
    /// Asleep on a synchronization object, awaiting an explicit wake.
    BlockedSync,
    /// Asleep on a timer.
    Sleeping,
    /// Program finished.
    Done,
}

impl Activity {
    /// Whether a task may change from `self` to `to`. A task leaves
    /// `Resume` for the step its program draws (a segment, a wait, a
    /// sleep or its end) and comes back to it when that step completes;
    /// a spinning wait may also give up and block. Nothing leaves `Done`.
    pub(crate) fn may_become(self, to: Activity) -> bool {
        use Activity::*;
        matches!(
            (self, to),
            (Resume, Computing { .. } | Spin | Sleeping | Done)
                | (Computing { .. }, Resume)
                | (Spin, Resume | BlockedSync)
                | (BlockedSync | Sleeping, Resume)
        )
    }
}

/// Execution context: which task is consuming CPU on a vCPU, since when.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecCtx {
    pub task: usize,
    pub since: SimTime,
}

/// Per-task runtime state — the *cold* remainder. The fields the event
/// dispatch loop touches on nearly every event (`activity`, the two
/// staleness generations) live in the parallel struct-of-arrays vectors on
/// [`Domain`] (`task_activity` / `task_step_gen` / `task_wait_gen`), so a
/// staleness probe reads one element of a dense `u64` array instead of
/// dereferencing into this struct past the program runner.
#[derive(Debug, Clone)]
pub(crate) struct TaskRt {
    pub runner: ProgramRunner,
    /// Pending cache warm-up penalty (ns) added to the next segment.
    pub penalty_ns: u64,
    /// Open request timestamp (`RequestStart`, an awaited arrival, or the
    /// stamp of a popped channel item). A push moves it into the channel,
    /// so end-to-end latency survives multi-tier hops.
    pub req_open: Option<SimTime>,
}

/// EWMA steal estimator per vCPU (the guest-visible paravirtual steal
/// clock; sampled against the hypervisor's runstate accounting).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StealTracker {
    last_runnable: SimTime,
    last_total: SimTime,
    pub ewma: f64,
}

impl StealTracker {
    pub fn new() -> Self {
        StealTracker {
            last_runnable: SimTime::ZERO,
            last_total: SimTime::ZERO,
            ewma: 0.0,
        }
    }

    /// True when a snapshot taken at `now` would land in the sub-ms dead
    /// window and leave the estimator untouched — [`StealTracker::update`]
    /// would return `ewma` unchanged. Relies on runstate clocks accounting
    /// *all* time (every vCPU clock starts at t=0 and every instant is
    /// charged to exactly one state), so a clock's `total()` at `now` is
    /// `now` itself; the hot per-event view refill uses this to skip the
    /// clock read entirely.
    #[inline]
    pub fn quiescent_at(&self, now: SimTime) -> bool {
        now.saturating_sub(self.last_total) < SimTime::from_millis(1)
    }

    /// First instant at which [`StealTracker::quiescent_at`] turns false —
    /// i.e. until when a fresh snapshot is guaranteed to leave the
    /// estimator untouched. The view cache stays valid up to the minimum
    /// of this horizon over a VM's trackers.
    #[inline]
    pub fn quiescent_until(&self) -> SimTime {
        self.last_total + SimTime::from_millis(1)
    }

    /// Folds a fresh runstate snapshot in. Windows shorter than 1 ms reuse
    /// the previous estimate (too noisy to update).
    pub fn update(&mut self, info: &RunstateInfo) -> f64 {
        let total = info.total();
        let window = total.saturating_sub(self.last_total);
        if window >= SimTime::from_millis(1) {
            let stolen = info.runnable.saturating_sub(self.last_runnable);
            let frac = stolen.ratio(window).clamp(0.0, 1.0);
            self.ewma = 0.5 * self.ewma + 0.5 * frac;
            self.last_total = total;
            self.last_runnable = info.runnable;
        }
        self.ewma
    }
}

/// Everything the simulation keeps per VM.
#[derive(Debug, Clone)]
pub(crate) struct Domain {
    pub name: String,
    pub os: GuestOs,
    pub space: SyncSpace,
    pub tasks: Vec<TaskRt>,
    /// What each task is doing right now (parallel to `tasks`; see
    /// [`TaskRt`] for the layout rationale).
    pub task_activity: Vec<Activity>,
    /// Invalidates outstanding `TaskStep` events (parallel to `tasks`).
    pub task_step_gen: Vec<u64>,
    /// Invalidates outstanding wait-expiry events (parallel to `tasks`).
    pub task_wait_gen: Vec<u64>,
    pub kind: WorkloadKind,
    pub memory_intensity: f64,
    pub open_loop: Option<OpenLoop>,
    /// Per-vCPU execution context.
    pub exec: Vec<Option<ExecCtx>>,
    /// Per-vCPU guest-tick generation.
    pub tick_gen: Vec<u64>,
    /// When each vCPU last processed a guest tick (drives catch-up ticks:
    /// an overdue timer fires immediately on resume, as a real pending
    /// timer IRQ would).
    pub last_tick: Vec<SimTime>,
    /// Per-vCPU PLE-window generation.
    pub ple_gen: Vec<u64>,
    /// Per-vCPU steal estimator behind each view's `steal_frac`.
    pub steal: Vec<StealTracker>,
    /// Cached guest-visible per-vCPU views, refilled in place by
    /// `System::fill_views`. Kept per domain so the cache survives events
    /// that interleave between VMs.
    pub view_buf: Vec<irs_guest::VcpuView>,
    /// Hypervisor runstate epoch the cached `view_buf` was built against.
    /// A bump anywhere invalidates (some vCPU changed state).
    pub views_epoch: u64,
    /// Cache horizon: `view_buf` is exact strictly before this instant
    /// (the minimum [`StealTracker::quiescent_until`] at fill time), as
    /// long as `views_epoch` still matches. `SimTime::ZERO` marks the
    /// cache invalid.
    pub views_deadline: SimTime,
    pub measured: bool,
    /// Tasks not yet `Done`.
    pub live_tasks: usize,
    /// Instant the last task finished (parallel workloads).
    pub completed_at: Option<SimTime>,
    /// Useful compute completed (ns) — the background progress metric.
    pub useful_ns: u64,
    /// Completed request latencies (µs).
    pub latencies_us: Vec<f64>,
    /// Completed request count.
    pub requests: u64,
    /// Open-loop requests dropped on a full accept queue.
    pub dropped_requests: u64,
    /// Lock-holder preemptions observed.
    pub lhp: u64,
    /// Lock-waiter preemptions observed (head spinner preempted).
    pub lwp: u64,
    /// The migrator-run event is already scheduled.
    pub migrator_armed: bool,
}

impl Domain {
    /// All of this VM's tasks have finished.
    pub fn is_complete(&self) -> bool {
        self.live_tasks == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_xen::RunState;

    fn info(running_ms: u64, runnable_ms: u64) -> RunstateInfo {
        RunstateInfo {
            state: RunState::Running,
            running: SimTime::from_millis(running_ms),
            runnable: SimTime::from_millis(runnable_ms),
            blocked: SimTime::ZERO,
        }
    }

    #[test]
    fn the_activity_table_has_exactly_the_nine_edges() {
        use Activity::*;
        let computing = Computing {
            remaining: 1,
            useful: 1,
        };
        let all = [Resume, computing, Spin, BlockedSync, Sleeping, Done];
        let edges: Vec<(Activity, Activity)> = all
            .iter()
            .flat_map(|&a| {
                all.iter()
                    .filter(move |&&b| a.may_become(b))
                    .map(move |&b| (a, b))
            })
            .collect();
        assert_eq!(
            edges,
            [
                (Resume, computing),
                (Resume, Spin),
                (Resume, Sleeping),
                (Resume, Done),
                (computing, Resume),
                (Spin, Resume),
                (Spin, BlockedSync),
                (BlockedSync, Resume),
                (Sleeping, Resume),
            ]
        );
    }

    #[test]
    fn steal_tracker_converges_on_the_true_fraction() {
        let mut t = StealTracker::new();
        // Repeated 50% steal windows.
        for i in 1..=10u64 {
            t.update(&info(10 * i, 10 * i));
        }
        assert!((t.ewma - 0.5).abs() < 0.01, "got {}", t.ewma);
    }

    #[test]
    fn steal_tracker_ignores_sub_ms_windows() {
        let mut t = StealTracker::new();
        t.update(&info(100, 100));
        let before = t.ewma;
        // A second sample only microseconds later must not perturb it.
        let mut tiny = info(100, 100);
        tiny.running += SimTime::from_micros(10);
        t.update(&tiny);
        assert_eq!(t.ewma, before);
    }

    #[test]
    fn steal_tracker_decays_when_contention_ends() {
        let mut t = StealTracker::new();
        t.update(&info(10, 10)); // 50% steal
        let peak = t.ewma;
        t.update(&info(30, 10)); // next window: no steal
        assert!(t.ewma < peak);
    }
}
