//! The co-simulation: one event loop driving the hypervisor, every guest
//! kernel, and every workload program on a shared virtual timeline.
//!
//! Division of labour:
//!
//! * `irs-xen` and `irs-guest` own their *state machines* and return
//!   actions; this module owns *time* — it arms and validates every timer
//!   (slices, ticks, compute segments, SA rounds, PLE windows, arrivals)
//!   using generation counters for O(1) logical cancellation.
//! * Task execution lives in [`crate::exec`]: a task makes progress exactly
//!   while it is guest-current on a vCPU that the hypervisor is actually
//!   running. Everything the paper calls a semantic gap falls out of that
//!   one rule — a preempted vCPU freezes its current task while the guest
//!   still believes it is `Running`.

use crate::domain::{Activity, Domain, StealTracker, TaskRt};
use crate::events::Event;
use crate::results::{RunResult, VmResult};
use crate::scenario::Scenario;
use crate::strategy::Strategy;
use irs_guest::{GuestAction, GuestOs, GuestSaConfig, VcpuView};
use irs_sim::trace::TraceEvent;
use irs_sim::{EventQueue, SimRng, SimTime};
use irs_sync::OfferOutcome;
use irs_workloads::{ProgramRunner, WorkloadKind};
use irs_xen::{HvAction, Hypervisor, PcpuId, RunState, SchedOp, VcpuRef, VmSpec};

/// Modelling knobs that are not part of any scheduler's configuration.
/// The default traces nothing, spins forever, checks nothing and injects
/// no faults.
#[derive(Debug, Clone, Default)]
pub struct SystemConfig {
    /// Capacity of each of the two in-memory trace rings (0 disables
    /// tracing). When enabled, the hypervisor records its typed scheduling
    /// decisions, and the system records each guest decision it applies
    /// and each fault it injects, with virtual timestamps; render the
    /// merged timeline via [`System::trace_dump`].
    pub trace_capacity: usize,
    /// Spin budget of a spinning wait (paravirtual spin-then-halt,
    /// pv-spinlock semantics, paper §5.1): an ungranted spin longer than
    /// this halts until the grant kicks it, as a blocking wait sleeps once
    /// its 30 µs futex grace runs out. `None` spins forever, as user-level
    /// `OMP_WAIT_POLICY=active` waiters do.
    pub pv_spin: Option<SimTime>,
    /// Runs the online invariant sanitizer ([`crate::check`]) after every
    /// event. Also enabled process-wide by
    /// [`crate::check::set_check_enabled`]; when on, both trace rings are
    /// armed automatically (256 records each, unless `trace_capacity` says
    /// otherwise) so a violation report has decisions to show
    /// ([`System::trace_dump`]).
    pub check: bool,
    /// Deterministic fault injection ([`crate::faults`]): `None` (the
    /// default) injects nothing and costs nothing. The fault stream is
    /// forked from the scenario seed, so a given `(scenario, faults)`
    /// pair is bit-reproducible regardless of checking or parallelism.
    pub faults: Option<crate::faults::FaultConfig>,
}

/// Fixed salt separating the open-loop arrival streams from the workload
/// RNG (both are forked from the scenario seed). Every open-loop request,
/// `ab`'s accept queue included, arrives on one of these streams.
const ARRIVAL_STREAM_SALT: u64 = 0x6f70_656e_5f6c_6f6f; // "open_loo"

/// Most VMs an [`Event`] can address: its `vm` field is a `u16`.
const MAX_VMS: usize = 1 << 16;
/// Most pCPUs, and vCPUs or threads per VM, an [`Event`] can address: its
/// `pcpu`, `vcpu` and `task` fields are `u32`.
const MAX_U32_INDEXED: u64 = 1 << 32;

/// Rejects a scenario whose indices would not fit an [`Event`]'s narrow
/// fields, so every conversion into and out of one is lossless.
fn check_event_widths(scenario: &Scenario) {
    assert!(
        scenario.vms.len() <= MAX_VMS,
        "scenario has {} VMs; an event addresses at most {MAX_VMS}",
        scenario.vms.len()
    );
    assert!(
        scenario.n_pcpus as u64 <= MAX_U32_INDEXED,
        "scenario has {} pCPUs; an event addresses at most {MAX_U32_INDEXED}",
        scenario.n_pcpus
    );
    for (i, vm) in scenario.vms.iter().enumerate() {
        let most = vm.n_vcpus.max(vm.bundle.threads.len());
        assert!(
            most as u64 <= MAX_U32_INDEXED,
            "vm{i} has {} vCPUs and {} threads; an event addresses at most \
             {MAX_U32_INDEXED} of each",
            vm.n_vcpus,
            vm.bundle.threads.len()
        );
    }
}

/// Safety valve on total events processed (a run that trips it is a bug,
/// not a result).
const MAX_EVENTS: u64 = 200_000_000;

/// Base cache warm-up penalty a task pays after a cross-vCPU migration,
/// scaled by the workload's memory intensity.
const CACHE_PENALTY: SimTime = SimTime::from_micros(200);

/// The assembled co-simulation. Construct from a [`Scenario`], then
/// [`System::run`].
#[derive(Debug, Clone)]
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) strategy: Strategy,
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) hv: Hypervisor,
    pub(crate) domains: Vec<Domain>,
    pub(crate) rng: SimRng,
    pub(crate) horizon: SimTime,
    armed_slice_gen: Vec<Option<u64>>,
    /// The hypervisor [`dispatch_epoch`](Hypervisor::dispatch_epoch) the
    /// last slice-timer scan ran under; while it holds steady no dispatch
    /// moved, so [`System::refresh_slice_timers`] skips the pCPU walk.
    /// `None` forces the next scan.
    armed_epoch: Option<u64>,
    stopped: bool,
    events_processed: u64,
    /// The typed trace ring of what this system applies and injects: the
    /// guests' task runs, stops and migrations, and every fault.
    trace: irs_sim::trace::TraceRing,
    /// The online invariant sanitizer, when checking is enabled.
    pub(crate) checker: Option<crate::check::Checker>,
    /// Live fault injector, when [`SystemConfig::faults`] is set.
    faults: Option<crate::faults::FaultState>,
}

impl System {
    /// Builds the full system from a scenario description.
    ///
    /// # Panics
    ///
    /// Panics on malformed scenarios (no VMs, thread/vCPU mismatches,
    /// pinning out of range).
    pub fn new(scenario: Scenario) -> Self {
        Self::with_config(scenario, SystemConfig::default())
    }

    /// Builds with explicit modelling knobs.
    ///
    /// # Panics
    ///
    /// As [`System::new`], and before building anything on a scenario
    /// larger than an event can address: more than 65,536 VMs, or more
    /// than 2^32 pCPUs, or a VM with more than 2^32 vCPUs or threads.
    pub fn with_config(scenario: Scenario, mut cfg: SystemConfig) -> Self {
        assert!(!scenario.vms.is_empty(), "a scenario needs at least one VM");
        check_event_widths(&scenario);
        let strategy = scenario.strategy;
        let mut xen_cfg = strategy.xen_config();
        if let Some(slice) = scenario.slice_override {
            xen_cfg.time_slice = slice;
        }
        xen_cfg.placement_salt = scenario.seed;
        let mut hv = Hypervisor::new(xen_cfg, scenario.n_pcpus);
        // From here on `cfg.check` alone says whether this run is checked.
        // The sanitizer needs decisions to show in a violation report, so
        // checking arms the typed trace rings even when the caller did not
        // ask for a trace explicitly.
        cfg.check |= crate::check::check_enabled();
        let checking = cfg.check;
        let ring_cap = if cfg.trace_capacity > 0 {
            cfg.trace_capacity
        } else if checking {
            256
        } else {
            0
        };
        if ring_cap > 0 {
            hv.enable_trace(ring_cap);
        }

        let mut domains = Vec::new();
        for (vm_index, vm) in scenario.vms.into_iter().enumerate() {
            let sa_guest = vm
                .irs_guest
                .unwrap_or(vm.measured && strategy.sa_capable_guest());
            let mut spec = VmSpec::new(vm.n_vcpus).sa_capable(sa_guest);
            if let Some(p) = vm.pinning {
                spec = spec.pin(p);
            }
            hv.create_vm(spec);

            // An SA-capable VM runs the guest half of IRS when the strategy
            // sends upcalls (or its parameters are overridden).
            let guest_sa = if sa_guest {
                vm.sa_override
                    .or_else(|| strategy.sa_capable_guest().then(GuestSaConfig::default))
            } else {
                None
            };
            let mut os = GuestOs::new(guest_sa, vm.n_vcpus);
            let mut bundle = vm.bundle;
            // Every id a program or the open-loop source names must exist
            // and every gang epoch must be balanced. Checked here so the
            // interpreter itself can never fault.
            if let Err(problem) = bundle.check() {
                panic!("vm{vm_index} {problem}");
            }
            // Arrival processes draw from their own streams, forked from
            // the scenario seed with a fixed per-(vm, arrival) salt:
            // decorrelated from the workload RNG, so a VM's arrival
            // schedule depends on neither the strategy nor `--jobs`, and
            // both arms of a comparison are offered the same requests.
            for i in 0..bundle.space.n_arrivals() {
                let mut parent = SimRng::seed_from(scenario.seed ^ ARRIVAL_STREAM_SALT);
                let child = parent.fork(((vm_index as u64) << 32) | i as u64);
                bundle.space.arrival(irs_sync::ArrivalId(i)).reseed(child);
            }
            // Parallel presets spawn N copies of one thread program:
            // dedupe the per-domain programs behind `Arc` so sibling tasks
            // share a single op vector instead of each cloning it.
            let mut shared: Vec<std::sync::Arc<irs_workloads::Program>> = Vec::new();
            let tasks: Vec<TaskRt> = std::mem::take(&mut bundle.threads)
                .into_iter()
                .enumerate()
                .map(|(i, prog)| {
                    os.spawn(i % vm.n_vcpus);
                    let prog = match shared.iter().find(|a| ***a == prog) {
                        Some(a) => std::sync::Arc::clone(a),
                        None => {
                            let a = std::sync::Arc::new(prog);
                            shared.push(std::sync::Arc::clone(&a));
                            a
                        }
                    };
                    TaskRt {
                        runner: ProgramRunner::new(prog),
                        penalty_ns: 0,
                        req_open: None,
                    }
                })
                .collect();
            let live_tasks = tasks.len();
            domains.push(Domain {
                name: bundle.name.clone(),
                os,
                space: bundle.space,
                task_activity: vec![Activity::Resume; tasks.len()],
                task_step_gen: vec![0; tasks.len()],
                task_wait_gen: vec![0; tasks.len()],
                tasks,
                kind: bundle.kind,
                memory_intensity: bundle.memory_intensity,
                open_loop: bundle.open_loop,
                exec: vec![None; vm.n_vcpus],
                tick_gen: vec![0; vm.n_vcpus],
                last_tick: vec![SimTime::ZERO; vm.n_vcpus],
                ple_gen: vec![0; vm.n_vcpus],
                steal: vec![StealTracker::new(); vm.n_vcpus],
                view_buf: Vec::new(),
                views_epoch: 0,
                views_deadline: SimTime::ZERO,
                measured: vm.measured,
                live_tasks,
                completed_at: None,
                useful_ns: 0,
                latencies_us: Vec::new(),
                requests: 0,
                dropped_requests: 0,
                lhp: 0,
                lwp: 0,
                migrator_armed: false,
            });
        }

        let n_pcpus = hv.n_pcpus();
        let trace = if ring_cap > 0 {
            irs_sim::trace::TraceRing::enabled(ring_cap)
        } else {
            irs_sim::trace::TraceRing::disabled()
        };
        // The fault stream is forked from the scenario seed with a fixed
        // salt: decorrelated from the workload stream, and untouched by
        // checking or `--jobs`, so fault schedules are bit-reproducible.
        let faults = cfg.faults.clone().map(|f| {
            let counts: Vec<usize> = domains.iter().map(|d| d.os.n_vcpus()).collect();
            crate::faults::FaultState::new(f, scenario.seed, &counts)
        });
        let mut sys = System {
            cfg,
            strategy,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            hv,
            domains,
            rng: SimRng::seed_from(scenario.seed),
            horizon: scenario.horizon,
            armed_slice_gen: vec![None; n_pcpus],
            armed_epoch: None,
            stopped: false,
            events_processed: 0,
            trace,
            checker: None,
            faults,
        };
        sys.boot();
        if checking {
            sys.checker = Some(crate::check::Checker::new(&sys));
        }
        sys
    }

    /// Boots every guest, starts the hypervisor, and arms periodic timers.
    fn boot(&mut self) {
        // Guests pick initial currents; vCPUs with empty runqueues are
        // registered as blocked before the hypervisor's first dispatch.
        for vm in 0..self.domains.len() {
            let acts = self.domains[vm].os.start();
            for act in acts {
                match act {
                    GuestAction::Hypercall {
                        vcpu,
                        op: SchedOp::Block,
                    } => {
                        self.hv
                            .block_before_start(VcpuRef::new(irs_xen::VmId(vm), vcpu));
                    }
                    GuestAction::RunTask { vcpu, task } => {
                        // Execution starts when the hypervisor dispatches
                        // the vCPU (VcpuStarted).
                        self.trace.emit(SimTime::ZERO, || TraceEvent::TaskRun {
                            vm,
                            vcpu,
                            task: task.0,
                        });
                    }
                    other => panic!("unexpected boot action {other}"),
                }
            }
        }
        let acts = self.hv.start(SimTime::ZERO);
        self.apply_hv_actions(acts);

        self.queue.schedule(irs_xen::TICK_PERIOD, Event::HvTick);
        self.queue
            .schedule(irs_xen::ACCOUNTING_PERIOD, Event::HvAccounting);
        self.queue.schedule(self.horizon, Event::Horizon);
        if self.hv.is_gang_mode() {
            // Open the first gang slot immediately.
            let acts = self.hv.gang_rotate(SimTime::ZERO);
            self.apply_hv_actions(acts);
            let slice = self.hv.config().time_slice;
            self.queue.schedule(slice, Event::GangRotate);
        }
        for vm in 0..self.domains.len() {
            self.schedule_next_request(vm);
        }
        self.refresh_slice_timers();
    }

    /// Runs until the measured workloads complete or the horizon fires.
    ///
    /// The completion conditions are checked *before* each step as well as
    /// after, so `run` is a pure function of state: a [`Snapshot`] taken at
    /// any point — including after completion — resumes into exactly the
    /// suffix a from-scratch run would have executed.
    pub fn run(mut self) -> RunResult {
        while !self.stopped && !self.measurement_done() {
            if !self.step() {
                break;
            }
        }
        if let Some(mut checker) = self.checker.take() {
            checker.finish(&self);
        }
        self.into_result()
    }

    /// Runs until the next pending event is at or past `until` (or the run
    /// completes first). This is how a run reaches a snapshot instant:
    /// drive it to a virtual instant, [`snapshot`](Self::snapshot) it, and
    /// resume branches — prefix + suffix equals the whole run under the
    /// deterministic event order, so branches stay bit-identical to
    /// from-scratch runs at any boundary. Returns `false` once the run is
    /// already complete (horizon, measured workloads done, or queue
    /// exhausted).
    pub fn run_until(&mut self, until: SimTime) -> bool {
        while !self.stopped && !self.measurement_done() {
            match self.queue.peek_time() {
                Some(t) if t < until => {
                    if !self.step() {
                        return false;
                    }
                }
                Some(_) => return true,
                None => return false,
            }
        }
        false
    }

    /// Processes one event. Returns `false` when the queue is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the event-count safety valve trips (a runaway loop).
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.queue.pop() else {
            return false;
        };
        self.events_processed += 1;
        assert!(
            self.events_processed <= MAX_EVENTS,
            "event safety valve tripped at {} events (now {})",
            self.events_processed,
            self.now
        );
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.dispatch(ev);
        // Strict co-scheduling: rotate early rather than idle the machine
        // when the gang VM went fully idle and another VM has work.
        if self.hv.is_gang_mode() && self.hv.gang_vm_fully_idle() {
            let other_wants =
                (0..self.domains.len()).any(|vm| self.hv.vm_wants_cpu(irs_xen::VmId(vm)));
            if other_wants {
                let acts = self.hv.gang_rotate(self.now);
                self.apply_hv_actions(acts);
            }
        }
        self.refresh_slice_timers();
        if let Some(mut checker) = self.checker.take() {
            checker.check(self, ev);
            self.checker = Some(checker);
        }
        true
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Merges the two typed trace rings — the hypervisor's decisions, then
    /// the guest decisions and faults this system applied — into one
    /// timeline, stable-sorted by virtual timestamp, and renders every
    /// record one line each, oldest first. Empty unless tracing is armed
    /// (via [`SystemConfig::trace_capacity`] or checking). The invariant
    /// sanitizer's violation report carries its last 120 lines.
    pub fn trace_dump(&self) -> String {
        let mut records: Vec<&irs_sim::trace::TraceRecord> =
            self.hv.trace().records().iter().collect();
        records.extend(self.trace.records());
        // Stable, so ties keep ring order (hypervisor first).
        records.sort_by_key(|r| r.at);
        let mut out = String::new();
        for rec in records {
            out.push_str(&rec.to_string());
            out.push('\n');
        }
        out
    }

    /// Read access to the hypervisor (diagnostics, tests, probes).
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.hv
    }

    /// Read access to a VM's guest kernel (diagnostics, tests, probes).
    pub fn guest(&self, vm: usize) -> &irs_guest::GuestOs {
        &self.domains[vm].os
    }

    /// Renders a one-line-per-entity snapshot of a VM: every vCPU's
    /// hypervisor runstate, guest-current task and queue, then every
    /// task's state, vruntime, and workload activity, for stuck-run
    /// diagnosis.
    pub fn debug_vm(&self, vm: usize) -> String {
        use std::fmt::Write as _;
        let d = &self.domains[vm];
        let mut out = String::new();
        for vcpu in 0..d.os.n_vcpus() {
            let v = VcpuRef::new(irs_xen::VmId(vm), vcpu);
            let rq = d.os.rq(vcpu);
            let queued: Vec<String> = rq.iter().map(|(vr, id)| format!("{id}@{vr}")).collect();
            let _ = writeln!(
                out,
                "v{vcpu}: {:?} cur={:?} min_vr={} q=[{}]",
                self.hv.vcpu_state(v),
                d.os.current(vcpu).map(|t| t.to_string()),
                rq.min_vruntime,
                queued.join(", "),
            );
        }
        for i in 0..d.tasks.len() {
            let task = d.os.task(irs_guest::TaskId(i));
            let exec = d.exec[task.cpu]
                .filter(|c| c.task == i)
                .map(|c| format!("exec(since={})", c.since));
            let _ = writeln!(
                out,
                "T{i}: {:?} cpu=v{} vr={} custody={} gen={} {:?} {}",
                task.state,
                task.cpu,
                task.vruntime,
                task.in_custody,
                d.task_step_gen[i],
                d.task_activity[i],
                exec.as_deref().unwrap_or("no-exec"),
            );
        }
        out
    }

    /// Requests migration of `task` in `vm` to vCPU `dest` through the
    /// vanilla stopper path (`sched_setaffinity` semantics) — the operation
    /// Fig 1(b) measures. A running task's migration completes only when
    /// its source vCPU next executes a tick; poll
    /// [`System::guest`]`.task(..).cpu` to observe completion.
    pub fn migrate_task(&mut self, vm: usize, task: irs_guest::TaskId, dest: usize) {
        let acts = self.domains[vm].os.request_stop_migration(task, dest);
        self.apply_guest_actions(vm, acts);
    }

    /// True once every measured parallel workload has completed (server
    /// and interference workloads only end at the horizon).
    fn measurement_done(&self) -> bool {
        let mut any = false;
        for d in &self.domains {
            if d.measured && d.kind == WorkloadKind::Parallel {
                any = true;
                if !d.is_complete() {
                    return false;
                }
            }
        }
        any
    }

    // ==================================================================
    // snapshot
    // ==================================================================

    /// Captures a deep, self-contained checkpoint of the whole machine: a
    /// clone of this `System`. That covers the hypervisor (credit arena,
    /// runqueues, SA rounds, runstate clocks), every guest kernel (CFS
    /// state, task arrays, sync space; programs stay `Arc`-shared), the
    /// timer-wheel event queue (buckets, occupancy bitmaps, overflow list,
    /// cursor, sequence counter), the workload RNG, the fault-injection
    /// stream (RNG position, wedge windows, stats) and the sanitizer's
    /// rolling baseline.
    ///
    /// Not captured: trace-ring *contents* (cloning a ring keeps only its
    /// configuration, so a resumed system starts with empty rings). See
    /// DESIGN.md §2.7 for the full contract.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.clone())
    }

    /// Events processed so far (matches [`RunResult::events`] at
    /// completion).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    // ==================================================================
    // event dispatch
    // ==================================================================

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::HvTick => {
                let acts = self.hv.tick(self.now);
                self.apply_hv_actions(acts);
                self.inject_degradation();
                let next = self.now + irs_xen::TICK_PERIOD;
                self.queue.schedule(next, Event::HvTick);
            }
            Event::HvAccounting => {
                let acts = self.hv.accounting(self.now);
                self.apply_hv_actions(acts);
                let next = self.now + irs_xen::ACCOUNTING_PERIOD;
                self.queue.schedule(next, Event::HvAccounting);
            }
            Event::SliceExpiry { pcpu, gen } => {
                let acts = self.hv.slice_expired(PcpuId(pcpu as usize), gen, self.now);
                self.apply_hv_actions(acts);
            }
            Event::GuestTick { vm, vcpu, gen } => self.on_guest_tick(vm.into(), vcpu as usize, gen),
            Event::TaskStep { vm, task, gen } => self.on_task_step(vm.into(), task as usize, gen),
            Event::SaProcess { vm, vcpu, gen } => self.on_sa_process(vm.into(), vcpu as usize, gen),
            Event::SaTimeout { vm, vcpu, gen } => {
                let v = VcpuRef::new(irs_xen::VmId(vm.into()), vcpu as usize);
                let acts = self.hv.sa_timeout(v, gen, self.now);
                self.apply_hv_actions(acts);
            }
            Event::SaAckDeliver {
                vm,
                vcpu,
                gen,
                yield_op,
            } => self.on_sa_ack_deliver(vm.into(), vcpu as usize, gen, yield_op),
            Event::MigratorRun { vm } => self.on_migrator_run(vm.into()),
            Event::PleWindow { vm, vcpu, gen } => self.on_ple_window(vm.into(), vcpu as usize, gen),
            Event::RequestArrive { vm } => self.on_request_arrive(vm.into()),
            Event::WakeTimer { vm, task } => self.on_wake_timer(vm.into(), task as usize),
            Event::WaitExpire { vm, task, gen } => {
                self.on_wait_expire(vm.into(), task as usize, gen)
            }
            Event::GangRotate => {
                let acts = self.hv.gang_rotate(self.now);
                self.apply_hv_actions(acts);
                let next = self.now + self.hv.config().time_slice;
                self.queue.schedule(next, Event::GangRotate);
            }
            Event::Horizon => self.stopped = true,
        }
    }

    fn on_guest_tick(&mut self, vm: usize, vcpu: usize, gen: u64) {
        if self.domains[vm].tick_gen[vcpu] != gen {
            return; // the vCPU stopped running since this was armed
        }
        self.domains[vm].last_tick[vcpu] = self.now;
        self.sync_exec(vm, vcpu);
        self.fill_views(vm);
        let d = &mut self.domains[vm];
        let acts = d.os.tick(vcpu, &d.view_buf);
        self.apply_guest_actions(vm, acts);
        self.queue.schedule(
            self.now + irs_guest::TICK_PERIOD,
            Event::GuestTick {
                vm: vm as u16,
                vcpu: vcpu as u32,
                gen,
            },
        );
    }

    fn on_task_step(&mut self, vm: usize, task: usize, gen: u64) {
        if self.domains[vm].task_step_gen[task] != gen {
            return; // superseded by a context switch
        }
        let vcpu = self.domains[vm].os.task(irs_guest::TaskId(task)).cpu;
        debug_assert_eq!(
            self.domains[vm].os.current(vcpu),
            Some(irs_guest::TaskId(task)),
            "TaskStep for non-current task{task} (vm{vm} v{vcpu}, activity {:?}, state {:?}, exec {:?})",
            self.domains[vm].task_activity[task],
            self.domains[vm].os.task(irs_guest::TaskId(task)).state,
            self.domains[vm].exec[vcpu],
        );
        self.sync_exec(vm, vcpu);
        let d = &mut self.domains[vm];
        if let Activity::Computing { remaining, useful } = d.task_activity[task] {
            debug_assert_eq!(remaining, 0, "segment completed with time left");
            d.useful_ns += useful;
        }
        self.set_activity(vm, task, Activity::Resume);
        self.advance_task(vm, task);
    }

    fn on_sa_process(&mut self, vm: usize, vcpu: usize, gen: u64) {
        let v = VcpuRef::new(irs_xen::VmId(vm), vcpu);
        if !self.hv.is_sa_pending(v) || self.hv.sa_generation(v) != gen {
            return; // the guest already answered (e.g. it blocked anyway)
        }
        // A wedged vCPU ignores vIRQs: retry the upcall once the window
        // clears. The completion limit usually wins the race, resolving
        // the round through the §4.1 force path.
        let wedged_until = self.faults.as_ref().and_then(|f| {
            f.is_wedged(vm, vcpu, self.now)
                .then(|| f.wedge_clears_at(vm, vcpu))
        });
        if let Some(until) = wedged_until {
            self.queue.schedule(
                until,
                Event::SaProcess {
                    vm: vm as u16,
                    vcpu: vcpu as u32,
                    gen,
                },
            );
            return;
        }
        // The preemptee kept running during the receiver/softirq delay;
        // charge that time before switching.
        self.sync_exec(vm, vcpu);
        // The upcall reads no views, but filling them samples every steal
        // tracker of the VM at this instant, and later steal fractions
        // depend on where those samples fall. Dropping this call moves
        // Fig 5 and Fig 6 tables.
        self.fill_views(vm);
        let sa = self.domains[vm].os.sa_upcall(vcpu);
        let op = sa.op;
        self.apply_guest_actions(vm, sa.actions);
        let now = self.now;
        // The guest handled the upcall, but the acknowledgement hypercall
        // itself can be dropped or deferred by the injector.
        if let Some(f) = self.faults.as_mut() {
            match f.ack_fate(now) {
                crate::faults::AckFate::Drop => {
                    self.trace.emit(now, || TraceEvent::FaultInjected {
                        kind: "ack-drop",
                        vm,
                        vcpu,
                    });
                    return;
                }
                crate::faults::AckFate::Delay(at) => {
                    self.trace.emit(now, || TraceEvent::FaultInjected {
                        kind: "ack-delay",
                        vm,
                        vcpu,
                    });
                    self.queue.schedule(
                        at,
                        Event::SaAckDeliver {
                            vm: vm as u16,
                            vcpu: vcpu as u32,
                            gen,
                            yield_op: op == SchedOp::Yield,
                        },
                    );
                    return;
                }
                crate::faults::AckFate::Deliver => {}
            }
        }
        let acts = self.hv.sched_op(v, op, now);
        self.apply_hv_actions(acts);
    }

    /// A fault-delayed SA acknowledgement arrives at the hypervisor. It is
    /// delivered only while the round it acknowledges is still pending;
    /// otherwise the completion limit already resolved the round and the
    /// late ack is discarded as stale (delivering it would desynchronize
    /// hypervisor and guest state).
    fn on_sa_ack_deliver(&mut self, vm: usize, vcpu: usize, gen: u64, yield_op: bool) {
        let v = VcpuRef::new(irs_xen::VmId(vm), vcpu);
        let now = self.now;
        if !self.hv.is_sa_pending(v) || self.hv.sa_generation(v) != gen {
            if let Some(f) = self.faults.as_mut() {
                f.stats.stale_acks_discarded += 1;
            }
            self.trace.emit(now, || TraceEvent::StaleAck { vm, vcpu });
            return;
        }
        let op = if yield_op {
            SchedOp::Yield
        } else {
            SchedOp::Block
        };
        let acts = self.hv.sched_op(v, op, now);
        self.apply_hv_actions(acts);
    }

    /// Capacity degradation: every hypervisor tick, each degraded pCPU may
    /// take a forced maintenance-style preemption of whatever it runs. The
    /// injection goes through the legitimate `slice_expired` path with the
    /// live dispatch generation, so credit and runstate semantics hold.
    fn inject_degradation(&mut self) {
        let Some(f) = self.faults.as_ref() else {
            return;
        };
        let k = f.config().degraded_pcpus.min(self.hv.n_pcpus());
        for p in 0..k {
            // Always draw (busy or not) so the fault stream depends only
            // on the tick count, never on scheduling state.
            let hit = self.faults.as_mut().is_some_and(|f| f.degrade_hit());
            if !hit {
                continue;
            }
            let now = self.now;
            let acts = self.hv.force_preempt(PcpuId(p), now);
            if acts.is_empty() {
                continue; // idle, frozen, or uncontended: nothing to degrade
            }
            if let Some(f) = self.faults.as_mut() {
                f.stats.degrade_preemptions += 1;
            }
            self.trace.emit(now, || TraceEvent::PcpuFault {
                kind: "degrade",
                pcpu: p,
            });
            self.apply_hv_actions(acts);
        }
    }

    fn on_migrator_run(&mut self, vm: usize) {
        self.domains[vm].migrator_armed = false;
        self.fill_views(vm);
        let d = &mut self.domains[vm];
        let acts = d.os.migrator_run(&d.view_buf);
        self.apply_guest_actions(vm, acts);
    }

    fn on_ple_window(&mut self, vm: usize, vcpu: usize, gen: u64) {
        if self.domains[vm].ple_gen[vcpu] != gen {
            return;
        }
        let v = VcpuRef::new(irs_xen::VmId(vm), vcpu);
        // Still a spinner actually executing?
        let spinning = self.domains[vm]
            .os
            .current(vcpu)
            .is_some_and(|t| self.domains[vm].task_activity[t.0] == Activity::Spin);
        if !spinning || self.hv.vcpu_state(v) != RunState::Running {
            return;
        }
        let acts = self.hv.ple_exit(v, self.now);
        self.apply_hv_actions(acts);
    }

    /// Schedules `vm`'s next open-loop request at the next instant of its
    /// arrival process; a VM without an open-loop source has none.
    fn schedule_next_request(&mut self, vm: usize) {
        let d = &mut self.domains[vm];
        if let Some(ol) = d.open_loop {
            let at = SimTime::from_nanos(d.space.arrival(ol.arrival).next_arrival_ns());
            self.queue
                .schedule(at, Event::RequestArrive { vm: vm as u16 });
        }
    }

    fn on_request_arrive(&mut self, vm: usize) {
        let Some(ol) = self.domains[vm].open_loop else {
            return;
        };
        let now = self.now;
        match self.domains[vm].space.channel(ol.channel).offer(now) {
            OfferOutcome::Accepted {
                wake_consumer: Some(w),
            } => {
                self.domains[vm].tasks[w.0].req_open = Some(now);
                self.grant(vm, w.0);
            }
            OfferOutcome::Accepted {
                wake_consumer: None,
            } => {}
            OfferOutcome::Full => {
                self.domains[vm].dropped_requests += 1;
            }
        }
        self.schedule_next_request(vm);
    }

    fn on_wake_timer(&mut self, vm: usize, task: usize) {
        self.set_activity(vm, task, Activity::Resume);
        self.wake_task(vm, task);
    }

    // ==================================================================
    // action interpreters
    // ==================================================================

    pub(crate) fn apply_hv_actions(&mut self, mut acts: Vec<HvAction>) {
        for act in acts.drain(..) {
            match act {
                // Stale-action guards: applying an action can re-enter the
                // hypervisor (a freshly started vCPU with nothing to run
                // blocks immediately, and that nested schedule may stop,
                // steal, or re-dispatch vCPUs named by actions still queued
                // in this batch). An action is applied only if it still
                // describes the hypervisor's present state; a superseded
                // one was already replaced by the nested call's own actions.
                HvAction::VcpuStarted { vcpu, pcpu } => {
                    if self.hv.vcpu_state(vcpu) == RunState::Running
                        && self.hv.pcpu_current(pcpu) == Some(vcpu)
                    {
                        self.on_vcpu_started(vcpu);
                    }
                }
                HvAction::VcpuStopped { vcpu, state } => {
                    if self.hv.vcpu_state(vcpu) != RunState::Running {
                        self.on_vcpu_stopped(vcpu, state);
                    }
                }
                HvAction::SaUpcall { vcpu, deadline } => {
                    let vm = vcpu.vm.0;
                    let gen = self.hv.sa_generation(vcpu);
                    let now = self.now;
                    // Fault injection at the delivery boundary: the upcall
                    // can be lost, the target vCPU can wedge, and the
                    // completion deadline can be jittered. Draw order is
                    // fixed so the fault stream is reproducible.
                    let mut deliver = true;
                    let mut deadline = deadline;
                    if let Some(f) = self.faults.as_mut() {
                        if f.drop_upcall() {
                            deliver = false;
                            self.trace.emit(now, || TraceEvent::FaultInjected {
                                kind: "upcall-loss",
                                vm,
                                vcpu: vcpu.idx,
                            });
                        }
                        if f.maybe_wedge(vm, vcpu.idx, now).is_some() {
                            self.trace.emit(now, || TraceEvent::FaultInjected {
                                kind: "wedge",
                                vm,
                                vcpu: vcpu.idx,
                            });
                        }
                        let jittered = f.jitter_deadline(now, deadline);
                        if jittered != deadline {
                            self.trace.emit(now, || TraceEvent::FaultInjected {
                                kind: "deadline-jitter",
                                vm,
                                vcpu: vcpu.idx,
                            });
                        }
                        deadline = jittered;
                    }
                    if deliver {
                        // The receiver and context switcher run as one
                        // event after the round delay. Upcalls only go to
                        // SA-capable VMs, whose guests always carry an SA
                        // configuration.
                        let delay = self.domains[vm]
                            .os
                            .sa_config()
                            .expect("an SA upcall reached a guest without IRS support")
                            .round_delay;
                        self.queue.schedule(
                            self.now + delay,
                            Event::SaProcess {
                                vm: vm as u16,
                                vcpu: vcpu.idx as u32,
                                gen,
                            },
                        );
                    }
                    // The completion deadline is hypervisor-side state: it
                    // arms even when the guest never saw the upcall — that
                    // is the whole point of the §4.1 force path.
                    self.queue.schedule(
                        deadline,
                        Event::SaTimeout {
                            vm: vm as u16,
                            vcpu: vcpu.idx as u32,
                            gen,
                        },
                    );
                }
            }
        }
        self.hv.recycle_actions(acts);
    }

    fn on_vcpu_started(&mut self, v: VcpuRef) {
        let vm = v.vm.0;
        let vcpu = v.idx;
        // Arm the guest tick chain for this dispatch. An overdue timer
        // fires immediately (pending-IRQ catch-up): a vCPU that only gets
        // sub-tick execution windows (e.g. under PLE yield storms) must
        // still run its scheduler tick, or queued tasks starve.
        self.domains[vm].tick_gen[vcpu] += 1;
        let gen = self.domains[vm].tick_gen[vcpu];
        let due = (self.domains[vm].last_tick[vcpu] + irs_guest::TICK_PERIOD).max(self.now);
        self.queue.schedule(
            due,
            Event::GuestTick {
                vm: vm as u16,
                vcpu: vcpu as u32,
                gen,
            },
        );

        let acts = self.domains[vm].os.ensure_current(vcpu);
        self.apply_guest_actions(vm, acts);
        if self.domains[vm].os.current(vcpu).is_none() {
            // Nothing local: idle balancing may pull from a busy sibling
            // (the receiving end of the guest's nohz kick).
            self.fill_views(vm);
            let d = &mut self.domains[vm];
            let acts = d.os.idle_balance(vcpu, &d.view_buf);
            self.apply_guest_actions(vm, acts);
        }
        if self.domains[vm].os.current(vcpu).is_some() {
            self.begin_exec(vm, vcpu);
        } else {
            // Nothing to run anywhere: the guest idle loop blocks.
            let acts = self.hv.sched_op(v, SchedOp::Block, self.now);
            self.apply_hv_actions(acts);
        }
    }

    fn on_vcpu_stopped(&mut self, v: VcpuRef, state: RunState) {
        let vm = v.vm.0;
        let vcpu = v.idx;
        self.end_exec(vm, vcpu);
        self.domains[vm].tick_gen[vcpu] += 1;
        self.domains[vm].ple_gen[vcpu] += 1;
        if state == RunState::Runnable {
            self.record_lhp_lwp(vm, vcpu);
        }
    }

    /// An involuntary preemption landed on `vcpu`: classify it as LHP/LWP
    /// by inspecting what its current task holds or heads.
    fn record_lhp_lwp(&mut self, vm: usize, vcpu: usize) {
        let Some(cur) = self.domains[vm].os.current(vcpu) else {
            return;
        };
        let d = &mut self.domains[vm];
        let n_locks = d.space.n_locks();
        for i in 0..n_locks {
            let lock = d.space.lock_ref(irs_sync::LockId(i));
            if lock.holder() == Some(cur) {
                d.lhp += 1;
                return;
            }
            if lock.head_waiter() == Some(cur) {
                d.lwp += 1;
                return;
            }
        }
    }

    /// Applies a guest's actions in order. The guest's task runs, stops
    /// and migrations go on the trace here, each right before it takes
    /// effect: the action carries every field of the record but the VM.
    pub(crate) fn apply_guest_actions(&mut self, vm: usize, mut acts: Vec<GuestAction>) {
        for act in acts.drain(..) {
            match act {
                GuestAction::RunTask { vcpu, task } => {
                    self.trace.emit(self.now, || TraceEvent::TaskRun {
                        vm,
                        vcpu,
                        task: task.0,
                    });
                    let v = VcpuRef::new(irs_xen::VmId(vm), vcpu);
                    if self.hv.vcpu_state(v) == RunState::Running {
                        self.begin_exec(vm, vcpu);
                    }
                }
                GuestAction::StopTask { vcpu, task } => {
                    self.trace.emit(self.now, || TraceEvent::TaskStop {
                        vm,
                        vcpu,
                        task: task.0,
                    });
                    self.end_exec(vm, vcpu);
                }
                GuestAction::Hypercall { vcpu, op } => {
                    let v = VcpuRef::new(irs_xen::VmId(vm), vcpu);
                    if op == SchedOp::Block
                        && self.strategy.pull_oracle()
                        && self.try_pull_oracle(vm, vcpu)
                    {
                        continue; // pulled work instead of idling
                    }
                    let acts2 = self.hv.sched_op(v, op, self.now);
                    self.apply_hv_actions(acts2);
                }
                GuestAction::WakeVcpu { vcpu } => {
                    let v = VcpuRef::new(irs_xen::VmId(vm), vcpu);
                    let acts2 = self.hv.vcpu_wake(v, self.now);
                    self.apply_hv_actions(acts2);
                }
                GuestAction::WakeMigrator => {
                    if !self.domains[vm].migrator_armed {
                        self.domains[vm].migrator_armed = true;
                        self.queue.schedule(
                            self.now + irs_guest::MIGRATOR_DELAY,
                            Event::MigratorRun { vm: vm as u16 },
                        );
                    }
                }
                GuestAction::TaskMigrated { task, from, to } => {
                    self.trace.emit(self.now, || TraceEvent::TaskMigrate {
                        vm,
                        task: task.0,
                        from,
                        to,
                    });
                    let penalty = CACHE_PENALTY
                        .scaled_f64(self.domains[vm].memory_intensity)
                        .as_nanos();
                    let d = &mut self.domains[vm];
                    match &mut d.task_activity[task.0] {
                        Activity::Computing { remaining, .. } => {
                            // Mid-segment and queued: lengthen the segment.
                            *remaining += penalty;
                        }
                        _ => d.tasks[task.0].penalty_ns += penalty,
                    }
                }
            }
        }
        self.domains[vm].os.recycle_actions(acts);
    }

    /// The §6 pull oracle: an idling vCPU yanks a stranded "running" task
    /// off a hypervisor-preempted sibling. Returns whether work was pulled.
    fn try_pull_oracle(&mut self, vm: usize, vcpu: usize) -> bool {
        let n = self.domains[vm].os.n_vcpus();
        for sib in 0..n {
            if sib == vcpu {
                continue;
            }
            let v = VcpuRef::new(irs_xen::VmId(vm), sib);
            if self.hv.vcpu_state(v) == RunState::Runnable
                && self.domains[vm].os.current(sib).is_some()
            {
                let acts = self.domains[vm].os.pull_running(vcpu, sib);
                self.apply_guest_actions(vm, acts);
                return true;
            }
        }
        false
    }

    // ==================================================================
    // timers and views
    // ==================================================================

    /// (Re)arms slice-expiry timers for pCPUs whose dispatch changed.
    ///
    /// Guarded by the machine-wide dispatch epoch: every component of a
    /// [`DispatchInfo`](irs_xen::DispatchInfo) snapshot (current vCPU,
    /// start, slice, generation) only changes together with a
    /// `dispatch_gen` bump, which also bumps the epoch — so an unchanged
    /// epoch proves the whole scan would be a no-op and most events skip
    /// it entirely.
    fn refresh_slice_timers(&mut self) {
        let epoch = self.hv.dispatch_epoch();
        if self.armed_epoch == Some(epoch) {
            return;
        }
        self.armed_epoch = Some(epoch);
        for p in 0..self.hv.n_pcpus() {
            match self.hv.dispatch_info(PcpuId(p)) {
                Some(info) => {
                    if self.armed_slice_gen[p] != Some(info.generation) {
                        self.armed_slice_gen[p] = Some(info.generation);
                        self.queue.schedule(
                            info.since + info.slice,
                            Event::SliceExpiry {
                                pcpu: p as u32,
                                gen: info.generation,
                            },
                        );
                    }
                }
                None => self.armed_slice_gen[p] = None,
            }
        }
    }

    /// Refills the domain's `view_buf` with the guest-visible per-vCPU
    /// views (runstate + steal EWMA) for `vm`. In-place so the hot
    /// dispatch loop never allocates; callers borrow `d.view_buf` right
    /// after.
    ///
    /// The refill is skipped entirely when the cached buffer is provably
    /// identical to what the loop would rebuild: no vCPU anywhere changed
    /// runstate since the fill (the hypervisor's machine-wide
    /// `runstate_epoch` is unchanged, so every state byte is the same) and
    /// `now` is still inside every tracker's quiescent window (so each
    /// recomputed `steal_frac` would be the unchanged `ewma` the cache
    /// already holds). Trackers are only mutated here.
    pub(crate) fn fill_views(&mut self, vm: usize) {
        let now = self.now;
        let System { hv, domains, .. } = self;
        let d = &mut domains[vm];
        let epoch = hv.runstate_epoch(irs_xen::VmId(vm));
        if d.views_epoch == epoch && now < d.views_deadline {
            return;
        }
        debug_assert_eq!(d.steal.len(), d.os.n_vcpus());
        d.view_buf.clear();
        let mut horizon = SimTime::MAX;
        for (tracker, clock) in d.steal.iter_mut().zip(hv.vm_clocks(irs_xen::VmId(vm))) {
            // Sub-ms window: `update` would return `ewma` untouched, so
            // skip the snapshot arithmetic and read only the state byte.
            let frac = if tracker.quiescent_at(now) {
                tracker.ewma
            } else {
                let info = clock.info(now);
                debug_assert_eq!(info.total(), now, "runstate clocks must account all time");
                tracker.update(&info)
            };
            horizon = horizon.min(tracker.quiescent_until());
            d.view_buf.push(VcpuView {
                state: clock.state(),
                steal_frac: frac,
            });
        }
        d.views_epoch = epoch;
        d.views_deadline = horizon;
    }

    // ==================================================================
    // results
    // ==================================================================

    fn into_result(self) -> RunResult {
        let elapsed = self.now;
        let hv = self.hv.stats().clone();
        let faults = self.faults.as_ref().map(|f| f.stats);
        let vms = self
            .domains
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let vm_id = irs_xen::VmId(i);
                // Requests still open at run end — accepted (or started)
                // but never completed: in some task's hands, or held by a
                // channel (queued, or beside a producer blocked on a full
                // one). Reported instead of silently dropped so a latency
                // table cannot claim a goodput its tail never paid. A stamp
                // past `elapsed` is a *future* open-loop arrival a task is
                // sleeping toward, not a truncated request.
                let truncated = d
                    .tasks
                    .iter()
                    .filter(|t| t.req_open.is_some_and(|t0| t0 <= elapsed))
                    .count()
                    + d.space.held_requests();
                VmResult {
                    name: d.name,
                    kind: d.kind,
                    measured: d.measured,
                    makespan: d.completed_at,
                    useful: SimTime::from_nanos(d.useful_ns),
                    cpu_time: self.hv.vm_cpu_time(vm_id, elapsed),
                    steal_time: self.hv.vm_steal_time(vm_id, elapsed),
                    requests: d.requests,
                    dropped_requests: d.dropped_requests,
                    requests_truncated: truncated as u64,
                    latencies_us: d.latencies_us,
                    guest: d.os.stats().clone(),
                    lhp: d.lhp,
                    lwp: d.lwp,
                }
            })
            .collect();
        RunResult {
            elapsed,
            vms,
            hv,
            events: self.events_processed,
            faults,
        }
    }
}

/// A deep checkpoint of a [`System`], produced by [`System::snapshot`].
///
/// # Determinism contract
///
/// A snapshot is a clone of the whole simulation state: resuming it and
/// running to completion yields a [`RunResult`] (and
/// [`FaultStats`](crate::faults::FaultStats)) whose Debug rendering is
/// byte-for-byte identical to a from-scratch run of the same scenario and
/// config — at any `--jobs N`, checked or not. That holds because every
/// order-bearing counter is carried over exactly: the event queue's
/// sequence counter and cursor; the workload and fault RNG positions;
/// per-vCPU/task generation counters; and the processed-event count (so
/// `RunResult::events` agrees). The sanitizer's rolling baseline, SA-freeze
/// clocks included, is carried too.
///
/// Deliberately *not* carried: trace-ring contents (a resumed system
/// starts with empty rings of the same configuration).
///
/// `Snapshot` is `Send + Sync`: one snapshot can be resumed concurrently
/// from many worker threads, each branch getting its own independent
/// `System`. Its users are the snapshot tests and benchmark probes that
/// time taking and resuming one.
#[derive(Debug, Clone)]
pub struct Snapshot(System);

impl Snapshot {
    /// Builds a live [`System`] at the snapshot's instant. Cheap enough to
    /// call once per branch: everything heavy that can be shared (workload
    /// programs) already is, via `Arc`.
    pub fn resume(&self) -> System {
        self.0.clone()
    }

    /// Coarse, deterministic estimate of this snapshot's resident bytes,
    /// for reporting what a snapshot costs to hold.
    ///
    /// This is *not* an exact heap measurement: the event queue counts its
    /// bucket headers and one entry per pending event, but per-task and
    /// per-vCPU costs are flat constants chosen to over-approximate the
    /// real structures (guest CFS state, exec contexts, runstate
    /// trackers). What matters is that the estimate is deterministic and
    /// scales monotonically with state size.
    pub fn approx_bytes(&self) -> usize {
        type Queue = EventQueue<Event>;
        /// TaskRt plus its parallel activity/generation array slots.
        const PER_TASK: usize = 192;
        /// Exec context, cached views, steal tracker, tick stamps.
        const PER_VCPU: usize = 768;
        let sys = &self.0;
        let mut b = std::mem::size_of::<Self>();
        b += Queue::BUCKETS * std::mem::size_of::<Vec<Event>>();
        b += sys.queue.len() * Queue::ENTRY_BYTES;
        b += sys.hv.approx_heap_bytes();
        for d in &sys.domains {
            b += std::mem::size_of_val(d) + d.name.len();
            b += d.tasks.len() * PER_TASK;
            b += d.exec.len() * PER_VCPU;
            b += d.latencies_us.capacity() * std::mem::size_of::<f64>();
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::VmScenario;
    use irs_workloads::presets::server::apache_ab;

    /// An open-loop arrival that lands while its consumer spins through
    /// the futex grace completes the consumer's wait: the consumer takes
    /// the request at once instead of being left with nothing scheduled.
    #[test]
    fn an_arrival_in_the_grace_hands_the_request_to_the_spinning_consumer() {
        let vm = VmScenario::new(apache_ab(1, 1, 0.5), 1)
            .pin_one_to_one()
            .measured();
        let cfg = SystemConfig {
            check: true,
            ..SystemConfig::default()
        };
        let mut sys = System::with_config(Scenario::new(1, Strategy::Vanilla, 1).vm(vm), cfg);
        while sys.domains[0].task_activity[0] != Activity::Spin {
            assert!(sys.step(), "the worker never waited on its accept queue");
        }
        sys.on_request_arrive(0);
        assert!(
            matches!(sys.domains[0].task_activity[0], Activity::Computing { .. }),
            "the worker did not take the request: {:?}",
            sys.domains[0].task_activity[0]
        );
        // Checked steps from the state the arrival left, through the next
        // accounting pass and its sweep.
        let period = irs_xen::ACCOUNTING_PERIOD;
        sys.run_until(sys.now() + period + period);
        assert!(
            sys.domains[0].requests >= 1,
            "the handed request never completed"
        );
    }
}
