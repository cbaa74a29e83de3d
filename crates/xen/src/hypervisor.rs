//! The hypervisor aggregate: pCPUs, VMs, vCPUs, and the public surface.
//!
//! Scheduling *logic* lives in [`crate::credit`], [`crate::sa`], and
//! [`crate::relaxed_co`]; this module owns the state, the lifecycle
//! (VM creation, start), the hypercall read surface, and the internal
//! consistency checks the test suite leans on.

use crate::actions::HvAction;
use crate::config::XenConfig;
use crate::ids::{PcpuId, VcpuRef, VmId};
use crate::pcpu::{DispatchInfo, Pcpu};
use crate::runstate::{RunState, RunstateInfo};
use crate::stats::{HvStats, StatsStore, VcpuStats};
use crate::vcpu::Vcpu;
use crate::vm::{Vm, VmSpec};
use irs_sim::trace::TraceRing;
use irs_sim::SimTime;

/// The Xen-like hypervisor model.
///
/// See the [crate-level documentation](crate) for the scope of the model and
/// an end-to-end example.
///
/// `Hypervisor` is `Clone` for `System::snapshot()` checkpointing: the
/// clone is a complete copy of scheduler state (credit arena, runqueues,
/// SA rounds, runstate clocks, stats), except the trace ring, whose clone
/// keeps configuration but starts empty (rings are observability, not
/// state — see `irs_sim::trace`).
#[derive(Debug, Clone)]
pub struct Hypervisor {
    pub(crate) cfg: XenConfig,
    pub(crate) pcpus: Vec<Pcpu>,
    pub(crate) vms: Vec<Vm>,
    /// All vCPUs in one contiguous arena, VM-major (every VM's vCPUs are
    /// adjacent, in index order). Keeping the hot per-vCPU scheduler state
    /// in a single flat allocation is what lets the 10 ms tick and the
    /// 30 ms accounting pass stream linearly instead of chasing one heap
    /// allocation per VM; [`Hypervisor::vm_base`] maps a [`VmId`] to its
    /// first slot.
    pub(crate) vcpus: Vec<Vcpu>,
    /// `vm_base[vm]` = index of `vm`'s first vCPU in [`Hypervisor::vcpus`].
    pub(crate) vm_base: Vec<u32>,
    pub(crate) stats: StatsStore,
    pub(crate) queue_seq: u64,
    /// Bumps whenever *any* pCPU's dispatch changes (a superset counter
    /// over the per-pCPU `dispatch_gen`s). Embedders compare it between
    /// events to skip the all-pCPU slice-timer re-arm scan when no
    /// dispatch moved — which is most events.
    pub(crate) dispatch_epoch: u64,
    /// Per-VM runstate epochs: `runstate_epoch[vm]` bumps on every
    /// runstate transition of one of that VM's vCPUs. If two reads return
    /// the same value, none of the VM's vCPUs changed state in between, so
    /// cached guest-visible runstate views for it are still exact.
    pub(crate) runstate_epoch: Vec<u64>,
    pub(crate) started: bool,
    /// The VM currently holding the gang slot (strict co-scheduling only).
    pub(crate) gang_current: Option<VmId>,
    /// Recycled action buffers: every public entry point starts from one of
    /// these (via [`Hypervisor::out_buf`]) and the driver hands the drained
    /// `Vec` back through [`Hypervisor::recycle_actions`], so steady-state
    /// scheduling decisions allocate nothing.
    pub(crate) spare_bufs: Vec<Vec<HvAction>>,
    /// Typed trace bus for scheduling decisions (disabled by default).
    pub(crate) trace: TraceRing,
}

impl Hypervisor {
    /// Creates a hypervisor managing `n_pcpus` physical CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `n_pcpus == 0`.
    pub fn new(cfg: XenConfig, n_pcpus: usize) -> Self {
        assert!(n_pcpus > 0, "a hypervisor needs at least one pCPU");
        Hypervisor {
            cfg,
            pcpus: (0..n_pcpus).map(|i| Pcpu::new(PcpuId(i))).collect(),
            vms: Vec::new(),
            vcpus: Vec::new(),
            vm_base: Vec::new(),
            stats: StatsStore::default(),
            queue_seq: 0,
            dispatch_epoch: 0,
            runstate_epoch: Vec::new(),
            started: false,
            gang_current: None,
            spare_bufs: Vec::new(),
            trace: TraceRing::disabled(),
        }
    }

    /// Enables the typed trace bus with a ring of `capacity` records.
    ///
    /// Tracing never changes scheduling decisions; it only captures them.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceRing::enabled(capacity);
    }

    /// The hypervisor's trace ring (empty and disabled unless
    /// [`Hypervisor::enable_trace`] was called).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Coarse, deterministic estimate of this hypervisor's heap bytes
    /// (arena vectors plus per-pCPU runqueue slack) — a building block of
    /// snapshot-cache budgeting in `irs-core`. Trace-ring contents are
    /// excluded: snapshots clone rings configuration-only.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        /// Runqueue backing store and stats slack per pCPU.
        const PER_PCPU_SLACK: usize = 256;
        self.pcpus.capacity() * (size_of::<Pcpu>() + PER_PCPU_SLACK)
            + self.vms.capacity() * size_of::<Vm>()
            + self.vcpus.capacity() * size_of::<Vcpu>()
            + self.vm_base.capacity() * size_of::<u32>()
            + self.runstate_epoch.capacity() * size_of::<u64>()
    }

    /// Takes an empty action buffer from the recycle pool (or allocates the
    /// first few times). Pair with [`Hypervisor::recycle_actions`].
    pub(crate) fn out_buf(&mut self) -> Vec<HvAction> {
        self.spare_bufs.pop().unwrap_or_default()
    }

    /// Returns a drained action buffer to the recycle pool. Callers that
    /// consume a `Vec<HvAction>` (e.g. the `irs-core` dispatch loop) call
    /// this to keep the schedule→apply hot path allocation-free; dropping
    /// the buffer instead is always safe, just slower.
    pub fn recycle_actions(&mut self, mut buf: Vec<HvAction>) {
        // Nested scheduling (an action application re-entering the
        // hypervisor) keeps a handful of buffers alive at once; a small cap
        // bounds pool growth if a caller recycles foreign buffers.
        if self.spare_bufs.len() < 16 {
            buf.clear();
            self.spare_bufs.push(buf);
        }
    }

    /// Creates a VM from `spec`. All of its vCPUs begin `Runnable`; nothing
    /// is dispatched until [`Hypervisor::start`].
    ///
    /// # Panics
    ///
    /// Panics if called after `start`, if the spec has zero vCPUs, or if a
    /// pinning target does not exist.
    pub fn create_vm(&mut self, spec: VmSpec) -> VmId {
        assert!(!self.started, "VMs must be created before start()");
        assert!(spec.n_vcpus > 0, "a VM needs at least one vCPU");
        if let Some(pins) = &spec.pinning {
            for p in pins {
                assert!(p.0 < self.pcpus.len(), "pinning names nonexistent {p}");
            }
        }
        let vm_id = VmId(self.vms.len());
        self.vm_base.push(self.vcpus.len() as u32);
        self.runstate_epoch.push(0);
        let vcpus: Vec<Vcpu> = (0..spec.n_vcpus)
            .map(|i| {
                let vref = VcpuRef::new(vm_id, i);
                let (affinity, home) = match &spec.pinning {
                    Some(pins) => (Some(pins[i]), pins[i]),
                    None => {
                        let home = match self.cfg.placement_salt {
                            None => PcpuId(i % self.pcpus.len()),
                            Some(salt) => {
                                let mut h = salt
                                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                    .wrapping_add((vm_id.0 as u64) << 32)
                                    .wrapping_add(i as u64 + 1);
                                h ^= h >> 31;
                                h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                                h ^= h >> 29;
                                PcpuId((h % self.pcpus.len() as u64) as usize)
                            }
                        };
                        (None, home)
                    }
                };
                let mut v = Vcpu::new(vref, affinity, home);
                // Fresh VMs start with a full credit allowance, matching a
                // just-created Xen domain that has not burned anything yet.
                v.credits = crate::credit::CREDIT_CAP;
                v.refresh_priority();
                v
            })
            .collect();
        self.vms.push(Vm {
            weight: spec.weight,
            sa_capable: spec.sa_capable,
            n_vcpus: spec.n_vcpus,
        });
        self.vcpus.extend(vcpus);
        vm_id
    }

    /// Marks a vCPU as initially blocked, before [`Hypervisor::start`].
    ///
    /// Guests whose runqueues are empty at boot (spare vCPUs of a server
    /// VM, interference VMs with fewer hogs than vCPUs) report this so the
    /// scheduler never dispatches an idle-looping vCPU.
    ///
    /// # Panics
    ///
    /// Panics if called after `start`.
    pub fn block_before_start(&mut self, v: VcpuRef) {
        assert!(!self.started, "block_before_start() only applies before start()");
        self.runstate_epoch[v.vm.0] += 1;
        self.vc_mut(v)
            .clock
            .transition(RunState::Blocked, SimTime::ZERO);
    }

    /// Enqueues every runnable vCPU and performs the initial dispatch on
    /// every pCPU.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self, now: SimTime) -> Vec<HvAction> {
        assert!(!self.started, "start() must be called exactly once");
        self.started = true;
        let refs: Vec<VcpuRef> = self
            .vcpus
            .iter()
            .filter(|v| v.state() == RunState::Runnable)
            .map(|v| v.vref)
            .collect();
        for vref in refs {
            let home = self.vc(vref).home;
            self.enqueue(vref, home);
        }
        let mut out = self.out_buf();
        for p in 0..self.pcpus.len() {
            self.do_schedule(
                PcpuId(p),
                now,
                crate::actions::ScheduleReason::Start,
                false,
                &mut out,
            );
        }
        out
    }

    // ------------------------------------------------------------------
    // internal accessors
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn vc(&self, v: VcpuRef) -> &Vcpu {
        &self.vcpus[self.vm_base[v.vm.0] as usize + v.idx]
    }

    #[inline]
    pub(crate) fn vc_mut(&mut self, v: VcpuRef) -> &mut Vcpu {
        &mut self.vcpus[self.vm_base[v.vm.0] as usize + v.idx]
    }

    /// `vm`'s slice of the flat vCPU arena.
    #[inline]
    pub(crate) fn vm_vcpus(&self, vm: VmId) -> &[Vcpu] {
        let base = self.vm_base[vm.0] as usize;
        &self.vcpus[base..base + self.vms[vm.0].n_vcpus]
    }

    /// Mutable form of [`Hypervisor::vm_vcpus`].
    #[inline]
    pub(crate) fn vm_vcpus_mut(&mut self, vm: VmId) -> &mut [Vcpu] {
        let base = self.vm_base[vm.0] as usize;
        let n = self.vms[vm.0].n_vcpus;
        &mut self.vcpus[base..base + n]
    }

    pub(crate) fn enqueue(&mut self, v: VcpuRef, pcpu: PcpuId) {
        let seq = self.queue_seq;
        self.queue_seq += 1;
        {
            let vc = self.vc_mut(v);
            vc.home = pcpu;
            vc.queued_at = seq;
        }
        debug_assert!(
            !self.pcpus[pcpu.0].runq.contains(&v),
            "{v} double-enqueued on {pcpu}"
        );
        self.pcpus[pcpu.0].runq.push_back(v);
    }

    // ------------------------------------------------------------------
    // public read surface
    // ------------------------------------------------------------------

    /// Number of physical CPUs.
    pub fn n_pcpus(&self) -> usize {
        self.pcpus.len()
    }

    /// Number of VMs.
    pub fn n_vms(&self) -> usize {
        self.vms.len()
    }

    /// Number of vCPUs of `vm`.
    pub fn vm_vcpu_count(&self, vm: VmId) -> usize {
        self.vms[vm.0].n_vcpus
    }

    /// Whether `vm`'s guest registered the SA upcall handler.
    pub fn vm_sa_capable(&self, vm: VmId) -> bool {
        self.vms[vm.0].sa_capable
    }

    /// The configuration the hypervisor was built with.
    pub fn config(&self) -> &XenConfig {
        &self.cfg
    }

    /// Iterator over every vCPU in the system.
    pub fn all_vcpus(&self) -> impl Iterator<Item = VcpuRef> + '_ {
        self.vcpus.iter().map(|v| v.vref)
    }

    /// The vCPU currently executing on `pcpu`, if any.
    pub fn pcpu_current(&self, pcpu: PcpuId) -> Option<VcpuRef> {
        self.pcpus[pcpu.0].current
    }

    /// Snapshot of the current dispatch on `pcpu` for slice-timer arming.
    pub fn dispatch_info(&self, pcpu: PcpuId) -> Option<DispatchInfo> {
        let p = &self.pcpus[pcpu.0];
        p.current.map(|vcpu| DispatchInfo {
            vcpu,
            since: p.dispatch_start,
            slice: p.cur_slice,
            generation: p.dispatch_gen,
        })
    }

    /// Machine-wide dispatch epoch: bumps whenever any pCPU's dispatch
    /// changes. If two reads return the same value, every
    /// [`Hypervisor::dispatch_info`] snapshot is unchanged between them,
    /// so per-pCPU timer re-arm scans can be skipped wholesale.
    #[inline]
    pub fn dispatch_epoch(&self) -> u64 {
        self.dispatch_epoch
    }

    /// Per-VM runstate epoch: bumps on every runstate transition of one of
    /// `vm`'s vCPUs. Equal values across two reads mean every state byte
    /// of the VM is unchanged between them; embedders use this to keep
    /// cached per-VM runstate views alive across events.
    #[inline]
    pub fn runstate_epoch(&self, vm: VmId) -> u64 {
        self.runstate_epoch[vm.0]
    }

    /// Current runstate of a vCPU (the cheap form of the hypercall).
    pub fn vcpu_state(&self, v: VcpuRef) -> RunState {
        self.vc(v).state()
    }

    /// `VCPUOP_get_runstate_info`: cumulative residencies at `now`.
    pub fn runstate(&self, v: VcpuRef, now: SimTime) -> RunstateInfo {
        self.vc(v).clock.info(now)
    }

    /// `vm`'s runstate clocks in vCPU-index order — the bulk form of
    /// [`Hypervisor::runstate`] for embedders that walk a whole VM per
    /// event. One slice lookup instead of a [`VcpuRef`] resolution per
    /// vCPU, and the clocks stream out of the contiguous arena.
    #[inline]
    pub fn vm_clocks(&self, vm: VmId) -> impl Iterator<Item = &crate::runstate::RunstateClock> + '_ {
        self.vm_vcpus(vm).iter().map(|v| &v.clock)
    }

    /// The pCPU whose runqueue currently owns `v`.
    pub fn vcpu_home(&self, v: VcpuRef) -> PcpuId {
        self.vc(v).home
    }

    /// Current credit balance of a vCPU (diagnostics).
    pub fn vcpu_credits(&self, v: VcpuRef) -> i64 {
        self.vc(v).credits
    }

    /// Current scheduling priority of a vCPU (diagnostics).
    pub fn vcpu_priority(&self, v: VcpuRef) -> crate::vcpu::CreditPriority {
        self.vc(v).priority
    }

    /// Whether an SA notification is outstanding on `v`.
    pub fn is_sa_pending(&self, v: VcpuRef) -> bool {
        self.vc(v).sa_pending
    }

    /// The vCPU (if any) whose pending SA acknowledgement has `pcpu`'s
    /// scheduling frozen. External invariant checkers use this to prove no
    /// pCPU stays frozen past the completion limit.
    pub fn pcpu_sa_wait(&self, pcpu: PcpuId) -> Option<VcpuRef> {
        self.pcpus[pcpu.0].sa_wait
    }

    /// SA round counter for `v` (guards stale timeout events).
    pub fn sa_generation(&self, v: VcpuRef) -> u64 {
        self.vc(v).sa_gen
    }

    /// Global scheduler counters.
    pub fn stats(&self) -> &HvStats {
        &self.stats.global
    }

    /// Counters for one vCPU (zeros if it never scheduled).
    pub fn vcpu_stats(&self, v: VcpuRef) -> VcpuStats {
        self.vc(v).stats.clone()
    }

    /// True if any vCPU of `vm` currently wants CPU.
    pub fn vm_wants_cpu(&self, vm: VmId) -> bool {
        self.vm_vcpus(vm).iter().any(|v| v.state().wants_cpu())
    }

    /// Total CPU time consumed by `vm` up to `now`.
    pub fn vm_cpu_time(&self, vm: VmId, now: SimTime) -> SimTime {
        self.vm_vcpus(vm)
            .iter()
            .fold(SimTime::ZERO, |acc, v| acc + v.clock.info(now).running)
    }

    /// Total steal time suffered by `vm` up to `now`.
    pub fn vm_steal_time(&self, vm: VmId, now: SimTime) -> SimTime {
        self.vm_vcpus(vm)
            .iter()
            .fold(SimTime::ZERO, |acc, v| acc + v.clock.info(now).runnable)
    }

    /// Renders one pCPU's scheduler state for diagnostics: the current
    /// vCPU, the queue with priorities/credits/flags, and any SA freeze.
    pub fn debug_pcpu(&self, pcpu: PcpuId) -> String {
        let p = &self.pcpus[pcpu.0];
        let mut out = format!(
            "{pcpu}: current={:?} since={} slice={} sa_wait={:?} runq=[",
            p.current.map(|v| v.to_string()),
            p.dispatch_start,
            p.cur_slice,
            p.sa_wait.map(|v| v.to_string()),
        );
        for (i, &v) in p.runq.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let vc = self.vc(v);
            out.push_str(&format!(
                "{v} {} cr={} yb={} parked={}",
                vc.priority, vc.credits, vc.yield_bias, vc.parked
            ));
        }
        out.push(']');
        if let Some(cur) = p.current {
            let vc = self.vc(cur);
            out.push_str(&format!(
                " | cur {} cr={} pend={}",
                vc.priority, vc.credits, vc.sa_pending
            ));
        }
        out
    }

    /// Verifies internal consistency; used liberally by the test suites.
    ///
    /// Invariants checked:
    /// * every `Running` vCPU is the `current` of exactly its home pCPU;
    /// * every `Runnable` vCPU sits in exactly one runqueue (its home's);
    /// * `Blocked`/`Offline` vCPUs are in no runqueue and not current;
    /// * pinned vCPUs are at their pinned pCPU;
    /// * an `sa_wait` pCPU's waiting vCPU is its current and has
    ///   `sa_pending` set.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if any invariant is violated.
    pub fn check_invariants(&self) {
        for v in &self.vcpus {
            let vref = v.vref;
            let home = &self.pcpus[v.home.0];
            let queued: usize = self
                .pcpus
                .iter()
                .map(|p| p.runq.iter().filter(|&&q| q == vref).count())
                .sum();
            let current_on: Vec<PcpuId> = self
                .pcpus
                .iter()
                .filter(|p| p.current == Some(vref))
                .map(|p| p.id)
                .collect();
            match v.state() {
                RunState::Running => {
                    assert_eq!(
                        current_on,
                        vec![v.home],
                        "{vref} is Running but current on {current_on:?}, home {}",
                        v.home
                    );
                    assert_eq!(queued, 0, "{vref} Running but also queued");
                }
                RunState::Runnable => {
                    assert!(current_on.is_empty(), "{vref} Runnable but current");
                    assert_eq!(queued, 1, "{vref} Runnable queued {queued} times");
                    assert!(
                        home.runq.contains(&vref),
                        "{vref} queued away from home {}",
                        v.home
                    );
                }
                RunState::Blocked | RunState::Offline => {
                    assert!(current_on.is_empty(), "{vref} {} but current", v.state());
                    assert_eq!(queued, 0, "{vref} {} but queued", v.state());
                }
            }
            if let Some(pin) = v.affinity {
                assert_eq!(v.home, pin, "{vref} strayed from its pin {pin}");
            }
        }
        for p in &self.pcpus {
            if let Some(w) = p.sa_wait {
                assert_eq!(
                    p.current,
                    Some(w),
                    "{} sa_wait {w} is not its current vCPU",
                    p.id
                );
                assert!(self.vc(w).sa_pending, "{w} in sa_wait without sa_pending");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_vm_assigns_round_robin_homes_when_unpinned() {
        let mut hv = Hypervisor::new(XenConfig::default(), 2);
        let vm = hv.create_vm(VmSpec::new(4));
        assert_eq!(hv.vc(VcpuRef::new(vm, 0)).home, PcpuId(0));
        assert_eq!(hv.vc(VcpuRef::new(vm, 1)).home, PcpuId(1));
        assert_eq!(hv.vc(VcpuRef::new(vm, 2)).home, PcpuId(0));
        assert_eq!(hv.vc(VcpuRef::new(vm, 3)).home, PcpuId(1));
    }

    #[test]
    fn start_dispatches_one_vcpu_per_pcpu() {
        let mut hv = Hypervisor::new(XenConfig::default(), 2);
        hv.create_vm(VmSpec::new(2).pin(vec![PcpuId(0), PcpuId(1)]));
        hv.create_vm(VmSpec::new(2).pin(vec![PcpuId(0), PcpuId(1)]));
        let actions = hv.start(SimTime::ZERO);
        let started = actions
            .iter()
            .filter(|a| matches!(a, HvAction::VcpuStarted { .. }))
            .count();
        assert_eq!(started, 2);
        hv.check_invariants();
        assert!(hv.pcpu_current(PcpuId(0)).is_some());
        assert!(hv.pcpu_current(PcpuId(1)).is_some());
    }

    #[test]
    fn block_before_start_keeps_vcpu_off_the_runqueue() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let a = hv.create_vm(VmSpec::new(2).pin_all(PcpuId(0)));
        hv.block_before_start(VcpuRef::new(a, 1));
        hv.start(SimTime::ZERO);
        hv.check_invariants();
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(VcpuRef::new(a, 0)));
        assert_eq!(hv.vcpu_state(VcpuRef::new(a, 1)), RunState::Blocked);
        // It wakes normally later.
        let acts = hv.vcpu_wake(VcpuRef::new(a, 1), SimTime::from_millis(5));
        assert!(!acts.is_empty());
        hv.check_invariants();
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn double_start_panics() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        hv.create_vm(VmSpec::new(1));
        hv.start(SimTime::ZERO);
        hv.start(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "nonexistent")]
    fn pinning_to_missing_pcpu_panics() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        hv.create_vm(VmSpec::new(1).pin(vec![PcpuId(5)]));
    }

    #[test]
    fn dispatch_info_reflects_current() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let vm = hv.create_vm(VmSpec::new(1));
        hv.start(SimTime::ZERO);
        let info = hv.dispatch_info(PcpuId(0)).unwrap();
        assert_eq!(info.vcpu, VcpuRef::new(vm, 0));
        assert_eq!(info.since, SimTime::ZERO);
    }

    #[test]
    fn vm_cpu_time_accumulates_while_running() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let vm = hv.create_vm(VmSpec::new(1));
        hv.start(SimTime::ZERO);
        let t = SimTime::from_millis(7);
        assert_eq!(hv.vm_cpu_time(vm, t), t);
        assert_eq!(hv.vm_steal_time(vm, t), SimTime::ZERO);
    }
}
