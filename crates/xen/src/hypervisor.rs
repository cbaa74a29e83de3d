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
use crate::stats::HvStats;
use crate::vcpu::Vcpu;
use crate::vm::{Vm, VmSpec};
use irs_sim::trace::TraceRing;
use irs_sim::SimTime;

/// What an invariant checker reads of one vCPU, copied straight out of
/// the arena by [`Hypervisor::vcpu_probes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcpuProbe {
    /// The probed vCPU.
    pub vcpu: VcpuRef,
    /// The pCPU whose runqueue owns it.
    pub home: PcpuId,
    /// Its credit balance.
    pub credits: i64,
    /// Its runstate and residencies at the probe instant (what
    /// `VCPUOP_get_runstate_info` reports).
    pub runstate: RunstateInfo,
    /// Whether an SA notification is outstanding
    /// ([`Hypervisor::is_sa_pending`]).
    pub sa_pending: bool,
    /// Its SA round counter ([`Hypervisor::sa_generation`]).
    pub sa_generation: u64,
}

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
    pub(crate) stats: HvStats,
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
            stats: HvStats::default(),
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
                        let mut h = self
                            .cfg
                            .placement_salt
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((vm_id.0 as u64) << 32)
                            .wrapping_add(i as u64 + 1);
                        h ^= h >> 31;
                        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        h ^= h >> 29;
                        (None, PcpuId((h % self.pcpus.len() as u64) as usize))
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
        assert!(
            !self.started,
            "block_before_start() only applies before start()"
        );
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

    /// The configuration the hypervisor was built with.
    pub fn config(&self) -> &XenConfig {
        &self.cfg
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

    /// Every vCPU's [`VcpuProbe`] at `now`, in arena order (VM-major: each
    /// VM's vCPUs adjacent, in index order). An embedder's invariant
    /// checker probes the whole machine through it after every event.
    pub fn vcpu_probes(&self, now: SimTime) -> impl Iterator<Item = VcpuProbe> + '_ {
        self.vcpus.iter().map(move |v| VcpuProbe {
            vcpu: v.vref,
            home: v.home,
            credits: v.credits,
            runstate: v.clock.info(now),
            sa_pending: v.sa_pending,
            sa_generation: v.sa_gen,
        })
    }

    /// `vm`'s runstate clocks in vCPU-index order, for embedders that
    /// walk a whole VM per event: one slice lookup instead of a
    /// [`VcpuRef`] resolution per vCPU, and the clocks stream out of the
    /// contiguous arena.
    #[inline]
    pub fn vm_clocks(
        &self,
        vm: VmId,
    ) -> impl Iterator<Item = &crate::runstate::RunstateClock> + '_ {
        self.vm_vcpus(vm).iter().map(|v| &v.clock)
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
        &self.stats
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

    /// Verifies the scheduler's queue membership. The embedder's
    /// sanitizer runs this at every accounting pass and at the end of a
    /// run (`irs_core::check`, as `vcpu-queue-membership`); the test
    /// suites run it after their operations.
    ///
    /// Facts checked:
    /// * every `Running` vCPU is the `current` of exactly its home pCPU;
    /// * every `Runnable` vCPU sits in exactly one runqueue (its home's);
    /// * `Blocked` vCPUs are in no runqueue and not current;
    /// * pinned vCPUs are at their pinned pCPU;
    /// * an `sa_wait` pCPU's waiting vCPU is its current and has
    ///   `sa_pending` set.
    ///
    /// # Errors
    ///
    /// Describes the first fact that does not hold.
    pub fn check_invariants(&self) -> Result<(), String> {
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
                    ensure(current_on == [v.home], || {
                        format!(
                            "{vref} is Running but current on {current_on:?}, home {}",
                            v.home
                        )
                    })?;
                    ensure(queued == 0, || format!("{vref} Running but also queued"))?;
                }
                RunState::Runnable => {
                    ensure(current_on.is_empty(), || {
                        format!("{vref} Runnable but current")
                    })?;
                    ensure(queued == 1, || {
                        format!("{vref} Runnable queued {queued} times")
                    })?;
                    ensure(home.runq.contains(&vref), || {
                        format!("{vref} queued away from home {}", v.home)
                    })?;
                }
                RunState::Blocked => {
                    ensure(current_on.is_empty(), || {
                        format!("{vref} Blocked but current")
                    })?;
                    ensure(queued == 0, || format!("{vref} Blocked but queued"))?;
                }
            }
            if let Some(pin) = v.affinity {
                ensure(v.home == pin, || {
                    format!("{vref} strayed from its pin {pin}")
                })?;
            }
        }
        for p in &self.pcpus {
            if let Some(w) = p.sa_wait {
                ensure(p.current == Some(w), || {
                    format!("{} sa_wait {w} is not its current vCPU", p.id)
                })?;
                ensure(self.vc(w).sa_pending, || {
                    format!("{w} in sa_wait without sa_pending")
                })?;
            }
        }
        Ok(())
    }
}

/// One fact of [`Hypervisor::check_invariants`]: `Err(detail())` unless
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

    #[test]
    fn create_vm_assigns_hashed_homes_when_unpinned() {
        // Each unpinned vCPU's home is a hash of (salt, vm, vcpu): lumpy
        // rather than balanced (vm `a` leaves pcpu2 empty), and the same
        // on every build.
        let cfg = XenConfig {
            placement_salt: 7,
            ..XenConfig::default()
        };
        let mut hv = Hypervisor::new(cfg, 4);
        let a = hv.create_vm(VmSpec::new(8));
        let b = hv.create_vm(VmSpec::new(8));
        let homes =
            |vm| -> Vec<usize> { (0..8).map(|i| hv.vc(VcpuRef::new(vm, i)).home.0).collect() };
        assert_eq!(homes(a), [1, 3, 0, 0, 0, 1, 3, 1]);
        assert_eq!(homes(b), [0, 0, 1, 3, 3, 1, 0, 1]);
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
        hv.check_invariants().unwrap();
        assert!(hv.pcpu_current(PcpuId(0)).is_some());
        assert!(hv.pcpu_current(PcpuId(1)).is_some());
    }

    #[test]
    fn block_before_start_keeps_vcpu_off_the_runqueue() {
        let mut hv = Hypervisor::new(XenConfig::default(), 1);
        let a = hv.create_vm(VmSpec::new(2).pin_all(PcpuId(0)));
        hv.block_before_start(VcpuRef::new(a, 1));
        hv.start(SimTime::ZERO);
        hv.check_invariants().unwrap();
        assert_eq!(hv.pcpu_current(PcpuId(0)), Some(VcpuRef::new(a, 0)));
        assert_eq!(hv.vcpu_state(VcpuRef::new(a, 1)), RunState::Blocked);
        // It wakes normally later.
        let acts = hv.vcpu_wake(VcpuRef::new(a, 1), SimTime::from_millis(5));
        assert!(!acts.is_empty());
        hv.check_invariants().unwrap();
    }

    /// The walker's verdict on a consistent hypervisor, with vm0's three
    /// vCPUs pinned to pCPU 0 (v0 runs, v1 queues behind it, v2 is
    /// blocked), after `corrupt`.
    fn walked_after(corrupt: impl FnOnce(&mut Hypervisor)) -> Result<(), String> {
        let mut hv = Hypervisor::new(XenConfig::default(), 2);
        hv.create_vm(VmSpec::new(3).pin_all(PcpuId(0)));
        hv.block_before_start(VcpuRef::new(VmId(0), 2));
        hv.start(SimTime::ZERO);
        assert_eq!(hv.vcpu_state(VcpuRef::new(VmId(0), 1)), RunState::Runnable);
        hv.check_invariants().unwrap();
        corrupt(&mut hv);
        hv.check_invariants()
    }

    /// Each corruption fails the walker, which names the broken fact.
    #[test]
    fn check_invariants_reports_each_broken_fact() {
        let (v1, v2) = (VcpuRef::new(VmId(0), 1), VcpuRef::new(VmId(0), 2));
        let cases = [
            (
                "Runnable queued 2 times",
                walked_after(|hv| hv.pcpus[0].runq.push_back(v1)),
            ),
            (
                "queued away from home",
                walked_after(|hv| {
                    hv.pcpus[0].dequeue(v1);
                    hv.pcpus[1].runq.push_back(v1);
                }),
            ),
            (
                "Blocked but queued",
                walked_after(|hv| hv.pcpus[0].runq.push_back(v2)),
            ),
            (
                "strayed from its pin",
                walked_after(|hv| hv.vc_mut(v2).home = PcpuId(1)),
            ),
        ];
        for (fact, verdict) in cases {
            let err = verdict.expect_err(fact);
            assert!(err.contains(fact), "expected {fact:?}, got {err:?}");
        }
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
