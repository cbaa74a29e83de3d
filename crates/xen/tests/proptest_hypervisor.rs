//! Property tests: the hypervisor's invariants survive arbitrary
//! interleavings of scheduling operations.
//!
//! SA timeouts are exercised three ways: `SaTimeoutLive` draws its target
//! and generation from the *live pending rounds*, so it always passes the
//! staleness guard and reaches the force-preemption branch; `SaTimeoutStale`
//! replays a previously resolved `(vcpu, generation)` pair, modelling the
//! late-queued timeout event of an already-acked round; `SaTimeoutAny`
//! keeps the original arbitrary-target probing.

use irs_sim::SimTime;
use irs_xen::{HvMode, Hypervisor, PcpuId, RunState, SchedOp, VcpuRef, VmId, VmSpec, XenConfig};
use proptest::prelude::*;

/// One randomly chosen external stimulus.
#[derive(Debug, Clone, Copy)]
enum Op {
    Tick,
    Accounting,
    SliceExpiry(u8),
    Wake(u8, u8),
    Block(u8, u8),
    Yield(u8, u8),
    SaAckYield(u8, u8),
    SaAckBlock(u8, u8),
    /// Timeout for a live pending round, selected by index: always fresh,
    /// always able to reach the force-preemption branch.
    SaTimeoutLive(u8),
    /// Replay of a resolved round's timeout: always stale, must be a no-op.
    SaTimeoutStale(u8),
    /// Arbitrary-target timeout at the vCPU's current generation.
    SaTimeoutAny(u8, u8),
    PleExit(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Tick),
        Just(Op::Accounting),
        (0u8..4).prop_map(Op::SliceExpiry),
        (0u8..3, 0u8..4).prop_map(|(a, b)| Op::Wake(a, b)),
        (0u8..3, 0u8..4).prop_map(|(a, b)| Op::Block(a, b)),
        (0u8..3, 0u8..4).prop_map(|(a, b)| Op::Yield(a, b)),
        (0u8..3, 0u8..4).prop_map(|(a, b)| Op::SaAckYield(a, b)),
        (0u8..3, 0u8..4).prop_map(|(a, b)| Op::SaAckBlock(a, b)),
        any::<u8>().prop_map(Op::SaTimeoutLive),
        any::<u8>().prop_map(Op::SaTimeoutStale),
        (0u8..3, 0u8..4).prop_map(|(a, b)| Op::SaTimeoutAny(a, b)),
        (0u8..3, 0u8..4).prop_map(|(a, b)| Op::PleExit(a, b)),
    ]
}

/// The two modes whose handlers the ops reach: SA rounds and PLE exits.
fn mode_strategy() -> impl Strategy<Value = HvMode> {
    prop_oneof![Just(HvMode::Sa), Just(HvMode::Ple)]
}

fn build(pinned: bool, mode: HvMode) -> Hypervisor {
    let cfg = XenConfig {
        mode,
        ..XenConfig::default()
    };
    let mut hv = Hypervisor::new(cfg, 4);
    for vm in 0..3 {
        let mut spec = VmSpec::new(4).sa_capable(mode == HvMode::Sa && vm == 0);
        if pinned {
            spec = spec.pin((0..4).map(PcpuId).collect());
        }
        hv.create_vm(spec);
    }
    hv.start(SimTime::ZERO);
    hv
}

/// Every `(vcpu, generation)` SA round currently pending.
fn live_rounds(hv: &Hypervisor, now: SimTime) -> Vec<(VcpuRef, u64)> {
    hv.vcpu_probes(now)
        .filter(|p| p.sa_pending)
        .map(|p| (p.vcpu, p.sa_generation))
        .collect()
}

fn apply(hv: &mut Hypervisor, op: Op, now: SimTime, stale: &[(VcpuRef, u64)]) {
    let v = |a: u8, b: u8| VcpuRef::new(VmId(a as usize), b as usize);
    match op {
        Op::Tick => {
            hv.tick(now);
        }
        Op::Accounting => {
            hv.accounting(now);
        }
        Op::SliceExpiry(p) => {
            if let Some(info) = hv.dispatch_info(PcpuId(p as usize)) {
                hv.slice_expired(PcpuId(p as usize), info.generation, now);
            }
        }
        Op::Wake(a, b) => {
            hv.vcpu_wake(v(a, b), now);
        }
        Op::Block(a, b) => {
            hv.sched_op(v(a, b), SchedOp::Block, now);
        }
        Op::Yield(a, b) => {
            hv.sched_op(v(a, b), SchedOp::Yield, now);
        }
        Op::SaAckYield(a, b) => {
            hv.sched_op(v(a, b), SchedOp::Yield, now);
        }
        Op::SaAckBlock(a, b) => {
            hv.sched_op(v(a, b), SchedOp::Block, now);
        }
        Op::SaTimeoutLive(i) => {
            let live = live_rounds(hv, now);
            if !live.is_empty() {
                let (target, gen) = live[i as usize % live.len()];
                hv.sa_timeout(target, gen, now);
            }
        }
        Op::SaTimeoutStale(i) => {
            if !stale.is_empty() {
                let (target, gen) = stale[i as usize % stale.len()];
                hv.sa_timeout(target, gen, now);
            }
        }
        Op::SaTimeoutAny(a, b) => {
            let gen = hv.sa_generation(v(a, b));
            hv.sa_timeout(v(a, b), gen, now);
        }
        Op::PleExit(a, b) => {
            hv.ple_exit(v(a, b), now);
        }
    }
}

/// Applies `op` and records every round it resolved into `stale`, so later
/// `SaTimeoutStale` ops can replay genuinely dead `(vcpu, generation)`
/// pairs — the shape a late-queued timeout event has in the full system.
fn apply_tracked(hv: &mut Hypervisor, op: Op, now: SimTime, stale: &mut Vec<(VcpuRef, u64)>) {
    let before = live_rounds(hv, now);
    apply(hv, op, now, stale);
    for (v, gen) in before {
        if (!hv.is_sa_pending(v) || hv.sa_generation(v) != gen) && !stale.contains(&(v, gen)) {
            stale.push((v, gen));
        }
    }
    let excess = stale.len().saturating_sub(64);
    if excess > 0 {
        stale.drain(..excess);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants hold after every operation, pinned configuration.
    #[test]
    fn invariants_pinned(
        mode in mode_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let mut hv = build(true, mode);
        let mut stale = Vec::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            now += SimTime::from_micros(137);
            apply_tracked(&mut hv, op, now, &mut stale);
            hv.check_invariants().unwrap();
        }
    }

    /// Invariants hold with migration (stealing + placement) enabled.
    #[test]
    fn invariants_unpinned(
        mode in mode_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let mut hv = build(false, mode);
        let mut stale = Vec::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            now += SimTime::from_micros(211);
            apply_tracked(&mut hv, op, now, &mut stale);
            hv.check_invariants().unwrap();
        }
    }

    /// Credits stay within [floor, cap] no matter the interleaving.
    #[test]
    fn credits_bounded(
        mode in mode_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..150),
    ) {
        let mut hv = build(true, mode);
        let mut stale = Vec::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            now += SimTime::from_micros(401);
            apply_tracked(&mut hv, op, now, &mut stale);
            for p in hv.vcpu_probes(now) {
                let c = p.credits;
                prop_assert!((-300..=300).contains(&c), "{} credits {c}", p.vcpu);
            }
        }
    }

    /// Runstate accounting is conservative: per-vCPU residencies sum to
    /// elapsed time, and running time never exceeds wall time.
    #[test]
    fn runstate_accounting_conserves_time(
        mode in mode_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..150),
    ) {
        let mut hv = build(true, mode);
        let mut stale = Vec::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            now += SimTime::from_micros(733);
            apply_tracked(&mut hv, op, now, &mut stale);
        }
        for p in hv.vcpu_probes(now) {
            let info = p.runstate;
            prop_assert_eq!(info.total(), now, "{} total mismatch", p.vcpu);
            prop_assert!(info.running <= now);
        }
        // Physical conservation: total running time across vCPUs can never
        // exceed pCPUs × elapsed.
        let total_run: u64 = hv
            .vcpu_probes(now)
            .map(|p| p.runstate.running.as_nanos())
            .sum();
        prop_assert!(total_run <= 4 * now.as_nanos());
    }

    /// No pCPU idles while it has runnable (unparked) work queued.
    #[test]
    fn no_idle_with_queued_work(
        mode in mode_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let mut hv = build(true, mode);
        let mut stale = Vec::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            now += SimTime::from_micros(97);
            apply_tracked(&mut hv, op, now, &mut stale);
            for p in 0..4usize {
                let idle = hv.pcpu_current(PcpuId(p)).is_none();
                if idle {
                    // every vcpu homed+runnable on p would be a violation
                    let stranded = hv
                        .vcpu_probes(now)
                        .filter(|v| {
                            v.home == PcpuId(p) && v.runstate.state == RunState::Runnable
                        })
                        .count();
                    prop_assert_eq!(stranded, 0, "pcpu{} idle with {} runnable", p, stranded);
                }
            }
        }
    }

    /// Every pending round is resolvable through its completion-limit
    /// timeout: after an arbitrary interleaving, delivering the live
    /// timeout for each still-pending round releases every frozen pCPU,
    /// clears every pending flag, and leaves the machine consistent.
    #[test]
    fn pending_rounds_always_resolvable(ops in prop::collection::vec(op_strategy(), 1..200)) {
        // Only the SA mode opens rounds.
        let mut hv = build(false, HvMode::Sa);
        let mut stale = Vec::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            now += SimTime::from_micros(173);
            apply_tracked(&mut hv, op, now, &mut stale);
        }
        now += SimTime::from_micros(500);
        for (v, gen) in live_rounds(&hv, now) {
            hv.sa_timeout(v, gen, now);
        }
        hv.check_invariants().unwrap();
        for p in 0..4usize {
            prop_assert!(hv.pcpu_sa_wait(PcpuId(p)).is_none(), "pcpu{} still frozen", p);
        }
        for p in hv.vcpu_probes(now) {
            prop_assert!(!p.sa_pending, "{} round never resolved", p.vcpu);
        }
    }
}
