//! End-to-end property tests: randomly composed programs, strategies, and
//! interference always run to completion under the online sanitizer, with
//! cross-layer invariants and physical time conservation intact, and a
//! run resumed from a snapshot at a random instant ends exactly like the
//! run from scratch.

use irs_core::{Scenario, Strategy, System, SystemConfig, VmScenario};
use irs_sim::SimTime;
use irs_sync::{SyncSpace, WaitMode};
use irs_workloads::{presets, ProgramBuilder, WorkloadBundle};
use proptest::prelude::*;

/// Primitives a random program composes, one bit each in `prims`.
const LOCK: u8 = 1;
const BARRIER: u8 = 1 << 1;
const CHANNEL: u8 = 1 << 2;
const SLEEP: u8 = 1 << 3;
const EPOCH: u8 = 1 << 4;
const POOL: u8 = 1 << 5;

/// A random small parallel workload: `iters` rounds per thread of a
/// compute grain followed by the primitives `prims` selects, in a fixed
/// order (lock section, channel traffic, sleep, epoch poll, barrier),
/// then a `steal_loop` over a shared pool. Every shape terminates:
///
/// * the channel links the first half of the threads (producers) to the
///   rest (consumers); each round a producer pushes one item per consumer
///   and a consumer pops one per producer, so the counts match, and its
///   capacity holds a whole round, so a producer never waits on a
///   consumer parked at a rendezvous;
/// * the epoch's period spans the grain range, so a poll may pass free
///   or park, and a thread may exit while the others still poll: its
///   departure counts as its arrival. A round that also waits at the
///   barrier or on the channel polls an epoch whose period is shorter than
///   any grain instead, so every poll parks and the round is a
///   rendezvous. With a longer period a thread that passed its poll free
///   could wait there on one parked at the epoch, which only the first
///   thread's next poll would release: unlike a JVM, the model does not
///   count a thread blocked elsewhere as arrived at the safepoint.
fn random_bundle(
    threads: usize,
    iters: u64,
    grain_us: u64,
    epoch_us: u64,
    prims: u8,
    spin: bool,
) -> WorkloadBundle {
    let mode = if spin {
        WaitMode::Spin
    } else {
        WaitMode::Block
    };
    let has = |p: u8| prims & p != 0;
    let mut space = SyncSpace::new();
    let lock = space.new_lock(mode);
    let bar = space.new_barrier(threads, mode);
    let producers = threads / 2;
    let consumers = threads - producers;
    let chan = space.new_channel(producers * consumers);
    // An epoch must have exactly as many participants as pollers.
    let period_us = if has(BARRIER | CHANNEL) {
        100
    } else {
        epoch_us
    };
    let epoch = has(EPOCH).then(|| space.new_epoch(period_us * 1_000, threads, mode));
    let pool = space.new_pool(4 * threads as u64);
    let progs = (0..threads)
        .map(|t| {
            let round = |mut b: ProgramBuilder| {
                b = b.compute_us(grain_us, 0.1);
                if has(LOCK) {
                    b = b.lock(lock).compute_us(20, 0.1).unlock(lock);
                }
                if has(CHANNEL) {
                    b = if t < producers {
                        b.repeat(consumers as u64, |b| b.push(chan))
                    } else {
                        b.repeat(producers as u64, |b| b.pop(chan))
                    };
                }
                if has(SLEEP) {
                    b = b.sleep_us(200);
                }
                if let Some(e) = epoch {
                    b = b.safepoint_poll(e);
                }
                if has(BARRIER) {
                    b = b.barrier(bar);
                }
                b
            };
            let mut b = ProgramBuilder::new().repeat(iters, round);
            if has(POOL) {
                b = b.steal_loop(pool, 300, 0.1);
            }
            b.build()
        })
        .collect();
    WorkloadBundle::parallel("prop", progs, space, 0.5)
}

fn strategy_from(idx: u8) -> Strategy {
    match idx % 6 {
        0 => Strategy::Vanilla,
        1 => Strategy::Ple,
        2 => Strategy::RelaxedCo,
        3 => Strategy::Irs,
        4 => Strategy::StrictCo,
        _ => Strategy::IrsPull,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any random configuration completes under the sanitizer (which also
    /// checks every change of task activity, and sweeps every layer's
    /// queues at each accounting pass and at the end of the run),
    /// conserves physical time, and resumes from a snapshot at a random
    /// instant into the scratch run's exact result.
    #[test]
    fn random_scenarios_complete_cleanly(
        threads in 2usize..7,
        iters in 3u64..12,
        grain_us in 500u64..8_000,
        epoch_us in 500u64..8_000,
        prims in 0u8..64,
        spin in any::<bool>(),
        pv_spin in any::<bool>(),
        strategy_idx in 0u8..6,
        n_inter in 1usize..4,
        pinned in any::<bool>(),
        seed in 0u64..1_000,
        snap_pct in 0u64..100,
    ) {
        let strategy = strategy_from(strategy_idx);
        let make = || {
            let bundle = random_bundle(threads, iters, grain_us, epoch_us, prims, spin);
            let mut scenario = Scenario::new(4, strategy, seed)
                .vm(VmScenario::new(bundle, 4).pin_one_to_one().measured())
                .vm(VmScenario::new(presets::hog::cpu_hogs(n_inter), 4).pin_one_to_one())
                .horizon(SimTime::from_secs(60));
            if !pinned {
                for vm in &mut scenario.vms {
                    vm.pinning = None;
                }
            }
            scenario
        };
        let cfg = SystemConfig {
            check: true,
            pv_spin: pv_spin.then(|| SimTime::from_micros(50)),
            ..SystemConfig::default()
        };
        let mut sys = System::with_config(make(), cfg.clone());
        let all_exited = |sys: &System| {
            (0..sys.guest(0).n_tasks())
                .all(|t| sys.guest(0).task(irs_guest::TaskId(t)).state
                    == irs_guest::TaskState::Exited)
        };
        while !all_exited(&sys) {
            prop_assert!(sys.step(), "event queue drained unexpectedly");
            prop_assert!(
                sys.now() < SimTime::from_secs(59),
                "workload failed to complete ({strategy}, prims={prims:#b}, spin={spin})"
            );
        }
        // The measured VM has completed, so this returns at once, after the
        // sanitizer's end-of-run sweep.
        let scratch = sys.run();
        prop_assert!(scratch.measured().makespan.is_some(), "no makespan");

        // Physical conservation: the two VMs' CPU time cannot exceed the
        // machine's capacity over the elapsed window.
        let total: u64 = scratch.vms.iter().map(|vm| vm.cpu_time.as_nanos()).sum();
        prop_assert!(total <= 4 * scratch.elapsed.as_nanos() + 1000);

        let at = SimTime::from_nanos(scratch.elapsed.as_nanos() * snap_pct / 100);
        let mut warm = System::with_config(make(), cfg);
        warm.run_until(at);
        let resumed = warm.snapshot().resume().run();
        prop_assert_eq!(
            format!("{resumed:?}"),
            format!("{scratch:?}"),
            "resumed at {} of {}",
            at,
            scratch.elapsed
        );
    }
}
