//! Time-anchored workload constructs end to end: gang-epoch safepoints
//! and open-loop arrival sources, threaded through the core execution
//! engine.
//!
//! Covers the contracts the serving campaign stands on: construction-time
//! rejection of unbalanced gang epochs and of ids a workload names but
//! never allocated, an exiting thread leaving its gang
//! epochs, forked-vs-scratch bit-identity with epoch and arrival-process
//! state in the snapshot, and explicit accounting of requests truncated at
//! the horizon.

use irs_core::{Scenario, Strategy, System, SystemConfig, VmScenario};
use irs_sim::SimTime;
use irs_sync::{SyncSpace, WaitMode};
use irs_workloads::{presets, OpenLoop, ProgramBuilder, WorkloadBundle};

fn with_hogs(s: Scenario, n_inter: usize) -> Scenario {
    if n_inter == 0 {
        s
    } else {
        s.vm(VmScenario::new(presets::hog::cpu_hogs(n_inter), 4).pin_one_to_one())
    }
}

fn serving_scenario(n_inter: usize, strategy: Strategy, seed: u64) -> Scenario {
    let s = Scenario::new(4, strategy, seed).vm(VmScenario::new(
        presets::server::serving_tiers(2, 2, 0.6),
        4,
    )
    .pin_one_to_one()
    .measured());
    with_hogs(s, n_inter).horizon(SimTime::from_secs(2))
}

fn specjbb_scenario(n_inter: usize, strategy: Strategy, seed: u64) -> Scenario {
    let s = Scenario::new(4, strategy, seed).vm(VmScenario::new(presets::server::specjbb(4), 4)
        .pin_one_to_one()
        .measured());
    with_hogs(s, n_inter).horizon(SimTime::from_secs(2))
}

#[test]
fn specjbb_safepoints_make_progress() {
    for strategy in [Strategy::Vanilla, Strategy::Irs] {
        let r = specjbb_scenario(1, strategy, 42).run();
        let m = r.measured();
        // ~333 tx/s/warehouse uncontended; even heavily interfered the
        // 4 warehouses must commit plenty of transactions in 2 s.
        assert!(
            m.requests > 500,
            "{strategy:?}: only {} transactions with safepoints armed",
            m.requests
        );
        assert_eq!(m.latencies_us.len(), m.requests as usize);
    }
}

#[test]
fn serving_tiers_complete_requests_end_to_end() {
    let r = serving_scenario(1, Strategy::Vanilla, 7).run();
    let m = r.measured();
    // Backends bound capacity at ~2857 rps; 0.6 load over 2 s ≈ 3400
    // arrivals. Most must complete end-to-end.
    assert!(m.requests > 2_000, "only {} requests completed", m.requests);
    assert_eq!(m.latencies_us.len(), m.requests as usize);
    // Every latency includes at least the back-end service time.
    assert!(m.latencies_us.iter().all(|&l| l > 0.0));
    // The horizon cuts an open-loop service mid-flight: the in-flight
    // tail is counted, not silently dropped.
    assert!(
        m.requests_truncated > 0,
        "expected in-flight requests at the horizon"
    );
}

#[test]
fn serving_forked_run_is_bit_identical_to_scratch() {
    // A snapshot must carry epoch and arrival-process state: a branch
    // resumed mid-run finishes bit-identically to a from-scratch run.
    let cfg = SystemConfig::default();
    let scratch = System::with_config(serving_scenario(1, Strategy::Irs, 9), cfg.clone()).run();
    let mut warm = System::with_config(serving_scenario(1, Strategy::Irs, 9), cfg);
    assert!(warm.run_until(SimTime::from_millis(300)));
    let branch = warm.snapshot().resume().run();
    assert_eq!(
        format!("{scratch:?}"),
        format!("{branch:?}"),
        "forked serving run diverged from scratch"
    );
}

#[test]
#[should_panic(expected = "unbalanced")]
fn unbalanced_gang_epoch_is_rejected_at_construction() {
    // Epoch declares 2 participants, but only one thread polls it: a
    // release could never fire. Must die in System construction, not
    // deadlock at runtime.
    let mut space = SyncSpace::new();
    let epoch = space.new_epoch(1_000_000, 2, WaitMode::Block);
    let polls = ProgramBuilder::new()
        .forever(|b| b.safepoint_poll(epoch).compute_us(100, 0.0))
        .build();
    let silent = ProgramBuilder::new()
        .forever(|b| b.compute_us(100, 0.0))
        .build();
    let vm = WorkloadBundle::server("bad-gang", vec![polls, silent], space, 0.0, None);
    let _ = System::new(
        Scenario::new(2, Strategy::Vanilla, 1)
            .vm(VmScenario::new(vm, 2).pin_one_to_one().measured())
            .horizon(SimTime::from_millis(10)),
    );
}

/// A thread that exits leaves its gang epochs. Two threads poll one
/// 2-participant epoch (period 2.5 ms) three times each, after 1 ms and
/// 2 ms rounds. The faster one parks at 3 ms, is released by the slower
/// one's poll at 4 ms, and exits. The slower one's last poll, at 6 ms,
/// finds the 5 ms safepoint pending with no one else left to arrive, and
/// completes it alone.
#[test]
fn an_exited_thread_leaves_its_gang_epoch() {
    let mut space = SyncSpace::new();
    let epoch = space.new_epoch(2_500_000, 2, WaitMode::Block);
    let thread = |grain_us| {
        ProgramBuilder::new()
            .repeat(3, |b| b.compute_us(grain_us, 0.0).safepoint_poll(epoch))
            .build()
    };
    let bundle = WorkloadBundle::parallel("leave", vec![thread(1_000), thread(2_000)], space, 0.0);
    let scenario = Scenario::new(2, Strategy::Vanilla, 1)
        .vm(VmScenario::new(bundle, 2).pin_one_to_one().measured())
        .horizon(SimTime::from_secs(1));
    let cfg = SystemConfig {
        check: true,
        ..SystemConfig::default()
    };
    let r = System::with_config(scenario, cfg).run();
    assert_eq!(r.measured().makespan, Some(SimTime::from_millis(6)));
}

/// Builds a one-VM system around `bundle`, which must die in
/// construction rather than fault mid-run.
fn build_one(bundle: WorkloadBundle) {
    let _ = System::new(
        Scenario::new(1, Strategy::Vanilla, 1)
            .vm(VmScenario::new(bundle, 1).measured())
            .horizon(SimTime::from_millis(10)),
    );
}

#[test]
#[should_panic(expected = "vm0 names unallocated arrival3")]
fn out_of_range_arrival_is_rejected_at_construction() {
    let prog = ProgramBuilder::new()
        .forever(|b| b.await_arrival(irs_sync::ArrivalId(3)).compute_us(100, 0.0))
        .build();
    build_one(WorkloadBundle::server(
        "bad-arrival",
        vec![prog],
        SyncSpace::new(),
        0.0,
        None,
    ));
}

#[test]
#[should_panic(expected = "vm0 names unallocated lock0")]
fn unallocated_lock_is_rejected_at_construction() {
    let l = irs_sync::LockId(0);
    let prog = ProgramBuilder::new()
        .forever(|b| b.lock(l).compute_us(100, 0.0).unlock(l))
        .build();
    build_one(WorkloadBundle::parallel(
        "bad-lock",
        vec![prog],
        SyncSpace::new(),
        0.0,
    ));
}

#[test]
#[should_panic(expected = "vm0 names unallocated chan1")]
fn out_of_range_open_loop_channel_is_rejected_at_construction() {
    let mut space = SyncSpace::new();
    let queue = space.new_channel(16);
    let arrival = space.new_arrival(1_000_000);
    let prog = ProgramBuilder::new()
        .forever(|b| b.pop(queue).compute_us(100, 0.0).request_done())
        .build();
    let source = OpenLoop {
        channel: irs_sync::ChannelId(1),
        arrival,
    };
    build_one(WorkloadBundle::server(
        "bad-source",
        vec![prog],
        space,
        0.0,
        Some(source),
    ));
}

#[test]
fn arrival_schedule_is_seed_stable() {
    // Same scenario seed → identical arrival schedules → identical runs;
    // different seed → different arrival draws.
    let a = serving_scenario(0, Strategy::Vanilla, 3).run();
    let b = serving_scenario(0, Strategy::Vanilla, 3).run();
    let c = serving_scenario(0, Strategy::Vanilla, 4).run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_ne!(
        format!("{:?}", a.measured().latencies_us),
        format!("{:?}", c.measured().latencies_us),
        "seed must perturb the arrival schedule"
    );
}

#[test]
fn gang_epoch_stall_tracks_interference() {
    // The safepoint stall is the slowest thread's time-to-poll: with more
    // interference the gang waits longer, so throughput drops. (The IRS
    // vs vanilla comparison lives in `figures fig8`; here we only pin the
    // mechanism's direction.)
    let calm = specjbb_scenario(0, Strategy::Vanilla, 21).run();
    let hammered = specjbb_scenario(4, Strategy::Vanilla, 21).run();
    let calm_rps = calm.measured().throughput_rps(calm.elapsed);
    let hammered_rps = hammered.measured().throughput_rps(hammered.elapsed);
    assert!(
        hammered_rps < calm_rps * 0.9,
        "interference must cost safepoint throughput (calm {calm_rps:.0} vs hammered {hammered_rps:.0} rps)"
    );
}
