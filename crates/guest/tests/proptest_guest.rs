//! Property tests: the guest scheduler's invariants survive arbitrary
//! interleavings of scheduling, balancing, and IRS operations.

use irs_guest::{GuestOs, GuestSaConfig, TaskId, TaskState, VcpuView};
use irs_sim::SimTime;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
#[allow(dead_code)] // variants carry data read via Debug in failure reports
enum Op {
    Tick(u8),
    AccountAndTick(u8, u16),
    BlockCurrent(u8),
    Wake(u8),
    SaUpcall(u8),
    MigratorRun(u8),
    EnsureCurrent(u8),
    IdleBalance(u8),
    StopMigrate(u8, u8),
    BlockQueued(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4).prop_map(Op::Tick),
        (0u8..4, 1u16..3000).prop_map(|(v, us)| Op::AccountAndTick(v, us)),
        (0u8..4).prop_map(Op::BlockCurrent),
        (0u8..8).prop_map(Op::Wake),
        (0u8..4).prop_map(Op::SaUpcall),
        (0u8..8).prop_map(Op::MigratorRun),
        (0u8..4).prop_map(Op::EnsureCurrent),
        (0u8..4).prop_map(Op::IdleBalance),
        (0u8..8, 0u8..4).prop_map(|(t, v)| Op::StopMigrate(t, v)),
        (0u8..8).prop_map(Op::BlockQueued),
    ]
}

/// View combinations the ops cycle through (deterministic per op index so
/// failures shrink well).
fn views(i: usize) -> Vec<VcpuView> {
    match i % 3 {
        0 => vec![VcpuView::running(); 4],
        1 => vec![
            VcpuView::preempted(0.6),
            VcpuView::running(),
            VcpuView::blocked(),
            VcpuView::running(),
        ],
        _ => vec![
            VcpuView::running(),
            VcpuView::preempted(0.3),
            VcpuView::preempted(0.9),
            VcpuView::blocked(),
        ],
    }
}

/// A 4-vCPU IRS guest with 8 tasks, booted, its boot buffer returned to
/// its pool as an embedder would.
fn build() -> GuestOs {
    let mut g = GuestOs::new(Some(GuestSaConfig::default()), 4);
    for i in 0..8 {
        g.spawn(i % 4);
    }
    let boot = g.start();
    g.recycle_actions(boot);
    g
}

/// Applies `op` as an embedder does: every action buffer an entry point
/// returns goes back to the guest's pool.
fn apply(g: &mut GuestOs, op: Op, vs: &[VcpuView]) {
    let acts = match op {
        Op::Tick(v) => g.tick(v as usize, vs),
        Op::AccountAndTick(v, us) => {
            g.account_runtime(v as usize, SimTime::from_micros(us as u64));
            g.tick(v as usize, vs)
        }
        Op::BlockCurrent(v) => g.block_current(v as usize, vs),
        Op::Wake(t) => g.wake(TaskId(t as usize), vs),
        Op::SaUpcall(v) => g.sa_upcall(v as usize).actions,
        Op::MigratorRun(_) => g.migrator_run(vs),
        Op::EnsureCurrent(v) => g.ensure_current(v as usize),
        Op::IdleBalance(v) => g.idle_balance(v as usize, vs),
        Op::StopMigrate(t, v) => g.request_stop_migration(TaskId(t as usize), v as usize),
        Op::BlockQueued(t) => {
            g.block_queued(TaskId(t as usize));
            return;
        }
    };
    g.recycle_actions(acts);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scheduler invariants hold after every operation.
    #[test]
    fn invariants_hold(ops in prop::collection::vec(op_strategy(), 1..250)) {
        let mut g = build();
        for (i, op) in ops.into_iter().enumerate() {
            apply(&mut g, op, &views(i));
            g.check_invariants().unwrap();
        }
    }

    /// A quiet tick is the full tick: at every tick op, whenever
    /// `tick_if_quiet` holds on one clone, the full tick on another
    /// returns no action and, once its buffer is recycled, leaves a guest
    /// that renders identically, pool of spare buffers included.
    #[test]
    fn a_quiet_tick_is_the_full_tick(ops in prop::collection::vec(op_strategy(), 1..250)) {
        let mut g = build();
        for (i, op) in ops.into_iter().enumerate() {
            let vs = views(i);
            let v = match op {
                Op::Tick(v) => v as usize,
                Op::AccountAndTick(v, us) => {
                    g.account_runtime(v as usize, SimTime::from_micros(us as u64));
                    v as usize
                }
                _ => {
                    apply(&mut g, op, &vs);
                    continue;
                }
            };
            let mut quiet = g.clone();
            let was_quiet = quiet.tick_if_quiet(v);
            let acts = g.tick(v, &vs);
            if was_quiet {
                prop_assert!(acts.is_empty(), "a quiet tick on v{} acted: {:?}", v, acts);
            }
            g.recycle_actions(acts);
            if was_quiet {
                prop_assert_eq!(format!("{quiet:?}"), format!("{g:?}"));
            }
            g.check_invariants().unwrap();
        }
    }

    /// vruntime is monotone per task.
    #[test]
    fn vruntime_is_monotone(charges in prop::collection::vec((0u8..4, 1u16..5000), 1..100)) {
        let mut g = build();
        let mut last: Vec<u64> = (0..8).map(|i| g.task(TaskId(i)).vruntime).collect();
        for (v, us) in charges {
            g.account_runtime(v as usize, SimTime::from_micros(us as u64));
            for (i, prev) in last.iter_mut().enumerate() {
                let vr = g.task(TaskId(i)).vruntime;
                prop_assert!(vr >= *prev, "task{i} vruntime went backwards");
                *prev = vr;
            }
        }
    }

    /// No task is ever lost: every task is always exactly one of
    /// running / queued / custody / blocked / exited.
    #[test]
    fn no_task_lost(ops in prop::collection::vec(op_strategy(), 1..250)) {
        let mut g = build();
        for (i, op) in ops.into_iter().enumerate() {
            let vs = views(i);
            match op {
                Op::Tick(v) => { g.tick(v as usize, &vs); }
                Op::AccountAndTick(v, us) => {
                    g.account_runtime(v as usize, SimTime::from_micros(us as u64));
                    g.tick(v as usize, &vs);
                }
                Op::BlockCurrent(v) => { g.block_current(v as usize, &vs); }
                Op::Wake(t) => { g.wake(TaskId(t as usize), &vs); }
                Op::SaUpcall(v) => { g.sa_upcall(v as usize); }
                Op::MigratorRun(_) => { g.migrator_run(&vs); }
                Op::EnsureCurrent(v) => { g.ensure_current(v as usize); }
                Op::IdleBalance(v) => { g.idle_balance(v as usize, &vs); }
                Op::StopMigrate(t, v) => {
                    g.request_stop_migration(TaskId(t as usize), v as usize);
                }
                Op::BlockQueued(t) => { g.block_queued(TaskId(t as usize)); }
            }
            // check_invariants validates placement; additionally assert
            // every non-exited task is reachable somewhere.
            for t in 0..8usize {
                let state = g.task(TaskId(t)).state;
                prop_assert_ne!(state, TaskState::Exited, "no op exits tasks here");
            }
            g.check_invariants().unwrap();
        }
    }
}
