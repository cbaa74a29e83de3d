//! Property tests for the event queue: it must behave as a stable total
//! order over (time, insertion sequence), whether an event was filed in
//! the timer wheel (`schedule`) or on the FIFO lane (`schedule_in_order`).

use irs_sim::{EventQueue, SimTime};
use proptest::prelude::*;

/// Reference model of the queue's observable semantics: a flat list popped
/// by minimum `(time, insertion sequence)`. The real queue (a hierarchical
/// timer wheel beside a FIFO lane) must be indistinguishable from this
/// under any operation interleaving, whichever of the two each event was
/// scheduled on.
#[derive(Default, Clone)]
struct ModelQueue {
    pending: Vec<(u64, u64, u32)>, // (time, seq, payload)
    next_seq: u64,
}

impl ModelQueue {
    fn schedule(&mut self, at: u64, payload: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq, payload));
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let i = (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))?;
        let (at, _, payload) = self.pending.remove(i);
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending.iter().map(|e| e.0).min()
    }
}

/// One nanosecond-tick of the hierarchical wheel backing the queue
/// (`TICK_SHIFT = 16`). Kept in sync with `event.rs` by the tests
/// themselves: if the geometry changes, the boundary times below stop
/// being boundaries but remain valid (the model is geometry-agnostic).
const WHEEL_TICK: u64 = 1 << 16;

/// Times that stress the wheel geometry rather than a generic ordering
/// container: FIFO ties inside one tick, level-0 slot multiples, cascade
/// boundaries at every level edge (multiples of 2^6 / 2^12 / 2^18 / 2^24
/// ticks, where a drained upper slot re-files into lower levels), the
/// just-before-boundary edges, and far-future times beyond the wheel's
/// 2^30-tick horizon that land in the overflow list and must be promoted
/// back when the cursor reaches their window.
fn wheel_time_strategy() -> impl Strategy<Value = u64> {
    // The first arm repeats to keep FIFO-tie density high (the vendored
    // prop_oneof! picks arms uniformly).
    prop_oneof![
        0u64..50,
        0u64..50,
        (0u64..64).prop_map(|k| k * WHEEL_TICK),
        (0u64..8).prop_map(|k| k * (WHEEL_TICK << 6)),
        (0u64..8).prop_map(|k| k * (WHEEL_TICK << 12)),
        (0u64..8).prop_map(|k| k * (WHEEL_TICK << 18)),
        (0u64..4).prop_map(|k| k * (WHEEL_TICK << 24)),
        (1u64..4).prop_map(|k| k * (WHEEL_TICK << 6) - 1),
        (1u64..4).prop_map(|k| k * (WHEEL_TICK << 30)),
    ]
}

/// One step of the equivalence-test interleaving: `(op, a)` where `op`
/// selects a wheel schedule (4 in 14) or a lane schedule (3 in 14, so
/// interleavings build up deep queues on both), pop (3 in 14), peek (2 in
/// 14), snapshot or restore (1 in 14 each, so a sequence routinely clones
/// mid-cascade and rewinds across it), and `a` picks a schedule time. The
/// times come from one small set for both lanes, so a lane schedule often
/// lands before the lane's latest entry or at an instant wheel entries
/// already hold.
fn step_strategy() -> impl Strategy<Value = (u8, u64)> {
    (0u8..14, wheel_time_strategy())
}

proptest! {
    /// The queue is observationally equivalent to the reference model
    /// (time order + FIFO ties) under arbitrary interleavings of wheel
    /// schedule / lane schedule / pop / peek / snapshot / restore.
    #[test]
    fn queue_matches_reference_model(ops in prop::collection::vec(step_strategy(), 1..400)) {
        let mut real = EventQueue::new();
        let mut model = ModelQueue::default();
        // Snapshot for the snapshot/restore ops: a clone of the real queue
        // (the queue's `Clone` is the snapshot primitive under test —
        // sequence counter, occupancy bitmaps, overflow list, cursor, FIFO
        // lane), the model state, and the next payload at snapshot time.
        let mut snap: Option<(EventQueue<u32>, ModelQueue, u32)> = None;
        let mut payload = 0u32;
        for (op, a) in ops {
            match op {
                0..=3 => {
                    // Times repeat heavily (the strategy samples a small
                    // set per scale) to exercise FIFO ties at every level.
                    real.schedule(SimTime::from_nanos(a), payload);
                    model.schedule(a, payload);
                    payload += 1;
                }
                4..=6 => {
                    // The lane takes any time: at or after its latest
                    // entry (an append), before it (a sorted insert), or
                    // tied with wheel entries (ordered by seq).
                    real.schedule_in_order(SimTime::from_nanos(a), payload);
                    model.schedule(a, payload);
                    payload += 1;
                }
                7..=9 => {
                    let got = real.pop().map(|(t, p)| (t.as_nanos(), p));
                    prop_assert_eq!(got, model.pop());
                }
                10 | 11 => {
                    prop_assert_eq!(real.peek_time().map(|t| t.as_nanos()), model.peek_time());
                }
                12 => {
                    // Snapshot: clone both queues at an arbitrary instant —
                    // mid-cascade, with overflow pending. Overwrites any
                    // prior snapshot.
                    snap = Some((real.clone(), model.clone(), payload));
                }
                _ => {
                    // Restore: rewind to the snapshot (no-op when none was
                    // taken). From here the interleaving continues on the
                    // restored state, so cascades and far-future overflow
                    // promotion replay across the rewind — and the clone
                    // must behave identically to the original, not just
                    // render identically.
                    if let Some((r, m, p)) = &snap {
                        real = r.clone();
                        model = m.clone();
                        payload = *p;
                    }
                }
            }
            prop_assert_eq!(real.len(), model.pending.len());
            prop_assert_eq!(real.is_empty(), model.pending.is_empty());
        }
        // Drain: the tails must match exactly.
        loop {
            let got = real.pop().map(|(t, p)| (t.as_nanos(), p));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}

proptest! {
    /// Popping yields events in nondecreasing time order, FIFO among ties —
    /// across wheel levels and the overflow list, not just within a slot.
    #[test]
    fn pop_order_is_total(times in prop::collection::vec(wheel_time_strategy(), 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort();
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.as_nanos(), i));
        }
        prop_assert_eq!(got, expected);
    }

    /// Far-future events land in the overflow list (beyond the wheel's
    /// 2^30-tick horizon) and must be promoted back into the wheel in the
    /// right windows: interleaving near and far schedules with pops still
    /// yields the global (time, seq) order.
    #[test]
    fn far_future_overflow_promotes_in_order(
        near in prop::collection::vec(0u64..(WHEEL_TICK << 10), 1..40),
        far in prop::collection::vec(1u64..6, 1..20),
        pop_between in 0usize..20,
    ) {
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut payload = 0usize;
        for &t in &near {
            q.schedule(SimTime::from_nanos(t), payload);
            expected.push((t, payload));
            payload += 1;
        }
        // Drain part of the near set first so the cursor has advanced by
        // the time the overflow entries are promoted.
        let mut got = Vec::new();
        for _ in 0..pop_between.min(near.len()) {
            let (t, p) = q.pop().unwrap();
            got.push((t.as_nanos(), p));
        }
        for &w in &far {
            // Strictly beyond the 2^30-tick lookahead from tick zero.
            let t = w * (WHEEL_TICK << 30) + w;
            q.schedule(SimTime::from_nanos(t), payload);
            expected.push((t, payload));
            payload += 1;
        }
        while let Some((t, p)) = q.pop() {
            got.push((t.as_nanos(), p));
        }
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    /// peek_time always agrees with the next pop.
    #[test]
    fn peek_matches_pop(times in prop::collection::vec(0u64..100, 1..64)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        while let Some(peeked) = q.peek_time() {
            let (popped, _) = q.pop().unwrap();
            prop_assert_eq!(peeked, popped);
        }
        prop_assert!(q.is_empty());
    }

    /// len is consistent under an arbitrary interleaving of wheel and
    /// lane schedules and pops.
    #[test]
    fn len_is_consistent(ops in prop::collection::vec(0u8..3, 1..300)) {
        let mut q = EventQueue::new();
        let mut expected_len = 0usize;
        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => {
                    q.schedule(SimTime::from_nanos(i as u64 % 17), i);
                    expected_len += 1;
                }
                1 => {
                    // Cycles through 0..23 out of order: appends, sorted
                    // inserts and ties with the wheel's times.
                    q.schedule_in_order(SimTime::from_nanos(i as u64 * 7 % 23), i);
                    expected_len += 1;
                }
                _ => {
                    if q.pop().is_some() {
                        expected_len -= 1;
                    }
                }
            }
            prop_assert_eq!(q.len(), expected_len);
        }
    }
}
