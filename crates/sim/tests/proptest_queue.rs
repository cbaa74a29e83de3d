//! Property tests for the event queue: it must behave as a stable total
//! order over (time, insertion sequence), with cancellation removing exactly
//! the cancelled entries.

use irs_sim::{EventQueue, EventId, SimTime};
use proptest::prelude::*;

/// Reference model with the pre-refactor queue's observable semantics: a
/// flat list popped by minimum `(time, insertion sequence)`, with
/// cancellation removing exactly one pending entry. The real queue
/// (inline-payload heap + generation slab) must be indistinguishable
/// from this under any operation interleaving.
#[derive(Default, Clone)]
struct ModelQueue {
    pending: Vec<(u64, u64, u32)>, // (time, seq, payload)
    next_seq: u64,
}

impl ModelQueue {
    fn schedule(&mut self, at: u64, payload: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq, payload));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|e| e.1 == seq) {
            Some(i) => {
                self.pending.remove(i);
                true
            }
            None => false,
        }
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
/// boundaries at every level edge (multiples of 2^8 / 2^16 / 2^24 ticks,
/// where a drained upper slot re-files into lower levels), the
/// just-before-boundary edges, and far-future times beyond the wheel's
/// 2^32-tick horizon that land in the overflow list and must be promoted
/// back when the cursor reaches their window.
fn wheel_time_strategy() -> impl Strategy<Value = u64> {
    // The first arm repeats to keep FIFO-tie density high (the vendored
    // prop_oneof! picks arms uniformly).
    prop_oneof![
        0u64..50,
        0u64..50,
        (0u64..64).prop_map(|k| k * WHEEL_TICK),
        (0u64..8).prop_map(|k| k * (WHEEL_TICK << 8)),
        (0u64..8).prop_map(|k| k * (WHEEL_TICK << 16)),
        (0u64..4).prop_map(|k| k * (WHEEL_TICK << 24)),
        (1u64..4).prop_map(|k| k * (WHEEL_TICK << 8) - 1),
        (1u64..4).prop_map(|k| k * (WHEEL_TICK << 32)),
    ]
}

/// One step of the equivalence-test interleaving: `(op, a, b)` where
/// `op` selects schedule/cancel/pop/peek/clear/snapshot/restore (clear
/// deliberately rare — it appears at 1-in-24 so interleavings still build
/// up deep queues; snapshot and restore each land at 1-in-12 so a
/// sequence routinely clones mid-cascade and rewinds across it), `a`
/// picks a schedule time, and `b` picks which outstanding handle a cancel
/// targets.
fn step_strategy() -> impl Strategy<Value = (u8, u64, u8)> {
    (0u8..24, wheel_time_strategy(), 0u8..255).prop_map(|(op, a, b)| {
        let op = match op {
            19 => 4,
            20 | 21 => 5,
            22 | 23 => 6,
            _ => op % 4,
        };
        (op, a, b)
    })
}

proptest! {
    /// The rewritten queue is observationally equivalent to the old
    /// semantics (time order + FIFO ties + cancellation) under arbitrary
    /// interleavings of schedule / cancel / pop / peek / clear.
    #[test]
    fn queue_matches_reference_model(ops in prop::collection::vec(step_strategy(), 1..400)) {
        let mut real = EventQueue::new();
        let mut model = ModelQueue::default();
        // Parallel vectors: handle i in one maps to handle i in the other.
        let mut real_ids: Vec<EventId> = Vec::new();
        let mut model_ids: Vec<u64> = Vec::new();
        // Snapshot for the snapshot/restore ops: a clone of the real queue
        // (the wheel's `Clone` is the snapshot primitive under test — slab,
        // generations, occupancy bitmaps, overflow list, cursor), the model
        // state, and the handle-vector length at snapshot time. Restore
        // truncates the handle vectors: handles minted after the snapshot
        // belong to the abandoned timeline.
        let mut snap: Option<(EventQueue<u32>, ModelQueue, usize, u32)> = None;
        let mut payload = 0u32;
        for (op, a, b) in ops {
            match op {
                0 => {
                    // Times repeat heavily (the strategy samples a small
                    // set per scale) to exercise FIFO ties at every level.
                    real_ids.push(real.schedule(SimTime::from_nanos(a), payload));
                    model_ids.push(model.schedule(a, payload));
                    payload += 1;
                }
                1 => {
                    if !real_ids.is_empty() {
                        // Deliberately includes already-cancelled/popped
                        // handles: outcomes must agree for those too.
                        let i = b as usize % real_ids.len();
                        prop_assert_eq!(real.cancel(real_ids[i]), model.cancel(model_ids[i]));
                    }
                }
                2 => {
                    let got = real.pop().map(|(t, p)| (t.as_nanos(), p));
                    prop_assert_eq!(got, model.pop());
                }
                3 => {
                    prop_assert_eq!(real.peek_time().map(|t| t.as_nanos()), model.peek_time());
                }
                4 => {
                    // Clear: both queues drop everything. The handle
                    // vectors are deliberately kept — later cancels with
                    // pre-clear handles must report false in both, even
                    // after the real queue recycles those slots.
                    real.clear();
                    model.pending.clear();
                }
                5 => {
                    // Snapshot: clone both queues at an arbitrary instant —
                    // mid-cascade, with overflow pending, with cancelled
                    // corpses still in slots. Overwrites any prior snapshot.
                    snap = Some((real.clone(), model.clone(), real_ids.len(), payload));
                }
                _ => {
                    // Restore: rewind to the snapshot (no-op when none was
                    // taken). From here the interleaving continues on the
                    // restored state, so cancel-then-cascade and far-future
                    // overflow promotion replay across the rewind — and the
                    // clone must behave identically to the original, not
                    // just render identically.
                    if let Some((r, m, keep, p)) = &snap {
                        real = r.clone();
                        model = m.clone();
                        real_ids.truncate(*keep);
                        model_ids.truncate(*keep);
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

    /// Cancelling a subset removes exactly that subset; everything else pops
    /// in order. With wheel-scale times this is the cancel-then-cascade
    /// property: a corpse cancelled in an upper level must never resurface
    /// when its slot is drained and re-filed downward.
    #[test]
    fn cancel_removes_exactly_the_cancelled(
        times in prop::collection::vec(wheel_time_strategy(), 1..200),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_nanos(t), i))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
            } else {
                kept.push((times[i], i));
            }
        }
        kept.sort();
        prop_assert_eq!(q.len(), kept.len());
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.as_nanos(), i));
        }
        prop_assert_eq!(got, kept);
    }

    /// Far-future events land in the overflow list (beyond the wheel's
    /// 2^32-tick horizon) and must be promoted back into the wheel in the
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
            // Strictly beyond the 2^32-tick lookahead from tick zero.
            let t = w * (WHEEL_TICK << 32) + w;
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

    /// len is consistent under an arbitrary interleaving of operations.
    #[test]
    fn len_is_consistent(ops in prop::collection::vec(0u8..3, 1..300)) {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        let mut expected_len = 0usize;
        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => {
                    ids.push(q.schedule(SimTime::from_nanos(i as u64 % 17), i));
                    expected_len += 1;
                }
                1 => {
                    if let Some(id) = ids.pop() {
                        if q.cancel(id) {
                            expected_len -= 1;
                        }
                    }
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
