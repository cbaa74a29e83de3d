//! Discrete-event queue backed by a hierarchical timer wheel and a FIFO lane.
//!
//! The two-level scheduler simulation constantly arms timers that become
//! irrelevant before they fire: a vCPU's 30 ms slice-expiry timer dies when
//! the vCPU blocks early; a task's compute-completion event dies when its
//! vCPU is preempted. The queue never removes them. Such events carry a
//! generation number in their payload, and the handler drops a firing whose
//! generation is stale, so the queue only ever schedules and pops.
//!
//! # Hot-path design
//!
//! `schedule`/`pop`/`peek_time` are the innermost loop of every simulation
//! run, and a simulated host keeps only a few dozen events pending. The
//! most frequent event, the 1 ms guest CFS tick, is armed in time order
//! and goes on a FIFO lane (below). Every other event — `HvTick`,
//! `HvAccounting`, slice expiries, compute segments, SA rounds, arrivals —
//! goes in a **hierarchical timer wheel** (kernel `timer.c` style) with
//! O(1) amortized schedule and pop:
//!
//! * Sim time is bucketed into **ticks** of `2^TICK_SHIFT` ns (65.5 µs).
//!   Sub-tick ordering is preserved — ticks choose the *bucket*, the full
//!   `(SimTime, seq)` key still decides pop order within it.
//! * Five **levels × 64 slots** cover 30 bits of tick (~19.5 h of sim time
//!   past the wheel cursor); level *l* slot *s* holds events whose tick
//!   agrees with the cursor on all bits above `6·(l+1)` and has `s` in bit
//!   field `[6·l, 6·(l+1))`. One `u64` **occupancy word** per level finds
//!   the next non-empty slot with a single `trailing_zeros`.
//! * Events beyond the top level's range go to an unordered **overflow
//!   list**, promoted wholesale when the wheel drains down to them.
//! * A sorted **head** vector (descending `(time, seq)`, popped from the
//!   back) holds every event at or before the wheel **cursor**. The head is
//!   non-empty whenever any wheel event is pending, which is what lets
//!   [`EventQueue::peek_time`] take `&self`.
//! * Every entry of a level-0 slot is due at the slot's own tick, so when
//!   the cursor reaches one the slot is sorted in place and swapped with
//!   the empty head: the dominant drain moves no entry at all.
//!
//! The cursor only ever moves to the tick of the earliest pending event, so
//! a wheel slot is drained at most once per entry and cascading moves each
//! entry strictly downward: `schedule` and `pop` are O(1) amortized. Pop
//! order is earliest `(time, insertion seq)` first, because every drain
//! sorts by that total key.
//!
//! # The FIFO lane
//!
//! A timer class that is armed in time order — each firing re-arms one
//! fixed period ahead of a clock that never runs backwards, like the 1 ms
//! guest CFS tick — needs none of the wheel's filing. Such events go on a
//! **lane** beside the wheel ([`EventQueue::schedule_in_order`]): a deque
//! kept sorted by `(time, seq)`, which an in-order schedule appends to and
//! an out-of-order one enters by a sorted insert. Lane entries draw their
//! `seq` from the same counter as wheel entries, and `pop`/`peek_time`
//! take the smaller of the lane's front and the head's last entry under
//! the same total key, so which of the two an event was filed in never
//! changes the pop order.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Wheel tick resolution: `2^16` ns = 65.5 µs per tick. One level-0
/// rotation spans ~4.2 ms, so most timers due within a millisecond or two
/// (compute segments, SA rounds, PLE windows) file directly into level 0
/// and fire without a cascade; the rest, and the 10 ms `HvTick` through
/// the 30 ms slice timers, cascade once. Sub-tick deadlines cost nothing in
/// fidelity: the full `(SimTime, seq)` key orders events within a bucket,
/// ticks only pick the bucket.
const TICK_SHIFT: u32 = 16;
/// log2 of the slots per level. 6-bit levels keep every occupancy bitmap in
/// one word and the whole wheel at 320 buckets; 8-bit levels cascaded
/// less but measured slower, since their 1,024 buckets do not stay in cache.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Levels in the hierarchy; together they cover `LEVELS * LEVEL_BITS` = 30
/// bits of tick (~19.5 h of sim time past the cursor). Anything farther
/// waits in the overflow list.
const LEVELS: usize = 5;
/// Bits of tick the wheel proper can express relative to the cursor.
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// A wheel entry carrying its payload inline. No intrinsic ordering: drains
/// sort by the total key `(at, seq)` (`seq` is unique, so ties are FIFO by
/// schedule order).
#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

/// A time-ordered queue of events with stable FIFO tie-breaking.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled, which gives the simulation a deterministic total order — a
/// prerequisite for the reproducibility guarantees in `DESIGN.md`.
///
/// # Example
///
/// ```
/// use irs_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(5), 'b');
/// q.schedule(SimTime::from_nanos(1), 'a');
/// q.schedule(SimTime::from_nanos(5), 'c');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
///
/// # Snapshots
///
/// `EventQueue<E: Clone>` is `Clone`, and the clone is a *complete* state
/// copy: sequence counter, cursor, occupancy bitmaps, head batch, overflow
/// list and FIFO lane all carry over. A clone is therefore observationally
/// identical to the original under every subsequent operation sequence —
/// pops return the same `(time, seq)` order. This is the foundation of
/// `System::snapshot()` (DESIGN.md §2.7).
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Entries at or before the cursor, sorted by `(at, seq)`
    /// **descending** so the global minimum pops from the back in O(1).
    /// Invariant: non-empty whenever `wheel_len > 0`.
    head: Vec<Entry<E>>,
    /// `LEVELS * SLOTS` buckets, level-major. Entries here are strictly
    /// after the cursor.
    wheel: Vec<Vec<Entry<E>>>,
    /// One occupancy bit per slot, one word per level.
    occ: [u64; LEVELS],
    /// Events more than `2^WHEEL_BITS` ticks past the cursor's window.
    overflow: Vec<Entry<E>>,
    /// Current wheel position, in ticks. Only moves forward, and only to
    /// the tick of the earliest pending event.
    cursor: u64,
    /// The `seq` of the next event scheduled, on the wheel or the lane.
    next_seq: u64,
    /// Pending wheel events (head + wheel + overflow); the lane counts
    /// its own.
    wheel_len: usize,
    /// The FIFO lane: events scheduled through
    /// [`EventQueue::schedule_in_order`], sorted by `(at, seq)`
    /// **ascending**, so the lane's minimum pops from the front.
    lane: VecDeque<Entry<E>>,
}

impl<E> EventQueue<E> {
    /// Wheel buckets every queue holds, whatever its population.
    pub const BUCKETS: usize = LEVELS * SLOTS;
    /// Bytes one pending event occupies in a bucket: its payload plus the
    /// `(time, seq)` key.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            head: Vec::new(),
            wheel: (0..Self::BUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            overflow: Vec::new(),
            cursor: 0,
            next_seq: 0,
            wheel_len: 0,
            lane: VecDeque::new(),
        }
    }

    #[inline]
    fn tick_of(at: SimTime) -> u64 {
        at.as_nanos() >> TICK_SHIFT
    }

    /// Schedules `payload` to fire at instant `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let entry = Entry {
            at,
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        self.wheel_len += 1;
        if Self::tick_of(at) <= self.cursor {
            // At or before the wheel position: sorted insert into the head.
            // Rare (the cursor trails the minimum), and cheap when it does
            // happen because the head only holds the current tick's worth.
            self.insert_head(entry);
        } else {
            self.place(entry);
            if self.head.is_empty() {
                // The queue held no earlier event; pull the wheel forward so
                // `peek_time`/`pop` see this one without a mutable settle step.
                self.advance();
            }
        }
    }

    /// Schedules `payload` to fire at instant `at` on the FIFO lane. It
    /// pops exactly where [`EventQueue::schedule`] would have put it —
    /// `seq` comes from the same counter — but costs one append when `at`
    /// is at or after the lane's latest entry. An earlier `at` is still
    /// legal and takes a sorted insert, so use this for events armed
    /// mostly in time order: the guest ticks append 95–97% of the time in
    /// Figs 5, 6 and 13 and 71% in the serving campaign (DESIGN.md §2.6).
    #[inline]
    pub fn schedule_in_order(&mut self, at: SimTime, payload: E) {
        let entry = Entry {
            at,
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        if self.lane.back().is_none_or(|last| last.at <= at) {
            self.lane.push_back(entry);
        } else {
            // The new `seq` exceeds every pending one, so the entry goes
            // after every lane entry due at or before `at`.
            let i = self.lane.partition_point(|e| e.at <= at);
            self.lane.insert(i, entry);
        }
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(first) = self.lane.front() {
            let lane_first = self
                .head
                .last()
                .is_none_or(|h| (first.at, first.seq) < (h.at, h.seq));
            if lane_first {
                let entry = self.lane.pop_front()?;
                return Some((entry.at, entry.payload));
            }
        }
        let entry = self.head.pop()?;
        self.wheel_len -= 1;
        if self.head.is_empty() && self.wheel_len > 0 {
            self.advance();
        }
        Some((entry.at, entry.payload))
    }

    /// The firing time of the earliest event, without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        let head = self.head.last().map(|e| e.at);
        match (self.lane.front().map(|e| e.at), head) {
            (Some(l), Some(h)) => Some(l.min(h)),
            (l, h) => l.or(h),
        }
    }

    /// Number of pending events, on the wheel and the lane.
    pub fn len(&self) -> usize {
        self.wheel_len + self.lane.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted insert into the descending head. O(log n) search plus the
    /// memmove; only taken for schedules at or before the cursor.
    fn insert_head(&mut self, e: Entry<E>) {
        let key = (e.at, e.seq);
        let i = self.head.partition_point(|x| (x.at, x.seq) > key);
        self.head.insert(i, e);
    }

    /// Files an entry strictly after the cursor into the shallowest level
    /// whose window contains it, or the overflow list. O(1): the target
    /// level is the 6-bit field holding the highest bit where the tick and
    /// the cursor differ, found with a single `leading_zeros`.
    #[inline]
    fn place(&mut self, e: Entry<E>) {
        let t = Self::tick_of(e.at);
        if t <= self.cursor {
            // At or before the wheel position. The level computation below
            // is only defined for strictly-future ticks (`t == cursor`
            // underflows the `63 - leading_zeros` shift; `t < cursor` picks
            // a level from bits the cursor has already swept), so such
            // entries belong in the head batch, same as `schedule`'s own
            // at-or-before-cursor path. Both in-tree callers pre-filter
            // this case — `schedule` into `insert_head`, `route` into the
            // head batch — so this arm is defensive, but it must be correct
            // rather than an assert: an at-cursor tick is a legitimate
            // instant to schedule for.
            self.insert_head(e);
            return;
        }
        let l = ((63 - (t ^ self.cursor).leading_zeros()) / LEVEL_BITS) as usize;
        if l >= LEVELS {
            self.overflow.push(e);
            return;
        }
        let s = ((t >> (LEVEL_BITS * l as u32)) & SLOT_MASK) as usize;
        self.occ[l] |= 1 << s;
        self.wheel[l * SLOTS + s].push(e);
    }

    /// Moves the cursor forward to the earliest pending event and makes its
    /// slot the head. Precondition: the head is empty and an event is
    /// pending somewhere in the wheel or overflow (the lane is no part of
    /// the wheel).
    ///
    /// Each iteration either drains the lowest occupied slot (cascading
    /// upper-level entries strictly downward) or promotes the nearest
    /// overflow window into the wheel, so every entry is touched at most
    /// `LEVELS + 1` times over its life — O(1) amortized.
    fn advance(&mut self) {
        debug_assert!(self.head.is_empty() && self.wheel_len > 0);
        while self.head.is_empty() {
            // The lowest occupied slot of the lowest occupied level is the
            // earliest window with pending entries (lower levels sit
            // strictly before higher ones relative to the cursor).
            if let Some(l) = self.occ.iter().position(|&w| w != 0) {
                let s = u64::from(self.occ[l].trailing_zeros());
                let window = LEVEL_BITS * (l as u32 + 1);
                let base = LEVEL_BITS * l as u32;
                self.cursor = ((self.cursor >> window) << window) | (s << base);
                self.occ[l] &= !(1 << s);
                let b = l * SLOTS + s as usize;
                if l == 0 {
                    // Every entry here is due at the cursor's own tick: sort
                    // the slot in place and trade it for the empty head,
                    // whose capacity the slot reuses next rotation.
                    let slot = &mut self.wheel[b];
                    slot.sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                    std::mem::swap(&mut self.head, slot);
                    return;
                }
                let mut drained = std::mem::take(&mut self.wheel[b]);
                for e in drained.drain(..) {
                    self.route(e);
                }
                // Hand the (now empty) bucket back so its capacity is
                // recycled next rotation.
                self.wheel[b] = drained;
            } else {
                // The wheel proper is empty: promote the nearest overflow
                // window.
                let w = self
                    .overflow
                    .iter()
                    .map(|e| Self::tick_of(e.at) >> WHEEL_BITS)
                    .min()
                    .expect("wheel_len says an event is pending");
                self.cursor = w << WHEEL_BITS;
                for e in std::mem::take(&mut self.overflow) {
                    if Self::tick_of(e.at) >> WHEEL_BITS == w {
                        self.route(e);
                    } else {
                        self.overflow.push(e);
                    }
                }
            }
            // One O(k log k) sort per cascade that reached the cursor's
            // tick; a no-op when everything re-filed into lower levels.
            self.head
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
        }
    }

    /// Re-files one drained entry: entries at or before the (just advanced)
    /// cursor join the head batch, which `advance` sorts once; later entries
    /// cascade into a strictly lower level.
    #[inline]
    fn route(&mut self, e: Entry<E>) {
        if Self::tick_of(e.at) <= self.cursor {
            self.head.push(e);
        } else {
            self.place(e);
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop().map(|(t, p)| (t.as_nanos(), p))).collect()
    }

    /// Nanosecond value whose tick (ns >> TICK_SHIFT) is exactly `t`.
    fn tick_ns(t: u64) -> u64 {
        t << TICK_SHIFT
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for v in 0..100u32 {
            q.schedule(SimTime::from_nanos(42), v);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_is_shared_and_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(9), 'z');
        q.schedule(SimTime::from_nanos(3), 'a');
        let r = &q; // peek_time must work through a shared reference
        assert_eq!(r.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 'a')));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::from_nanos(tick_ns(5000)), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    // ---- wheel-specific coverage ------------------------------------

    #[test]
    fn cascade_boundaries_preserve_order() {
        // One event on each side of every level boundary (2^6, 2^12, 2^18,
        // 2^24 ticks, and 2^30 where the overflow list starts), plus ties
        // straddling a slot edge: order must be the plain (time, seq) total
        // order regardless of which level each entry started in.
        let mut q = EventQueue::new();
        let ticks: Vec<u64> = [6, 12, 18, 24, 30]
            .iter()
            .flat_map(|&b| [(1u64 << b) - 1, 1 << b, (1 << b) + 1])
            .collect();
        // Schedule in reverse so the wheel can't rely on arrival order.
        for (i, &t) in ticks.iter().enumerate().rev() {
            q.schedule(SimTime::from_nanos(tick_ns(t)), i as u32);
        }
        let got = drain(&mut q);
        let want: Vec<(u64, u32)> = ticks
            .iter()
            .enumerate()
            .map(|(i, &t)| (tick_ns(t), i as u32))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn far_future_overflow_promotes() {
        // Events several full wheel ranges out must park in overflow and
        // come back in order, including two distinct far windows.
        let mut q = EventQueue::new();
        let far = tick_ns(3 << WHEEL_BITS);
        let farther = tick_ns(7 << WHEEL_BITS);
        q.schedule(SimTime::from_nanos(farther), 3);
        q.schedule(SimTime::from_nanos(far + 5), 2);
        q.schedule(SimTime::from_nanos(far), 1);
        q.schedule(SimTime::from_nanos(10), 0);
        assert_eq!(
            drain(&mut q),
            vec![(10, 0), (far, 1), (far + 5, 2), (farther, 3)]
        );
    }

    #[test]
    fn schedule_behind_cursor_pops_first() {
        // Popping a far event drags the cursor forward; a later schedule
        // at an earlier time must still pop before everything pending.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(tick_ns(5000)), 1);
        q.schedule(SimTime::from_nanos(tick_ns(9000)), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(tick_ns(5000)), 1)));
        // Cursor now sits at tick 9000's window; go back to tick 7.
        q.schedule(SimTime::from_nanos(tick_ns(7)), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(tick_ns(7))));
        assert_eq!(drain(&mut q), vec![(tick_ns(7), 3), (tick_ns(9000), 2)]);
    }

    #[test]
    fn schedule_at_pop_time_fires_immediately() {
        // The "now" of a driver loop: after popping an event, scheduling
        // another at exactly the popped instant (the cursor's own tick)
        // must neither abort nor mis-file — it is simply the next head.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(tick_ns(100)), 1);
        q.schedule(SimTime::from_nanos(tick_ns(200)), 2);
        let (t, p) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), p), (tick_ns(100), 1));
        q.schedule(t, 3);
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(drain(&mut q), vec![(tick_ns(100), 3), (tick_ns(200), 2)]);
    }

    #[test]
    fn level0_slot_drains_in_place() {
        // One level-0 slot collecting many same-tick ties (scheduled out of
        // time order, with sub-tick offsets) while an earlier event holds
        // the head becomes the next head wholesale; schedules at the
        // cursor's tick while that slot is the head merge into it by
        // (time, seq), ahead of the next slot.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(tick_ns(1)), 0);
        let base = tick_ns(40);
        let mut want = Vec::new();
        for i in 1..=200u32 {
            let at = base + u64::from((i * 7919) % 50);
            q.schedule(SimTime::from_nanos(at), i);
            want.push((at, i));
        }
        q.schedule(SimTime::from_nanos(tick_ns(41)), 999);
        assert_eq!(q.cursor, 1);
        assert_eq!(q.wheel[40].len(), 200);
        assert_eq!(q.occ[0], (1 << 40) | (1 << 41), "both ticks sit in level 0");
        // Popping the tick-1 event drains slot 40 into the head in one swap.
        assert_eq!(q.pop(), Some((SimTime::from_nanos(tick_ns(1)), 0)));
        assert_eq!(q.cursor, 40);
        assert_eq!(q.occ[0], 1 << 41, "slot 40 left the wheel");
        assert!(q.wheel[40].is_empty());
        assert_eq!(q.head.len(), 200);
        // At-cursor schedules while slot 40 is the head: one before, one
        // between and one after the pending ties.
        for (at, p) in [(base, 1000), (base + 25, 1001), (base + 60, 1002)] {
            q.schedule(SimTime::from_nanos(at), p);
            want.push((at, p));
        }
        want.sort();
        want.push((tick_ns(41), 999));
        assert_eq!(drain(&mut q), want);
    }

    /// Hands an entry straight to `place`, bypassing `schedule`'s own
    /// at-or-before-cursor pre-filter — this is the only way to pin
    /// `place`'s defensive head arm directly.
    fn raw_place(q: &mut EventQueue<u32>, at: SimTime, payload: u32) {
        let seq = q.next_seq;
        q.next_seq += 1;
        q.wheel_len += 1;
        q.place(Entry { at, seq, payload });
    }

    #[test]
    fn place_at_or_before_cursor_routes_to_head() {
        // Regression: `place` used to carry
        // `debug_assert!(t > self.cursor)` and an at-cursor tick underflowed
        // the level computation (63 - 64 leading_zeros) — aborting in debug
        // and filing into a garbage level in release. Both the `t == cursor`
        // and `t < cursor` cases must land in the head and pop in order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(tick_ns(5000)), 0);
        q.schedule(SimTime::from_nanos(tick_ns(9000) + 10), 4);
        q.pop(); // drags the cursor to tick 9000
        assert_eq!(q.cursor, 9000);
        raw_place(&mut q, SimTime::from_nanos(tick_ns(9000)), 3); // t == cursor
        raw_place(&mut q, SimTime::from_nanos(tick_ns(7)), 2); // t < cursor
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(tick_ns(7))));
        assert_eq!(
            drain(&mut q),
            vec![(tick_ns(7), 2), (tick_ns(9000), 3), (tick_ns(9000) + 10, 4)]
        );
    }

    #[test]
    fn clone_is_observationally_identical() {
        // A cloned queue must behave exactly like the original: same drain
        // order, and post-clone schedules tie-break identically on both
        // timelines.
        let mut q = EventQueue::new();
        for i in 0..50u32 {
            q.schedule(
                SimTime::from_nanos(tick_ns((i as u64 * 37) % 97) + i as u64),
                i,
            );
        }
        q.pop();
        let mut c = q.clone();
        for p in [999, 1000] {
            q.schedule(SimTime::from_nanos(tick_ns(40)), p);
            c.schedule(SimTime::from_nanos(tick_ns(40)), p);
        }
        assert_eq!(q.len(), c.len());
        assert_eq!(drain(&mut q), drain(&mut c));
    }

    #[test]
    fn lane_and_wheel_ties_pop_in_schedule_order() {
        // A lane entry and a wheel entry due at one instant pop in the
        // order they were scheduled, whichever came first: a guest tick
        // on the lane armed before an SA round on the wheel runs first.
        let mut q = EventQueue::new();
        let t = tick_ns(3) + 7;
        q.schedule_in_order(SimTime::from_nanos(t), 0);
        q.schedule(SimTime::from_nanos(t), 1);
        q.schedule_in_order(SimTime::from_nanos(t), 2);
        q.schedule(SimTime::from_nanos(t), 3);
        q.schedule(SimTime::from_nanos(5), 4);
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(drain(&mut q), vec![(5, 4), (t, 0), (t, 1), (t, 2), (t, 3)]);
        assert!(q.is_empty());
    }

    #[test]
    fn lane_takes_schedules_out_of_time_order() {
        // Appends are the fast path; an earlier instant is a sorted insert
        // behind every lane entry due at or before it.
        let mut q = EventQueue::new();
        for (at, p) in [(300, 0), (100, 1), (300, 2), (200, 3)] {
            q.schedule_in_order(SimTime::from_nanos(at), p);
        }
        q.schedule(SimTime::from_nanos(200), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(100)));
        let mut c = q.clone();
        let want = vec![(100, 1), (200, 3), (200, 4), (300, 0), (300, 2)];
        assert_eq!(drain(&mut q), want);
        assert_eq!(drain(&mut c), want);
    }

    #[test]
    fn interleaved_pop_and_schedule_tracks_cursor() {
        // A periodic-timer-like workload: every pop schedules the next
        // beat; the cursor chases the minimum without ever skipping.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(0), 0u32);
        let mut fired = Vec::new();
        while let Some((t, p)) = q.pop() {
            fired.push((t.as_nanos(), p));
            if p < 20 {
                // 1 ms beats, ~15 ticks apart: every fourth or fifth one
                // crosses into the next level-0 window.
                q.schedule(SimTime::from_nanos(t.as_nanos() + 1_000_000), p + 1);
            }
        }
        let want: Vec<(u64, u32)> = (0..=20).map(|i| (i as u64 * 1_000_000, i)).collect();
        assert_eq!(fired, want);
    }
}
