//! Bounded channels for pipeline-parallel workloads (dedup, ferret, x264).
//!
//! An item is a request stamp, `Option<SimTime>`: `Some(t)` carries a
//! request that arrived or started at `t` downstream, so end-to-end
//! latency spans every tier it crosses; `None` is a plain pipeline item.
//! The simulation otherwise cares only about *when* stages block on
//! full/empty queues. Waiters always block (pthread condvar semantics).

use irs_guest::TaskId;
use irs_sim::SimTime;
use std::collections::VecDeque;

/// Outcome of a push attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Item enqueued. If a consumer was waiting for an item, wake it —
    /// its pending pop has been completed on its behalf, and the pushed
    /// stamp is its to take.
    Pushed {
        /// Consumer to wake, if one was blocked on empty.
        wake_consumer: Option<TaskId>,
    },
    /// Channel full: the producer must block until space frees up. The
    /// channel holds its stamp until a pop moves it into the queue.
    MustWait,
}

/// Outcome of a pop attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopOutcome {
    /// Item dequeued. If a producer was waiting for space, wake it — its
    /// pending push has been completed on its behalf.
    Popped {
        /// The stamp the popped item carried.
        stamp: Option<SimTime>,
        /// Producer to wake, if one was blocked on full.
        wake_producer: Option<TaskId>,
    },
    /// Channel empty: the consumer must block.
    MustWait,
}

/// Outcome of a non-blocking external offer (open-loop request injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// Item enqueued (or handed straight to a waiting consumer).
    Accepted {
        /// Consumer to wake, if one was blocked on empty.
        wake_consumer: Option<TaskId>,
    },
    /// Channel full: the item is dropped (an overloaded accept queue).
    Full,
}

/// A bounded single-queue channel of request stamps.
#[derive(Debug, Clone)]
pub struct Channel {
    capacity: usize,
    items: VecDeque<Option<SimTime>>,
    /// Blocked producers, each with the stamp of the item it is pushing.
    producers_waiting: VecDeque<(TaskId, Option<SimTime>)>,
    consumers_waiting: VecDeque<TaskId>,
}

impl Channel {
    /// Creates an empty channel holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a channel needs capacity of at least one");
        Channel {
            capacity,
            items: VecDeque::new(),
            producers_waiting: VecDeque::new(),
            consumers_waiting: VecDeque::new(),
        }
    }

    /// `who` pushes one item carrying `stamp`: it is queued, handed to a
    /// waiting consumer (the caller passes it on), or held beside `who`
    /// while the channel is full.
    pub fn push(&mut self, who: TaskId, stamp: Option<SimTime>) -> PushOutcome {
        if self.items.len() < self.capacity {
            PushOutcome::Pushed {
                wake_consumer: self.deliver(stamp),
            }
        } else {
            self.producers_waiting.push_back((who, stamp));
            PushOutcome::MustWait
        }
    }

    /// `who` pops one item and gets its stamp.
    pub fn pop(&mut self, who: TaskId) -> PopOutcome {
        let Some(stamp) = self.items.pop_front() else {
            self.consumers_waiting.push_back(who);
            return PopOutcome::MustWait;
        };
        // A waiting producer's push completes immediately: its held item
        // enters the tail.
        let wake_producer = self.producers_waiting.pop_front().map(|(producer, held)| {
            self.items.push_back(held);
            producer
        });
        PopOutcome::Popped {
            stamp,
            wake_producer,
        }
    }

    /// Non-blocking push of a request arriving at `at` by an external
    /// producer (the open-loop request generator, which is not a task and
    /// can never wait).
    pub fn offer(&mut self, at: SimTime) -> OfferOutcome {
        if self.items.len() < self.capacity {
            OfferOutcome::Accepted {
                wake_consumer: self.deliver(Some(at)),
            }
        } else {
            OfferOutcome::Full
        }
    }

    /// Completes the first waiting consumer's pop with `stamp` and returns
    /// that consumer, or queues `stamp` when none waits. The caller has
    /// checked for room.
    fn deliver(&mut self, stamp: Option<SimTime>) -> Option<TaskId> {
        let consumer = self.consumers_waiting.pop_front();
        if consumer.is_none() {
            self.items.push_back(stamp);
        }
        consumer
    }

    /// Requests the channel holds: `Some` stamps queued or held for a
    /// blocked producer.
    pub(crate) fn held_requests(&self) -> usize {
        let queued = self.items.iter().flatten().count();
        let held = self.producers_waiting.iter().flat_map(|(_, s)| s).count();
        queued + held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TaskId {
        TaskId(i)
    }

    fn at(us: u64) -> Option<SimTime> {
        Some(SimTime::from_micros(us))
    }

    fn popped(stamp: Option<SimTime>, wake_producer: Option<TaskId>) -> PopOutcome {
        PopOutcome::Popped {
            stamp,
            wake_producer,
        }
    }

    #[test]
    fn offer_enqueues_or_hands_off() {
        let mut c = Channel::new(1);
        let now = SimTime::from_micros(7);
        assert_eq!(
            c.offer(now),
            OfferOutcome::Accepted {
                wake_consumer: None
            }
        );
        assert_eq!(c.offer(now), OfferOutcome::Full);
        assert_eq!(c.pop(t(1)), popped(Some(now), None));
        // A waiting consumer receives the offered item directly.
        let mut c2 = Channel::new(1);
        assert_eq!(c2.pop(t(5)), PopOutcome::MustWait);
        assert_eq!(
            c2.offer(now),
            OfferOutcome::Accepted {
                wake_consumer: Some(t(5))
            }
        );
        assert_eq!(c2.pop(t(6)), PopOutcome::MustWait, "the item never queued");
    }

    #[test]
    fn push_pop_round_trip() {
        let mut c = Channel::new(2);
        assert_eq!(
            c.push(t(0), None),
            PushOutcome::Pushed {
                wake_consumer: None
            }
        );
        assert_eq!(c.pop(t(1)), popped(None, None));
        assert_eq!(c.pop(t(1)), PopOutcome::MustWait);
    }

    #[test]
    fn pop_returns_the_stamp_it_dequeues() {
        let mut c = Channel::new(3);
        for stamp in [at(5), None, at(9)] {
            c.push(t(0), stamp);
        }
        for stamp in [at(5), None, at(9)] {
            assert_eq!(c.pop(t(1)), popped(stamp, None));
        }
    }

    #[test]
    fn pop_on_empty_waits_and_push_wakes() {
        let mut c = Channel::new(1);
        assert_eq!(c.pop(t(1)), PopOutcome::MustWait);
        // The consumer's pop completes inside the push: nothing queues.
        assert_eq!(
            c.push(t(0), at(3)),
            PushOutcome::Pushed {
                wake_consumer: Some(t(1))
            }
        );
        assert_eq!(c.pop(t(2)), PopOutcome::MustWait);
    }

    #[test]
    fn push_on_full_waits_and_pop_wakes() {
        let mut c = Channel::new(1);
        c.push(t(0), None);
        assert_eq!(c.push(t(0), None), PushOutcome::MustWait);
        // The producer's push completes inside the pop: one item queues.
        assert_eq!(c.pop(t(1)), popped(None, Some(t(0))));
        assert_eq!(c.pop(t(1)), popped(None, None));
        assert_eq!(c.pop(t(1)), PopOutcome::MustWait);
    }

    #[test]
    fn a_blocked_producers_stamp_comes_out_after_the_queued_one() {
        let mut c = Channel::new(1);
        c.push(t(0), at(1));
        assert_eq!(c.push(t(2), at(2)), PushOutcome::MustWait);
        assert_eq!(c.pop(t(1)), popped(at(1), Some(t(2))));
        assert_eq!(c.pop(t(1)), popped(at(2), None));
    }

    #[test]
    fn held_requests_count_a_blocked_producers_stamp() {
        let mut c = Channel::new(2);
        c.push(t(0), at(1));
        c.push(t(0), None);
        assert_eq!(c.held_requests(), 1, "plain items are not requests");
        c.push(t(2), at(2));
        c.push(t(3), None);
        assert_eq!(c.held_requests(), 2, "one queued, one held for a producer");
    }
}
