//! Bounded channels for pipeline-parallel workloads (dedup, ferret, x264).
//!
//! Items are modelled as counts — the simulation cares about *when* stages
//! block on full/empty queues, not what flows through them. Waiters always
//! block (pthread condvar semantics).

use irs_guest::TaskId;
use std::collections::VecDeque;

/// Outcome of a push attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Item enqueued. If a consumer was waiting for an item, wake it —
    /// its pending pop has been completed on its behalf.
    Pushed {
        /// Consumer to wake, if one was blocked on empty.
        wake_consumer: Option<TaskId>,
    },
    /// Channel full: the producer must block until space frees up.
    MustWait,
}

/// Outcome of a pop attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopOutcome {
    /// Item dequeued. If a producer was waiting for space, wake it — its
    /// pending push has been completed on its behalf.
    Popped {
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

/// A bounded single-queue channel.
#[derive(Debug, Clone)]
pub struct Channel {
    capacity: usize,
    len: usize,
    producers_waiting: VecDeque<TaskId>,
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
            len: 0,
            producers_waiting: VecDeque::new(),
            consumers_waiting: VecDeque::new(),
        }
    }

    /// `who` pushes one item.
    pub fn push(&mut self, who: TaskId) -> PushOutcome {
        if self.len < self.capacity {
            self.len += 1;
            // A waiting consumer's pop completes immediately.
            if let Some(consumer) = self.consumers_waiting.pop_front() {
                self.len -= 1;
                PushOutcome::Pushed {
                    wake_consumer: Some(consumer),
                }
            } else {
                PushOutcome::Pushed {
                    wake_consumer: None,
                }
            }
        } else {
            self.producers_waiting.push_back(who);
            PushOutcome::MustWait
        }
    }

    /// `who` pops one item.
    pub fn pop(&mut self, who: TaskId) -> PopOutcome {
        if self.len > 0 {
            self.len -= 1;
            // A waiting producer's push completes immediately.
            if let Some(producer) = self.producers_waiting.pop_front() {
                self.len += 1;
                PopOutcome::Popped {
                    wake_producer: Some(producer),
                }
            } else {
                PopOutcome::Popped {
                    wake_producer: None,
                }
            }
        } else {
            self.consumers_waiting.push_back(who);
            PopOutcome::MustWait
        }
    }

    /// Non-blocking push by an external producer (the open-loop request
    /// generator, which is not a task and can never wait).
    pub fn offer(&mut self) -> OfferOutcome {
        if self.len < self.capacity {
            self.len += 1;
            if let Some(consumer) = self.consumers_waiting.pop_front() {
                self.len -= 1;
                OfferOutcome::Accepted {
                    wake_consumer: Some(consumer),
                }
            } else {
                OfferOutcome::Accepted {
                    wake_consumer: None,
                }
            }
        } else {
            OfferOutcome::Full
        }
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn offer_enqueues_or_hands_off() {
        let mut c = Channel::new(1);
        assert_eq!(c.offer(), OfferOutcome::Accepted { wake_consumer: None });
        assert_eq!(c.len(), 1);
        assert_eq!(c.offer(), OfferOutcome::Full);
        // A waiting consumer receives the offered item directly.
        let mut c2 = Channel::new(1);
        assert_eq!(c2.pop(t(5)), PopOutcome::MustWait);
        assert_eq!(
            c2.offer(),
            OfferOutcome::Accepted { wake_consumer: Some(t(5)) }
        );
        assert!(c2.is_empty());
    }

    #[test]
    fn push_pop_round_trip() {
        let mut c = Channel::new(2);
        assert_eq!(c.push(t(0)), PushOutcome::Pushed { wake_consumer: None });
        assert_eq!(c.len(), 1);
        assert_eq!(c.pop(t(1)), PopOutcome::Popped { wake_producer: None });
        assert!(c.is_empty());
    }

    #[test]
    fn pop_on_empty_waits_and_push_wakes() {
        let mut c = Channel::new(1);
        assert_eq!(c.pop(t(1)), PopOutcome::MustWait);
        // The consumer's pop completes inside the push: len stays 0.
        assert_eq!(
            c.push(t(0)),
            PushOutcome::Pushed {
                wake_consumer: Some(t(1))
            }
        );
        assert!(c.is_empty());
    }

    #[test]
    fn push_on_full_waits_and_pop_wakes() {
        let mut c = Channel::new(1);
        c.push(t(0));
        assert_eq!(c.push(t(0)), PushOutcome::MustWait);
        // The producer's push completes inside the pop: len stays 1.
        assert_eq!(
            c.pop(t(1)),
            PopOutcome::Popped {
                wake_producer: Some(t(0))
            }
        );
        assert_eq!(c.len(), 1);
    }
}
