//! Property tests: every wait an irs-sync primitive begins is completed by
//! exactly one later grant.
//!
//! The embedding simulation completes every wait through one `grant` that
//! reads only the waiter's own state, so it relies on this contract: a
//! `MustWait` carries the primitive's mode, and each grant — a lock's
//! `next_holder`, a barrier's or an epoch's `Released` list, the tasks an
//! epoch departure releases, a channel's `wake_producer` or
//! `wake_consumer` — names only tasks waiting there, once each. Random
//! operations over 4–6 tasks drive two locks (one per mode), a barrier, an
//! epoch (which a task may leave for good) and a channel against a model
//! of who waits; a drain then grants every wait still pending.

use irs_guest::TaskId;
use irs_sim::SimTime;
use irs_sync::{
    AcquireOutcome, BarrierId, BarrierOutcome, ChannelId, EpochId, EpochPoll, LockId, OfferOutcome,
    PopOutcome, PushOutcome, SyncSpace, WaitMode,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The primitive a task waits at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum At {
    Lock(usize),
    Barrier,
    Epoch,
    Push,
    Pop,
}

/// What a task of the model is doing. A lock holder's only next step is
/// its release, so holders never wait and every lock can be drained. A
/// task that left the epoch never acts again, as an exited thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Free,
    Holds(usize),
    Waits(At),
    Left,
}

/// Tasks past the workload's that act only in the drain, so that a
/// barrier or epoch with waiters always finds enough arrivals to open.
const HELPERS: usize = 6;

/// The wait modes of the two locks.
const LOCK_MODES: [WaitMode; 2] = [WaitMode::Block, WaitMode::Spin];

struct World {
    space: SyncSpace,
    locks: [LockId; 2],
    barrier: BarrierId,
    epoch: EpochId,
    chan: ChannelId,
    barrier_mode: WaitMode,
    epoch_mode: WaitMode,
    parties: usize,
    participants: usize,
    period_ns: u64,
    capacity: usize,
    now_ns: u64,
    state: Vec<State>,
    /// Waits begun and grants received, per task.
    waits: Vec<u32>,
    grants: Vec<u32>,
    holder: [Option<usize>; 2],
    lock_queue: [VecDeque<usize>; 2],
    barrier_waiting: Vec<usize>,
    epoch_waiting: Vec<usize>,
    deadline_ns: u64,
    items: VecDeque<Option<SimTime>>,
    producers: VecDeque<(usize, Option<SimTime>)>,
    consumers: VecDeque<usize>,
    /// Request stamps are handed out increasing, so a consumer must see
    /// each one later than the last.
    next_stamp: u64,
    last_delivered: Option<SimTime>,
}

impl World {
    fn new(
        tasks: usize,
        parties: usize,
        participants: usize,
        period_ns: u64,
        capacity: usize,
        spin: (bool, bool),
    ) -> Self {
        let mode = |spin: bool| {
            if spin {
                WaitMode::Spin
            } else {
                WaitMode::Block
            }
        };
        let (barrier_mode, epoch_mode) = (mode(spin.0), mode(spin.1));
        let mut space = SyncSpace::new();
        let locks = LOCK_MODES.map(|m| space.new_lock(m));
        let barrier = space.new_barrier(parties, barrier_mode);
        let epoch = space.new_epoch(period_ns, participants, epoch_mode);
        let chan = space.new_channel(capacity);
        let all = tasks + HELPERS;
        World {
            space,
            locks,
            barrier,
            epoch,
            chan,
            barrier_mode,
            epoch_mode,
            parties,
            participants,
            period_ns,
            capacity,
            now_ns: 0,
            state: vec![State::Free; all],
            waits: vec![0; all],
            grants: vec![0; all],
            holder: [None; 2],
            lock_queue: [VecDeque::new(), VecDeque::new()],
            barrier_waiting: Vec::new(),
            epoch_waiting: Vec::new(),
            deadline_ns: period_ns,
            items: VecDeque::new(),
            producers: VecDeque::new(),
            consumers: VecDeque::new(),
            next_stamp: 0,
            last_delivered: None,
        }
    }

    /// `t` begins a wait at `at`.
    fn wait(&mut self, t: usize, at: At) {
        self.state[t] = State::Waits(at);
        self.waits[t] += 1;
    }

    /// A grant names `t` as done waiting at `at`.
    fn grant(&mut self, t: usize, at: At) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            self.state[t],
            State::Waits(at),
            "a grant named task{} at {:?}",
            t,
            at
        );
        self.grants[t] += 1;
        self.state[t] = match at {
            At::Lock(l) => State::Holds(l),
            _ => State::Free,
        };
        Ok(())
    }

    fn acquire(&mut self, t: usize, l: usize) -> Result<(), TestCaseError> {
        match self.space.lock(self.locks[l]).acquire(TaskId(t)) {
            AcquireOutcome::Acquired => {
                prop_assert_eq!(self.holder[l], None);
                self.holder[l] = Some(t);
                self.state[t] = State::Holds(l);
            }
            AcquireOutcome::MustWait(mode) => {
                prop_assert_eq!(mode, LOCK_MODES[l]);
                prop_assert!(self.holder[l].is_some(), "waiting on a free lock");
                self.lock_queue[l].push_back(t);
                self.wait(t, At::Lock(l));
            }
        }
        Ok(())
    }

    fn release(&mut self, t: usize, l: usize) -> Result<(), TestCaseError> {
        let next = self
            .space
            .lock(self.locks[l])
            .release(TaskId(t))
            .next_holder;
        let expected = self.lock_queue[l].pop_front();
        prop_assert_eq!(next, expected.map(TaskId), "the hand-off is not FIFO");
        self.holder[l] = expected;
        self.state[t] = State::Free;
        match expected {
            Some(n) => self.grant(n, At::Lock(l)),
            None => Ok(()),
        }
    }

    fn arrive(&mut self, t: usize) -> Result<(), TestCaseError> {
        let last = self.barrier_waiting.len() + 1 == self.parties;
        match self.space.barrier(self.barrier).arrive(TaskId(t)) {
            BarrierOutcome::MustWait(mode) => {
                prop_assert!(!last, "the last arriver waits");
                prop_assert_eq!(mode, self.barrier_mode);
                self.barrier_waiting.push(t);
                self.wait(t, At::Barrier);
            }
            BarrierOutcome::Released { waiters } => {
                prop_assert!(last, "the barrier opened early");
                let expected = std::mem::take(&mut self.barrier_waiting);
                prop_assert_eq!(&waiters, &ids(&expected));
                for w in expected {
                    self.grant(w, At::Barrier)?;
                }
            }
        }
        Ok(())
    }

    fn poll(&mut self, t: usize) -> Result<(), TestCaseError> {
        let pending = self.now_ns >= self.deadline_ns;
        let last = self.epoch_waiting.len() + 1 == self.participants;
        match self.space.epoch(self.epoch).poll(TaskId(t), self.now_ns) {
            EpochPoll::Pass => prop_assert!(!pending, "a poll passed a pending safepoint"),
            EpochPoll::MustWait(mode) => {
                prop_assert!(pending && !last, "a poll parked with no rendezvous due");
                prop_assert_eq!(mode, self.epoch_mode);
                self.epoch_waiting.push(t);
                self.wait(t, At::Epoch);
            }
            EpochPoll::Released { waiters } => {
                prop_assert!(pending && last, "the epoch released early");
                self.deadline_ns = (self.now_ns / self.period_ns + 1) * self.period_ns;
                let expected = std::mem::take(&mut self.epoch_waiting);
                prop_assert_eq!(&waiters, &ids(&expected));
                for w in expected {
                    self.grant(w, At::Epoch)?;
                }
            }
        }
        Ok(())
    }

    /// `t` leaves the epoch for good. The model keeps one participant, so
    /// the drain can still open the epoch.
    fn leave(&mut self, t: usize) -> Result<(), TestCaseError> {
        if self.participants == 1 {
            return Ok(());
        }
        let pending = self.now_ns >= self.deadline_ns;
        self.participants -= 1;
        self.state[t] = State::Left;
        let released = self.space.epoch(self.epoch).leave(TaskId(t), self.now_ns);
        if pending
            && !self.epoch_waiting.is_empty()
            && self.epoch_waiting.len() == self.participants
        {
            self.deadline_ns = (self.now_ns / self.period_ns + 1) * self.period_ns;
            let expected = std::mem::take(&mut self.epoch_waiting);
            prop_assert_eq!(&released, &ids(&expected));
            for w in expected {
                self.grant(w, At::Epoch)?;
            }
        } else {
            prop_assert!(released.is_empty(), "a departure released the epoch early");
        }
        Ok(())
    }

    fn stamp(&mut self) -> SimTime {
        self.next_stamp += 1;
        SimTime::from_nanos(self.next_stamp)
    }

    /// An item carrying `stamp` enters the channel: a waiting consumer
    /// takes it, or it queues.
    fn enqueue(
        &mut self,
        stamp: Option<SimTime>,
        woken: Option<TaskId>,
    ) -> Result<(), TestCaseError> {
        let expected = self.consumers.pop_front();
        prop_assert_eq!(woken, expected.map(TaskId), "the wrong consumer was woken");
        match expected {
            Some(c) => {
                self.deliver(stamp)?;
                self.grant(c, At::Pop)
            }
            None => {
                self.items.push_back(stamp);
                Ok(())
            }
        }
    }

    fn push(&mut self, t: usize, request: bool) -> Result<(), TestCaseError> {
        let stamp = request.then(|| self.stamp());
        let room = self.items.len() < self.capacity;
        match self.space.channel(self.chan).push(TaskId(t), stamp) {
            PushOutcome::Pushed { wake_consumer } => {
                prop_assert!(room, "a push into a full channel went through");
                self.enqueue(stamp, wake_consumer)?;
            }
            PushOutcome::MustWait => {
                prop_assert!(!room, "a push waited with room to spare");
                self.producers.push_back((t, stamp));
                self.wait(t, At::Push);
            }
        }
        Ok(())
    }

    fn offer(&mut self) -> Result<(), TestCaseError> {
        let at = self.stamp();
        let room = self.items.len() < self.capacity;
        match self.space.channel(self.chan).offer(at) {
            OfferOutcome::Accepted { wake_consumer } => {
                prop_assert!(room, "an offer into a full channel was accepted");
                self.enqueue(Some(at), wake_consumer)?;
            }
            OfferOutcome::Full => prop_assert!(!room, "an offer was dropped with room to spare"),
        }
        Ok(())
    }

    fn pop(&mut self, t: usize) -> Result<(), TestCaseError> {
        match self.space.channel(self.chan).pop(TaskId(t)) {
            PopOutcome::Popped {
                stamp,
                wake_producer,
            } => {
                prop_assert_eq!(
                    Some(stamp),
                    self.items.pop_front(),
                    "popped out of queue order"
                );
                self.deliver(stamp)?;
                let producer = self.producers.pop_front();
                prop_assert_eq!(wake_producer, producer.map(|(p, _)| TaskId(p)));
                if let Some((p, held)) = producer {
                    self.items.push_back(held);
                    self.grant(p, At::Push)?;
                }
            }
            PopOutcome::MustWait => {
                prop_assert!(self.items.is_empty(), "a pop waited on a non-empty channel");
                self.consumers.push_back(t);
                self.wait(t, At::Pop);
            }
        }
        Ok(())
    }

    /// A consumer takes `stamp`: request stamps come out in push order.
    fn deliver(&mut self, stamp: Option<SimTime>) -> Result<(), TestCaseError> {
        if stamp.is_some() {
            prop_assert!(
                self.last_delivered < stamp,
                "a request stamp came out of push order"
            );
            self.last_delivered = stamp;
        }
        Ok(())
    }

    /// Request stamps the model's channel holds, queued or held beside a
    /// blocked producer.
    fn held_requests(&self) -> usize {
        let queued = self.items.iter().flatten().count();
        queued + self.producers.iter().filter(|(_, s)| s.is_some()).count()
    }

    /// One operation by task `t`. A waiting or departed task cannot act,
    /// and a lock holder's only step is its release.
    fn op(&mut self, t: usize, kind: u8, flag: bool) -> Result<(), TestCaseError> {
        self.now_ns += 1_000;
        match (kind, self.state[t]) {
            (5, _) => self.offer(),
            (6, _) => {
                self.now_ns += 20_000;
                Ok(())
            }
            (_, State::Waits(_) | State::Left) => Ok(()),
            (_, State::Holds(l)) => self.release(t, l),
            (0, State::Free) => self.acquire(t, usize::from(flag)),
            (1, State::Free) => self.arrive(t),
            (2, State::Free) => self.poll(t),
            (3, State::Free) => self.push(t, flag),
            (7, State::Free) => self.leave(t),
            (_, State::Free) => self.pop(t),
        }
    }

    /// Grants every pending wait: holders release until the locks are
    /// free, offers feed waiting consumers, and helpers pop for waiting
    /// producers and arrive until the barrier and the epoch open.
    fn drain(&mut self, tasks: usize) -> Result<(), TestCaseError> {
        for l in 0..2 {
            while let Some(h) = self.holder[l] {
                self.release(h, l)?;
            }
        }
        while !self.consumers.is_empty() {
            self.offer()?;
        }
        while !self.producers.is_empty() {
            self.pop(tasks)?;
        }
        let mut helper = tasks;
        while !self.barrier_waiting.is_empty() {
            self.arrive(helper)?;
            helper += 1;
        }
        let mut helper = tasks;
        while !self.epoch_waiting.is_empty() {
            self.poll(helper)?;
            helper += 1;
        }
        Ok(())
    }
}

fn ids(tasks: &[usize]) -> Vec<TaskId> {
    tasks.iter().copied().map(TaskId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Each `MustWait` is named by exactly one later grant, no grant names
    /// a task that is not waiting there, locks hand off FIFO, request
    /// stamps come out in push order, and `held_requests` follows the
    /// model after every operation.
    #[test]
    fn every_wait_is_granted_exactly_once(
        shape in (4usize..7, 0usize..6, 0usize..6, 1usize..4),
        timing in (5u64..60, any::<bool>(), any::<bool>()),
        ops in prop::collection::vec((0usize..6, 0u8..8, any::<bool>()), 1..300),
    ) {
        let (tasks, parties, participants, capacity) = shape;
        let (period_us, barrier_spins, epoch_spins) = timing;
        // Each gang spans 2..=tasks of the workload's tasks.
        let parties = 2 + parties % (tasks - 1);
        let participants = 2 + participants % (tasks - 1);
        let mut w = World::new(
            tasks,
            parties,
            participants,
            period_us * 1_000,
            capacity,
            (barrier_spins, epoch_spins),
        );
        for (who, kind, flag) in ops {
            w.op(who % tasks, kind, flag)?;
            prop_assert_eq!(w.space.held_requests(), w.held_requests());
        }
        w.drain(tasks)?;
        prop_assert_eq!(w.space.held_requests(), w.held_requests());
        let pending: Vec<_> = w
            .state
            .iter()
            .filter(|s| matches!(s, State::Holds(_) | State::Waits(_)))
            .collect();
        prop_assert!(pending.is_empty(), "waits never granted: {:?}", pending);
        prop_assert_eq!(&w.grants, &w.waits, "grants per task differ from waits begun");
    }
}
