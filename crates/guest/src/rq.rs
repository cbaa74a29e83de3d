//! Per-vCPU CFS runqueue.
//!
//! A faithful-in-the-essentials model of `cfs_rq`: ready tasks ordered by
//! `vruntime` in a balanced tree, a `min_vruntime` watermark that newly
//! placed tasks are normalized against, and the pick/preempt rules that give
//! the ~6 ms effective slices the paper contrasts with Xen's 30 ms.

use crate::config::SCHED_LATENCY;
use crate::task::TaskId;
use std::collections::BTreeSet;

/// A per-vCPU run queue.
///
/// The runqueue stores only *ready* tasks; the running task is held in
/// [`Runqueue::current`]. `nr_queued + current` is the load the balancers
/// reason about.
#[derive(Debug, Clone, Default)]
pub struct Runqueue {
    /// Ready tasks ordered by `(vruntime, id)`.
    tree: BTreeSet<(u64, TaskId)>,
    /// The task currently executing on this vCPU (from the guest's point of
    /// view — the vCPU itself may be preempted by the hypervisor).
    pub current: Option<TaskId>,
    /// Monotonic floor used to normalize migrated/woken tasks' vruntime.
    pub min_vruntime: u64,
}

impl Runqueue {
    /// Creates an empty runqueue.
    pub fn new() -> Self {
        Runqueue::default()
    }

    /// Inserts a ready task keyed by its vruntime.
    pub fn enqueue(&mut self, vruntime: u64, id: TaskId) {
        let inserted = self.tree.insert((vruntime, id));
        debug_assert!(inserted, "{id} enqueued twice");
    }

    /// Removes a ready task; `vruntime` must be the key it was queued under.
    ///
    /// Returns whether it was present.
    pub fn dequeue(&mut self, vruntime: u64, id: TaskId) -> bool {
        self.tree.remove(&(vruntime, id))
    }

    /// The queued task with the smallest vruntime, if any.
    #[inline]
    pub fn leftmost(&self) -> Option<(u64, TaskId)> {
        self.tree.first().copied()
    }

    /// Removes and returns the leftmost task, advancing `min_vruntime`.
    pub fn pick_next(&mut self) -> Option<(u64, TaskId)> {
        let first = self.tree.pop_first();
        if let Some((vr, _)) = first {
            self.min_vruntime = self.min_vruntime.max(vr);
        }
        first
    }

    /// Number of ready (queued, not running) tasks.
    #[inline]
    pub fn nr_queued(&self) -> usize {
        self.tree.len()
    }

    /// Tasks wanting CPU on this vCPU (queued + current).
    pub fn nr_running(&self) -> usize {
        self.tree.len() + usize::from(self.current.is_some())
    }

    /// True if nothing is running or queued: the guest-idle condition that
    /// makes the vCPU block in the hypervisor.
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.tree.is_empty()
    }

    /// Surplus a migrated task may carry into its new queue (one scheduling
    /// latency period). Re-basing preserves *relative* position, but an
    /// unbounded surplus glues itself to the task across hops: every
    /// balancer move would reset the destination's catch-up race and can
    /// starve the task outright. Real CFS bounds placement credit the same
    /// way (`place_entity` clamps to about one latency period).
    pub const MIGRATION_SURPLUS_CAP: u64 = SCHED_LATENCY.as_nanos();

    /// Re-bases a *migrated* task's vruntime from its source queue to this
    /// one, preserving its relative lag or surplus up to
    /// [`Runqueue::MIGRATION_SURPLUS_CAP`] (CFS subtracts the old
    /// `min_vruntime` on dequeue and adds the new one on enqueue).
    pub fn migration_vruntime(&self, incoming_vruntime: u64, src_min_vruntime: u64) -> u64 {
        let rel = incoming_vruntime
            .saturating_sub(src_min_vruntime)
            .min(Self::MIGRATION_SURPLUS_CAP);
        self.min_vruntime.saturating_add(rel)
    }

    /// Iterates over queued tasks in vruntime order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, TaskId)> + '_ {
        self.tree.iter().copied()
    }

    /// Raises the watermark to at least `vruntime` (called as the running
    /// task accrues vruntime, so sleepers re-enter at a fair point).
    #[inline]
    pub fn update_min_vruntime(&mut self, vruntime: u64) {
        // min_vruntime may not exceed the leftmost queued key, or a queued
        // task would be re-placed unfairly far ahead.
        let cap = self.leftmost().map(|(vr, _)| vr).unwrap_or(u64::MAX);
        self.min_vruntime = self.min_vruntime.max(vruntime.min(cap));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_next_returns_smallest_vruntime() {
        let mut rq = Runqueue::new();
        rq.enqueue(300, TaskId(0));
        rq.enqueue(100, TaskId(1));
        rq.enqueue(200, TaskId(2));
        assert_eq!(rq.pick_next(), Some((100, TaskId(1))));
        assert_eq!(rq.pick_next(), Some((200, TaskId(2))));
        assert_eq!(rq.pick_next(), Some((300, TaskId(0))));
        assert_eq!(rq.pick_next(), None);
    }

    #[test]
    fn equal_vruntime_breaks_ties_by_id() {
        let mut rq = Runqueue::new();
        rq.enqueue(100, TaskId(5));
        rq.enqueue(100, TaskId(2));
        assert_eq!(rq.pick_next(), Some((100, TaskId(2))));
    }

    #[test]
    fn pick_advances_min_vruntime() {
        let mut rq = Runqueue::new();
        rq.enqueue(500, TaskId(0));
        rq.pick_next();
        assert_eq!(rq.min_vruntime, 500);
    }

    #[test]
    fn nr_running_counts_current() {
        let mut rq = Runqueue::new();
        assert!(rq.is_idle());
        rq.current = Some(TaskId(0));
        assert_eq!(rq.nr_running(), 1);
        rq.enqueue(1, TaskId(1));
        assert_eq!(rq.nr_running(), 2);
        assert_eq!(rq.nr_queued(), 1);
        assert!(!rq.is_idle());
    }

    #[test]
    fn dequeue_requires_matching_key() {
        let mut rq = Runqueue::new();
        rq.enqueue(100, TaskId(0));
        assert!(!rq.dequeue(99, TaskId(0)));
        assert!(rq.dequeue(100, TaskId(0)));
        assert_eq!(rq.nr_queued(), 0);
    }

    #[test]
    fn update_min_vruntime_capped_by_leftmost() {
        let mut rq = Runqueue::new();
        rq.enqueue(100, TaskId(0));
        rq.update_min_vruntime(500);
        assert_eq!(rq.min_vruntime, 100, "capped by the queued task");
        rq.dequeue(100, TaskId(0));
        rq.update_min_vruntime(500);
        assert_eq!(rq.min_vruntime, 500);
    }

    #[test]
    fn iter_is_vruntime_ordered() {
        let mut rq = Runqueue::new();
        rq.enqueue(3, TaskId(0));
        rq.enqueue(1, TaskId(1));
        rq.enqueue(2, TaskId(2));
        let order: Vec<TaskId> = rq.iter().map(|(_, id)| id).collect();
        assert_eq!(order, vec![TaskId(1), TaskId(2), TaskId(0)]);
    }
}

#[cfg(test)]
mod migration_tests {
    use super::*;

    #[test]
    fn migration_preserves_relative_lag() {
        let mut src = Runqueue::new();
        let mut dst = Runqueue::new();
        src.min_vruntime = 1_000;
        dst.min_vruntime = 5_000;
        // A task 300 behind its source watermark... (vr can't be below the
        // watermark while queued; model a task 300 *ahead*.)
        assert_eq!(dst.migration_vruntime(1_300, src.min_vruntime), 5_300);
        // A task exactly at the watermark lands exactly at the new one.
        assert_eq!(dst.migration_vruntime(1_000, src.min_vruntime), 5_000);
        let _ = &mut src;
    }

    #[test]
    fn migration_surplus_is_capped() {
        let mut dst = Runqueue::new();
        dst.min_vruntime = 1_000;
        // A task 16 ms ahead of its source clock carries at most one
        // latency period into the new queue.
        let placed = dst.migration_vruntime(16_000_000, 0);
        assert_eq!(placed, 1_000 + Runqueue::MIGRATION_SURPLUS_CAP);
    }

    #[test]
    fn migration_to_a_behind_queue_does_not_inflate() {
        let mut dst = Runqueue::new();
        dst.min_vruntime = 10;
        // Migration re-bases downward too, not only up to the watermark:
        // the migrated task competes fairly on the new queue.
        assert_eq!(dst.migration_vruntime(5_000, 4_990), 20);
    }
}
