//! Workload bundles: the unit a scenario assigns to a VM.

use crate::program::{Op, Program};
use irs_sync::{ArrivalId, ChannelId, SyncSpace};
use std::fmt::Display;

/// What kind of workload a bundle is — determines the completion criterion
/// and which metrics are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Parallel program: done when every thread's program completes; the
    /// metric is the makespan.
    Parallel,
    /// Server: runs until the measurement horizon; the metrics are request
    /// throughput and latency.
    Server,
    /// Interference: runs forever; only its CPU consumption matters.
    Interference,
}

/// Open-loop request arrivals for a server bundle (the `ab` model): the
/// instants of an arrival process of the bundle's [`SyncSpace`], each
/// offered to a channel that worker threads pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoop {
    /// Channel the generator offers into and the workers pop from.
    pub channel: ChannelId,
    /// Arrival process whose instants the requests arrive at.
    pub arrival: ArrivalId,
}

/// A named workload: one program per thread, the synchronization objects
/// they share, and the modelling knobs the embedder needs.
#[derive(Debug)]
pub struct WorkloadBundle {
    /// Human-readable benchmark name (e.g. `"streamcluster"`).
    pub name: String,
    /// One program per thread; thread `i` starts on vCPU `i % n_vcpus`.
    pub threads: Vec<Program>,
    /// Shared synchronization objects.
    pub space: SyncSpace,
    /// Completion/metric semantics.
    pub kind: WorkloadKind,
    /// Memory intensity in `[0, 1]`: scales the cache warm-up penalty a
    /// task pays after a cross-vCPU migration. Calibrated per benchmark —
    /// the mechanism behind the paper's observation that frequent migration
    /// "violates cache locality ... especially for memory-intensive
    /// workloads" (§5.2).
    pub memory_intensity: f64,
    /// Open-loop arrival process, for `ab`-style servers.
    pub open_loop: Option<OpenLoop>,
}

impl WorkloadBundle {
    /// Creates a parallel bundle.
    pub fn parallel(
        name: impl Into<String>,
        threads: Vec<Program>,
        space: SyncSpace,
        memory_intensity: f64,
    ) -> Self {
        WorkloadBundle {
            name: name.into(),
            threads,
            space,
            kind: WorkloadKind::Parallel,
            memory_intensity: memory_intensity.clamp(0.0, 1.0),
            open_loop: None,
        }
    }

    /// Creates a server bundle.
    pub fn server(
        name: impl Into<String>,
        threads: Vec<Program>,
        space: SyncSpace,
        memory_intensity: f64,
        open_loop: Option<OpenLoop>,
    ) -> Self {
        WorkloadBundle {
            name: name.into(),
            threads,
            space,
            kind: WorkloadKind::Server,
            memory_intensity: memory_intensity.clamp(0.0, 1.0),
            open_loop,
        }
    }

    /// Creates an interference bundle (runs forever).
    pub fn interference(
        name: impl Into<String>,
        threads: Vec<Program>,
        space: SyncSpace,
        memory_intensity: f64,
    ) -> Self {
        WorkloadBundle {
            name: name.into(),
            threads,
            space,
            kind: WorkloadKind::Interference,
            memory_intensity: memory_intensity.clamp(0.0, 1.0),
            open_loop: None,
        }
    }

    /// Converts a parallel bundle into an interference bundle by wrapping
    /// every thread in an infinite loop — the background-VM treatment of
    /// §5.4 (real applications as interference, repeated indefinitely).
    ///
    /// # Panics
    ///
    /// Panics if the bundle uses a work pool (pools exhaust and cannot
    /// repeat) — none of the paper's background workloads do.
    pub fn into_background(mut self) -> Self {
        assert!(
            self.kind == WorkloadKind::Parallel,
            "only parallel bundles can become background interference"
        );
        self.threads = self
            .threads
            .drain(..)
            .map(|p| p.repeat_forever())
            .collect();
        self.kind = WorkloadKind::Interference;
        self.name = format!("{}(bg)", self.name);
        self
    }

    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// The first id that a thread program or the open-loop source names
    /// but [`space`](Self::space) never allocated (`"lock3"`), if any.
    pub fn unallocated_id(&self) -> Option<String> {
        let s = &self.space;
        let missing = |allocated: bool, id: &dyn Display| (!allocated).then(|| id.to_string());
        let in_ops = self
            .threads
            .iter()
            .flat_map(Program::ops)
            .filter_map(|op| match op {
                Op::Lock(l) | Op::Unlock(l) => missing(l.0 < s.n_locks(), l),
                Op::Barrier(b) => missing(b.0 < s.n_barriers(), b),
                Op::Push(c) | Op::Pop(c) => missing(c.0 < s.n_channels(), c),
                Op::StealOrExit(p) => missing(p.0 < s.n_pools(), p),
                Op::SafepointPoll(e) => missing(e.0 < s.n_epochs(), e),
                Op::AwaitArrival(a) => missing(a.0 < s.n_arrivals(), a),
                _ => None,
            });
        let in_source = self.open_loop.iter().flat_map(|ol| {
            [
                missing(ol.channel.0 < s.n_channels(), &ol.channel),
                missing(ol.arrival.0 < s.n_arrivals(), &ol.arrival),
            ]
        });
        in_ops.chain(in_source.flatten()).next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn parallel_bundle_basics() {
        let p = ProgramBuilder::new().compute_us(1, 0.0).build();
        let b = WorkloadBundle::parallel("x", vec![p.clone(), p], SyncSpace::new(), 0.5);
        assert_eq!(b.kind, WorkloadKind::Parallel);
        assert_eq!(b.n_threads(), 2);
        assert!((b.memory_intensity - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memory_intensity_is_clamped() {
        let p = ProgramBuilder::new().compute_us(1, 0.0).build();
        let b = WorkloadBundle::parallel("x", vec![p], SyncSpace::new(), 7.0);
        assert_eq!(b.memory_intensity, 1.0);
    }

    #[test]
    fn unallocated_ids_are_named() {
        let mut space = SyncSpace::new();
        let l = space.new_lock(irs_sync::WaitMode::Block);
        let ok = ProgramBuilder::new().lock(l).unlock(l).build();
        let b = WorkloadBundle::parallel("x", vec![ok.clone()], space.clone(), 0.0);
        assert_eq!(b.unallocated_id(), None);
        let stray = ProgramBuilder::new()
            .barrier(irs_sync::BarrierId(0))
            .build();
        let b = WorkloadBundle::parallel("x", vec![ok, stray], space, 0.0);
        assert_eq!(b.unallocated_id().as_deref(), Some("barrier0"));
    }

    #[test]
    fn into_background_wraps_threads() {
        let p = ProgramBuilder::new().compute_us(1, 0.0).build();
        let before_len = p.len();
        let b = WorkloadBundle::parallel("ua", vec![p], SyncSpace::new(), 0.5).into_background();
        assert_eq!(b.kind, WorkloadKind::Interference);
        assert_eq!(b.name, "ua(bg)");
        assert_eq!(b.threads[0].len(), before_len + 2);
    }
}
