//! Workload bundles: the unit a scenario assigns to a VM.

use crate::program::{Op, Program};
use irs_sync::{ArrivalId, ChannelId, EpochId, SyncSpace};
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
    /// Human-readable workload name, as its preset spells it.
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
        self.threads = self.threads.drain(..).map(|p| p.repeat_forever()).collect();
        self.kind = WorkloadKind::Interference;
        self.name = format!("{}(bg)", self.name);
        self
    }

    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// The first problem that would fault the interpreter mid-run, in one
    /// walk over every op: an id that a thread program or the open-loop
    /// source names but [`space`](Self::space) never allocated
    /// (`"names unallocated lock3"`), or a gang epoch whose participant
    /// count differs from the number of threads polling it (`"gang epoch0
    /// unbalanced: …"`), so that a release never fires (too few pollers)
    /// or a generation tears (too many).
    pub fn check(&self) -> Result<(), String> {
        let s = &self.space;
        let unallocated = |id: &dyn Display| Err(format!("names unallocated {id}"));
        // Each thread counts once per epoch, however often it polls.
        let mut pollers = vec![0usize; s.n_epochs()];
        let mut last_poller = vec![usize::MAX; s.n_epochs()];
        for (t, program) in self.threads.iter().enumerate() {
            for op in program.ops() {
                let (allocated, id): (bool, &dyn Display) = match op {
                    Op::Lock(l) | Op::Unlock(l) => (l.0 < s.n_locks(), l),
                    Op::Barrier(b) => (b.0 < s.n_barriers(), b),
                    Op::Push(c) | Op::Pop(c) => (c.0 < s.n_channels(), c),
                    Op::StealOrExit(p) => (p.0 < s.n_pools(), p),
                    Op::SafepointPoll(e) => (e.0 < s.n_epochs(), e),
                    Op::AwaitArrival(a) => (a.0 < s.n_arrivals(), a),
                    _ => continue,
                };
                if !allocated {
                    return unallocated(id);
                }
                if let Op::SafepointPoll(e) = op {
                    if last_poller[e.0] != t {
                        last_poller[e.0] = t;
                        pollers[e.0] += 1;
                    }
                }
            }
        }
        if let Some(ol) = &self.open_loop {
            if ol.channel.0 >= s.n_channels() {
                return unallocated(&ol.channel);
            }
            if ol.arrival.0 >= s.n_arrivals() {
                return unallocated(&ol.arrival);
            }
        }
        for (i, &n) in pollers.iter().enumerate() {
            let want = s.epoch_ref(EpochId(i)).participants();
            if n != want {
                return Err(format!(
                    "gang epoch{i} unbalanced: {n} polling thread(s) for {want} participant(s)"
                ));
            }
        }
        Ok(())
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
        assert_eq!(b.check(), Ok(()));
        let stray = ProgramBuilder::new()
            .barrier(irs_sync::BarrierId(0))
            .build();
        let b = WorkloadBundle::parallel("x", vec![ok, stray], space, 0.0);
        assert_eq!(b.check(), Err("names unallocated barrier0".to_string()));
    }

    #[test]
    fn epoch_pollers_are_counted_once_per_thread() {
        let mut space = SyncSpace::new();
        let e = space.new_epoch(1_000_000, 2, irs_sync::WaitMode::Block);
        let twice = ProgramBuilder::new()
            .safepoint_poll(e)
            .safepoint_poll(e)
            .build();
        let b = WorkloadBundle::server("x", vec![twice.clone()], space.clone(), 0.0, None);
        assert_eq!(
            b.check(),
            Err("gang epoch0 unbalanced: 1 polling thread(s) for 2 participant(s)".to_string())
        );
        let b = WorkloadBundle::server("x", vec![twice.clone(), twice], space, 0.0, None);
        assert_eq!(b.check(), Ok(()));
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
