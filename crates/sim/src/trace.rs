//! Bounded in-memory trace ring over a typed scheduler event bus.
//!
//! Scheduler bugs are interleaving bugs; a printf is useless without the
//! virtual timestamp and the last few hundred decisions that led up to the
//! failure. [`TraceRing`] keeps a bounded window of [`TraceRecord`]s —
//! `(time, TraceEvent)` pairs — that the invariant sanitizer and tests read
//! back when an assertion trips (the embedder merges every ring into one
//! rendered timeline).
//!
//! Events are *typed* ([`TraceEvent`]) rather than pre-rendered strings, so
//! the hot paths that emit them (hypervisor dispatch, the embedder applying
//! a guest context switch) store a handful of plain integers per record;
//! rendering happens only when a dump is actually requested. The layers
//! above `irs-sim` cannot be named here (the crate DAG points the other
//! way), so every variant carries plain `usize`/`i64` indices and
//! `&'static str` tags.
//!
//! Tracing is entirely opt-in: a disabled ring ignores records at ~zero cost,
//! so production runs of the big parameter sweeps pay nothing.

use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// One typed scheduler event on the trace bus.
///
/// Variants mirror the decision points of the two stacked schedulers: the
/// `xen`-side ones are emitted by the hypervisor's credit scheduler and SA
/// protocol, the `guest`-side ones by the embedder as it applies the CFS
/// model's context switches and migrations, and the fault ones by the
/// embedder's fault injector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A vCPU was dispatched onto a pCPU.
    Schedule {
        /// Physical CPU that starts running the vCPU.
        pcpu: usize,
        /// VM index of the dispatched vCPU.
        vm: usize,
        /// vCPU index within the VM.
        vcpu: usize,
        /// Why the scheduler ran (e.g. `"wake"`, `"slice-expiry"`).
        reason: &'static str,
    },
    /// A running vCPU was descheduled but still wants the CPU.
    Preempt {
        /// Physical CPU the vCPU was running on.
        pcpu: usize,
        /// VM index of the preempted vCPU.
        vm: usize,
        /// vCPU index within the VM.
        vcpu: usize,
    },
    /// A running vCPU voluntarily blocked.
    Block {
        /// Physical CPU the vCPU was running on.
        pcpu: usize,
        /// VM index of the blocking vCPU.
        vm: usize,
        /// vCPU index within the VM.
        vcpu: usize,
    },
    /// A blocked vCPU woke and was enqueued on a pCPU's runqueue.
    Wake {
        /// VM index of the woken vCPU.
        vm: usize,
        /// vCPU index within the VM.
        vcpu: usize,
        /// Physical CPU whose runqueue received it.
        pcpu: usize,
    },
    /// The hypervisor sent a scheduler-activation upcall (`VIRQ_SA_UPCALL`).
    SaSend {
        /// VM index of the notified vCPU.
        vm: usize,
        /// vCPU index within the VM.
        vcpu: usize,
    },
    /// The guest acknowledged an SA upcall with a scheduling hypercall.
    SaAck {
        /// VM index of the acknowledging vCPU.
        vm: usize,
        /// vCPU index within the VM.
        vcpu: usize,
        /// The acknowledging operation, e.g. `"SCHEDOP_block"`.
        op: &'static str,
    },
    /// An SA upcall hit its completion limit and preemption was forced.
    SaTimeout {
        /// VM index of the vCPU that failed to acknowledge in time.
        vm: usize,
        /// vCPU index within the VM.
        vcpu: usize,
    },
    /// A periodic credit-scheduler tick burned credits of a running vCPU.
    CreditTick {
        /// VM index of the charged vCPU.
        vm: usize,
        /// vCPU index within the VM.
        vcpu: usize,
        /// Credits burned by this tick.
        burned: i64,
        /// Credit balance after the burn.
        credits: i64,
    },
    /// The guest OS put a task on a vCPU.
    TaskRun {
        /// VM index of the guest.
        vm: usize,
        /// vCPU the task starts running on.
        vcpu: usize,
        /// Guest task index.
        task: usize,
    },
    /// The guest OS took the current task off a vCPU.
    TaskStop {
        /// VM index of the guest.
        vm: usize,
        /// vCPU the task was running on.
        vcpu: usize,
        /// Guest task index.
        task: usize,
    },
    /// The guest OS migrated a queued task between vCPU runqueues.
    TaskMigrate {
        /// VM index of the guest.
        vm: usize,
        /// Guest task index.
        task: usize,
        /// Source vCPU runqueue.
        from: usize,
        /// Destination vCPU runqueue.
        to: usize,
    },
    /// A deterministic fault was injected into a guest-facing path
    /// (upcall loss, ack loss/delay, wedge onset, deadline jitter).
    FaultInjected {
        /// Which fault, e.g. `"upcall-loss"`, `"ack-drop"`, `"wedge"`.
        kind: &'static str,
        /// VM index of the affected vCPU.
        vm: usize,
        /// vCPU index within the VM.
        vcpu: usize,
    },
    /// A deterministic fault was injected on a host pCPU (e.g. a forced
    /// maintenance preemption modelling capacity degradation).
    PcpuFault {
        /// Which fault, e.g. `"degrade"`.
        kind: &'static str,
        /// The affected pCPU.
        pcpu: usize,
    },
    /// A fault-delayed SA acknowledgement arrived after its round was
    /// resolved and was discarded instead of delivered.
    StaleAck {
        /// VM index of the acknowledging vCPU.
        vm: usize,
        /// vCPU index within the VM.
        vcpu: usize,
    },
}

impl TraceEvent {
    /// Short static category tag used as the middle column of a dump line.
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::Schedule { .. } => "xen.schedule",
            TraceEvent::Preempt { .. } => "xen.preempt",
            TraceEvent::Block { .. } => "xen.block",
            TraceEvent::Wake { .. } => "xen.wake",
            TraceEvent::SaSend { .. } => "xen.sa",
            TraceEvent::SaAck { .. } => "xen.sa",
            TraceEvent::SaTimeout { .. } => "xen.sa",
            TraceEvent::CreditTick { .. } => "xen.credit",
            TraceEvent::TaskRun { .. } => "guest.run",
            TraceEvent::TaskStop { .. } => "guest.stop",
            TraceEvent::TaskMigrate { .. } => "guest.migrate",
            TraceEvent::FaultInjected { .. } => "fault.inject",
            TraceEvent::PcpuFault { .. } => "fault.pcpu",
            TraceEvent::StaleAck { .. } => "fault.stale",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Schedule {
                pcpu,
                vm,
                vcpu,
                reason,
            } => write!(f, "run vm{vm}.v{vcpu} on pcpu{pcpu} ({reason})"),
            TraceEvent::Preempt { pcpu, vm, vcpu } => {
                write!(f, "preempt vm{vm}.v{vcpu} off pcpu{pcpu} -> runnable")
            }
            TraceEvent::Block { pcpu, vm, vcpu } => {
                write!(f, "vm{vm}.v{vcpu} blocks off pcpu{pcpu}")
            }
            TraceEvent::Wake { vm, vcpu, pcpu } => {
                write!(f, "wake vm{vm}.v{vcpu} -> pcpu{pcpu} runqueue")
            }
            TraceEvent::SaSend { vm, vcpu } => {
                write!(f, "send VIRQ_SA_UPCALL to vm{vm}.v{vcpu}")
            }
            TraceEvent::SaAck { vm, vcpu, op } => {
                write!(f, "vm{vm}.v{vcpu} acks SA with {op}")
            }
            TraceEvent::SaTimeout { vm, vcpu } => {
                write!(
                    f,
                    "SA completion limit hit for vm{vm}.v{vcpu}; forcing preemption"
                )
            }
            TraceEvent::CreditTick {
                vm,
                vcpu,
                burned,
                credits,
            } => write!(
                f,
                "tick burns {burned} credits of vm{vm}.v{vcpu} (now {credits})"
            ),
            TraceEvent::TaskRun { vm, vcpu, task } => {
                write!(f, "vm{vm}: task{task} runs on v{vcpu}")
            }
            TraceEvent::TaskStop { vm, vcpu, task } => {
                write!(f, "vm{vm}: task{task} off v{vcpu}")
            }
            TraceEvent::TaskMigrate { vm, task, from, to } => {
                write!(f, "vm{vm}: migrate task{task} v{from} -> v{to}")
            }
            TraceEvent::FaultInjected { kind, vm, vcpu } => {
                write!(f, "inject {kind} on vm{vm}.v{vcpu}")
            }
            TraceEvent::PcpuFault { kind, pcpu } => {
                write!(f, "inject {kind} on pcpu{pcpu}")
            }
            TraceEvent::StaleAck { vm, vcpu } => {
                write!(f, "discard stale delayed SA ack from vm{vm}.v{vcpu}")
            }
        }
    }
}

/// One trace record: a virtual timestamp and the typed event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time at which the event was recorded.
    pub at: SimTime,
    /// The typed event.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:<18} {}",
            self.at,
            self.event.category(),
            self.event
        )
    }
}

/// A bounded ring buffer of trace records.
///
/// # Example
///
/// ```
/// use irs_sim::trace::{TraceEvent, TraceRing};
/// use irs_sim::SimTime;
///
/// let mut ring = TraceRing::enabled(2);
/// ring.emit(SimTime::from_nanos(1), || TraceEvent::SaSend { vm: 0, vcpu: 0 });
/// ring.emit(SimTime::from_nanos(2), || TraceEvent::SaSend { vm: 0, vcpu: 1 });
/// ring.emit(SimTime::from_nanos(3), || TraceEvent::Wake { vm: 0, vcpu: 1, pcpu: 2 });
/// // capacity 2: the oldest record was evicted
/// assert_eq!(ring.records().len(), 2);
/// assert_eq!(ring.records()[0].event, TraceEvent::SaSend { vm: 0, vcpu: 1 });
/// ```
#[derive(Debug)]
pub struct TraceRing {
    enabled: bool,
    capacity: usize,
    records: VecDeque<TraceRecord>,
}

/// Cloning a ring clones its *configuration* (enabled flag and capacity),
/// not its contents: the clone starts empty. Trace rings are observability,
/// not simulation state — the `System::snapshot()` machinery (DESIGN.md
/// §2.7) deliberately excludes captured records from checkpoints, and this
/// `Clone` is what encodes that at the type level. Structures that embed a
/// ring can simply `#[derive(Clone)]` and inherit the exclusion.
impl Clone for TraceRing {
    fn clone(&self) -> Self {
        if self.enabled {
            TraceRing::enabled(self.capacity)
        } else {
            TraceRing::disabled()
        }
    }
}

impl TraceRing {
    /// Creates a disabled ring: every `emit` call is a no-op.
    pub fn disabled() -> Self {
        TraceRing {
            enabled: false,
            capacity: 0,
            records: VecDeque::new(),
        }
    }

    /// Creates an enabled ring holding at most `capacity` records.
    pub fn enabled(capacity: usize) -> Self {
        TraceRing {
            enabled: true,
            capacity: capacity.max(1),
            records: VecDeque::with_capacity(capacity.clamp(1, 4096)),
        }
    }

    /// Emits a typed event. The closure only runs when tracing is enabled,
    /// so hot paths pay nothing in disabled runs.
    #[inline]
    pub fn emit<F>(&mut self, at: SimTime, event: F)
    where
        F: FnOnce() -> TraceEvent,
    {
        if !self.enabled {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(TraceRecord { at, event: event() });
    }

    /// The captured records, oldest first.
    pub fn records(&self) -> &VecDeque<TraceRecord> {
        &self.records
    }
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(vcpu: usize) -> TraceEvent {
        TraceEvent::SaSend { vm: 0, vcpu }
    }

    /// Renders a ring one record per line, oldest first.
    fn render(ring: &TraceRing) -> String {
        ring.records().iter().map(|r| format!("{r}\n")).collect()
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut ring = TraceRing::disabled();
        ring.emit(SimTime::ZERO, || {
            panic!("event closure must not run when disabled")
        });
        assert!(ring.records().is_empty());
    }

    #[test]
    fn enabled_ring_keeps_newest() {
        let mut ring = TraceRing::enabled(3);
        for i in 0..10 {
            ring.emit(SimTime::from_nanos(i as u64), || send(i));
        }
        let kept: Vec<TraceEvent> = ring.records().iter().map(|r| r.event.clone()).collect();
        assert_eq!(kept, vec![send(7), send(8), send(9)]);
    }

    #[test]
    fn capacity_zero_is_bumped_to_one() {
        let mut ring = TraceRing::enabled(0);
        ring.emit(SimTime::ZERO, || send(0));
        ring.emit(SimTime::ZERO, || send(1));
        assert_eq!(ring.records().len(), 1);
        assert_eq!(ring.records()[0].event, send(1));
    }

    #[test]
    fn records_render_one_line_each() {
        let mut ring = TraceRing::enabled(4);
        ring.emit(SimTime::from_micros(26), || send(1));
        ring.emit(SimTime::from_millis(30), || TraceEvent::Schedule {
            pcpu: 2,
            vm: 0,
            vcpu: 1,
            reason: "wake",
        });
        let dump = render(&ring);
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("xen.sa"));
        assert!(dump.contains("VIRQ_SA_UPCALL"));
        assert!(dump.contains("26.000us"));
        assert!(dump.contains("run vm0.v1 on pcpu2 (wake)"));
    }

    #[test]
    fn typed_events_render_with_category() {
        let mut ring = TraceRing::enabled(16);
        ring.emit(SimTime::from_micros(1), || TraceEvent::Preempt {
            pcpu: 0,
            vm: 1,
            vcpu: 2,
        });
        ring.emit(SimTime::from_micros(2), || TraceEvent::Block {
            pcpu: 0,
            vm: 1,
            vcpu: 2,
        });
        ring.emit(SimTime::from_micros(3), || TraceEvent::Wake {
            vm: 1,
            vcpu: 2,
            pcpu: 3,
        });
        ring.emit(SimTime::from_micros(4), || TraceEvent::SaAck {
            vm: 1,
            vcpu: 2,
            op: "SCHEDOP_block",
        });
        ring.emit(SimTime::from_micros(5), || TraceEvent::SaTimeout {
            vm: 1,
            vcpu: 2,
        });
        ring.emit(SimTime::from_micros(6), || TraceEvent::CreditTick {
            vm: 1,
            vcpu: 2,
            burned: 100,
            credits: 150,
        });
        ring.emit(SimTime::from_micros(7), || TraceEvent::TaskRun {
            vm: 1,
            vcpu: 2,
            task: 5,
        });
        ring.emit(SimTime::from_micros(8), || TraceEvent::TaskStop {
            vm: 1,
            vcpu: 2,
            task: 5,
        });
        ring.emit(SimTime::from_micros(9), || TraceEvent::TaskMigrate {
            vm: 1,
            task: 5,
            from: 2,
            to: 0,
        });
        ring.emit(SimTime::from_micros(10), || TraceEvent::FaultInjected {
            kind: "upcall-loss",
            vm: 1,
            vcpu: 2,
        });
        ring.emit(SimTime::from_micros(11), || TraceEvent::PcpuFault {
            kind: "degrade",
            pcpu: 3,
        });
        ring.emit(SimTime::from_micros(12), || TraceEvent::StaleAck {
            vm: 1,
            vcpu: 2,
        });
        let dump = render(&ring);
        for needle in [
            "xen.preempt",
            "xen.block",
            "xen.wake",
            "SCHEDOP_block",
            "completion limit",
            "xen.credit",
            "guest.run",
            "guest.stop",
            "migrate task5 v2 -> v0",
            "fault.inject",
            "inject upcall-loss on vm1.v2",
            "fault.pcpu",
            "inject degrade on pcpu3",
            "fault.stale",
            "discard stale delayed SA ack from vm1.v2",
        ] {
            assert!(dump.contains(needle), "dump missing {needle:?}:\n{dump}");
        }
    }

    #[test]
    fn clone_copies_config_not_contents() {
        let mut ring = TraceRing::enabled(3);
        ring.emit(SimTime::ZERO, || send(0));
        let mut copy = ring.clone();
        assert!(copy.records().is_empty(), "records are not state");
        // The copy records, and keeps the newest `capacity` records.
        for i in 1..=4 {
            copy.emit(SimTime::ZERO, || send(i));
        }
        let kept: Vec<TraceEvent> = copy.records().iter().map(|r| r.event.clone()).collect();
        assert_eq!(kept, vec![send(2), send(3), send(4)]);
        let mut off = TraceRing::disabled().clone();
        off.emit(SimTime::ZERO, || {
            panic!("a disabled ring's copy must stay disabled")
        });
    }
}
