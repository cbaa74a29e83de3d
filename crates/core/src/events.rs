//! The co-simulation's event vocabulary.

/// One scheduled occurrence in the system-wide event queue.
///
/// Events carrying a `gen` are *generation-guarded*: the handler compares
/// the generation against the current counter and drops stale firings (a
/// context switch or activity change logically cancels outstanding timers
/// without touching the queue).
///
/// Indices are stored narrow so an event takes 16 bytes: `vm` is a `u16`;
/// `vcpu`, `task` and `pcpu` are `u32`. [`System::with_config`] rejects a
/// scenario with more than 2^16 VMs or more than 2^32 pCPUs, vCPUs per VM
/// or threads per VM before building anything, so every index converts
/// between `usize` and its field losslessly.
///
/// [`System::with_config`]: crate::System::with_config
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// Hypervisor credit-burn tick (10 ms period, self-rearming).
    HvTick,
    /// Hypervisor accounting pass (30 ms period, self-rearming).
    HvAccounting,
    /// A pCPU's 30 ms slice ran out.
    SliceExpiry { pcpu: u32, gen: u64 },
    /// Guest scheduler tick for one vCPU (1 ms, armed only while running).
    GuestTick { vm: u16, vcpu: u32, gen: u64 },
    /// The current compute segment of a task completes.
    TaskStep { vm: u16, task: u32, gen: u64 },
    /// The guest's SA receiver and context switcher run
    /// (`GuestOs::sa_upcall`, scheduled `round_delay` after
    /// `VIRQ_SA_UPCALL` delivery).
    SaProcess { vm: u16, vcpu: u32, gen: u64 },
    /// The hypervisor's hard SA completion limit.
    SaTimeout { vm: u16, vcpu: u32, gen: u64 },
    /// A fault-delayed SA acknowledgement finally reaches the hypervisor
    /// (`yield_op` distinguishes `SCHEDOP_yield` from `SCHEDOP_block`).
    /// Only scheduled when fault injection is active.
    SaAckDeliver {
        vm: u16,
        vcpu: u32,
        gen: u64,
        yield_op: bool,
    },
    /// The asynchronously woken IRS migrator thread runs.
    MigratorRun { vm: u16 },
    /// A vCPU has been spinning continuously for the PLE window.
    PleWindow { vm: u16, vcpu: u32, gen: u64 },
    /// Open-loop request arrival for a server VM (self-rearming).
    RequestArrive { vm: u16 },
    /// A sleeping task's timer fires.
    WakeTimer { vm: u16, task: u32 },
    /// A wait's spin budget (futex grace or pv spin) ran out: sleep until
    /// granted.
    WaitExpire { vm: u16, task: u32, gen: u64 },
    /// Gang-slice rotation (strict co-scheduling only, self-rearming).
    GangRotate,
    /// Hard stop of the measurement.
    Horizon,
}

const _: () = assert!(std::mem::size_of::<Event>() == 16);
