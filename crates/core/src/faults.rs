//! Deterministic fault injection for the SA protocol (paper §4.1).
//!
//! The paper's security argument is that a rogue or wedged guest which never
//! acknowledges an SA upcall is forced off after the hard completion limit.
//! In a healthy full-system run that fallback never fires (every round is
//! acked in ~22 µs against a 500 µs limit), so this module exists to make it
//! fire *on purpose*: a [`FaultConfig`] describes a fault schedule, and the
//! [`System`](crate::System) consults its fault state at the points where
//! the SA protocol crosses the hypervisor/guest boundary, and at each
//! hypervisor tick:
//!
//! * **upcall loss** — the `HvAction::SaUpcall` action is dropped before
//!   the guest sees it (the hypervisor-side completion deadline still arms,
//!   so the round must resolve through `sa_timeout`);
//! * **ack loss / delay** — the guest handles the vIRQ and context-switches
//!   internally, but the `sched_op` acknowledgement hypercall is dropped, or
//!   deferred past the completion limit (a delayed ack that loses the race
//!   with the timeout is discarded as stale rather than delivered late);
//! * **guest wedge** — a vCPU stops processing vIRQs entirely for a
//!   configurable window, modelling a hung interrupt handler;
//! * **deadline jitter** — the completion-limit deadline is perturbed
//!   multiplicatively, so timeouts can land both before and after the
//!   guest's normal acknowledgement latency;
//! * **capacity degradation** — a subset of pCPUs suffers extra
//!   maintenance-style preemptions each hypervisor tick (driven through the
//!   legitimate `slice_expired` path, so credit semantics are preserved).
//!
//! Determinism: fault decisions draw from a dedicated [`SimRng`] stream
//! forked from the scenario seed with a fixed salt — never from the
//! workload RNG — so enabling the invariant checker, changing `--jobs`, or
//! reordering trace consumers cannot perturb the fault schedule. Every
//! injected fault emits a typed [`irs_sim::trace::TraceEvent`] so the
//! online sanitizer (and post-mortem trace dumps) can see exactly what was
//! done to the system.

use irs_sim::{SimRng, SimTime};

/// Salt folded into the scenario seed to derive the fault stream (decorrelated
/// from the workload stream, which uses the unforked seed).
const FAULT_STREAM_SALT: u64 = 0xFA17_1A7E_D15A_57E5;

/// How long a deferred SA acknowledgement is held before delivery. It
/// exceeds the 500 µs [`irs_xen::SA_COMPLETION_LIMIT`], so the timeout
/// always wins the race and the late ack is discarded as stale.
pub const ACK_DELAY: SimTime = SimTime::from_micros(800);

/// A deterministic fault schedule. All probabilities are per-decision-point
/// (per SA upcall delivery, per ack, per pCPU per hypervisor tick) and a
/// zeroed config injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that a `VIRQ_SA_UPCALL` delivery is lost before the guest
    /// sees it. The hypervisor-side completion deadline still arms.
    pub upcall_loss: f64,
    /// Probability that a `sched_op` SA acknowledgement is dropped after the
    /// guest has already handled the upcall.
    pub ack_loss: f64,
    /// Probability that a (non-dropped) SA acknowledgement is deferred by
    /// [`ACK_DELAY`] instead of delivered immediately.
    pub ack_delay_prob: f64,
    /// Probability, evaluated at each SA upcall delivery, that the target
    /// vCPU wedges (stops processing vIRQs) for
    /// [`wedge_window`](Self::wedge_window).
    pub wedge_prob: f64,
    /// How long a wedged vCPU ignores vIRQs.
    pub wedge_window: SimTime,
    /// Multiplicative jitter applied to the completion-limit deadline
    /// (`0.5` means the armed deadline lands anywhere in ±50% of the
    /// nominal span). `0.0` disables jitter.
    pub deadline_jitter: f64,
    /// How many pCPUs (the first `N` by index) suffer capacity degradation.
    pub degraded_pcpus: usize,
    /// Per-tick probability that a degraded pCPU takes a forced
    /// maintenance-style preemption of whatever it is running.
    pub degrade_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            upcall_loss: 0.0,
            ack_loss: 0.0,
            ack_delay_prob: 0.0,
            wedge_prob: 0.0,
            wedge_window: SimTime::from_millis(3),
            deadline_jitter: 0.0,
            degraded_pcpus: 0,
            degrade_prob: 0.0,
        }
    }
}

impl FaultConfig {
    /// No faults at all (identical to `Default`); useful as a campaign
    /// baseline so the fault plumbing itself is shown to be inert.
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// Heavy upcall loss: a third of SA notifications never reach the guest,
    /// so those rounds can only resolve through the completion-limit force.
    pub fn upcall_storm() -> Self {
        FaultConfig { upcall_loss: 0.33, ..FaultConfig::default() }
    }

    /// Acks dropped or deferred past the completion limit: the guest behaves,
    /// the hypercall channel does not.
    pub fn ack_chaos() -> Self {
        FaultConfig {
            ack_loss: 0.2,
            ack_delay_prob: 0.2,
            ..FaultConfig::default()
        }
    }

    /// The §4.1 rogue guest: vCPUs periodically stop processing vIRQs for
    /// multi-millisecond windows, far past the 500 µs completion limit.
    pub fn wedged_guest() -> Self {
        FaultConfig {
            wedge_prob: 0.3,
            wedge_window: SimTime::from_millis(3),
            ..FaultConfig::default()
        }
    }

    /// Deadline timer jitter only: completion limits land anywhere in
    /// ±90% of the nominal span, racing the guest's ~22 µs ack latency.
    pub fn jittery_timer() -> Self {
        FaultConfig { deadline_jitter: 0.9, ..FaultConfig::default() }
    }

    /// Two pCPUs lose capacity to forced maintenance preemptions.
    pub fn degraded_host() -> Self {
        FaultConfig { degraded_pcpus: 2, degrade_prob: 0.5, ..FaultConfig::default() }
    }

    /// Everything at once, at moderated rates.
    pub fn everything() -> Self {
        FaultConfig {
            upcall_loss: 0.15,
            ack_loss: 0.1,
            ack_delay_prob: 0.1,
            wedge_prob: 0.1,
            wedge_window: SimTime::from_millis(2),
            deadline_jitter: 0.5,
            degraded_pcpus: 1,
            degrade_prob: 0.25,
        }
    }
}

/// Counters for every fault actually injected during a run; surfaced through
/// [`RunResult::faults`](crate::RunResult) so campaigns can assert the
/// schedule really bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// SA upcall deliveries dropped before the guest saw them.
    pub upcalls_dropped: u64,
    /// SA acknowledgements dropped after the guest handled the upcall.
    pub acks_dropped: u64,
    /// SA acknowledgements deferred by the configured delay.
    pub acks_delayed: u64,
    /// Deferred acknowledgements that lost the race with the completion
    /// limit and were discarded as stale instead of delivered.
    pub stale_acks_discarded: u64,
    /// Wedge windows started (a vCPU beginning to ignore vIRQs).
    pub wedges: u64,
    /// Completion-limit deadlines whose arming time was jittered.
    pub deadlines_jittered: u64,
    /// Forced maintenance preemptions injected on degraded pCPUs.
    pub degrade_preemptions: u64,
}

impl FaultStats {
    /// Total number of injected faults of all kinds.
    pub fn total(&self) -> u64 {
        self.upcalls_dropped
            + self.acks_dropped
            + self.acks_delayed
            + self.wedges
            + self.deadlines_jittered
            + self.degrade_preemptions
    }
}

/// What the injector decided for one SA acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AckFate {
    /// Deliver the hypercall immediately (no fault).
    Deliver,
    /// Drop it; the round resolves through the completion limit.
    Drop,
    /// Hold it and deliver at the given (absolute) time, if still fresh.
    Delay(SimTime),
}

/// Live fault-injection state owned by a [`System`](crate::System) run.
///
/// `Clone` is a complete copy — RNG position, wedge windows, and stats —
/// so a restored snapshot replays the exact same fault schedule.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    cfg: FaultConfig,
    rng: SimRng,
    /// Per-(vm, vcpu): instant until which the vCPU ignores vIRQs.
    wedge_until: Vec<Vec<SimTime>>,
    /// What was injected so far.
    pub(crate) stats: FaultStats,
}

impl FaultState {
    /// Builds the injector for a run. `seed` is the scenario seed — the
    /// fault stream is forked from it with a fixed salt so it is
    /// decorrelated from (and cannot perturb) the workload stream.
    pub(crate) fn new(cfg: FaultConfig, seed: u64, vcpu_counts: &[usize]) -> FaultState {
        let rng = SimRng::seed_from(seed).fork(FAULT_STREAM_SALT);
        FaultState {
            cfg,
            rng,
            wedge_until: vcpu_counts.iter().map(|&n| vec![SimTime::ZERO; n]).collect(),
            stats: FaultStats::default(),
        }
    }

    pub(crate) fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Decides whether this SA upcall delivery is lost. Draws exactly when
    /// `upcall_loss > 0` so inactive knobs leave the stream untouched.
    pub(crate) fn drop_upcall(&mut self) -> bool {
        if self.cfg.upcall_loss <= 0.0 {
            return false;
        }
        let hit = self.rng.chance(self.cfg.upcall_loss);
        if hit {
            self.stats.upcalls_dropped += 1;
        }
        hit
    }

    /// Decides whether the target vCPU wedges at this upcall delivery.
    /// Returns the instant the wedge clears when one starts.
    pub(crate) fn maybe_wedge(&mut self, vm: usize, vcpu: usize, now: SimTime) -> Option<SimTime> {
        if self.cfg.wedge_prob <= 0.0 {
            return None;
        }
        if !self.rng.chance(self.cfg.wedge_prob) {
            return None;
        }
        let until = now + self.cfg.wedge_window;
        // Extending an in-progress wedge just moves the clear point.
        self.wedge_until[vm][vcpu] = self.wedge_until[vm][vcpu].max(until);
        self.stats.wedges += 1;
        Some(until)
    }

    /// True while the vCPU is inside a wedge window (ignoring vIRQs).
    pub(crate) fn is_wedged(&self, vm: usize, vcpu: usize, now: SimTime) -> bool {
        now < self.wedge_until[vm][vcpu]
    }

    /// The instant the vCPU's current wedge window clears.
    pub(crate) fn wedge_clears_at(&self, vm: usize, vcpu: usize) -> SimTime {
        self.wedge_until[vm][vcpu]
    }

    /// Applies deadline jitter to a completion-limit deadline armed at
    /// `now`. Returns the (possibly unchanged) deadline.
    pub(crate) fn jitter_deadline(&mut self, now: SimTime, deadline: SimTime) -> SimTime {
        if self.cfg.deadline_jitter <= 0.0 || deadline <= now {
            return deadline;
        }
        let span = (deadline - now).as_nanos();
        let jittered = self.rng.jittered(span, self.cfg.deadline_jitter);
        if jittered != span {
            self.stats.deadlines_jittered += 1;
        }
        now + SimTime::from_nanos(jittered)
    }

    /// Decides the fate of one SA acknowledgement hypercall issued at `now`.
    pub(crate) fn ack_fate(&mut self, now: SimTime) -> AckFate {
        if self.cfg.ack_loss > 0.0 && self.rng.chance(self.cfg.ack_loss) {
            self.stats.acks_dropped += 1;
            return AckFate::Drop;
        }
        if self.cfg.ack_delay_prob > 0.0 && self.rng.chance(self.cfg.ack_delay_prob) {
            self.stats.acks_delayed += 1;
            return AckFate::Delay(now + ACK_DELAY);
        }
        AckFate::Deliver
    }

    /// Per-tick draw for one degraded pCPU: true when a forced maintenance
    /// preemption should be injected. The draw happens for every degraded
    /// pCPU every tick (whether or not it is busy) so the stream depends
    /// only on the tick count, not on scheduling state; the caller bumps
    /// [`FaultStats::degrade_preemptions`] only when a preemption actually
    /// lands on a busy pCPU.
    pub(crate) fn degrade_hit(&mut self) -> bool {
        if self.cfg.degrade_prob <= 0.0 {
            return false;
        }
        self.rng.chance(self.cfg.degrade_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_config_is_inert() {
        let cfg = FaultConfig::none();
        let mut st = FaultState::new(cfg, 42, &[2, 2]);
        for _ in 0..100 {
            assert!(!st.drop_upcall());
            assert!(st.maybe_wedge(0, 1, SimTime::from_millis(5)).is_none());
            assert_eq!(st.ack_fate(SimTime::ZERO), AckFate::Deliver);
            assert!(!st.degrade_hit());
        }
        let dl = SimTime::from_micros(500);
        assert_eq!(st.jitter_deadline(SimTime::ZERO, dl), dl);
        assert_eq!(st.stats, FaultStats::default());
        assert_eq!(st.stats.total(), 0);
    }

    #[test]
    fn fault_stream_is_reproducible() {
        let draw = || {
            let mut st = FaultState::new(FaultConfig::everything(), 7, &[4]);
            let mut bits = Vec::new();
            for i in 0..200u64 {
                let now = SimTime::from_micros(i * 30);
                bits.push(st.drop_upcall());
                bits.push(st.maybe_wedge(0, (i % 4) as usize, now).is_some());
                bits.push(st.ack_fate(now) == AckFate::Deliver);
            }
            (bits, st.stats)
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn wedge_window_opens_and_closes() {
        let cfg = FaultConfig { wedge_prob: 1.0, ..FaultConfig::wedged_guest() };
        let window = cfg.wedge_window;
        let mut st = FaultState::new(cfg, 3, &[2]);
        let t0 = SimTime::from_millis(10);
        let until = st.maybe_wedge(0, 0, t0).expect("prob 1.0 always wedges");
        assert_eq!(until, t0 + window);
        assert!(st.is_wedged(0, 0, t0));
        assert!(st.is_wedged(0, 0, t0 + SimTime::from_micros(1)));
        assert!(!st.is_wedged(0, 0, until));
        assert!(!st.is_wedged(0, 1, t0), "wedge is per-vCPU");
        assert_eq!(st.wedge_clears_at(0, 0), until);
        assert_eq!(st.stats.wedges, 1);
    }

    #[test]
    fn jitter_draws_only_when_enabled() {
        // With jitter off the deadline passes through without consuming
        // randomness: interleaving other draws must not shift the stream.
        let mut a = FaultState::new(FaultConfig { upcall_loss: 0.5, ..FaultConfig::default() }, 9, &[1]);
        let mut b = FaultState::new(FaultConfig { upcall_loss: 0.5, ..FaultConfig::default() }, 9, &[1]);
        let dl = SimTime::from_micros(500);
        let seq_a: Vec<bool> = (0..50).map(|_| a.drop_upcall()).collect();
        let seq_b: Vec<bool> = (0..50)
            .map(|_| {
                let _ = b.jitter_deadline(SimTime::ZERO, dl);
                b.drop_upcall()
            })
            .collect();
        assert_eq!(seq_a, seq_b);
    }
}
