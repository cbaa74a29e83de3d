//! Per-vCPU scheduler state.

use crate::ids::{PcpuId, VcpuRef};
use crate::runstate::{RunState, RunstateClock};
use irs_sim::SimTime;
use std::fmt;

/// Credit-scheduler run priority, ordered best-first.
///
/// `Boost` is granted to vCPUs waking from the blocked state (latency
/// sensitivity heuristic), `Under` means the vCPU still has credits, `Over`
/// means its credits are exhausted. Lower discriminant = scheduled first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CreditPriority {
    /// Recently woken from blocked; preempts `Under`/`Over` vCPUs.
    Boost,
    /// Has remaining credits.
    Under,
    /// Credits exhausted; runs only when nothing better exists.
    Over,
}

impl fmt::Display for CreditPriority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CreditPriority::Boost => "BOOST",
            CreditPriority::Under => "UNDER",
            CreditPriority::Over => "OVER",
        };
        f.write_str(s)
    }
}

/// Scheduler bookkeeping for one virtual CPU.
#[derive(Debug, Clone)]
pub(crate) struct Vcpu {
    /// Identity.
    pub vref: VcpuRef,
    /// Hard affinity: `Some(p)` pins the vCPU to pCPU `p` forever.
    pub affinity: Option<PcpuId>,
    /// The pCPU whose runqueue currently owns this vCPU.
    pub home: PcpuId,
    /// Runstate clock (running/runnable/blocked residencies).
    pub clock: RunstateClock,
    /// Remaining credits (scaled: 100 burned per 10 ms tick).
    pub credits: i64,
    /// Current scheduling priority.
    pub priority: CreditPriority,
    /// An SA notification has been sent and not yet acknowledged.
    pub sa_pending: bool,
    /// Generation counter for SA rounds (guards stale timeout events).
    pub sa_gen: u64,
    /// Relaxed-co parked this vCPU for the current accounting period.
    pub parked: bool,
    /// The vCPU yielded; deprioritize once within its priority class.
    pub yield_bias: bool,
    /// FIFO arrival order within the runqueue (set when enqueued).
    pub queued_at: u64,
    /// Cumulative running time already charged by the credit burner.
    pub burn_baseline: SimTime,
    /// Progress baseline for relaxed-co skew measurement (reset whenever a
    /// park/boost round triggers, so skew is measured per round).
    pub co_baseline: SimTime,
    /// When this vCPU last received BOOST (rate-limits boost storms).
    pub last_boost: Option<SimTime>,
}

impl Vcpu {
    pub(crate) fn new(vref: VcpuRef, affinity: Option<PcpuId>, home: PcpuId) -> Self {
        Vcpu {
            vref,
            affinity,
            home,
            clock: RunstateClock::new(RunState::Runnable, SimTime::ZERO),
            credits: 0,
            priority: CreditPriority::Under,
            sa_pending: false,
            sa_gen: 0,
            parked: false,
            yield_bias: false,
            queued_at: 0,
            burn_baseline: SimTime::ZERO,
            co_baseline: SimTime::ZERO,
            last_boost: None,
        }
    }

    /// Current runstate.
    pub(crate) fn state(&self) -> RunState {
        self.clock.state()
    }

    /// Recomputes `Under`/`Over` from the credit balance, preserving `Boost`.
    pub(crate) fn refresh_priority(&mut self) {
        if self.priority == CreditPriority::Boost {
            return;
        }
        self.priority = if self.credits > 0 {
            CreditPriority::Under
        } else {
            CreditPriority::Over
        };
    }

    /// Drops a BOOST back to the credit-derived priority.
    pub(crate) fn unboost(&mut self) {
        if self.priority == CreditPriority::Boost {
            self.priority = if self.credits > 0 {
                CreditPriority::Under
            } else {
                CreditPriority::Over
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VmId;

    fn mk() -> Vcpu {
        Vcpu::new(VcpuRef::new(VmId(0), 0), None, PcpuId(0))
    }

    #[test]
    fn priority_order_is_boost_under_over() {
        assert!(CreditPriority::Boost < CreditPriority::Under);
        assert!(CreditPriority::Under < CreditPriority::Over);
    }

    #[test]
    fn refresh_priority_tracks_credits() {
        let mut v = mk();
        v.credits = 50;
        v.refresh_priority();
        assert_eq!(v.priority, CreditPriority::Under);
        v.credits = -10;
        v.refresh_priority();
        assert_eq!(v.priority, CreditPriority::Over);
        v.credits = 0;
        v.refresh_priority();
        assert_eq!(v.priority, CreditPriority::Over);
    }

    #[test]
    fn refresh_preserves_boost_but_unboost_clears_it() {
        let mut v = mk();
        v.credits = 50;
        v.priority = CreditPriority::Boost;
        v.refresh_priority();
        assert_eq!(v.priority, CreditPriority::Boost);
        v.unboost();
        assert_eq!(v.priority, CreditPriority::Under);
        v.credits = -1;
        v.priority = CreditPriority::Boost;
        v.unboost();
        assert_eq!(v.priority, CreditPriority::Over);
    }

    #[test]
    fn new_vcpu_starts_runnable() {
        let v = mk();
        assert_eq!(v.state(), RunState::Runnable);
        assert!(!v.sa_pending);
        assert!(!v.parked);
    }
}
