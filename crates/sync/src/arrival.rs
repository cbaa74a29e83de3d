//! Deterministic open-loop request sources.
//!
//! An [`ArrivalProcess`] is a seeded stream of absolute arrival
//! instants — the load generator of an open-loop serving workload.
//! Requests arrive on the generator's schedule regardless of whether
//! the service keeps up, so queueing delay under interference lands in
//! the measured latency instead of silently throttling the offered load
//! (the coordinated-omission mistake closed-loop generators make).
//!
//! Consumer threads take successive arrivals via
//! [`ArrivalProcess::next_arrival_ns`]; the embedding simulation anchors each
//! request's latency measurement at the *arrival* instant, and sleeps
//! the consumer when it catches up with the schedule.
//!
//! The inter-arrival RNG is carried inside the process so it clones
//! with the [`SyncSpace`](crate::SyncSpace) (snapshot/fork safe). It is
//! constructed unseeded and must be [`reseed`](ArrivalProcess::reseed)ed
//! by the embedder from the scenario seed — that keeps arrival draws
//! decorrelated from workload-compute draws and independent of worker
//! fan-out.

use irs_sim::SimRng;

/// A seeded open-loop source of absolute arrival instants: a Poisson
/// process, whose inter-arrival gaps are exponential.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    /// Mean inter-arrival gap in nanoseconds.
    mean_ns: u64,
    rng: SimRng,
    next_at_ns: u64,
}

impl ArrivalProcess {
    /// Creates a process with mean gap `mean_ns` and a placeholder seed.
    /// The embedder must [`reseed`](Self::reseed) it from the scenario
    /// seed before use.
    ///
    /// # Panics
    ///
    /// Panics on a zero mean.
    pub fn new(mean_ns: u64) -> Self {
        assert!(mean_ns > 0, "Poisson arrivals need a non-zero mean");
        let mut p = ArrivalProcess {
            mean_ns,
            rng: SimRng::seed_from(0),
            next_at_ns: 0,
        };
        p.reseed(SimRng::seed_from(0));
        p
    }

    /// Replaces the RNG and restarts the schedule from virtual time 0
    /// (the first arrival lands one draw after t = 0). Called once by
    /// the embedder during system construction, before any task runs.
    pub fn reseed(&mut self, rng: SimRng) {
        self.rng = rng;
        self.next_at_ns = 0;
        self.next_at_ns = self.draw();
    }

    /// One inter-arrival gap, never zero (a zero gap would let a single
    /// instant carry unboundedly many arrivals).
    fn draw(&mut self) -> u64 {
        let gap = self.rng.exponential(self.mean_ns as f64).round() as u64;
        gap.max(1)
    }

    /// Takes the next arrival instant (absolute nanoseconds) and
    /// advances the schedule. Consumers sharing one process partition
    /// the stream in call order.
    pub fn next_arrival_ns(&mut self) -> u64 {
        let at = self.next_at_ns;
        self.next_at_ns += self.draw();
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_strictly_increasing() {
        let mut p = ArrivalProcess::new(1_000);
        p.reseed(SimRng::seed_from(7));
        let mut last = p.next_arrival_ns();
        for _ in 0..100 {
            let at = p.next_arrival_ns();
            assert!(at > last, "gaps are never zero");
            last = at;
        }
    }

    #[test]
    fn reseed_restarts_the_schedule_deterministically() {
        let mut a = ArrivalProcess::new(5_000);
        let mut b = ArrivalProcess::new(5_000);
        a.reseed(SimRng::seed_from(42));
        b.reseed(SimRng::seed_from(42));
        for _ in 0..50 {
            assert_eq!(a.next_arrival_ns(), b.next_arrival_ns());
        }
        // Re-reseeding replays the identical stream from the start.
        a.reseed(SimRng::seed_from(42));
        b.reseed(SimRng::seed_from(42));
        assert_eq!(a.next_arrival_ns(), b.next_arrival_ns());
    }

    #[test]
    fn poisson_mean_gap_is_close() {
        let mut p = ArrivalProcess::new(250);
        p.reseed(SimRng::seed_from(9));
        let n = 20_000;
        let mut last = 0;
        let mut sum = 0u64;
        for _ in 0..n {
            let at = p.next_arrival_ns();
            sum += at - last;
            last = at;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 250.0).abs() < 10.0, "mean gap was {mean}");
    }

    #[test]
    #[should_panic(expected = "non-zero mean")]
    fn zero_mean_panics() {
        ArrivalProcess::new(0);
    }
}
