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
//! [`ArrivalProcess::next`]; the embedding simulation anchors each
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

/// Inter-arrival distribution of an [`ArrivalProcess`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalDist {
    /// Exponential inter-arrivals with the given mean (Poisson process).
    Poisson {
        /// Mean inter-arrival gap in nanoseconds.
        mean_ns: u64,
    },
    /// Uniform inter-arrivals in `[lo_ns, hi_ns]`.
    Uniform {
        /// Minimum gap in nanoseconds.
        lo_ns: u64,
        /// Maximum gap in nanoseconds.
        hi_ns: u64,
    },
}

/// A seeded open-loop source of absolute arrival instants.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    dist: ArrivalDist,
    rng: SimRng,
    next_at_ns: u64,
}

impl ArrivalProcess {
    /// Creates a process with a placeholder seed. The embedder must
    /// [`reseed`](Self::reseed) it from the scenario seed before use.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate distribution (zero mean, inverted or
    /// all-zero uniform range).
    pub fn new(dist: ArrivalDist) -> Self {
        match dist {
            ArrivalDist::Poisson { mean_ns } => {
                assert!(mean_ns > 0, "Poisson arrivals need a non-zero mean");
            }
            ArrivalDist::Uniform { lo_ns, hi_ns } => {
                assert!(lo_ns <= hi_ns, "uniform arrival range is inverted");
                assert!(hi_ns > 0, "uniform arrivals need a non-zero upper bound");
            }
        }
        let mut p = ArrivalProcess {
            dist,
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
        let gap = match self.dist {
            ArrivalDist::Poisson { mean_ns } => self.rng.exponential(mean_ns as f64).round() as u64,
            ArrivalDist::Uniform { lo_ns, hi_ns } => self.rng.uniform_u64(lo_ns, hi_ns),
        };
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
        let mut p = ArrivalProcess::new(ArrivalDist::Poisson { mean_ns: 1_000 });
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
        let mut a = ArrivalProcess::new(ArrivalDist::Poisson { mean_ns: 5_000 });
        let mut b = ArrivalProcess::new(ArrivalDist::Poisson { mean_ns: 5_000 });
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
    fn uniform_gaps_stay_in_band() {
        let mut p = ArrivalProcess::new(ArrivalDist::Uniform {
            lo_ns: 100,
            hi_ns: 200,
        });
        p.reseed(SimRng::seed_from(3));
        let mut last = 0;
        for _ in 0..200 {
            let at = p.next_arrival_ns();
            let gap = at - last;
            assert!((100..=200).contains(&gap), "gap {gap} out of band");
            last = at;
        }
    }

    #[test]
    fn poisson_mean_gap_is_close() {
        let mut p = ArrivalProcess::new(ArrivalDist::Poisson { mean_ns: 250 });
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
        ArrivalProcess::new(ArrivalDist::Poisson { mean_ns: 0 });
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_uniform_panics() {
        ArrivalProcess::new(ArrivalDist::Uniform { lo_ns: 5, hi_ns: 1 });
    }
}
