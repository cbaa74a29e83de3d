//! Seeded randomness for reproducible experiments.
//!
//! Every experiment in `EXPERIMENTS.md` is the average of ≥5 seeded runs
//! (mirroring the paper's 5-run averages). All stochastic choices — compute
//! jitter, request inter-arrival times, service demands — flow through
//! [`SimRng`] so a `(scenario, seed)` pair fully determines the outcome.
//!
//! The generator is a self-contained xoshiro256++ (public-domain algorithm
//! by Blackman & Vigna) seeded through SplitMix64, so the simulation kernel
//! has no external dependencies and builds on air-gapped hosts. Parallel
//! experiment runs each construct their own `SimRng` from the scenario seed,
//! which is what makes the fan-out engine in `irs-core` deterministic
//! regardless of worker count.

/// A seedable random source with the distributions used by workload models.
///
/// # Example
///
/// ```
/// use irs_sim::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.index(100), b.index(100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64 step: expands a 64-bit seed into decorrelated state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child stream, e.g. one per task, so adding a
    /// task never perturbs the random draws of existing tasks.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        // SplitMix-style mixing keeps child streams decorrelated even for
        // consecutive salts.
        let mut z = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from(z ^ (z >> 31))
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A value drawn from `mean` with multiplicative jitter of ±`jitter`
    /// (e.g. `jitter = 0.1` gives a uniform draw in `[0.9·mean, 1.1·mean]`).
    ///
    /// Compute-segment lengths in the workload models use this: real parallel
    /// phases are never perfectly balanced, and the slight imbalance is what
    /// exercises barrier wait paths.
    pub fn jittered(&mut self, mean: u64, jitter: f64) -> u64 {
        if mean == 0 || jitter <= 0.0 {
            return mean;
        }
        let jitter = jitter.min(1.0);
        let factor = 1.0 + jitter * (2.0 * self.unit_f64() - 1.0);
        (mean as f64 * factor).round().max(1.0) as u64
    }

    /// Exponentially distributed value with the given mean (Poisson
    /// inter-arrival times for the open-loop server workload).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.unit_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Uniformly chosen index into a collection of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick an index from an empty collection");
        self.bounded(len as u64) as usize
    }

    /// Raw 64-bit draw (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Unbiased draw in `[0, bound)` via Lemire's multiply-shift with a
    /// rejection fix-up.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn fork_is_deterministic_and_decorrelated() {
        let mut parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent3 = SimRng::seed_from(9);
        let mut sibling = parent3.fork(6);
        let mut c3 = SimRng::seed_from(9).fork(5);
        assert_ne!(sibling.next_u64(), c3.next_u64());
    }

    #[test]
    fn jittered_stays_in_band() {
        let mut rng = SimRng::seed_from(42);
        for _ in 0..1000 {
            let v = rng.jittered(1000, 0.25);
            assert!((750..=1250).contains(&v), "got {v}");
        }
        assert_eq!(rng.jittered(0, 0.5), 0);
        assert_eq!(rng.jittered(500, 0.0), 500);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(42);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(250.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 250.0).abs() < 10.0, "mean was {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(42);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-3.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn index_bounds() {
        let mut rng = SimRng::seed_from(42);
        for _ in 0..100 {
            assert!(rng.index(3) < 3);
        }
    }

    #[test]
    fn unit_f64_is_in_range_and_varied() {
        let mut rng = SimRng::seed_from(7);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..1000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
            distinct.insert(u.to_bits());
        }
        assert!(distinct.len() > 990, "draws should rarely collide");
    }
}
