//! Summary statistics and paper-derived quantities.

/// The mean of a sample set.
///
/// # Example
///
/// ```
/// use irs_metrics::Summary;
///
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
}

impl Summary {
    /// Summarizes `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        Summary { mean }
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`). Selects the rank in one
/// copy of the samples in linear time rather than sorting it: the serving
/// tables take three percentiles of ~50k pooled latencies per row.
///
/// Returns NaN for an empty slice — a percentile of nothing is not a
/// number, and 0.0 would render as a *perfect* p99 in a latency table.
/// [`crate::Table`] renders NaN cells as `—`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any sample is NaN.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    assert!(!samples.iter().any(|x| x.is_nan()), "NaN sample");
    if samples.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let mut copy = samples.to_vec();
    let k = rank.saturating_sub(1).min(copy.len() - 1);
    *copy.select_nth_unstable_by(k, f64::total_cmp).1
}

/// Performance improvement of `new` over `baseline` in percent, where the
/// metric is a *cost* (runtime, latency): lower is better.
///
/// `improvement_pct(100.0, 58.0) == 42.0` — the paper's "42% improvement".
///
/// Returns 0 when the baseline is not positive.
pub fn improvement_pct(baseline_cost: f64, new_cost: f64) -> f64 {
    if baseline_cost <= 0.0 {
        return 0.0;
    }
    (baseline_cost - new_cost) / baseline_cost * 100.0
}

/// Slowdown factor of `cost` relative to `reference_cost` (Fig 1a's y-axis).
///
/// Returns 0 when the reference is not positive.
pub fn slowdown(reference_cost: f64, cost: f64) -> f64 {
    if reference_cost <= 0.0 {
        return 0.0;
    }
    cost / reference_cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_zeroed() {
        assert_eq!(Summary::of(&[]).mean, 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 0.0), 15.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [50.0, 15.0, 40.0, 20.0, 35.0];
        assert_eq!(percentile(&v, 50.0), 35.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_bad_p() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn percentile_matches_sorted_reference() {
        // The nearest-rank element of a full sort, on random samples with
        // many duplicates, at every length from 1 up.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in 1..=300 {
            let samples: Vec<f64> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 40) as f64 * 0.25
                })
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            for p in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
                let rank = ((p / 100.0) * len as f64).ceil() as usize;
                let want = sorted[rank.saturating_sub(1).min(len - 1)];
                assert_eq!(percentile(&samples, p), want, "len {len}, p{p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn percentile_rejects_nan_samples() {
        percentile(&[3.0, f64::NAN, 1.0], 50.0);
    }

    #[test]
    fn improvement_matches_paper_arithmetic() {
        assert!((improvement_pct(100.0, 58.0) - 42.0).abs() < 1e-12);
        assert!((improvement_pct(100.0, 146.0) + 46.0).abs() < 1e-12);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn slowdown_is_a_ratio() {
        assert!((slowdown(10.0, 25.0) - 2.5).abs() < 1e-12);
        assert_eq!(slowdown(0.0, 25.0), 0.0);
    }
}
