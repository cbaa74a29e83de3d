//! Virtual time.
//!
//! All schedulers in the reproduction reason in nanoseconds: the Xen credit
//! scheduler's 30 ms time slice, the guest's 1 ms tick, and the paper's
//! 20–26 µs scheduler-activation processing delay all need to coexist on one
//! timeline without losing resolution.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant on the virtual timeline, in nanoseconds since simulation start.
///
/// `SimTime` doubles as a duration type: the difference of two instants is
/// again a `SimTime`. This mirrors how scheduler code in Xen and Linux treats
/// `s_time_t` / `u64` nanoseconds and keeps arithmetic free of conversions.
///
/// # Example
///
/// ```
/// use irs_sim::SimTime;
///
/// let slice = SimTime::from_millis(30);
/// let tick = SimTime::from_millis(10);
/// assert_eq!(slice - tick, SimTime::from_millis(20));
/// assert_eq!(slice.as_micros(), 30_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the virtual timeline (also the zero duration).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanosecond value.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in seconds as a float (for reporting only — never for scheduling).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition; sticks at [`SimTime::MAX`] instead of wrapping.
    #[inline]
    pub const fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction; clamps at [`SimTime::ZERO`].
    #[inline]
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction: `None` if `rhs` is later than `self`.
    #[inline]
    pub const fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Multiplies a duration by a float factor, rounding to nearest ns.
    ///
    /// Used for cache-warmup penalties proportional to a workload's memory
    /// intensity. Negative factors clamp to zero.
    #[inline]
    pub fn scaled_f64(self, factor: f64) -> SimTime {
        if factor <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((self.0 as f64 * factor).round() as u64)
    }

    /// Ratio of two durations as a float; `0.0` when `rhs` is zero.
    #[inline]
    pub fn ratio(self, rhs: SimTime) -> f64 {
        if rhs.0 == 0 {
            0.0
        } else {
            self.0 as f64 / rhs.0 as f64
        }
    }

    /// True if this is the zero instant / zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl From<u64> for SimTime {
    #[inline]
    fn from(ns: u64) -> Self {
        SimTime(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(30).as_micros(), 30_000);
        assert_eq!(SimTime::from_micros(26).as_nanos(), 26_000);
        assert_eq!(SimTime::from_nanos(7).as_nanos(), 7);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_millis(30);
        let b = SimTime::from_millis(10);
        assert_eq!(a + b, SimTime::from_millis(40));
        assert_eq!(a - b, SimTime::from_millis(20));
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(40));
        c -= a;
        assert_eq!(c, b);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(SimTime::MAX.saturating_add(SimTime::from_nanos(1)), SimTime::MAX);
        assert_eq!(
            SimTime::from_nanos(5).saturating_sub(SimTime::from_nanos(9)),
            SimTime::ZERO
        );
    }

    #[test]
    fn checked_sub_detects_underflow() {
        assert_eq!(
            SimTime::from_nanos(5).checked_sub(SimTime::from_nanos(9)),
            None
        );
        assert_eq!(
            SimTime::from_nanos(9).checked_sub(SimTime::from_nanos(5)),
            Some(SimTime::from_nanos(4))
        );
    }

    #[test]
    fn scaled_f64_rounds_and_clamps() {
        assert_eq!(
            SimTime::from_nanos(100).scaled_f64(1.5),
            SimTime::from_nanos(150)
        );
        assert_eq!(SimTime::from_nanos(100).scaled_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn ratio_and_div() {
        assert!((SimTime::from_millis(15).ratio(SimTime::from_millis(30)) - 0.5).abs() < 1e-12);
        assert_eq!(SimTime::from_millis(15).ratio(SimTime::ZERO), 0.0);
    }

    #[test]
    fn display_uses_human_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(26).to_string(), "26.000us");
        assert_eq!(SimTime::from_millis(30).to_string(), "30.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn min_max_order() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
