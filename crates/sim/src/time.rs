//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant (or duration) of simulated time, in integer picoseconds.
///
/// A single type serves for both instants and durations, exactly like a raw
/// nanosecond counter would; the picosecond granularity lets the timing
/// calibration express sub-nanosecond rates (link serialization of single
/// bytes) without rounding drift. A `u64` of picoseconds covers ~213 days of
/// simulated time, far beyond any experiment in this repository.
///
/// # Example
///
/// ```
/// use tg_sim::SimTime;
/// let t = SimTime::from_us(7) + SimTime::from_ns(200);
/// assert_eq!(t.as_ns(), 7_200);
/// assert!((t.as_us_f64() - 7.2).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (simulation start) / the zero-length duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from a fractional count of microseconds, rounding to
    /// the nearest picosecond. Negative inputs saturate to zero.
    pub fn from_us_f64(us: f64) -> Self {
        SimTime((us * 1_000_000.0).round().max(0.0) as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional nanoseconds.
    pub(crate) fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Fractional milliseconds.
    pub(crate) fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_add(other.0).map(SimTime)
    }

    /// True if this is the zero instant/duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two times.
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics on overflow in all build profiles: a wrapped clock would
    /// silently schedule events in the past. Use [`SimTime::checked_add`]
    /// where overflow is an expected outcome (e.g. "infinite" deadlines).
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime addition overflowed"),
        )
    }
}

impl AddAssign for SimTime {
    /// # Panics
    ///
    /// Panics on overflow in all build profiles (see [`Add`]).
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}ps)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ns(7).as_ps(), 7_000);
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(SimTime::from_ps(999).as_ns(), 0);
    }

    #[test]
    fn fractional_constructors_round() {
        assert_eq!(SimTime::from_us_f64(0.7).as_ns(), 700);
        assert_eq!(SimTime::from_us_f64(-5.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(30);
        assert_eq!(a + b, SimTime::from_ns(130));
        assert_eq!(a - b, SimTime::from_ns(70));
        assert_eq!(a * 3, SimTime::from_ns(300));
        assert_eq!(a / 4, SimTime::from_ns(25));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    /// Regression test: addition must panic on overflow in every build
    /// profile instead of wrapping the clock into the past.
    #[test]
    #[should_panic(expected = "overflow")]
    fn add_overflow_panics() {
        let _ = SimTime::MAX + SimTime::from_ps(1);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_assign_overflow_panics() {
        let mut t = SimTime::MAX;
        t += SimTime::from_ps(1);
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_ps(5).to_string(), "5ps");
        assert_eq!(SimTime::from_ns(5).to_string(), "5.000ns");
        assert_eq!(SimTime::from_us(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_ms(5).to_string(), "5.000ms");
    }

    #[test]
    fn ordering_and_zero() {
        assert!(SimTime::from_ns(1) > SimTime::ZERO);
        assert!(SimTime::ZERO.is_zero());
        assert!(SimTime::MAX > SimTime::from_ms(1_000_000));
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_ps(1)), None);
    }
}
