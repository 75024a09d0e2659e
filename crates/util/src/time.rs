//! Simulated time: nanosecond-resolution instants and durations.
//!
//! The simulator needs its own notion of time, divorced from the wall
//! clock, so that experiments are deterministic and can run faster (or
//! slower) than real time. [`Time`] is an instant measured from the start
//! of the simulation; [`Duration`] is a span between instants. Both wrap a
//! `u64` count of nanoseconds, giving ~584 years of range — far beyond any
//! experiment in the paper.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use cm_util::Duration;
///
/// let rtt = Duration::from_millis(60);
/// assert_eq!(rtt.as_micros(), 60_000);
/// assert_eq!(rtt / 2, Duration::from_millis(30));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable duration; used as an "infinite" timeout.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Duration::ZERO;
        }
        Duration((s * 1e9).round() as u64)
    }

    /// Returns the duration as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns true if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: clamps at [`Duration::MAX`].
    pub const fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Multiplies by a rational factor `num/den`, exactly: in 64-bit
    /// arithmetic when `self * num` fits, in 128-bit otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn mul_ratio(self, num: u64, den: u64) -> Duration {
        assert!(den != 0, "mul_ratio denominator must be non-zero");
        if let Some(product) = self.0.checked_mul(num) {
            return Duration(product / den);
        }
        let v = (self.0 as u128 * num as u128) / den as u128;
        Duration(v.min(u64::MAX as u128) as u64)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Clamps this duration into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Duration, hi: Duration) -> Duration {
        assert!(lo <= hi, "clamp bounds inverted");
        self.max(lo).min(hi)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = f64;
    /// Ratio of two durations, as used in utilization computations.
    fn div(self, rhs: Duration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

/// An instant in simulated time, measured from simulation start.
///
/// # Examples
///
/// ```
/// use cm_util::{Duration, Time};
///
/// let t0 = Time::ZERO;
/// let t1 = t0 + Duration::from_millis(500);
/// assert_eq!(t1 - t0, Duration::from_millis(500));
/// assert!(t1 > t0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Time(u64);

impl Time {
    /// The start of simulated time.
    pub const ZERO: Time = Time(0);
    /// The end of simulated time; used as an "never" sentinel for timers.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Creates an instant from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Creates an instant from seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration since an earlier instant, or zero if `earlier` is in
    /// the future (saturating).
    pub const fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub const fn saturating_add(self, d: Duration) -> Time {
        Time(self.0.saturating_add(d.as_nanos()))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.as_nanos())
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration::from_nanos(self.0 - rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Duration(self.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1000));
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(10);
        let b = Duration::from_millis(4);
        assert_eq!(a + b, Duration::from_millis(14));
        assert_eq!(a - b, Duration::from_millis(6));
        assert_eq!(a * 3, Duration::from_millis(30));
        assert_eq!(a / 2, Duration::from_millis(5));
        assert!((a / b - 2.5).abs() < 1e-12);
    }

    #[test]
    fn duration_saturating() {
        let a = Duration::from_millis(1);
        let b = Duration::from_millis(2);
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(Duration::MAX.saturating_add(a), Duration::MAX);
    }

    #[test]
    fn duration_mul_ratio_avoids_overflow() {
        let big = Duration::from_secs(1_000_000);
        // 10^15 ns * 3 would overflow u64 * without widening.
        let r = big.mul_ratio(3_000_000_000, 1_000_000_000);
        assert_eq!(r, Duration::from_secs(3_000_000));
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn duration_mul_ratio_zero_den_panics() {
        let _ = Duration::from_secs(1).mul_ratio(1, 0);
    }

    #[test]
    fn duration_clamp() {
        let lo = Duration::from_millis(200);
        let hi = Duration::from_secs(120);
        assert_eq!(Duration::from_millis(5).clamp(lo, hi), lo);
        assert_eq!(Duration::from_secs(500).clamp(lo, hi), hi);
        assert_eq!(Duration::from_secs(1).clamp(lo, hi), Duration::from_secs(1));
    }

    #[test]
    fn time_ordering_and_since() {
        let t0 = Time::from_millis(100);
        let t1 = Time::from_millis(250);
        assert!(t1 > t0);
        assert_eq!(t1.since(t0), Duration::from_millis(150));
        assert_eq!(t0.since(t1), Duration::ZERO);
        assert_eq!(t1 - t0, Duration::from_millis(150));
    }

    #[test]
    fn time_display_formats() {
        assert_eq!(format!("{}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Duration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Duration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Duration::from_secs(12)), "12.000s");
    }
}
