//! Transmission rates in bits per second, with exact serialization-time
//! arithmetic.
//!
//! A [`Rate`] answers the two questions a link or pacer needs:
//! "how long does it take to serialize N bytes?" and "how many bytes fit in
//! a window of time T?". Both are computed in 128-bit integer arithmetic so
//! that, e.g., a 100 Mbps link transmits a 1500-byte frame in exactly
//! 120 000 ns every time.

use core::fmt;
use core::ops::{Div, Mul};

use serde::{Deserialize, Serialize};

use crate::time::Duration;

/// A data rate in bits per second.
///
/// # Examples
///
/// ```
/// use cm_util::{Duration, Rate};
///
/// let fast_ethernet = Rate::from_mbps(100);
/// // A full 1500-byte frame takes 120 microseconds on the wire.
/// assert_eq!(
///     fast_ethernet.transmit_time(1500),
///     Duration::from_micros(120),
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Rate(u64);

impl Rate {
    /// The zero rate (a stopped link).
    pub const ZERO: Rate = Rate(0);

    /// Creates a rate from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Creates a rate from kilobits per second (10^3 bits).
    pub const fn from_kbps(kbps: u64) -> Self {
        Rate(kbps * 1_000)
    }

    /// Creates a rate from megabits per second (10^6 bits).
    pub const fn from_mbps(mbps: u64) -> Self {
        Rate(mbps * 1_000_000)
    }

    /// Creates a rate from bytes per second.
    pub const fn from_bytes_per_sec(bytes: u64) -> Self {
        Rate(bytes * 8)
    }

    /// The rate a window of `bytes` sustained over `period` corresponds to.
    ///
    /// Returns [`Rate::ZERO`] if `period` is zero (no information yet).
    pub fn from_window(bytes: u64, period: Duration) -> Self {
        if period.is_zero() {
            return Rate::ZERO;
        }
        // As in `transmit_time`: the u64 quotient of the same product is
        // the same number, and only a product past 2^64 needs u128.
        if let Some(bit_ns) = bytes.checked_mul(8_000_000_000) {
            return Rate(bit_ns / period.as_nanos());
        }
        let bits = bytes as u128 * 8 * 1_000_000_000;
        Rate((bits / period.as_nanos() as u128).min(u64::MAX as u128) as u64)
    }

    /// The rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// The rate in bytes per second (truncating).
    pub const fn as_bytes_per_sec(self) -> u64 {
        self.0 / 8
    }

    /// The rate in kilobytes per second, as the paper's figures plot
    /// ("Rate (in KBps)").
    pub fn as_kbytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0 / 1_000.0
    }

    /// Returns true if this is the zero rate.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Time to serialize `bytes` bytes at this rate.
    ///
    /// Returns [`Duration::MAX`] for the zero rate, so callers can treat a
    /// stopped link as "never completes" without a special case.
    pub fn transmit_time(self, bytes: usize) -> Duration {
        if self.0 == 0 {
            return Duration::MAX;
        }
        // The u64 quotient of the same product is the same number; only a
        // product past 2^64 needs the 128-bit division.
        if let Some(bit_ns) = u64::try_from(bytes)
            .ok()
            .and_then(|b| b.checked_mul(8_000_000_000))
        {
            return Duration::from_nanos(bit_ns / self.0);
        }
        let bits = bytes as u128 * 8;
        let ns = bits * 1_000_000_000 / self.0 as u128;
        Duration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// How many whole bytes can be sent in `window` at this rate.
    pub fn bytes_in(self, window: Duration) -> u64 {
        let bits = self.0 as u128 * window.as_nanos() as u128 / 1_000_000_000;
        ((bits / 8).min(u64::MAX as u128)) as u64
    }

    /// Saturating addition of two rates.
    pub const fn saturating_add(self, other: Rate) -> Rate {
        Rate(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction of two rates.
    pub const fn saturating_sub(self, other: Rate) -> Rate {
        Rate(self.0.saturating_sub(other.0))
    }

    /// Scales the rate by a rational factor `num/den`, exactly: in 64-bit
    /// arithmetic when `self * num` fits, in 128-bit otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn mul_ratio(self, num: u64, den: u64) -> Rate {
        assert!(den != 0, "mul_ratio denominator must be non-zero");
        if let Some(product) = self.0.checked_mul(num) {
            return Rate(product / den);
        }
        Rate(((self.0 as u128 * num as u128) / den as u128).min(u64::MAX as u128) as u64)
    }

    /// Returns the smaller of two rates.
    pub fn min(self, other: Rate) -> Rate {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two rates.
    pub fn max(self, other: Rate) -> Rate {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Mul<u64> for Rate {
    type Output = Rate;
    fn mul(self, rhs: u64) -> Rate {
        Rate(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Rate {
    type Output = Rate;
    fn div(self, rhs: u64) -> Rate {
        Rate(self.0 / rhs)
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}Mbps", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}Kbps", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Rate::from_mbps(1), Rate::from_kbps(1000));
        assert_eq!(Rate::from_kbps(1), Rate::from_bps(1000));
        assert_eq!(Rate::from_bytes_per_sec(125), Rate::from_kbps(1));
    }

    #[test]
    fn transmit_time_exact() {
        // 1500 bytes at 100 Mbps = 120us exactly.
        assert_eq!(
            Rate::from_mbps(100).transmit_time(1500),
            Duration::from_micros(120)
        );
        // 1 byte at 8 bps = 1 second.
        assert_eq!(Rate::from_bps(8).transmit_time(1), Duration::from_secs(1));
    }

    #[test]
    fn transmit_time_zero_rate_is_never() {
        assert_eq!(Rate::ZERO.transmit_time(1), Duration::MAX);
    }

    #[test]
    fn bytes_in_window() {
        // 10 Mbps for 1 second = 1.25 MB.
        assert_eq!(
            Rate::from_mbps(10).bytes_in(Duration::from_secs(1)),
            1_250_000
        );
        // Sub-byte amounts truncate.
        assert_eq!(Rate::from_bps(7).bytes_in(Duration::from_secs(1)), 0);
    }

    #[test]
    fn from_window_inverts_bytes_in() {
        let r = Rate::from_window(1_250_000, Duration::from_secs(1));
        assert_eq!(r, Rate::from_mbps(10));
        assert_eq!(Rate::from_window(100, Duration::ZERO), Rate::ZERO);
    }

    /// The u64 path agrees with the u128 division it skips, on both sides
    /// of the largest byte count whose bit-nanosecond product fits.
    #[test]
    fn from_window_u64_path_matches_u128_division() {
        let wide = |bytes: u64, period: Duration| {
            let bits = bytes as u128 * 8 * 1_000_000_000;
            Rate((bits / period.as_nanos() as u128).min(u64::MAX as u128) as u64)
        };
        let edge = u64::MAX / 8_000_000_000;
        let periods = [1, 3, 999, 1_000_000_007, 86_400_000_000_000, u64::MAX];
        for bytes in [0, 1, 1460, edge - 1, edge, edge + 1, u64::MAX / 2, u64::MAX] {
            for ns in periods {
                let period = Duration::from_nanos(ns);
                assert_eq!(
                    Rate::from_window(bytes, period),
                    wide(bytes, period),
                    "{bytes} B over {ns} ns"
                );
            }
        }
        assert!(edge.checked_mul(8_000_000_000).is_some());
        assert!((edge + 1).checked_mul(8_000_000_000).is_none());
    }

    #[test]
    fn kbps_presentation() {
        // 2000 KBps = 16 Mbps.
        let r = Rate::from_mbps(16);
        assert!((r.as_kbytes_per_sec() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_scaling() {
        let r = Rate::from_mbps(10);
        assert_eq!(r.mul_ratio(1, 2), Rate::from_mbps(5));
        assert_eq!(r.mul_ratio(3, 2), Rate::from_mbps(15));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Rate::from_mbps(100)), "100.000Mbps");
        assert_eq!(format!("{}", Rate::from_kbps(64)), "64.000Kbps");
        assert_eq!(format!("{}", Rate::from_bps(99)), "99bps");
    }
}
