//! Token-bucket rate limiter.
//!
//! Used by the vat policer (paper §3.6, Figure 2) to preemptively drop
//! audio packets down to the rate the CM reports, and by the Dummynet-style
//! channel shaper. Tokens are measured in bytes and refill continuously at
//! the configured rate; the bucket depth bounds burst size.

use serde::{Deserialize, Serialize};

use crate::rate::Rate;
use crate::time::Time;

/// A byte-granularity token bucket.
///
/// # Examples
///
/// ```
/// use cm_util::{Rate, Time, TokenBucket};
/// use cm_util::time::Duration;
///
/// // 8 KB/s with a 1 KB burst.
/// let mut tb = TokenBucket::new(Rate::from_bytes_per_sec(8_000), 1_000);
/// let t0 = Time::ZERO;
/// assert!(tb.try_consume(1_000, t0));     // burst allowed
/// assert!(!tb.try_consume(1, t0));        // empty now
/// let t1 = t0 + Duration::from_millis(125); // refills 1000 bytes
/// assert!(tb.try_consume(1_000, t1));
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TokenBucket {
    rate: Rate,
    depth_bytes: u64,
    /// Current fill, in byte-nanoseconds*8 (bit-nanoseconds) to keep refill
    /// arithmetic exact; `tokens_bitns / 8e9` = bytes... stored instead as
    /// plain fractional bytes scaled by 2^20 for exactness and simplicity.
    tokens_scaled: u128,
    /// Remainder of the refill division, carried so that repeated small
    /// refills lose no tokens to truncation.
    refill_carry: u128,
    last_update: Time,
}

/// Fixed-point scale for fractional token counts (2^20 per byte).
const SCALE: u128 = 1 << 20;

impl TokenBucket {
    /// Creates a bucket that refills at `rate` and holds at most
    /// `depth_bytes`, starting full.
    pub fn new(rate: Rate, depth_bytes: u64) -> Self {
        TokenBucket {
            rate,
            depth_bytes,
            tokens_scaled: depth_bytes as u128 * SCALE,
            refill_carry: 0,
            last_update: Time::ZERO,
        }
    }

    /// Changes the refill rate (the policer does this on every CM rate
    /// callback). Accumulated tokens are preserved.
    pub fn set_rate(&mut self, rate: Rate, now: Time) {
        self.refill(now);
        self.rate = rate;
    }

    /// The current refill rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// The bucket depth in bytes.
    pub fn depth(&self) -> u64 {
        self.depth_bytes
    }

    /// Whole bytes currently available.
    pub fn available(&mut self, now: Time) -> u64 {
        self.refill(now);
        (self.tokens_scaled / SCALE) as u64
    }

    /// Attempts to consume `bytes`; returns whether the bucket had enough.
    pub fn try_consume(&mut self, bytes: u64, now: Time) -> bool {
        self.refill(now);
        let need = bytes as u128 * SCALE;
        if self.tokens_scaled >= need {
            self.tokens_scaled -= need;
            true
        } else {
            false
        }
    }

    fn refill(&mut self, now: Time) {
        if now <= self.last_update {
            return;
        }
        let dt_ns = now.since(self.last_update).as_nanos() as u128;
        self.last_update = now;
        // bytes = bps * ns / 8e9; keep SCALE factor for fractions and
        // carry the division remainder so truncation never accumulates.
        const DEN: u128 = 8 * 1_000_000_000;
        let num = self.rate.as_bps() as u128 * dt_ns * SCALE + self.refill_carry;
        let add = num / DEN;
        self.refill_carry = num % DEN;
        let cap = self.depth_bytes as u128 * SCALE;
        self.tokens_scaled = (self.tokens_scaled + add).min(cap);
        if self.tokens_scaled == cap {
            // A full bucket discards pending fractional refill.
            self.refill_carry = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full() {
        let mut tb = TokenBucket::new(Rate::from_kbps(64), 500);
        assert_eq!(tb.available(Time::ZERO), 500);
    }

    #[test]
    fn refills_at_rate() {
        // 64 Kbps = 8000 bytes/sec.
        let mut tb = TokenBucket::new(Rate::from_kbps(64), 8_000);
        assert!(tb.try_consume(8_000, Time::ZERO));
        assert_eq!(tb.available(Time::ZERO), 0);
        // After 500 ms, 4000 bytes are back.
        assert_eq!(tb.available(Time::from_millis(500)), 4_000);
        assert_eq!(tb.available(Time::from_secs(1)), 8_000);
        // Depth caps accumulation.
        assert_eq!(tb.available(Time::from_secs(100)), 8_000);
    }

    #[test]
    fn partial_consume_rejected_atomically() {
        let mut tb = TokenBucket::new(Rate::from_kbps(8), 100);
        assert!(!tb.try_consume(101, Time::ZERO));
        // Failed consume removes nothing.
        assert_eq!(tb.available(Time::ZERO), 100);
    }

    #[test]
    fn fractional_refill_accumulates() {
        // 1 byte/sec: after 1 ms we have 0 whole bytes but fractions pile up.
        let mut tb = TokenBucket::new(Rate::from_bytes_per_sec(1), 10);
        assert!(tb.try_consume(10, Time::ZERO));
        assert_eq!(tb.available(Time::from_millis(1)), 0);
        assert_eq!(tb.available(Time::from_millis(999)), 0);
        assert_eq!(tb.available(Time::from_secs(1)), 1);
    }

    #[test]
    fn set_rate_preserves_tokens() {
        let mut tb = TokenBucket::new(Rate::from_bytes_per_sec(1_000), 1_000);
        assert!(tb.try_consume(1_000, Time::ZERO));
        // Run at 1000 B/s for 0.5s -> 500 bytes.
        tb.set_rate(Rate::from_bytes_per_sec(2_000), Time::from_millis(500));
        // Then at 2000 B/s for 0.25s -> +500 bytes = 1000 total (capped).
        assert_eq!(tb.available(Time::from_millis(750)), 1_000);
    }

    #[test]
    fn time_never_goes_backwards() {
        let mut tb = TokenBucket::new(Rate::from_bytes_per_sec(100), 100);
        assert!(tb.try_consume(100, Time::from_secs(10)));
        // An out-of-order query must not panic or refill.
        assert_eq!(tb.available(Time::from_secs(5)), 0);
    }
}
