//! Property-based tests for the cm-util primitives.

use cm_util::time::{Duration, Time};
use cm_util::{DetRng, Ewma, Rate, TokenBucket};
use proptest::prelude::*;

proptest! {
    /// transmit_time and bytes_in are inverse-consistent: sending the
    /// bytes that fit in a window never takes longer than the window.
    #[test]
    fn rate_bytes_in_transmit_time_consistent(
        bps in 1_000u64..10_000_000_000,
        window_us in 1u64..10_000_000,
    ) {
        let r = Rate::from_bps(bps);
        let w = Duration::from_micros(window_us);
        let b = r.bytes_in(w);
        if b > 0 {
            prop_assert!(r.transmit_time(b as usize) <= w);
            // And one more byte exceeds the window (allowing 1ns of
            // truncation slack in the fixed-point conversion).
            prop_assert!(r.transmit_time(b as usize + 1).as_nanos() + 1 >= w.as_nanos());
        }
    }

    /// Duration ratio multiplication never overflows and scales monotonically.
    #[test]
    fn duration_mul_ratio_monotone(
        ns in 0u64..u64::MAX / 2,
        num in 0u64..1000,
        den in 1u64..1000,
    ) {
        let d = Duration::from_nanos(ns);
        let scaled = d.mul_ratio(num, den);
        if num >= den {
            prop_assert!(scaled >= d.mul_ratio(num - num % den, den) || num < den);
        }
        // Identity ratio preserves the value.
        prop_assert_eq!(d.mul_ratio(7, 7), d);
    }

    /// EWMA output always lies between the min and max of inputs seen.
    #[test]
    fn ewma_bounded_by_inputs(
        gain in 0.01f64..1.0,
        samples in proptest::collection::vec(-1e6f64..1e6, 1..100),
    ) {
        let mut e = Ewma::new(gain);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &s in &samples {
            lo = lo.min(s);
            hi = hi.max(s);
            let v = e.update(s);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "v={v} lo={lo} hi={hi}");
        }
    }

    /// A token bucket never grants more than depth + rate*t bytes over any
    /// horizon (the fundamental shaping property).
    #[test]
    fn token_bucket_conservation(
        rate_bps in 8u64..1_000_000_000,
        depth in 1u64..100_000,
        draws in proptest::collection::vec((0u64..10_000, 0u64..50_000), 1..200),
    ) {
        let mut tb = TokenBucket::new(Rate::from_bps(rate_bps), depth);
        let mut now_ns = 0u64;
        let mut granted = 0u64;
        for (dt_us, req) in draws {
            now_ns += dt_us * 1000;
            if tb.try_consume(req, Time::from_nanos(now_ns)) {
                granted += req;
            }
        }
        // Upper bound: initial depth + refill over elapsed time (+1 byte
        // slack for fixed-point truncation).
        let max_refill = (rate_bps as u128 * now_ns as u128) / 8 / 1_000_000_000;
        prop_assert!(
            granted as u128 <= depth as u128 + max_refill + 1,
            "granted={granted} depth={depth} refill={max_refill}"
        );
    }

    /// Bounded RNG draws stay in range for arbitrary bounds.
    #[test]
    fn rng_bounded_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut r = DetRng::seed(seed);
        for _ in 0..64 {
            prop_assert!(r.next_bounded(bound) < bound);
        }
    }

    /// Splitting by the same label always yields the same stream.
    #[test]
    fn rng_split_deterministic(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let root = DetRng::seed(seed);
        let mut a = root.split(&label);
        let mut b = root.split(&label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
