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

// ---------------------------------------------------------------------
// u64 fast paths vs. the 128-bit formulas
// ---------------------------------------------------------------------

/// `Rate::mul_ratio` and `Duration::mul_ratio` as they were: always in
/// 128 bits, saturating.
fn ratio_u128(v: u64, num: u64, den: u64) -> u64 {
    ((v as u128 * num as u128) / den as u128).min(u64::MAX as u128) as u64
}

/// `Rate::transmit_time` as it was, in nanoseconds.
fn transmit_u128(bytes: u64, bps: u64) -> u64 {
    if bps == 0 {
        return u64::MAX;
    }
    (bytes as u128 * 8 * 1_000_000_000 / bps as u128).min(u64::MAX as u128) as u64
}

/// Values where 64-bit multiplication changes behaviour.
const EDGES: [u64; 7] = [0, 1, 2, u32::MAX as u64, 1 << 32, u64::MAX - 1, u64::MAX];

/// A factor drawn by `kind`: small (products fit), anything (products
/// mostly overflow), an edge value.
fn factor(kind: u8, x: u64) -> u64 {
    match kind % 3 {
        0 => x >> 32,
        1 => x,
        _ => EDGES[(x % EDGES.len() as u64) as usize],
    }
}

/// The partner of `a` drawn by `kind`: kinds 0-2 as [`factor`], 3 the
/// largest `b` with `a * b` below 2^64, 4 the smallest above it.
fn partner(kind: u8, a: u64, y: u64) -> u64 {
    let fit = u64::MAX / a.max(1);
    match kind {
        3 => fit,
        4 => fit.saturating_add(1),
        k => factor(k, y),
    }
}

/// Checks the three functions at one operand triple.
fn fast_paths_agree(
    v: u64,
    num: u64,
    den: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let den = den.max(1);
    let want = ratio_u128(v, num, den);
    prop_assert_eq!(Rate::from_bps(v).mul_ratio(num, den).as_bps(), want);
    prop_assert_eq!(Duration::from_nanos(v).mul_ratio(num, den).as_nanos(), want);
    let bytes = num as usize;
    prop_assert_eq!(
        Rate::from_bps(v).transmit_time(bytes).as_nanos(),
        transmit_u128(num, v)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_096))]

    /// The u64 fast paths of `mul_ratio` and `transmit_time` return
    /// exactly what the 128-bit formulas do, for small and large
    /// operands, edge values, and products just below and just above
    /// 2^64 (for `transmit_time` the product is `bytes * 8e9`).
    #[test]
    fn u64_fast_paths_match_the_u128_formulas(
        kind in 0u8..5,
        x in any::<u64>(),
        y in any::<u64>(),
        den_kind in 0u8..3,
        d in any::<u64>(),
    ) {
        let v = factor(kind, x).max(u64::from(kind >= 3));
        let den = factor(den_kind, d);
        fast_paths_agree(v, partner(kind, v, y), den)?;
        // transmit_time's product is bytes * 8e9.
        let bytes = partner(kind, 8_000_000_000, y);
        fast_paths_agree(v, bytes, den)?;
    }
}

/// Every combination of edge values and their 2^64 boundaries.
#[test]
fn u64_fast_paths_match_at_the_edges() {
    let mut values = EDGES.to_vec();
    for a in [3, 7, 8_000_000_000, 1 << 33, u32::MAX as u64] {
        values.extend([u64::MAX / a, u64::MAX / a + 1]);
    }
    for &v in &values {
        for &num in &values {
            for &den in &values {
                fast_paths_agree(v, num, den).unwrap();
            }
        }
    }
}
