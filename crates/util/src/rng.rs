//! Deterministic, splittable random number generation.
//!
//! Every source of randomness in the simulation (Dummynet loss, workload
//! jitter, proptest-driven scenarios) draws from a [`DetRng`] seeded by the
//! experiment harness, so a figure regenerated twice is bit-identical.
//!
//! The generator is SplitMix64: tiny, fast, passes BigCrush for the
//! sub-streams we need, and — crucially — *splittable*: each component of
//! the simulation gets an independent stream derived from its name, so
//! adding a new consumer of randomness does not perturb existing ones
//! (the "random stream stability" property simulation frameworks like ns-3
//! work hard to preserve).

use serde::{Deserialize, Serialize};

/// A deterministic SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use cm_util::DetRng;
///
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Substreams derived from distinct labels are independent.
/// let mut loss = DetRng::seed(42).split("dummynet-loss");
/// let mut jitter = DetRng::seed(42).split("app-jitter");
/// assert_ne!(loss.next_u64(), jitter.next_u64());
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Derives an independent substream tied to `label`.
    ///
    /// Uses an FNV-1a hash of the label mixed into the parent state; the
    /// parent is left untouched so split order does not matter.
    pub fn split(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        DetRng {
            state: mix(self.state ^ h),
        }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of entropy.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // simulation purposes and the method is branch-free.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range inverted");
        lo + self.next_bounded(hi - lo + 1)
    }

    /// A Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }
}

/// The SplitMix64 output mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_is_order_independent() {
        let root = DetRng::seed(99);
        let mut x1 = root.split("x");
        let _y = root.split("y");
        let mut x2 = root.split("x");
        assert_eq!(x1.next_u64(), x2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::seed(1);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut r = DetRng::seed(2);
        for _ in 0..10_000 {
            assert!(r.next_bounded(17) < 17);
        }
        for _ in 0..1_000 {
            let v = r.next_range(5, 9);
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn chance_statistics() {
        let mut r = DetRng::seed(3);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "frac={frac}");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn uniformity_coarse_buckets() {
        let mut r = DetRng::seed(5);
        let mut buckets = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            buckets[(r.next_f64() * 10.0) as usize] += 1;
        }
        for (i, &c) in buckets.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "bucket {i} frac={frac}");
        }
    }
}
