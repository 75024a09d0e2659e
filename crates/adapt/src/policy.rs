//! The policy trait and the shared quality-ladder vocabulary.

use cm_util::{Rate, Time};

/// A discrete quality ladder: the cumulative rate cost of transmitting at
/// each quality level, lowest first.
///
/// Every shipped policy selects *an index into a ladder*; applications
/// map the index back to layers, codecs, or response variants.
#[derive(Clone, Debug)]
pub struct RateLadder {
    rates: Vec<Rate>,
}

impl RateLadder {
    /// Creates a ladder from nondecreasing cumulative rates.
    ///
    /// # Panics
    ///
    /// Panics if `rates` is empty or not sorted ascending.
    pub fn new(rates: Vec<Rate>) -> Self {
        assert!(!rates.is_empty(), "a ladder needs at least one level");
        assert!(
            rates.windows(2).all(|w| w[0] <= w[1]),
            "ladder rates must be nondecreasing"
        );
        RateLadder { rates }
    }

    /// An evenly spaced ladder of `levels` rates from `lo` to `hi`
    /// inclusive (for policies quantizing a continuous control, like the
    /// vat policer).
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` or `hi < lo`.
    pub fn linear(lo: Rate, hi: Rate, levels: usize) -> Self {
        assert!(levels >= 2, "a linear ladder needs at least two levels");
        assert!(hi >= lo, "linear ladder needs hi >= lo");
        let span = hi.as_bps() - lo.as_bps();
        let rates = (0..levels)
            .map(|i| Rate::from_bps(lo.as_bps() + span * i as u64 / (levels as u64 - 1)))
            .collect();
        RateLadder::new(rates)
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Always false: the constructors reject empty ladders (provided to
    /// satisfy the `len`/`is_empty` API convention).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The cumulative rate cost of level `i`.
    pub fn rate(&self, i: usize) -> Rate {
        self.rates[i]
    }

    /// All level rates, lowest first.
    pub fn as_slice(&self) -> &[Rate] {
        &self.rates
    }

    /// The highest level whose cost fits within `budget`; level 0 if even
    /// the lowest does not fit (there is always *something* to send).
    pub fn highest_within(&self, budget: Rate) -> usize {
        // Ladders are short (a handful of layers); a linear scan beats a
        // binary search at these sizes and allocates nothing.
        let mut level = 0;
        for (i, &r) in self.rates.iter().enumerate() {
            if budget >= r {
                level = i;
            }
        }
        level
    }

    /// [`RateLadder::highest_within`] against `budget` scaled by
    /// `factor` (used for headroom/safety margins).
    pub fn highest_within_scaled(&self, budget: Rate, factor: f64) -> usize {
        let scaled = scale_rate(budget, factor);
        self.highest_within(scaled)
    }
}

/// Scales a rate by a (small, non-negative) float factor, saturating.
pub(crate) fn scale_rate(rate: Rate, factor: f64) -> Rate {
    debug_assert!(factor.is_finite() && factor >= 0.0);
    let bps = rate.as_bps() as f64 * factor;
    Rate::from_bps(if bps >= u64::MAX as f64 {
        u64::MAX
    } else {
        bps as u64
    })
}

/// A content-adaptation policy: a (possibly stateful) map from the rates
/// the CM reports to quality levels on a fixed ladder.
///
/// Implementations must keep [`AdaptationPolicy::decide`] free of heap
/// allocation — it runs on the CM's callback path, which follows the
/// flat-state rules of `docs/perf.md`.
pub trait AdaptationPolicy {
    /// The quality ladder this policy selects over.
    fn ladder(&self) -> &RateLadder;

    /// Consumes the flow's sustainable `rate` as the CM reports it at
    /// `now` (`cm_query` / `cmapp_update`) and returns the level to
    /// transmit at.
    ///
    /// Policies are free to return the current level (no switch); the
    /// [`crate::Engine`] tracks switch statistics around this call.
    fn decide(&mut self, now: Time, rate: Rate) -> usize;

    /// Human-readable policy name for experiment output.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_within_picks_affordable_level() {
        let l = RateLadder::new(vec![
            Rate::from_kbps(250),
            Rate::from_kbps(500),
            Rate::from_kbps(1000),
        ]);
        assert_eq!(l.highest_within(Rate::from_kbps(100)), 0);
        assert_eq!(l.highest_within(Rate::from_kbps(250)), 0);
        assert_eq!(l.highest_within(Rate::from_kbps(600)), 1);
        assert_eq!(l.highest_within(Rate::from_kbps(5000)), 2);
    }

    #[test]
    fn linear_ladder_spans_range() {
        let l = RateLadder::linear(Rate::from_kbps(4), Rate::from_kbps(64), 16);
        assert_eq!(l.len(), 16);
        assert_eq!(l.rate(0), Rate::from_kbps(4));
        assert_eq!(l.rate(15), Rate::from_kbps(64));
    }

    #[test]
    fn scaled_budget_applies_headroom() {
        let l = RateLadder::new(vec![Rate::from_kbps(100), Rate::from_kbps(200)]);
        // 210 kbps affords level 1 outright but not with 1.2x headroom.
        assert_eq!(l.highest_within(Rate::from_kbps(210)), 1);
        assert_eq!(l.highest_within_scaled(Rate::from_kbps(210), 1.0 / 1.2), 0);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn unsorted_ladder_rejected() {
        let _ = RateLadder::new(vec![Rate::from_kbps(500), Rate::from_kbps(250)]);
    }
}
