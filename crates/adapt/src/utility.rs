//! Smoothed utility maximization over a quality ladder.

use cm_util::{Ewma, Rate, Time};

use crate::policy::{AdaptationPolicy, RateLadder};

/// EWMA'd rate → utility-curve argmax with switch damping.
///
/// Each level has a utility; every observation updates an EWMA of the
/// reported rate, and the policy picks the highest-utility level whose
/// cost fits within the smoothed rate times a safety factor. Two damping
/// mechanisms keep the output stable under AIMD sawtooth input:
///
/// * the EWMA itself absorbs the per-RTT rate oscillation, and
/// * an *upward* switch must improve utility by at least the configured
///   margin (downward switches are never damped — an unaffordable level
///   must be left immediately).
#[derive(Clone, Debug)]
pub struct UtilityPolicy {
    ladder: RateLadder,
    utilities: Vec<f64>,
    smoothed: Ewma,
    safety: f64,
    switch_margin: f64,
    current: usize,
}

impl UtilityPolicy {
    /// Creates a utility policy with explicit per-level utilities.
    ///
    /// # Panics
    ///
    /// Panics if `utilities` is not one value per ladder level, is not
    /// nondecreasing, or the parameters are out of range.
    pub fn new(
        ladder: RateLadder,
        utilities: Vec<f64>,
        ewma_gain: f64,
        safety: f64,
        switch_margin: f64,
    ) -> Self {
        assert_eq!(
            utilities.len(),
            ladder.len(),
            "one utility per ladder level"
        );
        assert!(
            utilities.windows(2).all(|w| w[0] <= w[1]),
            "utilities must be nondecreasing (higher quality is not worse)"
        );
        assert!(
            safety.is_finite() && safety > 0.0 && safety <= 1.0,
            "safety must be in (0, 1]"
        );
        assert!(
            switch_margin.is_finite() && switch_margin >= 0.0,
            "switch_margin must be non-negative"
        );
        UtilityPolicy {
            ladder,
            utilities,
            smoothed: Ewma::new(ewma_gain),
            safety,
            switch_margin,
            current: 0,
        }
    }

    /// A logarithmic-utility policy: `u(i) = ln(1 + rate_i in kbps)`,
    /// the standard diminishing-returns curve for media quality.
    pub fn log_utility(ladder: RateLadder, ewma_gain: f64, safety: f64, margin: f64) -> Self {
        let utilities = ladder
            .as_slice()
            .iter()
            .map(|r| (1.0 + r.as_bps() as f64 / 1000.0).ln())
            .collect();
        UtilityPolicy::new(ladder, utilities, ewma_gain, safety, margin)
    }
}

impl AdaptationPolicy for UtilityPolicy {
    fn ladder(&self) -> &RateLadder {
        &self.ladder
    }

    fn decide(&mut self, _now: Time, rate: Rate) -> usize {
        let est = self.smoothed.update(rate.as_bps() as f64);
        let budget = Rate::from_bps((est * self.safety) as u64);
        // Utilities are nondecreasing in level, so the affordable argmax
        // is the highest affordable level — no scan over utilities
        // needed; the margin then decides whether moving up pays.
        let best = self.ladder.highest_within(budget);
        if best > self.current {
            if self.utilities[best] - self.utilities[self.current] >= self.switch_margin {
                self.current = best;
            }
        } else {
            // Downward (or equal): adopt unconditionally — staying on an
            // unaffordable level starves the flow.
            self.current = best;
        }
        self.current
    }

    fn name(&self) -> &'static str {
        "utility"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> RateLadder {
        RateLadder::linear(Rate::from_kbps(4), Rate::from_kbps(64), 16)
    }

    #[test]
    fn converges_to_affordable_level() {
        let mut p = UtilityPolicy::log_utility(grid(), 0.5, 1.0, 0.0);
        let mut level = 0;
        for i in 0..32 {
            level = p.decide(Time::from_millis(i * 20), Rate::from_kbps(32));
        }
        // 32 kbps sits at grid index 7 (4 + 4*7 = 32).
        assert_eq!(level, 7);
    }

    #[test]
    fn ewma_smooths_sawtooth() {
        // Rate alternates 24/36 kbps (mean 30): gain 0.2 keeps the
        // estimate near the mean, so the level stays put after warmup.
        let mut p = UtilityPolicy::log_utility(grid(), 0.2, 1.0, 0.0);
        for i in 0..50 {
            let r = if i % 2 == 0 { 24 } else { 36 };
            p.decide(Time::from_millis(i * 20), Rate::from_kbps(r));
        }
        let mut levels = Vec::new();
        for i in 50..70 {
            let r = if i % 2 == 0 { 24 } else { 36 };
            levels.push(p.decide(Time::from_millis(i * 20), Rate::from_kbps(r)));
        }
        let first = levels[0];
        assert!(
            levels.iter().all(|&l| l == first),
            "sawtooth leaked through the EWMA: {levels:?}"
        );
    }

    #[test]
    fn margin_damps_marginal_upswitches() {
        let ladder = RateLadder::new(vec![Rate::from_kbps(100), Rate::from_kbps(110)]);
        // Utility gain of the top level is tiny; a large margin pins the
        // policy at the bottom even when the top is affordable.
        let mut p = UtilityPolicy::new(ladder, vec![1.0, 1.01], 1.0, 1.0, 0.5);
        assert_eq!(p.decide(Time::from_secs(1), Rate::from_kbps(200)), 0);
    }

    #[test]
    fn unaffordable_level_abandoned_immediately() {
        let mut p = UtilityPolicy::log_utility(grid(), 1.0, 1.0, 0.0);
        p.decide(Time::from_secs(1), Rate::from_kbps(64));
        assert_eq!(p.decide(Time::from_secs(2), Rate::from_kbps(4)), 0);
    }

    #[test]
    fn safety_shrinks_budget() {
        let ladder = RateLadder::new(vec![Rate::from_kbps(50), Rate::from_kbps(100)]);
        let mut full = UtilityPolicy::log_utility(ladder.clone(), 1.0, 1.0, 0.0);
        let mut half = UtilityPolicy::log_utility(ladder, 1.0, 0.5, 0.0);
        let (now, rate) = (Time::from_secs(1), Rate::from_kbps(120));
        assert_eq!(full.decide(now, rate), 1);
        assert_eq!(half.decide(now, rate), 0); // 120 * 0.5 = 60 < 100.
    }
}
