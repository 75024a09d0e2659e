//! Discrete layer selection with hysteresis and dwell timers.

use cm_util::{Duration, Rate, Time};

use crate::policy::{AdaptationPolicy, RateLadder};

/// Tuning for [`LadderPolicy`].
#[derive(Clone, Copy, Debug)]
pub struct LadderConfig {
    /// Headroom required to climb: the observed rate must cover the
    /// target level's cost times this factor (`>= 1`). `1.0` climbs the
    /// moment a level becomes affordable.
    pub up_headroom: f64,
    /// Drop threshold: drop to the affordable level only when the
    /// observed rate falls below the current level's cost times this
    /// factor (`<= 1`). `1.0` drops the moment the level stops fitting.
    pub down_headroom: f64,
    /// Minimum time since the last switch before climbing.
    pub up_dwell: Duration,
    /// Minimum time since the last switch before dropping.
    pub down_dwell: Duration,
}

impl LadderConfig {
    /// No hysteresis, no dwell: track the reported rate exactly — the
    /// paper's Figure 8/9 `layer_for` behaviour.
    pub fn immediate() -> Self {
        LadderConfig {
            up_headroom: 1.0,
            down_headroom: 1.0,
            up_dwell: Duration::ZERO,
            down_dwell: Duration::ZERO,
        }
    }

    /// A damped default: climb only with 15% headroom after 2 s at the
    /// current level, drop after 500 ms below 95% of the current cost.
    pub fn damped() -> Self {
        LadderConfig {
            up_headroom: 1.15,
            down_headroom: 0.95,
            up_dwell: Duration::from_secs(2),
            down_dwell: Duration::from_millis(500),
        }
    }
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig::damped()
    }
}

/// Quality-ladder selection with asymmetric hysteresis.
///
/// The decision rule, applied to each observation:
///
/// 1. Compute the highest level affordable at the observed rate with
///    [`LadderConfig::up_headroom`] applied (climbing target) and whether
///    the *current* level still fits within the rate divided by
///    [`LadderConfig::down_headroom`] (drop trigger).
/// 2. Climbs and drops each require their dwell timer — time since the
///    last switch in either direction — to have expired, bounding the
///    worst-case switch frequency to one per `min(up_dwell, down_dwell)`.
///
/// A fresh policy has no dwell history, so the very first observation may
/// switch immediately (the startup ramp is not delayed).
#[derive(Clone, Debug)]
pub struct LadderPolicy {
    ladder: RateLadder,
    cfg: LadderConfig,
    current: usize,
    last_switch: Option<Time>,
}

impl LadderPolicy {
    /// Creates a ladder policy starting at the lowest level.
    ///
    /// # Panics
    ///
    /// Panics if the headroom factors are out of range.
    pub fn new(ladder: RateLadder, cfg: LadderConfig) -> Self {
        assert!(
            cfg.up_headroom.is_finite() && cfg.up_headroom >= 1.0,
            "up_headroom must be >= 1"
        );
        assert!(
            cfg.down_headroom.is_finite() && cfg.down_headroom > 0.0 && cfg.down_headroom <= 1.0,
            "down_headroom must be in (0, 1]"
        );
        LadderPolicy {
            ladder,
            cfg,
            current: 0,
            last_switch: None,
        }
    }

    /// The immediate (hysteresis-free) configuration over `ladder`.
    pub fn immediate(ladder: RateLadder) -> Self {
        LadderPolicy::new(ladder, LadderConfig::immediate())
    }

    /// The currently selected level.
    pub fn current(&self) -> usize {
        self.current
    }

    fn dwell_ok(&self, now: Time, dwell: Duration) -> bool {
        match self.last_switch {
            None => true,
            Some(at) => now.since(at) >= dwell,
        }
    }
}

impl AdaptationPolicy for LadderPolicy {
    fn ladder(&self) -> &RateLadder {
        &self.ladder
    }

    fn decide(&mut self, now: Time, rate: Rate) -> usize {
        // The level the observed rate affords once climbing headroom is
        // charged; headroom 1.0 makes this the plain affordable level.
        let climb_target = self
            .ladder
            .highest_within_scaled(rate, 1.0 / self.cfg.up_headroom);
        if climb_target > self.current {
            if self.dwell_ok(now, self.cfg.up_dwell) {
                self.current = climb_target;
                self.last_switch = Some(now);
            }
            return self.current;
        }
        // Drop when the current level's cost no longer fits under the
        // down-headroom-scaled rate.
        let cur_cost = self.ladder.rate(self.current);
        let keep = crate::policy::scale_rate(rate, 1.0 / self.cfg.down_headroom) >= cur_cost;
        if !keep && self.current > 0 && self.dwell_ok(now, self.cfg.down_dwell) {
            // Fall to the plainly affordable level (no headroom on the
            // way down: the target must simply fit).
            self.current = self.ladder.highest_within(rate).min(self.current - 1);
            self.last_switch = Some(now);
        }
        self.current
    }

    fn name(&self) -> &'static str {
        "ladder"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_layers() -> RateLadder {
        RateLadder::new(vec![
            Rate::from_kbps(250),
            Rate::from_kbps(500),
            Rate::from_kbps(1000),
            Rate::from_kbps(2000),
        ])
    }

    #[test]
    fn immediate_tracks_rate_exactly() {
        let mut p = LadderPolicy::immediate(four_layers());
        let at = Time::from_secs(1);
        assert_eq!(p.decide(at, Rate::from_kbps(2500)), 3);
        assert_eq!(p.decide(at, Rate::from_kbps(600)), 1);
        assert_eq!(p.decide(at, Rate::from_kbps(100)), 0);
    }

    #[test]
    fn up_dwell_blocks_rapid_climb() {
        let cfg = LadderConfig {
            up_headroom: 1.0,
            down_headroom: 1.0,
            up_dwell: Duration::from_secs(2),
            down_dwell: Duration::ZERO,
        };
        let mut p = LadderPolicy::new(four_layers(), cfg);
        // First observation may climb freely (no switch history).
        assert_eq!(p.decide(Time::from_millis(0), Rate::from_kbps(600)), 1);
        // 1 s later the rate would afford level 3, but the dwell holds.
        assert_eq!(p.decide(Time::from_secs(1), Rate::from_kbps(2500)), 1);
        // After the dwell expires the climb goes through.
        assert_eq!(p.decide(Time::from_secs(3), Rate::from_kbps(2500)), 3);
    }

    #[test]
    fn down_switch_is_immediate_with_zero_dwell() {
        let mut p = LadderPolicy::immediate(four_layers());
        p.decide(Time::from_secs(1), Rate::from_kbps(2500));
        assert_eq!(p.current(), 3);
        assert_eq!(p.decide(Time::from_secs(1), Rate::from_kbps(300)), 0);
    }

    #[test]
    fn up_headroom_requires_margin() {
        let cfg = LadderConfig {
            up_headroom: 1.2,
            down_headroom: 1.0,
            up_dwell: Duration::ZERO,
            down_dwell: Duration::ZERO,
        };
        let mut p = LadderPolicy::new(four_layers(), cfg);
        // 550 kbps affords level 1 (500) outright but not with 20% margin.
        assert_eq!(p.decide(Time::from_secs(1), Rate::from_kbps(550)), 0);
        assert_eq!(p.decide(Time::from_secs(2), Rate::from_kbps(650)), 1);
    }

    #[test]
    fn down_headroom_tolerates_small_dips() {
        let cfg = LadderConfig {
            up_headroom: 1.0,
            down_headroom: 0.9,
            up_dwell: Duration::ZERO,
            down_dwell: Duration::ZERO,
        };
        let mut p = LadderPolicy::new(four_layers(), cfg);
        p.decide(Time::from_secs(1), Rate::from_kbps(1000));
        assert_eq!(p.current(), 2);
        // A dip to 950 is within the 10% tolerance band (950/0.9 > 1000).
        assert_eq!(p.decide(Time::from_secs(2), Rate::from_kbps(950)), 2);
        // A dip to 850 is not.
        assert_eq!(p.decide(Time::from_secs(3), Rate::from_kbps(850)), 1);
    }
}
