//! The per-session adaptation engine: one policy plus its statistics.

use cm_util::{Rate, Time};

use crate::policy::{AdaptationPolicy, Observation};
use crate::stats::AdaptationStats;

/// The outcome of one observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The level to transmit at from now on.
    pub level: usize,
    /// Whether this observation changed the level.
    pub changed: bool,
}

/// One adaptation session: a boxed policy, the selected level, and
/// quality statistics.
///
/// The box is allocated once at construction; [`Engine::observe`] — the
/// code that runs inside every CM rate callback — performs no heap
/// allocation (see `tests/no_alloc.rs`).
pub struct Engine {
    policy: Box<dyn AdaptationPolicy>,
    stats: AdaptationStats,
    level: usize,
}

impl Engine {
    /// Creates an engine around `policy`, starting at level 0.
    pub fn new(policy: Box<dyn AdaptationPolicy>) -> Self {
        let levels = policy.ladder().len();
        Engine {
            policy,
            stats: AdaptationStats::new(levels),
            level: 0,
        }
    }

    /// Feeds one observation through the policy; returns the decision.
    ///
    /// Delivered utility is accounted as the held level's rate in KB/s
    /// (the natural "bytes of quality per second" curve) unless the
    /// policy is a [`crate::UtilityPolicy`], whose explicit curve the
    /// caller can integrate separately.
    pub fn observe(&mut self, obs: &Observation) -> Decision {
        let utility = self.policy.ladder().rate(self.level).as_kbytes_per_sec();
        let new_level = self.policy.decide(obs);
        self.stats.on_observation(obs.now, new_level, utility);
        let changed = new_level != self.level;
        self.level = new_level;
        Decision {
            level: new_level,
            changed,
        }
    }

    /// Convenience for the common CM-callback shape: a rate-only
    /// observation.
    pub fn on_rate(&mut self, now: Time, rate: Rate) -> Decision {
        self.observe(&Observation::rate_only(now, rate))
    }

    /// The currently selected level.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The rate cost of the currently selected level.
    pub fn level_rate(&self) -> Rate {
        self.policy.ladder().rate(self.level)
    }

    /// Number of levels on the policy's ladder.
    pub fn levels(&self) -> usize {
        self.policy.ladder().len()
    }

    /// Session statistics so far.
    pub fn stats(&self) -> &AdaptationStats {
        &self.stats
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("policy", &self.policy.name())
            .field("level", &self.level)
            .field("switches", &self.stats.switches)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::LadderPolicy;
    use crate::policy::RateLadder;

    fn engine() -> Engine {
        Engine::new(Box::new(LadderPolicy::immediate(RateLadder::new(vec![
            Rate::from_kbps(250),
            Rate::from_kbps(500),
            Rate::from_kbps(1000),
        ]))))
    }

    #[test]
    fn decisions_flow_through_and_are_tracked() {
        let mut e = engine();
        let d = e.on_rate(Time::from_secs(1), Rate::from_kbps(600));
        assert_eq!(
            d,
            Decision {
                level: 1,
                changed: true
            }
        );
        let d = e.on_rate(Time::from_secs(2), Rate::from_kbps(600));
        assert_eq!(
            d,
            Decision {
                level: 1,
                changed: false
            }
        );
        let d = e.on_rate(Time::from_secs(3), Rate::from_kbps(2000));
        assert!(d.changed);
        assert_eq!(e.level(), 2);
        assert_eq!(e.level_rate(), Rate::from_kbps(1000));
        assert_eq!(e.stats().switches, 2);
        assert_eq!(e.stats().switches_up, 2);
    }

    #[test]
    fn utility_integral_accumulates_level_rate() {
        let mut e = engine();
        e.on_rate(Time::from_secs(0), Rate::from_kbps(600)); // → level 1
        e.on_rate(Time::from_secs(10), Rate::from_kbps(600));
        // 10 s held at level 1 (500 kbps = 62.5 KB/s).
        assert!((e.stats().delivered_utility() - 625.0).abs() < 1e-6);
    }
}
