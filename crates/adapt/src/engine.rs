//! The per-session adaptation engine: one policy plus its statistics.

use cm_util::{Rate, Time};

use crate::policy::AdaptationPolicy;
use crate::stats::AdaptationStats;

/// The outcome of one rate report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The level to transmit at from now on.
    pub level: usize,
    /// Whether this report changed the level.
    pub changed: bool,
}

/// One adaptation session: a boxed policy, the selected level, and
/// quality statistics.
///
/// The box is allocated once at construction; [`Engine::on_rate`] — the
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

    /// Feeds the rate the CM reports for the flow at `now` through the
    /// policy; returns the decision.
    ///
    /// Delivered utility is accounted as the held level's rate in KB/s
    /// (the natural "bytes of quality per second" curve) for every
    /// policy: a [`crate::UtilityPolicy`]'s own curve steers its choice
    /// but is not what the engine integrates.
    pub fn on_rate(&mut self, now: Time, rate: Rate) -> Decision {
        let utility = self.policy.ladder().rate(self.level).as_kbytes_per_sec();
        let new_level = self.policy.decide(now, rate);
        self.stats.on_observation(now, new_level, utility);
        let changed = new_level != self.level;
        self.level = new_level;
        Decision {
            level: new_level,
            changed,
        }
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
    use crate::utility::UtilityPolicy;

    fn ladder() -> RateLadder {
        RateLadder::new(vec![
            Rate::from_kbps(250),
            Rate::from_kbps(500),
            Rate::from_kbps(1000),
        ])
    }

    fn engine() -> Engine {
        Engine::new(Box::new(LadderPolicy::immediate(ladder())))
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
        // A log-utility policy is credited the same KB/s as a ladder:
        // its utility curve is not what the engine integrates.
        let log = Engine::new(Box::new(UtilityPolicy::log_utility(
            ladder(),
            1.0,
            1.0,
            0.0,
        )));
        for mut e in [engine(), log] {
            e.on_rate(Time::from_secs(0), Rate::from_kbps(600)); // → level 1
            e.on_rate(Time::from_secs(10), Rate::from_kbps(600));
            assert_eq!(e.level(), 1);
            // 10 s held at level 1 (500 kbps = 62.5 KB/s).
            assert!((e.stats().delivered_utility() - 625.0).abs() < 1e-6);
        }
    }
}
