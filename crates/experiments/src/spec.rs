//! The declarative experiment specification.
//!
//! An [`Experiment`] names everything a sweep figure needs to be
//! regenerated from scratch: the application under test, the bandwidth
//! schedules it faces, the policy/controller sweep axes, and the run
//! geometry (duration, seeds). The runner expands the spec into its
//! cartesian cell grid and executes every cell on `cm-netsim`, so the
//! same spec always reproduces the same bytes. The figure's name and its
//! mapping onto the paper live on [`crate::builtin::Figure`].

use cm_adapt::{Engine, LadderConfig, LadderPolicy, RateLadder, UtilityPolicy};
use cm_apps::layered::LayeredStreamer;
use cm_core::config::ControllerKind;
use cm_netsim::schedule::BandwidthSchedule;

/// Which adaptation policy a cell drives (config shorthand for the
/// quality/oscillation comparison).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdaptPolicyKind {
    /// Hysteresis-free ladder (the paper's Figure 8/9 behaviour).
    LadderImmediate,
    /// Ladder with headroom and dwell damping.
    LadderDamped,
    /// EWMA'd utility argmax.
    Utility,
}

impl AdaptPolicyKind {
    /// Every shipped policy kind, sweep-axis order.
    pub const ALL: [AdaptPolicyKind; 3] = [
        AdaptPolicyKind::LadderImmediate,
        AdaptPolicyKind::LadderDamped,
        AdaptPolicyKind::Utility,
    ];

    /// Builds an engine for this policy over the layered streamer's
    /// default four-layer ladder.
    pub fn engine(self) -> Engine {
        let ladder = RateLadder::new(LayeredStreamer::default_layers());
        match self {
            AdaptPolicyKind::LadderImmediate => {
                Engine::new(Box::new(LadderPolicy::immediate(ladder)))
            }
            AdaptPolicyKind::LadderDamped => {
                Engine::new(Box::new(LadderPolicy::new(ladder, LadderConfig::damped())))
            }
            AdaptPolicyKind::Utility => Engine::new(Box::new(UtilityPolicy::log_utility(
                ladder, 0.25, 0.95, 0.1,
            ))),
        }
    }

    /// Stable label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            AdaptPolicyKind::LadderImmediate => "immediate",
            AdaptPolicyKind::LadderDamped => "damped",
            AdaptPolicyKind::Utility => "utility",
        }
    }
}

/// A schedule plus the name it carries through every emitter.
#[derive(Clone, Debug)]
pub struct NamedSchedule {
    /// Stable name (used in CSV/dat/markdown rows).
    pub name: String,
    /// The bottleneck's rate over time.
    pub schedule: BandwidthSchedule,
}

impl NamedSchedule {
    /// Convenience constructor.
    pub fn new(name: &str, schedule: BandwidthSchedule) -> Self {
        NamedSchedule {
            name: name.to_string(),
            schedule,
        }
    }
}

/// Which application a cell runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppKind {
    /// The four-layer streamer (Figures 8-10); sweeps the policy axis.
    Layered,
    /// The vat audio policer (its 16-level utility grid is fixed by the
    /// app, so the policy axis is ignored).
    Vat,
    /// The §3.5 co-scheduling pair: a weighted web transfer and a
    /// layered streamer sharing one macroflow under a weighted
    /// scheduler (fixed policies, so the policy axis is ignored).
    CoSchedule,
}

impl AppKind {
    /// Whether the app fixes its own adaptation policy, collapsing the
    /// policy sweep axis to one cell group (matching the runner).
    pub fn fixed_policy(self) -> bool {
        matches!(self, AppKind::Vat | AppKind::CoSchedule)
    }
}

/// A declarative experiment: the full cartesian sweep one figure runs.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Application under test.
    pub app: AppKind,
    /// Bandwidth schedules (one cell group per schedule).
    pub schedules: Vec<NamedSchedule>,
    /// Adaptation policies to sweep (layered app only; must be
    /// non-empty — use one entry for a fixed-policy figure).
    pub policies: Vec<AdaptPolicyKind>,
    /// Congestion controllers to sweep (non-empty).
    pub controllers: Vec<ControllerKind>,
    /// Simulated seconds per cell.
    pub secs: u64,
    /// Seeds (one run per seed per cell).
    pub seeds: Vec<u64>,
}

impl Experiment {
    /// Number of cells the sweep expands to. Apps with a fixed
    /// adaptation policy (vat, co-scheduling) contribute one cell group
    /// regardless of the policy axis length (matching the runner).
    pub fn cell_count(&self) -> usize {
        let policies = if self.app.fixed_policy() {
            self.policies.len().min(1)
        } else {
            self.policies.len()
        };
        self.schedules.len() * policies * self.controllers.len() * self.seeds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_engines_share_the_default_ladder() {
        for kind in AdaptPolicyKind::ALL {
            let e = kind.engine();
            assert_eq!(e.levels(), 4);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AdaptPolicyKind::LadderImmediate.label(), "immediate");
        assert_eq!(
            ControllerKind::Aimd {
                byte_counting: true
            }
            .label(),
            "aimd"
        );
        assert_eq!(ControllerKind::RateBased.label(), "rate-based");
    }

    #[test]
    fn cell_count_is_the_cartesian_product() {
        let e = Experiment {
            app: AppKind::Layered,
            schedules: vec![
                NamedSchedule::new("a", BandwidthSchedule::none()),
                NamedSchedule::new("b", BandwidthSchedule::none()),
            ],
            policies: vec![AdaptPolicyKind::LadderImmediate, AdaptPolicyKind::Utility],
            controllers: vec![ControllerKind::RateBased],
            secs: 1,
            seeds: vec![1, 2, 3],
        };
        assert_eq!(e.cell_count(), 12);
        // The vat app ignores the policy axis, matching the runner.
        let vat = Experiment {
            app: AppKind::Vat,
            ..e
        };
        assert_eq!(vat.cell_count(), 6);
    }
}
