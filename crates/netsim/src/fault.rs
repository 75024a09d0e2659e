//! Deterministic fault injection: hostile links and misbehaving apps.
//!
//! The paper's evaluation runs over clean Dummynet pipes; real deployments
//! face bursty wireless loss, flapping links, and buggy applications. This
//! module describes those faults declaratively so the chaos harness can
//! replay any scenario under a seeded [`FaultPlan`] and still be
//! bit-for-bit reproducible:
//!
//! * [`GilbertElliott`] — two-state bursty loss (the classic model for
//!   wireless/cellular channels, per-packet Markov chain),
//! * [`LinkFaults`] — per-link packet faults: GE loss, reordering,
//!   duplication, delay spikes, and hard outage windows (link flaps),
//! * [`AppFault`] — misbehaving-application scripts interpreted by the
//!   `cm-apps` harness app (silent feedback, grant hoarding, crashes,
//!   slow notifies),
//! * [`FaultPlan`] — one seeded bundle of the above, with all parameters
//!   derived from a [`DetRng`] so a plan is fully described by
//!   `(seed, horizon)`.
//!
//! Link faults ride inside [`crate::link::LinkSpec`] (and therefore
//! [`crate::channel::PathSpec`]), so every existing topology builder gains
//! fault coverage without signature changes.

use cm_util::{DetRng, Duration, Time};

/// Two-state Gilbert–Elliott loss model.
///
/// The chain advances once per packet offered to the link: in the *good*
/// state packets drop with probability `loss_good`, in the *bad* (burst)
/// state with `loss_bad`. Transitions happen before the loss draw, so a
/// burst can start on the packet that triggers it.
#[derive(Clone, Copy, Debug)]
pub struct GilbertElliott {
    /// Probability of entering the bad state, per offered packet.
    pub p_enter: f64,
    /// Probability of leaving the bad state, per offered packet.
    pub p_exit: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

/// Per-link fault configuration. `Default` is a clean link.
#[derive(Clone, Debug, Default)]
pub struct LinkFaults {
    /// Bursty loss; applied after the Bernoulli `loss_rate` stage.
    pub ge: Option<GilbertElliott>,
    /// Probability that a departing packet is held back (reordered past
    /// later packets).
    pub reorder_prob: f64,
    /// Maximum extra delay a reordered packet suffers; the actual hold is
    /// uniform in `(0, reorder_extra]`.
    pub reorder_extra: Duration,
    /// Probability that a departing packet is delivered twice.
    pub duplicate_prob: f64,
    /// Probability of a delay spike on a departing packet.
    pub spike_prob: f64,
    /// Extra delay added by a spike.
    pub spike_extra: Duration,
    /// Hard outage windows `[start, end)`: the transmitter halts, the
    /// queue holds (and overflows) exactly as a flapped interface would.
    pub outages: Vec<(Time, Time)>,
}

impl LinkFaults {
    /// A clean link: no faults at all.
    pub fn clean() -> Self {
        LinkFaults::default()
    }

    /// Returns true if every fault dimension is disabled.
    pub fn is_clean(&self) -> bool {
        self.ge.is_none()
            && self.reorder_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.spike_prob <= 0.0
            && self.outages.is_empty()
    }

    /// Sets Gilbert–Elliott bursty loss (builder style).
    pub fn with_ge(mut self, ge: GilbertElliott) -> Self {
        self.ge = Some(ge);
        self
    }

    /// Sets packet duplication (builder style).
    pub fn with_duplication(mut self, prob: f64) -> Self {
        self.duplicate_prob = prob;
        self
    }

    /// Sets delay spikes (builder style).
    pub fn with_delay_spikes(mut self, prob: f64, extra: Duration) -> Self {
        self.spike_prob = prob;
        self.spike_extra = extra;
        self
    }

    /// Adds a link-down window (builder style). Windows may be added in
    /// any order; they are checked linearly (plans carry at most a few).
    pub fn with_outage(mut self, start: Time, end: Time) -> Self {
        assert!(start < end, "outage window inverted");
        self.outages.push((start, end));
        self
    }

    /// If `now` falls inside an outage window, returns the window's end.
    pub fn outage_until(&self, now: Time) -> Option<Time> {
        self.outages
            .iter()
            .find(|&&(s, e)| now >= s && now < e)
            .map(|&(_, e)| e)
    }
}

/// A misbehaving-application script, interpreted by the harness app in
/// `cm-apps`. The CM must degrade gracefully under every variant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum AppFault {
    /// A well-behaved app.
    #[default]
    None,
    /// The app keeps sending but stops calling `cm_update` after the
    /// given instant — the feedback-free write-off path must engage.
    SilentFeedback {
        /// When feedback stops.
        after: Time,
    },
    /// The app keeps requesting but never notifies granted sends after
    /// the given instant — grant reclamation and backoff must engage.
    GrantHoard {
        /// When the app starts sitting on grants.
        after: Time,
    },
    /// The app "crashes" at the given instant: no more requests,
    /// notifies, updates, or closes. Its flows stay open until
    /// orphaned-flow reaping returns the slots.
    Crash {
        /// The crash instant.
        at: Time,
    },
    /// The app answers every grant, but only after an extra delay —
    /// long delays exceed the grant timeout and cause reclaim churn.
    SlowNotify {
        /// Extra delay before each notify.
        delay: Duration,
    },
}

/// One seeded fault bundle: link faults plus an app fault, with every
/// parameter derived deterministically from the seed.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The seed this plan was derived from.
    pub seed: u64,
    /// Faults for the data (forward) direction of the path under test.
    pub link: LinkFaults,
    /// The application-level fault.
    pub app: AppFault,
}

impl FaultPlan {
    /// A clean plan: no faults. Useful as the chaos baseline.
    pub fn clean() -> Self {
        FaultPlan {
            seed: 0,
            link: LinkFaults::clean(),
            app: AppFault::None,
        }
    }

    /// Derives a plan from a seed for a run of length `horizon`.
    ///
    /// Each fault dimension is included with moderate probability so the
    /// plan population mixes single-fault and compound-fault runs; all
    /// parameters come from a [`DetRng`] split, so two calls with the
    /// same arguments produce identical plans.
    pub fn seeded(seed: u64, horizon: Duration) -> Self {
        let mut rng = DetRng::seed(seed).split("faultplan");
        let mut link = LinkFaults::clean();

        if rng.chance(0.7) {
            link.ge = Some(GilbertElliott {
                p_enter: f64_in(&mut rng, 0.0005, 0.01),
                p_exit: f64_in(&mut rng, 0.05, 0.3),
                loss_good: 0.0,
                loss_bad: f64_in(&mut rng, 0.2, 0.6),
            });
        }
        if rng.chance(0.5) {
            link.reorder_prob = f64_in(&mut rng, 0.001, 0.02);
            link.reorder_extra = Duration::from_micros(rng.next_range(1_000, 10_000));
        }
        if rng.chance(0.4) {
            link.duplicate_prob = f64_in(&mut rng, 0.001, 0.01);
        }
        if rng.chance(0.5) {
            link.spike_prob = f64_in(&mut rng, 0.001, 0.01);
            link.spike_extra = Duration::from_micros(rng.next_range(5_000, 50_000));
        }
        let outage_count = rng.next_bounded(3);
        let horizon_us = horizon.as_micros().max(1);
        for _ in 0..outage_count {
            let start_us = rng.next_range(horizon_us / 5, horizon_us * 4 / 5);
            let len_us = rng.next_range(200_000, 2_000_000);
            let start = Time::ZERO + Duration::from_micros(start_us);
            link = link.with_outage(start, start + Duration::from_micros(len_us));
        }

        let app = match rng.next_bounded(5) {
            0 => AppFault::None,
            1 => AppFault::SilentFeedback {
                after: Time::ZERO + Duration::from_micros(rng.next_range(1, horizon_us / 2)),
            },
            2 => AppFault::GrantHoard {
                after: Time::ZERO + Duration::from_micros(rng.next_range(1, horizon_us / 2)),
            },
            3 => AppFault::Crash {
                at: Time::ZERO + Duration::from_micros(rng.next_range(1, horizon_us / 2)),
            },
            _ => AppFault::SlowNotify {
                delay: Duration::from_micros(rng.next_range(1_000, 800_000)),
            },
        };

        FaultPlan { seed, link, app }
    }
}

fn f64_in(rng: &mut DetRng, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, Duration::from_secs(20));
        let b = FaultPlan::seeded(42, Duration::from_secs(20));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn different_seeds_differ() {
        let plans: Vec<String> = (0..16)
            .map(|s| format!("{:?}", FaultPlan::seeded(s, Duration::from_secs(20))))
            .collect();
        let distinct: std::collections::BTreeSet<&String> = plans.iter().collect();
        assert!(distinct.len() > 8, "plans barely vary: {distinct:?}");
    }

    #[test]
    fn clean_plan_is_clean() {
        let p = FaultPlan::clean();
        assert!(p.link.is_clean());
        assert_eq!(p.app, AppFault::None);
    }

    #[test]
    fn outage_lookup() {
        let f = LinkFaults::clean().with_outage(Time::from_secs(2), Time::from_secs(3));
        assert_eq!(f.outage_until(Time::from_secs(1)), None);
        assert_eq!(f.outage_until(Time::from_secs(2)), Some(Time::from_secs(3)));
        assert_eq!(
            f.outage_until(Time::from_millis(2_999)),
            Some(Time::from_secs(3))
        );
        assert_eq!(f.outage_until(Time::from_secs(3)), None);
        assert!(!f.is_clean());
    }

    #[test]
    fn outage_windows_land_inside_horizon() {
        for seed in 0..64 {
            let p = FaultPlan::seeded(seed, Duration::from_secs(30));
            for (s, e) in &p.link.outages {
                assert!(*s < *e);
                assert!(*s >= Time::from_secs(6), "start {s:?} too early");
                assert!(*s <= Time::from_secs(24), "start {s:?} too late");
            }
        }
    }
}
