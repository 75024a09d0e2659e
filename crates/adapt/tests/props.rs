//! Property tests for the adaptation policies.
//!
//! The two load-bearing properties for the ladder policy:
//!
//! 1. **Monotonicity in offered rate** — with no history, a higher
//!    reported rate never selects a lower layer.
//! 2. **Hysteresis bounds switch frequency** — under a square-wave rate
//!    input, consecutive switches are never closer together than the
//!    dwell timer allows, no matter how fast the input flaps.

use cm_adapt::{Engine, LadderConfig, LadderPolicy, RateLadder, UtilityPolicy};
use cm_util::{Duration, Rate, Time};
use proptest::prelude::*;

/// Builds a strictly increasing ladder from raw kbps steps.
fn ladder_from(steps: &[u64]) -> RateLadder {
    let mut acc = 0u64;
    let rates = steps
        .iter()
        .map(|&s| {
            acc += s.max(1);
            Rate::from_kbps(acc)
        })
        .collect();
    RateLadder::new(rates)
}

proptest! {
    /// A fresh ladder policy's selection is monotone nondecreasing in
    /// the offered rate, for any ladder shape and headroom.
    #[test]
    fn ladder_selection_monotone_in_rate(
        steps in proptest::collection::vec(1u64..2_000, 1..8),
        r1 in 0u64..5_000,
        dr in 0u64..5_000,
        headroom_pct in 100u64..200,
    ) {
        let cfg = LadderConfig {
            up_headroom: headroom_pct as f64 / 100.0,
            down_headroom: 1.0,
            up_dwell: Duration::ZERO,
            down_dwell: Duration::ZERO,
        };
        let now = Time::from_secs(1);
        let mut lo = LadderPolicy::new(ladder_from(&steps), cfg);
        let mut hi = LadderPolicy::new(ladder_from(&steps), cfg);
        let l1 = cm_adapt::AdaptationPolicy::decide(&mut lo, now, Rate::from_kbps(r1));
        let l2 = cm_adapt::AdaptationPolicy::decide(&mut hi, now, Rate::from_kbps(r1 + dr));
        prop_assert!(
            l2 >= l1,
            "rate {} → level {}, rate {} → level {}",
            r1, l1, r1 + dr, l2
        );
    }

    /// Under a square-wave rate input of arbitrary (possibly much
    /// faster) period, the dwell timers bound the switch frequency: no
    /// two consecutive switches are closer than the smaller dwell, and
    /// climbs are spaced at least `up_dwell` from the previous switch.
    #[test]
    fn hysteresis_bounds_switch_frequency_under_square_wave(
        half_period_ms in 1u64..400,
        dwell_ms in 1u64..2_000,
        cycles in 4u64..40,
        low_kbps in 100u64..900,
    ) {
        let ladder = RateLadder::new(vec![
            Rate::from_kbps(1_000),
            Rate::from_kbps(2_000),
            Rate::from_kbps(4_000),
        ]);
        let dwell = Duration::from_millis(dwell_ms);
        let cfg = LadderConfig {
            up_headroom: 1.0,
            down_headroom: 1.0,
            up_dwell: dwell,
            down_dwell: dwell,
        };
        let mut policy = LadderPolicy::new(ladder, cfg);
        // The wave alternates between starving (low) and saturating
        // (high) the ladder every half period.
        let mut switch_times: Vec<Time> = Vec::new();
        let mut level = policy.current();
        let mut now = Time::ZERO;
        for i in 0..cycles * 2 {
            let rate = if i % 2 == 0 {
                Rate::from_kbps(5_000)
            } else {
                Rate::from_kbps(low_kbps)
            };
            // Several observations per half period: flapping input must
            // not translate into flapping output.
            for _ in 0..4 {
                now += Duration::from_millis(half_period_ms.div_ceil(4).max(1));
                let new = cm_adapt::AdaptationPolicy::decide(&mut policy, now, rate);
                if new != level {
                    switch_times.push(now);
                    level = new;
                }
            }
        }
        // Every pair of consecutive switches respects the dwell (the
        // first switch is exempt: a fresh policy has no history).
        for w in switch_times.windows(2) {
            let gap = w[1].since(w[0]);
            prop_assert!(
                gap >= dwell,
                "switches {} ns apart with dwell {} ns",
                gap.as_nanos(),
                dwell.as_nanos()
            );
        }
    }

    /// The utility policy's choice is always affordable under its
    /// smoothed estimate: cost(level) <= safety * ewma(rate) whenever a
    /// single observation seeds the filter.
    #[test]
    fn utility_choice_is_affordable(
        steps in proptest::collection::vec(1u64..2_000, 1..8),
        rate in 0u64..10_000,
        safety_pct in 10u64..100,
    ) {
        let ladder = ladder_from(&steps);
        let floor = ladder.rate(0);
        let mut p = UtilityPolicy::log_utility(
            ladder,
            1.0,
            safety_pct as f64 / 100.0,
            0.0,
        );
        let level = cm_adapt::AdaptationPolicy::decide(
            &mut p,
            Time::from_secs(1),
            Rate::from_kbps(rate),
        );
        let cost = cm_adapt::AdaptationPolicy::ladder(&p).rate(level);
        let budget = Rate::from_bps(
            (Rate::from_kbps(rate).as_bps() as f64 * safety_pct as f64 / 100.0) as u64,
        );
        prop_assert!(
            cost <= budget || cost == floor,
            "picked {:?} with budget {:?}",
            cost,
            budget
        );
    }
}

/// Deterministic end-to-end check that an [`Engine`] over a damped ladder
/// oscillates strictly less than the immediate configuration under the
/// same adversarial square wave.
#[test]
fn damping_reduces_oscillation_vs_immediate() {
    let ladder = || {
        RateLadder::new(vec![
            Rate::from_kbps(500),
            Rate::from_kbps(1_000),
            Rate::from_kbps(2_000),
        ])
    };
    let run = |cfg: LadderConfig| -> u64 {
        let mut e = Engine::new(Box::new(LadderPolicy::new(ladder(), cfg)));
        let mut now = Time::ZERO;
        // A 100 ms square wave straddling the level-2 boundary.
        for i in 0..600u64 {
            now += Duration::from_millis(50);
            let rate = if (i / 2) % 2 == 0 { 2_200 } else { 1_500 };
            e.on_rate(now, Rate::from_kbps(rate));
        }
        e.stats().switches
    };
    let immediate = run(LadderConfig::immediate());
    let damped = run(LadderConfig {
        up_headroom: 1.1,
        down_headroom: 0.9,
        up_dwell: Duration::from_secs(2),
        down_dwell: Duration::from_secs(1),
    });
    assert!(
        damped < immediate / 4,
        "damped {damped} switches vs immediate {immediate}"
    );
}
