//! Zero-allocation enforcement for the per-callback hot path.
//!
//! `Engine::on_rate` runs inside every CM rate callback; docs/perf.md's
//! flat-state rules require steady-state operation to perform no heap
//! allocation. A counting global allocator measures exactly that: after
//! construction, thousands of rate reports across the damped ladder, the
//! immediate ladder and log utility must allocate nothing.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use cm_adapt::{
    AdaptationStats, Engine, FleetStats, LadderConfig, LadderPolicy, RateLadder, UtilityPolicy,
};
use cm_util::{Duration, Rate, Time};
use counting_alloc::allocs;

fn ladder() -> RateLadder {
    RateLadder::new(vec![
        Rate::from_kbps(250),
        Rate::from_kbps(500),
        Rate::from_kbps(1_000),
        Rate::from_kbps(2_000),
    ])
}

/// Drives: `Engine::on_rate`, over the damped ladder, the immediate ladder
/// and log utility.
#[test]
fn observe_never_allocates_in_steady_state() {
    // Construction may allocate (boxes, ladders, stats vectors)...
    let mut engines = [
        Engine::new(Box::new(LadderPolicy::new(
            ladder(),
            LadderConfig::damped(),
        ))),
        Engine::new(Box::new(LadderPolicy::immediate(ladder()))),
        Engine::new(Box::new(UtilityPolicy::log_utility(
            ladder(),
            0.3,
            0.9,
            0.1,
        ))),
    ];
    // ...and the first reports settle any lazy state.
    for (i, e) in engines.iter_mut().enumerate() {
        e.on_rate(Time::from_millis(i as u64), Rate::from_kbps(800));
    }

    // A one-shot allocation (a lazy first use) can land in any single
    // window. Measure several trials and require the *minimum* delta to
    // be zero: such noise is one-shot, while a real per-callback
    // allocation would show up in every trial (6k reports each).
    let mut now = Time::from_secs(1);
    let mut level_sum = 0usize;
    let mut min_delta = u64::MAX;
    for trial in 0..5u64 {
        let before = allocs();
        for round in 0..2_000u64 {
            now += Duration::from_millis(20);
            // A rate pattern that forces real switches (sawtooth across
            // the whole ladder).
            let r = trial * 2_000 + round;
            let rate = Rate::from_kbps(100 + (r % 25) * 100);
            for e in engines.iter_mut() {
                level_sum += e.on_rate(now, rate).level;
            }
        }
        let after = allocs();
        min_delta = min_delta.min(after - before);
    }
    assert!(level_sum > 0, "engines never moved off the floor");
    assert_eq!(
        min_delta, 0,
        "per-callback path allocated in every trial (at least {min_delta} times per 6k reports)"
    );
}

#[test]
fn fleet_record_never_allocates_in_steady_state() {
    // Construction allocates (bucket vectors, session stats)...
    let mut fleet = FleetStats::new(4);
    let mut sessions: Vec<AdaptationStats> = (0..64)
        .map(|i| {
            let mut s = AdaptationStats::new(4);
            let mut now = Time::from_millis(i);
            for step in 0..50u64 {
                now += Duration::from_millis(200);
                s.on_observation(now, ((i + step) % 4) as usize, (step % 7) as f64);
            }
            s
        })
        .collect();
    for s in &sessions {
        fleet.record(s);
    }

    // ...but folding sessions in — the telemetry hot path — must not.
    // As above, take the minimum delta over several trials to mask the
    // harness's ambient one-shot allocations.
    let mut min_delta = u64::MAX;
    for trial in 0..5u64 {
        let before = allocs();
        for round in 0..500u64 {
            for (i, s) in sessions.iter_mut().enumerate() {
                let t = Time::from_secs(100 + trial * 1000 + round * 2);
                s.on_observation(t, (i + round as usize) % 4, 1.0);
                fleet.record(s);
            }
        }
        let after = allocs();
        min_delta = min_delta.min(after - before);
    }
    assert!(fleet.sessions() > 0);
    assert!(fleet.oscillation.count() > 0, "histograms never filled");
    assert_eq!(
        min_delta, 0,
        "fleet record path allocated in every trial (at least {min_delta} times per 32k records)"
    );
}
