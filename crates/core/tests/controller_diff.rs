//! Differential controller conformance harness.
//!
//! Feeds identical recorded feedback traces (see `common::scenarios`)
//! into every [`ControllerKind`] and asserts one shared invariant set:
//! window floor/cap, no growth on congestion / freeze / detected-overuse
//! steps, monotone multiplicative decrease on persistent loss, and
//! byte-deterministic decision sequences per seed. Delay-gradient gets
//! two extra checks: overuse actually fires on the scripted delay
//! spikes, and its steady-state queue stays shallower than loss-based
//! AIMD's on the clean bottleneck.
//!
//! The proptest at the bottom mirrors `invariants_hold_under_fault_churn`:
//! arbitrary feedback sequences — absurd RTTs, reordered acks, duplicate
//! feedback — must uphold the per-op invariants on every controller. The
//! default run is 64 cases; the `#[ignore]`d run CI adds is 20,000.

mod common;

use cm_core::config::{CmConfig, ControllerKind};
use cm_core::controller::{build_controller, MAX_WINDOW_BYTES};
use cm_core::types::LossMode;
use cm_util::{Duration, Time};
use common::{all_kinds, decision_fingerprint, run_scenario, scenarios, steady_queue_delay_secs};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[test]
fn harness_covers_at_least_four_traces_and_all_kinds() {
    assert!(
        scenarios().len() >= 4,
        "conformance needs >= 4 shared traces"
    );
    assert_eq!(
        all_kinds().len(),
        4,
        "a ControllerKind is missing from the harness"
    );
}

#[test]
fn conformance_invariants_hold_for_every_kind_on_every_trace() {
    for scenario in &scenarios() {
        for &kind in &all_kinds() {
            let run = run_scenario(kind, scenario);
            assert_eq!(run.steps.len(), (scenario.secs * 1000 / 10) as usize);
            common::assert_conformance(&run, scenario.name);
        }
    }
}

#[test]
fn decision_sequences_are_byte_deterministic_per_seed() {
    for scenario in &scenarios() {
        for &kind in &all_kinds() {
            let a = decision_fingerprint(&run_scenario(kind, scenario));
            let b = decision_fingerprint(&run_scenario(kind, scenario));
            assert_eq!(
                a,
                b,
                "{} on {} is not replay-deterministic",
                kind.label(),
                scenario.name
            );
        }
    }
}

#[test]
fn delay_gradient_detects_and_respects_injected_overuse() {
    // The delay_spike scenario scripts two pure base-delay ramps with no
    // loss: only a delay-based controller can see them.
    let scenario = common::delay_spike();
    let run = run_scenario(ControllerKind::DelayGradient, &scenario);
    let overuse_steps: Vec<_> = run.steps.iter().filter(|s| s.overuse).collect();
    assert!(
        !overuse_steps.is_empty(),
        "scripted delay spikes never declared overuse"
    );
    for s in &overuse_steps {
        assert!(
            s.wnd_after <= s.wnd_before,
            "window grew during injected overuse at t={}",
            s.now
        );
    }
    // The legacy kinds are blind to the same spikes (no loss is ever
    // generated by a spike itself): their runs record zero overuse.
    for &kind in &common::legacy_kinds() {
        let run = run_scenario(kind, &scenario);
        assert!(
            run.steps.iter().all(|s| !s.overuse),
            "{} claims delay overuse but has no delay detector",
            kind.label()
        );
    }
}

#[test]
fn delay_gradient_keeps_a_shallower_steady_queue_than_aimd() {
    let scenario = common::clean();
    let dg = steady_queue_delay_secs(&run_scenario(ControllerKind::DelayGradient, &scenario));
    let aimd = steady_queue_delay_secs(&run_scenario(
        ControllerKind::Aimd {
            byte_counting: true,
        },
        &scenario,
    ));
    // Loss-based AIMD fills the bottleneck buffer until it overflows;
    // the delay-gradient controller backs off on the delay trend first.
    assert!(
        dg <= aimd,
        "delay-gradient steady queue delay {dg:.4}s exceeds AIMD's {aimd:.4}s"
    );
    // And the steady queue is bounded well below the full buffer
    // (64 KiB at 2 Mbit/s is ~262 ms when kept brim-full).
    assert!(
        dg < 0.200,
        "delay-gradient steady queue delay {dg:.4}s is not bounded"
    );
}

/// One arbitrary feedback operation for the per-op conformance proptest.
#[derive(Clone, Copy, Debug)]
enum FeedbackOp {
    /// Positive feedback: possibly zero, possibly enormous, possibly a
    /// duplicate of the previous report.
    Ack { bytes: u64, acks: u32 },
    /// A congestion signal.
    Loss(LossMode),
    /// An RTT sample — absurd values included (0 ns to one hour).
    Rtt { millis: u64 },
    /// Idle decay.
    Decay { intervals: u32 },
}

fn op_strategy() -> impl Strategy<Value = FeedbackOp> {
    prop_oneof![
        (0u64..=10_000_000, 0u32..=1_000).prop_map(|(bytes, acks)| FeedbackOp::Ack { bytes, acks }),
        prop_oneof![
            proptest::strategy::Just(LossMode::None),
            proptest::strategy::Just(LossMode::Transient),
            proptest::strategy::Just(LossMode::Persistent),
            proptest::strategy::Just(LossMode::Ecn),
        ]
        .prop_map(FeedbackOp::Loss),
        (0u64..=3_600_000).prop_map(|millis| FeedbackOp::Rtt { millis }),
        (0u32..=8).prop_map(|intervals| FeedbackOp::Decay { intervals }),
    ]
}

/// Replays `ops` on every controller kind, each op advancing time by
/// the next of `steps_ms`, and checks the per-op invariants after every
/// op.
fn check_per_op(ops: &[FeedbackOp], steps_ms: &[u64]) -> Result<(), TestCaseError> {
    let cfg = CmConfig::default();
    let mtu = cfg.mtu as u64;
    for &kind in &all_kinds() {
        let label = kind.label();
        let mut ctl = build_controller(&CmConfig {
            controller: kind,
            ..cfg
        });
        let mut now = Time::ZERO;
        for (i, &op) in ops.iter().enumerate() {
            now += Duration::from_millis(steps_ms[i % steps_ms.len()]);
            let before = ctl.window();
            match op {
                FeedbackOp::Ack { bytes, acks } => {
                    ctl.on_ack(bytes, acks, now);
                }
                FeedbackOp::Loss(mode) => {
                    ctl.on_loss(mode, now);
                    if mode != LossMode::None {
                        // AIMD's fast-retransmit cut floors ssthresh at
                        // 2 MTU, so a sub-floor window may rise *to* the
                        // floor — never past it.
                        prop_assert!(
                            ctl.window() <= before.max(2 * mtu),
                            "{label}: window grew on {mode:?}"
                        );
                    }
                    if mode == LossMode::Persistent && before > 2 * mtu {
                        prop_assert!(
                            ctl.window() < before,
                            "{label}: persistent loss did not decrease"
                        );
                    }
                }
                FeedbackOp::Rtt { millis } => {
                    ctl.on_rtt_sample(Duration::from_millis(millis), now);
                    prop_assert!(
                        ctl.window() <= before,
                        "{label}: an RTT sample grew the window"
                    );
                }
                FeedbackOp::Decay { intervals } => {
                    ctl.decay_idle(intervals);
                    prop_assert!(
                        ctl.window() <= before.max(cfg.initial_window_bytes()),
                        "{label}: idle decay grew the window"
                    );
                }
            }
            prop_assert!(ctl.window() >= mtu, "{label}: window fell below 1 MTU");
            prop_assert!(
                ctl.window() <= MAX_WINDOW_BYTES,
                "{label}: window exceeded the cap"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary feedback — including duplicated reports and
    /// out-of-order timestamps — upholds the per-op invariants on every
    /// controller: window within [1 MTU, cap], congestion and RTT
    /// samples never grow the window, persistent loss decreases it
    /// whenever the floor leaves room.
    #[test]
    fn conformance_invariants_hold_per_op(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        // Timestamps jump arbitrarily (reordered feedback): each op
        // advances time by a random step, sometimes zero (duplicates).
        steps_ms in proptest::collection::vec(0u64..=5_000, 1..200),
    ) {
        check_per_op(&ops, &steps_ms)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// CI's long run: `cargo test --release -p cm-core --test
    /// controller_diff -- --ignored`.
    #[test]
    #[ignore = "20,000 cases; CI runs it in release"]
    fn conformance_invariants_hold_per_op_20k(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        steps_ms in proptest::collection::vec(0u64..=5_000, 1..200),
    ) {
        check_per_op(&ops, &steps_ms)?;
    }
}
