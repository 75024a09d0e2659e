//! Shared trace driver for the differential controller tests.
//!
//! The driver replays a recorded bandwidth trace (bundled `traces/*.trace`
//! files or synthetic schedules, plus seeded `FaultPlan`-derived fault
//! streams) through a deterministic single-bottleneck fluid model and
//! feeds the resulting feedback stream — acks, RTT samples, bursty loss,
//! outage write-offs — into one `Controller`, mimicking the
//! shard `update` path's gating (recovery freeze after a loss, RTT sample
//! absorbed before positive feedback). Every controller sees byte-for-byte
//! the same link behaviour modulo its own sending decisions, which is
//! exactly the differential-harness contract: same inputs, comparable
//! decision sequences, one invariant set.
//!
//! Used by `controller_diff.rs` (cross-controller conformance) and
//! `controller_golden.rs` (frozen decision sequences for the shipped
//! controllers). Each test binary compiles its own copy, so helpers
//! used by only one binary are dead code in the other.
#![allow(dead_code, reason = "each test binary uses only some of the helpers")]

use cm_core::config::{CmConfig, ControllerKind};
use cm_core::controller::{build_controller, MAX_WINDOW_BYTES};
use cm_core::types::LossMode;
use cm_netsim::fault::{FaultPlan, GilbertElliott};
use cm_netsim::schedule::BandwidthSchedule;
use cm_util::ewma::MIN_RTO;
use cm_util::{DetRng, Duration, Rate, RttEstimator, Time};

/// Driver step: feedback is generated and applied at 100 Hz.
pub const STEP: Duration = Duration::from_millis(10);

/// Feedback-free interval after which the driver emits the write-off's
/// `Persistent` signal (mirrors the shard's feedback-free write-off).
const SILENCE_WRITEOFF: Duration = Duration::from_secs(2);

/// One replayable feedback scenario: a bandwidth trace plus fault and
/// delay scripting, all derived from `(name, seed)`.
pub struct Scenario {
    /// Stable scenario name (golden-file key).
    pub name: &'static str,
    /// Bottleneck capacity over time.
    pub schedule: BandwidthSchedule,
    /// Propagation delay floor of the path.
    pub base_rtt: Duration,
    /// Bottleneck buffer, in bytes; overflow is `Transient` loss.
    pub queue_capacity: u64,
    /// Bursty per-packet loss (Gilbert–Elliott), advanced by the seeded RNG.
    pub ge: Option<GilbertElliott>,
    /// Scripted extra base delay: `(start, end, extra)` windows.
    pub spikes: Vec<(Time, Time, Duration)>,
    /// Seed for the loss chain.
    pub seed: u64,
    /// Run length in seconds.
    pub secs: u64,
}

/// One driver step's decision record.
#[derive(Clone, Copy, Debug)]
pub struct StepRecord {
    /// Driver time at the step.
    pub now: Time,
    /// Controller window before this step's feedback.
    pub wnd_before: u64,
    /// Controller window after this step's feedback.
    pub wnd_after: u64,
    /// Slow-start threshold after this step's feedback.
    pub ssthresh_after: u64,
    /// Congestion signal delivered this step.
    pub loss: LossMode,
    /// Whether the recovery freeze suppressed positive feedback.
    pub frozen: bool,
    /// Bottleneck queueing delay at the step, in nanoseconds.
    pub queue_delay_ns: u64,
    /// Whether the controller reported delay overuse this step.
    pub overuse: bool,
}

/// A full scenario replay for one controller.
pub struct RunResult {
    /// [`ControllerKind::label`] of the controller that ran.
    pub label: &'static str,
    /// MTU the run used.
    pub mtu: u64,
    /// Per-step decisions, one per driver step.
    pub steps: Vec<StepRecord>,
}

/// Every controller kind the conformance harness must cover.
pub fn all_kinds() -> Vec<ControllerKind> {
    vec![
        ControllerKind::Aimd {
            byte_counting: true,
        },
        ControllerKind::Aimd {
            byte_counting: false,
        },
        ControllerKind::RateBased,
        ControllerKind::DelayGradient,
    ]
}

/// The controller kinds that existed before the delay-gradient family;
/// their decision sequences are frozen in `tests/golden/`.
pub fn legacy_kinds() -> Vec<ControllerKind> {
    vec![
        ControllerKind::Aimd {
            byte_counting: true,
        },
        ControllerKind::Aimd {
            byte_counting: false,
        },
        ControllerKind::RateBased,
    ]
}

/// The shared feedback scenarios: clean, bursty loss from a seeded
/// `FaultPlan`, scripted delay spikes, and two recorded traces with
/// rate collapses (the HSPA trace's zero-rate tunnel outage included).
pub fn scenarios() -> Vec<Scenario> {
    vec![
        clean(),
        ge_bursty(),
        delay_spike(),
        outage_hspa(),
        wifi_cafe(),
    ]
}

fn flat_schedule(rate: Rate) -> BandwidthSchedule {
    BandwidthSchedule::from_steps(vec![(Time::ZERO, rate)])
}

/// Constant 2 Mbit/s: the no-fault baseline every controller must share
/// fairly with the buffer.
pub fn clean() -> Scenario {
    Scenario {
        name: "clean",
        schedule: flat_schedule(Rate::from_mbps(2)),
        base_rtt: Duration::from_millis(40),
        queue_capacity: 64 * 1024,
        ge: None,
        spikes: Vec::new(),
        seed: 1,
        secs: 30,
    }
}

/// Clean capacity with Gilbert–Elliott bursty loss taken from the first
/// seeded [`FaultPlan`] that carries a GE model — the chaos harness's
/// fault stream reused verbatim.
pub fn ge_bursty() -> Scenario {
    let ge = (1..=16)
        .find_map(|seed| FaultPlan::seeded(seed, Duration::from_secs(30)).link.ge)
        .expect("some seed in 1..=16 yields a GE fault plan");
    Scenario {
        name: "ge_bursty",
        schedule: flat_schedule(Rate::from_mbps(2)),
        base_rtt: Duration::from_millis(40),
        queue_capacity: 64 * 1024,
        ge: Some(ge),
        spikes: Vec::new(),
        seed: 2,
        secs: 30,
    }
}

/// Clean capacity with two scripted base-delay spikes (a cellular
/// handover and a deeper second stall) — pure delay signal, no loss.
pub fn delay_spike() -> Scenario {
    Scenario {
        name: "delay_spike",
        schedule: flat_schedule(Rate::from_mbps(2)),
        base_rtt: Duration::from_millis(40),
        queue_capacity: 64 * 1024,
        ge: None,
        spikes: vec![
            (
                Time::from_secs(6),
                Time::from_secs(8),
                Duration::from_millis(120),
            ),
            (
                Time::from_secs(16),
                Time::from_secs(19),
                Duration::from_millis(200),
            ),
        ],
        seed: 3,
        secs: 30,
    }
}

/// The bundled HSPA bus-commute trace: bursty rates with a complete
/// zero-rate tunnel outage at 14–17 s (exercises the write-off path).
pub fn outage_hspa() -> Scenario {
    Scenario {
        name: "outage_hspa",
        schedule: BandwidthSchedule::parse_trace(include_str!("../../../../traces/hspa_bus.trace"))
            .expect("bundled trace parses"),
        base_rtt: Duration::from_millis(60),
        queue_capacity: 48 * 1024,
        ge: None,
        spikes: Vec::new(),
        seed: 4,
        secs: 35,
    }
}

/// The bundled café Wi-Fi trace: contended rate flaps.
pub fn wifi_cafe() -> Scenario {
    Scenario {
        name: "wifi_cafe",
        schedule: BandwidthSchedule::parse_trace(include_str!(
            "../../../../traces/wifi_cafe.trace"
        ))
        .expect("bundled trace parses"),
        base_rtt: Duration::from_millis(30),
        queue_capacity: 64 * 1024,
        ge: None,
        spikes: Vec::new(),
        seed: 5,
        secs: 30,
    }
}

/// Replays `scenario` against the controller selected by `kind` and
/// records the per-step decision sequence.
///
/// The loop is a window-paced fluid model: each step the controller's
/// window is offered at `wnd / rtt`, the bottleneck serves at the
/// schedule's rate, the difference queues (overflow is `Transient`
/// loss), and served bytes return as immediate feedback carrying an RTT
/// sample of `base + spike + queue/capacity`. Zero-rate phases starve
/// feedback until the driver's write-off emits `Persistent`, exactly as
/// the CM's feedback-free write-off would.
pub fn run_scenario(kind: ControllerKind, scenario: &Scenario) -> RunResult {
    let cfg = CmConfig {
        controller: kind,
        ..Default::default()
    };
    let mut ctl = build_controller(&cfg);
    let mtu = cfg.mtu as u64;
    let dt = STEP.as_secs_f64();

    let mut rng = DetRng::seed(scenario.seed).split("controller-diff");
    let mut ge_bad = false;
    let mut rtt_est = RttEstimator::new();
    let mut queue: u64 = 0;
    let mut pkt_accum: u64 = 0;
    let mut recovery_until = Time::ZERO;
    let mut last_feedback = Time::ZERO;

    let n_steps = (scenario.secs * 1000) / STEP.as_millis();
    let mut steps = Vec::with_capacity(n_steps as usize);
    for i in 0..n_steps {
        let now = Time::ZERO + Duration::from_millis(i * STEP.as_millis());
        let cap = scenario
            .schedule
            .rate_at(now)
            .unwrap_or(Rate::ZERO)
            .as_bytes_per_sec();
        let spike = scenario
            .spikes
            .iter()
            .find(|&&(s, e, _)| now >= s && now < e)
            .map(|&(_, _, extra)| extra)
            .unwrap_or(Duration::ZERO);

        let wnd_before = ctl.window();

        // --- Link model: offer, loss chain, service, overflow. ---
        let queue_delay = if cap > 0 {
            Duration::from_secs_f64(queue as f64 / cap as f64)
        } else {
            Duration::ZERO
        };
        let rtt_now = scenario.base_rtt + spike + queue_delay;
        let offered = (wnd_before as f64 * dt / rtt_now.as_secs_f64()) as u64;

        // Per-packet Gilbert–Elliott loss on the offered bytes.
        let mut lost = 0u64;
        let mut delivered = offered;
        if let Some(ge) = scenario.ge {
            delivered = 0;
            pkt_accum += offered;
            while pkt_accum >= mtu {
                pkt_accum -= mtu;
                if ge_bad {
                    if rng.chance(ge.p_exit) {
                        ge_bad = false;
                    }
                } else if rng.chance(ge.p_enter) {
                    ge_bad = true;
                }
                let p = if ge_bad { ge.loss_bad } else { ge.loss_good };
                if p > 0.0 && rng.chance(p) {
                    lost += mtu;
                } else {
                    delivered += mtu;
                }
            }
        }

        queue += delivered;
        let served = queue.min((cap as f64 * dt) as u64);
        queue -= served;
        if queue > scenario.queue_capacity {
            lost += queue - scenario.queue_capacity;
            queue = scenario.queue_capacity;
        }

        // --- Feedback assembly. ---
        let mut loss_mode = if lost > 0 {
            LossMode::Transient
        } else {
            LossMode::None
        };
        let rtt_sample = if served > 0 { Some(rtt_now) } else { None };
        if served > 0 || lost > 0 {
            last_feedback = now;
        } else if now.since(last_feedback) >= SILENCE_WRITEOFF {
            // Feedback-free write-off: one Persistent signal, then the
            // silence clock restarts.
            loss_mode = LossMode::Persistent;
            last_feedback = now;
        }

        // --- Apply, mimicking the shard update path's ordering. ---
        let mut overuse = false;
        if let Some(rtt) = rtt_sample {
            rtt_est.update(rtt);
            overuse = ctl.on_rtt_sample(rtt, now).is_overuse();
        }
        let frozen = now < recovery_until;
        let acks = served.div_ceil(mtu) as u32;
        if (served > 0 || acks > 0) && !frozen {
            ctl.on_ack(served, acks, now);
        }
        if loss_mode != LossMode::None {
            ctl.on_loss(loss_mode, now);
            let freeze = rtt_est.srtt().unwrap_or(MIN_RTO);
            recovery_until = now + freeze;
        }

        steps.push(StepRecord {
            now,
            wnd_before,
            wnd_after: ctl.window(),
            ssthresh_after: ctl.ssthresh(),
            loss: loss_mode,
            frozen,
            queue_delay_ns: queue_delay.as_nanos(),
            overuse,
        });
    }

    RunResult {
        label: kind.label(),
        mtu,
        steps,
    }
}

/// FNV-1a over the run's full `(window, ssthresh)` decision stream —
/// the byte-determinism fingerprint the golden files pin.
pub fn decision_fingerprint(run: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    };
    for s in &run.steps {
        eat(s.wnd_after);
        eat(s.ssthresh_after);
    }
    h
}

/// One golden line for a scenario replay: length, fingerprint, and the
/// final decision state (human-checkable without replaying).
pub fn golden_line(scenario: &Scenario, run: &RunResult) -> String {
    let last = run.steps.last().expect("non-empty run");
    format!(
        "{} len={} fnv={:016x} final={}/{}",
        scenario.name,
        run.steps.len(),
        decision_fingerprint(run),
        last.wnd_after,
        last.ssthresh_after,
    )
}

/// Mean queueing delay over the last two-thirds of the run (the steady
/// state, past the initial probe), in seconds.
pub fn steady_queue_delay_secs(run: &RunResult) -> f64 {
    let skip = run.steps.len() / 3;
    let tail = &run.steps[skip..];
    let sum_ns: u64 = tail.iter().map(|s| s.queue_delay_ns).sum();
    sum_ns as f64 / 1e9 / tail.len() as f64
}

/// Asserts the cross-controller conformance invariants over one run:
///
/// 1. the window never drops below 1 MTU nor exceeds the cap,
/// 2. a congestion step never grows the window (beyond AIMD's 2-MTU cut
///    floor), and `Persistent` loss is
///    a monotone multiplicative decrease (strictly below the pre-loss
///    window whenever the floor leaves room),
/// 3. the recovery freeze really freezes: no growth while it is active,
/// 4. a delay-overuse verdict never coincides with window growth.
pub fn assert_conformance(run: &RunResult, scenario_name: &str) {
    let ctx = |s: &StepRecord| {
        format!(
            "[{} {} t={}] wnd {} -> {}",
            run.label, scenario_name, s.now, s.wnd_before, s.wnd_after
        )
    };
    for s in &run.steps {
        assert!(
            s.wnd_after >= run.mtu,
            "{}: window below 1 MTU ({})",
            ctx(s),
            run.mtu
        );
        assert!(
            s.wnd_after <= MAX_WINDOW_BYTES,
            "{}: window above the cap {MAX_WINDOW_BYTES}",
            ctx(s),
        );
        if s.loss != LossMode::None {
            // AIMD's fast-retransmit cut floors ssthresh at 2 MTU, so a
            // sub-floor window may rise *to* the floor — never past it.
            assert!(
                s.wnd_after <= s.wnd_before.max(2 * run.mtu),
                "{}: window grew on a {:?} congestion step",
                ctx(s),
                s.loss
            );
        }
        if s.loss == LossMode::Persistent && s.wnd_before > 2 * run.mtu {
            assert!(
                s.wnd_after < s.wnd_before,
                "{}: persistent loss did not decrease the window",
                ctx(s)
            );
        }
        if s.frozen {
            assert!(
                s.wnd_after <= s.wnd_before,
                "{}: window grew during the recovery freeze",
                ctx(s)
            );
        }
        if s.overuse {
            assert!(
                s.wnd_after <= s.wnd_before,
                "{}: window grew on a detected-overuse step",
                ctx(s)
            );
        }
    }
}
