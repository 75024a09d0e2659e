//! The per-macroflow congestion controller.
//!
//! One concrete [`Controller`] runs every control law the CM ships. The
//! laws share one window core — MTU, initial window, window, slow-start
//! threshold and the congestion-avoidance credit — and a private `Law`
//! holds only the arithmetic that differs. The laws are the modularity
//! the paper advertises: "the CM encourages experimentation with other
//! non-AIMD schemes that may be better suited to specific data types
//! such as audio or video."
//!
//! * **AIMD** ([`ControllerKind::Aimd`], the CM's default): TCP-style
//!   window AIMD with slow start. With **byte counting** the window grows
//!   by the bytes acknowledged, not the number of ACK packets, which both
//!   defends against the ACK-division attack (Savage et al., cited in the
//!   paper's §5) and explains the small initial-window differences
//!   measured against Linux in §4. ACK counting, one MTU per ACK, is
//!   Linux 2.2's accounting. Slow start doubles the window per RTT,
//!   avoidance adds about one MTU per RTT, transient loss or an ECN echo
//!   halves it, and persistent loss (the paper's `CM_LOST_FEEDBACK`)
//!   returns it to the initial window, like a TCP timeout.
//! * **Rate-based** ([`ControllerKind::RateBased`]): AIMD on a rate whose
//!   window is the rate-RTT product, so the CM's window bookkeeping works
//!   unchanged. Slow start is mildly super-linear and cuts are gentle
//!   (7/8 on transient loss, 1/2 on persistent), the smooth evolution
//!   that suits layered media.
//! * **Delay-gradient** ([`ControllerKind::DelayGradient`]): AIMD
//!   actuated by the *trend* of queueing delay. A trendline filter over
//!   the feedback stream's RTT samples drives an overuse detector, so the
//!   controller backs off while the bottleneck queue is still *building*,
//!   before loss-based schemes see any signal at all.
//!
//! The state is flat per docs/perf.md: the one heap object is the
//! delay-gradient law's sample ring, allocated when the controller is
//! built and restored in place by [`Controller::reset`] when a pooled
//! macroflow shell is re-issued.

use cm_util::{Duration, Rate, Time};

use crate::config::{CmConfig, ControllerKind};
use crate::types::LossMode;

/// The delay detector's verdict for one RTT sample, as returned by
/// [`Controller::on_rtt_sample`]. The AIMD and rate-based laws always
/// answer [`DelaySignal::None`]; the delay-gradient law reports sustained
/// queue growth (`Overuse`, which the shard records as a
/// `congestion_delay` trace event) or drain (`Underuse`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DelaySignal {
    /// No delay-based verdict (or the controller ignores delay).
    None,
    /// Queueing delay is growing persistently; the controller reduced
    /// (or is holding) its window.
    Overuse,
    /// Queueing delay is falling; the controller holds while the queue
    /// drains.
    Underuse,
}

impl DelaySignal {
    /// True for [`DelaySignal::Overuse`].
    pub fn is_overuse(self) -> bool {
        self == DelaySignal::Overuse
    }
}

/// Slow-start threshold of a fresh controller: effectively unbounded, as
/// in Linux 2.2.
const INITIAL_SSTHRESH: u64 = u64::MAX / 2;

/// Hard upper bound on every controller's window, in bytes: the
/// historical AIMD fixed-point guard, far above every real path's
/// bandwidth-delay product, so it only bites on runaway feedback.
pub const MAX_WINDOW_BYTES: u64 = 1 << 40;

/// Builds the controller selected by a [`CmConfig`].
pub fn build_controller(cfg: &CmConfig) -> Controller {
    let law = match cfg.controller {
        ControllerKind::Aimd { byte_counting } => Law::Aimd { byte_counting },
        ControllerKind::RateBased => Law::RateBased,
        ControllerKind::DelayGradient => Law::DelayGradient(Box::new(DelayDetector::NEW)),
    };
    let init_window = cfg.initial_window_bytes();
    Controller {
        mtu: cfg.mtu as u64,
        init_window,
        wnd: init_window,
        ssthresh: INITIAL_SSTHRESH,
        credit: 0,
        law,
    }
}

/// The congestion controller governing one macroflow: one window core
/// and the control law that drives it (see the module docs).
#[derive(Debug)]
pub struct Controller {
    mtu: u64,
    init_window: u64,
    /// The congestion window, in bytes.
    wnd: u64,
    ssthresh: u64,
    /// Fractional congestion-avoidance growth carried between updates,
    /// in bytes scaled by `wnd`: `mtu * bytes_acked` accumulates, and
    /// each whole `wnd` of it grows the window by one byte.
    credit: u64,
    law: Law,
}

/// What differs between the control laws.
#[derive(Debug)]
enum Law {
    /// Window AIMD; `byte_counting: false` counts one MTU per ACK.
    Aimd { byte_counting: bool },
    /// AIMD on a rate estimate, with gentle cuts.
    RateBased,
    /// AIMD gated and cut by the queueing-delay trend. The detector's
    /// sample ring is boxed so the other laws stay small.
    DelayGradient(Box<DelayDetector>),
}

impl Controller {
    /// Absorbs positive feedback: `bytes` newly acknowledged across
    /// `acks` acknowledgement events.
    pub fn on_ack(&mut self, bytes: u64, acks: u32, _now: Time) {
        // The bytes the law counts as acknowledged, and its slow-start
        // step.
        let (counted, slow_start_step) = match &self.law {
            // Mildly super-linear start, even on empty feedback.
            Law::RateBased => (bytes, bytes / 2 + 1),
            _ if bytes == 0 && acks == 0 => return,
            // Overuse: the cut in `on_rtt_sample` must drain first.
            // Underuse: hold while the queue empties — growth on top of
            // a draining queue re-fills it.
            Law::DelayGradient(d) if d.state != DelaySignal::None => return,
            // ACK counting assumes each ACK covers a full MTU.
            Law::Aimd {
                byte_counting: false,
            } => (self.mtu * acks as u64, self.mtu * acks as u64),
            _ => (bytes, bytes),
        };
        if self.wnd < self.ssthresh {
            self.wnd = (self.wnd + slow_start_step).min(MAX_WINDOW_BYTES);
            return;
        }
        // Congestion avoidance: ~one MTU per window of data acked.
        self.credit += self.mtu * counted;
        if self.credit >= self.wnd && self.wnd > 0 {
            let growth = self.credit / self.wnd;
            if let Law::RateBased = self.law {
                // Grows first, then keeps the credit modulo the grown
                // window.
                self.wnd = (self.wnd + growth).min(MAX_WINDOW_BYTES);
                self.credit %= self.wnd;
            } else {
                self.credit %= self.wnd;
                self.wnd = (self.wnd + growth).min(MAX_WINDOW_BYTES);
            }
        }
    }

    /// Absorbs a congestion signal.
    pub fn on_loss(&mut self, mode: LossMode, _now: Time) {
        let persistent = match mode {
            LossMode::None => {
                if let Law::RateBased = self.law {
                    self.credit = 0;
                }
                return;
            }
            LossMode::Transient | LossMode::Ecn => false,
            LossMode::Persistent => true,
        };
        match &mut self.law {
            Law::Aimd { .. } => {
                self.ssthresh = (self.wnd / 2).max(2 * self.mtu);
                self.wnd = if persistent {
                    self.init_window
                } else {
                    self.ssthresh
                };
                self.credit = 0;
            }
            Law::RateBased => self.cut(if persistent { (1, 2) } else { (7, 8) }),
            Law::DelayGradient(d) => {
                if persistent {
                    // The path evidently changed under us; re-learn the
                    // delay baseline rather than trusting a stale minimum.
                    d.clear_filter();
                    self.cut((1, 2));
                } else {
                    // Delay usually warns first; when loss arrives
                    // anyway, a gentle cut keeps the rate media-smooth.
                    self.cut((7, 8));
                }
            }
        }
    }

    /// Absorbs one RTT sample from validated feedback, *before* the
    /// report's positive feedback is applied, and returns the delay
    /// detector's verdict. Only the delay-gradient law reads it; the
    /// others see delay only through [`Controller::rate`]'s smoothed-RTT
    /// argument.
    pub fn on_rtt_sample(&mut self, rtt: Duration, now: Time) -> DelaySignal {
        let Law::DelayGradient(d) = &mut self.law else {
            return DelaySignal::None;
        };
        let signal = d.observe(rtt, now);
        // Multiplicative decrease, at most once per RTT so one episode
        // is one cut per feedback round-trip.
        if signal.is_overuse() && d.last_cut.is_none_or(|at| now.since(at) >= rtt) {
            d.last_cut = Some(now);
            self.cut((7, 8));
        }
        signal
    }

    /// Scales the window by `num / den`, floored at one MTU, and makes
    /// the result the slow-start threshold.
    fn cut(&mut self, (num, den): (u64, u64)) {
        self.wnd = (self.wnd * num / den).max(self.mtu);
        self.ssthresh = self.wnd;
        self.credit = 0;
    }

    /// The MTU the window counts in, in bytes (`CmConfig::mtu`): what
    /// one grant reserves.
    pub(crate) fn mtu(&self) -> u64 {
        self.mtu
    }

    /// The current congestion window, in bytes: the number of bytes the
    /// macroflow may have outstanding.
    pub fn window(&self) -> u64 {
        self.wnd
    }

    /// The current slow-start threshold, in bytes.
    pub fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    /// The sustainable rate estimate given the smoothed RTT.
    pub fn rate(&self, srtt: Option<Duration>) -> Rate {
        srtt.map_or(Rate::ZERO, |rtt| Rate::from_window(self.wnd, rtt))
    }

    /// Applies the staleness rule after `intervals` idle periods: halve
    /// (rate-based: take 3/4) per interval, never below the initial
    /// window.
    pub fn decay_idle(&mut self, intervals: u32) {
        let (num, den) = match self.law {
            Law::RateBased => (3, 4),
            _ => (1, 2),
        };
        for _ in 0..intervals.min(63) {
            if self.wnd <= self.init_window {
                break;
            }
            self.wnd = (self.wnd * num / den).max(self.init_window);
        }
        match &mut self.law {
            // The rate-based law keeps its credit.
            Law::RateBased => {}
            Law::Aimd { .. } => self.credit = 0,
            Law::DelayGradient(d) => {
                self.credit = 0;
                // An idle macroflow's delay picture is stale by
                // definition.
                d.clear_filter();
            }
        }
    }

    /// Restores pristine initial state per `cfg`, as if freshly built
    /// with the same law — used when a pooled macroflow shell is
    /// re-issued, so macroflow churn does not rebuild (re-allocate)
    /// controllers.
    pub fn reset(&mut self, cfg: &CmConfig) {
        self.mtu = cfg.mtu as u64;
        self.init_window = cfg.initial_window_bytes();
        self.wnd = self.init_window;
        self.ssthresh = INITIAL_SSTHRESH;
        self.credit = 0;
        if let Law::DelayGradient(d) = &mut self.law {
            **d = DelayDetector::NEW;
        }
    }
}

/// Number of smoothed delay samples the trendline regression spans.
const TREND_WINDOW: usize = 20;

/// Gain of the queueing-delay EWMA feeding the trendline.
const DELAY_SMOOTHING: f64 = 0.4;

/// Trendline slope (milliseconds of queueing delay per second) above
/// which the detector arms; the mirror-image negative slope reads as
/// underuse.
const SLOPE_THRESHOLD_MS_PER_S: f64 = 5.0;

/// Smoothed queueing delay below which overuse is never declared — a
/// near-empty queue with a twitchy slope is noise, not congestion.
const MIN_QUEUE_DELAY_MS: f64 = 4.0;

/// How long the slope must stay above threshold before overuse is
/// declared (the detector's hysteresis against single-sample spikes).
const OVERUSE_SUSTAIN: Duration = Duration::from_millis(20);

/// The delay-gradient law's filter and detector, GCC-style.
///
/// Each validated RTT sample is reduced to a queueing-delay estimate
/// (`rtt - min rtt seen`), smoothed by an EWMA, and pushed into a fixed
/// ring of `TREND_WINDOW` `(time, delay)` points. A least-squares
/// trendline over the ring estimates the delay gradient; a sustained
/// positive slope (with hysteresis: `SLOPE_THRESHOLD_MS_PER_S`,
/// `MIN_QUEUE_DELAY_MS`, `OVERUSE_SUSTAIN`) declares **overuse**,
/// which cuts the window by 7/8 at most once per RTT and suspends
/// growth; a sustained negative slope declares **underuse** and merely
/// holds while the queue drains. With a flat trend the law probes
/// exactly like the byte-counting AIMD. Loss still bites — transient
/// loss is a gentle 7/8 cut, persistent loss halves — so the controller
/// stays TCP-survivable when delay gives no warning. One update is a
/// ring push plus an O(`TREND_WINDOW`) regression.
#[derive(Debug)]
struct DelayDetector {
    /// Minimum RTT observed since the last reset: the propagation-delay
    /// baseline queueing delay is measured against.
    base_rtt: Option<Duration>,
    /// Smoothed queueing delay, in milliseconds.
    smoothed_ms: f64,
    /// Sample ring: seconds (absolute driver time) and smoothed
    /// queueing-delay milliseconds.
    sample_t: [f64; TREND_WINDOW],
    sample_d: [f64; TREND_WINDOW],
    /// Live samples in the ring and the next write position.
    filled: usize,
    head: usize,
    /// The standing verdict; `None` is normal probing.
    state: DelaySignal,
    /// When the slope first crossed the overuse threshold, for the
    /// sustain hysteresis.
    overuse_since: Option<Time>,
    /// Last multiplicative cut, rate-limiting decreases to one per RTT.
    last_cut: Option<Time>,
}

impl DelayDetector {
    /// A detector with no samples and no cut behind it.
    const NEW: DelayDetector = DelayDetector {
        base_rtt: None,
        smoothed_ms: 0.0,
        sample_t: [0.0; TREND_WINDOW],
        sample_d: [0.0; TREND_WINDOW],
        filled: 0,
        head: 0,
        state: DelaySignal::None,
        overuse_since: None,
        last_cut: None,
    };

    /// Clears the filter (ring, EWMA, detector) but not the last cut —
    /// used when the delay signal goes stale (persistent loss, idle
    /// decay).
    fn clear_filter(&mut self) {
        *self = DelayDetector {
            last_cut: self.last_cut,
            ..DelayDetector::NEW
        };
    }

    /// Absorbs one RTT sample and returns the standing verdict.
    fn observe(&mut self, rtt: Duration, now: Time) -> DelaySignal {
        let base = self.base_rtt.map_or(rtt, |b| b.min(rtt));
        self.base_rtt = Some(base);
        let queue_ms = rtt.saturating_sub(base).as_nanos() as f64 / 1e6;
        self.smoothed_ms += DELAY_SMOOTHING * (queue_ms - self.smoothed_ms);

        self.sample_t[self.head] = now.as_nanos() as f64 / 1e9;
        self.sample_d[self.head] = self.smoothed_ms;
        self.head = (self.head + 1) % TREND_WINDOW;
        self.filled = (self.filled + 1).min(TREND_WINDOW);

        let slope = self.trend_slope().unwrap_or(0.0);
        if slope > SLOPE_THRESHOLD_MS_PER_S && self.smoothed_ms > MIN_QUEUE_DELAY_MS {
            let since = *self.overuse_since.get_or_insert(now);
            if now.since(since) >= OVERUSE_SUSTAIN {
                self.state = DelaySignal::Overuse;
            }
        } else {
            self.overuse_since = None;
            self.state = if slope < -SLOPE_THRESHOLD_MS_PER_S {
                DelaySignal::Underuse
            } else {
                DelaySignal::None
            };
        }
        self.state
    }

    /// Least-squares slope over the ring, in milliseconds of queueing
    /// delay per second, or `None` with fewer than four points.
    fn trend_slope(&self) -> Option<f64> {
        if self.filled < 4 {
            return None;
        }
        let n = self.filled as f64;
        let (mut st, mut sd) = (0.0, 0.0);
        for i in 0..self.filled {
            st += self.sample_t[i];
            sd += self.sample_d[i];
        }
        let (mt, md) = (st / n, sd / n);
        let (mut num, mut den) = (0.0, 0.0);
        for i in 0..self.filled {
            let dt = self.sample_t[i] - mt;
            num += dt * (self.sample_d[i] - md);
            den += dt * dt;
        }
        if den <= 0.0 {
            return None;
        }
        Some(num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(kind: ControllerKind) -> Controller {
        build_controller(&CmConfig {
            controller: kind,
            ..Default::default()
        })
    }

    fn aimd_bytes() -> Controller {
        build(ControllerKind::Aimd {
            byte_counting: true,
        })
    }

    /// A byte-counting AIMD already in congestion avoidance at a 10-MTU
    /// window.
    fn aimd_avoiding() -> Controller {
        Controller {
            init_window: 14600,
            wnd: 14600,
            ssthresh: 14600,
            ..aimd_bytes()
        }
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut c = aimd_bytes();
        assert_eq!(c.window(), 1460);
        // Ack a full window: doubles.
        c.on_ack(1460, 1, Time::ZERO);
        assert_eq!(c.window(), 2920);
        c.on_ack(2920, 2, Time::ZERO);
        assert_eq!(c.window(), 5840);
    }

    #[test]
    fn congestion_avoidance_linear_growth() {
        let mut c = aimd_avoiding();
        // At ssthresh already: acking one full window grows ~1 MTU.
        let w0 = c.window();
        c.on_ack(w0, 10, Time::ZERO);
        let w1 = c.window();
        assert!(
            (w1 - w0) >= 1460 - 10 && (w1 - w0) <= 1460 + 10,
            "CA growth {} after one window",
            w1 - w0
        );
    }

    #[test]
    fn ca_accumulates_fractional_growth() {
        let mut c = aimd_avoiding();
        let w0 = c.window();
        // Ten small acks of one-tenth window each: same total growth.
        for _ in 0..10 {
            c.on_ack(1460, 1, Time::ZERO);
        }
        let w1 = c.window();
        // Slightly under one MTU because the window compounds between
        // the small acks.
        assert!((w1 - w0) >= 1350 && (w1 - w0) <= 1470, "growth {}", w1 - w0);
    }

    #[test]
    fn transient_loss_halves() {
        let mut c = aimd_bytes();
        for _ in 0..6 {
            c.on_ack(c.window(), 4, Time::ZERO);
        }
        let before = c.window();
        c.on_loss(LossMode::Transient, Time::ZERO);
        assert_eq!(c.window(), before / 2);
        assert_eq!(c.ssthresh(), before / 2);
    }

    #[test]
    fn ecn_acts_like_transient() {
        let mut c = aimd_bytes();
        for _ in 0..6 {
            c.on_ack(c.window(), 4, Time::ZERO);
        }
        let before = c.window();
        c.on_loss(LossMode::Ecn, Time::ZERO);
        assert_eq!(c.window(), before / 2);
    }

    #[test]
    fn persistent_loss_collapses_to_initial() {
        let mut c = aimd_bytes();
        for _ in 0..6 {
            c.on_ack(c.window(), 4, Time::ZERO);
        }
        let before = c.window();
        c.on_loss(LossMode::Persistent, Time::ZERO);
        assert_eq!(c.window(), 1460);
        assert_eq!(c.ssthresh(), before / 2);
        // And it slow-starts again from there.
        c.on_ack(1460, 1, Time::ZERO);
        assert_eq!(c.window(), 2920);
    }

    #[test]
    fn window_floor_is_two_mtu_on_halving() {
        let mut c = aimd_bytes();
        for _ in 0..10 {
            c.on_loss(LossMode::Transient, Time::ZERO);
        }
        assert_eq!(c.window(), 2 * 1460);
    }

    #[test]
    fn byte_counting_resists_ack_division() {
        // 10 ACKs each covering 146 bytes (an attacker splitting one MTU
        // into ten ACKs): byte counting grows by 1460 total, ACK counting
        // would grow by 14600.
        let mut bytes = aimd_bytes();
        let mut acks = build(ControllerKind::Aimd {
            byte_counting: false,
        });
        for _ in 0..10 {
            bytes.on_ack(146, 1, Time::ZERO);
            acks.on_ack(146, 1, Time::ZERO);
        }
        assert_eq!(bytes.window(), 1460 + 1460);
        assert_eq!(acks.window(), 1460 + 14600);
    }

    #[test]
    fn idle_decay_halves_to_initial_floor() {
        let mut c = aimd_bytes();
        for _ in 0..6 {
            c.on_ack(c.window(), 4, Time::ZERO);
        }
        let w = c.window();
        c.decay_idle(2);
        assert_eq!(c.window(), w / 4);
        c.decay_idle(50);
        assert_eq!(c.window(), 1460);
    }

    #[test]
    fn rate_estimate_uses_srtt() {
        let c = aimd_avoiding();
        let r = c.rate(Some(Duration::from_millis(100)));
        // 14600 bytes / 100 ms = 146 KB/s = 1.168 Mbps.
        assert_eq!(r.as_bytes_per_sec(), 146_000);
        assert_eq!(c.rate(None), Rate::ZERO);
    }

    #[test]
    fn rate_based_smoother_than_window() {
        let mut c = build(ControllerKind::RateBased);
        for _ in 0..20 {
            c.on_ack(c.window(), 4, Time::ZERO);
        }
        let before = c.window();
        c.on_loss(LossMode::Transient, Time::ZERO);
        // Gentle decrease (7/8) rather than halving.
        assert_eq!(c.window(), before * 7 / 8);
    }

    #[test]
    fn reset_restores_initial_state() {
        let cfg = CmConfig::default();
        let mut c = build_controller(&cfg);
        for _ in 0..6 {
            c.on_ack(c.window(), 4, Time::ZERO);
        }
        c.on_loss(LossMode::Transient, Time::ZERO);
        assert_ne!(c.window(), cfg.initial_window_bytes());
        c.reset(&cfg);
        assert_eq!(c.window(), cfg.initial_window_bytes());
        assert_eq!(c.ssthresh(), INITIAL_SSTHRESH);
        // And it slow-starts from scratch again.
        c.on_ack(1460, 1, Time::ZERO);
        assert_eq!(c.window(), 2920);

        let rb_cfg = CmConfig {
            controller: ControllerKind::RateBased,
            ..Default::default()
        };
        let mut rb = build_controller(&rb_cfg);
        for _ in 0..10 {
            rb.on_ack(rb.window(), 2, Time::ZERO);
        }
        rb.reset(&rb_cfg);
        assert_eq!(rb.window(), rb_cfg.initial_window_bytes());
    }

    #[test]
    fn builder_respects_config() {
        let c = build_controller(&CmConfig::default());
        assert!(matches!(
            c.law,
            Law::Aimd {
                byte_counting: true
            }
        ));
        // The Linux 2.2 baseline: an initial window of 2 MTUs, ACK counting.
        let c = build_controller(&CmConfig {
            initial_window_mtus: 2,
            controller: ControllerKind::Aimd {
                byte_counting: false,
            },
            ..Default::default()
        });
        assert!(matches!(
            c.law,
            Law::Aimd {
                byte_counting: false
            }
        ));
        assert_eq!(c.window(), 2920);
        assert!(matches!(
            build(ControllerKind::RateBased).law,
            Law::RateBased
        ));
        assert!(matches!(
            build(ControllerKind::DelayGradient).law,
            Law::DelayGradient(_)
        ));
    }

    #[test]
    fn configured_window_cap_binds_every_controller() {
        for kind in [
            ControllerKind::Aimd {
                byte_counting: true,
            },
            ControllerKind::Aimd {
                byte_counting: false,
            },
            ControllerKind::RateBased,
            ControllerKind::DelayGradient,
        ] {
            let mut c = build(kind);
            for _ in 0..128 {
                c.on_ack(c.window(), u32::MAX, Time::ZERO);
            }
            assert_eq!(c.window(), MAX_WINDOW_BYTES, "{}", kind.label());
        }
    }

    fn dg() -> Controller {
        build(ControllerKind::DelayGradient)
    }

    /// Feeds `n` RTT samples ramping linearly from `from` to `to`, one
    /// per 10 ms, acking a window's worth of data between samples (the
    /// injected-overuse pattern). Returns the signals observed.
    fn drive_ramp(
        c: &mut Controller,
        start: Time,
        n: u32,
        from: Duration,
        to: Duration,
    ) -> Vec<DelaySignal> {
        let mut out = Vec::new();
        for i in 0..n {
            let now = start + Duration::from_millis(10 * (i as u64 + 1));
            let frac = i as f64 / n.max(1) as f64;
            let rtt = Duration::from_secs_f64(
                from.as_secs_f64() + frac * (to.as_secs_f64() - from.as_secs_f64()),
            );
            out.push(c.on_rtt_sample(rtt, now));
            c.on_ack(c.window(), 4, now);
        }
        out
    }

    #[test]
    fn flat_delay_probes_like_aimd() {
        let mut c = dg();
        let mut now = Time::ZERO;
        for _ in 0..20 {
            now += Duration::from_millis(10);
            assert_eq!(
                c.on_rtt_sample(Duration::from_millis(50), now),
                DelaySignal::None
            );
            c.on_ack(c.window(), 4, now);
        }
        // Slow-start growth happened (doubling per window acked).
        assert!(c.window() > 100 * 1460, "no growth under flat delay");
    }

    #[test]
    fn delay_ramp_declares_overuse_and_stops_growth() {
        let mut c = dg();
        // Warm up flat so the baseline and ring fill.
        drive_ramp(
            &mut c,
            Time::ZERO,
            20,
            Duration::from_millis(50),
            Duration::from_millis(50),
        );
        // Ramp the RTT 50 -> 250 ms over one second: queue is building.
        // From the first overuse verdict onward the window must never
        // exceed its value at detection, and at least one cut must land.
        let mut w_at_detect: Option<u64> = None;
        for i in 0..100u32 {
            let now = Time::from_millis(200) + Duration::from_millis(10 * (i as u64 + 1));
            let rtt = Duration::from_millis(50 + 2 * i as u64);
            let sig = c.on_rtt_sample(rtt, now);
            if sig.is_overuse() && w_at_detect.is_none() {
                w_at_detect = Some(c.window());
            }
            c.on_ack(c.window(), 4, now);
            if let Some(w) = w_at_detect {
                assert!(
                    c.window() <= w,
                    "window grew after overuse was declared ({} > {w} at step {i})",
                    c.window()
                );
            }
        }
        let w = w_at_detect.expect("sustained delay growth never declared overuse");
        assert!(
            c.window() < w,
            "no multiplicative decrease during sustained overuse \
             (detect {w}, end {})",
            c.window()
        );
    }

    #[test]
    fn falling_delay_holds_instead_of_probing() {
        let mut c = dg();
        drive_ramp(
            &mut c,
            Time::ZERO,
            20,
            Duration::from_millis(50),
            Duration::from_millis(50),
        );
        // Push delay up, then let it fall: the fall must read as
        // underuse and freeze the window rather than re-probing it.
        drive_ramp(
            &mut c,
            Time::from_millis(200),
            60,
            Duration::from_millis(50),
            Duration::from_millis(200),
        );
        let w = c.window();
        let signals = drive_ramp(
            &mut c,
            Time::from_millis(800),
            40,
            Duration::from_millis(200),
            Duration::from_millis(60),
        );
        assert!(
            signals.contains(&DelaySignal::Underuse),
            "draining queue never read as underuse: {signals:?}"
        );
        assert!(
            c.window() <= w,
            "window grew while the queue drained ({} -> {})",
            w,
            c.window()
        );
    }

    #[test]
    fn dg_loss_still_bites() {
        let mut c = dg();
        drive_ramp(
            &mut c,
            Time::ZERO,
            30,
            Duration::from_millis(50),
            Duration::from_millis(50),
        );
        let w = c.window();
        c.on_loss(LossMode::Transient, Time::ZERO);
        assert_eq!(c.window(), w * 7 / 8, "transient loss is a gentle cut");
        let w2 = c.window();
        c.on_loss(LossMode::Persistent, Time::ZERO);
        assert_eq!(c.window(), w2 / 2, "persistent loss halves");
        // Persistent loss re-learns the baseline: the next flat samples
        // carry no stale overuse verdict.
        assert_eq!(
            c.on_rtt_sample(Duration::from_millis(300), Time::from_secs(2)),
            DelaySignal::None
        );
    }

    #[test]
    fn dg_floor_cap_reset_and_decay() {
        let cfg = CmConfig {
            controller: ControllerKind::DelayGradient,
            ..Default::default()
        };
        let mut c = build_controller(&cfg);
        for _ in 0..100 {
            c.on_loss(LossMode::Persistent, Time::ZERO);
        }
        assert_eq!(c.window(), 1460, "floor is 1 MTU");
        let mut c = dg();
        drive_ramp(
            &mut c,
            Time::ZERO,
            40,
            Duration::from_millis(50),
            Duration::from_millis(50),
        );
        let w = c.window();
        c.decay_idle(2);
        assert_eq!(c.window(), (w / 4).max(1460));
        c.reset(&cfg);
        assert_eq!(c.window(), cfg.initial_window_bytes());
    }

    #[test]
    fn legacy_controllers_ignore_rtt_samples() {
        // Only the delay-gradient law reads RTT samples: absurd samples
        // change nothing for the loss- and rate-based laws.
        for kind in [
            ControllerKind::Aimd {
                byte_counting: true,
            },
            ControllerKind::RateBased,
        ] {
            let mut c = build(kind);
            c.on_ack(c.window(), 4, Time::ZERO);
            let w = c.window();
            for rtt_ms in [0u64, 1, 10_000, 3_600_000] {
                assert_eq!(
                    c.on_rtt_sample(Duration::from_millis(rtt_ms), Time::ZERO),
                    DelaySignal::None
                );
            }
            assert_eq!(c.window(), w, "{} moved on an RTT sample", kind.label());
        }
    }
}
