//! Per-macroflow congestion controllers.
//!
//! The CM's controller is a TCP-compatible window AIMD with slow start
//! ([`AimdController`]), using **byte counting** — the window grows by the
//! number of bytes acknowledged, not the number of ACK packets — which
//! both defends against the ACK-division attack (Savage et al., cited in
//! the paper's §5) and explains the small initial-window differences
//! measured against Linux in §4.
//!
//! The trait boundary is the modularity the paper advertises: "the CM
//! encourages experimentation with other non-AIMD schemes that may be
//! better suited to specific data types such as audio or video." A
//! smooth [`RateBasedController`] is provided in that spirit, and a
//! [`DelayGradientController`] extends the family to delay-based
//! control: a trendline filter over the feedback stream's RTT samples
//! drives an overuse detector, so the controller backs off while the
//! bottleneck queue is still *building* — before loss-based schemes see
//! any signal at all.

use cm_util::{Duration, Rate, Time};

use crate::config::{CmConfig, ControllerKind};
use crate::types::LossMode;

/// The delay detector's verdict for one RTT sample, as returned by
/// [`CongestionController::on_rtt_sample`]. Loss- and rate-based
/// controllers always answer [`DelaySignal::None`]; the delay-gradient
/// controller reports sustained queue growth (`Overuse`, which the shard
/// records as a `congestion_delay` trace event) or drain (`Underuse`).
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

/// A congestion-control algorithm governing one macroflow.
pub trait CongestionController: Send {
    /// Absorbs positive feedback: `bytes` newly acknowledged across
    /// `acks` acknowledgement events.
    fn on_ack(&mut self, bytes: u64, acks: u32, now: Time);

    /// Absorbs a congestion signal.
    fn on_loss(&mut self, mode: LossMode, now: Time);

    /// Absorbs one RTT sample from validated feedback, *before* the
    /// report's positive feedback is applied, and returns the delay
    /// detector's verdict. The default ignores the sample — loss- and
    /// rate-based controllers read delay only through `rate()`'s
    /// smoothed-RTT argument — so existing controllers are bit-for-bit
    /// unchanged.
    fn on_rtt_sample(&mut self, rtt: Duration, now: Time) -> DelaySignal {
        let _ = (rtt, now);
        DelaySignal::None
    }

    /// The current congestion window, in bytes: the number of bytes the
    /// macroflow may have outstanding.
    fn window(&self) -> u64;

    /// The current slow-start threshold, in bytes.
    fn ssthresh(&self) -> u64;

    /// The sustainable rate estimate given the smoothed RTT.
    fn rate(&self, srtt: Option<Duration>) -> Rate;

    /// Applies the staleness rule after `intervals` idle periods: halve
    /// per interval, never below the initial window.
    fn decay_idle(&mut self, intervals: u32);

    /// Restores pristine initial state per `cfg`, as if freshly built
    /// (the window cap is the one it was built with) — used when a pooled
    /// macroflow shell is re-issued, so macroflow churn does not rebuild
    /// (re-allocate) controllers.
    fn reset(&mut self, cfg: &CmConfig);

    /// Human-readable algorithm name (for experiment output).
    fn name(&self) -> &'static str;
}

/// Slow-start threshold of a fresh controller: effectively unbounded, as
/// in Linux 2.2.
const INITIAL_SSTHRESH: u64 = u64::MAX / 2;

/// Hard upper bound on the window of every controller
/// [`build_controller`] makes, in bytes: the historical AIMD fixed-point
/// guard, far above every real path's bandwidth-delay product, so it
/// only bites on runaway feedback.
pub const MAX_WINDOW_BYTES: u64 = 1 << 40;

/// Builds the controller selected by a [`CmConfig`].
pub fn build_controller(cfg: &CmConfig) -> Box<dyn CongestionController> {
    match cfg.controller {
        ControllerKind::Aimd { byte_counting } => Box::new(AimdController::new(
            cfg.mtu,
            cfg.initial_window_bytes(),
            INITIAL_SSTHRESH,
            byte_counting,
            MAX_WINDOW_BYTES,
        )),
        ControllerKind::RateBased => Box::new(RateBasedController::new(
            cfg.mtu,
            cfg.initial_window_bytes(),
            MAX_WINDOW_BYTES,
        )),
        ControllerKind::DelayGradient => Box::new(DelayGradientController::new(
            cfg.mtu,
            cfg.initial_window_bytes(),
            MAX_WINDOW_BYTES,
        )),
    }
}

/// TCP-style window AIMD with slow start.
///
/// * Slow start (`cwnd < ssthresh`): the window grows by the bytes acked
///   (byte counting) or one MTU per ACK (ACK counting) — doubling per RTT.
/// * Congestion avoidance: the window grows by roughly one MTU per RTT
///   (`mtu * bytes_acked / cwnd` per update).
/// * Transient congestion or an ECN echo halves the window.
/// * Persistent congestion (the paper's `CM_LOST_FEEDBACK`) collapses the
///   window to its initial value and re-enters slow start, like a TCP
///   timeout.
#[derive(Debug)]
pub struct AimdController {
    mtu: u64,
    init_window: u64,
    cwnd: u64,
    ssthresh: u64,
    byte_counting: bool,
    /// Window cap given at construction ([`MAX_WINDOW_BYTES`] from
    /// [`build_controller`]); protects the fixed-point arithmetic and
    /// bounds runaway feedback.
    max_window: u64,
    /// Fractional congestion-avoidance growth carried between updates,
    /// in bytes scaled by `cwnd` (i.e. we accumulate `mtu * bytes_acked`
    /// and emit growth each time it exceeds `cwnd`).
    ca_accum: u64,
}

impl AimdController {
    /// Creates an AIMD controller.
    pub fn new(
        mtu: usize,
        init_window: u64,
        init_ssthresh: u64,
        byte_counting: bool,
        max_window: u64,
    ) -> Self {
        AimdController {
            mtu: mtu as u64,
            init_window,
            cwnd: init_window,
            ssthresh: init_ssthresh,
            byte_counting,
            max_window,
            ca_accum: 0,
        }
    }
}

impl CongestionController for AimdController {
    fn on_ack(&mut self, bytes: u64, acks: u32, _now: Time) {
        if bytes == 0 && acks == 0 {
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: exponential growth.
            let growth = if self.byte_counting {
                bytes
            } else {
                self.mtu * acks as u64
            };
            self.cwnd = (self.cwnd + growth).min(self.max_window);
            return;
        }
        // Congestion avoidance: ~one MTU per window of data acked.
        let credit = if self.byte_counting {
            self.mtu * bytes
        } else {
            // ACK counting assumes each ACK covers a full MTU.
            self.mtu * self.mtu * acks as u64
        };
        self.ca_accum += credit;
        if self.ca_accum >= self.cwnd && self.cwnd > 0 {
            let growth = self.ca_accum / self.cwnd;
            self.ca_accum %= self.cwnd;
            self.cwnd = (self.cwnd + growth).min(self.max_window);
        }
    }

    fn on_loss(&mut self, mode: LossMode, _now: Time) {
        match mode {
            LossMode::None => {}
            LossMode::Transient | LossMode::Ecn => {
                self.ssthresh = (self.cwnd / 2).max(2 * self.mtu);
                self.cwnd = self.ssthresh;
                self.ca_accum = 0;
            }
            LossMode::Persistent => {
                self.ssthresh = (self.cwnd / 2).max(2 * self.mtu);
                self.cwnd = self.init_window;
                self.ca_accum = 0;
            }
        }
    }

    fn window(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn rate(&self, srtt: Option<Duration>) -> Rate {
        match srtt {
            Some(rtt) if !rtt.is_zero() => Rate::from_window(self.cwnd, rtt),
            _ => Rate::ZERO,
        }
    }

    fn decay_idle(&mut self, intervals: u32) {
        for _ in 0..intervals.min(63) {
            if self.cwnd <= self.init_window {
                break;
            }
            self.cwnd = (self.cwnd / 2).max(self.init_window);
        }
        self.ca_accum = 0;
    }

    fn reset(&mut self, cfg: &CmConfig) {
        self.mtu = cfg.mtu as u64;
        self.init_window = cfg.initial_window_bytes();
        self.cwnd = self.init_window;
        self.ssthresh = INITIAL_SSTHRESH;
        self.ca_accum = 0;
    }

    fn name(&self) -> &'static str {
        if self.byte_counting {
            "aimd-bytes"
        } else {
            "aimd-acks"
        }
    }
}

/// AIMD applied to a rate estimate instead of a window.
///
/// Additive increase of one MTU per RTT's worth of acknowledged data;
/// multiplicative decrease on congestion. The exposed `window()` is the
/// rate-RTT product so the CM's window bookkeeping works unchanged. The
/// smoother evolution (no slow-start overshoot after persistent loss)
/// suits layered media, which is why the paper calls out non-AIMD and
/// rate-based schemes as the natural extension point.
#[derive(Debug)]
pub struct RateBasedController {
    mtu: u64,
    init_window: u64,
    /// Window-equivalent state, in bytes (rate * srtt).
    wnd: u64,
    ssthresh: u64,
    /// Window cap given at construction.
    max_window: u64,
    accum: u64,
}

impl RateBasedController {
    /// Creates a rate-based controller.
    pub fn new(mtu: usize, init_window: u64, max_window: u64) -> Self {
        RateBasedController {
            mtu: mtu as u64,
            init_window,
            wnd: init_window,
            ssthresh: INITIAL_SSTHRESH,
            max_window,
            accum: 0,
        }
    }
}

impl CongestionController for RateBasedController {
    fn on_ack(&mut self, bytes: u64, _acks: u32, _now: Time) {
        // Mildly super-linear start: below ssthresh grow by bytes/2,
        // otherwise one MTU per window acked.
        if self.wnd < self.ssthresh {
            self.wnd = (self.wnd + bytes / 2 + 1).min(self.max_window);
            return;
        }
        self.accum += self.mtu * bytes;
        if self.accum >= self.wnd && self.wnd > 0 {
            self.wnd = (self.wnd + self.accum / self.wnd).min(self.max_window);
            self.accum %= self.wnd;
        }
    }

    fn on_loss(&mut self, mode: LossMode, _now: Time) {
        match mode {
            LossMode::None => {}
            LossMode::Transient | LossMode::Ecn => {
                self.wnd = (self.wnd * 7 / 8).max(self.mtu);
                self.ssthresh = self.wnd;
            }
            LossMode::Persistent => {
                self.wnd = (self.wnd / 2).max(self.mtu);
                self.ssthresh = self.wnd;
            }
        }
        self.accum = 0;
    }

    fn window(&self) -> u64 {
        self.wnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn rate(&self, srtt: Option<Duration>) -> Rate {
        match srtt {
            Some(rtt) if !rtt.is_zero() => Rate::from_window(self.wnd, rtt),
            _ => Rate::ZERO,
        }
    }

    fn decay_idle(&mut self, intervals: u32) {
        for _ in 0..intervals.min(63) {
            if self.wnd <= self.init_window {
                break;
            }
            self.wnd = (self.wnd * 3 / 4).max(self.init_window);
        }
    }

    fn reset(&mut self, cfg: &CmConfig) {
        self.mtu = cfg.mtu as u64;
        self.init_window = cfg.initial_window_bytes();
        self.wnd = self.init_window;
        self.ssthresh = INITIAL_SSTHRESH;
        self.accum = 0;
    }

    fn name(&self) -> &'static str {
        "rate-aimd"
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

/// Detector state with hysteresis, GCC-style.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DelayState {
    /// Queueing delay flat: normal AIMD probing.
    Normal,
    /// Queueing delay growing persistently: back off, no growth.
    Overuse,
    /// Queueing delay falling: hold while the queue drains.
    Underuse,
}

/// Delay-gradient congestion control: AIMD actuated by the *trend* of
/// queueing delay instead of loss.
///
/// Each validated RTT sample is reduced to a queueing-delay estimate
/// (`rtt - min rtt seen`), smoothed by an EWMA, and pushed into a fixed
/// ring of `TREND_WINDOW` `(time, delay)` points. A least-squares
/// trendline over the ring estimates the delay gradient; a sustained
/// positive slope (with hysteresis: `SLOPE_THRESHOLD_MS_PER_S`,
/// `MIN_QUEUE_DELAY_MS`, `OVERUSE_SUSTAIN`) declares **overuse**,
/// which cuts the window multiplicatively (7/8, at most once per RTT)
/// and suspends growth; a sustained negative slope declares **underuse**
/// and merely holds while the queue drains. With a flat trend the
/// controller probes exactly like the byte-counting AIMD. Loss still
/// bites — transient loss is a gentle 7/8 cut, persistent loss halves —
/// so the controller stays TCP-survivable when delay gives no warning.
///
/// All state is flat (fixed arrays, no heap) per docs/perf.md: one
/// update is a ring push plus an O(`TREND_WINDOW`) regression, and
/// `reset` restores pristine state in place for the macroflow shell
/// pool.
#[derive(Debug)]
pub struct DelayGradientController {
    mtu: u64,
    init_window: u64,
    max_window: u64,
    wnd: u64,
    ssthresh: u64,
    accum: u64,
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
    state: DelayState,
    /// When the slope first crossed the overuse threshold, for the
    /// sustain hysteresis.
    overuse_since: Option<Time>,
    /// Last multiplicative cut, rate-limiting decreases to one per RTT.
    last_cut: Option<Time>,
}

impl DelayGradientController {
    /// Creates a delay-gradient controller.
    pub fn new(mtu: usize, init_window: u64, max_window: u64) -> Self {
        DelayGradientController {
            mtu: mtu as u64,
            init_window,
            max_window,
            wnd: init_window,
            ssthresh: INITIAL_SSTHRESH,
            accum: 0,
            base_rtt: None,
            smoothed_ms: 0.0,
            sample_t: [0.0; TREND_WINDOW],
            sample_d: [0.0; TREND_WINDOW],
            filled: 0,
            head: 0,
            state: DelayState::Normal,
            overuse_since: None,
            last_cut: None,
        }
    }

    /// Clears the filter (ring, EWMA, detector) without touching the
    /// window — used when the delay signal goes stale (persistent loss,
    /// idle decay).
    fn clear_filter(&mut self) {
        self.base_rtt = None;
        self.smoothed_ms = 0.0;
        self.filled = 0;
        self.head = 0;
        self.state = DelayState::Normal;
        self.overuse_since = None;
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

impl CongestionController for DelayGradientController {
    fn on_ack(&mut self, bytes: u64, acks: u32, _now: Time) {
        if bytes == 0 && acks == 0 {
            return;
        }
        match self.state {
            // Overuse: the cut in `on_rtt_sample` must drain first.
            // Underuse: hold while the queue empties — growth on top of
            // a draining queue re-fills it.
            DelayState::Overuse | DelayState::Underuse => {}
            DelayState::Normal => {
                if self.wnd < self.ssthresh {
                    self.wnd = (self.wnd + bytes).min(self.max_window);
                    return;
                }
                self.accum += self.mtu * bytes;
                if self.accum >= self.wnd && self.wnd > 0 {
                    let growth = self.accum / self.wnd;
                    self.accum %= self.wnd;
                    self.wnd = (self.wnd + growth).min(self.max_window);
                }
            }
        }
    }

    fn on_loss(&mut self, mode: LossMode, _now: Time) {
        match mode {
            LossMode::None => {}
            LossMode::Transient | LossMode::Ecn => {
                // Delay usually warns first; when loss arrives anyway,
                // a gentle cut keeps the rate media-smooth.
                self.wnd = (self.wnd * 7 / 8).max(self.mtu);
                self.ssthresh = self.wnd;
                self.accum = 0;
            }
            LossMode::Persistent => {
                self.wnd = (self.wnd / 2).max(self.mtu);
                self.ssthresh = self.wnd;
                self.accum = 0;
                // The path evidently changed under us; re-learn the
                // delay baseline rather than trusting a stale minimum.
                self.clear_filter();
            }
        }
    }

    fn on_rtt_sample(&mut self, rtt: Duration, now: Time) -> DelaySignal {
        let base = match self.base_rtt {
            Some(b) if b <= rtt => b,
            _ => {
                self.base_rtt = Some(rtt);
                rtt
            }
        };
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
                self.state = DelayState::Overuse;
            }
        } else if slope < -SLOPE_THRESHOLD_MS_PER_S {
            self.overuse_since = None;
            self.state = DelayState::Underuse;
        } else {
            self.overuse_since = None;
            self.state = DelayState::Normal;
        }

        if self.state == DelayState::Overuse {
            // Multiplicative decrease, at most once per RTT so one
            // episode is one cut per feedback round-trip.
            let due = match self.last_cut {
                None => true,
                Some(at) => now.since(at) >= rtt,
            };
            if due {
                self.wnd = (self.wnd * 7 / 8).max(self.mtu);
                self.ssthresh = self.wnd;
                self.accum = 0;
                self.last_cut = Some(now);
            }
            DelaySignal::Overuse
        } else if self.state == DelayState::Underuse {
            DelaySignal::Underuse
        } else {
            DelaySignal::None
        }
    }

    fn window(&self) -> u64 {
        self.wnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn rate(&self, srtt: Option<Duration>) -> Rate {
        match srtt {
            Some(rtt) if !rtt.is_zero() => Rate::from_window(self.wnd, rtt),
            _ => Rate::ZERO,
        }
    }

    fn decay_idle(&mut self, intervals: u32) {
        for _ in 0..intervals.min(63) {
            if self.wnd <= self.init_window {
                break;
            }
            self.wnd = (self.wnd / 2).max(self.init_window);
        }
        self.accum = 0;
        // An idle macroflow's delay picture is stale by definition.
        self.clear_filter();
    }

    fn reset(&mut self, cfg: &CmConfig) {
        self.mtu = cfg.mtu as u64;
        self.init_window = cfg.initial_window_bytes();
        self.wnd = self.init_window;
        self.ssthresh = INITIAL_SSTHRESH;
        self.accum = 0;
        self.last_cut = None;
        self.clear_filter();
    }

    fn name(&self) -> &'static str {
        "delay-gradient"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aimd_bytes() -> AimdController {
        AimdController::new(1460, 1460, u64::MAX / 2, true, MAX_WINDOW_BYTES)
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
        let mut c = AimdController::new(1460, 14600, 14600, true, MAX_WINDOW_BYTES);
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
        let mut c = AimdController::new(1460, 14600, 14600, true, MAX_WINDOW_BYTES);
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
        let mut bytes = AimdController::new(1460, 1460, u64::MAX / 2, true, MAX_WINDOW_BYTES);
        let mut acks = AimdController::new(1460, 1460, u64::MAX / 2, false, MAX_WINDOW_BYTES);
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
        let c = AimdController::new(1460, 14600, 14600, true, MAX_WINDOW_BYTES);
        let r = c.rate(Some(Duration::from_millis(100)));
        // 14600 bytes / 100 ms = 146 KB/s = 1.168 Mbps.
        assert_eq!(r.as_bytes_per_sec(), 146_000);
        assert_eq!(c.rate(None), Rate::ZERO);
    }

    #[test]
    fn rate_based_smoother_than_window() {
        let mut c = RateBasedController::new(1460, 1460, MAX_WINDOW_BYTES);
        for _ in 0..20 {
            c.on_ack(c.window(), 4, Time::ZERO);
        }
        let before = c.window();
        c.on_loss(LossMode::Transient, Time::ZERO);
        // Gentle decrease (7/8) rather than halving.
        assert_eq!(c.window(), before * 7 / 8);
        assert_eq!(c.name(), "rate-aimd");
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
        let cm_cfg = CmConfig::default();
        let c = build_controller(&cm_cfg);
        assert_eq!(c.name(), "aimd-bytes");
        let linux = CmConfig::linux_like();
        let c = build_controller(&linux);
        assert_eq!(c.name(), "aimd-acks");
        assert_eq!(c.window(), 2920);
        let rb = CmConfig {
            controller: ControllerKind::RateBased,
            ..Default::default()
        };
        assert_eq!(build_controller(&rb).name(), "rate-aimd");
        let dg = CmConfig {
            controller: ControllerKind::DelayGradient,
            ..Default::default()
        };
        assert_eq!(build_controller(&dg).name(), "delay-gradient");
    }

    #[test]
    fn configured_window_cap_binds_every_controller() {
        let cap = 10_000;
        let controllers: [Box<dyn CongestionController>; 3] = [
            Box::new(AimdController::new(1460, 1460, INITIAL_SSTHRESH, true, cap)),
            Box::new(RateBasedController::new(1460, 1460, cap)),
            Box::new(DelayGradientController::new(1460, 1460, cap)),
        ];
        for mut c in controllers {
            for _ in 0..64 {
                c.on_ack(c.window(), 8, Time::ZERO);
            }
            assert!(
                c.window() <= 10_000,
                "{} exceeded the configured cap: {}",
                c.name(),
                c.window()
            );
        }
    }

    fn dg() -> DelayGradientController {
        DelayGradientController::new(1460, 1460, MAX_WINDOW_BYTES)
    }

    /// Feeds `n` RTT samples ramping linearly from `from` to `to`, one
    /// per 10 ms, acking a window's worth of data between samples (the
    /// injected-overuse pattern). Returns the signals observed.
    fn drive_ramp(
        c: &mut DelayGradientController,
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
            // Re-borrow as the concrete type for the ramp helper.
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
        assert_eq!(c.name(), "delay-gradient");
    }

    #[test]
    fn legacy_controllers_ignore_rtt_samples() {
        // The default trait hook keeps loss/rate controllers
        // bit-for-bit unchanged: absurd samples change nothing.
        for kind in [
            ControllerKind::Aimd {
                byte_counting: true,
            },
            ControllerKind::RateBased,
        ] {
            let mut c = build_controller(&CmConfig {
                controller: kind,
                ..Default::default()
            });
            c.on_ack(c.window(), 4, Time::ZERO);
            let w = c.window();
            for rtt_ms in [0u64, 1, 10_000, 3_600_000] {
                assert_eq!(
                    c.on_rtt_sample(Duration::from_millis(rtt_ms), Time::ZERO),
                    DelaySignal::None
                );
            }
            assert_eq!(c.window(), w, "{} moved on an RTT sample", c.name());
        }
    }
}
