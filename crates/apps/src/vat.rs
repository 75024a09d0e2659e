//! The adaptive `vat` interactive-audio architecture (paper §3.6,
//! Figure 2).
//!
//! `vat` produces constant-bit-rate audio it cannot downsample, so the
//! only adaptation lever is *preemptive packet dropping*: a policer
//! tracks the rate the CM reports and drops frames that exceed it before
//! they reach the buffers, keeping queueing delay — the enemy of
//! interactive audio — out of the pipeline:
//!
//! ```text
//!  64K audio ──▶ policer ──▶ app buffer ──▶ kernel buffer ──▶ CM ──▶ net
//!               (CM rate)   (drop-head)      (small, CC-UDP)
//! ```
//!
//! The application buffer absorbs the congestion controller's short-term
//! probing; drop-from-head keeps the buffered audio *fresh* (old audio is
//! worthless in a conversation), versus the kernel's default drop-tail.
//!
//! The policer's target rate comes from the shared `cm-adapt` engine: a
//! [`cm_adapt::UtilityPolicy`] over a 4-64 Kbit/s grid, EWMA-smoothing
//! the CM's callbacks so single AIMD probes do not whipsaw the drop
//! rate. Its level grid quantizes the old `clamp(rate, 4k, 64k)` rule.

use cm_adapt::{AdaptationStats, Engine, RateLadder, UtilityPolicy};
use cm_core::types::{FlowId, FlowInfo, Thresholds};
use cm_netsim::packet::Addr;
use cm_transport::feedback::FeedbackTracker;
use cm_transport::host::{HostApp, HostOs};
use cm_transport::segment::{UdpBody, UdpDatagram};
use cm_transport::types::UdpSocketId;
use cm_util::{Duration, Rate, Time, TokenBucket};

/// Application-buffer overflow behaviour.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropPolicy {
    /// Drop the oldest frame (vat's choice: keep audio fresh).
    Head,
    /// Drop the incoming frame (the kernel-buffer default).
    Tail,
}

/// Timer token for audio frame generation.
const FRAME: u64 = 1;

/// One buffered audio frame.
#[derive(Clone, Copy, Debug)]
struct Frame {
    seq: u64,
    created: Time,
}

/// The CM-adaptive vat sender.
pub struct VatAudio {
    /// Receiver address.
    pub remote: Addr,
    /// Receiver port.
    pub port: u16,
    /// Source rate (64 Kbit/s in vat).
    pub source_rate: Rate,
    /// Audio frame interval (20 ms per RTP audio convention).
    pub frame_interval: Duration,
    /// Application buffer capacity, frames.
    pub app_buffer_frames: usize,
    /// Application buffer drop policy.
    pub policy: DropPolicy,
    /// Stop at this instant.
    pub stop_at: Time,
    /// Frames produced by the source.
    pub frames_generated: u64,
    /// Frames dropped by the policer (long-term adaptation).
    pub policer_drops: u64,
    /// Frames dropped by the app buffer (short-term overflow).
    pub buffer_drops: u64,
    /// Frames handed to the kernel.
    pub frames_sent: u64,
    /// Sum of frame ages at transmission, for mean-delay reporting.
    age_sum_ns: u64,
    sock: Option<UdpSocketId>,
    flow: Option<FlowId>,
    policer: TokenBucket,
    /// Turns CM rate callbacks into policer targets on a 4-64 Kbit/s
    /// utility grid.
    engine: Engine,
    buffer: std::collections::VecDeque<Frame>,
    tracker: FeedbackTracker,
    seq: u64,
}

impl VatAudio {
    /// Creates a vat sender with the paper's constants: 64 Kbit/s source,
    /// 20 ms frames.
    pub fn new(remote: Addr, port: u16, policy: DropPolicy, stop_at: Time) -> Self {
        let source_rate = Rate::from_kbps(64);
        // 16 policer levels from the 4 Kbit/s floor to the source rate;
        // log utility, mild smoothing (gain 0.5), no switch margin — the
        // EWMA alone supplies the damping an audio policer wants.
        let grid = RateLadder::linear(Rate::from_kbps(4), source_rate, 16);
        let engine = Engine::new(Box::new(UtilityPolicy::log_utility(grid, 0.5, 1.0, 0.0)));
        VatAudio {
            remote,
            port,
            source_rate,
            frame_interval: Duration::from_millis(20),
            app_buffer_frames: 8,
            policy,
            stop_at,
            frames_generated: 0,
            policer_drops: 0,
            buffer_drops: 0,
            frames_sent: 0,
            age_sum_ns: 0,
            sock: None,
            flow: None,
            // The policer starts permissive (source rate) and adapts on
            // CM rate callbacks; a two-frame burst allowance.
            policer: TokenBucket::new(source_rate, 2 * 160),
            engine,
            buffer: std::collections::VecDeque::new(),
            tracker: FeedbackTracker::new(),
            seq: 0,
        }
    }

    /// Frame payload size implied by the source rate and interval.
    pub fn frame_bytes(&self) -> u32 {
        self.source_rate.bytes_in(self.frame_interval) as u32
    }

    /// Mean queueing age of transmitted frames, milliseconds.
    pub fn mean_send_age_ms(&self) -> f64 {
        if self.frames_sent == 0 {
            return 0.0;
        }
        self.age_sum_ns as f64 / 1e6 / self.frames_sent as f64
    }

    /// Adaptation-quality statistics from the policer engine.
    pub fn adaptation_stats(&self) -> &AdaptationStats {
        self.engine.stats()
    }

    /// Fraction of generated frames that reached the kernel.
    pub fn delivery_fraction(&self) -> f64 {
        if self.frames_generated == 0 {
            return 0.0;
        }
        self.frames_sent as f64 / self.frames_generated as f64
    }

    /// Drains the app buffer into the kernel buffer while there is room
    /// ("this buffer feeds into the kernel buffer on-demand").
    fn drain(&mut self, os: &mut HostOs<'_, '_>) {
        let Some(sock) = self.sock else { return };
        let frame_bytes = self.frame_bytes();
        while os.ccudp_queue_len(sock) < 4 {
            let Some(frame) = self.buffer.pop_front() else {
                break;
            };
            let now = os.now();
            let dgram = UdpDatagram::data(frame.seq, frame_bytes, frame.created, 0);
            if os.udp_sendto(sock, self.remote, self.port, dgram) {
                self.frames_sent += 1;
                self.age_sum_ns += now.since(frame.created).as_nanos();
            }
        }
    }
}

impl HostApp for VatAudio {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        let sock = os.udp_socket(5002);
        self.sock = Some(sock);
        // A small kernel buffer: vat wants its queueing in the app
        // buffer where it controls the drop policy.
        let flow = os.ccudp_connect(sock, self.remote, self.port);
        os.cm_set_thresholds(flow, Some(Thresholds::new(0.9, 1.1)));
        self.flow = Some(flow);
        os.set_app_timer(self.frame_interval, FRAME);
    }

    fn on_timer(&mut self, os: &mut HostOs<'_, '_>, token: u64) {
        if token != FRAME || os.now() >= self.stop_at {
            return;
        }
        let now = os.now();
        self.frames_generated += 1;
        let frame_bytes = self.frame_bytes() as u64;
        // Stage 1: the policer (long-term adaptation by preemptive drop).
        if self.policer.try_consume(frame_bytes, now) {
            // Stage 2: the application buffer (short-term smoothing).
            if self.buffer.len() >= self.app_buffer_frames {
                self.buffer_drops += 1;
                match self.policy {
                    DropPolicy::Head => {
                        self.buffer.pop_front();
                        self.buffer.push_back(Frame {
                            seq: self.seq,
                            created: now,
                        });
                    }
                    DropPolicy::Tail => {
                        // The incoming frame is the casualty.
                    }
                }
            } else {
                self.buffer.push_back(Frame {
                    seq: self.seq,
                    created: now,
                });
            }
        } else {
            self.policer_drops += 1;
        }
        self.seq += 1;
        self.drain(os);
        os.set_app_timer(self.frame_interval, FRAME);
    }

    fn on_cm_rate_change(&mut self, os: &mut HostOs<'_, '_>, _flow: FlowId, info: FlowInfo) {
        // Long-term adaptation: the engine smooths the reported rate and
        // quantizes it onto the policer grid (floor 4 Kbit/s, ceiling
        // the source rate — police above the source is meaningless).
        let now = os.now();
        self.engine.on_rate(now, info.rate.min(self.source_rate));
        self.policer.set_rate(self.engine.level_rate(), now);
    }

    fn on_udp(
        &mut self,
        os: &mut HostOs<'_, '_>,
        _sock: UdpSocketId,
        _from: Addr,
        _from_port: u16,
        dgram: UdpDatagram,
    ) {
        let UdpBody::Ack(ack) = dgram.body else {
            return;
        };
        os.charge_recv(dgram.len as usize);
        let now_ts = os.gettimeofday();
        let rtt = now_ts.since(ack.echo_sent_at);
        if let Some(delta) = self.tracker.absorb(&ack) {
            let Some(flow) = self.flow else { return };
            os.cm_update(flow, delta.report(self.frame_bytes(), rtt));
        }
        self.drain(os);
    }
}
