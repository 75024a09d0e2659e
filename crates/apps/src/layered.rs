//! Layered audio/video streaming (paper §3.4, Figures 8-10).
//!
//! The server encodes content in discrete layers; the cumulative rate of
//! layers `0..=k` is what transmitting at quality `k` costs. Two
//! adaptation styles, exactly as the paper contrasts them:
//!
//! * **ALF (request/callback, Figure 8)** — the application keeps
//!   `cm_request`s pipelined and transmits on every grant, "as rapidly as
//!   possible to allow its client to buffer more data", choosing which
//!   layer's data to send from the rate `cm_query` reports. Highly
//!   responsive; the transmitted rate tracks every AIMD oscillation.
//! * **Rate callback (Figure 9)** — the application clocks itself at the
//!   current layer's rate over a congestion-controlled UDP socket and
//!   changes layer only when a `cmapp_update` callback reports a
//!   threshold crossing (`cm_thresh`), "relying occasionally on
//!   short-term kernel buffering for smoothing".
//!
//! With the receiver batching feedback (`min(500 acks, 2000 ms)`), the
//! same rate-callback server reproduces Figure 10's bursty estimates.

use cm_adapt::{AdaptationStats, Engine, LadderPolicy, RateLadder};
use cm_core::types::{FlowId, FlowInfo, Thresholds};
use cm_libcm::dispatcher::{Dispatcher, NotifyMode};
use cm_netsim::packet::Addr;
use cm_transport::feedback::FeedbackTracker;
use cm_transport::host::{HostApp, HostOs};
use cm_transport::segment::{UdpBody, UdpDatagram, UDP_OVERHEAD};
use cm_transport::types::UdpSocketId;
use cm_util::{Duration, Rate, Time, TimeSeries};

/// Which adaptation API the streamer uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdaptMode {
    /// Request/callback; transmit on every grant (Figure 8).
    Alf,
    /// Clocked transmission with `cm_thresh` rate callbacks (Figure 9).
    RateCallback,
}

/// Timer token for the clocked send loop.
const CLOCK: u64 = 1;
/// Timer token for the periodic rate sampler.
const SAMPLE: u64 = 2;
/// Grants kept pipelined in ALF mode.
const PIPELINE: u32 = 8;
/// Width of one [`LayeredStreamer::tx_per_sec`] entry.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// The layered streaming server.
pub struct LayeredStreamer {
    /// Receiver address.
    pub remote: Addr,
    /// Receiver port.
    pub port: u16,
    /// Adaptation style.
    pub mode: AdaptMode,
    /// Scheduler weight for this flow's share of its macroflow (takes
    /// effect under a weighted scheduler — the §3.5 co-scheduling
    /// configuration). 1 keeps the default unweighted share.
    pub weight: u32,
    /// Packet payload size.
    pub packet_size: u32,
    /// Stop sending at this instant.
    pub stop_at: Time,
    /// Bytes transmitted.
    pub bytes_sent: u64,
    /// Packets transmitted.
    pub packets_sent: u64,
    /// Payload bytes transmitted in each whole simulated second, indexed
    /// by second and grown on the first packet of a new second, so it
    /// is bounded by simulated time, not by packets; the harness reads
    /// it as the "Transmission Rate".
    pub tx_per_sec: Vec<u64>,
    /// The CM-reported rate over time ("Rate reported by CM").
    pub cm_rate: TimeSeries,
    /// Layer-change history `(time, layer)`.
    pub layer_changes: Vec<(Time, usize)>,
    sock: Option<UdpSocketId>,
    flow: Option<FlowId>,
    /// libcm dispatcher (ALF mode wakeups).
    pub libcm: Dispatcher,
    /// The shared adaptation engine turning CM rates into layer choices.
    engine: Engine,
    tracker: FeedbackTracker,
    requests_outstanding: u32,
    seq: u64,
}

impl LayeredStreamer {
    /// The paper's four-layer configuration, cumulative rates in KB/s
    /// matching the 0-2500 KBps axes of Figures 8-10.
    pub fn default_layers() -> Vec<Rate> {
        vec![
            Rate::from_bytes_per_sec(250_000),
            Rate::from_bytes_per_sec(500_000),
            Rate::from_bytes_per_sec(1_000_000),
            Rate::from_bytes_per_sec(2_000_000),
        ]
    }

    /// Creates a streamer with the paper-faithful adaptation policy: an
    /// immediate (hysteresis-free) ladder over [`Self::default_layers`],
    /// which tracks the CM-reported rate exactly as Figures 8-9 do.
    pub fn new(remote: Addr, port: u16, mode: AdaptMode, stop_at: Time) -> Self {
        let policy = LadderPolicy::immediate(RateLadder::new(Self::default_layers()));
        Self::with_engine(remote, port, mode, stop_at, Engine::new(Box::new(policy)))
    }

    /// Creates a streamer adapting through an arbitrary policy engine
    /// (the ladder defines the layer rates).
    pub fn with_engine(
        remote: Addr,
        port: u16,
        mode: AdaptMode,
        stop_at: Time,
        engine: Engine,
    ) -> Self {
        LayeredStreamer {
            remote,
            port,
            mode,
            weight: 1,
            packet_size: 1000,
            stop_at,
            bytes_sent: 0,
            packets_sent: 0,
            tx_per_sec: Vec::new(),
            cm_rate: TimeSeries::new(),
            layer_changes: Vec::new(),
            sock: None,
            flow: None,
            libcm: Dispatcher::new(NotifyMode::SelectLoop { extra_fds: 1 }),
            engine,
            tracker: FeedbackTracker::new(),
            requests_outstanding: 0,
            seq: 0,
        }
    }

    /// Adaptation-quality statistics (switches, oscillation,
    /// time-in-layer, delivered utility).
    pub fn adaptation_stats(&self) -> &AdaptationStats {
        self.engine.stats()
    }

    /// Feeds a CM rate observation to the engine and records any layer
    /// change.
    fn adapt(&mut self, now: Time, rate: Rate) {
        let d = self.engine.on_rate(now, rate);
        if d.changed {
            self.layer_changes.push((now, d.level));
        }
    }

    fn send_packet(&mut self, os: &mut HostOs<'_, '_>) -> bool {
        let Some(sock) = self.sock else { return false };
        if os.now() >= self.stop_at {
            return false;
        }
        let layer = self.engine.level() as u8;
        let dgram = UdpDatagram::data(self.seq, self.packet_size, os.now(), layer);
        let ok = os.udp_sendto(sock, self.remote, self.port, dgram);
        if ok {
            self.seq += 1;
            self.packets_sent += 1;
            self.bytes_sent += self.packet_size as u64;
            let sec = (os.now().as_nanos() / NANOS_PER_SEC) as usize;
            if sec >= self.tx_per_sec.len() {
                self.tx_per_sec.resize(sec + 1, 0);
            }
            self.tx_per_sec[sec] += self.packet_size as u64;
        }
        ok
    }

    fn clock_interval(&self) -> Duration {
        self.engine
            .level_rate()
            .transmit_time(self.packet_size as usize)
    }

    fn top_up_requests(&mut self, os: &mut HostOs<'_, '_>) {
        let Some(flow) = self.flow else { return };
        if os.now() >= self.stop_at {
            return;
        }
        while self.requests_outstanding < PIPELINE {
            os.cm_request(flow);
            self.requests_outstanding += 1;
        }
    }
}

impl HostApp for LayeredStreamer {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        // The RTP data port, or the next free one when another streamer
        // on this host already holds it.
        let (sock, local_port) = os.udp_socket_from(5004);
        self.sock = Some(sock);
        match self.mode {
            AdaptMode::Alf => {
                // "Applications that require tight control over data
                // scheduling use the request/callback (ALF) API."
                self.flow = Some(os.cm_open(local_port, self.remote, self.port));
                self.top_up_requests(os);
            }
            AdaptMode::RateCallback => {
                // "Layered applications open their usual UDP socket":
                // CC-UDP for kernel smoothing, thresholds for callbacks.
                let flow = os.ccudp_connect(sock, self.remote, self.port);
                os.cm_set_thresholds(flow, Some(Thresholds::new(0.85, 1.15)));
                self.flow = Some(flow);
                let iv = self.clock_interval();
                os.set_app_timer(iv, CLOCK);
            }
        }
        if self.weight != 1 {
            if let Some(flow) = self.flow {
                os.cm_set_weight(flow, self.weight);
            }
        }
        os.set_app_timer(Duration::from_millis(100), SAMPLE);
    }

    fn on_timer(&mut self, os: &mut HostOs<'_, '_>, token: u64) {
        match token {
            CLOCK => {
                if os.now() >= self.stop_at {
                    return;
                }
                // "Relies occasionally on short-term kernel buffering for
                // smoothing": keep that buffer short — if the CM has not
                // drained the last few packets yet, skip this tick so
                // queueing delay never pollutes the RTT estimate.
                if let Some(sock) = self.sock {
                    if os.ccudp_queue_len(sock) < 8 {
                        self.send_packet(os);
                    }
                }
                let iv = self.clock_interval();
                os.set_app_timer(iv, CLOCK);
            }
            SAMPLE => {
                if os.now() >= self.stop_at {
                    return;
                }
                // Periodically record what the CM believes the flow can
                // sustain (the "Rate reported by CM" series).
                if let Some(flow) = self.flow {
                    if let Some(info) = os.cm_query(flow) {
                        let now = os.now();
                        self.cm_rate.push(now, info.rate.as_kbytes_per_sec());
                        if self.mode == AdaptMode::Alf {
                            self.adapt(now, info.rate);
                        }
                    }
                }
                os.set_app_timer(Duration::from_millis(100), SAMPLE);
            }
            _ => {}
        }
    }

    fn on_cm_grant(&mut self, os: &mut HostOs<'_, '_>, flow: FlowId) {
        // ALF mode only: transmit on every grant.
        self.libcm.socket.post_grant(flow);
        let now = os.now();
        let granted = {
            let (cpu, costs) = os.cpu_and_costs();
            self.libcm.wakeup(now, cpu, costs).len()
        };
        for i in 0..granted {
            let f = self.libcm.ready()[i];
            self.requests_outstanding = self.requests_outstanding.saturating_sub(1);
            if self.send_packet(os) {
                let wire = self.packet_size as u64 + UDP_OVERHEAD;
                os.cm_notify(f, wire, false);
            } else {
                os.cm_notify(f, 0, false);
            }
        }
        self.top_up_requests(os);
    }

    fn on_cm_rate_change(&mut self, os: &mut HostOs<'_, '_>, _flow: FlowId, info: FlowInfo) {
        // Rate-callback mode: "the application decides which of the four
        // layers it should send based on notifications from the CM".
        let now = os.now();
        self.cm_rate.push(now, info.rate.as_kbytes_per_sec());
        if self.mode == AdaptMode::RateCallback {
            self.adapt(now, info.rate);
        }
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
        let Some(flow) = self.flow else { return };
        if let Some(delta) = self.tracker.absorb(&ack) {
            os.cm_update(flow, delta.report(self.packet_size, rtt));
        }
    }
}
