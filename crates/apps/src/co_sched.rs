//! The §3.5 co-scheduling workload: a web transfer sharing one
//! macroflow with a layered streamer.
//!
//! "Consider a web server concurrently serving a mix of web documents
//! and real-time streams to a client: with the CM, all these flows share
//! one macroflow, and the scheduler apportions bandwidth between them"
//! (§3.5). [`CoScheduledWeb`] is the web half of that story: a
//! continuously backlogged ALF sender (think back-to-back page
//! responses) whose flow carries an explicit scheduler weight set with
//! `cm_set_weight`. Paired with a [`crate::layered::LayeredStreamer`]
//! opened to the same destination, both flows land on one macroflow;
//! under a weighted scheduler the grant stream — and therefore the byte
//! shares — track the configured weights, while each application adapts
//! to its own share as cross traffic squeezes the link.

use cm_core::types::{FeedbackReport, FlowId, LossMode};
use cm_libcm::dispatcher::{Dispatcher, NotifyMode};
use cm_netsim::packet::Addr;
use cm_transport::feedback::{DataPayload, FeedbackTracker};
use cm_transport::host::{HostApp, HostOs};
use cm_transport::segment::{UdpBody, UdpDatagram};
use cm_transport::types::UdpSocketId;
use cm_util::{Duration, Time, TimeSeries};

/// Timer token for the periodic rate sampler.
const SAMPLE: u64 = 1;
/// Grants kept pipelined so the flow is always backlogged.
const PIPELINE: u32 = 8;
/// IP + UDP wire overhead per packet, bytes.
const WIRE_OVERHEAD: u64 = 28;

/// A continuously backlogged ALF web transfer with a scheduler weight:
/// the web half of the §3.5 co-scheduling scenario.
pub struct CoScheduledWeb {
    /// Receiver address.
    pub remote: Addr,
    /// Receiver port.
    pub port: u16,
    /// Local port the flow is opened from.
    pub local_port: u16,
    /// Scheduler weight for this flow's share of the macroflow.
    pub weight: u32,
    /// Packet payload size (keep equal to the streamer's so byte shares
    /// equal grant shares).
    pub packet_size: u32,
    /// Stop sending at this instant.
    pub stop_at: Time,
    /// Bytes transmitted (payload).
    pub bytes_sent: u64,
    /// Packets transmitted.
    pub packets_sent: u64,
    /// Raw transmission events `(time, payload bytes)` — the share
    /// accounting the co-scheduling figure aggregates.
    pub tx_events: Vec<(Time, u32)>,
    /// The CM-reported rate share over time, KB/s.
    pub cm_rate: TimeSeries,
    sock: Option<UdpSocketId>,
    /// The CM flow backing the transfer.
    pub flow: Option<FlowId>,
    /// libcm dispatcher (control-socket wakeup costs).
    pub libcm: Dispatcher,
    tracker: FeedbackTracker,
    requests_outstanding: u32,
    seq: u64,
}

impl CoScheduledWeb {
    /// Creates the web sender with the given scheduler weight.
    pub fn new(remote: Addr, port: u16, weight: u32, stop_at: Time) -> Self {
        CoScheduledWeb {
            remote,
            port,
            local_port: 6080,
            weight,
            packet_size: 1000,
            stop_at,
            bytes_sent: 0,
            packets_sent: 0,
            tx_events: Vec::new(),
            cm_rate: TimeSeries::new(),
            sock: None,
            flow: None,
            libcm: Dispatcher::new(NotifyMode::SelectLoop { extra_fds: 1 }),
            tracker: FeedbackTracker::new(),
            requests_outstanding: 0,
            seq: 0,
        }
    }

    fn send_packet(&mut self, os: &mut HostOs<'_, '_>) -> bool {
        let Some(sock) = self.sock else { return false };
        if os.now() >= self.stop_at {
            return false;
        }
        let dgram = UdpDatagram {
            tag: self.seq,
            len: self.packet_size,
            body: UdpBody::Data(DataPayload {
                seq: self.seq,
                bytes: self.packet_size,
                sent_at: os.now(),
                layer: 0,
            }),
        };
        let ok = os.udp_sendto(sock, self.remote, self.port, dgram);
        if ok {
            self.seq += 1;
            self.packets_sent += 1;
            self.bytes_sent += self.packet_size as u64;
            self.tx_events.push((os.now(), self.packet_size));
        }
        ok
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

impl HostApp for CoScheduledWeb {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        self.sock = Some(os.udp_socket(self.local_port));
        let flow = os.cm_open(self.local_port, self.remote, self.port);
        if self.weight != 1 {
            os.cm_set_weight(flow, self.weight);
        }
        self.flow = Some(flow);
        self.top_up_requests(os);
        os.set_app_timer(Duration::from_millis(100), SAMPLE);
    }

    fn on_timer(&mut self, os: &mut HostOs<'_, '_>, token: u64) {
        if token != SAMPLE || os.now() >= self.stop_at {
            return;
        }
        if let Some(flow) = self.flow {
            if let Some(info) = os.cm_query(flow) {
                self.cm_rate.push(os.now(), info.rate.as_kbytes_per_sec());
            }
        }
        os.set_app_timer(Duration::from_millis(100), SAMPLE);
    }

    fn on_cm_grant(&mut self, os: &mut HostOs<'_, '_>, flow: FlowId) {
        self.libcm.socket.post_grant(flow);
        let now = os.now();
        let granted = {
            let (cpu, costs) = os.cpu_and_costs();
            self.libcm.wakeup(now, cpu, costs).ready.len()
        };
        for i in 0..granted {
            let f = self.libcm.ready()[i];
            self.requests_outstanding = self.requests_outstanding.saturating_sub(1);
            if self.send_packet(os) {
                os.cm_notify(f, self.packet_size as u64 + WIRE_OVERHEAD, false);
            } else {
                os.cm_notify(f, 0, false);
            }
        }
        self.top_up_requests(os);
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
            let report = if delta.packets_lost > 0 {
                FeedbackReport::loss(
                    LossMode::Transient,
                    delta.packets_lost * (self.packet_size as u64 + WIRE_OVERHEAD),
                )
                .with_acked(
                    delta.bytes_acked + delta.packets_acked * WIRE_OVERHEAD,
                    delta.ack_events,
                )
                .with_rtt(rtt)
            } else {
                FeedbackReport::ack(
                    delta.bytes_acked + delta.packets_acked * WIRE_OVERHEAD,
                    delta.ack_events,
                )
                .with_rtt(rtt)
            };
            os.cm_update(flow, report);
        }
    }
}
