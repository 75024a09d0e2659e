//! The §4.2 API-overhead test programs.
//!
//! "Our test programs sent packets of specified sizes on a UDP socket,
//! and waited for acknowledgement packets from the server." One sender
//! per CM API variant:
//!
//! * **Buffered** — a congestion-controlled UDP socket: `sendto` into the
//!   kernel queue, CM paces output. Per packet the app pays one `recv`
//!   (the ACK) and two `gettimeofday`s (Table 1).
//! * **ALF** — request/callback on a *connected* socket: adds one
//!   `cm_request` ioctl per packet and the extra control-socket
//!   descriptor in the `select` set; the kernel charges the transmission
//!   automatically.
//! * **ALF/noconnect** — an unconnected socket: the kernel cannot
//!   attribute the transmission, so the application must also issue the
//!   `cm_notify` ioctl itself — the most expensive row of Table 1.

use cm_core::types::FlowId;
use cm_libcm::dispatcher::{Dispatcher, NotifyMode};
use cm_netsim::packet::Addr;
use cm_transport::feedback::FeedbackTracker;
use cm_transport::host::{HostApp, HostOs};
use cm_transport::segment::{UdpBody, UdpDatagram, UDP_OVERHEAD};
use cm_transport::types::UdpSocketId;
use cm_util::Time;

/// Which user-space CM API the sender exercises.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlastApi {
    /// Congestion-controlled UDP socket (kernel-buffered).
    Buffered,
    /// Request/callback on a connected socket.
    Alf,
    /// Request/callback on an unconnected socket (explicit `cm_notify`).
    AlfNoconnect,
}

/// Packets kept in the network at once. The paper's test programs "sent
/// packets of specified sizes on a UDP socket, and waited for
/// acknowledgement packets from the server"; a small self-clocked window
/// keeps the LAN loss-free ("no losses occurred") while saturating
/// whichever of the wire or the CPU is the bottleneck, which is exactly
/// the regime Figure 6 plots.
const WINDOW: u64 = 8;

/// A fixed-size packet blaster over one of the CM's user-space APIs.
pub struct BlastSender {
    /// Receiver address.
    pub remote: Addr,
    /// Receiver port.
    pub port: u16,
    /// API variant under test.
    pub api: BlastApi,
    /// Payload bytes per packet.
    pub packet_size: u32,
    /// Stop after this many packets have been acknowledged.
    pub target_packets: u64,
    /// Packets sent so far.
    pub sent: u64,
    /// Packets acknowledged so far.
    pub acked: u64,
    /// Packets inferred lost (sequence gaps in feedback).
    pub lost: u64,
    /// When the first packet went out.
    pub first_send: Option<Time>,
    /// When the target was reached.
    pub done_at: Option<Time>,
    sock: Option<UdpSocketId>,
    flow: Option<FlowId>,
    /// libcm dispatcher (ALF modes).
    pub libcm: Dispatcher,
    tracker: FeedbackTracker,
    requests_outstanding: u32,
}

impl BlastSender {
    /// Creates a blaster.
    pub fn new(remote: Addr, port: u16, api: BlastApi, packet_size: u32, target: u64) -> Self {
        BlastSender {
            remote,
            port,
            api,
            packet_size,
            target_packets: target,
            sent: 0,
            acked: 0,
            lost: 0,
            first_send: None,
            done_at: None,
            sock: None,
            flow: None,
            libcm: Dispatcher::new(NotifyMode::SelectLoop { extra_fds: 1 }),
            tracker: FeedbackTracker::new(),
            requests_outstanding: 0,
        }
    }

    /// Mean wall-clock microseconds per acknowledged packet.
    pub fn us_per_packet(&self) -> Option<f64> {
        let (s, d) = (self.first_send?, self.done_at?);
        if self.acked == 0 {
            return None;
        }
        Some(d.since(s).as_nanos() as f64 / 1e3 / self.acked as f64)
    }

    fn send_one(&mut self, os: &mut HostOs<'_, '_>) {
        let Some(sock) = self.sock else { return };
        if self.sent >= self.target_packets {
            return;
        }
        // User-space RTT measurement: gettimeofday at send (Table 1).
        let sent_at = os.gettimeofday();
        let dgram = UdpDatagram::data(self.sent, self.packet_size, sent_at, 0);
        if os.udp_sendto(sock, self.remote, self.port, dgram) {
            if self.first_send.is_none() {
                self.first_send = Some(os.now());
            }
            self.sent += 1;
        }
    }

    fn top_up(&mut self, os: &mut HostOs<'_, '_>) {
        // Self-clocked: hold a fixed number of packets in the network.
        let in_net = self.sent.saturating_sub(self.acked + self.lost);
        match self.api {
            BlastApi::Buffered => {
                // Each sendto on a CC socket enters the kernel queue and
                // implicitly issues cm_request.
                let mut budget = WINDOW.saturating_sub(in_net);
                while budget > 0 && self.sent < self.target_packets {
                    self.send_one(os);
                    budget -= 1;
                }
            }
            BlastApi::Alf | BlastApi::AlfNoconnect => {
                // Not yet opened (start() hasn't run): nothing to request.
                let Some(flow) = self.flow else { return };
                let ceiling = WINDOW.saturating_sub(in_net);
                while (self.requests_outstanding as u64) < ceiling
                    && self.sent < self.target_packets
                {
                    os.cm_request(flow);
                    self.requests_outstanding += 1;
                }
            }
        }
    }
}

impl HostApp for BlastSender {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        let sock = os.udp_socket(6000);
        self.sock = Some(sock);
        match self.api {
            BlastApi::Buffered => {
                self.flow = Some(os.ccudp_connect(sock, self.remote, self.port));
            }
            BlastApi::Alf | BlastApi::AlfNoconnect => {
                self.flow = Some(os.cm_open(6000, self.remote, self.port));
            }
        }
        self.top_up(os);
    }

    fn on_cm_grant(&mut self, os: &mut HostOs<'_, '_>, flow: FlowId) {
        // The grant arrives via the control socket: model the select +
        // ioctl wakeup costs, batched per instant.
        self.libcm.socket.post_grant(flow);
        let now = os.now();
        let granted = {
            let (cpu, costs) = os.cpu_and_costs();
            self.libcm.wakeup(now, cpu, costs).ready.len()
        };
        for i in 0..granted {
            let f = self.libcm.ready()[i];
            self.requests_outstanding = self.requests_outstanding.saturating_sub(1);
            self.send_one(os);
            // The transmission must be charged to the CM: the kernel
            // does it automatically on a connected socket; an
            // unconnected socket leaves it to the application (an extra
            // ioctl).
            let wire = self.packet_size as u64 + UDP_OVERHEAD;
            os.cm_notify(f, wire, self.api == BlastApi::AlfNoconnect);
        }
        self.top_up(os);
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
        // recv() + copy of the ACK into user space.
        os.charge_recv(dgram.len as usize);
        // Second gettimeofday: the receive half of the RTT measurement.
        let now_ts = os.gettimeofday();
        let rtt = now_ts.since(ack.echo_sent_at);
        if let Some(delta) = self.tracker.absorb(&ack) {
            self.acked += delta.packets_acked;
            self.lost += delta.packets_lost;
            // ACKs can only arrive for packets sent on an open flow, but
            // degrade to dropping the report rather than crashing the host.
            let Some(flow) = self.flow else { return };
            os.cm_update(flow, delta.report(self.packet_size, rtt));
        }
        if self.acked >= self.target_packets && self.done_at.is_none() {
            self.done_at = Some(os.now());
        }
        self.top_up(os);
    }
}
