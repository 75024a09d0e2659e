//! Receiver-side feedback applications.
//!
//! UDP clients of the CM must run their own acknowledgement protocol
//! (§3.1). [`AckReceiver`] implements the two policies the evaluation
//! uses:
//!
//! * **Per-packet** — one acknowledgement per data packet, the §4.2
//!   configuration ("we disabled delayed ACKs ... to ensure that our
//!   packet counts were identical").
//! * **Delayed** — feedback every `min(max_acks, max_delay)` (Figure 10
//!   uses `min(500 acks, 2000 ms)`), trading feedback overhead for
//!   burstier CM estimates.

use cm_netsim::packet::Addr;
use cm_transport::feedback::AckPayload;
use cm_transport::host::{HostApp, HostOs};
use cm_transport::segment::{UdpBody, UdpDatagram};
use cm_transport::types::UdpSocketId;
use cm_util::{Duration, Time};

/// When the receiver sends feedback.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FeedbackPolicy {
    /// Acknowledge every data packet immediately.
    PerPacket,
    /// Acknowledge after `max_acks` packets or `max_delay`, whichever
    /// comes first.
    Delayed {
        /// Packet-count trigger (500 in Figure 10).
        max_acks: u32,
        /// Time trigger (2000 ms in Figure 10).
        max_delay: Duration,
    },
}

/// Timer token for the delayed-feedback deadline.
const FLUSH: u64 = 1;

/// A UDP data sink that returns CM feedback to the sender.
pub struct AckReceiver {
    /// Port to listen on.
    pub port: u16,
    /// Feedback policy.
    pub policy: FeedbackPolicy,
    /// Per-packet ACK size on the wire, bytes.
    pub ack_bytes: u32,
    /// Highest data sequence seen.
    pub highest_seq: u64,
    /// Packets received.
    pub packets: u64,
    /// Bytes received.
    pub bytes: u64,
    /// Per-layer byte counts (layered streaming experiments).
    pub layer_bytes: [u64; 8],
    /// Acks transmitted.
    pub acks_sent: u64,
    sock: Option<UdpSocketId>,
    unacked: u32,
    newest_ts: Time,
    timer_armed: bool,
    sender: Option<(Addr, u16)>,
}

impl AckReceiver {
    /// Creates a receiver on `port` with the given policy.
    pub fn new(port: u16, policy: FeedbackPolicy) -> Self {
        AckReceiver {
            port,
            policy,
            ack_bytes: 40,
            highest_seq: 0,
            packets: 0,
            bytes: 0,
            layer_bytes: [0; 8],
            acks_sent: 0,
            sock: None,
            unacked: 0,
            newest_ts: Time::ZERO,
            timer_armed: false,
            sender: None,
        }
    }

    fn flush(&mut self, os: &mut HostOs<'_, '_>) {
        let Some((addr, port)) = self.sender else {
            return;
        };
        let Some(sock) = self.sock else { return };
        if self.unacked == 0 {
            return;
        }
        let payload = AckPayload {
            highest_seq: self.highest_seq,
            packets_received: self.packets,
            bytes_received: self.bytes,
            echo_sent_at: self.newest_ts,
            acks_batched: self.unacked,
        };
        let dgram = UdpDatagram {
            tag: self.packets as u32,
            len: self.ack_bytes,
            body: UdpBody::Ack(payload),
        };
        os.udp_sendto(sock, addr, port, dgram);
        self.acks_sent += 1;
        self.unacked = 0;
    }
}

impl HostApp for AckReceiver {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        self.sock = Some(os.udp_socket(self.port));
    }

    fn on_udp(
        &mut self,
        os: &mut HostOs<'_, '_>,
        _sock: UdpSocketId,
        from: Addr,
        from_port: u16,
        dgram: UdpDatagram,
    ) {
        let UdpBody::Data(data) = dgram.body else {
            return;
        };
        self.sender = Some((from, from_port));
        self.packets += 1;
        self.bytes += data.bytes as u64;
        self.highest_seq = self.highest_seq.max(data.seq);
        self.newest_ts = data.sent_at;
        self.layer_bytes[(data.layer as usize).min(7)] += data.bytes as u64;
        self.unacked += 1;
        match self.policy {
            FeedbackPolicy::PerPacket => self.flush(os),
            FeedbackPolicy::Delayed {
                max_acks,
                max_delay,
            } => {
                if self.unacked >= max_acks {
                    self.flush(os);
                } else if !self.timer_armed {
                    self.timer_armed = true;
                    os.set_app_timer(max_delay, FLUSH);
                }
            }
        }
    }

    fn on_timer(&mut self, os: &mut HostOs<'_, '_>, token: u64) {
        if token == FLUSH {
            self.timer_armed = false;
            self.flush(os);
            // Re-arm while traffic may still arrive.
            if let FeedbackPolicy::Delayed { max_delay, .. } = self.policy {
                self.timer_armed = true;
                os.set_app_timer(max_delay, FLUSH);
            }
        }
    }
}
