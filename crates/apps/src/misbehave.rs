//! A deliberately misbehaving CM client.
//!
//! The paper's §5 "Trust issues" argues the CM must protect the ensemble
//! from buggy or hostile applications. [`MisbehavingSender`] is the test
//! fixture for that claim: a request/callback (ALF) UDP sender that
//! behaves honestly until its configured [`AppFault`] kicks in, then
//! exhibits one of the failure modes the CM's graceful-degradation
//! machinery must absorb:
//!
//! * [`AppFault::SilentFeedback`] — keeps sending but never calls
//!   `cm_update` again: exercises the feedback-free write-off path.
//! * [`AppFault::GrantHoard`] — keeps calling `cm_request` but ignores
//!   every grant (no send, no `cm_notify`): exercises grant reclaim and
//!   the unresponsive-app backoff.
//! * [`AppFault::Crash`] — goes silent entirely without `cm_close`,
//!   leaking its flow: exercises orphan reaping.
//! * [`AppFault::SlowNotify`] — resolves each grant only after a fixed
//!   delay: exercises the grant-timeout boundary without being hostile.
//!
//! The chaos harness in `cm-experiments` pairs this sender with an
//! [`crate::ack_clients::AckReceiver`] and asserts the CM's structural
//! invariants hold throughout.

use cm_core::types::FlowId;
use cm_netsim::fault::AppFault;
use cm_netsim::packet::Addr;
use cm_transport::feedback::FeedbackTracker;
use cm_transport::host::{HostApp, HostOs};
use cm_transport::segment::{UdpBody, UdpDatagram, UDP_OVERHEAD};
use cm_transport::types::UdpSocketId;
use cm_util::Time;

/// Requests held open at once while behaving (same self-clocked window
/// as the §4.2 blast senders).
const WINDOW: u64 = 8;

/// Timer token for deferred (`SlowNotify`) grant resolutions.
const DEFERRED: u64 = 1;

/// An ALF-style UDP sender that turns hostile per its [`AppFault`].
pub struct MisbehavingSender {
    /// Receiver address.
    pub remote: Addr,
    /// Receiver port.
    pub port: u16,
    /// The failure mode this client exhibits (and when).
    pub fault: AppFault,
    /// Payload bytes per packet.
    pub packet_size: u32,
    /// Stop (politely) after this many packets are acknowledged.
    pub target_packets: u64,
    /// Packets sent so far.
    pub sent: u64,
    /// Packets acknowledged so far.
    pub acked: u64,
    /// Packets inferred lost.
    pub lost: u64,
    /// Whether the crash fault has fired.
    pub crashed: bool,
    sock: Option<UdpSocketId>,
    flow: Option<FlowId>,
    tracker: FeedbackTracker,
    requests_outstanding: u32,
    deferred_grants: u32,
}

impl MisbehavingSender {
    /// Creates a sender that misbehaves per `fault`.
    pub fn new(remote: Addr, port: u16, fault: AppFault, packet_size: u32, target: u64) -> Self {
        MisbehavingSender {
            remote,
            port,
            fault,
            packet_size,
            target_packets: target,
            sent: 0,
            acked: 0,
            lost: 0,
            crashed: false,
            sock: None,
            flow: None,
            tracker: FeedbackTracker::new(),
            requests_outstanding: 0,
            deferred_grants: 0,
        }
    }

    /// The flow this client opened, for harness-side inspection.
    pub fn flow(&self) -> Option<FlowId> {
        self.flow
    }

    /// Whether the crash fault has fired by `now` (checked lazily: a
    /// crashed app does nothing in any callback, ever again — including
    /// `cm_close`, which is exactly the point).
    fn check_crash(&mut self, now: Time) -> bool {
        if let AppFault::Crash { at } = self.fault {
            if now >= at {
                self.crashed = true;
            }
        }
        self.crashed
    }

    fn hoarding(&self, now: Time) -> bool {
        matches!(self.fault, AppFault::GrantHoard { after } if now >= after)
    }

    fn silent(&self, now: Time) -> bool {
        matches!(self.fault, AppFault::SilentFeedback { after } if now >= after)
    }

    fn send_one(&mut self, os: &mut HostOs<'_, '_>) {
        let Some(sock) = self.sock else { return };
        let sent_at = os.gettimeofday();
        let dgram = UdpDatagram::data(self.sent, self.packet_size, sent_at, 0);
        if os.udp_sendto(sock, self.remote, self.port, dgram) {
            self.sent += 1;
        }
    }

    /// Resolves one grant honestly: send a packet and charge it.
    fn resolve_grant(&mut self, os: &mut HostOs<'_, '_>, flow: FlowId) {
        self.send_one(os);
        let wire = self.packet_size as u64 + UDP_OVERHEAD;
        os.cm_notify(flow, wire, true);
    }

    fn top_up(&mut self, os: &mut HostOs<'_, '_>) {
        let Some(flow) = self.flow else { return };
        let in_net = self.sent.saturating_sub(self.acked + self.lost);
        let ceiling = WINDOW.saturating_sub(in_net.min(WINDOW));
        while (self.requests_outstanding as u64) < ceiling && self.sent < self.target_packets {
            os.cm_request(flow);
            self.requests_outstanding += 1;
        }
    }
}

impl HostApp for MisbehavingSender {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        self.sock = Some(os.udp_socket(6000));
        self.flow = Some(os.cm_open(6000, self.remote, self.port));
        self.top_up(os);
    }

    fn on_cm_grant(&mut self, os: &mut HostOs<'_, '_>, flow: FlowId) {
        let now = os.now();
        self.requests_outstanding = self.requests_outstanding.saturating_sub(1);
        if self.check_crash(now) {
            return;
        }
        if self.hoarding(now) {
            // The hostile part: take the grant, do nothing with it, and
            // immediately ask for more.
            self.top_up(os);
            return;
        }
        if let AppFault::SlowNotify { delay } = self.fault {
            self.deferred_grants += 1;
            os.set_app_timer(delay, DEFERRED);
            return;
        }
        self.resolve_grant(os, flow);
        self.top_up(os);
    }

    fn on_timer(&mut self, os: &mut HostOs<'_, '_>, token: u64) {
        if token != DEFERRED || self.deferred_grants == 0 {
            return;
        }
        self.deferred_grants -= 1;
        let now = os.now();
        if self.check_crash(now) {
            return;
        }
        let Some(flow) = self.flow else { return };
        self.resolve_grant(os, flow);
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
        let now = os.now();
        if self.check_crash(now) {
            return;
        }
        os.charge_recv(dgram.len as usize);
        let now_ts = os.gettimeofday();
        let rtt = now_ts.since(ack.echo_sent_at);
        if let Some(delta) = self.tracker.absorb(&ack) {
            self.acked += delta.packets_acked;
            self.lost += delta.packets_lost;
            if !self.silent(now) {
                let Some(flow) = self.flow else { return };
                os.cm_update(flow, delta.report(self.packet_size, rtt));
            }
        }
        self.top_up(os);
    }
}
