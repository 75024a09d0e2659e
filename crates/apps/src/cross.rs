//! On/off constant-bit-rate cross traffic.
//!
//! The adaptation experiments (Figures 8-10) run a layered streamer over
//! a wide-area path whose available bandwidth varies. The variation comes
//! from an unresponsive CBR source sharing the bottleneck, toggling
//! between on and off periods — the standard way to exercise an adaptive
//! sender's tracking behaviour.

use cm_netsim::packet::Addr;
use cm_transport::host::{HostApp, HostOs};
use cm_transport::segment::{UdpBody, UdpDatagram};
use cm_util::{Duration, Rate, Time};

/// Timer token for the next packet.
const TICK: u64 = 1;
/// Timer token for on/off phase flips.
const FLIP: u64 = 2;

/// An on/off CBR UDP source (not congestion controlled, by design).
pub struct OnOffSource {
    /// Sink address.
    pub remote: Addr,
    /// Sink port.
    pub port: u16,
    /// Sending rate while on.
    pub rate: Rate,
    /// Duration of the on phase.
    pub on: Duration,
    /// Duration of the off phase.
    pub off: Duration,
    /// Packet payload size, bytes.
    pub packet_size: u32,
    /// Delay before the first on phase.
    pub start_after: Duration,
    /// Stop emitting after this instant (runs forever if `Time::MAX`).
    pub stop_at: Time,
    /// Packets emitted.
    pub sent: u64,
    active: bool,
    sock: Option<cm_transport::types::UdpSocketId>,
}

impl OnOffSource {
    /// Creates a source toggling between `on` and `off` phases.
    pub fn new(remote: Addr, port: u16, rate: Rate, on: Duration, off: Duration) -> Self {
        OnOffSource {
            remote,
            port,
            rate,
            on,
            off,
            packet_size: 1000,
            start_after: Duration::ZERO,
            stop_at: Time::MAX,
            sent: 0,
            active: false,
            sock: None,
        }
    }

    fn interval(&self) -> Duration {
        self.rate.transmit_time(self.packet_size as usize)
    }

    fn emit(&mut self, os: &mut HostOs<'_, '_>) {
        let Some(sock) = self.sock else { return };
        let dgram = UdpDatagram {
            tag: self.sent as u32,
            len: self.packet_size,
            body: UdpBody::Raw,
        };
        os.udp_sendto(sock, self.remote, self.port, dgram);
        self.sent += 1;
    }
}

impl HostApp for OnOffSource {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        self.sock = Some(os.udp_socket(7000));
        os.set_app_timer(self.start_after, FLIP);
    }

    fn on_timer(&mut self, os: &mut HostOs<'_, '_>, token: u64) {
        if os.now() >= self.stop_at {
            self.active = false;
            return;
        }
        match token {
            FLIP => {
                self.active = !self.active;
                let phase = if self.active { self.on } else { self.off };
                os.set_app_timer(phase, FLIP);
                if self.active {
                    self.emit(os);
                    let iv = self.interval();
                    os.set_app_timer(iv, TICK);
                }
            }
            TICK if self.active => {
                self.emit(os);
                let iv = self.interval();
                os.set_app_timer(iv, TICK);
            }
            _ => {}
        }
    }
}

/// A silent sink for cross traffic (datagrams are dropped on the floor;
/// delivery is what loads the bottleneck).
pub struct NullSink {
    /// Port to listen on.
    pub port: u16,
    /// Packets absorbed.
    pub received: u64,
}

impl NullSink {
    /// Creates a sink on `port`.
    pub fn new(port: u16) -> Self {
        NullSink { port, received: 0 }
    }
}

impl HostApp for NullSink {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        os.udp_socket(self.port);
    }

    fn on_udp(
        &mut self,
        _os: &mut HostOs<'_, '_>,
        _sock: cm_transport::types::UdpSocketId,
        _from: Addr,
        _from_port: u16,
        _dgram: UdpDatagram,
    ) {
        self.received += 1;
    }
}
