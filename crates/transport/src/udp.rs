//! UDP sockets, including the CM's congestion-controlled variant.
//!
//! "The CM also provides congestion-controlled UDP sockets. They provide
//! the same functionality as standard Berkeley UDP sockets, but instead of
//! immediately sending the data from the kernel packet queue to lower
//! layers for transmission, the buffered socket implementation schedules
//! its packet output via CM callbacks." (§3.3)
//!
//! A plain [`UdpSocket`] transmits immediately. After `enable_cm` (the
//! paper's `setsockopt(flow, ..., CM_BUF)`), datagrams enter a kernel
//! queue bound to a CM flow; each queued datagram triggers a
//! `cm_request`, and the host's grant dispatcher calls
//! [`UdpSocket::on_cm_grant`] (the paper's `udp_ccappsend`) to release
//! one datagram per grant.

use std::collections::VecDeque;

use cm_core::types::FlowId;

use crate::segment::UdpDatagram;

/// A datagram queued for transmission.
#[derive(Clone, Copy, Debug)]
pub struct QueuedDatagram {
    /// Destination address (host-stack address space).
    pub dst: u32,
    /// Destination port.
    pub dst_port: u16,
    /// The datagram.
    pub dgram: UdpDatagram,
}

/// One UDP socket endpoint inside a host.
pub struct UdpSocket {
    /// Local port.
    pub local_port: u16,
    /// When congestion controlled: the CM flow pacing this socket.
    pub cm_flow: Option<FlowId>,
    /// Kernel packet queue (only used when congestion controlled).
    queue: VecDeque<QueuedDatagram>,
    /// Bound maximum queue length, in packets; datagrams beyond it are
    /// dropped at send time (the kernel buffer the vat architecture
    /// deliberately keeps small).
    pub max_queue: usize,
    /// Datagrams dropped at the socket queue.
    pub queue_drops: u64,
    /// Datagrams sent (handed to IP).
    pub sent: u64,
    /// Datagrams received (delivered to the app).
    pub received: u64,
}

impl UdpSocket {
    /// Creates a plain UDP socket.
    pub fn new(local_port: u16) -> Self {
        UdpSocket {
            local_port,
            cm_flow: None,
            queue: VecDeque::new(),
            max_queue: 128,
            queue_drops: 0,
            sent: 0,
            received: 0,
        }
    }

    /// Marks the socket congestion-controlled, bound to `flow`
    /// (`setsockopt(..., CM_BUF)`).
    pub fn enable_cm(&mut self, flow: FlowId) {
        self.cm_flow = Some(flow);
    }

    /// True if this socket's output is paced by the CM.
    pub fn is_cm(&self) -> bool {
        self.cm_flow.is_some()
    }

    /// Queue occupancy in packets.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Offers a datagram for CM-paced transmission. Returns `true` if it
    /// was queued (a `cm_request` should follow), `false` if the queue
    /// was full and the datagram dropped.
    pub fn enqueue(&mut self, q: QueuedDatagram) -> bool {
        debug_assert!(self.is_cm(), "enqueue only applies to CM sockets");
        if self.queue.len() >= self.max_queue {
            self.queue_drops += 1;
            return false;
        }
        self.queue.push_back(q);
        true
    }

    /// A CM grant arrived (`udp_ccappsend`): releases the next queued
    /// datagram, if any.
    pub fn on_cm_grant(&mut self) -> Option<QueuedDatagram> {
        let d = self.queue.pop_front();
        if d.is_some() {
            self.sent += 1;
        }
        d
    }

    /// Accounts an immediate (non-CM) transmission.
    pub fn note_sent(&mut self) {
        self.sent += 1;
    }

    /// Accounts a delivery to the application.
    pub fn note_received(&mut self) {
        self.received += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::UdpBody;
    use cm_util::Time;

    fn dgram(tag: u32) -> QueuedDatagram {
        QueuedDatagram {
            dst: 2,
            dst_port: 9,
            dgram: UdpDatagram {
                tag,
                len: 1000,
                body: UdpBody::Raw,
            },
        }
    }

    #[test]
    fn plain_socket_is_not_cm() {
        let s = UdpSocket::new(5000);
        assert!(!s.is_cm());
        assert_eq!(s.local_port, 5000);
    }

    #[test]
    fn cm_socket_queues_and_releases_fifo() {
        let mut s = UdpSocket::new(5000);
        s.enable_cm(FlowId(3));
        assert!(s.is_cm());
        assert!(s.enqueue(dgram(1)));
        assert!(s.enqueue(dgram(2)));
        assert_eq!(s.queue_len(), 2);
        assert_eq!(s.on_cm_grant().unwrap().dgram.tag, 1);
        assert_eq!(s.on_cm_grant().unwrap().dgram.tag, 2);
        assert!(s.on_cm_grant().is_none());
        assert_eq!(s.sent, 2);
    }

    #[test]
    fn queue_bound_drops_excess() {
        let mut s = UdpSocket::new(5000);
        s.max_queue = 2;
        s.enable_cm(FlowId(0));
        assert!(s.enqueue(dgram(1)));
        assert!(s.enqueue(dgram(2)));
        assert!(!s.enqueue(dgram(3)));
        assert_eq!(s.queue_drops, 1);
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn timestamps_preserved_through_queue() {
        let mut s = UdpSocket::new(1);
        s.enable_cm(FlowId(0));
        let mut q = dgram(7);
        q.dgram.body = UdpBody::Data(crate::feedback::DataPayload {
            seq: 7,
            bytes: 1000,
            sent_at: Time::from_millis(123),
            layer: 2,
        });
        s.enqueue(q);
        let out = s.on_cm_grant().unwrap();
        match out.dgram.body {
            UdpBody::Data(d) => {
                assert_eq!(d.sent_at, Time::from_millis(123));
                assert_eq!(d.layer, 2);
            }
            _ => panic!("body lost"),
        }
    }
}
