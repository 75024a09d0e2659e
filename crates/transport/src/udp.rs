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

/// Bound on a congestion-controlled socket's queue, in packets; datagrams
/// beyond it are dropped at send time (the kernel buffer the vat
/// architecture deliberately keeps small).
const MAX_QUEUE: usize = 128;

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
}

impl UdpSocket {
    /// Creates a plain UDP socket.
    pub fn new(local_port: u16) -> Self {
        UdpSocket {
            local_port,
            cm_flow: None,
            queue: VecDeque::new(),
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
        if self.queue.len() >= MAX_QUEUE {
            return false;
        }
        self.queue.push_back(q);
        true
    }

    /// A CM grant arrived (`udp_ccappsend`): releases the next queued
    /// datagram, if any.
    pub fn on_cm_grant(&mut self) -> Option<QueuedDatagram> {
        self.queue.pop_front()
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
    }

    #[test]
    fn queue_bound_drops_excess() {
        let mut s = UdpSocket::new(5000);
        s.enable_cm(FlowId(0));
        for tag in 0..MAX_QUEUE as u32 {
            assert!(s.enqueue(dgram(tag)));
        }
        assert!(!s.enqueue(dgram(MAX_QUEUE as u32)));
        assert_eq!(s.queue_len(), MAX_QUEUE);
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
