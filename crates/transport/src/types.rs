//! Identifiers and event types for the host stack.

/// Which congestion-control mode a TCP connection runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CcMode {
    /// The connection manages its own window: the Linux 2.2-like baseline
    /// (initial window 2 segments, ACK counting) the paper compares
    /// against as "TCP/Linux".
    Native,
    /// All congestion control is offloaded to the Congestion Manager via
    /// the request/callback API ("TCP/CM", paper §3.2).
    Cm,
}

/// Identifies a TCP connection within a host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TcpConnId(pub u32);

/// Identifies a UDP socket within a host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UdpSocketId(pub u32);

/// Identifies an application within a host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AppId(pub u32);

/// Events a TCP connection raises to its owning application.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TcpEvent {
    /// The three-way handshake completed (active opener side).
    Connected,
    /// A listening port accepted a new connection.
    Accepted,
    /// In-order data was delivered; the value is the cumulative byte
    /// count received on this connection.
    DataDelivered(u64),
    /// The send buffer drained below the wakeup threshold; the value is
    /// the cumulative bytes acknowledged end-to-end.
    SendProgress(u64),
    /// The peer closed its direction and all data was delivered.
    PeerClosed,
    /// The connection is fully closed.
    Closed,
}

/// Timer kinds a TCP connection schedules through the host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TcpTimer {
    /// Retransmission timeout.
    Rto,
    /// Delayed-ACK timeout.
    DelayedAck,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(TcpConnId(1) < TcpConnId(2));
        assert!(UdpSocketId(3) != UdpSocketId(4));
        let mut set = cm_util::FxHashSet::default();
        set.insert(AppId(0));
        assert!(set.contains(&AppId(0)));
    }

    #[test]
    fn tcp_event_carries_counts() {
        match TcpEvent::DataDelivered(128 * 1024) {
            TcpEvent::DataDelivered(n) => assert_eq!(n, 131072),
            _ => unreachable!(),
        }
    }
}
