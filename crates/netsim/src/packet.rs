//! Packets: addresses, protocol numbers, and transport payloads.
//!
//! The simulator moves [`Packet`]s between nodes. A packet carries enough
//! header information for routing (`src`/`dst` addresses), demultiplexing
//! (ports and [`Protocol`]), and byte accounting (`size`, the full wire
//! size used for serialization delay and queue occupancy). Its transport
//! header rides inline as a [`Payload`], a closed enum over the wire
//! formats in [`crate::segment`]; the simulator never looks inside it,
//! and the protocols that do live in `cm-transport`.

use core::fmt;

use crate::segment::{TcpSegment, UdpDatagram};

/// A network-layer address (think IPv4 host address).
///
/// A node's address is its simulator index + 1, so addresses are dense
/// small integers; `Addr(0)` is reserved as "unspecified".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Addr(pub u32);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Dotted form of the low 24 bits: node addresses render as
        // 10.0.0.N up to 255 nodes.
        write!(
            f,
            "10.{}.{}.{}",
            (self.0 >> 16) & 0xff,
            (self.0 >> 8) & 0xff,
            self.0 & 0xff
        )
    }
}

/// Transport protocol numbers understood by the host demultiplexers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Protocol {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
}

/// A packet's transport header.
///
/// The simulator treats it as freight. The wire size of the packet is
/// tracked separately in [`Packet::size`], so payloads carry no data
/// bytes — only headers plus a byte count, which keeps multi-gigabyte
/// transfer simulations cheap. The enum is closed and `Copy`: a packet
/// holds its header inline, so building, forwarding or duplicating one
/// allocates nothing.
#[derive(Clone, Copy, Debug, Default)]
pub enum Payload {
    /// No transport header (pure filler packets, e.g. cross traffic).
    #[default]
    Empty,
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
}

impl Payload {
    /// An empty payload (pure filler packets, e.g. cross traffic).
    pub fn empty() -> Self {
        Payload::Empty
    }
}

/// A simulated network packet.
///
/// `Clone` exists for the fault-injection layer's packet duplication;
/// inside the network a packet stays in one slot of the event queue's
/// packet slab, and a host receives it by value.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source address.
    pub src: Addr,
    /// Destination address; routing consults this.
    pub dst: Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol for host demultiplexing.
    pub proto: Protocol,
    /// Full wire size in bytes (headers + data); drives serialization
    /// delay and queue occupancy.
    pub size: usize,
    /// Unique id assigned at send time, for tracing.
    pub id: u64,
    /// Transport header.
    pub payload: Payload,
}

impl Packet {
    /// Creates a packet with an unassigned id (the simulator assigns ids
    /// when the packet enters the network).
    pub fn new(
        src: Addr,
        dst: Addr,
        src_port: u16,
        dst_port: u16,
        proto: Protocol,
        size: usize,
        payload: Payload,
    ) -> Self {
        Packet {
            src,
            dst,
            src_port,
            dst_port,
            proto,
            size,
            id: 0,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every packet in flight occupies one slot of the event queue's
    /// packet slab, so a wire-format field that grows it must be a
    /// decision, not an accident: raise this bound only on purpose. The
    /// event-arena slot is pinned beside the queue
    /// (`event::tests::arena_slot_is_pinned`).
    #[test]
    fn packet_size_is_pinned() {
        assert!(size_of::<Packet>() <= 96, "{} B", size_of::<Packet>());
    }

    #[test]
    fn packet_flow_tuple() {
        let pkt = Packet::new(
            Addr(1),
            Addr(2),
            5000,
            80,
            Protocol::Tcp,
            1500,
            Payload::empty(),
        );
        assert_eq!(
            (pkt.src, pkt.dst, pkt.src_port, pkt.dst_port),
            (Addr(1), Addr(2), 5000, 80)
        );
    }

    #[test]
    fn addr_display_and_unspecified() {
        // The default is the unspecified `Addr(0)`, which no node holds.
        assert_eq!(Addr::default(), Addr(0));
        assert_eq!(format!("{}", Addr(7)), "10.0.0.7");
        assert_eq!(format!("{}", Addr(0x01_0201)), "10.1.2.1");
    }
}
