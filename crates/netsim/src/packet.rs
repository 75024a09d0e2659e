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
/// Addresses are dense small integers assigned by the topology builder;
/// `Addr(0)` is reserved as "unspecified".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Addr(pub u32);

impl Addr {
    /// The unspecified address.
    pub const UNSPECIFIED: Addr = Addr(0);

    /// Bits of an address that number the host within its subnet; the
    /// rest is the prefix. Matches the CM's
    /// `AggregationPolicy::SUBNET_HOST_BITS`, so per-subnet macroflow
    /// aggregation groups exactly the hosts a topology placed together.
    pub const HOST_BITS: u32 = 8;

    /// Returns true if this is the unspecified address.
    pub fn is_unspecified(self) -> bool {
        self.0 == 0
    }

    /// Composes a prefix-structured address: host `host` within subnet
    /// `subnet` (think `10.x.<subnet>.<host>`).
    ///
    /// # Panics
    ///
    /// Panics if `host` does not fit in [`Addr::HOST_BITS`] bits, if
    /// `subnet` does not fit in 16 bits (the bound keeps every
    /// composed address inside the 24 bits the dotted display renders,
    /// and far away from `u32` shift overflow), or if the resulting
    /// address would be unspecified.
    pub fn from_subnet(subnet: u32, host: u32) -> Addr {
        assert!(host < (1 << Self::HOST_BITS), "host {host} out of range");
        assert!(subnet < (1 << 16), "subnet {subnet} out of range");
        let addr = Addr((subnet << Self::HOST_BITS) | host);
        assert!(!addr.is_unspecified(), "subnet 0 host 0 is unspecified");
        addr
    }

    /// The subnet (prefix) part of this address.
    pub fn subnet(self) -> u32 {
        self.0 >> Self::HOST_BITS
    }

    /// The host number within the subnet.
    pub fn host(self) -> u32 {
        self.0 & ((1 << Self::HOST_BITS) - 1)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Dotted form exposing the prefix structure; plain dense
        // addresses (subnet 0) render as 10.0.0.N, as before. Only the
        // low 24 bits are rendered — `from_subnet`'s bounds keep every
        // composed address inside them.
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

/// Conventional wire overhead constants used throughout the experiments.
pub mod wire {
    /// Ethernet MTU in bytes.
    pub const ETH_MTU: usize = 1500;
    /// IP header size (no options).
    pub const IP_HDR: usize = 20;
    /// TCP header size (no options).
    pub const TCP_HDR: usize = 20;
    /// UDP header size.
    pub const UDP_HDR: usize = 8;
    /// Default TCP maximum segment size on Ethernet.
    pub const DEFAULT_MSS: usize = ETH_MTU - IP_HDR - TCP_HDR;
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
    fn mss_is_consistent() {
        assert_eq!(wire::DEFAULT_MSS, 1460);
    }

    #[test]
    fn addr_display_and_unspecified() {
        assert!(Addr::UNSPECIFIED.is_unspecified());
        assert!(!Addr(3).is_unspecified());
        assert_eq!(format!("{}", Addr(7)), "10.0.0.7");
    }
}
