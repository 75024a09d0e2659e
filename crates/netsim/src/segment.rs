//! Wire formats: TCP segments, UDP datagrams, and the CM feedback
//! protocol's data and acknowledgement bodies.
//!
//! These are the only transport headers a [`Packet`](crate::packet::Packet)
//! carries ([`Payload`](crate::packet::Payload) is a closed enum over
//! them); the protocols that read and write them live in `cm-transport`.
//! Segments carry byte *counts*, not byte contents: a simulated gigabyte
//! transfer needs no gigabyte of memory. Stream positions are absolute
//! `u64` offsets: a production TCP needs 32-bit wrapping sequence
//! arithmetic, but a simulator gains nothing from exercising wraparound
//! on every comparison, so offsets here are monotone.

use cm_util::Time;

/// TCP header flags (the subset the simulation uses).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcpFlags {
    /// Synchronize: connection setup.
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Sender has finished sending.
    pub fin: bool,
    /// ECN echo: the receiver saw a CE mark (RFC 3168's ECE).
    pub ece: bool,
}

/// Maximum SACK blocks per segment (RFC 2018 allows 3 alongside
/// timestamps).
pub const MAX_SACK_BLOCKS: usize = 3;

/// A TCP segment, attached to a simulated packet as its payload.
#[derive(Clone, Copy, Debug)]
pub struct TcpSegment {
    /// First stream offset carried (SYN occupies offset 0; data starts
    /// at 1).
    pub seq: u64,
    /// Payload length in bytes (zero for pure ACKs and SYN/FIN).
    pub len: u32,
    /// Cumulative acknowledgement: the next offset expected.
    pub ack: u64,
    /// Header flags.
    pub flags: TcpFlags,
    /// Receiver's advertised window, in bytes.
    pub wnd: u64,
    /// Timestamp at transmission (RFC 1323 TSval), for RTT sampling.
    pub ts: Time,
    /// Echoed timestamp (RFC 1323 TSecr), `None` when nothing to echo.
    pub ts_ecr: Option<Time>,
    /// SACK blocks (RFC 2018): `[start, end)` ranges the receiver holds
    /// above the cumulative ACK. Only the first `sack_count` are valid.
    pub sack: [(u64, u64); MAX_SACK_BLOCKS],
    /// Number of valid SACK blocks.
    pub sack_count: u8,
}

impl TcpSegment {
    /// The valid SACK blocks.
    pub fn sack_blocks(&self) -> &[(u64, u64)] {
        &self.sack[..self.sack_count as usize]
    }

    /// The stream space this segment occupies (SYN and FIN each consume
    /// one offset).
    pub fn seq_space(&self) -> u64 {
        self.len as u64 + self.flags.syn as u64 + self.flags.fin as u64
    }

    /// The offset one past this segment's occupancy.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.seq_space()
    }

    /// True for segments carrying neither data nor SYN/FIN — pure ACKs,
    /// which a receiver never acknowledges in turn.
    pub fn is_pure_ack(&self) -> bool {
        self.seq_space() == 0 && self.flags.ack
    }
}

/// IP + UDP header overhead per datagram, bytes: what the wire carries
/// beyond [`UdpDatagram::len`].
pub const UDP_OVERHEAD: u64 = 28;

/// A UDP datagram payload: an application tag plus a typed body.
#[derive(Clone, Copy, Debug)]
pub struct UdpDatagram {
    /// Application-chosen sequence number / tag.
    pub tag: u64,
    /// Payload bytes (counted, not stored).
    pub len: u32,
    /// Typed body for the CM feedback protocol, if any.
    pub body: UdpBody,
}

impl UdpDatagram {
    /// A CM feedback-protocol data packet of `bytes` payload, tagged with
    /// its sequence number.
    pub fn data(seq: u64, bytes: u32, sent_at: Time, layer: u8) -> Self {
        UdpDatagram {
            tag: seq,
            len: bytes,
            body: UdpBody::Data(DataPayload {
                seq,
                bytes,
                sent_at,
                layer,
            }),
        }
    }
}

/// Bodies the experiments attach to datagrams.
#[derive(Clone, Copy, Debug)]
pub enum UdpBody {
    /// Opaque data (cross traffic, fillers).
    Raw,
    /// A data packet in the CM feedback protocol.
    Data(DataPayload),
    /// An acknowledgement in the CM feedback protocol.
    Ack(AckPayload),
}

/// What a CM-using UDP sender stamps on each data packet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataPayload {
    /// Sender's per-flow sequence number, starting at zero.
    pub seq: u64,
    /// Payload bytes in this packet.
    pub bytes: u32,
    /// Send timestamp, echoed back for RTT measurement (the sender's
    /// first `gettimeofday` in Table 1's accounting).
    pub sent_at: Time,
    /// The layered-streaming layer this packet belongs to (zero when
    /// unused); lets experiment receivers compute per-layer goodput.
    pub layer: u8,
}

/// What the receiver returns.
///
/// A per-packet acknowledger echoes one [`AckPayload`] per data packet; a
/// delayed acknowledger batches (the Figure 10 configuration: feedback
/// every `min(500 ACKs, 2000 ms)`), reporting cumulative counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AckPayload {
    /// Highest sequence number received so far.
    pub highest_seq: u64,
    /// Cumulative count of packets received.
    pub packets_received: u64,
    /// Cumulative bytes received.
    pub bytes_received: u64,
    /// Echo of the newest data packet's send timestamp.
    pub echo_sent_at: Time,
    /// How many data packets this acknowledgement covers (1 for
    /// per-packet feedback, up to the batch limit for delayed feedback).
    pub acks_batched: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(seq: u64, len: u32, syn: bool, fin: bool) -> TcpSegment {
        TcpSegment {
            seq,
            len,
            ack: 0,
            flags: TcpFlags {
                syn,
                fin,
                ..Default::default()
            },
            wnd: 65535,
            ts: Time::ZERO,
            ts_ecr: None,
            sack: [(0, 0); 3],
            sack_count: 0,
        }
    }

    #[test]
    fn syn_and_fin_consume_sequence_space() {
        assert_eq!(seg(0, 0, true, false).seq_space(), 1);
        assert_eq!(seg(0, 0, false, true).seq_space(), 1);
        assert_eq!(seg(1, 1460, false, false).seq_space(), 1460);
        assert_eq!(seg(1, 1460, false, true).seq_end(), 1462);
    }

    #[test]
    fn pure_ack_detection() {
        let mut s = seg(5, 0, false, false);
        s.flags.ack = true;
        assert!(s.is_pure_ack());
        let mut d = seg(5, 100, false, false);
        d.flags.ack = true;
        assert!(!d.is_pure_ack());
    }

    #[test]
    fn data_datagram_is_tagged_with_its_seq() {
        let at = Time::from_millis(7);
        let d = UdpDatagram::data(42, 1000, at, 2);
        assert_eq!(d.tag, 42);
        assert_eq!(d.len, 1000);
        let UdpBody::Data(p) = d.body else {
            panic!("not a data body: {:?}", d.body)
        };
        assert_eq!(
            p,
            DataPayload {
                seq: 42,
                bytes: 1000,
                sent_at: at,
                layer: 2,
            }
        );
    }
}
