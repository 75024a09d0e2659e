//! Wire formats: TCP segments, UDP datagrams, and the CM feedback
//! protocol's data and acknowledgement bodies.
//!
//! These are the only transport headers a [`Packet`](crate::packet::Packet)
//! carries ([`Payload`](crate::packet::Payload) is a closed enum over
//! them); the protocols that read and write them live in `cm-transport`.
//! Segments carry byte *counts*, not byte contents: a simulated gigabyte
//! transfer needs no gigabyte of memory.
//!
//! Header fields have their wire widths (RFC 793, RFC 2018): a
//! [`TcpSegment`] carries the low 32 bits of its stream offsets, and a
//! receiver recovers the full offset with [`unwrap_seq`] against a 64-bit
//! position of its own. TCP's state stays 64-bit; only the header
//! narrows, which keeps a packet in flight small enough to copy inline.

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
}

/// Maximum SACK blocks per segment (RFC 2018 allows 3 alongside
/// timestamps).
pub const MAX_SACK_BLOCKS: usize = 3;

/// The low 32 bits of stream offset `pos`: what a header carries.
#[inline]
pub fn wrap_seq(pos: u64) -> u32 {
    pos as u32
}

/// The stream offset whose low 32 bits are `wire` and which lies nearest
/// to `near`, a 64-bit offset the receiver already knows (its `rcv_nxt`
/// for a sequence number, its `snd_una` for an acknowledgement or a SACK
/// edge). Exact while the true offset is less than 2^31 from `near`.
#[inline]
pub fn unwrap_seq(wire: u32, near: u64) -> u64 {
    let delta = wire.wrapping_sub(near as u32) as i32;
    near.wrapping_add(delta as i64 as u64)
}

/// A TCP segment, attached to a simulated packet as its payload.
#[derive(Clone, Copy, Debug)]
pub struct TcpSegment {
    /// First stream offset carried, modulo 2^32 (SYN occupies offset 0;
    /// data starts at 1).
    pub seq: u32,
    /// Payload length in bytes (zero for pure ACKs and SYN/FIN).
    pub len: u32,
    /// Cumulative acknowledgement, modulo 2^32: the next offset expected.
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Receiver's advertised window, in bytes.
    pub wnd: u32,
    /// Timestamp at transmission (RFC 1323 TSval), for RTT sampling.
    pub ts: Time,
    /// Echoed timestamp (RFC 1323 TSecr), [`TcpSegment::NO_ECHO`] when
    /// there is nothing to echo; read it through [`TcpSegment::echo`].
    pub ts_ecr: Time,
    /// SACK blocks (RFC 2018): `[start, end)` ranges the receiver holds
    /// above the cumulative ACK, modulo 2^32. Only the first
    /// `sack_count` are valid.
    pub sack: [(u32, u32); MAX_SACK_BLOCKS],
    /// Number of valid SACK blocks.
    pub sack_count: u8,
}

impl TcpSegment {
    /// The `ts_ecr` of a segment that echoes nothing: no simulated clock
    /// reaches it.
    pub const NO_ECHO: Time = Time::MAX;

    /// The echoed timestamp, if any.
    #[inline]
    pub fn echo(&self) -> Option<Time> {
        (self.ts_ecr != Self::NO_ECHO).then_some(self.ts_ecr)
    }

    /// The valid SACK blocks.
    pub fn sack_blocks(&self) -> &[(u32, u32)] {
        &self.sack[..self.sack_count as usize]
    }

    /// The stream space this segment occupies (SYN and FIN each consume
    /// one offset).
    pub fn seq_space(&self) -> u64 {
        self.len as u64 + self.flags.syn as u64 + self.flags.fin as u64
    }

    /// True for segments carrying neither data nor SYN/FIN — pure ACKs,
    /// which a receiver never acknowledges in turn.
    pub fn is_pure_ack(&self) -> bool {
        self.seq_space() == 0 && self.flags.ack
    }
}

/// IP + TCP header overhead per segment, bytes: what the wire carries
/// beyond [`TcpSegment::len`].
pub const TCP_OVERHEAD: u64 = 40;

/// IP + UDP header overhead per datagram, bytes: what the wire carries
/// beyond [`UdpDatagram::len`].
pub const UDP_OVERHEAD: u64 = 28;

/// A UDP datagram payload: an application tag plus a typed body.
#[derive(Clone, Copy, Debug)]
pub struct UdpDatagram {
    /// Application-chosen tag; a CM feedback-protocol data packet carries
    /// the low 32 bits of its sequence number (the full one is in its
    /// [`DataPayload`]).
    pub tag: u32,
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
            tag: seq as u32,
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

    fn seg(seq: u32, len: u32, syn: bool, fin: bool) -> TcpSegment {
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
            ts_ecr: TcpSegment::NO_ECHO,
            sack: [(0, 0); 3],
            sack_count: 0,
        }
    }

    #[test]
    fn syn_and_fin_consume_sequence_space() {
        assert_eq!(seg(0, 0, true, false).seq_space(), 1);
        assert_eq!(seg(0, 0, false, true).seq_space(), 1);
        assert_eq!(seg(1, 1460, false, false).seq_space(), 1460);
        assert_eq!(seg(1, 1460, false, true).seq_space(), 1461);
    }

    #[test]
    fn echo_reads_the_sentinel_as_none() {
        let mut s = seg(0, 0, false, false);
        assert_eq!(s.echo(), None);
        s.ts_ecr = Time::ZERO;
        assert_eq!(s.echo(), Some(Time::ZERO));
    }

    #[test]
    fn unwrap_recovers_offsets_near_the_reference() {
        const B: u64 = 1 << 32;
        for near in [0, 1, B - 1, B, B + 1, 3 * B - 5, 7 * B + (1 << 31)] {
            for d in [-(1i64 << 31) + 1, -1460, -1, 0, 1, 1460, (1 << 31) - 1] {
                let Some(pos) = near.checked_add_signed(d) else {
                    continue;
                };
                assert_eq!(unwrap_seq(wrap_seq(pos), near), pos, "near {near} d {d}");
            }
        }
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
