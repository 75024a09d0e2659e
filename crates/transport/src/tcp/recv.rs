//! The receive half: reassembly, in-order delivery and the ACK rule.

use cm_util::{Duration, Time};

use super::ranges::Ranges;
use super::TcpAction;
use crate::segment::{wrap_seq, TcpSegment};
use crate::types::{TcpEvent, TcpTimer};

/// The delayed-ACK timer.
const DELACK_TIMEOUT: Duration = Duration::from_millis(200);

/// What a connection has received, what it has delivered to the
/// application, and whether it owes the peer an ACK.
#[derive(Default)]
pub(super) struct Receiver {
    /// Whether ACKs may be delayed ([`super::TcpConfig::delayed_ack`]).
    delayed_ack: bool,
    /// Next expected offset.
    rcv_nxt: u64,
    /// Out-of-order ranges above `rcv_nxt`.
    ooo: Ranges,
    /// Cumulative in-order data bytes delivered to the application.
    delivered: u64,
    /// Stream offset of the peer's FIN, once a segment carrying it has
    /// arrived: delivered-data accounting stops short of it, and
    /// `PeerClosed` fires once `rcv_nxt` passes it.
    peer_fin_at: Option<u64>,
    /// Segments received since the last ACK was sent.
    segs_since_ack: u32,
    /// A delayed ACK is pending.
    ack_pending: bool,
    /// Timestamp to echo on the next ACK.
    echo_ts: Option<Time>,
}

impl Receiver {
    /// A receiver before the peer's SYN.
    pub(super) fn new(delayed_ack: bool) -> Self {
        Receiver {
            delayed_ack,
            ..Self::default()
        }
    }

    /// The peer's SYN, stamped `ts`, arrived: its data starts at offset 1.
    pub(super) fn synchronize(&mut self, ts: Time) {
        self.rcv_nxt = 1;
        self.echo_ts = Some(ts);
    }

    /// Cumulative in-order data bytes delivered to the application.
    pub(super) fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Takes in a segment that occupies sequence space past the SYN:
    /// reassembles it, raises `DataDelivered` and `PeerClosed`, and returns
    /// whether the peer must be ACKed now ([`Self::ack_now`]).
    pub(super) fn on_data(&mut self, seg: &TcpSegment, out: &mut Vec<TcpAction>) -> bool {
        // The header's 32-bit sequence number, at full width: it is near
        // what we expect next (`unwrap_seq`, checked). One that unwraps
        // below offset 0 lies before the ISN: an old duplicate, ACKed at
        // once and otherwise dropped.
        let before = self.rcv_nxt;
        let delta = seg.seq.wrapping_sub(wrap_seq(before)) as i32;
        let Some(start) = before.checked_add_signed(i64::from(delta)) else {
            return self.ack_now(false, seg.flags.fin, out);
        };
        let end = start + seg.seq_space();
        if seg.flags.fin {
            self.peer_fin_at = Some(end - 1);
        }
        if end > before {
            if self.ooo.is_empty() && start <= before {
                // In order with nothing held (all but the segments of a
                // recovery episode): the store would take the range and
                // hand it straight back.
                self.rcv_nxt = end;
            } else {
                // Insert and merge into the out-of-order store, then
                // advance rcv_nxt through any now-contiguous prefix.
                self.ooo.insert(start.max(before), end);
                self.ooo.coalesce(0);
                self.rcv_nxt = self.ooo.take_prefix(before);
            }
        }
        if self.rcv_nxt > before {
            if start <= before {
                self.echo_ts = Some(seg.ts);
            }
            let data_end = self.peer_fin_at.unwrap_or(u64::MAX).min(self.rcv_nxt);
            let delivered_now = data_end.saturating_sub(before.max(1));
            if delivered_now > 0 {
                self.delivered += delivered_now;
                out.push(TcpAction::Event(TcpEvent::DataDelivered(self.delivered)));
            }
            if self.peer_fin_at.is_some_and(|fin| self.rcv_nxt > fin) {
                out.push(TcpAction::Event(TcpEvent::PeerClosed));
            }
        }
        self.ack_now(start == before, seg.flags.fin, out)
    }

    /// RFC 1122's delayed-ACK rule for a data segment: ACK at once unless
    /// delayed ACKs are on and the segment began exactly at the old
    /// `rcv_nxt` (`in_order`), leaves nothing held above, carries no FIN
    /// and is the first unacknowledged one. Otherwise the delayed-ACK
    /// timer is armed, unless it already runs.
    fn ack_now(&mut self, in_order: bool, fin: bool, out: &mut Vec<TcpAction>) -> bool {
        self.segs_since_ack += 1;
        let now = !in_order
            || !self.ooo.is_empty()
            || fin
            || !self.delayed_ack
            || self.segs_since_ack >= 2;
        if !now && !self.ack_pending {
            self.ack_pending = true;
            out.push(TcpAction::SetTimer(TcpTimer::DelayedAck, DELACK_TIMEOUT));
        }
        now
    }

    /// The delayed-ACK timer fired: whether the ACK is still owed.
    pub(super) fn ack_owed(&self) -> bool {
        self.ack_pending
    }

    /// A segment went out carrying the ACK, so none is owed.
    pub(super) fn ack_sent(&mut self) {
        self.segs_since_ack = 0;
        self.ack_pending = false;
    }

    /// Fills the fields every segment carries for the receive half: the
    /// cumulative ACK, the timestamp echo, and (RFC 2018) up to three
    /// out-of-order ranges so the peer's scoreboard can steer
    /// retransmissions.
    pub(super) fn stamp(&self, seg: &mut TcpSegment) {
        seg.ack = wrap_seq(self.rcv_nxt);
        seg.ts_ecr = self.echo_ts.unwrap_or(TcpSegment::NO_ECHO);
        for (block, &(start, end)) in seg.sack.iter_mut().zip(self.ooo.as_slice()) {
            *block = (wrap_seq(start), wrap_seq(end));
            seg.sack_count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::TcpFlags;

    /// A segment whose sequence number unwraps below offset 0 lies before
    /// the ISN: nothing is delivered or held, and it is ACKed at once.
    #[test]
    fn segment_from_before_the_isn_is_an_old_duplicate() {
        let mut rx = Receiver::new(true);
        rx.synchronize(Time::ZERO);
        let seg = TcpSegment {
            seq: 0xFFFF_FF00,
            len: 1_000,
            ack: 1,
            flags: TcpFlags {
                ack: true,
                ..TcpFlags::default()
            },
            wnd: 1 << 20,
            ts: Time::from_millis(1),
            ts_ecr: TcpSegment::NO_ECHO,
            sack: [(0, 0); 3],
            sack_count: 0,
        };
        let mut out = Vec::new();
        assert!(rx.on_data(&seg, &mut out), "an old duplicate is ACKed now");
        assert!(out.is_empty(), "nothing delivered: {out:?}");
        assert_eq!(rx.rcv_nxt, 1);
        assert!(rx.ooo.is_empty(), "held {:?}", rx.ooo.as_slice());
        assert_eq!(rx.delivered(), 0);
        assert_eq!(rx.peer_fin_at, None);
    }
}
