//! The application-level feedback protocol for UDP clients of the CM.
//!
//! "Note that all UDP-based clients must implement application level data
//! acknowledgements in order to make use of the CM." (§3.1). The wire
//! payloads both ends exchange are defined beside the other wire formats
//! in `cm_netsim::segment`; this module adds the sender's loss inference.
//! The receiver-side applications (per-packet and delayed/batched
//! acknowledgers) live in `cm-apps`.

pub use cm_netsim::segment::{AckPayload, DataPayload};

use cm_core::types::{FeedbackReport, LossMode};
use cm_netsim::segment::UDP_OVERHEAD;
use cm_util::Duration;

/// Sender-side loss detection over the feedback stream.
///
/// Tracks the cumulative counters from successive [`AckPayload`]s and
/// infers, for each new acknowledgement, how many bytes arrived and how
/// many packets were lost (sequence-number gaps), which is exactly what
/// `cm_update` wants to hear.
#[derive(Clone, Copy, Debug, Default)]
pub struct FeedbackTracker {
    last_highest_seq: Option<u64>,
    last_packets: u64,
    last_bytes: u64,
}

/// What one acknowledgement tells the sender.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeedbackDelta {
    /// Bytes newly confirmed received.
    pub bytes_acked: u64,
    /// Packets newly confirmed received.
    pub packets_acked: u64,
    /// Packets inferred lost (gap between sequence advance and receive
    /// count).
    pub packets_lost: u64,
    /// ACK events represented.
    pub ack_events: u32,
}

impl FeedbackTracker {
    /// Creates a tracker with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs an acknowledgement, returning the delta since the last
    /// one. Reordered (stale) acknowledgements return `None`.
    pub fn absorb(&mut self, ack: &AckPayload) -> Option<FeedbackDelta> {
        if let Some(last) = self.last_highest_seq {
            if ack.highest_seq <= last && ack.packets_received <= self.last_packets {
                return None;
            }
        }
        let bytes_acked = ack.bytes_received.saturating_sub(self.last_bytes);
        let packets_acked = ack.packets_received.saturating_sub(self.last_packets);
        // Sequence space advanced by more than packets received => loss.
        let seq_advance = match self.last_highest_seq {
            None => ack.highest_seq + 1,
            Some(last) => ack.highest_seq.saturating_sub(last),
        };
        let packets_lost = seq_advance.saturating_sub(packets_acked);
        self.last_highest_seq = Some(ack.highest_seq);
        self.last_packets = ack.packets_received;
        self.last_bytes = ack.bytes_received;
        Some(FeedbackDelta {
            bytes_acked,
            packets_acked,
            packets_lost,
            ack_events: ack.acks_batched,
        })
    }
}

impl FeedbackDelta {
    /// The `cm_update` report for this delta from a sender of `payload`
    /// bytes per packet, counted on the wire (UDP/IP headers included).
    /// Any inferred loss is transient — a sequence gap, not a timeout —
    /// and still carries the acknowledged bytes.
    pub fn report(&self, payload: u32, rtt: Duration) -> FeedbackReport {
        let acked = self.bytes_acked + self.packets_acked * UDP_OVERHEAD;
        let report = if self.packets_lost > 0 {
            let lost = self.packets_lost * (payload as u64 + UDP_OVERHEAD);
            FeedbackReport::loss(LossMode::Transient, lost).with_acked(acked, self.ack_events)
        } else {
            FeedbackReport::ack(acked, self.ack_events)
        };
        report.with_rtt(rtt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_util::Time;

    fn ack(seq: u64, pkts: u64, bytes: u64, batched: u32) -> AckPayload {
        AckPayload {
            highest_seq: seq,
            packets_received: pkts,
            bytes_received: bytes,
            echo_sent_at: Time::ZERO,
            acks_batched: batched,
        }
    }

    #[test]
    fn clean_stream_reports_no_loss() {
        let mut t = FeedbackTracker::new();
        let d = t.absorb(&ack(0, 1, 1000, 1)).unwrap();
        assert_eq!(d.bytes_acked, 1000);
        assert_eq!(d.packets_lost, 0);
        let d = t.absorb(&ack(1, 2, 2000, 1)).unwrap();
        assert_eq!(d.bytes_acked, 1000);
        assert_eq!(d.packets_acked, 1);
        assert_eq!(d.packets_lost, 0);
    }

    #[test]
    fn gap_reports_loss() {
        let mut t = FeedbackTracker::new();
        t.absorb(&ack(0, 1, 1000, 1)).unwrap();
        // Sequence jumped 0 -> 3 but only one more packet received:
        // two packets lost.
        let d = t.absorb(&ack(3, 2, 2000, 1)).unwrap();
        assert_eq!(d.packets_acked, 1);
        assert_eq!(d.packets_lost, 2);
    }

    #[test]
    fn batched_feedback_accumulates() {
        let mut t = FeedbackTracker::new();
        // One delayed ACK covering 500 packets.
        let d = t.absorb(&ack(499, 500, 500 * 1000, 500)).unwrap();
        assert_eq!(d.bytes_acked, 500_000);
        assert_eq!(d.packets_acked, 500);
        assert_eq!(d.packets_lost, 0);
        assert_eq!(d.ack_events, 500);
    }

    #[test]
    fn stale_ack_ignored() {
        let mut t = FeedbackTracker::new();
        t.absorb(&ack(10, 11, 11_000, 1)).unwrap();
        assert_eq!(t.absorb(&ack(5, 6, 6_000, 1)), None);
    }

    #[test]
    fn first_ack_with_initial_loss() {
        let mut t = FeedbackTracker::new();
        // First ack says highest_seq=4 but only 3 packets arrived: the
        // five-packet prefix lost two.
        let d = t.absorb(&ack(4, 3, 3_000, 3)).unwrap();
        assert_eq!(d.packets_acked, 3);
        assert_eq!(d.packets_lost, 2);
    }

    const RTT: Duration = Duration::from_millis(40);

    #[test]
    fn clean_delta_reports_wire_bytes_acked() {
        let d = FeedbackTracker::new().absorb(&ack(1, 2, 2_000, 1)).unwrap();
        let r = d.report(1000, RTT);
        assert_eq!(r.bytes_acked, 2_000 + 2 * 28);
        assert_eq!(r.bytes_lost, 0);
        assert_eq!(r.loss, LossMode::None);
        assert_eq!(r.ack_events, 1);
        assert_eq!(r.rtt_sample, Some(RTT));
    }

    #[test]
    fn lossy_delta_reports_transient_loss_with_acked_bytes() {
        let mut t = FeedbackTracker::new();
        t.absorb(&ack(0, 1, 1000, 1)).unwrap();
        let d = t.absorb(&ack(3, 2, 2000, 1)).unwrap();
        let r = d.report(1000, RTT);
        assert_eq!(r.loss, LossMode::Transient);
        assert_eq!(r.bytes_lost, 2 * (1000 + 28));
        assert_eq!(r.bytes_acked, 1000 + 28);
        assert_eq!(r.ack_events, 1);
        assert_eq!(r.rtt_sample, Some(RTT));
    }

    #[test]
    fn batched_delta_passes_ack_events_through() {
        let d = FeedbackTracker::new()
            .absorb(&ack(499, 500, 500 * 1000, 500))
            .unwrap();
        let r = d.report(1000, RTT);
        assert_eq!(r.ack_events, 500);
        assert_eq!(r.bytes_acked, 500 * (1000 + 28));
        assert_eq!(r.loss, LossMode::None);
        assert_eq!(r.rtt_sample, Some(RTT));
    }
}
