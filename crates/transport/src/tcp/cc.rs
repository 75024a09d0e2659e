//! The congestion-control seam: who owns a connection's window.

use cm_core::types::{FeedbackReport, LossMode};
use cm_util::Duration;

use super::TcpAction;

/// Who owns a connection's congestion window, holding only that
/// owner's state.
pub(super) enum Cc {
    /// Reno with Linux 2.2's ACK counting.
    Native {
        /// Congestion window (bytes).
        cwnd: u64,
        /// Slow-start threshold (bytes).
        ssthresh: u64,
    },
    /// The CM owns the window; a segment goes out per grant.
    Cm {
        /// `cm_request`s issued and not yet granted.
        requests: u32,
        /// Bytes duplicate ACKs already drained from the CM's outstanding
        /// count, which the cumulative ACK must not drain again.
        recovery_credits: u64,
        /// The CM's shared (srtt, rttvar), which the host pushes in for
        /// the RTO: "useful in loss recovery" (§3.2).
        shared_rtt: Option<(Duration, Duration)>,
    },
}

/// What an acknowledgement did, as congestion control sees it.
pub(super) enum Ack {
    /// New data acknowledged outside recovery.
    Open,
    /// New data below the recovery point (NewReno partial ACK).
    Partial,
    /// The cumulative ACK that ends recovery.
    Recovered,
    /// A duplicate past the third: one more segment reached the receiver.
    Duplicate,
}

impl Cc {
    /// Data acked: `acked` sequence bytes left the network, `data` of
    /// them stream data. Reno deflates on a partial ACK, resumes at
    /// `ssthresh` after recovery, inflates per duplicate and otherwise
    /// grows by ACK counting. TCP/CM reports the data to the CM, net of
    /// what duplicates already drained.
    pub(super) fn on_ack(
        &mut self,
        ack: Ack,
        acked: u64,
        data: u64,
        rtt: Option<Duration>,
        mss: u64,
        out: &mut Vec<TcpAction>,
    ) {
        match self {
            Cc::Native { cwnd, ssthresh } => {
                *cwnd = match ack {
                    Ack::Partial => cwnd.saturating_sub(acked).max(mss),
                    Ack::Recovered => *ssthresh,
                    Ack::Open if *cwnd >= *ssthresh => *cwnd + (mss * mss / *cwnd).max(1),
                    Ack::Open | Ack::Duplicate => *cwnd + mss,
                }
            }
            Cc::Cm {
                recovery_credits: credits,
                ..
            } if data > 0 => {
                let fresh = if matches!(ack, Ack::Duplicate) {
                    *credits += data;
                    data
                } else {
                    let credit = (*credits).min(data);
                    *credits -= credit;
                    data - credit
                };
                let report = FeedbackReport::ack(fresh, 1);
                out.push(TcpAction::CmUpdate(
                    rtt.map_or(report, |s| report.with_rtt(s)),
                ));
            }
            Cc::Cm { .. } => {}
        }
    }

    /// A congestion signal with `flight` bytes outstanding: the third
    /// duplicate ACK (`Transient`) or the RTO (`Persistent`). Reno halves
    /// its window, inflated by the three duplicates in fast recovery and
    /// cut to one segment at a timeout.
    /// TCP/CM reports the signal (§3.2); a lost segment's charge drains
    /// with its retransmission, but a timeout drains the whole flight.
    pub(super) fn congestion(
        &mut self,
        signal: LossMode,
        flight: u64,
        mss: u64,
        out: &mut Vec<TcpAction>,
    ) {
        match self {
            Cc::Native { cwnd, ssthresh } => {
                *ssthresh = (flight / 2).max(2 * mss);
                *cwnd = match signal {
                    LossMode::Persistent => mss,
                    _ => *ssthresh + 3 * mss,
                };
            }
            Cc::Cm {
                recovery_credits, ..
            } => {
                let drained = match signal {
                    LossMode::Persistent => flight.saturating_sub(std::mem::take(recovery_credits)),
                    _ => 0,
                };
                out.push(TcpAction::CmUpdate(FeedbackReport::loss(signal, drained)));
            }
        }
    }
}
