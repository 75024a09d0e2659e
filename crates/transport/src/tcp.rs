//! A packet-level TCP whose congestion control sits behind one seam.
//!
//! The connection object implements connection establishment and teardown,
//! reliable in-order delivery with out-of-order reassembly, RTT estimation
//! from timestamps, RTO with exponential backoff, fast retransmit on three
//! duplicate ACKs with NewReno partial-ACK recovery, optional delayed
//! ACKs, and ECN echo — everything the paper's §3.2 keeps *inside* TCP
//! when the CM takes over congestion control:
//!
//! > "TCP/CM offloads all congestion control to the CM, while retaining
//! > all other TCP functionality (connection establishment and
//! > termination, loss recovery and protocol state handling)."
//!
//! Who owns the window is one private enum, `Cc`, picked by the
//! [`CcMode`] a connection is built with and holding only its state:
//!
//! * **Native** — Reno-style AIMD with the Linux 2.2 idiosyncrasies the
//!   paper calls out (§4): an initial window of **2** segments and **ACK
//!   counting** ("it assumes that each ACK is for a full MTU").
//! * **Cm** — the CM owns the window. The connection emits
//!   [`TcpAction::CmRequest`] / [`TcpAction::CmNotify`] /
//!   [`TcpAction::CmUpdate`] actions and transmits exactly one segment
//!   per CM grant, with duplicate-ACK and timeout events mapped to
//!   `cm_update` calls precisely as §3.2's "Data acknowledgements"
//!   paragraph prescribes.
//!
//! The reliability core reaches `Cc` at four points only: may I send
//! (`pump`), I sent (a retransmission's charge), data acked
//! (`Cc::on_ack`), and `Cc::congestion` for an ECN echo, the third
//! duplicate ACK and the RTO, the one place Reno halves and TCP/CM
//! reports a loss.
//!
//! The object is deliberately pure: every entry point produces a list of
//! [`TcpAction`]s (segments to emit, timers to arm, CM calls to make,
//! application events to raise) that the host stack executes. That makes
//! the protocol directly unit-testable without a simulator, which the
//! tests at the bottom of this file and `tests/tcp_over_cm.rs` exploit.
//! Each entry point comes in two forms over one body: `*_into` appends
//! to a buffer the caller reuses (the host's per-packet path, which must
//! not allocate), and the plain form returns a fresh `Vec` for tests and
//! harnesses.

use cm_core::types::{FeedbackReport, LossMode};
use cm_util::ewma::{self, RttEstimator};
use cm_util::{Duration, Time};

use crate::segment::{unwrap_seq, wrap_seq, TcpFlags, TcpSegment};
use crate::types::{CcMode, TcpEvent, TcpTimer};

/// Tunables for one connection.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Maximum segment size, in bytes.
    pub mss: usize,
    /// Whether the receiver delays ACKs (200 ms / every-other-segment).
    pub delayed_ack: bool,
    /// Receive window advertised to the peer.
    pub rwnd: u64,
    /// Mark data packets ECN-capable and react to ECE echoes.
    pub ecn: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            delayed_ack: true,
            rwnd: 1 << 24,
            ecn: false,
        }
    }
}

/// The delayed-ACK timer.
const DELACK_TIMEOUT: Duration = Duration::from_millis(200);
/// Reno's initial window, in segments (Linux 2.2 used 2).
const INITIAL_CWND_SEGMENTS: u64 = 2;
/// TCP/CM: cap on `cm_request`s outstanding at once (bounds the
/// scheduler queue during bulk transfers).
const MAX_REQUESTS: u64 = 64;

/// Connection lifecycle states (simplified from RFC 793: no TIME_WAIT,
/// since the simulator never reuses 4-tuples).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// Active opener: SYN sent, awaiting SYN|ACK.
    SynSent,
    /// Passive opener: SYN received, SYN|ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Our FIN is queued/sent; still receiving.
    Closing,
    /// Fully closed.
    Closed,
}

/// Counters for one connection.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpStats {
    /// Segments emitted (all kinds).
    pub segs_sent: u64,
    /// Segments received.
    pub segs_rcvd: u64,
    /// New data bytes sent (first transmission).
    pub bytes_sent: u64,
    /// Data bytes retransmitted.
    pub bytes_rtx: u64,
    /// Fast retransmits triggered.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Duplicate ACKs received.
    pub dupacks: u64,
    /// RTT samples taken.
    pub rtt_samples: u64,
    /// Pure ACKs emitted.
    pub acks_sent: u64,
}

/// What the host must do on the connection's behalf.
#[derive(Debug)]
pub enum TcpAction {
    /// Transmit a segment.
    Emit(TcpSegment),
    /// (Re)arm the given timer.
    SetTimer(TcpTimer, Duration),
    /// Disarm the given timer.
    CancelTimer(TcpTimer),
    /// CM mode: issue one `cm_request` for this connection's flow.
    CmRequest,
    /// CM mode: report `bytes` transmitted (0 = grant declined).
    CmNotify(u64),
    /// CM mode: deliver feedback to the CM.
    CmUpdate(FeedbackReport),
    /// Raise an event to the owning application.
    Event(TcpEvent),
}

/// Byte ranges `[start, end)` sorted by start: the receiver's
/// out-of-order store and the sender's SACK scoreboard. Both are empty
/// outside a recovery episode and hold a handful of ranges inside one,
/// so a flat vector that keeps its capacity between episodes beats a
/// tree that allocates a node per segment.
#[derive(Default)]
struct Ranges(Vec<(u64, u64)>);

impl Ranges {
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Inserts `[start, end)`, keyed by `start`.
    ///
    /// A range that starts exactly where a held one starts *replaces*
    /// that range's end, even with a smaller one — so a duplicate of the
    /// first segment of a held run makes the store forget the rest of
    /// the run (ROADMAP item 2 has the reproduction). Taking the larger
    /// end is the fix; it moves goodput under loss, so it is kept out of
    /// a change whose gate is bit-equal behaviour.
    fn insert(&mut self, start: u64, end: u64) {
        let at = self.0.partition_point(|&(s, _)| s < start);
        match self.0.get_mut(at) {
            Some(held) if held.0 == start => held.1 = end,
            _ => self.0.insert(at, (start, end)),
        }
    }

    /// Merges overlapping and touching ranges in place, clipping to
    /// `floor` and dropping what lies wholly below it.
    fn coalesce(&mut self, floor: u64) {
        let mut kept = 0usize;
        for i in 0..self.0.len() {
            let (start, end) = self.0[i];
            if end <= floor {
                continue;
            }
            let start = start.max(floor);
            if kept > 0 && start <= self.0[kept - 1].1 {
                let last_end = &mut self.0[kept - 1].1;
                *last_end = (*last_end).max(end);
            } else {
                self.0[kept] = (start, end);
                kept += 1;
            }
        }
        self.0.truncate(kept);
    }

    /// Removes the leading ranges that begin at or before `pos` and
    /// returns how far they carry it.
    fn take_prefix(&mut self, mut pos: u64) -> u64 {
        let mut taken = 0;
        for &(start, end) in &self.0 {
            if start > pos {
                break;
            }
            pos = pos.max(end);
            taken += 1;
        }
        self.0.drain(..taken);
        pos
    }

    /// Index of the first range that starts after `pos`.
    fn first_after(&self, pos: u64) -> usize {
        self.0.partition_point(|&(s, _)| s <= pos)
    }

    /// If `pos` lies inside a range, the range's end.
    fn end_covering(&self, pos: u64) -> Option<u64> {
        let &(_, end) = self.0.get(self.first_after(pos).checked_sub(1)?)?;
        (pos < end).then_some(end)
    }

    /// Where the first range that starts after `pos` starts.
    fn next_start_after(&self, pos: u64) -> Option<u64> {
        self.0.get(self.first_after(pos)).map(|&(s, _)| s)
    }

    /// The end of the last range.
    fn last_end(&self) -> Option<u64> {
        self.0.last().map(|&(_, e)| e)
    }
}

/// Runs one entry point's `*_into` body against a fresh action list.
fn collect(body: impl FnOnce(&mut Vec<TcpAction>)) -> Vec<TcpAction> {
    let mut out = Vec::new();
    body(&mut out);
    out
}

/// Who owns a connection's congestion window, holding only that
/// owner's state.
enum Cc {
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
enum Ack {
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
    fn on_ack(
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

    /// A congestion signal with `flight` bytes outstanding: an ECN echo
    /// (`Ecn`), the third duplicate ACK (`Transient`) or the RTO
    /// (`Persistent`). Reno halves its window, inflated by the three
    /// duplicates in fast recovery and cut to one segment at a timeout.
    /// TCP/CM reports the signal (§3.2); a lost segment's charge drains
    /// with its retransmission, but a timeout drains the whole flight.
    fn congestion(&mut self, signal: LossMode, flight: u64, mss: u64, out: &mut Vec<TcpAction>) {
        match self {
            Cc::Native { cwnd, ssthresh } => {
                *ssthresh = (flight / 2).max(2 * mss);
                *cwnd = match signal {
                    LossMode::Transient => *ssthresh + 3 * mss,
                    LossMode::Persistent => mss,
                    _ => *ssthresh,
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

/// A TCP connection endpoint.
pub struct TcpConnection {
    cfg: TcpConfig,
    cc: Cc,
    state: TcpState,

    // --- Send side ---
    /// Oldest unacknowledged offset.
    snd_una: u64,
    /// Next offset to transmit.
    snd_nxt: u64,
    /// Stream bytes the application has written (data occupies
    /// `[1, 1 + app_written)`; offset 0 is the SYN).
    app_written: u64,
    /// Application requested close (FIN after all data).
    fin_queued: bool,
    /// FIN has been transmitted at `1 + app_written`.
    fin_sent: bool,
    /// Peer's advertised window.
    peer_wnd: u64,
    /// Duplicate-ACK counter.
    dupacks: u32,
    /// NewReno recovery: set while recovering, with the recovery point.
    recover: Option<u64>,
    /// Partial ACKs absorbed in the current recovery (the RFC 6582
    /// "Impatient" variant re-arms the RTO only on the first).
    partial_acks: u32,
    /// SACK scoreboard: ranges above `snd_una` the receiver holds
    /// (RFC 2018; Linux 2.2 shipped with SACK on).
    sacked: Ranges,
    /// Recovery progress: holes below this offset were already
    /// retransmitted in the current recovery episode.
    rtx_next_hole: u64,
    /// RTO backoff exponent.
    backoff: u32,
    /// RTT estimator (TCP/CM's RTO prefers the CM's shared one).
    rtt: RttEstimator,
    /// Whether the RTO timer is currently armed (transmissions arm it
    /// only when it is not; new ACKs restart it).
    rto_armed: bool,
    /// Highest offset ever transmitted; sends below it after a timeout's
    /// go-back-N reset are retransmissions for accounting purposes.
    highest_sent: u64,
    /// ECN: highest offset at which we already reacted to an ECE.
    ecn_reacted_at: u64,

    // --- Receive side ---
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
    /// An ECN CE mark awaits echoing.
    ece_pending: bool,

    /// Counters.
    pub stats: TcpStats,
}

impl TcpConnection {
    /// Creates an active-open connection; the returned actions transmit
    /// the SYN and arm the handshake timer.
    pub fn connect(cfg: TcpConfig, mode: CcMode, now: Time) -> (Self, Vec<TcpAction>) {
        Self::new(cfg, mode, TcpState::SynSent).open(now)
    }

    /// Creates a passive-open connection in response to a SYN; the
    /// returned actions transmit the SYN|ACK.
    pub fn accept(
        cfg: TcpConfig,
        mode: CcMode,
        syn: &TcpSegment,
        now: Time,
    ) -> (Self, Vec<TcpAction>) {
        debug_assert!(syn.flags.syn && !syn.flags.ack);
        let mut conn = Self::new(cfg, mode, TcpState::SynRcvd);
        conn.rcv_nxt = 1;
        conn.echo_ts = Some(syn.ts);
        conn.open(now)
    }

    /// Sends the opening SYN (or SYN|ACK) and arms the handshake timer.
    fn open(mut self, now: Time) -> (Self, Vec<TcpAction>) {
        let mut out = Vec::new();
        self.send_syn(now, &mut out);
        self.snd_nxt = 1;
        self.arm_rto(&mut out);
        (self, out)
    }

    /// Emits our SYN, or SYN|ACK as the passive opener.
    fn send_syn(&mut self, now: Time, out: &mut Vec<TcpAction>) {
        let flags = TcpFlags {
            syn: true,
            ack: self.state == TcpState::SynRcvd,
            ..Default::default()
        };
        let syn = self.make_segment(0, 0, flags, now);
        self.emit(syn, out);
    }

    fn new(cfg: TcpConfig, mode: CcMode, state: TcpState) -> Self {
        TcpConnection {
            cc: match mode {
                CcMode::Native => Cc::Native {
                    cwnd: INITIAL_CWND_SEGMENTS * cfg.mss as u64,
                    ssthresh: u64::MAX / 2,
                },
                CcMode::Cm => Cc::Cm {
                    requests: 0,
                    recovery_credits: 0,
                    shared_rtt: None,
                },
            },
            cfg,
            state,
            snd_una: 0,
            snd_nxt: 0,
            app_written: 0,
            fin_queued: false,
            fin_sent: false,
            peer_wnd: u64::MAX / 2,
            dupacks: 0,
            recover: None,
            partial_acks: 0,
            sacked: Ranges::default(),
            rtx_next_hole: 0,
            backoff: 0,
            rtt: RttEstimator::new(),
            rto_armed: false,
            highest_sent: 0,
            ecn_reacted_at: 0,
            rcv_nxt: 0,
            ooo: Ranges::default(),
            delivered: 0,
            peer_fin_at: None,
            segs_since_ack: 0,
            ack_pending: false,
            echo_ts: None,
            ece_pending: false,
            stats: TcpStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current lifecycle state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Bytes in flight (sequence space between `snd_una` and `snd_nxt`).
    pub fn flight(&self) -> u64 {
        self.snd_nxt.saturating_sub(self.snd_una)
    }

    /// Cumulative in-order data bytes delivered to the application.
    pub fn bytes_delivered(&self) -> u64 {
        self.delivered
    }

    /// Cumulative stream bytes acknowledged by the peer (data only).
    pub fn bytes_acked(&self) -> u64 {
        // Exclude the SYN offset.
        self.snd_una.saturating_sub(1).min(self.app_written)
    }

    /// True when every written byte (and FIN, if queued) is acknowledged.
    fn send_complete(&self) -> bool {
        self.snd_una >= self.stream_limit() + (self.fin_queued as u64) && self.app_written > 0
    }

    /// Reno's congestion window; `None` under TCP/CM, whose window the
    /// CM holds.
    pub fn cwnd(&self) -> Option<u64> {
        match self.cc {
            Cc::Native { cwnd, .. } => Some(cwnd),
            Cc::Cm { .. } => None,
        }
    }

    /// The host pushes the CM's shared RTT estimate here after feedback,
    /// for a TCP/CM connection's RTO.
    pub fn set_shared_rtt(&mut self, srtt: Duration, rttvar: Duration) {
        if let Cc::Cm { shared_rtt, .. } = &mut self.cc {
            *shared_rtt = Some((srtt, rttvar));
        }
    }

    /// The connection's current retransmission timeout.
    pub fn rto(&self) -> Duration {
        let base = match self.cc {
            Cc::Cm {
                shared_rtt: Some((srtt, rttvar)),
                ..
            } => ewma::rto_of(srtt, rttvar),
            _ => self.rtt.rto(),
        };
        let scaled = base * (1u64 << self.backoff.min(6));
        scaled.min(ewma::MAX_RTO)
    }

    // ------------------------------------------------------------------
    // Application entry points
    // ------------------------------------------------------------------

    /// The application wrote `bytes` more stream bytes.
    pub fn app_write(&mut self, bytes: u64, now: Time) -> Vec<TcpAction> {
        collect(|out| self.app_write_into(bytes, now, out))
    }

    /// [`TcpConnection::app_write`], appending its actions to `out`.
    pub fn app_write_into(&mut self, bytes: u64, now: Time, out: &mut Vec<TcpAction>) {
        self.app_written += bytes;
        self.pump(now, out);
    }

    /// The application closed its sending direction (FIN after data),
    /// appending the resulting actions to `out`.
    pub fn app_close_into(&mut self, now: Time, out: &mut Vec<TcpAction>) {
        self.fin_queued = true;
        if self.state == TcpState::Established {
            self.state = TcpState::Closing;
        }
        self.pump(now, out);
    }

    // ------------------------------------------------------------------
    // Segment arrival
    // ------------------------------------------------------------------

    /// Processes an incoming segment (`ce_marked` reports the IP-layer
    /// ECN CE codepoint).
    pub fn on_segment(&mut self, seg: &TcpSegment, ce_marked: bool, now: Time) -> Vec<TcpAction> {
        collect(|out| self.on_segment_into(seg, ce_marked, now, out))
    }

    /// [`TcpConnection::on_segment`], appending its actions to `out`.
    pub fn on_segment_into(
        &mut self,
        seg: &TcpSegment,
        ce_marked: bool,
        now: Time,
        out: &mut Vec<TcpAction>,
    ) {
        self.stats.segs_rcvd += 1;
        if ce_marked && self.cfg.ecn {
            self.ece_pending = true;
        }
        // The header's 32-bit positions, at full width: a sequence number
        // is near what we expect next, an acknowledgement near what we
        // wait on.
        let seq = unwrap_seq(seg.seq, self.rcv_nxt);
        let ack = unwrap_seq(seg.ack, self.snd_una);

        // Handshake transitions.
        match self.state {
            TcpState::SynSent if seg.flags.syn && seg.flags.ack => {
                self.rcv_nxt = 1;
                self.snd_una = 1;
                self.backoff = 0;
                self.state = TcpState::Established;
                self.echo_ts = Some(seg.ts);
                if let Some(ecr) = seg.echo() {
                    self.take_rtt_sample(now.since(ecr));
                }
                self.rto_armed = false;
                out.push(TcpAction::CancelTimer(TcpTimer::Rto));
                out.push(TcpAction::Event(TcpEvent::Connected));
                self.send_ack(now, out);
                self.pump(now, out);
                return;
            }
            TcpState::SynRcvd if seg.flags.ack && ack >= 1 => {
                self.snd_una = self.snd_una.max(1);
                self.backoff = 0;
                self.state = TcpState::Established;
                self.rto_armed = false;
                out.push(TcpAction::CancelTimer(TcpTimer::Rto));
                out.push(TcpAction::Event(TcpEvent::Accepted));
                // Fall through: the ACK may carry data.
            }
            _ => {}
        }

        if seg.flags.ack {
            self.process_ack(seg, ack, now, out);
        }
        if seg.seq_space() > 0 && !seg.flags.syn {
            self.process_data(seg, seq, now, out);
        }
    }

    /// The acknowledgement half of a segment whose `ack` is unwrapped.
    fn process_ack(&mut self, seg: &TcpSegment, ack: u64, now: Time, out: &mut Vec<TcpAction>) {
        let mss = self.cfg.mss as u64;
        self.peer_wnd = seg.wnd as u64;
        self.absorb_sack(seg.sack_blocks());
        // ECN echo: react at most once per window of data.
        if seg.flags.ece && self.cfg.ecn && self.snd_una >= self.ecn_reacted_at {
            self.ecn_reacted_at = self.snd_nxt;
            self.cc.congestion(LossMode::Ecn, self.flight(), mss, out);
        }

        if ack > self.snd_una {
            // --- New data acknowledged ---
            let acked = ack - self.snd_una;
            let data_acked = self.data_bytes_in(self.snd_una, ack);
            self.snd_una = ack;
            // After a go-back-N rewind, a late ACK from a pre-reset
            // transmission can pass the send point; jump forward.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.backoff = 0;
            self.sacked.coalesce(self.snd_una);
            let rtt_sample = seg.echo().map(|ecr| now.since(ecr));
            if let Some(sample) = rtt_sample {
                self.take_rtt_sample(sample);
            }
            let mut rearm_rto = true;
            let kind = match self.recover {
                Some(point) if ack < point => {
                    // NewReno partial ACK: retransmit the next hole
                    // immediately, stay in recovery. Per the RFC 6582
                    // "Impatient" variant, only the first partial ACK
                    // re-arms the RTO, so a long burst-loss recovery
                    // falls back to a timeout instead of crawling at one
                    // retransmission per RTT.
                    self.partial_acks += 1;
                    rearm_rto = self.partial_acks == 1;
                    self.retransmit_or_request(now, out);
                    Ack::Partial
                }
                Some(_) => {
                    // Recovery complete.
                    self.recover = None;
                    self.partial_acks = 0;
                    self.dupacks = 0;
                    self.rtx_next_hole = 0;
                    Ack::Recovered
                }
                None => {
                    self.dupacks = 0;
                    Ack::Open
                }
            };
            self.cc
                .on_ack(kind, acked, data_acked, rtt_sample, mss, out);
            out.push(TcpAction::Event(TcpEvent::SendProgress(self.bytes_acked())));
            // Restart or cancel the RTO.
            if self.flight() > 0 {
                if rearm_rto {
                    self.arm_rto(out);
                }
            } else {
                self.rto_armed = false;
                out.push(TcpAction::CancelTimer(TcpTimer::Rto));
                if self.state == TcpState::Closing && self.send_complete() {
                    self.state = TcpState::Closed;
                    out.push(TcpAction::Event(TcpEvent::Closed));
                }
            }
            self.pump(now, out);
        } else if ack == self.snd_una && self.flight() > 0 && seg.is_pure_ack() {
            // --- Duplicate ACK ---
            self.dupacks += 1;
            self.stats.dupacks += 1;
            if self.dupacks == 3 && self.recover.is_none() {
                self.stats.fast_retransmits += 1;
                self.recover = Some(self.snd_nxt);
                self.rtx_next_hole = self.snd_una;
                // "TCP assumes a simple, congestion-caused packet loss"
                // (§3.2).
                self.cc
                    .congestion(LossMode::Transient, self.flight(), mss, out);
                self.retransmit_or_request(now, out);
            } else if self.dupacks > 3 {
                // "TCP assumes that a segment reached the receiver and
                // caused this ACK" (§3.2): one more segment left the
                // pipe, so retransmit the next scoreboard hole, or send
                // new data.
                self.cc.on_ack(Ack::Duplicate, mss, mss, None, mss, out);
                if !self.retransmit_or_request(now, out) {
                    self.pump(now, out);
                }
            }
        }
    }

    /// The data half of a segment whose `seq` is unwrapped.
    fn process_data(&mut self, seg: &TcpSegment, seq: u64, now: Time, out: &mut Vec<TcpAction>) {
        let start = seq;
        let end = seq + seg.seq_space();
        if seg.flags.fin {
            self.peer_fin_at = Some(end - 1);
        }
        let mut out_of_order = end <= self.rcv_nxt || start > self.rcv_nxt;
        if end > self.rcv_nxt {
            let before = self.rcv_nxt;
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
            if self.rcv_nxt > before {
                if start <= before {
                    // In-order arrival (possibly filling a hole).
                    if start < before || !self.ooo.is_empty() {
                        // Filled a hole: ack immediately.
                        out_of_order = true;
                    } else {
                        out_of_order = false;
                    }
                    self.echo_ts = Some(seg.ts);
                }
                let delivered_now = self.rcv_data_bytes_in(before, self.rcv_nxt);
                if delivered_now > 0 {
                    self.delivered += delivered_now;
                    out.push(TcpAction::Event(TcpEvent::DataDelivered(self.delivered)));
                }
                if let Some(fin) = self.peer_fin_at {
                    if self.rcv_nxt > fin {
                        out.push(TcpAction::Event(TcpEvent::PeerClosed));
                    }
                }
            }
        }
        // ACK generation (RFC 1122 delayed-ACK rules).
        self.segs_since_ack += 1;
        let force = out_of_order
            || !self.ooo.is_empty()
            || seg.flags.fin
            || self.ece_pending
            || !self.cfg.delayed_ack
            || self.segs_since_ack >= 2;
        if force {
            self.send_ack(now, out);
        } else if !self.ack_pending {
            self.ack_pending = true;
            out.push(TcpAction::SetTimer(TcpTimer::DelayedAck, DELACK_TIMEOUT));
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Handles a fired timer.
    pub fn on_timer(&mut self, timer: TcpTimer, now: Time) -> Vec<TcpAction> {
        collect(|out| self.on_timer_into(timer, now, out))
    }

    /// [`TcpConnection::on_timer`], appending its actions to `out`.
    pub fn on_timer_into(&mut self, timer: TcpTimer, now: Time, out: &mut Vec<TcpAction>) {
        match timer {
            TcpTimer::DelayedAck => {
                if self.ack_pending {
                    self.send_ack(now, out);
                }
            }
            TcpTimer::Rto => {
                self.rto_armed = false;
                if self.flight() == 0 && self.state != TcpState::SynSent {
                    return;
                }
                self.stats.timeouts += 1;
                self.backoff = (self.backoff + 1).min(10);
                self.dupacks = 0;
                self.recover = None;
                self.partial_acks = 0;
                match self.state {
                    TcpState::SynSent | TcpState::SynRcvd => self.send_syn(now, out),
                    _ => {
                        // Go-back-N: rewind the send point to the oldest
                        // unacknowledged byte; slow start (or CM grants)
                        // re-cover the whole window, and the receiver's
                        // reassembly discards duplicates.
                        let flight = self.flight();
                        self.snd_nxt = self.snd_una.max(1);
                        self.fin_sent = false;
                        self.rtx_next_hole = 0;
                        // "the expiration of the TCP retransmission timer
                        // ... calls cm_update with the CM_LOST_FEEDBACK
                        // option set" (§3.2).
                        let mss = self.cfg.mss as u64;
                        self.cc.congestion(LossMode::Persistent, flight, mss, out);
                        self.pump(now, out);
                    }
                }
                self.arm_rto(out);
            }
        }
    }

    // ------------------------------------------------------------------
    // CM grant handling
    // ------------------------------------------------------------------

    /// TCP/CM: a send grant arrived (`cmapp_send`). Transmits exactly
    /// one segment — a pending retransmission takes priority over new
    /// data, mirroring §3.2 — or declines with `cm_notify(0)`. A native
    /// connection's window, not a grant, says when it sends, so a grant
    /// reaching one does nothing.
    pub fn on_cm_grant(&mut self, now: Time) -> Vec<TcpAction> {
        collect(|out| self.on_cm_grant_into(now, out))
    }

    /// [`TcpConnection::on_cm_grant`], appending its actions to `out`.
    pub fn on_cm_grant_into(&mut self, now: Time, out: &mut Vec<TcpAction>) {
        let Cc::Cm { requests, .. } = &mut self.cc else {
            return;
        };
        *requests = requests.saturating_sub(1);
        if self.state != TcpState::Established && self.state != TcpState::Closing {
            out.push(TcpAction::CmNotify(0));
            return;
        }
        if self.retransmit_hole(now, out) {
            // A recovery hole took this grant.
        } else if let Some(seg) = self.next_new_segment(now) {
            let wire = seg.seq_space();
            self.send_at_snd_nxt(seg, out);
            out.push(TcpAction::CmNotify(wire));
            self.arm_rto_if_idle(out);
        } else {
            // Nothing to send: release the grant.
            out.push(TcpAction::CmNotify(0));
        }
        self.maybe_request(out);
    }

    // ------------------------------------------------------------------
    // Transmission machinery
    // ------------------------------------------------------------------

    /// Stream offset one past the last writable data byte.
    fn stream_limit(&self) -> u64 {
        1 + self.app_written
    }

    /// Sent-stream data bytes (excluding our SYN/FIN offsets) within
    /// `[from, to)`; used to convert ACK advances into acked data.
    fn data_bytes_in(&self, from: u64, to: u64) -> u64 {
        let data_lo = from.max(1);
        let data_hi = to.min(self.stream_limit().max(1));
        data_hi.saturating_sub(data_lo)
    }

    /// Received-stream data bytes (excluding the peer's SYN/FIN offsets)
    /// within `[from, to)`; used to convert `rcv_nxt` advances into
    /// delivered data.
    fn rcv_data_bytes_in(&self, from: u64, to: u64) -> u64 {
        let lo = from.max(1);
        let hi = match self.peer_fin_at {
            Some(fin) => to.min(fin),
            None => to,
        };
        hi.saturating_sub(lo)
    }

    /// Builds the next untransmitted segment, if data (or FIN) is
    /// available and the peer window allows it.
    fn next_new_segment(&mut self, now: Time) -> Option<TcpSegment> {
        if self.snd_nxt < 1 {
            return None; // Handshake not done.
        }
        // After a timeout's go-back-N rewind, skip ranges the receiver
        // already holds (per the SACK scoreboard).
        while let Some(end) = self.sacked.end_covering(self.snd_nxt) {
            self.snd_nxt = end;
        }
        let limit = self.stream_limit();
        let avail = limit.saturating_sub(self.snd_nxt);
        let wnd_room = (self.snd_una + self.peer_wnd).saturating_sub(self.snd_nxt);
        if avail > 0 && wnd_room > 0 {
            let next_sacked = self
                .sacked
                .next_start_after(self.snd_nxt)
                .map_or(u64::MAX, |a| a - self.snd_nxt);
            let len = avail
                .min(self.cfg.mss as u64)
                .min(wnd_room)
                .min(next_sacked) as u32;
            let mut flags = TcpFlags {
                ack: true,
                ..Default::default()
            };
            // Piggyback FIN on the last segment.
            if self.fin_queued && self.snd_nxt + len as u64 == limit && !self.fin_sent {
                flags.fin = true;
                self.fin_sent = true;
            }
            return Some(self.make_segment(self.snd_nxt, len, flags, now));
        }
        if avail == 0 && self.fin_queued && !self.fin_sent && wnd_room > 0 {
            self.fin_sent = true;
            let flags = TcpFlags {
                ack: true,
                fin: true,
                ..Default::default()
            };
            return Some(self.make_segment(self.snd_nxt, 0, flags, now));
        }
        None
    }

    /// May I send: Reno transmits as much as its window and the peer's
    /// permit; TCP/CM only tops up its `cm_request`s and transmits when
    /// granted.
    fn pump(&mut self, now: Time, out: &mut Vec<TcpAction>) {
        let Cc::Native { cwnd, .. } = self.cc else {
            return self.maybe_request(out);
        };
        if self.state != TcpState::Established && self.state != TcpState::Closing {
            return;
        }
        let mut sent_any = false;
        // Stop at a full window, allowing a final short segment.
        while self.flight() + self.cfg.mss as u64 / 2 < cwnd {
            let Some(seg) = self.next_new_segment(now) else {
                break;
            };
            self.send_at_snd_nxt(seg, out);
            sent_any = true;
        }
        if sent_any {
            self.arm_rto_if_idle(out);
        }
    }

    /// Recovery's next transmission: Reno retransmits the next hole now,
    /// TCP/CM asks for a grant to send it. False when Reno had no hole.
    fn retransmit_or_request(&mut self, now: Time, out: &mut Vec<TcpAction>) -> bool {
        if let Cc::Native { .. } = self.cc {
            return self.retransmit_hole(now, out);
        }
        self.maybe_request(out);
        true
    }

    /// Emits `seg`, built at `snd_nxt` by [`Self::next_new_segment`], and
    /// moves `snd_nxt` past it; bytes below `highest_sent` count as
    /// retransmitted.
    fn send_at_snd_nxt(&mut self, seg: TcpSegment, out: &mut Vec<TcpAction>) {
        self.snd_nxt += seg.seq_space();
        if self.snd_nxt <= self.highest_sent {
            self.stats.bytes_rtx += seg.len as u64;
        } else {
            self.stats.bytes_sent += seg.len as u64;
            self.highest_sent = self.snd_nxt;
        }
        self.emit(seg, out);
    }

    /// TCP/CM: tops up outstanding `cm_request`s to cover the work we
    /// could do with more grants.
    fn maybe_request(&mut self, out: &mut Vec<TcpAction>) {
        if self.state != TcpState::Established && self.state != TcpState::Closing {
            return;
        }
        // Request only for data the peer window lets us send; otherwise a
        // grant would be declined and immediately re-requested, spinning.
        let limit = self
            .stream_limit()
            .min(self.snd_una.saturating_add(self.peer_wnd).max(1));
        let unsent = limit.saturating_sub(self.snd_nxt.max(1));
        let want = (unsent.div_ceil(self.cfg.mss as u64)
            + self.next_hole().is_some() as u64
            + (self.fin_queued && !self.fin_sent) as u64)
            .min(MAX_REQUESTS);
        if let Cc::Cm { requests, .. } = &mut self.cc {
            while u64::from(*requests) < want {
                *requests += 1;
                out.push(TcpAction::CmRequest);
            }
        }
    }

    /// Merges the receiver's SACK blocks into the scoreboard, coalescing
    /// overlaps and pruning what the cumulative ACK has passed.
    /// The edges arrive modulo 2^32 and are unwrapped against `snd_una`.
    fn absorb_sack(&mut self, blocks: &[(u32, u32)]) {
        for &(bs, be) in blocks {
            let (bs, be) = (unwrap_seq(bs, self.snd_una), unwrap_seq(be, self.snd_una));
            if be <= bs || be <= self.snd_una {
                continue;
            }
            self.sacked.insert(bs.max(self.snd_una), be);
        }
        self.sacked.coalesce(self.snd_una);
    }

    /// The next not-yet-retransmitted hole below the recovery point:
    /// `(offset, len, fin)`.
    fn next_hole(&self) -> Option<(u64, u32, bool)> {
        let recover = self.recover?;
        // FACK rule: only data below the highest SACKed edge is known
        // missing; anything above may simply not have been reported yet,
        // and retransmitting it would spray duplicates. With no SACK
        // information, exactly the classic `snd_una` hole qualifies.
        let fack = self.sacked.last_end().unwrap_or(self.snd_una + 1);
        let mut pos = self.rtx_next_hole.max(self.snd_una).max(1);
        loop {
            if pos >= recover || pos >= fack {
                return None;
            }
            if let Some(end) = self.sacked.end_covering(pos) {
                pos = end;
                continue;
            }
            let limit = self.stream_limit();
            if pos >= limit {
                // Only the FIN offset can remain.
                if self.fin_sent && pos == limit {
                    return Some((pos, 0, true));
                }
                return None;
            }
            let next_sacked = self.sacked.next_start_after(pos).unwrap_or(u64::MAX);
            let hole_end = recover.min(next_sacked).min(limit);
            let len = (hole_end - pos).min(self.cfg.mss as u64) as u32;
            if len == 0 {
                return None;
            }
            let fin = self.fin_sent && pos + len as u64 == limit;
            return Some((pos, len, fin));
        }
    }

    /// Retransmits the next scoreboard hole, if any; returns whether a
    /// segment went out.
    fn retransmit_hole(&mut self, now: Time, out: &mut Vec<TcpAction>) -> bool {
        let Some((pos, len, fin)) = self.next_hole() else {
            return false;
        };
        let flags = TcpFlags {
            ack: true,
            fin,
            ..Default::default()
        };
        let seg = self.make_segment(pos, len, flags, now);
        self.rtx_next_hole = pos + seg.seq_space();
        self.stats.bytes_rtx += len as u64;
        self.emit(seg, out);
        if let Cc::Cm { .. } = self.cc {
            // I sent: charge the retransmission, and drain the original
            // transmission's charge — it is lost (no congestion signal
            // here; the episode already reported one).
            out.push(TcpAction::CmNotify(seg.seq_space()));
            out.push(TcpAction::CmUpdate(FeedbackReport::loss(
                LossMode::None,
                seg.seq_space(),
            )));
        }
        self.arm_rto_if_idle(out);
        true
    }

    /// Arms (or restarts) the RTO timer.
    fn arm_rto(&mut self, out: &mut Vec<TcpAction>) {
        self.rto_armed = true;
        let rto = self.rto();
        out.push(TcpAction::SetTimer(TcpTimer::Rto, rto));
    }

    /// Arms the RTO timer only if it is not already running.
    fn arm_rto_if_idle(&mut self, out: &mut Vec<TcpAction>) {
        if !self.rto_armed {
            self.arm_rto(out);
        }
    }

    fn send_ack(&mut self, now: Time, out: &mut Vec<TcpAction>) {
        let flags = TcpFlags {
            ack: true,
            ece: self.ece_pending,
            ..Default::default()
        };
        self.ece_pending = false;
        let ack = self.make_segment(self.snd_nxt, 0, flags, now);
        self.stats.acks_sent += 1;
        self.emit(ack, out);
    }

    fn make_segment(&self, seq: u64, len: u32, flags: TcpFlags, now: Time) -> TcpSegment {
        // RFC 2018: report up to three out-of-order ranges so the peer's
        // scoreboard can steer retransmissions.
        let mut sack = [(0, 0); crate::segment::MAX_SACK_BLOCKS];
        let mut sack_count = 0u8;
        for (block, &(start, end)) in sack.iter_mut().zip(&self.ooo.0) {
            *block = (wrap_seq(start), wrap_seq(end));
            sack_count += 1;
        }
        TcpSegment {
            seq: wrap_seq(seq),
            len,
            ack: wrap_seq(self.rcv_nxt),
            flags,
            wnd: u32::try_from(self.cfg.rwnd).unwrap_or(u32::MAX),
            ts: now,
            ts_ecr: self.echo_ts.unwrap_or(TcpSegment::NO_ECHO),
            sack,
            sack_count,
        }
    }

    fn emit(&mut self, seg: TcpSegment, out: &mut Vec<TcpAction>) {
        self.segs_since_ack = 0;
        self.ack_pending = false;
        self.stats.segs_sent += 1;
        out.push(TcpAction::Emit(seg));
    }

    fn take_rtt_sample(&mut self, sample: Duration) {
        self.stats.rtt_samples += 1;
        self.rtt.update(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-endpoint harness that shuttles segments with a fixed one-way
    /// delay and optional deterministic loss of specific data segments.
    struct Wire {
        a: TcpConnection,
        b: TcpConnection,
        now: Time,
        delay: Duration,
        /// In-flight (deliver_at, to_a, segment).
        flight: Vec<(Time, bool, TcpSegment)>,
        /// Timers: (fire_at, for_a, kind); re-armed timers replace.
        timers: Vec<(Time, bool, TcpTimer)>,
        /// Data segment sequence numbers to drop, once each (a->b).
        drop_seqs: Vec<u64>,
        /// Collected events per side.
        events_a: Vec<TcpEvent>,
        events_b: Vec<TcpEvent>,
    }

    impl Wire {
        fn new(cfg: TcpConfig, delay: Duration) -> Self {
            let now = Time::ZERO;
            let (a, actions) = TcpConnection::connect(cfg.clone(), CcMode::Native, now);
            let mut w = Wire {
                a,
                b: TcpConnection::new(cfg, CcMode::Native, TcpState::Closed),
                now,
                delay,
                flight: Vec::new(),
                timers: Vec::new(),
                drop_seqs: Vec::new(),
                events_a: Vec::new(),
                events_b: Vec::new(),
            };
            w.apply(true, actions);
            w
        }

        fn apply(&mut self, from_a: bool, actions: Vec<TcpAction>) {
            for act in actions {
                match act {
                    TcpAction::Emit(seg) => {
                        if from_a && seg.len > 0 {
                            let seq = unwrap_seq(seg.seq, self.a.snd_una);
                            if let Some(pos) = self.drop_seqs.iter().position(|&s| s == seq) {
                                self.drop_seqs.remove(pos);
                                continue;
                            }
                        }
                        self.flight.push((self.now + self.delay, !from_a, seg));
                    }
                    TcpAction::SetTimer(kind, after) => {
                        self.timers
                            .retain(|&(_, fa, k)| !(fa == from_a && k == kind));
                        self.timers.push((self.now + after, from_a, kind));
                    }
                    TcpAction::CancelTimer(kind) => {
                        self.timers
                            .retain(|&(_, fa, k)| !(fa == from_a && k == kind));
                    }
                    TcpAction::Event(ev) => {
                        if from_a {
                            self.events_a.push(ev);
                        } else {
                            self.events_b.push(ev);
                        }
                    }
                    // CM actions unused in the native-mode harness.
                    _ => {}
                }
            }
        }

        /// Runs until quiescent or the deadline.
        fn run(&mut self, until: Time) {
            for _ in 0..100_000 {
                // Earliest of flights and timers.
                let next_flight = self.flight.iter().map(|&(t, _, _)| t).min();
                let next_timer = self.timers.iter().map(|&(t, _, _)| t).min();
                let next = match (next_flight, next_timer) {
                    (None, None) => break,
                    (a, b) => a.unwrap_or(Time::MAX).min(b.unwrap_or(Time::MAX)),
                };
                if next > until {
                    break;
                }
                self.now = next;
                if next_flight == Some(next) {
                    let idx = self.flight.iter().position(|&(t, _, _)| t == next).unwrap();
                    let (_, to_a, seg) = self.flight.remove(idx);
                    let actions = if to_a {
                        self.a.on_segment(&seg, false, self.now)
                    } else {
                        // First delivery to a closed b: passive open.
                        if self.b.state == TcpState::Closed && seg.flags.syn {
                            let (nb, acts) = TcpConnection::accept(
                                self.b.cfg.clone(),
                                CcMode::Native,
                                &seg,
                                self.now,
                            );
                            self.b = nb;
                            acts
                        } else {
                            self.b.on_segment(&seg, false, self.now)
                        }
                    };
                    self.apply(to_a, actions);
                } else {
                    let idx = self.timers.iter().position(|&(t, _, _)| t == next).unwrap();
                    let (_, for_a, kind) = self.timers.remove(idx);
                    let actions = if for_a {
                        self.a.on_timer(kind, self.now)
                    } else {
                        self.b.on_timer(kind, self.now)
                    };
                    self.apply(for_a, actions);
                }
            }
        }
    }

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    fn flags(syn: bool, ack: bool) -> TcpFlags {
        TcpFlags {
            syn,
            ack,
            ..Default::default()
        }
    }

    /// A segment from a peer that has received only our SYN, with a
    /// 1 MB window and no SACK blocks.
    fn peer_segment(seq: u32, len: u32, flags: TcpFlags, now: Time) -> TcpSegment {
        TcpSegment {
            seq,
            len,
            ack: 1,
            flags,
            wnd: 1 << 20,
            ts: now,
            ts_ecr: TcpSegment::NO_ECHO,
            sack: [(0, 0); 3],
            sack_count: 0,
        }
    }

    /// The SYN|ACK answering a connection's SYN.
    fn synack(now: Time) -> TcpSegment {
        peer_segment(0, 0, flags(true, true), now)
    }

    #[test]
    fn handshake_completes() {
        let mut w = Wire::new(cfg(), Duration::from_millis(10));
        w.run(Time::from_secs(1));
        assert_eq!(w.a.state(), TcpState::Established);
        assert_eq!(w.b.state(), TcpState::Established);
        assert!(w.events_a.contains(&TcpEvent::Connected));
        assert!(w.events_b.contains(&TcpEvent::Accepted));
    }

    #[test]
    fn transfers_data_in_order() {
        let mut w = Wire::new(cfg(), Duration::from_millis(5));
        w.run(Time::from_millis(100));
        let actions = w.a.app_write(10_000, w.now);
        w.apply(true, actions);
        w.run(Time::from_secs(5));
        assert_eq!(w.b.bytes_delivered(), 10_000);
        assert_eq!(w.a.bytes_acked(), 10_000);
        assert_eq!(w.a.stats.timeouts, 0);
        assert_eq!(w.a.stats.bytes_rtx, 0);
    }

    #[test]
    fn fast_retransmit_recovers_single_loss() {
        let mut w = Wire::new(cfg(), Duration::from_millis(5));
        w.run(Time::from_millis(100));
        // Drop a mid-stream segment late enough that the window already
        // holds several segments behind it (three duplicate ACKs need
        // three later arrivals; with a tiny window only an RTO can
        // recover, which is the standard Reno limitation).
        w.drop_seqs.push(1 + 15 * 1460);
        let actions = w.a.app_write(60 * 1460, w.now);
        w.apply(true, actions);
        w.run(Time::from_secs(10));
        assert_eq!(w.b.bytes_delivered(), 60 * 1460);
        assert_eq!(w.a.stats.fast_retransmits, 1);
        assert_eq!(w.a.stats.timeouts, 0, "loss should recover without RTO");
    }

    /// A transfer longer than 2^32 bytes wraps every header field: the
    /// receiver unwraps sequence numbers, the sender acknowledgements and
    /// SACK edges. 1 MiB segments keep it to a few thousand; the two
    /// dropped ones (one straddling offset 2^32, one just above it) make
    /// SACK blocks span the wrap and recovery retransmit across it.
    #[test]
    fn transfer_past_four_gib_wraps_every_header_field() {
        const MSS: u64 = 1 << 20;
        let cfg = TcpConfig {
            mss: MSS as usize,
            ..cfg()
        };
        let mut w = Wire::new(cfg, Duration::from_millis(5));
        w.run(Time::from_millis(100));
        let total = 4_200 * MSS;
        assert!(total > 1 << 32);
        w.drop_seqs.push(1 + 4_095 * MSS);
        w.drop_seqs.push(1 + 4_097 * MSS);
        let actions = w.a.app_write(total, w.now);
        w.apply(true, actions);
        // At the third duplicate ACK the scoreboard holds the segment
        // between the two holes, which lies above 2^32.
        let mut until = w.now;
        while w.a.stats.fast_retransmits == 0 {
            until += Duration::from_millis(1);
            w.run(until);
        }
        let between = 1 + 4_096 * MSS;
        assert_eq!(w.a.sacked.end_covering(between), Some(between + MSS));
        w.run(Time::from_secs(60));
        assert!(w.drop_seqs.is_empty(), "both drops happened");
        assert_eq!(w.b.bytes_delivered(), total);
        assert_eq!(w.a.bytes_acked(), total);
        assert!(w.a.send_complete());
        assert_eq!(w.a.stats.fast_retransmits, 1);
        assert_eq!(
            w.a.stats.timeouts, 0,
            "recovery across the wrap needs no RTO"
        );
        assert_eq!(w.a.stats.bytes_rtx, 2 * MSS);
    }

    #[test]
    fn timeout_recovers_tail_loss() {
        let mut w = Wire::new(cfg(), Duration::from_millis(5));
        w.run(Time::from_millis(100));
        // Drop the very last segment: no dupacks possible -> RTO.
        let total: u64 = 5 * 1460;
        w.drop_seqs.push(1 + 4 * 1460);
        let actions = w.a.app_write(total, w.now);
        w.apply(true, actions);
        w.run(Time::from_secs(30));
        assert_eq!(w.b.bytes_delivered(), total);
        assert!(w.a.stats.timeouts >= 1);
    }

    #[test]
    fn multiple_losses_eventually_deliver_everything() {
        let mut w = Wire::new(cfg(), Duration::from_millis(5));
        w.run(Time::from_millis(100));
        for k in [2u64, 7, 8, 15] {
            w.drop_seqs.push(1 + k * 1460);
        }
        let total = 40 * 1460;
        let actions = w.a.app_write(total, w.now);
        w.apply(true, actions);
        w.run(Time::from_secs(60));
        assert_eq!(w.b.bytes_delivered(), total);
        assert_eq!(w.a.bytes_acked(), total);
    }

    #[test]
    fn slow_start_grows_window_exponentially() {
        let mut w = Wire::new(cfg(), Duration::from_millis(20));
        w.run(Time::from_millis(200));
        assert_eq!(w.a.cwnd(), Some(2 * 1460), "Linux-like IW of 2 segments");
        let actions = w.a.app_write(200 * 1460, w.now);
        w.apply(true, actions);
        w.run(Time::from_secs(3));
        let cwnd = w.a.cwnd().unwrap_or(0);
        assert!(cwnd > 16 * 1460, "cwnd {cwnd} after bulk");
    }

    /// A native connection's window, not a grant, says when it sends: a
    /// grant handed to one (a host bug) sends nothing and reports nothing.
    #[test]
    fn grant_reaching_a_native_connection_does_nothing() {
        let now = Time::ZERO;
        let (mut conn, _) = TcpConnection::connect(cfg(), CcMode::Native, now);
        let _ = conn.on_segment(&synack(now), false, now);
        // Fill the initial window, so any further segment would exceed it.
        let sent = conn.app_write(10 * 1460, now);
        let emitted = sent.iter().filter(|a| matches!(a, TcpAction::Emit(_)));
        assert_eq!(emitted.count(), 2);
        let flight = conn.flight();
        assert!(conn.on_cm_grant(now).is_empty());
        assert_eq!(conn.flight(), flight);
        assert_eq!(conn.cwnd(), Some(2 * 1460));
        // And a TCP/CM connection has no window of its own to report.
        let (cm, _) = TcpConnection::connect(cfg(), CcMode::Cm, now);
        assert_eq!(cm.cwnd(), None);
    }

    #[test]
    fn delayed_ack_halves_ack_count() {
        let mut with_delack = Wire::new(cfg(), Duration::from_millis(5));
        with_delack.run(Time::from_millis(100));
        let a = with_delack.a.app_write(50 * 1460, with_delack.now);
        with_delack.apply(true, a);
        with_delack.run(Time::from_secs(10));

        let mut no_delack = Wire::new(
            TcpConfig {
                delayed_ack: false,
                ..cfg()
            },
            Duration::from_millis(5),
        );
        no_delack.run(Time::from_millis(100));
        let a = no_delack.a.app_write(50 * 1460, no_delack.now);
        no_delack.apply(true, a);
        no_delack.run(Time::from_secs(10));

        assert!(with_delack.b.stats.acks_sent < no_delack.b.stats.acks_sent);
        assert_eq!(no_delack.b.bytes_delivered(), 50 * 1460);
        assert_eq!(with_delack.b.bytes_delivered(), 50 * 1460);
    }

    #[test]
    fn fin_closes_cleanly() {
        let mut w = Wire::new(cfg(), Duration::from_millis(5));
        w.run(Time::from_millis(100));
        let a1 = w.a.app_write(5000, w.now);
        w.apply(true, a1);
        let a2 = collect(|out| w.a.app_close_into(w.now, out));
        w.apply(true, a2);
        w.run(Time::from_secs(5));
        assert_eq!(w.b.bytes_delivered(), 5000);
        assert!(w.events_b.contains(&TcpEvent::PeerClosed));
        assert!(w.events_a.contains(&TcpEvent::Closed));
        assert_eq!(w.a.state(), TcpState::Closed);
    }

    #[test]
    fn rtt_estimator_learns_path_delay() {
        let mut w = Wire::new(cfg(), Duration::from_millis(30));
        w.run(Time::from_millis(200));
        let a = w.a.app_write(30 * 1460, w.now);
        w.apply(true, a);
        w.run(Time::from_secs(5));
        let srtt = w.a.rtt.srtt().expect("samples taken");
        // One-way 30 ms => RTT 60 ms (plus delack wiggle).
        assert!(
            srtt >= Duration::from_millis(55) && srtt <= Duration::from_millis(300),
            "srtt {srtt}"
        );
        assert!(w.a.stats.rtt_samples > 0);
    }

    #[test]
    fn cm_mode_emits_cm_actions() {
        let now = Time::ZERO;
        let (mut conn, actions) = TcpConnection::connect(cfg(), CcMode::Cm, now);
        // SYN goes out normally (handshake is not congestion controlled).
        assert!(actions
            .iter()
            .any(|a| matches!(a, TcpAction::Emit(s) if s.flags.syn)));
        // Fake the SYN|ACK.
        let actions = conn.on_segment(&synack(now), false, now);
        assert!(actions
            .iter()
            .any(|a| matches!(a, TcpAction::Event(TcpEvent::Connected))));
        // Writing data issues cm_requests, not segments.
        let actions = conn.app_write(5 * 1460, now);
        let reqs = actions
            .iter()
            .filter(|a| matches!(a, TcpAction::CmRequest))
            .count();
        assert_eq!(reqs, 5);
        assert!(!actions.iter().any(|a| matches!(a, TcpAction::Emit(_))));
        // A grant sends exactly one MSS and notifies.
        let actions = conn.on_cm_grant(now);
        let emits: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                TcpAction::Emit(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(emits.len(), 1);
        assert_eq!(emits[0].len, 1460);
        assert!(actions
            .iter()
            .any(|a| matches!(a, TcpAction::CmNotify(1460))));
    }

    #[test]
    fn cm_mode_grant_with_nothing_to_send_notifies_zero() {
        let now = Time::ZERO;
        let (mut conn, _) = TcpConnection::connect(cfg(), CcMode::Cm, now);
        let _ = conn.on_segment(&synack(now), false, now);
        let actions = conn.on_cm_grant(now);
        assert!(actions.iter().any(|a| matches!(a, TcpAction::CmNotify(0))));
    }

    #[test]
    fn cm_mode_dupacks_report_to_cm() {
        let now = Time::ZERO;
        let (mut conn, _) = TcpConnection::connect(cfg(), CcMode::Cm, now);
        let _ = conn.on_segment(&synack(now), false, now);
        let _ = conn.app_write(20 * 1460, now);
        // Send 6 segments via grants.
        for _ in 0..6 {
            let _ = conn.on_cm_grant(now);
        }
        // Three duplicate ACKs at snd_una = 1.
        let dup = peer_segment(1, 0, flags(false, true), now);
        let _ = conn.on_segment(&dup, false, now);
        let _ = conn.on_segment(&dup, false, now);
        let actions = conn.on_segment(&dup, false, now);
        let transient = actions
            .iter()
            .any(|a| matches!(a, TcpAction::CmUpdate(r) if r.loss == LossMode::Transient));
        assert!(transient, "third dupack must report transient congestion");
        // Fourth dupack reports a received segment.
        let actions = conn.on_segment(&dup, false, now);
        let acked = actions.iter().any(|a| {
            matches!(a, TcpAction::CmUpdate(r) if r.loss == LossMode::None && r.bytes_acked == 1460)
        });
        assert!(acked, "later dupacks report one MSS received");
    }

    #[test]
    fn cm_mode_timeout_reports_persistent() {
        let now = Time::ZERO;
        let (mut conn, _) = TcpConnection::connect(cfg(), CcMode::Cm, now);
        let _ = conn.on_segment(&synack(now), false, now);
        let _ = conn.app_write(5 * 1460, now);
        let _ = conn.on_cm_grant(now);
        let actions = conn.on_timer(TcpTimer::Rto, Time::from_secs(3));
        let persistent = actions
            .iter()
            .any(|a| matches!(a, TcpAction::CmUpdate(r) if r.loss == LossMode::Persistent));
        assert!(persistent);
        // And a request to retransmit follows.
        assert!(actions.iter().any(|a| matches!(a, TcpAction::CmRequest)));
    }

    #[test]
    fn request_cap_bounds_outstanding_requests() {
        let now = Time::ZERO;
        let (mut conn, _) = TcpConnection::connect(cfg(), CcMode::Cm, now);
        let _ = conn.on_segment(&synack(now), false, now);
        let actions = conn.app_write(1_000_000, now);
        let reqs = actions
            .iter()
            .filter(|a| matches!(a, TcpAction::CmRequest))
            .count();
        assert_eq!(reqs as u64, MAX_REQUESTS);
    }

    #[test]
    fn ranges_coalesce_clip_and_search() {
        let mut r = Ranges::default();
        for (s, e) in [(30, 40), (10, 20), (20, 25), (50, 60), (35, 45)] {
            r.insert(s, e);
        }
        // Sorted by start; touching and overlapping ranges merge.
        r.coalesce(0);
        assert_eq!(r.0, [(10, 25), (30, 45), (50, 60)]);
        assert_eq!(r.end_covering(9), None);
        assert_eq!(r.end_covering(10), Some(25));
        assert_eq!(r.end_covering(24), Some(25));
        assert_eq!(r.end_covering(25), None);
        assert_eq!(r.next_start_after(9), Some(10));
        assert_eq!(r.next_start_after(10), Some(30));
        assert_eq!(r.next_start_after(50), None);
        assert_eq!(r.last_end(), Some(60));
        // A floor drops what lies below it and clips what straddles it.
        r.coalesce(35);
        assert_eq!(r.0, [(35, 45), (50, 60)]);
        // Only ranges reachable from the position are taken.
        assert_eq!(r.take_prefix(34), 34);
        assert_eq!(r.take_prefix(40), 45);
        assert_eq!(r.0, [(50, 60)]);
        assert_eq!(r.take_prefix(50), 60);
        assert!(r.is_empty());
    }

    /// Pins a recorded defect (ROADMAP item 2), not a requirement: the
    /// out-of-order store is keyed by start, so a retransmission that
    /// starts where a held run starts *replaces* the run's end — the
    /// receiver forgets 1,460 bytes it holds and its next SACK un-reports
    /// them. Go-back-N after an RTO produces exactly this arrival. The
    /// fix (keep the larger end in `Ranges::insert`) moves goodput under
    /// loss, so it waits for a change that may move the figures.
    #[test]
    fn duplicate_of_a_held_runs_first_segment_forgets_the_rest() {
        let now = Time::ZERO;
        let seg = |seq, len, flags| peer_segment(seq, len, flags, now);
        let (mut rx, _) =
            TcpConnection::accept(cfg(), CcMode::Native, &seg(0, 0, flags(true, false)), now);
        // [1, 1461) is missing; [1461, 4381) arrives in two segments.
        let _ = rx.on_segment(&seg(1461, 1460, flags(false, true)), false, now);
        let acts = rx.on_segment(&seg(2921, 1460, flags(false, true)), false, now);
        let sack_of = |acts: &[TcpAction]| match acts.last() {
            Some(TcpAction::Emit(ack)) => ack.sack_blocks().to_vec(),
            other => panic!("expected an ACK, got {other:?}"),
        };
        assert_eq!(sack_of(&acts), [(1461, 4381)]);
        // The first of them arrives again.
        let acts = rx.on_segment(&seg(1461, 1460, flags(false, true)), false, now);
        assert_eq!(
            sack_of(&acts),
            [(1461, 2921)],
            "defect fixed? update ROADMAP item 2"
        );
    }

    /// Pins a recorded defect (ROADMAP item 2b), not a requirement: the
    /// receiver SACKs the FIN's offset with the data, so after a timeout
    /// `next_new_segment` skips the SACKed run past the FIN and sends the
    /// FIN again one offset late. A receiver still missing data below
    /// then counts the first FIN's offset as a data byte.
    /// `tests/tcp_over_cm.rs` meets it under both modes.
    #[test]
    fn go_back_n_past_a_sacked_fin_resends_it_one_offset_late() {
        let now = Time::ZERO;
        let (mut tx, syn) = TcpConnection::connect(cfg(), CcMode::Cm, now);
        let Some(TcpAction::Emit(syn)) = syn.first() else {
            panic!("connect emits the SYN first");
        };
        let (mut rx, _) = TcpConnection::accept(cfg(), CcMode::Native, syn, now);
        let _ = tx.on_segment(&synack(now), false, now);
        let _ = tx.app_write(3 * 1460, now);
        tx.app_close_into(now, &mut Vec::new());
        // Each grant sends one segment.
        let granted = |tx: &mut TcpConnection| {
            let acts = tx.on_cm_grant(now);
            let seg = acts.iter().find_map(|a| match a {
                TcpAction::Emit(seg) => Some(*seg),
                _ => None,
            });
            seg.expect("a grant sends a segment")
        };
        let _lost = granted(&mut tx);
        let _ = rx.on_segment(&granted(&mut tx), false, now);
        // The last segment carries the FIN, at offset 4381.
        let last = granted(&mut tx);
        assert!(last.flags.fin && last.seq + last.len == 4381);
        let acts = rx.on_segment(&last, false, now);
        let Some(TcpAction::Emit(sack)) = acts.last() else {
            panic!("the receiver ACKs the out-of-order FIN");
        };
        assert_eq!(sack.sack_blocks(), [(1461, 4382)]);
        let _ = tx.on_segment(sack, false, now);
        let _ = tx.on_timer(TcpTimer::Rto, Time::from_secs(3));
        let first = granted(&mut tx);
        let fin = granted(&mut tx);
        assert!(fin.flags.fin && fin.len == 0);
        assert_eq!(fin.seq, 4382, "defect fixed? update ROADMAP item 2b");
        let _ = rx.on_segment(&fin, false, now);
        let _ = rx.on_segment(&first, false, now);
        assert_eq!(rx.bytes_delivered(), 3 * 1460 + 1);
    }
}
