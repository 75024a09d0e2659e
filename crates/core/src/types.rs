//! Identifiers, keys, and message types shared across the CM.

use core::fmt;

use cm_util::{Duration, Rate};
use serde::{Deserialize, Serialize};

/// A transport endpoint: network address plus port.
///
/// The CM is address-family agnostic; addresses are opaque `u32`s supplied
/// by the host stack (the simulator uses its own dense addresses, a real
/// port would use IPv4 addresses).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Endpoint {
    /// Network-layer address.
    pub addr: u32,
    /// Transport-layer port.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint.
    pub fn new(addr: u32, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// The flow parameters passed to `cm_open`.
///
/// The original CM API required only a destination; the implementation
/// added the source to handle multihomed hosts (paper §2.1.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct FlowKey {
    /// Local (sending) endpoint.
    pub local: Endpoint,
    /// Remote (receiving) endpoint.
    pub remote: Endpoint,
}

impl FlowKey {
    /// Creates a flow key.
    pub fn new(local: Endpoint, remote: Endpoint) -> Self {
        FlowKey { local, remote }
    }
}

/// Number of low id bits that address a slot inside one shard's slab;
/// the bits above it carry the shard index. Shard 0's ids are therefore
/// numerically identical to the ids an unsharded CM hands out, which is
/// what keeps the default (single-shard) configuration byte-compatible.
pub const SLOT_BITS: u32 = 22;

/// Mask selecting the slab-slot part of an id.
pub const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

/// Upper bound on concurrently live shards implied by the id encoding.
pub const MAX_SHARDS: u32 = 1 << (32 - SLOT_BITS);

/// Handle for an open CM flow (the paper's `cm_flowid`).
///
/// The id is opaque to clients, but internally it encodes
/// `shard_index << SLOT_BITS | slab_slot` so every flow-addressed CM
/// entry point routes to the owning shard in O(1) with no map lookup.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The shard index encoded in the id's high bits (0 on an unsharded
    /// CM).
    pub fn shard(self) -> u32 {
        self.0 >> SLOT_BITS
    }

    /// The slab slot inside the owning shard.
    pub fn slot(self) -> u32 {
        self.0 & SLOT_MASK
    }

    /// Composes an id from its shard index and slab slot (introspection
    /// and test helper; clients normally treat ids as opaque).
    pub fn from_parts(shard: u32, slot: u32) -> Self {
        debug_assert!(shard < MAX_SHARDS && slot <= SLOT_MASK);
        FlowId(shard << SLOT_BITS | slot)
    }
}

/// Handle for a macroflow: the group of flows sharing congestion state.
///
/// Uses the same `shard << SLOT_BITS | slot` encoding as [`FlowId`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct MacroflowId(pub u32);

impl MacroflowId {
    /// The shard index encoded in the id's high bits.
    pub fn shard(self) -> u32 {
        self.0 >> SLOT_BITS
    }

    /// The slab slot inside the owning shard.
    pub fn slot(self) -> u32 {
        self.0 & SLOT_MASK
    }

    /// Composes an id from its shard index and slab slot.
    pub fn from_parts(shard: u32, slot: u32) -> Self {
        debug_assert!(shard < MAX_SHARDS && slot <= SLOT_MASK);
        MacroflowId(shard << SLOT_BITS | slot)
    }
}

/// The kind of congestion conveyed by a `cm_update` call.
///
/// The paper distinguishes *persistent* congestion (a TCP timeout —
/// respond by collapsing to one MTU and slow-starting), *transient*
/// congestion (one packet lost in a window, e.g. a triple-duplicate ACK —
/// respond by halving), and ECN marks, which signal congestion without
/// loss.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum LossMode {
    /// No congestion: feedback reports successful delivery.
    None,
    /// Transient congestion (isolated loss; e.g. three duplicate ACKs).
    Transient,
    /// Persistent congestion (loss of a whole window; e.g. an RTO), the
    /// paper's `CM_LOST_FEEDBACK`.
    Persistent,
    /// Explicit Congestion Notification echo: reduce without loss.
    Ecn,
}

/// Feedback a client passes to [`crate::CongestionManager::update`]
/// (the paper's `cm_update(flowid, nsent, nrecd, lossmode, rtt)`).
///
/// Quantities are in bytes so the CM's byte-counting AIMD is exact.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FeedbackReport {
    /// Bytes newly confirmed delivered to the receiver.
    pub bytes_acked: u64,
    /// Bytes newly believed lost.
    pub bytes_lost: u64,
    /// Number of acknowledgement events this report aggregates (used by
    /// [`ControllerKind::Aimd`] with `byte_counting: false`, which grows
    /// per ACK rather than per byte, and by delayed-feedback clients).
    ///
    /// [`ControllerKind::Aimd`]: crate::config::ControllerKind::Aimd
    pub ack_events: u32,
    /// The kind of congestion being reported.
    pub loss: LossMode,
    /// A round-trip time sample, if the client measured one. Feeds the
    /// shared sRTT estimate and, under
    /// [`ControllerKind::DelayGradient`], the queueing-delay trendline.
    ///
    /// [`ControllerKind::DelayGradient`]: crate::config::ControllerKind::DelayGradient
    pub rtt_sample: Option<Duration>,
}

impl FeedbackReport {
    /// A pure success report: `bytes` delivered, `acks` ACK events.
    pub fn ack(bytes: u64, acks: u32) -> Self {
        FeedbackReport {
            bytes_acked: bytes,
            bytes_lost: 0,
            ack_events: acks,
            loss: LossMode::None,
            rtt_sample: None,
        }
    }

    /// A congestion report of the given kind with `bytes_lost` lost.
    pub fn loss(mode: LossMode, bytes_lost: u64) -> Self {
        FeedbackReport {
            bytes_acked: 0,
            bytes_lost,
            ack_events: 0,
            loss: mode,
            rtt_sample: None,
        }
    }

    /// Attaches an RTT sample (builder style).
    pub fn with_rtt(mut self, rtt: Duration) -> Self {
        self.rtt_sample = Some(rtt);
        self
    }

    /// Attaches acked bytes to a loss report (builder style) — e.g. a
    /// partial ACK during recovery.
    pub fn with_acked(mut self, bytes: u64, acks: u32) -> Self {
        self.bytes_acked = bytes;
        self.ack_events = acks;
        self
    }
}

/// Network state returned by [`crate::CongestionManager::query`] and
/// carried in [`crate::CmNotification::RateChange`] callbacks.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowInfo {
    /// This flow's share of the macroflow's sustainable rate.
    pub rate: Rate,
    /// Smoothed round-trip time to the macroflow's destination, if known.
    pub srtt: Option<Duration>,
    /// RTT mean deviation.
    pub rttvar: Duration,
    /// Smoothed loss fraction observed on the macroflow, in `[0, 1]`.
    pub loss_rate: f64,
    /// The macroflow's current congestion window, in bytes.
    pub cwnd: u64,
    /// Maximum transmission unit for this flow.
    pub mtu: usize,
}

/// Rate-callback thresholds set with `cm_thresh(down, up)`.
///
/// The CM issues a [`crate::CmNotification::RateChange`] when a flow's
/// rate share falls to `down` times the last reported value or rises to
/// `up` times it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// Downward trigger factor, in `(0, 1]`.
    pub down: f64,
    /// Upward trigger factor, `>= 1`.
    pub up: f64,
}

impl Thresholds {
    /// Creates a threshold pair.
    ///
    /// # Panics
    ///
    /// Panics if `down` is outside `(0, 1]` or `up < 1`.
    pub fn new(down: f64, up: f64) -> Self {
        assert!(down > 0.0 && down <= 1.0, "down factor must be in (0,1]");
        assert!(up >= 1.0, "up factor must be >= 1");
        Thresholds { down, up }
    }

    /// Whether moving from `last` to `current` crosses either threshold.
    pub fn crossed(&self, last: Rate, current: Rate) -> bool {
        let last = last.as_bps() as f64;
        let cur = current.as_bps() as f64;
        if last == 0.0 {
            return cur > 0.0;
        }
        cur <= last * self.down || cur >= last * self.up
    }
}

impl Default for Thresholds {
    /// A moderately sensitive default: report halvings and doublings.
    fn default() -> Self {
        Thresholds::new(0.5, 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_builders() {
        let r = FeedbackReport::ack(1000, 2).with_rtt(Duration::from_millis(50));
        assert_eq!(r.bytes_acked, 1000);
        assert_eq!(r.ack_events, 2);
        assert_eq!(r.loss, LossMode::None);
        assert_eq!(r.rtt_sample, Some(Duration::from_millis(50)));

        let l = FeedbackReport::loss(LossMode::Transient, 1460).with_acked(500, 1);
        assert_eq!(l.loss, LossMode::Transient);
        assert_eq!(l.bytes_lost, 1460);
        assert_eq!(l.bytes_acked, 500);
    }

    #[test]
    fn thresholds_crossing() {
        let t = Thresholds::new(0.5, 2.0);
        let base = Rate::from_kbps(1000);
        assert!(!t.crossed(base, Rate::from_kbps(900)));
        assert!(!t.crossed(base, Rate::from_kbps(1500)));
        assert!(t.crossed(base, Rate::from_kbps(500)));
        assert!(t.crossed(base, Rate::from_kbps(2000)));
        assert!(t.crossed(base, Rate::from_kbps(100)));
        // From zero, any nonzero rate triggers.
        assert!(t.crossed(Rate::ZERO, Rate::from_kbps(1)));
        assert!(!t.crossed(Rate::ZERO, Rate::ZERO));
    }

    #[test]
    #[should_panic(expected = "down factor")]
    fn thresholds_validate_down() {
        let _ = Thresholds::new(1.5, 2.0);
    }

    #[test]
    #[should_panic(expected = "up factor")]
    fn thresholds_validate_up() {
        let _ = Thresholds::new(0.5, 0.9);
    }

    #[test]
    fn flow_key_ports_distinguish() {
        let a = FlowKey::new(Endpoint::new(1, 10), Endpoint::new(2, 20));
        let b = FlowKey::new(Endpoint::new(1, 11), Endpoint::new(2, 20));
        assert_ne!(a, b);
        assert_eq!(a, FlowKey::new(Endpoint::new(1, 10), Endpoint::new(2, 20)));
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(format!("{}", Endpoint::new(9, 80)), "9:80");
    }
}
