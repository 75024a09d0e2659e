//! Macroflows: the unit of congestion-state sharing.
//!
//! "All flows destined to the same end host take the same path in the
//! common case, and we use this group of flows as the default granularity
//! of flow aggregation. We call this group a *macroflow*: a group of flows
//! that share the same congestion state, control algorithms, and state
//! information in the CM." (§2)
//!
//! A macroflow owns a congestion controller, a scheduler, the shared RTT
//! estimator (whose samples come from *all* member flows — the paper notes
//! TCP's loss recovery benefits from the combined estimate), a smoothed
//! loss rate, and the window bookkeeping that converts `cm_request` /
//! `cm_notify` / `cm_update` traffic into grants.

use std::collections::VecDeque;

use cm_util::ewma::RttEstimator;
use cm_util::{Duration, Ewma, Rate, Time};

use crate::config::CmConfig;
use crate::controller::{build_controller, Controller};
use crate::scheduler::SlabScheduler;
use crate::types::{FlowId, MacroflowId, Thresholds};

/// Gain of the macroflow loss-rate EWMA.
const LOSS_EWMA_GAIN: f64 = 0.125;

/// What a macroflow aggregates over: a destination host, or nothing for
/// the private macroflows that `split` creates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MacroflowKey {
    /// All flows to one destination address.
    Destination {
        /// Remote network address.
        addr: u32,
    },
    /// A macroflow created by `split`; not eligible for default
    /// assignment.
    Private(u32),
}

impl MacroflowKey {
    /// The group this key indexes in the shard's group map — the
    /// destination address — or `None` for private macroflows.
    pub fn group(&self) -> Option<u64> {
        match *self {
            MacroflowKey::Destination { addr } => Some(addr as u64),
            MacroflowKey::Private(_) => None,
        }
    }
}

/// One grant awaiting its matching `cm_notify`.
#[derive(Clone, Copy, Debug)]
pub struct GrantEntry {
    /// The flow the grant went to.
    pub flow: FlowId,
    /// The flow slot's generation at issue time. Flow slots are recycled
    /// on close, so a stale generation marks an entry whose reservation
    /// was already released (by `close` or a macroflow move) rather than
    /// one belonging to the slot's current tenant.
    pub gen: u32,
    /// When the grant was issued (for timeout reclamation).
    pub issued: Time,
}

/// Relative slack taken off both edges of every bound a [`QuietBand`]
/// absorbs: seven orders of magnitude above the rounding of the f64
/// divisions on either side of the comparison, so the band errs narrow.
const BAND_SLACK: f64 = 1e-9;

/// An interval of *unit shares* — `rate / total_weight`, bps per unit of
/// scheduler weight — inside which [`Thresholds::crossed`] cannot hold.
/// It is kept at two levels.
///
/// A *flow's* band ([`QuietBand::of`], at the flow's slot of the shard's
/// band slab) is where the unit share may sit without that flow's rate
/// callback coming due. The flow's share is `floor(unit share x its
/// weight)`, so the band depends on what the flow was last told, its
/// thresholds and its weight and on nothing else — not on the macroflow
/// it belongs to, nor on who else does.
///
/// A *macroflow's* band is the intersection of its members' bands: inside
/// it no member's callback can be due, which is the O(1) check of every
/// `update` and `tick`. Joins and leaves of unregistered members (which
/// move only the total weight) leave it valid. It is only ever
/// *conservative*: too narrow costs one member walk, which rebuilds it;
/// too wide would lose a callback. It may therefore keep the bounds of
/// members that have since unregistered, closed or left.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct QuietBand {
    lo: f64,
    hi: f64,
}

impl QuietBand {
    /// No registration constrains the unit share: every value is quiet.
    /// Also the band of an unregistered flow and of a vacant slot.
    pub(crate) const OPEN: QuietBand = QuietBand {
        lo: 0.0,
        hi: f64::INFINITY,
    };
    /// No unit share is quiet: the next check walks the members and
    /// rebuilds the band from what it finds.
    pub(crate) const INVALID: QuietBand = QuietBand {
        lo: f64::INFINITY,
        hi: 0.0,
    };

    /// The band of one registered flow: the one with scheduler weight
    /// `weight` whose thresholds `t` are judged against a last reported
    /// share of `last`.
    pub(crate) fn of(last: Rate, t: Thresholds, weight: u32) -> QuietBand {
        let last = last.as_bps() as f64;
        // A share is a whole number of bps, so the two float tests of
        // `crossed` are exact integer bounds on it: quiet from `lo` up
        // to, but excluding, `hi`.
        let (lo, hi) = if last == 0.0 {
            // From zero, any non-zero share is a crossing.
            (0.0, 1.0)
        } else {
            ((last * t.down).floor() + 1.0, (last * t.up).ceil())
        };
        let w = weight as f64;
        // Narrowed from `OPEN` rather than built outright: `max`/`min`
        // drop the NaN a hand-built `Thresholds` could put in a bound.
        let mut band = QuietBand::OPEN;
        band.intersect(QuietBand {
            lo: lo / w * (1.0 + BAND_SLACK),
            hi: hi / w * (1.0 - BAND_SLACK),
        });
        band
    }

    pub(crate) fn contains(&self, unit: f64) -> bool {
        self.lo <= unit && unit <= self.hi
    }

    /// Whether any unit share at all lies inside.
    pub(crate) fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Whether every unit share inside `self` is inside `other` too.
    pub(crate) fn is_within(&self, other: &QuietBand) -> bool {
        other.lo <= self.lo && self.hi <= other.hi
    }

    /// Narrows the band to what it shares with `other`.
    pub(crate) fn intersect(&mut self, other: QuietBand) {
        self.lo = self.lo.max(other.lo);
        self.hi = self.hi.min(other.hi);
    }
}

/// Shared congestion state for a group of flows.
pub struct Macroflow {
    /// This macroflow's id.
    pub id: MacroflowId,
    /// What it aggregates over.
    pub key: MacroflowKey,
    /// The congestion-control algorithm.
    pub controller: Controller,
    /// The inter-flow scheduler; its per-flow state is in the shard's
    /// scheduler slab.
    pub scheduler: SlabScheduler,
    /// Member flows, in open order.
    pub flows: Vec<FlowId>,
    /// Bytes transmitted (per `cm_notify`) and not yet resolved by
    /// feedback.
    pub outstanding: u64,
    /// Window reserved by issued-but-unnotified grants.
    pub granted_unnotified: u64,
    /// Issued grants in FIFO order, for timeout reclamation.
    pub grant_queue: VecDeque<GrantEntry>,
    /// Shared smoothed RTT across all member flows.
    pub rtt: RttEstimator,
    /// Smoothed loss fraction.
    pub loss_rate: Ewma,
    /// Last time feedback or a transmission touched this macroflow.
    pub last_activity: Time,
    /// Window growth is frozen until this instant: TCP-equivalent
    /// "no increase during recovery" after a congestion signal, which
    /// also keeps dupack-driven progress reports from re-inflating the
    /// window while the loss episode is still draining.
    pub recovery_until: Time,
    /// Earliest instant the next paced grant may be issued.
    pub next_grant_at: Time,
    /// When the last member flow closed, or [`Macroflow::OCCUPIED`]
    /// while it has members; state lingers until the configured expiry
    /// (this is what Figure 7's later connections reuse).
    pub empty_since: Time,
    /// Where the unit share may move without any member's rate callback
    /// coming due; see [`QuietBand`].
    pub(crate) quiet: QuietBand,
}

impl Macroflow {
    /// The `empty_since` of a macroflow that has members.
    pub(crate) const OCCUPIED: Time = Time::MAX;

    /// Creates a macroflow with fresh congestion state.
    pub fn new(id: MacroflowId, key: MacroflowKey, cfg: &CmConfig, now: Time) -> Self {
        Macroflow {
            id,
            key,
            controller: build_controller(cfg),
            scheduler: SlabScheduler::new(cfg.scheduler),
            flows: Vec::new(),
            outstanding: 0,
            granted_unnotified: 0,
            grant_queue: VecDeque::new(),
            rtt: RttEstimator::new(),
            loss_rate: Ewma::new(LOSS_EWMA_GAIN),
            last_activity: now,
            recovery_until: Time::ZERO,
            next_grant_at: Time::ZERO,
            empty_since: Macroflow::OCCUPIED,
            quiet: QuietBand::OPEN,
        }
    }

    /// Re-initialises a pooled macroflow shell for a new tenant, reusing
    /// the controller's storage and every retained buffer, so
    /// macroflow churn (notably split/merge cycles) is allocation-free
    /// once the pool and slabs are warm.
    pub fn reset(&mut self, id: MacroflowId, key: MacroflowKey, cfg: &CmConfig, now: Time) {
        self.id = id;
        self.key = key;
        self.controller.reset(cfg);
        self.scheduler.reset();
        self.flows.clear();
        self.outstanding = 0;
        self.granted_unnotified = 0;
        self.grant_queue.clear();
        self.rtt = RttEstimator::new();
        self.loss_rate = Ewma::new(LOSS_EWMA_GAIN);
        self.last_activity = now;
        self.recovery_until = Time::ZERO;
        self.next_grant_at = Time::ZERO;
        self.empty_since = Macroflow::OCCUPIED;
        self.quiet = QuietBand::OPEN;
    }

    /// Window headroom available for new grants, in bytes.
    pub fn available_window(&self) -> u64 {
        self.controller
            .window()
            .saturating_sub(self.outstanding + self.granted_unnotified)
    }

    /// The macroflow's sustainable rate estimate.
    pub fn rate(&self) -> Rate {
        self.controller.rate(self.rtt.srtt())
    }

    /// The retransmission-timeout estimate used for grant reclamation and
    /// idle aging.
    pub fn rto(&self) -> Duration {
        self.rtt.rto()
    }

    /// The proportional share of the macroflow rate that goes to a
    /// member of scheduler weight `weight` (its `SchedSlot::weight`).
    pub fn share_of(&self, weight: u32) -> Rate {
        let total = self.scheduler.total_weight();
        if total == 0 {
            return Rate::ZERO;
        }
        self.rate().mul_ratio(weight as u64, total)
    }

    /// The macroflow's rate, its members' total scheduler weight and the
    /// unit share the two make, when that share lies *outside* the quiet
    /// band — i.e. some member's rate callback may be due. `None` is the
    /// O(1) answer of every other `update` and `tick`: one rate and one
    /// comparison.
    pub(crate) fn band_exit(&self) -> Option<(Rate, u64, f64)> {
        let total = self.scheduler.total_weight();
        if total == 0 {
            return None;
        }
        let rate = self.rate();
        let unit = rate.as_bps() as f64 / total as f64;
        (!self.quiet.contains(unit)).then_some((rate, total, unit))
    }

    /// The pacing gap between successive grants: the time one MTU takes
    /// at the sustainable rate `cwnd / srtt`, or zero before any RTT
    /// sample (the initial window may go out back-to-back).
    pub fn pacing_interval(&self) -> Duration {
        let Some(srtt) = self.rtt.srtt() else {
            return Duration::ZERO;
        };
        let mtu = self.controller.mtu();
        let cwnd = self.controller.window().max(mtu);
        let base = srtt.mul_ratio(mtu, cwnd);
        if cwnd < self.controller.ssthresh() {
            // Slow start doubles the window per RTT; pacing at the
            // current rate would halve the ramp, so use a 2x gain (the
            // same rule production pacing implementations apply).
            base / 2
        } else {
            base
        }
    }

    /// Applies the idle staleness rule: if nothing has touched this
    /// macroflow for one or more RTOs, halve the window per RTO (down to
    /// the initial window). This is what lets Figure 7's later
    /// connections reuse — but not blindly trust — old state. Returns
    /// the number of intervals applied.
    pub fn age_if_idle(&mut self, now: Time) -> u32 {
        // Never decay while data is in flight: quiet time with bytes
        // outstanding means feedback is pending, not that we are idle.
        if self.outstanding > 0 || self.granted_unnotified > 0 {
            return 0;
        }
        let interval = self.rto();
        let idle = now.since(self.last_activity);
        let intervals = (idle.as_nanos() / interval.as_nanos()) as u32;
        if intervals > 0 {
            self.controller.decay_idle(intervals);
            // Advance the activity mark so we do not decay again for the
            // same idle span.
            self.last_activity = now;
        }
        intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedSlot;
    use crate::types::LossMode;
    use cm_util::ewma::FALLBACK_RTO;

    fn mf(cfg: &CmConfig) -> Macroflow {
        Macroflow::new(
            MacroflowId(0),
            MacroflowKey::Destination { addr: 9 },
            cfg,
            Time::ZERO,
        )
    }

    #[test]
    fn available_window_subtracts_reservations() {
        let cfg = CmConfig::default();
        let mut m = mf(&cfg);
        assert_eq!(m.available_window(), 1460);
        m.granted_unnotified = 1000;
        assert_eq!(m.available_window(), 460);
        m.outstanding = 500;
        assert_eq!(m.available_window(), 0);
    }

    #[test]
    fn rate_needs_rtt() {
        let cfg = CmConfig::default();
        let mut m = mf(&cfg);
        assert_eq!(m.rate(), Rate::ZERO);
        m.rtt.update(Duration::from_millis(100));
        // 1460 bytes / 100 ms = 14.6 KB/s.
        assert_eq!(m.rate().as_bytes_per_sec(), 14_600);
    }

    #[test]
    fn share_divides_by_weight() {
        let cfg = CmConfig::default();
        let mut m = mf(&cfg);
        m.rtt.update(Duration::from_millis(100));
        let mut slab = [SchedSlot::VACANT; 3];
        m.scheduler.add_flow(&mut slab, 1, 1);
        m.scheduler.add_flow(&mut slab, 2, 1);
        let share = m.share_of(slab[1].weight());
        assert_eq!(share.as_bytes_per_sec(), 7_300);
    }

    #[test]
    fn aging_halves_per_interval() {
        let cfg = CmConfig::default();
        let mut m = mf(&cfg);
        // Grow the window.
        for _ in 0..4 {
            m.controller.on_ack(m.controller.window(), 4, Time::ZERO);
        }
        let w = m.controller.window();
        assert_eq!(w, 1460 * 16);
        // The interval is the RTO: 3 s before any RTT sample.
        let rto = m.rto();
        assert_eq!(rto, FALLBACK_RTO);
        // 2.5 intervals idle: two halvings.
        let idle_until = Time::ZERO + rto * 2 + rto / 2;
        assert_eq!(m.age_if_idle(idle_until), 2);
        assert_eq!(m.controller.window(), w / 4);
        // Immediately after, no further decay.
        let soon = idle_until + Duration::from_millis(100);
        assert_eq!(m.age_if_idle(soon), 0);
    }

    #[test]
    fn aging_skipped_while_data_outstanding() {
        let cfg = CmConfig::default();
        let mut m = mf(&cfg);
        m.controller.on_ack(1460, 1, Time::ZERO);
        m.outstanding = 100;
        assert_eq!(m.age_if_idle(Time::from_secs(100)), 0);
        assert_eq!(m.controller.window(), 2920);
    }

    #[test]
    fn loss_collapse_then_age_bottoms_at_initial() {
        let cfg = CmConfig::default();
        let mut m = mf(&cfg);
        for _ in 0..6 {
            m.controller.on_ack(m.controller.window(), 4, Time::ZERO);
        }
        m.controller.on_loss(LossMode::Transient, Time::ZERO);
        m.age_if_idle(Time::from_secs(100));
        assert_eq!(m.controller.window(), cfg.initial_window_bytes());
    }
}
