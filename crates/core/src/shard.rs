//! One CM shard: the slab-backed state machine behind the API.
//!
//! A [`Shard`] owns everything the historical monolithic CM owned — the
//! flow and macroflow slabs with their free-lists and generation arrays,
//! the notification outbox, and the pooled macroflow shells — for one
//! partition of the host's flows. The
//! [`crate::CongestionManager`] front routes every entry point to the
//! owning shard by the shard index encoded in the id's high bits (see
//! [`crate::types::SLOT_BITS`]); under the default single-shard
//! configuration there is exactly one shard and its ids are numerically
//! identical to the unsharded CM's.
//!
//! Ids handed to clients (and stored in macroflow member lists and the
//! grant queue) are *global* — shard bits included. The
//! schedulers are the one exception: they name a flow by its slab *slot*
//! (zero shard bits), because that is where its scheduler state lives —
//! `sched`, one [`SchedSlot`] per flow slot, shared by every macroflow's
//! scheduler — and the shard re-encodes what a dequeue hands back.
//! `bands` is the second slab of that shape: a flow's own quiet band sits
//! at its slot, so a rate-callback walk decides whom to re-examine without
//! loading a single `Flow`. A `Flow` itself holds only what every entry
//! point touches and fits in one cache line; rate-callback thresholds and
//! the defenses' streaks, quarantine and backoff live in a [`FlowCold`]
//! record from the shard's `cold` slab, which a flow takes on its first
//! registration or offence and returns on close. The two key indexes
//! name slots too: a [`SlotIndex`] holds an 8-byte `(hash, slot)` pair
//! per live flow (or grouped macroflow) and confirms a candidate against
//! the key its slot already holds, so no key is stored twice.
//!
//! # Quiet-shard skip
//!
//! Each shard tracks whether the maintenance timer has anything to do:
//! `dirty` is set by every mutating entry point, and
//! `pending_maintenance` is recomputed during each tick scan (grant
//! queues, outstanding bytes, lingering empty macroflows, queued
//! requests, or registered rate-callback thresholds all keep it set). A
//! shard with neither flag costs the front one branch per tick instead
//! of a slab scan — on a host where one group is active and fifteen
//! idle, `tick` touches one shard's slab, not sixteen.

use cm_obs::{CongestionSignal, TraceEvent, Tracer};
use cm_util::ewma::MIN_RTO;
use cm_util::{Duration, Rate, Time};

use crate::api::{CmNotification, CmStats};
use crate::config::CmConfig;
use crate::error::{CmError, CmResult};
use crate::flow::{ColdSlab, Flow, FlowCold};
use crate::macroflow::{GrantEntry, Macroflow, MacroflowKey, QuietBand};
use crate::scheduler::SchedSlot;
use crate::slot_index::{hash_of, Probe, SlotIndex};
use crate::types::{
    FeedbackReport, FlowId, FlowInfo, FlowKey, LossMode, MacroflowId, Thresholds, SLOT_BITS,
    SLOT_MASK,
};

// Bounds on what `cm_update` feedback the CM is willing to believe (the
// checks are in `Shard::update`); generous enough that no legitimate
// transport ever trips them.

/// Maximum `bytes_acked + bytes_lost` one report may carry (1 GiB); a
/// report past this is rejected outright.
const MAX_BYTES_PER_REPORT: u64 = 1 << 30;
/// RTT samples below this are stripped (a zero RTT would collapse the RTO
/// and pacing interval).
const MIN_RTT_SAMPLE: Duration = Duration::from_micros(1);
/// RTT samples above this are stripped.
const MAX_RTT_SAMPLE: Duration = Duration::from_secs(300);
/// Consecutive rejected/clamped reports from one flow before it is
/// quarantined.
pub(crate) const QUARANTINE_STREAK: u32 = 8;
/// How long a quarantined flow's feedback is ignored.
pub(crate) const QUARANTINE_PERIOD: Duration = Duration::from_secs(2);

/// Consecutive grants reclaimed without an intervening `cm_notify` before
/// an app counts as unresponsive and its requests are parked.
pub(crate) const RECLAIM_STREAK: u32 = 3;
/// First backoff period of an unresponsive app; doubles per additional
/// streak level.
const BASE_BACKOFF: Duration = Duration::from_millis(100);
/// Maximum doublings (caps the backoff at 3.2 s).
const MAX_BACKOFF_LEVEL: u32 = 5;

/// The slab-slot index a global id addresses inside this shard.
#[inline]
fn slot(id: u32) -> usize {
    (id & SLOT_MASK) as usize
}

/// The scheduler's name for a flow: its slab slot (shard bits stripped —
/// what `try_grants` gets back from `dequeue`).
#[inline]
fn lid(id: FlowId) -> u32 {
    id.0 & SLOT_MASK
}

/// The tracer a config asks for: enabled with the configured ring
/// capacity, or the zero-cost disabled handle (the default).
pub(crate) fn tracer_for(cfg: &CmConfig) -> Tracer {
    match cfg.tracing {
        Some(t) => Tracer::enabled(t.capacity),
        None => Tracer::disabled(),
    }
}

/// The [`CongestionSignal`] a loss-mode report traces as, for the
/// congestion kinds that change the window (`LossMode::None` never
/// reaches the loss path).
fn congestion_signal(mode: LossMode) -> CongestionSignal {
    match mode {
        LossMode::Transient | LossMode::None => CongestionSignal::Transient,
        LossMode::Persistent => CongestionSignal::Persistent,
        LossMode::Ecn => CongestionSignal::Ecn,
    }
}

/// One partition of the CM: a full flow/macroflow state machine over its
/// own slabs. See the module docs for the id conventions.
pub(crate) struct Shard {
    cfg: CmConfig,
    /// Precomputed `shard_index << SLOT_BITS`, OR-ed into every id this
    /// shard hands out.
    base: u32,
    /// Flow slab: the id's slot bits index it; vacated slots are
    /// recycled through `free_flows`, so the id space (and every
    /// slot-indexed array) stays dense under churn.
    flows: Vec<Option<Flow>>,
    /// Scheduler state of the flow at the same slot of `flows`, for
    /// whichever macroflow's scheduler the flow is registered with;
    /// vacant while the flow slot is free.
    sched: Vec<SchedSlot>,
    /// Quiet band of the flow at the same slot of `flows`: where the
    /// unit share of whichever macroflow it is a member of may sit
    /// without its rate callback coming due — [`QuietBand::of`] its last
    /// reported share, thresholds and weight, rewritten wherever one of
    /// the three changes and by nothing else (a move between macroflows
    /// changes none). `OPEN` while the flow has no thresholds registered
    /// or the slot is free.
    bands: Vec<QuietBand>,
    /// Threshold and defense state of the flows that have any, named by
    /// `Flow::cold`; recycled through its own free list on close.
    cold: ColdSlab,
    free_flows: Vec<u32>,
    /// Per-slot generation, bumped whenever a slot's grant-queue entries
    /// become invalid (close, split, merge); lets the grant queue drop
    /// stale entries lazily instead of `retain`-scanning on every close.
    flow_gens: Vec<u32>,
    live_flows: usize,
    /// `Flow::key` -> flow slot, for every live flow.
    flow_index: SlotIndex,
    /// Macroflow slab with the same recycling scheme.
    mfs: Vec<Option<Macroflow>>,
    free_mfs: Vec<u32>,
    live_mfs: usize,
    /// Expired macroflow shells parked for reuse: `alloc_macroflow`
    /// resets a pooled shell (controller and buffers kept) instead of
    /// re-boxing, so macroflow churn — split/merge cycles included —
    /// allocates nothing once the pool is warm.
    mf_pool: Vec<Macroflow>,
    /// Group index: the group of `Macroflow::key` (its destination
    /// address) -> macroflow slot, for every live destination-keyed
    /// macroflow (lingering ones included; private ones have no group).
    /// A shard normally hosts one routing group, but overflow routing
    /// (more groups than shards) and the single-shard mode put several
    /// here; the index keeps them apart.
    group_index: SlotIndex,
    pub(crate) outbox: Vec<CmNotification>,
    pub(crate) stats: CmStats,
    next_private_key: u32,
    /// Pooled buffer so the hot entry points allocate nothing.
    scratch_flows: Vec<FlowId>,
    /// Set by every mutating entry point; cleared by `tick`. A shard
    /// that is neither dirty nor pending maintenance is skipped in O(1).
    pub(crate) dirty: bool,
    /// Whether the previous tick scan left timed work behind (grants to
    /// reclaim, outstanding to write off, lingering macroflows, queued
    /// requests, or threshold registrations).
    pending_maintenance: bool,
    /// Live rate-callback registrations (aging can move shares, so any
    /// registration keeps the tick scan alive).
    thresh_regs: usize,
    /// Total requests parked across all flows (unresponsive-app
    /// backoff); non-zero keeps the tick scanning the flow slab so the
    /// parked requests re-queue when their backoff expires.
    parked_count: usize,
    /// Flight recorder + metrics for this shard's decisions; the
    /// zero-cost disabled handle unless `CmConfig::tracing` is set.
    pub(crate) tracer: Tracer,
}

impl Shard {
    pub(crate) fn new(cfg: CmConfig, index: u32) -> Self {
        let tracer = tracer_for(&cfg);
        Shard {
            cfg,
            base: index << SLOT_BITS,
            flows: Vec::new(),
            sched: Vec::new(),
            bands: Vec::new(),
            cold: ColdSlab::default(),
            free_flows: Vec::new(),
            flow_gens: Vec::new(),
            live_flows: 0,
            flow_index: SlotIndex::default(),
            mfs: Vec::new(),
            free_mfs: Vec::new(),
            live_mfs: 0,
            mf_pool: Vec::new(),
            group_index: SlotIndex::default(),
            outbox: Vec::new(),
            stats: CmStats::default(),
            next_private_key: 0,
            scratch_flows: Vec::new(),
            dirty: true,
            pending_maintenance: true,
            thresh_regs: 0,
            parked_count: 0,
            tracer,
        }
    }

    /// Whether the next tick needs to scan this shard at all.
    pub(crate) fn needs_tick(&self) -> bool {
        self.dirty || self.pending_maintenance
    }

    // ------------------------------------------------------------------
    // State management (paper §2.1.1)
    // ------------------------------------------------------------------

    pub(crate) fn open(&mut self, key: FlowKey, now: Time) -> CmResult<FlowId> {
        // One probe per index: it finds the key, or the bucket it goes in.
        let flows = &self.flows;
        let vacancy = match self
            .flow_index
            .find_or_vacancy(hash_of(&key), |s| holds_key(flows, s, &key))
        {
            Probe::Found(_) => return Err(CmError::DuplicateFlow),
            Probe::Vacant(v) => v,
        };
        let group = key.remote.addr as u64;
        let mfs = &self.mfs;
        let mf_id = match self
            .group_index
            .find_or_vacancy(hash_of(&group), |s| holds_group(mfs, s, group))
        {
            Probe::Found(s) => MacroflowId(self.base | s),
            Probe::Vacant(v) => {
                let mk = MacroflowKey::Destination {
                    addr: key.remote.addr,
                };
                let id = self.alloc_macroflow(mk, now);
                self.group_index.fill(v, slot(id.0) as u32);
                id
            }
        };
        // Checked slot arithmetic: the slot is taken *before* the push
        // (so there is no `len - 1` underflow hazard to reason about).
        // The recycled-slot fast path stays branch-free; the overflow
        // check lives only on the cold slab-growth branch, and is a
        // real assert because silently minting a slot past SLOT_MASK
        // would corrupt the id's shard bits and alias another flow.
        let flow_id = match self.free_flows.pop() {
            Some(free_slot) => FlowId(self.base | free_slot),
            None => {
                let new_slot = self.flows.len();
                assert!(
                    new_slot <= SLOT_MASK as usize,
                    "flow slab exhausted the id encoding's slot space"
                );
                self.flow_gens.push(0);
                self.flows.push(None);
                self.sched.push(SchedSlot::VACANT);
                self.bands.push(QuietBand::OPEN);
                FlowId(self.base | new_slot as u32)
            }
        };
        let mut flow = Flow::new(flow_id, key, mf_id, now);
        self.flow_index.fill(vacancy, lid(flow_id));
        let (mf, sched) = self.mf_sched(mf_id)?;
        flow.mf_pos = mf.flows.len() as u32;
        mf.flows.push(flow_id);
        mf.scheduler.add_flow(sched, lid(flow_id), 1);
        mf.empty_since = Macroflow::OCCUPIED;
        self.flows[slot(flow_id.0)] = Some(flow);
        self.live_flows += 1;
        self.stats.opens += 1;
        self.tracer.record(
            now,
            TraceEvent::FlowOpened {
                flow: flow_id.0,
                macroflow: mf_id.0,
            },
        );
        Ok(flow_id)
    }

    pub(crate) fn close(&mut self, flow: FlowId, now: Time) -> CmResult<()> {
        let f = self.flow_mut(flow)?;
        let mf_id = f.macroflow;
        let key = f.key;
        let granted = f.granted;
        let pos = f.mf_pos;
        let cold = f.cold;
        let mtu = self.cfg.mtu as u64;
        let (registered, parked) = self.cold.get(cold).map_or((false, 0), |c| {
            (c.update_interest.is_some(), c.parked_requests as usize)
        });
        let Self {
            mfs, flows, sched, ..
        } = self;
        let mf = mfs
            .get_mut(slot(mf_id.0))
            .and_then(Option::as_mut)
            .ok_or(CmError::UnknownMacroflow(mf_id))?;
        // Unregistered before the slot can be handed out again: its next
        // tenant may belong to another macroflow's scheduler.
        mf.scheduler.remove_flow(sched, lid(flow));
        remove_member(mf, flows, pos);
        // Release window reserved by unresolved grants.
        mf.granted_unnotified = mf.granted_unnotified.saturating_sub(granted as u64 * mtu);
        if mf.flows.is_empty() {
            mf.empty_since = now;
        }
        self.flows[slot(flow.0)] = None;
        self.free_flows.push(lid(flow));
        // Invalidate the flow's grant-queue entries; the reclamation
        // sweep drops stale-generation entries lazily in O(1) each.
        self.flow_gens[slot(flow.0)] = self.flow_gens[slot(flow.0)].wrapping_add(1);
        self.live_flows -= 1;
        if registered {
            self.thresh_regs -= 1;
            // Only a registered flow's band is anything but `OPEN`.
            self.bands[slot(flow.0)] = QuietBand::OPEN;
        }
        self.parked_count -= parked;
        self.cold.detach(cold);
        let removed = self.flow_index.remove(hash_of(&key), lid(flow));
        debug_assert!(removed, "live flow {flow:?} was not indexed");
        self.stats.closes += 1;
        self.tracer
            .record(now, TraceEvent::FlowClosed { flow: flow.0 });
        self.try_grants(mf_id, now);
        Ok(())
    }

    pub(crate) fn mtu(&self, flow: FlowId) -> CmResult<usize> {
        self.flow_ref(flow)?;
        Ok(self.cfg.mtu)
    }

    pub(crate) fn lookup(&self, key: &FlowKey) -> Option<FlowId> {
        self.flow_index
            .find(hash_of(key), |s| holds_key(&self.flows, s, key))
            .map(|s| FlowId(self.base | s))
    }

    pub(crate) fn set_weight(&mut self, flow: FlowId, weight: u32) -> CmResult<()> {
        if weight == 0 {
            return Err(CmError::InvalidArgument("weight must be positive"));
        }
        let mf_id = self.flow_ref(flow)?.macroflow;
        let (mf, sched) = self.mf_sched(mf_id)?;
        mf.scheduler.set_weight(sched, lid(flow), weight);
        // A registered member's bounds in unit-share space scale with
        // the weight its scheduler now gives it.
        mf.quiet = QuietBand::INVALID;
        let scheduled = self.sched[slot(flow.0)].weight();
        let cold = self.flow_ref(flow)?.cold;
        if let Some(FlowCold {
            update_interest: Some(t),
            last_reported_rate: last,
            ..
        }) = self.cold.get(cold)
        {
            self.bands[slot(flow.0)] = QuietBand::of(last.unwrap_or(Rate::ZERO), *t, scheduled);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data transmission (paper §2.1.2)
    // ------------------------------------------------------------------

    pub(crate) fn request(&mut self, flow: FlowId, now: Time) -> CmResult<()> {
        let f = self.flow_mut(flow)?;
        let mf_id = f.macroflow;
        f.last_api = now;
        self.stats.requests += 1;
        // An unresponsive flow's requests are parked, not scheduled:
        // leaving them pending would keep `next_grant_deadline` firing
        // the host pacing timer for grants that cannot be issued.
        if self.park_if_backing_off(flow, now) {
            return Ok(());
        }
        let (mf, sched) = self.mf_sched(mf_id)?;
        mf.scheduler.enqueue(sched, lid(flow));
        self.try_grants(mf_id, now);
        Ok(())
    }

    /// If `flow` is in unresponsive-app backoff, parks one request on it
    /// and returns true; clears an expired backoff otherwise. Parked
    /// requests re-queue via `notify` (the app proved itself alive) or
    /// the maintenance tick (the backoff lapsed).
    fn park_if_backing_off(&mut self, flow: FlowId, now: Time) -> bool {
        let Ok(cold) = self.flow_ref(flow).map(|f| f.cold) else {
            return false;
        };
        let parked = self
            .cold
            .get_mut(cold)
            .is_some_and(|c| c.park_if_backing_off(now));
        self.parked_count += usize::from(parked);
        parked
    }

    pub(crate) fn notify(&mut self, flow: FlowId, bytes_sent: u64, now: Time) -> CmResult<()> {
        let pacing = self.cfg.pacing;
        let mtu = self.cfg.mtu as u64;
        let f = self.flow_mut(flow)?;
        let mf_id = f.macroflow;
        let had_grant = f.granted > 0;
        if had_grant {
            f.granted -= 1;
            f.dead_grant_entries += 1;
        }
        f.last_api = now;
        let cold = f.cold;
        // A notify proves the app is draining its grants: end any
        // unresponsive-app backoff and release its parked requests back
        // to the scheduler.
        let (was_backing_off, unparked) = match self.cold.get_mut(cold) {
            Some(c) => {
                c.reclaim_streak = 0;
                c.backoff_level = 0;
                let was_backing_off = c.backoff_until.take().is_some();
                (was_backing_off, std::mem::take(&mut c.parked_requests))
            }
            None => (false, 0),
        };
        self.parked_count -= unparked as usize;
        self.stats.notifies += 1;
        if was_backing_off {
            self.tracer
                .record(now, TraceEvent::BackoffLapsed { flow: flow.0 });
        }
        let (mf, sched) = self.mf_sched(mf_id)?;
        for _ in 0..unparked {
            mf.scheduler.enqueue(sched, lid(flow));
        }
        if had_grant {
            mf.granted_unnotified = mf.granted_unnotified.saturating_sub(mtu);
            // The grant charged a full-MTU pacing quantum; refund the
            // unused fraction now that the true size is known, so
            // sub-MTU senders (vat's 160-byte frames) are paced by what
            // they actually send.
            if pacing && bytes_sent < mtu {
                let refund = mf.pacing_interval().mul_ratio(mtu - bytes_sent, mtu);
                mf.next_grant_at = Time::from_nanos(
                    mf.next_grant_at
                        .as_nanos()
                        .saturating_sub(refund.as_nanos()),
                );
            }
        }
        mf.outstanding += bytes_sent;
        mf.last_activity = now;
        // A short send (or a released grant) can open window headroom.
        self.try_grants(mf_id, now);
        Ok(())
    }

    pub(crate) fn update(
        &mut self,
        flow: FlowId,
        report: FeedbackReport,
        now: Time,
    ) -> CmResult<()> {
        let mut report = report;
        let f = self.flow_mut(flow)?;
        let mf_id = f.macroflow;
        f.last_api = now;
        let cold = f.cold;
        // Feedback sanity (the paper's §5 trust boundary): the CM's
        // shared estimates serve *every* flow in the macroflow, so one
        // client feeding impossible values must not poison them.
        if let Some(c) = self.cold.get_mut(cold) {
            if let Some(until) = c.quarantined_until {
                if now < until {
                    self.stats.feedback_rejected += 1;
                    self.tracer
                        .record(now, TraceEvent::FeedbackRejected { flow: flow.0 });
                    return Err(CmError::InvalidFeedback("flow quarantined"));
                }
                // Quarantine served; start the flow on a clean slate.
                c.quarantined_until = None;
                c.inconsistent_streak = 0;
            }
        }
        if report.bytes_acked.saturating_add(report.bytes_lost) > MAX_BYTES_PER_REPORT {
            let quarantine = self.offence(flow, now);
            self.stats.feedback_rejected += 1;
            self.tracer
                .record(now, TraceEvent::FeedbackRejected { flow: flow.0 });
            if quarantine {
                self.tracer
                    .record(now, TraceEvent::FlowQuarantined { flow: flow.0 });
            }
            return Err(CmError::InvalidFeedback("impossible byte count"));
        }
        match report.rtt_sample {
            Some(rtt) if !(MIN_RTT_SAMPLE..=MAX_RTT_SAMPLE).contains(&rtt) => {
                // The byte accounting may still be honest; strip only
                // the impossible RTT sample rather than dropping the
                // whole report, but count it toward the streak.
                report.rtt_sample = None;
                let quarantine = self.offence(flow, now);
                self.stats.feedback_clamped += 1;
                self.tracer
                    .record(now, TraceEvent::FeedbackClamped { flow: flow.0 });
                if quarantine {
                    self.tracer
                        .record(now, TraceEvent::FlowQuarantined { flow: flow.0 });
                }
            }
            _ => {
                if let Some(c) = self.cold.get_mut(cold) {
                    c.inconsistent_streak = 0;
                }
            }
        }
        let resolved = report.bytes_acked + report.bytes_lost;
        self.stats.updates += 1;
        let mf = self.mf_mut(mf_id)?;
        mf.last_activity = now;
        let mut delay_overuse = false;
        if let Some(rtt) = report.rtt_sample {
            mf.rtt.update(rtt);
            // Delay-based controllers read the raw sample; loss/rate
            // controllers take the default no-op hook.
            delay_overuse = mf.controller.on_rtt_sample(rtt, now).is_overuse();
        }
        mf.outstanding = mf.outstanding.saturating_sub(resolved);
        if resolved > 0 {
            let frac = report.bytes_lost as f64 / resolved as f64;
            mf.loss_rate.update(frac);
        } else if report.loss != LossMode::None {
            // A pure congestion signal (e.g. ECN) still counts against
            // the loss estimate.
            mf.loss_rate.update(1.0);
        }
        if (report.bytes_acked > 0 || report.ack_events > 0) && now >= mf.recovery_until {
            mf.controller
                .on_ack(report.bytes_acked, report.ack_events, now);
        }
        if report.loss != LossMode::None {
            mf.controller.on_loss(report.loss, now);
            // Freeze growth for roughly one RTT: the reduction must
            // drain before positive feedback may reopen the window.
            let freeze = mf.rtt.srtt().unwrap_or(MIN_RTO);
            mf.recovery_until = now + freeze;
        }
        let cwnd_after = mf.controller.window();
        self.tracer.record(
            now,
            TraceEvent::FeedbackAccepted {
                flow: flow.0,
                bytes_acked: report.bytes_acked,
            },
        );
        if report.loss != LossMode::None {
            self.tracer.record(
                now,
                TraceEvent::Congestion {
                    macroflow: mf_id.0,
                    signal: congestion_signal(report.loss),
                    cwnd: cwnd_after,
                },
            );
        }
        if delay_overuse {
            self.tracer.record(
                now,
                TraceEvent::Congestion {
                    macroflow: mf_id.0,
                    signal: CongestionSignal::Delay,
                    cwnd: cwnd_after,
                },
            );
        }
        self.try_grants(mf_id, now);
        self.emit_rate_callbacks(mf_id);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Querying (paper §2.1.4)
    // ------------------------------------------------------------------

    pub(crate) fn query(&mut self, flow: FlowId, now: Time) -> CmResult<FlowInfo> {
        let f = self.flow_mut(flow)?;
        let mf_id = f.macroflow;
        f.last_api = now;
        self.mf_mut(mf_id)?.age_if_idle(now);
        self.stats.queries += 1;
        self.flow_info(flow)
    }

    pub(crate) fn set_thresholds(
        &mut self,
        flow: FlowId,
        thresholds: Option<Thresholds>,
    ) -> CmResult<()> {
        let mf_id = self.flow_ref(flow)?.macroflow;
        let weight = self.sched[slot(flow.0)].weight();
        let mf = self.mf_mut(mf_id)?;
        let current = mf.share_of(weight);
        let band = thresholds.map_or(QuietBand::OPEN, |t| QuietBand::of(current, t, weight));
        mf.quiet.intersect(band);
        self.bands[slot(flow.0)] = band;
        let Self {
            flows,
            cold,
            thresh_regs,
            ..
        } = self;
        let f = flows
            .get_mut(slot(flow.0))
            .and_then(Option::as_mut)
            .ok_or(CmError::UnknownFlow(flow))?;
        // Dropping thresholds a flow never had takes no record.
        let record = match thresholds {
            Some(_) => cold.attach(&mut f.cold),
            None => match cold.get_mut(f.cold) {
                Some(c) => c,
                None => return Ok(()),
            },
        };
        match (record.update_interest.is_some(), thresholds.is_some()) {
            (false, true) => *thresh_regs += 1,
            (true, false) => *thresh_regs -= 1,
            _ => {}
        }
        record.update_interest = thresholds;
        record.last_reported_rate = Some(current);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Macroflow construction (paper §2.1, §5)
    // ------------------------------------------------------------------

    pub(crate) fn macroflow_of(&self, flow: FlowId) -> CmResult<MacroflowId> {
        Ok(self.flow_ref(flow)?.macroflow)
    }

    pub(crate) fn flows_in(&self, mf: MacroflowId) -> CmResult<&[FlowId]> {
        Ok(&self.mf_ref(mf)?.flows)
    }

    pub(crate) fn split(&mut self, flow: FlowId, now: Time) -> CmResult<MacroflowId> {
        let f = self.flow_ref(flow)?;
        if f.granted > 0 {
            return Err(CmError::InvalidArgument(
                "cannot split a flow with unresolved grants",
            ));
        }
        let old_mf = f.macroflow;
        let key = MacroflowKey::Private(self.next_private_key);
        self.next_private_key += 1;
        let new_mf = self.alloc_macroflow(key, now);
        // Inherit the RTT estimate.
        let rtt = self.mf_ref(old_mf)?.rtt;
        self.mf_mut(new_mf)?.rtt = rtt;
        self.move_flow(flow, old_mf, new_mf, now)?;
        Ok(new_mf)
    }

    pub(crate) fn merge(&mut self, flow: FlowId, into: MacroflowId, now: Time) -> CmResult<()> {
        let f = self.flow_ref(flow)?;
        let natural = f.key.remote.addr as u64;
        if self.mf_ref(into)?.key.group().is_some_and(|g| g != natural) {
            return Err(CmError::DestinationMismatch);
        }
        if f.granted > 0 {
            return Err(CmError::InvalidArgument(
                "cannot merge a flow with unresolved grants",
            ));
        }
        let old_mf = f.macroflow;
        if old_mf == into {
            return Ok(());
        }
        self.move_flow(flow, old_mf, into, now)
    }

    /// The shared migration primitive behind `split` and `merge`: moves
    /// `flow` from `from` onto `to` in O(1) (plus re-queueing its pending
    /// requests), preserving the flow's scheduler weight and its pending
    /// (ungranted) requests.
    /// Callers guarantee the flow holds no unresolved grants. Both
    /// macroflows are in this shard by construction.
    fn move_flow(
        &mut self,
        flow: FlowId,
        from: MacroflowId,
        to: MacroflowId,
        now: Time,
    ) -> CmResult<()> {
        let weight = self.sched[slot(flow.0)].weight();
        let pending = self.sched[slot(flow.0)].pending();
        self.detach_flow(flow, from, now)?;
        let (mf, sched) = self.mf_sched(to)?;
        let pos = mf.flows.len() as u32;
        mf.flows.push(flow);
        mf.scheduler.add_flow(sched, lid(flow), weight);
        for _ in 0..pending {
            mf.scheduler.enqueue(sched, lid(flow));
        }
        mf.empty_since = Macroflow::OCCUPIED;
        // The newcomer may bring a registration whose last report was a
        // share of another macroflow.
        mf.quiet = QuietBand::INVALID;
        let f = self.flow_mut(flow)?;
        f.macroflow = to;
        f.mf_pos = pos;
        // Migrated requests may be grantable immediately on the target.
        if pending > 0 {
            self.try_grants(to, now);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Maintenance (the paper's "timer-driven component ... background
    // tasks and error handling")
    // ------------------------------------------------------------------

    /// Runs this shard's periodic maintenance: reclaims grants whose
    /// clients never notified, writes off feedback-free outstanding
    /// bytes, ages idle macroflows, grants freshly available window, and
    /// expires long-empty macroflows. Returns the number of slab
    /// slots scanned (the front's tick-cost accounting), and leaves
    /// `pending_maintenance`/`dirty` reflecting whether the next tick
    /// has anything to do.
    pub(crate) fn tick(&mut self, now: Time) -> u64 {
        let cfg = self.cfg;
        let mut needs = self.thresh_regs > 0;
        let mut scanned = self.mfs.len() as u64;
        for i in 0..self.mfs.len() {
            if self.mfs[i].is_none() {
                continue;
            }
            let mf_id = MacroflowId(self.base | i as u32);
            self.reclaim_expired_grants(mf_id, now);
            let expired = {
                let Some(mf) = self.mfs[i].as_mut() else {
                    continue;
                };
                // Write off outstanding bytes whose feedback never came:
                // their senders are gone or their packets (and ACKs) are
                // lost, and holding window for them forever can wedge the
                // macroflow — a collapsed 1-MTU window never reopens if a
                // few stray bytes keep `available_window` below the MTU.
                // The threshold is deliberately far beyond one RTO
                // (several RTOs, floored at 3 s) so legitimately *slow*
                // feedback — batched application ACKs run up to 2 s —
                // is never written off while in flight; only the
                // never-coming kind is.
                //
                // Zeroing `outstanding` is also the re-fire latch: once
                // written off, this branch cannot trigger again (and the
                // persistent-congestion signal cannot repeat) until a
                // new transmission both raises `outstanding` *and*
                // refreshes `last_activity`, starting a fresh
                // feedback-free clock. Pinned by the
                // `write_off_signal_does_not_refire_while_idle` test.
                let write_off_after = (mf.rto() * 4).max(Duration::from_secs(3));
                if mf.outstanding > 0 && now.since(mf.last_activity) >= write_off_after {
                    let reclaimed = mf.outstanding;
                    self.stats.outstanding_reclaimed += mf.outstanding;
                    mf.outstanding = 0;
                    // Silence this long is indistinguishable from the
                    // paper's CM_LOST_FEEDBACK: everything in flight (and
                    // every ACK) vanished. Reopening the learned window
                    // as-is would blast a stale estimate into unknown
                    // conditions, so signal persistent congestion — the
                    // controller collapses to its initial window and
                    // re-probes from a conservative state — and freeze
                    // growth for one RTT, mirroring `update`'s loss path.
                    mf.controller.on_loss(LossMode::Persistent, now);
                    let freeze = mf.rtt.srtt().unwrap_or(MIN_RTO);
                    mf.recovery_until = now + freeze;
                    self.stats.write_off_congestion_signals += 1;
                    self.tracer.record(
                        now,
                        TraceEvent::WriteOff {
                            macroflow: mf_id.0,
                            reclaimed,
                        },
                    );
                    self.tracer.record(
                        now,
                        TraceEvent::Congestion {
                            macroflow: mf_id.0,
                            signal: CongestionSignal::Persistent,
                            cwnd: mf.controller.window(),
                        },
                    );
                }
                mf.age_if_idle(now);
                mf.empty_since != Macroflow::OCCUPIED
                    && now.since(mf.empty_since) >= cfg.macroflow_linger
            };
            if expired {
                let Some(mut mf) = self.mfs[i].take() else {
                    continue;
                };
                self.free_mfs.push(i as u32);
                self.live_mfs -= 1;
                if let Some(group) = mf.key.group() {
                    let removed = self.group_index.remove(hash_of(&group), i as u32);
                    debug_assert!(removed, "group {group} was not indexed");
                }
                // Park the shell so the next macroflow creation reuses
                // its boxes and buffers instead of allocating.
                mf.grant_queue.clear();
                self.mf_pool.push(mf);
                self.stats.macroflows_expired += 1;
                continue;
            }
            self.try_grants(mf_id, now);
            self.emit_rate_callbacks(mf_id);
            let Some(mf) = self.mfs[i].as_ref() else {
                continue;
            };
            needs |= !mf.grant_queue.is_empty()
                || mf.outstanding > 0
                || mf.granted_unnotified > 0
                || mf.empty_since != Macroflow::OCCUPIED
                || mf.scheduler.pending() > 0
                // A learned-but-idle window still owes the staleness
                // rule: keep scanning so `age_if_idle` halves it per
                // idle interval. Once decayed to the initial window the
                // term clears and the shard can finally go quiet —
                // aging is the one maintenance duty an otherwise-idle
                // macroflow retains (pinned by
                // `idle_window_ages_despite_quiet_skip`).
                || mf.controller.window() > cfg.initial_window_bytes();
        }
        // Flow-slab maintenance: re-queue parked requests whose
        // unresponsive-app backoff lapsed, and (when the opt-in timeout
        // is armed) reap flows whose owner has not touched any API in
        // `orphan_timeout` — their slots and window reservations return
        // to the free-lists instead of leaking forever. The scan only
        // runs when one of those duties exists.
        let reap_after = cfg.orphan_timeout;
        if self.parked_count > 0 || (reap_after.is_some() && self.live_flows > 0) {
            scanned += self.flows.len() as u64;
            let mut reap = std::mem::take(&mut self.scratch_flows);
            reap.clear();
            for s in 0..self.flows.len() {
                let (id, mf_id, unparked) = {
                    let Some(f) = self.flows[s].as_mut() else {
                        continue;
                    };
                    if let Some(t) = reap_after {
                        if now.since(f.last_api) >= t {
                            reap.push(f.id);
                            continue;
                        }
                    }
                    let Some(c) = self.cold.get_mut(f.cold) else {
                        continue;
                    };
                    if c.parked_requests == 0 || c.backoff_until.is_some_and(|u| now < u) {
                        continue;
                    }
                    c.backoff_until = None;
                    (f.id, f.macroflow, std::mem::take(&mut c.parked_requests))
                };
                self.parked_count -= unparked as usize;
                self.tracer
                    .record(now, TraceEvent::BackoffLapsed { flow: id.0 });
                if let Ok((mf, sched)) = self.mf_sched(mf_id) {
                    for _ in 0..unparked {
                        mf.scheduler.enqueue(sched, lid(id));
                    }
                }
                self.try_grants(mf_id, now);
            }
            for &id in &reap {
                if self.close(id, now).is_ok() {
                    self.stats.flows_reaped += 1;
                    self.tracer
                        .record(now, TraceEvent::FlowReaped { flow: id.0 });
                }
            }
            // A reaped flow may have been its macroflow's last: the
            // linger clock it started is younger than the macroflow pass
            // above, so only the next tick can see it.
            needs |= !reap.is_empty();
            reap.clear();
            self.scratch_flows = reap;
        }
        needs |= self.parked_count > 0;
        needs |= reap_after.is_some() && self.live_flows > 0;
        self.pending_maintenance = needs;
        self.dirty = false;
        self.tracer.record(
            now,
            TraceEvent::TickSummary {
                shard: self.base >> SLOT_BITS,
                scanned,
            },
        );
        scanned
    }

    /// Structural invariant check for the chaos harness and property
    /// tests: slab/free-list consistency, both key indexes (one entry per
    /// live flow and per live group-keyed macroflow, each naming a live
    /// slot whose own key finds it), flow ↔ macroflow membership,
    /// every scheduler's rotation walked through the shared slab, grant
    /// reservations, parked-request accounting, every flow's quiet band
    /// against what it is defined to be, and every macroflow's band
    /// against its members' bands and against the exact test. Never
    /// called on a hot path.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let live = self.flows.iter().flatten().count();
        if live != self.live_flows {
            return Err(format!(
                "live_flows says {} but {} slots are occupied",
                self.live_flows, live
            ));
        }
        if self.sched.len() != self.flows.len() {
            return Err(format!(
                "{} scheduler slots for {} flow slots",
                self.sched.len(),
                self.flows.len()
            ));
        }
        if self.bands.len() != self.flows.len() {
            return Err(format!(
                "{} quiet-band slots for {} flow slots",
                self.bands.len(),
                self.flows.len()
            ));
        }
        self.cold
            .validate(self.flows.iter().flatten().map(|f| f.cold))
            .map_err(|e| format!("cold slab: {e}"))?;
        let mut registered = 0;
        for (s, (f, band)) in self.flows.iter().zip(&self.bands).enumerate() {
            let expected = match f.as_ref().and_then(|f| self.cold.get(f.cold)) {
                Some(FlowCold {
                    update_interest: Some(t),
                    last_reported_rate: last,
                    ..
                }) => {
                    registered += 1;
                    QuietBand::of(last.unwrap_or(Rate::ZERO), *t, self.sched[s].weight())
                }
                _ => QuietBand::OPEN,
            };
            if *band != expected {
                return Err(format!(
                    "flow slot {s} holds quiet band {band:?} but its registration \
                     makes {expected:?}"
                ));
            }
        }
        if registered != self.thresh_regs {
            return Err(format!(
                "thresh_regs says {} but {registered} flows hold thresholds",
                self.thresh_regs
            ));
        }
        let mut seen = vec![false; self.flows.len()];
        for &s in &self.free_flows {
            let s = s as usize;
            if s >= self.flows.len() {
                return Err(format!("free flow slot {s} out of slab range"));
            }
            if seen[s] {
                return Err(format!("flow slot {s} appears on the free-list twice"));
            }
            seen[s] = true;
            if self.flows[s].is_some() || self.sched[s].weight() != 0 {
                return Err(format!("free flow slot {s} is occupied or still scheduled"));
            }
        }
        if self.free_flows.len() + live != self.flows.len() {
            return Err(format!(
                "flow slab leak: {} slots != {} live + {} free",
                self.flows.len(),
                live,
                self.free_flows.len()
            ));
        }
        let live_mfs = self.mfs.iter().flatten().count();
        if live_mfs != self.live_mfs {
            return Err(format!(
                "live_mfs says {} but {} slots are occupied",
                self.live_mfs, live_mfs
            ));
        }
        let mut seen = vec![false; self.mfs.len()];
        for &s in &self.free_mfs {
            let s = s as usize;
            if s >= self.mfs.len() {
                return Err(format!("free macroflow slot {s} out of slab range"));
            }
            if seen[s] {
                return Err(format!("macroflow slot {s} appears on the free-list twice"));
            }
            seen[s] = true;
            if self.mfs[s].is_some() {
                return Err(format!("free macroflow slot {s} is occupied"));
            }
        }
        if self.free_mfs.len() + live_mfs != self.mfs.len() {
            return Err(format!(
                "macroflow slab leak: {} slots != {} live + {} free",
                self.mfs.len(),
                live_mfs,
                self.free_mfs.len()
            ));
        }
        let mut member_total = 0usize;
        let mut grouped = 0usize;
        let mut linked = vec![false; self.sched.len()];
        for mf in self.mfs.iter().flatten() {
            member_total += mf.flows.len();
            if let Some(g) = mf.key.group() {
                grouped += 1;
                let found = self
                    .group_index
                    .find(hash_of(&g), |s| holds_group(&self.mfs, s, g));
                if found != Some(slot(mf.id.0) as u32) {
                    return Err(format!("{:?} of group {g} is not found by it", mf.id));
                }
            }
            let is_member = |l: u32| matches!(self.flows.get(l as usize), Some(Some(f)) if f.macroflow == mf.id);
            mf.scheduler
                .validate(
                    &self.sched,
                    mf.flows.iter().map(|&f| lid(f)),
                    is_member,
                    &mut linked,
                )
                .map_err(|e| format!("macroflow {:?} scheduler: {e}", mf.id))?;
            let mut reserved = 0u64;
            let mut lazy_dead = 0usize;
            let mut granted = 0usize;
            let quiet = mf.band_exit().is_none();
            for (pos, &fid) in mf.flows.iter().enumerate() {
                let Some(f) = self.flows.get(slot(fid.0)).and_then(Option::as_ref) else {
                    return Err(format!("macroflow {:?} lists dead flow {:?}", mf.id, fid));
                };
                if f.macroflow != mf.id {
                    return Err(format!(
                        "flow {:?} is listed by {:?} but points at {:?}",
                        fid, mf.id, f.macroflow
                    ));
                }
                if f.mf_pos as usize != pos {
                    return Err(format!(
                        "flow {:?} back-pointer {} != member position {}",
                        fid, f.mf_pos, pos
                    ));
                }
                if mf
                    .key
                    .group()
                    .is_some_and(|g| g != f.key.remote.addr as u64)
                {
                    return Err(format!(
                        "flow {:?} to {} is a member of {:?}",
                        fid, f.key.remote.addr, mf.key
                    ));
                }
                reserved += f.granted as u64 * mf.controller.mtu();
                lazy_dead += f.dead_grant_entries as usize;
                granted += f.granted as usize;
                // The macroflow's band is at most the intersection of
                // its members' own.
                let own = self.bands[slot(fid.0)];
                if !mf.quiet.is_empty() && !mf.quiet.is_within(&own) {
                    return Err(format!(
                        "macroflow {:?} quiet band {:?} reaches outside flow {:?}'s {own:?}",
                        mf.id, mf.quiet, fid
                    ));
                }
                // The quiet band against the walk it stands in for:
                // wherever the O(1) check would skip the members, the
                // member-by-member test must find nothing to report.
                let record = self.cold.get(f.cold);
                let last = record
                    .and_then(|c| c.last_reported_rate)
                    .unwrap_or(Rate::ZERO);
                let share = mf.share_of(self.sched[slot(fid.0)].weight());
                let thresh = record.and_then(|c| c.update_interest);
                if quiet && thresh.is_some_and(|t| t.crossed(last, share)) {
                    return Err(format!(
                        "macroflow {:?} is inside its quiet band {:?} but flow {:?} \
                         crossed its thresholds ({last:?} -> {share:?})",
                        mf.id, mf.quiet, fid
                    ));
                }
            }
            if reserved != mf.granted_unnotified {
                return Err(format!(
                    "macroflow {:?} reserves {} bytes for grants but members hold {}",
                    mf.id, mf.granted_unnotified, reserved
                ));
            }
            // Every unresolved or lazily-dead grant has an entry still
            // sitting in the expiry queue (stale-generation entries from
            // closed flows may add more).
            if mf.grant_queue.len() < granted + lazy_dead {
                return Err(format!(
                    "macroflow {:?} queue holds {} entries but members account {}",
                    mf.id,
                    mf.grant_queue.len(),
                    granted + lazy_dead
                ));
            }
        }
        self.group_index
            .validate()
            .map_err(|e| format!("group index: {e}"))?;
        // As for flows below: the count, and (in the walk above) every
        // grouped macroflow found at its own slot by its group.
        if self.group_index.len() != grouped {
            return Err(format!(
                "{} group-index entries for {grouped} live grouped macroflows",
                self.group_index.len()
            ));
        }
        if member_total != live {
            return Err(format!(
                "{live} flows live but {member_total} macroflow memberships"
            ));
        }
        self.flow_index
            .validate()
            .map_err(|e| format!("flow index: {e}"))?;
        if self.flow_index.len() != live {
            return Err(format!(
                "{} flow-index entries for {live} live flows",
                self.flow_index.len()
            ));
        }
        // One entry per live flow, and each live flow's key finds its own
        // slot: so every entry names a live slot, holds its key's hash
        // and is found by it, and no key is live twice.
        for f in self.flows.iter().flatten() {
            if self.lookup(&f.key) != Some(f.id) {
                return Err(format!("{:?} is not found by its key", f.id));
            }
        }
        let parked: usize = self
            .flows
            .iter()
            .flatten()
            .filter_map(|f| self.cold.get(f.cold))
            .map(|c| c.parked_requests as usize)
            .sum();
        if parked != self.parked_count {
            return Err(format!(
                "parked_count says {} but flows hold {} parked requests",
                self.parked_count, parked
            ));
        }
        Ok(())
    }

    pub(crate) fn next_grant_deadline(&self) -> Option<Time> {
        if !self.cfg.pacing {
            return None;
        }
        self.mfs
            .iter()
            .flatten()
            .filter(|mf| mf.scheduler.pending() > 0 && mf.available_window() >= mf.controller.mtu())
            .map(|mf| mf.next_grant_at)
            .min()
    }

    pub(crate) fn release_paced(&mut self, now: Time) {
        for i in 0..self.mfs.len() {
            if self.mfs[i].is_some() {
                self.try_grants(MacroflowId(self.base | i as u32), now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    pub(crate) fn flow_count(&self) -> usize {
        self.live_flows
    }

    pub(crate) fn macroflow_count(&self) -> usize {
        self.live_mfs
    }

    pub(crate) fn flow_slab_capacity(&self) -> usize {
        self.flows.len()
    }

    pub(crate) fn macroflow_slab_capacity(&self) -> usize {
        self.mfs.len()
    }

    pub(crate) fn macroflow_pool_len(&self) -> usize {
        self.mf_pool.len()
    }

    pub(crate) fn weight_of(&self, flow: FlowId) -> CmResult<u32> {
        self.flow_ref(flow)?;
        Ok(self.sched[slot(flow.0)].weight())
    }

    pub(crate) fn pending_of(&self, flow: FlowId) -> CmResult<u32> {
        self.flow_ref(flow)?;
        Ok(self.sched[slot(flow.0)].pending())
    }

    pub(crate) fn window_of(&self, mf: MacroflowId) -> CmResult<u64> {
        Ok(self.mf_ref(mf)?.controller.window())
    }

    pub(crate) fn outstanding_of(&self, mf: MacroflowId) -> CmResult<u64> {
        Ok(self.mf_ref(mf)?.outstanding)
    }

    pub(crate) fn reserved_of(&self, mf: MacroflowId) -> CmResult<u64> {
        Ok(self.mf_ref(mf)?.granted_unnotified)
    }

    pub(crate) fn flow_info(&self, flow: FlowId) -> CmResult<FlowInfo> {
        let mf = self.mf_ref(self.flow_ref(flow)?.macroflow)?;
        let share = mf.share_of(self.sched[slot(flow.0)].weight());
        Ok(flow_info_of(share, self.cfg.mtu, mf))
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn alloc_macroflow(&mut self, key: MacroflowKey, now: Time) -> MacroflowId {
        // Same checked slot discipline as the flow slab: slot first, no
        // subtraction, overflow asserted on the cold growth branch only
        // (an id past SLOT_MASK would corrupt the shard bits).
        let mf_slot = match self.free_mfs.pop() {
            Some(free_slot) => free_slot,
            None => {
                let new_slot = self.mfs.len();
                assert!(
                    new_slot <= SLOT_MASK as usize,
                    "macroflow slab exhausted the id encoding's slot space"
                );
                self.mfs.push(None);
                new_slot as u32
            }
        };
        let id = MacroflowId(self.base | mf_slot);
        let mf = match self.mf_pool.pop() {
            Some(mut shell) => {
                shell.reset(id, key, &self.cfg, now);
                shell
            }
            None => Macroflow::new(id, key, &self.cfg, now),
        };
        self.mfs[mf_slot as usize] = Some(mf);
        self.live_mfs += 1;
        self.stats.macroflows_created += 1;
        id
    }

    fn detach_flow(&mut self, flow: FlowId, from: MacroflowId, now: Time) -> CmResult<()> {
        let pos = self.flow_ref(flow)?.mf_pos;
        let Self {
            mfs, flows, sched, ..
        } = self;
        let mf = mfs
            .get_mut(slot(from.0))
            .and_then(Option::as_mut)
            .ok_or(CmError::UnknownMacroflow(from))?;
        mf.scheduler.remove_flow(sched, lid(flow));
        remove_member(mf, flows, pos);
        if mf.flows.is_empty() {
            mf.empty_since = now;
        }
        // The flow moves with zero unresolved grants (callers enforce
        // this), so its entries still in the old queue are all dead:
        // stale their generation and reset the lazy-deletion counter.
        self.flow_gens[slot(flow.0)] = self.flow_gens[slot(flow.0)].wrapping_add(1);
        self.flow_mut(flow)?.dead_grant_entries = 0;
        Ok(())
    }

    /// Issues grants while the window has headroom and requests wait,
    /// subject to rate pacing.
    fn try_grants(&mut self, mf_id: MacroflowId, now: Time) {
        let pacing = self.cfg.pacing;
        let base = self.base;
        let Self {
            mfs,
            flows,
            sched,
            cold,
            flow_gens,
            outbox,
            stats,
            parked_count,
            tracer,
            ..
        } = self;
        let Some(mf) = mfs.get_mut(slot(mf_id.0)).and_then(Option::as_mut) else {
            return;
        };
        while mf.available_window() >= mf.controller.mtu() && mf.scheduler.pending() > 0 {
            if pacing && now < mf.next_grant_at {
                break;
            }
            // The scheduler hands back a slab slot; re-encode the shard
            // bits before anything client-visible sees it.
            let Some(local) = mf.scheduler.dequeue(sched) else {
                break;
            };
            let flow_id = FlowId(base | local);
            let flow = flows.get_mut(local as usize).and_then(Option::as_mut);
            // `close` and `detach_flow` unregister before the slot is
            // freed, and `validate` walks every ring to hold them to it.
            debug_assert!(flow.is_some(), "scheduler served free slot {local}");
            let Some(flow) = flow else {
                continue;
            };
            // An unresponsive flow's dequeued request is parked rather
            // than granted: granting would just feed more window into a
            // client that is not notifying.
            if cold
                .get_mut(flow.cold)
                .is_some_and(|c| c.park_if_backing_off(now))
            {
                *parked_count += 1;
                continue;
            }
            flow.granted += 1;
            mf.granted_unnotified += mf.controller.mtu();
            mf.grant_queue.push_back(GrantEntry {
                flow: flow_id,
                gen: flow_gens[local as usize],
                issued: now,
            });
            outbox.push(CmNotification::SendGrant { flow: flow_id });
            stats.grants += 1;
            tracer.record(
                now,
                TraceEvent::GrantIssued {
                    flow: flow_id.0,
                    bytes: mf.controller.mtu(),
                },
            );
            if pacing {
                let interval = mf.pacing_interval();
                mf.next_grant_at = mf.next_grant_at.max(now) + interval;
            }
        }
    }

    /// Reclaims grants older than the grant timeout whose `cm_notify`
    /// never arrived (client bug or deliberate decline without a zero
    /// notify); the paper's timer-driven "error handling".
    fn reclaim_expired_grants(&mut self, mf_id: MacroflowId, now: Time) {
        let timeout = self.cfg.grant_timeout;
        let Self {
            mfs,
            flows,
            cold,
            flow_gens,
            stats,
            tracer,
            ..
        } = self;
        let Some(mf) = mfs.get_mut(slot(mf_id.0)).and_then(Option::as_mut) else {
            return;
        };
        while let Some(front) = mf.grant_queue.front().copied() {
            let idx = slot(front.flow.0);
            // A generation mismatch means the flow closed or moved
            // macroflow after this grant was issued; its reservation was
            // released then, so the entry is dropped with no accounting.
            let flow = if flow_gens[idx] == front.gen {
                flows.get_mut(idx).and_then(Option::as_mut)
            } else {
                None
            };
            match flow {
                None => {
                    mf.grant_queue.pop_front();
                }
                Some(f) if f.dead_grant_entries > 0 => {
                    // This entry was resolved by a notify; drop it lazily.
                    f.dead_grant_entries -= 1;
                    mf.grant_queue.pop_front();
                }
                Some(f) => {
                    if now.since(front.issued) < timeout {
                        break;
                    }
                    f.granted = f.granted.saturating_sub(1);
                    mf.granted_unnotified =
                        mf.granted_unnotified.saturating_sub(mf.controller.mtu());
                    stats.grants_reclaimed += 1;
                    tracer.record(
                        now,
                        TraceEvent::GrantReclaimed {
                            flow: front.flow.0,
                            bytes: mf.controller.mtu(),
                        },
                    );
                    // A streak of reclaims with no intervening notify
                    // marks the app unresponsive: park its future
                    // requests for an exponentially growing backoff
                    // instead of burning window on grants it ignores.
                    let c = cold.attach(&mut f.cold);
                    c.reclaim_streak = c.reclaim_streak.saturating_add(1);
                    if c.reclaim_streak >= RECLAIM_STREAK {
                        let level = c.backoff_level.min(MAX_BACKOFF_LEVEL);
                        c.backoff_until = Some(now + BASE_BACKOFF.mul_ratio(1u64 << level, 1));
                        c.backoff_level = (c.backoff_level + 1).min(MAX_BACKOFF_LEVEL);
                        stats.grant_backoffs += 1;
                        tracer.record(now, TraceEvent::BackoffArmed { flow: front.flow.0 });
                    }
                    mf.grant_queue.pop_front();
                }
            }
        }
    }

    /// Emits `cmapp_update`-style callbacks for flows whose rate share
    /// crossed their registered thresholds. One comparison while the
    /// macroflow's unit share stays inside its quiet band. On leaving it,
    /// one pass over the members' own bands — a dense 16-byte slot each,
    /// no `Flow` loaded — re-examines the few whose band was left too,
    /// runs the exact test on those, and rebuilds the macroflow's band as
    /// the intersection of what every member's band now is.
    fn emit_rate_callbacks(&mut self, mf_id: MacroflowId) {
        if self.thresh_regs == 0 {
            return;
        }
        let mtu = self.cfg.mtu;
        let Self {
            mfs,
            flows,
            sched,
            bands,
            cold,
            outbox,
            stats,
            ..
        } = self;
        let Some(mf) = mfs.get_mut(slot(mf_id.0)).and_then(Option::as_mut) else {
            return;
        };
        let Some((rate, total_weight, unit)) = mf.band_exit() else {
            return;
        };
        stats.rate_walks += 1;
        let mut quiet = QuietBand::OPEN;
        for &flow_id in &mf.flows {
            let s = slot(flow_id.0);
            let band = &mut bands[s];
            if !band.contains(unit) {
                stats.rate_rechecks += 1;
                let Some(c) = flows
                    .get(s)
                    .and_then(Option::as_ref)
                    .and_then(|f| cold.get_mut(f.cold))
                else {
                    continue;
                };
                let Some(thresh) = c.update_interest else {
                    continue;
                };
                let last = c.last_reported_rate.unwrap_or(Rate::ZERO);
                let weight = sched[s].weight();
                let current = rate.mul_ratio(weight as u64, total_weight);
                if thresh.crossed(last, current) {
                    outbox.push(CmNotification::RateChange {
                        flow: flow_id,
                        info: flow_info_of(current, mtu, mf),
                    });
                    stats.rate_callbacks += 1;
                    c.last_reported_rate = Some(current);
                    *band = QuietBand::of(current, thresh, weight);
                }
            }
            quiet.intersect(*band);
        }
        mf.quiet = quiet;
    }

    /// Counts one rejected or clamped report against `flow`, giving it a
    /// cold record if it holds none; returns whether the streak has just
    /// quarantined it.
    fn offence(&mut self, flow: FlowId, now: Time) -> bool {
        let Some(f) = self.flows.get_mut(slot(flow.0)).and_then(Option::as_mut) else {
            return false;
        };
        let c = self.cold.attach(&mut f.cold);
        c.inconsistent_streak = c.inconsistent_streak.saturating_add(1);
        let quarantine = c.inconsistent_streak >= QUARANTINE_STREAK;
        if quarantine {
            c.quarantined_until = Some(now + QUARANTINE_PERIOD);
            c.inconsistent_streak = 0;
            self.stats.flows_quarantined += 1;
        }
        quarantine
    }

    fn flow_ref(&self, id: FlowId) -> CmResult<&Flow> {
        self.flows
            .get(slot(id.0))
            .and_then(Option::as_ref)
            .ok_or(CmError::UnknownFlow(id))
    }

    fn flow_mut(&mut self, id: FlowId) -> CmResult<&mut Flow> {
        self.flows
            .get_mut(slot(id.0))
            .and_then(Option::as_mut)
            .ok_or(CmError::UnknownFlow(id))
    }

    fn mf_ref(&self, id: MacroflowId) -> CmResult<&Macroflow> {
        self.mfs
            .get(slot(id.0))
            .and_then(Option::as_ref)
            .ok_or(CmError::UnknownMacroflow(id))
    }

    fn mf_mut(&mut self, id: MacroflowId) -> CmResult<&mut Macroflow> {
        Ok(self.mf_sched(id)?.0)
    }

    /// A macroflow together with the slab its scheduler's operations run
    /// over.
    fn mf_sched(&mut self, id: MacroflowId) -> CmResult<(&mut Macroflow, &mut [SchedSlot])> {
        let mf = self
            .mfs
            .get_mut(slot(id.0))
            .and_then(Option::as_mut)
            .ok_or(CmError::UnknownMacroflow(id))?;
        Ok((mf, &mut self.sched))
    }
}

/// What `cm_query` and a rate callback report to a member of `mf` whose
/// share of its rate is `share`.
fn flow_info_of(share: Rate, mtu: usize, mf: &Macroflow) -> FlowInfo {
    FlowInfo {
        rate: share,
        srtt: mf.rtt.srtt(),
        rttvar: mf.rtt.rttvar(),
        loss_rate: mf.loss_rate.get_or(0.0),
        cwnd: mf.controller.window(),
        mtu,
    }
}

/// Whether flow slot `s` holds a flow opened with `key`.
#[inline]
fn holds_key(flows: &[Option<Flow>], s: u32, key: &FlowKey) -> bool {
    matches!(flows.get(s as usize), Some(Some(f)) if f.key == *key)
}

/// Whether macroflow slot `s` holds the macroflow of `group`.
#[inline]
fn holds_group(mfs: &[Option<Macroflow>], s: u32, group: u64) -> bool {
    matches!(mfs.get(s as usize), Some(Some(mf)) if mf.key.group() == Some(group))
}

/// Swap-removes the member at `pos` from `mf.flows`, repairing the moved
/// flow's back-pointer so membership removal stays O(1). Member lists
/// hold global ids; the slab index is the slot part.
fn remove_member(mf: &mut Macroflow, flows: &mut [Option<Flow>], pos: u32) {
    mf.flows.swap_remove(pos as usize);
    if (pos as usize) < mf.flows.len() {
        let moved = mf.flows[pos as usize];
        if let Some(f) = flows.get_mut(slot(moved.0)).and_then(Option::as_mut) {
            f.mf_pos = pos;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::flow::NO_COLD;
    use crate::types::Endpoint;

    fn cold_of(shard: &Shard, f: FlowId) -> u32 {
        shard.flow_ref(f).expect("live flow").cold
    }

    /// A flow holds no cold record until its first threshold registration
    /// or first offence — a rejected report, a clamped report, a
    /// reclaimed grant — and dropping thresholds it never had takes none.
    #[test]
    fn cold_record_is_taken_on_first_registration_or_offence() {
        let mut shard = Shard::new(CmConfig::default(), 0);
        let key = |p| FlowKey::new(Endpoint::new(1, p), Endpoint::new(2, 80));
        let mut now = Time::ZERO;
        let [registers, rejected, clamped, ignores] =
            [1, 2, 3, 4].map(|p| shard.open(key(p), now).expect("open"));
        shard.set_thresholds(registers, None).expect("drop");
        assert_eq!(cold_of(&shard, registers), NO_COLD);
        shard
            .set_thresholds(registers, Some(Thresholds::default()))
            .expect("register");
        assert_ne!(cold_of(&shard, registers), NO_COLD);

        let honest = FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(30));
        shard.update(ignores, honest, now).expect("honest report");
        assert_eq!(cold_of(&shard, ignores), NO_COLD);
        let absurd = FeedbackReport::ack(MAX_BYTES_PER_REPORT + 1, 1);
        assert!(shard.update(rejected, absurd, now).is_err());
        assert_ne!(cold_of(&shard, rejected), NO_COLD);
        let zero_rtt = FeedbackReport::ack(0, 0).with_rtt(Duration::ZERO);
        shard
            .update(clamped, zero_rtt, now)
            .expect("clamped report");
        assert_ne!(cold_of(&shard, clamped), NO_COLD);

        shard.request(ignores, now).expect("request");
        assert_eq!(shard.flow_ref(ignores).expect("live").granted, 1);
        now += shard.cfg.grant_timeout;
        shard.tick(now);
        assert_eq!(shard.stats.grants_reclaimed, 1);
        let c = cold_of(&shard, ignores);
        assert_eq!(shard.cold.get(c).map(|c| c.reclaim_streak), Some(1));
        assert_eq!(shard.cold.len(), 4);
        shard.validate().expect("shard invariants");
    }

    /// A destination's macroflow holds only flows to that destination:
    /// `merge` refuses another destination's flow, private macroflows
    /// take any, and a move that bypasses the check fails `validate`.
    #[test]
    fn destination_macroflow_holds_only_its_destination() {
        let mut shard = Shard::new(CmConfig::default(), 0);
        let now = Time::ZERO;
        let key = |dst| FlowKey::new(Endpoint::new(1, 1000), Endpoint::new(dst, 80));
        let [a, b] = [2, 3].map(|d| shard.open(key(d), now).expect("open"));
        let home = shard.macroflow_of(a).expect("live");
        let other = shard.macroflow_of(b).expect("live");
        assert_eq!(shard.merge(b, home, now), Err(CmError::DestinationMismatch));
        let private = shard.split(a, now).expect("split");
        shard
            .merge(b, private, now)
            .expect("a private target takes any flow");
        shard.validate().expect("shard invariants");
        shard.move_flow(b, private, home, now).expect("move");
        assert!(shard.validate().is_err(), "foreign member went unseen");
        shard.move_flow(b, home, other, now).expect("move back");
        shard.validate().expect("shard invariants");
    }

    /// Close returns a flow's record, reset, to the free list, and the
    /// next flow that needs a record takes that one rather than growing
    /// the slab; a flow that needs none leaves the free list alone.
    #[test]
    fn close_recycles_the_cold_record() {
        let mut shard = Shard::new(CmConfig::default(), 0);
        let key = |p| FlowKey::new(Endpoint::new(1, p), Endpoint::new(2, 80));
        let now = Time::ZERO;
        let [a, b] = [1, 2].map(|p| shard.open(key(p), now).expect("open"));
        for f in [a, b] {
            shard
                .set_thresholds(f, Some(Thresholds::default()))
                .expect("register");
        }
        let freed = cold_of(&shard, a);
        shard.close(a, now).expect("close");
        shard.validate().expect("shard invariants");
        let plain = shard.open(key(3), now).expect("open");
        assert_eq!(cold_of(&shard, plain), NO_COLD);
        let late = shard.open(key(4), now).expect("open");
        let absurd = FeedbackReport::ack(MAX_BYTES_PER_REPORT + 1, 1);
        assert!(shard.update(late, absurd, now).is_err());
        assert_eq!(cold_of(&shard, late), freed, "the freed record is reused");
        let record = shard.cold.get(freed).copied().expect("record");
        assert_eq!(record.update_interest, None, "the record was reset");
        assert_eq!(record.inconsistent_streak, 1);
        assert_eq!(shard.cold.len(), 2);
        shard.validate().expect("shard invariants");
    }

    /// Ten times the population churns through one shard: each round
    /// closes the oldest tenth of the flows and opens as many fresh keys,
    /// and the fresh keys bring fresh groups while old groups drain,
    /// linger and expire. Neither key index grows past what its peak live
    /// count needs — the smallest power of two holding it at load 1/2 —
    /// and the flow index, whose peak is the population, does not grow at
    /// all once the population is up.
    #[test]
    fn churn_never_grows_the_key_indexes() {
        const FLOWS: u32 = 1_000;
        const PER_GROUP: u32 = 10;
        let key = |n: u32| {
            FlowKey::new(
                Endpoint::new(1, 1 + (n % 60_000) as u16),
                Endpoint::new(0x0a00_0000 + n / PER_GROUP, 80),
            )
        };
        let mut shard = Shard::new(
            CmConfig {
                macroflow_linger: Duration::from_millis(100),
                ..Default::default()
            },
            0,
        );
        let mut now = Time::ZERO;
        let mut live = VecDeque::new();
        let (mut peak_flows, mut peak_groups) = (0, 0);
        let mut next = 0;
        let mut open = |shard: &mut Shard, live: &mut VecDeque<FlowId>, now: Time| {
            live.push_back(shard.open(key(next), now).expect("fresh key"));
            assert_eq!(shard.open(key(next), now), Err(CmError::DuplicateFlow));
            next += 1;
        };
        for _ in 0..FLOWS {
            open(&mut shard, &mut live, now);
            peak_flows = peak_flows.max(shard.flow_index.len());
            peak_groups = peak_groups.max(shard.group_index.len());
        }
        let set_up = shard.flow_index.capacity();
        for _round in 0..100 {
            for _ in 0..FLOWS / 10 {
                let f = live.pop_front().expect("live flow");
                shard.close(f, now).expect("close");
            }
            for _ in 0..FLOWS / 10 {
                open(&mut shard, &mut live, now);
                peak_flows = peak_flows.max(shard.flow_index.len());
                peak_groups = peak_groups.max(shard.group_index.len());
            }
            now += Duration::from_millis(40);
            shard.tick(now);
            shard.validate().expect("shard invariants");
        }
        assert_eq!(next, 11 * FLOWS, "ten populations churned through");
        assert!(shard.stats.macroflows_expired > 900, "groups never expired");
        assert_eq!(peak_flows, FLOWS as usize);
        assert_eq!(shard.flow_index.capacity(), 2_048);
        for (index, peak) in [
            (&shard.flow_index, peak_flows),
            (&shard.group_index, peak_groups),
        ] {
            assert_eq!(index.capacity(), (2 * peak).next_power_of_two());
        }
        assert_eq!(
            shard.flow_index.capacity(),
            set_up,
            "churn grew the flow index"
        );
        for &f in &live {
            let k = shard.flow_ref(f).expect("live").key;
            assert_eq!(shard.lookup(&k), Some(f));
        }
    }
}
