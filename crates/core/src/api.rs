//! The Congestion Manager API.
//!
//! [`CongestionManager`] is the trusted module the paper places in the
//! kernel: clients open flows, request permission to send, report
//! transmissions and feedback, and receive *notifications* — send grants
//! (the paper's `cmapp_send` callback) and rate-change reports (the
//! paper's `cmapp_update` callback) — through an outbox the host stack or
//! `cm-libcm` dispatcher drains after each call.
//!
//! # Window bookkeeping (paper §2, §2.1.3)
//!
//! ```text
//!   cm_request ──▶ scheduler queue ──▶ grant  (reserves one MTU)
//!   cm_notify(n)  converts the reservation into n outstanding bytes
//!   cm_notify(0)  releases the reservation ("decided not to send")
//!   cm_update     resolves outstanding bytes and drives the controller
//!   tick          reclaims grants never notified (timer-driven
//!                 maintenance), ages idle state, expires macroflows
//! ```
//!
//! The invariant maintained is `outstanding + granted_unnotified <= cwnd`
//! (checked by a property test in `tests/`): the ensemble of flows on one
//! macroflow can never have more data in flight than one well-behaved TCP
//! would.
//!
//! # Sharding
//!
//! Internally the CM is a set of shards (`crate::shard::Shard`) keyed by
//! group — a macroflow's destination address: each shard owns its own
//! flow/macroflow slabs, free-lists, generation arrays, and notification
//! outbox, and this type is a thin front over the shard
//! engine (`crate::engine`) that routes every entry point to the owning
//! shard — by the shard index encoded in the id's high bits for
//! flow/macroflow-addressed calls, and by the engine's group→shard
//! router for `open`/`lookup`. Under the default
//! [`crate::config::ShardingMode::Single`] there is exactly one shard
//! and behaviour (ids included) is byte-compatible with the historical
//! unsharded CM; [`crate::config::ShardingMode::ByGroup`] gives each
//! group its own shard, created lazily and kept for the CM's life.
//! `split`/`merge` stay intra-shard by construction: a flow's own
//! destination and its private macroflows live in its home shard, and
//! `merge` accepts no other target. A target in another shard is
//! rejected with [`CmError::CrossShardMerge`] (shards own disjoint
//! slabs) before the destination check runs.

use cm_obs::{FlightRecorder, TraceRecord};
use cm_util::Time;

use crate::config::{CmConfig, ShardingMode};
use crate::engine::{Router, ShardTable};
use crate::error::{CmError, CmResult};
use crate::shard::Shard;
use crate::types::{FeedbackReport, FlowId, FlowInfo, FlowKey, MacroflowId, Thresholds};

/// A deferred callback to a CM client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CmNotification {
    /// Permission for `flow` to send up to one MTU (`cmapp_send`).
    SendGrant {
        /// The flow that may transmit.
        flow: FlowId,
    },
    /// Network conditions changed past the flow's registered thresholds
    /// (`cmapp_update`).
    RateChange {
        /// The flow whose share changed.
        flow: FlowId,
        /// The new state snapshot.
        info: FlowInfo,
    },
}

/// Cumulative counters over a CM's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CmStats {
    /// `open` calls that succeeded.
    pub opens: u64,
    /// `close` calls that succeeded.
    pub closes: u64,
    /// `request` calls.
    pub requests: u64,
    /// Send grants issued.
    pub grants: u64,
    /// `notify` calls.
    pub notifies: u64,
    /// `update` calls.
    pub updates: u64,
    /// `query` calls.
    pub queries: u64,
    /// Rate-change notifications emitted.
    pub rate_callbacks: u64,
    /// Rate-callback checks that left a macroflow's quiet band and walked
    /// its members; every other check (one per `update`, one per
    /// macroflow per `tick`) cost one comparison.
    pub rate_walks: u64,
    /// Members those walks ran the exact threshold test on: the ones
    /// whose own quiet band the unit share had left. Every other member
    /// of a walked macroflow cost two comparisons on a 16-byte slot.
    pub rate_rechecks: u64,
    /// Grants reclaimed by the maintenance timer.
    pub grants_reclaimed: u64,
    /// Outstanding bytes written off after a long feedback-free
    /// interval (several RTOs).
    pub outstanding_reclaimed: u64,
    /// Persistent-congestion signals delivered to the controller when a
    /// feedback-free write-off fired (each collapses the window to a
    /// conservative state instead of silently reopening it).
    pub write_off_congestion_signals: u64,
    /// Macroflows created.
    pub macroflows_created: u64,
    /// Macroflows expired after lingering empty.
    pub macroflows_expired: u64,
    /// Shards created (lazily, on a group's first `open`).
    pub shards_created: u64,
    /// Shards whose slabs a `tick` call actually scanned.
    pub tick_shards_visited: u64,
    /// Quiet shards a `tick` call skipped in O(1) (neither dirtied by an
    /// API call nor left with timed maintenance work).
    pub tick_shards_skipped: u64,
    /// Macroflow slab slots examined across all `tick` scans — the
    /// deterministic measure of maintenance cost the repo benchmark's
    /// `core.shard.tick_mfs_scanned_per_tick` reports (pinned per tick by
    /// the `quiet_shards_skipped_by_tick` test).
    pub tick_mfs_scanned: u64,
    /// `update` reports rejected whole by feedback sanity validation
    /// (impossible byte counts, or the flow was quarantined).
    pub feedback_rejected: u64,
    /// `update` reports whose impossible RTT sample was stripped while
    /// the rest of the report was applied.
    pub feedback_clamped: u64,
    /// Flows quarantined for persistently inconsistent feedback.
    pub flows_quarantined: u64,
    /// Unresponsive-app backoffs armed (a streak of grant reclaims with
    /// no intervening `notify`).
    pub grant_backoffs: u64,
    /// Orphaned flows reaped by the maintenance timer after the opt-in
    /// [`crate::config::CmConfig::orphan_timeout`] of API silence.
    pub flows_reaped: u64,
    /// Ring-full backpressure events in the parallel runtime: command
    /// pushes that found a worker's ring full, plus worker reply pushes
    /// that spilled to the overflow queue
    /// ([`crate::runtime::ShardRuntime`]). Always 0 for the in-process
    /// `CongestionManager`, which has no rings.
    pub ring_stalls: u64,
}

impl CmStats {
    /// Folds another counter set into this one (the front aggregates
    /// per-shard stats on demand). The exhaustive destructuring makes a
    /// counter added to `CmStats` but forgotten here a compile error
    /// instead of a silently-dropped statistic.
    pub(crate) fn accumulate(&mut self, other: &CmStats) {
        let CmStats {
            opens,
            closes,
            requests,
            grants,
            notifies,
            updates,
            queries,
            rate_callbacks,
            rate_walks,
            rate_rechecks,
            grants_reclaimed,
            outstanding_reclaimed,
            write_off_congestion_signals,
            macroflows_created,
            macroflows_expired,
            shards_created,
            tick_shards_visited,
            tick_shards_skipped,
            tick_mfs_scanned,
            feedback_rejected,
            feedback_clamped,
            flows_quarantined,
            grant_backoffs,
            flows_reaped,
            ring_stalls,
        } = *other;
        self.opens += opens;
        self.closes += closes;
        self.requests += requests;
        self.grants += grants;
        self.notifies += notifies;
        self.updates += updates;
        self.queries += queries;
        self.rate_callbacks += rate_callbacks;
        self.rate_walks += rate_walks;
        self.rate_rechecks += rate_rechecks;
        self.grants_reclaimed += grants_reclaimed;
        self.outstanding_reclaimed += outstanding_reclaimed;
        self.write_off_congestion_signals += write_off_congestion_signals;
        self.macroflows_created += macroflows_created;
        self.macroflows_expired += macroflows_expired;
        self.shards_created += shards_created;
        self.tick_shards_visited += tick_shards_visited;
        self.tick_shards_skipped += tick_shards_skipped;
        self.tick_mfs_scanned += tick_mfs_scanned;
        self.feedback_rejected += feedback_rejected;
        self.feedback_clamped += feedback_clamped;
        self.flows_quarantined += flows_quarantined;
        self.grant_backoffs += grant_backoffs;
        self.flows_reaped += flows_reaped;
        self.ring_stalls += ring_stalls;
    }
}

/// The Congestion Manager: a thin front routing every entry point to the
/// owning shard (`crate::shard::Shard`).
///
/// See the crate-level documentation for the API correspondence table and
/// a usage example, and the module docs above for the sharding model.
pub struct CongestionManager {
    /// Group → shard-index routing for `open`/`lookup`.
    router: Router,
    /// The shards; the index is the shard part of every id this CM
    /// hands out.
    table: ShardTable,
}

impl CongestionManager {
    /// Creates a CM with the given configuration. Under the default
    /// single-shard mode the one shard exists from the start; under
    /// [`ShardingMode::ByGroup`] shards are created lazily as groups
    /// first open flows.
    pub fn new(cfg: CmConfig) -> Self {
        let mut table = ShardTable::new(cfg);
        if matches!(cfg.sharding.mode, ShardingMode::Single) {
            table.ensure(0, Time::ZERO);
        }
        CongestionManager {
            router: Router::new(&cfg),
            table,
        }
    }

    /// Lifetime counters, aggregated across all shards.
    ///
    /// # Consistency model
    ///
    /// The in-process CM is single-threaded, so this aggregate is a
    /// true instantaneous snapshot: every per-shard counter block is
    /// read with no CM entry point in flight, counters are monotone
    /// (successive calls never regress), and no read is torn. The parallel front
    /// ([`crate::runtime::ShardRuntime::stats`]) keeps the per-shard
    /// snapshot and monotonicity guarantees but relaxes the global
    /// instant — see its documentation for the exact model.
    pub fn stats(&self) -> CmStats {
        self.table.stats()
    }

    // ------------------------------------------------------------------
    // State management (paper §2.1.1)
    // ------------------------------------------------------------------

    /// Opens a flow (`cm_open`), assigning it to its destination host's
    /// macroflow — joining (and reusing the learned state of) the
    /// destination's existing macroflow, or creating one with fresh
    /// congestion state for the destination's first flow. In sharded
    /// mode this is also where the group's shard is created (lazily) and
    /// the returned id carries its shard index.
    pub fn open(&mut self, key: FlowKey, now: Time) -> CmResult<FlowId> {
        let sid = self.router.route_open(&key);
        self.table.ensure(sid, now).open(key, now)
    }

    /// Closes a flow (`cm_close`). The macroflow's congestion state
    /// persists (lingering per config) so later flows to the same
    /// destination inherit it — the effect Figure 7 measures.
    pub fn close(&mut self, flow: FlowId, now: Time) -> CmResult<()> {
        self.flow_shard_mut(flow)?.close(flow, now)
    }

    /// The flow's maximum transmission unit (`cm_mtu`): the most it may
    /// send per grant.
    pub fn mtu(&self, flow: FlowId) -> CmResult<usize> {
        self.flow_shard_ref(flow)?.mtu(flow)
    }

    /// Looks up an open flow by its 4-tuple — the "well-defined CM
    /// interface" the IP output routine uses to find the flow to charge
    /// (paper §2.1.3).
    pub fn lookup(&self, key: &FlowKey) -> Option<FlowId> {
        self.table.get(self.router.route_key(key)?)?.lookup(key)
    }

    /// Sets a flow's scheduler weight (extension; the paper's default
    /// scheduler is unweighted).
    pub fn set_weight(&mut self, flow: FlowId, weight: u32) -> CmResult<()> {
        self.flow_shard_mut(flow)?.set_weight(flow, weight)
    }

    // ------------------------------------------------------------------
    // Data transmission (paper §2.1.2)
    // ------------------------------------------------------------------

    /// Requests permission to send up to one MTU (`cm_request`). The
    /// grant arrives as a [`CmNotification::SendGrant`] — immediately if
    /// the macroflow's window has room, or later when feedback opens it.
    pub fn request(&mut self, flow: FlowId, now: Time) -> CmResult<()> {
        self.flow_shard_mut(flow)?.request(flow, now)
    }

    // ------------------------------------------------------------------
    // Application notifications (paper §2.1.3)
    // ------------------------------------------------------------------

    /// Reports an actual transmission (`cm_notify`), normally called by
    /// the IP output routine: charges `bytes_sent` to the macroflow and
    /// resolves one outstanding grant. A zero-byte notify releases the
    /// grant so other flows may use the window — the required behaviour
    /// when a client declines its `cmapp_send` callback.
    pub fn notify(&mut self, flow: FlowId, bytes_sent: u64, now: Time) -> CmResult<()> {
        self.flow_shard_mut(flow)?.notify(flow, bytes_sent, now)
    }

    /// Reports receiver feedback (`cm_update`): acknowledged and lost
    /// bytes, the congestion kind, and an optional RTT sample. Drives the
    /// congestion controller, the shared RTT estimate, and the loss-rate
    /// EWMA; newly opened window is granted out and rate callbacks fire.
    pub fn update(&mut self, flow: FlowId, report: FeedbackReport, now: Time) -> CmResult<()> {
        self.flow_shard_mut(flow)?.update(flow, report, now)
    }

    // ------------------------------------------------------------------
    // Querying (paper §2.1.4)
    // ------------------------------------------------------------------

    /// Returns the flow's view of network state (`cm_query`): its rate
    /// share, the shared smoothed RTT, and the loss estimate. Idle aging
    /// is applied first so a stale macroflow reports a decayed rate.
    pub fn query(&mut self, flow: FlowId, now: Time) -> CmResult<FlowInfo> {
        self.flow_shard_mut(flow)?.query(flow, now)
    }

    /// Registers (or, with `None`, cancels) interest in rate callbacks
    /// (`cm_register_update` + `cm_thresh`). The next threshold crossing
    /// emits a [`CmNotification::RateChange`].
    pub fn set_thresholds(&mut self, flow: FlowId, thresholds: Option<Thresholds>) -> CmResult<()> {
        self.flow_shard_mut(flow)?.set_thresholds(flow, thresholds)
    }

    // ------------------------------------------------------------------
    // Macroflow construction (paper §2.1, §5)
    // ------------------------------------------------------------------

    /// The macroflow a flow currently belongs to.
    pub fn macroflow_of(&self, flow: FlowId) -> CmResult<MacroflowId> {
        self.flow_shard_ref(flow)?.macroflow_of(flow)
    }

    /// The flows grouped under a macroflow.
    pub fn flows_in(&self, mf: MacroflowId) -> CmResult<&[FlowId]> {
        self.mf_shard_ref(mf)?.flows_in(mf)
    }

    /// Moves `flow` onto a brand-new private macroflow with fresh
    /// congestion state (splitting it from its destination's
    /// aggregate). The shared RTT estimate is inherited — the path did
    /// not change — but window state starts over. The private macroflow
    /// is created in the flow's own shard.
    ///
    /// The flow must have no unresolved grants (issue `cm_notify(0)` or
    /// send first); its scheduler weight and pending (ungranted)
    /// requests move with it.
    pub fn split(&mut self, flow: FlowId, now: Time) -> CmResult<MacroflowId> {
        self.flow_shard_mut(flow)?.split(flow, now)
    }

    /// Moves `flow` onto an existing macroflow (`merge`). The target must
    /// aggregate the flow's own destination or be private (made by
    /// `split`); any other target is rejected with
    /// [`CmError::DestinationMismatch`], so every member of a
    /// destination's macroflow goes to that destination. In sharded mode
    /// the target must also live in the flow's shard — always so for the
    /// flow's own destination and for the private macroflows its own
    /// `split` created — or the call fails with
    /// [`CmError::CrossShardMerge`]. The flow must have no unresolved
    /// grants; its scheduler weight and pending requests move with it.
    pub fn merge(&mut self, flow: FlowId, into: MacroflowId, now: Time) -> CmResult<()> {
        if flow.shard() != into.shard() {
            return Err(CmError::CrossShardMerge);
        }
        self.flow_shard_mut(flow)?.merge(flow, into, now)
    }

    // ------------------------------------------------------------------
    // Maintenance (the paper's "timer-driven component ... background
    // tasks and error handling")
    // ------------------------------------------------------------------

    /// Runs periodic maintenance: reclaims grants whose clients never
    /// notified, ages idle macroflows, grants freshly available window,
    /// and expires long-empty macroflows. Hosts call this from a coarse
    /// timer (tens to hundreds of milliseconds).
    ///
    /// The walk is per-shard, and a *quiet* shard — no API call since
    /// its last scan and no timed work left behind — costs one branch,
    /// not a slab scan, so a host with many idle groups does not pay for
    /// them on every timer fire ([`CmStats::tick_shards_skipped`] counts
    /// these). A shard that empties stays for the CM's life.
    pub fn tick(&mut self, now: Time) {
        self.table.tick(now);
    }

    /// The earliest instant a pacing-deferred grant becomes releasable,
    /// if any macroflow has queued requests it is holding back. The host
    /// should arm a timer for this instant and then call
    /// [`CongestionManager::release_paced`].
    pub fn next_grant_deadline(&self) -> Option<Time> {
        self.table
            .iter()
            .filter_map(|(_, s)| s.next_grant_deadline())
            .min()
    }

    /// Releases any grants whose pacing deadline has passed.
    pub fn release_paced(&mut self, now: Time) {
        for shard in self.table.iter_mut() {
            shard.release_paced(now);
        }
    }

    /// Drains all pending notifications into `out` (appending), reusing
    /// the caller's buffer — the allocation-free drain the host's settle
    /// loop (and every other steady-state caller) runs on each event.
    /// Order is preserved within a shard; across shards the walk is in
    /// shard-index order (cross-shard ordering carries no semantics —
    /// shards share no congestion state).
    pub fn drain_notifications_into(&mut self, out: &mut Vec<CmNotification>) {
        self.table.drain_into(out);
    }

    // ------------------------------------------------------------------
    // Sharding control and introspection
    // ------------------------------------------------------------------

    /// Hands a fresh CM's router and shard table to
    /// [`crate::runtime::ShardRuntime::new`].
    pub(crate) fn into_parallel(
        self,
        parallel: crate::runtime::ParallelConfig,
    ) -> crate::runtime::ShardRuntime {
        crate::runtime::ShardRuntime::from_parts(self.router, self.table, parallel)
    }

    // ------------------------------------------------------------------
    // Observability: the flight recorder (see docs/observability.md)
    // ------------------------------------------------------------------

    /// One live shard's flight recorder (`None` for a vacant slot or
    /// when tracing is disabled).
    pub fn shard_trace(&self, shard: u32) -> Option<&FlightRecorder> {
        self.table.get(shard)?.tracer.recorder()
    }

    /// Visits every retained trace record without allocating: the
    /// front's shard-lifecycle events first (`shard` = `None`), then
    /// each live shard's ring (`shard` = its index), oldest record
    /// first within each ring. Sequence numbers are per-ring; callers
    /// that need one global order should sort by [`TraceRecord::at`].
    /// Dump emitters and the chaos harness's post-mortem reports are
    /// built on this.
    pub fn for_each_trace_record(&self, mut f: impl FnMut(Option<u32>, &TraceRecord)) {
        if let Some(rec) = self.table.tracer().recorder() {
            for r in rec.iter() {
                f(None, r);
            }
        }
        for (i, shard) in self.table.iter() {
            let Some(rec) = shard.tracer.recorder() else {
                continue;
            };
            for r in rec.iter() {
                f(Some(i), r);
            }
        }
    }

    /// Number of shards (1 under the default single-shard mode): the
    /// groups seen so far, capped at `max_shards`, under by-group mode.
    /// Shards live as long as the CM, so their indices are `0..count`.
    pub fn shard_count(&self) -> usize {
        self.router.assigned()
    }

    /// Number of open flows (all shards).
    pub fn flow_count(&self) -> usize {
        self.table.iter().map(|(_, s)| s.flow_count()).sum()
    }

    /// Checks every shard's structural invariants — slab/free-list
    /// consistency (no leaked or double-freed slots), flow ↔ macroflow
    /// membership bijection, grant-reservation accounting, and
    /// parked-request bookkeeping. Built for the chaos harness and
    /// property tests; it scans every slab, so it is not meant for hot
    /// paths. Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.table.validate()
    }

    /// Number of live macroflows (including empty, lingering ones).
    pub fn macroflow_count(&self) -> usize {
        self.table.iter().map(|(_, s)| s.macroflow_count()).sum()
    }

    /// Total flow-slab capacity (live + recyclable slots) across shards.
    /// Each shard's slab is bounded by *its* peak concurrent flow count,
    /// regardless of churn — the regression tests assert this stays
    /// flat; see [`CongestionManager::flow_slab_capacity_of`] for the
    /// per-shard figure.
    pub fn flow_slab_capacity(&self) -> usize {
        self.table.iter().map(|(_, s)| s.flow_slab_capacity()).sum()
    }

    /// One shard's flow-slab capacity (0 for a vacant slot).
    pub fn flow_slab_capacity_of(&self, shard: u32) -> usize {
        self.table.get(shard).map_or(0, |s| s.flow_slab_capacity())
    }

    /// Total macroflow-slab capacity across shards; per shard it is
    /// bounded by that shard's peak concurrent macroflow count.
    pub fn macroflow_slab_capacity(&self) -> usize {
        self.table
            .iter()
            .map(|(_, s)| s.macroflow_slab_capacity())
            .sum()
    }

    /// One shard's macroflow-slab capacity (0 for a vacant slot).
    pub fn macroflow_slab_capacity_of(&self, shard: u32) -> usize {
        self.table
            .get(shard)
            .map_or(0, |s| s.macroflow_slab_capacity())
    }

    /// Expired macroflow shells parked for reuse across live shards
    /// (each shard's pool is bounded by its peak concurrent macroflow
    /// count).
    pub fn macroflow_pool_len(&self) -> usize {
        self.table.iter().map(|(_, s)| s.macroflow_pool_len()).sum()
    }

    /// The scheduler weight registered for `flow` on its current
    /// macroflow (1 under unweighted disciplines). Pinned by the
    /// weight-preservation regression tests: migration via `split` or
    /// `merge` must never reset it.
    pub fn weight_of(&self, flow: FlowId) -> CmResult<u32> {
        self.flow_shard_ref(flow)?.weight_of(flow)
    }

    /// Pending (requested but ungranted) sends for `flow`.
    pub fn pending_of(&self, flow: FlowId) -> CmResult<u32> {
        self.flow_shard_ref(flow)?.pending_of(flow)
    }

    /// The macroflow's congestion window in bytes.
    pub fn window_of(&self, mf: MacroflowId) -> CmResult<u64> {
        self.mf_shard_ref(mf)?.window_of(mf)
    }

    /// The macroflow's outstanding (unacknowledged) bytes.
    pub fn outstanding_of(&self, mf: MacroflowId) -> CmResult<u64> {
        self.mf_shard_ref(mf)?.outstanding_of(mf)
    }

    /// The macroflow's window bytes reserved by unclaimed grants.
    pub fn reserved_of(&self, mf: MacroflowId) -> CmResult<u64> {
        self.mf_shard_ref(mf)?.reserved_of(mf)
    }

    /// A state snapshot for `flow` without the query bookkeeping.
    pub fn flow_info(&self, flow: FlowId, mf_id: MacroflowId) -> CmResult<FlowInfo> {
        if flow.shard() != mf_id.shard() {
            return Err(CmError::UnknownMacroflow(mf_id));
        }
        self.flow_shard_ref(flow)?.flow_info(flow, mf_id)
    }

    // ------------------------------------------------------------------
    // Internals: routing
    // ------------------------------------------------------------------

    /// The shard owning a flow id, for read-only access.
    fn flow_shard_ref(&self, flow: FlowId) -> CmResult<&Shard> {
        self.table
            .get(flow.shard())
            .ok_or(CmError::UnknownFlow(flow))
    }

    /// The shard owning a flow id, for mutation (marked dirty so the
    /// next tick scans it).
    fn flow_shard_mut(&mut self, flow: FlowId) -> CmResult<&mut Shard> {
        self.table
            .route(flow.shard())
            .ok_or(CmError::UnknownFlow(flow))
    }

    fn mf_shard_ref(&self, mf: MacroflowId) -> CmResult<&Shard> {
        self.table
            .get(mf.shard())
            .ok_or(CmError::UnknownMacroflow(mf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Endpoint, LossMode};
    use cm_util::Duration;

    fn key(sport: u16, daddr: u32) -> FlowKey {
        FlowKey::new(Endpoint::new(1, sport), Endpoint::new(daddr, 80))
    }

    fn drain(cm: &mut CongestionManager) -> Vec<CmNotification> {
        let mut out = Vec::new();
        cm.drain_notifications_into(&mut out);
        out
    }

    fn grants_in(notes: &[CmNotification]) -> Vec<FlowId> {
        notes
            .iter()
            .filter_map(|n| match n {
                CmNotification::SendGrant { flow } => Some(*flow),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn open_groups_by_destination() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let f2 = cm.open(key(1001, 9), Time::ZERO).unwrap();
        let f3 = cm.open(key(1002, 7), Time::ZERO).unwrap();
        assert_eq!(cm.macroflow_of(f1).unwrap(), cm.macroflow_of(f2).unwrap());
        assert_ne!(cm.macroflow_of(f1).unwrap(), cm.macroflow_of(f3).unwrap());
        assert_eq!(cm.macroflow_count(), 2);
        assert_eq!(cm.flow_count(), 3);
    }

    #[test]
    fn duplicate_open_rejected() {
        let mut cm = CongestionManager::new(CmConfig::default());
        cm.open(key(1000, 9), Time::ZERO).unwrap();
        assert_eq!(
            cm.open(key(1000, 9), Time::ZERO),
            Err(CmError::DuplicateFlow)
        );
    }

    #[test]
    fn tracing_disabled_by_default() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        cm.request(f, Time::ZERO).unwrap();
        assert!(cm.shard_trace(0).is_none());
        let mut seen = 0;
        cm.for_each_trace_record(|_, _| seen += 1);
        assert_eq!(seen, 0);
    }

    #[test]
    fn tracer_captures_the_grant_cycle() {
        use crate::config::TracingConfig;
        let mut cm = CongestionManager::new(CmConfig {
            pacing: false,
            tracing: Some(TracingConfig::default()),
            ..Default::default()
        });
        let mut now = Time::ZERO;
        let f = cm.open(key(1000, 9), now).unwrap();
        cm.request(f, now).unwrap();
        for n in drain(&mut cm) {
            if let CmNotification::SendGrant { flow } = n {
                cm.notify(flow, 1460, now).unwrap();
            }
        }
        now += Duration::from_millis(50);
        cm.update(
            f,
            FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(50)),
            now,
        )
        .unwrap();
        now += Duration::from_millis(50);
        cm.update(f, FeedbackReport::ack(1460, 1), now).unwrap();
        cm.close(f, now).unwrap();

        let mut kinds = Vec::new();
        cm.for_each_trace_record(|shard, r| kinds.push((shard, r.event.kind())));
        for expected in [
            "flow_opened",
            "grant_issued",
            "feedback_accepted",
            "flow_closed",
        ] {
            assert!(
                kinds.iter().any(|(s, k)| *s == Some(0) && *k == expected),
                "missing {expected} in {kinds:?}"
            );
        }
    }

    /// Regression: outstanding bytes whose feedback never arrives (the
    /// sender closed, the ACK was lost) must not hold window forever —
    /// with a collapsed 1-MTU window, even a few leaked bytes would
    /// otherwise wedge the macroflow permanently.
    #[test]
    fn stale_outstanding_reclaimed_after_feedback_free_rto() {
        let mut cm = CongestionManager::new(CmConfig {
            pacing: false,
            ..Default::default()
        });
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let mf = cm.macroflow_of(f).unwrap();
        cm.request(f, Time::ZERO).unwrap();
        for n in drain(&mut cm) {
            if let CmNotification::SendGrant { flow } = n {
                cm.notify(flow, 1460, Time::ZERO).unwrap();
            }
        }
        assert_eq!(cm.outstanding_of(mf).unwrap(), 1460);
        // The window (IW = 1 MTU) is now fully consumed: no grants.
        cm.request(f, Time::ZERO).unwrap();
        assert_eq!(grants_in(&drain(&mut cm)), vec![]);
        // Feedback never arrives. After several feedback-free RTOs the
        // maintenance timer writes the bytes off and grants flow again.
        let later = Time::from_secs(30);
        cm.tick(later);
        assert_eq!(cm.outstanding_of(mf).unwrap(), 0);
        assert_eq!(cm.stats().outstanding_reclaimed, 1460);
        assert_eq!(grants_in(&drain(&mut cm)), vec![f]);
    }

    /// Regression: a long-idle sender whose in-flight data evaporated
    /// must come back in a *conservative* state. The write-off may not
    /// silently reopen the learned window — silence that long is a
    /// persistent-congestion signal, so the controller collapses to its
    /// initial window and growth stays frozen for one RTT.
    #[test]
    fn feedback_free_write_off_enters_conservative_state() {
        let mut cm = CongestionManager::new(CmConfig {
            pacing: false,
            ..Default::default()
        });
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let mf = cm.macroflow_of(f).unwrap();
        // Grow the window well past the initial 1 MTU.
        let mut now = Time::ZERO;
        for _ in 0..6 {
            cm.request(f, now).unwrap();
            for n in drain(&mut cm) {
                if let CmNotification::SendGrant { flow } = n {
                    cm.notify(flow, 1460, now).unwrap();
                }
            }
            cm.update(
                f,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(50)),
                now,
            )
            .unwrap();
            now += Duration::from_millis(50);
        }
        let learned = cm.window_of(mf).unwrap();
        assert!(learned >= 4 * 1460, "window never grew ({learned})");
        // One last burst goes out... and every ACK is lost. The sender
        // then idles for a long time.
        cm.request(f, now).unwrap();
        for n in drain(&mut cm) {
            if let CmNotification::SendGrant { flow } = n {
                cm.notify(flow, 1460, now).unwrap();
            }
        }
        assert!(cm.outstanding_of(mf).unwrap() > 0);
        let much_later = now + Duration::from_secs(60);
        cm.tick(much_later);
        // The stale bytes are written off AND the controller was told —
        // the window is back at its initial value, not the stale one.
        assert_eq!(cm.outstanding_of(mf).unwrap(), 0);
        assert_eq!(cm.stats().write_off_congestion_signals, 1);
        assert_eq!(cm.window_of(mf).unwrap(), 1460, "window silently reopened");
        // Growth stays frozen for one RTT after the signal: an immediate
        // ACK must not re-inflate the window.
        cm.update(f, FeedbackReport::ack(1460, 1), much_later)
            .unwrap();
        assert_eq!(cm.window_of(mf).unwrap(), 1460, "grew during recovery");
        // After the freeze the sender probes up from the floor as usual.
        let after = much_later + Duration::from_secs(1);
        cm.update(f, FeedbackReport::ack(1460, 1), after).unwrap();
        assert!(cm.window_of(mf).unwrap() > 1460, "never recovered");
    }

    /// Outstanding bytes with live feedback are never written off: the
    /// reclamation is gated on a long feedback-free interval, not age.
    #[test]
    fn active_outstanding_not_reclaimed() {
        let mut cm = CongestionManager::new(CmConfig {
            pacing: false,
            ..Default::default()
        });
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let mf = cm.macroflow_of(f).unwrap();
        let mut now = Time::ZERO;
        // A steady send/ack rhythm with a constant 1460 bytes in flight.
        cm.request(f, now).unwrap();
        for n in drain(&mut cm) {
            if let CmNotification::SendGrant { flow } = n {
                cm.notify(flow, 1460, now).unwrap();
            }
        }
        for _ in 0..100 {
            now += Duration::from_millis(50);
            cm.update(
                f,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(50)),
                now,
            )
            .unwrap();
            cm.request(f, now).unwrap();
            for n in drain(&mut cm) {
                if let CmNotification::SendGrant { flow } = n {
                    cm.notify(flow, 1460, now).unwrap();
                }
            }
            cm.tick(now);
        }
        assert_eq!(cm.stats().outstanding_reclaimed, 0);
        assert_eq!(cm.outstanding_of(mf).unwrap(), 1460);
    }

    #[test]
    fn initial_window_grants_one_mtu() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        cm.request(f, Time::ZERO).unwrap();
        cm.request(f, Time::ZERO).unwrap();
        let notes = drain(&mut cm);
        // IW = 1 MTU: only the first request is granted.
        assert_eq!(grants_in(&notes), vec![f]);
        // After notify + ack, the window doubles and the queued request
        // plus one more can be granted.
        cm.notify(f, 1460, Time::ZERO).unwrap();
        cm.update(
            f,
            FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(50)),
            Time::from_millis(50),
        )
        .unwrap();
        let notes = drain(&mut cm);
        assert_eq!(grants_in(&notes).len(), 1);
    }

    #[test]
    fn grant_accounting_invariant_holds() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let mf = cm.macroflow_of(f).unwrap();
        let mut now = Time::ZERO;
        for round in 0..20u64 {
            cm.request(f, now).unwrap();
            for n in drain(&mut cm) {
                if let CmNotification::SendGrant { flow } = n {
                    cm.notify(flow, 1460, now).unwrap();
                }
            }
            cm.update(
                f,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(40)),
                now,
            )
            .unwrap();
            let cwnd = cm.window_of(mf).unwrap();
            let used = cm.outstanding_of(mf).unwrap() + cm.reserved_of(mf).unwrap();
            assert!(used <= cwnd, "round {round}: used {used} > cwnd {cwnd}");
            now += Duration::from_millis(40);
        }
    }

    #[test]
    fn zero_notify_releases_window_to_other_flow() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let f2 = cm.open(key(1001, 9), Time::ZERO).unwrap();
        cm.request(f1, Time::ZERO).unwrap();
        cm.request(f2, Time::ZERO).unwrap();
        // One MTU window: only f1 granted.
        assert_eq!(grants_in(&drain(&mut cm)), vec![f1]);
        // f1 declines; the window passes to f2.
        cm.notify(f1, 0, Time::ZERO).unwrap();
        assert_eq!(grants_in(&drain(&mut cm)), vec![f2]);
    }

    #[test]
    fn round_robin_across_flows() {
        // Pacing off: this test checks scheduler ordering, not timing.
        let mut cm = CongestionManager::new(CmConfig {
            pacing: false,
            ..Default::default()
        });
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let f2 = cm.open(key(1001, 9), Time::ZERO).unwrap();
        let mut now = Time::ZERO;
        // Grow the window first with f1 traffic.
        for _ in 0..4 {
            cm.request(f1, now).unwrap();
            for n in drain(&mut cm) {
                if let CmNotification::SendGrant { flow } = n {
                    cm.notify(flow, 1460, now).unwrap();
                }
            }
            cm.update(
                f1,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(10)),
                now,
            )
            .unwrap();
            now += Duration::from_millis(10);
        }
        // Window is now several MTUs; queue 2 requests per flow.
        for _ in 0..2 {
            cm.request(f1, now).unwrap();
            cm.request(f2, now).unwrap();
        }
        let order = grants_in(&drain(&mut cm));
        assert_eq!(order.len(), 4);
        // Round-robin alternation.
        assert_ne!(order[0], order[1]);
        assert_ne!(order[2], order[3]);
    }

    #[test]
    fn persistent_loss_collapses_window() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let mf = cm.macroflow_of(f).unwrap();
        let mut now = Time::ZERO;
        for _ in 0..5 {
            cm.request(f, now).unwrap();
            for n in drain(&mut cm) {
                if let CmNotification::SendGrant { flow } = n {
                    cm.notify(flow, 1460, now).unwrap();
                }
            }
            cm.update(
                f,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(10)),
                now,
            )
            .unwrap();
            now += Duration::from_millis(10);
        }
        assert!(cm.window_of(mf).unwrap() > 1460);
        cm.update(f, FeedbackReport::loss(LossMode::Persistent, 1460), now)
            .unwrap();
        assert_eq!(cm.window_of(mf).unwrap(), 1460);
    }

    #[test]
    fn new_flow_inherits_learned_state() {
        // The Figure 7 effect: open, grow, close, reopen — the second
        // flow starts with the learned window, not IW.
        let mut cm = CongestionManager::new(CmConfig::default());
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let mf = cm.macroflow_of(f1).unwrap();
        let mut now = Time::ZERO;
        for _ in 0..6 {
            cm.request(f1, now).unwrap();
            for n in drain(&mut cm) {
                if let CmNotification::SendGrant { flow } = n {
                    cm.notify(flow, 1460, now).unwrap();
                }
            }
            cm.update(
                f1,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(20)),
                now,
            )
            .unwrap();
            now += Duration::from_millis(20);
        }
        let learned = cm.window_of(mf).unwrap();
        assert!(learned >= 4 * 1460);
        cm.close(f1, now).unwrap();
        // Reopen 100 ms later (well within linger).
        now += Duration::from_millis(100);
        let f2 = cm.open(key(1001, 9), now).unwrap();
        assert_eq!(cm.macroflow_of(f2).unwrap(), mf);
        let w = cm.window_of(mf).unwrap();
        assert!(w >= learned / 2, "window {w} lost too much state");
    }

    #[test]
    fn macroflow_expires_after_linger() {
        let mut cm = CongestionManager::new(CmConfig {
            macroflow_linger: Duration::from_secs(1),
            ..Default::default()
        });
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        cm.close(f, Time::ZERO).unwrap();
        cm.tick(Time::from_millis(500));
        assert_eq!(cm.macroflow_count(), 1);
        cm.tick(Time::from_secs(2));
        assert_eq!(cm.macroflow_count(), 0);
        // A new open creates fresh state.
        let f2 = cm.open(key(1000, 9), Time::from_secs(3)).unwrap();
        let mf = cm.macroflow_of(f2).unwrap();
        assert_eq!(cm.window_of(mf).unwrap(), 1460);
    }

    #[test]
    fn unclaimed_grant_reclaimed_by_tick() {
        let mut cm = CongestionManager::new(CmConfig {
            grant_timeout: Duration::from_millis(100),
            ..Default::default()
        });
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let f2 = cm.open(key(1001, 9), Time::ZERO).unwrap();
        cm.request(f1, Time::ZERO).unwrap();
        cm.request(f2, Time::ZERO).unwrap();
        assert_eq!(grants_in(&drain(&mut cm)), vec![f1]);
        // f1 never notifies. After the timeout, tick reclaims and f2 is
        // granted.
        cm.tick(Time::from_millis(200));
        assert_eq!(grants_in(&drain(&mut cm)), vec![f2]);
        assert_eq!(cm.stats().grants_reclaimed, 1);
    }

    #[test]
    fn rate_callbacks_fire_on_threshold_crossing() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        cm.set_thresholds(f, Some(Thresholds::new(0.5, 2.0)))
            .unwrap();
        let mut now = Time::ZERO;
        let mut rate_notes = Vec::new();
        // Drive traffic so the rate rises from zero.
        for _ in 0..6 {
            cm.request(f, now).unwrap();
            for n in drain(&mut cm) {
                match n {
                    CmNotification::SendGrant { flow } => {
                        cm.notify(flow, 1460, now).unwrap();
                    }
                    CmNotification::RateChange { .. } => rate_notes.push(n),
                }
            }
            cm.update(
                f,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(20)),
                now,
            )
            .unwrap();
            now += Duration::from_millis(20);
        }
        rate_notes.extend(
            drain(&mut cm)
                .into_iter()
                .filter(|n| matches!(n, CmNotification::RateChange { .. })),
        );
        assert!(!rate_notes.is_empty(), "no rate callbacks fired");
        assert!(cm.stats().rate_callbacks > 0);
    }

    #[test]
    fn query_returns_shared_rtt() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let f2 = cm.open(key(1001, 9), Time::ZERO).unwrap();
        cm.update(
            f1,
            FeedbackReport::ack(0, 0).with_rtt(Duration::from_millis(80)),
            Time::ZERO,
        )
        .unwrap();
        // f2 sees the RTT learned from f1's feedback.
        let info = cm.query(f2, Time::ZERO).unwrap();
        assert_eq!(info.srtt, Some(Duration::from_millis(80)));
    }

    #[test]
    fn split_gets_fresh_window_and_inherited_rtt() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let f2 = cm.open(key(1001, 9), Time::ZERO).unwrap();
        let mut now = Time::ZERO;
        for _ in 0..5 {
            cm.request(f1, now).unwrap();
            for n in drain(&mut cm) {
                if let CmNotification::SendGrant { flow } = n {
                    cm.notify(flow, 1460, now).unwrap();
                }
            }
            cm.update(
                f1,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(30)),
                now,
            )
            .unwrap();
            now += Duration::from_millis(30);
        }
        let old_mf = cm.macroflow_of(f2).unwrap();
        let new_mf = cm.split(f2, now).unwrap();
        assert_ne!(old_mf, new_mf);
        assert_eq!(cm.window_of(new_mf).unwrap(), 1460);
        let info = cm.query(f2, now).unwrap();
        assert!(info.srtt.is_some(), "RTT estimate should be inherited");
        // Merge back.
        cm.merge(f2, old_mf, now).unwrap();
        assert_eq!(cm.macroflow_of(f2).unwrap(), old_mf);
    }

    #[test]
    fn merge_rejects_destination_mismatch() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let f2 = cm.open(key(1001, 7), Time::ZERO).unwrap();
        let mf1 = cm.macroflow_of(f1).unwrap();
        assert_eq!(
            cm.merge(f2, mf1, Time::ZERO),
            Err(CmError::DestinationMismatch)
        );
        assert_ne!(cm.macroflow_of(f2).unwrap(), mf1);
    }

    /// Regression (satellite fix): a scheduler weight set via
    /// `set_weight` — and any pending requests — must survive every
    /// migration path: split and merge back. Previously nothing pinned
    /// this; a migration that re-registered the flow at the default
    /// weight would silently revert `set_weight`.
    #[test]
    fn weight_and_pending_survive_split_and_merge() {
        use crate::config::SchedulerKind;
        let mut cm = CongestionManager::new(CmConfig {
            scheduler: SchedulerKind::WeightedRoundRobin,
            pacing: false,
            ..Default::default()
        });
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let f2 = cm.open(key(1001, 9), Time::ZERO).unwrap();
        let home = cm.macroflow_of(f1).unwrap();
        cm.set_weight(f1, 5).unwrap();
        assert_eq!(cm.weight_of(f1).unwrap(), 5);
        // Exhaust the 1-MTU initial window with f2 so f1's requests stay
        // pending, then queue two requests on f1.
        cm.request(f2, Time::ZERO).unwrap();
        let _ = drain(&mut cm);
        cm.request(f1, Time::ZERO).unwrap();
        cm.request(f1, Time::ZERO).unwrap();
        assert_eq!(cm.pending_of(f1).unwrap(), 2);

        let private = cm.split(f1, Time::ZERO).unwrap();
        assert_eq!(cm.weight_of(f1).unwrap(), 5, "weight reset by split");
        // The fresh private window grants one of the migrated requests
        // immediately; nothing was silently dropped.
        let mut granted = grants_in(&drain(&mut cm));
        assert_eq!(
            cm.pending_of(f1).unwrap() + granted.len() as u32,
            2,
            "pending requests lost in split"
        );
        // Decline every grant (each release lets the next pending
        // request through) so the flow is migratable again.
        while !granted.is_empty() {
            for g in granted.drain(..) {
                cm.notify(g, 0, Time::ZERO).unwrap();
            }
            granted = grants_in(&drain(&mut cm));
        }

        cm.merge(f1, home, Time::ZERO).unwrap();
        assert_eq!(cm.weight_of(f1).unwrap(), 5, "weight reset by merge");
        assert_eq!(cm.macroflow_of(f1).unwrap(), home);
        // f2 was never migrated: still on the home macroflow, and f1's
        // round trip left the private macroflow empty.
        assert_eq!(cm.macroflow_of(f2).unwrap(), home);
        assert!(cm.flows_in(private).unwrap().is_empty());
    }

    /// Expired macroflow shells are parked and reused, so macroflow
    /// churn does not rebuild controller boxes.
    #[test]
    fn expired_macroflow_shells_are_pooled() {
        let mut cm = CongestionManager::new(CmConfig {
            macroflow_linger: Duration::from_millis(100),
            ..Default::default()
        });
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        cm.close(f, Time::ZERO).unwrap();
        cm.tick(Time::from_secs(1));
        assert_eq!(cm.macroflow_count(), 0);
        assert_eq!(cm.macroflow_pool_len(), 1);
        // The next open reuses the pooled shell with pristine state.
        let f2 = cm.open(key(1000, 7), Time::from_secs(2)).unwrap();
        assert_eq!(cm.macroflow_pool_len(), 0);
        assert_eq!(cm.macroflow_slab_capacity(), 1);
        let mf = cm.macroflow_of(f2).unwrap();
        assert_eq!(cm.window_of(mf).unwrap(), 1460);
        assert_eq!(cm.outstanding_of(mf).unwrap(), 0);
    }

    #[test]
    fn api_errors_on_unknown_flow() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let bogus = FlowId(42);
        assert!(matches!(
            cm.request(bogus, Time::ZERO),
            Err(CmError::UnknownFlow(_))
        ));
        assert!(matches!(
            cm.notify(bogus, 0, Time::ZERO),
            Err(CmError::UnknownFlow(_))
        ));
        assert!(matches!(
            cm.update(bogus, FeedbackReport::ack(1, 1), Time::ZERO),
            Err(CmError::UnknownFlow(_))
        ));
        assert!(matches!(
            cm.query(bogus, Time::ZERO),
            Err(CmError::UnknownFlow(_))
        ));
        assert!(matches!(
            cm.close(bogus, Time::ZERO),
            Err(CmError::UnknownFlow(_))
        ));
    }

    #[test]
    fn close_releases_reserved_window() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let f2 = cm.open(key(1001, 9), Time::ZERO).unwrap();
        let mf = cm.macroflow_of(f1).unwrap();
        cm.request(f1, Time::ZERO).unwrap();
        cm.request(f2, Time::ZERO).unwrap();
        let _ = drain(&mut cm);
        assert_eq!(cm.reserved_of(mf).unwrap(), 1460);
        // f1 closes holding its grant: the reservation must be released
        // and handed to f2.
        cm.close(f1, Time::ZERO).unwrap();
        assert_eq!(grants_in(&drain(&mut cm)), vec![f2]);
    }

    /// Regression for unbounded flow-table growth: the slab must recycle
    /// slots, keeping capacity at the peak concurrent count no matter how
    /// many flows have come and gone.
    #[test]
    fn flow_slab_recycles_slots_under_churn() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let mut now = Time::ZERO;
        for round in 0..200u64 {
            let flows: Vec<FlowId> = (0..8)
                .map(|i| cm.open(key(1000 + i, 9 + (round % 4) as u32), now).unwrap())
                .collect();
            for &f in &flows {
                cm.request(f, now).unwrap();
            }
            let _ = drain(&mut cm);
            for &f in &flows {
                cm.close(f, now).unwrap();
            }
            now += Duration::from_millis(10);
        }
        assert_eq!(cm.flow_count(), 0);
        assert!(
            cm.flow_slab_capacity() <= 8,
            "flow slab grew to {} slots after 1600 opens",
            cm.flow_slab_capacity()
        );
    }

    /// A recycled flow slot must not inherit the previous tenant's
    /// grant-queue entries: the old flow's unresolved grant (released at
    /// close) must not cause the new tenant's fresh grant to be
    /// mis-reclaimed or double-released.
    #[test]
    fn recycled_slot_not_charged_for_predecessor_grants() {
        let mut cm = CongestionManager::new(CmConfig {
            grant_timeout: Duration::from_millis(100),
            pacing: false,
            ..Default::default()
        });
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        cm.request(f1, Time::ZERO).unwrap();
        assert_eq!(grants_in(&drain(&mut cm)), vec![f1]);
        // Close while holding the grant: the reservation is released and
        // the queue entry goes stale.
        cm.close(f1, Time::ZERO).unwrap();
        // Reopen to the same destination: the slot (and FlowId) recycle.
        let f2 = cm.open(key(1001, 9), Time::from_millis(10)).unwrap();
        assert_eq!(f2, f1, "slab should recycle the freed slot");
        let mf = cm.macroflow_of(f2).unwrap();
        cm.request(f2, Time::from_millis(10)).unwrap();
        assert_eq!(grants_in(&drain(&mut cm)), vec![f2]);
        assert_eq!(cm.reserved_of(mf).unwrap(), 1460);
        // Sweep before f2's grant times out: the stale f1 entry must be
        // dropped with no accounting, and f2's grant left alone.
        cm.tick(Time::from_millis(50));
        assert_eq!(cm.stats().grants_reclaimed, 0);
        assert_eq!(cm.reserved_of(mf).unwrap(), 1460);
        // After the timeout, exactly f2's grant is reclaimed.
        cm.tick(Time::from_millis(200));
        assert_eq!(cm.stats().grants_reclaimed, 1);
        assert_eq!(cm.reserved_of(mf).unwrap(), 0);
    }

    #[test]
    fn ecn_report_halves_without_loss() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let mf = cm.macroflow_of(f).unwrap();
        let mut now = Time::ZERO;
        for _ in 0..5 {
            cm.request(f, now).unwrap();
            for n in drain(&mut cm) {
                if let CmNotification::SendGrant { flow } = n {
                    cm.notify(flow, 1460, now).unwrap();
                }
            }
            cm.update(
                f,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(10)),
                now,
            )
            .unwrap();
            now += Duration::from_millis(10);
        }
        let before = cm.window_of(mf).unwrap();
        cm.update(f, FeedbackReport::loss(LossMode::Ecn, 0), now)
            .unwrap();
        assert_eq!(cm.window_of(mf).unwrap(), before / 2);
    }

    /// Regression (satellite): once `tick` writes off feedback-free
    /// outstanding bytes, the `LossMode::Persistent` signal and the
    /// `write_off_congestion_signals` counter must NOT re-fire on every
    /// subsequent tick while the macroflow stays idle. Zeroing
    /// `outstanding` is the latch: a re-fire would also re-arm
    /// `recovery_until` each tick and freeze window growth forever.
    #[test]
    fn write_off_signal_does_not_refire_while_idle() {
        let mut cm = CongestionManager::new(CmConfig {
            pacing: false,
            ..Default::default()
        });
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let mf = cm.macroflow_of(f).unwrap();
        // Grow the window, then send a burst whose feedback never comes.
        let mut now = Time::ZERO;
        for _ in 0..6 {
            cm.request(f, now).unwrap();
            for n in drain(&mut cm) {
                if let CmNotification::SendGrant { flow } = n {
                    cm.notify(flow, 1460, now).unwrap();
                }
            }
            cm.update(
                f,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(50)),
                now,
            )
            .unwrap();
            now += Duration::from_millis(50);
        }
        cm.request(f, now).unwrap();
        for n in drain(&mut cm) {
            if let CmNotification::SendGrant { flow } = n {
                cm.notify(flow, 1460, now).unwrap();
            }
        }
        let write_off_at = now + Duration::from_secs(60);
        cm.tick(write_off_at);
        assert_eq!(cm.stats().write_off_congestion_signals, 1);
        assert_eq!(cm.outstanding_of(mf).unwrap(), 0);
        // The macroflow stays completely idle through many more ticks:
        // the signal and counter must not repeat.
        for i in 1..=20u64 {
            cm.tick(write_off_at + Duration::from_secs(i));
        }
        assert_eq!(
            cm.stats().write_off_congestion_signals,
            1,
            "write-off signal re-fired on an idle macroflow"
        );
        // And growth is not latched frozen: one RTT after the single
        // signal, positive feedback reopens the window as usual.
        let later = write_off_at + Duration::from_secs(21);
        cm.update(f, FeedbackReport::ack(1460, 1), later).unwrap();
        assert!(
            cm.window_of(mf).unwrap() > 1460,
            "window frozen by repeated write-off signals"
        );
    }

    /// Regression (review finding): the quiet-shard skip must not
    /// disable the idle staleness rule. A macroflow with a learned
    /// window and no other maintenance work keeps its shard scannable
    /// until `age_if_idle` has decayed the window back to the initial
    /// value — only then may the shard go quiet. (Old behaviour: every
    /// tick aged every macroflow; a skip that freezes a stale window
    /// would hand a resuming sender a full-window burst into unknown
    /// conditions.)
    #[test]
    fn idle_window_ages_despite_quiet_skip() {
        let mut cm = CongestionManager::new(CmConfig {
            pacing: false,
            ..Default::default()
        });
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let mf = cm.macroflow_of(f).unwrap();
        let mut now = Time::ZERO;
        // Grow the window well past the initial 1 MTU, resolving all
        // outstanding so nothing else keeps the shard pending.
        for _ in 0..4 {
            cm.request(f, now).unwrap();
            for n in drain(&mut cm) {
                if let CmNotification::SendGrant { flow } = n {
                    cm.notify(flow, 1460, now).unwrap();
                }
            }
            cm.update(
                f,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(50)),
                now,
            )
            .unwrap();
            now += Duration::from_millis(50);
        }
        let learned = cm.window_of(mf).unwrap();
        assert!(learned >= 4 * 1460, "window never grew ({learned})");
        // The flow idles; the periodic timer fires once per RTO (the
        // `MIN_RTO` floor here), so each tick owes exactly one halving.
        // The first tick leaves the window above the initial one; every
        // later halving happens only if that still-learned window keeps
        // the shard scannable.
        use cm_util::ewma::MIN_RTO;
        now += MIN_RTO;
        cm.tick(now);
        let once = cm.window_of(mf).unwrap();
        assert!(
            once > 1460 && once < learned,
            "first idle tick should apply exactly one halving ({learned} -> {once})"
        );
        for _ in 0..10 {
            now += MIN_RTO;
            cm.tick(now);
        }
        assert_eq!(
            cm.window_of(mf).unwrap(),
            1460,
            "idle aging was skipped; the stale learned window survived"
        );
        // Fully decayed and otherwise idle, the shard finally goes
        // quiet: later ticks skip it.
        let skipped_before = cm.stats().tick_shards_skipped;
        cm.tick(now + MIN_RTO);
        cm.tick(now + MIN_RTO * 2);
        assert!(
            cm.stats().tick_shards_skipped >= skipped_before + 2,
            "decayed idle shard still being scanned"
        );
    }

    // ------------------------------------------------------------------
    // Sharded-mode behaviour
    // ------------------------------------------------------------------

    use crate::config::ShardingConfig;

    fn sharded(max: u32) -> CmConfig {
        CmConfig {
            sharding: ShardingConfig::by_group(max),
            pacing: false,
            ..Default::default()
        }
    }

    /// Groups get their own shards: ids carry the shard index, routing
    /// agrees with the destination, and state stays per-shard.
    #[test]
    fn by_group_sharding_partitions_state() {
        let mut cm = CongestionManager::new(sharded(16));
        assert_eq!(cm.shard_count(), 0, "shards are created lazily");
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let f2 = cm.open(key(1001, 9), Time::ZERO).unwrap();
        let f3 = cm.open(key(1002, 7), Time::ZERO).unwrap();
        assert_eq!(cm.shard_count(), 2);
        assert_eq!(f1.shard(), f2.shard(), "same group, same shard");
        assert_ne!(f1.shard(), f3.shard(), "distinct groups, distinct shards");
        assert_eq!(
            (f1.shard(), f3.shard()),
            (0, 1),
            "indices in first-contact order"
        );
        // Macroflow ids carry the same shard index as their members.
        let mf1 = cm.macroflow_of(f1).unwrap();
        let mf3 = cm.macroflow_of(f3).unwrap();
        assert_eq!(mf1.shard(), f1.shard());
        assert_eq!(mf3.shard(), f3.shard());
        assert_eq!(cm.macroflow_of(f2).unwrap(), mf1);
        // The full request/grant/notify/update cycle works per shard.
        for &f in &[f1, f3] {
            cm.request(f, Time::ZERO).unwrap();
        }
        let granted = grants_in(&drain(&mut cm));
        assert_eq!(granted.len(), 2, "each shard granted from its own window");
        for &f in &granted {
            cm.notify(f, 1460, Time::ZERO).unwrap();
            cm.update(
                f,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(20)),
                Time::ZERO,
            )
            .unwrap();
        }
        assert_eq!(cm.flow_count(), 3);
        assert_eq!(cm.macroflow_count(), 2);
        // lookup routes through the group map.
        assert_eq!(cm.lookup(&key(1001, 9)), Some(f2));
        assert_eq!(cm.lookup(&key(1002, 7)), Some(f3));
    }

    /// Cross-shard `merge` is rejected: shards own disjoint slabs, so
    /// even a private target, which the destination check admits, must
    /// live in the flow's shard.
    #[test]
    fn sharded_cross_shard_merge_rejected() {
        let mut cm = CongestionManager::new(sharded(16));
        let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let f2 = cm.open(key(1001, 7), Time::ZERO).unwrap();
        let mf1 = cm.macroflow_of(f1).unwrap();
        assert_eq!(cm.merge(f2, mf1, Time::ZERO), Err(CmError::CrossShardMerge));
        // Intra-shard split + merge-back still work.
        let private = cm.split(f1, Time::ZERO).unwrap();
        assert_eq!(private.shard(), f1.shard());
        assert_eq!(
            cm.merge(f2, private, Time::ZERO),
            Err(CmError::CrossShardMerge)
        );
        cm.merge(f1, mf1, Time::ZERO).unwrap();
        assert_eq!(cm.macroflow_of(f1).unwrap(), mf1);
    }

    /// A host with many groups but one active group skips the idle
    /// shards' slab scans: the quiet-shard gate in action. The same
    /// script with every group in one shard scans every group's slot on
    /// every tick.
    #[test]
    fn quiet_shards_skipped_by_tick() {
        // 16 groups with one flow each, only the first active; returns
        // the shard count and the stats after the first tick and at the
        // end of 10 steady rounds.
        let steady = |max_shards: u32| {
            let mut cm = CongestionManager::new(sharded(max_shards));
            let active = cm.open(key(1000, 1), Time::ZERO).unwrap();
            for d in 2..=16 {
                cm.open(key(1000 + d as u16, d), Time::ZERO).unwrap();
            }
            let shards = cm.shard_count();
            // First tick scans everything (every shard is dirty from open).
            cm.tick(Time::from_millis(100));
            let settled = cm.stats();
            // Steady state: only the active group's shard sees API calls.
            let mut now = Time::from_millis(100);
            for _ in 0..10 {
                now += Duration::from_millis(100);
                cm.request(active, now).unwrap();
                for n in drain(&mut cm) {
                    if let CmNotification::SendGrant { flow } = n {
                        cm.notify(flow, 1460, now).unwrap();
                    }
                }
                cm.update(
                    active,
                    FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(20)),
                    now,
                )
                .unwrap();
                cm.tick(now);
            }
            (shards, settled, cm.stats())
        };
        let (shards, settled, s) = steady(16);
        assert_eq!(shards, 16);
        assert_eq!(settled.tick_shards_visited, 16);
        assert!(
            s.tick_shards_skipped >= 10 * 15,
            "idle shards were scanned: only {} skips",
            s.tick_shards_skipped
        );
        assert_eq!(s.tick_shards_visited, 16 + 10, "active shard not ticked");
        // One macroflow slot per steady tick at 16 shards; 16 when one
        // shard holds all 16 groups.
        assert_eq!(s.tick_mfs_scanned - settled.tick_mfs_scanned, 10);
        let (shards, settled, s) = steady(1);
        assert_eq!(shards, 1);
        assert_eq!(s.tick_mfs_scanned - settled.tick_mfs_scanned, 10 * 16);
    }

    /// More groups than `max_shards`: the overflow groups share shards
    /// (slabs, not congestion state) and everything keeps working.
    #[test]
    fn shard_cap_overflow_shares_shards() {
        let mut cm = CongestionManager::new(sharded(2));
        let flows: Vec<FlowId> = (1..=6u32)
            .map(|d| cm.open(key(1000 + d as u16, d), Time::ZERO).unwrap())
            .collect();
        assert!(cm.shard_count() <= 2, "cap exceeded");
        // Groups keep separate macroflows even when sharing a shard.
        let mfs: cm_util::FxHashSet<MacroflowId> =
            flows.iter().map(|&f| cm.macroflow_of(f).unwrap()).collect();
        assert_eq!(mfs.len(), 6, "overflow groups shared congestion state");
        // Lookups and the data path still route correctly.
        for (i, &f) in flows.iter().enumerate() {
            assert_eq!(cm.lookup(&key(1001 + i as u16, i as u32 + 1)), Some(f));
            cm.request(f, Time::ZERO).unwrap();
        }
        assert_eq!(grants_in(&drain(&mut cm)).len(), 6);
    }

    /// Unknown ids with out-of-range shard bits fail cleanly.
    #[test]
    fn sharded_unknown_ids_error() {
        let mut cm = CongestionManager::new(sharded(4));
        let bogus = FlowId::from_parts(3, 7);
        assert!(matches!(
            cm.request(bogus, Time::ZERO),
            Err(CmError::UnknownFlow(_))
        ));
        assert!(matches!(
            cm.window_of(MacroflowId::from_parts(9, 0)),
            Err(CmError::UnknownMacroflow(_))
        ));
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        // A valid slot with the wrong shard bits is not the same flow.
        let wrong_shard = FlowId::from_parts(f.shard() + 1, f.slot());
        assert!(matches!(
            cm.notify(wrong_shard, 0, Time::ZERO),
            Err(CmError::UnknownFlow(_))
        ));
    }

    /// Regression: a feedback report with impossible byte counts must be
    /// rejected whole — folding it in would poison the shared loss and
    /// window estimates for every flow in the macroflow.
    #[test]
    fn absurd_feedback_rejected() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let absurd = FeedbackReport::ack(1 << 40, 1);
        assert!(matches!(
            cm.update(f, absurd, Time::ZERO),
            Err(CmError::InvalidFeedback(_))
        ));
        let stats = cm.stats();
        assert_eq!(stats.feedback_rejected, 1);
        // The rejected report was not applied as an update.
        assert_eq!(stats.updates, 0);
        assert!(cm.check_invariants().is_ok());
    }

    /// An impossible RTT sample is stripped (the byte accounting may
    /// still be honest) rather than failing the whole report.
    #[test]
    fn impossible_rtt_sample_stripped() {
        let mut cm = CongestionManager::new(CmConfig::default());
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let report = FeedbackReport::ack(1460, 1).with_rtt(Duration::from_secs(600));
        cm.update(f, report, Time::ZERO).unwrap();
        assert_eq!(cm.stats().feedback_clamped, 1);
        // The sample never reached the shared RTT estimator.
        assert_eq!(cm.query(f, Time::ZERO).unwrap().srtt, None);
    }

    /// A flow feeding persistently impossible reports is quarantined:
    /// its updates are dropped (and counted) until the quarantine
    /// lapses, after which it starts on a clean slate.
    #[test]
    fn inconsistent_flow_quarantined_then_released() {
        use crate::shard::{QUARANTINE_PERIOD, QUARANTINE_STREAK};
        let mut cm = CongestionManager::new(CmConfig::default());
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        for _ in 0..QUARANTINE_STREAK {
            let _ = cm.update(f, FeedbackReport::ack(1 << 40, 1), Time::ZERO);
        }
        assert_eq!(cm.stats().flows_quarantined, 1);
        // Even an honest report is dropped while quarantined.
        assert!(matches!(
            cm.update(f, FeedbackReport::ack(1460, 1), Time::ZERO),
            Err(CmError::InvalidFeedback(_))
        ));
        assert_eq!(cm.stats().updates, 0);
        // After the period, the flow is trusted again.
        let later = Time::ZERO + QUARANTINE_PERIOD + Duration::from_millis(1);
        cm.update(f, FeedbackReport::ack(1460, 1), later).unwrap();
        assert_eq!(cm.stats().updates, 1);
        assert!(cm.check_invariants().is_ok());
    }

    /// Regression: an app that keeps ignoring its grants is backed off —
    /// its requests are parked instead of burning window — and the
    /// backoff releases by itself once it lapses.
    #[test]
    fn unresponsive_app_backed_off_then_recovers() {
        let cfg = CmConfig {
            pacing: false,
            grant_timeout: Duration::from_millis(10),
            ..Default::default()
        };
        let streak = crate::shard::RECLAIM_STREAK;
        let mut cm = CongestionManager::new(cfg);
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        // Ignore `streak` grants in a row; each expires and is reclaimed.
        let mut now = Time::ZERO;
        for _ in 0..streak {
            cm.request(f, now).unwrap();
            assert_eq!(grants_in(&drain(&mut cm)), vec![f]);
            now += Duration::from_millis(20);
            cm.tick(now);
        }
        let stats = cm.stats();
        assert_eq!(stats.grants_reclaimed, streak as u64);
        assert_eq!(stats.grant_backoffs, 1, "streak arms the backoff");
        // While backed off, a request parks: no grant, no pacing work.
        cm.request(f, now).unwrap();
        assert_eq!(grants_in(&drain(&mut cm)), vec![]);
        assert!(cm.check_invariants().is_ok());
        // Once the backoff lapses the maintenance timer re-queues it.
        now += Duration::from_secs(1);
        cm.tick(now);
        assert_eq!(grants_in(&drain(&mut cm)), vec![f]);
        assert!(cm.check_invariants().is_ok());
    }

    /// A notify ends the backoff immediately: the app proved itself
    /// alive, so its parked requests go straight back to the scheduler.
    #[test]
    fn notify_releases_parked_requests() {
        let cfg = CmConfig {
            pacing: false,
            grant_timeout: Duration::from_millis(10),
            ..Default::default()
        };
        let streak = crate::shard::RECLAIM_STREAK;
        let mut cm = CongestionManager::new(cfg);
        let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let mut now = Time::ZERO;
        for _ in 0..streak {
            cm.request(f, now).unwrap();
            let _ = drain(&mut cm);
            now += Duration::from_millis(20);
            cm.tick(now);
        }
        cm.request(f, now).unwrap();
        assert_eq!(grants_in(&drain(&mut cm)), vec![], "parked");
        // A (zero-byte) notify releases the parked request at once.
        cm.notify(f, 0, now).unwrap();
        assert_eq!(grants_in(&drain(&mut cm)), vec![f]);
        assert!(cm.check_invariants().is_ok());
    }

    /// With the opt-in orphan timeout armed, flows whose owner stopped
    /// calling the API entirely are reaped and their slots recycled;
    /// recently-touched flows survive.
    #[test]
    fn orphaned_flows_reaped_after_timeout() {
        let mut cm = CongestionManager::new(CmConfig {
            orphan_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        });
        let orphan = cm.open(key(1000, 9), Time::ZERO).unwrap();
        let live = cm.open(key(1001, 9), Time::ZERO).unwrap();
        // The live flow is touched at t=4s; the orphan never again.
        cm.query(live, Time::from_secs(4)).unwrap();
        cm.tick(Time::from_secs(6));
        assert_eq!(cm.stats().flows_reaped, 1);
        assert_eq!(cm.flow_count(), 1);
        assert!(matches!(
            cm.query(orphan, Time::from_secs(6)),
            Err(CmError::UnknownFlow(_))
        ));
        cm.query(live, Time::from_secs(6)).unwrap();
        assert!(cm.check_invariants().is_ok());

        // Crash-leak churn: a whole population appears, goes silent and
        // is swept in one tick, round after round, into the same slots.
        let mut now = Time::from_secs(6);
        for round in 0..3u16 {
            for i in 0..1_000u16 {
                let port = 2_000 + round * 1_000 + i;
                cm.open(key(port, 2 + u32::from(i % 64)), now).unwrap();
            }
            now += Duration::from_secs(6);
            cm.tick(now);
            assert_eq!(cm.flow_count(), 0, "reaper left flows behind");
            assert!(cm.check_invariants().is_ok());
        }
        assert_eq!(cm.stats().flows_reaped, 3_002);
        assert!(cm.flow_slab_capacity() <= 1_001, "reaped slots not reused");
    }

    /// The reaper runs after the tick's macroflow pass, so when it
    /// closes a shard's last flow the linger clock it starts is seen by
    /// no one: the shard must stay scheduled for another tick, or it
    /// goes quiet with the empty macroflow (and its group entry) held
    /// for ever.
    #[test]
    fn macroflow_of_reaped_last_flow_still_expires() {
        let mut cm = CongestionManager::new(CmConfig {
            orphan_timeout: Some(Duration::from_secs(2)),
            macroflow_linger: Duration::from_millis(500),
            ..Default::default()
        });
        cm.open(key(1000, 9), Time::ZERO).unwrap();
        cm.tick(Time::from_secs(3));
        assert_eq!(cm.stats().flows_reaped, 1);
        for s in 4..=40 {
            cm.tick(Time::from_secs(s));
        }
        assert_eq!(cm.stats().macroflows_expired, 1);
        assert_eq!(
            cm.macroflow_count(),
            0,
            "reaped flow stranded its macroflow"
        );
        // Once the macroflow is gone the shard does go quiet.
        assert!(cm.stats().tick_shards_skipped >= 30);
    }
}
