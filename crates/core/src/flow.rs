//! Per-flow state.

use cm_util::{Rate, Time};

use crate::types::{FlowId, FlowKey, MacroflowId, Thresholds};

/// The CM's record for one client flow.
///
/// A flow belongs to exactly one macroflow; congestion state lives there.
/// The flow itself tracks its identity, its grant bookkeeping, and its
/// rate-callback registration.
#[derive(Debug)]
pub struct Flow {
    /// This flow's id.
    pub id: FlowId,
    /// The endpoint pair it was opened with.
    pub key: FlowKey,
    /// The macroflow whose congestion state this flow shares.
    pub macroflow: MacroflowId,
    /// This flow's index in its macroflow's member list, maintained so
    /// membership changes are O(1) swap-removes.
    pub mf_pos: u32,
    /// Maximum transmission unit for this flow (`cm_mtu`).
    pub mtu: usize,
    /// Scheduler weight.
    pub weight: u32,
    /// Grants issued to this flow and not yet resolved by `cm_notify`.
    pub granted: u32,
    /// Entries in the macroflow's grant-expiry queue that this flow has
    /// already resolved (lazy deletion bookkeeping).
    pub dead_grant_entries: u32,
    /// Rate-callback thresholds, if the client registered for
    /// `cmapp_update` callbacks (`cm_thresh`).
    pub update_interest: Option<Thresholds>,
    /// The rate last reported through a rate callback, used to detect
    /// threshold crossings.
    pub last_reported_rate: Option<Rate>,
    /// Consecutive feedback reports that failed sanity validation;
    /// reaching `QUARANTINE_STREAK` quarantines the flow.
    pub inconsistent_streak: u32,
    /// While set and in the future, the flow is quarantined: its
    /// `cm_update` reports are ignored (but counted). Cleared lazily on
    /// the first update after expiry.
    pub quarantined_until: Option<Time>,
    /// Consecutive grants reclaimed by the maintenance timer without an
    /// intervening `cm_notify`; a streak marks the app unresponsive.
    pub reclaim_streak: u32,
    /// While set and in the future, new grants to this flow are parked
    /// instead of scheduled (unresponsive-app backoff).
    pub backoff_until: Option<Time>,
    /// Current backoff doubling level.
    pub backoff_level: u32,
    /// Requests parked during backoff, re-queued by the maintenance
    /// timer once the backoff expires.
    pub parked_requests: u32,
    /// The last time the owning application touched this flow through
    /// any API call; orphaned-flow reaping keys off this.
    pub last_api: Time,
}

impl Flow {
    /// Creates flow state at open time.
    pub fn new(id: FlowId, key: FlowKey, macroflow: MacroflowId, mtu: usize, now: Time) -> Self {
        Flow {
            id,
            key,
            macroflow,
            mf_pos: 0,
            mtu,
            weight: 1,
            granted: 0,
            dead_grant_entries: 0,
            update_interest: None,
            last_reported_rate: None,
            inconsistent_streak: 0,
            quarantined_until: None,
            reclaim_streak: 0,
            backoff_until: None,
            backoff_level: 0,
            parked_requests: 0,
            last_api: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Endpoint;

    #[test]
    fn new_flow_is_quiescent() {
        let key = FlowKey::new(Endpoint::new(1, 1000), Endpoint::new(2, 80));
        let f = Flow::new(FlowId(0), key, MacroflowId(0), 1460, Time::ZERO);
        assert_eq!(f.granted, 0);
        assert_eq!(f.weight, 1);
        assert!(f.update_interest.is_none());
    }

    /// A shard's slab stores `Option<Flow>`, so this is the CM's per-flow
    /// footprint. Every field here is read by some decision or check; a
    /// new field needs a reader too, not just a writer.
    #[test]
    fn flow_slot_fits_in_144_bytes() {
        assert!(std::mem::size_of::<Option<Flow>>() <= 144);
    }
}
