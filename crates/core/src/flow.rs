//! Per-flow state, split by access pattern.
//!
//! [`Flow`] is the slot every `open`, `request`, `notify`, `update` and
//! `close` touches, and it fits in one cache line. What only some flows
//! ever set — rate-callback thresholds and the state of the feedback and
//! unresponsive-app defenses — lives in a [`FlowCold`] record that a flow
//! gets from its shard's [`ColdSlab`] on its first threshold registration
//! or first offence, and gives back when it closes.

use cm_util::{Rate, Time};

use crate::types::{FlowId, FlowKey, MacroflowId, Thresholds};

/// The `Flow::cold` index of a flow that holds no [`FlowCold`] record.
pub const NO_COLD: u32 = u32::MAX;

/// The CM's record for one client flow.
///
/// A flow belongs to exactly one macroflow; congestion state lives there.
/// The flow itself tracks its identity and its grant bookkeeping. Its MTU
/// is the shard's `CmConfig::mtu` and its weight is its scheduler slot's.
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
    /// Grants issued to this flow and not yet resolved by `cm_notify`.
    pub granted: u32,
    /// Entries in the macroflow's grant-expiry queue that this flow has
    /// already resolved (lazy deletion bookkeeping).
    pub dead_grant_entries: u32,
    /// The last time the owning application touched this flow through
    /// any API call; orphaned-flow reaping keys off this.
    pub last_api: Time,
    /// Index of this flow's record in its shard's [`ColdSlab`], or
    /// [`NO_COLD`] while it has none.
    pub cold: u32,
}

impl Flow {
    /// Creates flow state at open time.
    pub fn new(id: FlowId, key: FlowKey, macroflow: MacroflowId, now: Time) -> Self {
        Flow {
            id,
            key,
            macroflow,
            mf_pos: 0,
            granted: 0,
            dead_grant_entries: 0,
            last_api: now,
            cold: NO_COLD,
        }
    }
}

/// The per-flow state that only flows with thresholds or a record of
/// misbehaviour need. A fresh record (the `Default`) means the same as
/// having none.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlowCold {
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
}

impl FlowCold {
    /// If the flow is in unresponsive-app backoff, parks one request on
    /// it and returns true; clears a lapsed backoff otherwise.
    pub fn park_if_backing_off(&mut self, now: Time) -> bool {
        match self.backoff_until {
            Some(until) if now < until => {
                self.parked_requests += 1;
                true
            }
            Some(_) => {
                self.backoff_until = None;
                false
            }
            None => false,
        }
    }
}

/// A shard's [`FlowCold`] records, recycled through a free list so that
/// flow churn allocates nothing once the slab has grown to its peak.
#[derive(Debug, Default)]
pub struct ColdSlab {
    records: Vec<FlowCold>,
    /// Records no flow holds, each reset to the default.
    free: Vec<u32>,
}

impl ColdSlab {
    /// The record at `cold`; `None` for [`NO_COLD`].
    #[inline]
    pub fn get(&self, cold: u32) -> Option<&FlowCold> {
        self.records.get(cold as usize)
    }

    /// The record at `cold`; `None` for [`NO_COLD`].
    #[inline]
    pub fn get_mut(&mut self, cold: u32) -> Option<&mut FlowCold> {
        self.records.get_mut(cold as usize)
    }

    /// The record at `*cold`, first taking a fresh one for a flow that
    /// holds none and storing its index in `*cold`.
    pub fn attach(&mut self, cold: &mut u32) -> &mut FlowCold {
        if *cold == NO_COLD {
            *cold = match self.free.pop() {
                Some(c) => c,
                None => {
                    self.records.push(FlowCold::default());
                    (self.records.len() - 1) as u32
                }
            };
        }
        let c = *cold as usize;
        &mut self.records[c]
    }

    /// Returns a closing flow's record, if it holds one, to the free list.
    pub fn detach(&mut self, cold: u32) {
        if let Some(r) = self.records.get_mut(cold as usize) {
            *r = FlowCold::default();
            self.free.push(cold);
        }
    }

    /// Records in the slab, held and free.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Checks the slab against the `cold` index of every live flow: each
    /// index names a record no other flow holds, the free list is in
    /// range, holds no record twice and only reset ones, and every record
    /// is either held or free.
    pub fn validate(&self, held: impl Iterator<Item = u32>) -> Result<(), String> {
        let mut owned = vec![false; self.records.len()];
        for c in held.filter(|&c| c != NO_COLD) {
            match owned.get_mut(c as usize) {
                None => return Err(format!("cold record {c} out of slab range")),
                Some(true) => return Err(format!("cold record {c} is held by two flows")),
                Some(o) => *o = true,
            }
        }
        let holders = owned.iter().filter(|&&o| o).count();
        let mut free = vec![false; self.records.len()];
        for &c in &self.free {
            let i = c as usize;
            if i >= self.records.len() {
                return Err(format!("free cold record {c} out of slab range"));
            }
            if free[i] {
                return Err(format!("cold record {c} appears on the free list twice"));
            }
            if owned[i] {
                return Err(format!("cold record {c} is both held and free"));
            }
            if self.records[i] != FlowCold::default() {
                return Err(format!("free cold record {c} was not reset"));
            }
            free[i] = true;
        }
        if holders + self.free.len() != self.records.len() {
            return Err(format!(
                "cold slab leak: {} records != {holders} held + {} free",
                self.records.len(),
                self.free.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Endpoint;

    #[test]
    fn new_flow_is_quiescent() {
        let key = FlowKey::new(Endpoint::new(1, 1000), Endpoint::new(2, 80));
        let f = Flow::new(FlowId(0), key, MacroflowId(0), Time::ZERO);
        assert_eq!(f.granted, 0);
        assert_eq!(f.cold, NO_COLD);
    }

    /// A shard's slab stores `Option<Flow>`, so this is the CM's per-flow
    /// footprint: one cache line. Every field here is read by some
    /// decision or check on a hot path; state that only some flows set
    /// belongs in `FlowCold`.
    #[test]
    fn flow_slot_fits_in_one_cache_line() {
        assert!(std::mem::size_of::<Option<Flow>>() <= 64);
    }

    /// A macroflow's slab slot, pinned beside the flow's: the MTU is
    /// read from the controller, and a linger instant needs no
    /// `Option` tag.
    #[test]
    fn macroflow_slot_fits_in_272_bytes() {
        assert!(std::mem::size_of::<Option<crate::macroflow::Macroflow>>() <= 272);
    }

    /// Only flows with thresholds or a record of misbehaviour hold one.
    #[test]
    fn cold_record_fits_in_88_bytes() {
        assert!(std::mem::size_of::<FlowCold>() <= 88);
    }

    #[test]
    fn released_records_are_reset_and_reused() {
        let mut slab = ColdSlab::default();
        let (mut a, mut b) = (NO_COLD, NO_COLD);
        assert!(slab.get(a).is_none());
        slab.attach(&mut a).parked_requests = 3;
        slab.attach(&mut b).reclaim_streak = 1;
        assert_eq!((a, b), (0, 1));
        assert_eq!(
            slab.attach(&mut a).parked_requests,
            3,
            "attach keeps a held record"
        );
        slab.validate([a, b, NO_COLD].into_iter()).unwrap();
        assert!(slab.validate([a, a].into_iter()).is_err(), "shared record");
        assert!(slab.validate([a].into_iter()).is_err(), "leaked record");
        slab.detach(a);
        slab.detach(NO_COLD);
        slab.validate([b].into_iter()).unwrap();
        let mut c = NO_COLD;
        assert_eq!(*slab.attach(&mut c), FlowCold::default());
        assert_eq!((c, slab.len()), (a, 2), "the freed record is reused");
    }
}
