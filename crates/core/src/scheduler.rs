//! Inter-flow schedulers: apportioning a macroflow's window.
//!
//! "While the congestion controller determines what the current window
//! (rate) ought to be for each macroflow, a scheduler decides how this is
//! apportioned among the constituent flows. Currently, our implementation
//! uses a standard unweighted round-robin scheduler." (§2)
//!
//! [`SchedulerKind::RoundRobin`] reproduces that default. The natural
//! extensions, [`SchedulerKind::WeightedRoundRobin`] and
//! [`SchedulerKind::Stride`], give proportional shares and are exercised
//! by the scheduler ablation figure.
//!
//! # Flat state
//!
//! A flow's scheduler state — pending requests, weight, rotation links:
//! one 16-byte [`SchedSlot`] — lives in a slab the scheduler does not
//! own, at the index the caller already holds for the flow. A shard keeps
//! one such slab parallel to its flow slab and shares it among all its
//! macroflows' schedulers: a flow belongs to exactly one macroflow at a
//! time, so one slot per flow suffices and the CM pays 16 bytes per flow
//! whatever the macroflow count. A [`SlabScheduler`] itself is a few
//! words inline in its macroflow (ring head, totals, WRR credit), and no
//! operation hashes, chases a box, or allocates. The round-robin
//! rotations are intrusive doubly-linked rings threaded through the
//! slab: `enqueue`, `dequeue`, and — critically for flow churn —
//! `remove_flow` are all O(1). Rotation order is that of a `VecDeque`:
//! the head is served, then rotated to the tail while it still has
//! requests. Stride's min-pass scan walks a member list of its own (it
//! scans members by design) and reaches each member's slot through it.
//!
//! The contract that sharing a slab imposes: a slot is registered with at
//! most one scheduler at a time and every operation naming it goes to
//! that scheduler. [`SlabScheduler::validate`] checks what follows from
//! it, and `Shard::validate` runs that over every macroflow.
//!
//! [`build_scheduler`] wraps one `SlabScheduler` and a private slab behind
//! the [`Scheduler`] trait for callers with no slab of their own.

use crate::config::SchedulerKind;
use crate::types::FlowId;

/// Chooses which flow's pending request the next grant satisfies.
///
/// A flow may have several requests pending at once (each `cm_request` is
/// an implicit ask for one MTU); the scheduler tracks per-flow pending
/// counts and hands out grants one at a time.
pub trait Scheduler: Send {
    /// Registers a flow with the given weight (ignored by unweighted
    /// disciplines).
    fn add_flow(&mut self, flow: FlowId, weight: u32);

    /// Removes a flow, dropping its pending requests.
    fn remove_flow(&mut self, flow: FlowId);

    /// Updates a flow's weight.
    fn set_weight(&mut self, flow: FlowId, weight: u32);

    /// Records one pending request for `flow`.
    fn enqueue(&mut self, flow: FlowId);

    /// Picks the next flow to receive a grant, consuming one of its
    /// pending requests.
    fn dequeue(&mut self) -> Option<FlowId>;

    /// Total pending requests across flows.
    fn pending(&self) -> usize;

    /// Pending requests queued for one flow (0 if unregistered).
    fn pending_of(&self, flow: FlowId) -> u32;

    /// Unregisters every flow and drops all pending requests, retaining
    /// allocated capacity.
    fn reset(&mut self);

    /// The weight registered for `flow` (1 for unweighted disciplines).
    fn weight_of(&self, flow: FlowId) -> u32;

    /// Sum of weights of all registered flows.
    fn total_weight(&self) -> u64;

    /// Human-readable discipline name.
    fn name(&self) -> &'static str;
}

/// Builds the scheduler selected by config, over a slab of its own that
/// grows to the highest flow id registered — for callers that schedule
/// outside a CM (the ablation figure, the benchmark's replay), whose ids
/// are small and dense.
pub fn build_scheduler(kind: SchedulerKind) -> Box<dyn Scheduler> {
    Box::new(Standalone {
        slab: Vec::new(),
        inner: SlabScheduler::new(kind),
    })
}

/// "Not linked" sentinel for ring pointers.
const NIL: u32 = u32::MAX;

/// One flow's scheduler state, stored at the flow's slot of a slab shared
/// by every scheduler over it.
#[derive(Clone, Copy, Debug)]
pub struct SchedSlot {
    /// Outstanding requests; under the round-robin disciplines the flow
    /// sits in the rotation iff > 0.
    pending: u32,
    /// Registered weight, at least 1; 0 marks a slot no scheduler holds.
    weight: u32,
    /// Ring successor (RR/WRR), or the flow's position in its scheduler's
    /// member list (stride).
    next: u32,
    /// Ring predecessor (RR/WRR).
    prev: u32,
}

impl SchedSlot {
    /// A slot registered with no scheduler.
    pub const VACANT: SchedSlot = SchedSlot {
        pending: 0,
        weight: 0,
        next: NIL,
        prev: NIL,
    };

    /// Requests queued for the flow (0 while unregistered).
    pub fn pending(&self) -> u32 {
        self.pending
    }

    /// The weight the flow's scheduler apportions by — 1 under unweighted
    /// round-robin whatever was asked for — or 0 while unregistered.
    pub fn weight(&self) -> u32 {
        self.weight
    }
}

/// The intrusive circular rotation shared by RR and WRR: `head` is the
/// slot served next; the tail is `head`'s `prev`.
#[derive(Debug)]
struct Ring {
    head: u32,
    /// Total pending requests.
    total: usize,
    /// Sum of registered flows' weights.
    weight_sum: u64,
}

impl Ring {
    const EMPTY: Ring = Ring {
        head: NIL,
        total: 0,
        weight_sum: 0,
    };

    fn add(&mut self, slab: &mut [SchedSlot], l: u32, weight: u32) {
        if slab[l as usize].weight != 0 {
            // Re-registration updates the weight but keeps queue state.
            self.set_weight(slab, l, weight);
            return;
        }
        slab[l as usize] = SchedSlot {
            weight,
            ..SchedSlot::VACANT
        };
        self.weight_sum += weight as u64;
    }

    /// Unlinks and unregisters; returns true if the flow was the head.
    fn remove(&mut self, slab: &mut [SchedSlot], l: u32) -> bool {
        let s = slab[l as usize];
        if s.weight == 0 {
            return false;
        }
        self.weight_sum -= s.weight as u64;
        self.total -= s.pending as usize;
        let was_head = s.pending > 0 && self.unlink(slab, l);
        slab[l as usize] = SchedSlot::VACANT;
        was_head
    }

    fn set_weight(&mut self, slab: &mut [SchedSlot], l: u32, weight: u32) {
        let s = &mut slab[l as usize];
        if s.weight != 0 {
            self.weight_sum = self.weight_sum - s.weight as u64 + weight as u64;
            s.weight = weight;
        }
    }

    /// Counts one request; links the flow at the rotation tail when it
    /// transitions idle -> pending.
    fn enqueue(&mut self, slab: &mut [SchedSlot], l: u32) -> bool {
        let s = &mut slab[l as usize];
        if s.weight == 0 {
            return false;
        }
        s.pending += 1;
        self.total += 1;
        if s.pending == 1 {
            self.link_tail(slab, l);
            return true;
        }
        false
    }

    fn link_tail(&mut self, slab: &mut [SchedSlot], l: u32) {
        if self.head == NIL {
            slab[l as usize].next = l;
            slab[l as usize].prev = l;
            self.head = l;
        } else {
            let h = self.head;
            let t = slab[h as usize].prev;
            slab[t as usize].next = l;
            slab[l as usize].prev = t;
            slab[l as usize].next = h;
            slab[h as usize].prev = l;
        }
    }

    /// Unlinks slot `l` from the rotation; returns true if it was the
    /// head (the head moves to its successor).
    fn unlink(&mut self, slab: &mut [SchedSlot], l: u32) -> bool {
        let s = slab[l as usize];
        let was_head = self.head == l;
        if s.next == l {
            self.head = NIL;
        } else {
            slab[s.prev as usize].next = s.next;
            slab[s.next as usize].prev = s.prev;
            if was_head {
                self.head = s.next;
            }
        }
        was_head
    }

    /// Serves the head: consumes one request, unlinking when its pending
    /// count runs dry. Returns `(slot, exhausted)`.
    fn serve_head(&mut self, slab: &mut [SchedSlot]) -> Option<(u32, bool)> {
        let l = self.head;
        if l == NIL {
            return None;
        }
        let s = &mut slab[l as usize];
        s.pending -= 1;
        self.total -= 1;
        let exhausted = s.pending == 0;
        if exhausted {
            self.unlink(slab, l);
        }
        Some((l, exhausted))
    }

    fn head_weight(&self, slab: &[SchedSlot]) -> u32 {
        if self.head == NIL {
            0
        } else {
            slab[self.head as usize].weight
        }
    }

    /// Rotates the head to the tail (circular: head := head.next).
    fn rotate(&mut self, slab: &[SchedSlot]) {
        if self.head != NIL {
            self.head = slab[self.head as usize].next;
        }
    }
}

/// Stride scheduling: each flow advances a pass value by `STRIDE1/weight`
/// per grant; the lowest pass goes next. Deterministic proportional share
/// with tighter short-term fairness than WRR.
///
/// The min-pass scan in `dequeue` walks `members`, so it touches only
/// this scheduler's flows; a member's slab slot holds its position here.
#[derive(Debug, Default)]
struct Stride {
    members: Vec<StrideMember>,
    total: usize,
    weight_sum: u64,
}

#[derive(Clone, Copy, Debug)]
struct StrideMember {
    /// The member's slab slot.
    flow: u32,
    pass: u64,
}

/// The stride constant; large for precision.
const STRIDE1: u64 = 1 << 20;

impl Stride {
    fn min_active_pass(&self, slab: &[SchedSlot]) -> Option<u64> {
        self.members
            .iter()
            .filter(|m| slab[m.flow as usize].pending > 0)
            .map(|m| m.pass)
            .min()
    }

    fn add(&mut self, slab: &mut [SchedSlot], l: u32, weight: u32) {
        // New flows start at the current minimum pass so they cannot
        // monopolize (standard stride join rule).
        let pass = self.min_active_pass(slab).unwrap_or(0);
        let weight = weight.max(1);
        let s = &mut slab[l as usize];
        if s.weight != 0 {
            // Re-registration resets the flow's stride state.
            self.total -= s.pending as usize;
            self.weight_sum -= s.weight as u64;
            s.pending = 0;
            s.weight = weight;
            self.members[s.next as usize].pass = pass;
        } else {
            *s = SchedSlot {
                weight,
                next: self.members.len() as u32,
                ..SchedSlot::VACANT
            };
            self.members.push(StrideMember { flow: l, pass });
        }
        self.weight_sum += weight as u64;
    }

    fn remove(&mut self, slab: &mut [SchedSlot], l: u32) {
        let s = slab[l as usize];
        if s.weight == 0 {
            return;
        }
        self.total -= s.pending as usize;
        self.weight_sum -= s.weight as u64;
        slab[l as usize] = SchedSlot::VACANT;
        // The pick is by (pass, flow), never by position, so the list is
        // free to reorder.
        self.members.swap_remove(s.next as usize);
        if let Some(moved) = self.members.get(s.next as usize) {
            slab[moved.flow as usize].next = s.next;
        }
    }

    fn set_weight(&mut self, slab: &mut [SchedSlot], l: u32, weight: u32) {
        let weight = weight.max(1);
        let s = &mut slab[l as usize];
        if s.weight != 0 {
            self.weight_sum = self.weight_sum - s.weight as u64 + weight as u64;
            s.weight = weight;
        }
    }

    fn enqueue(&mut self, slab: &mut [SchedSlot], l: u32) {
        let s = slab[l as usize];
        if s.weight == 0 {
            return;
        }
        if s.pending == 0 {
            // Rejoin at the current minimum pass.
            let min = self.min_active_pass(slab).unwrap_or(0);
            let m = &mut self.members[s.next as usize];
            m.pass = m.pass.max(min);
        }
        slab[l as usize].pending += 1;
        self.total += 1;
    }

    fn dequeue(&mut self, slab: &mut [SchedSlot]) -> Option<u32> {
        // Lowest pass among flows with work; ties break by the smaller
        // flow id so the choice is deterministic regardless of the
        // member list's order.
        let (_, flow, at) = self
            .members
            .iter()
            .enumerate()
            .filter(|(_, m)| slab[m.flow as usize].pending > 0)
            .map(|(at, m)| (m.pass, m.flow, at))
            .min()?;
        let s = &mut slab[flow as usize];
        s.pending -= 1;
        self.members[at].pass += STRIDE1 / s.weight as u64;
        self.total -= 1;
        Some(flow)
    }
}

/// One macroflow's scheduler over a slab it shares: the discipline's own
/// few words, with every per-flow fact in the caller's [`SchedSlot`]s.
///
/// Flows are named by slab index. Operations on a slot no scheduler holds
/// are ignored; the slab must cover every index passed.
#[derive(Debug)]
pub struct SlabScheduler(Discipline);

#[derive(Debug)]
enum Discipline {
    /// The paper's default: flows with pending requests sit in a
    /// rotation; each dequeue takes the head flow, consumes one request,
    /// and moves it to the tail if it still has more.
    RoundRobin(Ring),
    /// Deficit-style weighted round-robin: each rotation pass gives a
    /// flow `weight` grants of credit.
    Weighted {
        ring: Ring,
        /// Remaining credit in the current pass for the head flow.
        credit: u32,
    },
    Stride(Stride),
}

impl SlabScheduler {
    /// An empty scheduler of the given discipline.
    pub fn new(kind: SchedulerKind) -> Self {
        SlabScheduler(match kind {
            SchedulerKind::RoundRobin => Discipline::RoundRobin(Ring::EMPTY),
            SchedulerKind::WeightedRoundRobin => Discipline::Weighted {
                ring: Ring::EMPTY,
                credit: 0,
            },
            SchedulerKind::Stride => Discipline::Stride(Stride::default()),
        })
    }

    /// Registers `flow` with `weight` (ignored by unweighted round-robin,
    /// raised to 1 otherwise). Re-registering a member keeps its queue
    /// under RR/WRR and restarts it under stride.
    pub fn add_flow(&mut self, slab: &mut [SchedSlot], flow: u32, weight: u32) {
        match &mut self.0 {
            Discipline::RoundRobin(ring) => ring.add(slab, flow, 1),
            Discipline::Weighted { ring, .. } => ring.add(slab, flow, weight.max(1)),
            Discipline::Stride(s) => s.add(slab, flow, weight),
        }
    }

    /// Unregisters `flow`, dropping its pending requests and leaving its
    /// slot [`SchedSlot::VACANT`].
    pub fn remove_flow(&mut self, slab: &mut [SchedSlot], flow: u32) {
        match &mut self.0 {
            Discipline::RoundRobin(ring) => {
                ring.remove(slab, flow);
            }
            Discipline::Weighted { ring, credit } => {
                if ring.remove(slab, flow) {
                    // The head left mid-pass; the next dequeue refills
                    // from the new head's full weight.
                    *credit = 0;
                }
            }
            Discipline::Stride(s) => s.remove(slab, flow),
        }
    }

    /// Updates a member's weight (unweighted round-robin ignores it).
    pub fn set_weight(&mut self, slab: &mut [SchedSlot], flow: u32, weight: u32) {
        match &mut self.0 {
            Discipline::RoundRobin(_) => {}
            Discipline::Weighted { ring, .. } => ring.set_weight(slab, flow, weight.max(1)),
            Discipline::Stride(s) => s.set_weight(slab, flow, weight),
        }
    }

    /// Records one pending request for `flow`.
    pub fn enqueue(&mut self, slab: &mut [SchedSlot], flow: u32) {
        match &mut self.0 {
            Discipline::RoundRobin(ring) => {
                ring.enqueue(slab, flow);
            }
            Discipline::Weighted { ring, credit } => {
                if ring.enqueue(slab, flow) && ring.head == flow {
                    // First flow in an empty rotation starts a fresh pass.
                    *credit = ring.head_weight(slab);
                }
            }
            Discipline::Stride(s) => s.enqueue(slab, flow),
        }
    }

    /// Picks the next flow to receive a grant, consuming one of its
    /// pending requests.
    pub fn dequeue(&mut self, slab: &mut [SchedSlot]) -> Option<u32> {
        match &mut self.0 {
            Discipline::RoundRobin(ring) => {
                let (flow, exhausted) = ring.serve_head(slab)?;
                if !exhausted {
                    ring.rotate(slab);
                }
                Some(flow)
            }
            Discipline::Weighted { ring, credit } => {
                if *credit == 0 {
                    *credit = ring.head_weight(slab);
                }
                let (flow, exhausted) = ring.serve_head(slab)?;
                *credit -= 1;
                if exhausted {
                    *credit = ring.head_weight(slab);
                } else if *credit == 0 {
                    ring.rotate(slab);
                    *credit = ring.head_weight(slab);
                }
                Some(flow)
            }
            Discipline::Stride(s) => s.dequeue(slab),
        }
    }

    /// Total pending requests across members.
    pub fn pending(&self) -> usize {
        match &self.0 {
            Discipline::RoundRobin(ring) | Discipline::Weighted { ring, .. } => ring.total,
            Discipline::Stride(s) => s.total,
        }
    }

    /// Sum of the members' weights.
    pub fn total_weight(&self) -> u64 {
        match &self.0 {
            Discipline::RoundRobin(ring) | Discipline::Weighted { ring, .. } => ring.weight_sum,
            Discipline::Stride(s) => s.weight_sum,
        }
    }

    /// Forgets every member and request, retaining capacity. The slots
    /// are the caller's to vacate: a macroflow is recycled only after its
    /// last member left, the standalone form clears its whole slab.
    pub fn reset(&mut self) {
        match &mut self.0 {
            Discipline::RoundRobin(ring) => *ring = Ring::EMPTY,
            Discipline::Weighted { ring, credit } => {
                *ring = Ring::EMPTY;
                *credit = 0;
            }
            Discipline::Stride(s) => {
                s.members.clear();
                s.total = 0;
                s.weight_sum = 0;
            }
        }
    }

    /// Human-readable discipline name.
    pub fn name(&self) -> &'static str {
        match &self.0 {
            Discipline::RoundRobin(_) => "round-robin",
            Discipline::Weighted { .. } => "weighted-round-robin",
            Discipline::Stride(_) => "stride",
        }
    }

    /// Structural check against the slab, for invariant walks and tests.
    /// `members` are the slots the caller believes registered here and
    /// `is_member` the same set as a predicate; `linked` has one entry
    /// per slab slot and is shared by every scheduler over the slab, so a
    /// slot reachable from two of them is caught. Verifies that every
    /// member is registered, that the members' pending and weight sums
    /// are the scheduler's totals, and that the rotation (or stride's
    /// member list) holds members only, each once, consistently linked.
    pub fn validate(
        &self,
        slab: &[SchedSlot],
        members: impl Iterator<Item = u32>,
        is_member: impl Fn(u32) -> bool,
        linked: &mut [bool],
    ) -> Result<(), String> {
        let (mut count, mut pending, mut weight) = (0usize, 0usize, 0u64);
        for l in members {
            let s = slab[l as usize];
            if s.weight == 0 {
                return Err(format!("member slot {l} is not registered"));
            }
            count += 1;
            pending += s.pending as usize;
            weight += s.weight as u64;
        }
        if (pending, weight) != (self.pending(), self.total_weight()) {
            return Err(format!(
                "members hold {pending} requests and weight {weight}, {} counts {} and {}",
                self.name(),
                self.pending(),
                self.total_weight()
            ));
        }
        // A slot the scheduler reaches by itself: a registered member's,
        // reached for the first time.
        let mut reach = |l: u32| match slab.get(l as usize) {
            Some(s) if is_member(l) && s.weight != 0 && !linked[l as usize] => {
                linked[l as usize] = true;
                Ok(*s)
            }
            s => Err(format!("reaches slot {l} ({s:?}): no member's, or twice")),
        };
        match &self.0 {
            Discipline::RoundRobin(ring) | Discipline::Weighted { ring, .. } => {
                let (mut l, mut queued) = (ring.head, 0);
                while l != NIL {
                    let s = reach(l)?;
                    if s.pending == 0 || slab.get(s.next as usize).map(|n| n.prev) != Some(l) {
                        return Err(format!("slot {l} idle in the ring or ill-linked: {s:?}"));
                    }
                    queued += s.pending as usize;
                    l = if s.next == ring.head { NIL } else { s.next };
                }
                if queued != ring.total {
                    return Err(format!("ring holds {queued} of {} requests", ring.total));
                }
            }
            Discipline::Stride(st) => {
                for (at, m) in st.members.iter().enumerate() {
                    if reach(m.flow)?.next as usize != at {
                        return Err(format!("stride position {at} holds slot {}", m.flow));
                    }
                }
                if st.members.len() != count {
                    return Err(format!("stride lists {} of {count}", st.members.len()));
                }
            }
        }
        Ok(())
    }
}

/// A [`SlabScheduler`] with a slab of its own: what [`build_scheduler`]
/// hands out.
struct Standalone {
    /// Indexed by flow id; grown by `add_flow` to cover the id it names.
    slab: Vec<SchedSlot>,
    inner: SlabScheduler,
}

impl Standalone {
    /// The slab index of `flow`, if the slab reaches it.
    fn slot(&self, flow: FlowId) -> Option<u32> {
        ((flow.0 as usize) < self.slab.len()).then_some(flow.0)
    }
}

impl Scheduler for Standalone {
    fn add_flow(&mut self, flow: FlowId, weight: u32) {
        if self.slot(flow).is_none() {
            self.slab.resize(flow.0 as usize + 1, SchedSlot::VACANT);
        }
        self.inner.add_flow(&mut self.slab, flow.0, weight);
    }

    fn remove_flow(&mut self, flow: FlowId) {
        if let Some(l) = self.slot(flow) {
            self.inner.remove_flow(&mut self.slab, l);
        }
    }

    fn set_weight(&mut self, flow: FlowId, weight: u32) {
        if let Some(l) = self.slot(flow) {
            self.inner.set_weight(&mut self.slab, l, weight);
        }
    }

    fn enqueue(&mut self, flow: FlowId) {
        if let Some(l) = self.slot(flow) {
            self.inner.enqueue(&mut self.slab, l);
        }
    }

    fn dequeue(&mut self) -> Option<FlowId> {
        self.inner.dequeue(&mut self.slab).map(FlowId)
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn pending_of(&self, flow: FlowId) -> u32 {
        self.slab.get(flow.0 as usize).map_or(0, |s| s.pending)
    }

    fn reset(&mut self) {
        self.slab.clear();
        self.inner.reset();
    }

    fn weight_of(&self, flow: FlowId) -> u32 {
        match self.slab.get(flow.0 as usize) {
            Some(s) if s.weight != 0 => s.weight,
            _ => 1,
        }
    }

    fn total_weight(&self) -> u64 {
        self.inner.total_weight()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut dyn Scheduler, n: usize) -> Vec<FlowId> {
        (0..n).filter_map(|_| s.dequeue()).collect()
    }

    fn count(grants: &[FlowId], f: FlowId) -> usize {
        grants.iter().filter(|&&g| g == f).count()
    }

    #[test]
    fn rr_alternates_between_flows() {
        let mut s = build_scheduler(SchedulerKind::RoundRobin);
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 1);
        s.add_flow(b, 1);
        for _ in 0..3 {
            s.enqueue(a);
            s.enqueue(b);
        }
        assert_eq!(s.pending(), 6);
        let grants = drain(&mut *s, 6);
        assert_eq!(grants, vec![a, b, a, b, a, b]);
        assert_eq!(s.pending(), 0);
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn rr_unregistered_flow_ignored() {
        let mut s = build_scheduler(SchedulerKind::RoundRobin);
        s.enqueue(FlowId(9));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn rr_remove_drops_pending() {
        let mut s = build_scheduler(SchedulerKind::RoundRobin);
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 1);
        s.add_flow(b, 1);
        s.enqueue(a);
        s.enqueue(a);
        s.enqueue(b);
        s.remove_flow(a);
        assert_eq!(s.pending(), 1);
        assert_eq!(drain(&mut *s, 2), vec![b]);
    }

    #[test]
    fn rr_single_flow_back_to_back() {
        let mut s = build_scheduler(SchedulerKind::RoundRobin);
        let a = FlowId(1);
        s.add_flow(a, 1);
        s.enqueue(a);
        s.enqueue(a);
        assert_eq!(drain(&mut *s, 2), vec![a, a]);
    }

    /// Churn regression: flows leave mid-rotation (head, middle, and tail
    /// positions) with requests still queued; the pending count and
    /// rotation order must stay exact and removal must not disturb the
    /// surviving flows' relative order.
    #[test]
    fn rr_remove_mid_rotation_keeps_invariants() {
        let mut s = build_scheduler(SchedulerKind::RoundRobin);
        let flows: Vec<FlowId> = (0..8).map(FlowId).collect();
        for &f in &flows {
            s.add_flow(f, 1);
            s.enqueue(f);
            s.enqueue(f);
        }
        assert_eq!(s.pending(), 16);
        // Serve three grants: rotation is now [3,4,5,6,7,0,1,2] with
        // flows 0-2 holding one pending request each.
        assert_eq!(drain(&mut *s, 3), vec![FlowId(0), FlowId(1), FlowId(2)]);
        assert_eq!(s.pending(), 13);
        // Remove the current head (3), a middle flow (5), and the last
        // flow (2) mid-rotation.
        s.remove_flow(FlowId(3));
        s.remove_flow(FlowId(5));
        s.remove_flow(FlowId(2));
        assert_eq!(s.pending(), 13 - 2 - 2 - 1);
        // Survivors rotate in order, skipping removed flows.
        let grants = drain(&mut *s, 8);
        assert_eq!(
            grants,
            vec![
                FlowId(4),
                FlowId(6),
                FlowId(7),
                FlowId(0),
                FlowId(1),
                FlowId(4),
                FlowId(6),
                FlowId(7),
            ]
        );
        assert_eq!(s.pending(), 0);
        assert!(s.dequeue().is_none());
        // Removed flows are gone: enqueues for them are ignored.
        s.enqueue(FlowId(3));
        assert_eq!(s.pending(), 0);
        // Re-adding a removed id starts fresh.
        s.add_flow(FlowId(3), 1);
        s.enqueue(FlowId(3));
        assert_eq!(drain(&mut *s, 1), vec![FlowId(3)]);
        assert_eq!(s.total_weight(), 6);
    }

    /// Interleaved add/remove/enqueue/dequeue across many rounds keeps
    /// the pending count consistent with a reference model.
    #[test]
    fn rr_churn_pending_matches_reference() {
        let mut s = build_scheduler(SchedulerKind::RoundRobin);
        let mut expected: Vec<u32> = Vec::new();
        let mut pending = vec![0u32; 64];
        let mut x: u64 = 42;
        let mut rand = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 33) as u32
        };
        for round in 0..2_000 {
            let f = rand() % 64;
            match rand() % 4 {
                0 => {
                    if !expected.contains(&f) {
                        expected.push(f);
                        s.add_flow(FlowId(f), 1);
                    }
                }
                1 => {
                    s.enqueue(FlowId(f));
                    if expected.contains(&f) {
                        pending[f as usize] += 1;
                    }
                }
                2 => {
                    let total: u32 = pending.iter().sum();
                    let got = s.dequeue();
                    assert_eq!(got.is_some(), total > 0, "round {round}");
                    if let Some(g) = got {
                        pending[g.0 as usize] -= 1;
                    }
                }
                _ => {
                    if s.weight_of(FlowId(f)) == 1 && expected.contains(&f) {
                        expected.retain(|&e| e != f);
                        pending[f as usize] = 0;
                        s.remove_flow(FlowId(f));
                    }
                }
            }
            let total: usize = pending.iter().map(|&p| p as usize).sum();
            assert_eq!(s.pending(), total, "round {round}");
        }
    }

    #[test]
    fn wrr_respects_weights() {
        let mut s = build_scheduler(SchedulerKind::WeightedRoundRobin);
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 3);
        s.add_flow(b, 1);
        for _ in 0..30 {
            s.enqueue(a);
            s.enqueue(b);
        }
        let grants = drain(&mut *s, 40);
        assert_eq!(grants.len(), 40);
        let ca = count(&grants, a);
        let cb = count(&grants, b);
        // 3:1 share over the first 40 grants (30 available each): a gets
        // 30 and b gets 10.
        assert_eq!(ca, 30);
        assert_eq!(cb, 10);
    }

    #[test]
    fn wrr_weight_update_takes_effect() {
        let mut s = build_scheduler(SchedulerKind::WeightedRoundRobin);
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 1);
        s.add_flow(b, 1);
        s.set_weight(a, 2);
        assert_eq!(s.weight_of(a), 2);
        assert_eq!(s.total_weight(), 3);
    }

    #[test]
    fn wrr_remove_head_mid_pass_recovers() {
        let mut s = build_scheduler(SchedulerKind::WeightedRoundRobin);
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 4);
        s.add_flow(b, 2);
        for _ in 0..4 {
            s.enqueue(a);
            s.enqueue(b);
        }
        // One grant into a's pass of 4, remove a: b proceeds with its
        // own full credit.
        assert_eq!(drain(&mut *s, 1), vec![a]);
        s.remove_flow(a);
        assert_eq!(s.pending(), 4);
        assert_eq!(drain(&mut *s, 4), vec![b, b, b, b]);
    }

    #[test]
    fn stride_proportional_share() {
        let mut s = build_scheduler(SchedulerKind::Stride);
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 2);
        s.add_flow(b, 1);
        for _ in 0..60 {
            s.enqueue(a);
            s.enqueue(b);
        }
        let grants = drain(&mut *s, 90);
        let ca = count(&grants, a);
        let cb = count(&grants, b);
        // 2:1 proportional share: 60 vs 30 over 90 grants.
        assert_eq!(ca, 60);
        assert_eq!(cb, 30);
    }

    #[test]
    fn stride_interleaving_is_smooth() {
        let mut s = build_scheduler(SchedulerKind::Stride);
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 1);
        s.add_flow(b, 1);
        for _ in 0..10 {
            s.enqueue(a);
            s.enqueue(b);
        }
        let grants = drain(&mut *s, 20);
        // Equal weights: perfect alternation after the first pick.
        for pair in grants.chunks(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn stride_late_joiner_not_starved_and_cannot_monopolize() {
        let mut s = build_scheduler(SchedulerKind::Stride);
        let a = FlowId(1);
        s.add_flow(a, 1);
        for _ in 0..100 {
            s.enqueue(a);
        }
        // Burn 50 grants so a's pass is large.
        let _ = drain(&mut *s, 50);
        // b joins late; should not receive an unbounded run of grants.
        let b = FlowId(2);
        s.add_flow(b, 1);
        for _ in 0..50 {
            s.enqueue(b);
        }
        let grants = drain(&mut *s, 20);
        let cb = count(&grants, b);
        assert!((8..=12).contains(&cb), "late joiner got {cb} of 20");
    }

    #[test]
    fn pending_of_and_reset_across_disciplines() {
        for kind in [
            SchedulerKind::RoundRobin,
            SchedulerKind::WeightedRoundRobin,
            SchedulerKind::Stride,
        ] {
            let mut s = build_scheduler(kind);
            let (a, b) = (FlowId(1), FlowId(2));
            s.add_flow(a, 2);
            s.add_flow(b, 1);
            s.enqueue(a);
            s.enqueue(a);
            s.enqueue(b);
            assert_eq!(s.pending_of(a), 2, "{}", s.name());
            assert_eq!(s.pending_of(b), 1, "{}", s.name());
            assert_eq!(s.pending_of(FlowId(9)), 0, "{}", s.name());
            s.reset();
            assert_eq!(s.pending(), 0, "{}", s.name());
            assert_eq!(s.pending_of(a), 0, "{}", s.name());
            assert_eq!(s.total_weight(), 0, "{}", s.name());
            assert!(s.dequeue().is_none(), "{}", s.name());
            // The scheduler is fully reusable after a reset.
            s.add_flow(a, 3);
            s.enqueue(a);
            assert_eq!(s.dequeue(), Some(a), "{}", s.name());
        }
    }

    #[test]
    fn builder_returns_requested_kind() {
        assert_eq!(
            build_scheduler(SchedulerKind::RoundRobin).name(),
            "round-robin"
        );
        assert_eq!(
            build_scheduler(SchedulerKind::WeightedRoundRobin).name(),
            "weighted-round-robin"
        );
        assert_eq!(build_scheduler(SchedulerKind::Stride).name(), "stride");
    }
}
