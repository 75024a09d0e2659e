//! Inter-flow schedulers: apportioning a macroflow's window.
//!
//! "While the congestion controller determines what the current window
//! (rate) ought to be for each macroflow, a scheduler decides how this is
//! apportioned among the constituent flows. Currently, our implementation
//! uses a standard unweighted round-robin scheduler." (§2)
//!
//! [`RoundRobinScheduler`] reproduces that default. The trait also admits
//! the natural extensions: [`WeightedRoundRobinScheduler`] and
//! [`StrideScheduler`] give proportional shares, exercised by the
//! scheduler ablation benchmark.
//!
//! # Flat state
//!
//! Every scheduler here stores per-flow state in a dense array of
//! member-local slots and finds a flow's slot through a hash map keyed by
//! `FlowId` that holds registered members only, so a scheduler's memory
//! is proportional to its macroflow's membership — never to the shard's
//! flow-id space, which would make the CM's memory grow as flows x
//! macroflows. The round-robin rotations are intrusive doubly-linked
//! rings threaded through the slot array: `enqueue`, `dequeue`, and —
//! critically for flow churn — `remove_flow` are all O(1), with no
//! `retain` scans and no allocation once the map and the slot array have
//! reached the membership's size. Rotation order is identical to the
//! original `VecDeque` implementation: the head is served, then rotated
//! to the tail while it still has requests; the map is only ever looked
//! up, never iterated, so it cannot influence order.

use cm_util::FxHashMap;

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
    /// allocated capacity — the pooled-macroflow recycling path.
    fn reset(&mut self);

    /// The weight registered for `flow` (1 for unweighted disciplines).
    fn weight_of(&self, flow: FlowId) -> u32;

    /// Sum of weights of all registered flows.
    fn total_weight(&self) -> u64;

    /// Human-readable discipline name.
    fn name(&self) -> &'static str;
}

/// Builds the scheduler selected by config.
pub fn build_scheduler(kind: SchedulerKind) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new()),
        SchedulerKind::WeightedRoundRobin => Box::new(WeightedRoundRobinScheduler::new()),
        SchedulerKind::Stride => Box::new(StrideScheduler::new()),
    }
}

/// "Not linked" sentinel for ring pointers.
const NIL: u32 = u32::MAX;

/// Rotation state for one member flow, stored at a member-local slot.
#[derive(Clone, Copy, Debug)]
struct RingSlot {
    /// The global flow id this local slot belongs to.
    flow: u32,
    /// Outstanding requests; the flow sits in the rotation iff > 0.
    pending: u32,
    weight: u32,
    next: u32,
    prev: u32,
}

/// The intrusive circular rotation shared by RR and WRR: `head` is the
/// flow served next; the tail is `head`'s `prev`.
///
/// Member state lives in `slots` and `index` maps a registered flow's id
/// to its slot; both are sized by the macroflow's member count, so a CM
/// with many macroflows pays for its flows once, not once per macroflow.
struct Ring {
    /// Flow id -> local slot, for the flows registered here.
    index: FxHashMap<u32, u32>,
    slots: Vec<RingSlot>,
    free: Vec<u32>,
    head: u32,
    /// Total pending requests.
    total: usize,
    /// Sum of registered flows' weights.
    weight_sum: u64,
    registered: usize,
}

impl Default for Ring {
    fn default() -> Self {
        Ring::new()
    }
}

impl Ring {
    fn new() -> Self {
        Ring {
            index: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            total: 0,
            weight_sum: 0,
            registered: 0,
        }
    }

    #[inline]
    fn local(&self, flow: FlowId) -> Option<u32> {
        self.index.get(&flow.0).copied()
    }

    fn slot(&self, flow: FlowId) -> Option<&RingSlot> {
        self.local(flow).map(|l| &self.slots[l as usize])
    }

    fn add(&mut self, flow: FlowId, weight: u32) {
        if self.local(flow).is_some() {
            // Re-registration updates the weight but keeps queue state.
            self.set_weight(flow, weight);
            return;
        }
        let slot = RingSlot {
            flow: flow.0,
            pending: 0,
            weight,
            next: NIL,
            prev: NIL,
        };
        let local = match self.free.pop() {
            Some(l) => {
                self.slots[l as usize] = slot;
                l
            }
            None => {
                self.slots.push(slot);
                self.slots.len() as u32 - 1
            }
        };
        self.index.insert(flow.0, local);
        self.weight_sum += weight as u64;
        self.registered += 1;
    }

    /// Unlinks and unregisters; returns true if the flow was the head.
    fn remove(&mut self, flow: FlowId) -> bool {
        let Some(l) = self.index.remove(&flow.0) else {
            return false;
        };
        let s = self.slots[l as usize];
        self.free.push(l);
        self.weight_sum -= s.weight as u64;
        self.registered -= 1;
        self.total -= s.pending as usize;
        if s.pending > 0 {
            self.unlink(l)
        } else {
            false
        }
    }

    fn set_weight(&mut self, flow: FlowId, weight: u32) {
        if let Some(l) = self.local(flow) {
            let s = &mut self.slots[l as usize];
            let old = s.weight;
            s.weight = weight;
            self.weight_sum = self.weight_sum - old as u64 + weight as u64;
        }
    }

    /// Counts one request; links the flow at the rotation tail when it
    /// transitions idle -> pending.
    // lint:hot-path:start
    fn enqueue(&mut self, flow: FlowId) -> bool {
        let Some(l) = self.local(flow) else {
            return false;
        };
        let s = &mut self.slots[l as usize];
        s.pending += 1;
        self.total += 1;
        if s.pending == 1 {
            self.link_tail(l);
            return true;
        }
        false
    }

    fn link_tail(&mut self, l: u32) {
        if self.head == NIL {
            self.slots[l as usize].next = l;
            self.slots[l as usize].prev = l;
            self.head = l;
        } else {
            let h = self.head;
            let t = self.slots[h as usize].prev;
            self.slots[t as usize].next = l;
            self.slots[l as usize].prev = t;
            self.slots[l as usize].next = h;
            self.slots[h as usize].prev = l;
        }
    }

    /// Unlinks local slot `l` from the rotation; returns true if it was
    /// the head (the head moves to its successor).
    fn unlink(&mut self, l: u32) -> bool {
        let s = self.slots[l as usize];
        let was_head = self.head == l;
        if s.next == l {
            self.head = NIL;
        } else {
            self.slots[s.prev as usize].next = s.next;
            self.slots[s.next as usize].prev = s.prev;
            if was_head {
                self.head = s.next;
            }
        }
        was_head
    }

    /// Serves the head: consumes one request, unlinking when its pending
    /// count runs dry. Returns `(flow, exhausted)`.
    fn serve_head(&mut self) -> Option<(FlowId, bool)> {
        let l = self.head;
        if l == NIL {
            return None;
        }
        let s = &mut self.slots[l as usize];
        let flow = FlowId(s.flow);
        s.pending -= 1;
        self.total -= 1;
        let exhausted = s.pending == 0;
        if exhausted {
            self.unlink(l);
        }
        Some((flow, exhausted))
    }

    fn head_weight(&self) -> u32 {
        if self.head == NIL {
            0
        } else {
            self.slots[self.head as usize].weight
        }
    }

    fn head_flow(&self) -> Option<FlowId> {
        if self.head == NIL {
            None
        } else {
            Some(FlowId(self.slots[self.head as usize].flow))
        }
    }

    /// Rotates the head to the tail (circular: head := head.next).
    fn rotate(&mut self) {
        if self.head != NIL {
            self.head = self.slots[self.head as usize].next;
        }
    }
    // lint:hot-path:end

    /// Empties the ring while retaining capacity, so a recycled shell
    /// re-registers as many members as it ever held without allocating.
    fn reset(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.total = 0;
        self.weight_sum = 0;
        self.registered = 0;
    }
}

/// The paper's default: unweighted round-robin.
///
/// Flows with pending requests sit in a rotation; each dequeue takes the
/// head flow, consumes one request, and moves it to the tail if it still
/// has more.
#[derive(Default)]
pub struct RoundRobinScheduler {
    ring: Ring,
}

impl RoundRobinScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn add_flow(&mut self, flow: FlowId, _weight: u32) {
        self.ring.add(flow, 1);
    }

    fn remove_flow(&mut self, flow: FlowId) {
        self.ring.remove(flow);
    }

    fn set_weight(&mut self, _flow: FlowId, _weight: u32) {
        // Unweighted by definition.
    }

    fn enqueue(&mut self, flow: FlowId) {
        self.ring.enqueue(flow);
    }

    fn dequeue(&mut self) -> Option<FlowId> {
        let (flow, exhausted) = self.ring.serve_head()?;
        if !exhausted {
            self.ring.rotate();
        }
        Some(flow)
    }

    fn pending(&self) -> usize {
        self.ring.total
    }

    fn pending_of(&self, flow: FlowId) -> u32 {
        self.ring.slot(flow).map(|s| s.pending).unwrap_or(0)
    }

    fn reset(&mut self) {
        self.ring.reset();
    }

    fn weight_of(&self, _flow: FlowId) -> u32 {
        1
    }

    fn total_weight(&self) -> u64 {
        self.ring.registered as u64
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Deficit-style weighted round-robin: each rotation pass gives a flow
/// `weight` grants of credit.
#[derive(Default)]
pub struct WeightedRoundRobinScheduler {
    ring: Ring,
    /// Remaining credit in the current pass for the head flow.
    credit: u32,
}

impl WeightedRoundRobinScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for WeightedRoundRobinScheduler {
    fn add_flow(&mut self, flow: FlowId, weight: u32) {
        self.ring.add(flow, weight.max(1));
    }

    fn remove_flow(&mut self, flow: FlowId) {
        if self.ring.remove(flow) {
            // The head left mid-pass; the next dequeue refills from the
            // new head's full weight.
            self.credit = 0;
        }
    }

    fn set_weight(&mut self, flow: FlowId, weight: u32) {
        self.ring.set_weight(flow, weight.max(1));
    }

    fn enqueue(&mut self, flow: FlowId) {
        let became_linked = self.ring.enqueue(flow);
        if became_linked && self.ring.head_flow() == Some(flow) {
            // First flow in an empty rotation starts a fresh pass.
            self.credit = self.ring.head_weight();
        }
    }

    fn dequeue(&mut self) -> Option<FlowId> {
        if self.ring.head == NIL {
            return None;
        }
        if self.credit == 0 {
            self.credit = self.ring.head_weight();
        }
        let (flow, exhausted) = self.ring.serve_head()?;
        self.credit -= 1;
        if exhausted {
            self.credit = self.ring.head_weight();
        } else if self.credit == 0 {
            self.ring.rotate();
            self.credit = self.ring.head_weight();
        }
        Some(flow)
    }

    fn pending(&self) -> usize {
        self.ring.total
    }

    fn pending_of(&self, flow: FlowId) -> u32 {
        self.ring.slot(flow).map(|s| s.pending).unwrap_or(0)
    }

    fn reset(&mut self) {
        self.ring.reset();
        self.credit = 0;
    }

    fn weight_of(&self, flow: FlowId) -> u32 {
        self.ring.slot(flow).map(|s| s.weight).unwrap_or(1)
    }

    fn total_weight(&self) -> u64 {
        self.ring.weight_sum
    }

    fn name(&self) -> &'static str {
        "weighted-round-robin"
    }
}

/// Stride scheduling: each flow advances a pass value by `STRIDE1/weight`
/// per grant; the lowest pass goes next. Deterministic proportional share
/// with tighter short-term fairness than WRR.
///
/// Member state is stored in member-local slots (like the rotation ring
/// the round-robin schedulers use), so the min-pass scan in `dequeue`
/// touches only this scheduler's flows.
#[derive(Default)]
pub struct StrideScheduler {
    /// Flow id -> local slot, for the flows registered here.
    index: FxHashMap<u32, u32>,
    flows: Vec<StrideSlot>,
    free: Vec<u32>,
    total: usize,
    weight_sum: u64,
}

#[derive(Clone, Copy, Debug)]
struct StrideSlot {
    /// The global flow id, or [`NIL`] for a vacant slot.
    flow: u32,
    weight: u32,
    pending: u32,
    pass: u64,
}

/// The stride constant; large for precision.
const STRIDE1: u64 = 1 << 20;

impl StrideScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn local(&self, flow: FlowId) -> Option<u32> {
        self.index.get(&flow.0).copied()
    }

    fn min_active_pass(&self) -> Option<u64> {
        self.flows
            .iter()
            .filter(|s| s.flow != NIL && s.pending > 0)
            .map(|s| s.pass)
            .min()
    }
}

impl Scheduler for StrideScheduler {
    fn add_flow(&mut self, flow: FlowId, weight: u32) {
        // New flows start at the current minimum pass so they cannot
        // monopolize (standard stride join rule).
        let pass = self.min_active_pass().unwrap_or(0);
        let slot = StrideSlot {
            flow: flow.0,
            weight: weight.max(1),
            pending: 0,
            pass,
        };
        if let Some(l) = self.local(flow) {
            // Re-registration resets the flow's stride state.
            let s = &mut self.flows[l as usize];
            self.total -= s.pending as usize;
            self.weight_sum -= s.weight as u64;
            *s = slot;
        } else {
            let local = match self.free.pop() {
                Some(l) => {
                    self.flows[l as usize] = slot;
                    l
                }
                None => {
                    self.flows.push(slot);
                    self.flows.len() as u32 - 1
                }
            };
            self.index.insert(flow.0, local);
        }
        self.weight_sum += weight.max(1) as u64;
    }

    fn remove_flow(&mut self, flow: FlowId) {
        if let Some(l) = self.index.remove(&flow.0) {
            let s = &mut self.flows[l as usize];
            self.total -= s.pending as usize;
            self.weight_sum -= s.weight as u64;
            s.flow = NIL;
            s.pending = 0;
            self.free.push(l);
        }
    }

    fn set_weight(&mut self, flow: FlowId, weight: u32) {
        if let Some(l) = self.local(flow) {
            let s = &mut self.flows[l as usize];
            self.weight_sum = self.weight_sum - s.weight as u64 + weight.max(1) as u64;
            s.weight = weight.max(1);
        }
    }

    fn enqueue(&mut self, flow: FlowId) {
        let Some(l) = self.local(flow) else {
            return;
        };
        if self.flows[l as usize].pending == 0 {
            // Rejoin at the current minimum pass.
            let min = self.min_active_pass().unwrap_or(0);
            let s = &mut self.flows[l as usize];
            s.pass = s.pass.max(min);
        }
        self.flows[l as usize].pending += 1;
        self.total += 1;
    }

    fn dequeue(&mut self) -> Option<FlowId> {
        // Lowest pass among flows with work; ties break by the smaller
        // flow id so the choice is deterministic regardless of slot
        // allocation order.
        let mut best: Option<(u64, u32, u32)> = None;
        for (l, s) in self.flows.iter().enumerate() {
            if s.flow != NIL && s.pending > 0 {
                let cand = (s.pass, s.flow, l as u32);
                match best {
                    Some((pass, flow, _)) if (pass, flow) <= (cand.0, cand.1) => {}
                    _ => best = Some(cand),
                }
            }
        }
        let (_, flow, l) = best?;
        let s = &mut self.flows[l as usize];
        s.pending -= 1;
        s.pass += STRIDE1 / s.weight as u64;
        self.total -= 1;
        Some(FlowId(flow))
    }

    fn pending(&self) -> usize {
        self.total
    }

    fn pending_of(&self, flow: FlowId) -> u32 {
        self.local(flow)
            .map(|l| self.flows[l as usize].pending)
            .unwrap_or(0)
    }

    fn reset(&mut self) {
        self.index.clear();
        self.flows.clear();
        self.free.clear();
        self.total = 0;
        self.weight_sum = 0;
    }

    fn weight_of(&self, flow: FlowId) -> u32 {
        self.local(flow)
            .map(|l| self.flows[l as usize].weight)
            .unwrap_or(1)
    }

    fn total_weight(&self) -> u64 {
        self.weight_sum
    }

    fn name(&self) -> &'static str {
        "stride"
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
        let mut s = RoundRobinScheduler::new();
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 1);
        s.add_flow(b, 1);
        for _ in 0..3 {
            s.enqueue(a);
            s.enqueue(b);
        }
        assert_eq!(s.pending(), 6);
        let grants = drain(&mut s, 6);
        assert_eq!(grants, vec![a, b, a, b, a, b]);
        assert_eq!(s.pending(), 0);
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn rr_unregistered_flow_ignored() {
        let mut s = RoundRobinScheduler::new();
        s.enqueue(FlowId(9));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn rr_remove_drops_pending() {
        let mut s = RoundRobinScheduler::new();
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 1);
        s.add_flow(b, 1);
        s.enqueue(a);
        s.enqueue(a);
        s.enqueue(b);
        s.remove_flow(a);
        assert_eq!(s.pending(), 1);
        assert_eq!(drain(&mut s, 2), vec![b]);
    }

    #[test]
    fn rr_single_flow_back_to_back() {
        let mut s = RoundRobinScheduler::new();
        let a = FlowId(1);
        s.add_flow(a, 1);
        s.enqueue(a);
        s.enqueue(a);
        assert_eq!(drain(&mut s, 2), vec![a, a]);
    }

    /// Churn regression: flows leave mid-rotation (head, middle, and tail
    /// positions) with requests still queued; the pending count and
    /// rotation order must stay exact and removal must not disturb the
    /// surviving flows' relative order.
    #[test]
    fn rr_remove_mid_rotation_keeps_invariants() {
        let mut s = RoundRobinScheduler::new();
        let flows: Vec<FlowId> = (0..8).map(FlowId).collect();
        for &f in &flows {
            s.add_flow(f, 1);
            s.enqueue(f);
            s.enqueue(f);
        }
        assert_eq!(s.pending(), 16);
        // Serve three grants: rotation is now [3,4,5,6,7,0,1,2] with
        // flows 0-2 holding one pending request each.
        assert_eq!(drain(&mut s, 3), vec![FlowId(0), FlowId(1), FlowId(2)]);
        assert_eq!(s.pending(), 13);
        // Remove the current head (3), a middle flow (5), and the last
        // flow (2) mid-rotation.
        s.remove_flow(FlowId(3));
        s.remove_flow(FlowId(5));
        s.remove_flow(FlowId(2));
        assert_eq!(s.pending(), 13 - 2 - 2 - 1);
        // Survivors rotate in order, skipping removed flows.
        let grants = drain(&mut s, 8);
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
        assert_eq!(drain(&mut s, 1), vec![FlowId(3)]);
        assert_eq!(s.total_weight(), 6);
    }

    /// Interleaved add/remove/enqueue/dequeue across many rounds keeps
    /// the pending count consistent with a reference model.
    #[test]
    fn rr_churn_pending_matches_reference() {
        let mut s = RoundRobinScheduler::new();
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
        let mut s = WeightedRoundRobinScheduler::new();
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 3);
        s.add_flow(b, 1);
        for _ in 0..30 {
            s.enqueue(a);
            s.enqueue(b);
        }
        let grants = drain(&mut s, 40);
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
        let mut s = WeightedRoundRobinScheduler::new();
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 1);
        s.add_flow(b, 1);
        s.set_weight(a, 2);
        assert_eq!(s.weight_of(a), 2);
        assert_eq!(s.total_weight(), 3);
    }

    #[test]
    fn wrr_remove_head_mid_pass_recovers() {
        let mut s = WeightedRoundRobinScheduler::new();
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 4);
        s.add_flow(b, 2);
        for _ in 0..4 {
            s.enqueue(a);
            s.enqueue(b);
        }
        // One grant into a's pass of 4, remove a: b proceeds with its
        // own full credit.
        assert_eq!(drain(&mut s, 1), vec![a]);
        s.remove_flow(a);
        assert_eq!(s.pending(), 4);
        assert_eq!(drain(&mut s, 4), vec![b, b, b, b]);
    }

    #[test]
    fn stride_proportional_share() {
        let mut s = StrideScheduler::new();
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 2);
        s.add_flow(b, 1);
        for _ in 0..60 {
            s.enqueue(a);
            s.enqueue(b);
        }
        let grants = drain(&mut s, 90);
        let ca = count(&grants, a);
        let cb = count(&grants, b);
        // 2:1 proportional share: 60 vs 30 over 90 grants.
        assert_eq!(ca, 60);
        assert_eq!(cb, 30);
    }

    #[test]
    fn stride_interleaving_is_smooth() {
        let mut s = StrideScheduler::new();
        let (a, b) = (FlowId(1), FlowId(2));
        s.add_flow(a, 1);
        s.add_flow(b, 1);
        for _ in 0..10 {
            s.enqueue(a);
            s.enqueue(b);
        }
        let grants = drain(&mut s, 20);
        // Equal weights: perfect alternation after the first pick.
        for pair in grants.chunks(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn stride_late_joiner_not_starved_and_cannot_monopolize() {
        let mut s = StrideScheduler::new();
        let a = FlowId(1);
        s.add_flow(a, 1);
        for _ in 0..100 {
            s.enqueue(a);
        }
        // Burn 50 grants so a's pass is large.
        let _ = drain(&mut s, 50);
        // b joins late; should not receive an unbounded run of grants.
        let b = FlowId(2);
        s.add_flow(b, 1);
        for _ in 0..50 {
            s.enqueue(b);
        }
        let grants = drain(&mut s, 20);
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
