//! The slab schedulers against the implementation they replaced.
//!
//! `reference` is the map-indexed scheduler code as it stood before a
//! flow's scheduler state moved to its slab slot: every scheduler owned a
//! hash map from flow id to a member-local slot, a slot vector and a
//! free-list. It is kept here, out of the library, as the oracle. The
//! tests drive it and the slab form with the same random scripts and
//! demand the same dequeue stream and the same `pending`, `pending_of`,
//! `weight_of` and `total_weight` after every operation, for both
//! disciplines. The library runs both on one weighted ring, holding every
//! weight at 1 under round-robin; the reference keeps the two algorithms
//! apart, so each checks one side of that fold:
//!
//! * two or three [`SlabScheduler`]s sharing **one** slab, the way a
//!   shard's macroflows do — including what sharing makes possible: a
//!   flow leaving one scheduler while that scheduler's rotation is
//!   non-empty and joining another in the same step, re-registration of
//!   a live member, head/middle/tail removal in the middle of a WRR pass,
//!   a reset with requests queued. [`SlabScheduler::validate`] runs over
//!   every scheduler after every operation;
//! * the standalone [`build_scheduler`] form, whose private slab grows
//!   with the ids it is shown, including ids it was never shown.
//!
//! The default run is 256 scripts per discipline and form; the
//! `#[ignore]`d run CI adds is 20,000.

use cm_core::config::SchedulerKind;
use cm_core::scheduler::{build_scheduler, SchedSlot, Scheduler, SlabScheduler};
use cm_core::types::FlowId;
use cm_util::DetRng;

/// The replaced implementation, unchanged but for visibility.
mod reference {
    use cm_core::config::SchedulerKind;
    use cm_core::scheduler::Scheduler;
    use cm_core::types::FlowId;
    use cm_util::FxHashMap;

    pub(crate) fn build(kind: SchedulerKind) -> Box<dyn Scheduler> {
        match kind {
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new()),
            SchedulerKind::WeightedRoundRobin => Box::new(WeightedRoundRobinScheduler::new()),
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
    pub(crate) struct RoundRobinScheduler {
        ring: Ring,
    }

    impl RoundRobinScheduler {
        /// Creates an empty scheduler.
        pub(crate) fn new() -> Self {
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
    pub(crate) struct WeightedRoundRobinScheduler {
        ring: Ring,
        /// Remaining credit in the current pass for the head flow.
        credit: u32,
    }

    impl WeightedRoundRobinScheduler {
        /// Creates an empty scheduler.
        pub(crate) fn new() -> Self {
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
}

const KINDS: [SchedulerKind; 2] = [SchedulerKind::RoundRobin, SchedulerKind::WeightedRoundRobin];
/// Slab slots (flow ids) a script draws from: few, so rotations are
/// short and removals hit heads and tails often.
const SLOTS: u32 = 10;
const OPS_PER_SCRIPT: usize = 160;

/// `n` slab schedulers over one slab beside `n` reference schedulers.
struct Shared {
    slab: Vec<SchedSlot>,
    /// Which scheduler each slot is registered with — the bookkeeping a
    /// shard keeps as `Flow::macroflow`.
    owner: Vec<Option<usize>>,
    slabbed: Vec<SlabScheduler>,
    reference: Vec<Box<dyn Scheduler>>,
}

impl Shared {
    fn new(kind: SchedulerKind, n: usize) -> Self {
        Shared {
            slab: vec![SchedSlot::VACANT; SLOTS as usize],
            owner: vec![None; SLOTS as usize],
            slabbed: (0..n).map(|_| SlabScheduler::new(kind)).collect(),
            reference: (0..n).map(|_| reference::build(kind)).collect(),
        }
    }

    /// Registers `f` with scheduler `a`, first taking it away from
    /// whichever other scheduler holds it — in one step, as `move_flow`
    /// does, so the old rotation is still standing when the slot is
    /// reused.
    fn add(&mut self, a: usize, f: u32, weight: u32) {
        if let Some(b) = self.owner[f as usize].filter(|&b| b != a) {
            self.remove(b, f);
        }
        self.slabbed[a].add_flow(&mut self.slab, f, weight);
        self.reference[a].add_flow(FlowId(f), weight);
        self.owner[f as usize] = Some(a);
    }

    fn remove(&mut self, a: usize, f: u32) {
        self.slabbed[a].remove_flow(&mut self.slab, f);
        self.reference[a].remove_flow(FlowId(f));
        self.owner[f as usize] = None;
    }

    fn step(&mut self, rng: &mut DetRng, trail: &mut Vec<String>) {
        let n = self.slabbed.len();
        let a = rng.next_bounded(n as u64) as usize;
        let f = rng.next_bounded(SLOTS as u64) as u32;
        // A slot's own scheduler where it has one: the contract a shared
        // slab imposes. Operations on a slot nobody holds go to `a` and
        // must be ignored by both forms.
        let holder = self.owner[f as usize].unwrap_or(a);
        let weight = rng.next_bounded(5) as u32;
        match rng.next_bounded(100) {
            0..=29 => {
                trail.push(format!("enqueue({holder}, {f})"));
                self.slabbed[holder].enqueue(&mut self.slab, f);
                self.reference[holder].enqueue(FlowId(f));
            }
            30..=54 => {
                let got = self.slabbed[a].dequeue(&mut self.slab);
                let want = self.reference[a].dequeue();
                trail.push(format!("dequeue({a}) -> {got:?}"));
                assert_eq!(
                    got.map(FlowId),
                    want,
                    "dequeue stream\n{}",
                    trail.join("\n")
                );
            }
            55..=74 => {
                // Fresh registration, re-registration of a live member,
                // or a move from another scheduler, as `owner` has it.
                trail.push(format!("add({a}, {f}, {weight})"));
                self.add(a, f, weight);
            }
            75..=86 => {
                trail.push(format!("remove({holder}, {f})"));
                self.remove(holder, f);
            }
            87..=97 => {
                trail.push(format!("set_weight({holder}, {f}, {weight})"));
                self.slabbed[holder].set_weight(&mut self.slab, f, weight);
                self.reference[holder].set_weight(FlowId(f), weight);
            }
            _ => {
                trail.push(format!("reset({a})"));
                for (l, o) in self.owner.iter_mut().enumerate() {
                    if *o == Some(a) {
                        self.slab[l] = SchedSlot::VACANT;
                        *o = None;
                    }
                }
                self.slabbed[a].reset();
                self.reference[a].reset();
            }
        }
    }

    fn check(&self, trail: &[String]) {
        let at = || trail.join("\n");
        let mut linked = vec![false; self.slab.len()];
        for (a, (s, r)) in self.slabbed.iter().zip(&self.reference).enumerate() {
            assert_eq!(s.pending(), r.pending(), "pending of {a}\n{}", at());
            assert_eq!(
                s.total_weight(),
                r.total_weight(),
                "weight of {a}\n{}",
                at()
            );
            let mine = |l: u32| self.owner[l as usize] == Some(a);
            s.validate(
                &self.slab,
                (0..SLOTS).filter(|&l| mine(l)),
                mine,
                &mut linked,
            )
            .unwrap_or_else(|e| panic!("scheduler {a}: {e}\n{}", at()));
        }
        for (l, slot) in self.slab.iter().enumerate() {
            let f = FlowId(l as u32);
            match self.owner[l] {
                Some(a) => {
                    let r = &self.reference[a];
                    assert_eq!(slot.pending(), r.pending_of(f), "pending_of {l}\n{}", at());
                    assert_eq!(slot.weight(), r.weight_of(f), "weight_of {l}\n{}", at());
                }
                None => assert_eq!(
                    (slot.pending(), slot.weight()),
                    (0, 0),
                    "slot {l} is held by nobody\n{}",
                    at()
                ),
            }
        }
    }
}

fn shared_slab_scripts(scripts: u64) {
    for kind in KINDS {
        for script in 0..scripts {
            let mut rng = DetRng::seed(script).split("scheduler_diff/shared");
            let mut world = Shared::new(kind, 2 + (script % 2) as usize);
            let mut trail = vec![format!("{kind:?}, script {script}")];
            for _ in 0..OPS_PER_SCRIPT {
                world.step(&mut rng, &mut trail);
                world.check(&trail);
            }
        }
    }
}

/// The boxed form against the reference: same trait on both sides, ids up
/// to twice the range ever registered so unknown ids are exercised.
fn standalone_scripts(scripts: u64) {
    for kind in KINDS {
        for script in 0..scripts {
            let mut rng = DetRng::seed(script).split("scheduler_diff/standalone");
            let mut s = build_scheduler(kind);
            let mut r = reference::build(kind);
            assert_eq!(s.name(), r.name());
            for op in 0..OPS_PER_SCRIPT {
                let f = FlowId(rng.next_bounded(2 * SLOTS as u64) as u32);
                let weight = rng.next_bounded(5) as u32;
                let at = format!("{kind:?}, script {script}, op {op}");
                match rng.next_bounded(100) {
                    0..=29 => {
                        s.enqueue(f);
                        r.enqueue(f);
                    }
                    30..=54 => assert_eq!(s.dequeue(), r.dequeue(), "{at}"),
                    55..=74 if f.0 < SLOTS => {
                        s.add_flow(f, weight);
                        r.add_flow(f, weight);
                    }
                    55..=86 => {
                        s.remove_flow(f);
                        r.remove_flow(f);
                    }
                    87..=97 => {
                        s.set_weight(f, weight);
                        r.set_weight(f, weight);
                    }
                    _ => {
                        s.reset();
                        r.reset();
                    }
                }
                assert_eq!(s.pending(), r.pending(), "{at}");
                assert_eq!(s.total_weight(), r.total_weight(), "{at}");
                for l in 0..2 * SLOTS {
                    assert_eq!(s.pending_of(FlowId(l)), r.pending_of(FlowId(l)), "{at}");
                    assert_eq!(s.weight_of(FlowId(l)), r.weight_of(FlowId(l)), "{at}");
                }
            }
        }
    }
}

#[test]
fn slab_schedulers_sharing_a_slab_match_the_map_indexed_reference() {
    shared_slab_scripts(256);
}

#[test]
fn standalone_scheduler_matches_the_map_indexed_reference() {
    standalone_scripts(256);
}

/// The directed form of the hazard the random scripts draw: scheduler 0's
/// rotation is `[1, 2, 3]` mid-pass when its head, then its tail, leave
/// for scheduler 1 and are served there at once.
#[test]
fn a_slot_leaves_a_standing_rotation_for_another_scheduler() {
    for kind in KINDS {
        let mut w = Shared::new(kind, 2);
        let trail = [format!("{kind:?}, directed")];
        for f in 1..=3 {
            w.add(0, f, f + 1);
            for _ in 0..3 {
                w.slabbed[0].enqueue(&mut w.slab, f);
                w.reference[0].enqueue(FlowId(f));
            }
        }
        w.check(&trail);
        let serve = |w: &mut Shared, a: usize| {
            let got = w.slabbed[a].dequeue(&mut w.slab).map(FlowId);
            assert_eq!(got, w.reference[a].dequeue(), "{kind:?}");
            w.check(&trail);
            got
        };
        serve(&mut w, 0);
        for f in [1, 3] {
            w.add(1, f, 2);
            w.check(&trail);
            w.slabbed[1].enqueue(&mut w.slab, f);
            w.reference[1].enqueue(FlowId(f));
            assert_eq!(serve(&mut w, 1), Some(FlowId(f)));
        }
        while serve(&mut w, 0).is_some() {}
        assert_eq!(w.slabbed[0].pending() + w.slabbed[1].pending(), 0);
    }
}

/// CI's long run: `cargo test --release -p cm-core --test scheduler_diff
/// -- --ignored`.
#[test]
#[ignore = "20,000 scripts per discipline and form; CI runs it in release"]
fn twenty_thousand_scripts_match_the_map_indexed_reference() {
    shared_slab_scripts(20_000);
    standalone_scripts(20_000);
}
