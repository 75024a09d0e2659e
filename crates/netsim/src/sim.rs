//! The simulator core: nodes, routing, timers, and the run loop.
//!
//! A [`Simulator`] owns a set of [`Node`]s (hosts and routers), the
//! [`Link`]s between them, a routing table, and the future-event list.
//! Nodes interact with the world exclusively through a [`NodeCtx`] handed
//! to their event handlers, which keeps the borrow structure simple and
//! makes every interaction observable.
//!
//! # Determinism
//!
//! Events at equal timestamps run in the order their sequence numbers
//! were taken, all randomness flows from one seeded generator, and node
//! handlers run one at a time, so a simulation with the same inputs
//! produces byte-identical traces on every platform.
//!
//! A number is normally taken when the event is scheduled. Two kinds of
//! caller take it earlier: a host re-arming a timer, and a link. A link
//! reserves the place of a serialization's *completion* when the
//! serialization starts and schedules a `LinkTxDone` there only if a
//! packet waits behind the one on the wire, so that event, when it
//! exists, runs exactly where it always did. A link without
//! departure-stage faults also schedules the packet's *delivery* at that
//! moment, so the tie rule for deliveries is: **a clean link's delivery
//! takes its place among same-nanosecond events when serialization
//! starts**, not when it ends. It therefore runs before an event that
//! another handler scheduled, while the packet was serializing, for the
//! delivery's own nanosecond — a timer, a faulty link's delivery, or the
//! delivery of a clean link that started later and finished earlier. Two
//! clean links that finish in the same instant keep their order (start
//! order is completion order). Measured on the benchmark's simulated
//! workloads with an instrumented build: no such tie in 4.20 M
//! (`sim_bulk`) and 16.12 M (`sim_mix`) deliveries; the goldens under
//! `tests/golden/` and `docs/figures/` are the standing gate.
//!
//! # Routers
//!
//! A packet that arrives at a plain [`RouterNode`] is not handed to it:
//! the simulator forwards the packet's slot in the event queue's packet
//! slab itself, doing exactly what [`RouterNode::on_packet`] does through
//! [`NodeCtx::send`] — the same route lookup, the same fresh packet id,
//! the same loss-stage draws and the same events — without taking the
//! packet out of the slab. Only a node with behaviour of its own receives
//! the packet by value.

use std::any::Any;

use cm_util::{DetRng, Duration, Rate, Time};

use crate::event::{Event, EventQueue, PacketSlot, SimEvent};
use crate::link::{Link, LinkId, LinkSpec};
use crate::packet::{Addr, Packet};
use crate::schedule::BandwidthSchedule;
use crate::trace::LinkStats;

/// Identifies a node within a simulator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// A handle for cancelling a pending timer: a slab slot plus the
/// generation stamped when the timer was armed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerHandle {
    slot: u32,
    gen: u32,
}

/// One slab entry for a pending timer. Slots are recycled when their
/// event pops (fired or skipped), so the slab's size is bounded by the
/// number of timer events actually in flight — unlike the old
/// `cancelled_timers: HashSet<u64>`, which grew without bound because
/// ids of fired-but-never-cancelled timers were never pruned.
#[derive(Clone, Copy, Debug)]
struct TimerSlot {
    gen: u32,
    armed: bool,
}

/// Behaviour attached to a simulated node.
///
/// Implementations are hosts (with full protocol stacks) or routers.
/// Handlers receive a [`NodeCtx`] for sending packets and managing timers.
pub trait Node: Any {
    /// Called once when the simulation starts, before any event.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }

    /// A packet addressed through this node arrived.
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet);

    /// A timer set via [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64);
}

/// A node that forwards every packet onward using the routing table; the
/// interior nodes of a dumbbell. The simulator recognises it and forwards
/// what arrives at it without a call into `on_packet` (see the module
/// docs); the handler below states what that forwarding does.
pub struct RouterNode;

impl Node for RouterNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        ctx.send(pkt);
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
}

/// Everything in the simulator except the nodes themselves; node handlers
/// borrow this through [`NodeCtx`] while the node is temporarily detached.
struct World {
    links: Vec<Link>,
    /// Per-node dense route tables indexed by destination address value.
    /// A node's address is its index + 1 ([`node_addr`]), so this
    /// replaces a `HashMap<(usize, Addr), LinkId>` lookup on every
    /// forwarded packet with two array indexes.
    routes: Vec<Vec<Option<LinkId>>>,
    default_routes: Vec<Option<LinkId>>,
    rng: DetRng,
    timer_slots: Vec<TimerSlot>,
    free_timer_slots: Vec<u32>,
    next_pkt_id: u64,
    /// Packets dropped because no route matched (a topology bug; counted
    /// rather than panicking so experiments fail loudly but gracefully).
    unrouted: u64,
}

impl World {
    fn route_for(&self, node: NodeId, dst: Addr) -> Option<LinkId> {
        self.routes[node.0]
            .get(dst.0 as usize)
            .copied()
            .flatten()
            .or(self.default_routes[node.0])
    }

    fn alloc_timer_slot(&mut self) -> (u32, u32) {
        match self.free_timer_slots.pop() {
            Some(slot) => {
                let s = &mut self.timer_slots[slot as usize];
                s.armed = true;
                (slot, s.gen)
            }
            None => {
                let slot = self.timer_slots.len() as u32;
                self.timer_slots.push(TimerSlot {
                    gen: 0,
                    armed: true,
                });
                (slot, 0)
            }
        }
    }

    /// The link `node` sends a packet for `dst` out on, counting a packet
    /// without a route.
    fn next_hop(&mut self, node: NodeId, dst: Addr) -> Option<LinkId> {
        let link = self.route_for(node, dst);
        if link.is_none() {
            debug_assert!(false, "no route from {node:?} to {dst}");
            self.unrouted += 1;
        }
        link
    }

    /// Takes the next packet id.
    fn stamp(&mut self) -> u64 {
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        id
    }

    fn send_from(&mut self, node: NodeId, mut pkt: Packet, now: Time, evq: &mut EventQueue) {
        if let Some(link) = self.next_hop(node, pkt.dst) {
            pkt.id = self.stamp();
            self.links[link.0].offer(pkt, now, &mut self.rng, evq);
        }
    }

    /// [`World::send_from`] of a packet already in the slab: what a
    /// [`RouterNode`] does with a packet, done in place.
    fn forward(&mut self, node: NodeId, slot: PacketSlot, now: Time, evq: &mut EventQueue) {
        let pkt = &mut evq.packets_mut()[slot];
        match self.next_hop(node, pkt.dst) {
            Some(link) => {
                pkt.id = self.stamp();
                let size = pkt.size;
                self.links[link.0].forward(slot, size, now, &mut self.rng, evq);
            }
            None => evq.packets_mut().free(slot),
        }
    }
}

/// The mutable view of the simulation a node's handlers operate through.
pub struct NodeCtx<'a> {
    now: Time,
    node: NodeId,
    world: &'a mut World,
    evq: &'a mut EventQueue,
}

impl NodeCtx<'_> {
    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the node this context belongs to.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// This node's network address.
    pub fn addr(&self) -> Addr {
        node_addr(self.node)
    }

    /// Sends a packet into the network along the routing table.
    #[inline]
    pub fn send(&mut self, pkt: Packet) {
        self.world.send_from(self.node, pkt, self.now, self.evq);
    }

    /// Schedules `on_timer(token)` to fire after `after`.
    pub fn set_timer(&mut self, after: Duration, token: u64) -> TimerHandle {
        let order = self.reserve_order();
        self.set_timer_ordered(after, token, order)
    }

    /// Takes this instant's next place in the event order without
    /// scheduling anything — what a node that moves a timer's deadline
    /// instead of arming a second event keeps, so that the event it
    /// eventually schedules with [`NodeCtx::set_timer_ordered`] fires
    /// where one armed now would.
    pub fn reserve_order(&mut self) -> u64 {
        self.evq.reserve_seq()
    }

    /// [`NodeCtx::set_timer`] under a place taken earlier with
    /// [`NodeCtx::reserve_order`]: among events of its instant the timer
    /// fires as if it had been armed when the place was reserved.
    pub fn set_timer_ordered(&mut self, after: Duration, token: u64, order: u64) -> TimerHandle {
        let (slot, gen) = self.world.alloc_timer_slot();
        let node = self.node.0 as u32;
        self.evq.push(
            self.now + after,
            order,
            Event::Timer {
                node,
                slot,
                gen,
                token,
            },
        );
        TimerHandle { slot, gen }
    }

    /// Cancels a pending timer; a no-op if it already fired. O(1): the
    /// slot is disarmed in place and recycled when its event pops.
    #[cfg(test)]
    fn cancel_timer(&mut self, handle: TimerHandle) {
        if let Some(s) = self.world.timer_slots.get_mut(handle.slot as usize) {
            if s.gen == handle.gen {
                s.armed = false;
            }
        }
    }

    /// The shared deterministic random number generator.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.world.rng
    }

    /// The address assigned to `node` (for composing destination fields).
    pub fn addr_of(&self, node: NodeId) -> Addr {
        node_addr(node)
    }
}

/// A node's network address: its index + 1, so `Addr(0)` stays
/// unspecified.
fn node_addr(node: NodeId) -> Addr {
    Addr(node.0 as u32 + 1)
}

/// A discrete-event network simulator.
pub struct Simulator {
    now: Time,
    evq: EventQueue,
    nodes: Vec<Option<Box<dyn Node>>>,
    /// Per node: is it a plain [`RouterNode`], forwarded in place?
    routers: Vec<bool>,
    world: World,
    started: bool,
    events_processed: u64,
}

impl Simulator {
    /// Creates an empty simulator whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: Time::ZERO,
            evq: EventQueue::new(),
            nodes: Vec::new(),
            routers: Vec::new(),
            world: World {
                links: Vec::new(),
                routes: Vec::new(),
                default_routes: Vec::new(),
                rng: DetRng::seed(seed).split("netsim"),
                timer_slots: Vec::new(),
                free_timer_slots: Vec::new(),
                next_pkt_id: 0,
                unrouted: 0,
            },
            started: false,
            events_processed: 0,
        }
    }

    /// Adds a node; its address is its index + 1, as
    /// [`Simulator::addr_of`] returns it.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        let any: &dyn Any = node.as_ref();
        self.routers.push(any.is::<RouterNode>());
        self.nodes.push(Some(node));
        self.world.default_routes.push(None);
        self.world.routes.push(Vec::new());
        id
    }

    /// Adds a unidirectional link from `from` to `to`.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, spec: &LinkSpec) -> LinkId {
        let id = LinkId(self.world.links.len());
        self.world.links.push(Link::new(id, from, to, spec));
        id
    }

    /// Installs a host route: packets at `node` destined to `dst` leave
    /// via `link`.
    pub fn set_route(&mut self, node: NodeId, dst: Addr, link: LinkId) {
        let table = &mut self.world.routes[node.0];
        if table.len() <= dst.0 as usize {
            table.resize(dst.0 as usize + 1, None);
        }
        table[dst.0 as usize] = Some(link);
    }

    /// Installs the default route for `node`.
    pub fn set_default_route(&mut self, node: NodeId, link: LinkId) {
        self.world.default_routes[node.0] = Some(link);
    }

    /// The address assigned to `node`.
    pub fn addr_of(&self, node: NodeId) -> Addr {
        node_addr(node)
    }

    /// Total timer-slab capacity ever allocated. Stays bounded by the
    /// peak number of concurrently pending timers, regardless of how many
    /// timers have been set and cancelled over the simulation's lifetime.
    pub fn timer_slot_capacity(&self) -> usize {
        self.world.timer_slots.len()
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events dispatched so far (for throughput benchmarking).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Counters for a link as of the simulator's clock: a packet whose
    /// serialization has ended counts as transmitted whether or not an
    /// event marked the end (see [`Link::stats`]).
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.world.links[link.0].stats(self.now, &self.evq)
    }

    /// Mutable access to a link. No library code changes a link through
    /// it; its callers read a link's endpoints and queue length.
    pub fn link_mut(&mut self, link: LinkId) -> &mut Link {
        &mut self.world.links[link.0]
    }

    /// Packets dropped for want of a route (should stay zero).
    pub fn unrouted_packets(&self) -> u64 {
        self.world.unrouted
    }

    /// Packets inside the network: queued at a link, being serialized or
    /// held by one, or on their way to a node.
    pub fn packets_in_flight(&self) -> usize {
        self.evq.packets().len()
    }

    /// Attaches a bandwidth schedule to `link`: each step becomes one
    /// [`SimEvent::LinkRateChange`] in the future-event list. Steps at or
    /// before the current instant apply immediately (last one wins).
    ///
    /// Schedule execution is O(1) per step and fully deterministic —
    /// rate changes interleave with packet events in `(time, seq)`
    /// order like everything else.
    pub fn apply_link_schedule(&mut self, link: LinkId, sched: &BandwidthSchedule) {
        // Only the last past step is in force; apply it through the same
        // path a live step takes so a transmitter stalled at rate zero
        // restarts immediately (and never starts serializing at a
        // superseded intermediate rate).
        let mut in_force: Option<Rate> = None;
        for &(at, rate) in sched.steps() {
            if at <= self.now {
                in_force = Some(rate);
            } else {
                self.evq
                    .schedule(at, SimEvent::LinkRateChange { link, rate });
            }
        }
        if let Some(rate) = in_force {
            self.world.links[link.0].on_rate_change(rate, self.now, &mut self.evq);
        }
    }

    /// Runs a closure against a node with full context, e.g. to start an
    /// application or inject work from the experiment harness.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of type `T` or is re-entered.
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut NodeCtx<'_>) -> R,
    ) -> R {
        self.start_if_needed();
        #[expect(
            clippy::expect_used,
            reason = "documented panic — re-entrant with_node is a caller bug"
        )]
        let mut node = self.nodes[id.0]
            .take()
            .expect("node missing (re-entrant with_node?)");
        let result = {
            let any: &mut dyn Any = node.as_mut();
            #[expect(
                clippy::expect_used,
                reason = "documented panic — wrong node type is a caller bug"
            )]
            let typed = any
                .downcast_mut::<T>()
                .expect("with_node called with wrong node type");
            let mut ctx = NodeCtx {
                now: self.now,
                node: id,
                world: &mut self.world,
                evq: &mut self.evq,
            };
            f(typed, &mut ctx)
        };
        self.nodes[id.0] = Some(node);
        result
    }

    /// Immutable typed access to a node, e.g. to read statistics.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of type `T` or is currently detached.
    #[expect(
        clippy::expect_used,
        reason = "documented panic — wrong node type is a caller bug"
    )]
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        #[expect(
            clippy::expect_used,
            reason = "documented panic — node_ref during dispatch is a caller bug"
        )]
        let node = self.nodes[id.0]
            .as_ref()
            .expect("node missing (called during dispatch?)");
        let any: &dyn Any = node.as_ref();
        any.downcast_ref::<T>()
            .expect("node_ref called with wrong node type")
    }

    /// Runs every node's `on_start` the first time the simulation is
    /// driven: a flag test on every step, the start itself out of line.
    #[inline(always)]
    fn start_if_needed(&mut self) {
        if !self.started {
            self.start();
        }
    }

    #[cold]
    #[inline(never)]
    fn start(&mut self) {
        self.started = true;
        for i in 0..self.nodes.len() {
            let id = NodeId(i);
            let Some(mut node) = self.nodes[i].take() else {
                continue;
            };
            let mut ctx = NodeCtx {
                now: self.now,
                node: id,
                world: &mut self.world,
                evq: &mut self.evq,
            };
            node.on_start(&mut ctx);
            self.nodes[i] = Some(node);
        }
    }

    /// Executes the next event, if any; returns whether one ran.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        match self.evq.pop_stored() {
            None => false,
            Some((at, ev)) => {
                debug_assert!(at >= self.now, "time went backwards");
                self.now = at;
                self.events_processed += 1;
                self.dispatch(ev);
                true
            }
        }
    }

    /// Runs every event scheduled at or before `deadline`, then sets the
    /// clock to `deadline` — whether the queue ran dry earlier or events
    /// remain beyond it — and marks that instant as over, so a caller
    /// acting at `deadline` acts after everything that happened then. A
    /// deadline in the past runs nothing and leaves the clock alone.
    pub fn run_until(&mut self, deadline: Time) {
        self.start_if_needed();
        while let Some(t) = self.evq.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now <= deadline {
            self.now = deadline;
            self.evq.pass_instant();
        }
    }

    /// Runs until no events remain (natural quiescence), up to a safety
    /// limit of `max_events` to guard against livelock.
    ///
    /// # Panics
    ///
    /// Panics if the limit is exceeded, which indicates a runaway timer
    /// loop in a node implementation.
    pub fn run_to_quiescence(&mut self, max_events: u64) {
        self.start_if_needed();
        let start = self.events_processed;
        while self.step() {
            assert!(
                self.events_processed - start <= max_events,
                "simulation exceeded {max_events} events without quiescing"
            );
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::LinkTxDone { link } => {
                let World { links, rng, .. } = &mut self.world;
                links[link as usize].on_tx_done(self.now, rng, &mut self.evq);
            }
            Event::LinkDeliver { link, pkt } => {
                let to = self.world.links[link as usize].to;
                if self.routers[to.0] {
                    self.world.forward(to, pkt, self.now, &mut self.evq);
                } else {
                    let pkt = self.evq.packets_mut().remove(pkt);
                    self.deliver(to, pkt);
                }
            }
            Event::LinkRateChange { link, rate } => {
                self.world.links[link as usize].on_rate_change(rate, self.now, &mut self.evq);
            }
            Event::LinkFaultRestart { link } => {
                self.world.links[link as usize].on_fault_restart(self.now, &mut self.evq);
            }
            Event::Timer {
                node,
                slot,
                gen,
                token,
            } => {
                // Resolve and recycle the slot; skip dispatch if the
                // timer was cancelled after arming.
                let s = &mut self.world.timer_slots[slot as usize];
                debug_assert_eq!(s.gen, gen, "timer slot reused before its event popped");
                let armed = s.gen == gen && s.armed;
                s.armed = false;
                s.gen = s.gen.wrapping_add(1);
                self.world.free_timer_slots.push(slot);
                if !armed {
                    return;
                }
                let node = NodeId(node as usize);
                let Some(mut n) = self.nodes[node.0].take() else {
                    return;
                };
                let mut ctx = NodeCtx {
                    now: self.now,
                    node,
                    world: &mut self.world,
                    evq: &mut self.evq,
                };
                n.on_timer(&mut ctx, token);
                self.nodes[node.0] = Some(n);
            }
        }
    }

    fn deliver(&mut self, to: NodeId, pkt: Packet) {
        let Some(mut n) = self.nodes[to.0].take() else {
            return;
        };
        let mut ctx = NodeCtx {
            now: self.now,
            node: to,
            world: &mut self.world,
            evq: &mut self.evq,
        };
        n.on_packet(&mut ctx, pkt);
        self.nodes[to.0] = Some(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Payload, Protocol};
    use cm_util::Rate;

    /// Records every packet it receives, with arrival times.
    struct Sink {
        received: Vec<(Time, u64)>,
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
            self.received.push((ctx.now(), pkt.id));
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
    }

    fn udp(src: Addr, dst: Addr, size: usize) -> Packet {
        Packet::new(src, dst, 1, 2, Protocol::Udp, size, Payload::empty())
    }

    /// Sends `n` packets at start, optionally on a timer cadence.
    struct Blaster {
        dst: Addr,
        n: usize,
        size: usize,
    }

    impl Node for Blaster {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for _ in 0..self.n {
                ctx.send(udp(ctx.addr(), self.dst, self.size));
            }
        }
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
    }

    fn two_node_sim(rate: Rate, delay: Duration, n: usize, size: usize) -> (Simulator, NodeId) {
        seeded_two_node_sim(1, &LinkSpec::new(rate, delay), n, size)
    }

    fn seeded_two_node_sim(
        seed: u64,
        spec: &LinkSpec,
        n: usize,
        size: usize,
    ) -> (Simulator, NodeId) {
        let mut sim = Simulator::new(seed);
        let sink = sim.add_node(Box::new(Sink { received: vec![] }));
        let sink_addr = sim.addr_of(sink);
        let src = sim.add_node(Box::new(Blaster {
            dst: sink_addr,
            n,
            size,
        }));
        let link = sim.add_link(src, sink, spec);
        sim.set_default_route(src, link);
        (sim, sink)
    }

    #[test]
    fn delivery_time_is_serialization_plus_propagation() {
        // 1250 bytes at 10 Mbps = 1 ms serialization; +9 ms propagation.
        let (mut sim, sink) = two_node_sim(Rate::from_mbps(10), Duration::from_millis(9), 1, 1250);
        sim.run_to_quiescence(1_000);
        let sink = sim.node_ref::<Sink>(sink);
        assert_eq!(sink.received.len(), 1);
        assert_eq!(sink.received[0].0, Time::from_millis(10));
    }

    #[test]
    fn back_to_back_deliveries_spaced_by_serialization() {
        let (mut sim, sink) = two_node_sim(Rate::from_mbps(10), Duration::ZERO, 3, 1250);
        sim.run_to_quiescence(1_000);
        let sink = sim.node_ref::<Sink>(sink);
        let times: Vec<u64> = sink.received.iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(times.len(), 3);
        assert_eq!(times[1] - times[0], 1_000_000);
        assert_eq!(times[2] - times[1], 1_000_000);
    }

    #[test]
    fn packets_get_unique_increasing_ids() {
        let (mut sim, sink) = two_node_sim(Rate::from_mbps(100), Duration::ZERO, 5, 100);
        sim.run_to_quiescence(1_000);
        let sink = sim.node_ref::<Sink>(sink);
        let ids: Vec<u64> = sink.received.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    /// A node that sets and cancels timers.
    struct TimerNode {
        fired: Vec<u64>,
        cancel_next: Option<TimerHandle>,
    }

    impl Node for TimerNode {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration::from_millis(10), 1);
            let h = ctx.set_timer(Duration::from_millis(20), 2);
            ctx.set_timer(Duration::from_millis(30), 3);
            self.cancel_next = Some(h);
        }
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
            self.fired.push(token);
            if token == 1 {
                // Cancel timer 2 before it fires.
                let h = self.cancel_next.take().unwrap();
                ctx.cancel_timer(h);
            }
        }
    }

    #[test]
    fn timer_cancellation() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node(Box::new(TimerNode {
            fired: vec![],
            cancel_next: None,
        }));
        sim.run_to_quiescence(100);
        let node = sim.node_ref::<TimerNode>(n);
        assert_eq!(node.fired, vec![1, 3]);
    }

    #[test]
    fn router_forwards() {
        let mut sim = Simulator::new(1);
        let sink = sim.add_node(Box::new(Sink { received: vec![] }));
        let sink_addr = sim.addr_of(sink);
        let router = sim.add_node(Box::new(RouterNode));
        let src = sim.add_node(Box::new(Blaster {
            dst: sink_addr,
            n: 2,
            size: 500,
        }));
        let spec = LinkSpec::new(Rate::from_mbps(100), Duration::from_millis(1));
        let l1 = sim.add_link(src, router, &spec);
        let l2 = sim.add_link(router, sink, &spec);
        sim.set_default_route(src, l1);
        sim.set_default_route(router, l2);
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.node_ref::<Sink>(sink).received.len(), 2);
        assert_eq!(sim.unrouted_packets(), 0);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = Simulator::new(1);
        sim.run_until(Time::from_secs(5));
        assert_eq!(sim.now(), Time::from_secs(5));
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let run = |seed| {
            // Loss exercises the RNG path.
            let spec = LinkSpec::new(Rate::from_mbps(10), Duration::ZERO).with_loss(0.3);
            let (mut sim, sink) = seeded_two_node_sim(seed, &spec, 10, 700);
            sim.run_to_quiescence(10_000);
            sim.node_ref::<Sink>(sink)
                .received
                .iter()
                .map(|&(t, id)| (t.as_nanos(), id))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "the seed reaches the loss draws");
    }

    /// Sends a packet on demand and one per timer (the token is the size).
    struct Src {
        dst: Addr,
    }

    impl Src {
        fn send(&self, ctx: &mut NodeCtx<'_>, size: usize) {
            ctx.send(udp(ctx.addr(), self.dst, size));
        }
    }

    impl Node for Src {
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
            self.send(ctx, token as usize);
        }
    }

    fn src_sink_sim(spec: &LinkSpec) -> (Simulator, NodeId, NodeId, LinkId) {
        let mut sim = Simulator::new(1);
        let sink = sim.add_node(Box::new(Sink { received: vec![] }));
        let dst = sim.addr_of(sink);
        let src = sim.add_node(Box::new(Src { dst }));
        let link = sim.add_link(src, sink, spec);
        sim.set_default_route(src, link);
        (sim, src, sink, link)
    }

    fn arrivals(sim: &Simulator, sink: NodeId) -> Vec<Time> {
        let received = &sim.node_ref::<Sink>(sink).received;
        received.iter().map(|&(t, _)| t).collect()
    }

    /// 125 bytes serialize in exactly 1 ms; 3 ms of propagation.
    fn one_ms_link() -> LinkSpec {
        LinkSpec::new(Rate::from_mbps(1), Duration::from_millis(3))
    }

    const MS: fn(u64) -> Time = Time::from_millis;

    /// A packet that arrives in the very nanosecond a serialization ends
    /// is before or after the completion by its event's number alone.
    #[test]
    fn arrival_at_the_completion_instant_takes_the_side_of_its_number() {
        let run = |timer_first: bool| {
            let (mut sim, src, sink, _) = src_sink_sim(&one_ms_link());
            sim.with_node::<Src, _>(src, |s, ctx| {
                if timer_first {
                    ctx.set_timer(Duration::from_millis(1), 125);
                }
                s.send(ctx, 125);
                if !timer_first {
                    ctx.set_timer(Duration::from_millis(1), 125);
                }
            });
            sim.run_to_quiescence(100);
            (arrivals(&sim, sink), sim.events_processed())
        };
        // Numbered below the completion's place: the packet queues, the
        // completion is scheduled into its place and starts it in the
        // same instant (timer, completion, two deliveries).
        let (below, below_events) = run(true);
        // Numbered above: the completion has gone by, transmission starts
        // at once and no completion event ever exists.
        let (above, above_events) = run(false);
        assert_eq!(below, [MS(4), MS(5)]);
        assert_eq!(above, below);
        assert_eq!((below_events, above_events), (4, 3));
    }

    /// `run_until` leaves its deadline instant behind: a serialization
    /// ending exactly there is over for the counters and for the next
    /// sender; one nanosecond earlier it is neither.
    #[test]
    fn run_until_the_completion_instant_finds_the_link_idle() {
        let probe = |stop: Time| {
            let (mut sim, src, sink, link) = src_sink_sim(&one_ms_link());
            sim.with_node::<Src, _>(src, |s, ctx| s.send(ctx, 125));
            sim.run_until(stop);
            let transmitted = sim.link_stats(link).transmitted;
            sim.with_node::<Src, _>(src, |s, ctx| s.send(ctx, 125));
            sim.run_to_quiescence(100);
            assert_eq!(sim.link_stats(link).transmitted, 2);
            (transmitted, arrivals(&sim, sink), sim.events_processed())
        };
        // Either way the second packet starts at 1 ms; only the early one
        // had to wait for a completion event to do so.
        assert_eq!(probe(MS(1)), (1, vec![MS(4), MS(5)], 2));
        let just_before = Time::from_nanos(MS(1).as_nanos() - 1);
        assert_eq!(probe(just_before), (0, vec![MS(4), MS(5)], 3));
    }

    /// A rate step in mid-serialization moves nothing already on the wire.
    #[test]
    fn rate_step_mid_serialization_applies_from_the_next_packet() {
        use crate::schedule::BandwidthSchedule;

        let (mut sim, src, sink, link) = src_sink_sim(&one_ms_link());
        let step = vec![(Time::from_micros(500), Rate::from_mbps(10))];
        sim.apply_link_schedule(link, &BandwidthSchedule::from_steps(step));
        sim.with_node::<Src, _>(src, |s, ctx| {
            s.send(ctx, 125);
            ctx.set_timer(Duration::from_micros(750), 125);
        });
        sim.run_to_quiescence(100);
        // The first still ends at 1 ms; the second, queued behind it,
        // takes 0.1 ms from there.
        assert_eq!(arrivals(&sim, sink), [MS(4), Time::from_micros(4_100)]);
    }

    /// A link with a departure stage keeps the packet to the end of its
    /// serialization and draws its fate there, not at the start.
    #[test]
    fn duplicating_link_delivers_twice_and_draws_at_completion() {
        use crate::fault::LinkFaults;

        // Certain duplication draws nothing; the even-odds spike does.
        let faults = LinkFaults::clean()
            .with_duplication(1.0)
            .with_delay_spikes(0.5, Duration::from_millis(1));
        let spec = one_ms_link().with_faults(faults);
        let next_draw = |send: bool, stop: Time| {
            let (mut sim, src, sink, _) = src_sink_sim(&spec);
            if send {
                sim.with_node::<Src, _>(src, |s, ctx| s.send(ctx, 125));
            }
            sim.run_until(stop);
            let draw = sim.with_node::<Src, _>(src, |_, ctx| ctx.rng().next_u64());
            sim.run_to_quiescence(100);
            (draw, arrivals(&sim, sink).len())
        };
        let (untouched, _) = next_draw(false, MS(1));
        let just_before = Time::from_nanos(MS(1).as_nanos() - 1);
        assert_eq!(next_draw(true, just_before), (untouched, 2));
        let (after, delivered) = next_draw(true, MS(1));
        assert_ne!(after, untouched, "the spike draw happens at 1 ms");
        assert_eq!(delivered, 2);
    }

    /// A source that keeps the link saturated: offers a packet every
    /// `tick` regardless of drain rate (drops absorb the excess).
    struct SaturatingSource {
        dst: Addr,
        size: usize,
        tick: Duration,
        until: Time,
    }

    impl Node for SaturatingSource {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(self.tick, 0);
        }
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            ctx.send(udp(ctx.addr(), self.dst, self.size));
            if ctx.now() < self.until {
                ctx.set_timer(self.tick, 0);
            }
        }
    }

    /// Delivered throughput must track a piecewise-constant bandwidth
    /// schedule phase by phase: the whole point of time-varying links.
    #[test]
    fn throughput_tracks_bandwidth_schedule() {
        use crate::schedule::BandwidthSchedule;

        let mut sim = Simulator::new(1);
        let sink = sim.add_node(Box::new(Sink { received: vec![] }));
        let sink_addr = sim.addr_of(sink);
        // 1250-byte packets offered every 1 ms = 10 Mbps offered load.
        let src = sim.add_node(Box::new(SaturatingSource {
            dst: sink_addr,
            size: 1250,
            tick: Duration::from_millis(1),
            until: Time::from_secs(3),
        }));
        let link = sim.add_link(
            src,
            sink,
            &LinkSpec::new(Rate::from_mbps(8), Duration::ZERO),
        );
        sim.set_default_route(src, link);
        // 8 Mbps for the first second, 2 Mbps for the second, back to
        // 8 Mbps for the third.
        let sched = BandwidthSchedule::from_steps(vec![
            (Time::from_secs(1), Rate::from_mbps(2)),
            (Time::from_secs(2), Rate::from_mbps(8)),
        ]);
        sim.apply_link_schedule(link, &sched);
        sim.run_until(Time::from_secs(4));

        // Bin deliveries per second of arrival time.
        let mut per_sec = [0u64; 3];
        for &(t, _) in &sim.node_ref::<Sink>(sink).received {
            let s = (t.as_nanos() / 1_000_000_000) as usize;
            if s < 3 {
                per_sec[s] += 1250 * 8; // bits
            }
        }
        // Phase goodputs track the schedule (within 15% for boundary
        // effects and queue carryover).
        let track = |bits: u64, mbps: u64| {
            let expect = mbps * 1_000_000;
            assert!(
                bits as f64 >= expect as f64 * 0.85 && bits as f64 <= expect as f64 * 1.15,
                "phase carried {bits} bits, schedule allowed {expect}"
            );
        };
        track(per_sec[0], 8);
        track(per_sec[1], 2);
        track(per_sec[2], 8);
    }

    /// Applying a schedule whose in-force (past) step is nonzero must
    /// restart a transmitter stalled at rate zero — the mid-run
    /// application path goes through `Link::on_rate_change`, which
    /// restarts the transmitter, not a bare rate write.
    #[test]
    fn applying_schedule_mid_run_restarts_stalled_link() {
        use crate::schedule::BandwidthSchedule;

        let mut sim = Simulator::new(1);
        let sink = sim.add_node(Box::new(Sink { received: vec![] }));
        let sink_addr = sim.addr_of(sink);
        let src = sim.add_node(Box::new(Blaster {
            dst: sink_addr,
            n: 2,
            size: 125,
        }));
        // The link starts stopped: offered packets queue.
        let link = sim.add_link(src, sink, &LinkSpec::new(Rate::ZERO, Duration::ZERO));
        sim.set_default_route(src, link);
        sim.run_until(Time::from_millis(5));
        assert_eq!(sim.node_ref::<Sink>(sink).received.len(), 0);
        // A mid-run schedule whose only step is already in the past.
        let sched = BandwidthSchedule::from_steps(vec![(Time::from_millis(1), Rate::from_mbps(1))]);
        sim.apply_link_schedule(link, &sched);
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.node_ref::<Sink>(sink).received.len(), 2);
    }

    /// A rate change to zero stalls the link; the next step restarts it.
    #[test]
    fn zero_rate_stalls_until_restarted() {
        use crate::schedule::BandwidthSchedule;

        let mut sim = Simulator::new(1);
        let sink = sim.add_node(Box::new(Sink { received: vec![] }));
        let sink_addr = sim.addr_of(sink);
        let src = sim.add_node(Box::new(Blaster {
            dst: sink_addr,
            n: 3,
            size: 125,
        }));
        let link = sim.add_link(
            src,
            sink,
            &LinkSpec::new(Rate::from_mbps(1), Duration::ZERO),
        );
        sim.set_default_route(src, link);
        // Stop the link at 1 ms (after the first packet serializes),
        // restart at 100 ms.
        let sched = BandwidthSchedule::from_steps(vec![
            (Time::from_millis(1), Rate::ZERO),
            (Time::from_millis(100), Rate::from_mbps(1)),
        ]);
        sim.apply_link_schedule(link, &sched);
        sim.run_to_quiescence(1_000);
        let received = &sim.node_ref::<Sink>(sink).received;
        assert_eq!(received.len(), 3);
        // Packets 2 and 3 arrive only after the restart.
        assert!(received[1].0 >= Time::from_millis(100));
        assert!(received[2].0 >= Time::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "wrong node type")]
    fn node_ref_wrong_type_panics() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node(Box::new(RouterNode));
        sim.run_until(Time::ZERO);
        let _ = sim.node_ref::<Sink>(n);
    }

    /// A node that endlessly sets a short timer, plus a longer one it
    /// immediately cancels — the arm/cancel churn a transport's RTO
    /// management produces on every ACK.
    struct TimerChurn {
        rounds: u32,
        max_rounds: u32,
    }

    impl Node for TimerChurn {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration::from_millis(1), 0);
        }
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            self.rounds += 1;
            if self.rounds >= self.max_rounds {
                return;
            }
            let h = ctx.set_timer(Duration::from_millis(5), 1);
            ctx.cancel_timer(h);
            // Cancelling twice (or after reuse) must stay harmless.
            ctx.cancel_timer(h);
            ctx.set_timer(Duration::from_millis(1), 0);
        }
    }

    /// Regression for the unbounded `cancelled_timers: HashSet<u64>` the
    /// timer slab replaced: long simulations with heavy set/cancel churn
    /// must keep timer bookkeeping bounded by the number of timers
    /// actually pending, not by the number ever created.
    #[test]
    fn timer_state_stays_bounded_under_cancel_churn() {
        let mut sim = Simulator::new(1);
        let n = sim.add_node(Box::new(TimerChurn {
            rounds: 0,
            max_rounds: 10_000,
        }));
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.node_ref::<TimerChurn>(n).rounds, 10_000);
        // Only a handful of timers are ever pending at once (the 1 ms
        // ticker plus the few cancelled 5 ms timers whose events have
        // not popped yet), so the slab stays a handful of slots — 20k
        // set/cancel cycles must not leave 20k dead entries behind.
        assert!(
            sim.timer_slot_capacity() <= 16,
            "timer slab grew to {} slots",
            sim.timer_slot_capacity()
        );
        // Every slot is back on the free list: none armed, none awaiting
        // its queued event.
        assert_eq!(
            sim.world.timer_slots.len(),
            sim.world.free_timer_slots.len()
        );
    }
}
