//! Property-based tests for the simulator substrate.

use cm_netsim::event::PacketSlab;
use cm_netsim::link::LinkSpec;
use cm_netsim::packet::{Addr, Packet, Payload, Protocol};
use cm_netsim::queue::DropTailQueue;
use cm_netsim::sim::{Node, NodeCtx, Simulator};
use cm_util::{Duration, Rate, Time};
use proptest::prelude::*;

struct Sink {
    times: Vec<Time>,
    ids: Vec<u64>,
}

impl Node for Sink {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        self.times.push(ctx.now());
        self.ids.push(pkt.id);
    }
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
}

struct Blaster {
    dst: Addr,
    sizes: Vec<u16>,
}

impl Node for Blaster {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for &s in &self.sizes {
            let pkt = Packet::new(
                ctx.addr(),
                self.dst,
                1,
                2,
                Protocol::Udp,
                s as usize + 1,
                Payload::empty(),
            );
            ctx.send(pkt);
        }
    }
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FIFO links never reorder: packets offered in order arrive in
    /// order, regardless of sizes, and inter-arrival spacing is at least
    /// each packet's serialization time.
    #[test]
    fn links_preserve_order_and_spacing(
        sizes in proptest::collection::vec(1u16..1500, 2..40),
        mbps in 1u64..1000,
        delay_us in 0u64..100_000,
    ) {
        let rate = Rate::from_mbps(mbps);
        let mut sim = Simulator::new(1);
        let sink = sim.add_node(Box::new(Sink { times: vec![], ids: vec![] }));
        let sink_addr = sim.addr_of(sink);
        let src = sim.add_node(Box::new(Blaster {
            dst: sink_addr,
            sizes: sizes.clone(),
        }));
        let spec = LinkSpec::new(rate, Duration::from_micros(delay_us))
            .with_queue_limit(sizes.len() + 1);
        let link = sim.add_link(src, sink, &spec);
        sim.set_default_route(src, link);
        sim.run_to_quiescence(1_000_000);
        let s = sim.node_ref::<Sink>(sink);
        prop_assert_eq!(s.ids.len(), sizes.len(), "no drops expected");
        // In-order ids.
        for w in s.ids.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // Arrival spacing >= serialization time of the later packet.
        for (i, w) in s.times.windows(2).enumerate() {
            let tx = rate.transmit_time(sizes[i + 1] as usize + 1);
            let gap = w[1].since(w[0]);
            prop_assert!(
                gap.as_nanos() + 1 >= tx.as_nanos(),
                "gap {gap} < serialization {tx}"
            );
        }
    }

    /// Drop-tail conservation: enqueued + dropped == offered, occupancy
    /// never exceeds the configured bound, and the slab holds exactly the
    /// queued packets (a dropped packet's slot is freed by the caller).
    #[test]
    fn droptail_conserves_packets(
        offers in proptest::collection::vec(1u16..2000, 1..100),
        cap in 1usize..32,
    ) {
        let mut q = DropTailQueue::with_packet_limit(cap);
        let mut pkts = PacketSlab::new();
        let mut accepted = 0usize;
        let mut dropped = 0usize;
        let mut drained = 0usize;
        for (i, &size) in offers.iter().enumerate() {
            let pkt = Packet::new(Addr(1), Addr(2), 1, 2, Protocol::Udp, size as usize, Payload::empty());
            let slot = pkts.insert(pkt);
            if q.enqueue(slot, usize::from(size)) {
                accepted += 1;
            } else {
                dropped += 1;
                pkts.free(slot);
            }
            prop_assert!(q.len_packets() <= cap);
            prop_assert_eq!(pkts.len(), q.len_packets());
            // Occasionally drain one.
            if i % 3 == 0 {
                if let Some((slot, size)) = q.dequeue() {
                    prop_assert_eq!(pkts.remove(slot).size, size);
                    drained += 1;
                }
            }
        }
        prop_assert_eq!(accepted - drained, q.len_packets());
        prop_assert_eq!(accepted + dropped, offers.len());
        prop_assert_eq!(pkts.len(), q.len_packets());
    }

    /// Simulator determinism: identical seeds and inputs produce
    /// identical delivery traces, including under random loss.
    #[test]
    fn identical_seeds_identical_traces(
        seed in any::<u64>(),
        loss_pct in 0u32..60,
        n in 5usize..60,
    ) {
        let run = || {
            let mut sim = Simulator::new(seed);
            let sink = sim.add_node(Box::new(Sink { times: vec![], ids: vec![] }));
            let sink_addr = sim.addr_of(sink);
            let src = sim.add_node(Box::new(Blaster {
                dst: sink_addr,
                sizes: vec![700; n],
            }));
            let spec = LinkSpec::new(Rate::from_mbps(10), Duration::from_millis(3))
                .with_loss(loss_pct as f64 / 100.0);
            let link = sim.add_link(src, sink, &spec);
            sim.set_default_route(src, link);
            sim.run_to_quiescence(1_000_000);
            let s = sim.node_ref::<Sink>(sink);
            (s.ids.clone(), s.times.clone())
        };
        prop_assert_eq!(run(), run());
    }
}

// ---------------------------------------------------------------------
// Wire-width TCP headers
// ---------------------------------------------------------------------

mod header_unwrap {
    use cm_netsim::segment::{unwrap_seq, wrap_seq, TcpFlags, TcpSegment, MAX_SACK_BLOCKS};
    use cm_util::Time;
    use proptest::prelude::*;

    /// Largest distance from the receiver's reference at which a 32-bit
    /// field still unwraps exactly.
    const REACH: u64 = (1 << 31) - 1;

    /// A 64-bit reference `off` bytes below (`below`) or above the
    /// `wraps`-th multiple of 2^32, and a stream offset `d` into the
    /// window of `2 * REACH + 1` offsets centred on it.
    fn around(wraps: u64, off: u64, below: bool, d: u64) -> (u64, u64) {
        let boundary = wraps << 32;
        let near = if below {
            boundary - 1 - off
        } else {
            boundary + off
        };
        (near, near - REACH + d)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// A segment built from 64-bit stream offsets carries their low
        /// 32 bits, and a receiver recovers each one exactly: the
        /// sequence number against its `rcv_nxt`, the acknowledgement
        /// and every SACK edge against its `snd_una`, on either side of
        /// a 2^32 boundary, anywhere within 2^31 of the reference.
        #[test]
        fn header_fields_unwrap_to_their_stream_offsets(
            rcv in (1u64..5, 0u64..1 << 20, any::<bool>(), 0u64..=2 * REACH),
            snd in (1u64..5, 0u64..1 << 20, any::<bool>(), 0u64..=2 * REACH),
            edges in proptest::collection::vec(0u64..=2 * REACH, 2 * MAX_SACK_BLOCKS..2 * MAX_SACK_BLOCKS + 1),
        ) {
            let (rcv_nxt, seq) = around(rcv.0, rcv.1, rcv.2, rcv.3);
            let (snd_una, ack) = around(snd.0, snd.1, snd.2, snd.3);
            let edges: Vec<u64> = edges.iter().map(|&d| snd_una - REACH + d).collect();
            let mut sack = [(0, 0); MAX_SACK_BLOCKS];
            for (block, pair) in sack.iter_mut().zip(edges.chunks(2)) {
                *block = (wrap_seq(pair[0]), wrap_seq(pair[1]));
            }
            let seg = TcpSegment {
                seq: wrap_seq(seq),
                len: 1460,
                ack: wrap_seq(ack),
                flags: TcpFlags { ack: true, ..Default::default() },
                wnd: 1 << 16,
                ts: Time::ZERO,
                ts_ecr: TcpSegment::NO_ECHO,
                sack,
                sack_count: MAX_SACK_BLOCKS as u8,
            };
            prop_assert_eq!(unwrap_seq(seg.seq, rcv_nxt), seq);
            prop_assert_eq!(unwrap_seq(seg.ack, snd_una), ack);
            for (&(start, end), pair) in seg.sack_blocks().iter().zip(edges.chunks(2)) {
                prop_assert_eq!(unwrap_seq(start, snd_una), pair[0]);
                prop_assert_eq!(unwrap_seq(end, snd_una), pair[1]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Timer wheel vs. reference heap
// ---------------------------------------------------------------------

/// The reference event queue: the original `BinaryHeap` implementation,
/// kept so the differential property test below can drive it and the
/// timer wheel with identical randomized schedules.
mod reference {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use cm_netsim::event::SimEvent;
    use cm_util::Time;

    struct Scheduled {
        at: Time,
        seq: u64,
        event: SimEvent,
    }

    impl PartialEq for Scheduled {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }

    impl Eq for Scheduled {}

    impl PartialOrd for Scheduled {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Scheduled {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse: BinaryHeap is a max-heap, we want the earliest first.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// A deterministic future-event list backed by a binary min-heap.
    #[derive(Default)]
    pub struct HeapEventQueue {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
    }

    impl HeapEventQueue {
        /// Creates an empty queue.
        pub fn new() -> Self {
            Self::default()
        }

        /// Schedules `event` at absolute time `at`.
        pub fn schedule(&mut self, at: Time, event: SimEvent) {
            let seq = self.reserve_seq();
            self.schedule_reserved(at, seq, event);
        }

        /// Takes the next sequence number without scheduling anything.
        pub fn reserve_seq(&mut self) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            seq
        }

        /// Schedules `event` at `at` under a number reserved earlier.
        pub fn schedule_reserved(&mut self, at: Time, seq: u64, event: SimEvent) {
            self.heap.push(Scheduled { at, seq, event });
        }

        /// Removes and returns the earliest event, with its time.
        pub fn pop(&mut self) -> Option<(Time, SimEvent)> {
            self.heap.pop().map(|s| (s.at, s.event))
        }

        /// The time of the earliest pending event.
        pub fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|s| s.at)
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Returns true if no events are pending.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }
}

mod event_queue_differential {
    use super::reference::HeapEventQueue;
    use cm_netsim::event::{EventQueue, SimEvent, SLOT_NANOS, WHEEL_SLOTS};
    use cm_netsim::sim::NodeId;
    use cm_util::Time;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn timer(token: u64) -> SimEvent {
        SimEvent::Timer {
            node: NodeId(0),
            token,
            slot: 0,
            gen: 0,
        }
    }

    fn token_of(e: &SimEvent) -> u64 {
        match e {
            SimEvent::Timer { token, .. } => *token,
            _ => unreachable!("only timers are scheduled here"),
        }
    }

    /// Drives the wheel and the reference heap with one script of
    /// `(kind, d)` ops from instant `start`: kinds 0-2 schedule at
    /// `now + delta(kind, d)`, 5 reserves a number, 6 schedules under a
    /// reserved number at `now + delta(d % 3, d)`, and 3-4 pop from both,
    /// comparing `(time, token)`, length and next time. The two drain to
    /// identical ends. A sentinel scheduled and popped at `start` first
    /// brings the wheel's cursor there.
    fn differential(
        ops: &[(u8, u64)],
        start: u64,
        delta: impl Fn(u64, u64) -> u64,
    ) -> Result<(), TestCaseError> {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let sentinel = Time::from_nanos(start);
        wheel.schedule(sentinel, timer(0));
        heap.schedule(sentinel, timer(0));
        prop_assert_eq!(wheel.pop().map(|(t, _)| t), Some(sentinel));
        prop_assert_eq!(heap.pop().map(|(t, _)| t), Some(sentinel));
        let mut now = start;
        let mut next_token = 1u64;
        let mut reserved: Vec<u64> = Vec::new();
        for &(kind, d) in ops {
            if kind < 3 {
                let at = Time::from_nanos(now + delta(u64::from(kind), d));
                wheel.schedule(at, timer(next_token));
                heap.schedule(at, timer(next_token));
                next_token += 1;
            } else if kind == 5 {
                let seq = wheel.reserve_seq();
                prop_assert_eq!(seq, heap.reserve_seq());
                reserved.push(seq);
            } else if kind == 6 {
                // Use one of the numbers reserved so far, at a time
                // not before the last pop (d == 0: exactly then).
                if reserved.is_empty() {
                    continue;
                }
                let seq = reserved.swap_remove(d as usize % reserved.len());
                let at = Time::from_nanos(now + delta(d % 3, d));
                wheel.schedule_reserved(at, seq, timer(next_token));
                heap.schedule_reserved(at, seq, timer(next_token));
                next_token += 1;
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                match (&a, &b) {
                    (None, None) => {}
                    (Some((ta, ea)), Some((tb, eb))) => {
                        prop_assert_eq!(ta, tb, "pop times diverge");
                        prop_assert_eq!(token_of(ea), token_of(eb), "pop order diverges");
                    }
                    _ => prop_assert!(false, "one queue empty, the other not"),
                }
                if let Some((t, _)) = a {
                    now = t.as_nanos();
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            }
        }
        // Drain both to the end: the full remaining streams match.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            match (&a, &b) {
                (None, None) => break,
                (Some((ta, ea)), Some((tb, eb))) => {
                    prop_assert_eq!(ta, tb, "drain times diverge");
                    prop_assert_eq!(token_of(ea), token_of(eb), "drain order diverges");
                }
                _ => prop_assert!(false, "queues drained to different lengths"),
            }
        }
        prop_assert!(wheel.is_empty() && heap.is_empty());
        Ok(())
    }

    /// Simulator contract: schedules are at now + delta. The scale
    /// selects sub-slot (ns), in-wheel (us) or beyond the horizon (ms..s)
    /// deltas.
    fn mixed_delta(scale: u64, d: u64) -> u64 {
        match scale {
            0 => d,               // within one slot
            1 => d * 10_000,      // across wheel slots
            _ => d * 200_000_000, // far: overflow heap
        }
    }

    /// Deltas in whole slots plus a sub-slot remainder: within the
    /// gathered window and just past it, or anywhere from the wheel's
    /// middle to twice its horizon.
    fn slot_delta(scale: u64, d: u64) -> u64 {
        match scale {
            0 => d,
            1 => (d % 48) * SLOT_NANOS + d,
            _ => (256 + d) * SLOT_NANOS + d,
        }
    }

    /// A start instant a few slots short of a bitmap word's end: `word`
    /// 0-6 puts the first gathered window across a word boundary, 7
    /// across the ring's end (slot 511 to slot 0), `turn` picks the wheel
    /// rotation after the first. Beyond the first rotation, the sentinel
    /// at `start` lies past a new queue's horizon: the wheel is empty when
    /// it pops, so `advance` jumps the cursor onto its slot exactly.
    fn boundary_start(turn: u64, word: u64, back: u64, sub: u64) -> u64 {
        let slot = (turn + 1) * WHEEL_SLOTS as u64 + word * 64 + 63 - back;
        slot * SLOT_NANOS + sub
    }

    fn script() -> impl Strategy<Value = Vec<(u8, u64)>> {
        proptest::collection::vec((0u8..7, 0u64..1_000), 1..500)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Determinism contract: under randomized interleavings of
        /// schedules (near, mid, and far deltas — exercising the wheel's
        /// current bucket, slots, and overflow heap) and pops, the timer
        /// wheel yields a byte-identical `(time, token)` stream to the
        /// reference `BinaryHeap` implementation — including events
        /// scheduled late under a sequence number reserved earlier,
        /// which must pop where an event scheduled at the reservation
        /// would, even among events of the instant last popped.
        #[test]
        fn wheel_pops_identical_to_reference_heap(ops in script()) {
            differential(&ops, 0, mixed_delta)?;
        }

        /// The same where the cursor starts just short of a bitmap
        /// word's end or the ring's, with slot-scale deltas: the gather
        /// after each drained slot reads its window across two words.
        #[test]
        fn wheel_pops_identical_across_word_and_ring_boundaries(
            ops in script(),
            start in (0u64..3, 0u64..8, 0u64..16, 0u64..SLOT_NANOS),
        ) {
            let (turn, word, back, sub) = start;
            differential(&ops, boundary_start(turn, word, back, sub), slot_delta)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The long run of both wheel properties (CI: `-- --ignored`).
        #[test]
        #[ignore = "20,000 cases; CI runs it in release"]
        fn wheel_pops_identical_to_reference_heap_20k(
            ops in script(),
            boundary in 0u8..2,
            start in (0u64..3, 0u64..8, 0u64..16, 0u64..SLOT_NANOS),
        ) {
            if boundary == 1 {
                let (turn, word, back, sub) = start;
                differential(&ops, boundary_start(turn, word, back, sub), slot_delta)?;
            } else {
                differential(&ops, 0, mixed_delta)?;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Link vs. an eager reference link
// ---------------------------------------------------------------------

/// The link as it was while every serialization scheduled its own
/// completion: the packet stays with the link until `LinkTxDone`, which
/// always fires (a link without departure stages numbers the delivery
/// when serialization starts, the simulator's tie rule). The differential properties below drive it and the real
/// [`cm_netsim::link::Link`] with one random script — one hop straight
/// into a sink, or two hops with a router between them, where the real
/// side is a whole `Simulator` (whose routers forward packets in place)
/// and the reference models the router the way `RouterNode` states it.
mod link_differential {
    use std::collections::VecDeque;

    use cm_netsim::event::{EventQueue, PacketSlab, PacketSlot, SimEvent};
    use cm_netsim::fault::LinkFaults;
    use cm_netsim::link::{Link, LinkId, LinkSpec};
    use cm_netsim::packet::{Addr, Packet, Payload, Protocol};
    use cm_netsim::schedule::BandwidthSchedule;
    use cm_netsim::sim::{Node, NodeCtx, NodeId, RouterNode, Simulator};
    use cm_netsim::trace::LinkStats;
    use cm_util::{DetRng, Duration, Rate, Time};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    struct EagerLink {
        id: LinkId,
        rate: Rate,
        delay: Duration,
        /// The buffer, modelled here rather than built from
        /// `cm_netsim::queue`, so that the real queue is checked against
        /// a model and not against itself: bare slots, drop-tail at
        /// `queue_limit` packets, every size read from `pkts`.
        queue: VecDeque<PacketSlot>,
        queue_limit: usize,
        /// The packets of `queue` and `in_flight`.
        pkts: PacketSlab,
        loss_rate: f64,
        faults: LinkFaults,
        outage_restart: Option<Time>,
        /// Whether a departure stage or an outage window is configured.
        holds_packet: bool,
        /// The packet being serialized, when it will be done, and the
        /// number its delivery is scheduled under on a link that does not
        /// hold packets.
        in_flight: Option<(PacketSlot, Time, Option<u64>)>,
        stats: LinkStats,
    }

    impl EagerLink {
        fn new(id: LinkId, spec: &LinkSpec) -> Self {
            EagerLink {
                id,
                rate: spec.rate,
                delay: spec.delay,
                queue: VecDeque::new(),
                queue_limit: spec.queue_limit,
                pkts: PacketSlab::new(),
                loss_rate: spec.loss_rate,
                faults: spec.faults.clone(),
                outage_restart: None,
                holds_packet: spec.faults.spike_prob > 0.0
                    || spec.faults.reorder_prob > 0.0
                    || spec.faults.duplicate_prob > 0.0
                    || !spec.faults.outages.is_empty(),
                in_flight: None,
                stats: LinkStats::default(),
            }
        }

        fn start_tx(&mut self, now: Time, evq: &mut EventQueue) {
            if self.rate.is_zero() {
                return;
            }
            if let Some(end) = self.faults.outage_until(now) {
                if self.outage_restart != Some(end) {
                    self.outage_restart = Some(end);
                    evq.schedule(end, SimEvent::LinkFaultRestart { link: self.id });
                }
                return;
            }
            if let Some(slot) = self.queue.pop_front() {
                let done_at = now + self.rate.transmit_time(self.pkts[slot].size);
                evq.schedule(done_at, SimEvent::LinkTxDone { link: self.id });
                // The simulator's tie rule: a delivery that draws nothing
                // at completion takes its place among same-instant events
                // when serialization starts.
                let deliver_seq = (!self.holds_packet).then(|| evq.reserve_seq());
                self.in_flight = Some((slot, done_at, deliver_seq));
            }
        }
    }

    /// What the script drives: the real link and the reference.
    trait Wire {
        fn new(id: LinkId, spec: &LinkSpec) -> Self;
        fn offer(&mut self, pkt: Packet, now: Time, rng: &mut DetRng, evq: &mut EventQueue);
        fn on_tx_done(&mut self, now: Time, rng: &mut DetRng, evq: &mut EventQueue);
        fn on_rate_change(&mut self, rate: Rate, now: Time, evq: &mut EventQueue);
        fn on_fault_restart(&mut self, now: Time, evq: &mut EventQueue);
        fn stats(&self, now: Time, evq: &EventQueue) -> LinkStats;
        fn queue_len(&self) -> usize;
        /// Packets held outside the event queue's slab.
        fn own_packets(&self) -> usize;
    }

    impl Wire for EagerLink {
        fn new(id: LinkId, spec: &LinkSpec) -> Self {
            EagerLink::new(id, spec)
        }

        fn offer(&mut self, pkt: Packet, now: Time, rng: &mut DetRng, evq: &mut EventQueue) {
            self.stats.offered += 1;
            if self.loss_rate > 0.0 && rng.chance(self.loss_rate) {
                self.stats.dropped_random += 1;
                return;
            }
            let slot = self.pkts.insert(pkt);
            if self.queue.len() >= self.queue_limit {
                self.stats.dropped_queue += 1;
                self.pkts.free(slot);
                return;
            }
            self.queue.push_back(slot);
            self.stats.enqueued += 1;
            self.stats.max_queue_pkts = self.stats.max_queue_pkts.max(self.queue.len());
            if self.in_flight.is_none() {
                self.start_tx(now, evq);
            }
        }

        fn on_tx_done(&mut self, now: Time, rng: &mut DetRng, evq: &mut EventQueue) {
            let (slot, _, deliver_seq) = self
                .in_flight
                .take()
                .expect("LinkTxDone with nothing in flight");
            let pkt = self.pkts.remove(slot);
            self.stats.transmitted += 1;
            self.stats.bytes_transmitted += pkt.size as u64;
            let mut delay = self.delay;
            if self.faults.spike_prob > 0.0 && rng.chance(self.faults.spike_prob) {
                delay += self.faults.spike_extra;
                self.stats.delay_spikes += 1;
            }
            if self.faults.reorder_prob > 0.0 && rng.chance(self.faults.reorder_prob) {
                let extra_us = self.faults.reorder_extra.as_micros().max(1);
                delay += Duration::from_micros(rng.next_range(1, extra_us));
                self.stats.reordered += 1;
            }
            let link = self.id;
            if self.faults.duplicate_prob > 0.0 && rng.chance(self.faults.duplicate_prob) {
                self.stats.duplicated += 1;
                let at = now + delay + Duration::from_micros(1);
                let pkt = pkt.clone();
                evq.schedule(at, SimEvent::LinkDeliver { link, pkt });
            }
            let deliver = SimEvent::LinkDeliver { link, pkt };
            match deliver_seq {
                Some(seq) => evq.schedule_reserved(now + delay, seq, deliver),
                None => evq.schedule(now + delay, deliver),
            }
            self.start_tx(now, evq);
        }

        fn on_rate_change(&mut self, rate: Rate, now: Time, evq: &mut EventQueue) {
            self.rate = rate;
            if self.in_flight.is_none() {
                self.start_tx(now, evq);
            }
        }

        fn on_fault_restart(&mut self, now: Time, evq: &mut EventQueue) {
            self.outage_restart = None;
            if self.in_flight.is_none() {
                self.start_tx(now, evq);
            }
        }

        fn stats(&self, _now: Time, _evq: &EventQueue) -> LinkStats {
            self.stats
        }

        fn queue_len(&self) -> usize {
            self.queue.len()
        }

        fn own_packets(&self) -> usize {
            self.pkts.len()
        }
    }

    impl Wire for Link {
        fn new(id: LinkId, spec: &LinkSpec) -> Self {
            Link::new(id, NodeId(id.0), NodeId(id.0 + 1), spec)
        }
        fn offer(&mut self, pkt: Packet, now: Time, rng: &mut DetRng, evq: &mut EventQueue) {
            Link::offer(self, pkt, now, rng, evq);
        }
        fn on_tx_done(&mut self, now: Time, rng: &mut DetRng, evq: &mut EventQueue) {
            Link::on_tx_done(self, now, rng, evq);
        }
        fn on_rate_change(&mut self, rate: Rate, now: Time, evq: &mut EventQueue) {
            Link::on_rate_change(self, rate, now, evq);
        }
        fn on_fault_restart(&mut self, now: Time, evq: &mut EventQueue) {
            Link::on_fault_restart(self, now, evq);
        }
        fn stats(&self, now: Time, evq: &EventQueue) -> LinkStats {
            Link::stats(self, now, evq)
        }
        fn queue_len(&self) -> usize {
            Link::queue_len(self)
        }
        fn own_packets(&self) -> usize {
            0
        }
    }

    /// One scripted step: `(op, arg, gap, jitter_us, below)`. `op` 0-5
    /// offers `arg` bytes to the first link, 6 only reads the counters,
    /// 7-8 step the first link's rate to `RATES[arg % 4]`. The step runs
    /// as a timer event placed by `gap` relative to the serialization in
    /// progress on the first link when the previous step finished — 0:
    /// the same instant, 1: inside it, 2: *exactly* its completion
    /// instant, 3: `jitter_us` after it — and numbered below
    /// (`below == 1`) or above whatever the previous step reserved.
    type Step = (u8, u16, u8, u16, u8);

    const RATES: [Rate; 4] = [
        Rate::ZERO,
        Rate::from_mbps(1),
        Rate::from_mbps(10),
        Rate::from_mbps(100),
    ];

    fn step_strategy() -> impl Strategy<Value = Step> {
        (0u8..9, 40u16..1501, 0u8..4, 1u16..2000, 0u8..2)
    }

    /// When the next step runs, given the reference's transmitter.
    fn place(step: Step, now: Time, busy_until: Option<Time>) -> Time {
        let (_, _, gap, jitter_us, _) = step;
        let jitter = Duration::from_micros(u64::from(jitter_us));
        match (gap, busy_until.filter(|&done_at| done_at > now)) {
            (0, _) => now,
            (1, Some(done_at)) => now + Duration::from_nanos(done_at.since(now).as_nanos() / 2),
            (2, Some(done_at)) => done_at,
            (_, Some(done_at)) => done_at + jitter,
            (_, None) => now + jitter,
        }
    }

    /// The packet step `i` offers (the network stamps its id).
    fn scripted_packet(size: u16, dst: Addr) -> Packet {
        Packet::new(
            Addr(1),
            dst,
            1,
            2,
            Protocol::Udp,
            usize::from(size),
            Payload::empty(),
        )
    }

    /// Everything observable about one run.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// `(delivery time, packet id)` at the last hop, in pop order.
        deliveries: Vec<(Time, u64)>,
        /// Every link's counters as read before each step and after the
        /// last event.
        stats: Vec<String>,
        /// The next draw after the run: the RNG state.
        rng_tail: u64,
    }

    /// Packets accepted by a link and not yet delivered to the end of
    /// the path, by the links' counters: what the slab must hold.
    fn accounted(stats: &[LinkStats], delivered: usize) -> u64 {
        let accepted: u64 = stats.iter().map(|s| s.enqueued + s.duplicated).sum();
        let forwarded: u64 = stats.iter().skip(1).map(|s| s.offered).sum();
        accepted - forwarded - delivered as u64
    }

    fn timer(step: usize) -> SimEvent {
        SimEvent::Timer {
            node: NodeId(0),
            token: step as u64,
            slot: 0,
            gen: 0,
        }
    }

    /// Runs `script` against a path of `hops` links of type `W` the way
    /// `Simulator` would dispatch it, a router between consecutive links
    /// (a fresh id, then the next link); `when(first, i, now)` says when
    /// step `i` runs. Returns what was observed, each step's instant, and
    /// the number of events popped. After every event the packets held
    /// equal the packets accepted and not yet delivered, and once the
    /// queue drains only queued packets are left.
    fn drive<W: Wire>(
        hops: &mut [W],
        script: &[Step],
        seed: u64,
        mut when: impl FnMut(&W, usize, Time) -> Time,
    ) -> Result<(Observed, Vec<Time>, u64), TestCaseError> {
        let mut evq = EventQueue::new();
        let mut rng = DetRng::seed(seed).split("netsim");
        let mut seen = Observed {
            deliveries: Vec::new(),
            stats: Vec::new(),
            rng_tail: 0,
        };
        let (mut times, mut pops, mut now, mut next_id) = (Vec::new(), 0, Time::ZERO, 0);
        let last = hops.len() - 1;
        evq.schedule(when(&hops[0], 0, now), timer(0));
        while let Some((at, event)) = evq.pop() {
            now = at;
            pops += 1;
            match event {
                SimEvent::LinkTxDone { link } => hops[link.0].on_tx_done(now, &mut rng, &mut evq),
                SimEvent::LinkDeliver { link, pkt } if link.0 == last => {
                    seen.deliveries.push((now, pkt.id));
                }
                SimEvent::LinkDeliver { link, mut pkt } => {
                    pkt.id = next_id;
                    next_id += 1;
                    hops[link.0 + 1].offer(pkt, now, &mut rng, &mut evq);
                }
                SimEvent::LinkFaultRestart { link } => hops[link.0].on_fault_restart(now, &mut evq),
                SimEvent::LinkRateChange { .. } => unreachable!("rate steps are timers here"),
                SimEvent::Timer { token, .. } => {
                    let i = token as usize;
                    times.push(now);
                    for hop in hops.iter() {
                        seen.stats.push(format!("{:?}", hop.stats(now, &evq)));
                    }
                    let below = evq.reserve_seq();
                    let (op, arg, ..) = script[i];
                    match op {
                        0..=5 => {
                            let mut pkt = scripted_packet(arg, Addr(2));
                            pkt.id = next_id;
                            next_id += 1;
                            hops[0].offer(pkt, now, &mut rng, &mut evq);
                        }
                        6 => {}
                        _ => hops[0].on_rate_change(RATES[usize::from(arg) % 4], now, &mut evq),
                    }
                    if let Some(&(.., numbered_below)) = script.get(i + 1) {
                        let at = when(&hops[0], i + 1, now);
                        let seq = if numbered_below == 1 {
                            below
                        } else {
                            evq.reserve_seq()
                        };
                        evq.schedule_reserved(at, seq, timer(i + 1));
                    }
                }
            }
            let stats: Vec<LinkStats> = hops.iter().map(|h| h.stats(now, &evq)).collect();
            let held = evq.packets().len() + hops.iter().map(W::own_packets).sum::<usize>();
            prop_assert_eq!(
                held as u64,
                accounted(&stats, seen.deliveries.len()),
                "packets held vs. accepted and undelivered"
            );
        }
        for hop in hops.iter() {
            seen.stats.push(format!("{:?}", hop.stats(now, &evq)));
        }
        let queued: usize = hops.iter().map(W::queue_len).sum();
        let held = evq.packets().len() + hops.iter().map(W::own_packets).sum::<usize>();
        prop_assert_eq!(held, queued, "drained slab holds only queued packets");
        seen.rng_tail = rng.next_u64();
        Ok((seen, times, pops))
    }

    /// Runs the script's timer steps from outside the simulator.
    struct Scripter {
        due: Option<usize>,
    }

    impl Node for Scripter {
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {
            unreachable!("nothing is addressed to the script");
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, token: u64) {
            self.due = Some(token as usize);
        }
    }

    struct Sink {
        got: Vec<(Time, u64)>,
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
            self.got.push((ctx.now(), pkt.id));
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
    }

    /// Runs `script` on a `Simulator`: script node, first link,
    /// `RouterNode`, second link, sink. Each step runs when its timer
    /// pops, at the times `drive` recorded.
    fn drive_two_hop_sim(
        specs: [&LinkSpec; 2],
        script: &[Step],
        seed: u64,
        times: &[Time],
    ) -> Result<(Observed, u64), TestCaseError> {
        let mut sim = Simulator::new(seed);
        let src = sim.add_node(Box::new(Scripter { due: None }));
        let router = sim.add_node(Box::new(RouterNode));
        let sink = sim.add_node(Box::new(Sink { got: Vec::new() }));
        let dst = sim.addr_of(sink);
        let links = [
            sim.add_link(src, router, specs[0]),
            sim.add_link(router, sink, specs[1]),
        ];
        sim.set_default_route(src, links[0]);
        sim.set_default_route(router, links[1]);
        let mut stats = Vec::new();
        sim.with_node::<Scripter, _>(src, |_, ctx| ctx.set_timer(times[0] - Time::ZERO, 0));
        while sim.step() {
            let now = sim.now();
            if let Some(i) = sim.with_node::<Scripter, _>(src, |s, _| s.due.take()) {
                for &l in &links {
                    stats.push(format!("{:?}", sim.link_stats(l)));
                }
                let below = sim.with_node::<Scripter, _>(src, |_, ctx| ctx.reserve_order());
                let (op, arg, ..) = script[i];
                match op {
                    0..=5 => sim.with_node::<Scripter, _>(src, |_, ctx| {
                        ctx.send(scripted_packet(arg, dst));
                    }),
                    6 => {}
                    _ => {
                        let step = vec![(now, RATES[usize::from(arg) % 4])];
                        sim.apply_link_schedule(links[0], &BandwidthSchedule::from_steps(step));
                    }
                }
                if let Some(&(.., numbered_below)) = script.get(i + 1) {
                    let after = times[i + 1].since(now);
                    sim.with_node::<Scripter, _>(src, |_, ctx| {
                        let seq = if numbered_below == 1 {
                            below
                        } else {
                            ctx.reserve_order()
                        };
                        ctx.set_timer_ordered(after, (i + 1) as u64, seq);
                    });
                }
            }
            let read: Vec<LinkStats> = links.iter().map(|&l| sim.link_stats(l)).collect();
            let delivered = sim.node_ref::<Sink>(sink).got.len();
            prop_assert_eq!(
                sim.packets_in_flight() as u64,
                accounted(&read, delivered),
                "packets in flight vs. accepted and undelivered"
            );
        }
        for &l in &links {
            stats.push(format!("{:?}", sim.link_stats(l)));
        }
        let queued: usize = links.iter().map(|&l| sim.link_mut(l).queue_len()).sum();
        prop_assert_eq!(
            sim.packets_in_flight(),
            queued,
            "drained slab holds only queued packets"
        );
        let rng_tail = sim.with_node::<Scripter, _>(src, |_, ctx| ctx.rng().next_u64());
        let pops = sim.events_processed();
        let seen = Observed {
            deliveries: sim.node_ref::<Sink>(sink).got.clone(),
            stats,
            rng_tail,
        };
        Ok((seen, pops))
    }

    /// `(queue, loss_pct, delay_us, rate, seed)`: `queue` is the
    /// drop-tail cap in packets, 1-10.
    type Path = (usize, u8, u32, usize, u64);

    fn path_strategy() -> impl Strategy<Value = Path> {
        (1usize..11, 0u8..30, 0u32..3_000, 1usize..4, 0u64..1_000)
    }

    /// `(spike, reorder, duplicate, outages)`: each probability is the
    /// number times 0.3; outage windows are `(start_us, length_us)`.
    type Faults = (u8, u8, u8, Vec<(u32, u32)>);

    /// Drives the reference and the real link with `script` over `hops`
    /// links (1 or 2). Every link gets `path`'s queue, loss, delay and
    /// `faults`; the first runs at `RATES[rate]`, a second at another
    /// nonzero rate.
    fn check(
        path: Path,
        faults: Faults,
        hops: usize,
        script: &[Step],
    ) -> Result<(), TestCaseError> {
        let (queue, loss_pct, delay_us, rate, seed) = path;
        let (spike, reorder, duplicate, outages) = faults;
        let mut link_faults = LinkFaults::clean()
            .with_delay_spikes(f64::from(spike) * 0.3, Duration::from_micros(700))
            .with_duplication(f64::from(duplicate) * 0.3);
        link_faults.reorder_prob = f64::from(reorder) * 0.3;
        link_faults.reorder_extra = Duration::from_micros(900);
        for (start_us, length_us) in outages {
            let start = Time::from_micros(u64::from(start_us));
            link_faults =
                link_faults.with_outage(start, start + Duration::from_micros(u64::from(length_us)));
        }
        let first = LinkSpec::new(RATES[rate], Duration::from_micros(u64::from(delay_us)))
            .with_queue_limit(queue)
            .with_loss(f64::from(loss_pct) / 100.0)
            .with_faults(link_faults);
        let second = LinkSpec {
            rate: RATES[rate % 3 + 1],
            ..first.clone()
        };
        let specs = [&first, &second];
        let path_of = |n: usize| -> Vec<(LinkId, &LinkSpec)> {
            (0..n).map(|i| (LinkId(i), specs[i])).collect()
        };

        let mut eager: Vec<EagerLink> = path_of(hops)
            .into_iter()
            .map(|(id, spec)| Wire::new(id, spec))
            .collect();
        let (expected, times, eager_pops) = drive(&mut eager, script, seed, |w, i, now| {
            place(
                script[i],
                now,
                w.in_flight.as_ref().map(|&(_, done_at, _)| done_at),
            )
        })?;
        let (seen, pops) = if hops == 1 {
            let mut link: Vec<Link> = path_of(1)
                .into_iter()
                .map(|(id, spec)| Wire::new(id, spec))
                .collect();
            let (seen, _, pops) = drive(&mut link, script, seed, |_, i, _| times[i])?;
            (seen, pops)
        } else {
            drive_two_hop_sim(specs, script, seed, &times)?
        };
        prop_assert_eq!(&seen.deliveries, &expected.deliveries);
        prop_assert_eq!(&seen.stats, &expected.stats);
        prop_assert_eq!(seen.rng_tail, expected.rng_tail, "RNG draws diverge");
        prop_assert!(
            pops <= eager_pops,
            "{pops} events where eager completion takes {eager_pops}"
        );
        Ok(())
    }

    fn some_faults() -> impl Strategy<Value = Faults> {
        let outages = proptest::collection::vec((0u32..20_000, 1u32..5_000), 0..3);
        (0u8..3, 0u8..3, 0u8..3, outages)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A link that hands its packet to the wire when serialization
        /// starts, and schedules a completion only when something waits
        /// on it, is indistinguishable from one that completes eagerly:
        /// same deliveries, drops, counters at every read and RNG
        /// draws, in no more events. Its packets sit in the event
        /// queue's slab from acceptance to delivery and no longer.
        #[test]
        fn link_matches_eager_reference(
            path in path_strategy(),
            script in proptest::collection::vec(step_strategy(), 1..120),
        ) {
            check(path, (0, 0, 0, Vec::new()), 1, &script)?;
        }

        /// The same with departure-stage faults and outage windows, where
        /// the link keeps the packet until its completion event.
        #[test]
        fn faulty_link_matches_eager_reference(
            path in path_strategy(),
            faults in some_faults(),
            script in proptest::collection::vec(step_strategy(), 1..120),
        ) {
            check(path, faults, 1, &script)?;
        }

        /// Two links with a `RouterNode` between them, run by the
        /// simulator (which forwards the packet's slab slot in place),
        /// against two eager links and a modelled router.
        #[test]
        fn router_hop_matches_eager_reference(
            path in path_strategy(),
            faults in some_faults(),
            clean in 0u8..2,
            script in proptest::collection::vec(step_strategy(), 1..120),
        ) {
            let faults = if clean == 1 { (0, 0, 0, Vec::new()) } else { faults };
            check(path, faults, 2, &script)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The long run of the one-hop properties (CI: `-- --ignored`).
        #[test]
        #[ignore = "20,000 cases; CI runs it in release"]
        fn link_matches_eager_reference_20k(
            path in path_strategy(),
            faults in some_faults(),
            clean in 0u8..2,
            script in proptest::collection::vec(step_strategy(), 1..120),
        ) {
            let faults = if clean == 1 { (0, 0, 0, Vec::new()) } else { faults };
            check(path, faults, 1, &script)?;
        }

        /// The long run of the router-hop property (CI: `-- --ignored`).
        #[test]
        #[ignore = "20,000 cases; CI runs it in release"]
        fn router_hop_matches_eager_reference_20k(
            path in path_strategy(),
            faults in some_faults(),
            clean in 0u8..2,
            script in proptest::collection::vec(step_strategy(), 1..120),
        ) {
            let faults = if clean == 1 { (0, 0, 0, Vec::new()) } else { faults };
            check(path, faults, 2, &script)?;
        }
    }
}
