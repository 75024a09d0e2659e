//! Property-based tests for the simulator substrate.

use cm_netsim::link::{LinkSpec, QueueSpec};
use cm_netsim::packet::{Addr, Packet, Payload, Protocol};
use cm_netsim::queue::{DropTailQueue, EnqueueOutcome, Queue, RedConfig, RedQueue};
use cm_netsim::sim::{Node, NodeCtx, Simulator};
use cm_util::{DetRng, Duration, Rate, Time};
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
            .with_queue(QueueSpec::DropTailPackets(sizes.len() + 1));
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

    /// Drop-tail conservation: enqueued + dropped == offered, and
    /// occupancy never exceeds the configured bound.
    #[test]
    fn droptail_conserves_packets(
        offers in proptest::collection::vec(1u16..2000, 1..100),
        cap in 1usize..32,
    ) {
        let mut q = DropTailQueue::with_packet_limit(cap);
        let mut rng = DetRng::seed(0);
        let mut accepted = 0usize;
        let mut dropped = 0usize;
        for (i, &size) in offers.iter().enumerate() {
            let pkt = Packet::new(Addr(1), Addr(2), 1, 2, Protocol::Udp, size as usize, Payload::empty());
            match q.enqueue(pkt, Time::ZERO, &mut rng) {
                EnqueueOutcome::Dropped(_) => dropped += 1,
                _ => accepted += 1,
            }
            prop_assert!(q.len_packets() <= cap);
            // Occasionally drain one.
            if i % 3 == 0
                && q.dequeue(Time::ZERO).is_some() {
                    accepted -= 1;
                }
        }
        prop_assert_eq!(accepted, q.len_packets());
        prop_assert_eq!(q.len_packets() + dropped + (offers.len() - q.len_packets() - dropped), offers.len());
    }

    /// RED with ECN never drops an ECT packet in the probabilistic
    /// region — it marks instead — and never exceeds capacity.
    #[test]
    fn red_marks_ect_probabilistically(
        n in 10usize..200,
        seed in 0u64..100,
    ) {
        use cm_netsim::packet::Ecn;
        let cfg = RedConfig {
            min_th: 2.0,
            max_th: 8.0,
            max_p: 0.3,
            weight: 0.5,
            capacity: 16,
            ecn: true,
        };
        let mut q = RedQueue::new(cfg);
        let mut rng = DetRng::seed(seed);
        let mut dropped_ect_soft = 0;
        for i in 0..n {
            let pkt = Packet::new(Addr(1), Addr(2), 1, 2, Protocol::Udp, 500, Payload::empty())
                .with_ecn(Ecn::Ect);
            let at_capacity = q.len_packets() >= 16;
            match q.enqueue(pkt, Time::ZERO, &mut rng) {
                EnqueueOutcome::Dropped(_) if !at_capacity => dropped_ect_soft += 1,
                _ => {}
            }
            prop_assert!(q.len_packets() <= 16);
            if i % 4 == 0 {
                let _ = q.dequeue(Time::ZERO);
            }
        }
        prop_assert_eq!(dropped_ect_soft, 0, "ECT packets must be marked, not soft-dropped");
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
    use cm_netsim::event::{EventQueue, SimEvent};
    use cm_netsim::sim::NodeId;
    use cm_util::Time;
    use proptest::prelude::*;

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
        fn wheel_pops_identical_to_reference_heap(
            ops in proptest::collection::vec((0u8..7, 0u64..1_000), 1..500),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut now: u64 = 0;
            let mut next_token = 0u64;
            let mut reserved: Vec<u64> = Vec::new();
            // Simulator contract: schedules are at now + delta. The scale
            // selects sub-slot (ns), in-wheel (us) or beyond the horizon
            // (ms..s) deltas.
            let delta = |scale: u64, d: u64| match scale {
                0 => d,               // within one slot
                1 => d * 10_000,      // across wheel slots
                _ => d * 200_000_000, // far: overflow heap
            };
            for (kind, d) in ops {
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
        }
    }
}
