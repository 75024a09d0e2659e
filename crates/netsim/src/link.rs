//! Unidirectional links: serialization rate, propagation delay, a
//! drop-tail buffer, and Dummynet-style Bernoulli loss.
//!
//! A link connects two nodes. Packets offered to the link first pass the
//! loss stage (emulating Dummynet's `plr` knob used throughout the paper's
//! evaluation), then the drop-tail queue. The link serializes one
//! packet at a time at its configured rate; a serialized packet arrives at
//! the destination node after the propagation delay. Delay and rate are
//! modelled separately, exactly as a real link behaves, so bandwidth-delay
//! products and ACK clocking emerge naturally.
//!
//! # The transmitter
//!
//! A serialization ends at a fixed instant and in a fixed place among
//! that instant's events (a sequence number reserved when it starts), but
//! a [`SimEvent::LinkTxDone`] is scheduled there only if something has to
//! happen then. The transmitter is in one of three states:
//!
//! * **idle** — no serialization, or one whose reserved place has gone by
//!   unobserved; its counters are settled the next time the link is
//!   touched or read;
//! * **on the wire** — the packet was handed to its delivery event when
//!   serialization started and nobody waits behind it, so no completion
//!   event exists. The first packet to arrive before the reserved place
//!   (earlier, or in the completion instant under a lower number than
//!   [`EventQueue::current_seq`]) queues and schedules the completion
//!   into that place;
//! * **completing** — a `LinkTxDone` is scheduled: a packet waits in the
//!   queue, or the link has departure-stage faults (delay spikes,
//!   reordering, duplication) or outage windows and holds the packet
//!   until completion, because those draw from the shared RNG *at*
//!   completion and seeded runs freeze the draw order.
//!
//! # Packets
//!
//! The link never stores a packet itself. [`Link::offer`] writes an
//! accepted packet into the event queue's [`PacketSlab`] once, after the
//! loss stages; the queue, the transmitter and the delivery event then
//! carry its [`PacketSlot`]. The queue keeps the packet's size beside the
//! slot, taken from the packet `offer` holds by value (or from the read a
//! router hop already makes), so neither queueing nor starting a
//! serialization reads the slab.
//!
//! [`PacketSlab`]: crate::event::PacketSlab
//! [`SimEvent::LinkTxDone`]: crate::event::SimEvent::LinkTxDone

use cm_util::{DetRng, Duration, Rate, Time};

use crate::event::{Event, EventQueue, PacketSlot};
use crate::fault::LinkFaults;
use crate::packet::Packet;
use crate::queue::DropTailQueue;
use crate::sim::NodeId;
use crate::trace::LinkStats;

/// Identifies a link within a simulator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub usize);

/// Static description of a link, consumed by the topology builder.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// Serialization rate.
    pub rate: Rate,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Drop-tail buffer size in packets; Dummynet's default is 50 slots.
    pub queue_limit: usize,
    /// Random loss probability applied to packets entering the link
    /// (Dummynet `plr`).
    pub loss_rate: f64,
    /// Fault-injection configuration (bursty loss, reordering,
    /// duplication, delay spikes, outages); clean by default.
    pub faults: LinkFaults,
}

impl LinkSpec {
    /// A loss-free drop-tail link with a 50-packet buffer.
    pub fn new(rate: Rate, delay: Duration) -> Self {
        LinkSpec {
            rate,
            delay,
            queue_limit: 50,
            loss_rate: 0.0,
            faults: LinkFaults::clean(),
        }
    }

    /// Sets the random loss probability (builder style).
    pub fn with_loss(mut self, loss_rate: f64) -> Self {
        self.loss_rate = loss_rate;
        self
    }

    /// Sets the drop-tail buffer size in packets (builder style).
    pub fn with_queue_limit(mut self, packets: usize) -> Self {
        self.queue_limit = packets;
        self
    }

    /// Sets the fault-injection configuration (builder style).
    pub fn with_faults(mut self, faults: LinkFaults) -> Self {
        self.faults = faults;
        self
    }
}

/// A live link inside the simulator.
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    rate: Rate,
    delay: Duration,
    queue: DropTailQueue,
    loss_rate: f64,
    faults: LinkFaults,
    /// Gilbert–Elliott chain state: currently in the bad (burst) state.
    ge_bad: bool,
    /// End of the outage window a restart event has been scheduled for,
    /// so repeated offers during an outage schedule exactly one restart.
    outage_restart: Option<Time>,
    /// Whether the packet stays with the link until `LinkTxDone`: set
    /// when a departure stage (spike, reorder, duplicate) or an outage
    /// window is configured. Gilbert–Elliott loss acts at *offer*, so
    /// `LinkFaults::is_clean()` is stricter than this needs.
    holds_packet: bool,
    /// The serialization in progress (see the module docs).
    tx: Option<Tx>,
    /// Traffic counters, short of a completion nobody has observed yet;
    /// read them through [`Link::stats`].
    stats: LinkStats,
}

/// One serialization.
struct Tx {
    /// When the last bit leaves the transmitter.
    done_at: Time,
    /// The completion's reserved place among the events of `done_at`.
    seq: u64,
    /// Bytes being serialized.
    size: usize,
    /// Whether a `LinkTxDone` sits in the event queue under `seq`.
    scheduled: bool,
    /// The packet, on a link that holds it until completion.
    held: Option<PacketSlot>,
}

impl Tx {
    /// Whether the completion's place went by without an event.
    fn unobserved_done(&self, now: Time, evq: &EventQueue) -> bool {
        !self.scheduled
            && (now > self.done_at || (now == self.done_at && self.seq < evq.current_seq()))
    }
}

impl Link {
    /// Instantiates a link from its spec.
    pub fn new(id: LinkId, from: NodeId, to: NodeId, spec: &LinkSpec) -> Self {
        Link {
            id,
            from,
            to,
            rate: spec.rate,
            delay: spec.delay,
            queue: DropTailQueue::with_packet_limit(spec.queue_limit),
            loss_rate: spec.loss_rate,
            faults: spec.faults.clone(),
            ge_bad: false,
            outage_restart: None,
            holds_packet: spec.faults.spike_prob > 0.0
                || spec.faults.reorder_prob > 0.0
                || spec.faults.duplicate_prob > 0.0
                || !spec.faults.outages.is_empty(),
            tx: None,
            stats: LinkStats::default(),
        }
    }

    /// The traffic counters as of `now`, the instant `evq` is
    /// dispatching: a serialization whose completion has gone by counts
    /// as transmitted whether or not an event marked it.
    pub fn stats(&self, now: Time, evq: &EventQueue) -> LinkStats {
        let mut stats = self.stats;
        if let Some(tx) = self.tx.as_ref().filter(|tx| tx.unobserved_done(now, evq)) {
            stats.count_transmitted(tx.size);
        }
        stats
    }

    /// The link's serialization rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// The link's one-way propagation delay.
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// Current queue occupancy in packets.
    pub fn queue_len(&self) -> usize {
        self.queue.len_packets()
    }

    /// The link's current fault configuration.
    pub fn faults(&self) -> &LinkFaults {
        &self.faults
    }

    /// Offers a packet to the link: loss stage, then queue, then (if the
    /// transmitter is idle) serialization begins immediately.
    #[inline]
    pub fn offer(&mut self, pkt: Packet, now: Time, rng: &mut DetRng, evq: &mut EventQueue) {
        if self.survives_loss(rng) {
            let size = pkt.size;
            let slot = evq.packets_mut().insert(pkt);
            self.enqueue(slot, size, now, evq);
        }
    }

    /// [`Link::offer`] of a packet already in the slab (one a router
    /// forwards), `size` bytes on the wire; a lost packet's slot is
    /// freed.
    pub(crate) fn forward(
        &mut self,
        slot: PacketSlot,
        size: usize,
        now: Time,
        rng: &mut DetRng,
        evq: &mut EventQueue,
    ) {
        if self.survives_loss(rng) {
            self.enqueue(slot, size, now, evq);
        } else {
            evq.packets_mut().free(slot);
        }
    }

    /// Counts an offered packet and runs the loss stages on it.
    #[inline]
    fn survives_loss(&mut self, rng: &mut DetRng) -> bool {
        self.stats.offered += 1;
        if self.loss_rate > 0.0 && rng.chance(self.loss_rate) {
            self.stats.dropped_random += 1;
            return false;
        }
        if let Some(ge) = self.faults.ge {
            // Advance the burst chain once per offered packet, then draw
            // against the state's loss rate. Clean links take no RNG
            // draws here, preserving existing seeded runs byte-for-byte.
            if self.ge_bad {
                if rng.chance(ge.p_exit) {
                    self.ge_bad = false;
                }
            } else if rng.chance(ge.p_enter) {
                self.ge_bad = true;
            }
            let p = if self.ge_bad {
                ge.loss_bad
            } else {
                ge.loss_good
            };
            if p > 0.0 && rng.chance(p) {
                self.stats.dropped_burst += 1;
                return false;
            }
        }
        true
    }

    /// Queues the packet in `slot`, `size` bytes on the wire (freeing the
    /// slot if the queue drops it), and starts or schedules the
    /// transmitter.
    fn enqueue(&mut self, slot: PacketSlot, size: usize, now: Time, evq: &mut EventQueue) {
        if !self.queue.enqueue(slot, size) {
            self.stats.dropped_queue += 1;
            evq.packets_mut().free(slot);
            return;
        }
        self.stats.enqueued += 1;
        self.stats.max_queue_pkts = self.stats.max_queue_pkts.max(self.queue.len_packets());
        if self.idle(now, evq) {
            self.start_tx(now, evq);
        } else if let Some(tx) = self.tx.as_mut().filter(|tx| !tx.scheduled) {
            // First packet to wait behind the one on the wire: now the
            // completion has something to do, in the place kept for it.
            tx.scheduled = true;
            evq.push(tx.done_at, tx.seq, self.tx_done());
        }
    }

    /// This link's completion event.
    fn tx_done(&self) -> Event {
        Event::LinkTxDone {
            link: self.id.0 as u32,
        }
    }

    /// Whether the transmitter is free at `now`, settling the counters of
    /// a serialization whose completion went by without an event.
    fn idle(&mut self, now: Time, evq: &EventQueue) -> bool {
        if let Some(tx) = self.tx.as_ref().filter(|tx| tx.unobserved_done(now, evq)) {
            self.stats.count_transmitted(tx.size);
            self.tx = None;
        }
        self.tx.is_none()
    }

    /// Applies a bandwidth-schedule step: adopts the new rate and, if
    /// the transmitter was stalled (e.g. the rate was zero), restarts it.
    /// This is the only way to change a link's rate mid-run — a bare
    /// rate write would leave a stalled queue wedged.
    ///
    /// A packet already being serialized completes at the old rate — its
    /// completion instant (and, on a link that does not hold packets, its
    /// delivery) was fixed when it started — and the new rate applies
    /// from the next packet onward, exactly how a shaper change behaves
    /// on real hardware.
    pub fn on_rate_change(&mut self, rate: Rate, now: Time, evq: &mut EventQueue) {
        self.rate = rate;
        if self.idle(now, evq) {
            self.start_tx(now, evq);
        }
    }

    /// Begins serializing the next queued packet: reserves the
    /// completion's place, hands the packet to the wire unless this link
    /// holds packets, and schedules the completion only if something
    /// already waits on it.
    fn start_tx(&mut self, now: Time, evq: &mut EventQueue) {
        debug_assert!(self.tx.is_none(), "transmitter already busy");
        if self.rate.is_zero() {
            // A stopped link holds its queue; a schedule step restarts it.
            return;
        }
        if let Some(end) = self.faults.outage_until(now) {
            // The link is flapped down: hold the queue (it will overflow
            // like a real down interface's ring) and arrange exactly one
            // restart at the window's end.
            if self.outage_restart != Some(end) {
                self.outage_restart = Some(end);
                let seq = evq.reserve_seq();
                let link = self.id.0 as u32;
                evq.push(end, seq, Event::LinkFaultRestart { link });
            }
            return;
        }
        if let Some((slot, size)) = self.queue.dequeue() {
            let done_at = now + self.rate.transmit_time(size);
            let seq = evq.reserve_seq();
            let held = if self.holds_packet {
                Some(slot)
            } else {
                evq.deliver(done_at + self.delay, self.id, slot);
                None
            };
            let scheduled = held.is_some() || !self.queue.is_empty();
            if scheduled {
                evq.push(done_at, seq, self.tx_done());
            }
            self.tx = Some(Tx {
                done_at,
                seq,
                size,
                scheduled,
                held,
            });
        }
    }

    /// Handles the end of an outage window: restarts the transmitter if
    /// it sat idle over a held queue.
    pub fn on_fault_restart(&mut self, now: Time, evq: &mut EventQueue) {
        self.outage_restart = None;
        if self.idle(now, evq) {
            self.start_tx(now, evq);
        }
    }

    /// Handles a scheduled serialization completion: the packet counts as
    /// transmitted and the next one starts. On a link that holds packets
    /// this is also where the packet departs (arriving after the
    /// propagation delay).
    ///
    /// The fault stages run here, on departure: delay spikes and
    /// reordering stretch the propagation delay of this one packet
    /// (later packets may overtake it), and duplication schedules a
    /// second delivery. Links without them hold nothing and draw nothing.
    pub fn on_tx_done(&mut self, now: Time, rng: &mut DetRng, evq: &mut EventQueue) {
        #[expect(
            clippy::expect_used,
            reason = "event-order invariant — LinkTxDone is only ever scheduled for the serialization in progress"
        )]
        let tx = self
            .tx
            .take()
            .expect("LinkTxDone without a serialization in progress");
        debug_assert!(tx.scheduled && tx.done_at == now, "stray LinkTxDone");
        self.stats.count_transmitted(tx.size);
        if let Some(slot) = tx.held {
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
            if self.faults.duplicate_prob > 0.0 && rng.chance(self.faults.duplicate_prob) {
                self.stats.duplicated += 1;
                let copy = evq.packets()[slot].clone();
                let copy = evq.packets_mut().insert(copy);
                evq.deliver(now + delay + Duration::from_micros(1), self.id, copy);
            }
            evq.deliver(now + delay, self.id, slot);
        }
        self.start_tx(now, evq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SimEvent;
    use crate::packet::{Addr, Payload, Protocol};

    fn pkt(size: usize) -> Packet {
        Packet::new(
            Addr(1),
            Addr(2),
            1,
            2,
            Protocol::Udp,
            size,
            Payload::empty(),
        )
    }

    fn test_link(spec: LinkSpec) -> Link {
        Link::new(LinkId(0), NodeId(0), NodeId(1), &spec)
    }

    /// Pops the queue dry the way `Simulator` would, returning what was
    /// delivered when.
    fn drain(link: &mut Link, rng: &mut DetRng, evq: &mut EventQueue) -> Vec<Time> {
        let mut delivered = Vec::new();
        while let Some((t, e)) = evq.pop() {
            match e {
                SimEvent::LinkTxDone { .. } => link.on_tx_done(t, rng, evq),
                SimEvent::LinkDeliver { .. } => delivered.push(t),
                _ => unreachable!("a link on its own schedules nothing else"),
            }
        }
        delivered
    }

    #[test]
    fn serialization_then_propagation() {
        // 1 Mbps, 10 ms delay: a 1250-byte packet serializes in 10 ms.
        let mut link = test_link(LinkSpec::new(Rate::from_mbps(1), Duration::from_millis(10)));
        let mut rng = DetRng::seed(0);
        let mut evq = EventQueue::new();
        link.offer(pkt(1250), Time::ZERO, &mut rng, &mut evq);
        assert_eq!(link.queue_len(), 0, "the packet is on the wire, not queued");
        // Still serializing at 10 ms - 1 ns, transmitted from 10 ms on.
        let before = Time::from_nanos(Time::from_millis(10).as_nanos() - 1);
        assert_eq!(link.stats(before, &evq).transmitted, 0);
        assert_eq!(link.stats(Time::from_millis(11), &evq).transmitted, 1);
        // Delivery at 20 ms, and nothing else ever fires.
        assert_eq!(
            drain(&mut link, &mut rng, &mut evq),
            vec![Time::from_millis(20)]
        );
        let stats = link.stats(Time::from_millis(20), &evq);
        assert_eq!((stats.transmitted, stats.bytes_transmitted), (1, 1250));
    }

    #[test]
    fn back_to_back_packets_pipeline() {
        let mut link = test_link(LinkSpec::new(Rate::from_mbps(1), Duration::from_millis(5)));
        let mut rng = DetRng::seed(0);
        let mut evq = EventQueue::new();
        // Two packets offered together: second serializes after the first.
        link.offer(pkt(1250), Time::ZERO, &mut rng, &mut evq);
        link.offer(pkt(1250), Time::ZERO, &mut rng, &mut evq);
        assert_eq!(link.queue_len(), 1);
        // First serialized 0-10 ms, second 10-20 ms; 5 ms propagation each.
        assert_eq!(
            drain(&mut link, &mut rng, &mut evq),
            vec![Time::from_millis(15), Time::from_millis(25)]
        );
        assert_eq!(link.queue_len(), 0);
        let stats = link.stats(Time::from_millis(25), &evq);
        assert_eq!((stats.transmitted, stats.bytes_transmitted), (2, 2500));
    }

    #[test]
    fn random_loss_drops_fraction() {
        let mut link =
            test_link(LinkSpec::new(Rate::from_mbps(100), Duration::ZERO).with_loss(0.3));
        let mut rng = DetRng::seed(42);
        let mut evq = EventQueue::new();
        let mut t = Time::ZERO;
        for _ in 0..10_000 {
            link.offer(pkt(100), t, &mut rng, &mut evq);
            // Drain the transmitter so the queue never fills.
            while let Some((et, e)) = evq.pop() {
                if matches!(e, SimEvent::LinkTxDone { .. }) {
                    link.on_tx_done(et, &mut rng, &mut evq);
                }
                t = et;
            }
        }
        let frac = link.stats.dropped_random as f64 / link.stats.offered as f64;
        assert!((frac - 0.3).abs() < 0.02, "loss frac {frac}");
        assert_eq!(
            link.stats.offered,
            link.stats.dropped_random + link.stats.enqueued
        );
    }

    #[test]
    fn queue_overflow_counted() {
        let spec = LinkSpec::new(Rate::from_kbps(8), Duration::ZERO).with_queue_limit(2);
        let mut link = test_link(spec);
        let mut rng = DetRng::seed(0);
        let mut evq = EventQueue::new();
        // Offer 5 packets instantly: 1 in flight + 2 queued + 2 dropped.
        for _ in 0..5 {
            link.offer(pkt(100), Time::ZERO, &mut rng, &mut evq);
        }
        assert_eq!(link.stats.dropped_queue, 2);
        assert_eq!(link.stats.enqueued, 3);
    }

    #[test]
    fn ge_burst_loss_drops_in_bursts() {
        use crate::fault::{GilbertElliott, LinkFaults};
        let faults = LinkFaults::clean().with_ge(GilbertElliott {
            p_enter: 0.05,
            p_exit: 0.2,
            loss_good: 0.0,
            loss_bad: 1.0,
        });
        let mut link =
            test_link(LinkSpec::new(Rate::from_mbps(100), Duration::ZERO).with_faults(faults));
        let mut rng = DetRng::seed(11);
        let mut evq = EventQueue::new();
        let mut t = Time::ZERO;
        for _ in 0..10_000 {
            link.offer(pkt(100), t, &mut rng, &mut evq);
            while let Some((et, e)) = evq.pop() {
                if matches!(e, SimEvent::LinkTxDone { .. }) {
                    link.on_tx_done(et, &mut rng, &mut evq);
                }
                t = et;
            }
        }
        // Steady-state bad fraction is 0.05/0.25 = 20%, all lost there.
        let frac = link.stats.dropped_burst as f64 / link.stats.offered as f64;
        assert!((frac - 0.2).abs() < 0.05, "burst loss frac {frac}");
        assert_eq!(link.stats.dropped_random, 0);
        assert_eq!(
            link.stats.offered,
            link.stats.dropped_burst + link.stats.enqueued
        );
    }

    #[test]
    fn outage_holds_queue_then_restarts() {
        use crate::fault::LinkFaults;
        let faults = LinkFaults::clean().with_outage(Time::ZERO, Time::from_millis(50));
        let mut link = test_link(
            LinkSpec::new(Rate::from_mbps(1), Duration::from_millis(5)).with_faults(faults),
        );
        let mut rng = DetRng::seed(0);
        let mut evq = EventQueue::new();
        link.offer(pkt(1250), Time::ZERO, &mut rng, &mut evq);
        assert_eq!(link.queue_len(), 1, "packet held during outage");
        // The only pending event is the restart at the window's end.
        let (t, e) = evq.pop().unwrap();
        assert_eq!(t, Time::from_millis(50));
        assert!(matches!(e, SimEvent::LinkFaultRestart { .. }));
        link.on_fault_restart(t, &mut evq);
        // Now serialization proceeds: TxDone at 50 + 10 ms.
        let (t, e) = evq.pop().unwrap();
        assert_eq!(t, Time::from_millis(60));
        assert!(matches!(e, SimEvent::LinkTxDone { .. }));
        link.on_tx_done(t, &mut rng, &mut evq);
        let (t, e) = evq.pop().unwrap();
        assert_eq!(t, Time::from_millis(65));
        assert!(matches!(e, SimEvent::LinkDeliver { .. }));
        assert_eq!(link.stats.transmitted, 1);
    }

    #[test]
    fn repeated_offers_during_outage_schedule_one_restart() {
        use crate::fault::LinkFaults;
        let faults = LinkFaults::clean().with_outage(Time::ZERO, Time::from_millis(10));
        let mut link =
            test_link(LinkSpec::new(Rate::from_mbps(10), Duration::ZERO).with_faults(faults));
        let mut rng = DetRng::seed(0);
        let mut evq = EventQueue::new();
        for _ in 0..5 {
            link.offer(pkt(100), Time::ZERO, &mut rng, &mut evq);
        }
        assert_eq!(evq.len(), 1, "exactly one restart event");
    }

    #[test]
    fn duplication_delivers_twice() {
        use crate::fault::LinkFaults;
        let faults = LinkFaults::clean().with_duplication(1.0);
        let mut link = test_link(
            LinkSpec::new(Rate::from_mbps(1), Duration::from_millis(5)).with_faults(faults),
        );
        let mut rng = DetRng::seed(0);
        let mut evq = EventQueue::new();
        link.offer(pkt(1250), Time::ZERO, &mut rng, &mut evq);
        let (t, _) = evq.pop().unwrap();
        link.on_tx_done(t, &mut rng, &mut evq);
        let mut deliveries = 0;
        while let Some((_, e)) = evq.pop() {
            if matches!(e, SimEvent::LinkDeliver { .. }) {
                deliveries += 1;
            }
        }
        assert_eq!(deliveries, 2);
        assert_eq!(link.stats.duplicated, 1);
    }

    #[test]
    fn delay_spike_stretches_delivery() {
        use crate::fault::LinkFaults;
        let faults = LinkFaults::clean().with_delay_spikes(1.0, Duration::from_millis(40));
        let mut link = test_link(
            LinkSpec::new(Rate::from_mbps(1), Duration::from_millis(5)).with_faults(faults),
        );
        let mut rng = DetRng::seed(0);
        let mut evq = EventQueue::new();
        link.offer(pkt(1250), Time::ZERO, &mut rng, &mut evq);
        let (t, _) = evq.pop().unwrap();
        link.on_tx_done(t, &mut rng, &mut evq);
        let (t, e) = evq.pop().unwrap();
        assert!(matches!(e, SimEvent::LinkDeliver { .. }));
        // 10 ms serialization + 5 ms delay + 40 ms spike.
        assert_eq!(t, Time::from_millis(55));
        assert_eq!(link.stats.delay_spikes, 1);
    }

    #[test]
    fn zero_loss_never_drops() {
        let mut link = test_link(LinkSpec::new(Rate::from_mbps(10), Duration::ZERO));
        let mut rng = DetRng::seed(7);
        let mut evq = EventQueue::new();
        for _ in 0..50 {
            link.offer(pkt(10), Time::ZERO, &mut rng, &mut evq);
            if let Some((t, SimEvent::LinkTxDone { .. })) = evq.pop() {
                link.on_tx_done(t, &mut rng, &mut evq);
            }
        }
        assert_eq!(link.stats.dropped_random, 0);
    }
}
