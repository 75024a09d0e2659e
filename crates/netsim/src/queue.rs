//! Queueing disciplines for link buffers.
//!
//! The paper's experiments run over drop-tail FIFO router buffers (the
//! Internet's de-facto standard, as §3.6 notes) and rely on ECN marking
//! (RFC 2481) as an alternative congestion signal, which requires an
//! active-queue-management discipline — we provide classic RED with the
//! gentle marking variant.
//!
//! A queue holds each packet's [`PacketSlot`] and wire size, not the
//! packet: the packets stay in the event queue's [`PacketSlab`], which
//! RED reads and writes only to set an ECN mark. [`Queue`] is the closed
//! set of disciplines a link can hold.

use std::collections::VecDeque;

use cm_util::{DetRng, Time};

use crate::event::{PacketSlab, PacketSlot};
use crate::packet::Ecn;

/// What happened when a packet was offered to a queue.
#[derive(Debug)]
pub enum EnqueueOutcome {
    /// The packet was accepted.
    Enqueued,
    /// The packet was accepted and its ECN codepoint set to CE.
    EnqueuedMarked,
    /// The packet was refused; its slot is still the caller's to free.
    Dropped,
}

impl EnqueueOutcome {
    /// Returns true if the packet was accepted (marked or not).
    #[cfg(test)]
    fn is_enqueued(&self) -> bool {
        !matches!(self, EnqueueOutcome::Dropped)
    }
}

/// A link buffer: one of the disciplines below.
pub enum Queue {
    /// A drop-tail FIFO.
    DropTail(DropTailQueue),
    /// Random Early Detection.
    Red(RedQueue),
}

impl Queue {
    /// Offers the packet in `slot` of `pkts`, `size` bytes on the wire.
    #[inline]
    pub fn enqueue(
        &mut self,
        slot: PacketSlot,
        size: usize,
        pkts: &mut PacketSlab,
        now: Time,
        rng: &mut DetRng,
    ) -> EnqueueOutcome {
        match self {
            Queue::DropTail(q) => q.enqueue(slot, size),
            Queue::Red(q) => q.enqueue(slot, size, pkts, now, rng),
        }
    }

    /// Removes the next packet to transmit: its slot and its size.
    #[inline]
    pub fn dequeue(&mut self, now: Time) -> Option<(PacketSlot, usize)> {
        match self {
            Queue::DropTail(q) => q.dequeue(),
            Queue::Red(q) => q.dequeue(now),
        }
    }

    fn fifo(&self) -> &Fifo {
        match self {
            Queue::DropTail(q) => &q.fifo,
            Queue::Red(q) => &q.fifo,
        }
    }

    /// Current occupancy in packets.
    pub fn len_packets(&self) -> usize {
        self.fifo().entries.len()
    }

    /// Returns true if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.fifo().entries.is_empty()
    }
}

/// One queued packet: its slot and its wire size, so that neither the
/// queue's byte count nor a transmitter starting on it reads the slab.
#[derive(Clone, Copy, Debug)]
struct Entry {
    slot: PacketSlot,
    size: u32,
}

/// The FIFO both disciplines keep, with its byte count.
#[derive(Default)]
struct Fifo {
    entries: VecDeque<Entry>,
    bytes: usize,
}

impl Fifo {
    #[inline]
    fn push(&mut self, slot: PacketSlot, size: usize) {
        debug_assert!(u32::try_from(size).is_ok(), "a {size} B packet");
        self.bytes += size;
        self.entries.push_back(Entry {
            slot,
            size: size as u32,
        });
    }

    #[inline]
    fn pop(&mut self) -> Option<(PacketSlot, usize)> {
        let Entry { slot, size } = self.entries.pop_front()?;
        self.bytes -= size as usize;
        Some((slot, size as usize))
    }
}

/// A drop-tail FIFO bounded by bytes and/or packets.
///
/// # Examples
///
/// ```
/// use cm_netsim::event::PacketSlab;
/// use cm_netsim::queue::{DropTailQueue, EnqueueOutcome, Queue};
/// use cm_netsim::packet::{Addr, Packet, Payload, Protocol};
/// use cm_util::{DetRng, Time};
///
/// let mut q = Queue::DropTail(DropTailQueue::with_packet_limit(2));
/// let mut pkts = PacketSlab::new();
/// let mut rng = DetRng::seed(0);
/// let mk = || Packet::new(Addr(1), Addr(2), 1, 2, Protocol::Udp, 100, Payload::empty());
/// for _ in 0..2 {
///     let slot = pkts.insert(mk());
///     let outcome = q.enqueue(slot, 100, &mut pkts, Time::ZERO, &mut rng);
///     assert!(matches!(outcome, EnqueueOutcome::Enqueued));
/// }
/// // Third packet exceeds the two-packet limit and is dropped.
/// let slot = pkts.insert(mk());
/// let outcome = q.enqueue(slot, 100, &mut pkts, Time::ZERO, &mut rng);
/// assert!(matches!(outcome, EnqueueOutcome::Dropped));
/// // Packets leave in arrival order, with the size they were offered at.
/// assert!(matches!(q.dequeue(Time::ZERO), Some((_, 100))));
/// ```
pub struct DropTailQueue {
    fifo: Fifo,
    max_bytes: usize,
    max_packets: usize,
}

impl DropTailQueue {
    /// A queue bounded by total bytes.
    pub fn with_byte_limit(max_bytes: usize) -> Self {
        DropTailQueue {
            fifo: Fifo::default(),
            max_bytes,
            max_packets: usize::MAX,
        }
    }

    /// A queue bounded by packet count (the classic router "slots" model;
    /// Dummynet's default queue is 50 slots).
    pub fn with_packet_limit(max_packets: usize) -> Self {
        DropTailQueue {
            fifo: Fifo::default(),
            max_bytes: usize::MAX,
            max_packets,
        }
    }

    #[inline]
    fn enqueue(&mut self, slot: PacketSlot, size: usize) -> EnqueueOutcome {
        if self.fifo.entries.len() + 1 > self.max_packets || self.fifo.bytes + size > self.max_bytes
        {
            return EnqueueOutcome::Dropped;
        }
        self.fifo.push(slot, size);
        EnqueueOutcome::Enqueued
    }

    #[inline]
    fn dequeue(&mut self) -> Option<(PacketSlot, usize)> {
        self.fifo.pop()
    }
}

/// Configuration for [`RedQueue`].
#[derive(Clone, Copy, Debug)]
pub struct RedConfig {
    /// Minimum average-queue threshold, in packets.
    pub min_th: f64,
    /// Maximum average-queue threshold, in packets.
    pub max_th: f64,
    /// Mark/drop probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue size.
    pub weight: f64,
    /// Hard capacity in packets.
    pub capacity: usize,
    /// If true, ECT packets are CE-marked instead of dropped in the
    /// probabilistic region.
    pub ecn: bool,
}

impl Default for RedConfig {
    fn default() -> Self {
        RedConfig {
            min_th: 5.0,
            max_th: 15.0,
            max_p: 0.1,
            weight: 0.002,
            capacity: 50,
            ecn: true,
        }
    }
}

/// Random Early Detection with optional ECN marking.
///
/// Implements the classic Floyd/Jacobson algorithm: an EWMA of the
/// instantaneous queue length selects between accept (below `min_th`),
/// probabilistic mark/drop (between thresholds, with the `count`-based
/// probability correction), and forced mark/drop (above `max_th`).
pub struct RedQueue {
    cfg: RedConfig,
    fifo: Fifo,
    avg: f64,
    /// Packets since the last mark/drop, for the uniformization correction.
    count: i64,
    /// When the queue went idle, for the idle-time decay of `avg`.
    idle_since: Option<Time>,
}

/// Mean packet transmission time used to decay RED's average while the
/// queue is idle, in seconds: 1500 B at 10 Mbps.
const MEAN_PKT_TIME_S: f64 = 1500.0 * 8.0 / 10e6;

impl RedQueue {
    /// Creates a RED queue.
    pub fn new(cfg: RedConfig) -> Self {
        RedQueue {
            cfg,
            fifo: Fifo::default(),
            avg: 0.0,
            count: -1,
            idle_since: Some(Time::ZERO),
        }
    }

    fn update_avg(&mut self, now: Time) {
        if let Some(idle_start) = self.idle_since {
            // Decay the average as if `m` small packets had drained.
            let idle = now.since(idle_start).as_secs_f64();
            let m = (idle / MEAN_PKT_TIME_S).floor();
            self.avg *= (1.0 - self.cfg.weight).powf(m.max(0.0));
            self.idle_since = None;
        }
        self.avg += self.cfg.weight * (self.fifo.entries.len() as f64 - self.avg);
    }

    /// The current mark probability given the average, before the count
    /// correction; `None` means "accept unconditionally".
    fn base_prob(&self) -> Option<f64> {
        if self.avg < self.cfg.min_th {
            None
        } else if self.avg >= self.cfg.max_th {
            Some(1.0)
        } else {
            let frac = (self.avg - self.cfg.min_th) / (self.cfg.max_th - self.cfg.min_th);
            Some(self.cfg.max_p * frac)
        }
    }
}

impl RedQueue {
    /// Reads the slab only to mark a packet it decided to mark.
    #[inline]
    fn enqueue(
        &mut self,
        slot: PacketSlot,
        size: usize,
        pkts: &mut PacketSlab,
        now: Time,
        rng: &mut DetRng,
    ) -> EnqueueOutcome {
        if self.fifo.entries.len() >= self.cfg.capacity {
            self.count = 0;
            return EnqueueOutcome::Dropped;
        }
        self.update_avg(now);
        let decision = match self.base_prob() {
            None => {
                self.count = -1;
                false
            }
            Some(p) if p >= 1.0 => {
                self.count = 0;
                true
            }
            Some(pb) => {
                self.count += 1;
                // Floyd's correction spreads marks uniformly.
                let denom = 1.0 - self.count as f64 * pb;
                let pa = if denom <= 0.0 { 1.0 } else { pb / denom };
                if rng.chance(pa) {
                    self.count = 0;
                    true
                } else {
                    false
                }
            }
        };
        if decision {
            let pkt = &mut pkts[slot];
            if self.cfg.ecn && pkt.ecn.is_capable() {
                pkt.ecn = Ecn::Ce;
                self.fifo.push(slot, size);
                return EnqueueOutcome::EnqueuedMarked;
            }
            return EnqueueOutcome::Dropped;
        }
        self.fifo.push(slot, size);
        EnqueueOutcome::Enqueued
    }

    #[inline]
    fn dequeue(&mut self, now: Time) -> Option<(PacketSlot, usize)> {
        let popped = self.fifo.pop()?;
        if self.fifo.entries.is_empty() {
            self.idle_since = Some(now);
        }
        Some(popped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, Packet, Payload, Protocol};

    /// A queue under test and the slab its packets live in.
    struct Bench {
        q: Queue,
        pkts: PacketSlab,
        rng: DetRng,
    }

    impl Bench {
        fn new(q: Queue, seed: u64) -> Self {
            Bench {
                q,
                pkts: PacketSlab::new(),
                rng: DetRng::seed(seed),
            }
        }

        /// Offers a packet at `now`, freeing its slot if it is dropped.
        fn offer_at(&mut self, pkt: Packet, now: Time) -> EnqueueOutcome {
            let size = pkt.size;
            let slot = self.pkts.insert(pkt);
            let outcome = self
                .q
                .enqueue(slot, size, &mut self.pkts, now, &mut self.rng);
            if !outcome.is_enqueued() {
                self.pkts.free(slot);
            }
            outcome
        }

        fn offer(&mut self, pkt: Packet) -> EnqueueOutcome {
            self.offer_at(pkt, Time::ZERO)
        }

        /// Dequeues at `now`, taking the packet out of the slab.
        fn take_at(&mut self, now: Time) -> Option<Packet> {
            let (slot, size) = self.q.dequeue(now)?;
            let pkt = self.pkts.remove(slot);
            assert_eq!(size, pkt.size, "a queue entry's size is its packet's");
            Some(pkt)
        }

        fn take(&mut self) -> Option<Packet> {
            self.take_at(Time::ZERO)
        }
    }

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

    fn ect_pkt(size: usize) -> Packet {
        pkt(size).with_ecn(Ecn::Ect)
    }

    /// A queued packet costs its queue 8 bytes: a slot and a size.
    #[test]
    fn queue_entry_is_pinned() {
        assert_eq!(size_of::<Entry>(), 8);
    }

    #[test]
    fn droptail_fifo_order() {
        let mut b = Bench::new(Queue::DropTail(DropTailQueue::with_packet_limit(10)), 0);
        for i in 0..3 {
            let mut p = pkt(100);
            p.id = i;
            assert!(b.offer(p).is_enqueued());
        }
        assert_eq!(b.q.len_packets(), 3);
        assert_eq!(b.q.fifo().bytes, 300);
        for i in 0..3 {
            assert_eq!(b.take().unwrap().id, i);
        }
        assert!(b.q.is_empty());
        assert!(b.pkts.is_empty());
    }

    #[test]
    fn droptail_byte_limit() {
        let mut b = Bench::new(Queue::DropTail(DropTailQueue::with_byte_limit(250)), 0);
        assert!(b.offer(pkt(100)).is_enqueued());
        assert!(b.offer(pkt(100)).is_enqueued());
        // 100 more bytes would exceed 250.
        assert!(!b.offer(pkt(100)).is_enqueued());
        // A smaller packet still fits.
        assert!(b.offer(pkt(50)).is_enqueued());
        assert_eq!(b.q.fifo().bytes, 250);
        assert_eq!(b.pkts.len(), 3);
    }

    #[test]
    fn red_accepts_below_min_th() {
        let mut b = Bench::new(Queue::Red(RedQueue::new(RedConfig::default())), 1);
        // With an empty queue the average stays near zero: all accepted.
        for _ in 0..100 {
            assert!(b.offer(pkt(1500)).is_enqueued());
            b.take();
        }
    }

    #[test]
    fn red_hard_drop_at_capacity() {
        let cfg = RedConfig {
            capacity: 5,
            ..Default::default()
        };
        let mut b = Bench::new(Queue::Red(RedQueue::new(cfg)), 2);
        for _ in 0..5 {
            let _ = b.offer(pkt(100));
        }
        assert!(!b.offer(pkt(100)).is_enqueued());
    }

    #[test]
    fn red_marks_ect_instead_of_dropping() {
        // Force the average above max_th so every packet is mark/dropped.
        let cfg = RedConfig {
            min_th: 0.0,
            max_th: 0.5,
            weight: 1.0, // average tracks instantaneous occupancy
            capacity: 100,
            ..Default::default()
        };
        let mut b = Bench::new(Queue::Red(RedQueue::new(cfg)), 3);
        // First packet raises avg to 1 > max_th after one resident packet.
        assert!(b.offer(ect_pkt(100)).is_enqueued());
        let outcome = b.offer(ect_pkt(100));
        match outcome {
            EnqueueOutcome::EnqueuedMarked => {}
            o => panic!("expected mark, got {o:?}"),
        }
        // Non-ECT packets are dropped under identical pressure.
        assert!(!b.offer(pkt(100)).is_enqueued());
        // The mark is on the packet in the slab.
        let ecns: Vec<Ecn> = std::iter::from_fn(|| b.take()).map(|p| p.ecn).collect();
        assert_eq!(ecns, [Ecn::Ect, Ecn::Ce]);
    }

    #[test]
    fn red_probabilistic_region_marks_some() {
        let cfg = RedConfig {
            min_th: 1.0,
            max_th: 100.0,
            max_p: 0.5,
            weight: 1.0,
            capacity: 1_000,
            ecn: false,
        };
        let mut b = Bench::new(Queue::Red(RedQueue::new(cfg)), 4);
        // Keep ~30 packets resident: avg ~30, pb ~0.146.
        let mut drops = 0;
        let mut total = 0;
        for _ in 0..30 {
            let _ = b.offer(pkt(100));
        }
        for _ in 0..2_000 {
            total += 1;
            if !b.offer(pkt(100)).is_enqueued() {
                drops += 1;
            } else {
                b.take();
            }
        }
        let frac = drops as f64 / total as f64;
        assert!(frac > 0.02 && frac < 0.6, "drop frac {frac}");
    }

    #[test]
    fn red_idle_decay_resets_average() {
        let cfg = RedConfig {
            weight: 0.5,
            ..Default::default()
        };
        let mut b = Bench::new(Queue::Red(RedQueue::new(cfg)), 5);
        for _ in 0..20 {
            let _ = b.offer(pkt(100));
        }
        let red = |b: &Bench| match &b.q {
            Queue::Red(q) => q.avg,
            Queue::DropTail(_) => unreachable!(),
        };
        let avg_loaded = red(&b);
        assert!(avg_loaded > 1.0);
        while b.take_at(Time::from_millis(1)).is_some() {}
        // After a long idle period the average collapses.
        let _ = b.offer_at(pkt(100), Time::from_secs(10));
        assert!(red(&b) < 1.0, "avg {} after idle", red(&b));
    }
}
