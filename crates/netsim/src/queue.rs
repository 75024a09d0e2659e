//! Queueing disciplines for link buffers.
//!
//! The paper's experiments run over drop-tail FIFO router buffers (the
//! Internet's de-facto standard, as §3.6 notes) and rely on ECN marking
//! (RFC 2481) as an alternative congestion signal, which requires an
//! active-queue-management discipline — we provide classic RED with the
//! gentle marking variant.
//!
//! A queue holds [`PacketSlot`]s, not packets: the packets stay in the
//! event queue's [`PacketSlab`], which a discipline reads for sizes and
//! writes for ECN marks.

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
    pub fn is_enqueued(&self) -> bool {
        !matches!(self, EnqueueOutcome::Dropped)
    }
}

/// A link buffer discipline.
pub trait Queue: Send {
    /// Offers the packet in `slot` of `pkts` to the queue.
    fn enqueue(
        &mut self,
        slot: PacketSlot,
        pkts: &mut PacketSlab,
        now: Time,
        rng: &mut DetRng,
    ) -> EnqueueOutcome;

    /// Removes the next packet to transmit.
    fn dequeue(&mut self, pkts: &PacketSlab, now: Time) -> Option<PacketSlot>;

    /// Current occupancy in bytes.
    fn len_bytes(&self) -> usize;

    /// Current occupancy in packets.
    fn len_packets(&self) -> usize;

    /// Returns true if no packets are queued.
    fn is_empty(&self) -> bool {
        self.len_packets() == 0
    }
}

/// A drop-tail FIFO bounded by bytes and/or packets.
///
/// # Examples
///
/// ```
/// use cm_netsim::event::PacketSlab;
/// use cm_netsim::queue::{DropTailQueue, Queue};
/// use cm_netsim::packet::{Addr, Packet, Payload, Protocol};
/// use cm_util::{DetRng, Time};
///
/// let mut q = DropTailQueue::with_packet_limit(2);
/// let mut pkts = PacketSlab::new();
/// let mut rng = DetRng::seed(0);
/// let mk = || Packet::new(Addr(1), Addr(2), 1, 2, Protocol::Udp, 100, Payload::empty());
/// for _ in 0..2 {
///     let slot = pkts.insert(mk());
///     assert!(q.enqueue(slot, &mut pkts, Time::ZERO, &mut rng).is_enqueued());
/// }
/// // Third packet exceeds the two-packet limit and is dropped.
/// let slot = pkts.insert(mk());
/// assert!(!q.enqueue(slot, &mut pkts, Time::ZERO, &mut rng).is_enqueued());
/// ```
pub struct DropTailQueue {
    fifo: VecDeque<PacketSlot>,
    bytes: usize,
    max_bytes: usize,
    max_packets: usize,
}

impl DropTailQueue {
    /// A queue bounded by total bytes.
    pub fn with_byte_limit(max_bytes: usize) -> Self {
        DropTailQueue {
            fifo: VecDeque::new(),
            bytes: 0,
            max_bytes,
            max_packets: usize::MAX,
        }
    }

    /// A queue bounded by packet count (the classic router "slots" model;
    /// Dummynet's default queue is 50 slots).
    pub fn with_packet_limit(max_packets: usize) -> Self {
        DropTailQueue {
            fifo: VecDeque::new(),
            bytes: 0,
            max_bytes: usize::MAX,
            max_packets,
        }
    }
}

impl Queue for DropTailQueue {
    fn enqueue(
        &mut self,
        slot: PacketSlot,
        pkts: &mut PacketSlab,
        _now: Time,
        _rng: &mut DetRng,
    ) -> EnqueueOutcome {
        let size = pkts[slot].size;
        if self.fifo.len() + 1 > self.max_packets || self.bytes + size > self.max_bytes {
            return EnqueueOutcome::Dropped;
        }
        self.bytes += size;
        self.fifo.push_back(slot);
        EnqueueOutcome::Enqueued
    }

    fn dequeue(&mut self, pkts: &PacketSlab, _now: Time) -> Option<PacketSlot> {
        let slot = self.fifo.pop_front()?;
        self.bytes -= pkts[slot].size;
        Some(slot)
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn len_packets(&self) -> usize {
        self.fifo.len()
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
    fifo: VecDeque<PacketSlot>,
    bytes: usize,
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
            fifo: VecDeque::new(),
            bytes: 0,
            avg: 0.0,
            count: -1,
            idle_since: Some(Time::ZERO),
        }
    }

    /// The current average queue estimate, in packets.
    pub fn avg(&self) -> f64 {
        self.avg
    }

    fn update_avg(&mut self, now: Time) {
        if let Some(idle_start) = self.idle_since {
            // Decay the average as if `m` small packets had drained.
            let idle = now.since(idle_start).as_secs_f64();
            let m = (idle / MEAN_PKT_TIME_S).floor();
            self.avg *= (1.0 - self.cfg.weight).powf(m.max(0.0));
            self.idle_since = None;
        }
        self.avg += self.cfg.weight * (self.fifo.len() as f64 - self.avg);
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

impl Queue for RedQueue {
    fn enqueue(
        &mut self,
        slot: PacketSlot,
        pkts: &mut PacketSlab,
        now: Time,
        rng: &mut DetRng,
    ) -> EnqueueOutcome {
        if self.fifo.len() >= self.cfg.capacity {
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
        let pkt = &mut pkts[slot];
        if decision {
            if self.cfg.ecn && pkt.ecn.is_capable() {
                pkt.ecn = Ecn::Ce;
                self.bytes += pkt.size;
                self.fifo.push_back(slot);
                return EnqueueOutcome::EnqueuedMarked;
            }
            return EnqueueOutcome::Dropped;
        }
        self.bytes += pkt.size;
        self.fifo.push_back(slot);
        EnqueueOutcome::Enqueued
    }

    fn dequeue(&mut self, pkts: &PacketSlab, now: Time) -> Option<PacketSlot> {
        let slot = self.fifo.pop_front()?;
        self.bytes -= pkts[slot].size;
        if self.fifo.is_empty() {
            self.idle_since = Some(now);
        }
        Some(slot)
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn len_packets(&self) -> usize {
        self.fifo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, Packet, Payload, Protocol};

    /// A queue under test and the slab its packets live in.
    struct Bench<Q> {
        q: Q,
        pkts: PacketSlab,
        rng: DetRng,
    }

    impl<Q: Queue> Bench<Q> {
        fn new(q: Q, seed: u64) -> Self {
            Bench {
                q,
                pkts: PacketSlab::new(),
                rng: DetRng::seed(seed),
            }
        }

        /// Offers a packet at `now`, freeing its slot if it is dropped.
        fn offer_at(&mut self, pkt: Packet, now: Time) -> EnqueueOutcome {
            let slot = self.pkts.insert(pkt);
            let outcome = self.q.enqueue(slot, &mut self.pkts, now, &mut self.rng);
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
            let slot = self.q.dequeue(&self.pkts, now)?;
            Some(self.pkts.remove(slot))
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

    #[test]
    fn droptail_fifo_order() {
        let mut b = Bench::new(DropTailQueue::with_packet_limit(10), 0);
        for i in 0..3 {
            let mut p = pkt(100);
            p.id = i;
            assert!(b.offer(p).is_enqueued());
        }
        assert_eq!(b.q.len_packets(), 3);
        assert_eq!(b.q.len_bytes(), 300);
        for i in 0..3 {
            assert_eq!(b.take().unwrap().id, i);
        }
        assert!(b.q.is_empty());
        assert!(b.pkts.is_empty());
    }

    #[test]
    fn droptail_byte_limit() {
        let mut b = Bench::new(DropTailQueue::with_byte_limit(250), 0);
        assert!(b.offer(pkt(100)).is_enqueued());
        assert!(b.offer(pkt(100)).is_enqueued());
        // 100 more bytes would exceed 250.
        assert!(!b.offer(pkt(100)).is_enqueued());
        // A smaller packet still fits.
        assert!(b.offer(pkt(50)).is_enqueued());
        assert_eq!(b.q.len_bytes(), 250);
        assert_eq!(b.pkts.len(), 3);
    }

    #[test]
    fn red_accepts_below_min_th() {
        let mut b = Bench::new(RedQueue::new(RedConfig::default()), 1);
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
        let mut b = Bench::new(RedQueue::new(cfg), 2);
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
        let mut b = Bench::new(RedQueue::new(cfg), 3);
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
        let mut b = Bench::new(RedQueue::new(cfg), 4);
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
        let mut b = Bench::new(RedQueue::new(cfg), 5);
        for _ in 0..20 {
            let _ = b.offer(pkt(100));
        }
        let avg_loaded = b.q.avg();
        assert!(avg_loaded > 1.0);
        while b.take_at(Time::from_millis(1)).is_some() {}
        // After a long idle period the average collapses.
        let _ = b.offer_at(pkt(100), Time::from_secs(10));
        assert!(b.q.avg() < 1.0, "avg {} after idle", b.q.avg());
    }
}
