//! The link buffer: a drop-tail FIFO bounded by packet count.
//!
//! The paper's experiments run over Dummynet's drop-tail router buffers
//! (the Internet's de-facto standard, as §3.6 notes), with Bernoulli loss
//! applied in front of them; a congested queue signals only by dropping.
//!
//! A queue holds each packet's [`PacketSlot`] and wire size, not the
//! packet: the packets stay in the event queue's
//! [`PacketSlab`](crate::event::PacketSlab), and neither queueing nor
//! dequeueing reads it.

use std::collections::VecDeque;

use crate::event::PacketSlot;

/// One queued packet: its slot and its wire size, so that a transmitter
/// starting on it need not read the slab.
#[derive(Clone, Copy, Debug)]
struct Entry {
    slot: PacketSlot,
    size: u32,
}

/// A drop-tail FIFO bounded by packet count (the classic router "slots"
/// model; Dummynet's default queue is 50 slots).
///
/// # Examples
///
/// ```
/// use cm_netsim::event::PacketSlab;
/// use cm_netsim::queue::DropTailQueue;
/// use cm_netsim::packet::{Addr, Packet, Payload, Protocol};
///
/// let mut q = DropTailQueue::with_packet_limit(2);
/// let mut pkts = PacketSlab::new();
/// let mk = || Packet::new(Addr(1), Addr(2), 1, 2, Protocol::Udp, 100, Payload::empty());
/// for _ in 0..2 {
///     assert!(q.enqueue(pkts.insert(mk()), 100));
/// }
/// // Third packet exceeds the two-packet limit and is dropped.
/// assert!(!q.enqueue(pkts.insert(mk()), 100));
/// // Packets leave in arrival order, with the size they were offered at.
/// assert!(matches!(q.dequeue(), Some((_, 100))));
/// ```
pub struct DropTailQueue {
    entries: VecDeque<Entry>,
    max_packets: usize,
}

impl DropTailQueue {
    /// A queue that holds at most `max_packets` packets.
    pub fn with_packet_limit(max_packets: usize) -> Self {
        DropTailQueue {
            entries: VecDeque::new(),
            max_packets,
        }
    }

    /// Offers the packet in `slot`, `size` bytes on the wire. Returns
    /// false if the queue is full; the slot is then still the caller's
    /// to free.
    #[inline]
    pub fn enqueue(&mut self, slot: PacketSlot, size: usize) -> bool {
        if self.entries.len() >= self.max_packets {
            return false;
        }
        debug_assert!(u32::try_from(size).is_ok(), "a {size} B packet");
        self.entries.push_back(Entry {
            slot,
            size: size as u32,
        });
        true
    }

    /// Removes the next packet to transmit: its slot and its size.
    #[inline]
    pub fn dequeue(&mut self) -> Option<(PacketSlot, usize)> {
        let Entry { slot, size } = self.entries.pop_front()?;
        Some((slot, size as usize))
    }

    /// Current occupancy in packets.
    pub fn len_packets(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PacketSlab;
    use crate::packet::{Addr, Packet, Payload, Protocol};

    fn pkt(id: u64) -> Packet {
        let mut p = Packet::new(Addr(1), Addr(2), 1, 2, Protocol::Udp, 100, Payload::empty());
        p.id = id;
        p
    }

    /// A queued packet costs its queue 8 bytes: a slot and a size.
    #[test]
    fn queue_entry_is_pinned() {
        assert_eq!(size_of::<Entry>(), 8);
    }

    #[test]
    fn droptail_fifo_order() {
        let mut q = DropTailQueue::with_packet_limit(10);
        let mut pkts = PacketSlab::new();
        for i in 0..3 {
            assert!(q.enqueue(pkts.insert(pkt(i)), 100 + i as usize));
        }
        assert_eq!(q.len_packets(), 3);
        for i in 0..3 {
            let (slot, size) = q.dequeue().unwrap();
            assert_eq!(size, 100 + i as usize, "an entry keeps its size");
            assert_eq!(pkts.remove(slot).id, i);
        }
        assert!(q.is_empty());
        assert!(pkts.is_empty());
    }
}
