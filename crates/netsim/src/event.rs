//! The simulation event queue: a hierarchical timer wheel.
//!
//! Events are totally ordered by `(time, sequence)`. The sequence number
//! is a monotone counter assigned at insertion, so two events scheduled
//! for the same instant always execute in insertion order — the property
//! that makes whole-simulation determinism possible regardless of
//! container iteration order elsewhere. A caller that knows *now* where
//! an event belongs among its instant's ties but not yet whether it will
//! need the event takes the number with [`EventQueue::reserve_seq`] and
//! inserts later with [`EventQueue::schedule_reserved`]
//! ([`EventQueue::schedule`] is the two back to back). A caller that
//! never scheduled the event at all — a link whose serialization nobody
//! waited behind — can still ask whether its reserved place has gone by:
//! [`EventQueue::current_seq`] is the number of the event being
//! dispatched, so within one instant a reserved number below it belongs
//! to the past and one above it to the future.
//!
//! # Structure
//!
//! The old implementation was a single `BinaryHeap`, which costs
//! `O(log n)` cache-missing sift operations on every schedule *and* every
//! pop — and the CM sits on every simulated packet's path, so those are
//! the two hottest functions in the repository. The replacement is a
//! classic hierarchical timing wheel:
//!
//! * a **near wheel** of [`WHEEL_SLOTS`] fixed-width slots
//!   ([`SLOT_NANOS`] ns each) covering the next ~33.5 ms of simulated time
//!   from the drain cursor — packet serialization and propagation events
//!   land here with an O(1) push. A slot is a FIFO list threaded through
//!   the event arena, whose slots hold each event's `(time, seq)` key and
//!   link, so its first use allocates nothing; FIFO order (a slot fills
//!   mostly in time order) keeps the sort on nearly sorted input;
//! * an **overflow heap** for events beyond the wheel horizon (RTO and
//!   maintenance timers); entries migrate into the wheel as the cursor
//!   advances, paying the heap cost once per far event instead of on
//!   every reshuffle. When the wheel is empty, `advance` jumps the cursor
//!   straight to the overflow head: that jump is the one way a quiet gap
//!   is crossed. A push never moves the cursor, so an event scheduled
//!   into an empty queue goes where any other event would;
//! * a **current bucket** holding the slots being drained (a gathered run
//!   of up to 16), sorted by `(time, seq)` exactly once when the cursor
//!   reaches them.
//!
//! Pop order is byte-identical to the reference heap — a property test in
//! `tests/props.rs` (which also holds that reference implementation)
//! drives both with randomized schedules and asserts identical
//! `(time, seq)` streams.
//!
//! # Packets in flight
//!
//! The queue also owns a [`PacketSlab`]: every packet between the moment
//! a link accepts it and the moment a host receives it sits in one slab
//! slot, written once. Link queues, a transmitter's held packet and the
//! queue's own delivery events carry the 4-byte [`PacketSlot`]; the
//! simulator forwards a slot that reaches a router onward without taking
//! the packet out. The public [`SimEvent::LinkDeliver`] still carries the
//! packet itself: [`EventQueue::schedule`] puts it into the slab and
//! [`EventQueue::pop`] takes it back out.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::{Index, IndexMut};

use cm_util::{Rate, Time};

use crate::link::LinkId;
use crate::packet::Packet;
use crate::sim::NodeId;

/// The events the simulator core understands.
#[derive(Debug)]
pub enum SimEvent {
    /// A packet finished serializing onto `link`; the link should begin
    /// transmitting the next queued packet.
    LinkTxDone {
        /// The transmitting link.
        link: LinkId,
    },
    /// A packet finished propagating across `link` and arrives at the
    /// link's destination node.
    LinkDeliver {
        /// The delivering link.
        link: LinkId,
        /// The arriving packet.
        pkt: Packet,
    },
    /// A bandwidth-schedule step: `link`'s serialization rate changes.
    LinkRateChange {
        /// The link whose rate changes.
        link: LinkId,
        /// The new serialization rate.
        rate: cm_util::Rate,
    },
    /// End of a fault-injected outage window: the link's transmitter
    /// restarts if packets queued while it was down. Idempotent — a link
    /// that is already transmitting (or still inside a later outage
    /// window) ignores it.
    LinkFaultRestart {
        /// The link coming back up.
        link: LinkId,
    },
    /// A timer set by `node` fired.
    Timer {
        /// The owning node.
        node: NodeId,
        /// The node-chosen timer token.
        token: u64,
        /// The timer's slot in the simulator's timer slab.
        slot: u32,
        /// The slot generation at arming time; a stale generation means
        /// the timer was cancelled or superseded.
        gen: u32,
    },
}

/// An event as the queue stores it: a [`SimEvent`] with its ids narrowed
/// to `u32` and a delivery's packet left in the [`PacketSlab`], so that
/// it is 24 bytes instead of a packet's 96.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    LinkTxDone {
        link: u32,
    },
    LinkDeliver {
        link: u32,
        pkt: PacketSlot,
    },
    LinkRateChange {
        link: u32,
        rate: Rate,
    },
    LinkFaultRestart {
        link: u32,
    },
    Timer {
        node: u32,
        slot: u32,
        gen: u32,
        token: u64,
    },
}

impl Event {
    /// The stored form of `event`; a delivery's packet moves into `pkts`.
    #[inline]
    fn stow(event: SimEvent, pkts: &mut PacketSlab) -> Event {
        match event {
            SimEvent::LinkTxDone { link } => Event::LinkTxDone {
                link: link.0 as u32,
            },
            SimEvent::LinkDeliver { link, pkt } => Event::LinkDeliver {
                link: link.0 as u32,
                pkt: pkts.insert(pkt),
            },
            SimEvent::LinkRateChange { link, rate } => Event::LinkRateChange {
                link: link.0 as u32,
                rate,
            },
            SimEvent::LinkFaultRestart { link } => Event::LinkFaultRestart {
                link: link.0 as u32,
            },
            SimEvent::Timer {
                node,
                token,
                slot,
                gen,
            } => Event::Timer {
                node: node.0 as u32,
                slot,
                gen,
                token,
            },
        }
    }

    /// The public form of a stored event; a delivery's packet leaves
    /// `pkts`.
    #[inline]
    fn unstow(self, pkts: &mut PacketSlab) -> SimEvent {
        match self {
            Event::LinkTxDone { link } => SimEvent::LinkTxDone {
                link: LinkId(link as usize),
            },
            Event::LinkDeliver { link, pkt } => SimEvent::LinkDeliver {
                link: LinkId(link as usize),
                pkt: pkts.remove(pkt),
            },
            Event::LinkRateChange { link, rate } => SimEvent::LinkRateChange {
                link: LinkId(link as usize),
                rate,
            },
            Event::LinkFaultRestart { link } => SimEvent::LinkFaultRestart {
                link: LinkId(link as usize),
            },
            Event::Timer {
                node,
                slot,
                gen,
                token,
            } => SimEvent::Timer {
                node: NodeId(node as usize),
                token,
                slot,
                gen,
            },
        }
    }
}

/// A packet's place in a [`PacketSlab`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketSlot(u32);

/// Packets in flight, each written once into a slot that is recycled
/// when the packet leaves (see the module docs). Vacated slots form an
/// intrusive free list, so a warm slab allocates nothing.
pub struct PacketSlab {
    slots: Vec<SlabEntry>,
    free_head: u32,
    len: usize,
}

enum SlabEntry {
    Packet(Packet),
    /// Vacant; holds the next free slot's index (or [`NIL`]).
    Free(u32),
}

impl Default for PacketSlab {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketSlab {
    /// An empty slab.
    pub fn new() -> Self {
        PacketSlab {
            slots: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// Stores `pkt` and returns its slot.
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PacketSlot {
        self.len += 1;
        let idx = self.free_head;
        if idx == NIL {
            self.slots.push(SlabEntry::Packet(pkt));
            return PacketSlot(self.slots.len() as u32 - 1);
        }
        let entry = &mut self.slots[idx as usize];
        let SlabEntry::Free(next) = *entry else {
            unreachable!("free list pointed at a live slot");
        };
        self.free_head = next;
        *entry = SlabEntry::Packet(pkt);
        PacketSlot(idx)
    }

    /// Takes the packet out of `slot`, freeing the slot.
    #[inline]
    pub fn remove(&mut self, slot: PacketSlot) -> Packet {
        let entry = &mut self.slots[slot.0 as usize];
        // Copied once, into the caller's place; `mem::replace` of the
        // whole entry would copy it twice.
        let SlabEntry::Packet(pkt) = entry else {
            unreachable!("packet slot freed twice");
        };
        let pkt = pkt.clone();
        *entry = SlabEntry::Free(self.free_head);
        self.free_head = slot.0;
        self.len -= 1;
        pkt
    }

    /// Drops the packet in `slot`, freeing the slot.
    #[inline]
    pub fn free(&mut self, slot: PacketSlot) {
        debug_assert!(matches!(self.slots[slot.0 as usize], SlabEntry::Packet(_)));
        self.slots[slot.0 as usize] = SlabEntry::Free(self.free_head);
        self.free_head = slot.0;
        self.len -= 1;
    }

    /// Number of packets held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if no packets are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Index<PacketSlot> for PacketSlab {
    type Output = Packet;

    #[inline]
    fn index(&self, slot: PacketSlot) -> &Packet {
        match &self.slots[slot.0 as usize] {
            SlabEntry::Packet(pkt) => pkt,
            SlabEntry::Free(_) => unreachable!("read of a freed packet slot"),
        }
    }
}

impl IndexMut<PacketSlot> for PacketSlab {
    #[inline]
    fn index_mut(&mut self, slot: PacketSlot) -> &mut Packet {
        match &mut self.slots[slot.0 as usize] {
            SlabEntry::Packet(pkt) => pkt,
            SlabEntry::Free(_) => unreachable!("write to a freed packet slot"),
        }
    }
}

/// One queued entry: the sort key plus an index into the event arena.
///
/// Events themselves live in [`EventQueue::arena`], stored once at
/// `schedule` and read once at `pop`, while these 24-byte entries are
/// what flows through the current bucket, sorts and the overflow heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    at: u64,
    seq: u64,
    idx: u32,
}

impl Entry {
    /// Single-compare sort key: time in the high 64 bits, sequence in
    /// the low 64.
    #[inline]
    fn key(&self) -> u128 {
        ((self.at as u128) << 64) | self.seq as u128
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest first.
        other.key().cmp(&self.key())
    }
}

/// Width of one wheel slot: 2^16 ns = 65.536 us.
const SLOT_BITS: u32 = 16;
/// Nanoseconds covered by one slot.
pub const SLOT_NANOS: u64 = 1 << SLOT_BITS;
/// Number of near-wheel slots (must be a power of two).
pub const WHEEL_SLOTS: usize = 512;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// Words in the slot-occupancy bitmap.
const WORDS: usize = WHEEL_SLOTS / 64;
/// Slots gathered per cursor advance (one sort per batch).
const ADVANCE_BATCH: u64 = 16;

#[inline]
fn slot_of(at_nanos: u64) -> u64 {
    at_nanos >> SLOT_BITS
}

/// A deterministic future-event list (see the module docs for the
/// timer-wheel structure).
pub struct EventQueue {
    /// Entries of the slot the cursor points at, sorted ascending by
    /// `(time, seq)`; `cur_pos` is the next entry to pop. Ascending order
    /// means the common case — scheduling later events into the slot
    /// being drained — is an O(1) append, not a front memmove.
    current: Vec<Entry>,
    cur_pos: usize,
    /// Future slots at ring distance 1..WHEEL_SLOTS from the cursor,
    /// each a list threaded through the arena in push order; unsorted
    /// until the cursor reaches them.
    slots: Box<[List]>,
    /// One bit per slot: does it hold any entries?
    occupied: [u64; WORDS],
    /// Absolute slot index currently being drained.
    cursor: u64,
    /// Events at or beyond the wheel horizon (`cursor + WHEEL_SLOTS`).
    overflow: BinaryHeap<Entry>,
    /// Event storage; vacated slots form an intrusive free list headed
    /// by `free_head`.
    arena: Vec<ArenaSlot>,
    free_head: u32,
    /// The packets of pending deliveries and of every link's queue and
    /// transmitter.
    packets: PacketSlab,
    len: usize,
    next_seq: u64,
    /// Sequence number of the event last popped (see
    /// [`EventQueue::current_seq`]).
    current_seq: u64,
}

/// No free arena slot.
const NIL: u32 = u32::MAX;

/// A pending event with its `(time, seq)` key, or a vacant slot
/// (`event` is `None`).
struct ArenaSlot {
    at: u64,
    seq: u64,
    /// Next event in the same wheel slot, next free slot, or [`NIL`].
    next: u32,
    event: Option<Event>,
}

/// A wheel slot: the first and last arena index of its FIFO list, or
/// [`NIL`] twice.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// The entries of the list starting at arena index `idx`, in push order.
fn entries(arena: &[ArenaSlot], mut idx: u32) -> impl Iterator<Item = Entry> + '_ {
    std::iter::from_fn(move || {
        if idx == NIL {
            return None;
        }
        let slot = &arena[idx as usize];
        let entry = Entry {
            at: slot.at,
            seq: slot.seq,
            idx,
        };
        idx = slot.next;
        Some(entry)
    })
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            current: Vec::new(),
            cur_pos: 0,
            slots: vec![EMPTY; WHEEL_SLOTS].into_boxed_slice(),
            occupied: [0; WORDS],
            cursor: 0,
            overflow: BinaryHeap::new(),
            arena: Vec::new(),
            free_head: NIL,
            packets: PacketSlab::new(),
            len: 0,
            next_seq: 0,
            current_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: SimEvent) {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, seq, event);
    }

    /// Takes the next sequence number without scheduling anything: the
    /// caller's place among same-instant events, to be used by a later
    /// [`EventQueue::schedule_reserved`] (or dropped — a number nothing
    /// is scheduled under leaves every other event's order as it was).
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at `at` under a sequence number taken earlier
    /// with [`EventQueue::reserve_seq`], so it pops where an event
    /// scheduled at the reservation would. `at` must not be before the
    /// time of the last popped event (the simulator contract for every
    /// schedule); a number may be used at most once.
    #[inline]
    pub fn schedule_reserved(&mut self, at: Time, seq: u64, event: SimEvent) {
        let event = Event::stow(event, &mut self.packets);
        self.push(at, seq, event);
    }

    /// Schedules the delivery of the packet in `pkt` across `link`.
    #[inline]
    pub(crate) fn deliver(&mut self, at: Time, link: LinkId, pkt: PacketSlot) {
        let seq = self.reserve_seq();
        let link = link.0 as u32;
        self.push(at, seq, Event::LinkDeliver { link, pkt });
    }

    /// [`EventQueue::schedule_reserved`] of an event in its stored form.
    #[inline]
    pub(crate) fn push(&mut self, at: Time, seq: u64, event: Event) {
        debug_assert!(seq < self.next_seq, "sequence number was never reserved");
        self.len += 1;
        let at = at.as_nanos();
        let pending = ArenaSlot {
            at,
            seq,
            next: NIL,
            event: Some(event),
        };
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            let vacant = std::mem::replace(&mut self.arena[idx as usize], pending);
            assert!(vacant.event.is_none(), "free list pointed at a live slot");
            self.free_head = vacant.next;
            idx
        } else {
            self.arena.push(pending);
            self.arena.len() as u32 - 1
        };
        let entry = Entry { at, seq, idx };
        let slot = slot_of(entry.at);
        if slot <= self.cursor {
            // Lands in (or before) the slot being drained: keep the
            // current bucket sorted. Later keys (the overwhelmingly
            // common case) append in O(1).
            let key = entry.key();
            match self.current.last() {
                Some(last) if last.key() > key => {
                    let pos = self.cur_pos
                        + self.current[self.cur_pos..].partition_point(|e| e.key() < key);
                    self.current.insert(pos, entry);
                }
                _ => self.current.push(entry),
            }
        } else if slot < self.cursor + WHEEL_SLOTS as u64 {
            self.link((slot & WHEEL_MASK) as usize, idx);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Removes and returns the earliest event, with its time. A delivery's
    /// packet leaves the slab here.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, SimEvent)> {
        let (at, event) = self.pop_stored()?;
        Some((at, event.unstow(&mut self.packets)))
    }

    /// [`EventQueue::pop`] in the stored form: a delivery's packet stays
    /// in the slab.
    #[inline]
    pub(crate) fn pop_stored(&mut self) -> Option<(Time, Event)> {
        loop {
            if self.cur_pos < self.current.len() {
                let e = self.current[self.cur_pos];
                self.cur_pos += 1;
                if self.cur_pos == self.current.len() {
                    self.current.clear();
                    self.cur_pos = 0;
                }
                self.len -= 1;
                self.current_seq = e.seq;
                let slot = &mut self.arena[e.idx as usize];
                let Some(event) = slot.event.take() else {
                    unreachable!("arena slot vacated early");
                };
                slot.next = self.free_head;
                self.free_head = e.idx;
                return Some((Time::from_nanos(e.at), event));
            }
            if self.len == 0 {
                // Nothing is pending, so nothing numbered so far is.
                self.pass_instant();
                return None;
            }
            self.advance();
        }
    }

    /// The packets in flight: those of pending deliveries and of every
    /// link's queue and transmitter.
    pub fn packets(&self) -> &PacketSlab {
        &self.packets
    }

    /// Mutable access to the packets in flight.
    #[inline]
    pub(crate) fn packets_mut(&mut self) -> &mut PacketSlab {
        &mut self.packets
    }

    /// The sequence number of the event being dispatched (the one last
    /// popped). Among places reserved for the current instant, those
    /// numbered below it have gone by and those above it are still to
    /// come; the event's own number is neither. Once the instant is known
    /// to be over ([`EventQueue::pass_instant`], or a `pop` that found
    /// the queue empty) it is above every number handed out so far.
    #[inline]
    pub fn current_seq(&self) -> u64 {
        self.current_seq
    }

    /// Declares that every event of the current instant has run — what a
    /// driver that stops *between* events knows and the queue does not
    /// (`Simulator::run_until` at its deadline). Every number handed out
    /// so far then counts as gone by; numbers handed out later do not.
    #[inline]
    pub fn pass_instant(&mut self) {
        self.current_seq = self.next_seq;
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        if self.cur_pos < self.current.len() {
            return Some(Time::from_nanos(self.current[self.cur_pos].at));
        }
        if self.len == 0 {
            return None;
        }
        if let Some(abs) = self.next_occupied_slot() {
            let head = self.slots[(abs & WHEEL_MASK) as usize].head;
            return entries(&self.arena, head)
                .map(|e| e.at)
                .min()
                .map(Time::from_nanos);
        }
        self.overflow.peek().map(|e| Time::from_nanos(e.at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Moves the cursor to the next non-empty slot, loading it into the
    /// current bucket (sorted), pulling overflow entries that the
    /// advancing horizon now covers.
    fn advance(&mut self) {
        debug_assert!(self.cur_pos >= self.current.len());
        match self.next_occupied_slot() {
            Some(abs) => {
                // Gather a run of slots into one sorted batch: densely
                // populated simulations pay one advance + one sort per
                // ADVANCE_BATCH slots instead of per slot. Any slot in
                // the gathered window that fills later lands in the
                // current bucket via sorted insert, which stays correct.
                let idx = (abs & WHEEL_MASK) as usize;
                self.current.clear();
                self.cur_pos = 0;
                self.gather(idx);
                // The rest of the window, slots abs+1 .. abs+ADVANCE_BATCH-1,
                // as one mask read from at most two bitmap words (the
                // second when the window crosses a word or the ring's
                // end); only its set bits are visited, nearest first.
                let start = (idx + 1) & WHEEL_MASK as usize;
                let (word, off) = (start >> 6, start & 63);
                let mut window = self.occupied[word] >> off;
                if off > 64 - (ADVANCE_BATCH as usize - 1) {
                    window |= self.occupied[(word + 1) % WORDS] << (64 - off);
                }
                window &= (1 << (ADVANCE_BATCH - 1)) - 1;
                while window != 0 {
                    let idx = (start + window.trailing_zeros() as usize) & WHEEL_MASK as usize;
                    window &= window - 1;
                    self.gather(idx);
                }
                self.cursor = abs + ADVANCE_BATCH - 1;
                self.current.sort_unstable_by_key(Entry::key);
                if !self.overflow.is_empty() {
                    self.migrate_overflow();
                }
                return;
            }
            None => {
                // Wheel empty: everything pending lives in the overflow.
                // Jump the cursor to the earliest far event (if the
                // overflow is somehow empty too, there is nothing to do).
                let Some(head) = self.overflow.peek() else {
                    return;
                };
                self.cursor = slot_of(head.at);
            }
        }
        self.migrate_overflow();
    }

    /// Pulls overflow entries the wheel horizon now covers.
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor + WHEEL_SLOTS as u64;
        let mut resort_current = false;
        while let Some(head) = self.overflow.peek() {
            let slot = slot_of(head.at);
            if slot >= horizon {
                break;
            }
            let Some(entry) = self.overflow.pop() else {
                break;
            };
            if slot <= self.cursor {
                self.current.push(entry);
                resort_current = true;
            } else {
                self.link((slot & WHEEL_MASK) as usize, entry.idx);
            }
        }
        if resort_current {
            self.current.sort_unstable_by_key(Entry::key);
        }
    }

    /// Appends the pending event at arena index `idx` to wheel slot `w`.
    #[inline]
    fn link(&mut self, w: usize, idx: u32) {
        let list = &mut self.slots[w];
        if list.head == NIL {
            list.head = idx;
            self.occupied[w >> 6] |= 1 << (w & 63);
        } else {
            self.arena[list.tail as usize].next = idx;
        }
        list.tail = idx;
    }

    /// Moves wheel slot `w`'s entries, in push order, to the end of the
    /// current bucket.
    fn gather(&mut self, w: usize) {
        let head = std::mem::replace(&mut self.slots[w], EMPTY).head;
        self.occupied[w >> 6] &= !(1 << (w & 63));
        self.current.extend(entries(&self.arena, head));
    }

    /// The absolute index of the nearest occupied slot strictly after the
    /// cursor, within the wheel horizon.
    fn next_occupied_slot(&self) -> Option<u64> {
        let cpos = (self.cursor & WHEEL_MASK) as usize;
        // The cursor's own bit is always clear (its entries sit in the
        // current bucket), so scanning the whole ring starting just after
        // the cursor visits candidates in increasing time order.
        let start = (cpos + 1) & WHEEL_MASK as usize;
        let mut pos = start;
        let mut scanned = 0usize;
        while scanned < WHEEL_SLOTS {
            let word = pos >> 6;
            let off = pos & 63;
            let bits = self.occupied[word] >> off;
            if bits != 0 {
                let idx = pos + bits.trailing_zeros() as usize;
                let d = (idx + WHEEL_SLOTS - cpos) & WHEEL_MASK as usize;
                debug_assert!(d > 0);
                return Some(self.cursor + d as u64);
            }
            scanned += 64 - off;
            pos = (word + 1) * 64 % WHEEL_SLOTS;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: usize, token: u64) -> SimEvent {
        SimEvent::Timer {
            node: NodeId(node),
            token,
            slot: token as u32,
            gen: 0,
        }
    }

    fn token_of(e: SimEvent) -> u64 {
        match e {
            SimEvent::Timer { token, .. } => token,
            _ => unreachable!(),
        }
    }

    /// An arena slot holds an event with its key and wheel link, and
    /// never a packet (deliveries carry a slab slot), which keeps schedule
    /// and pop off the packet's 96 bytes: raise this bound only on
    /// purpose.
    #[test]
    fn arena_slot_is_pinned() {
        assert!(size_of::<ArenaSlot>() <= 48, "{} B", size_of::<ArenaSlot>());
        assert_eq!(size_of::<PacketSlot>(), 4);
    }

    /// The seqs of wheel slot `w`'s list, head first.
    fn list_seqs(q: &EventQueue, w: usize) -> Vec<u64> {
        entries(&q.arena, q.slots[w].head).map(|e| e.seq).collect()
    }

    #[test]
    fn wheel_slot_keeps_push_order() {
        // Later pushes at earlier times: a list must still reach the
        // sort in push order, not reversed (the sort's worst case).
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(0), timer(0, 0));
        let at = 5 * SLOT_NANOS;
        for i in 1..=8u64 {
            q.schedule(Time::from_nanos(at + SLOT_NANOS - i), timer(0, i));
        }
        let w = slot_of(at) as usize;
        assert_eq!(list_seqs(&q, w), (1..=8).collect::<Vec<_>>());
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![0, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert!(q.slots.iter().all(|l| l.head == NIL && l.tail == NIL));
        assert_eq!(q.occupied, [0; WORDS]);
    }

    #[test]
    fn crowded_slot_mixing_migrated_and_linked_entries_pops_in_order() {
        // 40 far events land in one slot beyond the horizon; a near
        // event's advance migrates them into the wheel, and 40 more are
        // then linked into the same slot directly, at interleaved times
        // and some at equal instants. A token equals its event's seq.
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(0), timer(0, 0));
        q.schedule(Time::from_nanos(SLOT_NANOS), timer(0, 1));
        let far = (WHEEL_SLOTS as u64 + 8) * SLOT_NANOS;
        let mut expected = Vec::new();
        for token in 2..42u64 {
            let at = far + (token * 7919) % 50;
            q.schedule(Time::from_nanos(at), timer(0, token));
            expected.push((at, token));
        }
        assert_eq!(q.overflow.len(), 40);
        assert_eq!(token_of(q.pop().unwrap().1), 0);
        assert_eq!(token_of(q.pop().unwrap().1), 1);
        assert!(q.overflow.is_empty(), "advance migrates the far slot");
        // The heap hands the far events over in (time, seq) order.
        expected.sort_unstable();
        let mut list: Vec<u64> = expected.iter().map(|&(_, token)| token).collect();
        for token in 42..82u64 {
            let at = far + (token * 104_729) % 50;
            q.schedule(Time::from_nanos(at), timer(0, token));
            expected.push((at, token));
        }
        list.extend(42..82);
        let w = (slot_of(far) & WHEEL_MASK) as usize;
        assert_eq!(list_seqs(&q, w), list);
        expected.sort_unstable();
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_nanos(), token_of(e)))
            .collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(30), timer(0, 3));
        q.schedule(Time::from_millis(10), timer(0, 1));
        q.schedule(Time::from_millis(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        for i in 0..10 {
            q.schedule(t, timer(0, i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Time::from_secs(1), timer(0, 0));
        assert_eq!(q.peek_time(), Some(Time::from_secs(1)));
        assert_eq!(q.len(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_secs(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(10), timer(0, 10));
        q.schedule(Time::from_millis(5), timer(0, 5));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_millis(5));
        // Schedule an earlier event after popping; it must come out next.
        q.schedule(Time::from_millis(7), timer(0, 7));
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, Time::from_millis(7));
        assert_eq!(token_of(e), 7);
    }

    #[test]
    fn far_events_cross_the_horizon() {
        // Events far beyond the wheel horizon overflow and migrate back.
        let mut q = EventQueue::new();
        q.schedule(Time::from_secs(100), timer(0, 2));
        q.schedule(Time::from_millis(1), timer(0, 1));
        q.schedule(Time::from_secs(200), timer(0, 3));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_nanos(), token_of(e)))
            .collect();
        assert_eq!(
            order,
            vec![(1_000_000, 1), (100_000_000_000, 2), (200_000_000_000, 3)]
        );
    }

    #[test]
    fn same_slot_insert_during_drain_keeps_order() {
        // Two events in one slot; after popping the first, schedule a
        // third into the same slot between them in time.
        let mut q = EventQueue::new();
        q.schedule(Time::from_nanos(100), timer(0, 1));
        q.schedule(Time::from_nanos(3000), timer(0, 3));
        assert_eq!(token_of(q.pop().unwrap().1), 1);
        q.schedule(Time::from_nanos(2000), timer(0, 2));
        assert_eq!(token_of(q.pop().unwrap().1), 2);
        assert_eq!(token_of(q.pop().unwrap().1), 3);
    }

    #[test]
    fn wheel_wraps_across_many_rotations() {
        // March a sparse stream of events across several full wheel
        // rotations to exercise index wrap-around.
        let mut q = EventQueue::new();
        let step = SLOT_NANOS * (WHEEL_SLOTS as u64 / 3);
        for i in 0..32u64 {
            q.schedule(Time::from_nanos(i * step), timer(0, i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
    }
}
