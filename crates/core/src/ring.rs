//! Bounded SPSC message rings for the parallel shard runtime.
//!
//! The [`crate::runtime::ShardRuntime`] front and its worker threads
//! exchange flat `Copy` messages over these rings — one command ring and
//! one reply ring per worker. The discipline (docs/perf.md rule 6) is:
//!
//! * **Bounded capacity, preallocated.** A ring never grows; pushing
//!   into a full ring is *backpressure*, surfaced to the caller (and
//!   counted in [`crate::api::CmStats::ring_stalls`]) rather than
//!   absorbed by an allocation.
//! * **`Copy` payloads only.** The `T: Copy + Send` bound keeps
//!   heap-owning types out of the rings by construction, so a message is
//!   one `memcpy` into a preallocated slot — no per-message allocation,
//!   no destructor handshake across threads.
//! * **Lock-free fast path.** The transport is the standard library's
//!   array-based bounded channel (`std::sync::mpsc::sync_channel`),
//!   whose buffer is allocated once up front and whose `try_send` /
//!   `try_recv` paths are atomic index arithmetic; threads park only
//!   when a side is idle, never while trading messages. Wrapping it —
//!   instead of hand-rolling an `UnsafeCell` ring — keeps the workspace
//!   `#![forbid(unsafe_code)]` everywhere.
//!
//! The producer half counts stalls (pushes that found the ring full) so
//! the runtime can report backpressure honestly instead of hiding it in
//! latency.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::time::Duration as StdDuration;

/// Creates a bounded SPSC ring with `capacity` preallocated slots,
/// returning the two halves. `capacity` is clamped to at least 1.
pub fn ring<T: Copy + Send>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    (RingProducer { tx, stalls: 0 }, RingConsumer { rx })
}

/// Outcome of a non-blocking push.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Push {
    /// The message is in the ring.
    Ok,
    /// The ring is full — backpressure. The message was *not* enqueued;
    /// the producer's stall counter has been bumped.
    Full,
    /// The consumer is gone; the message was dropped.
    Closed,
}

/// Outcome of a pop.
#[derive(Clone, Copy, Debug)]
pub enum Pop<T> {
    /// A message.
    Item(T),
    /// Nothing available (within the timeout, for the blocking variant).
    Empty,
    /// The producer is gone and the ring is drained.
    Closed,
}

/// The sending half of a ring. Owned by exactly one thread.
pub struct RingProducer<T> {
    tx: SyncSender<T>,
    stalls: u64,
}

impl<T: Copy + Send> RingProducer<T> {
    /// Non-blocking push. A [`Push::Full`] result increments the stall
    /// counter; the caller decides how to apply backpressure (spin,
    /// drain the opposite ring, or spill).
    pub fn try_push(&mut self, msg: T) -> Push {
        match self.tx.try_send(msg) {
            Ok(()) => Push::Ok,
            Err(TrySendError::Full(_)) => {
                self.stalls += 1;
                Push::Full
            }
            Err(TrySendError::Disconnected(_)) => Push::Closed,
        }
    }

    /// Blocking push: parks until a slot frees up. Returns `false` if
    /// the consumer is gone. Counts one stall if the fast path was full.
    /// Safe only for callers whose consumer never blocks on *them*
    /// (the runtime's workers never block, so the front may park here).
    pub fn push_blocking(&mut self, msg: T) -> bool {
        match self.tx.try_send(msg) {
            Ok(()) => true,
            Err(TrySendError::Full(m)) => {
                self.stalls += 1;
                self.tx.send(m).is_ok()
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }

    /// Pushes that found the ring full over this producer's lifetime.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

/// The receiving half of a ring. Owned by exactly one thread.
pub struct RingConsumer<T> {
    rx: Receiver<T>,
}

impl<T: Copy + Send> RingConsumer<T> {
    /// Non-blocking pop.
    pub fn try_pop(&mut self) -> Pop<T> {
        match self.rx.try_recv() {
            Ok(v) => Pop::Item(v),
            Err(TryRecvError::Empty) => Pop::Empty,
            Err(TryRecvError::Disconnected) => Pop::Closed,
        }
    }

    /// Pop, parking up to `timeout` if the ring is empty.
    pub fn pop_timeout(&mut self, timeout: StdDuration) -> Pop<T> {
        match self.rx.recv_timeout(timeout) {
            Ok(v) => Pop::Item(v),
            Err(RecvTimeoutError::Timeout) => Pop::Empty,
            Err(RecvTimeoutError::Disconnected) => Pop::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let (mut tx, mut rx) = ring::<u64>(4);
        assert_eq!(tx.try_push(1), Push::Ok);
        assert_eq!(tx.try_push(2), Push::Ok);
        assert!(matches!(rx.try_pop(), Pop::Item(1)));
        assert!(matches!(rx.try_pop(), Pop::Item(2)));
        assert!(matches!(rx.try_pop(), Pop::Empty));
    }

    #[test]
    fn full_ring_counts_stalls_and_rejects() {
        let (mut tx, mut rx) = ring::<u64>(2);
        assert_eq!(tx.try_push(1), Push::Ok);
        assert_eq!(tx.try_push(2), Push::Ok);
        assert_eq!(tx.try_push(3), Push::Full);
        assert_eq!(tx.try_push(4), Push::Full);
        assert_eq!(tx.stalls(), 2);
        // Backpressure, not loss: draining frees the slot and the
        // message that stalled was never silently enqueued.
        assert!(matches!(rx.try_pop(), Pop::Item(1)));
        assert_eq!(tx.try_push(3), Push::Ok);
        assert!(matches!(rx.try_pop(), Pop::Item(2)));
        assert!(matches!(rx.try_pop(), Pop::Item(3)));
    }

    #[test]
    fn dropped_consumer_closes_ring() {
        let (mut tx, rx) = ring::<u64>(2);
        drop(rx);
        assert_eq!(tx.try_push(1), Push::Closed);
        assert!(!tx.push_blocking(1));
    }

    #[test]
    fn dropped_producer_drains_then_closes() {
        let (mut tx, mut rx) = ring::<u64>(2);
        assert_eq!(tx.try_push(7), Push::Ok);
        drop(tx);
        assert!(matches!(rx.try_pop(), Pop::Item(7)));
        assert!(matches!(rx.try_pop(), Pop::Closed));
    }

    #[test]
    fn cross_thread_handoff() {
        let (mut tx, mut rx) = ring::<u64>(8);
        let producer = std::thread::spawn(move || {
            for i in 0..1000u64 {
                assert!(tx.push_blocking(i));
            }
        });
        let mut next = 0u64;
        loop {
            match rx.pop_timeout(StdDuration::from_secs(5)) {
                Pop::Item(v) => {
                    assert_eq!(v, next);
                    next += 1;
                }
                Pop::Empty => panic!("producer stalled"),
                Pop::Closed => break,
            }
        }
        assert_eq!(next, 1000);
        producer.join().unwrap();
    }
}
