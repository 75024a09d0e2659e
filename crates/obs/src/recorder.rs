//! The fixed-capacity ring buffer behind the flight recorder.

use cm_util::Time;

use crate::event::{TraceEvent, TraceRecord};

/// A flight recorder: the last `capacity` CM decisions, in order.
///
/// All storage is allocated by [`FlightRecorder::with_capacity`];
/// [`FlightRecorder::push`] is O(1) and allocation-free, overwriting the
/// oldest record once the ring is full. Sequence numbers are monotone
/// from 0 and never reused, so a dump shows both *what* survived and
/// *how much* history scrolled off (`first_seq > 0`).
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    /// Record storage; grows (within its preallocated capacity) until
    /// full, then is overwritten in place.
    buf: Vec<TraceRecord>,
    /// Index of the oldest record once the ring is full; 0 before that.
    head: usize,
    /// Sequence number the next push will take.
    next_seq: u64,
    /// Fixed ring capacity (`buf` never exceeds it).
    cap: usize,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` records (clamped
    /// up to 1). This is the only allocation the recorder ever makes.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRecorder {
            buf: Vec::with_capacity(cap),
            head: 0,
            next_seq: 0,
            cap,
        }
    }

    /// Records an event, overwriting the oldest record when full.
    /// Returns the sequence number assigned to it.
    #[inline]
    pub fn push(&mut self, at: Time, event: TraceEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let rec = TraceRecord { seq, at, event };
        if self.buf.len() < self.cap {
            // Still filling the preallocated storage: no reallocation.
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
        seq
    }

    /// Number of records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or since the last clear).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The fixed capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever pushed, including those overwritten.
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// The records in chronological (= sequence) order, oldest first.
    /// Allocation-free.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &TraceRecord> + '_ {
        let (wrapped, tail) = self.buf.split_at(self.head);
        tail.iter().chain(wrapped.iter())
    }

    /// The most recent `n` records in chronological order (all of them
    /// if fewer are held). Allocation-free.
    pub fn tail(&self, n: usize) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.iter().skip(self.buf.len().saturating_sub(n))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::GrantIssued {
            flow: i as u32,
            bytes: i,
        }
    }

    #[test]
    fn fills_then_wraps() {
        let mut r = FlightRecorder::with_capacity(4);
        assert!(r.is_empty());
        for i in 0..3 {
            r.push(Time::from_millis(i), ev(i));
        }
        assert_eq!(r.len(), 3);
        let seqs: Vec<u64> = r.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);

        for i in 3..10 {
            r.push(Time::from_millis(i), ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.total_recorded(), 10);
        let seqs: Vec<u64> = r.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9], "ring must keep the newest records");
        let events: Vec<u64> = r
            .iter()
            .map(|t| match t.event {
                TraceEvent::GrantIssued { bytes, .. } => bytes,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(events, [6, 7, 8, 9]);
    }

    #[test]
    fn tail_returns_newest_in_order() {
        let mut r = FlightRecorder::with_capacity(8);
        for i in 0..20 {
            r.push(Time::from_millis(i), ev(i));
        }
        let seqs: Vec<u64> = r.tail(3).map(|t| t.seq).collect();
        assert_eq!(seqs, [17, 18, 19]);
        // Asking for more than is held returns everything.
        let seqs: Vec<u64> = r.tail(100).map(|t| t.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut r = FlightRecorder::with_capacity(0);
        assert_eq!(r.capacity(), 1);
        r.push(Time::ZERO, ev(0));
        r.push(Time::ZERO, ev(1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().seq, 1);
    }

    proptest! {
        /// The wrap-around contract: after pushing `n > capacity`
        /// events, the recorder holds exactly the last `capacity`
        /// events, in order, with consecutive monotone sequence
        /// numbers ending at `n - 1`.
        #[test]
        fn wraparound_keeps_exactly_the_newest(cap in 1usize..64, extra in 0u64..200) {
            let mut r = FlightRecorder::with_capacity(cap);
            let n = cap as u64 + extra;
            for i in 0..n {
                let seq = r.push(Time::from_nanos(i), ev(i));
                prop_assert_eq!(seq, i);
            }
            prop_assert_eq!(r.len(), cap);
            prop_assert_eq!(r.total_recorded(), n);
            let records: Vec<&TraceRecord> = r.iter().collect();
            prop_assert_eq!(records.len(), cap);
            for (j, t) in records.iter().enumerate() {
                let expect = n - cap as u64 + j as u64;
                prop_assert_eq!(t.seq, expect, "seq out of order after wrap");
                prop_assert_eq!(t.at, Time::from_nanos(expect));
                prop_assert_eq!(t.event, ev(expect));
            }
        }
    }
}
