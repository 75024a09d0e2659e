//! Clean fixture: every rule's discipline followed; the sweep must
//! report nothing.

/// Flat, Copy ring slot.
// lint:ring-slot
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// Sequence number.
    pub seq: u32,
    /// Payload size.
    pub bytes: u64,
}

/// Preallocated state: the hot path below only mutates in place.
pub struct Hot {
    buf: Vec<u64>,
    head: usize,
    total: u64,
}

impl Hot {
    /// Builds with capacity up front (allocation is legal here).
    pub fn new(cap: usize) -> Self {
        Hot {
            buf: vec![0; cap],
            head: 0,
            total: 0,
        }
    }

    // lint:hot-path:start
    /// In-place ring write: no allocation, no panic source.
    pub fn record(&mut self, x: u64) {
        self.buf[self.head] = x;
        self.head += 1;
        if self.head == self.buf.len() {
            self.head = 0;
        }
        self.total = self.total.wrapping_add(x);
        // lint:allow(R1): fixture — reasoned suppressions are part of the clean corpus
        self.buf.push(0);
        let _ = self.buf.pop();
    }
    // lint:hot-path:end
}

// lint:worker-loop:start
/// Non-blocking worker step.
pub fn step(h: &mut Hot, slot: Slot) -> Option<u64> {
    h.record(slot.bytes);
    h.total.checked_add(slot.seq as u64)
}
// lint:worker-loop:end
