//! Trace instrumentation: per-link counters.
//!
//! Counters are always on (they are a handful of integer increments).

/// Cumulative counters for one link.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Packets offered to the link (before loss and queueing).
    pub offered: u64,
    /// Packets accepted into the buffer.
    pub enqueued: u64,
    /// Packets dropped by the Bernoulli loss stage (Dummynet `plr`).
    pub dropped_random: u64,
    /// Packets dropped by the Gilbert–Elliott burst-loss stage.
    pub dropped_burst: u64,
    /// Packets dropped by the full drop-tail buffer.
    pub dropped_queue: u64,
    /// Packets fully serialized onto the wire.
    pub transmitted: u64,
    /// Bytes fully serialized onto the wire.
    pub bytes_transmitted: u64,
    /// High-water mark of the buffer, in packets.
    pub max_queue_pkts: usize,
    /// Packets duplicated by fault injection.
    pub duplicated: u64,
    /// Packets held back (reordered) by fault injection.
    pub reordered: u64,
    /// Delay spikes injected.
    pub delay_spikes: u64,
}

impl LinkStats {
    /// Counts one packet of `size` bytes as fully serialized.
    pub(crate) fn count_transmitted(&mut self, size: usize) {
        self.transmitted += 1;
        self.bytes_transmitted += size as u64;
    }

    /// Total drops from any cause.
    pub fn dropped(&self) -> u64 {
        self.dropped_random + self.dropped_burst + self.dropped_queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A drop fraction is `dropped()` over `offered`; these pin the numerator.
    #[test]
    fn drop_fraction_handles_empty() {
        let s = LinkStats::default();
        assert_eq!(s.offered, 0);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn drop_fraction_sums_causes() {
        let s = LinkStats {
            offered: 100,
            dropped_random: 10,
            dropped_burst: 5,
            dropped_queue: 15,
            ..Default::default()
        };
        assert_eq!(s.dropped(), 30);
    }
}
