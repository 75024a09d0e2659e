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
    /// Packets dropped by the buffer discipline (overflow or RED).
    pub dropped_queue: u64,
    /// Packets CE-marked by RED.
    pub marked: u64,
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

    /// Fraction of offered packets dropped; zero when nothing was offered.
    pub fn drop_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_fraction_handles_empty() {
        let s = LinkStats::default();
        assert_eq!(s.drop_fraction(), 0.0);
    }

    #[test]
    fn drop_fraction_sums_causes() {
        let s = LinkStats {
            offered: 100,
            dropped_random: 10,
            dropped_queue: 15,
            ..Default::default()
        };
        assert_eq!(s.dropped(), 25);
        assert!((s.drop_fraction() - 0.25).abs() < 1e-12);
    }
}
