//! Trace instrumentation: per-link counters and sampled time series.
//!
//! Counters are always on (they are a handful of integer increments);
//! per-packet event logs and queue-depth sampling are opt-in because the
//! long transfers in Figures 4 and 5 move millions of packets.

use cm_util::{Time, TimeSeries};

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

/// A sampling recorder for scalar signals over simulated time (queue
/// depth, rates, cwnd), shared by experiments.
#[derive(Debug, Default)]
pub struct Sampler {
    series: TimeSeries,
    enabled: bool,
}

impl Sampler {
    /// Creates a disabled sampler; call [`Sampler::enable`] to record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Records a point if enabled.
    pub fn record(&mut self, t: Time, v: f64) {
        if self.enabled {
            self.series.push(t, v);
        }
    }

    /// The recorded series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consumes the sampler, returning the series.
    pub fn into_series(self) -> TimeSeries {
        self.series
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

    #[test]
    fn sampler_disabled_by_default() {
        let mut s = Sampler::new();
        s.record(Time::ZERO, 1.0);
        assert!(s.series().is_empty());
        s.enable();
        s.record(Time::from_secs(1), 2.0);
        assert_eq!(s.series().len(), 1);
        assert_eq!(s.into_series().last(), Some(2.0));
    }
}
