//! Per-shard metrics: log-bucketed histograms of the CM's steady-state
//! distributions.
//!
//! Counters say *how many* grants were issued; these histograms say how
//! long requests waited for them, how regularly feedback arrived, and
//! where the congestion windows sat — the distributions that explain a
//! figure. Storage reuses [`cm_adapt::fleet::LogHistogram`] so bucket
//! layouts, merge semantics, and `.dat` emission come for free.

use cm_adapt::fleet::LogHistogram;
use cm_util::Duration;

/// First grant-latency / feedback-gap bucket, in seconds (1 µs).
const TIME_LO: f64 = 1e-6;
/// Doubling buckets over `TIME_LO`: 40 spans 1 µs to ~1.1 × 10⁶ s.
const TIME_BUCKETS: usize = 40;
/// First window-size bucket, in bytes.
const WINDOW_LO: f64 = 256.0;
/// Doubling buckets over `WINDOW_LO`: 32 spans 256 B to ~1 TiB.
const WINDOW_BUCKETS: usize = 32;

/// Histograms of a shard's decision distributions.
///
/// Every record path is O(1) and allocation-free (bucket storage is
/// preallocated by [`MetricsRegistry::new`]); the only allocating
/// operations are construction and [`MetricsRegistry::reset`], both of
/// which run off the hot path. Registries from different shards share
/// one fixed bucket layout, so [`MetricsRegistry::merge`] never panics.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    /// Request-to-grant latency, in seconds.
    grant_latency: LogHistogram,
    /// Gap between consecutive accepted feedback reports from a flow,
    /// in seconds.
    feedback_gap: LogHistogram,
    /// Congestion-window size after each accepted feedback report, in
    /// bytes.
    window: LogHistogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry (the only allocation it makes).
    pub fn new() -> Self {
        MetricsRegistry {
            grant_latency: LogHistogram::new(TIME_LO, TIME_BUCKETS),
            feedback_gap: LogHistogram::new(TIME_LO, TIME_BUCKETS),
            window: LogHistogram::new(WINDOW_LO, WINDOW_BUCKETS),
        }
    }

    /// Records how long a request waited before its grant was issued.
    #[inline]
    pub fn record_grant_latency(&mut self, waited: Duration) {
        self.grant_latency.record(waited.as_secs_f64());
    }

    /// Records the gap since the previous accepted feedback report
    /// from the same flow.
    #[inline]
    pub fn record_feedback_gap(&mut self, gap: Duration) {
        self.feedback_gap.record(gap.as_secs_f64());
    }

    /// Records a congestion-window size, in bytes.
    #[inline]
    pub fn record_window(&mut self, cwnd: u64) {
        self.window.record(cwnd as f64);
    }

    /// The grant-latency histogram (seconds).
    pub fn grant_latency(&self) -> &LogHistogram {
        &self.grant_latency
    }

    /// The feedback inter-arrival histogram (seconds).
    pub fn feedback_gap(&self) -> &LogHistogram {
        &self.feedback_gap
    }

    /// The congestion-window histogram (bytes).
    pub fn window(&self) -> &LogHistogram {
        &self.window
    }

    /// Folds another registry in (e.g. per-shard registries into a
    /// CM-wide aggregate). Layouts are fixed at construction, so this
    /// cannot mismatch.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.grant_latency.merge(&other.grant_latency);
        self.feedback_gap.merge(&other.feedback_gap);
        self.window.merge(&other.window);
    }

    /// Condenses the registry into plain-value summaries without
    /// allocating (each summary is a handful of counter reads and one
    /// O(buckets) percentile walk).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            grant_latency: HistSummary::of(&self.grant_latency),
            feedback_gap: HistSummary::of(&self.feedback_gap),
            window: HistSummary::of(&self.window),
        }
    }

    /// Discards all samples, keeping the layout. Allocates (fresh
    /// bucket storage); used only on the cold shard-recycle path.
    pub fn reset(&mut self) {
        *self = MetricsRegistry::new();
    }
}

/// Plain-value summary of one histogram, as captured by
/// [`MetricsRegistry::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample (0 when empty).
    pub mean: f64,
    /// Median upper-bound estimate.
    pub p50: f64,
    /// 99th-percentile upper-bound estimate.
    pub p99: f64,
    /// Largest sample recorded.
    pub max: f64,
}

impl HistSummary {
    fn of(h: &LogHistogram) -> Self {
        HistSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p99: h.percentile(99.0),
            max: h.max(),
        }
    }
}

/// One shard's (or the whole CM's) metrics, condensed to plain values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Request-to-grant latency, in seconds.
    pub grant_latency: HistSummary,
    /// Accepted-feedback inter-arrival gap, in seconds.
    pub feedback_gap: HistSummary,
    /// Congestion-window size, in bytes.
    pub window: HistSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        let mut m = MetricsRegistry::new();
        m.record_grant_latency(Duration::from_millis(2));
        m.record_grant_latency(Duration::ZERO); // immediate grant: underflow bucket
        m.record_feedback_gap(Duration::from_millis(40));
        m.record_window(14_600);
        let s = m.snapshot();
        assert_eq!(s.grant_latency.count, 2);
        assert!(s.grant_latency.max >= 2e-3);
        assert_eq!(s.feedback_gap.count, 1);
        assert_eq!(s.window.count, 1);
        assert!(s.window.p99 >= 14_600.0);
    }

    #[test]
    fn merge_folds_shard_registries() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.record_window(1460);
        b.record_window(2920);
        b.record_grant_latency(Duration::from_micros(500));
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.window.count, 2);
        assert_eq!(s.grant_latency.count, 1);
        assert!((s.window.mean - (1460.0 + 2920.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn reset_discards_samples() {
        let mut m = MetricsRegistry::new();
        m.record_window(1460);
        m.reset();
        assert_eq!(m.snapshot().window.count, 0);
        // Layout survives a reset: merging a fresh registry still works.
        m.merge(&MetricsRegistry::new());
    }
}
