//! Fleet-scale aggregation of per-session adaptation statistics.
//!
//! A single [`crate::AdaptationStats`] describes one session; an
//! experiment (or a production deployment) runs thousands. This module
//! folds per-session statistics into a [`FleetStats`]: dense time-in-level
//! totals plus **log-bucketed histograms** of the per-session quality
//! signals (switch rate, oscillation rate, mean delivered utility), so a
//! fleet's distribution — not just its mean — survives aggregation.
//!
//! The record path follows the flat-state rules of `docs/perf.md`: all
//! bucket storage is preallocated at construction and
//! [`FleetStats::record`] performs **zero heap allocation** (enforced by
//! the counting-allocator test in `tests/no_alloc.rs`), so a telemetry
//! loop can fold sessions in at callback frequency.

use cm_util::Duration;

use crate::stats::AdaptationStats;

/// A histogram over logarithmically spaced buckets.
///
/// Bucket `i` counts values in `[lo * 2^i, lo * 2^(i+1))`; values below
/// `lo` (including zero) land in a dedicated underflow bucket and values
/// past the last bucket land in the final one (so nothing is dropped).
/// All storage is allocated at construction; [`LogHistogram::record`] is
/// allocation-free.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    lo: f64,
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
    sum: f64,
    max: f64,
}

impl LogHistogram {
    /// Creates a histogram whose first bucket starts at `lo` (> 0) with
    /// `buckets` doubling buckets above it.
    ///
    /// # Panics
    ///
    /// Panics if `lo` is not positive and finite or `buckets` is not in
    /// `1..=63` (63 doublings already span anything a rate or counter
    /// histogram can see; the cap keeps every bucket bound exactly
    /// computable as `lo * 2^i` in `u64` shift arithmetic).
    pub fn new(lo: f64, buckets: usize) -> Self {
        assert!(lo > 0.0 && lo.is_finite(), "lo must be positive");
        assert!((1..=63).contains(&buckets), "buckets must be in 1..=63");
        LogHistogram {
            lo,
            counts: vec![0; buckets],
            underflow: 0,
            total: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Records one sample. Non-finite or negative samples are ignored
    /// (they are instrumentation bugs, and a debug assertion fires).
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite() && v >= 0.0, "bad histogram sample {v}");
        if !v.is_finite() || v < 0.0 {
            return;
        }
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
        if v < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((v / self.lo).log2() as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Folds another histogram in. Both must have identical bucket
    /// layouts.
    ///
    /// # Panics
    ///
    /// Panics on a layout mismatch.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.lo.to_bits(), other.lo.to_bits(), "layout mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "layout mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The largest sample recorded.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// An upper-bound estimate of the `p`-th percentile (0-100): the
    /// upper edge of the bucket containing that rank (`lo` for the
    /// underflow bucket). Zero when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0 * self.total as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = self.underflow;
        if rank <= seen {
            return self.lo;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return self.bucket_hi(i);
            }
        }
        self.bucket_hi(self.counts.len() - 1)
    }

    /// Bucket occupancy, underflow first: `(upper_bound, count)` rows in
    /// ascending bound order — the shape the `.dat` emitters plot.
    pub fn rows(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        std::iter::once((self.lo, self.underflow)).chain(
            self.counts
                .iter()
                .enumerate()
                .map(|(i, &c)| (self.bucket_hi(i), c)),
        )
    }

    fn bucket_hi(&self, i: usize) -> f64 {
        // i < 63 is guaranteed by the bucket-count cap in `new`.
        self.lo * (1u64 << (i + 1)) as f64
    }
}

/// Aggregated adaptation quality across a fleet of sessions.
///
/// Construct once with the ladder depth and histogram layout, then
/// [`FleetStats::record`] each session's final [`AdaptationStats`] (or a
/// periodic snapshot). Per-session *rates* (switches per minute,
/// oscillation per minute, mean utility) go into log-bucketed histograms;
/// time-in-level and the raw counters accumulate densely.
#[derive(Clone, Debug)]
pub struct FleetStats {
    sessions: u64,
    switches: u64,
    reversals: u64,
    total_span: Duration,
    total_utility: f64,
    time_in_level: Vec<Duration>,
    /// Distribution of per-session switch rates (switches/minute).
    pub switch_rate: LogHistogram,
    /// Distribution of per-session oscillation rates (reversals/minute).
    pub oscillation: LogHistogram,
    /// Distribution of per-session mean utility (utility/second).
    pub utility: LogHistogram,
}

impl FleetStats {
    /// Default first-bucket edge for the rate histograms: 1/16
    /// switch (or reversal) per minute.
    pub const RATE_LO: f64 = 1.0 / 16.0;
    /// Default first-bucket edge for the utility histogram: 1 utility
    /// unit per second (1 KB/s on the default rate-utility curve).
    pub const UTILITY_LO: f64 = 1.0;
    /// Default bucket count: 20 doublings cover 1/16 to ~65k per minute.
    pub const BUCKETS: usize = 20;

    /// Creates an empty aggregate over `levels` quality levels with the
    /// default histogram layout.
    pub fn new(levels: usize) -> Self {
        FleetStats {
            sessions: 0,
            switches: 0,
            reversals: 0,
            total_span: Duration::ZERO,
            total_utility: 0.0,
            time_in_level: vec![Duration::ZERO; levels],
            switch_rate: LogHistogram::new(Self::RATE_LO, Self::BUCKETS),
            oscillation: LogHistogram::new(Self::RATE_LO, Self::BUCKETS),
            utility: LogHistogram::new(Self::UTILITY_LO, Self::BUCKETS),
        }
    }

    /// Folds one session's statistics in. Allocation-free: sessions with
    /// deeper ladders than this aggregate contribute their excess levels
    /// to the top slot rather than growing the table.
    pub fn record(&mut self, stats: &AdaptationStats) {
        self.sessions += 1;
        self.switches += stats.switches;
        self.reversals += stats.reversals;
        let span = stats.span();
        self.total_span += span;
        self.total_utility += stats.delivered_utility();
        let top = self.time_in_level.len().saturating_sub(1);
        for (i, &d) in stats.time_in_level().iter().enumerate() {
            self.time_in_level[i.min(top)] += d;
        }
        let mins = span.as_secs_f64() / 60.0;
        if mins > 0.0 {
            self.switch_rate.record(stats.switches as f64 / mins);
            self.oscillation.record(stats.oscillation_per_min());
        }
        if !span.is_zero() {
            self.utility.record(stats.mean_utility());
        }
    }

    /// Folds another aggregate in (for sharded collection).
    ///
    /// # Panics
    ///
    /// Panics if the level counts or histogram layouts differ.
    pub fn merge(&mut self, other: &FleetStats) {
        assert_eq!(
            self.time_in_level.len(),
            other.time_in_level.len(),
            "level count mismatch"
        );
        self.sessions += other.sessions;
        self.switches += other.switches;
        self.reversals += other.reversals;
        self.total_span += other.total_span;
        self.total_utility += other.total_utility;
        for (a, &b) in self.time_in_level.iter_mut().zip(&other.time_in_level) {
            *a += b;
        }
        self.switch_rate.merge(&other.switch_rate);
        self.oscillation.merge(&other.oscillation);
        self.utility.merge(&other.utility);
    }

    /// Sessions recorded.
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// Total level switches across the fleet.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Total direction reversals (oscillation events) across the fleet.
    pub fn reversals(&self) -> u64 {
        self.reversals
    }

    /// Fleet-wide switches per session-minute.
    pub fn switches_per_min(&self) -> f64 {
        let mins = self.total_span.as_secs_f64() / 60.0;
        if mins > 0.0 {
            self.switches as f64 / mins
        } else {
            0.0
        }
    }

    /// Fleet-wide reversals per session-minute.
    pub fn oscillation_per_min(&self) -> f64 {
        let mins = self.total_span.as_secs_f64() / 60.0;
        if mins > 0.0 {
            self.reversals as f64 / mins
        } else {
            0.0
        }
    }

    /// Fleet-wide mean utility per session-second.
    pub fn mean_utility(&self) -> f64 {
        let secs = self.total_span.as_secs_f64();
        if secs > 0.0 {
            self.total_utility / secs
        } else {
            0.0
        }
    }

    /// Total time spent at each level across the fleet, lowest first.
    pub fn time_in_level(&self) -> &[Duration] {
        &self.time_in_level
    }

    /// Fraction of total fleet session-time spent at `level`.
    pub fn fraction_in_level(&self, level: usize) -> f64 {
        if self.total_span.is_zero() {
            return 0.0;
        }
        self.time_in_level
            .get(level)
            .map(|d| d.as_secs_f64() / self.total_span.as_secs_f64())
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_util::Time;

    fn session(switch_times: &[(u64, usize)], span_secs: u64) -> AdaptationStats {
        let mut s = AdaptationStats::new(4);
        s.on_observation(Time::ZERO, 0, 1.0);
        for &(t, level) in switch_times {
            s.on_observation(Time::from_secs(t), level, 1.0);
        }
        s.on_observation(
            Time::from_secs(span_secs),
            *switch_times.last().map(|(_, l)| l).unwrap_or(&0),
            1.0,
        );
        s
    }

    #[test]
    fn histogram_buckets_by_doubling() {
        let mut h = LogHistogram::new(1.0, 4);
        for v in [0.0, 0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 100.0] {
            h.record(v);
        }
        // underflow: 0.0, 0.5 | [1,2): 1.0, 1.5 | [2,4): 2.0, 3.9 |
        // [4,8): 4.0 | [8,16) overflow-clamped: 100.0
        let rows: Vec<_> = h.rows().collect();
        assert_eq!(rows[0], (1.0, 2));
        assert_eq!(rows[1], (2.0, 2));
        assert_eq!(rows[2], (4.0, 2));
        assert_eq!(rows[3], (8.0, 1));
        assert_eq!(rows[4], (16.0, 1));
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn histogram_percentile_is_bucket_upper_bound() {
        let mut h = LogHistogram::new(1.0, 8);
        for _ in 0..90 {
            h.record(1.5); // [1,2)
        }
        for _ in 0..10 {
            h.record(100.0); // [64,128)
        }
        assert_eq!(h.percentile(50.0), 2.0);
        assert_eq!(h.percentile(95.0), 128.0);
        assert_eq!(h.mean(), (90.0 * 1.5 + 10.0 * 100.0) / 100.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LogHistogram::new(1.0, 4);
        let mut b = LogHistogram::new(1.0, 4);
        a.record(1.0);
        b.record(1.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let rows: Vec<_> = a.rows().collect();
        assert_eq!(rows[1], (2.0, 2));
        assert_eq!(rows[2], (4.0, 1));
    }

    #[test]
    fn fleet_accumulates_sessions() {
        let mut fleet = FleetStats::new(4);
        // Two switches (up at 10 s, down at 20 s — a reversal would need
        // them within the 5 s window, so none here) over 60 s.
        fleet.record(&session(&[(10, 2), (20, 1)], 60));
        // A flappy session: up/down/up within the reversal window.
        fleet.record(&session(&[(10, 2), (11, 1), (12, 3)], 60));
        assert_eq!(fleet.sessions(), 2);
        assert_eq!(fleet.switches(), 5);
        assert_eq!(fleet.reversals(), 2);
        assert_eq!(fleet.total_span, Duration::from_secs(120));
        // Both sessions held utility 1.0 throughout.
        assert!((fleet.mean_utility() - 1.0).abs() < 1e-9);
        // switch-rate histogram saw 2/min and 3/min.
        assert_eq!(fleet.switch_rate.count(), 2);
        let fractions: f64 = (0..4).map(|i| fleet.fraction_in_level(i)).sum();
        assert!((fractions - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fleet_merge_matches_sequential_record() {
        let a_sessions = [session(&[(10, 2)], 30), session(&[(5, 1), (25, 2)], 40)];
        let b_sessions = [session(&[(1, 3), (2, 0)], 50)];
        let mut all = FleetStats::new(4);
        for s in a_sessions.iter().chain(&b_sessions) {
            all.record(s);
        }
        let mut a = FleetStats::new(4);
        for s in &a_sessions {
            a.record(s);
        }
        let mut b = FleetStats::new(4);
        for s in &b_sessions {
            b.record(s);
        }
        a.merge(&b);
        assert_eq!(a.sessions(), all.sessions());
        assert_eq!(a.switches(), all.switches());
        assert_eq!(a.reversals(), all.reversals());
        assert_eq!(a.total_span, all.total_span);
        assert_eq!(a.switch_rate.count(), all.switch_rate.count());
        assert!((a.mean_utility() - all.mean_utility()).abs() < 1e-12);
    }

    #[test]
    fn deeper_sessions_clamp_to_top_level() {
        let mut fleet = FleetStats::new(2);
        let mut s = AdaptationStats::new(4);
        s.on_observation(Time::ZERO, 3, 1.0);
        s.on_observation(Time::from_secs(10), 3, 1.0);
        fleet.record(&s);
        // Level-3 time lands in the aggregate's top slot (level 1).
        assert_eq!(fleet.time_in_level()[1], Duration::from_secs(10));
    }
}
