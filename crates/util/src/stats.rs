//! Statistics helpers for the experiment harness.
//!
//! [`Summary`] accumulates scalar samples (per-request latencies, per-packet
//! costs) and reports mean/min/max/percentiles; [`TimeSeries`] records
//! `(time, value)` pairs for the rate-over-time figures (8, 9, 10) and can
//! re-bin them into fixed intervals the way the paper's plots do.

use serde::{Deserialize, Serialize};

use crate::time::{Duration, Time};

/// An accumulating summary of scalar samples.
///
/// # Examples
///
/// ```
/// use cm_util::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.add(v);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Summary {
    samples: Vec<f64>,
    sum: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample. Non-finite samples are ignored (and counted by
    /// nobody: experiments treat them as instrumentation bugs, and a debug
    /// assertion fires).
    pub fn add(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample {v}");
        if v.is_finite() {
            self.sum += v;
            self.samples.push(v);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns true if no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    /// Smallest sample; +inf when empty.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample; -inf when empty.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The `q`-quantile (`q` in `[0,1]`) by nearest-rank on the sorted
    /// samples; zero when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let q = q.clamp(0.0, 1.0);
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }
}

/// A `(time, value)` series for rate-over-time figures.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(Time, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point. Points should be appended in nondecreasing time
    /// order; out-of-order appends are accepted but re-binning sorts.
    pub fn push(&mut self, t: Time, v: f64) {
        self.points.push((t, v));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns true if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw points.
    pub fn points(&self) -> &[(Time, f64)] {
        &self.points
    }

    /// The final value, or `None` when empty.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Re-bins into fixed `bin`-wide intervals covering `[start, end)`,
    /// averaging the values that fall in each bin. Empty bins carry the
    /// previous bin's value forward (zero before any data), which matches
    /// how a step-plot of "current rate" is read.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero or `end <= start`.
    pub fn rebin(&self, start: Time, end: Time, bin: Duration) -> Vec<(Time, f64)> {
        assert!(!bin.is_zero(), "bin width must be positive");
        assert!(end > start, "empty rebin range");
        let mut pts = self.points.clone();
        pts.sort_by_key(|&(t, _)| t);
        let nbins = end.since(start).as_nanos().div_ceil(bin.as_nanos());
        let mut out = Vec::with_capacity(nbins as usize);
        let mut idx = 0usize;
        let mut carry = 0.0;
        for b in 0..nbins {
            let lo = start + bin * b;
            let hi = start + bin * (b + 1);
            let mut sum = 0.0;
            let mut n = 0usize;
            while idx < pts.len() && pts[idx].0 < hi {
                if pts[idx].0 >= lo {
                    sum += pts[idx].1;
                    n += 1;
                }
                idx += 1;
            }
            let v = if n > 0 { sum / n as f64 } else { carry };
            carry = v;
            out.push((lo, v));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        assert!(s.is_empty());
        s.add(3.0);
        s.add(1.0);
        s.add(2.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn summary_percentiles() {
        let mut s = Summary::new();
        for i in 1..=100 {
            s.add(i as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 100.0);
        let p90 = s.percentile(0.9);
        assert!((89.0..=91.0).contains(&p90));
    }

    #[test]
    fn series_rebin_averages_and_carries() {
        let mut ts = TimeSeries::new();
        ts.push(Time::from_millis(100), 10.0);
        ts.push(Time::from_millis(150), 30.0);
        ts.push(Time::from_millis(2500), 50.0);
        let bins = ts.rebin(Time::ZERO, Time::from_secs(3), Duration::from_secs(1));
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].1, 20.0); // average of 10 and 30
        assert_eq!(bins[1].1, 20.0); // empty bin carries forward
        assert_eq!(bins[2].1, 50.0);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn series_rebin_zero_bin_panics() {
        let ts = TimeSeries::new();
        let _ = ts.rebin(Time::ZERO, Time::from_secs(1), Duration::ZERO);
    }
}
