//! Exponentially-weighted moving averages.
//!
//! The CM smooths round-trip times and loss rates exactly the way TCP's
//! estimator does (Jacobson/Karn): `est = (1-g)*est + g*sample`. The gain
//! is kept as a rational `num/den` so integer state updates stay exact and
//! reproducible; a separate [`Ewma`] over `f64` is provided for quantities
//! that are naturally fractional (loss probability, utilization).

use serde::{Deserialize, Serialize};

use crate::time::Duration;

/// Lower bound on every computed retransmission timeout, TCP's and the
/// CM's alike.
pub const MIN_RTO: Duration = Duration::from_millis(200);
/// Upper bound on every retransmission timeout, backoff included.
pub const MAX_RTO: Duration = Duration::from_secs(120);
/// The retransmission timeout before any RTT sample (RFC 6298's 3 s,
/// which descends from the era of the paper).
pub const FALLBACK_RTO: Duration = Duration::from_secs(3);

/// The retransmission timeout `srtt + 4 * rttvar`, clamped to
/// `[MIN_RTO, MAX_RTO]`.
pub fn rto_of(srtt: Duration, rttvar: Duration) -> Duration {
    Duration::from_nanos(srtt.as_nanos().saturating_add(4 * rttvar.as_nanos()))
        .clamp(MIN_RTO, MAX_RTO)
}

/// An exponentially-weighted moving average over `f64` samples.
///
/// The filter is uninitialized until the first sample, which is adopted
/// verbatim (the standard way TCP seeds `srtt`).
///
/// # Examples
///
/// ```
/// use cm_util::Ewma;
///
/// let mut loss = Ewma::new(0.25);
/// assert!(loss.get().is_none());
/// loss.update(1.0);
/// loss.update(0.0);
/// assert!((loss.get().unwrap() - 0.75).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Ewma {
    gain: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates a filter with the given gain in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is outside `(0, 1]` or not finite.
    pub fn new(gain: f64) -> Self {
        assert!(
            gain.is_finite() && gain > 0.0 && gain <= 1.0,
            "EWMA gain must be in (0, 1]"
        );
        Ewma { gain, value: None }
    }

    /// Feeds one sample into the filter and returns the new estimate.
    pub fn update(&mut self, sample: f64) -> f64 {
        let v = match self.value {
            None => sample,
            Some(prev) => prev + self.gain * (sample - prev),
        };
        self.value = Some(v);
        v
    }

    /// The current estimate, or `None` before any sample.
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// The current estimate, or `default` before any sample.
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Discards all state, returning the filter to uninitialized.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Jacobson-style smoothed RTT estimator with mean deviation, over integer
/// nanoseconds.
///
/// Implements the classic pair of filters from "Congestion Avoidance and
/// Control" as used by both TCP and the CM's per-macroflow estimator:
///
/// ```text
/// err    = sample - srtt
/// srtt  += err / 8
/// rttvar += (|err| - rttvar) / 4
/// rto    = srtt + 4 * rttvar
/// ```
///
/// All state is in nanoseconds, making the computation exact.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct RttEstimator {
    /// Smoothed RTT in nanoseconds; `None` until the first sample.
    srtt_ns: Option<u64>,
    /// Mean deviation in nanoseconds.
    rttvar_ns: u64,
}

impl RttEstimator {
    /// Creates an estimator with no samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one RTT sample.
    pub fn update(&mut self, sample: Duration) {
        let s = sample.as_nanos();
        match self.srtt_ns {
            None => {
                // First sample: srtt = s, rttvar = s/2, per RFC 6298.
                self.srtt_ns = Some(s);
                self.rttvar_ns = s / 2;
            }
            Some(srtt) => {
                let err = s as i64 - srtt as i64;
                let new_srtt = (srtt as i64 + err / 8).max(1) as u64;
                let abs_err = err.unsigned_abs();
                // rttvar += (|err| - rttvar) / 4, computed signed.
                let dv = (abs_err as i64 - self.rttvar_ns as i64) / 4;
                self.rttvar_ns = (self.rttvar_ns as i64 + dv).max(0) as u64;
                self.srtt_ns = Some(new_srtt);
            }
        }
    }

    /// The smoothed RTT, or `None` before any sample.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt_ns.map(Duration::from_nanos)
    }

    /// The RTT mean deviation (zero before any sample).
    pub fn rttvar(&self) -> Duration {
        Duration::from_nanos(self.rttvar_ns)
    }

    /// The retransmission timeout: [`rto_of`] the estimate, or
    /// [`FALLBACK_RTO`] before any sample.
    pub fn rto(&self) -> Duration {
        self.srtt()
            .map_or(FALLBACK_RTO, |srtt| rto_of(srtt, self.rttvar()))
    }

    /// Discards all state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_sample_adopted() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.update(42.0), 42.0);
        assert_eq!(e.get(), Some(42.0));
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.25);
        e.update(0.0);
        for _ in 0..200 {
            e.update(1.0);
        }
        assert!((e.get().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_reset() {
        let mut e = Ewma::new(0.5);
        e.update(10.0);
        e.reset();
        assert!(e.get().is_none());
        assert_eq!(e.get_or(7.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn ewma_bad_gain_panics() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn rtt_first_sample_seeds_var() {
        let mut r = RttEstimator::new();
        r.update(Duration::from_millis(100));
        assert_eq!(r.srtt(), Some(Duration::from_millis(100)));
        assert_eq!(r.rttvar(), Duration::from_millis(50));
    }

    #[test]
    fn rtt_converges() {
        let mut r = RttEstimator::new();
        for _ in 0..500 {
            r.update(Duration::from_millis(60));
        }
        let srtt = r.srtt().unwrap();
        assert!(srtt >= Duration::from_millis(59) && srtt <= Duration::from_millis(61));
        // Variance decays toward zero on constant input.
        assert!(r.rttvar() < Duration::from_millis(1));
    }

    #[test]
    fn rtt_rto_clamping() {
        let mut r = RttEstimator::new();
        assert_eq!(r.rto(), FALLBACK_RTO);
        r.update(Duration::from_micros(100));
        // Tiny RTT clamps up to MIN_RTO, a huge one down to MAX_RTO.
        assert_eq!(r.rto(), MIN_RTO);
        assert_eq!(
            rto_of(Duration::from_secs(100), Duration::from_secs(10)),
            MAX_RTO
        );
    }

    #[test]
    fn rtt_tracks_shift() {
        let mut r = RttEstimator::new();
        for _ in 0..50 {
            r.update(Duration::from_millis(50));
        }
        for _ in 0..200 {
            r.update(Duration::from_millis(150));
        }
        let srtt = r.srtt().unwrap().as_millis();
        assert!((149..=151).contains(&srtt), "srtt={srtt}ms");
    }
}
