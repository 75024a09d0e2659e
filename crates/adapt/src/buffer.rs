//! Buffer/deadline-aware selection: the HAS-style drain-rate model.

use cm_util::{Duration, Ewma, Rate};

use crate::policy::{scale_rate, AdaptationPolicy, Observation, RateLadder};

/// Chooses the quality whose download can finish before the buffer
/// drains.
///
/// The model is the standard network-assisted HTTP-streaming inequality:
/// fetching one segment of `seg_duration` media at level *i* moves
/// `seg_duration * cost_i` bits while the playout buffer drains in real
/// time, so the fetch completes before underrun iff
///
/// ```text
///   seg_duration * cost_i / throughput  <=  buffer
///   ⇔           cost_i  <=  throughput * buffer / seg_duration
/// ```
///
/// The policy applies exactly that budget (with an EWMA'd throughput
/// estimate), plus a panic rule: at or below `low_watermark` of buffer it
/// goes straight to the lowest level. A deadline-bounded one-shot
/// download (e.g. an adaptive web response) is the same model with
/// `buffer` = the response deadline and `seg_duration` = 1 s, making the
/// budget `throughput * deadline` — "the biggest variant deliverable in
/// time".
#[derive(Clone, Debug)]
pub struct BufferPolicy {
    ladder: RateLadder,
    seg_duration: Duration,
    low_watermark: Duration,
    smoothed: Ewma,
}

impl BufferPolicy {
    /// Creates a buffer-aware policy.
    ///
    /// # Panics
    ///
    /// Panics if `seg_duration` is zero.
    pub fn new(
        ladder: RateLadder,
        seg_duration: Duration,
        low_watermark: Duration,
        ewma_gain: f64,
    ) -> Self {
        assert!(!seg_duration.is_zero(), "seg_duration must be positive");
        BufferPolicy {
            ladder,
            seg_duration,
            low_watermark,
            smoothed: Ewma::new(ewma_gain),
        }
    }

    /// A deadline-download configuration: budget = throughput × the
    /// observation's `buffer` field (interpreted as the deadline), no
    /// panic watermark, no smoothing memory across requests.
    pub fn deadline(ladder: RateLadder) -> Self {
        BufferPolicy::new(ladder, Duration::from_secs(1), Duration::ZERO, 1.0)
    }
}

impl AdaptationPolicy for BufferPolicy {
    fn ladder(&self) -> &RateLadder {
        &self.ladder
    }

    fn decide(&mut self, obs: &Observation) -> usize {
        let est = self.smoothed.update(obs.rate.as_bps() as f64);
        if obs.buffer <= self.low_watermark {
            // Underrun imminent: nothing but the cheapest level is safe.
            return 0;
        }
        // budget = throughput * buffer / seg_duration, in exact ns ratio.
        let ratio = obs.buffer.as_nanos() as f64 / self.seg_duration.as_nanos() as f64;
        let budget = scale_rate(Rate::from_bps(est as u64), ratio);
        self.ladder.highest_within(budget)
    }

    fn name(&self) -> &'static str {
        "buffer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_util::Time;

    fn ladder() -> RateLadder {
        RateLadder::new(vec![
            Rate::from_kbps(500),
            Rate::from_kbps(1000),
            Rate::from_kbps(2000),
            Rate::from_kbps(4000),
        ])
    }

    fn obs(rate_kbps: u64, buffer: Duration) -> Observation {
        Observation::rate_only(Time::from_secs(1), Rate::from_kbps(rate_kbps)).with_buffer(buffer)
    }

    #[test]
    fn deep_buffer_affords_above_line_rate() {
        // 4 s buffered, 2 s segments: budget is twice the throughput.
        let mut p = BufferPolicy::new(
            ladder(),
            Duration::from_secs(2),
            Duration::from_millis(500),
            1.0,
        );
        assert_eq!(p.decide(&obs(2100, Duration::from_secs(4))), 3);
    }

    #[test]
    fn shallow_buffer_forces_conservative_choice() {
        // 1 s buffered, 2 s segments: budget is half the throughput.
        let mut p = BufferPolicy::new(
            ladder(),
            Duration::from_secs(2),
            Duration::from_millis(500),
            1.0,
        );
        assert_eq!(p.decide(&obs(2100, Duration::from_secs(1))), 1);
    }

    #[test]
    fn low_watermark_panics_to_floor() {
        let mut p = BufferPolicy::new(
            ladder(),
            Duration::from_secs(2),
            Duration::from_millis(500),
            1.0,
        );
        p.decide(&obs(9000, Duration::from_secs(4)));
        assert_eq!(p.decide(&obs(9000, Duration::from_millis(400))), 0);
    }

    #[test]
    fn deadline_mode_budget_is_rate_times_deadline() {
        let mut p = BufferPolicy::deadline(ladder());
        // 1 Mbps with a 2.5 s deadline: 2.5 Mb budget → level 2 (2000).
        assert_eq!(p.decide(&obs(1000, Duration::from_millis(2500))), 2);
        // 250 ms deadline: 250 kb budget → floor.
        assert_eq!(p.decide(&obs(1000, Duration::from_millis(250))), 0);
    }
}
