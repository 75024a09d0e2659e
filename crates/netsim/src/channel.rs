//! Dummynet-style emulated paths.
//!
//! The paper's testbed experiments shape traffic with Dummynet "pipes":
//! a bandwidth limit, a fixed delay, a bounded queue, and a random packet
//! loss rate. [`PathSpec`] captures one bidirectional pipe configuration
//! and expands to the pair of [`LinkSpec`]s the topology builder installs.

use cm_util::{Duration, Rate};

use crate::fault::LinkFaults;
use crate::link::LinkSpec;

/// A bidirectional emulated path (Dummynet pipe pair).
#[derive(Clone, Debug)]
pub struct PathSpec {
    /// Bottleneck rate, both directions.
    pub rate: Rate,
    /// Round-trip propagation delay; each direction gets half.
    pub rtt: Duration,
    /// Random loss probability on the forward (data) direction.
    pub loss_forward: f64,
    /// Random loss probability on the reverse (ACK) direction.
    pub loss_reverse: f64,
    /// Drop-tail buffer size in packets, each direction; Dummynet
    /// defaults to 50 slots.
    pub queue_limit: usize,
    /// Fault injection on the forward (data) direction; the reverse
    /// (ACK) direction is always clean.
    pub faults_forward: LinkFaults,
}

impl PathSpec {
    /// A loss-free path.
    pub fn new(rate: Rate, rtt: Duration) -> Self {
        PathSpec {
            rate,
            rtt,
            loss_forward: 0.0,
            loss_reverse: 0.0,
            queue_limit: 50,
            faults_forward: LinkFaults::clean(),
        }
    }

    /// The paper's Figure 3 channel: 10 Mbps, 60 ms RTT, configurable
    /// forward loss.
    pub fn fig3(loss: f64) -> Self {
        PathSpec::new(Rate::from_mbps(10), Duration::from_millis(60)).with_forward_loss(loss)
    }

    /// The paper's LAN configuration: 100 Mbps switched Ethernet with a
    /// negligible RTT (Figures 4-6).
    pub fn lan() -> Self {
        PathSpec::new(Rate::from_mbps(100), Duration::from_micros(100))
    }

    /// A vBNS-like wide-area path (MIT to Utah in the paper, Figures
    /// 7-10): ~70 ms RTT, moderate bottleneck, backbone-router buffering.
    pub fn wide_area() -> Self {
        PathSpec::new(Rate::from_mbps(20), Duration::from_millis(70)).with_queue_limit(120)
    }

    /// Sets forward-direction loss (builder style).
    pub fn with_forward_loss(mut self, loss: f64) -> Self {
        self.loss_forward = loss;
        self
    }

    /// Sets reverse-direction loss (builder style).
    pub fn with_reverse_loss(mut self, loss: f64) -> Self {
        self.loss_reverse = loss;
        self
    }

    /// Sets the drop-tail buffer size in packets for both directions
    /// (builder style).
    pub fn with_queue_limit(mut self, packets: usize) -> Self {
        self.queue_limit = packets;
        self
    }

    /// Sets forward-direction fault injection (builder style). The data
    /// direction is where bursty loss, flaps, and reordering bite.
    pub fn with_forward_faults(mut self, faults: LinkFaults) -> Self {
        self.faults_forward = faults;
        self
    }

    /// The forward-direction link spec.
    pub fn forward(&self) -> LinkSpec {
        LinkSpec {
            rate: self.rate,
            delay: self.rtt / 2,
            queue_limit: self.queue_limit,
            loss_rate: self.loss_forward,
            faults: self.faults_forward.clone(),
        }
    }

    /// The reverse-direction link spec.
    pub fn reverse(&self) -> LinkSpec {
        LinkSpec {
            rate: self.rate,
            delay: self.rtt / 2,
            queue_limit: self.queue_limit,
            loss_rate: self.loss_reverse,
            faults: LinkFaults::clean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_rtt_between_directions() {
        let p = PathSpec::new(Rate::from_mbps(10), Duration::from_millis(60));
        assert_eq!(p.forward().delay, Duration::from_millis(30));
        assert_eq!(p.reverse().delay, Duration::from_millis(30));
    }

    #[test]
    fn loss_is_directional() {
        let p = PathSpec::fig3(0.02);
        assert!((p.forward().loss_rate - 0.02).abs() < 1e-12);
        assert_eq!(p.reverse().loss_rate, 0.0);
    }

    #[test]
    fn preset_shapes() {
        assert_eq!(PathSpec::lan().rate, Rate::from_mbps(100));
        assert_eq!(PathSpec::wide_area().rtt, Duration::from_millis(70));
        assert_eq!(PathSpec::fig3(0.0).rate, Rate::from_mbps(10));
    }
}
