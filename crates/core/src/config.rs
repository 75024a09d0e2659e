//! CM configuration.

use cm_util::Duration;

/// How the CM's state is partitioned into shards.
///
/// The unsharded CM keeps one flow slab, one macroflow slab, and one
/// maintenance scan for the whole host. At the scale the roadmap targets
/// (millions of flows), the destination host — the macroflow's group —
/// *is* the natural sharding key: flows to different destinations share
/// no congestion state, so each group's slabs, free-lists, and
/// notification outbox can live in their own shard, and the maintenance
/// `tick` can skip shards with nothing to do instead of scanning every
/// macroflow on the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardingMode {
    /// One shard for everything — byte-compatible with the historical
    /// unsharded CM (ids and grouping are exactly as before). The
    /// default.
    Single,
    /// One shard per group (destination address), created lazily on the
    /// group's first `open` and kept for the CM's life. At most
    /// `max_shards` shards exist; the groups met after the first
    /// `max_shards` are deterministically hashed onto the existing shards
    /// (sharing slabs, not congestion state).
    ///
    /// `merge` onto a macroflow in another shard is rejected with
    /// [`crate::CmError::CrossShardMerge`]: shards share no slabs. A
    /// flow's own destination and its shard's private macroflows are
    /// always in its shard.
    ByGroup {
        /// Upper bound on the shards a CM creates (clamped to the id
        /// encoding's limit, [`crate::types::MAX_SHARDS`]).
        max_shards: u32,
    },
}

/// Sharding configuration: the partitioning mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardingConfig {
    /// How state is partitioned.
    pub mode: ShardingMode,
}

impl Default for ShardingConfig {
    /// Unsharded — the paper's single-trust-domain CM.
    fn default() -> Self {
        ShardingConfig {
            mode: ShardingMode::Single,
        }
    }
}

impl ShardingConfig {
    /// Convenience: shard by group (destination) with the given cap.
    pub fn by_group(max_shards: u32) -> Self {
        ShardingConfig {
            mode: ShardingMode::ByGroup { max_shards },
        }
    }
}

/// Flight-recorder tracing: every shard embeds a fixed-capacity ring of
/// typed [`cm_obs::TraceEvent`]s.
///
/// Off by default ([`CmConfig::tracing`] is `None`): a disabled tracer
/// is a single null-pointer check on the hot paths and allocates
/// nothing, so the paper-faithful CM is unchanged. Enable it for chaos
/// post-mortems, the `decision_timeline` figure, and debugging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracingConfig {
    /// Ring capacity, in events, of each shard's flight recorder (the
    /// post-mortem keeps the most recent `capacity` decisions).
    pub capacity: usize,
}

impl Default for TracingConfig {
    /// [`cm_obs::DEFAULT_TRACE_CAPACITY`] events per shard.
    fn default() -> Self {
        TracingConfig {
            capacity: cm_obs::DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// Which congestion-control algorithm each macroflow runs.
///
/// The paper's CM uses a TCP-style window AIMD with slow start, with
/// byte counting rather than Linux's ACK counting (§4, Figure 3
/// discussion); the modular controller "encourages experimentation with
/// other non-AIMD schemes", so rate-based and delay-gradient laws are
/// provided as well (see [`crate::controller`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ControllerKind {
    /// Window-based additive-increase/multiplicative-decrease with slow
    /// start. `byte_counting: true` is the CM's behaviour; `false`
    /// reproduces Linux 2.2's per-ACK accounting for the baseline.
    Aimd {
        /// Count acknowledged bytes (CM) instead of ACK arrivals (Linux).
        byte_counting: bool,
    },
    /// AIMD applied directly to a rate estimate; suited to smooth-rate
    /// media flows.
    RateBased,
    /// Delay-gradient control: a trendline filter over the feedback
    /// stream's RTT samples with an overuse/underuse detector and
    /// AIMD-on-delay actuation, in the spirit of modern transport-
    /// feedback bandwidth estimation. Backs off when queueing delay
    /// *grows*, before loss, so it trades peak throughput for a near-
    /// empty bottleneck queue.
    DelayGradient,
}

impl ControllerKind {
    /// Stable label for experiment output and golden-file names.
    pub fn label(self) -> &'static str {
        match self {
            ControllerKind::Aimd {
                byte_counting: true,
            } => "aimd",
            ControllerKind::Aimd {
                byte_counting: false,
            } => "aimd-acks",
            ControllerKind::RateBased => "rate-based",
            ControllerKind::DelayGradient => "delay-gradient",
        }
    }
}

/// Which inter-flow scheduler apportions a macroflow's window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Unweighted round-robin — the implementation the paper ships.
    RoundRobin,
    /// Weighted round-robin (deficit-style), an extension the paper's
    /// scheduler modularity anticipates.
    WeightedRoundRobin,
}

/// Tunable parameters for a [`crate::CongestionManager`].
#[derive(Clone, Copy, Debug)]
pub struct CmConfig {
    /// Default maximum transmission unit granted per `cm_request`; the
    /// Ethernet-path default matches the paper's testbed.
    pub mtu: usize,
    /// Initial congestion window in MTUs. The CM uses 1 (the conservative
    /// RFC 2581 value); Linux 2.2 used 2, the source of the one-RTT
    /// difference visible in Figures 4 and 7.
    pub initial_window_mtus: u32,
    /// How long a send grant may stay unclaimed before the timer-driven
    /// maintenance pass reclaims its window reservation.
    pub grant_timeout: Duration,
    /// Congestion-control algorithm.
    pub controller: ControllerKind,
    /// Inter-flow scheduler.
    pub scheduler: SchedulerKind,
    /// How the CM's state is partitioned into shards (default: one
    /// shard, the paper's single trust domain).
    pub sharding: ShardingConfig,
    /// How long an empty macroflow (no open flows) retains its congestion
    /// state before being discarded.
    pub macroflow_linger: Duration,
    /// Pace grants at the macroflow's sustainable rate (one MTU every
    /// `srtt / (cwnd/mtu)`), instead of releasing the whole window at
    /// once. "The pacing of outgoing data on this connection is
    /// controlled by the CM" (§3.2); pacing is what lets a new
    /// connection reuse a large learned window (Figure 7) without
    /// dumping a window-sized burst into the bottleneck queue.
    pub pacing: bool,
    /// Reap flows whose owner has made no API call at all for this long
    /// (a crashed app that left flows open), returning their slots to
    /// the shard free-lists. `None` (the default) disables reaping —
    /// enabling it makes the maintenance tick scan otherwise-quiet
    /// shards that still hold flows, trading the quiet-shard skip for
    /// leak-proofing, so it is opt-in for chaos and long-lived hosts.
    pub orphan_timeout: Option<Duration>,
    /// Flight-recorder tracing; `None` (the default) compiles every
    /// record call down to a null check and keeps the CM allocation-
    /// and observation-free. Applies CM-wide: per-group config
    /// overrides cannot toggle it, so a dump always covers every shard
    /// or none.
    pub tracing: Option<TracingConfig>,
}

impl Default for CmConfig {
    fn default() -> Self {
        CmConfig {
            mtu: 1460,
            initial_window_mtus: 1,
            grant_timeout: Duration::from_millis(500),
            controller: ControllerKind::Aimd {
                byte_counting: true,
            },
            scheduler: SchedulerKind::RoundRobin,
            sharding: ShardingConfig::default(),
            macroflow_linger: Duration::from_secs(120),
            pacing: true,
            orphan_timeout: None,
            tracing: None,
        }
    }
}

impl CmConfig {
    /// The initial congestion window in bytes.
    pub fn initial_window_bytes(&self) -> u64 {
        self.initial_window_mtus as u64 * self.mtu as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CmConfig::default();
        assert_eq!(c.mtu, 1460);
        assert_eq!(c.initial_window_mtus, 1);
        assert_eq!(
            c.controller,
            ControllerKind::Aimd {
                byte_counting: true
            }
        );
        assert_eq!(c.scheduler, SchedulerKind::RoundRobin);
        assert_eq!(c.initial_window_bytes(), 1460);
    }

    #[test]
    fn default_config_keeps_static_destination_grouping() {
        use crate::types::{Endpoint, FlowKey};
        use crate::CongestionManager;
        use cm_util::Time;
        let mut cm = CongestionManager::new(CmConfig::default());
        // Ports are part of a flow's identity, not of its group.
        let key = FlowKey::new(Endpoint::new(1, 1000), Endpoint::new(9, 80));
        let other = FlowKey::new(Endpoint::new(1, 1001), Endpoint::new(9, 443));
        let elsewhere = FlowKey::new(Endpoint::new(1, 1000), Endpoint::new(10, 80));
        let mf = |cm: &mut CongestionManager, k| {
            let f = cm.open(k, Time::ZERO).unwrap();
            cm.macroflow_of(f).unwrap()
        };
        let (a, b, c) = (mf(&mut cm, key), mf(&mut cm, other), mf(&mut cm, elsewhere));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hardening_defaults() {
        let c = CmConfig::default();
        // Backoff engages only on a streak, so a single reclaim behaves
        // as it would without it.
        assert_eq!(crate::shard::RECLAIM_STREAK, 3);
        // Orphan reaping is opt-in: it trades the quiet-shard skip away.
        assert!(c.orphan_timeout.is_none());
        // Tracing is opt-in: the default CM observes nothing.
        assert!(c.tracing.is_none());
        assert!(TracingConfig::default().capacity > 0);
    }
}
