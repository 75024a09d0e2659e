//! What one run of one workload yields, before it is turned into
//! named metrics.

use cm_core::api::CmStats;

/// A host-time measurement and the host's speed when it was taken
/// (see [`crate::reference`]).
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub raw: f64,
    pub speed: f64,
}

impl Timed {
    /// The time the same work takes at the reference kernel's nominal
    /// speed: a host running at half speed took twice as long.
    pub fn scaled(&self) -> f64 {
        self.raw * self.speed
    }
}

/// Host time and work of one batch. A batch is the workload's unit of
/// fixed work: flows are set up, packets move, flows are torn down.
#[derive(Clone, Copy, Debug)]
pub struct Batch {
    pub wall_ns: Timed,
    /// Packets moved (see each workload for what counts as one).
    pub pkts: u64,
    /// `open`/`close`/`request`/`notify`/`update`/`query` calls the CMs
    /// served, from `CmStats`.
    pub cm_ops: u64,
}

/// Host-time samples of a run. Every host-time metric is a statistic
/// over these, never whole-run wall time.
#[derive(Default)]
pub struct Samples {
    pub batches: Vec<Batch>,
    /// Host ns per packet, one sample per packet-phase slice.
    pub pkt_ns: Vec<Timed>,
    /// Host ns per flow set up and torn down, one sample per churn
    /// phase (CM streams) or per topology (simulations).
    pub lifecycle_ns: Vec<Timed>,
}

/// Counts read from the layers' public statistics when a batch ends,
/// summed over the run. All of them repeat exactly for a seed.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    // Simulated results.
    pub app_bytes: u64,
    pub sim_ns: u64,
    /// Busy time of the sending hosts' modelled CPUs.
    pub cpu_busy_ns: u64,
    /// Data packets those hosts sent.
    pub pkts_sent: u64,
    // netsim
    pub events: u64,
    pub link_offered: u64,
    pub link_dropped: u64,
    pub link_max_queue_pkts: u64,
    pub timer_slots_peak: u64,
    pub unrouted: u64,
    // transport
    pub tcp_segs_sent: u64,
    pub tcp_segs_rcvd: u64,
    pub tcp_bytes_sent: u64,
    pub tcp_bytes_rtx: u64,
    pub tcp_timeouts: u64,
    pub syscalls: u64,
    pub ioctls: u64,
    pub bytes_copied: u64,
    // core
    pub cm: CmStats,
    pub cm_ticks: u64,
    // libcm
    pub libcm_wakeups: u64,
    pub libcm_ioctls: u64,
    pub libcm_grants: u64,
    // adapt
    pub adapt_switches: u64,
}

impl Counts {
    pub fn cm_ops(&self) -> u64 {
        cm_ops(&self.cm)
    }

    /// Adds what one CM counted between the snapshots `before` and
    /// `after` (a fresh CM's `before` is the default).
    pub fn add_cm(&mut self, after: &CmStats, before: &CmStats) {
        let (c, a, b) = (&mut self.cm, after, before);
        c.opens += a.opens - b.opens;
        c.closes += a.closes - b.closes;
        c.requests += a.requests - b.requests;
        c.grants += a.grants - b.grants;
        c.notifies += a.notifies - b.notifies;
        c.updates += a.updates - b.updates;
        c.queries += a.queries - b.queries;
        c.rate_callbacks += a.rate_callbacks - b.rate_callbacks;
        c.grants_reclaimed += a.grants_reclaimed - b.grants_reclaimed;
        c.tick_mfs_scanned += a.tick_mfs_scanned - b.tick_mfs_scanned;
        c.feedback_rejected += a.feedback_rejected - b.feedback_rejected;
        c.macroflows_created += a.macroflows_created - b.macroflows_created;
        // One shard, so every `tick` visits or skips exactly one.
        self.cm_ticks += ticks(a) - ticks(b);
    }
}

fn ticks(s: &CmStats) -> u64 {
    s.tick_shards_visited + s.tick_shards_skipped
}

pub fn cm_ops(s: &CmStats) -> u64 {
    s.opens + s.closes + s.requests + s.notifies + s.updates + s.queries
}

/// Order-sensitive hash of the deterministic results, for the
/// "same seed, same run" checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn mix_cm(&mut self, s: &CmStats) {
        for v in [
            s.opens,
            s.closes,
            s.requests,
            s.grants,
            s.notifies,
            s.updates,
            s.queries,
            s.rate_callbacks,
            s.grants_reclaimed,
            s.macroflows_created,
            s.tick_mfs_scanned,
            s.feedback_rejected,
        ] {
            self.mix(v);
        }
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one checked operation; `why` is evaluated on failure only.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why);
        }
    }

    /// Counts `n` operations that were attempted and succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failures among operations already counted as
    /// attempted.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.reasons.len() < 8 {
            self.reasons.push(why());
        }
    }
}

/// Everything one measured pass produced.
pub struct Outcome {
    /// The host's speed as last measured; stamped on every sample.
    pub speed: f64,
    pub samples: Samples,
    pub counts: Counts,
    pub tally: Tally,
    /// The deterministic results so far, after each batch.
    pub after_batch: Vec<Fingerprint>,
    /// Web request latencies, ms (`sim_mix`).
    pub web_ms: Vec<f64>,
    /// Streamer time at each layer, ns (`sim_mix`).
    pub level_ns: Vec<u64>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            speed: 1.0,
            samples: Samples::default(),
            counts: Counts::default(),
            tally: Tally::default(),
            after_batch: Vec::new(),
            web_ms: Vec::new(),
            level_ns: Vec::new(),
        }
    }
}

impl Outcome {
    /// `raw` host time, stamped with the host's current speed.
    pub fn timed(&self, raw: f64) -> Timed {
        Timed {
            raw,
            speed: self.speed,
        }
    }

    /// The fingerprint the next batch continues from.
    pub fn fingerprint(&self) -> Fingerprint {
        self.after_batch.last().copied().unwrap_or_default()
    }
}
