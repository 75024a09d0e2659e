//! The adaptation figures' cells: one deterministic simulation each.
//!
//! Every cell is an adaptive sender over a time-varying bottleneck built
//! from the cell's [`BandwidthSchedule`], and returns its per-session
//! [`AdaptationStats`]. The layered cells additionally record a *quality
//! track* — the CM-reported rate and the selected level at every sample
//! instant — and per-phase summaries keyed to the schedule's
//! piecewise-constant segments (via [`BandwidthSchedule::phases`]). The
//! figures in [`crate::builtin`] call the cells in plain loops.

use cm_adapt::{AdaptationStats, Engine, LadderConfig, LadderPolicy, RateLadder, UtilityPolicy};
use cm_apps::ack_clients::{AckReceiver, FeedbackPolicy};
use cm_apps::layered::{AdaptMode, LayeredStreamer};
use cm_apps::vat::{DropPolicy, VatAudio};
use cm_core::config::{CmConfig, ControllerKind, SchedulerKind};
use cm_netsim::channel::PathSpec;
use cm_netsim::schedule::BandwidthSchedule;
use cm_netsim::topology::Topology;
use cm_transport::host::{Host, HostConfig};
use cm_util::{Duration, Rate, Time};

/// Which adaptation policy a layered cell drives: the policy axis of the
/// quality/oscillation comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdaptPolicyKind {
    /// Hysteresis-free ladder (the paper's Figure 8/9 behaviour).
    LadderImmediate,
    /// Ladder with headroom and dwell damping.
    LadderDamped,
    /// EWMA'd utility argmax.
    Utility,
}

impl AdaptPolicyKind {
    /// Every shipped policy kind, in policy-axis order.
    pub const ALL: [AdaptPolicyKind; 3] = [
        AdaptPolicyKind::LadderImmediate,
        AdaptPolicyKind::LadderDamped,
        AdaptPolicyKind::Utility,
    ];

    /// Builds an engine for this policy over the layered streamer's
    /// default four-layer ladder.
    pub fn engine(self) -> Engine {
        let ladder = RateLadder::new(LayeredStreamer::default_layers());
        match self {
            AdaptPolicyKind::LadderImmediate => {
                Engine::new(Box::new(LadderPolicy::immediate(ladder)))
            }
            AdaptPolicyKind::LadderDamped => {
                Engine::new(Box::new(LadderPolicy::new(ladder, LadderConfig::damped())))
            }
            AdaptPolicyKind::Utility => Engine::new(Box::new(UtilityPolicy::log_utility(
                ladder, 0.25, 0.95, 0.1,
            ))),
        }
    }

    /// Stable label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            AdaptPolicyKind::LadderImmediate => "immediate",
            AdaptPolicyKind::LadderDamped => "damped",
            AdaptPolicyKind::Utility => "utility",
        }
    }
}

/// One point of a cell's quality track.
#[derive(Clone, Copy, Debug)]
pub struct QualitySample {
    /// Sample instant, seconds.
    pub t_secs: f64,
    /// The CM-reported sustainable rate at that instant, KB/s.
    pub cm_rate_kbps: f64,
    /// The level the policy held after absorbing this sample.
    pub level: usize,
}

/// Mean behaviour over one schedule phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSummary {
    /// Phase start, seconds.
    pub start_secs: f64,
    /// Phase end, seconds.
    pub end_secs: f64,
    /// The scheduled link rate in KB/s (`None` before the first step).
    pub sched_rate_kbps: Option<f64>,
    /// Mean selected level over the phase's samples.
    pub mean_level: f64,
    /// Mean CM-reported rate over the phase's samples, KB/s.
    pub mean_cm_rate_kbps: f64,
}

/// The measurements one cell produces.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Name of the schedule the cell ran against.
    pub schedule: &'static str,
    /// Policy label (`"vat"` for the vat app's fixed policy).
    pub policy: &'static str,
    /// Controller label.
    pub controller: &'static str,
    /// The cell's seed.
    pub seed: u64,
    /// Bytes the receiver actually got.
    pub delivered: u64,
    /// The session's full adaptation statistics.
    pub stats: AdaptationStats,
    /// CM rate + level over time (layered cells; empty for vat).
    pub track: Vec<QualitySample>,
    /// Per-schedule-phase summary (layered cells; empty for vat).
    pub phases: Vec<PhaseSummary>,
    /// A secondary per-flow track for cells running more than one
    /// application — the co-scheduled web flow's CM-rate samples
    /// (`level` is always 0 there). Empty otherwise.
    pub aux_track: Vec<QualitySample>,
    /// App-specific scalars (`name`, value) — e.g. vat delivery
    /// fraction and mean frame age, or the co-scheduling share
    /// accuracy.
    pub extra: Vec<(&'static str, f64)>,
}

/// The physical link rate a schedule requires: its peak (the schedule's
/// first step applies immediately and overrides the `LinkSpec` rate),
/// floored at `floor` for schedules that never reach it.
fn base_rate(schedule: &BandwidthSchedule, floor: Rate) -> Rate {
    schedule
        .steps()
        .iter()
        .map(|&(_, r)| r)
        .fold(floor, Rate::max)
}

/// Runs one layered-streamer cell: the ALF-mode streamer adapting via
/// `policy` against `schedule` (reported as `name`) on a 40 ms-RTT path,
/// the CM running `controller`.
pub fn layered_cell(
    name: &'static str,
    schedule: &BandwidthSchedule,
    policy: AdaptPolicyKind,
    controller: ControllerKind,
    secs: u64,
    seed: u64,
) -> CellOutcome {
    let stop = Time::from_secs(secs);
    let cm = CmConfig {
        controller,
        ..Default::default()
    };
    let host_cfg = HostConfig {
        cm,
        ..Default::default()
    };
    let mut topo = Topology::new(seed);
    let mut rx_host = Host::new(host_cfg.clone());
    let rx_app = rx_host.add_app(Box::new(AckReceiver::new(9000, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx_host));
    let rx_addr = topo.sim().addr_of(rx_id);

    let mut tx_host = Host::new(host_cfg);
    let tx_app = tx_host.add_app(Box::new(LayeredStreamer::with_engine(
        rx_addr,
        9000,
        AdaptMode::Alf,
        stop,
        policy.engine(),
    )));
    let tx_id = topo.add_host(Box::new(tx_host));

    let base = base_rate(schedule, Rate::from_mbps(20));
    let d = topo.emulated_path(
        tx_id,
        rx_id,
        &PathSpec::new(base, Duration::from_millis(40)),
    );
    topo.schedule_link(d.forward, schedule);
    let mut sim = topo.build();
    sim.run_until(stop + Duration::from_secs(1));

    let tx = sim
        .node_ref::<Host>(tx_id)
        .app_ref::<LayeredStreamer>(tx_app);
    let rx = sim.node_ref::<Host>(rx_id).app_ref::<AckReceiver>(rx_app);

    let track = quality_track(&tx.cm_rate, &tx.layer_changes);
    let phases = phase_summaries(schedule, stop, &track);

    CellOutcome {
        schedule: name,
        policy: policy.label(),
        controller: controller.label(),
        seed,
        delivered: rx.bytes,
        stats: tx.adaptation_stats().clone(),
        track,
        phases,
        aux_track: Vec::new(),
        extra: Vec::new(),
    }
}

/// Reconstructs a quality track: the level in force after each CM rate
/// sample. In ALF mode the streamer adapts on exactly the samples it
/// records, and a layer change lands at the same instant as the sample
/// that caused it.
fn quality_track(
    cm_rate: &cm_util::TimeSeries,
    layer_changes: &[(Time, usize)],
) -> Vec<QualitySample> {
    let mut track = Vec::with_capacity(cm_rate.len());
    let mut level = 0usize;
    let mut change_idx = 0usize;
    for &(t, rate_kbps) in cm_rate.points() {
        while change_idx < layer_changes.len() && layer_changes[change_idx].0 <= t {
            level = layer_changes[change_idx].1;
            change_idx += 1;
        }
        track.push(QualitySample {
            t_secs: t.as_secs_f64(),
            cm_rate_kbps: rate_kbps,
            level,
        });
    }
    track
}

/// Scheduler weight of the web flow in co-scheduling cells.
const CO_SCHED_WEB_WEIGHT: u32 = 1;
/// Scheduler weight of the streamer flow in co-scheduling cells.
const CO_SCHED_STREAM_WEIGHT: u32 = 3;

/// Runs one §3.5 co-scheduling cell: a weighted web transfer and a
/// layered streamer from one host to one destination, sharing a single
/// macroflow under the weighted round-robin scheduler, over a
/// time-varying bottleneck. Reports the streamer's quality track, the
/// web flow's rate track (`aux_track`), and steady-state share accuracy
/// against the configured weights.
pub(crate) fn co_sched_cell(
    name: &'static str,
    schedule: &BandwidthSchedule,
    controller: ControllerKind,
    secs: u64,
    seed: u64,
) -> CellOutcome {
    let stop = Time::from_secs(secs);
    let cm = CmConfig {
        controller,
        scheduler: SchedulerKind::WeightedRoundRobin,
        ..Default::default()
    };
    let host_cfg = HostConfig {
        cm,
        ..Default::default()
    };
    let mut topo = Topology::new(seed);
    let mut rx_host = Host::new(HostConfig::default());
    let stream_rx = rx_host.add_app(Box::new(AckReceiver::new(9000, FeedbackPolicy::PerPacket)));
    let web_rx = rx_host.add_app(Box::new(AckReceiver::new(9001, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx_host));
    let rx_addr = topo.sim().addr_of(rx_id);

    let mut tx_host = Host::new(host_cfg);
    let mut streamer = LayeredStreamer::new(rx_addr, 9000, AdaptMode::Alf, stop);
    streamer.weight = CO_SCHED_STREAM_WEIGHT;
    let stream_app = tx_host.add_app(Box::new(streamer));
    // The web transfer is a one-level ALF streamer: continuously
    // backlogged, it sends on every grant and never switches level.
    let one_level = LadderPolicy::immediate(RateLadder::new(vec![Rate::from_mbps(8)]));
    let mut web = LayeredStreamer::with_engine(
        rx_addr,
        9001,
        AdaptMode::Alf,
        stop,
        Engine::new(Box::new(one_level)),
    );
    web.weight = CO_SCHED_WEB_WEIGHT;
    let web_app = tx_host.add_app(Box::new(web));
    let tx_id = topo.add_host(Box::new(tx_host));

    let base = base_rate(schedule, Rate::from_mbps(8));
    let d = topo.emulated_path(
        tx_id,
        rx_id,
        &PathSpec::new(base, Duration::from_millis(40)),
    );
    topo.schedule_link(d.forward, schedule);
    let mut sim = topo.build();
    sim.run_until(stop + Duration::from_secs(1));

    let tx_host_ref = sim.node_ref::<Host>(tx_id);
    let streamer = tx_host_ref.app_ref::<LayeredStreamer>(stream_app);
    let web = tx_host_ref.app_ref::<LayeredStreamer>(web_app);
    let rx = sim.node_ref::<Host>(rx_id);
    let delivered =
        rx.app_ref::<AckReceiver>(stream_rx).bytes + rx.app_ref::<AckReceiver>(web_rx).bytes;

    let track = quality_track(&streamer.cm_rate, &streamer.layer_changes);
    let aux_track = web
        .cm_rate
        .points()
        .iter()
        .map(|&(t, rate_kbps)| QualitySample {
            t_secs: t.as_secs_f64(),
            cm_rate_kbps: rate_kbps,
            level: 0,
        })
        .collect();
    let phases = phase_summaries(schedule, stop, &track);

    // Steady-state share accuracy: both flows stay backlogged (the ALF
    // pipelines never drain), so the scheduler alone decides the byte
    // split. Skip the slow-start warm-up, then compare transmitted
    // bytes per flow against the configured weight fractions.
    let window_start = Time::from_secs(secs / 5);
    let in_window = |events: &[(Time, u32)]| -> f64 {
        events
            .iter()
            .filter(|&&(t, _)| t >= window_start && t < stop)
            .map(|&(_, b)| b as u64)
            .sum::<u64>() as f64
    };
    let wb = in_window(&web.tx_events);
    let sb = in_window(&streamer.tx_events);
    let total = wb + sb;
    let (web_share, stream_share) = if total > 0.0 {
        (wb / total, sb / total)
    } else {
        (0.0, 0.0)
    };
    let wsum = (CO_SCHED_WEB_WEIGHT + CO_SCHED_STREAM_WEIGHT) as f64;
    let web_target = CO_SCHED_WEB_WEIGHT as f64 / wsum;
    let stream_target = CO_SCHED_STREAM_WEIGHT as f64 / wsum;
    let share_err_pct = (web_share - web_target)
        .abs()
        .max((stream_share - stream_target).abs())
        * 100.0;

    CellOutcome {
        schedule: name,
        policy: "co-sched",
        controller: controller.label(),
        seed,
        delivered,
        stats: streamer.adaptation_stats().clone(),
        track,
        phases,
        aux_track,
        extra: vec![
            ("web_share", web_share),
            ("web_target", web_target),
            ("stream_share", stream_share),
            ("stream_target", stream_target),
            ("share_err_pct", share_err_pct),
            ("macroflows", tx_host_ref.cm.macroflow_count() as f64),
        ],
    }
}

/// Runs one vat cell: the 64 Kbit/s audio policer over a narrow
/// scheduled path with a short queue.
pub(crate) fn vat_cell(
    name: &'static str,
    schedule: &BandwidthSchedule,
    controller: ControllerKind,
    secs: u64,
    seed: u64,
) -> CellOutcome {
    let stop = Time::from_secs(secs);
    let cm = CmConfig {
        controller,
        ..Default::default()
    };
    let host_cfg = HostConfig {
        cm,
        ..Default::default()
    };
    let mut topo = Topology::new(seed);
    let mut rx_host = Host::new(host_cfg.clone());
    let rx_app = rx_host.add_app(Box::new(AckReceiver::new(5003, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx_host));
    let rx_addr = topo.sim().addr_of(rx_id);
    let mut tx_host = Host::new(host_cfg);
    let tx_app = tx_host.add_app(Box::new(VatAudio::new(
        rx_addr,
        5003,
        DropPolicy::Head,
        stop,
    )));
    let tx_id = topo.add_host(Box::new(tx_host));

    let base = base_rate(schedule, Rate::from_kbps(128));
    let path = PathSpec::new(base, Duration::from_millis(50)).with_queue_limit(8);
    let d = topo.emulated_path(tx_id, rx_id, &path);
    topo.schedule_link(d.forward, schedule);
    let mut sim = topo.build();
    sim.run_until(stop + Duration::from_secs(2));

    let vat = sim.node_ref::<Host>(tx_id).app_ref::<VatAudio>(tx_app);
    let rx = sim.node_ref::<Host>(rx_id).app_ref::<AckReceiver>(rx_app);
    CellOutcome {
        schedule: name,
        policy: "vat",
        controller: controller.label(),
        seed,
        delivered: rx.bytes,
        stats: vat.adaptation_stats().clone(),
        track: Vec::new(),
        phases: Vec::new(),
        aux_track: Vec::new(),
        extra: vec![
            ("delivery_fraction", vat.delivery_fraction()),
            ("mean_send_age_ms", vat.mean_send_age_ms()),
            ("policer_drops", vat.policer_drops as f64),
            ("buffer_drops", vat.buffer_drops as f64),
        ],
    }
}

/// Buckets a quality track into the schedule's phases.
fn phase_summaries(
    schedule: &BandwidthSchedule,
    stop: Time,
    track: &[QualitySample],
) -> Vec<PhaseSummary> {
    schedule
        .phases(stop)
        .iter()
        .map(|p| {
            let (s, e) = (p.start.as_secs_f64(), p.end.as_secs_f64());
            let mut n = 0u64;
            let mut level_sum = 0.0;
            let mut rate_sum = 0.0;
            for q in track {
                if q.t_secs >= s && q.t_secs < e {
                    n += 1;
                    level_sum += q.level as f64;
                    rate_sum += q.cm_rate_kbps;
                }
            }
            // An unsampled phase (shorter than the app's sampling
            // interval) reports NaN, not a fabricated level-0 collapse;
            // the emitters render it as `nan`.
            let inv = if n > 0 { 1.0 / n as f64 } else { f64::NAN };
            PhaseSummary {
                start_secs: s,
                end_secs: e,
                sched_rate_kbps: p.rate.map(|r| r.as_kbytes_per_sec()),
                mean_level: level_sum * inv,
                mean_cm_rate_kbps: rate_sum * inv,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_trace_scenario_reports_quality() {
        // Capacity swings between comfortable (8 Mbps sustains the
        // 1 MB/s third layer) and constrained (600 kbps forces the
        // floor) every 6 s.
        let trace = BandwidthSchedule::square_wave(
            Rate::from_mbps(8),
            Rate::from_kbps(600),
            Duration::from_secs(6),
            Time::from_secs(14),
        );
        let aimd = ControllerKind::Aimd {
            byte_counting: true,
        };
        let o = layered_cell(
            "square",
            &trace,
            AdaptPolicyKind::LadderImmediate,
            aimd,
            14,
            3,
        );
        assert!(o.delivered > 200_000, "delivered {}", o.delivered);
        assert!(o.stats.switches >= 2, "no adaptation under the trace");
        assert_eq!(o.stats.time_in_level().len(), 4);
        // Damping must cut switch count against the same trace.
        let damped = layered_cell("square", &trace, AdaptPolicyKind::LadderDamped, aimd, 14, 3);
        assert!(
            damped.stats.switches <= o.stats.switches,
            "damped {} vs immediate {}",
            damped.stats.switches,
            o.stats.switches
        );
    }

    #[test]
    fn vat_cell_polices_down_on_a_narrow_schedule() {
        let schedule =
            BandwidthSchedule::step(Rate::from_kbps(96), Rate::from_kbps(24), Time::from_secs(6));
        let cell = vat_cell(
            "step",
            &schedule,
            ControllerKind::Aimd {
                byte_counting: true,
            },
            14,
            5,
        );
        assert_eq!(cell.policy, "vat");
        assert!(cell.delivered > 0);
        let delivery = cell
            .extra
            .iter()
            .find(|(k, _)| *k == "delivery_fraction")
            .map(|&(_, v)| v)
            .unwrap();
        assert!(
            delivery > 0.1 && delivery < 1.0,
            "policer never engaged (delivery {delivery})"
        );
    }

    #[test]
    fn phase_summaries_attribute_samples() {
        let schedule =
            BandwidthSchedule::step(Rate::from_mbps(8), Rate::from_mbps(1), Time::from_secs(5));
        let track = vec![
            QualitySample {
                t_secs: 1.0,
                cm_rate_kbps: 900.0,
                level: 3,
            },
            QualitySample {
                t_secs: 6.0,
                cm_rate_kbps: 100.0,
                level: 1,
            },
            QualitySample {
                t_secs: 7.0,
                cm_rate_kbps: 120.0,
                level: 1,
            },
        ];
        let phases = phase_summaries(&schedule, Time::from_secs(10), &track);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].mean_level, 3.0);
        assert_eq!(phases[1].mean_level, 1.0);
        assert!((phases[1].mean_cm_rate_kbps - 110.0).abs() < 1e-9);
    }

    #[test]
    fn policy_engines_share_the_default_ladder() {
        for kind in AdaptPolicyKind::ALL {
            let e = kind.engine();
            assert_eq!(e.levels(), 4);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AdaptPolicyKind::LadderImmediate.label(), "immediate");
        assert_eq!(
            ControllerKind::Aimd {
                byte_counting: true
            }
            .label(),
            "aimd"
        );
        assert_eq!(ControllerKind::RateBased.label(), "rate-based");
    }
}
