//! The named metrics: what each is, and how it is computed from a run.
//!
//! `BENCHMARK.json` is generated from the tables here (`cm-benchmark
//! manifest`) and a test keeps the committed file equal to them.

use crate::measure::{Batch, Outcome, Timed};
use crate::replay::OpCosts;
use crate::span::{Kind, Recorder};
use crate::stats::quantile;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// The end-to-end metrics every workload reports. These are the ones
/// `BENCHMARK.json` bounds.
///
/// The host-time ones (all but the last two) are scaled to the
/// reference kernel's nominal speed, sample by sample (see
/// [`crate::reference`]): the reference host runs the same code up to
/// twice as slow for seconds or minutes at a time, and raw times spread
/// by 16-54 % over ten runs whatever statistic is taken. The raw values
/// are in [`NOT_BOUNDED`]. `sim_goodput_mbps` is simulated time and
/// repeats exactly for a seed.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pkts_per_wall_s",
        unit: "1/s",
        better: Higher,
        bound: HOST_TIME_BOUND,
    },
    EndToEnd {
        name: "pkt_cycle_ns_p50",
        unit: "ns",
        better: Lower,
        bound: HOST_TIME_BOUND,
    },
    EndToEnd {
        name: "pkt_cycle_ns_p90",
        unit: "ns",
        better: Lower,
        bound: HOST_TIME_BOUND,
    },
    EndToEnd {
        name: "flow_lifecycle_ns_p50",
        unit: "ns",
        better: Lower,
        bound: HOST_TIME_BOUND,
    },
    EndToEnd {
        name: "cm_ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: HOST_TIME_BOUND,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_goodput_mbps",
        unit: "Mbps",
        better: Higher,
        bound: 0.05,
    },
];

/// The bound of the scaled host-time metrics; README's steadiness table
/// is what it rests on.
const HOST_TIME_BOUND: f64 = 0.25;

/// End-to-end results that are not bounded: raw host times (unsteady
/// on the reference host, kept for the trajectory), results only
/// `sim_mix` has, and `fail_ratio`, which is zero when all is well —
/// the driver's contract wants every bounded metric from every
/// workload, never zero, and steady. They are printed by every run,
/// written to its JSON, and listed with the per-layer metrics;
/// `fail_ratio` is also the contract's `failed`/`attempted`.
pub const NOT_BOUNDED: [(&str, &str, Better); 10] = [
    ("fail_ratio", "ratio", Lower),
    ("host_speed", "ratio", Higher),
    ("raw_setup_s", "s", Lower),
    ("raw_pkts_per_wall_s", "1/s", Higher),
    ("raw_pkt_cycle_ns_p50", "ns", Lower),
    ("raw_pkt_cycle_ns_p90", "ns", Lower),
    ("raw_pkt_cycle_ns_p99", "ns", Lower),
    ("sim_cpu_us_per_pkt", "us", Lower),
    ("sim_web_ms_p50", "ms", Lower),
    ("sim_stream_level_mean", "level", Higher),
];

/// A per-layer metric: layer = crate.module.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const NETSIM: &str = "pkts_per_wall_s on sim_bulk (most) and sim_mix";
const TRANSPORT: &str = "pkts_per_wall_s on sim_bulk; sim_cpu_us_per_pkt on sim_mix";
const CORE: &str = "pkt_cycle_ns_*, flow_lifecycle_ns_p50, cm_ops_per_s on cm_wide/cm_fanin; a small share of pkts_per_wall_s on sim_mix; none on sim_bulk";
const LIBCM: &str = "sim_cpu_us_per_pkt, pkts_per_wall_s on sim_mix";
const ADAPT: &str = "sim_stream_level_mean, pkts_per_wall_s on sim_mix";
const APPS: &str = "pkts_per_wall_s on sim_mix";
const OBS: &str = "pkt_cycle_ns_p50 on cm_wide, only when tracing is on";
const WHOLE: &str = "whole program";

/// Every per-layer metric a traced run reports, in print order.
pub const PER_LAYER: [PerLayer; 65] = [
    layer("netsim.sim.events", "count", Lower, NETSIM),
    layer("netsim.sim.events_per_pkt", "ratio", Lower, NETSIM),
    layer("netsim.sim.self_ns_per_event", "ns", Lower, NETSIM),
    layer("netsim.sim.self_share", "share", Lower, NETSIM),
    layer("netsim.sim.timer_slots_peak", "count", Lower, NETSIM),
    layer("netsim.event.schedule_pop_ns", "ns", Lower, NETSIM),
    layer("netsim.link.offered", "count", Lower, NETSIM),
    layer("netsim.link.drop_ratio", "ratio", Lower, NETSIM),
    layer("netsim.link.max_queue_pkts", "count", Lower, NETSIM),
    layer("netsim.link.offer_txdone_ns", "ns", Lower, NETSIM),
    layer(
        "transport.host.handler_ns_per_event",
        "ns",
        Lower,
        TRANSPORT,
    ),
    layer("transport.host.self_share", "share", Lower, TRANSPORT),
    layer("transport.tcp.segs_sent", "count", Lower, TRANSPORT),
    layer("transport.tcp.rtx_ratio", "ratio", Lower, TRANSPORT),
    layer("transport.tcp.timeouts", "count", Lower, TRANSPORT),
    layer("transport.tcp.on_segment_ns", "ns", Lower, TRANSPORT),
    layer(
        "transport.hostos.syscalls_per_pkt",
        "ratio",
        Lower,
        TRANSPORT,
    ),
    layer("transport.hostos.ioctls_per_pkt", "ratio", Lower, TRANSPORT),
    layer(
        "transport.hostos.bytes_copied_per_pkt",
        "B",
        Lower,
        TRANSPORT,
    ),
    layer("core.front.open_ns", "ns", Lower, CORE),
    layer("core.front.close_ns", "ns", Lower, CORE),
    layer("core.front.request_ns", "ns", Lower, CORE),
    layer("core.front.notify_ns", "ns", Lower, CORE),
    layer("core.front.update_ns", "ns", Lower, CORE),
    layer("core.front.query_ns", "ns", Lower, CORE),
    layer("core.front.drain_ns_per_note", "ns", Lower, CORE),
    layer("core.front.tick_us", "us", Lower, CORE),
    layer("core.front.calls", "count", Lower, CORE),
    layer("core.shard.grant_ratio", "ratio", Higher, CORE),
    layer("core.shard.rate_callbacks_per_update", "ratio", Lower, CORE),
    layer("core.shard.grants_reclaimed", "count", Lower, CORE),
    layer("core.shard.tick_mfs_scanned_per_tick", "ratio", Lower, CORE),
    layer("core.shard.feedback_rejected", "count", Lower, CORE),
    layer(
        "core.shard.bytes_per_flow",
        "B",
        Lower,
        "peak_rss_mb on cm_wide/cm_fanin",
    ),
    layer(
        "core.scheduler.enq_deq_ns",
        "ns",
        Lower,
        "pkt_cycle_ns_* on cm_fanin only",
    ),
    layer("core.controller.on_update_ns", "ns", Lower, CORE),
    layer(
        "core.runtime.cycle_ns",
        "ns",
        Lower,
        "none yet: no workload runs on ShardRuntime (ROADMAP item 3 decides by it)",
    ),
    layer(
        "core.runtime.vs_inproc_ratio",
        "ratio",
        Lower,
        "as core.runtime.cycle_ns",
    ),
    layer(
        "core.runtime.ring_stalls_per_kcycle",
        "ratio",
        Lower,
        "as core.runtime.cycle_ns",
    ),
    layer(
        "core.ring.push_pop_ns",
        "ns",
        Lower,
        "as core.runtime.cycle_ns",
    ),
    layer("libcm.dispatcher.wakeup_ns", "ns", Lower, LIBCM),
    layer("libcm.control.ioctls_per_grant", "ratio", Lower, LIBCM),
    layer("adapt.engine.observe_ns", "ns", Lower, ADAPT),
    layer("adapt.engine.switches_per_sim_s", "1/s", Lower, ADAPT),
    layer("apps.callbacks", "count", Lower, APPS),
    layer("apps.callback_ns_per_event", "ns", Lower, APPS),
    layer("apps.callback_share", "share", Lower, APPS),
    layer("obs.tracer.on_off_ratio", "ratio", Lower, OBS),
    layer("obs.recorder.push_ns", "ns", Lower, OBS),
    layer("obs.recorder.records_per_cycle", "ratio", Lower, OBS),
    layer("alloc.count_per_pkt", "ratio", Lower, WHOLE),
    layer("alloc.bytes_per_pkt", "B", Lower, WHOLE),
    layer("bench.trace_overhead_ratio", "ratio", Lower, WHOLE),
    layer("bench.predicted_residual_share", "share", Lower, WHOLE),
    layer("bench.clock_read_ns", "ns", Lower, WHOLE),
    layer("fail_ratio", "ratio", Lower, "end to end, all workloads"),
    layer(
        "host_speed",
        "ratio",
        Higher,
        "end to end, all workloads; the untraced pass, not scaled",
    ),
    layer(
        "raw_setup_s",
        "s",
        Lower,
        "end to end, all workloads; the untraced pass, not scaled",
    ),
    layer(
        "raw_pkts_per_wall_s",
        "1/s",
        Higher,
        "end to end, all workloads; the untraced pass, not scaled",
    ),
    layer(
        "raw_pkt_cycle_ns_p50",
        "ns",
        Lower,
        "end to end, all workloads; the untraced pass, not scaled",
    ),
    layer(
        "raw_pkt_cycle_ns_p90",
        "ns",
        Lower,
        "end to end, all workloads; the untraced pass, not scaled",
    ),
    layer(
        "raw_pkt_cycle_ns_p99",
        "ns",
        Lower,
        "end to end, all workloads; the untraced pass, not scaled",
    ),
    layer("sim_cpu_us_per_pkt", "us", Lower, "end to end, sim_mix"),
    layer("sim_web_ms_p50", "ms", Lower, "end to end, sim_mix"),
    layer(
        "sim_stream_level_mean",
        "level",
        Higher,
        "end to end, sim_mix",
    ),
];

/// Named values in table order.
pub type Values = Vec<(&'static str, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile of what `f` makes of each sample; 0 of none.
fn quantile_of<T>(samples: &[T], q: f64, f: impl Fn(&T) -> f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.iter().map(f).collect();
    quantile(&mut v, q)
}

/// Packets (or whatever `work` counts) per second of batch time, median
/// over batches; `time` picks raw or scaled time.
fn per_second(out: &Outcome, work: fn(&Batch) -> u64, time: fn(&Timed) -> f64) -> f64 {
    quantile_of(&out.samples.batches, 0.5, |b| {
        work(b) as f64 * 1e9 / time(&b.wall_ns).max(1.0)
    })
}

/// The bounded end-to-end metrics of an untraced run.
pub fn end_to_end(out: &Outcome, setup_s: &[Timed], peak_rss_mb: f64) -> Values {
    let s = &out.samples;
    let c = &out.counts;
    vec![
        ("setup_s", quantile_of(setup_s, 0.5, Timed::scaled)),
        (
            "pkts_per_wall_s",
            per_second(out, |b| b.pkts, Timed::scaled),
        ),
        (
            "pkt_cycle_ns_p50",
            quantile_of(&s.pkt_ns, 0.5, Timed::scaled),
        ),
        (
            "pkt_cycle_ns_p90",
            quantile_of(&s.pkt_ns, 0.9, Timed::scaled),
        ),
        (
            "flow_lifecycle_ns_p50",
            quantile_of(&s.lifecycle_ns, 0.5, Timed::scaled),
        ),
        ("cm_ops_per_s", per_second(out, |b| b.cm_ops, Timed::scaled)),
        ("peak_rss_mb", peak_rss_mb),
        (
            "sim_goodput_mbps",
            ratio(c.app_bytes as f64 * 8e3, c.sim_ns as f64),
        ),
    ]
}

/// The end-to-end results that are not bounded (0 where a workload has
/// none).
pub fn not_bounded(out: &Outcome, setup_s: &[Timed]) -> Values {
    let s = &out.samples;
    let c = &out.counts;
    let level_ns: u64 = out.level_ns.iter().sum();
    let level_weighted: f64 = out
        .level_ns
        .iter()
        .enumerate()
        .map(|(level, &ns)| level as f64 * ns as f64)
        .sum();
    let raw = |t: &Timed| t.raw;
    vec![
        (
            "fail_ratio",
            ratio(out.tally.failed as f64, out.tally.attempted as f64),
        ),
        (
            "host_speed",
            quantile_of(&s.batches, 0.5, |b| b.wall_ns.speed),
        ),
        ("raw_setup_s", quantile_of(setup_s, 0.5, raw)),
        ("raw_pkts_per_wall_s", per_second(out, |b| b.pkts, raw)),
        ("raw_pkt_cycle_ns_p50", quantile_of(&s.pkt_ns, 0.5, raw)),
        ("raw_pkt_cycle_ns_p90", quantile_of(&s.pkt_ns, 0.9, raw)),
        ("raw_pkt_cycle_ns_p99", quantile_of(&s.pkt_ns, 0.99, raw)),
        (
            "sim_cpu_us_per_pkt",
            ratio(c.cpu_busy_ns as f64 / 1e3, c.pkts_sent as f64),
        ),
        ("sim_web_ms_p50", quantile_of(&out.web_ms, 0.5, |&ms| ms)),
        (
            "sim_stream_level_mean",
            ratio(level_weighted, level_ns as f64),
        ),
    ]
}

/// What a traced run measured beyond its [`Outcome`].
#[derive(Default)]
pub struct TraceExtras {
    pub costs: OpCosts,
    /// Allocator calls and bytes while the traced batches ran.
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    pub bytes_per_flow: f64,
    /// Median batch host time, traced and untraced.
    pub traced_batch_ns: f64,
    pub untraced_batch_ns: f64,
    /// `drain_notifications_into` calls' notifications (CM streams).
    pub notes_drained: u64,
    pub runtime_cycle_ns: f64,
    pub inproc_sharded_cycle_ns: f64,
    pub ring_stalls_per_kcycle: f64,
    pub tracer_on_off_ratio: f64,
    pub records_per_cycle: f64,
    /// [`not_bounded`] of the untraced pass: where the raw host times
    /// come from.
    pub untraced: Values,
}

/// Every per-layer metric of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(out: &Outcome, rec: &Recorder, x: &TraceExtras) -> Values {
    let c = &out.counts;
    let pkts: u64 = out.samples.batches.iter().map(|b| b.pkts).sum();
    let pkts = pkts as f64;
    let self_ns = |k: Kind| rec.self_ns(k);
    let per_call = |k: Kind, calls: u64| ratio(self_ns(k), calls as f64);

    let cm_kinds = [
        Kind::CmOpen,
        Kind::CmClose,
        Kind::CmRequest,
        Kind::CmNotify,
        Kind::CmUpdate,
        Kind::CmQuery,
        Kind::CmDrain,
        Kind::CmTick,
    ];
    let sim_kinds = [
        Kind::Build,
        Kind::SimRun,
        Kind::HostHandler,
        Kind::AppCallback,
    ];
    let measured: f64 = cm_kinds.iter().chain(&sim_kinds).map(|&k| self_ns(k)).sum();
    let share = |k: Kind| ratio(self_ns(k), measured);

    let k = &x.costs;
    let predicted = c.events as f64 * k.event_schedule_pop_ns
        + c.link_offered as f64 * k.link_offer_txdone_ns
        + c.tcp_segs_rcvd as f64 * k.tcp_on_segment_ns
        + c.cm.grants as f64 * k.scheduler_enq_deq_ns
        + c.cm.updates as f64 * k.controller_on_update_ns
        + c.libcm_wakeups as f64 * k.dispatcher_wakeup_ns
        + c.cm.rate_callbacks as f64 * k.engine_observe_ns;
    // What `CmStats` counts, plus the ticks and (CM streams) the drains.
    let front_calls = c.cm_ops() + c.cm_ticks + rec.agg(Kind::CmDrain).spans;
    let sim_s = c.sim_ns as f64 / 1e9;
    // Simulated results from this (traced) pass, raw host times from
    // the untraced one.
    let traced = not_bounded(out, &[]);
    let find = |values: &Values, name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };

    let values: Values = vec![
        ("netsim.sim.events", c.events as f64),
        ("netsim.sim.events_per_pkt", ratio(c.events as f64, pkts)),
        (
            "netsim.sim.self_ns_per_event",
            ratio(self_ns(Kind::SimRun), c.events as f64),
        ),
        ("netsim.sim.self_share", share(Kind::SimRun)),
        ("netsim.sim.timer_slots_peak", c.timer_slots_peak as f64),
        ("netsim.event.schedule_pop_ns", k.event_schedule_pop_ns),
        ("netsim.link.offered", c.link_offered as f64),
        (
            "netsim.link.drop_ratio",
            ratio(c.link_dropped as f64, c.link_offered as f64),
        ),
        ("netsim.link.max_queue_pkts", c.link_max_queue_pkts as f64),
        ("netsim.link.offer_txdone_ns", k.link_offer_txdone_ns),
        (
            "transport.host.handler_ns_per_event",
            per_call(Kind::HostHandler, rec.agg(Kind::HostHandler).spans),
        ),
        ("transport.host.self_share", share(Kind::HostHandler)),
        ("transport.tcp.segs_sent", c.tcp_segs_sent as f64),
        (
            "transport.tcp.rtx_ratio",
            ratio(
                c.tcp_bytes_rtx as f64,
                (c.tcp_bytes_sent + c.tcp_bytes_rtx) as f64,
            ),
        ),
        ("transport.tcp.timeouts", c.tcp_timeouts as f64),
        ("transport.tcp.on_segment_ns", k.tcp_on_segment_ns),
        (
            "transport.hostos.syscalls_per_pkt",
            ratio(c.syscalls as f64, pkts),
        ),
        (
            "transport.hostos.ioctls_per_pkt",
            ratio(c.ioctls as f64, pkts),
        ),
        (
            "transport.hostos.bytes_copied_per_pkt",
            ratio(c.bytes_copied as f64, pkts),
        ),
        ("core.front.open_ns", per_call(Kind::CmOpen, c.cm.opens)),
        ("core.front.close_ns", per_call(Kind::CmClose, c.cm.closes)),
        (
            "core.front.request_ns",
            per_call(Kind::CmRequest, c.cm.requests),
        ),
        (
            "core.front.notify_ns",
            per_call(Kind::CmNotify, c.cm.notifies),
        ),
        (
            "core.front.update_ns",
            per_call(Kind::CmUpdate, c.cm.updates),
        ),
        ("core.front.query_ns", per_call(Kind::CmQuery, c.cm.queries)),
        (
            "core.front.drain_ns_per_note",
            per_call(Kind::CmDrain, x.notes_drained),
        ),
        (
            "core.front.tick_us",
            per_call(Kind::CmTick, c.cm_ticks) / 1e3,
        ),
        ("core.front.calls", front_calls as f64),
        (
            "core.shard.grant_ratio",
            ratio(c.cm.grants as f64, c.cm.requests as f64),
        ),
        (
            "core.shard.rate_callbacks_per_update",
            ratio(c.cm.rate_callbacks as f64, c.cm.updates as f64),
        ),
        ("core.shard.grants_reclaimed", c.cm.grants_reclaimed as f64),
        (
            "core.shard.tick_mfs_scanned_per_tick",
            ratio(c.cm.tick_mfs_scanned as f64, c.cm_ticks as f64),
        ),
        (
            "core.shard.feedback_rejected",
            c.cm.feedback_rejected as f64,
        ),
        ("core.shard.bytes_per_flow", x.bytes_per_flow),
        ("core.scheduler.enq_deq_ns", k.scheduler_enq_deq_ns),
        ("core.controller.on_update_ns", k.controller_on_update_ns),
        ("core.runtime.cycle_ns", x.runtime_cycle_ns),
        (
            "core.runtime.vs_inproc_ratio",
            ratio(x.runtime_cycle_ns, x.inproc_sharded_cycle_ns),
        ),
        (
            "core.runtime.ring_stalls_per_kcycle",
            x.ring_stalls_per_kcycle,
        ),
        ("core.ring.push_pop_ns", k.ring_push_pop_ns),
        ("libcm.dispatcher.wakeup_ns", k.dispatcher_wakeup_ns),
        (
            "libcm.control.ioctls_per_grant",
            ratio(c.libcm_ioctls as f64, c.libcm_grants as f64),
        ),
        ("adapt.engine.observe_ns", k.engine_observe_ns),
        (
            "adapt.engine.switches_per_sim_s",
            ratio(c.adapt_switches as f64, sim_s),
        ),
        ("apps.callbacks", rec.agg(Kind::AppCallback).spans as f64),
        (
            "apps.callback_ns_per_event",
            per_call(Kind::AppCallback, rec.agg(Kind::AppCallback).spans),
        ),
        ("apps.callback_share", share(Kind::AppCallback)),
        ("obs.tracer.on_off_ratio", x.tracer_on_off_ratio),
        ("obs.recorder.push_ns", k.recorder_push_ns),
        ("obs.recorder.records_per_cycle", x.records_per_cycle),
        ("alloc.count_per_pkt", ratio(x.alloc_calls as f64, pkts)),
        ("alloc.bytes_per_pkt", ratio(x.alloc_bytes as f64, pkts)),
        (
            "bench.trace_overhead_ratio",
            ratio(x.traced_batch_ns, x.untraced_batch_ns),
        ),
        (
            "bench.predicted_residual_share",
            1.0 - ratio(
                predicted,
                x.untraced_batch_ns * out.samples.batches.len() as f64,
            ),
        ),
        ("bench.clock_read_ns", rec.clock.inside_ns),
    ];
    let values: Values = values
        .into_iter()
        .chain(NOT_BOUNDED.iter().map(|&(name, _, _)| {
            let untimed = name == "fail_ratio" || name.starts_with("sim_");
            let from = if untimed { &traced } else { &x.untraced };
            (name, find(from, name))
        }))
        .collect();
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(PER_LAYER.iter().map(|m| m.name)));
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_values_follow_the_table() {
        let rec = crate::span::with_recorder(|r| {
            per_layer(&Outcome::default(), r, &TraceExtras::default())
        });
        let names: Vec<_> = rec.iter().map(|v| v.0).collect();
        let table: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(NOT_BOUNDED
            .iter()
            .all(|m| PER_LAYER.iter().any(|p| p.name == m.0)));
    }
}
