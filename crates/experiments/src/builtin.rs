//! The built-in figures and their emitters.
//!
//! A [`Figure`] is a name, its mapping onto the paper, and a run function
//! that turns simulations into three deterministic files: `<name>.csv`,
//! `<name>.dat` (gnuplot-ready blocks) and `<name>.md` (the report).
//! Figures that sweep a declarative [`Experiment`] go through `sweep`;
//! the rest drive their scenario or `cm-core` directly. The paper's own
//! evaluation lives in [`crate::paper`]; `docs/experiments.md` documents
//! how each figure maps onto the paper.

use cm_apps::layered::LayeredStreamer;
use cm_core::config::ControllerKind;
use cm_netsim::schedule::BandwidthSchedule;
use cm_util::{Duration, Rate, Time};

use crate::paper;
use crate::report::{fmt_f64, DatFile, FigureDoc, OutputSet, Table};
use crate::runner::{run_experiment, CellOutcome, ExperimentResult};
use crate::spec::{AdaptPolicyKind, AppKind, Experiment, NamedSchedule};

const AIMD: ControllerKind = ControllerKind::Aimd {
    byte_counting: true,
};

/// A built-in figure: its identity, its mapping onto the paper, and how
/// to produce it.
pub struct Figure {
    /// File-stem name (`<name>.csv` / `.dat` / `.md`).
    pub name: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Which figure/section of the paper this reproduces.
    pub paper_ref: &'static str,
    /// What the figure demonstrates.
    pub description: &'static str,
    pub(crate) run: fn(&Figure, bool) -> FigureRun,
}

/// What running a figure produces.
pub struct FigureRun {
    /// The figure's output files.
    pub files: OutputSet,
    /// The executed sweep, for figures that are a declarative
    /// [`Experiment`] (`None` for the ones that drive their scenario
    /// directly).
    pub sweep: Option<ExperimentResult>,
}

impl From<OutputSet> for FigureRun {
    fn from(files: OutputSet) -> Self {
        FigureRun { files, sweep: None }
    }
}

impl Figure {
    /// Runs the figure end to end. `smoke` shrinks durations and seed
    /// counts for CI; the full configuration regenerates `docs/figures/`.
    pub fn run(&self, smoke: bool) -> FigureRun {
        (self.run)(self, smoke)
    }
}

/// All built-in figures, pipeline order: the paper's evaluation in the
/// paper's order, then the figures that go beyond it.
pub const FIGURES: &[Figure] = &[
    paper::FIG3,
    paper::CONN_SETUP,
    paper::FIG4,
    paper::FIG5,
    paper::FIG6,
    paper::TABLE1,
    paper::FIG7,
    FIG8_9,
    paper::FIG10,
    paper::ABLATIONS,
    POLICY_FRONTIER,
    TRACE_REPLAY,
    VAT_AUDIO,
    CO_SCHEDULING,
    ROBUSTNESS,
    DECISION_TIMELINE,
];

/// Runs a declarative sweep and emits its files.
fn sweep(
    fig: &Figure,
    experiment: Experiment,
    emit: fn(&Figure, &ExperimentResult) -> OutputSet,
) -> FigureRun {
    let result = run_experiment(&experiment);
    FigureRun {
        files: emit(fig, &result),
        sweep: Some(result),
    }
}

// ---------------------------------------------------------------------
// Figure 8/9: the layered streamer under step + square-wave schedules
// ---------------------------------------------------------------------

const FIG8_9: Figure = Figure {
    name: "fig8_9_layered",
    title: "Layered streamer quality track under varying bandwidth",
    paper_ref: "Figures 8-9 (\u{a7}4.3): the four-layer streamer tracking the CM-reported rate",
    description: "The ALF-mode layered streamer with the paper's immediate \
(hysteresis-free) ladder over a time-varying bottleneck. The quality track must \
follow the CM-reported rate exactly: at every sample the selected layer is the \
highest whose cumulative rate fits the report \u{2014} the `layer_for` loop of \
Figures 8-9, also pinned by the `LadderConfig::immediate()` unit tests.",
    run: fig8_9,
};

fn fig8_9(fig: &Figure, smoke: bool) -> FigureRun {
    let secs = if smoke { 10 } else { 30 };
    let experiment = Experiment {
        app: AppKind::Layered,
        schedules: vec![
            NamedSchedule::new(
                "step_8mbps_to_1200kbps",
                BandwidthSchedule::step(
                    Rate::from_mbps(8),
                    Rate::from_kbps(1200),
                    Time::from_secs(secs / 2),
                ),
            ),
            NamedSchedule::new(
                "square_8mbps_600kbps_6s",
                BandwidthSchedule::square_wave(
                    Rate::from_mbps(8),
                    Rate::from_kbps(600),
                    Duration::from_secs(6),
                    Time::from_secs(secs),
                ),
            ),
        ],
        policies: vec![AdaptPolicyKind::LadderImmediate],
        controllers: vec![AIMD],
        secs,
        seeds: vec![42],
    };
    sweep(fig, experiment, emit_fig8_9)
}

/// Counts track samples whose level differs from the immediate ladder's
/// `layer_for` of the reported rate (must be zero for the immediate
/// policy — the Figure 8/9 acceptance check). Reuses the same
/// [`cm_adapt::RateLadder::highest_within`] selection the policy runs;
/// the track stores the rate in KB/s, so reconstruct the `Rate` by
/// rounding (the half-byte/s worst case cannot cross a layer boundary).
pub fn immediate_track_mismatches(cell: &CellOutcome) -> usize {
    let ladder = cm_adapt::RateLadder::new(LayeredStreamer::default_layers());
    cell.track
        .iter()
        .filter(|q| {
            let budget = Rate::from_bytes_per_sec((q.cm_rate_kbps * 1000.0).round() as u64);
            ladder.highest_within(budget) != q.level
        })
        .count()
}

fn emit_fig8_9(fig: &Figure, result: &ExperimentResult) -> OutputSet {
    let layers = LayeredStreamer::default_layers();
    let mut dat = DatFile::new(
        "fig8_9_layered: quality track per cell\n\
         columns: time_s  cm_rate_KBps  level  level_rate_KBps",
    );
    for cell in &result.cells {
        dat.block(
            &format!("{} seed {}", cell.schedule, cell.seed),
            &["t_s", "cm_rate_KBps", "level", "level_rate_KBps"],
        );
        for q in &cell.track {
            dat.row(&[
                q.t_secs,
                q.cm_rate_kbps,
                q.level as f64,
                layers[q.level].as_kbytes_per_sec(),
            ]);
        }
    }

    let mut doc = figure_doc(fig, result);
    doc.section("Quality track vs. the paper's layer_for rule");
    let mut total_samples = 0usize;
    let mut total_mismatches = 0usize;
    let mut t = Table::new(&[
        "schedule",
        "samples",
        "mismatches",
        "switches",
        "delivered KB",
    ]);
    for cell in &result.cells {
        let mism = immediate_track_mismatches(cell);
        total_samples += cell.track.len();
        total_mismatches += mism;
        t.row(&[
            &cell.schedule,
            &cell.track.len().to_string(),
            &mism.to_string(),
            &cell.stats.switches.to_string(),
            &(cell.delivered / 1000).to_string(),
        ]);
    }
    doc.table(&t);
    doc.para(&format!(
        "**{total_mismatches} of {total_samples} samples deviate** from the immediate \
ladder's `layer_for` of the CM-reported rate. The paper's Figure 8/9 behaviour \
requires zero: the immediate policy is *defined* as tracking the report exactly \
(see the `immediate_tracks_rate_exactly` unit test on `LadderPolicy`)."
    ));
    doc.section("Per-phase behaviour");
    doc.table(&phase_table(result));
    finish(fig, cells_csv(result), dat, doc)
}

// ---------------------------------------------------------------------
// The quality/oscillation policy frontier
// ---------------------------------------------------------------------

const POLICY_FRONTIER: Figure = Figure {
    name: "policy_frontier",
    title: "Quality vs. oscillation across adaptation policies",
    paper_ref: "\u{a7}3.4 adaptation discussion; evaluation style follows the \
network-assisted streaming literature's quality/oscillation frontiers",
    description: "Every adaptation policy \u{d7} congestion controller \
combination against the same time-varying bottlenecks. Each point is a fleet \
aggregate over schedules and seeds: mean delivered utility (KB/s) against \
oscillation rate (direction reversals per minute). The frontier quantifies the \
hysteresis trade: damping buys stability at a small utility cost.",
    run: policy_frontier,
};

fn policy_frontier(fig: &Figure, smoke: bool) -> FigureRun {
    let secs = if smoke { 12 } else { 24 };
    // Three seeds in the full run so the p5/p95 bands span a real
    // across-seed distribution, not a two-point spread.
    let seeds = if smoke { vec![1] } else { vec![1, 2, 3] };
    let experiment = Experiment {
        app: AppKind::Layered,
        schedules: vec![
            NamedSchedule::new(
                "square_8mbps_600kbps_6s",
                BandwidthSchedule::square_wave(
                    Rate::from_mbps(8),
                    Rate::from_kbps(600),
                    Duration::from_secs(6),
                    Time::from_secs(secs),
                ),
            ),
            NamedSchedule::new(
                "onoff_12mbps_minus_10mbps",
                BandwidthSchedule::on_off(
                    Rate::from_mbps(12),
                    Rate::from_mbps(10),
                    Time::from_secs(4),
                    Duration::from_secs(4),
                    Duration::from_secs(4),
                    Time::from_secs(secs),
                ),
            ),
        ],
        policies: AdaptPolicyKind::ALL.to_vec(),
        controllers: vec![
            AIMD,
            ControllerKind::RateBased,
            ControllerKind::DelayGradient,
        ],
        secs,
        seeds,
    };
    sweep(fig, experiment, emit_frontier)
}

/// The immediate-vs-damped oscillation gap (reversals/min) under the
/// AIMD controller — the documented hysteresis effect the frontier
/// figure must exhibit.
pub fn hysteresis_gap(result: &ExperimentResult) -> Option<(f64, f64)> {
    let immediate = result.fleet("immediate/aimd")?.oscillation_per_min();
    let damped = result.fleet("damped/aimd")?.oscillation_per_min();
    Some((immediate, damped))
}

fn emit_frontier(fig: &Figure, result: &ExperimentResult) -> OutputSet {
    let mut dat = DatFile::new(
        "policy_frontier: one point per policy/controller group, with p5/p95\n\
         percentile bands over the per-session (schedule x seed) distributions\n\
         plot 'policy_frontier.dat' index 0 using 1:4 with points,\n\
         '' index 0 using 1:4:5:6 with yerrorbars",
    );
    dat.block(
        "frontier (means plus p5/p95 bands across sessions)",
        &[
            "oscillation_per_min",
            "osc_p5_per_min",
            "osc_p95_per_min",
            "mean_utility_KBps",
            "utility_p5_KBps",
            "utility_p95_KBps",
            "switches_per_min",
        ],
    );
    for (_, fleet) in &result.fleets {
        dat.row(&[
            fleet.oscillation_per_min(),
            fleet.oscillation.percentile(5.0),
            fleet.oscillation.percentile(95.0),
            fleet.mean_utility(),
            fleet.utility.percentile(5.0),
            fleet.utility.percentile(95.0),
            fleet.switches_per_min(),
        ]);
    }
    // Per-group oscillation distributions from the fleet histograms.
    for (group, fleet) in &result.fleets {
        dat.block(
            &format!("oscillation histogram: {group}"),
            &["bucket_hi_per_min", "sessions"],
        );
        for (hi, count) in fleet.oscillation.rows() {
            dat.row(&[hi, count as f64]);
        }
    }

    let mut doc = figure_doc(fig, result);
    doc.section("The frontier");
    doc.table(&fleet_table(result));
    doc.para(
        "The p5/p95 columns band each group's per-session (schedule \u{d7} seed) \
distribution behind the mean: a frontier point with a tight band is robust \
across seeds, not an averaging artifact.",
    );
    if let Some((immediate, damped)) = hysteresis_gap(result) {
        let iu = result
            .fleet("immediate/aimd")
            .map(|f| f.mean_utility())
            .unwrap_or(0.0);
        let du = result
            .fleet("damped/aimd")
            .map(|f| f.mean_utility())
            .unwrap_or(0.0);
        let cost = if iu > 0.0 {
            (iu - du) / iu * 100.0
        } else {
            0.0
        };
        doc.para(&format!(
            "**Hysteresis-vs-immediate oscillation gap (AIMD):** the immediate ladder \
oscillates at {} reversals/min; the damped ladder at {} \u{2014} hysteresis and \
dwell remove {} reversals/min, at a mean-utility cost of {}%. This is the \
documented trade the `LadderConfig::damped()` defaults buy.",
            fmt_f64(immediate),
            fmt_f64(damped),
            fmt_f64(immediate - damped),
            fmt_f64(cost),
        ));
    }
    finish(fig, cells_csv(result), dat, doc)
}

// ---------------------------------------------------------------------
// Recorded-trace replay
// ---------------------------------------------------------------------

/// The bundled recorded-style traces (`traces/*.trace`), compiled in so
/// the pipeline has no runtime file dependencies.
pub fn bundled_traces() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "umts_drive",
            include_str!("../../../traces/umts_drive.trace"),
        ),
        ("lte_walk", include_str!("../../../traces/lte_walk.trace")),
        ("hspa_bus", include_str!("../../../traces/hspa_bus.trace")),
        ("wifi_cafe", include_str!("../../../traces/wifi_cafe.trace")),
        (
            "flaky_cellular",
            include_str!("../../../traces/flaky_cellular.trace"),
        ),
    ]
}

const TRACE_REPLAY: Figure = Figure {
    name: "trace_replay",
    title: "Adaptation under recorded 3G/LTE-style bandwidth traces",
    paper_ref: "\u{a7}4.3's time-varying-bandwidth methodology, driven by \
recorded cellular traces instead of synthetic waves",
    description: "Each bundled trace under `traces/` is fed through \
`BandwidthSchedule::parse_trace` and replayed against every adaptation policy. \
The traces cover a drive with deep fades (umts_drive), a walk with shadowing \
dips (lte_walk), a bus commute with a total outage (hspa_bus), and a bursty \
Wi-Fi cafe with contention bursts and coarse rate steps (wifi_cafe).",
    run: trace_replay,
};

fn trace_replay(fig: &Figure, smoke: bool) -> FigureRun {
    let secs = if smoke { 12 } else { 40 };
    let schedules = bundled_traces()
        .into_iter()
        .map(|(name, text)| {
            #[expect(
                clippy::panic,
                reason = "the traces are compiled into the binary — a bad one is a harness bug"
            )]
            let schedule = BandwidthSchedule::parse_trace(text)
                .unwrap_or_else(|e| panic!("trace {name}: {e}"));
            NamedSchedule::new(name, schedule)
        })
        .collect();
    let experiment = Experiment {
        app: AppKind::Layered,
        schedules,
        policies: AdaptPolicyKind::ALL.to_vec(),
        controllers: vec![AIMD],
        secs,
        seeds: vec![7],
    };
    sweep(fig, experiment, emit_trace_replay)
}

fn emit_trace_replay(fig: &Figure, result: &ExperimentResult) -> OutputSet {
    let mut dat = DatFile::new(
        "trace_replay: per-cell schedule-phase summaries\n\
         columns: phase_start_s  phase_end_s  sched_rate_KBps  mean_level  mean_cm_rate_KBps",
    );
    for cell in &result.cells {
        dat.block(
            &format!("{} / {}", cell.schedule, cell.policy),
            &[
                "start_s",
                "end_s",
                "sched_rate_KBps",
                "mean_level",
                "mean_cm_rate_KBps",
            ],
        );
        for p in &cell.phases {
            dat.row(&[
                p.start_secs,
                p.end_secs,
                p.sched_rate_kbps.unwrap_or(f64::NAN),
                p.mean_level,
                p.mean_cm_rate_kbps,
            ]);
        }
    }
    let mut doc = figure_doc(fig, result);
    doc.section("Per-trace quality");
    doc.table(&cells_table(result));
    doc.section("Fleet aggregate per policy");
    doc.table(&fleet_table(result));
    doc.para(
        "Every policy degrades through each trace's fades and recovers after; the \
damped ladder and the utility policy ride through short dips that whipsaw the \
immediate ladder. The hspa_bus outage (a zero-rate phase) exercises the \
stall/restart path end to end.",
    );
    finish(fig, cells_csv(result), dat, doc)
}

// ---------------------------------------------------------------------
// Vat audio adaptation
// ---------------------------------------------------------------------

const VAT_AUDIO: Figure = Figure {
    name: "vat_audio",
    title: "Vat audio policer adaptation on a narrow varying link",
    paper_ref: "\u{a7}3.6 / Figure 2: the CM-driven audio policer shedding \
load ahead of the buffers",
    description: "The 64 Kbit/s vat source over a link squeezed below the \
source rate on a square wave. The policer's 16-level utility grid tracks the \
CM-reported rate: delivery fraction drops with capacity while transmitted \
frames stay fresh (low queue age) \u{2014} the drop-from-head design point.",
    run: vat_audio,
};

fn vat_audio(fig: &Figure, smoke: bool) -> FigureRun {
    let secs = if smoke { 12 } else { 30 };
    let experiment = Experiment {
        app: AppKind::Vat,
        schedules: vec![NamedSchedule::new(
            "square_96_24kbps_8s",
            BandwidthSchedule::square_wave(
                Rate::from_kbps(96),
                Rate::from_kbps(24),
                Duration::from_secs(8),
                Time::from_secs(secs),
            ),
        )],
        policies: vec![AdaptPolicyKind::LadderImmediate],
        controllers: vec![AIMD, ControllerKind::RateBased],
        secs,
        seeds: vec![7],
    };
    sweep(fig, experiment, emit_vat)
}

fn emit_vat(fig: &Figure, result: &ExperimentResult) -> OutputSet {
    let mut dat = DatFile::new(
        "vat_audio: per-cell scalars\n\
         columns: delivery_fraction  mean_send_age_ms  policer_drops  buffer_drops  oscillation_per_min",
    );
    dat.block(
        "cells (one row per controller)",
        &[
            "delivery_fraction",
            "mean_send_age_ms",
            "policer_drops",
            "buffer_drops",
            "oscillation_per_min",
        ],
    );
    for cell in &result.cells {
        let get = |k: &str| {
            cell.extra
                .iter()
                .find(|(n, _)| *n == k)
                .map(|&(_, v)| v)
                .unwrap_or(f64::NAN)
        };
        dat.row(&[
            get("delivery_fraction"),
            get("mean_send_age_ms"),
            get("policer_drops"),
            get("buffer_drops"),
            cell.stats.oscillation_per_min(),
        ]);
    }
    let mut doc = figure_doc(fig, result);
    doc.section("Policer behaviour per controller");
    doc.table(&cells_table(result));
    doc.para(
        "The policer engages on the constrained half-periods (delivery fraction \
falls below 1) while the mean frame age stays interactive \u{2014} load is shed \
*before* the buffers, the paper's Figure 2 architecture.",
    );
    finish(fig, cells_csv(result), dat, doc)
}

// ---------------------------------------------------------------------
// §3.5 co-scheduling: web + streamer sharing one macroflow
// ---------------------------------------------------------------------

const CO_SCHEDULING: Figure = Figure {
    name: "co_scheduling",
    title: "Web transfer and layered streamer co-scheduled in one macroflow",
    paper_ref: "\u{a7}3.5: a server sending a document and a real-time stream to one \
client; both flows share the macroflow and the scheduler apportions bandwidth",
    description: "A continuously backlogged web transfer (weight 1) and the ALF \
layered streamer (weight 3) from one host to one destination: the default \
per-destination aggregation puts both flows on a single macroflow, and the \
weighted round-robin scheduler divides its grants 1:3. On/off cross traffic \
squeezes the bottleneck; both applications adapt jointly \u{2014} the streamer \
drops layers while the web flow's reported share shrinks in proportion \u{2014} \
and the measured steady-state byte shares must track the configured weights \
within 5%.",
    run: co_scheduling,
};

fn co_scheduling(fig: &Figure, smoke: bool) -> FigureRun {
    let secs = if smoke { 12 } else { 30 };
    let experiment = Experiment {
        app: AppKind::CoSchedule,
        schedules: vec![NamedSchedule::new(
            "onoff_8mbps_minus_6mbps",
            BandwidthSchedule::on_off(
                Rate::from_mbps(8),
                Rate::from_mbps(6),
                Time::from_secs(4),
                Duration::from_secs(4),
                Duration::from_secs(4),
                Time::from_secs(secs),
            ),
        )],
        policies: vec![AdaptPolicyKind::LadderImmediate],
        controllers: vec![AIMD],
        secs,
        seeds: vec![42],
    };
    sweep(fig, experiment, emit_co_scheduling)
}

/// A cell's named extra scalar (`NaN` when absent).
pub fn extra_scalar(cell: &CellOutcome, name: &str) -> f64 {
    cell.extra
        .iter()
        .find(|(k, _)| *k == name)
        .map(|&(_, v)| v)
        .unwrap_or(f64::NAN)
}

fn emit_co_scheduling(fig: &Figure, result: &ExperimentResult) -> OutputSet {
    let layers = LayeredStreamer::default_layers();
    let mut dat = DatFile::new(
        "co_scheduling: per-flow tracks plus share accuracy\n\
         even blocks: streamer track (time_s  cm_rate_KBps  level  level_rate_KBps)\n\
         odd blocks: web track (time_s  cm_rate_KBps)\n\
         final block: steady-state shares vs configured weights",
    );
    for cell in &result.cells {
        dat.block(
            &format!("streamer track: {} seed {}", cell.schedule, cell.seed),
            &["t_s", "cm_rate_KBps", "level", "level_rate_KBps"],
        );
        for q in &cell.track {
            dat.row(&[
                q.t_secs,
                q.cm_rate_kbps,
                q.level as f64,
                layers[q.level].as_kbytes_per_sec(),
            ]);
        }
        dat.block(
            &format!("web track: {} seed {}", cell.schedule, cell.seed),
            &["t_s", "cm_rate_KBps"],
        );
        for q in &cell.aux_track {
            dat.row(&[q.t_secs, q.cm_rate_kbps]);
        }
    }
    dat.block(
        "steady-state shares (one row per cell)",
        &[
            "web_share",
            "web_target",
            "stream_share",
            "stream_target",
            "share_err_pct",
        ],
    );
    for cell in &result.cells {
        dat.row(&[
            extra_scalar(cell, "web_share"),
            extra_scalar(cell, "web_target"),
            extra_scalar(cell, "stream_share"),
            extra_scalar(cell, "stream_target"),
            extra_scalar(cell, "share_err_pct"),
        ]);
    }

    let mut doc = figure_doc(fig, result);
    doc.section("Share accuracy vs configured weights");
    let mut t = Table::new(&[
        "schedule",
        "macroflows",
        "web share",
        "web target",
        "stream share",
        "stream target",
        "err (pct pts)",
    ]);
    let mut worst_err = 0.0f64;
    for cell in &result.cells {
        let err = extra_scalar(cell, "share_err_pct");
        worst_err = worst_err.max(err);
        t.row(&[
            &cell.schedule,
            &fmt_f64(extra_scalar(cell, "macroflows")),
            &fmt_f64(extra_scalar(cell, "web_share")),
            &fmt_f64(extra_scalar(cell, "web_target")),
            &fmt_f64(extra_scalar(cell, "stream_share")),
            &fmt_f64(extra_scalar(cell, "stream_target")),
            &fmt_f64(err),
        ]);
    }
    doc.table(&t);
    doc.para(&format!(
        "**Worst-case share error: {} percentage points** (acceptance bound: 5). \
Both flows stay backlogged, so the weighted round-robin scheduler alone decides \
the byte split inside the shared macroflow \u{2014} the \u{a7}3.5 claim that one \
congestion controller can serve a document and a stream at administratively \
chosen shares. The streamer's quality track shows the joint adaptation: each \
cross-traffic burst squeezes the macroflow, the streamer's 3/4 share falls with \
it, and the layer drops \u{2014} then recovers when the burst ends.",
        fmt_f64(worst_err),
    ));
    doc.section("Streamer adaptation per cell");
    doc.table(&cells_table(result));
    finish(fig, cells_csv(result), dat, doc)
}

// ---------------------------------------------------------------------
// Robustness: goodput and recovery under hostile networks and apps
// ---------------------------------------------------------------------

const ROBUSTNESS: Figure = Figure {
    name: "robustness",
    title: "CM goodput and recovery under hostile networks and misbehaving apps",
    paper_ref: "beyond the paper: \u{a7}5's trust discussion made operational \u{2014} \
the CM must degrade gracefully when the network or a co-located application misbehaves",
    description: "One honest bulk TCP/CM transfer replayed under the chaos \
harness's fault conditions: clean (baseline), Gilbert-Elliott bursty loss, hard \
link flaps, a recorded flaky-cellular bandwidth trace, and two hostile \
co-located applications (a grant hoarder and a crash-without-close). Every run \
steps the simulation in one-second slices and asserts the CM's structural \
invariants \u{2014} no leaked slab slots, outstanding-byte conservation, bounded \
windows \u{2014} so the figure doubles as the chaos harness's determinism \
anchor. The degradation counters show which defense absorbed each fault: grant \
reclaim and backoff for the hoarder, orphan reaping for the crash, feedback \
validation for bogus reports.",
    run: robustness,
};

// Identical in smoke and full mode — six ~70-simulated-second runs.
fn robustness(fig: &Figure, _smoke: bool) -> FigureRun {
    let rows = crate::chaos::robustness_rows();
    let mut dat = DatFile::new(
        "robustness: honest-transfer goodput and recovery under faults\n\
         columns: row  goodput_kbps  elapsed_s  penalty_s  grants_reclaimed  flows_reaped",
    );
    dat.block(
        "goodput and recovery per condition",
        &[
            "row",
            "goodput_kbps",
            "elapsed_s",
            "penalty_s",
            "grants_reclaimed",
            "flows_reaped",
        ],
    );
    for (i, r) in rows.iter().enumerate() {
        dat.row(&[
            i as f64,
            r.goodput_kbps,
            r.elapsed_s,
            r.penalty_s,
            r.stats.grants_reclaimed as f64,
            r.stats.flows_reaped as f64,
        ]);
    }

    let mut doc = FigureDoc::new(fig.title, fig.paper_ref, fig.description);
    doc.para(
        "*Generated by `cargo run --release -p cm-experiments --bin figures`. \
Deterministic: every condition is a fixed fault plan replayed on the seeded \
simulator; rerunning reproduces this file byte for byte. The seeded-sweep \
version of the same harness runs via `cargo run --release -p cm-experiments \
--bin chaos`.*",
    );
    doc.section("Honest transfer under each condition");
    let mut t = Table::new(&[
        "condition",
        "goodput (kbit/s)",
        "completed",
        "elapsed (s)",
        "recovery penalty (s)",
    ]);
    for r in &rows {
        t.row(&[
            r.label,
            &fmt_f64(r.goodput_kbps),
            if r.completed { "yes" } else { "no" },
            &fmt_f64(r.elapsed_s),
            &fmt_f64(r.penalty_s),
        ]);
    }
    doc.table(&t);
    doc.section("Which defense absorbed the fault");
    let mut d = Table::new(&[
        "condition",
        "grants reclaimed",
        "grant backoffs",
        "feedback rejected",
        "feedback clamped",
        "flows quarantined",
        "flows reaped",
    ]);
    for r in &rows {
        d.row(&[
            r.label,
            &r.stats.grants_reclaimed.to_string(),
            &r.stats.grant_backoffs.to_string(),
            &r.stats.feedback_rejected.to_string(),
            &r.stats.feedback_clamped.to_string(),
            &r.stats.flows_quarantined.to_string(),
            &r.stats.flows_reaped.to_string(),
        ]);
    }
    doc.table(&d);
    doc.section("Conditions");
    for r in &rows {
        doc.para(&format!("* **{}** \u{2014} {}", r.label, r.detail));
    }
    let hoard = rows.iter().find(|r| r.label == "hostile_hoard");
    let crash = rows.iter().find(|r| r.label == "hostile_crash");
    if let (Some(h), Some(c)) = (hoard, crash) {
        doc.para(&format!(
            "**Every condition completes the honest transfer with the CM's \
structural invariants green at every one-second checkpoint.** The grant \
hoarder forces {} reclaim(s) and {} backoff escalation(s) yet the honest \
transfer still finishes; the crashed client leaks its flow until orphan \
reaping returns the slot ({} flow(s) reaped) \u{2014} the \u{a7}5 trust \
argument, measured: an ensemble member can be hostile without taking the \
host's other traffic down with it.",
            h.stats.grants_reclaimed, h.stats.grant_backoffs, c.stats.flows_reaped,
        ));
    }
    let mut csv = String::from(
        "condition,goodput_kbps,completed,elapsed_s,penalty_s,grants_reclaimed,\
grant_backoffs,feedback_rejected,feedback_clamped,flows_quarantined,flows_reaped\n",
    );
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            r.label,
            fmt_f64(r.goodput_kbps),
            r.completed,
            fmt_f64(r.elapsed_s),
            fmt_f64(r.penalty_s),
            r.stats.grants_reclaimed,
            r.stats.grant_backoffs,
            r.stats.feedback_rejected,
            r.stats.feedback_clamped,
            r.stats.flows_quarantined,
            r.stats.flows_reaped,
        ));
    }
    finish(fig, csv, dat, doc).into()
}

// ---------------------------------------------------------------------
// Decision timeline: one hostile day, flight-recorded end to end
// ---------------------------------------------------------------------

/// Replays a scripted hostile session against a tracing-enabled CM and
/// returns it with every decision still in the flight recorder: clean
/// window growth, a transient-congestion signal, a hostile client
/// rejected and quarantined by feedback validation, a grant hoarder
/// driven into reclaim and backoff, a feedback-free write-off, and the
/// orphan reaper. Fixed timestamps throughout — the figure regenerates
/// byte-identically.
#[expect(
    clippy::expect_used,
    reason = "fixed-timestamp script — a CmError means the figure script itself is wrong"
)]
pub fn decision_timeline_cm() -> cm_core::CongestionManager {
    decision_timeline_script().expect("decision-timeline script")
}

fn decision_timeline_script() -> Result<cm_core::CongestionManager, cm_core::CmError> {
    use cm_core::config::TracingConfig;
    use cm_core::prelude::*;

    let mut cm = CongestionManager::new(CmConfig {
        pacing: false,
        orphan_timeout: Some(Duration::from_secs(10)),
        tracing: Some(TracingConfig { capacity: 512 }),
        ..Default::default()
    });
    let key =
        |sport: u16, daddr: u32| FlowKey::new(Endpoint::new(1, sport), Endpoint::new(daddr, 80));
    let mut now = Time::ZERO;
    let honest = cm.open(key(1000, 9), now)?;
    let hostile = cm.open(key(1001, 9), now)?;
    let hoarder = cm.open(key(1002, 7), now)?;
    let mut notes = Vec::new();

    // Clean growth: a steady request → grant → notify → ack rhythm on
    // both macroflows.
    for _ in 0..6 {
        cm.request(honest, now)?;
        cm.request(hoarder, now)?;
        notes.clear();
        cm.drain_notifications_into(&mut notes);
        for n in &notes {
            if let CmNotification::SendGrant { flow } = n {
                cm.notify(*flow, 1460, now)?;
            }
        }
        now += Duration::from_millis(50);
        cm.update(
            honest,
            FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(50)),
            now,
        )?;
        cm.update(
            hoarder,
            FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(80)),
            now,
        )?;
    }

    // Transient congestion on the shared macroflow.
    cm.update(honest, FeedbackReport::loss(LossMode::Transient, 1460), now)?;
    now += Duration::from_millis(50);

    // A hostile client: one insane RTT sample (stripped, report kept),
    // then impossible byte counts until feedback validation quarantines
    // the flow.
    let _ = cm.update(
        hostile,
        FeedbackReport::ack(0, 1).with_rtt(Duration::from_secs(9_000)),
        now,
    );
    for _ in 0..9 {
        now += Duration::from_millis(10);
        let _ = cm.update(hostile, FeedbackReport::ack(u64::MAX / 4, 1), now);
    }

    // A grant hoarder: requests granted and never notified, until the
    // maintenance timer reclaims them and arms the backoff. The honest
    // flow is queried each round so the orphan reaper (10 s timeout)
    // only collects the now-silent hostile client here.
    for _ in 0..4 {
        cm.request(hoarder, now)?;
        let _ = cm.query(honest, now);
        notes.clear();
        cm.drain_notifications_into(&mut notes);
        now += Duration::from_secs(5);
        cm.tick(now);
    }
    cm.close(hoarder, now)?;

    // Silence: the honest flow's last burst gets no feedback, so the
    // write-off fires (with its persistent-congestion signal) and the
    // orphan reaper collects what remains.
    cm.request(honest, now)?;
    notes.clear();
    cm.drain_notifications_into(&mut notes);
    for n in &notes {
        // The drain may also carry a stale grant for the just-closed
        // hoarder (its backoff lapsed on the final tick); skip it.
        if let CmNotification::SendGrant { flow } = n {
            if *flow == honest {
                cm.notify(*flow, 1460, now)?;
            }
        }
    }
    now += Duration::from_secs(30);
    cm.tick(now);
    now += Duration::from_secs(30);
    cm.tick(now);
    notes.clear();
    cm.drain_notifications_into(&mut notes);
    Ok(cm)
}

const DECISION_TIMELINE: Figure = Figure {
    name: "decision_timeline",
    title: "One hostile session, flight-recorded end to end",
    paper_ref: "beyond the paper: the observability layer \u{2014} every CM decision \
class from \u{a7}2's grant loop to \u{a7}5's trust defenses, captured by the flight recorder",
    description: "A scripted session replayed against a tracing-enabled CM: clean \
window growth, a transient-congestion signal, a hostile client stripped and \
quarantined by feedback validation, a grant hoarder driven into reclaim and \
backoff, a feedback-free write-off with its persistent-congestion signal, and \
the orphan reaper. The CSV/JSONL files are the flight recorder's dump \u{2014} \
the same decision trail a failing chaos run attaches to its report \u{2014} and \
the event vocabulary is the tracer's full taxonomy in action.",
    run: decision_timeline,
};

// Identical in smoke and full mode — the replay takes microseconds.
fn decision_timeline(fig: &Figure, _smoke: bool) -> FigureRun {
    let cm = decision_timeline_cm();
    let csv = crate::trace::trace_csv(&cm);
    let jsonl = crate::trace::trace_jsonl(&cm);
    let counts = crate::trace::kind_counts(&cm);

    // The .dat timeline: one row per event, kind encoded as its index in
    // first-appearance order (the legend block maps indices back).
    let mut dat = DatFile::new(
        "decision_timeline: every flight-recorder event of the scripted session\n\
         block 0: t_s  kind_index (kinds indexed by first appearance)\n\
         block 1: kind_index  count",
    );
    dat.block("events over time", &["t_s", "kind_index"]);
    let mut rows: Vec<(f64, f64)> = Vec::new();
    cm.for_each_trace_record(|_, r| {
        let kind = r.event.kind();
        let idx = counts.iter().position(|(k, _)| *k == kind).unwrap_or(0);
        rows.push((r.at.as_secs_f64(), idx as f64));
    });
    rows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    for (t, idx) in &rows {
        dat.row(&[*t, *idx]);
    }
    dat.block("event counts by kind", &["kind_index", "count"]);
    for (i, (_, n)) in counts.iter().enumerate() {
        dat.row(&[i as f64, *n as f64]);
    }

    let mut doc = FigureDoc::new(fig.title, fig.paper_ref, fig.description);
    doc.para(
        "*Generated by `cargo run --release -p cm-experiments --bin figures`. \
Deterministic: the script drives `cm-core` directly with fixed timestamps, so \
rerunning reproduces every file \u{2014} including the JSONL dump \u{2014} byte \
for byte. See `docs/observability.md` for the event taxonomy and how to enable \
the recorder in your own runs.*",
    );
    doc.section("Event counts");
    let mut t = Table::new(&["index", "event", "count"]);
    for (i, (kind, n)) in counts.iter().enumerate() {
        t.row(&[&i.to_string(), kind, &n.to_string()]);
    }
    doc.table(&t);
    let total: u64 = counts.iter().map(|&(_, n)| n).sum();
    doc.para(&format!(
        "**{} events across {} distinct kinds**, every decision class the session \
provoked: the grant loop (`grant_issued`), controller signals \
(`congestion_transient`, then the write-off's `congestion_persistent`), feedback \
validation (`feedback_clamped`, `feedback_rejected`, `flow_quarantined`), \
unresponsive-app containment (`grant_reclaimed`, `backoff_armed`, \
`backoff_lapsed`), and state lifecycle (`flow_opened`, `flow_closed`, \
`flow_reaped`, `write_off`). The full ordered dump is in \
`decision_timeline.csv` (spreadsheet form) and `decision_timeline.jsonl` (one \
JSON object per event).",
        total,
        counts.len(),
    ));

    let mut out = finish(fig, csv, dat, doc);
    out.add("decision_timeline.jsonl", jsonl);
    out.into()
}

// ---------------------------------------------------------------------
// Shared emission helpers
// ---------------------------------------------------------------------

fn figure_doc(fig: &Figure, result: &ExperimentResult) -> FigureDoc {
    let spec = &result.spec;
    let mut doc = FigureDoc::new(fig.title, fig.paper_ref, fig.description);
    doc.para(&format!(
        "*Generated by `cargo run --release -p cm-experiments --bin figures` \
({} cells: {} schedule(s) \u{d7} {} policy(ies) \u{d7} {} controller(s) \u{d7} \
{} seed(s), {} simulated seconds each). Deterministic: rerunning reproduces \
this file byte for byte.*",
        result.cells.len(),
        spec.schedules.len(),
        spec.policies.len(),
        spec.controllers.len(),
        spec.seeds.len(),
        spec.secs,
    ));
    doc
}

fn cells_table(result: &ExperimentResult) -> Table {
    let extra_cols: Vec<&str> = result
        .cells
        .first()
        .map(|c| c.extra.iter().map(|&(k, _)| k).collect())
        .unwrap_or_default();
    let mut headers = vec![
        "schedule",
        "policy",
        "controller",
        "seed",
        "delivered KB",
        "switches",
        "osc/min",
        "mean utility",
    ];
    headers.extend(&extra_cols);
    let mut t = Table::new(&headers);
    for cell in &result.cells {
        let mut cells: Vec<String> = vec![
            cell.schedule.clone(),
            cell.policy.to_string(),
            cell.controller.to_string(),
            cell.seed.to_string(),
            (cell.delivered / 1000).to_string(),
            cell.stats.switches.to_string(),
            fmt_f64(cell.stats.oscillation_per_min()),
            fmt_f64(cell.stats.mean_utility()),
        ];
        for &(_, v) in &cell.extra {
            cells.push(fmt_f64(v));
        }
        let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
        t.row(&refs);
    }
    t
}

fn fleet_table(result: &ExperimentResult) -> Table {
    let mut t = Table::new(&[
        "group",
        "sessions",
        "switches/min",
        "osc/min",
        "osc p5/min",
        "osc p95/min",
        "mean utility",
        "utility p5",
        "utility p95",
        "top-level time %",
    ]);
    for (group, fleet) in &result.fleets {
        let top = fleet.time_in_level().len().saturating_sub(1);
        t.row(&[
            group,
            &fleet.sessions().to_string(),
            &fmt_f64(fleet.switches_per_min()),
            &fmt_f64(fleet.oscillation_per_min()),
            &fmt_f64(fleet.oscillation.percentile(5.0)),
            &fmt_f64(fleet.oscillation.percentile(95.0)),
            &fmt_f64(fleet.mean_utility()),
            &fmt_f64(fleet.utility.percentile(5.0)),
            &fmt_f64(fleet.utility.percentile(95.0)),
            &fmt_f64(fleet.fraction_in_level(top) * 100.0),
        ]);
    }
    t
}

fn phase_table(result: &ExperimentResult) -> Table {
    let mut t = Table::new(&[
        "schedule",
        "phase",
        "sched rate KB/s",
        "mean level",
        "mean CM rate KB/s",
    ]);
    for cell in &result.cells {
        for (i, p) in cell.phases.iter().enumerate() {
            t.row(&[
                &cell.schedule,
                &format!("{i}: {}-{} s", fmt_f64(p.start_secs), fmt_f64(p.end_secs)),
                &p.sched_rate_kbps.map(fmt_f64).unwrap_or_else(|| "-".into()),
                &fmt_f64(p.mean_level),
                &fmt_f64(p.mean_cm_rate_kbps),
            ]);
        }
    }
    t
}

fn cells_csv(result: &ExperimentResult) -> String {
    cells_table(result).to_csv()
}

/// The three files every figure emits.
pub(crate) fn finish(fig: &Figure, csv: String, dat: DatFile, doc: FigureDoc) -> OutputSet {
    let name = fig.name;
    let mut out = OutputSet::new();
    out.add(&format!("{name}.csv"), csv);
    out.add(&format!("{name}.dat"), dat.render());
    out.add(&format!("{name}.md"), doc.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scripted decision-timeline session must keep provoking every
    /// major event class, or the figure silently loses taxonomy
    /// coverage.
    #[test]
    fn decision_timeline_covers_the_event_taxonomy() {
        let cm = decision_timeline_cm();
        let counts = crate::trace::kind_counts(&cm);
        for expected in [
            "shard_created",
            "flow_opened",
            "grant_issued",
            "feedback_accepted",
            "congestion_transient",
            "feedback_clamped",
            "feedback_rejected",
            "flow_quarantined",
            "grant_reclaimed",
            "backoff_armed",
            "backoff_lapsed",
            "write_off",
            "congestion_persistent",
            "flow_closed",
            "flow_reaped",
            "tick",
        ] {
            assert!(
                counts.iter().any(|(k, _)| *k == expected),
                "scripted session no longer provokes {expected}: {counts:?}"
            );
        }
    }
}
