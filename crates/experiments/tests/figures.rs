//! End-to-end checks on the built-in figure pipeline (smoke geometry):
//! determinism, the paper's Table 1 / Figure 3 / Figure 7 results, the
//! Figure 8/9 immediate-ladder invariant, and the frontier's hysteresis
//! gap.

use cm_experiments::builtin::{
    self, bundled_traces, extra_scalar, hysteresis_gap, immediate_track_mismatches,
};
use cm_experiments::report::OutputSet;
use cm_experiments::{ExperimentResult, Figure};
use cm_netsim::schedule::BandwidthSchedule;

fn figure(name: &str) -> &'static Figure {
    builtin::FIGURES
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no builtin figure named {name}"))
}

/// Runs a sweep figure in smoke geometry.
fn run_figure(fig: &Figure) -> (ExperimentResult, OutputSet) {
    let run = fig.run(true);
    (run.sweep.expect("a sweep figure"), run.files)
}

/// The first table of a figure's CSV: `(label, numeric columns)` per row.
fn csv_rows(name: &str, smoke: bool) -> Vec<(String, Vec<f64>)> {
    let files = figure(name).run(smoke).files;
    let (_, csv) = files
        .files()
        .iter()
        .find(|(n, _)| *n == format!("{name}.csv"))
        .expect("csv emitted");
    csv.lines()
        .skip_while(|l| l.starts_with('#'))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let mut cells = l.split(',');
            let label = cells.next().unwrap().to_string();
            (label, cells.map(|c| c.parse().unwrap()).collect())
        })
        .collect()
}

#[test]
fn figure_output_is_byte_deterministic() {
    // Two independent runs of the same figure must emit identical bytes
    // — the property that makes `git diff docs/figures` meaningful.
    for name in [
        "fig8_9_layered",
        "fig3",
        "conn_setup",
        "fig4",
        "fig5",
        "fig6",
        "table1",
        "fig7",
        "fig10",
        "ablations",
    ] {
        let fig = figure(name);
        let (out1, out2) = (fig.run(true).files, fig.run(true).files);
        assert_eq!(out1.files().len(), 3, "{name}: csv + dat + md");
        assert_eq!(
            out1.concat(),
            out2.concat(),
            "{name}: output differed between two identical runs"
        );
    }
}

/// Table 1: each API performs exactly the per-packet operations the paper
/// attributes to it.
#[test]
fn table1_operation_counts_are_exact() {
    let rows = csv_rows("table1", true);
    // syscalls, ioctls, selects, gettimeofday per packet.
    let expected = [
        ("Buffered", [2.0, 1.0, 0.0, 2.0]),
        ("ALF", [2.0, 3.0, 1.0, 2.0]),
        ("ALF/noconnect", [2.0, 4.0, 1.0, 2.0]),
    ];
    assert_eq!(rows.len(), expected.len());
    for ((label, counts), (api, want)) in rows.iter().zip(expected) {
        assert_eq!(label, api);
        assert_eq!(counts[..], want, "{api}");
    }
}

/// Figure 3: both curves fall with loss and TCP/CM tracks TCP/Linux once
/// loss, not the window, limits throughput.
#[test]
fn fig3_cm_tracks_linux_and_both_fall_with_loss() {
    // Full geometry: one 500 KB transfer per point (smoke) is too noisy
    // for a monotone curve.
    let rows = csv_rows("fig3", false);
    assert_eq!(rows.len(), 9);
    for pair in rows.windows(2) {
        for col in 0..2 {
            assert!(
                pair[1].1[col] < pair[0].1[col],
                "column {col} rose from loss {} to {}",
                pair[0].0,
                pair[1].0
            );
        }
    }
    for (loss, kbs) in &rows {
        if loss.parse::<f64>().unwrap() >= 0.5 {
            let ratio = kbs[0] / kbs[1];
            assert!(
                (0.8..=1.25).contains(&ratio),
                "at {loss}% loss TCP/CM is {ratio:.2}x TCP/Linux"
            );
        }
    }
}

/// Figure 7: later TCP/CM requests reuse the macroflow's state; TCP/Linux
/// slow-starts every time.
#[test]
fn fig7_cm_requests_speed_up_and_linux_stays_flat() {
    let rows = csv_rows("fig7", true);
    assert_eq!(rows.len(), 9);
    let cm: Vec<f64> = rows.iter().map(|(_, ms)| ms[0]).collect();
    let linux: Vec<f64> = rows.iter().map(|(_, ms)| ms[1]).collect();
    assert!(cm[8] < cm[0], "request 9 ({}) vs 1 ({})", cm[8], cm[0]);
    let (lo, hi) = linux
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    assert!(hi / lo < 1.02, "TCP/Linux spread {lo}..{hi} ms");
}

#[test]
fn fig8_9_quality_track_matches_immediate_ladder() {
    // The acceptance invariant: under the immediate policy every track
    // sample's level equals the ladder's layer_for of the reported rate
    // (the LadderConfig::immediate() unit-test semantics, end to end).
    let (result, out) = run_figure(figure("fig8_9_layered"));
    assert_eq!(result.cells.len(), 2);
    for cell in &result.cells {
        assert!(
            cell.track.len() > 20,
            "{}: track too short ({})",
            cell.schedule,
            cell.track.len()
        );
        assert!(
            cell.stats.switches >= 2,
            "{}: streamer never adapted",
            cell.schedule
        );
        assert_eq!(
            immediate_track_mismatches(cell),
            0,
            "{}: quality track deviated from layer_for",
            cell.schedule
        );
    }
    let md = out
        .files()
        .iter()
        .find(|(n, _)| n == "fig8_9_layered.md")
        .map(|(_, c)| c.as_str())
        .expect("markdown report emitted");
    assert!(
        md.contains("**0 of"),
        "report does not state zero mismatches"
    );
}

#[test]
fn frontier_report_shows_the_hysteresis_gap() {
    let (result, out) = run_figure(figure("policy_frontier"));
    let (immediate, damped) = hysteresis_gap(&result).expect("both AIMD groups present");
    assert!(
        damped < immediate,
        "hysteresis gap inverted: damped {damped} >= immediate {immediate}"
    );
    let md = out
        .files()
        .iter()
        .find(|(n, _)| n == "policy_frontier.md")
        .map(|(_, c)| c.as_str())
        .expect("markdown report emitted");
    assert!(
        md.contains("Hysteresis-vs-immediate oscillation gap"),
        "report omits the documented gap"
    );
    // Percentile bands across sessions (satellite): the report table
    // and the .dat frontier block both carry p5/p95 columns.
    assert!(md.contains("osc p5/min"), "report lacks the p5 band column");
    assert!(
        md.contains("utility p95"),
        "report lacks the p95 band column"
    );
    // The .dat frontier block has one point per policy/controller group.
    let dat = out
        .files()
        .iter()
        .find(|(n, _)| n == "policy_frontier.dat")
        .map(|(_, c)| c.as_str())
        .unwrap();
    assert!(dat.contains("# index 0: frontier"));
    assert!(
        dat.contains("osc_p5_per_min") && dat.contains("utility_p95_KBps"),
        "frontier .dat lacks the percentile band columns"
    );
}

#[test]
fn bundled_traces_parse_and_replay_degrades_and_recovers() {
    for (name, text) in bundled_traces() {
        let s = BandwidthSchedule::parse_trace(text)
            .unwrap_or_else(|e| panic!("bundled trace {name}: {e}"));
        assert!(!s.is_empty(), "{name} empty");
    }
    // The bursty Wi-Fi trace round-trips with its step structure intact:
    // a contention burst, the microwave near-outage, and the recovery.
    let wifi = bundled_traces()
        .into_iter()
        .find(|(n, _)| *n == "wifi_cafe")
        .map(|(_, t)| BandwidthSchedule::parse_trace(t).unwrap())
        .expect("wifi_cafe bundled");
    use cm_util::{Rate, Time};
    assert_eq!(wifi.rate_at(Time::from_secs(1)), Some(Rate::from_mbps(24)));
    assert_eq!(
        wifi.rate_at(Time::from_millis(12_500)),
        Some(Rate::from_mbps(1)),
        "microwave burst missing"
    );
    assert_eq!(
        wifi.rate_at(Time::from_millis(13_500)),
        Some(Rate::from_kbps(800))
    );
    assert_eq!(wifi.rate_at(Time::from_secs(40)), Some(Rate::from_mbps(27)));

    let (result, _) = run_figure(figure("trace_replay"));
    // One cell per trace x policy (3 policies).
    assert_eq!(result.cells.len(), bundled_traces().len() * 3);
    for cell in &result.cells {
        assert!(
            cell.delivered > 0,
            "{} / {}: nothing delivered",
            cell.schedule,
            cell.policy
        );
    }
}

/// The §3.5 co-scheduling acceptance: the web transfer and the layered
/// streamer land on ONE macroflow, the streamer visibly adapts as cross
/// traffic squeezes the link, and the steady-state byte shares track
/// the configured 1:3 weights within 5 percentage points. Generation is
/// byte-deterministic like every other figure.
#[test]
fn co_scheduling_shares_track_weights_within_5pct() {
    let fig = figure("co_scheduling");
    let (result, out) = run_figure(fig);
    assert!(!result.cells.is_empty());
    for cell in &result.cells {
        assert_eq!(
            extra_scalar(cell, "macroflows"),
            1.0,
            "{}: flows did not share one macroflow",
            cell.schedule
        );
        let err = extra_scalar(cell, "share_err_pct");
        assert!(
            err < 5.0,
            "{}: share error {err} percentage points exceeds the 5% bound",
            cell.schedule
        );
        assert!(
            cell.stats.switches >= 2,
            "{}: streamer never adapted under cross traffic",
            cell.schedule
        );
        assert!(
            !cell.track.is_empty() && !cell.aux_track.is_empty(),
            "{}: missing a per-flow track",
            cell.schedule
        );
    }
    let md = out
        .files()
        .iter()
        .find(|(n, _)| n == "co_scheduling.md")
        .map(|(_, c)| c.as_str())
        .expect("markdown report emitted");
    assert!(md.contains("Worst-case share error"));
    // Deterministic generation, same as the other figures.
    let (_, out2) = run_figure(fig);
    assert_eq!(out.concat(), out2.concat());
}

/// `docs/figures/` holds exactly what the `figures` binary writes: its
/// index, three files per entry of `FIGURES`, and the decision
/// timeline's JSONL. The binary never deletes a file, so a retired
/// figure whose outputs were left behind would otherwise pass the
/// regenerate-and-diff check unnoticed.
#[test]
fn docs_figures_holds_exactly_the_builtin_outputs() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/figures");
    let present: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    let expected: Vec<String> = builtin::FIGURES
        .iter()
        .flat_map(|f| ["csv", "dat", "md"].map(|ext| format!("{}.{ext}", f.name)))
        .chain(["README.md".into(), "decision_timeline.jsonl".into()])
        .collect();
    let stray: Vec<&String> = present.iter().filter(|f| !expected.contains(f)).collect();
    let missing: Vec<&String> = expected.iter().filter(|f| !present.contains(f)).collect();
    assert!(
        stray.is_empty() && missing.is_empty(),
        "docs/figures/: {stray:?} written by no figure, {missing:?} missing"
    );
}

#[test]
fn vat_figure_polices_below_full_delivery() {
    let (result, _) = run_figure(figure("vat_audio"));
    for cell in &result.cells {
        let delivery = cell
            .extra
            .iter()
            .find(|(k, _)| *k == "delivery_fraction")
            .map(|&(_, v)| v)
            .unwrap();
        assert!(
            delivery > 0.1 && delivery < 1.0,
            "{}: policer never engaged (delivery {delivery})",
            cell.controller
        );
    }
}
