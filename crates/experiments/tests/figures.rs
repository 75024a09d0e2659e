//! End-to-end checks on the built-in figure pipeline (smoke geometry):
//! determinism of every figure, the paper's Table 1 / Figure 3 / Figure 5 /
//! Figure 7 results, and that `docs/figures/` holds exactly the figures' files.
//! The adaptation figures' cell-level checks are unit tests in
//! `builtin.rs`, next to the cells they read.

use cm_experiments::builtin;
use cm_experiments::Figure;

fn figure(name: &str) -> &'static Figure {
    builtin::FIGURES
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no builtin figure named {name}"))
}

/// The first table of a figure's CSV: `(label, numeric columns)` per row.
fn csv_rows(name: &str, smoke: bool) -> Vec<(String, Vec<f64>)> {
    let files = figure(name).run(smoke);
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
    // Two independent runs of every figure must emit identical bytes —
    // the property that makes `git diff docs/figures` meaningful.
    for fig in builtin::FIGURES {
        let name = fig.name;
        let (out1, out2) = (fig.run(true), fig.run(true));
        let files = if name == "decision_timeline" { 4 } else { 3 };
        assert_eq!(
            out1.files().len(),
            files,
            "{name}: csv + dat + md (+ jsonl)"
        );
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

/// Figure 5: per KB sent, TCP/CM costs at least what TCP/Linux does, and
/// at TCP/Linux's throughput the difference stays under 1.5 percentage
/// points at the longest run (the paper: "slightly less than 1%").
#[test]
fn fig5_cm_costs_more_per_kb_and_under_1_5_points_at_equal_rate() {
    let rows = csv_rows("fig5", true);
    assert_eq!(rows.len(), 2);
    for (buffers, cols) in &rows {
        let (cm_kb, linux_kb) = (cols[3], cols[4]);
        assert!(
            cm_kb >= linux_kb,
            "{buffers} buffers: TCP/CM {cm_kb} us/KB below TCP/Linux {linux_kb}"
        );
    }
    let equal_rate = rows[rows.len() - 1].1[5];
    assert!(
        equal_rate < 1.5,
        "equal-rate difference {equal_rate} pp at the longest run"
    );
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
