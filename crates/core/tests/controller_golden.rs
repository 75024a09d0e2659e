//! Golden-file regression for controller decision sequences.
//!
//! Each shipped controller's full `(window, ssthresh)` decision stream
//! over the bundled feedback traces is frozen as one fingerprint line
//! per scenario in `tests/golden/<label>.golden`. The legacy kinds
//! (`aimd`, `aimd-acks`, `rate-based`) were frozen *before* the
//! delay-gradient controller landed, so these files prove the new
//! `on_rtt_sample` hook and the window cap left their
//! behaviour byte-identical; `delay-gradient` is pinned the same way so
//! future filter tweaks are deliberate, visible diffs.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p cm-core --test controller_golden
//! ```

mod common;

use common::{all_kinds, golden_line, kind_label, run_scenario, scenarios};

fn golden_path(label: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{label}.golden"))
}

fn current_lines(kind: cm_core::config::ControllerKind) -> String {
    let mut out = String::new();
    for scenario in &scenarios() {
        let run = run_scenario(kind, scenario);
        out.push_str(&golden_line(scenario, &run));
        out.push('\n');
    }
    out
}

#[test]
fn decision_sequences_match_golden_files() {
    let update = std::env::var_os("UPDATE_GOLDENS").is_some();
    for &kind in &all_kinds() {
        let label = kind_label(kind);
        let path = golden_path(label);
        let current = current_lines(kind);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &current).unwrap();
            continue;
        }
        let frozen = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); regenerate with UPDATE_GOLDENS=1",
                path.display()
            )
        });
        assert_eq!(
            frozen,
            current,
            "{label}: decision sequence diverged from the frozen golden file \
             {}; if the change is intentional, regenerate with UPDATE_GOLDENS=1",
            path.display()
        );
    }
}
