//! `cm-lint`: the workspace's hot-path and ring-message markers.
//!
//! The CM's performance story rests on rules that used to live only in
//! prose (docs/perf.md, docs/architecture.md) and in a handful of
//! counting-allocator tests: flat-state hot paths and the message-ring
//! discipline. This crate makes them *mechanical*: a dependency-free,
//! comment- and string-aware scan over every first-party Rust source
//! (see [`rules`] for the R1/R4 catalog and docs/lint.md for the user
//! guide), run as the root-package `lint_gate` test so `cargo test -q`
//! sweeps the whole tree. Panics in library code, determinism and
//! `unsafe` are stock clippy/rustc lints, configured in `clippy.toml`
//! and the root `Cargo.toml`.
//!
//! A static pass catches a stray `format!` or `.push()` on every line of
//! a marked region, not just the lines a runtime test happens to
//! execute — the counting-allocator tests prove a *path* clean, the
//! lint proves the *region* stays clean.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod walk;

pub use rules::{analyze, Analysis, Diagnostic, Rule};
pub use walk::{workspace_files, SourceFile};

use std::fs;
use std::path::Path;

/// Files that MUST declare at least one hot-path region: the per-packet
/// and per-event paths docs/perf.md's flat-state rules protect. A file
/// on this list with no markers fails the sweep — so the markers cannot
/// silently rot away in a refactor.
pub const REQUIRED_HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/shard.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/runtime.rs",
    "crates/core/src/ring.rs",
    "crates/core/src/scheduler.rs",
    "crates/netsim/src/event.rs",
    "crates/obs/src/recorder.rs",
    "crates/obs/src/metrics.rs",
    "crates/adapt/src/engine.rs",
];

/// Files that MUST mark their ring-slot types (R4 Copy check).
pub const REQUIRED_RING_SLOT_FILES: &[&str] = &["crates/core/src/runtime.rs"];

/// Files that MUST declare a worker-loop region (R4 blocking check).
pub const REQUIRED_WORKER_LOOP_FILES: &[&str] = &["crates/core/src/runtime.rs"];

/// Sweeps the workspace rooted at `root`: every unsuppressed finding,
/// sorted by (file, line, rule).
pub fn run_workspace(root: &Path) -> Vec<Diagnostic> {
    match walk::workspace_files(root) {
        Ok(files) => sweep(&files),
        Err(e) => vec![Diagnostic {
            file: root.display().to_string(),
            line: 0,
            rule: Rule::R0,
            message: format!("cannot walk workspace: {e}"),
        }],
    }
}

/// Runs the rule engine over `files` and enforces the required-marker
/// lists above — including that every listed file was scanned at all,
/// so a discovery bug cannot let a required file pass by omission.
fn sweep(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut scanned = Vec::new();
    for file in files {
        let source = match fs::read_to_string(&file.abs) {
            Ok(s) => s,
            Err(e) => {
                diags.push(Diagnostic {
                    file: file.path.clone(),
                    line: 0,
                    rule: Rule::R0,
                    message: format!("cannot read file: {e}"),
                });
                continue;
            }
        };
        let mut analysis = rules::analyze(&file.path, &source);
        diags.append(&mut analysis.diagnostics);
        require_markers(&file.path, &analysis, &mut diags);
        scanned.push(file.path.as_str());
    }
    let required = REQUIRED_HOT_PATH_FILES
        .iter()
        .chain(REQUIRED_RING_SLOT_FILES)
        .chain(REQUIRED_WORKER_LOOP_FILES);
    for &path in required {
        if !scanned.contains(&path) {
            diags.push(Diagnostic {
                file: path.to_string(),
                line: 0,
                rule: Rule::R0,
                message: "file is on a required-marker list but was never scanned \
                          (moved, renamed, or did workspace discovery break?)"
                    .into(),
            });
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    // runtime.rs sits on all three lists: report its absence once.
    diags.dedup();
    diags
}

fn require_markers(path: &str, analysis: &Analysis, diags: &mut Vec<Diagnostic>) {
    if REQUIRED_HOT_PATH_FILES.contains(&path) && analysis.hot_regions.is_empty() {
        diags.push(Diagnostic {
            file: path.to_string(),
            line: 1,
            rule: Rule::R1,
            message: "file is on the hot-path coverage list but declares no \
                      hot-path regions (markers removed?)"
                .into(),
        });
    }
    if REQUIRED_RING_SLOT_FILES.contains(&path) && analysis.ring_slot_lines.is_empty() {
        diags.push(Diagnostic {
            file: path.to_string(),
            line: 1,
            rule: Rule::R4,
            message: "file must mark its ring-slot types (markers removed?)".into(),
        });
    }
    if REQUIRED_WORKER_LOOP_FILES.contains(&path) && analysis.worker_regions.is_empty() {
        diags.push(Diagnostic {
            file: path.to_string(),
            line: 1,
            rule: Rule::R4,
            message: "file must declare its worker-loop regions (markers removed?)".into(),
        });
    }
}

/// Analyzes one workspace file (`rel` is relative to `root`), returning
/// the full [`Analysis`] (used by the marker-coverage self-tests).
pub fn analyze_workspace_file(root: &Path, rel: &str) -> std::io::Result<Analysis> {
    let source = fs::read_to_string(root.join(rel))?;
    Ok(rules::analyze(rel, &source))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_walk_missing_a_required_file_fails() {
        let never_scanned = |files: &[SourceFile]| -> Vec<String> {
            sweep(files)
                .into_iter()
                .filter(|d| d.rule == Rule::R0 && d.message.contains("never scanned"))
                .map(|d| d.file)
                .collect()
        };
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = workspace_files(&root).expect("walk");
        assert_eq!(never_scanned(&files), Vec::<String>::new());
        // runtime.rs is on all three lists and is reported once.
        let missing = ["crates/core/src/runtime.rs", "crates/core/src/shard.rs"];
        files.retain(|f| !missing.contains(&f.path.as_str()));
        assert_eq!(never_scanned(&files), missing);
    }
}
