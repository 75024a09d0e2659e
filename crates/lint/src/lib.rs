//! `cm-lint`: the workspace static-analysis gate.
//!
//! The CM's performance and correctness story rests on rules that used
//! to live only in prose (docs/perf.md, docs/architecture.md) and in a
//! handful of counting-allocator tests: flat-state hot paths, byte
//! determinism of the figure pipeline, the message-ring discipline,
//! no panics in library code, no `unsafe` anywhere. This crate makes
//! those rules *mechanical*: a dependency-free, comment- and
//! string-aware scan over every Rust source in the workspace (see
//! [`rules`] for the R1–R5 catalog and docs/lint.md for the user
//! guide), run both as the `cm-lint` binary (the CI "Static analysis"
//! step) and as the root-package `lint_gate` test so `cargo test -q`
//! sweeps the whole tree.
//!
//! A static pass catches a stray `format!` or `Instant::now()` on
//! every line at compile time, not just the lines a runtime test
//! happens to execute — the counting-allocator tests prove a *path*
//! clean, the lint proves the *region* stays clean.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod walk;

pub use rules::{analyze, Analysis, Diagnostic, FileKind, FileMeta, Rule};
pub use walk::{workspace_files, SourceFile, DETERMINISTIC_CRATES};

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

/// Result of a whole-workspace sweep.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Every unsuppressed finding, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files: usize,
}

/// Sweeps the workspace rooted at `root`: walks every lintable source,
/// runs the rule engine, and enforces the required-marker coverage
/// lists above.
pub fn run_workspace(root: &Path) -> Sweep {
    let mut sweep = Sweep::default();
    let files = match walk::workspace_files(root) {
        Ok(f) => f,
        Err(e) => {
            sweep.diagnostics.push(Diagnostic {
                file: root.display().to_string(),
                line: 0,
                rule: Rule::R0,
                message: format!("cannot walk workspace: {e}"),
            });
            return sweep;
        }
    };
    for file in &files {
        let source = match fs::read_to_string(&file.abs) {
            Ok(s) => s,
            Err(e) => {
                sweep.diagnostics.push(Diagnostic {
                    file: file.meta.path.clone(),
                    line: 0,
                    rule: Rule::R0,
                    message: format!("cannot read file: {e}"),
                });
                continue;
            }
        };
        sweep.files += 1;
        let mut analysis = rules::analyze(&file.meta, &source);
        sweep.diagnostics.append(&mut analysis.diagnostics);
        require_markers(&file.meta.path, &analysis, &mut sweep.diagnostics);
    }
    sweep
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    sweep
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

/// Analyzes a single workspace file from disk, returning the full
/// [`Analysis`] (used by the marker-coverage self-tests).
pub fn analyze_workspace_file(root: &Path, rel: &str) -> std::io::Result<Analysis> {
    let files = walk::workspace_files(root)?;
    let file = files
        .iter()
        .find(|f| f.meta.path == rel)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, rel.to_string()))?;
    let source = fs::read_to_string(&file.abs)?;
    Ok(rules::analyze(&file.meta, &source))
}
