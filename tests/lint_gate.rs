//! The workspace lint gate: `cargo test -q` fails if any first-party
//! source breaks cm-lint's R1 (hot-path allocation) or R4 (ring slots,
//! worker loops) rules, misuses a `lint:` directive (R0), or if a file on
//! a required-marker list was never scanned (docs/lint.md). Panics in
//! library code and determinism are clippy's job, `unsafe` is rustc's.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let diagnostics = cm_lint::run_workspace(Path::new(env!("CARGO_MANIFEST_DIR")));
    if !diagnostics.is_empty() {
        let mut report = String::new();
        for d in &diagnostics {
            report.push_str(&format!("{d}\n"));
        }
        panic!(
            "cm-lint: {} unsuppressed diagnostic(s)\n{report}\
             fix the violation or add a single-line `// lint:allow(R1|R4): <reason>` \
             on (or directly above) the flagged line",
            diagnostics.len()
        );
    }
}
