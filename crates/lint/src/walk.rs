//! Workspace discovery: which files to scan and what each one is.
//!
//! The walker mirrors cargo's target layout conventions instead of
//! parsing manifests: for every workspace member it scans `src/`
//! (library code; `src/bin/` and `src/main.rs` are binaries),
//! `tests/`, and `examples/`. Vendored stand-in crates under `vendor/`
//! are third-party shims: only the crate-root R5 check applies to them.
//! The lint fixture corpus (`crates/lint/fixtures/`) holds
//! deliberately-bad sources and is never swept.

use crate::rules::{FileKind, FileMeta};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose outputs must be byte-deterministic (golden
/// fingerprints, figure regeneration): R3 applies to their library and
/// binary code.
pub const DETERMINISTIC_CRATES: &[&str] = &["core", "netsim", "adapt", "experiments", "obs"];

/// One file to lint.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// The facts the rule engine needs (includes the relative path).
    pub meta: FileMeta,
}

/// Enumerates every lintable file under the workspace root, sorted by
/// relative path so diagnostics come out in a stable order.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();

    // Root package targets.
    collect_package(root, root, false, false, &mut out)?;

    // Workspace members under crates/.
    for dir in subdirs(&root.join("crates"))? {
        let name = dir_name(&dir);
        let deterministic = DETERMINISTIC_CRATES.contains(&name.as_str());
        collect_package(root, &dir, deterministic, false, &mut out)?;
    }

    // Vendored stand-ins: crate-root check only.
    for dir in subdirs(&root.join("vendor"))? {
        collect_package(root, &dir, false, true, &mut out)?;
    }

    out.sort_by(|a, b| a.meta.path.cmp(&b.meta.path));
    Ok(out)
}

fn collect_package(
    root: &Path,
    pkg: &Path,
    deterministic: bool,
    vendored: bool,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    if !pkg.join("Cargo.toml").exists() {
        return Ok(());
    }
    for (sub, kind) in [
        ("src", FileKind::Library),
        ("tests", FileKind::Tests),
        ("examples", FileKind::Example),
    ] {
        let dir = pkg.join(sub);
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&dir, &mut files)?;
        for abs in files {
            let rel = abs.strip_prefix(root).unwrap_or(&abs);
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let kind = refine_kind(kind, &rel_str);
            let crate_root = kind == FileKind::Library && rel_str.ends_with("src/lib.rs");
            out.push(SourceFile {
                abs: abs.clone(),
                meta: FileMeta {
                    path: rel_str,
                    kind,
                    crate_root,
                    deterministic,
                    vendored,
                },
            });
        }
    }
    Ok(())
}

/// `src/bin/*` and `src/main.rs` are binary targets, not library code.
fn refine_kind(kind: FileKind, rel: &str) -> FileKind {
    if kind == FileKind::Library && (rel.contains("/src/bin/") || rel.ends_with("src/main.rs")) {
        FileKind::Bin
    } else {
        kind
    }
}

fn subdirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn dir_name(dir: &Path) -> String {
    dir.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let files = workspace_files(root).expect("walk");
        let paths: Vec<&str> = files.iter().map(|f| f.meta.path.as_str()).collect();
        assert!(paths.contains(&"crates/core/src/shard.rs"));
        assert!(paths.contains(&"src/lib.rs"));
        // Fixtures are never swept.
        assert!(!paths.iter().any(|p| p.contains("fixtures")));
        // Binaries are classified as such.
        let figures = files
            .iter()
            .find(|f| f.meta.path == "crates/experiments/src/bin/figures.rs")
            .expect("figures bin present");
        assert_eq!(figures.meta.kind, FileKind::Bin);
        assert!(figures.meta.deterministic);
        // Vendor crates are root-check only.
        let serde = files
            .iter()
            .find(|f| f.meta.path == "vendor/serde/src/lib.rs")
            .expect("vendor serde present");
        assert!(serde.meta.vendored && serde.meta.crate_root);
    }
}
