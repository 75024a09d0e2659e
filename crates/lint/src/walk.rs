//! Workspace discovery: which files to scan.
//!
//! The walker mirrors cargo's target layout conventions instead of
//! parsing manifests: for the root package and every member under
//! `crates/` it scans `src/`, `tests/` and `examples/`. The vendored
//! stand-ins under `vendor/` and the separate `benchmark/` workspace
//! are outside the sweep, and the lint fixture corpus
//! (`crates/lint/fixtures/`) holds deliberately-bad sources and is
//! never swept.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One file to lint.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative path used in diagnostics.
    pub path: String,
}

/// Enumerates every lintable file under the workspace root, sorted by
/// relative path so diagnostics come out in a stable order.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    collect_package(root, root, &mut out)?;
    for dir in subdirs(&root.join("crates"))? {
        collect_package(root, &dir, &mut out)?;
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn collect_package(root: &Path, pkg: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !pkg.join("Cargo.toml").exists() {
        return Ok(());
    }
    for sub in ["src", "tests", "examples"] {
        let dir = pkg.join(sub);
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&dir, &mut files)?;
        for abs in files {
            let rel = abs.strip_prefix(root).unwrap_or(&abs);
            let path = rel.to_string_lossy().replace('\\', "/");
            out.push(SourceFile { abs, path });
        }
    }
    Ok(())
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
        let paths: Vec<&str> = files.iter().map(|f| f.path.as_str()).collect();
        assert!(paths.contains(&"crates/core/src/shard.rs"));
        assert!(paths.contains(&"src/lib.rs"));
        assert!(paths.contains(&"crates/experiments/src/bin/figures.rs"));
        // Fixtures, the vendored stand-ins and the benchmark are never swept.
        assert!(!paths.iter().any(|p| p.contains("fixtures")
            || p.starts_with("vendor/")
            || p.starts_with("benchmark/")));
    }
}
