//! Fixture self-tests: every rule must fire on its bad fixture at the
//! exact sentinel line, stay silent on the clean fixture, and treat a
//! reasonless suppression as an error — plus marker-coverage pins that
//! the shipped hot-path regions actually cover the functions the
//! counting-allocator tests exercise.

use cm_lint::{analyze, analyze_workspace_file, Rule};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn run_fixture(name: &str) -> (String, cm_lint::Analysis) {
    let src = std::fs::read_to_string(fixture_dir().join(name)).expect("fixture readable");
    let analysis = analyze(&format!("crates/lint/fixtures/{name}"), &src);
    (src, analysis)
}

/// 1-based line of the (unique) sentinel in the fixture source.
fn line_of(src: &str, sentinel: &str) -> usize {
    let hits: Vec<usize> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(sentinel))
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(hits.len(), 1, "sentinel {sentinel} not unique");
    hits[0]
}

fn fired(analysis: &cm_lint::Analysis) -> Vec<(usize, Rule)> {
    analysis
        .diagnostics
        .iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn r1_fires_on_hot_path_allocations_only() {
    let (src, a) = run_fixture("bad_r1_hot_alloc.rs");
    let expect: Vec<(usize, Rule)> = [
        "FIXTURE-R1-VEC-NEW",
        "FIXTURE-R1-PUSH",
        "FIXTURE-R1-BOX-NEW",
        "FIXTURE-R1-FORMAT",
        "FIXTURE-R1-TO-STRING",
    ]
    .iter()
    .map(|s| (line_of(&src, s), Rule::R1))
    .collect();
    assert_eq!(fired(&a), expect, "{:#?}", a.diagnostics);
}

#[test]
fn r4_fires_on_non_copy_slots_and_blocking_workers() {
    let (src, a) = run_fixture("bad_r4_ring.rs");
    let expect: Vec<(usize, Rule)> = [
        ("FIXTURE-R4-NON-COPY", Rule::R4),
        ("FIXTURE-R4-LOCK", Rule::R4),
        ("FIXTURE-R4-RECV", Rule::R4),
        ("FIXTURE-R4-SLEEP", Rule::R4),
    ]
    .iter()
    .map(|(s, r)| (line_of(&src, s), *r))
    .collect();
    assert_eq!(fired(&a), expect, "{:#?}", a.diagnostics);
    assert_eq!(a.ring_slot_lines.len(), 2);
    assert_eq!(a.worker_regions.len(), 1);
}

#[test]
fn r0_directive_errors_are_unsuppressible() {
    let (src, a) = run_fixture("bad_r0_directives.rs");
    let r0_lines: Vec<usize> = a
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::R0)
        .map(|d| d.line)
        .collect();
    for s in [
        "FIXTURE-R0-UNKNOWN",
        "FIXTURE-R0-UNMATCHED-END",
        "FIXTURE-R0-NO-REASON",
        "FIXTURE-R0-BAD-RULE",
        "FIXTURE-R0-RETIRED-RULE",
        "FIXTURE-R0-NEVER-CLOSED",
    ] {
        assert!(
            r0_lines.contains(&line_of(&src, s)),
            "missing R0 at {s}: {:#?}",
            a.diagnostics
        );
    }
    // The reasonless allow suppresses nothing: the allocation it sat on
    // still fires.
    let alloc_line = line_of(&src, "still fires");
    assert!(
        a.diagnostics
            .iter()
            .any(|d| d.rule == Rule::R1 && d.line == alloc_line),
        "{:#?}",
        a.diagnostics
    );
    // A retired id names its replacement instead of the generic error.
    let retired_line = line_of(&src, "FIXTURE-R0-RETIRED-RULE");
    assert!(
        a.diagnostics.iter().any(|d| d.line == retired_line
            && d.message.contains("R2/R3/R5 are clippy/rustc lints now")
            && d.message.contains("#[expect(clippy::")),
        "{:#?}",
        a.diagnostics
    );
}

#[test]
fn clean_fixture_is_clean() {
    let (_, a) = run_fixture("good_clean.rs");
    assert!(a.diagnostics.is_empty(), "{:#?}", a.diagnostics);
    assert_eq!(a.hot_regions.len(), 1);
    assert_eq!(a.worker_regions.len(), 1);
    assert_eq!(a.ring_slot_lines.len(), 1);
}

// ---------------------------------------------------------------------
// Marker coverage: the shipped regions must cover the functions the
// counting-allocator tests (crates/core/tests/no_alloc.rs) exercise,
// so "the test proved the path clean" and "the lint watches the
// region" always refer to the same code.
// ---------------------------------------------------------------------

/// 1-based line where `needle` occurs in a workspace source file.
fn source_line(rel: &str, needle: &str) -> usize {
    let src = std::fs::read_to_string(workspace_root().join(rel)).expect("source readable");
    line_of(&src, needle)
}

fn assert_covered(rel: &str, regions: &[(usize, usize)], needle: &str) {
    let ln = source_line(rel, needle);
    assert!(
        regions.iter().any(|&(s, e)| s <= ln && ln <= e),
        "{rel}: `{needle}` (line {ln}) is outside every marked region {regions:?}"
    );
}

#[test]
fn shard_hot_regions_cover_no_alloc_tested_functions() {
    let rel = "crates/core/src/shard.rs";
    let a = analyze_workspace_file(&workspace_root(), rel).expect("analyze shard.rs");
    assert!(a.diagnostics.is_empty(), "{:#?}", a.diagnostics);
    for needle in [
        "pub(crate) fn request(",
        "pub(crate) fn enqueue_request(",
        "pub(crate) fn notify(",
        "pub(crate) fn update(",
        "pub(crate) fn tick(",
        "fn try_grants(",
        "fn reclaim_expired_grants(",
        "fn emit_rate_callbacks(",
    ] {
        assert_covered(rel, &a.hot_regions, needle);
    }
}

#[test]
fn runtime_markers_cover_rings_and_worker_loop() {
    let rel = "crates/core/src/runtime.rs";
    let a = analyze_workspace_file(&workspace_root(), rel).expect("analyze runtime.rs");
    assert!(a.diagnostics.is_empty(), "{:#?}", a.diagnostics);
    // Both flat message enums are marked.
    assert_eq!(a.ring_slot_lines.len(), 2, "{:?}", a.ring_slot_lines);
    // The worker loop (pop, dispatch, outbox forwarding) is a marked
    // no-blocking region.
    for needle in [
        "fn run(mut self)",
        "fn handle(",
        "fn flow_op(",
        "fn flush_outbox(",
    ] {
        assert_covered(rel, &a.worker_regions, needle);
    }
    // The per-message reply path and the front's send/absorb path are
    // marked hot.
    for needle in [
        "fn push(&mut self, reply: ShardReply)",
        "fn send(&mut self, lane:",
        "fn absorb(",
    ] {
        assert_covered(rel, &a.hot_regions, needle);
    }
}

#[test]
fn ring_scheduler_and_obs_hot_regions_cover_steady_state_ops() {
    for (rel, needles) in [
        (
            "crates/core/src/engine.rs",
            &["pub(crate) fn route(", "pub(crate) fn tick("][..],
        ),
        (
            "crates/core/src/ring.rs",
            &["fn try_push(", "fn try_pop("][..],
        ),
        (
            "crates/core/src/scheduler.rs",
            &[
                "fn enqueue(&mut self, slab: &mut [SchedSlot], l: u32) -> bool",
                "fn serve_head(",
                "fn rotate(",
            ][..],
        ),
        (
            "crates/netsim/src/event.rs",
            &["pub fn schedule(", "pub fn pop("][..],
        ),
        ("crates/obs/src/recorder.rs", &["pub fn push("][..]),
        (
            "crates/obs/src/metrics.rs",
            &[
                "fn record_grant_latency(",
                "fn record_feedback_gap(",
                "fn record_window(",
            ][..],
        ),
        ("crates/adapt/src/engine.rs", &["pub fn observe("][..]),
    ] {
        let a = analyze_workspace_file(&workspace_root(), rel).expect(rel);
        assert!(a.diagnostics.is_empty(), "{rel}: {:#?}", a.diagnostics);
        for needle in needles {
            assert_covered(rel, &a.hot_regions, needle);
        }
    }
}
