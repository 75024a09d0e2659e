//! The rule engine: lint directives, region tracking, and the two
//! marker rules (see docs/lint.md for the catalog).
//!
//! | id | rule |
//! |----|------|
//! | R1 | no allocating calls inside marked hot-path regions |
//! | R4 | ring-slot types derive `Copy`; worker loops never block |
//!
//! R0 is the meta-rule for the directives themselves (unmatched
//! markers, suppressions without a reason, unknown directives); it can
//! never be suppressed. The retired ids R2, R3 and R5 (no panics in
//! library code, determinism, `unsafe`) are stock clippy/rustc lints
//! now, configured in `clippy.toml` and the root `Cargo.toml`.

use crate::lexer::{self, CommentLine};
use std::collections::BTreeMap;
use std::fmt;

/// A rule identifier, printed in every diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Directive syntax errors (unsuppressible).
    R0,
    /// Allocation on a marked hot path.
    R1,
    /// Ring-message discipline (Copy slots, non-blocking workers).
    R4,
}

impl Rule {
    /// The stable textual id (`"R1"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::R0 => "R0",
            Rule::R1 => "R1",
            Rule::R4 => "R4",
        }
    }

    fn from_id(s: &str) -> Option<Rule> {
        match s {
            "R0" => Some(Rule::R0),
            "R1" => Some(Rule::R1),
            "R4" => Some(Rule::R4),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, printed as `file:line rule-id message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// What was found and what to do about it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Full analysis of one file: diagnostics plus the marker regions, so
/// tests can pin that the shipped markers cover specific functions.
#[derive(Debug)]
pub struct Analysis {
    /// Findings after suppression filtering.
    pub diagnostics: Vec<Diagnostic>,
    /// `lint:hot-path` regions as 1-based inclusive line ranges.
    pub hot_regions: Vec<(usize, usize)>,
    /// `lint:worker-loop` regions as 1-based inclusive line ranges.
    pub worker_regions: Vec<(usize, usize)>,
    /// Lines carrying a ring-slot marker.
    pub ring_slot_lines: Vec<usize>,
}

/// Calls that allocate (or may grow a heap structure) — forbidden
/// inside hot-path regions. Path-shaped patterns; `!` marks macros.
const R1_PATHS: &[&str] = &[
    "Box::new",
    "Rc::new",
    "Arc::new",
    "String::from",
    "String::new",
    "String::with_capacity",
    "Vec::new",
    "Vec::with_capacity",
    "VecDeque::new",
    "VecDeque::with_capacity",
    "BTreeMap::new",
    "BTreeSet::new",
    "HashMap::new",
    "HashSet::new",
    "vec!",
    "format!",
    "println!",
    "eprintln!",
    "print!",
    "eprint!",
];

/// Method calls that allocate or may reallocate their receiver.
const R1_METHODS: &[&str] = &[
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "clone",
    "push",
    "push_back",
    "push_front",
    "insert",
    "entry",
    "reserve",
    "extend",
    "extend_from_slice",
    "resize",
    "append",
    "split_off",
];

/// Blocking calls forbidden inside worker-loop regions (method form).
const R4_METHODS: &[&str] = &[
    "lock",
    "recv",
    "send",
    "join",
    "wait",
    "park",
    "push_blocking",
];

/// Blocking calls forbidden inside worker-loop regions (path form).
const R4_PATHS: &[&str] = &["thread::sleep", "thread::park"];

#[derive(Debug)]
enum Directive {
    HotStart,
    HotEnd,
    WorkerStart,
    WorkerEnd,
    RingSlot,
    Allow { rules: Vec<Rule> },
}

/// Runs every rule over one file; `path` (workspace-relative) is only
/// used to label the diagnostics.
pub fn analyze(path: &str, source: &str) -> Analysis {
    let lexed = lexer::scrub(source);
    let mut diags: Vec<Diagnostic> = Vec::new();

    // --- directives ---------------------------------------------------
    let mut directives: Vec<(usize, Directive)> = Vec::new();
    for c in &lexed.comments {
        parse_directive(path, c, &mut directives, &mut diags);
    }
    let mut hot_regions = Vec::new();
    let mut worker_regions = Vec::new();
    let mut ring_slot_lines = Vec::new();
    let mut allows: BTreeMap<usize, Vec<Rule>> = BTreeMap::new();
    build_regions(
        path,
        &directives,
        last_line(source),
        &mut hot_regions,
        &mut worker_regions,
        &mut ring_slot_lines,
        &mut allows,
        &mut diags,
    );

    // --- scans over the scrubbed code ---------------------------------
    scan_lines(
        path,
        &lexed.scrubbed,
        &hot_regions,
        &worker_regions,
        &mut diags,
    );
    for &line in &ring_slot_lines {
        check_ring_slot(path, &lexed.scrubbed, line, &mut diags);
    }

    // --- suppression filtering -----------------------------------------
    diags.retain(|d| {
        if d.rule == Rule::R0 {
            return true;
        }
        let covered = |l: usize| allows.get(&l).is_some_and(|rs| rs.contains(&d.rule));
        !(covered(d.line) || (d.line > 0 && covered(d.line - 1)))
    });
    diags.sort_by_key(|d| (d.line, d.rule));

    Analysis {
        diagnostics: diags,
        hot_regions,
        worker_regions,
        ring_slot_lines,
    }
}

fn last_line(source: &str) -> usize {
    source.lines().count().max(1)
}

fn parse_directive(
    path: &str,
    c: &CommentLine,
    out: &mut Vec<(usize, Directive)>,
    diags: &mut Vec<Diagnostic>,
) {
    // Doc comments arrive as `/ text` or `! text`; strip the residue.
    let t = c.text.trim_start_matches(['/', '!']).trim();
    if !t.starts_with("lint:") {
        return;
    }
    let head = t.split_whitespace().next().unwrap_or(t);
    let d = match head {
        "lint:hot-path:start" => Some(Directive::HotStart),
        "lint:hot-path:end" => Some(Directive::HotEnd),
        "lint:worker-loop:start" => Some(Directive::WorkerStart),
        "lint:worker-loop:end" => Some(Directive::WorkerEnd),
        "lint:ring-slot" => Some(Directive::RingSlot),
        _ if t.starts_with("lint:allow") => parse_allow(path, c.line, t, diags),
        _ => {
            diags.push(diag(
                path,
                c.line,
                Rule::R0,
                format!("unknown lint directive `{head}`"),
            ));
            None
        }
    };
    if let Some(d) = d {
        out.push((c.line, d));
    }
}

fn parse_allow(path: &str, line: usize, t: &str, diags: &mut Vec<Diagnostic>) -> Option<Directive> {
    let mut err = |msg: String| {
        diags.push(diag(path, line, Rule::R0, msg));
        None
    };
    let rest = &t["lint:allow".len()..];
    let Some(open) = rest.find('(') else {
        return err("malformed suppression: expected `lint:allow(R?): <reason>`".into());
    };
    if rest[..open].trim() != "" {
        return err("malformed suppression: expected `lint:allow(R?): <reason>`".into());
    }
    let Some(close) = rest.find(')') else {
        return err("malformed suppression: unclosed rule list".into());
    };
    let mut rules = Vec::new();
    for id in rest[open + 1..close].split(',') {
        let id = id.trim();
        match Rule::from_id(id) {
            Some(Rule::R0) => {
                return err("R0 (directive syntax) cannot be suppressed".into());
            }
            Some(r) => rules.push(r),
            None if matches!(id, "R2" | "R3" | "R5") => {
                return err(format!(
                    "`{id}` is retired: R2/R3/R5 are clippy/rustc lints now: \
                     use `#[expect(clippy::…, reason = …)]`"
                ));
            }
            None => {
                return err(format!("unknown rule id `{id}` in suppression"));
            }
        }
    }
    if rules.is_empty() {
        return err("suppression names no rules".into());
    }
    let tail = rest[close + 1..].trim_start();
    let reason = tail.strip_prefix(':').map(str::trim);
    match reason {
        Some(r) if !r.is_empty() => Some(Directive::Allow { rules }),
        _ => err("suppression missing reason: write `lint:allow(R?): <why this is safe>`".into()),
    }
}

#[allow(
    clippy::too_many_arguments,
    reason = "one out-parameter per region kind; a struct would only rename them"
)]
fn build_regions(
    path: &str,
    directives: &[(usize, Directive)],
    eof_line: usize,
    hot: &mut Vec<(usize, usize)>,
    worker: &mut Vec<(usize, usize)>,
    ring_slots: &mut Vec<usize>,
    allows: &mut BTreeMap<usize, Vec<Rule>>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut open_hot: Option<usize> = None;
    let mut open_worker: Option<usize> = None;
    for (line, d) in directives {
        let line = *line;
        match d {
            Directive::HotStart => match open_hot {
                None => open_hot = Some(line),
                Some(at) => diags.push(region_err(path, line, "hot-path", "already open", at)),
            },
            Directive::HotEnd => match open_hot.take() {
                Some(start) => hot.push((start, line)),
                None => diags.push(region_err(path, line, "hot-path", "not open", line)),
            },
            Directive::WorkerStart => match open_worker {
                None => open_worker = Some(line),
                Some(at) => diags.push(region_err(path, line, "worker-loop", "already open", at)),
            },
            Directive::WorkerEnd => match open_worker.take() {
                Some(start) => worker.push((start, line)),
                None => diags.push(region_err(path, line, "worker-loop", "not open", line)),
            },
            Directive::RingSlot => ring_slots.push(line),
            Directive::Allow { rules } => {
                allows
                    .entry(line)
                    .or_default()
                    .extend(rules.iter().copied());
            }
        }
    }
    if let Some(start) = open_hot {
        diags.push(region_err(path, start, "hot-path", "never closed", start));
        hot.push((start, eof_line));
    }
    if let Some(start) = open_worker {
        diags.push(region_err(
            path,
            start,
            "worker-loop",
            "never closed",
            start,
        ));
        worker.push((start, eof_line));
    }
}

fn region_err(path: &str, line: usize, kind: &str, what: &str, at: usize) -> Diagnostic {
    diag(
        path,
        line,
        Rule::R0,
        format!("{kind} region {what} (opened at line {at})"),
    )
}

fn in_regions(regions: &[(usize, usize)], line: usize) -> bool {
    regions.iter().any(|&(s, e)| s <= line && line <= e)
}

fn scan_lines(
    path: &str,
    scrubbed: &str,
    hot: &[(usize, usize)],
    worker: &[(usize, usize)],
    diags: &mut Vec<Diagnostic>,
) {
    for (idx, line) in scrubbed.lines().enumerate() {
        let ln = idx + 1;
        if in_regions(hot, ln) {
            for pat in R1_PATHS {
                if find_path(line, pat).is_some() {
                    diags.push(diag(
                        path,
                        ln,
                        Rule::R1,
                        format!("allocating call `{pat}` on a marked hot path"),
                    ));
                }
            }
            for m in R1_METHODS {
                if find_method(line, m).is_some() {
                    diags.push(diag(
                        path,
                        ln,
                        Rule::R1,
                        format!("possibly-allocating call `.{m}()` on a marked hot path"),
                    ));
                }
            }
        }
        if in_regions(worker, ln) {
            for m in R4_METHODS {
                if find_method(line, m).is_some() {
                    diags.push(diag(
                        path,
                        ln,
                        Rule::R4,
                        format!(
                            "blocking call `.{m}()` inside a worker-loop region \
                         (workers must never block)"
                        ),
                    ));
                }
            }
            for pat in R4_PATHS {
                if find_path(line, pat).is_some() {
                    diags.push(diag(
                        path,
                        ln,
                        Rule::R4,
                        format!("blocking call `{pat}` inside a worker-loop region"),
                    ));
                }
            }
        }
    }
}

fn diag(path: &str, line: usize, rule: Rule, message: String) -> Diagnostic {
    Diagnostic {
        file: path.to_string(),
        line,
        rule,
        message,
    }
}

/// A ring-slot marker at `marker_line` must be followed (within 25
/// code lines) by a `struct`/`enum` whose derive list includes `Copy`.
fn check_ring_slot(path: &str, scrubbed: &str, marker_line: usize, diags: &mut Vec<Diagnostic>) {
    let mut span = String::new();
    let mut type_line = None;
    for (idx, line) in scrubbed.lines().enumerate() {
        let ln = idx + 1;
        if ln <= marker_line || ln > marker_line + 25 {
            continue;
        }
        span.push_str(line);
        span.push('\n');
        if find_path(line, "struct").is_some() || find_path(line, "enum").is_some() {
            type_line = Some(ln);
            break;
        }
    }
    let Some(type_line) = type_line else {
        diags.push(diag(
            path,
            marker_line,
            Rule::R0,
            "ring-slot marker not followed by a struct/enum declaration".into(),
        ));
        return;
    };
    let has_copy_derive = span.contains("derive") && find_path(&span, "Copy").is_some();
    if !has_copy_derive {
        diags.push(diag(
            path,
            type_line,
            Rule::R4,
            "ring-slot type must derive Copy (flat slots only — no heap payloads in rings)".into(),
        ));
    }
}

// --- pattern matching helpers ------------------------------------------

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds `pat` (a path like `Box::new`, a bare ident, a keyword, or a
/// macro name ending in `!`) at identifier boundaries. A `::` prefix on
/// the line is fine (`std::boxed::Box::new` still matches `Box::new`).
pub fn find_path(line: &str, pat: &str) -> Option<usize> {
    let lb = line.as_bytes();
    let mut start = 0;
    while let Some(p) = line[start..].find(pat) {
        let at = start + p;
        let before_ok = at == 0 || !is_ident_byte(lb[at - 1]);
        let after = at + pat.len();
        let after_ok = if pat.ends_with('!') {
            true
        } else {
            after >= lb.len() || (!is_ident_byte(lb[after]) && lb[after] != b'!')
        };
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

/// Finds a call of method `name`: `.name(` or a `.name::<..>(`
/// turbofish. The boundary check keeps `push` from matching
/// `push_str` and `recv` from matching `recv_timeout`.
pub fn find_method(line: &str, name: &str) -> Option<usize> {
    let lb = line.as_bytes();
    let mut start = 0;
    while let Some(p) = line[start..].find(name) {
        let at = start + p;
        let after = at + name.len();
        let dotted = at > 0 && lb[at - 1] == b'.';
        let called = match lb.get(after) {
            Some(b'(') | Some(b':') => true,
            Some(b' ') => lb.get(after + 1) == Some(&b'('),
            _ => false,
        };
        if dotted && called {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATH: &str = "crates/x/src/lib.rs";

    fn rules_of(a: &Analysis) -> Vec<(usize, Rule)> {
        a.diagnostics.iter().map(|d| (d.line, d.rule)).collect()
    }

    #[test]
    fn r1_fires_only_inside_hot_regions() {
        let src = "\
fn cold() { let v = vec![1]; }
// lint:hot-path:start
fn hot() { let v = Vec::new(); v.push(1); }
// lint:hot-path:end
fn cold2() { let b = Box::new(2); }
";
        let a = analyze(PATH, src);
        let r1: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::R1)
            .collect();
        assert_eq!(r1.len(), 2, "{:?}", a.diagnostics);
        assert!(r1.iter().all(|d| d.line == 3));
    }

    #[test]
    fn r4_worker_region_blocks_lock_and_recv_but_not_timeouts() {
        let src = "\
// lint:worker-loop:start
fn run() {
    m.lock();
    rx.recv();
    rx.recv_timeout(d);
    rx.try_recv();
    rx.pop_timeout(d);
}
// lint:worker-loop:end
";
        let a = analyze(PATH, src);
        assert_eq!(rules_of(&a), vec![(3, Rule::R4), (4, Rule::R4)]);
    }

    #[test]
    fn r4_ring_slot_requires_copy() {
        let good = "\
// lint:ring-slot
#[derive(Clone, Copy, Debug)]
enum Cmd { A }
";
        let bad = "\
// lint:ring-slot
#[derive(Clone, Debug)]
struct Reply { s: String }
";
        assert!(analyze(PATH, good).diagnostics.is_empty());
        let a = analyze(PATH, bad);
        assert_eq!(rules_of(&a), vec![(3, Rule::R4)]);
    }

    #[test]
    fn suppression_with_reason_works_same_and_next_line() {
        let src = "\
// lint:hot-path:start
fn f() {
    // lint:allow(R1): scratch buffer retains its capacity
    v.push(1);
    w.push(2); // lint:allow(R1): bounded by the window
}
// lint:hot-path:end
";
        let a = analyze(PATH, src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn suppression_without_reason_is_an_error() {
        let src = "\
// lint:hot-path:start
fn f() { v.push(1) } // lint:allow(R1)
// lint:hot-path:end
";
        let a = analyze(PATH, src);
        assert!(a.diagnostics.iter().any(|d| d.rule == Rule::R0));
        // And the R1 itself still fires: a bad allow suppresses nothing.
        assert!(a.diagnostics.iter().any(|d| d.rule == Rule::R1));
    }

    #[test]
    fn suppression_of_wrong_rule_does_not_mask() {
        let src = "\
// lint:hot-path:start
fn f() { v.push(1) } // lint:allow(R4): wrong rule
// lint:hot-path:end
";
        let a = analyze(PATH, src);
        assert_eq!(rules_of(&a), vec![(2, Rule::R1)]);
    }

    #[test]
    fn unknown_directives_and_unmatched_markers_error() {
        let src = "\
// lint:hotpath:start
// lint:hot-path:end
// lint:hot-path:start
fn f() {}
";
        let a = analyze(PATH, src);
        let r0: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::R0)
            .collect();
        assert_eq!(r0.len(), 3, "{:?}", a.diagnostics);
    }

    #[test]
    fn patterns_in_strings_and_comments_do_not_fire() {
        let src = "\
// lint:hot-path:start
fn hot() {
    // mentions Box::new and .clone() in prose only
    let s = \"vec![] format! .collect()\";
    let c = 'x';
}
// lint:hot-path:end
";
        let a = analyze(PATH, src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn multi_rule_allow() {
        let src = "\
// lint:hot-path:start
fn hot() {
    self.spill.push_back(x); // lint:allow(R1, R4): bounded spill, cold path
}
// lint:hot-path:end
";
        let a = analyze(PATH, src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }
}
