//! The rule engine: lint directives, region tracking, and the five
//! workspace rules (see docs/lint.md for the catalog).
//!
//! | id | rule |
//! |----|------|
//! | R1 | no allocating calls inside marked hot-path regions |
//! | R2 | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library code |
//! | R3 | no nondeterminism sources in the deterministic crates |
//! | R4 | ring-slot types derive `Copy`; worker loops never block |
//! | R5 | every crate root carries `#![forbid(unsafe_code)]` |
//!
//! R0 is the meta-rule for the directives themselves (unmatched
//! markers, suppressions without a reason, unknown directives); it can
//! never be suppressed.

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
    /// Panicking calls in library code.
    R2,
    /// Nondeterminism in a deterministic crate.
    R3,
    /// Ring-message discipline (Copy slots, non-blocking workers).
    R4,
    /// Missing `#![forbid(unsafe_code)]` at a crate root.
    R5,
}

impl Rule {
    /// The stable textual id (`"R1"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::R0 => "R0",
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
        }
    }

    fn from_id(s: &str) -> Option<Rule> {
        match s {
            "R0" => Some(Rule::R0),
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "R3" => Some(Rule::R3),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
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

/// What kind of build target a file belongs to. Rules apply
/// differentially: R2 is library-only (binaries, tests and examples
/// may panic), R3 covers library and binary code of the deterministic
/// crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Part of a `lib` target (`src/` outside `src/bin/`).
    Library,
    /// A binary (`src/bin/` or `src/main.rs`).
    Bin,
    /// Integration tests (`tests/`).
    Tests,
    /// Examples (`examples/`).
    Example,
}

/// Per-file facts the rule engine needs.
#[derive(Clone, Debug)]
pub struct FileMeta {
    /// Workspace-relative path used in diagnostics.
    pub path: String,
    /// Target kind (decides which rules apply).
    pub kind: FileKind,
    /// Is this a crate root (`src/lib.rs`)? Enables R5.
    pub crate_root: bool,
    /// Does the file belong to a deterministic crate? Enables R3.
    pub deterministic: bool,
    /// Vendored stand-in crate: only R0 and R5 apply.
    pub vendored: bool,
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

/// Panicking methods forbidden in library code.
const R2_METHODS: &[&str] = &["unwrap", "expect"];

/// Panicking macros forbidden in library code. `unreachable!` and the
/// assert family stay legal: they document structural invariants.
const R2_MACROS: &[&str] = &["panic!", "todo!", "unimplemented!"];

/// Nondeterminism sources forbidden in deterministic crates: the
/// randomly-seeded std hashers, wall-clock reads, and OS RNGs.
const R3_IDENTS: &[&str] = &[
    "HashMap",
    "HashSet",
    "RandomState",
    "DefaultHasher",
    "SystemTime",
    "thread_rng",
    "ThreadRng",
    "OsRng",
];

/// Path-shaped nondeterminism sources (`Instant` alone is fine — a
/// stored deadline type — but *reading the wall clock* is not).
const R3_PATHS: &[&str] = &["Instant::now"];

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

/// Runs every applicable rule over one file.
pub fn analyze(meta: &FileMeta, source: &str) -> Analysis {
    let lexed = lexer::scrub(source);
    let mut diags: Vec<Diagnostic> = Vec::new();

    // --- directives ---------------------------------------------------
    let mut directives: Vec<(usize, Directive)> = Vec::new();
    for c in &lexed.comments {
        parse_directive(meta, c, &mut directives, &mut diags);
    }
    let mut hot_regions = Vec::new();
    let mut worker_regions = Vec::new();
    let mut ring_slot_lines = Vec::new();
    let mut allows: BTreeMap<usize, Vec<Rule>> = BTreeMap::new();
    build_regions(
        meta,
        &directives,
        last_line(source),
        &mut hot_regions,
        &mut worker_regions,
        &mut ring_slot_lines,
        &mut allows,
        &mut diags,
    );

    // --- scans over the scrubbed code ---------------------------------
    if !meta.vendored {
        let exempt = cfg_test_regions(&lexed.scrubbed);
        scan_lines(
            meta,
            &lexed.scrubbed,
            &hot_regions,
            &worker_regions,
            &exempt,
            &mut diags,
        );
        for &line in &ring_slot_lines {
            check_ring_slot(meta, &lexed.scrubbed, line, &mut diags);
        }
    }
    if meta.crate_root {
        check_crate_root(meta, &lexed.scrubbed, &mut diags);
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
    meta: &FileMeta,
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
        _ if t.starts_with("lint:allow") => parse_allow(meta, c.line, t, diags),
        _ => {
            diags.push(Diagnostic {
                file: meta.path.clone(),
                line: c.line,
                rule: Rule::R0,
                message: format!("unknown lint directive `{head}`"),
            });
            None
        }
    };
    if let Some(d) = d {
        out.push((c.line, d));
    }
}

fn parse_allow(
    meta: &FileMeta,
    line: usize,
    t: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<Directive> {
    let mut err = |msg: String| {
        diags.push(Diagnostic {
            file: meta.path.clone(),
            line,
            rule: Rule::R0,
            message: msg,
        });
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

#[allow(clippy::too_many_arguments)]
fn build_regions(
    meta: &FileMeta,
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
                Some(at) => diags.push(region_err(meta, line, "hot-path", "already open", at)),
            },
            Directive::HotEnd => match open_hot.take() {
                Some(start) => hot.push((start, line)),
                None => diags.push(region_err(meta, line, "hot-path", "not open", line)),
            },
            Directive::WorkerStart => match open_worker {
                None => open_worker = Some(line),
                Some(at) => diags.push(region_err(meta, line, "worker-loop", "already open", at)),
            },
            Directive::WorkerEnd => match open_worker.take() {
                Some(start) => worker.push((start, line)),
                None => diags.push(region_err(meta, line, "worker-loop", "not open", line)),
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
        diags.push(region_err(meta, start, "hot-path", "never closed", start));
        hot.push((start, eof_line));
    }
    if let Some(start) = open_worker {
        diags.push(region_err(
            meta,
            start,
            "worker-loop",
            "never closed",
            start,
        ));
        worker.push((start, eof_line));
    }
}

fn region_err(meta: &FileMeta, line: usize, kind: &str, what: &str, at: usize) -> Diagnostic {
    Diagnostic {
        file: meta.path.clone(),
        line,
        rule: Rule::R0,
        message: format!("{kind} region {what} (opened at line {at})"),
    }
}

fn in_regions(regions: &[(usize, usize)], line: usize) -> bool {
    regions.iter().any(|&(s, e)| s <= line && line <= e)
}

fn scan_lines(
    meta: &FileMeta,
    scrubbed: &str,
    hot: &[(usize, usize)],
    worker: &[(usize, usize)],
    exempt: &[(usize, usize)],
    diags: &mut Vec<Diagnostic>,
) {
    let r2_applies = meta.kind == FileKind::Library;
    let r3_applies = meta.deterministic && matches!(meta.kind, FileKind::Library | FileKind::Bin);
    for (idx, line) in scrubbed.lines().enumerate() {
        let ln = idx + 1;
        let tested = in_regions(exempt, ln);
        if in_regions(hot, ln) {
            for pat in R1_PATHS {
                if find_path(line, pat).is_some() {
                    diags.push(diag(
                        meta,
                        ln,
                        Rule::R1,
                        format!("allocating call `{pat}` on a marked hot path"),
                    ));
                }
            }
            for m in R1_METHODS {
                if find_method(line, m).is_some() {
                    diags.push(diag(
                        meta,
                        ln,
                        Rule::R1,
                        format!("possibly-allocating call `.{m}()` on a marked hot path"),
                    ));
                }
            }
        }
        if r2_applies && !tested {
            for m in R2_METHODS {
                if find_method(line, m).is_some() {
                    diags.push(diag(
                        meta,
                        ln,
                        Rule::R2,
                        format!("`.{m}()` in library code: return a CmError/Option instead"),
                    ));
                }
            }
            for pat in R2_MACROS {
                if find_path(line, pat).is_some() {
                    diags.push(diag(
                        meta,
                        ln,
                        Rule::R2,
                        format!("`{pat}` in library code: return a CmError/Option instead"),
                    ));
                }
            }
        }
        if r3_applies && !tested {
            for id in R3_IDENTS {
                if find_path(line, id).is_some() {
                    diags.push(diag(
                        meta,
                        ln,
                        Rule::R3,
                        format!(
                            "nondeterminism source `{id}` in a deterministic crate \
                         (use the Fx-hashed maps / simulated time / DetRng)"
                        ),
                    ));
                }
            }
            for pat in R3_PATHS {
                if find_path(line, pat).is_some() {
                    diags.push(diag(
                        meta,
                        ln,
                        Rule::R3,
                        format!("wall-clock read `{pat}` in a deterministic crate"),
                    ));
                }
            }
        }
        if in_regions(worker, ln) {
            for m in R4_METHODS {
                if find_method(line, m).is_some() {
                    diags.push(diag(
                        meta,
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
                        meta,
                        ln,
                        Rule::R4,
                        format!("blocking call `{pat}` inside a worker-loop region"),
                    ));
                }
            }
        }
    }
}

fn diag(meta: &FileMeta, line: usize, rule: Rule, message: String) -> Diagnostic {
    Diagnostic {
        file: meta.path.clone(),
        line,
        rule,
        message,
    }
}

/// A ring-slot marker at `marker_line` must be followed (within 25
/// code lines) by a `struct`/`enum` whose derive list includes `Copy`.
fn check_ring_slot(
    meta: &FileMeta,
    scrubbed: &str,
    marker_line: usize,
    diags: &mut Vec<Diagnostic>,
) {
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
            meta,
            marker_line,
            Rule::R0,
            "ring-slot marker not followed by a struct/enum declaration".into(),
        ));
        return;
    };
    let has_copy_derive = span.contains("derive") && find_path(&span, "Copy").is_some();
    if !has_copy_derive {
        diags.push(diag(
            meta,
            type_line,
            Rule::R4,
            "ring-slot type must derive Copy (flat slots only — no heap payloads in rings)".into(),
        ));
    }
}

fn check_crate_root(meta: &FileMeta, scrubbed: &str, diags: &mut Vec<Diagnostic>) {
    let dense: String = scrubbed.chars().filter(|c| !c.is_whitespace()).collect();
    if !dense.contains("#![forbid(unsafe_code)]") {
        diags.push(diag(
            meta,
            1,
            Rule::R5,
            "crate root missing #![forbid(unsafe_code)]".into(),
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
/// turbofish. The boundary check keeps `unwrap` from matching
/// `unwrap_or` and `recv` from matching `recv_timeout`.
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

// --- #[cfg(test)] exemption ---------------------------------------------

/// Finds `#[cfg(test)]`-guarded items (and `#[test]` functions) in the
/// scrubbed source and returns their line ranges; R2/R3 skip them.
pub fn cfg_test_regions(scrubbed: &str) -> Vec<(usize, usize)> {
    let bytes = scrubbed.as_bytes();
    let n = bytes.len();
    // Precompute byte offset -> line.
    let mut line_starts = vec![0usize];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |pos: usize| match line_starts.binary_search(&pos) {
        Ok(i) => i + 1,
        Err(i) => i,
    };

    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < n {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        let attr_at = i;
        let mut j = i + 1;
        while j < n && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= n || bytes[j] != b'[' {
            i += 1;
            continue;
        }
        // Find the matching `]` (attribute args may nest brackets).
        let inner_start = j + 1;
        let mut depth = 1usize;
        j += 1;
        while j < n && depth > 0 {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let inner = &scrubbed[inner_start..j.saturating_sub(1)];
        if !attr_is_test(inner) {
            i = j;
            continue;
        }
        // Skip any further attributes, then span the guarded item.
        let mut k = j;
        loop {
            while k < n && bytes[k].is_ascii_whitespace() {
                k += 1;
            }
            if k < n && bytes[k] == b'#' {
                let mut m = k + 1;
                while m < n && bytes[m].is_ascii_whitespace() {
                    m += 1;
                }
                if m < n && bytes[m] == b'[' {
                    let mut d = 1usize;
                    m += 1;
                    while m < n && d > 0 {
                        match bytes[m] {
                            b'[' => d += 1,
                            b']' => d -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    k = m;
                    continue;
                }
            }
            break;
        }
        // Scan to the item body `{..}` or a terminating `;`.
        let mut end = k;
        while end < n && bytes[end] != b'{' && bytes[end] != b';' {
            end += 1;
        }
        if end < n && bytes[end] == b'{' {
            let mut d = 1usize;
            end += 1;
            while end < n && d > 0 {
                match bytes[end] {
                    b'{' => d += 1,
                    b'}' => d -= 1,
                    _ => {}
                }
                end += 1;
            }
        }
        regions.push((
            line_of(attr_at),
            line_of(end.saturating_sub(1).max(attr_at)),
        ));
        i = end.max(j);
    }
    regions
}

/// Is this attribute body a test guard? Covers `cfg(test)`,
/// `cfg(all(test, ..))`, `cfg_attr(test, ..)` and plain `test`.
fn attr_is_test(inner: &str) -> bool {
    let t = inner.trim();
    if t == "test" {
        return true;
    }
    (t.starts_with("cfg(") || t.starts_with("cfg_attr(") || t.starts_with("cfg ("))
        && find_path(t, "test").is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_meta() -> FileMeta {
        FileMeta {
            path: "crates/x/src/lib.rs".into(),
            kind: FileKind::Library,
            crate_root: false,
            deterministic: true,
            vendored: false,
        }
    }

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
        let a = analyze(&lib_meta(), src);
        let r1: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::R1)
            .collect();
        assert_eq!(r1.len(), 2, "{:?}", a.diagnostics);
        assert!(r1.iter().all(|d| d.line == 3));
    }

    #[test]
    fn r2_skips_cfg_test_and_non_library() {
        let src = "\
fn lib() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); panic!(); }
}
";
        let a = analyze(&lib_meta(), src);
        assert_eq!(rules_of(&a), vec![(1, Rule::R2)]);
        let mut example = lib_meta();
        example.kind = FileKind::Example;
        let a = analyze(&example, src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn r2_boundary_does_not_match_unwrap_or() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(g); z.expect_err(); }\n";
        let a = analyze(&lib_meta(), src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn r3_flags_std_hash_and_wall_clock_but_not_fx() {
        let src = "\
use std::collections::HashMap;
fn f() { let m: FxHashMap<u32, u32> = FxHashMap::default(); }
fn g() { let t = Instant::now(); }
";
        let a = analyze(&lib_meta(), src);
        assert_eq!(rules_of(&a), vec![(1, Rule::R3), (3, Rule::R3)]);
        let mut nondet = lib_meta();
        nondet.deterministic = false;
        let a = analyze(&nondet, src);
        assert!(a.diagnostics.is_empty());
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
        let a = analyze(&lib_meta(), src);
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
        assert!(analyze(&lib_meta(), good).diagnostics.is_empty());
        let a = analyze(&lib_meta(), bad);
        assert_eq!(rules_of(&a), vec![(3, Rule::R4)]);
    }

    #[test]
    fn r5_crate_root() {
        let mut meta = lib_meta();
        meta.crate_root = true;
        let a = analyze(&meta, "pub mod x;\n");
        assert_eq!(rules_of(&a), vec![(1, Rule::R5)]);
        let a = analyze(&meta, "#![forbid(unsafe_code)]\npub mod x;\n");
        assert!(a.diagnostics.is_empty());
    }

    #[test]
    fn suppression_with_reason_works_same_and_next_line() {
        let src = "\
fn f() {
    // lint:allow(R2): poisoning is unrecoverable here
    m.lock().unwrap();
    n.take().unwrap() // lint:allow(R2): guarded by is_some above
}
";
        let a = analyze(&lib_meta(), src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn suppression_without_reason_is_an_error() {
        let src = "fn f() { x.unwrap() } // lint:allow(R2)\n";
        let a = analyze(&lib_meta(), src);
        assert!(a.diagnostics.iter().any(|d| d.rule == Rule::R0));
        // And the R2 itself still fires: a bad allow suppresses nothing.
        assert!(a.diagnostics.iter().any(|d| d.rule == Rule::R2));
    }

    #[test]
    fn suppression_of_wrong_rule_does_not_mask() {
        let src = "fn f() { x.unwrap() } // lint:allow(R3): wrong rule\n";
        let a = analyze(&lib_meta(), src);
        assert_eq!(rules_of(&a), vec![(1, Rule::R2)]);
    }

    #[test]
    fn unknown_directives_and_unmatched_markers_error() {
        let src = "\
// lint:hotpath:start
// lint:hot-path:end
// lint:hot-path:start
fn f() {}
";
        let a = analyze(&lib_meta(), src);
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
        let a = analyze(&lib_meta(), src);
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
        let a = analyze(&lib_meta(), src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }
}
