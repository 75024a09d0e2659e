//! Shared report and figure emitters: aligned tables, CSV, gnuplot
//! `.dat` blocks, and per-figure markdown.
//!
//! Every output path in this module is **deterministic**: contents are
//! built purely from the data handed in (no timestamps, no map-order
//! iteration, fixed float formatting), so regenerating a figure from the
//! same simulation produces byte-identical files.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// A simple column-aligned results table that also serializes to CSV and
/// markdown.
///
/// # Examples
///
/// ```
/// use cm_experiments::report::{FigureDoc, Table};
///
/// let mut t = Table::new(&["loss%", "TCP/CM", "TCP/Linux"]);
/// t.row(&["0.0", "867.8", "533.0"]);
/// let text = t.render();
/// assert!(text.contains("TCP/CM"));
/// assert!(t.to_csv().starts_with("loss%,TCP/CM,TCP/Linux"));
/// let mut doc = FigureDoc::new("Figure 3", "§4", "TCP/CM vs. TCP/Linux.");
/// doc.table(&t);
/// assert!(doc.render().contains("| loss% | TCP/CM | TCP/Linux |"));
/// ```
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header count.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of formatted floats (one decimal unless tiny).
    pub fn row_f64(&mut self, label: &str, values: &[f64]) {
        let mut cells = vec![label.to_string()];
        for v in values {
            cells.push(if v.abs() < 10.0 {
                format!("{v:.2}")
            } else {
                format!("{v:.1}")
            });
        }
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
        }
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
            }
            out.push('\n');
        }
        out
    }

    /// Serializes to CSV (header line + rows).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Serializes to a GitHub-flavoured markdown table.
    fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| " --- ")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Formats a float for data files: fixed three decimals, with `-0.000`
/// normalized to `0.000` so emitted bytes are stable across platforms.
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        return "nan".to_string();
    }
    let s = format!("{v:.3}");
    if s == "-0.000" {
        "0.000".to_string()
    } else {
        s
    }
}

/// A gnuplot-ready `.dat` file: named blocks of whitespace-separated
/// columns, separated by two blank lines so `plot ... index N` selects a
/// block.
pub struct DatFile {
    preamble: Vec<String>,
    blocks: Vec<(String, Vec<String>, Vec<Vec<f64>>)>,
}

impl DatFile {
    /// Creates an empty data file with a comment preamble.
    pub fn new(comment: &str) -> Self {
        DatFile {
            preamble: comment.lines().map(|l| l.to_string()).collect(),
            blocks: Vec::new(),
        }
    }

    /// Starts a new block with the given name and column labels.
    pub fn block(&mut self, name: &str, columns: &[&str]) -> &mut Self {
        self.blocks.push((
            name.to_string(),
            columns.iter().map(|c| c.to_string()).collect(),
            Vec::new(),
        ));
        self
    }

    /// Appends a row to the most recent block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been started or the width mismatches.
    pub fn row(&mut self, values: &[f64]) -> &mut Self {
        #[expect(
            clippy::expect_used,
            reason = "documented panic — row() before block() is a caller bug"
        )]
        let (name, cols, rows) = self.blocks.last_mut().expect("no block started");
        assert_eq!(values.len(), cols.len(), "column mismatch in block {name}");
        rows.push(values.to_vec());
        self
    }

    /// Renders the full file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.preamble {
            let _ = writeln!(out, "# {line}");
        }
        for (i, (name, cols, rows)) in self.blocks.iter().enumerate() {
            if i > 0 {
                out.push_str("\n\n");
            }
            let _ = writeln!(out, "# index {i}: {name}");
            let _ = writeln!(out, "# {}", cols.join("  "));
            for row in rows {
                let cells: Vec<String> = row.iter().map(|&v| fmt_f64(v)).collect();
                let _ = writeln!(out, "{}", cells.join("  "));
            }
        }
        out
    }
}

/// A per-figure markdown report under construction.
pub struct FigureDoc {
    out: String,
}

impl FigureDoc {
    /// Starts a report with the figure title and its mapping to the
    /// paper.
    pub fn new(title: &str, paper_ref: &str, description: &str) -> Self {
        let mut out = String::new();
        let _ = writeln!(out, "# {title}\n");
        let _ = writeln!(out, "**Paper mapping:** {paper_ref}\n");
        let _ = writeln!(out, "{description}\n");
        FigureDoc { out }
    }

    /// Adds a section heading.
    pub fn section(&mut self, heading: &str) -> &mut Self {
        let _ = writeln!(self.out, "## {heading}\n");
        self
    }

    /// Adds a paragraph.
    pub fn para(&mut self, text: &str) -> &mut Self {
        let _ = writeln!(self.out, "{text}\n");
        self
    }

    /// Adds a table.
    pub fn table(&mut self, t: &Table) -> &mut Self {
        let _ = writeln!(self.out, "{}", t.to_markdown());
        self
    }

    /// Finishes and returns the markdown.
    pub fn render(self) -> String {
        self.out
    }
}

/// A set of files produced by one figure run, collected in memory and
/// written in one pass when the figure's simulations have all finished
/// (so a panic while *running* a figure writes nothing for it). File
/// order is the insertion order (the built-in figures insert
/// deterministically).
#[derive(Default)]
pub struct OutputSet {
    files: Vec<(String, String)>,
}

impl OutputSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        OutputSet::default()
    }

    /// Adds (or replaces) a file by name.
    pub fn add(&mut self, name: &str, contents: String) {
        if let Some(slot) = self.files.iter_mut().find(|(n, _)| n == name) {
            slot.1 = contents;
        } else {
            self.files.push((name.to_string(), contents));
        }
    }

    /// The files collected so far.
    pub fn files(&self) -> &[(String, String)] {
        &self.files
    }

    /// Concatenates every file (name header + contents) — the
    /// determinism tests compare this digest across runs.
    pub fn concat(&self) -> String {
        let mut out = String::new();
        for (name, contents) in &self.files {
            let _ = writeln!(out, "===== {name} =====");
            out.push_str(contents);
        }
        out
    }

    /// Writes all files into `dir` (created if missing); returns the
    /// paths written.
    pub fn write_to(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, contents) in &self.files {
            let path = dir.join(name);
            std::fs::write(&path, contents)?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["1", "2"]);
        t.row(&["100", "20000"]);
        let s = t.render();
        assert!(s.contains("long-header"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new(&["x", "y"]);
        t.row_f64("0.5", &[123.456]);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("x,y"));
        assert_eq!(lines.next(), Some("0.5,123.5"));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_mismatch_panics() {
        let mut t = Table::new(&["only"]);
        t.row(&["a", "b"]);
    }

    #[test]
    fn markdown_table_shape() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1", "2"]);
        let md = t.to_markdown();
        assert_eq!(md.lines().count(), 3);
        assert!(md.lines().nth(1).unwrap().contains("---"));
    }

    #[test]
    fn dat_blocks_are_indexed_and_separated() {
        let mut d = DatFile::new("two blocks");
        d.block("first", &["t", "v"]);
        d.row(&[0.0, 1.0]);
        d.row(&[1.0, 2.0]);
        d.block("second", &["t", "v"]);
        d.row(&[0.0, 9.0]);
        let s = d.render();
        assert!(s.contains("# index 0: first"));
        assert!(s.contains("# index 1: second"));
        assert!(s.contains("\n\n\n# index 1"), "blocks need two blank lines");
        assert!(s.contains("1.000  2.000"));
    }

    #[test]
    fn fmt_normalizes_negative_zero() {
        assert_eq!(fmt_f64(-0.0001), "0.000");
        assert_eq!(fmt_f64(f64::NAN), "nan");
        assert_eq!(fmt_f64(2.5), "2.500");
    }

    #[test]
    fn output_set_replaces_by_name_and_concats() {
        let mut o = OutputSet::new();
        o.add("a.txt", "one".into());
        o.add("b.txt", "two".into());
        o.add("a.txt", "three".into());
        assert_eq!(o.files().len(), 2);
        let c = o.concat();
        assert!(c.contains("===== a.txt =====\nthree"));
    }
}
