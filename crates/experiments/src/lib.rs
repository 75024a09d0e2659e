//! Paper-figure reproduction pipeline for the Congestion Manager.
//!
//! The paper's evidence is its figures; this crate regenerates them, and
//! the figures that go beyond the paper, end to end. Each figure is a
//! [`Figure`] constant plus one function that runs its simulations in
//! plain loops and emits through [`report`]:
//!
//! ```text
//!   figure function            cells / scenarios         emitters
//!   ┌──────────────────┐   ┌──────────────────┐   ┌────────────────────┐
//!   │ schedules        │   │ one cm-netsim    │   │ <figure>.csv       │
//!   │ × policies       │──▶│ run per cell     │──▶│ <figure>.dat       │
//!   │ × controllers    │   │ AdaptationStats  │   │ <figure>.md        │
//!   │ (one seed)       │   │ → fleet groups   │   │   (docs/figures/)  │
//!   └──────────────────┘   └──────────────────┘   └────────────────────┘
//! ```
//!
//! * [`runner`] — the adaptation figures' cells
//!   ([`runner::layered_cell`], the vat and co-scheduling cells), each
//!   one seeded `cm-netsim` run returning a [`runner::CellOutcome`], and
//!   the [`runner::AdaptPolicyKind`] policy axis.
//! * [`report`] — the deterministic emitters (aligned tables, CSV,
//!   gnuplot `.dat`, markdown).
//! * [`builtin`] — the [`builtin::Figure`] table and the figures beyond
//!   the paper: the Figure 8/9 quality track, the quality/oscillation
//!   policy frontier, recorded-trace replay, vat audio adaptation,
//!   §3.5 co-scheduling, the robustness and decision-timeline figures.
//! * [`paper`] — the paper's own evaluation: Table 1, Figures 3-7 and 10,
//!   connection set-up, the design ablations.
//! * [`scenarios`] — the paper's testbed set-ups those figures run.
//! * [`chaos`] — the fault-injection harness: scenarios replayed under
//!   seeded [`cm_netsim::fault::FaultPlan`]s with CM invariants checked
//!   every simulated second (drives the `robustness` figure and the
//!   `chaos` binary).
//! * [`trace`] — deterministic CSV/JSONL emitters for the CM's
//!   flight-recorder rings (drives the `decision_timeline` figure and
//!   the chaos harness's post-mortem dumps); see
//!   `docs/observability.md`.
//!
//! Regenerate everything with:
//!
//! ```text
//! cargo run --release -p cm-experiments --bin figures
//! ```
//!
//! Two runs produce byte-identical output (enforced by the determinism
//! test in `tests/figures.rs`). See `docs/experiments.md` for how each
//! figure maps onto the paper and how to add a figure or a trace.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod builtin;
pub mod chaos;
pub mod paper;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod trace;

pub use builtin::Figure;
pub use report::Table;
