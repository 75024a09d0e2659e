//! Paper-figure reproduction pipeline for the Congestion Manager.
//!
//! The paper's evidence is its figures; this crate regenerates them, and
//! the figures that go beyond the paper, end to end. Most are sweeps of a
//! declarative spec:
//!
//! ```text
//!   Experiment spec            runner                    emitters
//!   ┌──────────────────┐   ┌──────────────────┐   ┌────────────────────┐
//!   │ app mix          │   │ one cm-netsim    │   │ <figure>.csv       │
//!   │ BandwidthSchedule│──▶│ run per cell     │──▶│ <figure>.dat       │
//!   │ policy sweep     │   │ AdaptationStats  │   │ <figure>.md        │
//!   │ controller sweep │   │ → FleetStats     │   │   (docs/figures/)  │
//!   └──────────────────┘   └──────────────────┘   └────────────────────┘
//! ```
//!
//! * [`spec`] — the declarative [`Experiment`]: topology app mix,
//!   named [`cm_netsim::schedule::BandwidthSchedule`]s, and
//!   `AdaptPolicyKind`/`ControllerKind` sweep axes.
//! * [`runner`] — expands the sweep, executes each cell on `cm-netsim`,
//!   and folds per-session [`cm_adapt::AdaptationStats`] into
//!   [`cm_adapt::FleetStats`] aggregates.
//! * [`report`] — the deterministic emitters (aligned tables, CSV,
//!   gnuplot `.dat`, markdown).
//! * [`builtin`] — the [`builtin::Figure`] table and the figures beyond
//!   the paper: the Figure 8/9 quality track, the quality/oscillation
//!   policy frontier, recorded-trace replay, vat audio adaptation, the
//!   scaling, robustness and decision-timeline figures.
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
//! test in `tests/figures.rs`). See `docs/experiments.md` for the spec
//! format and how to add a figure or a trace.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod builtin;
pub mod chaos;
pub mod paper;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod spec;
pub mod trace;

pub use builtin::{Figure, FigureRun};
pub use report::Table;
pub use runner::{run_experiment, CellOutcome, ExperimentResult};
pub use spec::{AdaptPolicyKind, AppKind, Experiment, NamedSchedule};
