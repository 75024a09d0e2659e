//! The shared content-adaptation engine (paper §3).
//!
//! The CM deliberately leaves *what to send* to the application: "the
//! decision of what data to send rests with the application, which is in
//! the best position to decide". Every adaptive application in this
//! repository, though, faces the same sub-problem — turn the CM's rate
//! callbacks into a *quality decision* — and solving it ad hoc in each
//! app made adaptation behaviour impossible to compare or tune. This
//! crate factors that layer out:
//!
//! ```text
//!   cm_update / cm_thresh callbacks
//!          │  (now, rate)
//!          ▼
//!   ┌─────────────────────────────┐
//!   │ Engine                      │
//!   │  ┌───────────────────────┐  │    quality level / target rate
//!   │  │ dyn AdaptationPolicy  │──┼──▶  (layer index into a ladder)
//!   │  └───────────────────────┘  │
//!   │  AdaptationStats            │──▶  switches, oscillation, utility
//!   └─────────────────────────────┘
//! ```
//!
//! Two policies ship behind the [`AdaptationPolicy`] trait:
//!
//! * [`LadderPolicy`] — discrete layer selection with configurable
//!   up/down headroom and dwell timers; its *immediate* configuration is
//!   exactly the paper's `layer_for` loop (Figures 8-9).
//! * [`UtilityPolicy`] — EWMA-smoothed rate driving an argmax over a
//!   per-level utility curve, with a switch margin for damping.
//!
//! The per-callback path ([`Engine::on_rate`]) follows the flat-state
//! rules of `docs/perf.md`: all state is preallocated at construction and
//! a steady-state rate report performs **zero heap allocation** (enforced
//! by the counting-allocator test in `tests/no_alloc.rs`).
//!
//! [`AdaptationStats`] is the per-session record; folding sessions into
//! per-group figures is the `cm-experiments` figure pipeline's job.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod engine;
pub mod ladder;
pub mod policy;
pub mod stats;
pub mod utility;

pub use engine::{Decision, Engine};
pub use ladder::{LadderConfig, LadderPolicy};
pub use policy::{AdaptationPolicy, RateLadder};
pub use stats::AdaptationStats;
pub use utility::UtilityPolicy;
