//! Flight-recorder tracing for the Congestion Manager.
//!
//! The CM is a *shared* decision-maker: applications trust it to
//! apportion bandwidth, so when it grants, clamps, quarantines, splits,
//! or writes off a window, the interesting question is always *why* —
//! and an aggregate counter block cannot answer it. This crate supplies
//! the [`FlightRecorder`]: a fixed-capacity ring buffer of typed
//! [`TraceEvent`]s. Recording is allocation-free (all storage is
//! preallocated) and O(1); once full, the recorder keeps exactly the
//! most recent `capacity` events, which is precisely what a post-mortem
//! wants: the last N decisions before the invariant tripped.
//!
//! The recorder lives behind a [`Tracer`] handle that is a no-op when
//! disabled (the default): a disabled tracer is a single null-niche
//! `Option` check per record call and allocates nothing at construction,
//! so the hot paths of a CM that never asked for tracing are unchanged —
//! a property enforced by the counting-allocator tests in this crate and
//! measured by the repo benchmark's `obs.tracer.on_off_ratio`.
//!
//! # Example
//!
//! ```
//! use cm_obs::{TraceEvent, Tracer};
//! use cm_util::{Duration, Time};
//!
//! let mut tracer = Tracer::enabled(128);
//! tracer.record(Time::ZERO, TraceEvent::FlowOpened { flow: 0, macroflow: 0 });
//! tracer.record(
//!     Time::ZERO + Duration::from_millis(3),
//!     TraceEvent::GrantIssued { flow: 0, bytes: 1460 },
//! );
//!
//! let rec = tracer.recorder().unwrap();
//! assert_eq!(rec.len(), 2);
//! assert_eq!(rec.iter().last().unwrap().event.kind(), "grant_issued");
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

mod event;
mod recorder;
mod tracer;

pub use event::{CongestionSignal, TraceEvent, TraceRecord};
pub use recorder::FlightRecorder;
pub use tracer::Tracer;

/// Default flight-recorder capacity, in events, when a tracing config
/// does not specify one. Large enough to hold several maintenance
/// ticks' worth of decisions on a busy shard, small enough (~48 KiB)
/// to embed one per shard without thought.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;
