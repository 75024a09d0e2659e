//! # congestion-manager
//!
//! A Rust reproduction of the **Congestion Manager** from *"System
//! Support for Bandwidth Management and Content Adaptation in Internet
//! Applications"* (Andersen, Bansal, Curtis, Seshan, Balakrishnan —
//! OSDI 2000; standardized as RFC 3124).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the Congestion Manager itself: macroflows, pluggable
//!   congestion controllers and schedulers, the full adaptation API.
//! * [`netsim`] — the deterministic discrete-event network simulator the
//!   evaluation runs on (the testbed substitute).
//! * [`transport`] — TCP (native and CM-backed), UDP, congestion-
//!   controlled UDP sockets, and the simulated host stack.
//! * [`libcm`] — the user-space library layer: control socket,
//!   select/ioctl semantics, dispatch costs.
//! * [`adapt`] — the shared content-adaptation engine: quality ladders,
//!   utility maximization, per-session adaptation statistics (see
//!   `docs/adaptation.md`).
//! * [`apps`] — the paper's applications: layered streaming, vat-style
//!   interactive audio, web server/client, bulk transfer.
//! * [`util`] — time, rates, filters, deterministic RNG, statistics.
//!
//! See `examples/` for runnable programs. The `figures` binary of
//! `cm-experiments` regenerates every table and figure in the paper's
//! evaluation (`docs/experiments.md`).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub use cm_adapt as adapt;
pub use cm_apps as apps;
pub use cm_core as core;
pub use cm_libcm as libcm;
pub use cm_netsim as netsim;
pub use cm_transport as transport;
pub use cm_util as util;

/// Everything an application author typically needs.
pub mod prelude {
    pub use cm_adapt::{
        AdaptationPolicy, AdaptationStats, Engine, LadderConfig, LadderPolicy, RateLadder,
        UtilityPolicy,
    };
    pub use cm_apps::{
        AckReceiver, AdaptMode, BlastApi, BlastSender, BulkReceiver, BulkSender, DropPolicy,
        FeedbackPolicy, LayeredStreamer, OnOffSource, VatAudio, WebClient, WebServer,
    };
    pub use cm_core::prelude::*;
    pub use cm_netsim::prelude::*;
    pub use cm_transport::prelude::*;
}
