//! The Congestion Manager.
//!
//! This crate is a from-scratch Rust implementation of the Congestion
//! Manager (CM) described in *"System Support for Bandwidth Management and
//! Content Adaptation in Internet Applications"* (Andersen, Bansal, Curtis,
//! Seshan, Balakrishnan — OSDI 2000), the system that became RFC 3124. The
//! CM performs two functions:
//!
//! 1. **Integrated congestion management.** All flows between a pair of
//!    hosts (a *macroflow*) share one congestion controller, one RTT
//!    estimate, and one loss history, so concurrent connections learn from
//!    each other instead of competing, and new connections start from
//!    learned state instead of from scratch.
//! 2. **Application adaptation.** Clients — in-kernel protocols like TCP
//!    or user-space servers — learn about network state through an API
//!    (grants to send, rate-change callbacks, queries) and adapt what they
//!    transmit.
//!
//! The API surface follows the paper (§2.1):
//!
//! | Paper call                | This crate                                     |
//! |---------------------------|------------------------------------------------|
//! | `cm_open(src, dst)`       | [`CongestionManager::open`]                    |
//! | `cm_close(flow)`          | [`CongestionManager::close`]                   |
//! | `cm_mtu(flow)`            | [`CongestionManager::mtu`]                     |
//! | `cm_request(flow)`        | [`CongestionManager::request`]                 |
//! | `cmapp_send` callback     | [`CmNotification::SendGrant`]                  |
//! | `cm_update(flow, ...)`    | [`CongestionManager::update`]                  |
//! | `cm_notify(flow, nsent)`  | [`CongestionManager::notify`]                  |
//! | `cm_query(flow)`          | [`CongestionManager::query`]                   |
//! | `cm_thresh(down, up)`     | [`CongestionManager::set_thresholds`]          |
//! | `cmapp_update` callback   | [`CmNotification::RateChange`]                 |
//! | `cm_bulk_request` etc.    | [`CongestionManager::bulk_request`] and kin    |
//! | macroflow construction    | [`CongestionManager::split`] / [`CongestionManager::merge`] |
//!
//! Kernel-style synchronous callbacks are inverted into a notification
//! outbox ([`CongestionManager::drain_notifications_into`]) that the host
//! stack or the `cm-libcm` dispatcher drains after every call — the same
//! deferred-delivery structure libcm's control socket gives user-space
//! clients in the paper. The drain reuses the caller's buffer; hot-path
//! code must not use the hidden allocating convenience form.
//!
//! # Example
//!
//! ```
//! use cm_core::prelude::*;
//!
//! let mut cm = CongestionManager::new(CmConfig::default());
//! let key = FlowKey::new(Endpoint::new(1, 5000), Endpoint::new(2, 80));
//! let now = Time::ZERO;
//!
//! let flow = cm.open(key, now).unwrap();
//! cm.request(flow, now).unwrap();
//! // The initial window is open, so the grant arrives immediately.
//! let mut grants = Vec::new();
//! cm.drain_notifications_into(&mut grants);
//! assert!(matches!(grants[0], CmNotification::SendGrant { flow: f } if f == flow));
//!
//! // The client transmits via its own socket; the IP layer reports it.
//! cm.notify(flow, 1460, now).unwrap();
//!
//! // Feedback from the receiver: all bytes arrived, one RTT sample.
//! cm.update(flow, FeedbackReport::ack(1460, 1)
//!     .with_rtt(Duration::from_millis(60)), now + Duration::from_millis(60))
//!     .unwrap();
//! assert!(cm.query(flow, now).unwrap().rate.as_bps() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod controller;
mod engine;
pub mod error;
mod flow;
mod macroflow;
pub mod ring;
pub mod runtime;
pub mod scheduler;
mod shard;
pub mod types;

pub use api::{CmNotification, CmStats, CongestionManager};
pub use cm_obs::{CongestionSignal, FlightRecorder, TraceEvent, TraceRecord, Tracer};
pub use config::{
    AggregationPolicy, CmConfig, ControllerKind, SchedulerKind, ShardingConfig, ShardingMode,
    TracingConfig,
};
pub use controller::{Controller, DelaySignal};
pub use error::CmError;
pub use runtime::{ParallelConfig, ShardRuntime};
pub use types::{
    Endpoint, FeedbackReport, FlowId, FlowInfo, FlowKey, LossMode, MacroflowId, Thresholds,
};

/// Convenient glob-import surface for CM clients.
pub mod prelude {
    pub use crate::api::{CmNotification, CongestionManager};
    pub use crate::config::{
        AggregationPolicy, CmConfig, ControllerKind, SchedulerKind, ShardingConfig, ShardingMode,
        TracingConfig,
    };
    pub use crate::error::CmError;
    pub use crate::runtime::{ParallelConfig, ShardRuntime};
    pub use crate::types::{
        Endpoint, FeedbackReport, FlowId, FlowInfo, FlowKey, LossMode, MacroflowId, Thresholds,
    };
    pub use cm_obs::{TraceEvent, TraceRecord};
    pub use cm_util::{Duration, Rate, Time};
}
