//! Network-adaptive applications built on the CM API (paper §3).
//!
//! Each module implements one of the application classes the paper uses
//! to evaluate the CM:
//!
//! * [`bulk`] — ttcp-style bulk transfer over TCP (the §4.1 kernel
//!   overhead workload and the Figure 3/4/5 driver).
//! * [`web`] — a web server and a sequential-request client (the
//!   Figure 7 state-sharing experiment).
//! * [`blast`] — the §4.2 API-overhead test programs: fixed-size packet
//!   blasters over each CM API variant (buffered, ALF, ALF/noconnect)
//!   with application-level acknowledgement processing.
//! * [`ack_clients`] — receiver-side applications implementing the
//!   application-level feedback UDP clients must provide: per-packet and
//!   delayed (`min(N acks, T ms)`) acknowledgers.
//! * [`layered`] — the layered audio/video streaming server in both
//!   adaptation styles: ALF request/callback (Figure 8) and rate
//!   callbacks with `cm_thresh` (Figure 9; with delayed feedback,
//!   Figure 10). A one-level ALF streamer is also the backlogged web
//!   transfer of the §3.5 co-scheduling workload.
//! * [`vat`] — the interactive-audio architecture of §3.6/Figure 2: a
//!   constant-bit-rate source, a policer driven by CM rate callbacks,
//!   and an application buffer with drop-from-head or drop-tail policy.
//! * [`cross`] — on/off CBR cross-traffic sources that vary the
//!   available bandwidth for the adaptation figures.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod ack_clients;
pub mod blast;
pub mod bulk;
pub mod cross;
pub mod layered;
pub mod misbehave;
pub mod vat;
pub mod web;

pub use ack_clients::{AckReceiver, FeedbackPolicy};
pub use blast::{BlastApi, BlastSender};
pub use bulk::{BulkReceiver, BulkSender};
pub use cross::OnOffSource;
pub use layered::{AdaptMode, LayeredStreamer};
pub use vat::{DropPolicy, VatAudio};
pub use web::{WebClient, WebServer};
