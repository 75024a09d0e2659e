//! Transport protocols and the host network stack.
//!
//! This crate supplies everything the paper's Linux kernel provided around
//! the CM:
//!
//! * [`tcp`] — a packet-level TCP sender/receiver with Reno-style loss
//!   recovery (fast retransmit, NewReno partial-ACK handling, RTO with
//!   Karn/Jacobson estimation, optional delayed ACKs), supporting **two
//!   congestion-control modes**: `Native` reproduces the Linux 2.2
//!   baseline (initial window of 2 segments, ACK counting), and `Cm`
//!   offloads all congestion control to the Congestion Manager through
//!   the request/callback API, exactly as §3.2 describes.
//! * [`udp`] — plain UDP sockets, plus the congestion-controlled UDP
//!   socket of §3.3 whose kernel packet queue drains on CM grants.
//! * [`feedback`] — the application-level acknowledgement protocol UDP
//!   clients of the CM must implement (per-packet or batched/delayed).
//! * [`host`] — the simulated end system: IP demultiplexing, the IP
//!   output hook that calls `cm_notify`, timer plumbing, virtual-CPU
//!   accounting, and the syscall surface ([`host::HostOs`]) applications
//!   program against.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod feedback;
pub mod host;
pub mod tcp;
pub mod types;
pub mod udp;

pub use cm_netsim::segment;
pub use host::{Host, HostApp, HostOs};
pub use segment::{TcpSegment, UdpDatagram};
pub use tcp::{TcpConfig, TcpConnection, TcpStats};
pub use types::{CcMode, TcpConnId, TcpEvent, UdpSocketId};

/// Convenient glob-import surface for application authors.
pub mod prelude {
    pub use crate::feedback::{AckPayload, DataPayload};
    pub use crate::host::{Host, HostApp, HostOs};
    pub use crate::types::{CcMode, TcpConnId, TcpEvent, UdpSocketId};
    pub use cm_core::prelude::*;
    pub use cm_netsim::prelude::*;
}
