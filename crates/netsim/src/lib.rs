//! A deterministic discrete-event network simulator.
//!
//! This crate is the testbed substitute for the paper's evaluation
//! environment (the Utah Network Testbed with Dummynet channel emulation).
//! It provides:
//!
//! * an event queue with deterministic tie-breaking ([`event`]),
//! * packets carrying their transport header inline as a closed
//!   [`Payload`] enum ([`packet`]), and the wire formats it ranges over —
//!   TCP segments, UDP datagrams, CM feedback bodies ([`segment`]),
//! * links with a serialization rate, propagation delay, Dummynet-style
//!   Bernoulli loss ([`link`]) and a packet-limited drop-tail buffer
//!   ([`queue`]),
//! * deterministic fault injection — Gilbert–Elliott bursty loss,
//!   reordering, duplication, delay spikes, link flaps, and
//!   misbehaving-app scripts, all derived from a seed ([`fault`]),
//! * time-varying link capacity via piecewise-constant bandwidth
//!   schedules — steps, square waves, on/off cross traffic, and loadable
//!   traces ([`schedule`]),
//! * the simulator proper — nodes, routing, timers ([`sim`]),
//! * a virtual-CPU cost model for reproducing the paper's CPU-overhead
//!   measurements ([`cpu`]),
//! * topology builders for the paper's scenarios ([`topology`] and
//!   [`channel`]), and
//! * shared trace instrumentation ([`trace`]).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod channel;
pub mod cpu;
pub mod event;
pub mod fault;
pub mod link;
pub mod packet;
pub mod queue;
pub mod schedule;
pub mod segment;
pub mod sim;
pub mod topology;
pub mod trace;

/// Convenient glob-import surface for simulator users.
pub mod prelude {
    pub use crate::channel::PathSpec;
    pub use crate::cpu::{CostModel, Cpu};
    pub use crate::fault::{AppFault, FaultPlan, GilbertElliott, LinkFaults};
    pub use crate::link::{LinkId, LinkSpec};
    pub use crate::packet::{Addr, Packet, Payload, Protocol};
    pub use crate::schedule::BandwidthSchedule;
    pub use crate::sim::{Node, NodeCtx, NodeId, RouterNode, Simulator, TimerHandle};
    pub use crate::topology::Topology;
    pub use cm_util::{Duration, Rate, Time};
}

pub use channel::PathSpec;
pub use cpu::{CostModel, Cpu};
pub use fault::{AppFault, FaultPlan, GilbertElliott, LinkFaults};
pub use link::{LinkId, LinkSpec};
pub use packet::{Addr, Packet, Payload, Protocol};
pub use schedule::BandwidthSchedule;
pub use sim::{Node, NodeCtx, NodeId, RouterNode, Simulator, TimerHandle};
pub use topology::Topology;
