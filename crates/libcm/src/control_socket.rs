//! The per-application CM control socket.
//!
//! §2.2.2 of the paper derives the interface from one observation about
//! **send permissions**: they must all be delivered ("if multiple
//! permission notifications occur, the application should receive all
//! of them so it can send data on all available flows"), in a loose
//! order that never starves a flow.
//!
//! That makes an `ioctl`-style *query* preferable to a message queue:
//! the kernel keeps only a per-flow grant count — no per-process stream
//! — and one call returns everything, "reducing the number of system
//! calls that must be made if several flows become ready
//! simultaneously".

use cm_core::types::FlowId;

/// Kernel-side state backing one application's control socket.
///
/// The grant table is a flat vector sorted by flow id: an application
/// holds a handful of flows, and a drained vector keeps its capacity, so
/// posting and collecting on every packet allocates nothing once warm.
#[derive(Debug, Default)]
pub struct ControlSocket {
    /// Outstanding send permissions per flow. A count, not a set: a flow
    /// granted twice may send twice.
    grants: Vec<(FlowId, u32)>,
}

impl ControlSocket {
    /// Creates an idle control socket.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts a send permission for `flow` (`cmapp_send` pending); the
    /// kernel side of the socket.
    pub fn post_grant(&mut self, flow: FlowId) {
        match self.grants.binary_search_by_key(&flow, |&(f, _)| f) {
            Ok(i) => self.grants[i].1 += 1,
            Err(i) => self.grants.insert(i, (flow, 1)),
        }
    }

    /// What `select()` would report for the write bit right now: some
    /// flow holds an undelivered send permission.
    pub fn writable(&self) -> bool {
        !self.grants.is_empty()
    }

    /// The "who can send" ioctl: appends to `out` every flow id with at
    /// least one undelivered permission, each repeated by its grant
    /// count, and clears them. Flow order rotates by flow id, which
    /// provides the weak-but-starvation-free ordering §2.2.2 asks for.
    pub fn ioctl_ready_flows(&mut self, out: &mut Vec<FlowId>) {
        for (flow, count) in self.grants.drain(..) {
            out.extend(std::iter::repeat_n(flow, count as usize));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_bits_reflect_state() {
        let mut cs = ControlSocket::new();
        assert!(!cs.writable());
        cs.post_grant(FlowId(1));
        assert!(cs.writable());
    }

    #[test]
    fn all_grants_delivered_with_counts() {
        let mut cs = ControlSocket::new();
        cs.post_grant(FlowId(1));
        cs.post_grant(FlowId(2));
        cs.post_grant(FlowId(1));
        let mut ready = Vec::new();
        cs.ioctl_ready_flows(&mut ready);
        // In flow-id order, each repeated by its count.
        assert_eq!(ready, [FlowId(1), FlowId(1), FlowId(2)]);
        // Drained.
        ready.clear();
        cs.ioctl_ready_flows(&mut ready);
        assert!(ready.is_empty());
        assert!(!cs.writable());
    }

    #[test]
    fn no_flow_starved_across_rounds() {
        // Two flows posting continuously: each round's ioctl returns
        // both, so neither can be starved regardless of processing order.
        let mut cs = ControlSocket::new();
        let mut ready = Vec::new();
        for _ in 0..10 {
            cs.post_grant(FlowId(1));
            cs.post_grant(FlowId(2));
            ready.clear();
            cs.ioctl_ready_flows(&mut ready);
            assert!(ready.contains(&FlowId(1)));
            assert!(ready.contains(&FlowId(2)));
        }
    }
}
