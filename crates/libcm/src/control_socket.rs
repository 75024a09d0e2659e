//! The per-application CM control socket.
//!
//! §2.2.2 of the paper derives the interface from two observations:
//!
//! * **Send permissions** must all be delivered ("if multiple permission
//!   notifications occur, the application should receive all of them so
//!   it can send data on all available flows"), in a loose order that
//!   never starves a flow.
//! * **Status changes** are idempotent ("if multiple status changes occur
//!   before the application obtains this data from the kernel, then only
//!   the current status matters").
//!
//! Those semantics make an `ioctl`-style *query* preferable to a message
//! queue: the kernel keeps only a per-flow grant count and the latest
//! status — no per-process stream — and one call returns everything,
//! "reducing the number of system calls that must be made if several
//! flows become ready simultaneously".

use cm_core::types::{FlowId, FlowInfo};

/// The readiness bits `select()` reports for the control socket.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SelectBits {
    /// Some flow holds an undelivered send permission (the write bit).
    pub writable: bool,
    /// Network conditions changed for some flow (the exception bit).
    pub exception: bool,
}

impl SelectBits {
    /// True if either bit is set.
    pub fn any(&self) -> bool {
        self.writable || self.exception
    }
}

/// Kernel-side state backing one application's control socket.
///
/// Both tables are flat vectors sorted by flow id: an application holds a
/// handful of flows, and a drained vector keeps its capacity, so posting
/// and collecting on every packet allocates nothing once warm.
#[derive(Debug, Default)]
pub struct ControlSocket {
    /// Outstanding send permissions per flow. A count, not a set: a flow
    /// granted twice may send twice.
    grants: Vec<(FlowId, u32)>,
    /// Latest (and only the latest) status change per flow.
    status: Vec<(FlowId, FlowInfo)>,
}

/// Where `flow` sits (`Ok`) or belongs (`Err`) in a table sorted by flow.
fn position<T>(table: &[(FlowId, T)], flow: FlowId) -> Result<usize, usize> {
    table.binary_search_by_key(&flow, |&(f, _)| f)
}

impl ControlSocket {
    /// Creates an idle control socket.
    pub fn new() -> Self {
        Self::default()
    }

    // --- Kernel side ---

    /// Posts a send permission for `flow` (`cmapp_send` pending).
    pub fn post_grant(&mut self, flow: FlowId) {
        match position(&self.grants, flow) {
            Ok(i) => self.grants[i].1 += 1,
            Err(i) => self.grants.insert(i, (flow, 1)),
        }
    }

    /// Posts a status change for `flow` (`cmapp_update` pending);
    /// overwrites any undelivered status for the same flow.
    pub fn post_status(&mut self, flow: FlowId, info: FlowInfo) {
        match position(&self.status, flow) {
            Ok(i) => self.status[i].1 = info,
            Err(i) => self.status.insert(i, (flow, info)),
        }
    }

    // --- User side ---

    /// What `select()` would report right now.
    pub fn select_bits(&self) -> SelectBits {
        SelectBits {
            writable: !self.grants.is_empty(),
            exception: !self.status.is_empty(),
        }
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

    /// The "current network state" ioctl for one flow; delivering clears
    /// the pending-change mark.
    pub fn ioctl_status(&mut self, flow: FlowId) -> Option<FlowInfo> {
        let i = position(&self.status, flow).ok()?;
        Some(self.status.remove(i).1)
    }

    /// Bulk form: appends all pending status changes to `out` at once
    /// (the libcm bulk query the paper mentions under "Optimizations").
    pub fn ioctl_all_status(&mut self, out: &mut Vec<(FlowId, FlowInfo)>) {
        out.append(&mut self.status);
    }

    /// Undelivered grant count (for tests).
    pub fn pending_grants(&self) -> usize {
        self.grants.iter().map(|&(_, c)| c as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_util::{Duration, Rate};

    fn info(kbps: u64) -> FlowInfo {
        FlowInfo {
            rate: Rate::from_kbps(kbps),
            srtt: Some(Duration::from_millis(50)),
            rttvar: Duration::from_millis(5),
            loss_rate: 0.0,
            cwnd: 14600,
            mtu: 1460,
        }
    }

    #[test]
    fn select_bits_reflect_state() {
        let mut cs = ControlSocket::new();
        assert!(!cs.select_bits().any());
        cs.post_grant(FlowId(1));
        assert!(cs.select_bits().writable);
        assert!(!cs.select_bits().exception);
        cs.post_status(FlowId(1), info(100));
        assert!(cs.select_bits().exception);
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
        assert!(!cs.select_bits().writable);
    }

    #[test]
    fn status_keeps_only_latest() {
        let mut cs = ControlSocket::new();
        cs.post_status(FlowId(3), info(100));
        cs.post_status(FlowId(3), info(900));
        let got = cs.ioctl_status(FlowId(3)).unwrap();
        assert_eq!(got.rate, Rate::from_kbps(900));
        assert!(cs.ioctl_status(FlowId(3)).is_none());
    }

    #[test]
    fn bulk_status_drains_everything() {
        let mut cs = ControlSocket::new();
        cs.post_status(FlowId(1), info(1));
        cs.post_status(FlowId(2), info(2));
        let mut all = Vec::new();
        cs.ioctl_all_status(&mut all);
        assert_eq!(all.len(), 2);
        assert!(!cs.select_bits().exception);
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
