//! The library-side wakeup and dispatch logic.
//!
//! §3.1 lists the ways an application can consume CM events: let libcm
//! run the event loop, request a SIGIO signal, add the control socket to
//! an existing `select` set, or poll. The applications here all take the
//! third: the control socket sits in the app's `select` set, and the
//! write bit wakes it for send grants.
//!
//! Each *wakeup* costs a `select` return, then the `ioctl` that extracts
//! the ready flows. [`Dispatcher`] wraps a [`ControlSocket`] and charges
//! those costs to the host CPU, batching same-instant grants the way one
//! `select` return batches simultaneously-ready flows in the real system.

use cm_core::types::FlowId;
use cm_netsim::cpu::{CostModel, Cpu};
use cm_util::Time;

use crate::control_socket::ControlSocket;

/// How the application learns its control socket is ready (§3.1).
///
/// The select loop is the one style any application here runs; the enum
/// stays an enum because the benchmark's replay kernel names it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NotifyMode {
    /// The control socket sits in the app's `select` set alongside
    /// `extra_fds` other descriptors (Table 1's "1 extra socket").
    SelectLoop {
        /// Descriptors in the set besides the control socket.
        extra_fds: usize,
    },
}

/// Counters for dispatch behaviour (used by Table 1 audits and tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct DispatchStats {
    /// Wakeups (select returns) charged.
    pub wakeups: u64,
    /// "Who can send" ioctls charged.
    pub ready_ioctls: u64,
    /// Always 0: the socket carries no status. Kept because the
    /// benchmark's `sim_mix` sums it into its ioctl count.
    pub status_ioctls: u64,
    /// Send permissions handed to the application.
    pub grants_delivered: u64,
}

/// Library-side dispatcher for one application.
pub struct Dispatcher {
    /// The control socket shared with the kernel side.
    pub socket: ControlSocket,
    /// Descriptors in the app's `select` set, the control socket's
    /// included.
    select_fds: usize,
    /// The instant of the last charged wakeup; grants arriving at the
    /// same instant share one select+ioctl (the batching §2.2.2 is
    /// designed around).
    last_wakeup: Option<Time>,
    /// The latest wakeup's ready flows, refilled on every wakeup so the
    /// buffer keeps its capacity.
    ready: Vec<FlowId>,
    /// Counters.
    pub stats: DispatchStats,
}

impl Dispatcher {
    /// Creates a dispatcher in the given notification mode.
    pub fn new(mode: NotifyMode) -> Self {
        let NotifyMode::SelectLoop { extra_fds } = mode;
        Dispatcher {
            socket: ControlSocket::new(),
            select_fds: extra_fds + 1,
            last_wakeup: None,
            ready: Vec::new(),
            stats: DispatchStats::default(),
        }
    }

    /// The flows the latest [`Dispatcher::wakeup`] handed out, in
    /// delivery order (repeated per permission).
    pub fn ready(&self) -> &[FlowId] {
        &self.ready
    }

    /// Processes a wakeup at `now`, charging `cpu` per `costs`, and
    /// returns the flows that may send (repeated per permission). Call
    /// this from the app's grant handler. A wakeup with no grant charges
    /// nothing and leaves the instant unspent.
    pub fn wakeup(&mut self, now: Time, cpu: &mut Cpu, costs: &CostModel) -> &[FlowId] {
        self.ready.clear();
        if !self.socket.writable() {
            return &self.ready;
        }
        if self.last_wakeup != Some(now) {
            self.last_wakeup = Some(now);
            self.stats.wakeups += 1;
            cpu.select(now, costs, self.select_fds);
            // One batched ioctl covers every simultaneously-ready flow;
            // same-instant stragglers ride along free.
            cpu.ioctl(now, costs);
            self.stats.ready_ioctls += 1;
        }
        self.socket.ioctl_ready_flows(&mut self.ready);
        self.stats.grants_delivered += self.ready.len() as u64;
        &self.ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_util::Duration;

    #[test]
    fn empty_wakeup_costs_nothing_in_select_mode() {
        let mut d = Dispatcher::new(NotifyMode::SelectLoop { extra_fds: 3 });
        let mut cpu = Cpu::new();
        let costs = CostModel::default();
        let w = d.wakeup(Time::ZERO, &mut cpu, &costs);
        assert!(w.is_empty());
        assert_eq!(cpu.total_busy(), Duration::ZERO);
        assert_eq!((cpu.ops.selects, cpu.ops.ioctls), (0, 0));
        assert_eq!(d.stats.wakeups, 0);
    }

    #[test]
    fn empty_wakeup_leaves_the_instant_unspent() {
        let mut d = Dispatcher::new(NotifyMode::SelectLoop { extra_fds: 1 });
        let mut cpu = Cpu::new();
        let costs = CostModel::default();
        let now = Time::from_millis(4);
        assert!(d.wakeup(now, &mut cpu, &costs).is_empty());
        assert_eq!(cpu.total_busy(), Duration::ZERO);
        assert_eq!((cpu.ops.selects, cpu.ops.ioctls), (0, 0));
        // A grant posted later at the same instant still pays for its
        // own select and ioctl: the empty wakeup did not use them up.
        d.socket.post_grant(FlowId(2));
        let _ = d.wakeup(now, &mut cpu, &costs);
        assert_eq!(d.ready(), [FlowId(2)]);
        assert_eq!((cpu.ops.selects, cpu.ops.ioctls), (1, 1));
        assert_eq!(
            cpu.total_busy(),
            costs.select_base + costs.select_per_fd * 2 + costs.ioctl
        );
        assert_eq!((d.stats.wakeups, d.stats.ready_ioctls), (1, 1));
    }

    #[test]
    fn grants_batched_at_same_instant() {
        let mut d = Dispatcher::new(NotifyMode::SelectLoop { extra_fds: 0 });
        let mut cpu = Cpu::new();
        let costs = CostModel::default();
        d.socket.post_grant(FlowId(1));
        d.socket.post_grant(FlowId(2));
        d.socket.post_grant(FlowId(1));
        let w = d.wakeup(Time::from_millis(5), &mut cpu, &costs);
        assert_eq!(w.len(), 3);
        // One select + one ioctl for the whole batch.
        assert_eq!(d.stats.wakeups, 1);
        assert_eq!(d.stats.ready_ioctls, 1);
        assert_eq!((cpu.ops.selects, cpu.ops.ioctls), (1, 1));
        let one_batch_cost = cpu.total_busy();
        // A second grant at the same instant rides free.
        d.socket.post_grant(FlowId(2));
        let w2 = d.wakeup(Time::from_millis(5), &mut cpu, &costs);
        assert_eq!(w2.len(), 1);
        assert_eq!(d.stats.wakeups, 1);
        assert_eq!((cpu.ops.selects, cpu.ops.ioctls), (1, 1));
        assert_eq!(cpu.total_busy(), one_batch_cost);
    }

    #[test]
    fn new_instant_charges_again() {
        let mut d = Dispatcher::new(NotifyMode::SelectLoop { extra_fds: 0 });
        let mut cpu = Cpu::new();
        let costs = CostModel::default();
        d.socket.post_grant(FlowId(1));
        let _ = d.wakeup(Time::from_millis(1), &mut cpu, &costs);
        let c1 = cpu.total_busy();
        d.socket.post_grant(FlowId(1));
        let _ = d.wakeup(Time::from_millis(2), &mut cpu, &costs);
        assert!(cpu.total_busy() > c1);
        assert_eq!(d.stats.wakeups, 2);
        assert_eq!((cpu.ops.selects, cpu.ops.ioctls), (2, 2));
    }
}
