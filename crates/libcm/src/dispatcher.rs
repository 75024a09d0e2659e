//! The library-side wakeup and dispatch logic.
//!
//! §3.1 lists the ways an application can consume CM events:
//!
//! 1. let libcm run the event loop and call back into the application,
//! 2. request a SIGIO signal when the control socket changes,
//! 3. add the control socket to an existing `select` set,
//! 4. poll on the application's own schedule.
//!
//! Whatever the style, each *wakeup* costs: the notification mechanism
//! (a `select` return or a signal), then the `ioctl`s that extract the
//! ready flows and/or new state. [`Dispatcher`] wraps a
//! [`ControlSocket`] and charges those costs to the host CPU, batching
//! same-instant notifications the way one `select` return batches
//! simultaneously-ready flows in the real system.

use cm_core::types::{FlowId, FlowInfo};
use cm_netsim::cpu::{CostModel, Cpu};
use cm_util::Time;

use crate::control_socket::ControlSocket;

/// How the application learns its control socket is ready (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NotifyMode {
    /// The control socket sits in the app's `select` set alongside
    /// `extra_fds` other descriptors (Table 1's "1 extra socket").
    SelectLoop {
        /// Descriptors in the set besides the control socket.
        extra_fds: usize,
    },
    /// POSIX SIGIO delivery, followed by the usual ioctl.
    Sigio,
    /// The app polls on its own schedule: a non-blocking select each
    /// poll, whether or not anything is ready.
    Poll {
        /// Descriptors in the set besides the control socket.
        extra_fds: usize,
    },
}

/// Counters for dispatch behaviour (used by Table 1 audits and tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct DispatchStats {
    /// Wakeups (select returns or signals) charged.
    pub wakeups: u64,
    /// "Who can send" ioctls charged.
    pub ready_ioctls: u64,
    /// Status ioctls charged.
    pub status_ioctls: u64,
    /// Signals delivered (SIGIO mode).
    pub signals: u64,
    /// Send permissions handed to the application.
    pub grants_delivered: u64,
    /// Status updates handed to the application.
    pub updates_delivered: u64,
}

/// One wakeup's worth of events for the application. The dispatcher
/// refills one of these on every wakeup, so its buffers keep their
/// capacity.
#[derive(Debug, Default)]
pub struct Wakeup {
    /// Flows that may send (repeated per permission).
    pub ready: Vec<FlowId>,
    /// Fresh per-flow status snapshots.
    pub updates: Vec<(FlowId, FlowInfo)>,
}

impl Wakeup {
    /// True if the wakeup carried nothing.
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty() && self.updates.is_empty()
    }
}

/// Library-side dispatcher for one application.
pub struct Dispatcher {
    /// The control socket shared with the kernel side.
    pub socket: ControlSocket,
    mode: NotifyMode,
    /// The instant of the last charged wakeup; notifications arriving at
    /// the same instant share one select+ioctl (the batching §2.2.2 is
    /// designed around).
    last_wakeup: Option<Time>,
    /// The latest wakeup's events, handed out by reference.
    woken: Wakeup,
    /// Counters.
    pub stats: DispatchStats,
}

impl Dispatcher {
    /// Creates a dispatcher in the given notification mode.
    pub fn new(mode: NotifyMode) -> Self {
        Dispatcher {
            socket: ControlSocket::new(),
            mode,
            last_wakeup: None,
            woken: Wakeup::default(),
            stats: DispatchStats::default(),
        }
    }

    /// The flows the latest [`Dispatcher::wakeup`] handed out, in
    /// delivery order (repeated per permission).
    pub fn ready(&self) -> &[FlowId] {
        &self.woken.ready
    }

    /// Processes a wakeup at `now`, charging `cpu` per `costs`, and
    /// returns everything the application should handle. Call this from
    /// the app's notification handler (or its poll loop).
    pub fn wakeup(&mut self, now: Time, cpu: &mut Cpu, costs: &CostModel) -> &Wakeup {
        self.woken.ready.clear();
        self.woken.updates.clear();
        let bits = self.socket.select_bits();
        let fresh_instant = self.last_wakeup != Some(now);
        let is_poll = matches!(self.mode, NotifyMode::Poll { .. });
        if !bits.any() && !is_poll {
            return &self.woken;
        }
        if fresh_instant {
            self.last_wakeup = Some(now);
            self.stats.wakeups += 1;
            match self.mode {
                NotifyMode::SelectLoop { extra_fds } | NotifyMode::Poll { extra_fds } => {
                    cpu.ops.selects += 1;
                    cpu.run(now, costs.select(extra_fds + 1));
                }
                NotifyMode::Sigio => {
                    self.stats.signals += 1;
                    cpu.ops.signals += 1;
                    cpu.run(now, costs.signal_delivery);
                }
            }
        } else if !bits.any() {
            return &self.woken;
        }
        let out = &mut self.woken;
        if bits.writable {
            if fresh_instant {
                // One batched ioctl covers every simultaneously-ready
                // flow; same-instant stragglers ride along free.
                cpu.ops.ioctls += 1;
                cpu.run(now, costs.ioctl);
                self.stats.ready_ioctls += 1;
            }
            self.socket.ioctl_ready_flows(&mut out.ready);
            self.stats.grants_delivered += out.ready.len() as u64;
        }
        if bits.exception {
            if fresh_instant {
                cpu.ops.ioctls += 1;
                cpu.run(now, costs.ioctl);
                self.stats.status_ioctls += 1;
            }
            self.socket.ioctl_all_status(&mut out.updates);
            self.stats.updates_delivered += out.updates.len() as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_util::{Duration, Rate};

    fn info() -> FlowInfo {
        FlowInfo {
            rate: Rate::from_kbps(500),
            srtt: Some(Duration::from_millis(40)),
            rttvar: Duration::from_millis(4),
            loss_rate: 0.01,
            cwnd: 8760,
            mtu: 1460,
        }
    }

    #[test]
    fn empty_wakeup_costs_nothing_in_select_mode() {
        let mut d = Dispatcher::new(NotifyMode::SelectLoop { extra_fds: 3 });
        let mut cpu = Cpu::new();
        let costs = CostModel::default();
        let w = d.wakeup(Time::ZERO, &mut cpu, &costs);
        assert!(w.is_empty());
        assert_eq!(cpu.total_busy(), Duration::ZERO);
        assert_eq!(d.stats.wakeups, 0);
    }

    #[test]
    fn poll_mode_charges_even_when_idle() {
        let mut d = Dispatcher::new(NotifyMode::Poll { extra_fds: 0 });
        let mut cpu = Cpu::new();
        let costs = CostModel::default();
        let w = d.wakeup(Time::ZERO, &mut cpu, &costs);
        assert!(w.is_empty());
        assert_eq!(d.stats.wakeups, 1);
        assert!(cpu.total_busy() > Duration::ZERO);
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
        assert_eq!(w.ready.len(), 3);
        // One select + one ioctl for the whole batch.
        assert_eq!(d.stats.wakeups, 1);
        assert_eq!(d.stats.ready_ioctls, 1);
        let one_batch_cost = cpu.total_busy();
        // A second grant at the same instant rides free.
        d.socket.post_grant(FlowId(2));
        let w2 = d.wakeup(Time::from_millis(5), &mut cpu, &costs);
        assert_eq!(w2.ready.len(), 1);
        assert_eq!(d.stats.wakeups, 1);
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
    }

    #[test]
    fn sigio_mode_charges_signal() {
        let mut d = Dispatcher::new(NotifyMode::Sigio);
        let mut cpu = Cpu::new();
        let costs = CostModel::default();
        d.socket.post_grant(FlowId(9));
        let w = d.wakeup(Time::from_millis(1), &mut cpu, &costs);
        assert_eq!(w.ready.len(), 1);
        assert_eq!(d.stats.signals, 1);
        // Signal + ioctl.
        assert_eq!(cpu.total_busy(), costs.signal_delivery + costs.ioctl);
    }

    #[test]
    fn status_updates_delivered_latest_only() {
        let mut d = Dispatcher::new(NotifyMode::SelectLoop { extra_fds: 1 });
        let mut cpu = Cpu::new();
        let costs = CostModel::default();
        d.socket.post_status(FlowId(4), info());
        let newer = FlowInfo {
            rate: Rate::from_kbps(900),
            ..info()
        };
        d.socket.post_status(FlowId(4), newer);
        let w = d.wakeup(Time::from_millis(3), &mut cpu, &costs);
        assert_eq!(w.updates.len(), 1);
        assert_eq!(w.updates[0].1.rate, Rate::from_kbps(900));
        assert_eq!(d.stats.updates_delivered, 1);
        assert_eq!(d.stats.status_ioctls, 1);
    }

    #[test]
    fn mixed_wakeup_charges_both_ioctls() {
        let mut d = Dispatcher::new(NotifyMode::SelectLoop { extra_fds: 0 });
        let mut cpu = Cpu::new();
        let costs = CostModel::default();
        d.socket.post_grant(FlowId(1));
        d.socket.post_status(FlowId(1), info());
        let w = d.wakeup(Time::from_millis(7), &mut cpu, &costs);
        assert_eq!(w.ready.len(), 1);
        assert_eq!(w.updates.len(), 1);
        assert_eq!(
            cpu.total_busy(),
            costs.select(1) + costs.ioctl + costs.ioctl
        );
    }
}
