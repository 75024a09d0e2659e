//! The virtual-CPU cost model.
//!
//! Figures 5 and 6 and Table 1 of the paper measure *end-system* costs:
//! CPU utilization during bulk transfers and wall-clock microseconds per
//! packet for each CM API variant. Those costs come from a small set of
//! operations — system calls, `ioctl`s, `select`s, buffer copies,
//! `gettimeofday`, interrupts, protocol processing — whose counts per
//! packet are architecturally determined (Table 1) even though their
//! individual prices are machine-specific.
//!
//! [`CostModel`] prices each operation (defaults calibrated to the paper's
//! 600 MHz Pentium III-class hardware); [`Cpu`] is a busy-until accumulator
//! a host uses to serialize that work and to report utilization. We do not
//! claim cycle accuracy — the reproduction target is the *shape* of the
//! curves: which API costs more, by what rough factor, and where the wire
//! overtakes the CPU as the bottleneck.

use cm_util::{Duration, Time};

/// Per-operation costs for a simulated end system.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// A minimal system-call round trip (entry + exit).
    pub syscall: Duration,
    /// An `ioctl` on the CM control socket (syscall + small copyout).
    pub ioctl: Duration,
    /// Fixed cost of a `select` call.
    pub select_base: Duration,
    /// Additional `select` cost per file descriptor in the set.
    pub select_per_fd: Duration,
    /// A `gettimeofday` call (needed twice per packet by user-space RTT
    /// measurement, per Table 1).
    pub gettimeofday: Duration,
    /// Copying one byte between user and kernel space.
    pub copy_per_byte: Duration,
    /// Taking a network interrupt and running the driver.
    pub interrupt: Duration,
    /// IP + driver output path per packet.
    pub ip_output: Duration,
    /// TCP segment processing (either direction), excluding copies.
    pub tcp_proc: Duration,
    /// UDP datagram processing, excluding copies.
    pub udp_proc: Duration,
    /// The CM's per-packet accounting (`cm_notify` bookkeeping, window
    /// arithmetic); the source of the <1 % overhead in Figure 5.
    pub cm_accounting: Duration,
}

impl Default for CostModel {
    /// Costs calibrated to the paper's era (600 MHz PIII, PC100 SDRAM,
    /// Linux 2.2): syscalls well under a microsecond, copies at memory
    /// speed (~330 MB/s, i.e. 3 ns/byte), interrupts a handful of
    /// microseconds.
    fn default() -> Self {
        CostModel {
            syscall: Duration::from_nanos(900),
            ioctl: Duration::from_nanos(2_200),
            select_base: Duration::from_nanos(2_200),
            select_per_fd: Duration::from_nanos(200),
            gettimeofday: Duration::from_nanos(600),
            copy_per_byte: Duration::from_nanos(3),
            interrupt: Duration::from_micros(6),
            ip_output: Duration::from_micros(2),
            tcp_proc: Duration::from_micros(3),
            udp_proc: Duration::from_nanos(1_500),
            cm_accounting: Duration::from_nanos(800),
        }
    }
}

impl CostModel {
    /// A model in which every operation is free; used by experiments that
    /// only study protocol dynamics (Figures 3, 7–10).
    pub fn free() -> Self {
        CostModel {
            syscall: Duration::ZERO,
            ioctl: Duration::ZERO,
            select_base: Duration::ZERO,
            select_per_fd: Duration::ZERO,
            gettimeofday: Duration::ZERO,
            copy_per_byte: Duration::ZERO,
            interrupt: Duration::ZERO,
            ip_output: Duration::ZERO,
            tcp_proc: Duration::ZERO,
            udp_proc: Duration::ZERO,
            cm_accounting: Duration::ZERO,
        }
    }

    /// The cost of copying `bytes` across the user/kernel boundary.
    pub fn copy(&self, bytes: usize) -> Duration {
        Duration::from_nanos(self.copy_per_byte.as_nanos() * bytes as u64)
    }

    /// The cost of a `select` over `nfds` descriptors.
    pub fn select(&self, nfds: usize) -> Duration {
        self.select_base + Duration::from_nanos(self.select_per_fd.as_nanos() * nfds as u64)
    }
}

/// A busy-until virtual CPU.
///
/// Work submitted at time `t` begins at `max(t, busy_until)` and runs for
/// its duration; [`Cpu::run`] returns the completion time, which callers
/// use to delay dependent actions (e.g. the packet leaves the NIC only
/// after the send path's CPU work retires). Total busy time accumulates
/// for utilization reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cpu {
    busy_until: Time,
    total_busy: Duration,
    /// Work executed, by rough category, for Table 1-style audits.
    pub ops: OpCounts,
}

/// Operation counters for Table 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounts {
    /// System calls (send/recv/sendto and friends).
    pub syscalls: u64,
    /// `ioctl`s on the CM control socket.
    pub ioctls: u64,
    /// `select` invocations.
    pub selects: u64,
    /// `gettimeofday` invocations.
    pub gettimeofdays: u64,
    /// Bytes copied across the user/kernel boundary.
    pub bytes_copied: u64,
}

impl Cpu {
    /// Creates an idle CPU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits `work`; returns when it completes.
    pub fn run(&mut self, now: Time, work: Duration) -> Time {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let done = start + work;
        self.busy_until = done;
        self.total_busy += work;
        done
    }

    /// The instant the CPU next goes idle.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Cumulative busy time.
    pub fn total_busy(&self) -> Duration {
        self.total_busy
    }

    /// Utilization over the window `[start, end)`: busy time accumulated
    /// in the window divided by its length. The caller snapshots
    /// [`Cpu::total_busy`] at the window edges.
    pub fn utilization(busy_delta: Duration, window: Duration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        (busy_delta / window).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cpu_starts_work_immediately() {
        let mut cpu = Cpu::new();
        let done = cpu.run(Time::from_micros(10), Duration::from_micros(5));
        assert_eq!(done, Time::from_micros(15));
        assert_eq!(cpu.total_busy(), Duration::from_micros(5));
    }

    #[test]
    fn busy_cpu_queues_work() {
        let mut cpu = Cpu::new();
        cpu.run(Time::ZERO, Duration::from_micros(10));
        // Submitted at t=2 but CPU is busy until t=10.
        let done = cpu.run(Time::from_micros(2), Duration::from_micros(3));
        assert_eq!(done, Time::from_micros(13));
        assert_eq!(cpu.total_busy(), Duration::from_micros(13));
    }

    #[test]
    fn gaps_do_not_count_as_busy() {
        let mut cpu = Cpu::new();
        cpu.run(Time::ZERO, Duration::from_micros(1));
        cpu.run(Time::from_micros(100), Duration::from_micros(1));
        assert_eq!(cpu.total_busy(), Duration::from_micros(2));
        assert_eq!(cpu.busy_until(), Time::from_micros(101));
    }

    #[test]
    fn utilization_computation() {
        let u = Cpu::utilization(Duration::from_millis(250), Duration::from_secs(1));
        assert!((u - 0.25).abs() < 1e-12);
        // Clamped at 1 even if accounting overshoots.
        let u = Cpu::utilization(Duration::from_secs(2), Duration::from_secs(1));
        assert_eq!(u, 1.0);
        assert_eq!(
            Cpu::utilization(Duration::from_secs(1), Duration::ZERO),
            0.0
        );
    }

    #[test]
    fn cost_model_helpers() {
        let m = CostModel::default();
        assert_eq!(m.copy(1000), Duration::from_micros(3));
        let sel = m.select(10);
        assert_eq!(
            sel,
            m.select_base + Duration::from_nanos(10 * m.select_per_fd.as_nanos())
        );
    }

    #[test]
    fn free_model_is_free() {
        let m = CostModel::free();
        assert_eq!(m.copy(100_000), Duration::ZERO);
        assert_eq!(m.select(100), Duration::ZERO);
        assert_eq!(m.syscall, Duration::ZERO);
    }
}
