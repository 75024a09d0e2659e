//! What the two simulated workloads share: stepping a simulator in
//! timed slices and reading the layers' public statistics afterwards.

use std::time::Instant;

use cm_core::api::CmStats;
use cm_netsim::link::LinkId;
use cm_netsim::sim::{NodeId, Simulator};
use cm_transport::types::TcpConnId;

use crate::measure::{Counts, Fingerprint};
use crate::span::{in_span, Kind};
use crate::wrap::TimedHost;

/// Events stepped between two looks at the stop condition.
const STEPS_PER_LOOK: u32 = 256;

/// Steps `sim` until `stop` says so (asked every [`STEPS_PER_LOOK`]
/// events) or the event list runs dry; returns the host ns it took.
/// Traced, the whole slice is one [`Kind::SimRun`] span whose children
/// are the wrapped hosts' handlers, so the simulator's self time is the
/// difference — per-`step` spans would cost more than the steps.
pub fn run_slice(
    sim: &mut Simulator,
    traced: bool,
    mut stop: impl FnMut(&Simulator) -> bool,
) -> u64 {
    let t0 = Instant::now();
    in_span(traced, Kind::SimRun, || 'run: loop {
        for _ in 0..STEPS_PER_LOOK {
            if !sim.step() {
                break 'run;
            }
        }
        if stop(sim) {
            break;
        }
    });
    t0.elapsed().as_nanos() as u64
}

/// Adds the counters of links `0..links` to `c`.
pub fn read_links(sim: &Simulator, links: usize, c: &mut Counts) {
    for l in 0..links {
        let s = sim.link_stats(LinkId(l));
        c.link_offered += s.offered;
        c.link_dropped += s.dropped();
        c.link_max_queue_pkts = c.link_max_queue_pkts.max(s.max_queue_pkts as u64);
    }
    c.events += sim.events_processed();
    c.timer_slots_peak = c.timer_slots_peak.max(sim.timer_slot_capacity() as u64);
    c.unrouted += sim.unrouted_packets();
}

/// Adds one host's TCP, syscall-shim and CM counters to `c` and its
/// deterministic results to `fp`.
pub fn read_host(sim: &Simulator, id: NodeId, c: &mut Counts, fp: &mut Fingerprint) {
    let host = &sim.node_ref::<TimedHost>(id).host;
    // Connections are never removed, so the first gap is the end.
    for conn in (0..).map_while(|i| host.tcp_conn(TcpConnId(i))) {
        let s = conn.stats;
        c.tcp_segs_sent += s.segs_sent;
        c.tcp_segs_rcvd += s.segs_rcvd;
        c.tcp_bytes_sent += s.bytes_sent;
        c.tcp_bytes_rtx += s.bytes_rtx;
        c.tcp_timeouts += s.timeouts;
        for v in [s.segs_sent, s.bytes_rtx, s.timeouts, conn.bytes_delivered()] {
            fp.mix(v);
        }
    }
    let ops = host.cpu.ops;
    c.syscalls += ops.syscalls;
    c.ioctls += ops.ioctls;
    c.bytes_copied += ops.bytes_copied;
    let st = host.cm.stats();
    c.add_cm(&st, &CmStats::default());
    fp.mix_cm(&st);
}
