//! Zero-allocation enforcement for the host's packet path.
//!
//! docs/perf.md rule 2 ("zero per-event allocation") was proven for the
//! CM (`crates/core/tests/no_alloc.rs`) and the recorder; this test
//! extends it to everything a simulated TCP-over-CM packet crosses —
//! event queue, links, `Host`, TCP, the CM. A packet carries its
//! transport header inline, so once a bulk transfer is warm, a window of
//! thousands of delivered packets must allocate nothing at all: no
//! action list per TCP entry point, no tree node per out-of-order
//! segment, no map entry per timer.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::atomic::Ordering;

use cm_core::config::CmConfig;
use cm_netsim::channel::PathSpec;
use cm_netsim::link::{LinkId, LinkSpec};
use cm_netsim::packet::Addr;
use cm_netsim::sim::Simulator;
use cm_netsim::topology::Topology;
use cm_transport::host::{Host, HostApp, HostConfig, HostOs};
use cm_transport::tcp::TcpConfig;
use cm_transport::types::CcMode;
use cm_util::{Duration, Rate, Time};
use counting_alloc::{measuring, ALLOCS};

/// Writes more than any window can carry, as soon as it starts.
struct Sender {
    remote: Addr,
}

impl HostApp for Sender {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        let conn = os.tcp_connect(self.remote, 80, CcMode::Cm);
        os.tcp_send(conn, 1 << 40);
    }
}

struct Receiver;

impl HostApp for Receiver {
    fn on_start(&mut self, os: &mut HostOs<'_, '_>) {
        os.tcp_listen(80, CcMode::Cm);
    }
}

/// A TCP/CM bulk transfer over the Figure 3 channel, `sim_bulk`'s host
/// configuration (a 64 KB window fits the path's 50-packet queue, so
/// `loss` is the only source of drops). `routed` makes the channel the
/// bottleneck of a dumbbell, whose two `RouterNode`s the simulator
/// forwards packets through in place. Returns the data direction's
/// lossy link.
fn bulk(loss: f64, routed: bool) -> (Simulator, LinkId) {
    let cfg = HostConfig {
        tcp: TcpConfig {
            rwnd: 64 * 1024,
            ..Default::default()
        },
        cm: CmConfig {
            mtu: 1460,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut topo = Topology::new(5);
    let mut server = Host::new(cfg.clone());
    server.add_app(Box::new(Receiver));
    let server_id = topo.add_host(Box::new(server));
    let remote = topo.sim().addr_of(server_id);
    let mut client = Host::new(cfg);
    client.add_app(Box::new(Sender { remote }));
    let client_id = topo.add_host(Box::new(client));
    let path = PathSpec::fig3(loss);
    let forward = if routed {
        let access = LinkSpec::new(Rate::from_mbps(100), Duration::from_micros(100));
        let (_, _, center) = topo.dumbbell(&[client_id], &[server_id], &path.forward(), &access);
        center.forward
    } else {
        topo.emulated_path(client_id, server_id, &path).forward
    };
    (topo.build(), forward)
}

/// Runs `sim` for `warmup_s` simulated seconds, then measures three
/// windows of `window_s` each: in the best of them (the counter is
/// process-global, so libtest's own one-shot allocations can land in a
/// window; a per-packet allocation lands in all of them) nothing may
/// allocate.
///
/// Drives: netsim `EventQueue::schedule`, `pop`, `advance`,
/// `Link::offer`, `start_tx`, the drop-tail `Queue::enqueue`, `dequeue`,
/// `PacketSlab::insert`, `remove` (and, `routed`, the simulator's router
/// forwarding); transport `TcpConnection::on_segment_into`; shard
/// `request`, `notify`, `update`, `tick`, `try_grants` (round-robin).
fn assert_warm_path_allocates_nothing(loss: f64, routed: bool, warmup_s: u64, window_s: u64) {
    let _turn = measuring();
    let (mut sim, forward) = bulk(loss, routed);
    let mut until = Time::from_secs(warmup_s);
    sim.run_until(until);

    let mut min_allocs = u64::MAX;
    for _ in 0..3 {
        until += Duration::from_secs(window_s);
        let delivered_before = sim.link_stats(forward).transmitted;
        let allocs_before = ALLOCS.load(Ordering::SeqCst);
        sim.run_until(until);
        let allocs = ALLOCS.load(Ordering::SeqCst) - allocs_before;
        let delivered = sim.link_stats(forward).transmitted - delivered_before;
        assert!(
            delivered >= 2_000,
            "window carried only {delivered} data packets"
        );
        min_allocs = min_allocs.min(allocs);
    }
    if loss > 0.0 {
        let lost = sim.link_stats(forward).dropped_random;
        assert!(
            lost > 100,
            "only {lost} packets lost: no recovery exercised"
        );
    }
    assert_eq!(
        min_allocs, 0,
        "the packet path allocated in every window (at least {min_allocs} \
         allocations per window)"
    );
}

#[test]
fn loss_free_transfer_allocates_nothing() {
    assert_warm_path_allocates_nothing(0.0, false, 4, 4);
}

/// Under loss the out-of-order store, the SACK scoreboard and the
/// recovery paths run constantly; they keep their capacity between
/// episodes.
#[test]
fn lossy_transfer_allocates_nothing() {
    assert_warm_path_allocates_nothing(0.02, false, 30, 30);
}

/// Through two routers, with loss (both ways) on the link between them:
/// a forwarded packet keeps its slab slot, a lost one frees it.
#[test]
fn routed_lossy_transfer_allocates_nothing() {
    assert_warm_path_allocates_nothing(0.02, true, 30, 30);
}
