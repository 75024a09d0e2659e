//! Allocation enforcement for the CM's three user-space UDP APIs.
//!
//! `crates/transport/tests/no_alloc.rs` holds a warm TCP/CM transfer to
//! zero allocations; this test does the same for the §4.2 API-overhead
//! senders (`BlastSender` over `Buffered`, `Alf` and `AlfNoconnect`,
//! answered by a per-packet `AckReceiver` on the LAN). Each packet
//! crosses the CC-UDP socket queue or the libcm control socket and
//! dispatcher, the CM's request/notify/update calls, and the app-level
//! feedback tracker; none of them may allocate once warm.
//!
//! One allocation remains, and it is not per packet: the event wheel
//! gives each of its 512 slot buckets memory on first use. The blast's
//! LAN clock is so regular that its packets keep to slots already
//! warm, but each host's 100 ms CM tick lies beyond the wheel's 33.5 ms
//! horizon, and when the overflow heap hands it to the wheel it lands
//! about ten slots further round than the last one — often in a bucket
//! never used before. Until that drift has swept the whole ring (about
//! 90 simulated seconds) each tick instant may cost one bucket, so a
//! window may allocate at most [`TICKS_PER_WINDOW`] times.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::atomic::Ordering;

use cm_apps::ack_clients::{AckReceiver, FeedbackPolicy};
use cm_apps::blast::{BlastApi, BlastSender};
use cm_netsim::channel::PathSpec;
use cm_netsim::cpu::CostModel;
use cm_netsim::sim::Simulator;
use cm_netsim::topology::{Duplex, Topology};
use cm_transport::host::{Host, HostConfig};
use cm_util::{Duration, Time};
use counting_alloc::{measuring, ALLOCS};

/// Figure 6's setup with no packet target: a blaster over `api` with
/// 1,000-byte packets and a per-packet acknowledger, both hosts paying
/// the default CPU cost model, on the LAN.
fn blast(api: BlastApi) -> (Simulator, Duplex) {
    let cfg = HostConfig {
        cost: CostModel::default(),
        ..Default::default()
    };
    let mut topo = Topology::new(3);
    let mut rx = Host::new(cfg.clone());
    rx.add_app(Box::new(AckReceiver::new(9100, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx));
    let rx_addr = topo.sim().addr_of(rx_id);
    let mut tx = Host::new(cfg);
    tx.add_app(Box::new(BlastSender::new(
        rx_addr,
        9100,
        api,
        1_000,
        u64::MAX,
    )));
    let tx_id = topo.add_host(Box::new(tx));
    let path = topo.emulated_path(tx_id, rx_id, &PathSpec::lan());
    (topo.build(), path)
}

const WINDOW: Duration = Duration::from_millis(500);

/// CM tick instants in one [`WINDOW`] (both hosts tick every 100 ms,
/// together); each may warm one event-wheel bucket (see the module
/// docs).
const TICKS_PER_WINDOW: u64 = 5;

/// Runs five warm-up seconds (long enough for the packets' own wheel
/// slots to warm), then three windows: in the best of them (libtest's
/// own one-shot allocations can land in a window; a per-packet one
/// lands in all of them) nothing but the CM ticks' buckets may
/// allocate.
///
/// Drives: netsim `EventQueue::schedule` (its one warm-up allocation,
/// a slot bucket's first `reserve`, bounded here), `pop`.
fn assert_warm_blast_allocates_only_tick_buckets(api: BlastApi) {
    let _turn = measuring();
    let (mut sim, path) = blast(api);
    let mut until = Time::from_secs(5);
    sim.run_until(until);

    let mut min_allocs = u64::MAX;
    for _ in 0..3 {
        until += WINDOW;
        let delivered_before = sim.link_stats(path.forward).transmitted;
        let allocs_before = ALLOCS.load(Ordering::SeqCst);
        sim.run_until(until);
        let allocs = ALLOCS.load(Ordering::SeqCst) - allocs_before;
        let delivered = sim.link_stats(path.forward).transmitted - delivered_before;
        assert!(
            delivered >= 1_000,
            "{api:?}: window carried only {delivered} data packets"
        );
        min_allocs = min_allocs.min(allocs);
    }
    assert!(
        min_allocs <= TICKS_PER_WINDOW,
        "{api:?}: {min_allocs} allocations in the best window, beyond one per CM tick"
    );
}

#[test]
fn buffered_blast_allocates_only_tick_buckets() {
    assert_warm_blast_allocates_only_tick_buckets(BlastApi::Buffered);
}

#[test]
fn alf_blast_allocates_only_tick_buckets() {
    assert_warm_blast_allocates_only_tick_buckets(BlastApi::Alf);
}

#[test]
fn alf_noconnect_blast_allocates_only_tick_buckets() {
    assert_warm_blast_allocates_only_tick_buckets(BlastApi::AlfNoconnect);
}
