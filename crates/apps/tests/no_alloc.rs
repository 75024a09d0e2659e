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
//! That includes the event wheel's slots the run has not used yet. Each
//! host's 100 ms CM tick lies beyond the wheel's 33.5 ms horizon, and
//! when the overflow heap hands it to the wheel it lands about ten slots
//! further round than the last one, so a window keeps reaching slots
//! never used before; a slot is a list threaded through the queue's
//! event arena, so its first use costs nothing.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use cm_apps::ack_clients::{AckReceiver, FeedbackPolicy};
use cm_apps::blast::{BlastApi, BlastSender};
use cm_apps::layered::{AdaptMode, LayeredStreamer};
use cm_netsim::channel::PathSpec;
use cm_netsim::cpu::CostModel;
use cm_netsim::sim::Simulator;
use cm_netsim::topology::{Duplex, Topology};
use cm_transport::host::{Host, HostConfig};
use cm_util::{Duration, Time};
use counting_alloc::{allocs, live};

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

/// Runs five warm-up seconds, then three windows: in the best of them
/// (a one-shot allocation can land in a window; a per-packet or
/// per-tick one lands in all of them) nothing may allocate.
///
/// Drives: netsim `EventQueue::schedule`, `pop`; the CPU ledger
/// `Cpu::syscall`, `ioctl`, `select`, `gettimeofday`.
fn assert_warm_blast_allocates_nothing(api: BlastApi) {
    let (mut sim, path) = blast(api);
    let mut until = Time::from_secs(5);
    sim.run_until(until);

    let mut min_allocs = u64::MAX;
    for _ in 0..3 {
        until += WINDOW;
        let delivered_before = sim.link_stats(path.forward).transmitted;
        let allocs_before = allocs();
        sim.run_until(until);
        let allocs = allocs() - allocs_before;
        let delivered = sim.link_stats(path.forward).transmitted - delivered_before;
        assert!(
            delivered >= 1_000,
            "{api:?}: window carried only {delivered} data packets"
        );
        min_allocs = min_allocs.min(allocs);
    }
    assert_eq!(min_allocs, 0, "{api:?}: allocations in the best window");
}

#[test]
fn buffered_blast_allocates_nothing() {
    assert_warm_blast_allocates_nothing(BlastApi::Buffered);
}

#[test]
fn alf_blast_allocates_nothing() {
    assert_warm_blast_allocates_nothing(BlastApi::Alf);
}

#[test]
fn alf_noconnect_blast_allocates_nothing() {
    assert_warm_blast_allocates_nothing(BlastApi::AlfNoconnect);
}

/// A streamer's own state grows with simulated time, not with packets:
/// its send record is one counter per second. An ALF streamer on the LAN
/// sends on every grant, about 12,000 packets a second; from 10 s to
/// 40 s the live heap may grow by under 2 B per packet sent (a 16 B log
/// entry per packet grew it by 16 B or more).
///
/// Drives: `LayeredStreamer::send_packet`.
#[test]
fn layered_streamer_state_is_bounded_by_time() {
    let mut topo = Topology::new(3);
    let mut rx = Host::new(HostConfig::default());
    rx.add_app(Box::new(AckReceiver::new(9000, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx));
    let rx_addr = topo.sim().addr_of(rx_id);
    let mut tx = Host::new(HostConfig::default());
    let app = tx.add_app(Box::new(LayeredStreamer::new(
        rx_addr,
        9000,
        AdaptMode::Alf,
        Time::MAX,
    )));
    let tx_id = topo.add_host(Box::new(tx));
    topo.emulated_path(tx_id, rx_id, &PathSpec::lan());
    let mut sim = topo.build();
    let sent = |sim: &Simulator| {
        sim.node_ref::<Host>(tx_id)
            .app_ref::<LayeredStreamer>(app)
            .packets_sent
    };

    sim.run_until(Time::from_secs(10));
    let (live_before, sent_before) = (live(), sent(&sim));
    sim.run_until(Time::from_secs(40));
    let packets = sent(&sim) - sent_before;
    let growth = live() - live_before;
    assert!(packets >= 100_000, "only {packets} packets sent");
    let per_packet = growth as f64 / packets as f64;
    assert!(
        per_packet < 2.0,
        "live heap grew {growth} B over {packets} packets ({per_packet:.2} B each)"
    );
}
