//! End-to-end application tests over the simulated network.

use cm_apps::ack_clients::{AckReceiver, FeedbackPolicy};
use cm_apps::blast::{BlastApi, BlastSender};
use cm_apps::cross::{NullSink, OnOffSource};
use cm_apps::layered::{AdaptMode, LayeredStreamer};
use cm_apps::vat::{DropPolicy, VatAudio};
use cm_apps::web::{WebClient, WebServer};
use cm_netsim::channel::PathSpec;
use cm_netsim::link::LinkSpec;
use cm_netsim::topology::Topology;
use cm_transport::host::{Host, HostConfig};
use cm_transport::types::CcMode;
use cm_util::{Duration, Rate, Time};

/// A streamer and per-packet acker across an emulated path; used by the
/// layered and vat scenarios.
fn stream_scenario(mode: AdaptMode, secs: u64) -> (u64, u64, usize) {
    let mut topo = Topology::new(7);
    let mut rx_host = Host::new(HostConfig::default());
    let rx_app = rx_host.add_app(Box::new(AckReceiver::new(9000, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx_host));
    let rx_addr = topo.sim().addr_of(rx_id);

    let mut tx_host = Host::new(HostConfig::default());
    let tx_app = tx_host.add_app(Box::new(LayeredStreamer::new(
        rx_addr,
        9000,
        mode,
        Time::from_secs(secs),
    )));
    let tx_id = topo.add_host(Box::new(tx_host));

    // 20 Mbps mirrors the Figure 8/9 wide-area bottleneck; headroom above
    // the top layer keeps queueing delay from polluting the RTT estimate.
    topo.emulated_path(
        tx_id,
        rx_id,
        &PathSpec::new(Rate::from_mbps(20), Duration::from_millis(60)),
    );
    let mut sim = topo.build();
    sim.run_until(Time::from_secs(secs + 2));
    let tx = sim
        .node_ref::<Host>(tx_id)
        .app_ref::<LayeredStreamer>(tx_app);
    let rx = sim.node_ref::<Host>(rx_id).app_ref::<AckReceiver>(rx_app);
    (tx.bytes_sent, rx.bytes, tx.cm_rate.len())
}

#[test]
fn alf_streamer_saturates_and_reports_rates() {
    let (sent, received, samples) = stream_scenario(AdaptMode::Alf, 10);
    // 8 Mbps for ~10 s = ~10 MB ceiling; ALF mode should push several MB.
    assert!(sent > 2_000_000, "sent {sent}");
    // Loss-free path: everything sent arrives.
    assert!(received >= sent * 9 / 10, "received {received} of {sent}");
    assert!(samples > 50, "cm rate series has {samples} points");
}

#[test]
fn rate_callback_streamer_clocks_at_layer_rate() {
    let (sent, received, _) = stream_scenario(AdaptMode::RateCallback, 10);
    // Clocked mode sends at the selected layer's rate, so volume is
    // bounded by the top layer (2 MB/s) and must exceed the bottom
    // layer's 10-second volume if adaptation climbed at all.
    assert!(sent > 1_000_000, "sent {sent}");
    assert!(sent < 25_000_000, "sent {sent}");
    assert!(received > 0);
}

#[test]
fn layered_streamer_adapts_to_cross_traffic() {
    // Dumbbell: streamer shares a 4 Mbps bottleneck with an on/off CBR
    // source; the chosen layer must drop while the source is on.
    let mut topo = Topology::new(21);
    let mut rx_host = Host::new(HostConfig::default());
    let rx_app = rx_host.add_app(Box::new(AckReceiver::new(9000, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx_host));
    let rx_addr = topo.sim().addr_of(rx_id);

    let mut sink_host = Host::new(HostConfig::default());
    sink_host.add_app(Box::new(NullSink::new(7000)));
    let sink_id = topo.add_host(Box::new(sink_host));
    let sink_addr = topo.sim().addr_of(sink_id);

    let mut tx_host = Host::new(HostConfig::default());
    let tx_app = tx_host.add_app(Box::new(LayeredStreamer::new(
        rx_addr,
        9000,
        AdaptMode::Alf,
        Time::from_secs(20),
    )));
    let tx_id = topo.add_host(Box::new(tx_host));

    let mut cross_host = Host::new(HostConfig::default());
    let mut src = OnOffSource::new(
        sink_addr,
        7000,
        Rate::from_mbps(3),
        Duration::from_secs(5),
        Duration::from_secs(5),
    );
    src.start_after = Duration::from_secs(5);
    cross_host.add_app(Box::new(src));
    let cross_id = topo.add_host(Box::new(cross_host));

    let bottleneck = LinkSpec::new(Rate::from_mbps(4), Duration::from_millis(20));
    let access = LinkSpec::new(Rate::from_mbps(100), Duration::from_millis(1));
    topo.dumbbell(&[tx_id, cross_id], &[rx_id, sink_id], &bottleneck, &access);
    let mut sim = topo.build();
    sim.run_until(Time::from_secs(22));
    let tx = sim
        .node_ref::<Host>(tx_id)
        .app_ref::<LayeredStreamer>(tx_app);
    let rx = sim.node_ref::<Host>(rx_id).app_ref::<AckReceiver>(rx_app);
    assert!(rx.bytes > 500_000, "streamer moved {} bytes", rx.bytes);
    assert!(
        !tx.layer_changes.is_empty(),
        "adaptation never changed layer"
    );
}

#[test]
fn vat_polices_to_available_bandwidth() {
    // A 64 Kbit/s audio source on a 32 Kbit/s path: roughly half the
    // frames must be dropped preemptively, and the mean queueing age of
    // what *is* sent stays small with drop-from-head.
    let mut topo = Topology::new(3);
    let mut rx_host = Host::new(HostConfig::default());
    let rx_app = rx_host.add_app(Box::new(AckReceiver::new(5003, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx_host));
    let rx_addr = topo.sim().addr_of(rx_id);

    let mut tx_host = Host::new(HostConfig::default());
    let tx_app = tx_host.add_app(Box::new(VatAudio::new(
        rx_addr,
        5003,
        DropPolicy::Head,
        Time::from_secs(30),
    )));
    let tx_id = topo.add_host(Box::new(tx_host));
    topo.emulated_path(
        tx_id,
        rx_id,
        &PathSpec::new(Rate::from_kbps(32), Duration::from_millis(50)),
    );
    let mut sim = topo.build();
    sim.run_until(Time::from_secs(32));
    let vat = sim.node_ref::<Host>(tx_id).app_ref::<VatAudio>(tx_app);
    let rx = sim.node_ref::<Host>(rx_id).app_ref::<AckReceiver>(rx_app);
    assert!(
        vat.frames_generated >= 1_400,
        "{} frames",
        vat.frames_generated
    );
    let df = vat.delivery_fraction();
    assert!(
        (0.2..=0.85).contains(&df),
        "delivery fraction {df} should reflect ~half the link rate"
    );
    assert!(vat.policer_drops > 0, "policer never dropped");
    assert!(rx.packets > 100, "receiver got {}", rx.packets);
}

#[test]
fn layered_streamer_tracks_bandwidth_schedule() {
    // Time-varying capacity without cross-traffic hosts: the bottleneck
    // itself follows a square wave between 4 Mbps and 0.6 Mbps, and the
    // streamer's layer choice must follow it down and back up.
    use cm_netsim::schedule::BandwidthSchedule;

    let mut topo = Topology::new(17);
    let mut rx_host = Host::new(HostConfig::default());
    let rx_app = rx_host.add_app(Box::new(AckReceiver::new(9000, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx_host));
    let rx_addr = topo.sim().addr_of(rx_id);

    let mut tx_host = Host::new(HostConfig::default());
    let tx_app = tx_host.add_app(Box::new(LayeredStreamer::new(
        rx_addr,
        9000,
        AdaptMode::Alf,
        Time::from_secs(24),
    )));
    let tx_id = topo.add_host(Box::new(tx_host));

    let d = topo.emulated_path(
        tx_id,
        rx_id,
        &PathSpec::new(Rate::from_mbps(4), Duration::from_millis(40)),
    );
    let sched = BandwidthSchedule::square_wave(
        Rate::from_mbps(4),
        Rate::from_kbps(600),
        Duration::from_secs(6),
        Time::from_secs(24),
    );
    topo.schedule_link(d.forward, &sched);
    let mut sim = topo.build();
    sim.run_until(Time::from_secs(26));

    let tx = sim
        .node_ref::<Host>(tx_id)
        .app_ref::<LayeredStreamer>(tx_app);
    let rx = sim.node_ref::<Host>(rx_id).app_ref::<AckReceiver>(rx_app);
    assert!(rx.bytes > 500_000, "streamer moved {} bytes", rx.bytes);
    let stats = tx.adaptation_stats();
    assert!(
        stats.switches_down >= 1 && stats.switches_up >= 1,
        "adaptation did not track the schedule: {:?} changes",
        tx.layer_changes
    );
    // The streamer spent meaningful time both high and low.
    let low = stats.fraction_in_level(0);
    assert!(
        low > 0.05 && low < 0.95,
        "time-in-layer imbalance: floor fraction {low}"
    );
}

/// Regression: two streamers on one host used to collide on UDP port
/// 5004 — the second bind took the port over, so the first streamer never
/// saw an acknowledgement and its CM flow sat at the initial window for
/// ever. Each must now hold its own port, get feedback and open its window.
#[test]
fn two_streamers_on_one_host_both_get_feedback() {
    let stop = Time::from_secs(10);
    let mut topo = Topology::new(11);
    let mut rx = Vec::new();
    for _ in 0..2 {
        let mut host = Host::new(HostConfig::default());
        let app = host.add_app(Box::new(AckReceiver::new(9000, FeedbackPolicy::PerPacket)));
        let id = topo.add_host(Box::new(host));
        rx.push((id, app, topo.sim().addr_of(id)));
    }
    let mut tx_host = Host::new(HostConfig::default());
    let tx_apps: Vec<_> = [AdaptMode::Alf, AdaptMode::RateCallback]
        .into_iter()
        .zip(&rx)
        .map(|(mode, &(_, _, addr))| {
            tx_host.add_app(Box::new(LayeredStreamer::new(addr, 9000, mode, stop)))
        })
        .collect();
    let tx_id = topo.add_host(Box::new(tx_host));
    let bottleneck = LinkSpec::new(Rate::from_mbps(20), Duration::from_millis(20));
    let access = LinkSpec::new(Rate::from_mbps(100), Duration::from_millis(1));
    topo.dumbbell(&[tx_id], &[rx[0].0, rx[1].0], &bottleneck, &access);
    let mut sim = topo.build();
    sim.run_until(stop + Duration::from_secs(1));

    let tx = sim.node_ref::<Host>(tx_id);
    let initial_window = HostConfig::default().cm.initial_window_bytes();
    for (i, (&app, &(rx_id, rx_app, _))) in tx_apps.iter().zip(&rx).enumerate() {
        let streamer = tx.app_ref::<LayeredStreamer>(app);
        let acked = sim.node_ref::<Host>(rx_id).app_ref::<AckReceiver>(rx_app);
        assert!(acked.bytes > 500_000, "streamer {i} moved {}", acked.bytes);
        assert!(
            streamer.adaptation_stats().switches_up >= 1,
            "streamer {i} never climbed off the base layer"
        );
        // One macroflow per receiver, in open order.
        let window = tx.cm.window_of(cm_core::MacroflowId(i as u32)).unwrap();
        assert!(
            window > initial_window,
            "streamer {i} is still at the initial window ({window} B): no feedback reached it"
        );
    }
}

#[test]
fn web_client_sequential_requests_complete() {
    let mut topo = Topology::new(5);
    let mut server_host = Host::new(HostConfig::default());
    server_host.add_app(Box::new(WebServer::new(80, CcMode::Cm, 128 * 1024)));
    let server_id = topo.add_host(Box::new(server_host));
    let server_addr = topo.sim().addr_of(server_id);

    let mut client_host = Host::new(HostConfig::default());
    let client_app = client_host.add_app(Box::new(WebClient::new(
        server_addr,
        80,
        5,
        Duration::from_millis(500),
        128 * 1024,
    )));
    let client_id = topo.add_host(Box::new(client_host));
    topo.emulated_path(client_id, server_id, &PathSpec::wide_area());
    let mut sim = topo.build();
    sim.run_until(Time::from_secs(30));
    let client = sim
        .node_ref::<Host>(client_id)
        .app_ref::<WebClient>(client_app);
    assert!(client.all_done(), "latencies: {:?}", client.latencies_ms());
    let lat = client.latencies_ms();
    // Later requests reuse warmed congestion state: strictly faster than
    // the slow-start-limited first request.
    assert!(
        lat[4] < lat[0],
        "request 5 ({:.0} ms) should beat request 1 ({:.0} ms)",
        lat[4],
        lat[0]
    );
}

#[test]
fn blast_apis_complete_and_rank_by_overhead() {
    // On a loss-free LAN with real CPU costs, all three API variants
    // finish, and the per-packet cost ranks ALF/noconnect >= ALF >=
    // Buffered (Table 1's cumulative-overhead ordering).
    let run = |api: BlastApi| -> f64 {
        let mut topo = Topology::new(13);
        let mut rx_host = Host::new(HostConfig {
            cost: cm_netsim::cpu::CostModel::default(),
            ..Default::default()
        });
        rx_host.add_app(Box::new(AckReceiver::new(9100, FeedbackPolicy::PerPacket)));
        let rx_id = topo.add_host(Box::new(rx_host));
        let rx_addr = topo.sim().addr_of(rx_id);
        let mut tx_host = Host::new(HostConfig {
            cost: cm_netsim::cpu::CostModel::default(),
            ..Default::default()
        });
        let tx_app = tx_host.add_app(Box::new(BlastSender::new(rx_addr, 9100, api, 1000, 2_000)));
        let tx_id = topo.add_host(Box::new(tx_host));
        topo.emulated_path(tx_id, rx_id, &PathSpec::lan());
        let mut sim = topo.build();
        sim.run_until(Time::from_secs(30));
        let tx = sim.node_ref::<Host>(tx_id).app_ref::<BlastSender>(tx_app);
        tx.us_per_packet()
            .unwrap_or_else(|| panic!("{api:?} did not finish: acked {}", tx.acked))
    };
    let buffered = run(BlastApi::Buffered);
    let alf = run(BlastApi::Alf);
    let alf_nc = run(BlastApi::AlfNoconnect);
    assert!(
        alf_nc >= alf * 0.98,
        "noconnect {alf_nc:.2} vs alf {alf:.2}"
    );
    assert!(
        alf >= buffered * 0.95,
        "alf {alf:.2} vs buffered {buffered:.2}"
    );
}
