//! Cross-crate integration tests: the paper's headline claims, asserted.

use congestion_manager::apps::bulk::{BulkReceiver, BulkSender};
use congestion_manager::apps::web::{WebClient, WebServer};
use congestion_manager::core::prelude::*;
use congestion_manager::netsim::channel::PathSpec;
use congestion_manager::netsim::topology::Topology;
use congestion_manager::transport::host::{Host, HostConfig};
use congestion_manager::transport::types::CcMode;
use congestion_manager::util::{Duration as D, Rate, Time};

fn bulk_goodput(mode: CcMode, loss: f64, total: u64, seed: u64) -> Option<f64> {
    let mut topo = Topology::new(seed);
    let mut server = Host::new(HostConfig::default());
    server.add_app(Box::new(BulkReceiver::new(80, mode)));
    let server_id = topo.add_host(Box::new(server));
    let server_addr = topo.sim().addr_of(server_id);
    let mut client = Host::new(HostConfig::default());
    let app = client.add_app(Box::new(BulkSender::new(server_addr, 80, mode, total)));
    let client_id = topo.add_host(Box::new(client));
    topo.emulated_path(client_id, server_id, &PathSpec::fig3(loss));
    let mut sim = topo.build();
    sim.run_until(Time::from_secs(300));
    sim.node_ref::<Host>(client_id)
        .app_ref::<BulkSender>(app)
        .goodput_bps()
}

/// "We show that the CM behaves in the same network-friendly manner as
/// TCP for single flows": TCP/CM goodput stays within 3x of TCP/Linux in
/// both directions across the loss sweep (shape-compatible curves).
#[test]
fn tcp_cm_is_tcp_compatible_across_loss() {
    for loss in [0.005, 0.02, 0.05] {
        let cm: f64 = (0..2)
            .filter_map(|s| bulk_goodput(CcMode::Cm, loss, 1_500_000, 42 + s))
            .sum::<f64>()
            / 2.0;
        let linux: f64 = (0..2)
            .filter_map(|s| bulk_goodput(CcMode::Native, loss, 1_500_000, 42 + s))
            .sum::<f64>()
            / 2.0;
        let ratio = cm / linux;
        assert!(
            (0.33..=3.0).contains(&ratio),
            "at {loss}: CM {cm:.0} vs Linux {linux:.0} (ratio {ratio:.2})"
        );
    }
}

/// Throughput declines monotonically (within tolerance) as loss rises —
/// the defining property of Figure 3's curves.
#[test]
fn loss_throughput_curve_is_monotone() {
    let points: Vec<f64> = [0.005, 0.02, 0.05]
        .iter()
        .map(|&l| bulk_goodput(CcMode::Cm, l, 1_500_000, 42).unwrap_or(0.0))
        .collect();
    assert!(
        points[0] > points[1] && points[1] > points[2],
        "goodputs {points:?} not declining"
    );
}

/// The Figure 7 claim: with a CM server, later sequential requests beat
/// the first by a wide margin, while the non-CM server stays flat.
#[test]
fn web_state_sharing_speeds_up_later_requests() {
    let run = |mode: CcMode| -> Vec<f64> {
        let mut topo = Topology::new(42);
        let mut server_host = Host::new(HostConfig::default());
        server_host.add_app(Box::new(WebServer::new(80, mode, 128 * 1024)));
        let server_id = topo.add_host(Box::new(server_host));
        let server_addr = topo.sim().addr_of(server_id);
        let mut client_host = Host::new(HostConfig::default());
        let client_app = client_host.add_app(Box::new(WebClient::new(
            server_addr,
            80,
            9,
            D::from_millis(500),
            128 * 1024,
        )));
        let client_id = topo.add_host(Box::new(client_host));
        topo.emulated_path(client_id, server_id, &PathSpec::wide_area());
        let mut sim = topo.build();
        sim.run_until(Time::from_secs(60));
        sim.node_ref::<Host>(client_id)
            .app_ref::<WebClient>(client_app)
            .latencies_ms()
    };
    let cm = run(CcMode::Cm);
    let linux = run(CcMode::Native);
    assert_eq!(cm.len(), 9, "all CM requests completed");
    assert_eq!(linux.len(), 9, "all Linux requests completed");
    // CM: the last request is at least 30% faster than the first
    // (paper: ~40%).
    assert!(
        cm[8] < cm[0] * 0.7,
        "CM: first {:.0} ms, last {:.0} ms",
        cm[0],
        cm[8]
    );
    // Linux: flat within 15%.
    let spread = (linux.iter().cloned().fold(f64::MIN, f64::max)
        - linux.iter().cloned().fold(f64::MAX, f64::min))
        / linux[0];
    assert!(spread < 0.15, "Linux latencies vary by {spread:.2}");
}

/// "An ensemble of concurrent flows is not an overly aggressive user of
/// the network": N CM flows to one destination share one macroflow
/// window, so their aggregate goodput stays in the same ballpark as a
/// single flow, instead of growing ~N times more aggressive.
#[test]
fn ensemble_shares_one_window() {
    let run_n = |n: usize| -> f64 {
        let mut topo = Topology::new(9);
        let mut server = Host::new(HostConfig::default());
        server.add_app(Box::new(BulkReceiver::new(80, CcMode::Cm)));
        let server_id = topo.add_host(Box::new(server));
        let server_addr = topo.sim().addr_of(server_id);
        let mut client = Host::new(HostConfig::default());
        let mut apps = Vec::new();
        for _ in 0..n {
            apps.push(client.add_app(Box::new(BulkSender::new(
                server_addr,
                80,
                CcMode::Cm,
                600_000,
            ))));
        }
        let client_id = topo.add_host(Box::new(client));
        // A constrained path: aggression would show as aggregate speedup.
        topo.emulated_path(
            client_id,
            server_id,
            &PathSpec::new(Rate::from_mbps(4), D::from_millis(60)),
        );
        let mut sim = topo.build();
        sim.run_until(Time::from_secs(120));
        let host = sim.node_ref::<Host>(client_id);
        let mut total_bytes = 0.0;
        let mut last_done: f64 = 0.0;
        for &a in &apps {
            let s = host.app_ref::<BulkSender>(a);
            if let (Some(start), Some(done)) = (s.started_at, s.done_at) {
                total_bytes += s.total as f64;
                last_done = last_done.max(done.since(start).as_secs_f64());
            }
        }
        if last_done == 0.0 {
            return 0.0;
        }
        total_bytes / last_done
    };
    let one = run_n(1);
    let four = run_n(4);
    assert!(one > 0.0 && four > 0.0, "transfers completed");
    // Four flows moved 4x the data; sharing one window means the
    // aggregate rate stays within ~2x of a single flow's, not 4x.
    assert!(
        four < one * 2.0,
        "ensemble rate {four:.0} vs single {one:.0} — too aggressive"
    );
}

/// Concurrent TCP/CM flows through one macroflow converge on similar
/// shares (the unweighted round-robin scheduler's fairness).
#[test]
fn concurrent_flows_share_fairly() {
    let mut topo = Topology::new(33);
    let mut server = Host::new(HostConfig::default());
    server.add_app(Box::new(BulkReceiver::new(80, CcMode::Cm)));
    let server_id = topo.add_host(Box::new(server));
    let server_addr = topo.sim().addr_of(server_id);
    let mut client = Host::new(HostConfig::default());
    let a1 = client.add_app(Box::new(BulkSender::new(
        server_addr,
        80,
        CcMode::Cm,
        2_000_000,
    )));
    let a2 = client.add_app(Box::new(BulkSender::new(
        server_addr,
        80,
        CcMode::Cm,
        2_000_000,
    )));
    let client_id = topo.add_host(Box::new(client));
    topo.emulated_path(
        client_id,
        server_id,
        &PathSpec::new(Rate::from_mbps(8), D::from_millis(40)),
    );
    let mut sim = topo.build();
    // Sample mid-transfer progress.
    sim.run_until(Time::from_secs(4));
    let host = sim.node_ref::<Host>(client_id);
    let p1 = host.app_ref::<BulkSender>(a1).acked as f64;
    let p2 = host.app_ref::<BulkSender>(a2).acked as f64;
    assert!(p1 > 0.0 && p2 > 0.0, "both making progress");
    let ratio = p1.max(p2) / p1.min(p2);
    assert!(ratio < 2.0, "progress imbalance: {p1} vs {p2}");
}

/// The CM API example from the crate docs, end to end, including
/// macroflow split/merge and rate callbacks.
#[test]
fn cm_api_full_surface() {
    let mut cm = CongestionManager::new(CmConfig::default());
    let now = Time::ZERO;
    let f1 = cm
        .open(
            FlowKey::new(Endpoint::new(1, 1000), Endpoint::new(9, 80)),
            now,
        )
        .unwrap();
    let f2 = cm
        .open(
            FlowKey::new(Endpoint::new(1, 1001), Endpoint::new(9, 80)),
            now,
        )
        .unwrap();
    assert_eq!(cm.macroflow_of(f1).unwrap(), cm.macroflow_of(f2).unwrap());

    cm.set_thresholds(f1, Some(Thresholds::new(0.5, 2.0)))
        .unwrap();
    cm.set_weight(f2, 3).unwrap();

    // Drive feedback so rate callbacks can fire.
    let mut now = now;
    let mut notes = Vec::new();
    for _ in 0..8 {
        cm.request(f1, now).unwrap();
        notes.clear();
        cm.drain_notifications_into(&mut notes);
        for &n in &notes {
            if let CmNotification::SendGrant { flow } = n {
                cm.notify(flow, 1460, now).unwrap();
            }
        }
        now += Duration::from_millis(30);
        cm.update(
            f1,
            FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(30)),
            now,
        )
        .unwrap();
        cm.release_paced(now);
    }
    notes.clear();
    cm.drain_notifications_into(&mut notes);
    assert!(cm.stats().rate_callbacks > 0 || !notes.is_empty());

    // Split f2 onto a private macroflow and merge it back.
    let private = cm.split(f2, now).unwrap();
    assert_ne!(private, cm.macroflow_of(f1).unwrap());
    cm.merge(f2, cm.macroflow_of(f1).unwrap(), now).unwrap();
    assert_eq!(cm.macroflow_of(f1).unwrap(), cm.macroflow_of(f2).unwrap());

    cm.close(f1, now).unwrap();
    cm.close(f2, now).unwrap();
    assert_eq!(cm.flow_count(), 0);
}
