//! The paper's testbed scenarios.
//!
//! Each function builds a deterministic simulation matching one of the
//! paper's §4 setups and returns the measurements the [`crate::paper`]
//! figures plot; [`crate::runner`] holds the sweep cells of the
//! declarative experiments.

use cm_apps::ack_clients::{AckReceiver, FeedbackPolicy};
use cm_apps::blast::{BlastApi, BlastSender};
use cm_apps::bulk::{BulkReceiver, BulkSender};
use cm_apps::cross::{NullSink, OnOffSource};
use cm_apps::layered::{AdaptMode, LayeredStreamer};
use cm_apps::web::{WebClient, WebServer};
use cm_core::config::{CmConfig, ControllerKind};
use cm_netsim::channel::PathSpec;
use cm_netsim::cpu::{CostModel, Cpu, OpCounts};
use cm_netsim::link::LinkSpec;
use cm_netsim::topology::Topology;
use cm_transport::host::{Host, HostConfig};
use cm_transport::tcp::TcpConfig;
use cm_transport::types::{CcMode, TcpConnId};
use cm_util::{Duration, Rate, Time, TimeSeries};

/// Result of one bulk TCP transfer.
#[derive(Clone, Copy, Debug)]
pub struct BulkOutcome {
    /// Application goodput in bytes/second (NaN if incomplete).
    pub goodput_bps: f64,
    /// Goodput over the middle half of the transfer (slow-start warm-up
    /// and tail discarded), if the transfer got that far.
    pub steady_goodput_bps: Option<f64>,
    /// Whether the transfer finished within the deadline.
    pub completed: bool,
    /// Transfer duration (connection initiation to final ACK).
    pub elapsed: Duration,
    /// Handshake duration.
    pub connect_time: Option<Duration>,
    /// Sender CPU utilization over the transfer window.
    pub cpu_utilization: f64,
    /// Data segments transmitted (first transmissions).
    pub segs_sent: u64,
    /// Bytes retransmitted.
    pub bytes_rtx: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
}

/// One ttcp-style bulk transfer: `total` bytes from a client to a
/// server over TCP in `mode`.
#[derive(Clone, Copy, Debug)]
pub struct BulkSpec {
    /// Native TCP congestion control, or TCP over the CM.
    pub mode: CcMode,
    /// Bytes to send.
    pub total: u64,
    /// Topology seed.
    pub seed: u64,
    /// Both hosts' CPU cost model.
    pub cost: CostModel,
    /// Whether the receiver delays its ACKs.
    pub delayed_ack: bool,
    /// TCP segment size; the CM grants in the same unit.
    pub mss: usize,
    /// When the run stops, finished or not.
    pub deadline: Time,
    /// The CM's congestion controller — the end-to-end axis of the
    /// controller ablations.
    pub controller: ControllerKind,
}

impl BulkSpec {
    /// `total` bytes in `mode` with delayed ACKs, 1460-byte segments,
    /// the CM's byte-counting AIMD, free CPU and a 600 s deadline.
    pub fn new(mode: CcMode, total: u64, seed: u64) -> Self {
        BulkSpec {
            mode,
            total,
            seed,
            cost: CostModel::free(),
            delayed_ack: true,
            mss: 1460,
            deadline: Time::from_secs(600),
            controller: ControllerKind::Aimd {
                byte_counting: true,
            },
        }
    }
}

/// Runs one bulk transfer over `path`.
pub fn bulk_transfer(path: &PathSpec, spec: BulkSpec) -> BulkOutcome {
    let BulkSpec {
        mode,
        total,
        seed,
        cost,
        delayed_ack,
        mss,
        deadline,
        controller,
    } = spec;
    // The CM grants in MTU units; align it with the test's segment size.
    // The 64 KB receive window is the era-correct default and keeps the
    // LAN runs loss-free, as the paper observed on its testbed.
    let tcp = TcpConfig {
        mss,
        delayed_ack,
        rwnd: 64 * 1024,
    };
    let cm = CmConfig {
        mtu: mss,
        controller,
        ..Default::default()
    };
    let mut topo = Topology::new(seed);
    let mut server = Host::new(HostConfig {
        cost,
        tcp: tcp.clone(),
        cm,
    });
    server.add_app(Box::new(BulkReceiver::new(80, mode)));
    let server_id = topo.add_host(Box::new(server));
    let server_addr = topo.sim().addr_of(server_id);

    let mut client = Host::new(HostConfig { cost, tcp, cm });
    let tx_app = client.add_app(Box::new(BulkSender::new(server_addr, 80, mode, total)));
    let client_id = topo.add_host(Box::new(client));
    topo.emulated_path(client_id, server_id, path);
    let mut sim = topo.build();
    sim.run_until(deadline);

    let host = sim.node_ref::<Host>(client_id);
    let tx = host.app_ref::<BulkSender>(tx_app);
    let conn = host.tcp_conn(TcpConnId(0));
    let elapsed = match (tx.started_at, tx.done_at) {
        (Some(s), Some(d)) => d.since(s),
        (Some(s), None) => sim.now().since(s),
        _ => Duration::ZERO,
    };
    BulkOutcome {
        goodput_bps: tx.goodput_bps().unwrap_or(f64::NAN),
        steady_goodput_bps: tx.steady_goodput_bps(),
        completed: tx.done_at.is_some(),
        elapsed,
        connect_time: tx.connect_time(),
        cpu_utilization: Cpu::utilization(host.cpu.total_busy(), elapsed),
        segs_sent: conn.map(|c| c.stats.segs_sent).unwrap_or(0),
        bytes_rtx: conn.map(|c| c.stats.bytes_rtx).unwrap_or(0),
        timeouts: conn.map(|c| c.stats.timeouts).unwrap_or(0),
    }
}

/// The paper's 100 Mbps switched LAN, with enough switch buffering that
/// its "no losses occurred" observation holds.
pub fn switched_lan() -> PathSpec {
    PathSpec::lan().with_queue_limit(256)
}

/// Result of one UDP API-overhead run (Figure 6 / Table 1).
#[derive(Clone, Copy, Debug)]
pub struct BlastOutcome {
    /// Mean microseconds per packet.
    pub us_per_packet: f64,
    /// Sender-side operation counts.
    pub ops: OpCounts,
    /// Packets acknowledged.
    pub acked: u64,
}

/// Runs a fixed-size-packet blaster over the given user-space API on the
/// loss-free LAN.
pub fn blast(api: BlastApi, packet_size: u32, target: u64, seed: u64) -> BlastOutcome {
    let mut topo = Topology::new(seed);
    let mut rx_host = Host::new(HostConfig {
        cost: CostModel::default(),
        ..Default::default()
    });
    rx_host.add_app(Box::new(AckReceiver::new(9100, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx_host));
    let rx_addr = topo.sim().addr_of(rx_id);
    let mut tx_host = Host::new(HostConfig {
        cost: CostModel::default(),
        ..Default::default()
    });
    let tx_app = tx_host.add_app(Box::new(BlastSender::new(
        rx_addr,
        9100,
        api,
        packet_size,
        target,
    )));
    let tx_id = topo.add_host(Box::new(tx_host));
    topo.emulated_path(tx_id, rx_id, &switched_lan());
    let mut sim = topo.build();
    sim.run_until(Time::from_secs(600));
    let host = sim.node_ref::<Host>(tx_id);
    let tx = host.app_ref::<BlastSender>(tx_app);
    BlastOutcome {
        us_per_packet: tx.us_per_packet().unwrap_or(f64::NAN),
        ops: host.cpu.ops,
        acked: tx.acked,
    }
}

/// Runs the TCP side of Figure 6: a bulk transfer with `mss`-sized
/// segments on the LAN; returns steady-state microseconds per data
/// segment (the slow-start warmup quarter is discarded, matching the
/// paper's long 200k-packet averaging).
pub fn tcp_blast(mode: CcMode, mss: usize, segments: u64, delayed_ack: bool, seed: u64) -> f64 {
    let o = bulk_transfer(
        &switched_lan(),
        BulkSpec {
            cost: CostModel::default(),
            delayed_ack,
            mss,
            ..BulkSpec::new(mode, mss as u64 * segments, seed)
        },
    );
    match o.steady_goodput_bps {
        Some(bps) if bps > 0.0 => mss as f64 / bps * 1e6,
        _ => f64::NAN,
    }
}

/// Result of a streaming adaptation run (Figure 10).
pub struct StreamOutcome {
    /// Transmission rate over time, KB/s, binned.
    pub tx_rate: Vec<(f64, f64)>,
    /// CM-reported rate over time, KB/s, binned.
    pub cm_rate: Vec<(f64, f64)>,
    /// Layer changes `(seconds, layer)`.
    pub layer_changes: Vec<(f64, usize)>,
    /// Total bytes delivered to the receiver.
    pub delivered: u64,
}

/// Runs the layered streamer over a wide-area dumbbell with square-wave
/// cross traffic — the Figure 10 environment. It is its own topology
/// (real cross-traffic hosts on a dumbbell), not a scheduled-link sweep
/// cell, so it stays apart from [`crate::runner::layered_cell`].
pub fn layered_stream(
    mode: AdaptMode,
    secs: u64,
    feedback: FeedbackPolicy,
    bin: Duration,
    seed: u64,
) -> StreamOutcome {
    let stop = Time::from_secs(secs);
    let mut topo = Topology::new(seed);

    let mut rx_host = Host::new(HostConfig::default());
    let rx_app = rx_host.add_app(Box::new(AckReceiver::new(9000, feedback)));
    let rx_id = topo.add_host(Box::new(rx_host));
    let rx_addr = topo.sim().addr_of(rx_id);

    let mut sink_host = Host::new(HostConfig::default());
    sink_host.add_app(Box::new(NullSink::new(7000)));
    let sink_id = topo.add_host(Box::new(sink_host));
    let sink_addr = topo.sim().addr_of(sink_id);

    let mut tx_host = Host::new(HostConfig::default());
    let tx_app = tx_host.add_app(Box::new(LayeredStreamer::new(rx_addr, 9000, mode, stop)));
    let tx_id = topo.add_host(Box::new(tx_host));

    // Cross traffic removes ~60% of the bottleneck while on, so the
    // sustainable layer flips between the top and a middle layer.
    let mut cross_host = Host::new(HostConfig::default());
    let mut src = OnOffSource::new(
        sink_addr,
        7000,
        Rate::from_mbps(12),
        Duration::from_secs(5),
        Duration::from_secs(5),
    );
    src.start_after = Duration::from_secs(6);
    src.stop_at = stop;
    cross_host.add_app(Box::new(src));
    let cross_id = topo.add_host(Box::new(cross_host));

    // 20 Mbps bottleneck, ~70 ms RTT: the vBNS-like wide-area path.
    let bottleneck = LinkSpec::new(Rate::from_mbps(20), Duration::from_millis(30));
    let access = LinkSpec::new(Rate::from_mbps(100), Duration::from_millis(2));
    topo.dumbbell(&[tx_id, cross_id], &[rx_id, sink_id], &bottleneck, &access);
    let mut sim = topo.build();
    sim.run_until(stop + Duration::from_secs(1));

    let tx = sim
        .node_ref::<Host>(tx_id)
        .app_ref::<LayeredStreamer>(tx_app);
    let rx = sim.node_ref::<Host>(rx_id).app_ref::<AckReceiver>(rx_app);

    // Bin transmission events into rate samples.
    let mut tx_series = TimeSeries::new();
    {
        let mut bin_start = Time::ZERO;
        let mut acc: u64 = 0;
        for &(t, bytes) in &tx.tx_events {
            while t >= bin_start + bin {
                tx_series.push(bin_start, acc as f64 / 1000.0 / bin.as_secs_f64());
                acc = 0;
                bin_start += bin;
            }
            acc += bytes as u64;
        }
        tx_series.push(bin_start, acc as f64 / 1000.0 / bin.as_secs_f64());
    }
    let to_points = |series: &TimeSeries| -> Vec<(f64, f64)> {
        series
            .rebin(Time::ZERO, stop, bin)
            .into_iter()
            .map(|(t, v)| (t.as_secs_f64(), v))
            .collect()
    };
    StreamOutcome {
        tx_rate: to_points(&tx_series),
        cm_rate: to_points(&tx.cm_rate),
        layer_changes: tx
            .layer_changes
            .iter()
            .map(|&(t, l)| (t.as_secs_f64(), l))
            .collect(),
        delivered: rx.bytes,
    }
}

/// Runs the Figure 7 web workload; returns per-request latencies in
/// milliseconds.
pub fn web_sharing(
    server_mode: CcMode,
    requests: usize,
    gap: Duration,
    file_size: u64,
    seed: u64,
) -> Vec<f64> {
    let mut topo = Topology::new(seed);
    let mut server_host = Host::new(HostConfig::default());
    server_host.add_app(Box::new(WebServer::new(80, server_mode, file_size)));
    let server_id = topo.add_host(Box::new(server_host));
    let server_addr = topo.sim().addr_of(server_id);

    let mut client_host = Host::new(HostConfig::default());
    let client_app = client_host.add_app(Box::new(WebClient::new(
        server_addr,
        80,
        requests,
        gap,
        file_size,
    )));
    let client_id = topo.add_host(Box::new(client_host));
    topo.emulated_path(client_id, server_id, &PathSpec::wide_area());
    let mut sim = topo.build();
    sim.run_until(Time::from_secs(120));
    sim.node_ref::<Host>(client_id)
        .app_ref::<WebClient>(client_app)
        .latencies_ms()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_scenario_completes() {
        let o = bulk_transfer(
            &PathSpec::fig3(0.0),
            BulkSpec {
                deadline: Time::from_secs(60),
                ..BulkSpec::new(CcMode::Cm, 200_000, 1)
            },
        );
        assert!(o.completed);
        assert!(o.goodput_bps > 50_000.0);
        assert!(o.connect_time.is_some());
    }

    #[test]
    fn blast_scenario_measures() {
        let o = blast(BlastApi::Buffered, 500, 300, 2);
        assert_eq!(o.acked, 300);
        assert!(o.us_per_packet.is_finite());
        assert!(o.ops.syscalls > 0);
        assert!(o.ops.gettimeofdays >= 600, "two per packet");
    }

    #[test]
    fn rate_based_controller_completes_end_to_end() {
        // The second controller must survive a real lossy transfer, not
        // just unit tests.
        let o = bulk_transfer(
            &PathSpec::fig3(0.01),
            BulkSpec {
                deadline: Time::from_secs(120),
                controller: ControllerKind::RateBased,
                ..BulkSpec::new(CcMode::Cm, 150_000, 7)
            },
        );
        assert!(o.completed, "rate-based transfer did not finish");
        assert!(o.goodput_bps > 10_000.0);
    }

    #[test]
    fn stream_scenario_produces_series() {
        let o = layered_stream(
            AdaptMode::Alf,
            6,
            FeedbackPolicy::PerPacket,
            Duration::from_secs(1),
            3,
        );
        assert_eq!(o.tx_rate.len(), 6);
        assert_eq!(o.cm_rate.len(), 6);
        assert!(o.delivered > 100_000);
    }
}
