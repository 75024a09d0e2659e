//! Golden-file regression pinning the simulated packet path.
//!
//! `single_mode_golden` and the controller goldens stop at the CM; this
//! one freezes everything above it — event queue, links, TCP, UDP, the
//! `Host` timer and settle machinery, `HostOs`, libcm and the
//! applications — so a change to how the host stack stores its state
//! (buffers, range stores, timers) is shown to leave every simulated
//! result where it was. Each line of `tests/golden/path.golden` is an
//! FNV-1a fingerprint of one seeded scenario, read at **fixed simulated
//! instants** (`run_until`, never an event count: how many simulator
//! events a run needs is exactly what such a change may alter): every
//! connection's `TcpStats` and `bytes_delivered`, every host's
//! `CmStats`, `OpCounts` and `Cpu::total_busy`, every link's
//! `LinkStats`, and the applications' completion times and counters.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p cm-apps --test path_golden
//! ```

use std::fmt::Debug;

use cm_apps::ack_clients::{AckReceiver, FeedbackPolicy};
use cm_apps::bulk::{BulkReceiver, BulkSender};
use cm_apps::layered::{AdaptMode, LayeredStreamer};
use cm_apps::vat::{DropPolicy, VatAudio};
use cm_apps::web::{WebClient, WebServer};
use cm_core::config::CmConfig;
use cm_netsim::channel::PathSpec;
use cm_netsim::cpu::CostModel;
use cm_netsim::link::{LinkId, LinkSpec};
use cm_netsim::sim::{NodeId, Simulator};
use cm_netsim::topology::Topology;
use cm_transport::host::{Host, HostConfig};
use cm_transport::tcp::{TcpConfig, TcpConnection};
use cm_transport::types::{AppId, CcMode, TcpConnId};
use cm_util::{Duration, Rate, Time};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn time(&mut self, t: Option<Time>) {
        self.u64(t.map_or(u64::MAX, Time::as_nanos));
    }
    /// Every field of a counter block, by its derived `Debug` form.
    fn debug(&mut self, v: &impl Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

/// A host's connections; they are never removed, so the first gap is
/// the end.
fn conns(host: &Host) -> impl Iterator<Item = &TcpConnection> {
    (0..).map_while(|i| host.tcp_conn(TcpConnId(i)))
}

/// Mixes everything observable about `host`: each connection's counters
/// and delivered bytes, the CM's and the shim's counters, CPU busy time.
/// The shim's `OpCounts` go in field by field, so the golden names the
/// operations it freezes.
fn mix_host(sim: &Simulator, id: NodeId, fnv: &mut Fnv) {
    let host = sim.node_ref::<Host>(id);
    for conn in conns(host) {
        fnv.debug(&conn.stats);
        fnv.u64(conn.bytes_delivered());
        fnv.u64(conn.bytes_acked());
    }
    fnv.debug(&host.cm.stats());
    let ops = &host.cpu.ops;
    for n in [
        ops.syscalls,
        ops.ioctls,
        ops.selects,
        ops.gettimeofdays,
        ops.bytes_copied,
    ] {
        fnv.u64(n);
    }
    fnv.u64(host.cpu.total_busy().as_nanos());
}

fn mix_links(sim: &Simulator, links: usize, fnv: &mut Fnv) {
    for l in 0..links {
        let s = sim.link_stats(LinkId(l));
        for n in [
            s.offered,
            s.enqueued,
            s.dropped_random,
            s.dropped_burst,
            s.dropped_queue,
            s.transmitted,
            s.bytes_transmitted,
            s.max_queue_pkts as u64,
            s.duplicated,
            s.reordered,
            s.delay_spikes,
        ] {
            fnv.u64(n);
        }
    }
}

/// One golden line: the fingerprint, plus what `hosts` did in total by
/// the end (and `udp_delivered` bytes the UDP receivers took) so a diff
/// of the file reads without decoding anything.
fn line(label: &str, fnv: &Fnv, sim: &Simulator, hosts: &[NodeId], udp_delivered: u64) -> String {
    let (mut segs_sent, mut timeouts, mut delivered, mut grants) = (0, 0, udp_delivered, 0);
    for &id in hosts {
        let host = sim.node_ref::<Host>(id);
        for conn in conns(host) {
            segs_sent += conn.stats.segs_sent;
            timeouts += conn.stats.timeouts;
            delivered += conn.bytes_delivered();
        }
        grants += host.cm.stats().grants;
    }
    format!(
        "{label} fnv={:016x} segs_sent={segs_sent} timeouts={timeouts} \
         delivered={delivered} grants={grants}",
        fnv.0
    )
}

/// `sim_bulk`'s host configuration (segment-sized CM grants, the era's
/// 64 KB receive window) under the given cost model.
fn bulk_cfg(cost: CostModel) -> HostConfig {
    HostConfig {
        cost,
        tcp: TcpConfig {
            rwnd: 64 * 1024,
            ..Default::default()
        },
        cm: CmConfig {
            mtu: 1460,
            ..Default::default()
        },
    }
}

/// Two concurrent TCP/CM bulk transfers from one host to one receiver
/// over the Figure 3 channel: one shared macroflow, the RTO re-armed on
/// every ACK, delayed ACKs, and — under loss — SACK recovery, go-back-N
/// and the range stores on both ends.
fn bulk_line(label: &str, loss: f64, cost: CostModel) -> String {
    const TOTAL: u64 = 1_500_000;
    let mut topo = Topology::new(19);
    let mut server = Host::new(bulk_cfg(cost));
    let rx_app = server.add_app(Box::new(BulkReceiver::new(80, CcMode::Cm)));
    let server_id = topo.add_host(Box::new(server));
    let server_addr = topo.sim().addr_of(server_id);
    let mut client = Host::new(bulk_cfg(cost));
    let tx_apps: Vec<AppId> = (0..2)
        .map(|_| {
            client.add_app(Box::new(BulkSender::new(
                server_addr,
                80,
                CcMode::Cm,
                TOTAL,
            )))
        })
        .collect();
    let client_id = topo.add_host(Box::new(client));
    topo.emulated_path(client_id, server_id, &PathSpec::fig3(loss));
    let mut sim = topo.build();

    let mut fnv = Fnv::new();
    for secs in [1, 3, 10, 60] {
        sim.run_until(Time::from_secs(secs));
        mix_host(&sim, client_id, &mut fnv);
        mix_host(&sim, server_id, &mut fnv);
        mix_links(&sim, 2, &mut fnv);
        let client = sim.node_ref::<Host>(client_id);
        for &app in &tx_apps {
            let tx = client.app_ref::<BulkSender>(app);
            fnv.u64(tx.acked);
            for t in [
                tx.connected_at,
                tx.warmup_done_at,
                tx.three_quarter_at,
                tx.done_at,
            ] {
                fnv.time(t);
            }
        }
        let rx = sim
            .node_ref::<Host>(server_id)
            .app_ref::<BulkReceiver>(rx_app);
        fnv.u64(rx.delivered);
        fnv.time(rx.last_delivery);
    }
    line(label, &fnv, &sim, &[client_id, server_id], 0)
}

/// Three web-client hosts fetch from one TCP/CM server across a
/// dumbbell that loses packets both ways, with the paper's CPU costs:
/// one macroflow per client host on the server, shared by that client's
/// sequential connections, passive opens, data and FIN retransmission
/// timeouts, application timers, and the deferred-transmit queue
/// (`TxDequeue`) on every send. No SYN is lost here; host.rs' unit tests
/// cover SYN retransmission.
fn web_line(label: &str) -> String {
    let cost = CostModel::default();
    let mut topo = Topology::new(23);
    let mut server = Host::new(HostConfig {
        cost,
        ..Default::default()
    });
    let server_app = server.add_app(Box::new(WebServer::new(80, CcMode::Cm, 48 * 1024)));
    let server_id = topo.add_host(Box::new(server));
    let server_addr = topo.sim().addr_of(server_id);
    let clients: Vec<(NodeId, AppId)> = (1..=3u32)
        .map(|n| {
            let mut host = Host::new(HostConfig {
                cost,
                ..Default::default()
            });
            let app = host.add_app(Box::new(WebClient::new(
                server_addr,
                80,
                5,
                Duration::from_millis(250 + 50 * u64::from(n)),
                48 * 1024,
            )));
            (topo.add_host(Box::new(host)), app)
        })
        .collect();
    let client_ids: Vec<NodeId> = clients.iter().map(|&(id, _)| id).collect();
    let bottleneck = LinkSpec::new(Rate::from_mbps(4), Duration::from_millis(25)).with_loss(0.015);
    let access = LinkSpec::new(Rate::from_mbps(100), Duration::from_micros(100));
    topo.dumbbell(&[server_id], &client_ids, &bottleneck, &access);
    // The bottleneck pair plus one access pair per host.
    let links = 2 + 2 * (1 + clients.len());
    let mut sim = topo.build();

    let mut fnv = Fnv::new();
    for secs in [1, 3, 30] {
        sim.run_until(Time::from_secs(secs));
        mix_host(&sim, server_id, &mut fnv);
        let server = sim
            .node_ref::<Host>(server_id)
            .app_ref::<WebServer>(server_app);
        fnv.u64(server.served);
        for &(id, app) in &clients {
            mix_host(&sim, id, &mut fnv);
            let client = sim.node_ref::<Host>(id).app_ref::<WebClient>(app);
            for r in &client.records {
                fnv.time(Some(r.started));
                fnv.time(r.completed);
            }
        }
        mix_links(&sim, links, &mut fnv);
    }
    let mut hosts = client_ids;
    hosts.insert(0, server_id);
    line(label, &fnv, &sim, &hosts, 0)
}

/// The layered streamer (ALF over libcm: app-managed flow, pipelined
/// `cm_request`s) and `vat` (congestion-controlled UDP, rate callbacks)
/// share one host, one macroflow and one lossy path to their
/// acknowledging receivers.
fn media_line(label: &str) -> String {
    let cfg = HostConfig {
        cost: CostModel::default(),
        ..Default::default()
    };
    let stop = Time::from_secs(15);
    let mut topo = Topology::new(29);
    let mut rx = Host::new(cfg.clone());
    let rx_apps = [9000, 5003]
        .map(|port| rx.add_app(Box::new(AckReceiver::new(port, FeedbackPolicy::PerPacket))));
    let rx_id = topo.add_host(Box::new(rx));
    let rx_addr = topo.sim().addr_of(rx_id);
    let mut tx = Host::new(cfg);
    let layered = tx.add_app(Box::new(LayeredStreamer::new(
        rx_addr,
        9000,
        AdaptMode::Alf,
        stop,
    )));
    let vat = tx.add_app(Box::new(VatAudio::new(
        rx_addr,
        5003,
        DropPolicy::Head,
        stop,
    )));
    let tx_id = topo.add_host(Box::new(tx));
    let path =
        PathSpec::new(Rate::from_mbps(10), Duration::from_millis(50)).with_forward_loss(0.005);
    topo.emulated_path(tx_id, rx_id, &path);
    let mut sim = topo.build();

    let mut fnv = Fnv::new();
    for secs in [3, 8, 17] {
        sim.run_until(Time::from_secs(secs));
        mix_host(&sim, tx_id, &mut fnv);
        mix_host(&sim, rx_id, &mut fnv);
        mix_links(&sim, 2, &mut fnv);
        let tx = sim.node_ref::<Host>(tx_id);
        let l = tx.app_ref::<LayeredStreamer>(layered);
        fnv.u64(l.bytes_sent);
        fnv.u64(l.packets_sent);
        fnv.debug(&l.layer_changes);
        let v = tx.app_ref::<VatAudio>(vat);
        for n in [
            v.frames_generated,
            v.policer_drops,
            v.buffer_drops,
            v.frames_sent,
        ] {
            fnv.u64(n);
        }
        let rx = sim.node_ref::<Host>(rx_id);
        for &app in &rx_apps {
            let a = rx.app_ref::<AckReceiver>(app);
            for n in [a.packets, a.bytes, a.acks_sent, a.highest_seq] {
                fnv.u64(n);
            }
        }
    }
    let rx = sim.node_ref::<Host>(rx_id);
    let udp_delivered = rx_apps.map(|app| rx.app_ref::<AckReceiver>(app).bytes);
    line(
        label,
        &fnv,
        &sim,
        &[tx_id, rx_id],
        udp_delivered.iter().sum(),
    )
}

#[test]
fn packet_path_matches_golden_file() {
    let mut current = String::new();
    for (loss_label, loss) in [("0", 0.0), ("0.5", 0.005), ("2", 0.02)] {
        for (cost_label, cost) in [
            ("free", CostModel::free()),
            ("costed", CostModel::default()),
        ] {
            let label = format!("bulk_loss{loss_label}_{cost_label}");
            current.push_str(&bulk_line(&label, loss, cost));
            current.push('\n');
        }
    }
    current.push_str(&web_line("web_dumbbell_costed"));
    current.push('\n');
    current.push_str(&media_line("media_udp_costed"));
    current.push('\n');

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/path.golden");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &current).unwrap();
        return;
    }
    let frozen = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        frozen,
        current,
        "the simulated packet path diverged from the frozen fingerprint in {}; \
         netsim and transport changes must leave every simulated result \
         bit-equal at fixed instants. If the change is intentional, \
         regenerate with UPDATE_GOLDENS=1",
        path.display()
    );
}
