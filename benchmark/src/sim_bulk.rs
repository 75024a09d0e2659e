//! `sim_bulk`: sequential 4 MB TCP-over-CM transfers on the paper's
//! Figure 3 channel.
//!
//! One fresh `Topology` per transfer — a `BulkSender` host, a
//! `BulkReceiver` host, `PathSpec::fig3(0.005)` (10 Mbps, 60 ms RTT,
//! 0.5 % forward loss) between them, `CostModel::free()` — and 16
//! transfers per batch. The simulator (wheel, links) and the transport
//! (TCP, `HostOs`) do almost all the work; each CM sees one flow in one
//! macroflow, so a CM optimisation should not show here.
//!
//! A packet is one packet the forward (data-direction) link delivered.
//! The packet phase is the `Simulator::step` loop; building the
//! topology, reading its statistics and dropping it is the flow
//! lifecycle phase (two CM flows per transfer, one per end).

use std::time::Instant;

use cm_apps::bulk::{BulkReceiver, BulkSender};
use cm_core::config::CmConfig;
use cm_netsim::channel::PathSpec;
use cm_netsim::cpu::CostModel;
use cm_netsim::topology::Topology;
use cm_transport::host::{Host, HostConfig};
use cm_transport::tcp::TcpConfig;
use cm_transport::types::CcMode;
use cm_util::{DetRng, Time};

use crate::measure::{Batch, Counts, Fingerprint, Outcome};
use crate::simutil::{read_host, read_links, run_slice};
use crate::span::{in_span, Kind};
use crate::wrap::{TimedApp, TimedHost};

pub const TRANSFERS_PER_BATCH: usize = 16;
pub const TRANSFER_BYTES: u64 = 4_000_000;
pub const LOSS: f64 = 0.005;
const MSS: usize = 1460;
/// Simulated time after which an unfinished transfer counts as failed.
const DEADLINE: Time = Time::from_secs(600);
/// CM flows one transfer opens: one per end of the connection.
const FLOWS_PER_TRANSFER: u64 = 2;

/// One finished (or abandoned) transfer.
pub struct Transfer {
    pub completed: bool,
    pub pkts: u64,
    pub build_ns: u64,
    pub run_ns: u64,
    pub cm_ops: u64,
}

/// Runs one transfer in `mode`, adding what the layers counted to `c`
/// and `fp`.
pub fn transfer(
    mode: CcMode,
    seed: u64,
    traced: bool,
    c: &mut Counts,
    fp: &mut Fingerprint,
) -> Transfer {
    let t0 = Instant::now();
    let (mut sim, client_id, server_id, tx_app, path) = in_span(traced, Kind::Build, || {
        // As `cm_bench::bulk_transfer`: the CM grants in MTU units, so
        // align it with the segment size; 64 KB is the era's receive
        // window.
        let cfg = HostConfig {
            cost: CostModel::free(),
            tcp: TcpConfig {
                mss: MSS,
                delayed_ack: true,
                rwnd: 64 * 1024,
                ..Default::default()
            },
            cm: CmConfig {
                mtu: MSS,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut topo = Topology::new(seed);
        let mut server = Host::new(cfg.clone());
        server.add_app(TimedApp::boxed(BulkReceiver::new(80, mode), traced));
        let server_id = topo.add_host(Box::new(TimedHost::new(server, traced)));
        let server_addr = topo.sim().addr_of(server_id);
        let mut client = Host::new(cfg);
        let tx_app = client.add_app(TimedApp::boxed(
            BulkSender::new(server_addr, 80, mode, TRANSFER_BYTES),
            traced,
        ));
        let client_id = topo.add_host(Box::new(TimedHost::new(client, traced)));
        let path = topo.emulated_path(client_id, server_id, &PathSpec::fig3(LOSS));
        (topo.build(), client_id, server_id, tx_app, path)
    });
    let build_ns = t0.elapsed().as_nanos() as u64;

    let run_ns = run_slice(&mut sim, traced, |sim| {
        let tx = sim
            .node_ref::<TimedHost>(client_id)
            .app::<BulkSender>(tx_app);
        tx.done_at.is_some() || sim.now() > DEADLINE
    });

    let t1 = Instant::now();
    let ops_before = c.cm_ops();
    let (completed, pkts) = in_span(traced, Kind::Build, || {
        let tx = sim
            .node_ref::<TimedHost>(client_id)
            .app::<BulkSender>(tx_app);
        // Connection initiation to last byte acknowledged.
        let (completed, sim_ns) = match (tx.started_at, tx.done_at) {
            (Some(s), Some(d)) => (true, d.since(s).as_nanos()),
            _ => (false, 0),
        };
        let pkts = sim.link_stats(path.forward).transmitted;
        read_links(&sim, 2, c);
        read_host(&sim, client_id, c, fp);
        read_host(&sim, server_id, c, fp);
        fp.mix(sim.events_processed());
        fp.mix(sim_ns);
        c.app_bytes += if completed { TRANSFER_BYTES } else { 0 };
        c.sim_ns += sim_ns;
        c.pkts_sent += pkts;
        drop(sim);
        (completed, pkts)
    });
    Transfer {
        completed,
        pkts,
        build_ns: build_ns + t1.elapsed().as_nanos() as u64,
        run_ns,
        cm_ops: c.cm_ops() - ops_before,
    }
}

/// The per-transfer seeds of batch `index` under run seed `seed`.
fn batch_seeds(seed: u64, index: usize) -> DetRng {
    DetRng::seed(seed)
        .split("sim_bulk")
        .split(&index.to_string())
}

/// Runs batch `index` and folds it into `out`.
pub fn batch(seed: u64, index: usize, traced: bool, out: &mut Outcome) {
    let mut rng = batch_seeds(seed, index);
    let (mut wall_ns, mut pkts, mut cm_ops) = (0u64, 0u64, 0u64);
    let mut fp = out.fingerprint();
    for _ in 0..TRANSFERS_PER_BATCH {
        let t = transfer(CcMode::Cm, rng.next_u64(), traced, &mut out.counts, &mut fp);
        out.tally.check(t.completed, || {
            format!("batch {index}: transfer did not finish in {DEADLINE:?} simulated")
        });
        wall_ns += t.build_ns + t.run_ns;
        pkts += t.pkts;
        cm_ops += t.cm_ops;
        if t.pkts > 0 {
            let ns = out.timed(t.run_ns as f64 / t.pkts as f64);
            out.samples.pkt_ns.push(ns);
        }
        let ns = out.timed(t.build_ns as f64 / FLOWS_PER_TRANSFER as f64);
        out.samples.lifecycle_ns.push(ns);
    }
    out.after_batch.push(fp);
    out.samples.batches.push(Batch {
        wall_ns: out.timed(wall_ns as f64),
        pkts,
        cm_ops,
    });
}

/// Figure 3's shape, untimed: over 8 seeds, TCP/CM goodput on the
/// workload's channel is within 0.8-1.25x of native TCP's.
pub fn check_fig3_shape(seed: u64, out: &mut Outcome) {
    let mut rng = DetRng::seed(seed).split("fig3-shape");
    let goodput = |mode: CcMode, rng: &mut DetRng| {
        let (mut c, mut fp) = (Counts::default(), Fingerprint::default());
        for _ in 0..8 {
            transfer(mode, rng.next_u64(), false, &mut c, &mut fp);
        }
        c.app_bytes as f64 / c.sim_ns.max(1) as f64
    };
    let cm = goodput(CcMode::Cm, &mut rng.clone());
    let native = goodput(CcMode::Native, &mut rng);
    let ratio = cm / native;
    out.tally.check((0.8..=1.25).contains(&ratio), || {
        format!("TCP/CM goodput is {ratio:.3}x native TCP's on fig3({LOSS}); expected 0.8-1.25x")
    });
}
