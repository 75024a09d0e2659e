//! `sim_mix`: the paper's whole application set sharing one bottleneck
//! for 60 simulated seconds per batch.
//!
//! A dumbbell whose 40 Mbps / 30 ms bottleneck follows a 40/12 Mbps
//! square wave, 100 Mbps access links. On the left, server host 1
//! (`CostModel::default()`) runs a `WebServer` (TCP/CM, 32 KB), a
//! `LayeredStreamer` in `AdaptMode::Alf`, `VatAudio` and a 200-byte
//! buffered `BlastSender`; server host 2 runs a `LayeredStreamer` in
//! `AdaptMode::RateCallback` (two streamers cannot share a host: both
//! bind UDP port 5004). On the right, one receiver host per UDP sender
//! and four client hosts with one `WebClient` each, one request a
//! second. Small packets where per-packet cost dominates, all three CM
//! API styles, libcm wakeups, cm-adapt callbacks and connection set-up
//! through real TCP: the `HostOs`/libcm/adapt/apps work that `sim_bulk`
//! has almost none of.
//!
//! The seed varies what no application draws for itself: the access
//! delay, the square wave's period and each client's request gap.
//!
//! A packet is one packet delivered to a right-side host. The packet
//! phase is cut into slices of 2,000 delivered packets.

use std::time::Instant;

use cm_apps::ack_clients::{AckReceiver, FeedbackPolicy};
use cm_apps::blast::{BlastApi, BlastSender};
use cm_apps::layered::{AdaptMode, LayeredStreamer};
use cm_apps::vat::{DropPolicy, VatAudio};
use cm_apps::web::{WebClient, WebServer};
use cm_core::config::CmConfig;
use cm_netsim::cpu::CostModel;
use cm_netsim::link::{LinkId, LinkSpec};
use cm_netsim::schedule::BandwidthSchedule;
use cm_netsim::sim::{NodeId, Simulator};
use cm_netsim::topology::Topology;
use cm_transport::host::{Host, HostApp, HostConfig};
use cm_transport::types::{AppId, CcMode};
use cm_util::{DetRng, Duration, Rate, Time};

use crate::measure::{Batch, Outcome};
use crate::simutil::{read_host, read_links, run_slice};
use crate::span::{in_span, Kind};
use crate::wrap::{TimedApp, TimedHost};

/// Simulated seconds every sender is active for.
pub const SIM_SECS: u64 = 60;
/// Simulated seconds a batch may run on, senders stopped, until every
/// web request has completed: a TCP/CM response that loses a packet can
/// stall for tens of seconds (README, "found while sizing"), and one
/// that is merely late is not a failed operation.
const DRAIN_SECS: u64 = 240;
pub const WEB_CLIENTS: usize = 4;
pub const WEB_BYTES: u64 = 32 * 1024;
/// Requests each client issues: one a second, the last early enough to
/// finish inside the batch.
pub const WEB_REQUESTS: usize = 55;
const BLAST_BYTES: u32 = 200;
/// Delivered packets per timing slice.
const SLICE_PKTS: u64 = 2_000;
/// Room to reserve for one batch's slices (a batch delivers ~100k
/// packets).
pub const SLICES_RESERVED: usize = 128;

/// One wrapped host under construction.
struct Builder {
    host: Host,
    traced: bool,
}

impl Builder {
    fn new(cost: CostModel, traced: bool) -> Self {
        // Pacing off: with it on, server host 1 goes through timer
        // storms that make every tail and memory metric depend on the
        // seed (README, "found while sizing").
        let host = Host::new(HostConfig {
            cost,
            cm: CmConfig {
                pacing: false,
                ..Default::default()
            },
            ..Default::default()
        });
        Builder { host, traced }
    }

    fn app<A: HostApp>(&mut self, app: A) -> AppId {
        self.host.add_app(TimedApp::boxed(app, self.traced))
    }

    fn add_to(self, topo: &mut Topology) -> NodeId {
        topo.add_host(Box::new(TimedHost::new(self.host, self.traced)))
    }
}

/// A UDP receiver host acknowledging every packet on `port`.
fn receiver(topo: &mut Topology, port: u16, traced: bool) -> (NodeId, AppId) {
    let mut b = Builder::new(CostModel::free(), traced);
    let app = b.app(AckReceiver::new(port, FeedbackPolicy::PerPacket));
    (b.add_to(topo), app)
}

/// Where to find everything in a built topology.
struct Mix {
    servers: [NodeId; 2],
    receivers: [(NodeId, AppId); 4],
    clients: Vec<(NodeId, AppId)>,
    alf: AppId,
    vat: AppId,
    rate_cb: AppId,
    links: usize,
    /// Last-hop links into the right-side hosts.
    rx_links: Vec<LinkId>,
    /// First-hop links out of the servers.
    tx_links: Vec<LinkId>,
}

fn build(seed: u64, traced: bool) -> (Simulator, Mix) {
    let mut rng = DetRng::seed(seed).split("sim_mix-inputs");
    let stop = Time::from_secs(SIM_SECS);
    let mut topo = Topology::new(seed);

    let r_alf = receiver(&mut topo, 9000, traced);
    let r_rc = receiver(&mut topo, 9000, traced);
    let r_vat = receiver(&mut topo, 5003, traced);
    let r_blast = receiver(&mut topo, 9100, traced);
    let addr = |topo: &Topology, id: NodeId| topo.sim().addr_of(id);

    let mut s1 = Builder::new(CostModel::default(), traced);
    s1.app(WebServer::new(80, CcMode::Cm, WEB_BYTES));
    let alf = s1.app(LayeredStreamer::new(
        addr(&topo, r_alf.0),
        9000,
        AdaptMode::Alf,
        stop,
    ));
    let vat = s1.app(VatAudio::new(
        addr(&topo, r_vat.0),
        5003,
        DropPolicy::Head,
        stop,
    ));
    s1.app(BlastSender::new(
        addr(&topo, r_blast.0),
        9100,
        BlastApi::Buffered,
        BLAST_BYTES,
        u64::MAX,
    ));
    let s1 = s1.add_to(&mut topo);
    let mut s2 = Builder::new(CostModel::default(), traced);
    let rate_cb = s2.app(LayeredStreamer::new(
        addr(&topo, r_rc.0),
        9000,
        AdaptMode::RateCallback,
        stop,
    ));
    let s2 = s2.add_to(&mut topo);

    let clients: Vec<(NodeId, AppId)> = (0..WEB_CLIENTS)
        .map(|_| {
            let gap = Duration::from_micros(950_000 + rng.next_bounded(100_000));
            let mut b = Builder::new(CostModel::free(), traced);
            let app = b.app(WebClient::new(
                addr(&topo, s1),
                80,
                WEB_REQUESTS,
                gap,
                WEB_BYTES,
            ));
            (b.add_to(&mut topo), app)
        })
        .collect();

    let receivers = [r_alf, r_rc, r_vat, r_blast];
    let left = [s1, s2];
    let right: Vec<NodeId> = receivers
        .iter()
        .chain(clients.iter())
        .map(|&(id, _)| id)
        .collect();
    let access_delay = Duration::from_micros(1_000 + rng.next_bounded(2_000));
    let half_period = Duration::from_millis(4_500 + rng.next_bounded(1_000));
    let bottleneck = LinkSpec::new(Rate::from_mbps(40), Duration::from_millis(30));
    let access = LinkSpec::new(Rate::from_mbps(100), access_delay);
    let (_, _, center) = topo.dumbbell(&left, &right, &bottleneck, &access);
    topo.schedule_link(
        center.forward,
        &BandwidthSchedule::square_wave(
            Rate::from_mbps(40),
            Rate::from_mbps(12),
            half_period,
            stop,
        ),
    );

    // `dumbbell` hands back only the centre pair; find the edge links by
    // what they connect.
    let links = 2 + 2 * (left.len() + right.len());
    let mut sim = topo.build();
    let (mut rx_links, mut tx_links) = (Vec::new(), Vec::new());
    for l in (0..links).map(LinkId) {
        let link = sim.link_mut(l);
        if right.contains(&link.to) {
            rx_links.push(l);
        }
        if left.contains(&link.from) {
            tx_links.push(l);
        }
    }
    assert_eq!((rx_links.len(), tx_links.len()), (right.len(), left.len()));
    let mix = Mix {
        servers: [s1, s2],
        receivers,
        clients,
        alf,
        vat,
        rate_cb,
        links,
        rx_links,
        tx_links,
    };
    (sim, mix)
}

impl Mix {
    /// The senders' time is up and every web request has completed (or
    /// the drain period is over too).
    fn finished(&self, sim: &Simulator) -> bool {
        let web_done = || {
            self.clients.iter().all(|&(id, app)| {
                let host = sim.node_ref::<TimedHost>(id);
                host.app::<WebClient>(app).all_done()
            })
        };
        let now = sim.now();
        now >= Time::from_secs(SIM_SECS)
            && (web_done() || now >= Time::from_secs(SIM_SECS + DRAIN_SECS))
    }
}

fn transmitted(sim: &Simulator, links: &[LinkId]) -> u64 {
    links.iter().map(|&l| sim.link_stats(l).transmitted).sum()
}

/// Runs batch `index` and folds it into `out`.
pub fn batch(seed: u64, index: usize, traced: bool, out: &mut Outcome) {
    let seed = DetRng::seed(seed)
        .split("sim_mix")
        .split(&index.to_string())
        .next_u64();
    let t0 = Instant::now();
    let (mut sim, mix) = in_span(traced, Kind::Build, || build(seed, traced));
    let mut lifecycle_ns = t0.elapsed().as_nanos() as u64;

    let mut run_ns = 0u64;
    let mut delivered = 0u64;
    loop {
        let mut now = delivered;
        let ns = run_slice(&mut sim, traced, |sim| {
            now = transmitted(sim, &mix.rx_links);
            now - delivered >= SLICE_PKTS || mix.finished(sim)
        });
        run_ns += ns;
        // The tail slice is kept only if it is long enough to compare.
        if now - delivered >= SLICE_PKTS / 2 {
            let ns = out.timed(ns as f64 / (now - delivered) as f64);
            out.samples.pkt_ns.push(ns);
        }
        delivered = now;
        if mix.finished(&sim) {
            break;
        }
    }

    let t1 = Instant::now();
    let ops_before = out.counts.cm_ops();
    let opens_before = out.counts.cm.opens;
    in_span(traced, Kind::Build, || {
        read_out(&sim, &mix, index, out);
        drop(sim);
    });
    lifecycle_ns += t1.elapsed().as_nanos() as u64;
    let flows = (out.counts.cm.opens - opens_before).max(1);
    let ns = out.timed(lifecycle_ns as f64 / flows as f64);
    out.samples.lifecycle_ns.push(ns);
    out.samples.batches.push(Batch {
        wall_ns: out.timed((lifecycle_ns + run_ns) as f64),
        pkts: delivered,
        cm_ops: out.counts.cm_ops() - ops_before,
    });
}

/// Reads the finished batch's statistics into `out` and runs its
/// output checks.
fn read_out(sim: &Simulator, mix: &Mix, index: usize, out: &mut Outcome) {
    let mut fp = out.fingerprint();
    let c = &mut out.counts;
    read_links(sim, mix.links, c);
    fp.mix(sim.events_processed());
    c.sim_ns += sim.now().since(Time::ZERO).as_nanos();
    c.pkts_sent += transmitted(sim, &mix.tx_links);

    let hosts = mix.servers.iter().copied();
    let hosts = hosts.chain(mix.receivers.iter().chain(&mix.clients).map(|&(id, _)| id));
    for id in hosts {
        read_host(sim, id, c, &mut fp);
        let inv = sim.node_ref::<TimedHost>(id).host.cm.check_invariants();
        out.tally.check(inv.is_ok(), || {
            format!("batch {index}: host {id:?} check_invariants: {inv:?}")
        });
    }
    for &s in &mix.servers {
        c.cpu_busy_ns += sim
            .node_ref::<TimedHost>(s)
            .host
            .cpu
            .total_busy()
            .as_nanos();
    }

    for &(id, app) in &mix.receivers {
        let rx = sim.node_ref::<TimedHost>(id).app::<AckReceiver>(app);
        c.app_bytes += rx.bytes;
        fp.mix(rx.bytes);
    }
    for &(id, app) in &mix.clients {
        let web = sim.node_ref::<TimedHost>(id).app::<WebClient>(app);
        let lat = web.latencies_ms();
        c.app_bytes += lat.len() as u64 * WEB_BYTES;
        out.tally.ok(lat.len() as u64);
        let missing = (WEB_REQUESTS - lat.len()) as u64;
        if missing > 0 {
            out.tally.attempted += missing;
            out.tally.fail(missing, || {
                format!("batch {index}: {missing} of {WEB_REQUESTS} web requests did not complete")
            });
        }
        for &ms in &lat {
            fp.mix(ms.to_bits());
        }
        out.web_ms.extend(lat);
    }

    let s1 = sim.node_ref::<TimedHost>(mix.servers[0]);
    let s2 = sim.node_ref::<TimedHost>(mix.servers[1]);
    let alf = s1.app::<LayeredStreamer>(mix.alf);
    let rate_cb = s2.app::<LayeredStreamer>(mix.rate_cb);
    for streamer in [alf, rate_cb] {
        let stats = streamer.adaptation_stats();
        let per_level = stats.time_in_level();
        if out.level_ns.len() < per_level.len() {
            out.level_ns.resize(per_level.len(), 0);
        }
        for (acc, d) in out.level_ns.iter_mut().zip(per_level) {
            *acc += d.as_nanos();
            fp.mix(d.as_nanos());
        }
        c.adapt_switches += stats.switches;
    }
    c.adapt_switches += s1.app::<VatAudio>(mix.vat).adaptation_stats().switches;
    let d = alf.libcm.stats;
    c.libcm_wakeups += d.wakeups;
    c.libcm_ioctls += d.ready_ioctls + d.status_ioctls;
    c.libcm_grants += d.grants_delivered;

    out.after_batch.push(fp);
}
