//! Golden-file regression pinning what hosts receive across routers.
//!
//! Four hosts on a dumbbell talk to each other through two `RouterNode`s
//! and a faulty bottleneck pair: random loss, a RED queue that marks ECN,
//! duplication, reordering and delay spikes. Every host sends requests on
//! a jittered timer and echoes each request it receives, so packets enter
//! the network from timers and from packet handlers alike. The test
//! freezes the `(time, packet id, size, ecn)` sequence each host
//! receives, in `tests/golden/router.golden`.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p cm-netsim --test router_golden
//! ```

use std::fmt::Write as _;

use cm_netsim::fault::LinkFaults;
use cm_netsim::link::{LinkSpec, QueueSpec};
use cm_netsim::packet::{Addr, Ecn, Packet, Payload, Protocol};
use cm_netsim::queue::RedConfig;
use cm_netsim::sim::{Node, NodeCtx, NodeId};
use cm_netsim::topology::Topology;
use cm_util::{Duration, Rate, Time};

/// Port a request goes to; its echo goes back to `ECHO_PORT`.
const REQUEST_PORT: u16 = 7;
const ECHO_PORT: u16 = 9;

/// Sends a request to each peer in turn every 0.5-1.5 ms until `until`,
/// echoes every request, and records everything it receives.
struct Talker {
    peers: Vec<Addr>,
    until: Time,
    sent: u64,
    received: Vec<(Time, u64, usize, Ecn)>,
}

impl Talker {
    fn arm(ctx: &mut NodeCtx<'_>) {
        let after = 500 + ctx.rng().next_bounded(1_000);
        ctx.set_timer(Duration::from_micros(after), 0);
    }
}

impl Node for Talker {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        Talker::arm(ctx);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        self.received.push((ctx.now(), pkt.id, pkt.size, pkt.ecn));
        if pkt.dst_port == REQUEST_PORT {
            let size = 40 + pkt.size / 10;
            let echo = Packet::new(
                pkt.dst,
                pkt.src,
                REQUEST_PORT,
                ECHO_PORT,
                Protocol::Udp,
                size,
                Payload::empty(),
            )
            .with_ecn(pkt.ecn);
            ctx.send(echo);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        let dst = self.peers[self.sent as usize % self.peers.len()];
        let size = 60 + ctx.rng().next_bounded(1_440) as usize;
        let ecn = if self.sent.is_multiple_of(3) {
            Ecn::NotEct
        } else {
            Ecn::Ect
        };
        let pkt = Packet::new(
            ctx.addr(),
            dst,
            ECHO_PORT,
            REQUEST_PORT,
            Protocol::Udp,
            size,
            Payload::empty(),
        )
        .with_ecn(ecn);
        ctx.send(pkt);
        self.sent += 1;
        if ctx.now() < self.until {
            Talker::arm(ctx);
        }
    }
}

fn talker(peers: Vec<Addr>) -> Box<Talker> {
    Box::new(Talker {
        peers,
        until: Time::from_millis(250),
        sent: 0,
        received: Vec::new(),
    })
}

/// Runs the scenario for `seed` and renders what each host received.
fn run(seed: u64) -> String {
    let mut topo = Topology::new(seed);
    // Addresses are dense in insertion order: hosts 1-4.
    let (l0, l1, r0, r1) = (Addr(1), Addr(2), Addr(3), Addr(4));
    let hosts: Vec<NodeId> = vec![
        topo.add_host(talker(vec![r0, r1, l1])),
        topo.add_host(talker(vec![r1, r0])),
        topo.add_host(talker(vec![l0, l1])),
        topo.add_host(talker(vec![l1, r1, l0])),
    ];
    let faults = LinkFaults::clean()
        .with_duplication(0.05)
        .with_delay_spikes(0.03, Duration::from_millis(3));
    let faults = LinkFaults {
        reorder_prob: 0.1,
        reorder_extra: Duration::from_millis(2),
        ..faults
    };
    let red = RedConfig {
        min_th: 3.0,
        max_th: 10.0,
        max_p: 0.2,
        weight: 0.2,
        capacity: 16,
        ecn: true,
    };
    let bottleneck = LinkSpec::new(Rate::from_mbps(4), Duration::from_millis(5))
        .with_queue(QueueSpec::Red(red))
        .with_loss(0.01)
        .with_faults(faults);
    let access = LinkSpec::new(Rate::from_mbps(10), Duration::from_micros(200))
        .with_queue(QueueSpec::DropTailPackets(12));
    topo.dumbbell(&hosts[..2], &hosts[2..], &bottleneck, &access);
    let mut sim = topo.build();
    sim.run_until(Time::from_millis(400));
    assert_eq!(sim.unrouted_packets(), 0);

    let mut out = String::new();
    for (i, &h) in hosts.iter().enumerate() {
        let got = &sim.node_ref::<Talker>(h).received;
        writeln!(out, "seed {seed} host {i}: {} packets", got.len()).unwrap();
        for (t, id, size, ecn) in got {
            writeln!(out, "{} {id} {size} {ecn:?}", t.as_nanos()).unwrap();
        }
    }
    out
}

#[test]
fn hosts_receive_the_frozen_sequence_through_faulty_routers() {
    let current: String = [1, 2].into_iter().map(run).collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/router.golden");
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
        "what hosts receive through routers diverged from {}; if the change \
         is intentional, regenerate with UPDATE_GOLDENS=1",
        path.display()
    );
}
