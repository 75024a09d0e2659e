//! Topology builders for the paper's experiment scenarios.
//!
//! [`Topology`] wraps a [`Simulator`] with convenience methods for wiring
//! duplex links, emulated paths, and dumbbells, taking care of route
//! installation so experiments cannot forget a direction.

use crate::channel::PathSpec;
use crate::link::{LinkId, LinkSpec};
use crate::schedule::BandwidthSchedule;
use crate::sim::{Node, NodeId, RouterNode, Simulator};

/// A pair of link ids for a duplex connection (forward, reverse).
#[derive(Clone, Copy, Debug)]
pub struct Duplex {
    /// The a-to-b direction.
    pub forward: LinkId,
    /// The b-to-a direction.
    pub reverse: LinkId,
}

/// A simulator under construction.
pub struct Topology {
    sim: Simulator,
}

impl Topology {
    /// Starts building a topology with the given random seed.
    pub fn new(seed: u64) -> Self {
        Topology {
            sim: Simulator::new(seed),
        }
    }

    /// Adds a host node.
    pub fn add_host(&mut self, node: Box<dyn Node>) -> NodeId {
        self.sim.add_node(node)
    }

    /// Adds a host with a prefix-structured address: host number `host`
    /// inside `subnet` (see [`crate::packet::Addr::from_subnet`]). Hosts
    /// placed in one subnet share an address prefix, which is what the
    /// CM's per-subnet aggregation policy groups on.
    pub fn add_host_in_subnet(&mut self, node: Box<dyn Node>, subnet: u32, host: u32) -> NodeId {
        self.sim
            .add_node_with_addr(node, crate::packet::Addr::from_subnet(subnet, host))
    }

    /// Adds an interior router.
    fn add_router(&mut self) -> NodeId {
        self.sim.add_node(Box::new(RouterNode))
    }

    /// Connects `a` and `b` with a duplex pair of identical links.
    fn duplex(&mut self, a: NodeId, b: NodeId, spec: &LinkSpec) -> Duplex {
        let forward = self.sim.add_link(a, b, spec);
        let reverse = self.sim.add_link(b, a, spec);
        Duplex { forward, reverse }
    }

    /// Connects `a` and `b` with a duplex pair of differing links.
    pub fn duplex_asym(&mut self, a: NodeId, b: NodeId, fwd: &LinkSpec, rev: &LinkSpec) -> Duplex {
        let forward = self.sim.add_link(a, b, fwd);
        let reverse = self.sim.add_link(b, a, rev);
        Duplex { forward, reverse }
    }

    /// Connects two hosts with an emulated [`PathSpec`] and installs
    /// default routes both ways — the two-machine Dummynet scenario used
    /// by most of the paper's experiments.
    pub fn emulated_path(&mut self, a: NodeId, b: NodeId, path: &PathSpec) -> Duplex {
        let d = self.duplex_asym(a, b, &path.forward(), &path.reverse());
        self.sim.set_default_route(a, d.forward);
        self.sim.set_default_route(b, d.reverse);
        d
    }

    /// Builds a dumbbell: every node in `left` connects through a shared
    /// bottleneck to every node in `right`.
    ///
    /// Returns `(left_router, right_router, bottleneck)`. Access links use
    /// `access`; the shared center pair uses `bottleneck`. Routes are
    /// installed so left and right hosts can exchange packets in both
    /// directions; the bottleneck's forward direction is left-to-right.
    pub fn dumbbell(
        &mut self,
        left: &[NodeId],
        right: &[NodeId],
        bottleneck: &LinkSpec,
        access: &LinkSpec,
    ) -> (NodeId, NodeId, Duplex) {
        let rl = self.add_router();
        let rr = self.add_router();
        let center = self.duplex(rl, rr, bottleneck);
        self.sim.set_default_route(rl, center.forward);
        self.sim.set_default_route(rr, center.reverse);
        for &h in left {
            let d = self.duplex(h, rl, access);
            self.sim.set_default_route(h, d.forward);
            // The left router reaches this host via the reverse direction.
            let addr = self.sim.addr_of(h);
            self.sim.set_route(rl, addr, d.reverse);
        }
        for &h in right {
            let d = self.duplex(h, rr, access);
            self.sim.set_default_route(h, d.forward);
            let addr = self.sim.addr_of(h);
            self.sim.set_route(rr, addr, d.reverse);
        }
        (rl, rr, center)
    }

    /// Attaches a bandwidth schedule to one link direction, making its
    /// capacity time-varying (see [`BandwidthSchedule`]).
    pub fn schedule_link(&mut self, link: LinkId, sched: &BandwidthSchedule) {
        self.sim.apply_link_schedule(link, sched);
    }

    /// Installs an explicit route.
    pub fn route(&mut self, node: NodeId, dst: NodeId, link: LinkId) {
        let addr = self.sim.addr_of(dst);
        self.sim.set_route(node, addr, link);
    }

    /// Read access to the simulator during construction.
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable access to the simulator during construction.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Finishes construction.
    pub fn build(self) -> Simulator {
        self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, Packet, Payload, Protocol};
    use crate::sim::NodeCtx;
    use cm_util::{Duration, Rate, Time};

    struct Sink {
        got: usize,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {
            self.got += 1;
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
    }

    struct Pinger {
        dst: Addr,
    }
    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            let pkt = Packet::new(
                ctx.addr(),
                self.dst,
                9,
                9,
                Protocol::Udp,
                100,
                Payload::empty(),
            );
            ctx.send(pkt);
        }
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
    }

    #[test]
    fn emulated_path_routes_both_ways() {
        let mut t = Topology::new(3);
        let sink = t.add_host(Box::new(Sink { got: 0 }));
        let sink_addr = t.sim().addr_of(sink);
        let src = t.add_host(Box::new(Pinger { dst: sink_addr }));
        let path = PathSpec::new(Rate::from_mbps(10), Duration::from_millis(20));
        t.emulated_path(src, sink, &path);
        let mut sim = t.build();
        sim.run_to_quiescence(100);
        assert_eq!(sim.node_ref::<Sink>(sink).got, 1);
        // Delivery at serialization (80us) + 10ms one-way delay.
        assert!(sim.now() >= Time::from_millis(10));
        assert_eq!(sim.unrouted_packets(), 0);
    }

    #[test]
    fn dumbbell_cross_traffic_reaches_far_side() {
        let mut t = Topology::new(4);
        let s1 = t.add_host(Box::new(Sink { got: 0 }));
        let s2 = t.add_host(Box::new(Sink { got: 0 }));
        let s1_addr = t.sim().addr_of(s1);
        let s2_addr = t.sim().addr_of(s2);
        let p1 = t.add_host(Box::new(Pinger { dst: s1_addr }));
        let p2 = t.add_host(Box::new(Pinger { dst: s2_addr }));
        let bottleneck = LinkSpec::new(Rate::from_mbps(1), Duration::from_millis(10));
        let access = LinkSpec::new(Rate::from_mbps(100), Duration::from_micros(100));
        t.dumbbell(&[p1, p2], &[s1, s2], &bottleneck, &access);
        let mut sim = t.build();
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.node_ref::<Sink>(s1).got, 1);
        assert_eq!(sim.node_ref::<Sink>(s2).got, 1);
        assert_eq!(sim.unrouted_packets(), 0);
    }

    /// Answers every packet with one of the same size until `left` runs
    /// out; the side with `opens` set sends the first.
    struct PingPong {
        peer: Addr,
        size: usize,
        left: u32,
        opens: bool,
    }

    impl PingPong {
        fn send(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.left > 0 {
                self.left -= 1;
                let (src, size) = (ctx.addr(), self.size);
                ctx.send(Packet::new(
                    src,
                    self.peer,
                    9,
                    9,
                    Protocol::Udp,
                    size,
                    Payload::empty(),
                ));
            }
        }
    }

    impl Node for PingPong {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.opens {
                self.send(ctx);
            }
        }
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _pkt: Packet) {
            self.send(ctx);
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}
    }

    /// The link layer's event budget: a packet nobody queues behind costs
    /// one event per hop (its delivery), and only a packet that finds the
    /// transmitter busy adds a completion. Two ping-pong pairs over a
    /// three-hop dumbbell meet at the bottleneck now and then (1.06).
    #[test]
    fn lightly_loaded_dumbbell_pops_about_one_event_per_link_offer() {
        const ROUND_TRIPS: u32 = 500;
        let mut t = Topology::new(8);
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (i, size) in [200, 1500].into_iter().enumerate() {
            // Automatic addresses are dense: node index + 1.
            let peer = |node: usize| Addr(node as u32 + 1);
            left.push(t.add_host(Box::new(PingPong {
                peer: peer(2 * i + 1),
                size,
                left: ROUND_TRIPS,
                opens: true,
            })));
            right.push(t.add_host(Box::new(PingPong {
                peer: peer(2 * i),
                size,
                left: ROUND_TRIPS,
                opens: false,
            })));
        }
        let bottleneck = LinkSpec::new(Rate::from_mbps(10), Duration::from_millis(2));
        let access = LinkSpec::new(Rate::from_mbps(100), Duration::from_micros(100));
        t.dumbbell(&left, &right, &bottleneck, &access);
        let mut sim = t.build();
        sim.run_to_quiescence(100_000);
        let links = 2 + 2 * (left.len() + right.len());
        let offered: u64 = (0..links).map(|l| sim.link_stats(LinkId(l)).offered).sum();
        // Each round trip is three hops out and three back.
        assert_eq!(offered, left.len() as u64 * 6 * u64::from(ROUND_TRIPS));
        let per_offer = sim.events_processed() as f64 / offered as f64;
        assert!(
            (1.0..=1.2).contains(&per_offer),
            "{per_offer:.3} events per link offer ({} / {offered})",
            sim.events_processed()
        );
    }

    #[test]
    fn subnet_hosts_get_prefix_structured_addresses_and_route() {
        let mut t = Topology::new(6);
        let s1 = t.add_host_in_subnet(Box::new(Sink { got: 0 }), 2, 1);
        let s2 = t.add_host_in_subnet(Box::new(Sink { got: 0 }), 2, 2);
        let a1 = t.sim().addr_of(s1);
        let a2 = t.sim().addr_of(s2);
        assert_eq!(a1.subnet(), 2);
        assert_eq!(a2.subnet(), 2);
        assert_eq!(a1.subnet(), a2.subnet());
        assert_eq!((a1.host(), a2.host()), (1, 2));
        assert_eq!(format!("{a1}"), "10.0.2.1");
        // Packets route to subnet hosts like any other.
        let p1 = t.add_host(Box::new(Pinger { dst: a1 }));
        let p2 = t.add_host(Box::new(Pinger { dst: a2 }));
        let bottleneck = LinkSpec::new(Rate::from_mbps(1), Duration::from_millis(5));
        let access = LinkSpec::new(Rate::from_mbps(100), Duration::from_micros(50));
        t.dumbbell(&[p1, p2], &[s1, s2], &bottleneck, &access);
        let mut sim = t.build();
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.node_ref::<Sink>(s1).got, 1);
        assert_eq!(sim.node_ref::<Sink>(s2).got, 1);
        assert_eq!(sim.unrouted_packets(), 0);
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn duplicate_explicit_address_rejected() {
        let mut t = Topology::new(6);
        let _ = t.add_host_in_subnet(Box::new(Sink { got: 0 }), 3, 7);
        let _ = t.add_host_in_subnet(Box::new(Sink { got: 0 }), 3, 7);
    }

    #[test]
    fn dumbbell_reverse_direction_works() {
        // A pinger on the right sends left across the bottleneck.
        let mut t = Topology::new(5);
        let sink = t.add_host(Box::new(Sink { got: 0 }));
        let sink_addr = t.sim().addr_of(sink);
        let pinger = t.add_host(Box::new(Pinger { dst: sink_addr }));
        let bottleneck = LinkSpec::new(Rate::from_mbps(1), Duration::from_millis(5));
        let access = LinkSpec::new(Rate::from_mbps(100), Duration::from_micros(50));
        t.dumbbell(&[sink], &[pinger], &bottleneck, &access);
        let mut sim = t.build();
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.node_ref::<Sink>(sink).got, 1);
    }
}
