//! Isolation replays: one inner layer's public API driven alone, to get
//! its host ns per operation.
//!
//! A traced run multiplies these by the operation counts it observed
//! (`count x ns/op` = predicted busy time); what the prediction leaves
//! unexplained is `bench.predicted_residual_share`. Each replay is
//! repeated and the median kept.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use cm_adapt::{Engine, LadderPolicy, RateLadder};
use cm_apps::layered::LayeredStreamer;
use cm_core::config::{CmConfig, SchedulerKind};
use cm_core::controller::build_controller;
use cm_core::ring::{ring, Pop};
use cm_core::scheduler::build_scheduler;
use cm_core::types::{FlowId, LossMode};
use cm_libcm::dispatcher::{Dispatcher, NotifyMode};
use cm_netsim::cpu::{CostModel, Cpu};
use cm_netsim::event::{EventQueue, SimEvent};
use cm_netsim::link::{Link, LinkId, LinkSpec};
use cm_netsim::packet::{Addr, Packet, Payload, Protocol};
use cm_netsim::sim::NodeId;
use cm_obs::{FlightRecorder, TraceEvent, DEFAULT_TRACE_CAPACITY};
use cm_transport::segment::TcpSegment;
use cm_transport::tcp::{TcpAction, TcpConfig, TcpConnection};
use cm_transport::types::{CcMode, TcpTimer};
use cm_util::{DetRng, Duration, Rate, Time};

use crate::stats::median;

const REPEATS: usize = 5;

/// Median over [`REPEATS`] runs of `f`, which returns `(ns, ops)`.
fn ns_per_op(mut f: impl FnMut() -> (u64, u64)) -> f64 {
    let mut v: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (ns, ops) = f();
            ns as f64 / ops.max(1) as f64
        })
        .collect();
    median(&mut v)
}

/// Host ns per operation of each inner layer.
#[derive(Clone, Copy, Default, Debug)]
pub struct OpCosts {
    /// `EventQueue::schedule` + `pop`, a few dozen timers pending.
    pub event_schedule_pop_ns: f64,
    /// `Link::offer` + `on_tx_done` + popping the delivery.
    pub link_offer_txdone_ns: f64,
    /// One segment through a `TcpConnection` pair in CM mode, the grant
    /// it causes included.
    pub tcp_on_segment_ns: f64,
    /// `Scheduler::enqueue` + `dequeue`.
    pub scheduler_enq_deq_ns: f64,
    /// `CongestionController::on_ack` (+ `on_loss` once in 512) and the
    /// `window()` read that follows.
    pub controller_on_update_ns: f64,
    /// `RingProducer::try_push` + `RingConsumer::try_pop`, one thread.
    pub ring_push_pop_ns: f64,
    /// `ControlSocket::post_grant` + `Dispatcher::wakeup`.
    pub dispatcher_wakeup_ns: f64,
    /// `Engine::on_rate` on the streamer's ladder.
    pub engine_observe_ns: f64,
    /// `FlightRecorder::push`.
    pub recorder_push_ns: f64,
}

/// Runs every replay. `members` is the workload's flows per macroflow,
/// which is what scheduler cost depends on.
pub fn op_costs(seed: u64, members: usize) -> OpCosts {
    OpCosts {
        event_schedule_pop_ns: ns_per_op(|| event_queue(seed)),
        link_offer_txdone_ns: ns_per_op(link),
        tcp_on_segment_ns: ns_per_op(tcp_pair),
        scheduler_enq_deq_ns: ns_per_op(|| scheduler(members)),
        controller_on_update_ns: ns_per_op(controller),
        ring_push_pop_ns: ns_per_op(spsc_ring),
        dispatcher_wakeup_ns: ns_per_op(dispatcher),
        engine_observe_ns: ns_per_op(|| engine(seed)),
        recorder_push_ns: ns_per_op(recorder),
    }
}

fn event_queue(seed: u64) -> (u64, u64) {
    const PENDING: u64 = 48;
    const OPS: u64 = 1_000_000;
    let mut rng = DetRng::seed(seed).split("replay-evq");
    let mut q = EventQueue::new();
    let timer = |token| SimEvent::Timer {
        node: NodeId(0),
        token,
        slot: 0,
        gen: 0,
    };
    for i in 0..PENDING {
        q.schedule(Time::from_micros(rng.next_bounded(60_000)), timer(i));
    }
    let t0 = Instant::now();
    for i in 0..OPS {
        let Some((at, ev)) = q.pop() else { break };
        black_box(ev);
        // Mostly serialization-scale delays, some RTT- and RTO-scale.
        let after = match i % 8 {
            0 => 200_000,
            1 | 2 => 30_000,
            _ => 1_200,
        } + rng.next_bounded(1_000);
        q.schedule(at + Duration::from_micros(after), timer(i));
    }
    (t0.elapsed().as_nanos() as u64, OPS)
}

fn link() -> (u64, u64) {
    const OPS: u64 = 500_000;
    let spec = LinkSpec::new(Rate::from_mbps(10), Duration::from_millis(30));
    let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), &spec);
    let mut rng = DetRng::seed(1);
    let mut q = EventQueue::new();
    let mut now = Time::ZERO;
    let t0 = Instant::now();
    for _ in 0..OPS {
        let pkt = Packet::new(
            Addr(1),
            Addr(2),
            1,
            2,
            Protocol::Udp,
            1500,
            Payload::empty(),
        );
        link.offer(pkt, now, &mut rng, &mut q);
        while let Some((at, ev)) = q.pop() {
            now = at;
            match ev {
                SimEvent::LinkTxDone { .. } => link.on_tx_done(now, &mut rng, &mut q),
                other => {
                    black_box(other);
                }
            }
        }
    }
    (t0.elapsed().as_nanos() as u64, OPS)
}

/// The wire and the CM of the TCP replay: emitted segments queue for
/// the peer, every `CmRequest` is owed one grant, and the delayed-ACK
/// timers are tracked so a stalled transfer can fire them.
#[derive(Default)]
struct Loopback {
    wire: VecDeque<(usize, TcpSegment)>,
    grants_owed: [u32; 2],
    delack_armed: [bool; 2],
}

impl Loopback {
    fn route(&mut self, from: usize, actions: Vec<TcpAction>) {
        for a in actions {
            match a {
                TcpAction::Emit(seg) => self.wire.push_back((1 - from, seg)),
                TcpAction::CmRequest => self.grants_owed[from] += 1,
                TcpAction::SetTimer(TcpTimer::DelayedAck, _) => self.delack_armed[from] = true,
                TcpAction::CancelTimer(TcpTimer::DelayedAck) => self.delack_armed[from] = false,
                _ => {}
            }
        }
    }
}

/// A 4 MB transfer between two `TcpConnection`s in CM mode over a
/// loss-free wire: every emitted segment goes straight to the peer,
/// every `CmRequest` is granted at once.
fn tcp_pair() -> (u64, u64) {
    const BYTES: u64 = 4_000_000;
    let cfg = TcpConfig {
        rwnd: 64 * 1024,
        ..Default::default()
    };
    let mut now = Time::ZERO;
    let mut net = Loopback::default();
    let (client, syn) = TcpConnection::connect(cfg.clone(), CcMode::Cm, now);
    net.route(0, syn);
    let Some((_, syn_seg)) = net.wire.pop_front() else {
        return (0, 0);
    };
    let (server, synack) = TcpConnection::accept(cfg, CcMode::Cm, &syn_seg, now);
    net.route(1, synack);
    let mut conns = [client, server];

    let mut segments = 0u64;
    let mut written = false;
    let t0 = Instant::now();
    // Bounded so a protocol stall ends the replay instead of hanging it.
    for _ in 0..10 * BYTES / 1460 {
        for (who, conn) in conns.iter_mut().enumerate() {
            while net.grants_owed[who] > 0 {
                net.grants_owed[who] -= 1;
                let acts = conn.on_cm_grant(now);
                net.route(who, acts);
            }
        }
        if let Some((to, seg)) = net.wire.pop_front() {
            now += Duration::from_micros(10);
            let acts = conns[to].on_segment(&seg, false, now);
            segments += 1;
            net.route(to, acts);
        } else if !written {
            written = true;
            let acts = conns[0].app_write(BYTES, now);
            net.route(0, acts);
        } else if let Some(who) = net.delack_armed.iter().position(|&armed| armed) {
            net.delack_armed[who] = false;
            let acts = conns[who].on_timer(TcpTimer::DelayedAck, now);
            net.route(who, acts);
        } else {
            break;
        }
    }
    assert_eq!(conns[1].bytes_delivered(), BYTES, "TCP replay stalled");
    (t0.elapsed().as_nanos() as u64, segments)
}

fn scheduler(members: usize) -> (u64, u64) {
    const OPS: u64 = 1_000_000;
    let mut s = build_scheduler(SchedulerKind::RoundRobin);
    for i in 0..members {
        s.add_flow(FlowId(i as u32), 1);
    }
    let t0 = Instant::now();
    for i in 0..OPS {
        s.enqueue(FlowId((i % members as u64) as u32));
        black_box(s.dequeue());
    }
    (t0.elapsed().as_nanos() as u64, OPS)
}

fn controller() -> (u64, u64) {
    const OPS: u64 = 1_000_000;
    let cfg = CmConfig::default();
    let mut c = build_controller(&cfg);
    let now = Time::ZERO;
    let t0 = Instant::now();
    for i in 0..OPS {
        if i % 512 == 511 {
            c.on_loss(LossMode::Transient, now);
        } else {
            c.on_ack(1460, 1, now);
        }
        black_box(c.window());
    }
    (t0.elapsed().as_nanos() as u64, OPS)
}

fn spsc_ring() -> (u64, u64) {
    const OPS: u64 = 1_000_000;
    // As wide as a `ShardCommand` carrying a feedback report.
    let (mut tx, mut rx) = ring::<[u64; 8]>(4096);
    let t0 = Instant::now();
    for i in 0..OPS {
        black_box(tx.try_push([i; 8]));
        if let Pop::Item(m) = rx.try_pop() {
            black_box(m);
        }
    }
    (t0.elapsed().as_nanos() as u64, OPS)
}

fn dispatcher() -> (u64, u64) {
    const OPS: u64 = 500_000;
    let mut d = Dispatcher::new(NotifyMode::SelectLoop { extra_fds: 1 });
    let mut cpu = Cpu::new();
    let costs = CostModel::default();
    let t0 = Instant::now();
    for i in 0..OPS {
        d.socket.post_grant(FlowId(1));
        black_box(d.wakeup(Time::from_micros(i), &mut cpu, &costs));
    }
    (t0.elapsed().as_nanos() as u64, OPS)
}

fn engine(seed: u64) -> (u64, u64) {
    const OPS: u64 = 1_000_000;
    let mut rng = DetRng::seed(seed).split("replay-adapt");
    let ladder = RateLadder::new(LayeredStreamer::default_layers());
    let mut e = Engine::new(Box::new(LadderPolicy::immediate(ladder)));
    let t0 = Instant::now();
    for i in 0..OPS {
        let rate = Rate::from_bytes_per_sec(100_000 + rng.next_bounded(2_400_000));
        black_box(e.on_rate(Time::from_millis(i), rate));
    }
    (t0.elapsed().as_nanos() as u64, OPS)
}

fn recorder() -> (u64, u64) {
    const OPS: u64 = 2_000_000;
    let mut r = FlightRecorder::with_capacity(DEFAULT_TRACE_CAPACITY);
    let t0 = Instant::now();
    for i in 0..OPS {
        black_box(r.push(
            Time::from_nanos(i),
            TraceEvent::GrantIssued {
                flow: i as u32,
                bytes: 1460,
            },
        ));
    }
    (t0.elapsed().as_nanos() as u64, OPS)
}
