//! TCP over a real in-process Congestion Manager, with no simulator.
//!
//! N ∈ {1, 2, 4} TCP/CM senders to one destination share one macroflow
//! of a `CongestionManager` (one `open` each; `Destination` aggregation
//! groups them). Each sender talks to a native receiver across a fixed
//! 30 ms one-way delay, and the wire loses the data segments a seeded
//! drop script names. The harness stands in for the host: it executes
//! each sender's `CmRequest`, `CmNotify` and `CmUpdate` actions, pushes
//! the CM's shared RTT back after every update as
//! `Host::run_tcp_actions` does, delivers grants until none are pending,
//! ticks the CM every 100 ms and drives pacing through
//! `next_grant_deadline`/`release_paced`.
//!
//! The sweep runs 256 scripts under TCP/CM: every byte of every
//! connection arrives within 600 simulated seconds, and
//! `check_invariants` holds after every event. The differential runs
//! each script under both modes: they deliver the same bytes on every
//! connection. It prints the TCP/CM-to-native completion-time ratio and
//! does not assert it. CI's long run adds 20,000 scripts:
//! `cargo test --release -p cm-transport --test tcp_over_cm -- --ignored`.
//!
//! One recorded TCP defect shows here, under both modes, in 47 of the
//! 20,000 scripts (16 native runs, 33 TCP/CM runs): after a timeout, a sender whose FIN the receiver has
//! SACKed sends the FIN again one offset late (and after a further
//! timeout, later still), and a receiver that gets it before a hole
//! below fills counts the skipped offsets as data bytes.
//! `go_back_n_past_a_sacked_fin_resends_it_one_offset_late` in `tcp.rs`
//! pins it (ROADMAP item 2b). The harness watches the wire for late FINs
//! and takes back at most one byte per offset a FIN moved; any other
//! miscount still fails.

use std::collections::BTreeMap;

use cm_core::config::CmConfig;
use cm_core::types::{Endpoint, FlowId, FlowKey};
use cm_core::{CmNotification, CongestionManager};
use cm_transport::segment::TcpSegment;
use cm_transport::tcp::{TcpAction, TcpConfig, TcpConnection};
use cm_transport::types::{CcMode, TcpTimer};
use cm_util::{DetRng, Duration, Time};

const MSS: u64 = 1460;
const ONE_WAY: Duration = Duration::from_millis(30);
const CM_TICK: Duration = Duration::from_millis(100);
const DEADLINE: Time = Time::from_secs(600);

/// One seeded scenario: how many connections share the macroflow, how
/// much each sends, and which data transmissions the wire loses.
#[derive(Clone, Copy, Debug)]
struct Script {
    seed: u64,
    conns: usize,
    segments: u64,
    loss: f64,
}

impl Script {
    fn of(seed: u64) -> Self {
        let mut rng = DetRng::seed(seed);
        Script {
            seed,
            conns: [1, 2, 4][rng.next_bounded(3) as usize],
            segments: [8, 40, 120][rng.next_bounded(3) as usize],
            loss: [0.0, 0.01, 0.03, 0.1][rng.next_bounded(4) as usize],
        }
    }

    /// Bytes each sender writes.
    fn total(&self) -> u64 {
        self.segments * MSS
    }

    /// Whether the wire loses the `attempt`-th transmission of
    /// connection `conn`'s data segment at `seq`. The answer depends on
    /// the segment alone, not on when it is sent, so both modes meet the
    /// same losses. A third transmission always arrives.
    fn drops(&self, conn: usize, seq: u32, attempt: u32) -> bool {
        let key = DetRng::seed(self.seed).next_u64()
            ^ u64::from(seq)
            ^ (conn as u64) << 32
            ^ u64::from(attempt) << 40;
        attempt < 2 && DetRng::seed(key).chance(self.loss)
    }
}

/// A scheduled happening, keyed in the queue by `(time, order)`.
enum Event {
    /// A segment reaches connection `conn`'s receiver (`to_rx`) or sender.
    Arrive {
        conn: usize,
        to_rx: bool,
        seg: TcpSegment,
    },
    /// A connection timer, unless re-armed or cancelled since (`gen`).
    Timer {
        conn: usize,
        rx: bool,
        kind: TcpTimer,
        gen: u32,
    },
    /// The CM's 100 ms maintenance tick.
    Tick,
    /// Pacing may release held grants.
    Pace,
}

/// What one run of a script delivered.
struct Outcome {
    /// Bytes each receiver delivered in order (see [`Run::outcome`]).
    delivered: Vec<u64>,
    /// When the last connection completed, if all did by the deadline.
    finished: Option<Time>,
    /// Bytes the late-FIN defect added to the receivers' counts.
    late_fin_bytes: u64,
}

struct Run {
    script: Script,
    cm: CongestionManager,
    now: Time,
    queue: BTreeMap<(Time, u64), Event>,
    order: u64,
    senders: Vec<TcpConnection>,
    receivers: Vec<Option<TcpConnection>>,
    /// Each sender's CM flow (TCP/CM only).
    flows: Vec<FlowId>,
    /// Timer generations, `[conn][rx][kind]`.
    timer_gens: Vec<[[u32; 2]; 2]>,
    /// Transmissions so far of each `(conn, seq)` data segment.
    attempts: BTreeMap<(usize, u32), u32>,
    /// The offset of the first FIN each receiver was sent.
    fins: Vec<Option<u32>>,
    /// How far past it a later FIN was sent to each receiver.
    late_fins: Vec<u32>,
    pace_at: Option<Time>,
    actions: Vec<TcpAction>,
    notes: Vec<CmNotification>,
}

impl Run {
    /// What the run has delivered so far: each receiver's in-order bytes,
    /// less what the late-FIN defect adds — at most one byte per offset a
    /// FIN was sent late (see the module doc).
    fn outcome(&self, finished: Option<Time>) -> Outcome {
        let mut late_fin_bytes = 0;
        let delivered = (0..self.script.conns)
            .map(|conn| {
                let got = self.receivers[conn]
                    .as_ref()
                    .map_or(0, TcpConnection::bytes_delivered);
                let over = got.saturating_sub(self.script.total());
                let inflated = if over <= u64::from(self.late_fins[conn]) {
                    over
                } else {
                    0
                };
                late_fin_bytes += inflated;
                got - inflated
            })
            .collect();
        Outcome {
            delivered,
            finished,
            late_fin_bytes,
        }
    }

    fn schedule(&mut self, at: Time, event: Event) {
        self.order += 1;
        self.queue.insert((at, self.order), event);
    }

    /// Executes the actions connection `conn`'s sender or receiver (`rx`)
    /// left in `self.actions`.
    fn apply(&mut self, conn: usize, rx: bool) {
        let now = self.now;
        let mut actions = std::mem::take(&mut self.actions);
        for act in actions.drain(..) {
            match act {
                TcpAction::Emit(seg) => {
                    if !rx && seg.len > 0 {
                        let attempt = self.attempts.entry((conn, seg.seq)).or_insert(0);
                        *attempt += 1;
                        if self.script.drops(conn, seg.seq, *attempt - 1) {
                            continue;
                        }
                    }
                    if !rx && seg.flags.fin {
                        let at = seg.seq.wrapping_add(seg.len);
                        match self.fins[conn] {
                            None => self.fins[conn] = Some(at),
                            Some(first) if at == first => {}
                            Some(first) => {
                                let late = at.wrapping_sub(first);
                                assert!(late < MSS as u32, "{:?}: FIN moved", self.script);
                                self.late_fins[conn] = self.late_fins[conn].max(late);
                            }
                        }
                    }
                    let to_rx = !rx;
                    self.schedule(now + ONE_WAY, Event::Arrive { conn, to_rx, seg });
                }
                TcpAction::SetTimer(kind, after) => {
                    let gen = &mut self.timer_gens[conn][rx as usize][kind as usize];
                    *gen += 1;
                    let gen = *gen;
                    self.schedule(
                        now + after,
                        Event::Timer {
                            conn,
                            rx,
                            kind,
                            gen,
                        },
                    );
                }
                TcpAction::CancelTimer(kind) => {
                    self.timer_gens[conn][rx as usize][kind as usize] += 1;
                }
                TcpAction::CmRequest => self.cm.request(self.flows[conn], now).unwrap(),
                TcpAction::CmNotify(bytes) => self.cm.notify(self.flows[conn], bytes, now).unwrap(),
                TcpAction::CmUpdate(report) => {
                    let flow = self.flows[conn];
                    self.cm.update(flow, report, now).unwrap();
                    let mf = self.cm.macroflow_of(flow).unwrap();
                    let info = self.cm.flow_info(flow, mf).unwrap();
                    if let Some(srtt) = info.srtt {
                        self.senders[conn].set_shared_rtt(srtt, info.rttvar);
                    }
                }
                TcpAction::Event(_) => {}
            }
        }
        self.actions = actions;
    }

    /// Delivers CM grants until none are pending, then makes sure a pace
    /// event will release any the CM holds back.
    fn settle(&mut self) {
        let mut notes = std::mem::take(&mut self.notes);
        for _ in 0..1_000_000 {
            notes.clear();
            self.cm.drain_notifications_into(&mut notes);
            if notes.is_empty() {
                break;
            }
            for note in &notes {
                if let CmNotification::SendGrant { flow } = *note {
                    let conn = self.flows.iter().position(|&f| f == flow).unwrap();
                    self.senders[conn].on_cm_grant_into(self.now, &mut self.actions);
                    self.apply(conn, false);
                }
            }
        }
        assert!(notes.is_empty(), "grants did not settle at {:?}", self.now);
        self.notes = notes;
        if let Some(at) = self.cm.next_grant_deadline() {
            let fire_at = at.max(self.now);
            if self.pace_at.is_none_or(|t| fire_at < t || t <= self.now) {
                self.pace_at = Some(fire_at);
                let after = fire_at.since(self.now).max(Duration::from_nanos(1));
                self.schedule(self.now + after, Event::Pace);
            }
        }
    }

    fn handle(&mut self, event: Event, cfg: &TcpConfig, mode: CcMode) {
        let now = self.now;
        match event {
            Event::Arrive { conn, to_rx, seg } => {
                if !to_rx {
                    self.senders[conn].on_segment_into(&seg, false, now, &mut self.actions);
                } else if let Some(rx) = self.receivers[conn].as_mut() {
                    rx.on_segment_into(&seg, false, now, &mut self.actions);
                } else {
                    let (rx, actions) =
                        TcpConnection::accept(cfg.clone(), CcMode::Native, &seg, now);
                    self.receivers[conn] = Some(rx);
                    self.actions = actions;
                }
                self.apply(conn, to_rx);
            }
            Event::Timer {
                conn,
                rx,
                kind,
                gen,
            } => {
                if self.timer_gens[conn][rx as usize][kind as usize] != gen {
                    return;
                }
                let side = if rx {
                    self.receivers[conn].as_mut().unwrap()
                } else {
                    &mut self.senders[conn]
                };
                side.on_timer_into(kind, now, &mut self.actions);
                self.apply(conn, rx);
            }
            Event::Tick => {
                self.cm.tick(now);
                self.schedule(now + CM_TICK, Event::Tick);
            }
            Event::Pace => {
                self.pace_at = None;
                self.cm.release_paced(now);
            }
        }
        if mode == CcMode::Cm {
            self.settle();
        }
    }
}

/// Runs `script` with every sender in `mode` until each receiver holds
/// its whole transfer or the deadline passes.
fn run(script: Script, mode: CcMode) -> Outcome {
    let cfg = TcpConfig::default();
    let total = script.total();
    let mut run = Run {
        script,
        cm: CongestionManager::new(CmConfig::default()),
        now: Time::ZERO,
        queue: BTreeMap::new(),
        order: 0,
        senders: Vec::new(),
        receivers: (0..script.conns).map(|_| None).collect(),
        flows: Vec::new(),
        timer_gens: vec![[[0; 2]; 2]; script.conns],
        attempts: BTreeMap::new(),
        fins: vec![None; script.conns],
        late_fins: vec![0; script.conns],
        pace_at: None,
        actions: Vec::new(),
        notes: Vec::new(),
    };
    for conn in 0..script.conns {
        if mode == CcMode::Cm {
            let local = Endpoint::new(1, 1000 + conn as u16);
            let key = FlowKey::new(local, Endpoint::new(2, 80));
            run.flows.push(run.cm.open(key, Time::ZERO).unwrap());
        }
        let (sender, actions) = TcpConnection::connect(cfg.clone(), mode, Time::ZERO);
        run.senders.push(sender);
        run.actions = actions;
        run.apply(conn, false);
        run.senders[conn].app_write_into(total, Time::ZERO, &mut run.actions);
        run.senders[conn].app_close_into(Time::ZERO, &mut run.actions);
        run.apply(conn, false);
    }
    if mode == CcMode::Cm {
        let mf = run.cm.macroflow_of(run.flows[0]).unwrap();
        for &flow in &run.flows {
            assert_eq!(
                run.cm.macroflow_of(flow).unwrap(),
                mf,
                "one shared macroflow"
            );
        }
    }
    run.schedule(Time::ZERO + CM_TICK, Event::Tick);
    loop {
        let outcome = run.outcome(Some(run.now));
        if outcome.delivered.iter().all(|&d| d == total) {
            return outcome;
        }
        let Some(((at, _), event)) = run.queue.pop_first() else {
            break;
        };
        if at > DEADLINE {
            break;
        }
        run.now = at;
        run.handle(event, &cfg, mode);
        if let Err(e) = run.cm.check_invariants() {
            panic!("{script:?} {mode:?} at {at:?}: {e}");
        }
    }
    run.outcome(None)
}

/// Runs `seeds` under TCP/CM and asserts every byte arrives in time.
fn sweep(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let script = Script::of(seed);
        let out = run(script, CcMode::Cm);
        assert!(
            out.finished.is_some(),
            "{script:?}: delivered {:?} of {} each by {DEADLINE:?}",
            out.delivered,
            script.total(),
        );
    }
}

/// Runs `seeds` under both modes, asserts they deliver the same bytes on
/// every connection, and prints TCP/CM's completion time over native's.
fn differential(seeds: std::ops::Range<u64>) {
    let mut ratios = Vec::new();
    let mut late_fin_bytes = 0;
    for seed in seeds {
        let script = Script::of(seed);
        let native = run(script, CcMode::Native);
        let cm = run(script, CcMode::Cm);
        let all = vec![script.total(); script.conns];
        assert_eq!(
            native.delivered, all,
            "{script:?}: native bytes per connection"
        );
        assert_eq!(
            cm.delivered, native.delivered,
            "{script:?}: bytes per connection"
        );
        late_fin_bytes += native.late_fin_bytes + cm.late_fin_bytes;
        let secs = |out: &Outcome| out.finished.expect("delivered in full").as_secs_f64();
        ratios.push(secs(&cm) / secs(&native));
    }
    ratios.sort_by(f64::total_cmp);
    let at = |q: f64| ratios[((ratios.len() - 1) as f64 * q) as usize];
    println!(
        "TCP/CM / native completion time over {} scripts: min {:.2} median {:.2} p90 {:.2} max {:.2}; \
         {late_fin_bytes} late-FIN byte(s) taken back",
        ratios.len(),
        at(0.0),
        at(0.5),
        at(0.9),
        at(1.0),
    );
}

/// Every byte of every TCP/CM connection sharing the macroflow arrives
/// within 600 simulated seconds, with `check_invariants` after every
/// event.
#[test]
fn tcp_over_cm_delivers_every_byte() {
    sweep(0..256);
}

/// Native TCP and TCP/CM deliver the same bytes on every connection
/// under the same drop scripts.
#[test]
fn native_and_cm_deliver_the_same_bytes() {
    differential(256..320);
}

/// CI's long run: `cargo test --release -p cm-transport --test
/// tcp_over_cm -- --ignored`.
#[test]
#[ignore = "20,000 scripts; CI runs it in release"]
fn native_and_cm_deliver_the_same_bytes_20k() {
    differential(0..20_000);
}
