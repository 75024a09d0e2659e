//! The chaos harness: replay CM scenarios under seeded fault plans and
//! assert the global invariants the graceful-degradation machinery must
//! preserve (paper §5, "Trust issues").
//!
//! A scenario is one entry of the `SCENARIOS` catalogue: a name and a
//! builder of a small `cm-netsim` topology — a bulk TCP transfer (on the
//! default or the delay-gradient controller), a shared-macroflow pair, an
//! ALF blaster, a deliberately misbehaving client, or a flaky cellular
//! trace replay — with the [`FaultPlan`]'s link and application faults
//! injected. One driver, `run_chaos`, runs every scenario: it *steps* the
//! simulation in one-second slices, and after every slice checks, on
//! both hosts:
//!
//! * [`cm_core::CongestionManager::check_invariants`] — no leaked or double-freed
//!   slab slots, flow ↔ macroflow membership is a bijection, reserved
//!   grant bytes equal `granted_unnotified` (outstanding-byte
//!   conservation), and parked-request accounting balances;
//! * every live macroflow's congestion window stays below a sanity cap
//!   (no runaway window under duplicated ACKs or bogus feedback).
//!
//! At the end of the fault horizon the harness runs a quiet tail with no
//! new faults so reclaim, backoff, and orphan reaping can settle, then
//! takes scenario-specific liveness checks (the honest transfer made
//! progress; a crashed app's flow was actually reaped). The simulation
//! terminating at all — `run_until` returning with a bounded event count —
//! is itself the final invariant.
//!
//! Everything is derived from `(scenario, seed)`, so a failing plan
//! replays bit-for-bit: `cargo run --release -p cm-experiments --bin chaos`.

use cm_apps::ack_clients::{AckReceiver, FeedbackPolicy};
use cm_apps::blast::{BlastApi, BlastSender};
use cm_apps::bulk::{BulkReceiver, BulkSender};
use cm_apps::misbehave::MisbehavingSender;
use cm_core::config::{CmConfig, TracingConfig};
use cm_core::types::MacroflowId;
use cm_core::CmStats;

use crate::trace::trace_tail_lines;
use cm_netsim::channel::PathSpec;
use cm_netsim::fault::{AppFault, FaultPlan, GilbertElliott, LinkFaults};
use cm_netsim::schedule::BandwidthSchedule;
use cm_netsim::sim::{NodeId, Simulator};
use cm_netsim::topology::Topology;
use cm_transport::host::{Host, HostConfig};
use cm_transport::types::{AppId, CcMode};
use cm_util::{Duration, Rate, Time};

/// Fault horizon: seeded plans place their outages inside this window.
pub const HORIZON: Duration = Duration::from_secs(40);

/// Quiet tail after the horizon so write-off, reclaim, backoff expiry,
/// and orphan reaping can settle before the liveness checks.
pub const TAIL: Duration = Duration::from_secs(30);

/// No macroflow window may exceed this under any fault plan (the paths
/// under test have bandwidth-delay products in the tens of kilobytes; a
/// gigabyte means feedback validation failed).
pub const WINDOW_CAP: u64 = 1 << 30;

/// Invariant violations reported per run before the harness stops
/// checking (one broken slab tends to cascade).
const MAX_VIOLATIONS: usize = 8;

/// Flight-recorder ring capacity on the chaos hosts. Tracing is always
/// on here: recording is passive (outcomes are bit-identical to
/// untraced runs), and a red run then carries its own decision trail.
const TRACE_CAPACITY: usize = 256;

/// Newest trace events dumped per host when a run fails.
const TRACE_DUMP_EVENTS: usize = 48;

/// The chaos hosts' configuration: `cm` with the flight recorder
/// enabled, everything else default.
fn chaos_host_cfg(cm: CmConfig) -> HostConfig {
    HostConfig {
        cm: CmConfig {
            tracing: Some(TracingConfig {
                capacity: TRACE_CAPACITY,
            }),
            ..cm
        },
        ..Default::default()
    }
}

/// Uniform failure tag: every violation and liveness report names the
/// scenario, the fault plan's seed, and the simulated time, so one red
/// line in a sweep log is enough to replay the run.
fn tag(scenario: &str, seed: u64, now: Time) -> String {
    format!("[{scenario} seed={seed} t={now}]")
}

/// Builds one scenario under a fault plan.
type Builder = fn(&FaultPlan) -> Scenario;

/// The chaos scenario catalogue: each scenario's name and builder.
const SCENARIOS: &[(&str, Builder)] = &[
    ("tcp_bulk", tcp_bulk),
    ("tcp_bulk_delay", tcp_bulk_delay),
    ("tcp_pair", tcp_pair),
    ("alf_blast", alf_blast),
    ("misbehaving_app", misbehaving_app),
    ("flaky_trace", flaky_trace),
];

/// A scenario as its builder leaves it: the simulation, not yet run, and
/// what [`run_chaos`] needs to judge it.
struct Scenario {
    sim: Simulator,
    /// The hosts whose invariants are checked, each with its label; the
    /// sending host first.
    hosts: [(NodeId, &'static str); 2],
    /// Where the honest traffic lives.
    honest: Honest,
    /// A `MisbehavingSender` on the sending host whose flow the orphan
    /// reaper must return once the plan crashes it.
    hostile: Option<AppId>,
    /// The liveness violation's text when the honest traffic stalls.
    stall: &'static str,
}

/// Where a scenario's honest traffic lives.
enum Honest {
    /// `BulkSender`s on the sending host; the traffic stalls unless every
    /// one completes.
    Bulk(Vec<AppId>),
    /// A `BlastSender` on the sending host and its `AckReceiver` on the
    /// other; the traffic stalls if the receiver got nothing.
    Blast { tx: AppId, rx: AppId },
}

/// Result of one scenario replay under one fault plan.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Scenario name (its `SCENARIOS` entry's).
    pub scenario: String,
    /// The fault plan's seed (0 for the clean baseline).
    pub seed: u64,
    /// Application goodput of the honest transfer, in kbit/s (NaN if it
    /// never started).
    pub goodput_kbps: f64,
    /// Whether the honest transfer completed within the run.
    pub completed: bool,
    /// Honest-transfer duration in seconds (full run length if it never
    /// finished).
    pub elapsed_s: f64,
    /// Sender-side CM counters (where reclaim, backoff, quarantine, and
    /// reaping happen).
    pub client_stats: CmStats,
    /// Invariant violations observed during the run; empty means the run
    /// is green. Every entry is tagged `[scenario seed=N t=...]`.
    pub violations: Vec<String>,
    /// Post-mortem flight-recorder dump: on a red run, the newest CM
    /// trace events per host (see [`crate::trace::trace_tail_lines`]).
    /// Empty on green runs.
    pub trace_dump: Vec<String>,
}

impl ChaosOutcome {
    /// True if no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Builds `build`'s scenario under `plan`, steps it through the fault
/// horizon and the quiet tail, then takes the liveness verdict: a crashed
/// hostile app's flow was reaped, and the honest traffic did not stall.
fn run_chaos(name: &str, build: Builder, plan: &FaultPlan) -> ChaosOutcome {
    let Scenario {
        mut sim,
        hosts,
        honest,
        hostile,
        stall,
    } = build(plan);
    let mut violations = Vec::new();
    drive(
        &mut sim,
        &hosts,
        Time::ZERO + HORIZON + TAIL,
        name,
        plan.seed,
        &mut violations,
    );
    let now = sim.now();
    let tag = tag(name, plan.seed, now);
    let host = sim.node_ref::<Host>(hosts[0].0);
    if let Some(bad) = hostile {
        // A crashed app leaks its flow; after the quiet tail the orphan
        // reaper must have returned the slot.
        let bad = host.app_ref::<MisbehavingSender>(bad);
        let crashed = matches!(plan.app, AppFault::Crash { .. }) && bad.crashed;
        if crashed && bad.flow().is_some_and(|f| host.cm.macroflow_of(f).is_ok()) {
            violations.push(format!("{tag} crashed client's flow never reaped"));
        }
    }
    let kbps = |bytes_per_sec: f64| bytes_per_sec * 8.0 / 1000.0;
    let (goodput_kbps, completed, elapsed, stalled) = match honest {
        Honest::Bulk(senders) => {
            let senders: Vec<&BulkSender> = senders.iter().map(|&id| host.app_ref(id)).collect();
            let completed = senders.iter().all(|t| t.done_at.is_some());
            // A lone sender that never finished has no goodput; a group's
            // is the sum of its finished senders'.
            let goodput = match senders[..] {
                [tx] => tx.goodput_bps().map_or(f64::NAN, kbps),
                _ => senders
                    .iter()
                    .filter_map(|t| t.goodput_bps())
                    .map(kbps)
                    .sum(),
            };
            // From the first sender's start to the last one's end.
            let last_end = senders
                .iter()
                .map(|t| t.done_at.unwrap_or(now))
                .fold(Time::ZERO, Time::max);
            let elapsed = senders
                .first()
                .and_then(|t| t.started_at)
                .map_or(Duration::ZERO, |s| last_end.since(s));
            (goodput, completed, elapsed, !completed)
        }
        Honest::Blast { tx, rx } => {
            let tx = host.app_ref::<BlastSender>(tx);
            let rx = sim.node_ref::<Host>(hosts[1].0).app_ref::<AckReceiver>(rx);
            let elapsed = tx
                .first_send
                .map_or(Duration::ZERO, |s| tx.done_at.unwrap_or(now).since(s));
            let goodput = if elapsed.is_zero() {
                f64::NAN
            } else {
                kbps(rx.bytes as f64) / elapsed.as_secs_f64()
            };
            (goodput, tx.done_at.is_some(), elapsed, rx.packets == 0)
        }
    };
    if stalled {
        violations.push(format!("{tag} {stall}"));
    }
    let trace_dump = if violations.is_empty() {
        Vec::new()
    } else {
        post_mortem(&sim, &hosts)
    };
    ChaosOutcome {
        scenario: name.to_string(),
        seed: plan.seed,
        goodput_kbps,
        completed,
        elapsed_s: elapsed.as_secs_f64(),
        client_stats: host.cm.stats(),
        violations,
        trace_dump,
    }
}

/// Replays every scenario under the clean plan plus `plans` seeded fault
/// plans each — the sweep the chaos CLI and the CI smoke gate run.
pub fn chaos_sweep(plans: u64) -> Vec<ChaosOutcome> {
    let mut out = Vec::new();
    for &(name, build) in SCENARIOS {
        out.push(run_chaos(name, build, &FaultPlan::clean()));
        for seed in 1..=plans {
            out.push(run_chaos(name, build, &FaultPlan::seeded(seed, HORIZON)));
        }
    }
    out
}

/// The chaos CLI's report of a sweep: a header naming the seeded plans
/// per scenario (the highest seed), one row per outcome, and the tally
/// of green runs. Deterministic; `tests/golden/chaos_smoke.txt` freezes
/// it for `chaos_sweep(1)`.
pub fn smoke_report(outcomes: &[ChaosOutcome]) -> String {
    let plans = outcomes.iter().map(|o| o.seed).max().unwrap_or(0);
    let mut out = format!("chaos: {plans} seeded plan(s) per scenario plus the clean baseline\n");
    out.push_str(&format!(
        "{:<16} {:>5} {:>6} {:>13} {:>9} {:>8} {:>7} {:>7}  verdict\n",
        "scenario", "seed", "done", "goodput_kbps", "reclaims", "backoffs", "quarant", "reaped"
    ));
    for o in outcomes {
        out.push_str(&format!(
            "{:<16} {:>5} {:>6} {:>13.1} {:>9} {:>8} {:>7} {:>7}  {}\n",
            o.scenario,
            o.seed,
            if o.completed { "yes" } else { "no" },
            o.goodput_kbps,
            o.client_stats.grants_reclaimed,
            o.client_stats.grant_backoffs,
            o.client_stats.flows_quarantined,
            o.client_stats.flows_reaped,
            if o.ok() { "ok" } else { "FAIL" },
        ));
    }
    let green = outcomes.iter().filter(|o| o.ok()).count();
    out.push_str(&format!("chaos: {green}/{} runs green\n", outcomes.len()));
    out
}

/// Steps `sim` to `end` in one-second slices, checking every listed
/// host's CM invariants after each slice. `scenario`/`seed` identify
/// the run in any violation reported.
fn drive(
    sim: &mut Simulator,
    hosts: &[(NodeId, &str)],
    end: Time,
    scenario: &str,
    seed: u64,
    violations: &mut Vec<String>,
) {
    let step = Duration::from_secs(1);
    let mut t = sim.now() + step;
    loop {
        let target = if t < end { t } else { end };
        sim.run_until(target);
        for &(id, label) in hosts {
            check_host(
                sim.node_ref::<Host>(id),
                label,
                scenario,
                seed,
                sim.now(),
                violations,
            );
            if violations.len() >= MAX_VIOLATIONS {
                return;
            }
        }
        if target == end {
            return;
        }
        t += step;
    }
}

/// One host's invariant snapshot: structural CM validation plus the
/// bounded-window check over every live macroflow.
fn check_host(
    host: &Host,
    label: &str,
    scenario: &str,
    seed: u64,
    now: Time,
    violations: &mut Vec<String>,
) {
    let tag = tag(scenario, seed, now);
    if let Err(e) = host.cm.check_invariants() {
        violations.push(format!("{tag} {label}: {e}"));
    }
    for shard in 0..host.cm.shard_count() as u32 {
        for slot in 0..host.cm.macroflow_slab_capacity_of(shard) as u32 {
            let mf = MacroflowId::from_parts(shard, slot);
            if let Ok(w) = host.cm.window_of(mf) {
                if w > WINDOW_CAP {
                    violations.push(format!(
                        "{tag} {label}: macroflow {mf:?} window {w} exceeds cap {WINDOW_CAP}"
                    ));
                }
            }
        }
    }
}

/// The post-mortem flight-recorder dump a failing outcome carries: the
/// newest [`TRACE_DUMP_EVENTS`] trace events of every host's CM, in the
/// `hosts` order the scenario checks them.
fn post_mortem(sim: &Simulator, hosts: &[(NodeId, &str)]) -> Vec<String> {
    let mut out = Vec::new();
    for &(id, label) in hosts {
        out.extend(trace_tail_lines(
            label,
            &sim.node_ref::<Host>(id).cm,
            TRACE_DUMP_EVENTS,
        ));
    }
    out
}

/// The standard two-host wiring: a client and a server joined by `path`,
/// with `plan.link` injected on the forward (data) direction.
fn faulted_path(base: PathSpec, plan: &FaultPlan) -> PathSpec {
    base.with_forward_faults(plan.link.clone())
}

/// One bulk TCP/CM transfer over a faulted wide-area path.
fn tcp_bulk(plan: &FaultPlan) -> Scenario {
    tcp_bulk_kind(plan, CmConfig::default())
}

/// The same bulk transfer with the client on the delay-gradient
/// controller — the delay detector must survive hostile paths (spiky
/// RTTs, outages, bogus feedback) without tripping an invariant.
fn tcp_bulk_delay(plan: &FaultPlan) -> Scenario {
    tcp_bulk_kind(
        plan,
        CmConfig {
            controller: cm_core::config::ControllerKind::DelayGradient,
            ..Default::default()
        },
    )
}

/// Shared body of the bulk-transfer scenarios, parameterized by the
/// client's CM configuration (the server stays on the default).
fn tcp_bulk_kind(plan: &FaultPlan, client_cfg: CmConfig) -> Scenario {
    const TOTAL: u64 = 256 * 1024;
    let mut topo = Topology::new(plan.seed.wrapping_add(0xc4a0));
    let mut server = Host::new(chaos_host_cfg(CmConfig::default()));
    server.add_app(Box::new(BulkReceiver::new(80, CcMode::Cm)));
    let server_id = topo.add_host(Box::new(server));
    let server_addr = topo.sim().addr_of(server_id);

    let mut client = Host::new(chaos_host_cfg(client_cfg));
    let tx = client.add_app(Box::new(BulkSender::new(
        server_addr,
        80,
        CcMode::Cm,
        TOTAL,
    )));
    let client_id = topo.add_host(Box::new(client));
    topo.emulated_path(
        client_id,
        server_id,
        &faulted_path(PathSpec::wide_area(), plan),
    );
    Scenario {
        sim: topo.build(),
        hosts: [(client_id, "client"), (server_id, "server")],
        honest: Honest::Bulk(vec![tx]),
        hostile: None,
        stall: "honest transfer stuck (never completed)",
    }
}

/// Two bulk TCP transfers from one host sharing a macroflow — the CM's
/// ensemble-sharing claim must survive a hostile path.
fn tcp_pair(plan: &FaultPlan) -> Scenario {
    const TOTAL: u64 = 128 * 1024;
    let mut topo = Topology::new(plan.seed.wrapping_add(0xc4a1));
    let mut server = Host::new(chaos_host_cfg(CmConfig::default()));
    server.add_app(Box::new(BulkReceiver::new(80, CcMode::Cm)));
    server.add_app(Box::new(BulkReceiver::new(81, CcMode::Cm)));
    let server_id = topo.add_host(Box::new(server));
    let server_addr = topo.sim().addr_of(server_id);

    let mut client = Host::new(chaos_host_cfg(CmConfig::default()));
    let senders = [80, 81].map(|port| {
        client.add_app(Box::new(BulkSender::new(
            server_addr,
            port,
            CcMode::Cm,
            TOTAL,
        )))
    });
    let client_id = topo.add_host(Box::new(client));
    topo.emulated_path(
        client_id,
        server_id,
        &faulted_path(PathSpec::wide_area(), plan),
    );
    Scenario {
        sim: topo.build(),
        hosts: [(client_id, "client"), (server_id, "server")],
        honest: Honest::Bulk(senders.to_vec()),
        hostile: None,
        stall: "a shared-macroflow transfer stuck",
    }
}

/// An ALF (request/callback) UDP blaster with per-packet application
/// acks, over a faulted path — exercises the grant pipeline and the
/// feedback path under reordering and duplication.
fn alf_blast(plan: &FaultPlan) -> Scenario {
    const TARGET: u64 = 3_000;
    const PACKET: u32 = 1_000;
    let mut topo = Topology::new(plan.seed.wrapping_add(0xc4a2));
    let mut rx_host = Host::new(chaos_host_cfg(CmConfig::default()));
    let rx = rx_host.add_app(Box::new(AckReceiver::new(9100, FeedbackPolicy::PerPacket)));
    let rx_id = topo.add_host(Box::new(rx_host));
    let rx_addr = topo.sim().addr_of(rx_id);

    let mut tx_host = Host::new(chaos_host_cfg(CmConfig::default()));
    let tx = tx_host.add_app(Box::new(BlastSender::new(
        rx_addr,
        9100,
        BlastApi::Alf,
        PACKET,
        TARGET,
    )));
    let tx_id = topo.add_host(Box::new(tx_host));
    topo.emulated_path(tx_id, rx_id, &faulted_path(PathSpec::wide_area(), plan));
    Scenario {
        sim: topo.build(),
        hosts: [(tx_id, "sender"), (rx_id, "receiver")],
        honest: Honest::Blast { tx, rx },
        hostile: None,
        stall: "receiver got nothing",
    }
}

/// A deliberately misbehaving UDP client (per `plan.app`) sharing a host
/// — and a CM — with an honest bulk TCP transfer. The CM must contain
/// the damage: the honest transfer completes, slots are reclaimed, and a
/// crashed client's flow is reaped.
fn misbehaving_app(plan: &FaultPlan) -> Scenario {
    const TOTAL: u64 = 256 * 1024;
    let host_cfg = chaos_host_cfg(CmConfig {
        orphan_timeout: Some(Duration::from_secs(10)),
        ..Default::default()
    });
    let mut topo = Topology::new(plan.seed.wrapping_add(0xc4a3));
    let mut server = Host::new(host_cfg.clone());
    server.add_app(Box::new(BulkReceiver::new(80, CcMode::Cm)));
    server.add_app(Box::new(AckReceiver::new(9100, FeedbackPolicy::PerPacket)));
    let server_id = topo.add_host(Box::new(server));
    let server_addr = topo.sim().addr_of(server_id);

    let mut client = Host::new(host_cfg);
    let bad = client.add_app(Box::new(MisbehavingSender::new(
        server_addr,
        9100,
        plan.app,
        1_000,
        10_000,
    )));
    let tx = client.add_app(Box::new(BulkSender::new(
        server_addr,
        80,
        CcMode::Cm,
        TOTAL,
    )));
    let client_id = topo.add_host(Box::new(client));
    topo.emulated_path(
        client_id,
        server_id,
        &faulted_path(PathSpec::wide_area(), plan),
    );
    Scenario {
        sim: topo.build(),
        hosts: [(client_id, "client"), (server_id, "server")],
        honest: Honest::Bulk(vec![tx]),
        hostile: Some(bad),
        stall: "honest transfer starved by misbehaving peer",
    }
}

/// Bulk TCP over the bundled `flaky_cellular` trace — rapid rate flaps
/// and two near-outage collapses from the schedule, with the plan's link
/// faults layered on top.
fn flaky_trace(plan: &FaultPlan) -> Scenario {
    const TOTAL: u64 = 96 * 1024;
    #[expect(
        clippy::expect_used,
        reason = "compile-time-bundled trace — a parse failure means the shipped file is broken"
    )]
    let schedule =
        BandwidthSchedule::parse_trace(include_str!("../../../traces/flaky_cellular.trace"))
            .expect("bundled trace parses");

    let mut topo = Topology::new(plan.seed.wrapping_add(0xc4a4));
    let mut server = Host::new(chaos_host_cfg(CmConfig::default()));
    server.add_app(Box::new(BulkReceiver::new(80, CcMode::Cm)));
    let server_id = topo.add_host(Box::new(server));
    let server_addr = topo.sim().addr_of(server_id);

    let mut client = Host::new(chaos_host_cfg(CmConfig::default()));
    let tx = client.add_app(Box::new(BulkSender::new(
        server_addr,
        80,
        CcMode::Cm,
        TOTAL,
    )));
    let client_id = topo.add_host(Box::new(client));
    let path = faulted_path(
        PathSpec::new(Rate::from_kbps(1_600), Duration::from_millis(120)),
        plan,
    );
    let d = topo.emulated_path(client_id, server_id, &path);
    topo.schedule_link(d.forward, &schedule);
    Scenario {
        sim: topo.build(),
        hosts: [(client_id, "client"), (server_id, "server")],
        honest: Honest::Bulk(vec![tx]),
        hostile: None,
        stall: "transfer stuck on the flaky channel",
    }
}

/// One row of the `robustness` figure.
#[derive(Clone, Debug)]
pub struct RobustnessRow {
    /// Condition label.
    pub label: &'static str,
    /// What the condition stresses (figure prose).
    pub detail: &'static str,
    /// Honest-transfer goodput, kbit/s.
    pub goodput_kbps: f64,
    /// Whether the honest transfer completed.
    pub completed: bool,
    /// Honest-transfer duration, seconds.
    pub elapsed_s: f64,
    /// Extra seconds versus the clean baseline (recovery cost). NaN for
    /// conditions whose workload differs from the baseline's — elapsed
    /// times are only comparable within the same transfer.
    pub penalty_s: f64,
    /// Sender-side degradation counters for the run.
    pub stats: CmStats,
}

/// The deterministic condition sweep behind the `robustness` figure:
/// one honest workload replayed clean, under bursty loss, under a link
/// flap, over the flaky cellular trace, and beside hostile applications.
pub fn robustness_rows() -> Vec<RobustnessRow> {
    // The clean baseline finishes in under 3 s, so the flaps must land
    // inside that window to bite.
    let flap = {
        let mut p = FaultPlan::clean();
        p.link = LinkFaults::clean()
            .with_outage(Time::from_secs(1), Time::from_secs(3))
            .with_outage(Time::from_millis(4_500), Time::from_secs(6));
        p
    };
    let ge = {
        let mut p = FaultPlan::clean();
        p.link = LinkFaults::clean().with_ge(GilbertElliott {
            p_enter: 0.002,
            p_exit: 0.15,
            loss_good: 0.0,
            loss_bad: 0.4,
        });
        p
    };
    let hoard = {
        let mut p = FaultPlan::clean();
        p.app = AppFault::GrantHoard {
            after: Time::from_secs(2),
        };
        p
    };
    let crash = {
        let mut p = FaultPlan::clean();
        p.app = AppFault::Crash {
            at: Time::from_secs(5),
        };
        p
    };

    // The bool marks conditions running the baseline's exact workload
    // (a lone 256 KB tcp_bulk), for which the elapsed-time penalty is a
    // meaningful comparison.
    let cells: Vec<(&'static str, &'static str, bool, ChaosOutcome)> = vec![
        (
            "clean",
            "wide-area path, no faults (baseline)",
            true,
            run_chaos("tcp_bulk", tcp_bulk, &FaultPlan::clean()),
        ),
        (
            "ge_loss",
            "Gilbert-Elliott bursty loss (40% in-burst)",
            true,
            run_chaos("tcp_bulk", tcp_bulk, &ge),
        ),
        (
            "flap",
            "two link flaps (2.0s and 1.5s outages)",
            true,
            run_chaos("tcp_bulk", tcp_bulk, &flap),
        ),
        (
            "flaky_cellular",
            "recorded flaky cellular trace (rate collapses to 10 kbps)",
            false,
            run_chaos("flaky_trace", flaky_trace, &FaultPlan::clean()),
        ),
        (
            "hostile_hoard",
            "co-located app hoards every grant from t=2s",
            false,
            run_chaos("misbehaving_app", misbehaving_app, &hoard),
        ),
        (
            "hostile_crash",
            "co-located app crashes at t=5s without cm_close",
            false,
            run_chaos("misbehaving_app", misbehaving_app, &crash),
        ),
    ];

    let clean_elapsed = cells[0].3.elapsed_s;
    cells
        .into_iter()
        .map(|(label, detail, comparable, o)| {
            assert!(
                o.ok(),
                "robustness figure cell {label} violated invariants: {:?}",
                o.violations
            );
            RobustnessRow {
                label,
                detail,
                goodput_kbps: o.goodput_kbps,
                completed: o.completed,
                elapsed_s: o.elapsed_s,
                penalty_s: if comparable && o.completed {
                    (o.elapsed_s - clean_elapsed).max(0.0)
                } else {
                    f64::NAN
                },
                stats: o.client_stats,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI smoke slice: every scenario once under one seeded plan
    /// (the full ≥8-plan sweep runs in the chaos CLI). Its report is
    /// the `chaos -- --smoke` output, frozen in
    /// `tests/golden/chaos_smoke.txt`; regenerate it with
    /// `UPDATE_GOLDENS=1 cargo test -p cm-experiments --lib chaos_smoke`
    /// only for a change that means to move a defense.
    #[test]
    fn chaos_smoke_one_seeded_plan_per_scenario() {
        let outcomes = chaos_sweep(1);
        for o in &outcomes {
            assert!(
                o.ok(),
                "{} seed {} violated invariants: {:?}",
                o.scenario,
                o.seed,
                o.violations
            );
        }
        let report = smoke_report(&outcomes);
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos_smoke.txt");
        if std::env::var_os("UPDATE_GOLDENS").is_some() {
            std::fs::write(&path, &report).unwrap();
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
            report,
            "the chaos smoke report diverged from {}; if the change is \
             intentional, regenerate with UPDATE_GOLDENS=1",
            path.display()
        );
    }

    /// Forcing a liveness failure (a permanent outage from t=0 starves
    /// the honest traffic) must fail every scenario with a report where
    /// every line is tagged with scenario, seed, and simulated time, plus
    /// a flight-recorder post-mortem of the hosts' last decisions.
    #[test]
    fn failing_run_is_tagged_and_carries_a_trace_dump() {
        let mut plan = FaultPlan::seeded(42, HORIZON);
        plan.link = LinkFaults::clean().with_outage(Time::ZERO, Time::from_secs(600));
        for &(name, build) in SCENARIOS {
            let o = run_chaos(name, build, &plan);
            assert!(!o.ok(), "{name}: a dead link must fail the liveness check");
            for v in &o.violations {
                assert!(
                    v.starts_with(&format!("[{name} seed=42 t=")),
                    "violation missing scenario/seed/time context: {v}"
                );
            }
            assert!(
                !o.trace_dump.is_empty(),
                "{name}: no post-mortem trace dump"
            );
            assert!(
                o.trace_dump
                    .iter()
                    .all(|l| l.starts_with("host=") && l.contains(" shard=")),
                "{name}: malformed dump lines: {:?}",
                o.trace_dump
            );
            let first = format!("host={} ", build(&plan).hosts[0].1);
            assert!(
                o.trace_dump.iter().any(|l| l.starts_with(&first)),
                "{name}: dump lacks the first host's decisions: {:?}",
                o.trace_dump
            );
        }
    }

    #[test]
    fn crashed_client_flow_is_reaped() {
        let mut plan = FaultPlan::clean();
        plan.app = AppFault::Crash {
            at: Time::from_secs(5),
        };
        let o = run_chaos("misbehaving_app", misbehaving_app, &plan);
        assert!(o.ok(), "violations: {:?}", o.violations);
        assert!(o.completed, "honest transfer must complete");
        assert!(
            o.client_stats.flows_reaped >= 1,
            "orphan reaper never fired: {:?}",
            o.client_stats
        );
    }

    #[test]
    fn grant_hoarder_triggers_reclaim_and_backoff() {
        let mut plan = FaultPlan::clean();
        plan.app = AppFault::GrantHoard {
            after: Time::from_secs(2),
        };
        let o = run_chaos("misbehaving_app", misbehaving_app, &plan);
        assert!(o.ok(), "violations: {:?}", o.violations);
        assert!(
            o.completed,
            "honest transfer must complete beside a hoarder"
        );
        assert!(o.client_stats.grants_reclaimed >= 1);
        assert!(o.client_stats.grant_backoffs >= 1);
    }
}
