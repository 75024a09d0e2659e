//! Zero-allocation enforcement for the CM's own entry points, and the
//! per-flow memory bound the same counting allocator can state.
//!
//! docs/perf.md rule 2 requires the CM's hot functions to allocate
//! nothing once warm; the tests here and in `cm-transport`, `cm-apps`,
//! `cm-obs` and `cm-adapt` are that rule's only gate. Each driver's doc
//! comment names the hot functions it holds in steady state.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use cm_core::prelude::*;
use counting_alloc::{measuring, ALLOCS, LIVE};

/// The fewest allocations any of five runs of `run` made. The counter is
/// process-global, so libtest's own one-shot allocations can land in a
/// run; a real per-cycle allocation lands in all five.
fn fewest_allocs_of_five(mut run: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let before = ALLOCS.load(Ordering::SeqCst);
            run();
            ALLOCS.load(Ordering::SeqCst) - before
        })
        .fold(u64::MAX, u64::min)
}

fn key(port: u16, dst: u32) -> FlowKey {
    FlowKey::new(Endpoint::new(1, port), Endpoint::new(dst, 80))
}

/// Drives one client split/merge cycle: f2 splits onto a private
/// macroflow, both macroflows keep granted traffic moving, f2 merges back
/// into its group's macroflow, and a later tick expires the emptied
/// private macroflow into the shell pool.
fn cycle(
    cm: &mut CongestionManager,
    f1: FlowId,
    f2: FlowId,
    now: &mut Time,
    notes: &mut Vec<CmNotification>,
) {
    let home = cm.macroflow_of(f1).unwrap();
    cm.split(f2, *now).unwrap();
    for _ in 0..16 {
        for f in [f1, f2] {
            cm.request(f, *now).unwrap();
        }
        notes.clear();
        cm.drain_notifications_into(notes);
        for &n in notes.iter() {
            if let CmNotification::SendGrant { flow } = n {
                cm.notify(flow, 1460, *now).unwrap();
            }
        }
        for f in [f1, f2] {
            cm.update(
                f,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(50)),
                *now,
            )
            .unwrap();
        }
        *now += Duration::from_millis(20);
    }
    // Decline whatever the last feedback granted: a flow holding a
    // grant cannot move.
    loop {
        notes.clear();
        cm.drain_notifications_into(notes);
        if notes.is_empty() {
            break;
        }
        for &n in notes.iter() {
            if let CmNotification::SendGrant { flow } = n {
                cm.notify(flow, 0, *now).unwrap();
            }
        }
    }
    cm.merge(f2, home, *now).unwrap();
    // The emptied private macroflow lingers, then expires into the pool.
    *now += Duration::from_millis(300);
    cm.tick(*now);
    notes.clear();
    cm.drain_notifications_into(notes);
}

/// A client `split` and `merge` reuse pooled macroflow shells, the
/// shard's scheduler slab and the recycled grant queues: a full
/// split/merge/expire cycle allocates nothing once the pool is warm.
///
/// Drives: shard `request`, `notify`, `update`, `tick`, `try_grants`;
/// scheduler `enqueue`, `serve_head`, `rotate` (weighted round-robin).
#[test]
fn split_merge_cycle_never_allocates_in_steady_state() {
    let _turn = measuring();
    let mut cm = CongestionManager::new(CmConfig {
        scheduler: SchedulerKind::WeightedRoundRobin,
        macroflow_linger: Duration::from_millis(200),
        pacing: false,
        ..Default::default()
    });
    let f1 = cm.open(key(1000, 9), Time::ZERO).unwrap();
    let f2 = cm.open(key(1001, 9), Time::ZERO).unwrap();
    cm.set_weight(f2, 3).unwrap();
    let mut now = Time::ZERO;
    let mut notes: Vec<CmNotification> = Vec::with_capacity(64);

    // Warm-up: two full cycles size every slab, ring, queue, and the
    // macroflow shell pool.
    for _ in 0..2 {
        cycle(&mut cm, f1, f2, &mut now, &mut notes);
    }
    let warm_expired = cm.stats().macroflows_expired;
    assert_eq!(warm_expired, 2, "warm-up cycles never expired a split");
    assert_eq!(cm.macroflow_count(), 1, "private macroflow not expired");
    assert!(cm.macroflow_pool_len() >= 1, "no shell parked for reuse");

    let min_delta = fewest_allocs_of_five(|| {
        for _ in 0..20 {
            cycle(&mut cm, f1, f2, &mut now, &mut notes);
        }
    });
    assert_eq!(
        cm.stats().macroflows_expired,
        warm_expired + 100,
        "cycles stopped splitting and merging"
    );
    assert_eq!(cm.weight_of(f2).unwrap(), 3, "weight lost under churn");
    assert_eq!(
        min_delta, 0,
        "split/merge cycle allocated in every trial (at least {min_delta} \
         allocations per 20 split/merge/expire cycles)"
    );
}

/// One cross-shard churn cycle under `ShardingMode::ByGroup`: open a
/// flow in each of four groups (on the first cycle, creating their
/// shards), run a request/grant/notify/update round in each, close
/// everything, and tick past the linger so every macroflow expires into
/// its shard's shell pool while the emptied shards stay.
fn shard_cycle(cm: &mut CongestionManager, now: &mut Time, notes: &mut Vec<CmNotification>) {
    let mut flows = [FlowId(0); 4];
    for (i, slot) in flows.iter_mut().enumerate() {
        *slot = cm
            .open(key(1000 + i as u16, i as u32 + 2), *now)
            .expect("open");
    }
    for round in 0..4 {
        for &f in &flows {
            cm.request(f, *now).unwrap();
        }
        notes.clear();
        cm.drain_notifications_into(notes);
        for &n in notes.iter() {
            if let CmNotification::SendGrant { flow } = n {
                cm.notify(flow, 1460, *now).unwrap();
            }
        }
        for &f in &flows {
            cm.update(
                f,
                FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(30)),
                *now,
            )
            .unwrap();
        }
        // Exercise the maintenance walk mid-traffic too (quiet-skip
        // bookkeeping included).
        if round == 1 {
            cm.tick(*now);
        }
        *now += Duration::from_millis(30);
    }
    for &f in &flows {
        cm.close(f, *now).unwrap();
    }
    // Linger elapses; the next tick expires the macroflows.
    *now += Duration::from_millis(300);
    cm.tick(*now);
    notes.clear();
    cm.drain_notifications_into(notes);
}

/// The flat-state rules extended to the sharded CM: once the per-shard
/// slabs, macroflow shells, and the routing map are warm, open/close
/// churn over a fixed set of four groups — every group emptied and its
/// macroflow expired on each cycle — performs zero heap allocation.
///
/// Drives: engine `route`, `tick`.
#[test]
fn sharded_churn_never_allocates_in_steady_state() {
    let _turn = measuring();
    let mut cm = CongestionManager::new(CmConfig {
        sharding: ShardingConfig::by_group(8),
        macroflow_linger: Duration::from_millis(200),
        pacing: false,
        ..Default::default()
    });
    let mut now = Time::ZERO;
    let mut notes: Vec<CmNotification> = Vec::with_capacity(64);

    // Warm-up: two cycles size every shard, slab, map, and buffer.
    for _ in 0..2 {
        shard_cycle(&mut cm, &mut now, &mut notes);
    }
    assert_eq!(cm.shard_count(), 4, "emptied shards did not stay");
    assert_eq!(cm.macroflow_count(), 0, "macroflows never expired");

    let min_delta = fewest_allocs_of_five(|| {
        for _ in 0..20 {
            shard_cycle(&mut cm, &mut now, &mut notes);
        }
    });
    assert_eq!(cm.flow_count(), 0);
    assert_eq!(
        min_delta, 0,
        "cross-shard churn allocated in every trial (at least {min_delta} \
         allocations per 20 open/traffic/close/expire cycles)"
    );
    assert_eq!(cm.stats().shards_created, 4, "a shard was created twice");
    cm.check_invariants().expect("emptied shards");
}

/// The key of the `n`-th flow a churn opens: eight flows per
/// destination, so groups are opened, drained and expired as `n` moves
/// on.
fn churn_key(n: u32) -> FlowKey {
    key(1 + (n % 60_000) as u16, 0x0a00_0000 + n / 8)
}

/// Connection churn at a constant population: each cycle closes the
/// `CHURN` oldest of `POPULATION` flows and opens as many fresh keys,
/// looking each one up, then ticks past the linger so the groups the
/// closes drained expire into the shell pool while the opens create
/// others. Every open and close goes through both key indexes, and the
/// group index loses and gains entries every cycle.
fn churn_cycle(
    cm: &mut CongestionManager,
    live: &mut VecDeque<FlowId>,
    next: &mut u32,
    now: &mut Time,
) {
    const CHURN: usize = 16;
    for _ in 0..CHURN {
        let f = live.pop_front().expect("live flow");
        cm.close(f, *now).unwrap();
    }
    for _ in 0..CHURN {
        let k = churn_key(*next);
        *next += 1;
        let f = cm.open(k, *now).unwrap();
        assert_eq!(cm.lookup(&k), Some(f));
        live.push_back(f);
    }
    *now += Duration::from_millis(20);
    cm.tick(*now);
}

/// Per-connection set-up and tear-down on a single shard: once the
/// slabs, both key indexes and the macroflow shell pool are warm, opening
/// and closing fresh keys at a constant population allocates nothing —
/// neither index grows under churn, because removal leaves no
/// tombstones.
///
/// Drives: shard `open`, `close`, `lookup`, `tick`'s macroflow expiry;
/// slot index `find_or_vacancy`, `fill`, `find`, `remove`.
#[test]
fn open_close_churn_never_allocates_in_steady_state() {
    const POPULATION: u32 = 256;
    let _turn = measuring();
    let mut cm = CongestionManager::new(CmConfig {
        macroflow_linger: Duration::from_millis(10),
        ..Default::default()
    });
    let mut now = Time::ZERO;
    let mut live = VecDeque::with_capacity(POPULATION as usize);
    let mut next = 0;
    for _ in 0..POPULATION {
        live.push_back(cm.open(churn_key(next), now).unwrap());
        next += 1;
    }
    // Warm-up: enough cycles to expire groups and refill the shell pool.
    for _ in 0..8 {
        churn_cycle(&mut cm, &mut live, &mut next, &mut now);
    }
    let warm_expired = cm.stats().macroflows_expired;
    assert!(warm_expired > 0, "warm-up expired no group");
    let min_delta = fewest_allocs_of_five(|| {
        for _ in 0..20 {
            churn_cycle(&mut cm, &mut live, &mut next, &mut now);
        }
    });
    assert_eq!(cm.flow_count(), POPULATION as usize);
    assert_eq!(
        cm.stats().macroflows_expired,
        warm_expired + 5 * 20 * 2,
        "cycles stopped expiring the drained groups"
    );
    cm.check_invariants().unwrap();
    assert_eq!(
        min_delta, 0,
        "open/close churn allocated in every trial (at least {min_delta} \
         allocations per 20 cycles of 16 closes and 16 opens)"
    );
}

/// One delay-gradient feedback cycle: a request/grant/notify round, then
/// an `update` carrying an RTT sample that ramps up and back down so the
/// trendline filter sweeps Normal -> Overuse -> Underuse territory —
/// every branch of `on_rtt_sample` (ring push, regression, detector,
/// multiplicative cut) runs inside the CM's update path.
fn delay_gradient_cycle(
    cm: &mut CongestionManager,
    f: FlowId,
    now: &mut Time,
    notes: &mut Vec<CmNotification>,
) {
    for i in 0..40u64 {
        cm.request(f, *now).unwrap();
        notes.clear();
        cm.drain_notifications_into(notes);
        for &n in notes.iter() {
            if let CmNotification::SendGrant { flow } = n {
                cm.notify(flow, 1460, *now).unwrap();
            }
        }
        // Triangle wave, 40 -> 240 -> 40 ms over the cycle.
        let tri = if i < 20 { i } else { 40 - i };
        let rtt = Duration::from_millis(40 + 10 * tri);
        cm.update(f, FeedbackReport::ack(1460, 1).with_rtt(rtt), *now)
            .unwrap();
        *now += Duration::from_millis(10);
    }
}

fn delay_gradient_min_delta(tracing: Option<TracingConfig>) -> u64 {
    let _turn = measuring();
    let mut cm = CongestionManager::new(CmConfig {
        controller: ControllerKind::DelayGradient,
        pacing: false,
        tracing,
        ..Default::default()
    });
    let f = cm.open(key(1000, 9), Time::ZERO).unwrap();
    let mut now = Time::ZERO;
    let mut notes: Vec<CmNotification> = Vec::with_capacity(64);

    // Warm-up sizes the grant queues, notification buffer, and (when
    // enabled) the flight-recorder ring.
    for _ in 0..2 {
        delay_gradient_cycle(&mut cm, f, &mut now, &mut notes);
    }

    fewest_allocs_of_five(|| {
        for _ in 0..20 {
            delay_gradient_cycle(&mut cm, f, &mut now, &mut notes);
        }
    })
}

/// The delay-gradient controller's whole update path — EWMA, trendline
/// ring, overuse detector, AIMD-on-delay actuation — is flat state per
/// docs/perf.md: zero heap allocation in steady state, with the flight
/// recorder off (the default).
#[test]
fn delay_gradient_update_path_never_allocates_tracer_disabled() {
    let min_delta = delay_gradient_min_delta(None);
    assert_eq!(
        min_delta, 0,
        "delay-gradient update path allocated in every trial (at least \
         {min_delta} allocations per 20 feedback cycles, tracing off)"
    );
}

/// Same guarantee with the flight recorder on: recording the
/// `congestion_delay` overuse events into the fixed-capacity ring must
/// not allocate either.
///
/// Drives, from inside the CM: recorder `push`.
#[test]
fn delay_gradient_update_path_never_allocates_tracer_enabled() {
    let min_delta = delay_gradient_min_delta(Some(TracingConfig::default()));
    assert_eq!(
        min_delta, 0,
        "delay-gradient update path allocated in every trial (at least \
         {min_delta} allocations per 20 feedback cycles, tracing on)"
    );
}

/// CM memory is O(flows): what an open population holds does not depend
/// on how many macroflows it is spread over, everything counted — slabs,
/// both key indexes, macroflow shells, controllers, and the one scheduler
/// slab the macroflows share (16 B per flow slot; a macroflow's own
/// scheduler is a few inline words). 4,096 flows measure 150 B each at 8
/// per macroflow and 268 B at 2 per macroflow; the bounds sit a tenth
/// above those figures. (A 144 B flow slot that held thresholds and
/// defense state inline put these at 238 and 356 B; the `FxHashMap`s the
/// key indexes replaced, at 266 and 391 B; a scheduler index sized by the
/// shard's flow-id space per macroflow costs 2 KB and 8 KB per flow at
/// these shapes.)
#[test]
fn open_population_stays_under_1kb_per_flow() {
    const FLOWS: usize = 4_096;
    let _turn = measuring();
    for (dests, bound) in [(512, 165), (2_048, 295)] {
        let before = LIVE.load(Ordering::SeqCst);
        let mut cm = CongestionManager::new(CmConfig::default());
        for i in 0..FLOWS {
            let dst = 0x0a00_0000 + (i % dests) as u32;
            cm.open(key(i as u16 + 1, dst), Time::ZERO).expect("open");
        }
        assert_eq!(cm.macroflow_count(), dests);
        let per_flow = (LIVE.load(Ordering::SeqCst) - before) / FLOWS as i64;
        assert!(
            per_flow < bound,
            "{per_flow} B per open flow at {} flows per macroflow (bound {bound})",
            FLOWS / dests
        );
    }
}

/// A brand-new macroflow — no pooled shell to reuse — costs its first
/// member one allocation on a warm shard under either discipline: the
/// macroflow's member list. The controller and the scheduler are inline
/// in the macroflow, and the member's scheduler slot has been in the
/// shard's slab since its flow slot was first minted. (With a boxed
/// scheduler holding its own map and slot vector this open made five.)
#[test]
fn first_flow_of_a_new_macroflow_allocates_nothing_for_its_scheduler() {
    let _turn = measuring();
    for scheduler in [SchedulerKind::RoundRobin, SchedulerKind::WeightedRoundRobin] {
        let mut cm = CongestionManager::new(CmConfig {
            scheduler,
            ..Default::default()
        });
        // Warm the flow slab, both indexes and the macroflow slab with one
        // destination's population, then free half its flow slots.
        let flows: Vec<FlowId> = (0..8)
            .map(|i| cm.open(key(1000 + i, 2), Time::ZERO).expect("open"))
            .collect();
        for &f in &flows[4..] {
            cm.close(f, Time::ZERO).expect("close");
        }
        let before = ALLOCS.load(Ordering::SeqCst);
        cm.open(key(2000, 3), Time::ZERO).expect("open");
        let allocs = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(cm.macroflow_count(), 2);
        assert_eq!(
            allocs, 1,
            "{scheduler:?}: allocations to open a new macroflow's first flow"
        );
    }
}

/// One round of traffic on three weighted flows of one macroflow, each
/// with rate thresholds: one request from every flow; every grant
/// claimed but, on every fourth round, the first, which is left to the
/// grant timeout; feedback for what each flow sent, with a transient
/// loss on every eighth round; then the maintenance tick.
fn maintenance_round(
    cm: &mut CongestionManager,
    flows: &[FlowId; 3],
    round: u64,
    now: &mut Time,
    notes: &mut Vec<CmNotification>,
) {
    for &f in flows {
        cm.request(f, *now).unwrap();
    }
    notes.clear();
    cm.drain_notifications_into(notes);
    let mut strand = round.is_multiple_of(4);
    let mut sent = [0u64; 3];
    for &n in notes.iter() {
        if let CmNotification::SendGrant { flow } = n {
            if std::mem::take(&mut strand) {
                continue;
            }
            cm.notify(flow, 1460, *now).unwrap();
            if let Some(i) = flows.iter().position(|&f| f == flow) {
                sent[i] += 1460;
            }
        }
    }
    for (i, &f) in flows.iter().enumerate() {
        let report = if round % 8 == 7 && i == 0 {
            FeedbackReport::loss(LossMode::Transient, 1460).with_acked(sent[i], 1)
        } else if sent[i] > 0 {
            FeedbackReport::ack(sent[i], 1)
        } else {
            continue;
        };
        cm.update(f, report.with_rtt(Duration::from_millis(50)), *now)
            .unwrap();
    }
    *now += Duration::from_millis(20);
    cm.tick(*now);
}

/// The maintenance and callback paths the other drivers never reach: a
/// stranded grant reclaimed by the tick, rate callbacks on every
/// threshold crossing, under each scheduling discipline. Once warm, 80
/// rounds allocate nothing.
///
/// Drives: shard `request`, `update`, `tick`, `try_grants`,
/// `reclaim_expired_grants`, `emit_rate_callbacks`; scheduler `enqueue`,
/// `serve_head`, `rotate` (round-robin, weighted round-robin).
#[test]
fn maintenance_and_rate_callbacks_never_allocate_in_steady_state() {
    let _turn = measuring();
    for scheduler in [SchedulerKind::RoundRobin, SchedulerKind::WeightedRoundRobin] {
        let mut cm = CongestionManager::new(CmConfig {
            scheduler,
            grant_timeout: Duration::from_millis(50),
            ..Default::default()
        });
        let mut flows = [FlowId(0); 3];
        for (i, f) in flows.iter_mut().enumerate() {
            *f = cm.open(key(1000 + i as u16, 9), Time::ZERO).unwrap();
            cm.set_weight(*f, i as u32 + 1).unwrap();
            cm.set_thresholds(*f, Some(Thresholds::new(0.9, 1.1)))
                .unwrap();
        }
        let mut now = Time::ZERO;
        let mut round = 0;
        let mut notes: Vec<CmNotification> = Vec::with_capacity(64);
        let mut rounds = |cm: &mut CongestionManager, n: u64| {
            for _ in 0..n {
                maintenance_round(cm, &flows, round, &mut now, &mut notes);
                round += 1;
            }
        };

        rounds(&mut cm, 24);
        let warm = cm.stats();
        let min_delta = fewest_allocs_of_five(|| rounds(&mut cm, 80));
        let stats = cm.stats();
        assert!(
            stats.grants_reclaimed > warm.grants_reclaimed,
            "{scheduler:?}: no stranded grant was reclaimed"
        );
        assert!(
            stats.rate_callbacks > warm.rate_callbacks,
            "{scheduler:?}: no rate callback fired"
        );
        cm.check_invariants().unwrap();
        assert_eq!(
            min_delta, 0,
            "{scheduler:?}: maintenance allocated in every trial (at least \
             {min_delta} allocations per 80 rounds)"
        );
    }
}

/// Opt-in orphan reaping: each cycle opens four flows that never call
/// the API again, and a tick past `orphan_timeout` reaps them while the
/// one live flow survives. Once warm, the reap allocates nothing.
///
/// Drives: shard `tick` (the reap list and the closes it makes).
#[test]
fn orphan_reaping_never_allocates_in_steady_state() {
    let _turn = measuring();
    let mut cm = CongestionManager::new(CmConfig {
        orphan_timeout: Some(Duration::from_secs(2)),
        ..Default::default()
    });
    let live = cm.open(key(1000, 9), Time::ZERO).unwrap();
    let mut now = Time::ZERO;
    let mut cycle = |cm: &mut CongestionManager| {
        for i in 0..4 {
            cm.open(key(2000 + i, 9), now).unwrap();
        }
        now += Duration::from_secs(3);
        cm.query(live, now).unwrap();
        cm.tick(now);
    };

    for _ in 0..3 {
        cycle(&mut cm);
    }
    let warm_reaped = cm.stats().flows_reaped;
    let min_delta = fewest_allocs_of_five(|| {
        for _ in 0..10 {
            cycle(&mut cm);
        }
    });
    assert_eq!(cm.stats().flows_reaped, warm_reaped + 5 * 10 * 4);
    assert_eq!(cm.flow_count(), 1, "the live flow was reaped");
    assert_eq!(
        min_delta, 0,
        "orphan reaping allocated in every trial (at least {min_delta} \
         allocations per 10 cycles)"
    );
}

/// A population for [`cold_churn_cycle`]: flows that claim their grants
/// and flows that ignore them, each oldest first, and the cycle count.
struct ColdChurn {
    claiming: VecDeque<FlowId>,
    ignoring: VecDeque<FlowId>,
    next: u32,
    round: u64,
}

impl ColdChurn {
    /// Opens a fresh key, on one of four destinations or, for a flow
    /// that will ignore its grants, on a fifth of its own, and registers
    /// thresholds on it.
    fn open(&mut self, cm: &mut CongestionManager, ignores: bool, now: Time) -> FlowId {
        let dst = if ignores { 9 } else { 20 + self.next % 4 };
        let f = cm
            .open(key(1 + (self.next % 60_000) as u16, dst), now)
            .unwrap();
        self.next += 1;
        cm.set_thresholds(f, Some(Thresholds::new(0.9, 1.1)))
            .unwrap();
        f
    }
}

/// One cycle of churn over flows that need cold records: the two oldest
/// claiming flows close and two fresh ones open, and every sixteenth
/// cycle the older of the two ignoring flows is replaced too, every opened flow
/// registering thresholds; every flow requests; the claiming flows
/// notify and report feedback for their grants, while the ignoring flows
/// leave theirs to be reclaimed until they back off and park their
/// requests; then the maintenance tick.
fn cold_churn_cycle(
    cm: &mut CongestionManager,
    pop: &mut ColdChurn,
    now: &mut Time,
    notes: &mut Vec<CmNotification>,
) {
    for _ in 0..2 {
        let f = pop.claiming.pop_front().expect("claiming flow");
        cm.close(f, *now).unwrap();
        let f = pop.open(cm, false, *now);
        pop.claiming.push_back(f);
    }
    if pop.round.is_multiple_of(16) {
        let f = pop.ignoring.pop_front().expect("ignoring flow");
        cm.close(f, *now).unwrap();
        let f = pop.open(cm, true, *now);
        pop.ignoring.push_back(f);
    }
    pop.round += 1;
    for &f in pop.claiming.iter().chain(&pop.ignoring) {
        cm.request(f, *now).unwrap();
    }
    notes.clear();
    cm.drain_notifications_into(notes);
    for &n in notes.iter() {
        let CmNotification::SendGrant { flow } = n else {
            continue;
        };
        if pop.claiming.contains(&flow) {
            cm.notify(flow, 1460, *now).unwrap();
            let report = FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(30));
            cm.update(flow, report, *now).unwrap();
        }
    }
    *now += Duration::from_millis(20);
    cm.tick(*now);
}

/// Cold records under churn: closes return the records of flows that
/// registered thresholds or backed off, and the reopened flows' first
/// registrations take them again, so once the record slab has reached
/// its peak, 40 cycles allocate nothing.
///
/// Drives: shard `set_thresholds`, `reclaim_expired_grants` and `close`
/// taking and returning records; `request`, `try_grants` and the tick
/// parking and releasing requests; cold slab `attach`, `release`.
#[test]
fn cold_record_churn_never_allocates_in_steady_state() {
    let _turn = measuring();
    let mut cm = CongestionManager::new(CmConfig {
        grant_timeout: Duration::from_millis(50),
        ..Default::default()
    });
    let mut now = Time::ZERO;
    let mut pop = ColdChurn {
        claiming: VecDeque::with_capacity(32),
        ignoring: VecDeque::with_capacity(2),
        next: 0,
        round: 0,
    };
    for i in 0..34 {
        let ignores = i >= 32;
        let f = pop.open(&mut cm, ignores, now);
        if ignores {
            pop.ignoring.push_back(f);
        } else {
            pop.claiming.push_back(f);
        }
    }
    let mut notes: Vec<CmNotification> = Vec::with_capacity(256);
    for _ in 0..40 {
        cold_churn_cycle(&mut cm, &mut pop, &mut now, &mut notes);
    }
    let warm = cm.stats();
    let min_delta = fewest_allocs_of_five(|| {
        for _ in 0..40 {
            cold_churn_cycle(&mut cm, &mut pop, &mut now, &mut notes);
        }
    });
    let stats = cm.stats();
    assert!(
        stats.grant_backoffs > warm.grant_backoffs,
        "no ignoring flow was backed off"
    );
    assert!(
        stats.rate_callbacks > warm.rate_callbacks,
        "no rate callback fired"
    );
    assert_eq!(cm.flow_count(), 34);
    cm.check_invariants().unwrap();
    assert_eq!(
        min_delta, 0,
        "cold-record churn allocated in every trial (at least {min_delta} \
         allocations per 40 cycles)"
    );
}
