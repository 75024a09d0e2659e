//! Zero-allocation enforcement for the CM's own entry points, and the
//! per-flow memory bound the same counting allocator can state.
//!
//! docs/perf.md rule 2 requires the CM's hot functions to allocate
//! nothing once warm; the tests here and in `cm-transport`, `cm-apps`,
//! `cm-obs` and `cm-adapt` are that rule's only gate. Each driver's doc
//! comment names the hot functions it holds in steady state.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

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
/// flow in each of four groups (creating or re-creating their shards),
/// run a request/grant/notify/update round in each, close everything,
/// and tick past the linger so every macroflow expires and every shard
/// is recycled into the shell pool.
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
    // Linger elapses; the next tick expires the macroflows and recycles
    // all four shards into the pool.
    *now += Duration::from_millis(300);
    cm.tick(*now);
    notes.clear();
    cm.drain_notifications_into(notes);
}

/// The flat-state rules extended to the sharded CM: once the shard
/// shell pool, the per-shard slabs, and the routing map are warm, a full
/// cross-shard open/traffic/close/tick cycle — shard creation and
/// recycling included — performs zero heap allocation.
///
/// Drives: engine `route`, `tick` (shard recycling included).
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

    // Warm-up: two cycles size every shard shell, slab, map, and buffer.
    for _ in 0..2 {
        shard_cycle(&mut cm, &mut now, &mut notes);
    }
    assert_eq!(cm.shard_count(), 0, "shards not recycled after drain");
    assert!(cm.stats().shards_recycled >= 8, "recycling never happened");

    let min_delta = fewest_allocs_of_five(|| {
        for _ in 0..20 {
            shard_cycle(&mut cm, &mut now, &mut notes);
        }
    });
    assert_eq!(cm.flow_count(), 0);
    assert_eq!(
        min_delta, 0,
        "cross-shard churn allocated in every trial (at least {min_delta} \
         allocations per 20 open/traffic/close/recycle cycles)"
    );
    // A recycled shell starts over with every slab empty, the scheduler
    // slab included: its next tenant's slots line up with its flows'.
    cm.open(key(1000, 2), now)
        .expect("open on a recycled shard");
    cm.check_invariants().expect("recycled shard");
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
/// key map, macroflow shells, controllers, and the one scheduler slab the
/// macroflows share (16 B per flow slot; a macroflow's own scheduler is
/// a few inline words). 4,096 flows measure 335 B each at 8 per
/// macroflow and 475 B at 2 per macroflow; the bounds sit a tenth above
/// those figures. (A scheduler index sized by the shard's flow-id space
/// per macroflow costs 2 KB and 8 KB per flow at these shapes.)
#[test]
fn open_population_stays_under_1kb_per_flow() {
    const FLOWS: usize = 4_096;
    let _turn = measuring();
    for (dests, bound) in [(512, 368), (2_048, 523)] {
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
        // Warm the flow slab, both maps and the macroflow slab with one
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
/// with rate thresholds: a batched request from every flow; every grant
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
    cm.bulk_request(flows, *now).unwrap();
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
/// threshold crossing, a batched request, under each scheduling
/// discipline. Once warm, 80 rounds allocate nothing.
///
/// Drives: shard `enqueue_request`, `update`, `tick`, `try_grants`,
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
