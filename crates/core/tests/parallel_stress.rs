//! Multi-thread stress and differential tests for the parallel shard
//! runtime (`cm_core::runtime::ShardRuntime`).
//!
//! The core claim under test: because the front is serial and every
//! shard is owned by exactly one worker, the parallel runtime is
//! *semantically identical* to the in-process `CongestionManager` —
//! same flow ids, same grants, same counters — at any worker count.
//! So the stress test here is differential: every operation is mirrored
//! into an in-process CM and the two are required to agree exactly,
//! under a seeded churn of open/request/feedback/close across 4
//! workers.

use cm_core::prelude::*;
use cm_core::CmStats;
use cm_util::DetRng;

fn by_group_cfg(max_shards: u32) -> CmConfig {
    CmConfig {
        sharding: ShardingConfig::by_group(max_shards),
        ..CmConfig::default()
    }
}

fn key(local_port: u16, group: u32) -> FlowKey {
    FlowKey::new(
        Endpoint::new(0x0a00_0001, local_port),
        Endpoint::new(0xc0a8_0000 + group, 80),
    )
}

/// Grant counts per flow, sorted — the order-independent projection of
/// a notification stream (cross-shard arrival order carries no
/// semantics, so raw streams are not comparable).
fn grant_histogram(notes: &[CmNotification]) -> Vec<(FlowId, u64)> {
    let mut counts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut ids: std::collections::BTreeMap<u64, FlowId> = std::collections::BTreeMap::new();
    for n in notes {
        if let CmNotification::SendGrant { flow } = n {
            let k = (u64::from(flow.shard()) << 32) | u64::from(flow.slot());
            *counts.entry(k).or_insert(0) += 1;
            ids.insert(k, *flow);
        }
    }
    counts.into_iter().map(|(k, c)| (ids[&k], c)).collect()
}

/// 20k seeded operations across 24 groups and 4 workers, mirrored into
/// an in-process CM, with per-destination groups on 16 shards (so 8
/// groups hash-share past the cap). Flow ids, grant histograms,
/// invariants, macroflow membership, and the full counter block must
/// all match.
#[test]
fn four_worker_churn_matches_in_process_cm() {
    const GROUPS: u32 = 24;
    const OPS: usize = 20_000;
    let cfg = by_group_cfg(16);
    let mut rt = ShardRuntime::new(cfg, ParallelConfig::with_workers(4));
    let mut cm = CongestionManager::new(cfg);
    let mut rng = DetRng::seed(0x5eed_cafe);
    let mut now = Time::ZERO;

    let mut live: Vec<FlowId> = Vec::new();
    let mut next_port: u32 = 1000;
    let mut rt_notes: Vec<CmNotification> = Vec::new();
    let mut cm_notes: Vec<CmNotification> = Vec::new();
    let mut buf = Vec::new();

    // One pinned flow per group, never closed: keeps every shard
    // occupied so the in-process CM never recycles one (the runtime
    // pins shards for life; recycling is the one lifecycle difference).
    for g in 0..GROUPS {
        let k = key(next_port as u16, g);
        next_port += 1;
        let a = rt.open(k, now).expect("runtime pinned open");
        let b = cm.open(k, now).expect("in-process pinned open");
        assert_eq!(a, b, "flow ids must match");
        live.push(a);
    }

    for step in 0..OPS {
        match rng.next_bounded(100) {
            // open
            0..=24 => {
                let g = rng.next_bounded(u64::from(GROUPS)) as u32;
                let k = key(next_port as u16, g);
                next_port += 1;
                let a = rt.open(k, now).expect("runtime open");
                let b = cm.open(k, now).expect("in-process open");
                assert_eq!(a, b, "flow ids diverged at step {step}");
                live.push(a);
            }
            // close (pinned flows at indices 0..GROUPS stay)
            25..=44 if live.len() > GROUPS as usize => {
                let i = GROUPS as usize
                    + rng.next_bounded((live.len() - GROUPS as usize) as u64) as usize;
                let f = live.swap_remove(i);
                rt.close(f, now);
                cm.close(f, now).expect("in-process close");
            }
            // request
            25..=69 => {
                let f = live[rng.next_bounded(live.len() as u64) as usize];
                rt.request(f, now);
                cm.request(f, now).expect("in-process request");
            }
            // feedback: notify then update
            70..=84 => {
                let f = live[rng.next_bounded(live.len() as u64) as usize];
                let bytes = 1460 * (1 + rng.next_bounded(3));
                rt.notify(f, bytes, now);
                cm.notify(f, bytes, now).expect("in-process notify");
                let mut report = if rng.chance(0.15) {
                    FeedbackReport::loss(LossMode::Transient, 1460)
                } else {
                    FeedbackReport::ack(bytes, 1)
                };
                if rng.chance(0.5) {
                    report.rtt_sample = Some(Duration::from_millis(20 + rng.next_bounded(80)));
                }
                rt.update(f, report, now);
                cm.update(f, report, now).expect("in-process update");
            }
            // query: synchronous, so the states are directly comparable
            _ => {
                let f = live[rng.next_bounded(live.len() as u64) as usize];
                let a = rt.query(f, now).expect("runtime query");
                let b = cm.query(f, now).expect("in-process query");
                assert_eq!(a, b, "query diverged at step {step} for {f:?}");
            }
        }
        if step % 512 == 511 {
            now += Duration::from_millis(10);
            rt.tick(now);
            cm.tick(now);
            buf.clear();
            rt.drain_notifications_into(&mut buf);
            rt_notes.extend_from_slice(&buf);
            buf.clear();
            cm.drain_notifications_into(&mut buf);
            cm_notes.extend_from_slice(&buf);
        }
    }

    rt.sync();
    buf.clear();
    rt.drain_notifications_into(&mut buf);
    rt_notes.extend_from_slice(&buf);
    buf.clear();
    cm.drain_notifications_into(&mut buf);
    cm_notes.extend_from_slice(&buf);

    // Invariants hold on every worker and in-process.
    rt.check_invariants().expect("runtime invariants");
    cm.check_invariants().expect("in-process invariants");
    assert_eq!(rt.op_failures(), 0, "{:?}", rt.last_op_failure());

    // Exactly-one-macroflow membership for every live flow, and the
    // runtime agrees with the in-process CM about which macroflow.
    for &f in &live {
        let mf_rt = rt.macroflow_of(f).expect("runtime macroflow_of");
        let mf_cm = cm.macroflow_of(f).expect("in-process macroflow_of");
        assert_eq!(mf_rt, mf_cm);
        let members = cm.flows_in(mf_cm).expect("flows_in");
        assert_eq!(
            members.iter().filter(|&&m| m == f).count(),
            1,
            "flow {f:?} must appear in exactly one macroflow exactly once"
        );
    }

    // Same grants, flow by flow.
    assert_eq!(
        grant_histogram(&rt_notes),
        grant_histogram(&cm_notes),
        "grant streams diverged"
    );

    // Full counter equality, modulo the ring-backpressure counter that
    // only the parallel runtime can accumulate.
    let mut rt_stats = rt.stats();
    let cm_stats = cm.stats();
    rt_stats.ring_stalls = cm_stats.ring_stalls;
    assert_eq!(rt_stats, cm_stats);
}

/// A shard that went quiet and is then touched again is scanned by the
/// next tick on both fronts: the granted-and-forgotten request below
/// can only be reclaimed by a tick that does not skip its shard.
#[test]
fn quiet_shard_is_ticked_again_once_touched() {
    let cfg = by_group_cfg(4);
    let mut rt = ShardRuntime::new(cfg, ParallelConfig::with_workers(2));
    let mut cm = CongestionManager::new(cfg);
    let k = key(1000, 1);
    let f = rt.open(k, Time::ZERO).expect("runtime open");
    assert_eq!(cm.open(k, Time::ZERO).expect("in-process open"), f);
    // The first tick scans the fresh shard and leaves no timed work
    // behind; the second one skips it.
    for s in 1..=2 {
        rt.tick(Time::from_secs(s));
        cm.tick(Time::from_secs(s));
    }
    assert_eq!(cm.stats().tick_shards_skipped, 1, "shard never went quiet");

    rt.request(f, Time::from_secs(2));
    cm.request(f, Time::from_secs(2))
        .expect("in-process request");
    rt.tick(Time::from_secs(60));
    cm.tick(Time::from_secs(60));

    let mut rt_stats = rt.stats();
    let cm_stats = cm.stats();
    assert_eq!(cm_stats.grants_reclaimed, 1);
    rt_stats.ring_stalls = cm_stats.ring_stalls;
    assert_eq!(rt_stats, cm_stats);
}

/// The documented `stats()` consistency model: counters are monotone
/// across calls and never torn (a snapshot mid-churn still satisfies
/// cross-counter sanity like `grants <= requests`).
#[test]
fn stats_are_monotone_and_untorn_under_churn() {
    let mut rt = ShardRuntime::new(by_group_cfg(8), ParallelConfig::with_workers(4));
    let mut rng = DetRng::seed(7);
    let now = Time::ZERO;
    let mut flows = Vec::new();
    for g in 0..8u32 {
        for p in 0..8u16 {
            let port = 1000 + (g * 8) as u16 + p;
            flows.push(rt.open(key(port, g), now).unwrap());
        }
    }
    let mut prev = CmStats::default();
    for _round in 0..50 {
        for _ in 0..200 {
            let f = flows[rng.next_bounded(flows.len() as u64) as usize];
            rt.request(f, now);
            rt.update(f, FeedbackReport::ack(1460, 1), now);
        }
        // No barrier before stats: this snapshot races the workers by
        // design; the model still guarantees monotone, untorn counters.
        let s = rt.stats();
        assert!(s.opens >= prev.opens, "opens regressed");
        assert!(s.requests >= prev.requests, "requests regressed");
        assert!(s.grants >= prev.grants, "grants regressed");
        assert!(s.updates >= prev.updates, "updates regressed");
        assert!(s.ring_stalls >= prev.ring_stalls, "ring_stalls regressed");
        assert!(s.grants <= s.requests, "torn snapshot: grants > requests");
        assert!(s.opens - s.closes == 64, "live-flow accounting torn");
        prev = s;
    }
    let mut notes = Vec::new();
    rt.drain_notifications_into(&mut notes);
    rt.check_invariants().unwrap();
}

/// `CongestionManager::into_parallel` moves live shards — flows,
/// learned congestion state, pending notifications, counters — onto
/// worker threads without losing anything.
#[test]
fn into_parallel_carries_live_state() {
    let cfg = by_group_cfg(8);
    let mut cm = CongestionManager::new(cfg);
    let now = Time::ZERO;
    let mut flows = Vec::new();
    for g in 0..6u32 {
        for p in 0..4u16 {
            flows.push(cm.open(key(2000 + p, g), now).unwrap());
        }
    }
    // Grow some congestion state and leave notifications undrained.
    for &f in &flows {
        cm.request(f, now).unwrap();
        cm.notify(f, 1460, now).unwrap();
        cm.update(f, FeedbackReport::ack(1460, 1), now).unwrap();
    }
    let pre_stats = cm.stats();
    let pre_infos: Vec<FlowInfo> = flows.iter().map(|&f| cm.query(f, now).unwrap()).collect();
    let queries_during_snapshot = flows.len() as u64;

    let mut rt = cm.into_parallel(ParallelConfig::with_workers(3));

    // The undrained grants survived the move. Workers forward
    // inherited outboxes on startup, before their first command, so a
    // barrier makes them visible to a non-blocking drain.
    rt.sync();
    let mut notes = Vec::new();
    rt.drain_notifications_into(&mut notes);
    let grants = notes
        .iter()
        .filter(|n| matches!(n, CmNotification::SendGrant { .. }))
        .count();
    assert_eq!(grants, flows.len(), "pending notifications lost in move");

    // Flow state is intact, queryable through the workers.
    for (&f, pre) in flows.iter().zip(&pre_infos) {
        assert_eq!(rt.query(f, now).unwrap(), *pre);
    }

    // Counters carried over (the post-conversion queries are the only
    // delta).
    let post = rt.stats();
    assert_eq!(post.opens, pre_stats.opens);
    assert_eq!(post.requests, pre_stats.requests);
    assert_eq!(post.grants, pre_stats.grants);
    assert_eq!(
        post.queries,
        pre_stats.queries + queries_during_snapshot * 2
    );

    // And the moved shards still validate on their new threads.
    rt.check_invariants().unwrap();
    for &f in &flows {
        rt.close(f, now);
    }
    rt.sync();
    assert_eq!(rt.op_failures(), 0);
    rt.check_invariants().unwrap();
}
