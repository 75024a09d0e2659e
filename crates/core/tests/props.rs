//! Property-based tests for Congestion Manager invariants.
//!
//! The central safety property (paper §1: "we ensure that an ensemble of
//! concurrent flows is not an overly aggressive user of the network") is
//! that no interleaving of API calls can push a macroflow's committed
//! window — outstanding bytes plus reserved grants — above the controller
//! window. These tests drive the CM with arbitrary operation sequences and
//! check that and related invariants.

use cm_core::prelude::*;
use proptest::prelude::*;

/// One arbitrary client operation.
#[derive(Clone, Debug)]
enum Op {
    Open(u16, u32),
    CloseIdx(usize),
    RequestIdx(usize),
    /// Notify with `frac`/10 of an MTU (0 releases the grant).
    NotifyIdx(usize, u8),
    AckIdx(usize, u16),
    LossIdx(usize, u8),
    Tick(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u16..2000, 1u32..4).prop_map(|(p, d)| Op::Open(p, d)),
        (0usize..16).prop_map(Op::CloseIdx),
        (0usize..16).prop_map(Op::RequestIdx),
        ((0usize..16), (0u8..=10)).prop_map(|(i, f)| Op::NotifyIdx(i, f)),
        ((0usize..16), (1u16..3000)).prop_map(|(i, b)| Op::AckIdx(i, b)),
        ((0usize..16), (0u8..3)).prop_map(|(i, m)| Op::LossIdx(i, m)),
        (1u16..500).prop_map(Op::Tick),
    ]
}

/// One arbitrary operation for the membership/split/merge churn tests.
#[derive(Clone, Debug)]
enum ChurnOp {
    Open(u16, u32),
    Close(usize),
    Request(usize),
    SetWeight(usize, u8),
    /// Ack with an RTT sample.
    Ack(usize, u16),
    Split(usize),
    Merge(usize, usize),
    Tick(u16),
}

fn churn_op_strategy() -> impl Strategy<Value = ChurnOp> {
    churn_ops_over(1..4)
}

/// The churn ops with opens spread over destination hosts `dsts`.
fn churn_ops_over(dsts: std::ops::Range<u32>) -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        (1u16..2000, dsts).prop_map(|(p, d)| ChurnOp::Open(p, d)),
        (0usize..16).prop_map(ChurnOp::Close),
        (0usize..16).prop_map(ChurnOp::Request),
        ((0usize..16), (1u8..8)).prop_map(|(i, w)| ChurnOp::SetWeight(i, w)),
        ((0usize..16), (10u16..1000)).prop_map(|(i, r)| ChurnOp::Ack(i, r)),
        (0usize..16).prop_map(ChurnOp::Split),
        ((0usize..16), (0usize..16)).prop_map(|(i, j)| ChurnOp::Merge(i, j)),
        (1u16..400).prop_map(ChurnOp::Tick),
    ]
}

/// Each churned flow's destination, and whether it sits on a private
/// macroflow (split off, or merged onto a flow that was): what decides
/// which macroflows `merge` accepts for it.
type Homes = cm_util::FxHashMap<FlowId, (u32, bool)>;

/// A `Merge(i, j)` op: moves `flows[i]` onto the `j`-th of the
/// macroflows `merge` accepts for it — its own destination's or a
/// private one — other than its current one. Only unresolved grants, or
/// a private target in another shard, may refuse the move.
fn merge_op(
    cm: &mut CongestionManager,
    flows: &[FlowId],
    homes: &mut Homes,
    (i, j): (usize, usize),
    now: Time,
) -> Result<(), TestCaseError> {
    let f = flows[i % flows.len()];
    let (dst, home) = (homes[&f].0, cm.macroflow_of(f).expect("live flow"));
    let targets: Vec<(FlowId, MacroflowId)> = flows
        .iter()
        .filter(|g| matches!(homes[g], (d, private) if d == dst || private))
        .map(|&g| (g, cm.macroflow_of(g).expect("live flow")))
        .filter(|&(_, mf)| mf != home)
        .collect();
    let Some(&(g, mf)) = targets.get(j % targets.len().max(1)) else {
        return Ok(());
    };
    match cm.merge(f, mf, now) {
        Ok(()) => {
            prop_assert_eq!(f.shard(), mf.shard());
            let private = homes[&g].1;
            homes.insert(f, (dst, private));
        }
        Err(CmError::CrossShardMerge) => prop_assert_ne!(f.shard(), mf.shard()),
        Err(e) => prop_assert!(matches!(e, CmError::InvalidArgument(_)), "refused: {e:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any operation interleaving: committed window never exceeds
    /// cwnd, counters never go negative (checked via saturation points),
    /// and the CM never panics.
    #[test]
    fn window_commitment_never_exceeds_cwnd(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut cm = CongestionManager::new(CmConfig::default());
        let mut now = Time::ZERO;
        let mut flows: Vec<FlowId> = Vec::new();
        let mut granted: Vec<FlowId> = Vec::new();
        let mut notes = Vec::new();
        for op in ops {
            now += Duration::from_millis(7);
            match op {
                Op::Open(port, dst) => {
                    let key = FlowKey::new(
                        Endpoint::new(1, port),
                        Endpoint::new(dst, 80),
                    );
                    if let Ok(f) = cm.open(key, now) {
                        flows.push(f);
                    }
                }
                Op::CloseIdx(i) => {
                    if !flows.is_empty() {
                        let f = flows.remove(i % flows.len());
                        let _ = cm.close(f, now);
                        granted.retain(|&g| g != f);
                    }
                }
                Op::RequestIdx(i) => {
                    if !flows.is_empty() {
                        let f = flows[i % flows.len()];
                        let _ = cm.request(f, now);
                    }
                }
                Op::NotifyIdx(i, frac) => {
                    // Prefer resolving a real grant when one exists.
                    let f = if !granted.is_empty() {
                        Some(granted.remove(i % granted.len()))
                    } else if !flows.is_empty() {
                        Some(flows[i % flows.len()])
                    } else {
                        None
                    };
                    if let Some(f) = f {
                        let bytes = 1460 * frac as u64 / 10;
                        let _ = cm.notify(f, bytes, now);
                    }
                }
                Op::AckIdx(i, bytes) => {
                    if !flows.is_empty() {
                        let f = flows[i % flows.len()];
                        let report = FeedbackReport::ack(bytes as u64, 1)
                            .with_rtt(Duration::from_millis(20));
                        let _ = cm.update(f, report, now);
                    }
                }
                Op::LossIdx(i, mode) => {
                    if !flows.is_empty() {
                        let f = flows[i % flows.len()];
                        let mode = match mode {
                            0 => LossMode::Transient,
                            1 => LossMode::Persistent,
                            _ => LossMode::Ecn,
                        };
                        let _ = cm.update(f, FeedbackReport::loss(mode, 1460), now);
                    }
                }
                Op::Tick(ms) => {
                    now += Duration::from_millis(ms as u64);
                    cm.tick(now);
                }
            }
            // Track issued grants so notifies resolve them.
            notes.clear();
            cm.drain_notifications_into(&mut notes);
            for &n in &notes {
                if let CmNotification::SendGrant { flow } = n {
                    granted.push(flow);
                }
            }
            // INVARIANT: committed <= cwnd for every macroflow, except
            // transiently when a loss shrank cwnd below bytes already in
            // flight (TCP has the same property); in that case nothing
            // new may be granted, which the grant path enforces — so we
            // check reserved grants specifically.
            for f in &flows {
                if let Ok(mf) = cm.macroflow_of(*f) {
                    let cwnd = cm.window_of(mf).unwrap();
                    let reserved = cm.reserved_of(mf).unwrap();
                    let outstanding = cm.outstanding_of(mf).unwrap();
                    if reserved > 0 {
                        prop_assert!(
                            outstanding + reserved <= cwnd.max(outstanding + reserved.min(1460 * 16)),
                            "reserved {reserved} outstanding {outstanding} cwnd {cwnd}"
                        );
                    }
                }
            }
        }
    }

    /// Grants are conserved: every grant is eventually resolved by a
    /// notify, a close, or a reclaim — never duplicated or lost.
    #[test]
    fn grants_conserved(
        reqs in 1usize..40,
        notified in 0usize..40,
    ) {
        // Pacing off: this property is about grant conservation, not
        // release timing.
        let mut cm = CongestionManager::new(CmConfig {
            grant_timeout: Duration::from_millis(50),
            pacing: false,
            ..Default::default()
        });
        let key = FlowKey::new(Endpoint::new(1, 100), Endpoint::new(2, 80));
        let f = cm.open(key, Time::ZERO).unwrap();
        // Give the macroflow a huge window (slow start doubling on
        // 16 KB acks) so all grants flow freely: > 40 MTUs.
        for _ in 0..10 {
            cm.update(
                f,
                FeedbackReport::ack(16 * 1024, 1).with_rtt(Duration::from_millis(10)),
                Time::ZERO,
            ).unwrap();
        }
        for _ in 0..reqs {
            cm.request(f, Time::ZERO).unwrap();
        }
        let mut notes = Vec::new();
        cm.drain_notifications_into(&mut notes);
        let grants = notes
            .iter()
            .filter(|n| matches!(n, CmNotification::SendGrant { .. }))
            .count();
        prop_assert_eq!(grants, reqs, "every request granted under a large window");
        // Notify some of them.
        let n_notify = notified.min(grants);
        for _ in 0..n_notify {
            cm.notify(f, 1460, Time::ZERO).unwrap();
        }
        // Tick past the grant timeout: the rest are reclaimed.
        cm.tick(Time::from_millis(100));
        let reclaimed = cm.stats().grants_reclaimed as usize;
        prop_assert_eq!(reclaimed, grants - n_notify);
        let mf = cm.macroflow_of(f).unwrap();
        prop_assert_eq!(cm.reserved_of(mf).unwrap(), 0);
    }

    /// Byte-counting slow start exactly doubles the window per window of
    /// acked data, independent of how feedback is chunked.
    #[test]
    fn slow_start_chunking_independent(chunks in 1u64..16) {
        let mut cm = CongestionManager::new(CmConfig::default());
        let key = FlowKey::new(Endpoint::new(1, 100), Endpoint::new(2, 80));
        let f = cm.open(key, Time::ZERO).unwrap();
        let mf = cm.macroflow_of(f).unwrap();
        let w0 = cm.window_of(mf).unwrap();
        // Ack exactly one window of data in `chunks` pieces.
        let per = w0 / chunks;
        let rem = w0 - per * chunks;
        for i in 0..chunks {
            let bytes = per + if i == 0 { rem } else { 0 };
            cm.update(f, FeedbackReport::ack(bytes, 1), Time::ZERO).unwrap();
        }
        prop_assert_eq!(cm.window_of(mf).unwrap(), 2 * w0);
    }

    /// Membership invariant under arbitrary open/close/request/notify/
    /// split/merge churn: every live flow belongs to
    /// exactly one macroflow, `flows_in` and `macroflow_of` agree
    /// exactly, scheduler weights survive every migration, and the
    /// flow/macroflow slabs stay bounded by their peak live counts
    /// (no leak).
    #[test]
    fn membership_partition_under_split_merge_churn(
        ops in proptest::collection::vec(churn_op_strategy(), 1..250),
    ) {
        let mut cm = CongestionManager::new(CmConfig {
            scheduler: SchedulerKind::WeightedRoundRobin,
            macroflow_linger: Duration::from_millis(500),
            pacing: false,
            ..Default::default()
        });
        let mut now = Time::ZERO;
        let mut flows: Vec<FlowId> = Vec::new();
        let mut weights: cm_util::FxHashMap<FlowId, u32> = Default::default();
        let mut homes = Homes::default();
        let mut peak_flows = 0usize;
        let mut peak_mfs = 0usize;
        let mut notes = Vec::new();
        for op in ops {
            now += Duration::from_millis(11);
            match op {
                ChurnOp::Open(port, dst) => {
                    let key = FlowKey::new(
                        Endpoint::new(1, port),
                        Endpoint::new(dst, 80),
                    );
                    if let Ok(f) = cm.open(key, now) {
                        flows.push(f);
                        weights.insert(f, 1);
                        homes.insert(f, (dst, false));
                    }
                }
                ChurnOp::Close(i) => {
                    if !flows.is_empty() {
                        let f = flows.remove(i % flows.len());
                        weights.remove(&f);
                        let _ = cm.close(f, now);
                    }
                }
                ChurnOp::Request(i) => {
                    if !flows.is_empty() {
                        let _ = cm.request(flows[i % flows.len()], now);
                    }
                }
                ChurnOp::SetWeight(i, w) => {
                    if !flows.is_empty() {
                        let f = flows[i % flows.len()];
                        if cm.set_weight(f, w as u32).is_ok() {
                            weights.insert(f, w as u32);
                        }
                    }
                }
                ChurnOp::Ack(i, rtt_ms) => {
                    if !flows.is_empty() {
                        let f = flows[i % flows.len()];
                        let report = FeedbackReport::ack(1460, 1)
                            .with_rtt(Duration::from_millis(rtt_ms as u64));
                        let _ = cm.update(f, report, now);
                    }
                }
                ChurnOp::Split(i) => {
                    if !flows.is_empty() {
                        let f = flows[i % flows.len()];
                        if cm.split(f, now).is_ok() {
                            homes.insert(f, (homes[&f].0, true));
                        }
                    }
                }
                ChurnOp::Merge(i, j) => {
                    if flows.len() >= 2 {
                        merge_op(&mut cm, &flows, &mut homes, (i, j), now)?;
                    }
                }
                ChurnOp::Tick(ms) => {
                    now += Duration::from_millis(ms as u64);
                    cm.tick(now);
                }
            }
            // Grants must be resolved so migrations stay possible;
            // decline them all (zero notify releases the window).
            notes.clear();
            cm.drain_notifications_into(&mut notes);
            for &n in &notes {
                if let CmNotification::SendGrant { flow } = n {
                    let _ = cm.notify(flow, 0, now);
                }
            }
            notes.clear();
            cm.drain_notifications_into(&mut notes);
            peak_flows = peak_flows.max(cm.flow_count());
            peak_mfs = peak_mfs.max(cm.macroflow_count());

            // INVARIANT: flows_in/macroflow_of agree, and each live
            // flow appears in exactly one macroflow's member list.
            let mut seen = 0usize;
            for slot in 0..cm.macroflow_slab_capacity() {
                let mf = MacroflowId(slot as u32);
                let Ok(members) = cm.flows_in(mf) else { continue };
                for &m in members {
                    prop_assert_eq!(
                        cm.macroflow_of(m).expect("member flow is live"),
                        mf,
                        "flows_in lists a flow whose macroflow_of disagrees"
                    );
                    seen += 1;
                }
            }
            prop_assert_eq!(seen, cm.flow_count(), "membership partition broken");
            for &f in &flows {
                let mf = cm.macroflow_of(f).expect("live flow has a macroflow");
                prop_assert!(
                    cm.flows_in(mf).expect("macroflow exists").contains(&f),
                    "live flow missing from its macroflow's member list"
                );
                // Scheduler weight survives every migration path.
                prop_assert_eq!(cm.weight_of(f).expect("live flow"), weights[&f]);
            }
        }
        // Drain: close everything and expire all state; slabs must be
        // bounded by the peaks, not by cumulative churn.
        for f in flows.drain(..) {
            let _ = cm.close(f, now);
        }
        now += Duration::from_secs(10);
        cm.tick(now);
        prop_assert_eq!(cm.flow_count(), 0);
        prop_assert_eq!(cm.macroflow_count(), 0);
        prop_assert!(
            cm.flow_slab_capacity() <= peak_flows,
            "flow slab {} exceeds peak {}",
            cm.flow_slab_capacity(),
            peak_flows
        );
        prop_assert!(
            cm.macroflow_slab_capacity() <= peak_mfs + 1,
            "macroflow slab {} exceeds peak {}",
            cm.macroflow_slab_capacity(),
            peak_mfs
        );
        prop_assert!(
            cm.macroflow_pool_len() <= cm.macroflow_slab_capacity(),
            "pool outgrew the slab"
        );
    }

    /// The membership invariants on the *sharded* CM: under
    /// open/close/split/merge churn across fifteen destinations
    /// with `ShardingMode::ByGroup` capped at eight shards (so groups
    /// past the cap share shards by hash), every live flow
    /// belongs to exactly one macroflow, `flows_in`/`macroflow_of`
    /// agree, each shard's slabs stay bounded by that shard's peak live
    /// counts, every flow lives in the shard its destination was given
    /// on first contact (split-off private macroflows included — a split
    /// never crosses shards), and shards persist: the shard count is the
    /// number of distinct groups seen, capped at `max_shards`, emptied
    /// groups included. A merge succeeds only inside one shard.
    #[test]
    fn sharded_membership_partition_under_churn(
        // Fifteen destinations against an eight-shard cap: groups past
        // the cap share shards by hash.
        ops in proptest::collection::vec(churn_ops_over(1..16), 1..200),
    ) {
        let cfg = CmConfig {
            scheduler: SchedulerKind::WeightedRoundRobin,
            sharding: ShardingConfig::by_group(8),
            macroflow_linger: Duration::from_millis(500),
            pacing: false,
            ..Default::default()
        };
        let mut cm = CongestionManager::new(cfg);
        let mut now = Time::ZERO;
        let mut flows: Vec<(FlowId, FlowKey)> = Vec::new();
        let mut peak_shard_flows: cm_util::FxHashMap<u32, usize> = Default::default();
        let mut peak_shard_mfs: cm_util::FxHashMap<u32, usize> = Default::default();
        // Each group's shard, from the first flow opened in it.
        let mut group_shard: cm_util::FxHashMap<u32, u32> = Default::default();
        let mut homes = Homes::default();
        let mut notes = Vec::new();
        for op in ops {
            now += Duration::from_millis(11);
            match op {
                ChurnOp::Open(port, dst) => {
                    let key = FlowKey::new(
                        Endpoint::new(1, port),
                        Endpoint::new(dst, 80),
                    );
                    if let Ok(f) = cm.open(key, now) {
                        let home = *group_shard.entry(dst).or_insert(f.shard());
                        prop_assert_eq!(home, f.shard(), "a group moved shards");
                        flows.push((f, key));
                        homes.insert(f, (dst, false));
                    }
                }
                ChurnOp::Close(i) => {
                    if !flows.is_empty() {
                        let (f, _) = flows.remove(i % flows.len());
                        let _ = cm.close(f, now);
                    }
                }
                ChurnOp::Request(i) => {
                    if !flows.is_empty() {
                        let _ = cm.request(flows[i % flows.len()].0, now);
                    }
                }
                ChurnOp::SetWeight(i, w) => {
                    if !flows.is_empty() {
                        let _ = cm.set_weight(flows[i % flows.len()].0, w as u32);
                    }
                }
                ChurnOp::Ack(i, rtt_ms) => {
                    if !flows.is_empty() {
                        let f = flows[i % flows.len()].0;
                        let report = FeedbackReport::ack(1460, 1)
                            .with_rtt(Duration::from_millis(rtt_ms as u64));
                        let _ = cm.update(f, report, now);
                    }
                }
                ChurnOp::Split(i) => {
                    if !flows.is_empty() {
                        let f = flows[i % flows.len()].0;
                        if cm.split(f, now).is_ok() {
                            homes.insert(f, (homes[&f].0, true));
                        }
                    }
                }
                ChurnOp::Merge(i, j) => {
                    if flows.len() >= 2 {
                        // A private target in another shard is rejected;
                        // the error (not a panic, not corruption) is the
                        // contract.
                        let ids: Vec<FlowId> = flows.iter().map(|&(f, _)| f).collect();
                        merge_op(&mut cm, &ids, &mut homes, (i, j), now)?;
                    }
                }
                ChurnOp::Tick(ms) => {
                    now += Duration::from_millis(ms as u64);
                    cm.tick(now);
                }
            }
            // Resolve grants so migrations stay possible.
            notes.clear();
            cm.drain_notifications_into(&mut notes);
            for &n in &notes {
                if let CmNotification::SendGrant { flow } = n {
                    let _ = cm.notify(flow, 0, now);
                }
            }
            // Track per-shard peaks, and hold the slab bounds *during*
            // the run: a shard's slab never outgrows its own peak live
            // count (vacated slots are reused, not appended).
            prop_assert_eq!(cm.shard_count(), group_shard.len().min(8), "shards did not persist");
            for sid in 0..cm.shard_count() as u32 {
                let live = flows.iter().filter(|(f, _)| f.shard() == sid).count();
                let e = peak_shard_flows.entry(sid).or_insert(0);
                *e = (*e).max(live);
                let flow_peak = *e;
                let mut mfs_here = 0usize;
                for slot in 0..cm.macroflow_slab_capacity_of(sid) as u32 {
                    if cm.flows_in(MacroflowId::from_parts(sid, slot)).is_ok() {
                        mfs_here += 1;
                    }
                }
                let e = peak_shard_mfs.entry(sid).or_insert(0);
                *e = (*e).max(mfs_here);
                let mf_peak = *e;
                prop_assert!(
                    cm.flow_slab_capacity_of(sid) <= flow_peak,
                    "shard {} flow slab outgrew its peak mid-run",
                    sid
                );
                prop_assert!(
                    cm.macroflow_slab_capacity_of(sid) <= mf_peak + 1,
                    "shard {} macroflow slab outgrew its peak mid-run",
                    sid
                );
            }

            // INVARIANT: flows_in/macroflow_of agree across every shard,
            // and each live flow appears in exactly one member list.
            let mut seen = 0usize;
            for sid in 0..cm.shard_count() as u32 {
                for slot in 0..cm.macroflow_slab_capacity_of(sid) as u32 {
                    let mf = MacroflowId::from_parts(sid, slot);
                    let Ok(members) = cm.flows_in(mf) else { continue };
                    for &m in members {
                        prop_assert_eq!(m.shard(), sid, "member id in foreign shard");
                        prop_assert_eq!(
                            cm.macroflow_of(m).expect("member flow is live"),
                            mf,
                            "flows_in lists a flow whose macroflow_of disagrees"
                        );
                        seen += 1;
                    }
                }
            }
            prop_assert_eq!(seen, cm.flow_count(), "membership partition broken");
            // INVARIANT: every flow lives in its group's shard (macroflow
            // — group or split-off private — in the same shard).
            for &(f, key) in &flows {
                let mf = cm.macroflow_of(f).expect("live flow has a macroflow");
                prop_assert_eq!(mf.shard(), f.shard());
                prop_assert_eq!(
                    group_shard[&key.remote.addr],
                    f.shard(),
                    "flow's shard disagrees with its group's"
                );
                prop_assert_eq!(cm.lookup(&key), Some(f), "lookup misrouted");
            }
        }
        // Drain everything; the macroflows expire, the shards persist,
        // and slabs stay bounded by their per-shard peaks.
        for (f, _) in flows.drain(..) {
            let _ = cm.close(f, now);
        }
        cm.tick(now + Duration::from_secs(10));
        prop_assert_eq!(cm.flow_count(), 0);
        prop_assert_eq!(cm.macroflow_count(), 0);
        prop_assert_eq!(cm.shard_count(), group_shard.len().min(8), "emptied shards vanished");
        for sid in 0..cm.shard_count() as u32 {
            prop_assert!(
                cm.flow_slab_capacity_of(sid) <= peak_shard_flows[&sid],
                "shard {} flow slab {} exceeds its peak {}",
                sid,
                cm.flow_slab_capacity_of(sid),
                peak_shard_flows[&sid]
            );
            prop_assert!(
                cm.macroflow_slab_capacity_of(sid) <= peak_shard_mfs[&sid] + 1,
                "shard {} macroflow slab {} exceeds its peak {}",
                sid,
                cm.macroflow_slab_capacity_of(sid),
                peak_shard_mfs[&sid]
            );
        }
    }

    /// Flows to distinct destinations never share a macroflow; flows to
    /// the same destination always do (default grouping).
    #[test]
    fn grouping_partition(dsts in proptest::collection::vec(1u32..6, 1..24)) {
        let mut cm = CongestionManager::new(CmConfig::default());
        let mut by_dst: std::collections::BTreeMap<u32, MacroflowId> = Default::default();
        for (i, &d) in dsts.iter().enumerate() {
            let key = FlowKey::new(
                Endpoint::new(1, 1000 + i as u16),
                Endpoint::new(d, 80),
            );
            let f = cm.open(key, Time::ZERO).unwrap();
            let mf = cm.macroflow_of(f).unwrap();
            if let Some(&prev) = by_dst.get(&d) {
                prop_assert_eq!(prev, mf);
            } else {
                for (&od, &omf) in &by_dst {
                    if od != d {
                        prop_assert_ne!(omf, mf);
                    }
                }
                by_dst.insert(d, mf);
            }
        }
    }

    #[test]
    fn invariants_hold_under_fault_churn(
        ops in proptest::collection::vec(fault_op_strategy(), 1..200),
    ) {
        fault_churn(ops)?;
    }
}

/// Structural invariants under *hostile* churn: clients feeding
/// absurd feedback, ignoring grants until they are reclaimed and
/// backed off, going silent long enough to be reaped as orphans —
/// interleaved with honest traffic. After every operation the CM's
/// own structural check must pass (slab/free-list consistency,
/// membership bijection, grant reservations, parked-request
/// accounting), every surviving flow belongs to exactly one
/// macroflow, and at the end nothing has leaked.
///
/// The self-check also holds every macroflow's quiet band against
/// the member walk it replaces, so the ops include everything band
/// upkeep hangs on — registering and dropping thresholds, weight
/// changes (under a scheduler that honours them), loss, and flows
/// carrying registrations across macroflows.
fn fault_churn(ops: Vec<FaultOp>) -> Result<(), TestCaseError> {
    let mut cm = CongestionManager::new(CmConfig {
        scheduler: SchedulerKind::WeightedRoundRobin,
        pacing: false,
        grant_timeout: Duration::from_millis(50),
        macroflow_linger: Duration::from_millis(500),
        orphan_timeout: Some(Duration::from_secs(2)),
        ..Default::default()
    });
    let mut now = Time::ZERO;
    let mut flows: Vec<FlowId> = Vec::new();
    let mut homes = Homes::default();
    let mut pending_grants: Vec<FlowId> = Vec::new();
    let mut peak_flows = 0usize;
    let mut notes = Vec::new();
    for op in ops {
        now += Duration::from_millis(7);
        match op {
            FaultOp::Open(port, dst) => {
                let key = FlowKey::new(Endpoint::new(1, port), Endpoint::new(dst, 80));
                if let Ok(f) = cm.open(key, now) {
                    flows.push(f);
                    homes.insert(f, (dst, false));
                }
            }
            FaultOp::Close(i) => {
                if !flows.is_empty() {
                    let f = flows.remove(i % flows.len());
                    let _ = cm.close(f, now);
                    pending_grants.retain(|&g| g != f);
                }
            }
            FaultOp::Request(i) => {
                if !flows.is_empty() {
                    let _ = cm.request(flows[i % flows.len()], now);
                }
            }
            FaultOp::NotifyReal(i, frac) => {
                if !pending_grants.is_empty() {
                    let f = pending_grants.remove(i % pending_grants.len());
                    let _ = cm.notify(f, 1460 * frac as u64 / 10, now);
                }
            }
            // The hostile client: grants silently dropped, never
            // notified — the reclaim/backoff machinery must absorb
            // them.
            FaultOp::IgnoreGrants => {
                pending_grants.clear();
            }
            FaultOp::AbsurdAck(i) => {
                if !flows.is_empty() {
                    let f = flows[i % flows.len()];
                    let _ = cm.update(f, FeedbackReport::ack(1 << 40, 1), now);
                }
            }
            FaultOp::BogusRtt(i, kind) => {
                if !flows.is_empty() {
                    let f = flows[i % flows.len()];
                    let rtt = if kind == 0 {
                        Duration::from_nanos(1)
                    } else {
                        Duration::from_secs(3600)
                    };
                    let _ = cm.update(f, FeedbackReport::ack(1460, 1).with_rtt(rtt), now);
                }
            }
            FaultOp::Ack(i, bytes) => {
                if !flows.is_empty() {
                    let f = flows[i % flows.len()];
                    let report =
                        FeedbackReport::ack(bytes as u64, 1).with_rtt(Duration::from_millis(20));
                    let _ = cm.update(f, report, now);
                }
            }
            FaultOp::SetThresholds(i, band) => {
                if !flows.is_empty() {
                    let t = band.map(|(down, up)| {
                        Thresholds::new(
                            [0.5, 0.8, 0.95, 1.0][down as usize],
                            [1.0, 1.05, 1.5, 2.0][up as usize],
                        )
                    });
                    let _ = cm.set_thresholds(flows[i % flows.len()], t);
                }
            }
            FaultOp::SetWeight(i, w) => {
                if !flows.is_empty() {
                    let _ = cm.set_weight(flows[i % flows.len()], w as u32);
                }
            }
            FaultOp::Loss(i) => {
                if !flows.is_empty() {
                    let report = FeedbackReport::loss(LossMode::Transient, 1460);
                    let _ = cm.update(flows[i % flows.len()], report, now);
                }
            }
            FaultOp::Split(i) => {
                if !flows.is_empty() {
                    let f = flows[i % flows.len()];
                    if cm.split(f, now).is_ok() {
                        homes.insert(f, (homes[&f].0, true));
                    }
                }
            }
            FaultOp::Merge(i, j) => {
                if !flows.is_empty() {
                    merge_op(&mut cm, &flows, &mut homes, (i, j), now)?;
                }
            }
            FaultOp::Tick(ms) => {
                now += Duration::from_millis(ms as u64);
                cm.tick(now);
            }
        }
        notes.clear();
        cm.drain_notifications_into(&mut notes);
        for &n in &notes {
            if let CmNotification::SendGrant { flow } = n {
                pending_grants.push(flow);
            }
        }
        // Orphan reaping may have closed flows under us; prune both
        // shadow lists before asserting anything about them.
        flows.retain(|&f| cm.macroflow_of(f).is_ok());
        pending_grants.retain(|&f| cm.macroflow_of(f).is_ok());
        peak_flows = peak_flows.max(cm.flow_count());

        // INVARIANT: the CM's structural self-check passes after
        // every single operation.
        if let Err(e) = cm.check_invariants() {
            prop_assert!(false, "invariant violated: {e}");
        }
        // INVARIANT: exactly-one-macroflow partition.
        let mut seen = 0usize;
        for mf_slot in 0..cm.macroflow_slab_capacity() {
            if let Ok(members) = cm.flows_in(MacroflowId(mf_slot as u32)) {
                seen += members.len();
            }
        }
        prop_assert_eq!(seen, cm.flow_count(), "membership partition broken");
    }
    // Drain: everything closes and expires; nothing leaks.
    for f in flows.drain(..) {
        let _ = cm.close(f, now);
    }
    now += Duration::from_secs(30);
    cm.tick(now);
    prop_assert_eq!(cm.flow_count(), 0);
    prop_assert_eq!(cm.macroflow_count(), 0);
    prop_assert!(
        cm.flow_slab_capacity() <= peak_flows,
        "flow slab {} exceeds peak {} (slot leak)",
        cm.flow_slab_capacity(),
        peak_flows
    );
    if let Err(e) = cm.check_invariants() {
        prop_assert!(false, "invariant violated after drain: {e}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// CI's long run of [`fault_churn`], the property that reaches every
    /// cold-record path: `cargo test --release -p cm-core --test props
    /// -- --ignored`.
    #[test]
    #[ignore = "20,000 cases; CI runs it in release"]
    fn invariants_hold_under_fault_churn_20k(
        ops in proptest::collection::vec(fault_op_strategy(), 1..200),
    ) {
        fault_churn(ops)?;
    }
}

/// One arbitrary operation for the fault-churn test, including the
/// hostile-client behaviours.
#[derive(Clone, Debug)]
enum FaultOp {
    Open(u16, u32),
    Close(usize),
    Request(usize),
    /// Honestly notify a granted flow with `frac`/10 of an MTU.
    NotifyReal(usize, u8),
    /// Drop every outstanding grant on the floor (never notify).
    IgnoreGrants,
    /// Feedback with an impossible byte count.
    AbsurdAck(usize),
    /// Feedback with an impossible RTT sample (0 = too small, else huge).
    BogusRtt(usize, u8),
    /// Honest feedback.
    Ack(usize, u16),
    /// Register rate-callback thresholds (indices into the test's
    /// down/up factor tables) or drop the registration.
    SetThresholds(usize, Option<(u8, u8)>),
    SetWeight(usize, u8),
    /// An honest transient-loss report.
    Loss(usize),
    Split(usize),
    /// Move a flow onto another macroflow that `merge` accepts for it.
    Merge(usize, usize),
    Tick(u16),
}

fn fault_op_strategy() -> impl Strategy<Value = FaultOp> {
    prop_oneof![
        (1u16..2000, 1u32..4).prop_map(|(p, d)| FaultOp::Open(p, d)),
        (0usize..16).prop_map(FaultOp::Close),
        (0usize..16).prop_map(FaultOp::Request),
        ((0usize..16), (0u8..=10)).prop_map(|(i, f)| FaultOp::NotifyReal(i, f)),
        proptest::strategy::Just(FaultOp::IgnoreGrants),
        (0usize..16).prop_map(FaultOp::AbsurdAck),
        ((0usize..16), (0u8..2)).prop_map(|(i, k)| FaultOp::BogusRtt(i, k)),
        ((0usize..16), (1u16..3000)).prop_map(|(i, b)| FaultOp::Ack(i, b)),
        ((0usize..16), (0u8..4), (0u8..4))
            .prop_map(|(i, d, u)| FaultOp::SetThresholds(i, Some((d, u)))),
        (0usize..16).prop_map(|i| FaultOp::SetThresholds(i, None)),
        ((0usize..16), (1u8..8)).prop_map(|(i, w)| FaultOp::SetWeight(i, w)),
        (0usize..16).prop_map(FaultOp::Loss),
        (0usize..16).prop_map(FaultOp::Split),
        ((0usize..16), (0usize..16)).prop_map(|(i, j)| FaultOp::Merge(i, j)),
        (1u16..500).prop_map(FaultOp::Tick),
    ]
}
