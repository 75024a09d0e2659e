//! Sharded-CM benchmarks: flow churn against shard count, and the
//! maintenance tick on a mostly-idle host.
//!
//! The roadmap's sharding claim is concrete: with the CM partitioned by
//! aggregation group, a `tick` on a host with many idle groups should
//! cost what the *active* groups cost, not a slab scan over every
//! macroflow on the host. The `tick_1_active_of_16_groups_*` pair
//! measures exactly that (unsharded full scan vs. the quiet-shard
//! skip), and the `open_request_close_10k_*` series shows the 10k-flow
//! churn lifecycle is not taxed by routing through 1, 4, or 16 shards.

use cm_core::api::{CmNotification, CongestionManager};
use cm_core::config::{CmConfig, ShardingConfig};
use cm_core::types::{Endpoint, FeedbackReport, FlowId, FlowKey};
use cm_util::{Duration, Time};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const FLOWS: usize = 10_000;
const GROUPS: u32 = 16;

fn key(i: usize) -> FlowKey {
    FlowKey::new(
        Endpoint::new(1, (i % 60_000) as u16 + 1),
        Endpoint::new(i as u32 % GROUPS + 2, 80),
    )
}

fn sharded_cfg(max_shards: u32) -> CmConfig {
    CmConfig {
        sharding: ShardingConfig::by_group(max_shards),
        pacing: false,
        ..Default::default()
    }
}

/// The full 10k-flow lifecycle across 16 destination groups, routed
/// through 1, 4, or 16 shards: open, request, drain, notify, close.
fn churn_by_shard_count(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharding");
    g.sample_size(10);

    for shards in [1u32, 4, 16] {
        g.bench_function(&format!("open_request_close_10k_{shards}shards"), |b| {
            let mut notes: Vec<CmNotification> = Vec::new();
            b.iter(|| {
                let mut cm = CongestionManager::new(sharded_cfg(shards));
                let now = Time::ZERO;
                let mut flows: Vec<FlowId> = Vec::with_capacity(FLOWS);
                for i in 0..FLOWS {
                    flows.push(cm.open(key(i), now).expect("open"));
                }
                for &f in &flows {
                    cm.request(f, now).expect("request");
                }
                notes.clear();
                cm.drain_notifications_into(&mut notes);
                for &n in &notes {
                    if let CmNotification::SendGrant { flow } = n {
                        cm.notify(flow, 1460, now).expect("notify");
                    }
                }
                for &f in &flows {
                    cm.close(f, now).expect("close");
                }
                black_box((cm.flow_count(), cm.shard_count()));
            });
        });
    }

    // The acceptance scenario: 16 groups, one active, the rest idle,
    // with the realistic cadence of one maintenance tick per traffic
    // round (a host timer firing between bursts). The active group's
    // traffic dirties the CM before every tick, so the unsharded
    // baseline re-scans all 16 macroflow slots each time; the sharded
    // CM scans the one dirty shard's single slot and skips 15 quiet
    // shards in O(1) each.
    let variants: [(&str, CmConfig); 2] = [
        (
            "tick_1_active_of_16_groups_unsharded",
            CmConfig {
                pacing: false,
                ..Default::default()
            },
        ),
        ("tick_1_active_of_16_groups_sharded16", sharded_cfg(16)),
    ];
    for (name, cfg) in variants {
        g.bench_function(name, |b| {
            let mut cm = CongestionManager::new(cfg);
            let mut now = Time::ZERO;
            let active = cm.open(key(0), now).expect("open");
            let _idle: Vec<FlowId> = (1..GROUPS as usize)
                .map(|i| cm.open(key(i), now).expect("open"))
                .collect();
            // Settle: one full scan marks the idle groups quiet.
            cm.tick(now);
            let mut notes: Vec<CmNotification> = Vec::new();
            b.iter(|| {
                now += Duration::from_millis(1);
                cm.request(active, now).expect("request");
                notes.clear();
                cm.drain_notifications_into(&mut notes);
                for &n in &notes {
                    if let CmNotification::SendGrant { flow } = n {
                        let _ = cm.notify(flow, 1460, now);
                    }
                }
                cm.update(
                    active,
                    FeedbackReport::ack(1460, 1).with_rtt(Duration::from_millis(20)),
                    now,
                )
                .expect("update");
                now += Duration::from_millis(1);
                cm.tick(now);
                black_box(cm.stats().tick_mfs_scanned);
            });
        });
    }

    g.finish();
}

criterion_group!(benches, churn_by_shard_count);
criterion_main!(benches);
