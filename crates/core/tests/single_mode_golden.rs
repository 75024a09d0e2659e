//! Golden-file regression pinning the single-threaded CM byte-for-byte.
//!
//! The parallel runtime (`cm_core::runtime`) must not move the
//! in-process paths at all: `ShardingMode::Single` and single-threaded
//! `ByGroup` are the deterministic fallback the golden/figure gates
//! rely on. This test freezes an FNV-1a fingerprint of everything a
//! scripted churn workload can observe — every notification in order,
//! every queried `FlowInfo`, and the final counter block — one line per
//! mode in `tests/golden/single_mode.golden`. Any behavioural drift in
//! the single-threaded engine shows up as a fingerprint mismatch.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p cm-core --test single_mode_golden
//! ```

use cm_core::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
    fn info(&mut self, info: &FlowInfo) {
        self.u64(info.rate.as_bps());
        self.u64(info.srtt.map_or(u64::MAX, Duration::as_nanos));
        self.u64(info.rttvar.as_nanos());
        self.u64(info.loss_rate.to_bits());
        self.u64(info.cwnd);
        self.u64(info.mtu as u64);
    }
    fn note(&mut self, n: &CmNotification) {
        match n {
            CmNotification::SendGrant { flow } => {
                self.u64(1);
                self.u64(u64::from(flow.shard()) << 32 | u64::from(flow.slot()));
            }
            CmNotification::RateChange { flow, info } => {
                self.u64(2);
                self.u64(u64::from(flow.shard()) << 32 | u64::from(flow.slot()));
                self.info(info);
            }
        }
    }
}

fn key(local_port: u16, group: u32) -> FlowKey {
    FlowKey::new(
        Endpoint::new(0x0a00_0001, local_port),
        Endpoint::new(0xc0a8_0000 + group, 80),
    )
}

/// A deterministic churn script: 3 groups x 8 flows, 60 rounds of
/// request/notify/update with periodic loss, threshold registrations,
/// mid-run close/reopen churn, a query sweep and a tick per round.
fn fingerprint_line(label: &str, cfg: CmConfig) -> String {
    let mut cm = CongestionManager::new(cfg);
    let mut fnv = Fnv::new();
    let mut now = Time::ZERO;
    let mut flows: Vec<FlowId> = Vec::new();
    let mut notes = Vec::new();
    let mut notifications = 0u64;

    for g in 0..3u32 {
        for p in 0..8u16 {
            let f = cm.open(key(1000 + (g * 8) as u16 + p, g), now).unwrap();
            if p % 3 == 0 {
                cm.set_thresholds(f, Some(Thresholds::new(0.7, 1.5)))
                    .unwrap();
            }
            flows.push(f);
        }
    }

    for round in 0..60u64 {
        now += Duration::from_millis(15);
        for (i, &f) in flows.iter().enumerate() {
            let i = i as u64;
            if (i + round).is_multiple_of(3) {
                cm.request(f, now).unwrap();
            }
            if (i + round) % 4 == 1 {
                cm.notify(f, 1460, now).unwrap();
                let report = if round % 11 == 5 && i.is_multiple_of(5) {
                    FeedbackReport::loss(LossMode::Transient, 1460)
                } else {
                    FeedbackReport::ack(1460, 1)
                        .with_rtt(Duration::from_millis(30 + (i * 7 + round) % 40))
                };
                cm.update(f, report, now).unwrap();
            }
        }
        // Mid-run churn: retire and replace one flow every 7th round.
        if round % 7 == 3 {
            let f = flows.remove(1);
            cm.close(f, now).unwrap();
            let g = (round % 3) as u32;
            let port = 5000 + round as u16;
            flows.push(cm.open(key(port, g), now).unwrap());
        }
        cm.tick(now);
        notes.clear();
        cm.drain_notifications_into(&mut notes);
        for n in &notes {
            fnv.note(n);
            notifications += 1;
        }
        if round % 10 == 9 {
            for &f in &flows {
                fnv.info(&cm.query(f, now).unwrap());
            }
        }
    }

    cm.check_invariants().unwrap();
    let stats = cm.stats();
    for v in [
        stats.opens,
        stats.closes,
        stats.requests,
        stats.grants,
        stats.notifies,
        stats.updates,
        stats.queries,
        stats.rate_callbacks,
        stats.grants_reclaimed,
        stats.outstanding_reclaimed,
        stats.macroflows_created,
        stats.macroflows_expired,
        stats.shards_created,
        stats.shards_recycled,
        stats.tick_mfs_scanned,
        stats.ring_stalls,
    ] {
        fnv.u64(v);
    }
    format!(
        "{label} fnv={:016x} notifications={notifications} grants={} scanned={}",
        fnv.0, stats.grants, stats.tick_mfs_scanned
    )
}

#[test]
fn single_threaded_modes_match_golden_file() {
    let single = CmConfig::default();
    let by_group = CmConfig {
        sharding: ShardingConfig::by_group(8),
        ..CmConfig::default()
    };
    let current = format!(
        "{}\n{}\n",
        fingerprint_line("single", single),
        fingerprint_line("by_group_inproc", by_group)
    );

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/single_mode.golden");
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
        "single-threaded CM behaviour diverged from the frozen fingerprint in {}; \
         the in-process engine must stay byte-identical (the parallel runtime is \
         opt-in). If the change is intentional, regenerate with UPDATE_GOLDENS=1",
        path.display()
    );
}
