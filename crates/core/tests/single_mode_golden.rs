//! Golden-file regression pinning the single-threaded CM byte-for-byte.
//!
//! The parallel runtime (`cm_core::runtime`) must not move the
//! in-process paths at all: `ShardingMode::Single` and single-threaded
//! `ByGroup` are the deterministic fallback the golden/figure gates
//! rely on. This test freezes an FNV-1a fingerprint of everything a
//! scripted churn workload can observe — every notification in order,
//! every queried `FlowInfo`, and the final counter block — one line per
//! mode in `tests/golden/single_mode.golden`. Any behavioural drift in
//! the single-threaded engine shows up as a fingerprint mismatch. A third
//! line, `defense`, freezes the paths of the feedback and unresponsive-app
//! defenses, which the churn script never takes.
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
    fn result<T>(&mut self, r: &Result<T, CmError>) {
        match r {
            Ok(_) => self.u64(0),
            Err(e) => {
                self.u64(1);
                for b in format!("{e:?}").bytes() {
                    self.u64(u64::from(b));
                }
            }
        }
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

/// What one flow of the defense script does.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// Reports impossible byte counts in rounds 10..30: rejected, then
    /// quarantined, then (two seconds on) back on a clean slate.
    Absurd,
    /// Reports impossible RTT samples in rounds 10..30 (one honest report
    /// breaks the first streak): clamped, then quarantined.
    Clamped,
    /// Ignores its grants until round 60: reclaims, backoff and parked
    /// requests, released by its first notify. Ignores them again in
    /// rounds 100..130, which must start a fresh streak at backoff level
    /// zero, because that notify reset both.
    IgnoresUntilNotify,
    /// Requests and ignores its grants until round 40, then falls silent:
    /// the tick releases its parked requests, and orphan reaping closes it.
    IgnoresThenSilent,
    /// Falls silent after round 20 and is reaped as an orphan.
    Orphan,
    /// Registers thresholds at open, drops them at round 30, registers
    /// again at round 50, splits at round 70 and merges back at round 110.
    Migrant,
    /// Drops thresholds it never had at round 5, registers at round 90.
    LateRegistrant,
    /// Closed and replaced every 20 rounds; each replacement registers.
    Churned,
}

const ROLES: [Role; 8] = [
    Role::Absurd,
    Role::Clamped,
    Role::IgnoresUntilNotify,
    Role::IgnoresThenSilent,
    Role::Orphan,
    Role::Migrant,
    Role::LateRegistrant,
    Role::Churned,
];

struct Member {
    id: Option<FlowId>,
    key: FlowKey,
    role: Role,
    home: Option<MacroflowId>,
}

impl Member {
    /// Whether the flow answers the grants it is given in `round`.
    fn responsive(&self, round: u64) -> bool {
        match self.role {
            Role::IgnoresUntilNotify => (60..100).contains(&round) || round >= 130,
            Role::IgnoresThenSilent => false,
            Role::Orphan => round < 20,
            _ => true,
        }
    }

    /// Whether the flow makes any API call in `round`.
    fn active(&self, round: u64) -> bool {
        match self.role {
            Role::IgnoresThenSilent => round < 40,
            Role::Orphan => round < 20,
            _ => true,
        }
    }
}

/// The defense script: 3 groups x 8 flows, one of each [`Role`], 160
/// rounds of 50 ms with orphan reaping armed. Every grant a responsive
/// flow receives is notified and acknowledged; the two flows of group 0
/// that end up quarantined and backing off are closed and replaced at
/// round 45, so recycled slots must start clean.
fn defense_line() -> String {
    let cfg = CmConfig {
        orphan_timeout: Some(Duration::from_secs(3)),
        ..CmConfig::default()
    };
    let mut cm = CongestionManager::new(cfg);
    let mut fnv = Fnv::new();
    let mut now = Time::ZERO;
    let mut members: Vec<Member> = Vec::new();
    let mut notes = Vec::new();
    let mut notifications = 0u64;
    let mut next_port = 7000u16;
    let register = Some(Thresholds::new(0.8, 1.25));

    for g in 0..3u32 {
        for (p, &role) in ROLES.iter().enumerate() {
            let key = key(3000 + (g * 8) as u16 + p as u16, g);
            let id = cm.open(key, now).unwrap();
            if matches!(role, Role::Migrant | Role::Churned) {
                cm.set_thresholds(id, register).unwrap();
            }
            members.push(Member {
                id: Some(id),
                key,
                role,
                home: None,
            });
        }
    }

    for round in 0..160u64 {
        now += Duration::from_millis(50);
        for (i, m) in members.iter_mut().enumerate() {
            let Some(f) = m.id else { continue };
            if !m.active(round) {
                continue;
            }
            let bad = (10..30).contains(&round);
            // A clamped reporter sends nothing else while misbehaving: an
            // honest report would reset its streak.
            let quiet = m.role == Role::Clamped && (5..30).contains(&round);
            if !quiet && ((i as u64 + round).is_multiple_of(2) || !m.responsive(round)) {
                fnv.result(&cm.request(f, now));
            }
            match m.role {
                Role::Absurd if bad => {
                    fnv.result(&cm.update(f, FeedbackReport::ack(3 << 30, 1), now));
                }
                Role::Clamped if bad => {
                    let report = if round == 13 {
                        FeedbackReport::ack(0, 0).with_rtt(Duration::from_millis(40))
                    } else if round % 2 == 0 {
                        FeedbackReport::ack(0, 0).with_rtt(Duration::ZERO)
                    } else {
                        FeedbackReport::ack(0, 0).with_rtt(Duration::from_secs(400))
                    };
                    fnv.result(&cm.update(f, report, now));
                }
                Role::Absurd | Role::Clamped if round % 5 == 0 => {
                    // Honest reports that the quarantine turns away until
                    // it lapses.
                    let report = FeedbackReport::ack(0, 1).with_rtt(Duration::from_millis(35));
                    fnv.result(&cm.update(f, report, now));
                }
                Role::IgnoresUntilNotify if round == 60 => {
                    // Proof of life without a grant in hand.
                    fnv.result(&cm.notify(f, 0, now));
                }
                Role::Migrant => match round {
                    30 => fnv.result(&cm.set_thresholds(f, None)),
                    50 => fnv.result(&cm.set_thresholds(f, register)),
                    70 => {
                        m.home = cm.macroflow_of(f).ok();
                        fnv.result(&cm.split(f, now));
                    }
                    110 => {
                        if let Some(home) = m.home {
                            fnv.result(&cm.merge(f, home, now));
                        }
                    }
                    _ => {}
                },
                Role::LateRegistrant => match round {
                    5 => fnv.result(&cm.set_thresholds(f, None)),
                    90 => fnv.result(&cm.set_thresholds(f, register)),
                    _ => {}
                },
                Role::Churned if round % 20 == 19 => {
                    fnv.result(&cm.close(f, now));
                    m.key = key(next_port, (i / 8) as u32);
                    next_port += 1;
                    let id = cm.open(m.key, now).unwrap();
                    fnv.result(&cm.set_thresholds(id, register));
                    m.id = Some(id);
                }
                _ => {}
            }
        }
        if round == 45 {
            // Retire group 0's quarantined and backing-off flows; their
            // replacements reuse the slots and must start clean.
            for m in members.iter_mut().take(3) {
                if let Some(f) = m.id {
                    fnv.result(&cm.close(f, now));
                    m.key = key(next_port, 0);
                    next_port += 1;
                    m.id = Some(cm.open(m.key, now).unwrap());
                }
            }
        }
        cm.tick(now);
        // Forget the flows orphan reaping closed.
        for m in &mut members {
            if m.id.is_some() && cm.lookup(&m.key) != m.id {
                m.id = None;
                fnv.u64(3);
            }
        }
        notes.clear();
        cm.drain_notifications_into(&mut notes);
        for n in &notes {
            fnv.note(n);
            notifications += 1;
            let CmNotification::SendGrant { flow } = *n else {
                continue;
            };
            let Some(m) = members.iter().find(|m| m.id == Some(flow)) else {
                continue;
            };
            if m.responsive(round) {
                fnv.result(&cm.notify(flow, 1460, now));
                let rtt = Duration::from_millis(30 + round % 20);
                let report = FeedbackReport::ack(1460, 1).with_rtt(rtt);
                fnv.result(&cm.update(flow, report, now));
            }
        }
        if round % 10 == 9 {
            for m in &members {
                if let Some(f) = m.id.filter(|_| m.active(round)) {
                    fnv.u64(u64::from(cm.pending_of(f).unwrap_or(u32::MAX)));
                    let info = cm.query(f, now);
                    fnv.result(&info);
                    if let Ok(info) = info {
                        fnv.info(&info);
                    }
                }
            }
        }
        cm.check_invariants().unwrap();
    }

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
        stats.rate_walks,
        stats.grants_reclaimed,
        stats.feedback_rejected,
        stats.feedback_clamped,
        stats.flows_quarantined,
        stats.grant_backoffs,
        stats.flows_reaped,
        stats.tick_mfs_scanned,
    ] {
        fnv.u64(v);
    }
    format!(
        "defense fnv={:016x} notifications={notifications} grants={} rejected={} clamped={} \
         quarantined={} reclaimed={} backoffs={} reaped={} callbacks={}",
        fnv.0,
        stats.grants,
        stats.feedback_rejected,
        stats.feedback_clamped,
        stats.flows_quarantined,
        stats.grants_reclaimed,
        stats.grant_backoffs,
        stats.flows_reaped,
        stats.rate_callbacks
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
        "{}\n{}\n{}\n",
        fingerprint_line("single", single),
        fingerprint_line("by_group_inproc", by_group),
        defense_line()
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
