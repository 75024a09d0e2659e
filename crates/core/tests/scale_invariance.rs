//! Scale invariance of the rate-callback check, stated as counts.
//!
//! Every `update`, and every macroflow a `tick` scans, asks whether some
//! member's rate callback is due. The answer is one comparison against
//! the macroflow's quiet band unless the unit share has left the band;
//! only then are the members walked (`CmStats::rate_walks`). This test
//! drives the repo benchmark's `cm_fanin` op stream — thresholds on every
//! 8th flow, ack + RTT updates with one transient loss in 512, close/open
//! churn, a `tick` per round — at 8 to 4,096 members per macroflow and
//! asserts that the share of checks that walk stays under one bound at
//! every size: per-update cost does not grow with fan-in.
//!
//! Nor does the cost of a walk. Each flow's own band sits at its slab
//! slot, and a walk runs the exact test only on the members whose own
//! band was left (`CmStats::rate_rechecks`):
//! `a_walk_re_examines_the_members_it_calls_back_not_the_members_it_has`
//! holds re-checks per walk to callbacks per walk plus a constant, with
//! thresholds on every member and on every 8th, and holds walks and
//! callbacks to the counts the stream produced before the change.
//!
//! The second axis is macroflow count. A flow's scheduler state sits at
//! its slot of one slab the shard's macroflows share, so a request does
//! the same things whether the shard holds 8 macroflows or 2,048:
//! `per_request_work_does_not_depend_on_macroflow_count` runs one op
//! stream at both sizes and demands equal counters and a scheduler slab
//! exactly as long as the flow slab.

use cm_core::prelude::*;
use cm_core::CmStats;
use cm_util::DetRng;

const DESTS: usize = 2;
const MTU: u64 = 1460;
const WINDOW: usize = 64;
/// Rounds before counting starts: the churn has replaced the whole
/// population once and both controllers are long past slow start.
const WARMUP_ROUNDS: usize = 512;
const ROUNDS: usize = 1_024;
/// The bound: at most one band check in `MAX_WALK_SHARE` walks. Measured:
/// 1 in 737 (8 members), 1 in 1,107 (64), 1 in 558 (1,024), 1 in 625
/// (4,096) — a walk needs a threshold crossing, and those come with
/// losses, not with members — so the bound is the worst size with about
/// 4x headroom. A CM that walked on every check would read 1 in 1.
const MAX_WALK_SHARE: u64 = 128;

struct Stream {
    cm: CongestionManager,
    flows: Vec<FlowId>,
    next_key: usize,
    request_at: usize,
    churn_at: usize,
    now: Time,
    rng: DetRng,
    notes: Vec<CmNotification>,
    /// Thresholds go on every `register_every`-th flow opened.
    register_every: usize,
}

impl Stream {
    fn open(members: usize, register_every: usize) -> Self {
        let mut s = Stream {
            cm: CongestionManager::new(CmConfig {
                pacing: false,
                ..Default::default()
            }),
            flows: Vec::new(),
            next_key: 0,
            request_at: 0,
            churn_at: 0,
            now: Time::ZERO,
            rng: DetRng::seed(18).split("scale_invariance"),
            notes: Vec::new(),
            register_every,
        };
        for _ in 0..members * DESTS {
            let f = s.open_next();
            s.flows.push(f);
        }
        s
    }

    fn open_next(&mut self) -> FlowId {
        let i = self.next_key;
        self.next_key += 1;
        let key = FlowKey::new(
            Endpoint::new(1 + (i / 60_000) as u32, (i % 60_000) as u16 + 1),
            Endpoint::new(0x0a00_0000 + (i % DESTS) as u32, 80),
        );
        let flow = self.cm.open(key, self.now).expect("open");
        if i.is_multiple_of(self.register_every) {
            self.cm
                .set_thresholds(flow, Some(Thresholds::default()))
                .expect("set_thresholds");
        }
        flow
    }

    fn round(&mut self) {
        self.now += Duration::from_millis(1);
        let now = self.now;
        let n = self.flows.len();
        for j in 0..WINDOW.min(n) {
            self.cm
                .request(self.flows[(self.request_at + j) % n], now)
                .expect("request");
        }
        self.request_at = (self.request_at + WINDOW) % n;
        loop {
            self.notes.clear();
            self.cm.drain_notifications_into(&mut self.notes);
            if self.notes.is_empty() {
                break;
            }
            for note in &self.notes {
                let CmNotification::SendGrant { flow } = *note else {
                    continue;
                };
                self.cm.notify(flow, MTU, now).expect("notify");
                let r = self.rng.next_u64();
                let report = if r & 511 == 0 {
                    FeedbackReport::loss(LossMode::Transient, MTU)
                } else {
                    let jitter = Duration::from_micros((r >> 9) % 2_000);
                    FeedbackReport::ack(MTU, 1).with_rtt(Duration::from_millis(40) + jitter)
                };
                self.cm.update(flow, report, now).expect("update");
            }
        }
        // A 128th of the population leaves and is replaced, as in the
        // benchmark (128 of 16,384).
        for _ in 0..(n / 128).max(1) {
            self.cm
                .close(self.flows[self.churn_at], now)
                .expect("close");
            self.flows[self.churn_at] = self.open_next();
            self.churn_at = (self.churn_at + 1) % n;
        }
        self.cm.tick(now);
    }
}

/// Runs the stream at `members` per macroflow with thresholds on every
/// `register_every`-th flow: the counters before and after the counted
/// rounds.
fn counted(members: usize, register_every: usize) -> (CmStats, CmStats) {
    let mut s = Stream::open(members, register_every);
    for _ in 0..WARMUP_ROUNDS {
        s.round();
    }
    let before = s.cm.stats();
    for _ in 0..ROUNDS {
        s.round();
    }
    assert_eq!(s.cm.macroflow_count(), DESTS);
    s.cm.check_invariants().expect("invariants");
    (before, s.cm.stats())
}

#[test]
fn rate_walks_per_check_do_not_grow_with_members() {
    for members in [8, 64, 1_024, 4_096] {
        let (before, after) = counted(members, 8);
        let checks = after.updates - before.updates + (ROUNDS * DESTS) as u64;
        let walks = after.rate_walks - before.rate_walks;
        let callbacks = after.rate_callbacks - before.rate_callbacks;
        assert!(callbacks > 0, "{members} members: no rate callback fired");
        assert!(
            walks * MAX_WALK_SHARE <= checks,
            "{members} members per macroflow: {walks} member walks in {checks} \
             rate-callback checks ({callbacks} callbacks) exceeds 1 in {MAX_WALK_SHARE}"
        );
    }
}

/// What the stream produced before a flow's quiet band moved to its slab
/// slot (PR 23's tree), per `(register_every, members)`: `rate_walks` and
/// `rate_callbacks` over the counted rounds. The macroflow's band is still
/// the intersection of its members' bands and the exact test still
/// decides every callback, so neither count may move.
const BEFORE_FLOW_BANDS: [(usize, usize, u64, u64); 8] = [
    (1, 8, 95, 154),
    (1, 64, 120, 2_875),
    (1, 1_024, 157, 47_112),
    (1, 4_096, 142, 188_864),
    (8, 8, 25, 16),
    (8, 64, 61, 436),
    (8, 1_024, 121, 7_216),
    (8, 4_096, 108, 28_968),
];
/// Members a walk may run the exact test on beyond those it calls back.
/// Measured: 61 over 120 walks at 64 members with every member
/// registered, 15 over 61 walks with every 8th, none at 8, 1,024 and
/// 4,096 — a member's band is left when its thresholds are crossed, give
/// or take the band's 1e-9 slack, which a share sitting exactly on a
/// bound falls into.
const MAX_IDLE_RECHECKS_PER_WALK: u64 = 2;

#[test]
fn a_walk_re_examines_the_members_it_calls_back_not_the_members_it_has() {
    for (register_every, members, walks_before, callbacks_before) in BEFORE_FLOW_BANDS {
        let (before, after) = counted(members, register_every);
        let at = format!("{members} members, thresholds on every {register_every}");
        let walks = after.rate_walks - before.rate_walks;
        let callbacks = after.rate_callbacks - before.rate_callbacks;
        let rechecks = after.rate_rechecks - before.rate_rechecks;
        assert_eq!((walks, callbacks), (walks_before, callbacks_before), "{at}");
        assert!(
            callbacks <= rechecks && rechecks <= callbacks + walks * MAX_IDLE_RECHECKS_PER_WALK,
            "{at}: {walks} walks re-examined {rechecks} members for {callbacks} callbacks"
        );
    }
}

#[test]
fn per_request_work_does_not_depend_on_macroflow_count() {
    const MEMBERS: usize = 8;
    const CYCLES: usize = 32_768;
    let run = |dests: usize| {
        let mut cm = CongestionManager::new(CmConfig {
            pacing: false,
            ..Default::default()
        });
        let flows: Vec<FlowId> = (0..dests * MEMBERS)
            .map(|i| {
                let key = FlowKey::new(
                    Endpoint::new(1 + (i / 60_000) as u32, (i % 60_000) as u16 + 1),
                    Endpoint::new(0x0a00_0000 + (i % dests) as u32, 80),
                );
                cm.open(key, Time::ZERO).expect("open")
            })
            .collect();
        assert_eq!(cm.macroflow_count(), dests);
        let mut notes = Vec::new();
        let mut now = Time::ZERO;
        for i in 0..CYCLES {
            now += Duration::from_micros(50);
            let flow = flows[i % flows.len()];
            cm.request(flow, now).expect("request");
            cm.drain_notifications_into(&mut notes);
            assert!(
                matches!(notes[..], [CmNotification::SendGrant { flow: f }] if f == flow),
                "{dests} macroflows, cycle {i}: {notes:?}"
            );
            notes.clear();
            cm.notify(flow, MTU, now).expect("notify");
            let report = FeedbackReport::ack(MTU, 1).with_rtt(Duration::from_millis(40));
            cm.update(flow, report, now).expect("update");
            if i % 8 == 0 {
                cm.query(flow, now).expect("query");
            }
        }
        // `check_invariants` holds the scheduler slab to the flow slab's
        // length and walks every macroflow's rotation through it.
        cm.check_invariants().expect("invariants");
        assert_eq!(cm.flow_slab_capacity(), flows.len());
        cm.stats()
    };
    let (few, many) = (run(8), run(2_048));
    assert_eq!(few.grants, CYCLES as u64);
    assert_eq!(
        CmStats {
            opens: few.opens,
            macroflows_created: few.macroflows_created,
            ..many
        },
        few,
        "the same {CYCLES} request cycles counted differently at 2,048 macroflows"
    );
}
