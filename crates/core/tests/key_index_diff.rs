//! The shard's key indexes against the maps they replaced.
//!
//! A shard used to find a flow by its 4-tuple in an
//! `FxHashMap<FlowKey, FlowId>` and a macroflow by its destination address
//! in an `FxHashMap<u64, MacroflowId>`. It now keeps one slot index for
//! each, which holds 8-byte `(hash, slot)` pairs and confirms a candidate
//! against the key its slab slot already holds. The two maps are kept
//! here, out of the library, as the oracle, together with a model of
//! which macroflow every flow is in and how long each empty macroflow has
//! lingered — built from the public API alone. After every operation the
//! CM must agree with the oracle on:
//! - whether `open` of a key is a `DuplicateFlow`, and which macroflow a
//!   fresh flow joins (its group's, or a new one no live macroflow has);
//! - `lookup` of every live key, and of a key drawn at random;
//! - every flow's macroflow, every macroflow's member count, and the
//!   live flow and macroflow counts;
//! - which `merge`s are refused, and why;
//! - which macroflows a `tick` expires, so a group's macroflow lingers
//!   out and the group is later re-opened on a fresh one.
//!
//! `check_invariants`, which checks both indexes entry by entry against
//! the slabs, runs after every operation. Scripts alternate the single
//! shard with two by-group shards, so overflow routing puts several
//! groups in one shard's index. The default run is 256 scripts; the
//! `#[ignore]`d run CI adds is 20,000.

use cm_core::prelude::*;
use cm_util::{DetRng, FxHashMap};

const OPS_PER_SCRIPT: usize = 200;
const LINGER: Duration = Duration::from_millis(100);

/// The oracle's record of one live macroflow.
struct Mf {
    /// `None` for a private macroflow made by `split`.
    group: Option<u64>,
    members: usize,
    empty_since: Option<Time>,
}

struct World {
    cm: CongestionManager,
    now: Time,
    /// The replaced flow-key map.
    key_to_flow: FxHashMap<FlowKey, FlowId>,
    /// The replaced group map.
    group_to_mf: FxHashMap<u64, MacroflowId>,
    /// Every live flow's key and macroflow.
    flows: FxHashMap<FlowId, (FlowKey, MacroflowId)>,
    mfs: FxHashMap<MacroflowId, Mf>,
    /// Live flows in opening order, for drawing one at random.
    order: Vec<FlowId>,
    /// Groups whose macroflow has expired at least once.
    expired_groups: Vec<u64>,
    duplicates: u64,
    reopened: u64,
}

fn random_key(rng: &mut DetRng) -> FlowKey {
    FlowKey::new(
        Endpoint::new(1, 1 + rng.next_bounded(10) as u16),
        Endpoint::new(1 + rng.next_bounded(4) as u32, 80),
    )
}

impl World {
    fn new(sharding: ShardingConfig) -> Self {
        World {
            cm: CongestionManager::new(CmConfig {
                sharding,
                pacing: false,
                macroflow_linger: LINGER,
                ..Default::default()
            }),
            now: Time::ZERO,
            key_to_flow: FxHashMap::default(),
            group_to_mf: FxHashMap::default(),
            flows: FxHashMap::default(),
            mfs: FxHashMap::default(),
            order: Vec::new(),
            expired_groups: Vec::new(),
            duplicates: 0,
            reopened: 0,
        }
    }

    fn pick(&self, rng: &mut DetRng) -> Option<FlowId> {
        (!self.order.is_empty())
            .then(|| self.order[rng.next_bounded(self.order.len() as u64) as usize])
    }

    /// Moves `flow` onto `to` in the model.
    fn relocate(&mut self, flow: FlowId, to: MacroflowId) {
        let entry = self.flows.get_mut(&flow).expect("live flow");
        let from = std::mem::replace(&mut entry.1, to);
        let now = self.now;
        let old = self.mfs.get_mut(&from).expect("live macroflow");
        old.members -= 1;
        if old.members == 0 {
            old.empty_since = Some(now);
        }
        let new = self.mfs.get_mut(&to).expect("live macroflow");
        new.members += 1;
        new.empty_since = None;
    }

    fn open(&mut self, key: FlowKey, trail: &[String]) {
        let now = self.now;
        let result = self.cm.open(key, now);
        if self.key_to_flow.contains_key(&key) {
            assert_eq!(result, Err(CmError::DuplicateFlow), "{}", trail.join("\n"));
            self.duplicates += 1;
            return;
        }
        let flow = result.expect("open of a fresh key");
        assert!(!self.flows.contains_key(&flow), "{flow:?} is already live");
        let mf = self.cm.macroflow_of(flow).expect("live flow");
        let group = key.remote.addr as u64;
        match self.group_to_mf.get(&group) {
            Some(&expected) => assert_eq!(mf, expected, "joined another macroflow"),
            None => {
                assert!(!self.mfs.contains_key(&mf), "{mf:?} is already live");
                self.mfs.insert(
                    mf,
                    Mf {
                        group: Some(group),
                        members: 0,
                        empty_since: None,
                    },
                );
                self.group_to_mf.insert(group, mf);
                if self.expired_groups.contains(&group) {
                    self.reopened += 1;
                }
            }
        }
        let entry = self.mfs.get_mut(&mf).expect("live macroflow");
        entry.members += 1;
        entry.empty_since = None;
        self.key_to_flow.insert(key, flow);
        self.flows.insert(flow, (key, mf));
        self.order.push(flow);
    }

    fn close(&mut self, flow: FlowId) {
        self.cm.close(flow, self.now).expect("close of a live flow");
        let (key, mf) = self.flows.remove(&flow).expect("live flow");
        self.key_to_flow.remove(&key);
        self.order.retain(|&f| f != flow);
        let entry = self.mfs.get_mut(&mf).expect("live macroflow");
        entry.members -= 1;
        if entry.members == 0 {
            entry.empty_since = Some(self.now);
        }
    }

    fn split(&mut self, flow: FlowId) {
        let mf = self
            .cm
            .split(flow, self.now)
            .expect("split of a grant-free flow");
        assert!(!self.mfs.contains_key(&mf), "split reused live {mf:?}");
        self.mfs.insert(
            mf,
            Mf {
                group: None,
                members: 0,
                empty_since: None,
            },
        );
        self.relocate(flow, mf);
    }

    fn merge(&mut self, flow: FlowId, into: MacroflowId, trail: &[String]) {
        let (key, from) = self.flows[&flow];
        let expected = if flow.shard() != into.shard() {
            Err(CmError::CrossShardMerge)
        } else {
            match self.mfs[&into].group {
                Some(g) if g != key.remote.addr as u64 => Err(CmError::DestinationMismatch),
                _ => Ok(()),
            }
        };
        let result = self.cm.merge(flow, into, self.now);
        assert_eq!(result, expected, "{}", trail.join("\n"));
        if result.is_ok() && from != into {
            self.relocate(flow, into);
        }
    }

    fn tick(&mut self, ms: u64) {
        self.now += Duration::from_millis(ms);
        let now = self.now;
        self.cm.tick(now);
        let expired: Vec<MacroflowId> = self
            .mfs
            .iter()
            .filter(|(_, m)| m.empty_since.is_some_and(|t| now.since(t) >= LINGER))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            if let Some(group) = self.mfs.remove(&id).and_then(|m| m.group) {
                assert_eq!(self.group_to_mf.remove(&group), Some(id));
                if !self.expired_groups.contains(&group) {
                    self.expired_groups.push(group);
                }
            }
        }
    }

    /// The CM against the oracle, after every operation.
    fn check(&self, probe: &FlowKey, trail: &[String]) {
        let fail = |what: String| panic!("{what}\nafter:\n{}", trail.join("\n"));
        if let Err(e) = self.cm.check_invariants() {
            fail(format!("invariant violated: {e}"));
        }
        if self.cm.lookup(probe) != self.key_to_flow.get(probe).copied() {
            fail(format!("lookup({probe:?}) differs from the key map"));
        }
        for (&flow, &(key, mf)) in &self.flows {
            if self.cm.lookup(&key) != Some(flow) {
                fail(format!("lookup({key:?}) does not find {flow:?}"));
            }
            if self.cm.macroflow_of(flow) != Ok(mf) {
                fail(format!("{flow:?} is not in {mf:?}"));
            }
        }
        for (&id, m) in &self.mfs {
            match self.cm.flows_in(id) {
                Ok(members) if members.len() == m.members => {}
                other => fail(format!("{id:?} members {other:?}, model {}", m.members)),
            }
        }
        if self.cm.flow_count() != self.flows.len() {
            fail(format!(
                "{} flows, model {}",
                self.cm.flow_count(),
                self.flows.len()
            ));
        }
        if self.cm.macroflow_count() != self.mfs.len() {
            fail(format!(
                "{} macroflows, model {}",
                self.cm.macroflow_count(),
                self.mfs.len()
            ));
        }
    }

    fn step(&mut self, rng: &mut DetRng, trail: &mut Vec<String>) {
        self.now += Duration::from_millis(7);
        match rng.next_bounded(100) {
            0..=29 => {
                let key = random_key(rng);
                trail.push(format!("open({key:?})"));
                self.open(key, trail);
            }
            30..=44 => {
                let Some(f) = self.pick(rng) else { return };
                trail.push(format!("close({f:?})"));
                self.close(f);
            }
            45..=52 => {
                let Some(f) = self.pick(rng) else { return };
                trail.push(format!("split({f:?})"));
                self.split(f);
            }
            53..=64 => {
                let (Some(f), Some(g)) = (self.pick(rng), self.pick(rng)) else {
                    return;
                };
                // Half the time the flow's own group's macroflow, which
                // may be lingering empty; else wherever another flow is.
                let group = self.flows[&f].0.remote.addr as u64;
                let into = match self.group_to_mf.get(&group) {
                    Some(&home) if rng.next_bounded(2) == 0 => home,
                    _ => self.flows[&g].1,
                };
                trail.push(format!("merge({f:?}, {into:?})"));
                self.merge(f, into, trail);
            }
            65..=74 => trail.push("lookup".to_string()),
            _ => {
                let ms = 1 + rng.next_bounded(300);
                trail.push(format!("tick(+{ms} ms)"));
                self.tick(ms);
            }
        }
        let probe = random_key(rng);
        self.check(&probe, trail);
    }
}

/// Runs `n` scripts and returns the duplicate opens refused and the
/// groups re-opened after their macroflow expired.
fn scripts(n: usize) -> (u64, u64) {
    let root = DetRng::seed(41).split("key_index_diff");
    let (mut duplicates, mut reopened) = (0, 0);
    for script in 0..n {
        let sharding = if script % 2 == 0 {
            ShardingConfig::default()
        } else {
            ShardingConfig::by_group(2)
        };
        let mut rng = root.split(&format!("script {script}"));
        let mut world = World::new(sharding);
        let mut trail = vec![format!("{sharding:?}, script {script}")];
        for _ in 0..OPS_PER_SCRIPT {
            world.step(&mut rng, &mut trail);
        }
        duplicates += world.duplicates;
        reopened += world.reopened;
    }
    (duplicates, reopened)
}

#[test]
fn key_indexes_match_the_replaced_maps() {
    let (duplicates, reopened) = scripts(256);
    // Measured: 3,825 and 1,568. A run that seldom refused a duplicate or
    // re-opened an expired group would not exercise what the indexes
    // replaced.
    assert!(
        duplicates > 2_560,
        "256 scripts refused only {duplicates} duplicates"
    );
    assert!(
        reopened > 1_024,
        "256 scripts re-opened only {reopened} groups"
    );
}

/// CI's long run: `cargo test --release -p cm-core --test key_index_diff
/// -- --ignored`.
#[test]
#[ignore = "20,000 scripts; CI runs it in release"]
fn twenty_thousand_scripts_match_the_replaced_maps() {
    scripts(20_000);
}
