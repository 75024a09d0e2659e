//! The rate-callback walk against the walk it replaced.
//!
//! A band exit used to visit every member of the macroflow, load its
//! `Flow` and run [`Thresholds::crossed`] on the share it was last told
//! and the share it has now. The CM now keeps each registered flow's own
//! quiet band at its slab slot and runs that test only on the members
//! whose band the unit share has left. The full walk is kept here, out of
//! the library, as the oracle: a model that tracks, through the public API
//! alone, every registered flow's thresholds and last-told share, and
//! after every accepted `update` (the reporting flow's macroflow) and
//! every `tick` (every macroflow, in slab order) demands that the drained
//! [`CmNotification::RateChange`]s are exactly the members for which
//! `crossed(last, share)` holds, in member-list order, each carrying the
//! [`FlowInfo`] a query would return. No other entry point may emit one.
//! `check_invariants` — which holds every slot's band to what its flow's
//! registration makes, and every macroflow's band inside its members' —
//! runs after every operation.
//!
//! Scripts draw from `props.rs`' alphabet (open, close, ack, loss,
//! thresholds set and dropped, weight, split, merge, tick) over
//! both schedulers. The default run is 256 scripts; the `#[ignore]`d
//! run CI adds is 20,000.

use cm_core::prelude::*;
use cm_util::{DetRng, FxHashMap};

const KINDS: [SchedulerKind; 2] = [SchedulerKind::RoundRobin, SchedulerKind::WeightedRoundRobin];
const OPS_PER_SCRIPT: usize = 200;
/// Threshold factors a script registers with; `(1.0, 1.0)` is crossed by
/// every share, so its holder is told at every check.
const DOWN: [f64; 4] = [0.5, 0.8, 0.95, 1.0];
const UP: [f64; 4] = [1.0, 1.05, 1.5, 2.0];

struct World {
    cm: CongestionManager,
    now: Time,
    flows: Vec<FlowId>,
    /// Each live flow's destination, and whether it sits on a private
    /// macroflow (split off, or merged onto a flow that was): which
    /// macroflows `merge` accepts for it.
    homes: FxHashMap<FlowId, (u32, bool)>,
    /// The model: thresholds and last-told share of every registered flow.
    told: FxHashMap<FlowId, (Thresholds, Rate)>,
    notes: Vec<CmNotification>,
    /// Callbacks the script's checks expected (and saw), so a run can
    /// show it exercised the emission path at all.
    callbacks: u64,
}

impl World {
    fn new(kind: SchedulerKind) -> Self {
        World {
            // No orphan reaping: it could close a member between a walk
            // and the oracle's reading of the shares it saw.
            cm: CongestionManager::new(CmConfig {
                scheduler: kind,
                pacing: false,
                macroflow_linger: Duration::from_millis(500),
                ..Default::default()
            }),
            now: Time::ZERO,
            flows: Vec::new(),
            homes: FxHashMap::default(),
            told: FxHashMap::default(),
            notes: Vec::new(),
            callbacks: 0,
        }
    }

    fn pick(&self, rng: &mut DetRng) -> Option<FlowId> {
        (!self.flows.is_empty())
            .then(|| self.flows[rng.next_bounded(self.flows.len() as u64) as usize])
    }

    /// A flow whose macroflow `merge` accepts for `f` — its own
    /// destination's or a private one — other than `f`'s current one,
    /// and that macroflow; `None` when there is none.
    fn merge_target(&self, f: FlowId, rng: &mut DetRng) -> Option<(FlowId, MacroflowId)> {
        let dst = self.homes[&f].0;
        let home = self.cm.macroflow_of(f).expect("live flow");
        let targets: Vec<(FlowId, MacroflowId)> = self
            .flows
            .iter()
            .filter(|g| matches!(self.homes[g], (d, private) if d == dst || private))
            .map(|&g| (g, self.cm.macroflow_of(g).expect("live flow")))
            .filter(|&(_, mf)| mf != home)
            .collect();
        (!targets.is_empty()).then(|| targets[rng.next_bounded(targets.len() as u64) as usize])
    }

    /// The replaced walk over one macroflow: every registered member, in
    /// member order, judged by the exact test; the model's last-told
    /// share moves with each callback it expects.
    fn walk(&mut self, mf: MacroflowId, expected: &mut Vec<CmNotification>) {
        let Ok(members) = self.cm.flows_in(mf) else {
            return;
        };
        for &flow in members {
            let Some((thresholds, last)) = self.told.get_mut(&flow) else {
                continue;
            };
            let info = self.cm.flow_info(flow).expect("member is live");
            if thresholds.crossed(*last, info.rate) {
                expected.push(CmNotification::RateChange { flow, info });
                *last = info.rate;
            }
        }
    }

    /// Drains the outbox and holds its rate callbacks to `expected`.
    fn settle(&mut self, expected: &[CmNotification], trail: &[String]) {
        self.notes.clear();
        self.cm.drain_notifications_into(&mut self.notes);
        self.notes
            .retain(|n| matches!(n, CmNotification::RateChange { .. }));
        assert_eq!(
            self.notes,
            expected,
            "rate callbacks differ from the full walk's after:\n{}",
            trail.join("\n")
        );
        self.callbacks += expected.len() as u64;
        if let Err(e) = self.cm.check_invariants() {
            panic!("invariant violated: {e}\nafter:\n{}", trail.join("\n"));
        }
    }

    fn step(&mut self, rng: &mut DetRng, trail: &mut Vec<String>) {
        self.now += Duration::from_millis(7);
        let now = self.now;
        let mut expected = Vec::new();
        match rng.next_bounded(100) {
            0..=11 => {
                let key = FlowKey::new(
                    Endpoint::new(1, 1 + rng.next_bounded(2_000) as u16),
                    Endpoint::new(1 + rng.next_bounded(3) as u32, 80),
                );
                trail.push(format!("open({key:?})"));
                if let Ok(f) = self.cm.open(key, now) {
                    self.flows.push(f);
                    self.homes.insert(f, (key.remote.addr, false));
                }
            }
            12..=17 => {
                let Some(f) = self.pick(rng) else { return };
                trail.push(format!("close({f:?})"));
                self.cm.close(f, now).expect("close of a live flow");
                self.flows.retain(|&g| g != f);
                self.homes.remove(&f);
                self.told.remove(&f);
            }
            18..=44 => {
                let Some(f) = self.pick(rng) else { return };
                let bytes = 1 + rng.next_bounded(3_000);
                let rtt = Duration::from_millis(10 + rng.next_bounded(60));
                trail.push(format!("ack({f:?}, {bytes}, {rtt:?})"));
                let report = FeedbackReport::ack(bytes, 1).with_rtt(rtt);
                if self.cm.update(f, report, now).is_ok() {
                    let mf = self.cm.macroflow_of(f).expect("live flow");
                    self.walk(mf, &mut expected);
                }
            }
            45..=52 => {
                let Some(f) = self.pick(rng) else { return };
                let mode = [LossMode::Transient, LossMode::Persistent, LossMode::Ecn]
                    [rng.next_bounded(3) as usize];
                trail.push(format!("loss({f:?}, {mode:?})"));
                if self
                    .cm
                    .update(f, FeedbackReport::loss(mode, 1460), now)
                    .is_ok()
                {
                    let mf = self.cm.macroflow_of(f).expect("live flow");
                    self.walk(mf, &mut expected);
                }
            }
            53..=66 => {
                let Some(f) = self.pick(rng) else { return };
                let thresholds = (rng.next_bounded(4) != 0).then(|| {
                    Thresholds::new(
                        DOWN[rng.next_bounded(4) as usize],
                        UP[rng.next_bounded(4) as usize],
                    )
                });
                trail.push(format!("set_thresholds({f:?}, {thresholds:?})"));
                self.cm
                    .set_thresholds(f, thresholds)
                    .expect("thresholds on a live flow");
                // A registration starts from the share the flow has now.
                let share = self.cm.flow_info(f).expect("live flow").rate;
                match thresholds {
                    Some(t) => self.told.insert(f, (t, share)),
                    None => self.told.remove(&f),
                };
            }
            67..=74 => {
                let Some(f) = self.pick(rng) else { return };
                let weight = 1 + rng.next_bounded(7) as u32;
                trail.push(format!("set_weight({f:?}, {weight})"));
                self.cm
                    .set_weight(f, weight)
                    .expect("weight of a live flow");
            }
            75..=79 => {
                let Some(f) = self.pick(rng) else { return };
                trail.push(format!("split({f:?})"));
                self.cm.split(f, now).expect("split of a grant-free flow");
                self.homes.entry(f).and_modify(|h| h.1 = true);
            }
            80..=87 => {
                let Some(f) = self.pick(rng) else { return };
                let Some((g, target)) = self.merge_target(f, rng) else {
                    return;
                };
                trail.push(format!("merge({f:?}, {target:?})"));
                self.cm
                    .merge(f, target, now)
                    .expect("merge of a grant-free flow onto a macroflow it may join");
                let private = self.homes[&g].1;
                self.homes.entry(f).and_modify(|h| h.1 = private);
            }
            _ => {
                let ms = 1 + rng.next_bounded(500);
                trail.push(format!("tick(+{ms} ms)"));
                self.now += Duration::from_millis(ms);
                self.cm.tick(self.now);
                for slot in 0..self.cm.macroflow_slab_capacity() {
                    self.walk(MacroflowId(slot as u32), &mut expected);
                }
            }
        }
        self.settle(&expected, trail);
    }
}

/// Runs `n` scripts and returns the callbacks they checked.
fn scripts(n: usize) -> u64 {
    let root = DetRng::seed(24).split("rate_callback_diff");
    let mut callbacks = 0;
    for script in 0..n {
        let kind = KINDS[script % KINDS.len()];
        let mut rng = root.split(&format!("script {script}"));
        let mut world = World::new(kind);
        let mut trail = vec![format!("{kind:?}, script {script}")];
        for _ in 0..OPS_PER_SCRIPT {
            world.step(&mut rng, &mut trail);
        }
        callbacks += world.callbacks;
    }
    callbacks
}

#[test]
fn rate_callbacks_match_the_full_walk() {
    let callbacks = scripts(256);
    // Measured: 18,910. A run that checked a handful would be a run whose
    // scripts never left a band.
    assert!(
        callbacks > 2_560,
        "256 scripts saw only {callbacks} callbacks"
    );
}

/// CI's long run: `cargo test --release -p cm-core --test
/// rate_callback_diff -- --ignored`.
#[test]
#[ignore = "20,000 scripts; CI runs it in release"]
fn twenty_thousand_scripts_match_the_full_walk() {
    scripts(20_000);
}
