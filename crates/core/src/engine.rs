//! The one shard engine under both CM fronts.
//!
//! [`crate::api::CongestionManager`] (shards driven by the calling
//! thread) and [`crate::runtime::ShardRuntime`] (shards driven by worker
//! threads) make the same two decisions, so both are made here, once:
//!
//! * [`Router`] — *which shard does this group get*: the group→shard
//!   map, index allocation (recycled indices first, then the next unused
//!   one), the `max_shards` cap, and the deterministic hash-share past
//!   it.
//! * [`ShardTable`] — *how a shard at an index is created, reached,
//!   ticked, folded, and validated*: create-or-reuse from the shell
//!   pool, id-routed access with the dirty mark, the maintenance walk
//!   with the quiet-shard skip and its accounting, the stats fold, the
//!   invariant sweep, and the outbox drain.
//!
//! The in-process front is `Router` + one table. The runtime keeps the
//! `Router` on its serial front and deals the table out to its workers
//! by `index % workers` ([`ShardTable::deal`]).

use cm_obs::{TraceEvent, Tracer};
use cm_util::{FxHashMap, Time};

use crate::api::{CmNotification, CmStats};
use crate::config::{AggregationPolicy, CmConfig, ShardingMode};
use crate::shard::{tracer_for, Shard};
use crate::types::{FlowKey, MAX_SHARDS};

/// Group → shard-index routing. Pure bookkeeping: it owns no shard and
/// never looks inside one, which is what lets the runtime keep it on the
/// front while the shards live on worker threads.
pub(crate) struct Router {
    aggregation: AggregationPolicy,
    mode: ShardingMode,
    /// Routing map: aggregation group id → dense shard index.
    shard_map: FxHashMap<u64, u32>,
    /// Per shard index, the groups mapped onto it, so releasing the
    /// index can clean `shard_map`. Its length is the number of indices
    /// handed out so far; the inner lists keep their capacity across
    /// release/re-assign cycles.
    groups: Vec<Vec<u64>>,
    /// Released indices, reused before a new one is handed out.
    free: Vec<u32>,
}

impl Router {
    pub(crate) fn new(cfg: &CmConfig) -> Self {
        Router {
            aggregation: cfg.aggregation,
            mode: cfg.sharding.mode,
            shard_map: FxHashMap::default(),
            groups: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The key's routing group and the shard it currently routes to.
    fn placement(&self, key: &FlowKey) -> (u64, Option<u32>) {
        let group = self.aggregation.group_of(key);
        (group, self.shard_map.get(&group).copied())
    }

    /// Where `open` places a flow with this key, assigning its group a
    /// shard index on first contact. The caller creates the shard there
    /// if it does not exist yet ([`ShardTable::ensure`]).
    pub(crate) fn route_open(&mut self, key: &FlowKey) -> u32 {
        if matches!(self.mode, ShardingMode::Single) {
            return 0;
        }
        let (group, idx) = self.placement(key);
        idx.unwrap_or_else(|| self.assign(group))
    }

    /// The shard a flow key would route to (read-only; `None` while its
    /// group has no shard).
    pub(crate) fn route_key(&self, key: &FlowKey) -> Option<u32> {
        match self.mode {
            ShardingMode::Single => Some(0),
            ShardingMode::ByGroup { .. } => self.placement(key).1,
        }
    }

    /// The shard index `group` currently routes to, if any.
    pub(crate) fn shard_for_group(&self, group: u64) -> Option<u32> {
        match self.mode {
            ShardingMode::Single => Some(0),
            ShardingMode::ByGroup { .. } => self.shard_map.get(&group).copied(),
        }
    }

    /// Shard indices handed out so far.
    pub(crate) fn assigned(&self) -> usize {
        match self.mode {
            ShardingMode::Single => 1,
            ShardingMode::ByGroup { .. } => self.groups.len(),
        }
    }

    /// Gives a routing group an index: a released one, else the next
    /// unused one, else — at the cap with every index taken — a
    /// deterministic hash onto an existing shard. A shared shard shares
    /// slabs, not congestion state (the group map inside keeps macroflows
    /// apart), exactly like single mode does for all groups.
    fn assign(&mut self, group: u64) -> u32 {
        let max = match self.mode {
            ShardingMode::Single => 1,
            ShardingMode::ByGroup { max_shards } => max_shards.clamp(1, MAX_SHARDS) as usize,
        };
        let idx = match self.free.pop() {
            Some(i) => i,
            None if self.groups.len() < max => {
                self.groups.push(Vec::new());
                self.groups.len() as u32 - 1
            }
            None => {
                let h = group.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h % self.groups.len() as u64) as u32
            }
        };
        self.groups[idx as usize].push(group);
        self.shard_map.insert(group, idx);
        idx
    }

    /// Forgets everything routed to `idx` (its shard was recycled) and
    /// makes the index available again.
    fn release(&mut self, idx: u32) {
        for g in self.groups[idx as usize].drain(..) {
            self.shard_map.remove(&g);
        }
        self.free.push(idx);
    }
}

/// A table of shards, dense by the shard index encoded in every id, plus
/// what outlives any one shard: the shell pool, the tick and lifecycle
/// counters, and the stats of recycled shards.
pub(crate) struct ShardTable {
    cfg: CmConfig,
    shards: Vec<Option<Shard>>,
    /// Emptied shard shells parked for reuse: slabs, maps, and the
    /// macroflow pools inside survive, so shard churn under group churn
    /// allocates nothing once warm.
    pool: Vec<Shard>,
    live: usize,
    /// Table-level counters: tick accounting, shard lifecycle, and the
    /// folded stats of recycled shards.
    stats: CmStats,
    /// Shard lifecycle events. Disabled (one null word) unless
    /// [`CmConfig::tracing`] is set.
    tracer: Tracer,
}

impl ShardTable {
    pub(crate) fn new(cfg: CmConfig) -> Self {
        ShardTable {
            tracer: tracer_for(&cfg),
            cfg,
            shards: Vec::new(),
            pool: Vec::new(),
            live: 0,
            stats: CmStats::default(),
        }
    }

    /// The shard at `idx` for an `open`, created on first contact from a
    /// pooled shell when one is parked. Marks it dirty.
    pub(crate) fn ensure(&mut self, idx: u32, now: Time) -> &mut Shard {
        let i = idx as usize;
        if self.shards.len() <= i {
            debug_assert!(idx < MAX_SHARDS);
            self.shards.resize_with(i + 1, || None);
        }
        let ShardTable {
            cfg,
            shards,
            pool,
            live,
            stats,
            tracer,
        } = self;
        let shard = shards[i].get_or_insert_with(|| {
            *live += 1;
            stats.shards_created += 1;
            tracer.record(now, TraceEvent::ShardCreated { shard: idx });
            match pool.pop() {
                Some(mut shell) => {
                    shell.reset(idx);
                    shell
                }
                None => Shard::new(*cfg, idx),
            }
        });
        shard.dirty = true;
        shard
    }

    pub(crate) fn get(&self, idx: u32) -> Option<&Shard> {
        self.shards.get(idx as usize).and_then(Option::as_ref)
    }

    /// The live shard at `idx`, for mutation: marks it dirty so the next
    /// tick scans it.
    pub(crate) fn route(&mut self, idx: u32) -> Option<&mut Shard> {
        let shard = self.shards.get_mut(idx as usize)?.as_mut()?;
        shard.dirty = true;
        Some(shard)
    }

    /// Runs maintenance on every shard that needs it. A *quiet* shard —
    /// no API call since its last scan and no timed work left behind —
    /// costs one branch, not a slab scan. With a `router`, shards that
    /// empty completely are recycled into the shell pool and their
    /// indices released; without one (a runtime worker: the router is on
    /// another thread) shards live as long as the table.
    pub(crate) fn tick(&mut self, now: Time, mut router: Option<&mut Router>) {
        for idx in 0..self.shards.len() {
            let Some(shard) = self.shards[idx].as_mut() else {
                continue;
            };
            if !shard.needs_tick() {
                self.stats.tick_shards_skipped += 1;
                continue;
            }
            self.stats.tick_mfs_scanned += shard.tick(now);
            self.stats.tick_shards_visited += 1;
            let Some(router) = router.as_deref_mut() else {
                continue;
            };
            if shard.is_empty() {
                if shard.outbox.is_empty() {
                    router.release(idx as u32);
                    self.recycle(idx as u32, now);
                } else {
                    // Undrained notifications pin the shard (the shell
                    // pool must never swallow them). Keep it dirty so a
                    // later tick — after the client drains — reaches
                    // this check again instead of the shard going quiet
                    // unrecyclable forever.
                    shard.dirty = true;
                }
            }
        }
    }

    /// Parks an emptied shard's shell in the pool. Its counters fold
    /// into the table's so `stats` never loses history. (The shard's
    /// flight-recorder ring is discarded with its flows — traces are
    /// per-incarnation; the shell's `reset` clears it.)
    fn recycle(&mut self, idx: u32, now: Time) {
        let Some(mut shard) = self.shards[idx as usize].take() else {
            return;
        };
        self.stats.accumulate(&shard.stats);
        shard.stats = CmStats::default();
        self.pool.push(shard);
        self.live -= 1;
        self.stats.shards_recycled += 1;
        self.tracer
            .record(now, TraceEvent::ShardRecycled { shard: idx });
    }

    /// Live shards with their indices, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &Shard)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i as u32, s.as_ref()?)))
    }

    /// Live shards for mutation, in index order; no dirty mark.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Shard> {
        self.shards.iter_mut().flatten()
    }

    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Table size (live + vacant slots).
    pub(crate) fn slots(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Lifetime counters folded across live and recycled shards.
    pub(crate) fn stats(&self) -> CmStats {
        let mut total = self.stats;
        for (_, shard) in self.iter() {
            total.accumulate(&shard.stats);
        }
        total
    }

    /// Checks every live shard's structural invariants; describes the
    /// first violation found.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (i, shard) in self.iter() {
            shard.validate().map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }

    /// Drains every outbox into `out` (appending): in order within a
    /// shard, in index order across shards. An empty outbox costs one
    /// branch: a host's settle loop drains after every CM call, and most
    /// calls leave nothing behind.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<CmNotification>) {
        for shard in self.iter_mut() {
            if !shard.outbox.is_empty() {
                out.extend(shard.outbox.drain(..));
            }
        }
    }

    /// Splits the table into one table per worker, shard `s` going to
    /// worker `s % workers` at its unchanged global index. Worker 0's
    /// table is this one — counters, folded history, and shell pool
    /// included — so nothing the table has accumulated is lost.
    pub(crate) fn deal(mut self, workers: usize) -> Vec<ShardTable> {
        let mut tables: Vec<ShardTable> = (1..workers).map(|_| ShardTable::new(self.cfg)).collect();
        for idx in 0..self.shards.len() {
            let Some(w) = (idx % workers).checked_sub(1) else {
                continue;
            };
            if let Some(shard) = self.shards[idx].take() {
                self.live -= 1;
                tables[w].live += 1;
                tables[w].shards.resize_with(idx + 1, || None);
                tables[w].shards[idx] = Some(shard);
            }
        }
        tables.insert(0, self);
        tables
    }
}
