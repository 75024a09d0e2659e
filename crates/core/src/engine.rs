//! The one shard engine under both CM fronts.
//!
//! [`crate::api::CongestionManager`] (shards driven by the calling
//! thread) and [`crate::runtime::ShardRuntime`] (shards driven by worker
//! threads) make the same two decisions, so both are made here, once:
//!
//! * [`Router`] — *which shard does this group get*: dense indices in
//!   first-contact order up to the `max_shards` cap, then a
//!   deterministic hash-share onto the existing shards.
//! * [`ShardTable`] — *how a shard at an index is created, reached,
//!   ticked, folded, and validated*: creation on first contact, id-routed
//!   access with the dirty mark, the maintenance walk with the
//!   quiet-shard skip and its accounting, the stats fold, the invariant
//!   sweep, and the outbox drain.
//!
//! A shard lives as long as the CM that created it, on both fronts, so
//! a group's placement never changes. The in-process front is `Router` +
//! one table. The runtime keeps the `Router` on its serial front and
//! deals the table out to its workers by `index % workers`
//! ([`ShardTable::deal`]).

use cm_obs::{TraceEvent, Tracer};
use cm_util::{FxHashMap, Time};

use crate::api::{CmNotification, CmStats};
use crate::config::{CmConfig, ShardingMode};
use crate::shard::{tracer_for, Shard};
use crate::types::{FlowKey, MAX_SHARDS};

/// Group (destination address) → shard-index routing. Pure bookkeeping:
/// it owns no shard and never looks inside one, which is what lets the
/// runtime keep it on the front while the shards live on worker threads.
pub(crate) struct Router {
    mode: ShardingMode,
    /// Shard indices by-group routing may hand out: the clamped
    /// `max_shards`.
    cap: usize,
    /// The groups that own a shard index: the first `cap` distinct
    /// groups, at indices 0, 1, ... in first-contact order. A later
    /// group owns none and routes by hash, so the map never holds more
    /// than `cap` entries however many groups a run meets.
    owners: FxHashMap<u64, u32>,
}

impl Router {
    pub(crate) fn new(cfg: &CmConfig) -> Self {
        let cap = match cfg.sharding.mode {
            ShardingMode::Single => 1,
            ShardingMode::ByGroup { max_shards } => max_shards.clamp(1, MAX_SHARDS) as usize,
        };
        Router {
            mode: cfg.sharding.mode,
            cap,
            owners: FxHashMap::default(),
        }
    }

    /// The shard `group` routes to, `None` while it has none yet: its own
    /// index, or — once every index is owned — a deterministic hash onto
    /// an existing shard. A shared shard shares slabs, not congestion
    /// state (the group map inside keeps macroflows apart), exactly like
    /// single mode does for all groups.
    fn index_of(&self, group: u64) -> Option<u32> {
        if let Some(&idx) = self.owners.get(&group) {
            return Some(idx);
        }
        (self.owners.len() == self.cap)
            .then(|| (group.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.cap as u64) as u32)
    }

    /// Where `open` places a flow with this key, giving its group the
    /// next index on first contact below the cap. The caller creates the
    /// shard there if it does not exist yet ([`ShardTable::ensure`]).
    pub(crate) fn route_open(&mut self, key: &FlowKey) -> u32 {
        if matches!(self.mode, ShardingMode::Single) {
            return 0;
        }
        let group = key.remote.addr as u64;
        self.index_of(group).unwrap_or_else(|| {
            let idx = self.owners.len() as u32;
            self.owners.insert(group, idx);
            idx
        })
    }

    /// The shard a flow key would route to (read-only; `None` while its
    /// group has no shard).
    pub(crate) fn route_key(&self, key: &FlowKey) -> Option<u32> {
        match self.mode {
            ShardingMode::Single => Some(0),
            ShardingMode::ByGroup { .. } => self.index_of(key.remote.addr as u64),
        }
    }

    /// Shard indices handed out so far.
    pub(crate) fn assigned(&self) -> usize {
        match self.mode {
            ShardingMode::Single => 1,
            ShardingMode::ByGroup { .. } => self.owners.len(),
        }
    }
}

/// A table of shards, dense by the shard index encoded in every id, plus
/// the table-level tick and creation counters.
pub(crate) struct ShardTable {
    cfg: CmConfig,
    shards: Vec<Option<Shard>>,
    /// Table-level counters: tick accounting and shard creation.
    stats: CmStats,
    /// Shard creation events. Disabled (one null word) unless
    /// [`CmConfig::tracing`] is set.
    tracer: Tracer,
}

impl ShardTable {
    pub(crate) fn new(cfg: CmConfig) -> Self {
        ShardTable {
            tracer: tracer_for(&cfg),
            cfg,
            shards: Vec::new(),
            stats: CmStats::default(),
        }
    }

    /// The shard at `idx` for an `open`, created on first contact. Marks
    /// it dirty.
    pub(crate) fn ensure(&mut self, idx: u32, now: Time) -> &mut Shard {
        let i = idx as usize;
        if self.shards.len() <= i {
            debug_assert!(idx < MAX_SHARDS);
            self.shards.resize_with(i + 1, || None);
        }
        let ShardTable {
            cfg,
            shards,
            stats,
            tracer,
        } = self;
        let shard = shards[i].get_or_insert_with(|| {
            stats.shards_created += 1;
            tracer.record(now, TraceEvent::ShardCreated { shard: idx });
            Shard::new(*cfg, idx)
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
    /// costs one branch, not a slab scan.
    pub(crate) fn tick(&mut self, now: Time) {
        for shard in self.shards.iter_mut().flatten() {
            if !shard.needs_tick() {
                self.stats.tick_shards_skipped += 1;
                continue;
            }
            self.stats.tick_mfs_scanned += shard.tick(now);
            self.stats.tick_shards_visited += 1;
        }
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

    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Lifetime counters folded across the table and its shards.
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

    /// Splits a fresh table into one table per worker, shard `s` going
    /// to worker `s % workers` at its unchanged global index. Worker 0's
    /// table is this one — its counters and tracer, and single mode's
    /// shard 0 — and the others start empty.
    pub(crate) fn deal(self, workers: usize) -> Vec<ShardTable> {
        debug_assert!(self.shards.len() <= 1, "only a fresh table is dealt");
        let cfg = self.cfg;
        std::iter::once(self)
            .chain((1..workers).map(|_| ShardTable::new(cfg)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardingConfig;
    use crate::types::Endpoint;

    /// The runtime's case: a by-group router meets 10,000 groups and
    /// nothing ever releases one. It keeps only the groups that own an
    /// index, and places the first four at 0..3 and every later one by
    /// the hash rule.
    #[test]
    fn router_holds_only_the_groups_that_own_an_index() {
        let mut router = Router::new(&CmConfig {
            sharding: ShardingConfig::by_group(4),
            ..Default::default()
        });
        for g in 1..=10_000u32 {
            let key = FlowKey::new(Endpoint::new(1, 1000), Endpoint::new(g, 80));
            let want = match g {
                1..=4 => g - 1,
                _ => (u64::from(g).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 4) as u32,
            };
            assert_eq!(router.route_open(&key), want, "group {g}");
            assert_eq!(router.route_key(&key), Some(want), "group {g}");
        }
        assert!(
            router.owners.len() <= 4,
            "router grew to {} entries",
            router.owners.len()
        );
        assert_eq!(router.assigned(), 4);
    }
}
