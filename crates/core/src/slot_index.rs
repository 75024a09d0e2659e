//! A hash index over slab slots that stores no keys.
//!
//! The shard finds a flow by its 4-tuple and a macroflow by its
//! destination address. Both keys already sit in the slab slot they name
//! (`Flow::key`, `Macroflow::key`), so an index entry is just the 8-byte
//! pair `(hash, slot)`: the high 32 bits of the key's [`FxHasher`] hash
//! and the slot it names. A lookup compares the stored hash first and
//! confirms a match against the key in the slot, so it is exact.
//!
//! The table is open-addressed with linear probing. A hash's home bucket
//! is its top bits, and the load is held at or below 1/2, which keeps
//! probes near 1.5 buckets on average. Removal names the slot, not the
//! key, and shifts the rest of the run back over the hole (backward-shift
//! deletion). Churn leaves no tombstones behind, so the table grows only
//! with the live count: its capacity is the smallest power of two at
//! least twice the peak number of entries (8 at least).

use std::hash::{Hash, Hasher};

use cm_util::fxhash::FxHasher;

/// The slot value of an empty bucket. No slab slot reaches it: slots fit
/// in `types::SLOT_BITS`.
const VACANT: u32 = u32::MAX;

/// The smallest table allocated, in buckets.
const MIN_BUCKETS: usize = 8;

/// One bucket: a key's hash and the slab slot holding that key.
#[derive(Clone, Copy)]
struct Bucket {
    hash: u32,
    slot: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        hash: 0,
        slot: VACANT,
    };
}

/// The hash an index stores for `key`: the high half of its Fx hash,
/// whose bits are the best mixed.
#[inline]
pub(crate) fn hash_of(key: &impl Hash) -> u32 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (h.finish() >> 32) as u32
}

/// An empty bucket that [`SlotIndex::find_or_vacancy`] reserved for a key
/// it did not find. Fill it with [`SlotIndex::fill`] before anything else
/// changes the index.
pub(crate) struct Vacancy {
    pos: usize,
    hash: u32,
}

/// What [`SlotIndex::find_or_vacancy`] found.
pub(crate) enum Probe {
    /// The key is indexed at this slot.
    Found(u32),
    /// The key is absent; this is where it goes.
    Vacant(Vacancy),
}

/// Slab slots indexed by the hash of the key each slot holds. See the
/// module docs.
#[derive(Default)]
pub(crate) struct SlotIndex {
    buckets: Vec<Bucket>,
    /// `32 - log2(buckets.len())`: the home bucket of a hash is
    /// `hash >> shift`.
    shift: u32,
    len: usize,
}

impl SlotIndex {
    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Buckets allocated.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn home(&self, hash: u32) -> usize {
        (hash >> self.shift) as usize
    }

    /// Walks the run from `hash`'s home bucket: `Ok(pos)` for the first
    /// entry of that hash whose slot `is` accepts, `Err(pos)` for the
    /// empty bucket that ends the run. The table must not be empty.
    #[inline]
    fn probe(&self, hash: u32, is: impl Fn(u32) -> bool) -> Result<usize, usize> {
        let mask = self.buckets.len() - 1;
        let mut pos = self.home(hash);
        loop {
            let b = self.buckets[pos];
            if b.slot == VACANT {
                return Err(pos);
            }
            if b.hash == hash && is(b.slot) {
                return Ok(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The slot holding a key of this hash that `is` accepts.
    #[inline]
    pub(crate) fn find(&self, hash: u32, is: impl Fn(u32) -> bool) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        self.probe(hash, is).ok().map(|pos| self.buckets[pos].slot)
    }

    /// One probe that either finds the key or reserves the bucket it goes
    /// in. The table grows here, and only when the key is absent and one
    /// more entry would lift the load past 1/2.
    #[inline]
    pub(crate) fn find_or_vacancy(&mut self, hash: u32, is: impl Fn(u32) -> bool) -> Probe {
        let pos = if self.buckets.is_empty() {
            None
        } else {
            match self.probe(hash, is) {
                Ok(pos) => return Probe::Found(self.buckets[pos].slot),
                Err(pos) => Some(pos),
            }
        };
        let pos = match pos {
            Some(pos) if 2 * (self.len + 1) <= self.buckets.len() => pos,
            _ => {
                self.grow();
                self.empty_from(hash)
            }
        };
        Probe::Vacant(Vacancy { pos, hash })
    }

    /// Indexes `slot` in the bucket `vacancy` reserved.
    #[inline]
    pub(crate) fn fill(&mut self, vacancy: Vacancy, slot: u32) {
        debug_assert!(slot != VACANT && self.buckets[vacancy.pos].slot == VACANT);
        self.buckets[vacancy.pos] = Bucket {
            hash: vacancy.hash,
            slot,
        };
        self.len += 1;
    }

    /// Removes the entry naming `slot`, whose key hashes to `hash`, and
    /// shifts the entries after it in the run back so that none is left
    /// past an empty bucket. Returns whether the entry was there.
    pub(crate) fn remove(&mut self, hash: u32, slot: u32) -> bool {
        if self.len == 0 {
            return false;
        }
        let Ok(mut hole) = self.probe(hash, |s| s == slot) else {
            return false;
        };
        let mask = self.buckets.len() - 1;
        let mut next = (hole + 1) & mask;
        loop {
            let b = self.buckets[next];
            if b.slot == VACANT {
                break;
            }
            // An entry may fill the hole if the hole lies between its home
            // and where it sits: it is at least as far from home as from
            // the hole.
            let from_home = next.wrapping_sub(self.home(b.hash)) & mask;
            let from_hole = next.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.buckets[hole] = b;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.buckets[hole] = Bucket::EMPTY;
        self.len -= 1;
        true
    }

    /// The first empty bucket of `hash`'s run.
    fn empty_from(&self, hash: u32) -> usize {
        let mask = self.buckets.len() - 1;
        let mut pos = self.home(hash);
        while self.buckets[pos].slot != VACANT {
            pos = (pos + 1) & mask;
        }
        pos
    }

    /// Doubles the table and re-homes every entry from its stored hash.
    #[cold]
    fn grow(&mut self) {
        let buckets = (2 * self.buckets.len()).max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::EMPTY; buckets]);
        self.shift = 32 - buckets.trailing_zeros();
        for b in old.into_iter().filter(|b| b.slot != VACANT) {
            let pos = self.empty_from(b.hash);
            self.buckets[pos] = b;
        }
    }

    /// The table's own invariants: a power-of-two table at load at most
    /// 1/2 with `len` counting its entries. Whether the entries are the
    /// right ones, and reachable, is the owner's to check by looking up
    /// every key it holds.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let buckets = self.buckets.len();
        if buckets > 0
            && (!buckets.is_power_of_two() || self.shift != 32 - buckets.trailing_zeros())
        {
            return Err(format!("{buckets} buckets with shift {}", self.shift));
        }
        let held = self.buckets.iter().filter(|b| b.slot != VACANT).count();
        if held != self.len {
            return Err(format!("len says {} but {held} buckets are full", self.len));
        }
        if 2 * held > buckets {
            return Err(format!("{held} entries in {buckets} buckets"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A degenerate hash that sends every key to one of `homes` home
    /// buckets, whatever the table's size: bucket 0, the middle, a
    /// quarter in, and the last bucket (whose runs wrap past the end).
    fn degenerate(key: u32, homes: u32) -> u32 {
        const HOMES: [u32; 4] = [u32::MAX, 0, 0x8000_0000, 0x4000_0000];
        HOMES[(key % homes) as usize]
    }

    /// An index over a model slab: `keys[slot]` is the key a slot holds.
    struct Model {
        index: SlotIndex,
        keys: Vec<Option<u32>>,
        homes: u32,
    }

    impl Model {
        fn new(homes: u32) -> Self {
            Model {
                index: SlotIndex::default(),
                keys: Vec::new(),
                homes,
            }
        }

        fn find(&self, key: u32) -> Option<u32> {
            let keys = &self.keys;
            self.index.find(degenerate(key, self.homes), |s| {
                keys[s as usize] == Some(key)
            })
        }

        /// Indexes `key` in a fresh slot; false if it was there already.
        fn insert(&mut self, key: u32) -> bool {
            let keys = &self.keys;
            let probe = self
                .index
                .find_or_vacancy(degenerate(key, self.homes), |s| {
                    keys[s as usize] == Some(key)
                });
            match probe {
                Probe::Found(_) => false,
                Probe::Vacant(v) => {
                    self.keys.push(Some(key));
                    self.index.fill(v, (self.keys.len() - 1) as u32);
                    true
                }
            }
        }

        fn remove(&mut self, key: u32) {
            let slot = self.find(key).expect("key indexed");
            assert!(self.index.remove(degenerate(key, self.homes), slot));
            self.keys[slot as usize] = None;
        }

        /// Every live key found at its slot, nothing else indexed, and
        /// the table's own invariants.
        fn check(&self) {
            self.index.validate().expect("index invariants");
            let live = self.keys.iter().flatten().count();
            assert_eq!(self.index.len(), live);
            for (slot, key) in self.keys.iter().enumerate() {
                if let Some(key) = *key {
                    assert_eq!(self.find(key), Some(slot as u32), "key {key}");
                }
            }
        }

        /// The bucket holding `key`'s entry.
        fn bucket_of(&self, key: u32) -> usize {
            let slot = self.find(key).expect("key indexed");
            self.index
                .buckets
                .iter()
                .position(|b| b.slot == slot)
                .expect("entry present")
        }
    }

    #[test]
    fn bucket_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Bucket>(), 8);
    }

    #[test]
    fn empty_index_finds_nothing_and_allocates_nothing() {
        let mut m = Model::new(1);
        assert_eq!(m.find(7), None);
        assert!(!m.index.remove(0, 0));
        assert_eq!(m.index.capacity(), 0);
        assert!(m.insert(7));
        assert_eq!(m.index.capacity(), MIN_BUCKETS);
        m.check();
    }

    #[test]
    fn duplicate_is_found_not_inserted() {
        let mut m = Model::new(2);
        for k in 0..4 {
            assert!(m.insert(k));
        }
        for k in 0..4 {
            assert!(!m.insert(k));
        }
        assert_eq!(m.index.len(), 4);
        m.check();
    }

    /// Keys homed at the last bucket fill it and wrap to the front.
    #[test]
    fn run_wraps_past_the_end() {
        let mut m = Model::new(1);
        for k in [0, 4, 8, 12] {
            assert!(m.insert(k));
        }
        assert_eq!(m.index.capacity(), 8);
        let buckets: Vec<usize> = [0, 4, 8, 12].iter().map(|&k| m.bucket_of(k)).collect();
        assert_eq!(buckets, [7, 0, 1, 2]);
        m.check();
    }

    /// Removing the entry in the last bucket pulls the wrapped ones back
    /// across the end, in order.
    #[test]
    fn backward_shift_crosses_the_wrap() {
        let mut m = Model::new(1);
        for k in [0, 4, 8, 12] {
            m.insert(k);
        }
        m.remove(0);
        let buckets: Vec<usize> = [4, 8, 12].iter().map(|&k| m.bucket_of(k)).collect();
        assert_eq!(buckets, [7, 0, 1]);
        m.check();
        m.remove(8);
        assert_eq!([m.bucket_of(4), m.bucket_of(12)], [7, 0]);
        m.check();
    }

    /// An entry that already sits at its home must not be shifted into a
    /// hole before it: here a key homed at bucket 0 follows a run that
    /// wrapped from bucket 7.
    #[test]
    fn shift_leaves_entries_at_their_home() {
        let mut m = Model::new(2);
        // Keys 0, 2 home at 7 (wrapping to 0); key 1 homes at 0.
        m.insert(0);
        m.insert(2);
        m.insert(1);
        assert_eq!([m.bucket_of(0), m.bucket_of(2), m.bucket_of(1)], [7, 0, 1]);
        m.remove(2);
        // Key 1 moves back to its home, bucket 0; bucket 7 keeps key 0.
        assert_eq!([m.bucket_of(0), m.bucket_of(1)], [7, 0]);
        m.check();
        m.remove(0);
        assert_eq!(m.bucket_of(1), 0);
        m.check();
    }

    /// Removing the first, a middle and the last entry of one run keeps
    /// every other entry of it reachable.
    #[test]
    fn remove_first_middle_and_last_of_a_run() {
        for victim in 0..4u32 {
            let mut m = Model::new(1);
            let keys: Vec<u32> = (0..4).map(|i| i * 4).collect();
            for &k in &keys {
                m.insert(k);
            }
            m.remove(keys[victim as usize]);
            m.check();
            // The run stays contiguous from its home, with no hole left.
            let mut buckets: Vec<usize> = keys
                .iter()
                .filter(|&&k| k != keys[victim as usize])
                .map(|&k| m.bucket_of(k))
                .collect();
            buckets.sort_unstable();
            assert_eq!(buckets, [0, 1, 7], "victim {victim}");
        }
    }

    /// Interleaved runs from four homes, grown several times: every key
    /// stays reachable after each growth, and the load never passes 1/2.
    #[test]
    fn growth_keeps_every_entry_reachable() {
        let mut m = Model::new(4);
        let mut capacity = 0;
        for k in 0..200 {
            assert!(m.insert(k));
            if m.index.capacity() != capacity {
                capacity = m.index.capacity();
                m.check();
            }
            assert!(2 * m.index.len() <= m.index.capacity());
        }
        assert_eq!(m.index.capacity(), 512);
        m.check();
    }

    /// A seeded walk of inserts and removals over a few homes against the
    /// model, checked after every step; the table never outgrows its peak.
    #[test]
    fn random_churn_matches_the_model() {
        for homes in 1..=4 {
            let mut rng = cm_util::DetRng::seed(homes as u64);
            let mut m = Model::new(homes);
            let mut live: Vec<u32> = Vec::new();
            let mut peak = 0;
            for step in 0..2_000u32 {
                if live.len() < 40 && (live.is_empty() || rng.next_bounded(2) == 0) {
                    let key = 1_000 + step;
                    assert!(m.insert(key));
                    live.push(key);
                } else {
                    let i = rng.next_bounded(live.len() as u64) as usize;
                    m.remove(live.swap_remove(i));
                }
                peak = peak.max(live.len());
                m.check();
            }
            assert!(m.index.capacity() <= (2 * peak).next_power_of_two());
        }
    }
}
