//! A fast, non-cryptographic hasher for interior hash maps.
//!
//! The Firefox/rustc "Fx" multiply-rotate hash: a few arithmetic ops per
//! word instead of SipHash's full permutation. The CM's flow-key and
//! demux tables are keyed by small fixed-size values supplied by the
//! host stack (not by remote attackers), so DoS-resistant hashing buys
//! nothing and costs a measurable slice of the per-packet path.

#![expect(
    clippy::disallowed_types,
    reason = "the one sanctioned wrapper: std's maps with a fixed-seed hasher"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// See the module docs.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_work_and_hashing_is_deterministic() {
        let mut m: FxHashMap<(u32, u16), u32> = FxHashMap::default();
        for i in 0..1_000u32 {
            m.insert((i, (i % 7) as u16), i * 2);
        }
        assert_eq!(m.len(), 1_000);
        assert_eq!(m.get(&(41, 6)), Some(&82));

        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"congestion manager");
        b.write(b"congestion manager");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"congestion managex");
        assert_ne!(a.finish(), c.finish());
    }
}
