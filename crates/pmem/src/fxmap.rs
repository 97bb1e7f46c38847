//! A fast non-cryptographic hash map for sparse, integer-keyed page tables.
//!
//! Every device access of a crash-free phase — the oracle run and the
//! recorded run on [`crate::ForkDevice`], whose lookups pay up to one probe
//! per overlay layer — and every page-cache hit of the DAX controls is a
//! lookup in a `HashMap<u64, _>` keyed by page number. With the standard
//! library's SipHash those lookups dominate the phases' device time. Page
//! numbers are small, attacker-free integers, so a multiply-xor hash (the
//! Firefox/rustc "FxHash" recipe) is sufficient and several times faster.
//! (The crash-state overlay, [`crate::CowDevice`], needs no hash at all: it
//! spans one device, so its page table is a dense array.)
//!
//! Determinism: the harness never iterates these maps in an order-sensitive
//! way (lookups, inserts, and wholesale clears only), so the hasher change
//! is observationally invisible — verdicts and reports are byte-identical.

use std::{
    collections::HashMap,
    hash::{BuildHasherDefault, Hasher},
};

/// The 64-bit FxHash multiplier (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A multiply-xor [`Hasher`] for small integer keys.
///
/// Not DoS-resistant — use only for internal maps keyed by trusted values
/// (page numbers, image keys), never for externally controlled input.
#[derive(Default)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`] — drop-in for internal integer-keyed maps.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_and_distinguishes_keys() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for k in 0..1000u64 {
            m.insert(k, (k * 3) as u32);
        }
        for k in 0..1000u64 {
            assert_eq!(m.get(&k), Some(&((k * 3) as u32)));
        }
        assert_eq!(m.get(&1000), None);
    }

    #[test]
    fn hasher_differs_on_adjacent_keys() {
        let h = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_ne!(h(0), h(1));
        assert_ne!(h(1), h(2));
        // High bits move too (HashMap uses the top 7 for control bytes).
        assert_ne!(h(0) >> 57, h(1) >> 57);
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        let h = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(h(b"abcdefgh1"), h(b"abcdefgh2"));
        assert_ne!(h(b"a"), h(b"b"));
    }
}
