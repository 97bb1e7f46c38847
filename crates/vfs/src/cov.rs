//! Lightweight code-coverage instrumentation.
//!
//! The paper adapts Syzkaller, which relies on compiler-inserted coverage
//! (KCOV / GCC sancov). The analogue here is explicit instrumentation: file
//! systems call `covpoint!` at interesting program points (syscall entry,
//! branch arms, recovery paths), which records a hash of the source location
//! into a shared [`Cov`] sink. The fuzzer keeps seeds that produce new
//! coverage bits, exactly like Syzkaller's feedback loop.
//!
//! Coverage is disabled by default and costs one branch per point when off.

use std::{collections::HashSet, sync::Arc};

use parking_lot::Mutex;

/// A shared coverage sink. Clones share the same underlying set.
#[derive(Debug, Clone, Default)]
pub struct Cov {
    sink: Option<Arc<Mutex<HashSet<u64>>>>,
}

impl Cov {
    /// An enabled coverage sink.
    pub fn enabled() -> Self {
        Cov { sink: Some(Arc::new(Mutex::new(HashSet::new()))) }
    }

    /// A disabled sink (all hits ignored). This is the default.
    pub fn disabled() -> Self {
        Cov::default()
    }

    /// Whether hits are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records a coverage point. `key` is typically produced by
    /// `covpoint!`.
    #[inline]
    pub fn hit(&self, key: &'static str) {
        if let Some(s) = &self.sink {
            s.lock().insert(fnv1a(key.as_bytes()));
        }
    }

    /// Records a coverage point with extra dynamic context (e.g. a recovery
    /// branch index), so data-dependent paths count as distinct coverage.
    #[inline]
    pub fn hit_with(&self, key: &'static str, ctx: u64) {
        if let Some(s) = &self.sink {
            s.lock().insert(fnv1a(key.as_bytes()) ^ ctx.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
    }

    /// Number of distinct points hit so far.
    pub fn count(&self) -> usize {
        self.sink.as_ref().map_or(0, |s| s.lock().len())
    }

    /// Snapshot of the hit set.
    pub fn snapshot(&self) -> HashSet<u64> {
        self.sink.as_ref().map_or_else(HashSet::new, |s| s.lock().clone())
    }

    /// Clears recorded coverage (keeps the sink enabled).
    pub fn clear(&self) {
        if let Some(s) = &self.sink {
            s.lock().clear();
        }
    }

    /// Merges a set of hits (typically another sink's [`Cov::snapshot`])
    /// into this sink. No-op when disabled.
    pub fn absorb(&self, hits: &HashSet<u64>) {
        if let Some(s) = &self.sink {
            s.lock().extend(hits.iter().copied());
        }
    }

    /// Merges this sink's hits into `acc`, returning how many were new.
    pub fn merge_into(&self, acc: &mut HashSet<u64>) -> usize {
        let mut new = 0;
        if let Some(s) = &self.sink {
            for &h in s.lock().iter() {
                if acc.insert(h) {
                    new += 1;
                }
            }
        }
        new
    }
}

/// FNV-1a hash of `bytes` (stable across runs; coverage keys must be
/// deterministic for the fuzzer's corpus bookkeeping).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Word-wise checksum of a journal or log block — what ext4-DAX's journal
/// and XFS-DAX's log commit records carry over their payload.
///
/// Four independent multiply-rotate lanes each take every fourth
/// little-endian `u64`; a trailing partial word is zero-padded, and the
/// length is folded in so padding cannot alias real zeros. Every lane step
/// and the final combination are bijective in their input, so two inputs of
/// one length that differ in a single word always sum differently — a
/// payload with one torn 8-byte store never passes for the committed one.
pub fn block_sum(bytes: &[u8]) -> u64 {
    const K: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
        0x85eb_ca77_c2b2_ae63,
    ];
    let step = |lane: u64, word: u64, k: u64| (lane ^ word).wrapping_mul(k).rotate_left(29);
    let mut lanes = K;
    let mut quads = bytes.chunks_exact(32);
    for quad in &mut quads {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = u64::from_le_bytes(quad[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            *lane = step(*lane, word, K[i]);
        }
    }
    for (i, tail) in quads.remainder().chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        lanes[i] = step(lanes[i], u64::from_le_bytes(word), K[i]);
    }
    let mut sum = (bytes.len() as u64).wrapping_mul(K[0]);
    for (i, lane) in lanes.iter().enumerate() {
        sum ^= lane.rotate_left(16 * i as u32);
    }
    sum ^= sum >> 32;
    sum = sum.wrapping_mul(K[1]);
    sum ^ (sum >> 29)
}

/// Records a coverage point identified by the call site (module, line).
#[macro_export]
macro_rules! covpoint {
    ($cov:expr) => {
        $cov.hit(concat!(module_path!(), ":", line!()))
    };
    ($cov:expr, $ctx:expr) => {
        $cov.hit_with(concat!(module_path!(), ":", line!()), $ctx as u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let c = Cov::disabled();
        covpoint!(c);
        assert_eq!(c.count(), 0);
        assert!(!c.is_enabled());
    }

    #[test]
    fn enabled_sink_deduplicates() {
        let c = Cov::enabled();
        for _ in 0..3 {
            c.hit("a");
        }
        c.hit("b");
        assert_eq!(c.count(), 2);
    }

    #[test]
    fn covpoint_distinguishes_sites_and_ctx() {
        let c = Cov::enabled();
        covpoint!(c);
        covpoint!(c);
        assert_eq!(c.count(), 2, "two distinct source lines");
        c.clear();
        covpoint!(c, 1);
        covpoint!(c, 2);
        assert_eq!(c.count(), 2, "distinct contexts at one site");
    }

    #[test]
    fn clones_share_the_sink() {
        let c = Cov::enabled();
        let d = c.clone();
        d.hit("x");
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn merge_reports_new_hits() {
        let c = Cov::enabled();
        c.hit("a");
        c.hit("b");
        let mut acc = HashSet::new();
        assert_eq!(c.merge_into(&mut acc), 2);
        assert_eq!(c.merge_into(&mut acc), 0);
    }

    /// Coverage ids, Fortis checksums and (through their own copy of the
    /// function) campaign store signatures are FNV-1a values that outlive a
    /// build: the journal checksum moved to [`block_sum`], this must not.
    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b"chipmunk"), 0xd119_c632_df27_6d2a);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn block_sum_covers_every_length_and_the_tail() {
        // Around the 8-byte word and the 32-byte four-lane stride.
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        let lens = [0usize, 1, 7, 8, 31, 32, 33, 4096];
        let sums: Vec<u64> = lens.iter().map(|&n| block_sum(&data[..n])).collect();
        for (i, a) in sums.iter().enumerate() {
            for b in &sums[i + 1..] {
                assert_ne!(a, b, "prefixes of different length sum differently");
            }
        }
        for &n in &lens[1..] {
            // The last byte is in the tail path for 1, 7, 31 and 33.
            let mut torn = data[..n].to_vec();
            torn[n - 1] ^= 0x80;
            assert_ne!(block_sum(&torn), block_sum(&data[..n]), "last byte of {n}");
            // Zero padding of the tail word does not alias real zeros.
            let mut longer = data[..n].to_vec();
            longer.push(0);
            assert_ne!(block_sum(&longer), block_sum(&data[..n]), "{n} bytes plus a zero");
        }
    }

    proptest::proptest! {
        /// What a torn commit looks like to the journal: one bit, a suffix
        /// that never arrived, two words landing in each other's place.
        #[test]
        fn block_sum_rejects_torn_blocks(
            seed in 0u64..u64::MAX,
            bit in 0usize..4096 * 8,
            cut in 0usize..4096,
            w1 in 0usize..512,
            w2 in 0usize..512,
        ) {
            let mut x = seed | 1;
            let block: Vec<u8> = (0..4096)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let sum = block_sum(&block);

            let mut flipped = block.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            proptest::prop_assert_ne!(block_sum(&flipped), sum, "bit {} flipped", bit);

            let mut cut_off = block.clone();
            cut_off[cut..].fill(0);
            if cut_off != block {
                proptest::prop_assert_ne!(block_sum(&cut_off), sum, "suffix from {} zeroed", cut);
            }

            let mut swapped = block.clone();
            for i in 0..8 {
                swapped.swap(w1 * 8 + i, w2 * 8 + i);
            }
            if swapped != block {
                proptest::prop_assert_ne!(block_sum(&swapped), sum, "words {} and {}", w1, w2);
            }
        }
    }
}
