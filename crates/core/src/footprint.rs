//! Read-footprint memoization for representative-state checking.
//!
//! The behavioral-signature layer ([`crate::crashgen::behavior_sig`])
//! collapses crash states whose *overlays* are provably
//! verdict-equivalent. This module collapses states along the complementary
//! axis: overlays that differ arbitrarily in bytes the check **never
//! reads**. During a full check of one state (the *recorder*) a
//! [`pmem::ReadTracker`] records the set of clean device words the mount +
//! walk + compare + probe pipeline consumed from the crash image. The check
//! is a deterministic function of that image, so by induction over its
//! execution trace any image agreeing with the recorder's on exactly those
//! words drives an identical execution — identical reads, identical
//! verdict. A later state at the same crash point whose projection over a
//! recorded footprint matches the recorder's therefore inherits the
//! recorder's (clean) verdict without being mounted.
//!
//! Projections are XORs of position-aware word hashes, so every state's
//! projection is the point's base-image projection adjusted on the recorded
//! words its subset overwrites. Both sides of a match share that base term,
//! so an entry keeps only the recorder's adjustment (its *delta*) and a
//! candidate matches when its own delta over the same words is equal: the
//! cost of recording and of matching grows with the subset's writes, not
//! with the size of the footprint.
//!
//! This is what makes the sweep sub-linear on the dominant crash-point
//! shape: metadata operations on log-structured PM file systems stage their
//! log entries *before* publishing a tail pointer, and recovery reads only
//! up to the published tail — so the many subsets that differ solely in
//! unpublished log bytes all project equally over the recorder's footprint.
//!
//! Only clean recorders produce entries (a violated or sandbox-retried
//! check never seeds a footprint), so a footprint match can only ever skip
//! a state *clean* — no bug is reported from an unchecked state, and a
//! violation always surfaces on a fully checked representative.

use std::borrow::Cow;

use crate::crashgen::PendingWrite;

/// Word granularity of a footprint (matches the tracker's): the 8-byte PM
/// atomicity unit. Finer than a cache line on purpose — recovery that reads
/// one inode field (e.g. a type tag) must not drag the field's still-pending
/// siblings in the same line into the footprint.
const WORD: u64 = pmem::WORD;

/// At most this many footprints are recorded per crash point: the first
/// [`FP_MAX_ENTRIES`] fully checked states that match no earlier entry.
/// Kept small: every later state at the point is projected over every
/// entry.
pub(crate) const FP_MAX_ENTRIES: usize = 4;

/// Footprinting only engages at crash points with at least this many crash
/// states: a single-state point has no later state a recorded footprint
/// could ever skip, so tracking its one check is pure overhead.
pub(crate) const FP_MIN_STATES: usize = 2;

/// Footprints larger than this many words (256 KiB of image) are discarded
/// and recording stops for the point — projecting candidates over a huge
/// footprint would cost more than the checks it could save.
pub(crate) const FP_WORD_CAP: usize = 32768;

/// One recorded footprint: the clean words a full check read, and the
/// recorder's projection delta over them.
///
/// A projection is the XOR of one position-aware hash ([`pmem::word_term`])
/// per recorded word, so an image's projection over `words` is the base
/// image's projection `B` adjusted on the words its subset touches: `B ^ d`.
/// A candidate matches when `B ^ d_c == B ^ d_r`, which holds exactly when
/// `d_c == d_r` — `B` cancels, so it is never computed.
struct FpEntry {
    /// Sorted ascending.
    words: Vec<u32>,
    /// The recorder's projection delta over `words`.
    delta: u128,
}

/// The footprints recorded at one crash point, in canonical state order.
#[derive(Default)]
pub(crate) struct FpSet {
    entries: Vec<FpEntry>,
    gave_up: bool,
}

impl FpSet {
    /// Whether the next fully checked eligible state should record.
    pub(crate) fn want_record(&self) -> bool {
        !self.gave_up && self.entries.len() < FP_MAX_ENTRIES
    }

    /// Stops recording for this point (tracker overflow).
    pub(crate) fn give_up(&mut self) {
        self.gave_up = true;
    }

    /// Records a footprint from a clean full check of `subset`'s state.
    pub(crate) fn record(
        &mut self,
        words: Vec<u32>,
        base: &[u8],
        writes: &[PendingWrite],
        subset: &[usize],
    ) {
        if words.len() > FP_WORD_CAP {
            self.gave_up = true;
            return;
        }
        let delta = delta(&words, base, writes, subset);
        self.entries.push(FpEntry { words, delta });
    }

    /// Whether `subset`'s image matches any recorded footprint — i.e., it
    /// agrees with some recorder's image on every word that recorder's
    /// check read, and so provably shares its clean verdict.
    pub(crate) fn matches(&self, base: &[u8], writes: &[PendingWrite], subset: &[usize]) -> bool {
        self.entries.iter().any(|e| delta(&e.words, base, writes, subset) == e.delta)
    }
}

/// The 8-byte little-endian word at `off`, zero-padded past the image end.
fn word_at(base: &[u8], off: u64) -> u64 {
    let s = off as usize;
    let end = ((off + WORD).min(base.len() as u64)) as usize;
    if s >= end {
        return 0;
    }
    let mut b = [0u8; 8];
    b[..end - s].copy_from_slice(&base[s..end]);
    u64::from_le_bytes(b)
}

/// Projection delta between the base image and `base + subset` over
/// `words`: only words both recorded and touched by a subset write are
/// rebuilt and re-hashed. Write application order mirrors
/// [`crate::crashgen::apply_subset`] (ascending log order).
fn delta(words: &[u32], base: &[u8], writes: &[PendingWrite], subset: &[usize]) -> u128 {
    // Enumerated subsets arrive ascending; only a hand-built one is copied.
    let mut order = Cow::Borrowed(subset);
    if !subset.is_sorted() {
        order.to_mut().sort_unstable();
    }
    let overlaps = |w: &PendingWrite, off: u64| w.off < off + WORD && off < w.off + w.data.len() as u64;
    let mut d = 0;
    for (k, &wi) in order.iter().enumerate() {
        let w = &writes[wi];
        let from = words.partition_point(|&x| (x as u64) < w.off / WORD);
        for &wd in &words[from..] {
            let off = wd as u64 * WORD;
            if !overlaps(w, off) {
                break;
            }
            // A word an earlier write also overlaps was rebuilt at that
            // write; from here on only the later writes can change it.
            if order[..k].iter().any(|&p| overlaps(&writes[p], off)) {
                continue;
            }
            let old = word_at(base, off);
            let mut buf = old.to_le_bytes();
            for &wi in &order[k..] {
                overlay(&mut buf, off, &writes[wi]);
            }
            let new = u64::from_le_bytes(buf);
            if new != old {
                d ^= pmem::word_term(off, old) ^ pmem::word_term(off, new);
            }
        }
    }
    d
}

/// Copies the part of `w` overlapping the word buffer at `word_off` into it.
fn overlay(buf: &mut [u8], word_off: u64, w: &PendingWrite) {
    let (ws, we) = (w.off, w.off + w.data.len() as u64);
    let (ls, le) = (word_off, word_off + buf.len() as u64);
    let (s, e) = (ws.max(ls), we.min(le));
    if s < e {
        buf[(s - ls) as usize..(e - ls) as usize]
            .copy_from_slice(&w.data[(s - ws) as usize..(e - ws) as usize]);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn wr(off: u64, data: &[u8]) -> PendingWrite {
        PendingWrite::new(off, data.to_vec(), true)
    }

    /// The image `base + subset`, writes laid in ascending log order.
    fn materialize(base: &[u8], writes: &[PendingWrite], subset: &[usize]) -> Vec<u8> {
        let mut img = base.to_vec();
        let mut order = subset.to_vec();
        order.sort_unstable();
        for &wi in &order {
            let w = &writes[wi];
            img[w.off as usize..w.off as usize + w.data.len()].copy_from_slice(&w.data);
        }
        img
    }

    /// Reference projection: one word term per recorded word of the whole
    /// materialized image.
    fn projection(img: &[u8], words: &[u32]) -> u128 {
        words.iter().fold(0, |p, &w| {
            let off = w as u64 * WORD;
            p ^ pmem::word_term(off, word_at(img, off))
        })
    }

    /// The indices of `writes` a bit mask selects, ascending — or
    /// descending, to exercise a hand-built unsorted subset.
    fn pick(mask: u8, n: usize, reversed: bool) -> Vec<usize> {
        let mut s: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
        if reversed {
            s.reverse();
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `record` + `matches` decide exactly what materializing both images
        /// and comparing their projections over each recorder's words
        /// decides — and, 128-bit collisions aside, what comparing the
        /// recorded words byte for byte decides. A three-letter alphabet
        /// makes writes that restore base bytes, and candidates that agree
        /// with a recorder, common.
        #[test]
        fn record_and_match_agree_with_materialized_model(
            len in 60usize..400,
            base in prop::collection::vec(0u8..3, 400),
            raw_writes in prop::collection::vec((0u64..400, prop::collection::vec(0u8..3, 1..24)), 1..7),
            recorders in prop::collection::vec(
                (prop::collection::vec(0u32..50, 0..12), any::<u8>()), 1..=FP_MAX_ENTRIES),
            candidates in prop::collection::vec((any::<u8>(), any::<bool>()), 1..12),
        ) {
            let base = &base[..len];
            let writes: Vec<PendingWrite> = raw_writes
                .iter()
                .map(|(off, data)| {
                    let off = off % len as u64;
                    wr(off, &data[..data.len().min(len - off as usize)])
                })
                .collect();
            let n_words = len.div_ceil(WORD as usize) as u32;
            let mut fp = FpSet::default();
            let mut model = Vec::new();
            for (raw_words, mask) in &recorders {
                let mut words: Vec<u32> = raw_words.iter().map(|w| w % n_words).collect();
                words.sort_unstable();
                words.dedup();
                let subset = pick(*mask, writes.len(), false);
                fp.record(words.clone(), base, &writes, &subset);
                model.push((materialize(base, &writes, &subset), words));
            }
            for &(mask, reversed) in &candidates {
                let subset = pick(mask, writes.len(), reversed);
                let img = materialize(base, &writes, &subset);
                let by_hash = model.iter().any(|(rec, words)| projection(&img, words) == projection(rec, words));
                let by_bytes = model.iter().any(|(rec, words)| {
                    words.iter().all(|&w| word_at(&img, w as u64 * WORD) == word_at(rec, w as u64 * WORD))
                });
                prop_assert_eq!(fp.matches(base, &writes, &subset), by_hash, "subset {:?}", subset);
                prop_assert_eq!(by_hash, by_bytes, "subset {:?}", subset);
            }
        }
    }

    #[test]
    fn matching_ignores_unrecorded_words_only() {
        let base = vec![0u8; 4096];
        // The "check" read only word 0; writes at word 80 are invisible.
        let writes = vec![wr(640, &[5; 64]), wr(0, &[1; 8])];
        let mut fp = FpSet::default();
        fp.record(vec![0], &base, &writes, &[]);
        assert!(fp.matches(&base, &writes, &[]));
        assert!(fp.matches(&base, &writes, &[0]), "untouched-footprint write must match");
        assert!(!fp.matches(&base, &writes, &[1]), "a write inside the footprint must not");
        assert!(!fp.matches(&base, &writes, &[0, 1]));
    }

    #[test]
    fn cap_and_give_up_stop_recording() {
        let base = vec![0u8; 1 << 20];
        let mut fp = FpSet::default();
        fp.record((0..(FP_WORD_CAP as u32 + 1)).collect(), &base, &[], &[]);
        assert!(!fp.want_record(), "an oversized footprint must stop recording");
        assert!(!fp.matches(&base, &[], &[]), "the oversized footprint is discarded");
        let mut fp2 = FpSet::default();
        for _ in 0..FP_MAX_ENTRIES {
            assert!(fp2.want_record());
            fp2.record(vec![0], &base, &[], &[]);
        }
        assert!(!fp2.want_record(), "the entry cap must close recording");
    }

    #[test]
    fn zero_vs_content_distinguished_inside_footprint() {
        // A written zero word must be distinguished from a nonzero one and
        // vice versa (word terms hash the value, zero included).
        let base = vec![0xAAu8; 256];
        let writes = vec![wr(8, &[0; 8])];
        let mut fp = FpSet::default();
        fp.record(vec![0, 1, 2], &base, &writes, &[]);
        assert!(!fp.matches(&base, &writes, &[0]), "zeroing a recorded word must mismatch");
    }
}
