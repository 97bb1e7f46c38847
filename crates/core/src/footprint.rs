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

/// One recorded footprint: the clean words a full check read, with content
/// projections of the point's base image and of the recorder's image over
/// them. Projections are XOR-composable position-aware hashes
/// ([`pmem::word_term`]), so a candidate's projection is the base
/// projection adjusted only on the words its subset actually touches.
struct FpEntry {
    /// Sorted ascending.
    words: Vec<u32>,
    /// Projection of the base image over `words`.
    base_proj: u128,
    /// Projection of the recorder's image over `words`.
    proj: u128,
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
        let base_proj = base_projection(base, &words);
        let entry = FpEntry { words, base_proj, proj: 0 };
        let proj = base_proj ^ delta(&entry, base, writes, subset);
        self.entries.push(FpEntry { proj, ..entry });
    }

    /// Whether `subset`'s image matches any recorded footprint — i.e., it
    /// agrees with some recorder's image on every word that recorder's
    /// check read, and so provably shares its clean verdict.
    pub(crate) fn matches(&self, base: &[u8], writes: &[PendingWrite], subset: &[usize]) -> bool {
        self.entries.iter().any(|e| e.base_proj ^ delta(e, base, writes, subset) == e.proj)
    }
}

/// Projection of `base` over `words`: XOR of one [`pmem::word_term`] per
/// recorded word — a single splitmix cascade each, not per-byte hashing
/// (projections run on the hot path of every footprint record and match).
fn base_projection(base: &[u8], words: &[u32]) -> u128 {
    let mut p = 0;
    for &w in words {
        let off = w as u64 * WORD;
        p ^= pmem::word_term(off, word_at(base, off));
    }
    p
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
/// `e.words`: only words both recorded and touched by a subset write are
/// rebuilt and re-hashed. Write application order mirrors
/// [`crate::crashgen::apply_subset`] (ascending log order).
fn delta(e: &FpEntry, base: &[u8], writes: &[PendingWrite], subset: &[usize]) -> u128 {
    // Enumerated subsets arrive ascending; only a hand-built one is copied.
    let mut order = Cow::Borrowed(subset);
    if !subset.is_sorted() {
        order.to_mut().sort_unstable();
    }
    let overlaps = |w: &PendingWrite, off: u64| w.off < off + WORD && off < w.off + w.data.len() as u64;
    let mut d = 0;
    for (k, &wi) in order.iter().enumerate() {
        let w = &writes[wi];
        let from = e.words.partition_point(|&x| (x as u64) < w.off / WORD);
        for &wd in &e.words[from..] {
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
    use super::*;

    fn wr(off: u64, data: &[u8]) -> PendingWrite {
        PendingWrite { off, data: data.to_vec(), nt: true }
    }

    /// Reference projection: materialize the full image and hash the words.
    fn proj_naive(base: &[u8], writes: &[PendingWrite], subset: &[usize], words: &[u32]) -> u128 {
        let mut img = base.to_vec();
        let mut order = subset.to_vec();
        order.sort_unstable();
        for &wi in &order {
            let w = &writes[wi];
            img[w.off as usize..w.off as usize + w.data.len()].copy_from_slice(&w.data);
        }
        base_projection(&img, words)
    }

    #[test]
    fn incremental_projection_equals_naive() {
        let base: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let writes = vec![
            wr(10, &[7; 30]),
            wr(100, &[0; 64]),
            wr(20, &[9; 40]), // overlaps the first — order matters
            wr(700, &[3; 200]),
            wr(4000, &[1; 96]),
        ];
        let words: Vec<u32> = vec![0, 1, 2, 13, 14, 89, 90, 503, 504];
        let e = FpEntry { words: words.clone(), base_proj: base_projection(&base, &words), proj: 0 };
        for subset in [vec![], vec![0], vec![0, 2], vec![2, 0], vec![1, 3], vec![0, 1, 2, 3, 4]] {
            assert_eq!(
                e.base_proj ^ delta(&e, &base, &writes, &subset),
                proj_naive(&base, &writes, &subset, &words),
                "subset {subset:?}"
            );
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
