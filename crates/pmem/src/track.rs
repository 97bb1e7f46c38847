//! [`ReadTracker`]: a transparent [`PmBackend`] wrapper recording which
//! *clean* device words a mounted file system reads.
//!
//! The harness's footprint memoization (see `chipmunk::harness`) checks one
//! crash state while recording the set of device lines the whole check —
//! mount recovery, tree walk, oracle comparison, usability probe — actually
//! consumed from the *crash image* (as opposed to bytes the checker itself
//! wrote first). Because the checker is deterministic, any other image that
//! agrees with the recorded one on exactly those lines drives the identical
//! execution and therefore reaches the identical verdict.
//!
//! The tracking rule that makes this an induction-proof footprint:
//!
//! * every byte range passed to [`PmBackend::read`] is recorded at
//!   [`WORD`] granularity (the 8-byte PM atomicity unit — fine enough that
//!   reading one inode field does not drag its neighbors into the
//!   footprint), **except** sub-ranges the checker has
//!   already overwritten through this wrapper (dirty-byte exclusion — those
//!   bytes are a function of the execution so far, not of the image);
//! * writes ([`PmBackend::store`], [`PmBackend::memcpy_nt`],
//!   [`PmBackend::memset_nt`]) mark their exact byte ranges dirty;
//! * dirty exclusion is byte-precise while recording is word-coarse, so
//!   the recorded set can only *over*-approximate the true dependency — a
//!   conservative direction (a match demands more agreement than strictly
//!   necessary, never less).
//!
//! The wrapper changes no behavior: all operations forward to the inner
//! backend (including cost accounting), so verdicts, coverage, and the fuel
//! watchdog are bit-identical with and without it. A `cap` bounds the
//! recorded set; once exceeded the tracker stops recording and
//! [`ReadTracker::clean_words`] returns `None` (callers then give up on
//! footprinting rather than hold giant word vectors).
//!
//! Internally the clean set is a flat bitmap, one bit per device word, with
//! the number of set bits kept by popcount as bits are added: recording a
//! read is a few mask/or operations — no search, no allocation — and a
//! recovery issues several hundred reads per recorder check. The bitmap is
//! scratch on loan from its thread: a tracker takes the thread's idle
//! bitmap, extends it to the highest word it reads (at most 64 KiB for a
//! 4 MiB device, a few KiB for the reads recovery actually issues),
//! remembers the span it set bits in, and on `Drop` clears that span and
//! hands the bitmap back — so after a thread's first recorder, recording
//! allocates nothing. Writes are rare during recovery and need byte
//! precision, so the dirty set stays a small map of coalesced byte
//! intervals.

use std::{
    cell::{Cell, RefCell},
    collections::BTreeMap,
};

use crate::{
    backend::{PmBackend, WORD},
    cost::SimCost,
};

thread_local! {
    /// This thread's idle word bitmap, every bit zero (empty until the first
    /// tracker on the thread returns one). Per thread rather than pooled
    /// like [`crate::ImageLease`]: a recorder check never leaves its thread,
    /// and a short-lived worker regrows a few KiB, not a device image.
    static IDLE_BITS: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// The clean-read set: one bit per device word in a bitmap on loan from
/// [`IDLE_BITS`].
struct CleanBits {
    bits: Vec<u64>,
    /// Set bits in `bits`.
    count: usize,
    /// Inclusive range of `bits` indices that may be nonzero (`lo > hi`
    /// while none is): what collection scans and `Drop` clears.
    lo: usize,
    hi: usize,
}

impl CleanBits {
    /// Borrows the thread's idle bitmap (empty on a thread's first tracker,
    /// or for one nested inside another).
    fn lease() -> Self {
        let bits = IDLE_BITS.try_with(Cell::take).unwrap_or_default();
        debug_assert!(bits.iter().all(|&b| b == 0), "idle bitmap is not all-zero");
        CleanBits { bits, count: 0, lo: usize::MAX, hi: 0 }
    }

    /// Sets the bits of every word overlapping bytes `[start, end)`
    /// (`start < end`, in range).
    fn set_bytes(&mut self, start: u64, end: u64) {
        let (w0, w1) = ((start / WORD) as usize, ((end - 1) / WORD) as usize);
        let (i0, i1) = (w0 / 64, w1 / 64);
        if i1 >= self.bits.len() {
            self.bits.resize(i1 + 1, 0);
        }
        let head = !0u64 << (w0 % 64);
        let tail = !0u64 >> (63 - w1 % 64);
        if i0 == i1 {
            self.or(i0, head & tail);
        } else {
            self.or(i0, head);
            for i in i0 + 1..i1 {
                self.or(i, !0);
            }
            self.or(i1, tail);
        }
        self.lo = self.lo.min(i0);
        self.hi = self.hi.max(i1);
    }

    fn or(&mut self, i: usize, mask: u64) {
        let old = self.bits[i];
        self.count += (mask & !old).count_ones() as usize;
        self.bits[i] = old | mask;
    }

    /// The set words, ascending.
    fn words(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count);
        if self.lo <= self.hi {
            for (i, &b) in self.bits[self.lo..=self.hi].iter().enumerate() {
                let first = ((self.lo + i) * 64) as u32;
                let mut b = b;
                while b != 0 {
                    out.push(first + b.trailing_zeros());
                    b &= b - 1;
                }
            }
        }
        out
    }
}

impl Drop for CleanBits {
    /// Clears the touched span and returns the bitmap to its thread. Runs
    /// during unwinding too (the sandbox catches checker panics with a
    /// tracker live), so nothing here can panic: on a thread already tearing
    /// its locals down the bitmap is simply freed.
    fn drop(&mut self) {
        if self.lo <= self.hi {
            self.bits[self.lo..=self.hi].fill(0);
        }
        let _ = IDLE_BITS.try_with(|idle| idle.set(std::mem::take(&mut self.bits)));
    }
}

/// See the module docs. Construct with [`ReadTracker::new`], run the check
/// with the tracker as the device (or `&mut` it), then collect
/// [`ReadTracker::clean_words`].
pub struct ReadTracker<D> {
    inner: D,
    /// Words read before being dirtied. `RefCell` because
    /// [`PmBackend::read`] takes `&self`; backends are single-threaded by
    /// contract (`Send`, not `Sync`).
    clean: RefCell<CleanBits>,
    /// Coalesced byte ranges (start → end) the checker wrote.
    dirty: BTreeMap<u64, u64>,
    /// Smallest start and largest end in `dirty` (`(u64::MAX, 0)` while it
    /// is empty): a read outside this hull skips the map.
    dirty_hull: (u64, u64),
    /// The `dirty` interval most recently inserted: rewrites of the same
    /// bytes (journal heads, probe data) land inside it and skip the map.
    last_dirty: (u64, u64),
    /// Recording stops (and the clean set is withheld) past this many words.
    cap: usize,
}

impl<D: PmBackend> ReadTracker<D> {
    /// Wraps `inner`, recording up to `cap` clean words.
    pub fn new(inner: D, cap: usize) -> Self {
        let clean = RefCell::new(CleanBits::lease());
        ReadTracker {
            inner,
            clean,
            dirty: BTreeMap::new(),
            dirty_hull: (u64::MAX, 0),
            last_dirty: (0, 0),
            cap,
        }
    }

    /// The recorded clean-read words, sorted ascending — or `None` if the
    /// set overflowed `cap` (footprinting should be abandoned).
    pub fn clean_words(&self) -> Option<Vec<u32>> {
        let clean = self.clean.borrow();
        (clean.count <= self.cap).then(|| clean.words())
    }

    /// Records the clean sub-ranges of a read of `[off, off + len)`. A word
    /// once recorded clean stays recorded even if later dirtied.
    fn record_read(&self, off: u64, len: u64) {
        let mut clean = self.clean.borrow_mut();
        if len == 0 || clean.count > self.cap {
            return;
        }
        let end = off + len;
        if end <= self.dirty_hull.0 || off >= self.dirty_hull.1 {
            clean.set_bytes(off, end);
            return;
        }
        let mut pos = off;
        // Skip a dirty interval already covering the start.
        if let Some((_, &e)) = self.dirty.range(..=pos).next_back() {
            if e > pos {
                pos = e.min(end);
            }
        }
        for (&s, &e) in self.dirty.range(pos..end) {
            if s > pos {
                clean.set_bytes(pos, s);
            }
            pos = e.min(end);
            if pos >= end {
                break;
            }
        }
        if pos < end {
            clean.set_bytes(pos, end);
        }
    }

    /// Marks `[off, off + len)` dirty, coalescing adjacent intervals.
    fn mark_dirty(&mut self, off: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut start = off;
        let mut end = off + len;
        if start >= self.last_dirty.0 && end <= self.last_dirty.1 {
            return; // already covered
        }
        if let Some((&s, &e)) = self.dirty.range(..=start).next_back() {
            if e >= start {
                if e >= end {
                    return; // already covered
                }
                start = s;
                end = end.max(e);
                self.dirty.remove(&s);
            }
        }
        while let Some((&s, &e)) = self.dirty.range(start..=end).next() {
            self.dirty.remove(&s);
            end = end.max(e);
        }
        self.dirty.insert(start, end);
        self.last_dirty = (start, end);
        self.dirty_hull = (self.dirty_hull.0.min(start), self.dirty_hull.1.max(end));
    }
}

impl<D: PmBackend> PmBackend for ReadTracker<D> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read(&self, off: u64, buf: &mut [u8]) {
        // Forward first: an out-of-range read panics in the inner backend
        // with its own diagnostic, before the bitmap grows to cover it.
        self.inner.read(off, buf);
        self.record_read(off, buf.len() as u64);
    }

    fn store(&mut self, off: u64, data: &[u8]) {
        self.mark_dirty(off, data.len() as u64);
        self.inner.store(off, data);
    }

    fn memcpy_nt(&mut self, off: u64, data: &[u8]) {
        self.mark_dirty(off, data.len() as u64);
        self.inner.memcpy_nt(off, data);
    }

    fn memset_nt(&mut self, off: u64, val: u8, len: u64) {
        self.mark_dirty(off, len);
        self.inner.memset_nt(off, val, len);
    }

    fn flush(&mut self, off: u64, len: u64) {
        self.inner.flush(off, len);
    }

    fn fence(&mut self) {
        self.inner.fence();
    }

    fn note_media_read(&mut self, len: u64) {
        self.inner.note_media_read(len);
    }

    fn sim_cost(&self) -> SimCost {
        self.inner.sim_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PmDevice;

    fn tracker(len: u64) -> ReadTracker<PmDevice> {
        ReadTracker::new(PmDevice::new(len), 1 << 16)
    }

    #[test]
    fn clean_reads_are_recorded_per_word() {
        let t = tracker(4096);
        let mut b = [0u8; 8];
        t.read(0, &mut b);
        t.read(130, &mut b); // [130, 138): straddles words 16 and 17
        let mut big = [0u8; 200];
        t.read(250, &mut big); // [250, 450): words 31..=56
        let mut want = vec![0, 16, 17];
        want.extend(31..=56u32);
        assert_eq!(t.clean_words().unwrap(), want);
    }

    #[test]
    fn dirty_bytes_are_excluded_byte_precisely() {
        let mut t = tracker(4096);
        t.store(64, &[1u8; 64]); // exactly words 8..=15
        let mut b = [0u8; 64];
        t.read(64, &mut b); // fully dirty: not recorded
        assert_eq!(t.clean_words().unwrap(), Vec::<u32>::new());
        // A read overlapping dirty and clean bytes records the clean words.
        let mut b2 = [0u8; 128];
        t.read(64, &mut b2); // [64,192): dirty [64,128), clean [128,192)
        assert_eq!(t.clean_words().unwrap(), (16..=23).collect::<Vec<u32>>());
        // Sub-word dirty range: the clean tail of the word still records it.
        t.store(256, &[2u8; 4]);
        let mut b3 = [0u8; 8];
        t.read(256, &mut b3); // dirty [256,260), clean [260,264) in word 32
        let mut want: Vec<u32> = (16..=23).collect();
        want.push(32);
        assert_eq!(t.clean_words().unwrap(), want);
    }

    #[test]
    fn dirty_intervals_coalesce_across_write_kinds() {
        let mut t = tracker(4096);
        t.memcpy_nt(100, &[1u8; 20]);
        t.memset_nt(120, 0, 30);
        t.store(90, &[3u8; 10]);
        let mut b = [0u8; 60];
        t.read(90, &mut b); // [90,150) fully dirty
        assert_eq!(t.clean_words().unwrap(), Vec::<u32>::new());
        let mut b2 = [0u8; 70];
        t.read(90, &mut b2); // [90,160): clean tail [150,160) → words 18, 19
        assert_eq!(t.clean_words().unwrap(), vec![18, 19]);
    }

    #[test]
    fn overflow_discards_the_set() {
        let t = ReadTracker::new(PmDevice::new(1 << 20), 4);
        let mut b = [0u8; 8];
        for i in 0..6u64 {
            t.read(i * 8, &mut b);
        }
        assert!(t.clean_words().is_none());
    }

    #[test]
    fn forwarding_preserves_device_contents() {
        let mut t = tracker(4096);
        t.memcpy_nt(10, b"hello");
        t.fence();
        let mut b = [0u8; 5];
        t.read(10, &mut b);
        assert_eq!(&b, b"hello");
    }
}
