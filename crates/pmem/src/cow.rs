//! Copy-on-write device overlay for mounting crash states.
//!
//! The Chipmunk test harness checks thousands of crash states per workload.
//! Each crash state is "base persistent image at the last fence" plus a small
//! subset of in-flight writes, and the consistency checks themselves mutate
//! the state (mount-time recovery, the usability probe). CrashMonkey used a
//! copy-on-write block device for the same reason; [`CowDevice`] is the PM
//! equivalent: a page-granular overlay over a borrowed base image, so
//! constructing a crash state never copies the whole device and rolling back
//! checker mutations is just dropping the overlay.

use crate::{
    backend::{assert_in_range, PmBackend},
    cost::{self, SimCost},
    fxmap::FxHashMap,
};

/// Overlay page size.
const PAGE: u64 = 4096;

/// One reversible step in the overlay's undo log.
enum UndoRecord {
    /// The page was absent before the write; undoing removes it (the page
    /// content is still available in the base image).
    FreshPage(u64),
    /// Pre-image of a byte range within a single already-present page.
    Bytes { off: u64, old: Box<[u8]> },
}

/// A position in the undo log, returned by [`CowDevice::mark`].
pub type UndoMark = usize;

/// A copy-on-write view over an immutable base image.
///
/// All writes (including non-temporal stores and flushes) are applied
/// directly to overlay pages: a crash state is by definition already "on
/// media", and the file system mounted on it runs recovery and checker
/// probes whose persistence behaviour is not itself under test.
///
/// With [`CowDevice::new_with_undo`], every write additionally records its
/// pre-image so the overlay can be rewound to any earlier [`UndoMark`]. The
/// delta replayer uses this to step between adjacent crash states (and to
/// roll back the mount/probe mutations of each check) instead of rebuilding
/// the overlay from scratch per state.
pub struct CowDevice<'a> {
    base: &'a [u8],
    pages: FxHashMap<u64, Box<[u8]>>,
    undo: Option<Vec<UndoRecord>>,
}

impl<'a> CowDevice<'a> {
    /// Creates an overlay over `base`.
    pub fn new(base: &'a [u8]) -> Self {
        CowDevice { base, pages: FxHashMap::default(), undo: None }
    }

    /// Creates an overlay over `base` that records pre-images, enabling
    /// [`CowDevice::mark`] / [`CowDevice::undo_to`].
    pub fn new_with_undo(base: &'a [u8]) -> Self {
        CowDevice { base, pages: FxHashMap::default(), undo: Some(Vec::new()) }
    }

    /// Applies `data` at `off` (used by the replayer to lay a subset of
    /// in-flight writes over the base snapshot).
    pub fn apply(&mut self, off: u64, data: &[u8]) {
        self.write_bytes(off, data);
    }

    /// Number of dirtied overlay pages.
    pub fn dirty_pages(&self) -> usize {
        self.pages.len()
    }

    /// Discards all overlay modifications, reverting to the base image.
    pub fn rollback(&mut self) {
        self.pages.clear();
        if let Some(log) = &mut self.undo {
            log.clear();
        }
    }

    /// Current undo-log position. Writes made after a mark can be reverted
    /// with [`CowDevice::undo_to`]. Returns 0 when undo is disabled.
    pub fn mark(&self) -> UndoMark {
        self.undo.as_ref().map_or(0, Vec::len)
    }

    /// Rewinds the overlay to the state it had at `mark`, undoing every
    /// write made since (most recent first). No-op when undo is disabled.
    pub fn undo_to(&mut self, mark: UndoMark) {
        let Some(log) = &mut self.undo else { return };
        while log.len() > mark {
            match log.pop().expect("log.len() > mark >= 0") {
                UndoRecord::FreshPage(pno) => {
                    self.pages.remove(&pno);
                }
                UndoRecord::Bytes { off, old } => {
                    let pno = off / PAGE;
                    let in_page = (off % PAGE) as usize;
                    let page = self.pages.get_mut(&pno).expect("undone page present");
                    page[in_page..in_page + old.len()].copy_from_slice(&old);
                }
            }
        }
    }

    fn page_mut(&mut self, pno: u64) -> &mut [u8] {
        let base = self.base;
        self.pages.entry(pno).or_insert_with(|| {
            let start = (pno * PAGE) as usize;
            let end = (start + PAGE as usize).min(base.len());
            // Build the page from the base slice directly; only an unaligned
            // tail page needs zero padding past the end of the base.
            let mut p = Vec::with_capacity(PAGE as usize);
            p.extend_from_slice(&base[start..end]);
            p.resize(PAGE as usize, 0);
            p.into_boxed_slice()
        })
    }

    fn write_bytes(&mut self, off: u64, data: &[u8]) {
        // Crash-state checks run on CowDevice stacks, so this is where the
        // recovery fuel watchdog meters the file system's device traffic.
        // Ticking before the undo record keeps the log consistent if the
        // watchdog fires mid-sequence.
        cost::tick(cost::op_units(data.len()));
        assert_in_range(off, data.len() as u64, self.base.len() as u64);
        let mut pos = 0usize;
        while pos < data.len() {
            let cur = off + pos as u64;
            let pno = cur / PAGE;
            let in_page = (cur % PAGE) as usize;
            let n = (PAGE as usize - in_page).min(data.len() - pos);
            if let Some(undo) = &mut self.undo {
                let rec = match self.pages.get(&pno) {
                    None => UndoRecord::FreshPage(pno),
                    Some(p) => UndoRecord::Bytes {
                        off: cur,
                        old: p[in_page..in_page + n].to_vec().into_boxed_slice(),
                    },
                };
                undo.push(rec);
            }
            self.page_mut(pno)[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    fn read_bytes(&self, off: u64, buf: &mut [u8]) {
        cost::tick(cost::op_units(buf.len()));
        assert_in_range(off, buf.len() as u64, self.base.len() as u64);
        let mut pos = 0usize;
        while pos < buf.len() {
            let cur = off + pos as u64;
            let pno = cur / PAGE;
            let in_page = (cur % PAGE) as usize;
            let n = (PAGE as usize - in_page).min(buf.len() - pos);
            match self.pages.get(&pno) {
                Some(p) => buf[pos..pos + n].copy_from_slice(&p[in_page..in_page + n]),
                None => {
                    let start = cur as usize;
                    buf[pos..pos + n].copy_from_slice(&self.base[start..start + n]);
                }
            }
            pos += n;
        }
    }
}

impl PmBackend for CowDevice<'_> {
    fn len(&self) -> u64 {
        self.base.len() as u64
    }

    fn read(&self, off: u64, buf: &mut [u8]) {
        self.read_bytes(off, buf);
    }

    fn store(&mut self, off: u64, data: &[u8]) {
        self.write_bytes(off, data);
    }

    fn memcpy_nt(&mut self, off: u64, data: &[u8]) {
        self.write_bytes(off, data);
    }

    fn memset_nt(&mut self, off: u64, val: u8, len: u64) {
        // Page-sized chunks from one stack buffer: a memset of the whole
        // device must not allocate O(len) (it used to build a `vec![val;
        // len]` per call, which dominated large fallocate replays).
        assert_in_range(off, len, self.base.len() as u64);
        let buf = [val; PAGE as usize];
        let mut pos = 0u64;
        while pos < len {
            let n = (len - pos).min(PAGE) as usize;
            self.write_bytes(off + pos, &buf[..n]);
            pos += n as u64;
        }
    }

    fn flush(&mut self, _off: u64, _len: u64) {
        cost::tick(1);
    }

    fn fence(&mut self) {
        cost::tick(1);
    }

    fn sim_cost(&self) -> SimCost {
        SimCost::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fall_through_to_base() {
        let mut base = vec![0u8; 8192];
        base[5000] = 77;
        let cow = CowDevice::new(&base);
        let mut b = [0u8; 1];
        cow.read(5000, &mut b);
        assert_eq!(b[0], 77);
    }

    #[test]
    fn writes_shadow_base_and_rollback_restores() {
        let base = vec![1u8; 8192];
        let mut cow = CowDevice::new(&base);
        cow.store(100, &[9u8; 10]);
        let mut b = [0u8; 10];
        cow.read(100, &mut b);
        assert_eq!(b, [9u8; 10]);
        assert_eq!(cow.dirty_pages(), 1);
        cow.rollback();
        cow.read(100, &mut b);
        assert_eq!(b, [1u8; 10]);
        assert_eq!(cow.dirty_pages(), 0);
    }

    #[test]
    fn cross_page_write_and_read() {
        let base = vec![0u8; 3 * 4096];
        let mut cow = CowDevice::new(&base);
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        cow.apply(3000, &data);
        let mut got = vec![0u8; 5000];
        cow.read(3000, &mut got);
        assert_eq!(got, data);
        assert_eq!(cow.dirty_pages(), 2);
    }

    #[test]
    fn base_unmodified_by_writes() {
        let base = vec![0u8; 4096];
        let mut cow = CowDevice::new(&base);
        cow.store(0, &[255u8; 64]);
        drop(cow);
        assert_eq!(base[0], 0);
    }

    #[test]
    fn unaligned_base_length_tail_page() {
        let base = vec![4u8; 5000];
        let mut cow = CowDevice::new(&base);
        cow.store(4990, &[8u8; 10]);
        let mut b = [0u8; 10];
        cow.read(4990, &mut b);
        assert_eq!(b, [8u8; 10]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let base = vec![0u8; 100];
        let cow = CowDevice::new(&base);
        let mut b = [0u8; 8];
        cow.read(96, &mut b);
    }

    #[test]
    fn undo_restores_exact_prior_state() {
        let base: Vec<u8> = (0..8192).map(|i| (i % 256) as u8).collect();
        let mut cow = CowDevice::new_with_undo(&base);
        cow.apply(10, &[1u8; 20]);
        let m1 = cow.mark();
        let mut before = vec![0u8; 8192];
        cow.read(0, &mut before);

        cow.apply(5, &[2u8; 100]); // overlaps the earlier write
        cow.apply(4090, &[3u8; 12]); // crosses a page boundary
        cow.memset_nt(6000, 9, 500); // fresh page via memset
        cow.undo_to(m1);

        let mut after = vec![0u8; 8192];
        cow.read(0, &mut after);
        assert_eq!(before, after);
        assert_eq!(cow.dirty_pages(), 1, "fresh pages removed by undo");

        cow.undo_to(0);
        cow.read(0, &mut after);
        assert_eq!(after, base);
        assert_eq!(cow.dirty_pages(), 0);
    }

    #[test]
    fn undo_marks_nest() {
        let base = vec![0u8; 4096];
        let mut cow = CowDevice::new_with_undo(&base);
        cow.apply(0, &[1]);
        let m1 = cow.mark();
        cow.apply(0, &[2]);
        let m2 = cow.mark();
        cow.apply(0, &[3]);
        let mut b = [0u8; 1];
        cow.undo_to(m2);
        cow.read(0, &mut b);
        assert_eq!(b[0], 2);
        cow.undo_to(m1);
        cow.read(0, &mut b);
        assert_eq!(b[0], 1);
    }

    #[test]
    fn undo_disabled_is_a_noop() {
        let base = vec![0u8; 4096];
        let mut cow = CowDevice::new(&base);
        cow.apply(0, &[1]);
        assert_eq!(cow.mark(), 0);
        cow.undo_to(0);
        let mut b = [0u8; 1];
        cow.read(0, &mut b);
        assert_eq!(b[0], 1, "undo_to without undo log leaves writes intact");
    }

    #[test]
    fn unaligned_tail_page_zero_padded_with_undo() {
        let base = vec![4u8; 5000];
        let mut cow = CowDevice::new_with_undo(&base);
        let m = cow.mark();
        cow.store(4990, &[8u8; 10]);
        cow.undo_to(m);
        let mut b = [0u8; 10];
        cow.read(4990, &mut b);
        assert_eq!(b, [4u8; 10]);
    }
}
