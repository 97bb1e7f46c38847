//! Copy-on-write device overlay for mounting crash states.
//!
//! The Chipmunk test harness checks thousands of crash states per workload.
//! Each crash state is "base persistent image at the last fence" plus a small
//! subset of in-flight writes, and the consistency checks themselves mutate
//! the state (mount-time recovery, the usability probe). CrashMonkey used a
//! copy-on-write block device for the same reason; [`CowDevice`] is the PM
//! equivalent: a page-granular overlay over a borrowed base image, so
//! constructing a crash state never copies the whole device and rolling back
//! checker mutations is just undoing (or dropping) the overlay.
//!
//! Every device access of a check — each `read_u64` of an inode field, each
//! dentry load — goes through the overlay's page lookup, and every crash
//! point builds, steps and drops an overlay, so the bookkeeping is laid out
//! to cost neither hashing nor heap traffic per state:
//!
//! * the page table is dense, indexed by page number (one pointer per 4 KiB
//!   of device, `None` reading through to the base);
//! * overlay pages are boxed 4 KiB slots: a page fault takes a recycled slot
//!   and fills it from the base, undoing the fault hands the slot back;
//! * undo pre-images are appended to one byte arena, popped in log order;
//! * all of that scratch is on loan from the thread, like the footprint
//!   tracker's word bitmap ([`crate::ReadTracker`]): an overlay takes the
//!   thread's idle scratch, and on `Drop` empties it and hands it back,
//!   keeping at most `KEEP_PAGES` slots and `KEEP_ARENA` arena bytes.
//!
//! After a thread's first few overlays, building a crash state, checking it
//! and rewinding it allocate nothing. An overlay created while another one is
//! live on the same thread (the slow-path re-check runs under the delta
//! replayer's overlay) starts from empty scratch; whichever is dropped last
//! leaves its scratch to the thread.

use std::cell::Cell;

use crate::{
    backend::{assert_in_range, PmBackend},
    cost::{self, SimCost},
};

/// Overlay page size.
const PAGE: usize = 4096;

// What a thread keeps between overlays. Each cap sits above what nearly every
// crash-point overlay of the benchmark reaches (at most 21 pages and 280 undo
// records; 99.9 % stay under 230 KiB of pre-images, the largest 272 KiB), so
// a thread's scratch stops growing early. A cap the common case crosses would
// shrink on every such drop and regrow on the next overlay; with a 64 KiB
// arena cap that churn fragmented the heap enough to add 70 KiB of peak RSS
// per benchmark pass. A whole-device memset dirties every page; the excess
// is freed when its overlay is dropped.

/// Recycled page slots a thread keeps (128 KiB).
const KEEP_PAGES: usize = 32;

/// Undo-arena bytes a thread keeps.
const KEEP_ARENA: usize = 256 * 1024;

/// Undo records a thread keeps room for (16 KiB).
const KEEP_UNDO: usize = 1024;

type Page = [u8; PAGE];

/// One reversible step in the overlay's undo log.
enum UndoRecord {
    /// A page fault: undoing it releases the most recently faulted page
    /// (faults and their records are pushed in the same order), whose
    /// content is still available in the base image.
    Fresh,
    /// Pre-image of `len` bytes at `off` within one already-present page;
    /// the bytes are the last `len` of the arena.
    Bytes { off: u64, len: u16 },
}

/// An overlay's mutable state, on loan from [`IDLE`]. Idle scratch has
/// every table entry `None` and an empty log; only capacity carries over.
struct Scratch {
    /// Page table indexed by page number: `None` reads through to the base.
    table: Vec<Option<Box<Page>>>,
    /// Page numbers with a slot in `table`, in fault order.
    live: Vec<usize>,
    /// Recycled slots, contents stale.
    free: Vec<Box<Page>>,
    undo: Vec<UndoRecord>,
    /// Pre-image bytes of the [`UndoRecord::Bytes`] records, in log order.
    arena: Vec<u8>,
}

impl Scratch {
    const EMPTY: Scratch = Scratch {
        table: Vec::new(),
        live: Vec::new(),
        free: Vec::new(),
        undo: Vec::new(),
        arena: Vec::new(),
    };

    /// Releases every live page and clears the log.
    fn clear(&mut self) {
        for pno in self.live.drain(..) {
            let page = self.table[pno].take().expect("live page present");
            self.free.push(page);
        }
        self.undo.clear();
        self.arena.clear();
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::EMPTY
    }
}

thread_local! {
    /// This thread's idle overlay scratch. Per thread rather than pooled
    /// like [`crate::ImageLease`]: an overlay never leaves the thread that
    /// checks its crash state.
    static IDLE: Cell<Scratch> = const { Cell::new(Scratch::EMPTY) };
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
    s: Scratch,
    undo_on: bool,
}

impl<'a> CowDevice<'a> {
    /// Creates an overlay over `base`.
    pub fn new(base: &'a [u8]) -> Self {
        Self::lease(base, false)
    }

    /// Creates an overlay over `base` that records pre-images, enabling
    /// [`CowDevice::mark`] / [`CowDevice::undo_to`].
    pub fn new_with_undo(base: &'a [u8]) -> Self {
        Self::lease(base, true)
    }

    /// Borrows the thread's idle scratch (empty on a thread's first overlay,
    /// or for one nested inside another) and sizes its page table to `base`.
    fn lease(base: &'a [u8], undo_on: bool) -> Self {
        let mut s = IDLE.try_with(Cell::take).unwrap_or_default();
        debug_assert!(s.live.is_empty() && s.undo.is_empty() && s.arena.is_empty());
        debug_assert!(s.table.iter().all(Option::is_none), "idle page table is not empty");
        s.table.truncate(base.len().div_ceil(PAGE));
        s.table.resize_with(base.len().div_ceil(PAGE), || None);
        CowDevice { base, s, undo_on }
    }

    /// Applies `data` at `off` (used by the replayer to lay a subset of
    /// in-flight writes over the base snapshot).
    pub fn apply(&mut self, off: u64, data: &[u8]) {
        self.write_bytes(off, data);
    }

    /// Number of dirtied overlay pages.
    pub fn dirty_pages(&self) -> usize {
        self.s.live.len()
    }

    /// Discards all overlay modifications, reverting to the base image.
    pub fn rollback(&mut self) {
        self.s.clear();
    }

    /// Current undo-log position. Writes made after a mark can be reverted
    /// with [`CowDevice::undo_to`]. Returns 0 when undo is disabled.
    pub fn mark(&self) -> UndoMark {
        self.s.undo.len()
    }

    /// Rewinds the overlay to the state it had at `mark`, undoing every
    /// write made since (most recent first). No-op when undo is disabled.
    pub fn undo_to(&mut self, mark: UndoMark) {
        let Scratch { table, live, free, undo, arena } = &mut self.s;
        while undo.len() > mark {
            match undo.pop().expect("undo.len() > mark >= 0") {
                UndoRecord::Fresh => {
                    let pno = live.pop().expect("a fault record has its page");
                    free.push(table[pno].take().expect("faulted page present"));
                }
                UndoRecord::Bytes { off, len } => {
                    let at = arena.len() - len as usize;
                    let in_page = off as usize % PAGE;
                    let page = table[off as usize / PAGE].as_mut().expect("undone page present");
                    page[in_page..in_page + len as usize].copy_from_slice(&arena[at..]);
                    arena.truncate(at);
                }
            }
        }
    }

    fn write_bytes(&mut self, off: u64, data: &[u8]) {
        // Crash-state checks run on CowDevice stacks, so this is where the
        // recovery fuel watchdog meters the file system's device traffic.
        // Ticking before the undo record keeps the log consistent if the
        // watchdog fires mid-sequence.
        cost::tick(cost::op_units(data.len()));
        assert_in_range(off, data.len() as u64, self.base.len() as u64);
        let Scratch { table, live, free, undo, arena } = &mut self.s;
        let mut pos = 0usize;
        while pos < data.len() {
            let cur = off as usize + pos;
            let (pno, in_page) = (cur / PAGE, cur % PAGE);
            let n = (PAGE - in_page).min(data.len() - pos);
            let page = match &mut table[pno] {
                Some(page) => {
                    if self.undo_on {
                        undo.push(UndoRecord::Bytes { off: cur as u64, len: n as u16 });
                        arena.extend_from_slice(&page[in_page..in_page + n]);
                    }
                    page
                }
                slot @ None => {
                    if self.undo_on {
                        undo.push(UndoRecord::Fresh);
                    }
                    live.push(pno);
                    slot.insert(fault(self.base, free, pno))
                }
            };
            page[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    fn read_bytes(&self, off: u64, buf: &mut [u8]) {
        cost::tick(cost::op_units(buf.len()));
        assert_in_range(off, buf.len() as u64, self.base.len() as u64);
        let mut pos = 0usize;
        while pos < buf.len() {
            let cur = off as usize + pos;
            let (pno, in_page) = (cur / PAGE, cur % PAGE);
            let n = (PAGE - in_page).min(buf.len() - pos);
            let src = match &self.s.table[pno] {
                Some(page) => &page[in_page..in_page + n],
                None => &self.base[cur..cur + n],
            };
            buf[pos..pos + n].copy_from_slice(src);
            pos += n;
        }
    }
}

/// A slot holding page `pno` of `base`: a recycled one refilled, or a
/// fresh one built from the base slice directly. Past the end of `base` (a
/// short last page) a slot holds whatever it held before; no access can
/// reach those bytes.
fn fault(base: &[u8], free: &mut Vec<Box<Page>>, pno: usize) -> Box<Page> {
    let src = &base[pno * PAGE..((pno + 1) * PAGE).min(base.len())];
    match free.pop() {
        Some(mut page) => {
            page[..src.len()].copy_from_slice(src);
            page
        }
        None => {
            let mut p = Vec::with_capacity(PAGE);
            p.extend_from_slice(src);
            p.resize(PAGE, 0);
            p.into_boxed_slice().try_into().expect("one page")
        }
    }
}

impl Drop for CowDevice<'_> {
    /// Empties the scratch, trims it to the kept caps and returns it to the
    /// thread. Runs during unwinding too (the sandbox catches checker panics
    /// with an overlay live), so nothing here can panic: on a thread already
    /// tearing its locals down the scratch is simply freed.
    fn drop(&mut self) {
        let s = &mut self.s;
        s.clear();
        s.free.truncate(KEEP_PAGES);
        s.free.shrink_to(KEEP_PAGES);
        s.live.shrink_to(KEEP_PAGES);
        s.arena.shrink_to(KEEP_ARENA);
        s.undo.shrink_to(KEEP_UNDO);
        let _ = IDLE.try_with(|idle| idle.set(std::mem::take(s)));
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
        let buf = [val; PAGE];
        let mut pos = 0u64;
        while pos < len {
            let n = (len - pos).min(PAGE as u64) as usize;
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

    #[test]
    fn recycled_slot_is_refilled_from_its_own_page() {
        // A slot released by one overlay comes back holding another page's
        // bytes; the next fault must overwrite every byte the device covers.
        let dirty = vec![0xeeu8; 2 * PAGE];
        let mut cow = CowDevice::new(&dirty);
        cow.store(0, &[1]);
        drop(cow);
        let base: Vec<u8> = (0..PAGE + 100).map(|i| (i % 253) as u8).collect();
        let mut cow = CowDevice::new(&base);
        cow.store(PAGE as u64, &[7]); // the short tail page, from the recycled slot
        let mut got = vec![0u8; base.len()];
        cow.read(0, &mut got);
        let mut want = base.clone();
        want[PAGE] = 7;
        assert_eq!(got, want);
    }
}
