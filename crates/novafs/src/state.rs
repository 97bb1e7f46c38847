//! Volatile (DRAM) state: the structures NOVA rebuilds at every mount.
//!
//! NOVA keeps its allocator, per-file block maps, directory tables, and
//! sizes in DRAM for speed and write endurance, persisting only logs and
//! inodes (§2, Observation 3). Everything in this module is rebuilt by
//! [`crate::rebuild`] from the persistent logs.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use vfs::{FreeMap, FsError, FsResult};

/// In-DRAM state of one inode.
#[derive(Debug, Clone, Default)]
pub struct InodeState {
    /// File type tag (see [`crate::layout::itype`]).
    pub ftype: u64,
    /// Link count (files: dentry references; dirs: 2 + subdirs, derived).
    pub nlink: u64,
    /// File size in bytes.
    pub size: u64,
    /// Block map: file block index → device block (files).
    pub blocks: BTreeMap<u64, u64>,
    /// Fortis: per-file-block-run data checksums, keyed by first file block
    /// index of the run (validated on reads of runs not written this
    /// mount).
    pub run_csums: BTreeMap<u64, (u64, u32)>,
    /// Fortis: file block runs written (and therefore known-good) this
    /// mount.
    pub fresh_runs: BTreeSet<u64>,
    /// Directory table: name → child ino (directories).
    pub children: BTreeMap<String, u64>,
    /// Device byte offset of the last live dentry log record per name —
    /// the in-place invalidation target (bug 4's vehicle).
    pub dentry_pos: HashMap<String, u64>,
    /// Current log tail (absolute device byte offset; 0 = no log yet).
    pub log_tail: u64,
    /// First log page (device block number; 0 = none).
    pub log_head: u64,
}

/// The volatile block allocator, rebuilt at mount.
#[derive(Debug, Clone, Default)]
pub struct Allocator {
    free: FreeMap,
}

impl Allocator {
    /// Builds an allocator over `[data_start, total)` minus `used`.
    pub fn new(data_start: u64, total: u64, used: &[u64]) -> Self {
        let mut free = FreeMap::full(data_start, total);
        for &b in used {
            free.remove(b);
        }
        Allocator { free }
    }

    /// Builds the allocator from what a mount-time scan left unclaimed. The
    /// scan claims over the whole device — a log page or a mapping below
    /// `data_start` is claimed like any other, so a second claim of it is
    /// still noticed — and the metadata region is masked off here.
    pub fn from_unclaimed(mut unclaimed: FreeMap, data_start: u64) -> Self {
        unclaimed.clear_below(data_start);
        Allocator { free: unclaimed }
    }

    /// Allocates the lowest free block (deterministic).
    pub fn alloc(&mut self) -> FsResult<u64> {
        let b = self.free.first().ok_or(FsError::NoSpace)?;
        self.free.remove(b);
        Ok(b)
    }

    /// Allocates `n` blocks, contiguous if possible (NOVA prefers
    /// contiguous runs for file data so a write is one extent).
    pub fn alloc_run(&mut self, n: u64) -> FsResult<Vec<u64>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        // Look for a contiguous run.
        let mut run = 0..0;
        let found = self.free.iter().find_map(|b| {
            if b == run.end {
                run.end += 1;
            } else {
                run = b..b + 1;
            }
            (run.end - run.start == n).then_some(run.start)
        });
        let picked: Vec<u64> = match found {
            Some(start) => (start..start + n).collect(),
            // Fragmented fallback: any n blocks.
            None if (self.free.len() as u64) < n => return Err(FsError::NoSpace),
            None => self.free.iter().take(n as usize).collect(),
        };
        for &b in &picked {
            self.free.remove(b);
        }
        Ok(picked)
    }

    /// Returns a block to the free set. Fails on double free — the
    /// detection behind bug 11's consequence — and on a block outside the
    /// device, which could never be handed out again.
    pub fn free(&mut self, b: u64) -> FsResult<()> {
        if !self.free.insert(b) {
            return Err(FsError::Detected(format!(
                "attempt to deallocate already-free block {b}"
            )));
        }
        Ok(())
    }

    /// Number of free blocks.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }
}

/// Whole-FS volatile state.
#[derive(Debug, Clone, Default)]
pub struct Volatile {
    /// Per-inode DRAM state (present only for live inodes).
    pub inodes: HashMap<u64, InodeState>,
    /// The block allocator.
    pub alloc: Allocator,
    /// Open-descriptor table: fd → (ino, offset, append).
    pub fds: HashMap<u64, (u64, u64, bool)>,
    /// Next descriptor number.
    pub next_fd: u64,
    /// Current generation (mirrors the persistent GEN_A/GEN_B pair).
    pub gen: u64,
    /// Current simulated CPU (unused by NOVA; kept for interface parity).
    pub cpu: usize,
}

impl Volatile {
    /// Looks up a live inode's state.
    pub fn inode(&self, ino: u64) -> FsResult<&InodeState> {
        self.inodes.get(&ino).ok_or(FsError::NotFound)
    }

    /// Mutable inode state.
    pub fn inode_mut(&mut self, ino: u64) -> FsResult<&mut InodeState> {
        self.inodes.get_mut(&ino).ok_or(FsError::NotFound)
    }

    /// Number of descriptors open on `ino`.
    pub fn open_count(&self, ino: u64) -> usize {
        self.fds.values().filter(|(i, _, _)| *i == ino).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `Allocator::alloc_run` as it was over the sorted free list.
    fn list_alloc_run(free: &mut BTreeSet<u64>, n: u64) -> FsResult<Vec<u64>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let (mut run_start, mut prev, mut len) = (0, None, 0u64);
        for &b in free.iter() {
            if prev.is_some_and(|p| b == p + 1) {
                len += 1;
            } else {
                run_start = b;
                len = 1;
            }
            prev = Some(b);
            if len == n {
                for blk in run_start..run_start + n {
                    free.remove(&blk);
                }
                return Ok((run_start..run_start + n).collect());
            }
        }
        if (free.len() as u64) < n {
            return Err(FsError::NoSpace);
        }
        let picked: Vec<u64> = free.iter().take(n as usize).copied().collect();
        for b in &picked {
            free.remove(b);
        }
        Ok(picked)
    }

    proptest! {
        /// Contiguous hit, fragmented fallback, `NoSpace`, lowest-first
        /// `alloc` and the double free: block for block what the sorted list
        /// returned, over random fragmentation.
        #[test]
        fn allocator_picks_the_blocks_the_sorted_list_picked(
            total in 1u64..200,
            used in proptest::collection::vec(0u64..200, 0..120),
            ops in proptest::collection::vec((0u8..3, 0u64..210), 0..40),
        ) {
            let data_start = total / 8;
            let mut a = Allocator::new(data_start, total, &used);
            let mut list: BTreeSet<u64> =
                (data_start..total).filter(|b| !used.contains(b)).collect();
            for (kind, arg) in ops {
                match kind {
                    0 => match (a.alloc(), list.pop_first()) {
                        (Ok(got), Some(want)) => prop_assert_eq!(got, want),
                        (Err(FsError::NoSpace), None) => {}
                        (got, want) => panic!("alloc: {got:?} vs {want:?}"),
                    },
                    1 => match (a.alloc_run(arg % 9), list_alloc_run(&mut list, arg % 9)) {
                        (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                        (Err(FsError::NoSpace), Err(FsError::NoSpace)) => {}
                        (got, want) => panic!("alloc_run: {got:?} vs {want:?}"),
                    },
                    _ => {
                        // Out of range is refused like a double free.
                        let fresh = arg < total && list.insert(arg);
                        match a.free(arg) {
                            Ok(()) => prop_assert!(fresh),
                            Err(FsError::Detected(_)) => prop_assert!(!fresh),
                            Err(e) => panic!("free: {e:?}"),
                        }
                    }
                }
                prop_assert_eq!(a.free_count(), list.len());
            }
        }
    }

    #[test]
    fn allocator_is_deterministic_and_detects_double_free() {
        let used = [10u64, 11];
        let mut a = Allocator::new(10, 20, &used);
        assert_eq!(a.free_count(), 8);
        assert_eq!(a.alloc().unwrap(), 12);
        assert_eq!(a.alloc().unwrap(), 13);
        a.free(12).unwrap();
        assert_eq!(a.alloc().unwrap(), 12);
        assert!(a.free(13).is_ok());
        assert!(matches!(a.free(13), Err(FsError::Detected(_))));
    }

    #[test]
    fn alloc_run_prefers_contiguous() {
        let used = [12u64];
        let mut a = Allocator::new(10, 30, &used);
        // 10, 11 free then 12 used: a 3-run must start at 13.
        let run = a.alloc_run(3).unwrap();
        assert_eq!(run, vec![13, 14, 15]);
    }

    #[test]
    fn alloc_run_falls_back_when_fragmented() {
        let used: Vec<u64> = (10..20).filter(|b| b % 2 == 0).collect();
        let mut a = Allocator::new(10, 20, &used);
        let run = a.alloc_run(3).unwrap();
        assert_eq!(run.len(), 3);
        assert!(a.alloc_run(10).is_err());
    }

    #[test]
    fn alloc_exhaustion() {
        let used = [];
        let mut a = Allocator::new(10, 12, &used);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert!(matches!(a.alloc(), Err(FsError::NoSpace)));
    }
}
