//! Extent maps: the XFS way of describing file blocks.

/// One extent: `len` device blocks starting at `start`, mapped at file
/// block index `file_blk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First file block index covered.
    pub file_blk: u64,
    /// First device block.
    pub start: u64,
    /// Length in blocks.
    pub len: u64,
}

impl Extent {
    /// Whether the extent covers file block `idx`.
    pub fn covers(&self, idx: u64) -> bool {
        idx >= self.file_blk && idx < self.file_blk + self.len
    }

    /// The device block backing file block `idx` (must be covered).
    pub fn device_block(&self, idx: u64) -> u64 {
        debug_assert!(self.covers(idx));
        self.start + (idx - self.file_blk)
    }

    /// Whether appending file block `idx` backed by device block `blk`
    /// extends this extent contiguously.
    pub fn extends_with(&self, idx: u64, blk: u64) -> bool {
        idx == self.file_blk + self.len && blk == self.start + self.len
    }
}

/// An in-memory extent list (decoded from an inode).
///
/// Invariants: sorted by `file_blk`, non-overlapping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtentMap {
    /// The extents, sorted by file block.
    pub extents: Vec<Extent>,
}

impl ExtentMap {
    /// Looks up the device block for file block `idx`.
    pub fn lookup(&self, idx: u64) -> Option<u64> {
        self.extents.iter().find(|e| e.covers(idx)).map(|e| e.device_block(idx))
    }

    /// Maps file block `idx` to device block `blk`, merging into the
    /// preceding extent when contiguous.
    pub fn insert(&mut self, idx: u64, blk: u64) {
        debug_assert!(self.lookup(idx).is_none(), "file block {idx} already mapped");
        if let Some(e) = self.extents.iter_mut().find(|e| e.extends_with(idx, blk)) {
            e.len += 1;
            return;
        }
        let pos = self.extents.partition_point(|e| e.file_blk < idx);
        self.extents.insert(pos, Extent { file_blk: idx, start: blk, len: 1 });
    }

    /// Unmaps file block `idx`, returning its device block. Splits the
    /// containing extent if necessary.
    pub fn remove(&mut self, idx: u64) -> Option<u64> {
        let pos = self.extents.iter().position(|e| e.covers(idx))?;
        let e = self.extents[pos];
        let blk = e.device_block(idx);
        self.extents.remove(pos);
        // Left remainder.
        if idx > e.file_blk {
            self.extents.insert(
                pos,
                Extent { file_blk: e.file_blk, start: e.start, len: idx - e.file_blk },
            );
        }
        // Right remainder.
        if idx + 1 < e.file_blk + e.len {
            let off = idx + 1 - e.file_blk;
            let at = self.extents.partition_point(|x| x.file_blk < idx + 1);
            self.extents.insert(
                at,
                Extent { file_blk: idx + 1, start: e.start + off, len: e.len - off },
            );
        }
        Some(blk)
    }

    /// All device blocks in the map (for accounting and deallocation).
    pub fn device_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.extents.iter().flat_map(|e| e.start..e.start + e.len)
    }

    /// Drops every mapping at or beyond file block `keep`, returning the
    /// freed device blocks.
    pub fn truncate_from(&mut self, keep: u64) -> Vec<u64> {
        let mut freed = Vec::new();
        let mut kept = Vec::new();
        for e in self.extents.drain(..) {
            if e.file_blk + e.len <= keep {
                kept.push(e);
            } else if e.file_blk >= keep {
                freed.extend(e.start..e.start + e.len);
            } else {
                let keep_len = keep - e.file_blk;
                kept.push(Extent { file_blk: e.file_blk, start: e.start, len: keep_len });
                freed.extend(e.start + keep_len..e.start + e.len);
            }
        }
        self.extents = kept;
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_merges_contiguous_runs() {
        let mut m = ExtentMap::default();
        m.insert(0, 100);
        m.insert(1, 101);
        m.insert(2, 102);
        assert_eq!(m.extents.len(), 1);
        assert_eq!(m.extents[0], Extent { file_blk: 0, start: 100, len: 3 });
        m.insert(5, 200);
        assert_eq!(m.extents.len(), 2);
        assert_eq!(m.lookup(1), Some(101));
        assert_eq!(m.lookup(5), Some(200));
        assert_eq!(m.lookup(3), None);
    }

    #[test]
    fn remove_splits_extents() {
        let mut m = ExtentMap::default();
        for i in 0..5 {
            m.insert(i, 100 + i);
        }
        assert_eq!(m.remove(2), Some(102));
        assert_eq!(m.extents.len(), 2);
        assert_eq!(m.lookup(1), Some(101));
        assert_eq!(m.lookup(2), None);
        assert_eq!(m.lookup(3), Some(103));
        assert_eq!(m.remove(0), Some(100));
        assert_eq!(m.remove(9), None);
    }

    #[test]
    fn truncate_from_partial_extent() {
        let mut m = ExtentMap::default();
        for i in 0..6 {
            m.insert(i, 50 + i);
        }
        let freed = m.truncate_from(2);
        assert_eq!(freed, vec![52, 53, 54, 55]);
        assert_eq!(m.device_blocks().count(), 2);
        assert_eq!(m.lookup(1), Some(51));
        assert_eq!(m.lookup(2), None);
    }

    #[test]
    fn device_blocks_enumerates_everything() {
        let mut m = ExtentMap::default();
        m.insert(0, 10);
        m.insert(1, 11);
        m.insert(7, 30);
        let blocks: Vec<u64> = m.device_blocks().collect();
        assert_eq!(blocks, vec![10, 11, 30]);
    }

    #[test]
    fn noncontiguous_inserts_stay_sorted() {
        let mut m = ExtentMap::default();
        m.insert(5, 500);
        m.insert(1, 100);
        m.insert(3, 300);
        let file_blks: Vec<u64> = m.extents.iter().map(|e| e.file_blk).collect();
        assert_eq!(file_blks, vec![1, 3, 5]);
    }
}
