//! The XFS-DAX on-media format under [`vfs::pagedfs`]: mkfs and mount, the
//! write-ahead log's constants, the allocation groups, and the inline extent
//! map.

use std::ops::Range;

use pmem::PmBackend;
use vfs::{
    covpoint,
    pagecache::BlockClass,
    pagedfs::{itype, Media, PagedFs, RedoLog, ROOT_INO},
    Cov, FsError, FsName, FsResult,
};

use crate::{
    extents::ExtentMap,
    layout::{ioff, sboff, Geometry, BLOCK, INODE_SIZE, MAGIC, MAX_FILE_BLOCKS, NEXTENTS},
};

/// The XFS-DAX-style file system (see the crate docs): the shared
/// page-cached core over this crate's format.
pub type XfsDax<D> = PagedFs<D, Geometry>;

impl Media for Geometry {
    const NAME: FsName = FsName::XfsDax;
    /// The write-ahead log.
    const LOG: RedoLog = RedoLog {
        desc_magic: u64::from_le_bytes(*b"XLOGDESC"),
        commit_magic: u64::from_le_bytes(*b"XLOGCMMT"),
        seed: 0x786c_6f67, // "xlog"
        rotate: 9,
        seq_off: sboff::LOG_SEQ,
    };
    const INODE_SIZE: u64 = INODE_SIZE;
    const XATTR: u64 = ioff::XATTR;
    const MAX_FILE_BLOCKS: u64 = MAX_FILE_BLOCKS;

    fn inode_count(&self) -> u64 {
        self.inode_count
    }

    fn inode_off(&self, ino: u64) -> u64 {
        Geometry::inode_off(self, ino)
    }

    fn data_blocks(&self) -> Range<u64> {
        self.data_start..self.total_blocks
    }

    fn log_region(&self) -> Range<u64> {
        self.log_start..self.log_start + self.log_blocks
    }

    fn format<D: PmBackend>(dev: &mut D) -> FsResult<Self> {
        let geo = Geometry::for_device(dev.len())?;
        let mut sb = vec![0u8; 128];
        let mut put = |o: u64, v: u64| sb[o as usize..o as usize + 8]
            .copy_from_slice(&v.to_le_bytes());
        put(sboff::MAGIC, MAGIC);
        put(sboff::TOTAL_BLOCKS, geo.total_blocks);
        put(sboff::INODE_COUNT, geo.inode_count);
        put(sboff::LOG_START, geo.log_start);
        put(sboff::LOG_BLOCKS, geo.log_blocks);
        put(sboff::NAGS, geo.nags);
        put(sboff::AG_SIZE, geo.ag_size);
        put(sboff::AGF_START, geo.agf_start);
        put(sboff::ITABLE, geo.itable);
        put(sboff::DATA_START, geo.data_start);
        put(sboff::LOG_SEQ, 0);
        dev.memcpy_nt(0, &sb);
        // AG bitmaps and the inode table start empty.
        dev.memset_nt(geo.agf_start * BLOCK, 0, (geo.data_start - geo.agf_start) * BLOCK);
        // Root inode.
        let mut ri = [0u8; 16];
        ri[0..8].copy_from_slice(&itype::DIR.to_le_bytes());
        ri[8..16].copy_from_slice(&2u64.to_le_bytes());
        dev.memcpy_nt(geo.inode_off(ROOT_INO), &ri);
        dev.fence();
        Ok(geo)
    }

    fn recover<D: PmBackend>(dev: &mut D, cov: &Cov) -> FsResult<Self> {
        if dev.read_u64(sboff::MAGIC) != MAGIC {
            return Err(FsError::Unmountable("bad superblock magic".into()));
        }
        let geo = Geometry {
            total_blocks: dev.read_u64(sboff::TOTAL_BLOCKS),
            inode_count: dev.read_u64(sboff::INODE_COUNT),
            log_start: dev.read_u64(sboff::LOG_START),
            log_blocks: dev.read_u64(sboff::LOG_BLOCKS),
            nags: dev.read_u64(sboff::NAGS),
            ag_size: dev.read_u64(sboff::AG_SIZE),
            agf_start: dev.read_u64(sboff::AGF_START),
            itable: dev.read_u64(sboff::ITABLE),
            data_start: dev.read_u64(sboff::DATA_START),
        };
        if geo.total_blocks * BLOCK > dev.len()
            || geo.data_start >= geo.total_blocks
            || geo.nags == 0
            || geo.ag_size == 0
        {
            return Err(FsError::Unmountable("superblock geometry out of range".into()));
        }
        let replayed = Self::LOG.recover(dev, geo.log_region(), geo.total_blocks)?;
        covpoint!(cov, u64::from(replayed > 0));
        Ok(geo)
    }

    /// A crash can strand AG-bitmap bits whose freeing commit never landed.
    fn reconcile<D: PmBackend>(fs: &mut XfsDax<D>) -> FsResult<()> {
        fs.check_root()?;
        let mut referenced = vec![false; fs.geo.total_blocks as usize];
        for ino in 1..=fs.geo.inode_count {
            if fs.iget(ino, ioff::FTYPE) == itype::FREE {
                continue;
            }
            for b in ext_load(fs, ino).device_blocks() {
                referenced[b as usize] = true;
            }
            if let Some(x) = fs.valid_blk(fs.iget(ino, ioff::XATTR)) {
                referenced[x as usize] = true;
            }
        }
        for blk in fs.geo.data_blocks() {
            if is_allocated(fs, blk) != referenced[blk as usize] {
                covpoint!(fs.cov, 7);
                set_allocated(fs, blk, referenced[blk as usize]);
            }
        }
        Ok(())
    }

    /// From the allocation group the inode hashes to.
    fn alloc_block<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64) -> FsResult<u64> {
        alloc_in_ag(fs, ino % fs.geo.nags, None)
    }

    fn mark_free<D: PmBackend>(fs: &mut XfsDax<D>, blk: u64) {
        set_allocated(fs, blk, false);
    }

    /// The inode's extent records are decoded once, up front.
    fn block_map<'a, D: PmBackend>(
        fs: &'a XfsDax<D>,
        ino: u64,
    ) -> impl Fn(u64) -> Option<u64> + 'a {
        let map = ext_load(fs, ino);
        move |idx| map.lookup(idx)
    }

    fn mapped<D: PmBackend>(fs: &XfsDax<D>, ino: u64) -> Vec<u64> {
        ext_load(fs, ino).device_blocks().collect()
    }

    fn ensure_block<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64, idx: u64) -> FsResult<u64> {
        let mut map = ext_load(fs, ino);
        if let Some(b) = map.lookup(idx) {
            return Ok(b);
        }
        // Grow contiguously after the block backing idx-1 when possible.
        let after = idx.checked_sub(1).and_then(|p| map.lookup(p));
        let blk = alloc_in_ag(fs, ino % fs.geo.nags, after)?;
        fs.cache.zero_block(blk, BlockClass::Data);
        map.insert(idx, blk);
        match ext_store(fs, ino, &map) {
            Ok(()) => Ok(blk),
            Err(e) => {
                // Roll the allocation back; the map on disk is unchanged.
                set_allocated(fs, blk, false);
                fs.cache.evict(blk);
                Err(e)
            }
        }
    }

    fn shrink<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64, size: u64) -> FsResult<()> {
        let mut map = ext_load(fs, ino);
        for b in map.truncate_from(size.div_ceil(BLOCK)) {
            fs.free_block(b);
        }
        // Zero the kept boundary tail so later extension reads zeros.
        if !size.is_multiple_of(BLOCK) {
            if let Some(b) = map.lookup(size / BLOCK) {
                fs.zero_range(b, size % BLOCK, BLOCK - size % BLOCK);
            }
        }
        ext_store(fs, ino, &map)
    }

    fn punch_block<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64, idx: u64) -> FsResult<()> {
        let mut map = ext_load(fs, ino);
        if let Some(b) = map.remove(idx) {
            // A split may overflow the inline map; fall back to zeroing in
            // place.
            if ext_store(fs, ino, &map).is_ok() {
                fs.free_block(b);
            } else {
                fs.zero_range(b, 0, BLOCK);
            }
        }
        Ok(())
    }

    fn release_inode<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64) {
        for b in Self::mapped(fs, ino) {
            fs.free_block(b);
        }
        if let Some(x) = fs.valid_blk(fs.iget(ino, ioff::XATTR)) {
            fs.free_block(x);
        }
        fs.zero_inode(ino);
    }
}

// ---- extent maps ----

/// Decodes the inode's extent records, dropping corrupt ones (crash states
/// can hold arbitrary bytes; garbage must surface as detectable
/// inconsistency, not out-of-range access).
fn ext_load<D: PmBackend>(fs: &XfsDax<D>, ino: u64) -> ExtentMap {
    let n = (fs.iget(ino, ioff::NEXTENTS) as usize).min(NEXTENTS);
    let mut map = ExtentMap::default();
    for i in 0..n {
        let base = ioff::EXTENTS + i as u64 * 24;
        let file_blk = fs.iget(ino, base);
        let start = fs.iget(ino, base + 8);
        let len = fs.iget(ino, base + 16);
        let end_ok = len > 0
            && len <= MAX_FILE_BLOCKS
            && file_blk < MAX_FILE_BLOCKS
            && fs.valid_blk(start).is_some()
            && start + len <= fs.geo.total_blocks;
        if end_ok && (file_blk..file_blk + len).all(|fb| map.lookup(fb).is_none()) {
            for k in 0..len {
                map.insert(file_blk + k, start + k);
            }
        }
    }
    map
}

fn ext_store<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64, map: &ExtentMap) -> FsResult<()> {
    if map.extents.len() > NEXTENTS {
        return Err(FsError::NoSpace); // EFBIG: inline extent map is full
    }
    fs.iset(ino, ioff::NEXTENTS, map.extents.len() as u64);
    for (i, e) in map.extents.iter().enumerate() {
        let base = ioff::EXTENTS + i as u64 * 24;
        fs.iset(ino, base, e.file_blk);
        fs.iset(ino, base + 8, e.start);
        fs.iset(ino, base + 16, e.len);
    }
    Ok(())
}

// ---- allocation groups ----

/// AG-bitmap block, byte within it and bit mask of block `blk`.
fn ag_bit(geo: &Geometry, blk: u64) -> (u64, u64, u8) {
    let ag = geo.ag_of(blk);
    let idx = blk - geo.ag_range(ag).0;
    (geo.agf_block(ag), idx / 8, 1u8 << (idx % 8))
}

fn is_allocated<D: PmBackend>(fs: &mut XfsDax<D>, blk: u64) -> bool {
    let (ablk, byte, mask) = ag_bit(&fs.geo, blk);
    let mut b = [0u8; 1];
    fs.cache.read(&fs.dev, ablk, byte, &mut b);
    b[0] & mask != 0
}

fn set_allocated<D: PmBackend>(fs: &mut XfsDax<D>, blk: u64, on: bool) {
    let (ablk, byte, mask) = ag_bit(&fs.geo, blk);
    let mut b = [0u8; 1];
    fs.cache.read(&fs.dev, ablk, byte, &mut b);
    if on {
        b[0] |= mask;
    } else {
        b[0] &= !mask;
    }
    fs.cache.write(&fs.dev, ablk, byte, &b, BlockClass::Meta);
}

/// Allocates one block, preferring `after + 1` (extent growth), then the
/// hint AG, then any AG.
fn alloc_in_ag<D: PmBackend>(
    fs: &mut XfsDax<D>,
    hint_ag: u64,
    after: Option<u64>,
) -> FsResult<u64> {
    if let Some(prev) = after {
        let next = prev + 1;
        if next < fs.geo.total_blocks
            && next >= fs.geo.data_start
            && fs.geo.ag_of(next) == fs.geo.ag_of(prev)
            && !is_allocated(fs, next)
        {
            set_allocated(fs, next, true);
            return Ok(next);
        }
    }
    for probe in 0..fs.geo.nags {
        let ag = (hint_ag + probe) % fs.geo.nags;
        let (start, end) = fs.geo.ag_range(ag);
        for blk in start..end {
            if !is_allocated(fs, blk) {
                covpoint!(fs.cov, probe);
                set_allocated(fs, blk, true);
                return Ok(blk);
            }
        }
    }
    Err(FsError::NoSpace)
}
