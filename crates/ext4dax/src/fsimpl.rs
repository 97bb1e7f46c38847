//! The ext4-DAX on-media format under [`vfs::pagedfs`]: mkfs and mount, the
//! first-fit block bitmap, and the direct + single-indirect block map.

use std::ops::Range;

use pmem::PmBackend;
use vfs::{
    covpoint,
    pagecache::BlockClass,
    pagedfs::{itype, EpochBlock, Media, PagedFs, RedoLog, ROOT_INO},
    Cov, FsError, FsName, FsResult,
};

use crate::layout::{
    ioff, sboff, Geometry, BLOCK, INODE_SIZE, MAGIC, MAX_FILE_BLOCKS, NDIRECT, PTRS_PER_BLOCK,
};

/// The ext4-DAX-style file system (see the crate docs): the shared
/// page-cached core over this crate's format.
pub type Ext4Dax<D> = PagedFs<D, Geometry>;

impl EpochBlock for Geometry {
    const EPOCH_BLOCK: u64 = 1;
}

impl Media for Geometry {
    const NAME: FsName = FsName::Ext4Dax;
    /// The jbd2-style journal.
    const LOG: RedoLog = RedoLog {
        desc_magic: u64::from_le_bytes(*b"J4DESC\0\0"),
        commit_magic: u64::from_le_bytes(*b"J4COMMIT"),
        seed: 0x6a64_6273, // "jdbs"
        rotate: 7,
        seq_off: sboff::JOURNAL_SEQ,
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
        self.journal_start..self.journal_start + self.journal_blocks
    }

    fn format<D: PmBackend>(dev: &mut D) -> FsResult<Self> {
        let geo = Geometry::for_device(dev.len())?;
        // Superblock.
        let mut sb = vec![0u8; BLOCK as usize];
        let mut put = |off: u64, v: u64| sb[off as usize..off as usize + 8]
            .copy_from_slice(&v.to_le_bytes());
        put(sboff::MAGIC, MAGIC);
        put(sboff::TOTAL_BLOCKS, geo.total_blocks);
        put(sboff::INODE_COUNT, geo.inode_count);
        put(sboff::JOURNAL_START, geo.journal_start);
        put(sboff::JOURNAL_BLOCKS, geo.journal_blocks);
        put(sboff::BITMAP_START, geo.bitmap_start);
        put(sboff::BITMAP_BLOCKS, geo.bitmap_blocks);
        put(sboff::ITABLE_START, geo.itable_start);
        put(sboff::ITABLE_BLOCKS, geo.itable_blocks);
        put(sboff::DATA_START, geo.data_start);
        put(sboff::JOURNAL_SEQ, 0);
        dev.memcpy_nt(0, &sb);
        // Epoch block: zeroed.
        dev.memset_nt(Self::EPOCH_BLOCK * BLOCK, 0, BLOCK);
        // Bitmap: reserve everything below data_start.
        dev.memset_nt(geo.bitmap_start * BLOCK, 0, geo.bitmap_blocks * BLOCK);
        let mut reserved = vec![0u8; (geo.data_start as usize).div_ceil(8)];
        for b in 0..geo.data_start {
            reserved[(b / 8) as usize] |= 1 << (b % 8);
        }
        dev.memcpy_nt(geo.bitmap_start * BLOCK, &reserved);
        // Inode table: all free except root.
        dev.memset_nt(geo.itable_start * BLOCK, 0, geo.itable_blocks * BLOCK);
        let mut ri = vec![0u8; INODE_SIZE as usize];
        ri[ioff::FTYPE as usize..ioff::FTYPE as usize + 8]
            .copy_from_slice(&itype::DIR.to_le_bytes());
        ri[ioff::NLINK as usize..ioff::NLINK as usize + 8].copy_from_slice(&2u64.to_le_bytes());
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
            journal_start: dev.read_u64(sboff::JOURNAL_START),
            journal_blocks: dev.read_u64(sboff::JOURNAL_BLOCKS),
            bitmap_start: dev.read_u64(sboff::BITMAP_START),
            bitmap_blocks: dev.read_u64(sboff::BITMAP_BLOCKS),
            itable_start: dev.read_u64(sboff::ITABLE_START),
            itable_blocks: dev.read_u64(sboff::ITABLE_BLOCKS),
            data_start: dev.read_u64(sboff::DATA_START),
        };
        if geo.total_blocks * BLOCK > dev.len() || geo.data_start >= geo.total_blocks {
            return Err(FsError::Unmountable("superblock geometry out of range".into()));
        }
        let replayed = Self::LOG.recover(dev, geo.log_region(), geo.total_blocks)?;
        covpoint!(cov, if replayed > 0 { 1 } else { 0 });
        Ok(geo)
    }

    /// A crash can strand set bits for blocks no inode references (their
    /// freeing commit never happened, or happened while the clears were
    /// still pending). Recompute reachability and fix the cached bitmap; the
    /// fixes become durable with the next commit.
    fn reconcile<D: PmBackend>(fs: &mut Ext4Dax<D>) -> FsResult<()> {
        let mut referenced = vec![false; fs.geo.total_blocks as usize];
        referenced[..fs.geo.data_start as usize].fill(true);
        for ino in 1..=fs.geo.inode_count {
            if fs.iget(ino, ioff::FTYPE) == itype::FREE {
                continue;
            }
            for (_, b) in mapped_from(fs, ino, 0) {
                referenced[b as usize] = true;
            }
            for field in [ioff::INDIRECT, ioff::XATTR] {
                if let Some(b) = fs.valid_blk(fs.iget(ino, field)) {
                    referenced[b as usize] = true;
                }
            }
        }
        for b in fs.geo.data_blocks() {
            let (blk, byte_idx, mask) = bitmap_bit(&fs.geo, b);
            let mut byte = [0u8; 1];
            fs.cache.read(&fs.dev, blk, byte_idx, &mut byte);
            if (byte[0] & mask != 0) != referenced[b as usize] {
                covpoint!(fs.cov, 7);
                byte[0] ^= mask;
                fs.cache.write(&fs.dev, blk, byte_idx, &byte, BlockClass::Meta);
            }
        }
        fs.check_root()
    }

    /// First fit over the one bitmap.
    fn alloc_block<D: PmBackend>(fs: &mut Ext4Dax<D>, _ino: u64) -> FsResult<u64> {
        let bitmap_bytes = fs.geo.total_blocks.div_ceil(8);
        for bblk in 0..fs.geo.bitmap_blocks {
            let blk = fs.geo.bitmap_start + bblk;
            let limit = (bitmap_bytes - (bblk * BLOCK).min(bitmap_bytes)).min(BLOCK);
            for byte_idx in 0..limit {
                let mut byte = [0u8; 1];
                fs.cache.read(&fs.dev, blk, byte_idx, &mut byte);
                if byte[0] != 0xff {
                    let bit = byte[0].trailing_ones() as u64;
                    let blkno = (bblk * BLOCK + byte_idx) * 8 + bit;
                    if blkno >= fs.geo.total_blocks {
                        return Err(FsError::NoSpace);
                    }
                    byte[0] |= 1 << bit;
                    fs.cache.write(&fs.dev, blk, byte_idx, &byte, BlockClass::Meta);
                    return Ok(blkno);
                }
            }
        }
        Err(FsError::NoSpace)
    }

    fn mark_free<D: PmBackend>(fs: &mut Ext4Dax<D>, blkno: u64) {
        let (blk, byte_idx, mask) = bitmap_bit(&fs.geo, blkno);
        let mut byte = [0u8; 1];
        fs.cache.read(&fs.dev, blk, byte_idx, &mut byte);
        byte[0] &= !mask;
        fs.cache.write(&fs.dev, blk, byte_idx, &byte, BlockClass::Meta);
    }

    /// Nothing is read up front: every lookup reads its own pointer.
    fn block_map<'a, D: PmBackend>(
        fs: &'a Ext4Dax<D>,
        ino: u64,
    ) -> impl Fn(u64) -> Option<u64> + 'a {
        move |idx| get_block(fs, ino, idx)
    }

    fn mapped<D: PmBackend>(fs: &Ext4Dax<D>, ino: u64) -> Vec<u64> {
        mapped_from(fs, ino, 0).into_iter().map(|(_, b)| b).collect()
    }

    fn ensure_block<D: PmBackend>(fs: &mut Ext4Dax<D>, ino: u64, idx: u64) -> FsResult<u64> {
        if let Some(b) = get_block(fs, ino, idx) {
            return Ok(b);
        }
        let b = Self::alloc_block(fs, ino)?;
        fs.cache.zero_block(b, BlockClass::Data);
        set_block(fs, ino, idx, b)?;
        Ok(b)
    }

    fn shrink<D: PmBackend>(fs: &mut Ext4Dax<D>, ino: u64, size: u64) -> FsResult<()> {
        for (idx, b) in mapped_from(fs, ino, size.div_ceil(BLOCK)) {
            fs.free_block(b);
            set_block(fs, ino, idx, 0)?;
        }
        if !size.is_multiple_of(BLOCK) {
            if let Some(b) = get_block(fs, ino, size / BLOCK) {
                fs.zero_range(b, size % BLOCK, BLOCK - size % BLOCK);
            }
        }
        Ok(())
    }

    /// Unlike a shrink to zero, `O_TRUNC` gives the indirect block back too.
    fn clear<D: PmBackend>(fs: &mut Ext4Dax<D>, ino: u64) -> FsResult<()> {
        covpoint!(fs.cov);
        free_file_blocks(fs, ino);
        for i in 0..NDIRECT as u64 {
            fs.iset(ino, ioff::DIRECT + i * 8, 0);
        }
        fs.iset(ino, ioff::INDIRECT, 0);
        Ok(())
    }

    fn punch_block<D: PmBackend>(fs: &mut Ext4Dax<D>, ino: u64, idx: u64) -> FsResult<()> {
        if let Some(b) = get_block(fs, ino, idx) {
            fs.free_block(b);
            set_block(fs, ino, idx, 0)?;
        }
        Ok(())
    }

    fn release_inode<D: PmBackend>(fs: &mut Ext4Dax<D>, ino: u64) {
        free_file_blocks(fs, ino);
        let x = fs.iget(ino, ioff::XATTR);
        if x != 0 {
            fs.free_block(x);
        }
        fs.iset(ino, ioff::FTYPE, itype::FREE);
        fs.iset(ino, ioff::SIZE, 0);
        fs.iset(ino, ioff::INDIRECT, 0);
        fs.iset(ino, ioff::XATTR, 0);
        for i in 0..NDIRECT as u64 {
            fs.iset(ino, ioff::DIRECT + i * 8, 0);
        }
    }
}

/// Bitmap block, byte within it and bit mask of block `blkno`.
fn bitmap_bit(geo: &Geometry, blkno: u64) -> (u64, u64, u8) {
    (geo.bitmap_start + blkno / (BLOCK * 8), (blkno / 8) % BLOCK, 1 << (blkno % 8))
}

/// Collects the allocated `(file index, block)` pairs of `ino` from index
/// `start` up, in index order. Equivalent to probing [`get_block`] per
/// index, but reads the indirect pointer once and the indirect block with
/// one bulk read — the per-slot re-reads dominated mount, stat, and release
/// scans.
fn mapped_from<D: PmBackend>(fs: &Ext4Dax<D>, ino: u64, start: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for idx in start.min(NDIRECT as u64)..NDIRECT as u64 {
        if let Some(b) = fs.valid_blk(fs.iget(ino, ioff::DIRECT + idx * 8)) {
            out.push((idx, b));
        }
    }
    let Some(ind) = fs.valid_blk(fs.iget(ino, ioff::INDIRECT)) else {
        return out;
    };
    let mut raw = [0u8; BLOCK as usize];
    fs.read_cached(ind, 0, &mut raw);
    for e in start.saturating_sub(NDIRECT as u64)..PTRS_PER_BLOCK {
        let b = u64::from_le_bytes(
            raw[(e * 8) as usize..(e * 8 + 8) as usize].try_into().expect("8-byte slot"),
        );
        if let Some(b) = fs.valid_blk(b) {
            out.push((NDIRECT as u64 + e, b));
        }
    }
    out
}

fn get_block<D: PmBackend>(fs: &Ext4Dax<D>, ino: u64, idx: u64) -> Option<u64> {
    if idx < NDIRECT as u64 {
        fs.valid_blk(fs.iget(ino, ioff::DIRECT + idx * 8))
    } else if idx < MAX_FILE_BLOCKS {
        let ind = fs.valid_blk(fs.iget(ino, ioff::INDIRECT))?;
        fs.valid_blk(fs.read_cached_u64(ind, (idx - NDIRECT as u64) * 8))
    } else {
        None
    }
}

fn set_block<D: PmBackend>(fs: &mut Ext4Dax<D>, ino: u64, idx: u64, blkno: u64) -> FsResult<()> {
    if idx < NDIRECT as u64 {
        fs.iset(ino, ioff::DIRECT + idx * 8, blkno);
        Ok(())
    } else if idx < MAX_FILE_BLOCKS {
        let mut ind = fs.iget(ino, ioff::INDIRECT);
        if ind == 0 {
            if blkno == 0 {
                return Ok(());
            }
            ind = Geometry::alloc_block(fs, ino)?;
            fs.cache.zero_block(ind, BlockClass::Meta);
            fs.iset(ino, ioff::INDIRECT, ind);
        }
        fs.cache.write_u64(&fs.dev, ind, (idx - NDIRECT as u64) * 8, blkno, BlockClass::Meta);
        Ok(())
    } else {
        Err(FsError::NoSpace)
    }
}

/// Frees all data blocks and the indirect block (not the xattr block); the
/// caller clears or resets the pointers.
fn free_file_blocks<D: PmBackend>(fs: &mut Ext4Dax<D>, ino: u64) {
    for (_, b) in mapped_from(fs, ino, 0) {
        fs.free_block(b);
    }
    let ind = fs.iget(ino, ioff::INDIRECT);
    if ind != 0 {
        fs.free_block(ind);
    }
}
