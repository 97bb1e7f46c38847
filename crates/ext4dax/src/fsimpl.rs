//! The ext4-DAX file-system implementation.

use std::collections::HashMap;

use pmem::PmBackend;
use vfs::{
    covpoint,
    fs::{FileSystem, FsOptions},
    path::{components, is_path_prefix, split_parent},
    Cov, DirEntry, FallocMode, Fd, FileType, FsError, FsResult, Metadata, OpenFlags,
};

use crate::{
    cache::{BlockClass, PageCache},
    journal::{self, JournalBlock},
    layout::{ioff, itype, sboff, Geometry, RawDentry, BLOCK, DENTRY_NAME_MAX, DENTRY_SIZE, INODE_SIZE, MAGIC, MAX_FILE_BLOCKS, NDIRECT, PTRS_PER_BLOCK, ROOT_INO},
};

#[derive(Debug, Clone, Copy)]
struct OpenFile {
    ino: u64,
    offset: u64,
    append: bool,
}

/// The ext4-DAX-style file system (see the crate docs).
#[derive(Clone)]
pub struct Ext4Dax<D> {
    dev: D,
    geo: Geometry,
    cache: PageCache,
    fds: HashMap<u64, OpenFile>,
    next_fd: u64,
    cov: Cov,
    /// Blocks freed since the last journal commit. Their bitmap bits stay
    /// set until the commit that unreferences them, so they cannot be
    /// reallocated and overwritten in place while a committed state still
    /// maps them (the ordered-mode reuse hazard).
    pending_free: Vec<u64>,
}

impl<D: PmBackend> Ext4Dax<D> {
    /// Formats `dev` and mounts the fresh file system.
    pub fn mkfs(mut dev: D, opts: &FsOptions) -> FsResult<Self> {
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
        // Epoch block (block 1): zeroed.
        dev.memset_nt(BLOCK, 0, BLOCK);
        // Bitmap: reserve everything below data_start.
        dev.memset_nt(geo.bitmap_start * BLOCK, 0, geo.bitmap_blocks * BLOCK);
        let mut reserved = vec![0u8; (geo.data_start as usize).div_ceil(8)];
        for b in 0..geo.data_start {
            reserved[(b / 8) as usize] |= 1 << (b % 8);
        }
        dev.memcpy_nt(geo.bitmap_start * BLOCK, &reserved);
        // Inode table: all free except root.
        dev.memset_nt(geo.itable_start * BLOCK, 0, geo.itable_blocks * BLOCK);
        let root = geo.inode_off(ROOT_INO);
        let mut ri = vec![0u8; INODE_SIZE as usize];
        ri[ioff::FTYPE as usize..ioff::FTYPE as usize + 8]
            .copy_from_slice(&itype::DIR.to_le_bytes());
        ri[ioff::NLINK as usize..ioff::NLINK as usize + 8].copy_from_slice(&2u64.to_le_bytes());
        dev.memcpy_nt(root, &ri);
        dev.fence();
        Ok(Ext4Dax {
            dev,
            geo,
            cache: PageCache::new(),
            fds: HashMap::new(),
            next_fd: 3,
            cov: opts.cov.clone(),
            pending_free: Vec::new(),
        })
    }

    /// Mounts `dev`, replaying the journal if a committed transaction was
    /// not checkpointed before the crash.
    pub fn mount(mut dev: D, opts: &FsOptions) -> FsResult<Self> {
        let cov = opts.cov.clone();
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
        let replayed = journal::recover(&mut dev, &geo)?;
        covpoint!(cov, if replayed > 0 { 1 } else { 0 });
        let mut fs = Ext4Dax {
            dev,
            geo,
            cache: PageCache::new(),
            fds: HashMap::new(),
            next_fd: 3,
            cov,
            pending_free: Vec::new(),
        };
        fs.reconcile_bitmap();
        // Basic sanity: root must be a directory.
        if fs.iget(ROOT_INO, ioff::FTYPE) != itype::DIR {
            return Err(FsError::Unmountable("root inode is not a directory".into()));
        }
        Ok(fs)
    }

    /// Returns the underlying device (consuming the mount).
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Sets the checkpoint epoch (block 1, journaled: the new value becomes
    /// durable atomically with the next `sync`/`fsync` commit). Used by the
    /// SplitFS user-space component to make operation-log truncation
    /// race-free against the kernel commit.
    pub fn set_epoch(&mut self, v: u64) {
        self.cache.write_u64(&self.dev, 1, 0, v, BlockClass::Meta);
    }

    /// Reads the checkpoint epoch (cached view).
    pub fn epoch(&self) -> u64 {
        self.read_cached_u64(1, 0)
    }

    // ---- inode helpers (all through the page cache) ----

    fn inode_loc(&self, ino: u64, field: u64) -> (u64, u64) {
        let off = self.geo.inode_off(ino) + field;
        (off / BLOCK, off % BLOCK)
    }

    fn iget(&self, ino: u64, field: u64) -> u64 {
        // The cache requires &mut; use an internal RefCell-free trick: reads
        // of clean blocks through &self would complicate the FileSystem
        // trait, so the cache is only consulted via &mut paths. For &self
        // accessors (stat/readdir/read_file) we read dirty state through a
        // shadow lookup below.
        self.read_u64_shadow(ino, field)
    }

    fn read_u64_shadow(&self, ino: u64, field: u64) -> u64 {
        let (blk, off) = self.inode_loc(ino, field);
        self.read_cached_u64(blk, off)
    }

    fn read_cached_u64(&self, blk: u64, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_cached(blk, off, &mut b);
        u64::from_le_bytes(b)
    }

    fn read_cached(&self, blk: u64, off: u64, buf: &mut [u8]) {
        if let Some(page) = self.cache.peek(blk) {
            buf.copy_from_slice(&page[off as usize..off as usize + buf.len()]);
        } else {
            self.dev.read(blk * BLOCK + off, buf);
        }
    }

    fn iset(&mut self, ino: u64, field: u64, v: u64) {
        let (blk, off) = self.inode_loc(ino, field);
        self.cache.write_u64(&self.dev, blk, off, v, BlockClass::Meta);
    }

    fn ftype_of(&self, ino: u64) -> u64 {
        self.iget(ino, ioff::FTYPE)
    }

    // ---- block allocation ----

    fn alloc_block(&mut self) -> FsResult<u64> {
        let bitmap_bytes = self.geo.total_blocks.div_ceil(8);
        for bblk in 0..self.geo.bitmap_blocks {
            let blk = self.geo.bitmap_start + bblk;
            let limit = (bitmap_bytes - (bblk * BLOCK).min(bitmap_bytes)).min(BLOCK);
            for byte_idx in 0..limit {
                let mut byte = [0u8; 1];
                self.cache.read(&self.dev, blk, byte_idx, &mut byte);
                if byte[0] != 0xff {
                    let bit = byte[0].trailing_ones() as u64;
                    let blkno = (bblk * BLOCK + byte_idx) * 8 + bit;
                    if blkno >= self.geo.total_blocks {
                        return Err(FsError::NoSpace);
                    }
                    byte[0] |= 1 << bit;
                    self.cache.write(&self.dev, blk, byte_idx, &byte, BlockClass::Meta);
                    return Ok(blkno);
                }
            }
        }
        Err(FsError::NoSpace)
    }

    /// Defers the bitmap clear to the next journal commit (see
    /// `pending_free`); the cache page is dropped immediately.
    fn free_block(&mut self, blkno: u64) {
        debug_assert!(blkno >= self.geo.data_start && blkno < self.geo.total_blocks);
        self.pending_free.push(blkno);
        self.cache.evict(blkno);
    }

    fn clear_bitmap_bit(&mut self, blkno: u64) {
        let blk = self.geo.bitmap_start + blkno / (BLOCK * 8);
        let byte_idx = (blkno / 8) % BLOCK;
        let mut byte = [0u8; 1];
        self.cache.read(&self.dev, blk, byte_idx, &mut byte);
        byte[0] &= !(1 << (blkno % 8));
        self.cache.write(&self.dev, blk, byte_idx, &byte, BlockClass::Meta);
    }

    /// Mount-time bitmap reconciliation (a light fsck pass): a crash can
    /// strand set bits for blocks no inode references (their freeing commit
    /// never happened, or happened while the clears were still pending).
    /// Recompute reachability and fix the cached bitmap; the fixes become
    /// durable with the next commit.
    fn reconcile_bitmap(&mut self) {
        let mut referenced = vec![false; self.geo.total_blocks as usize];
        for b in 0..self.geo.data_start {
            referenced[b as usize] = true;
        }
        for ino in 1..=self.geo.inode_count {
            if self.iget(ino, ioff::FTYPE) == itype::FREE {
                continue;
            }
            for (_, b) in self.mapped_from(ino, 0) {
                referenced[b as usize] = true;
            }
            if let Some(ind) = self.valid_blk(self.iget(ino, ioff::INDIRECT)) {
                referenced[ind as usize] = true;
            }
            if let Some(x) = self.valid_blk(self.iget(ino, ioff::XATTR)) {
                referenced[x as usize] = true;
            }
        }
        for b in self.geo.data_start..self.geo.total_blocks {
            let blk = self.geo.bitmap_start + b / (BLOCK * 8);
            let byte_idx = (b / 8) % BLOCK;
            let mut byte = [0u8; 1];
            self.cache.read(&self.dev, blk, byte_idx, &mut byte);
            let set = byte[0] & (1 << (b % 8)) != 0;
            if set != referenced[b as usize] {
                covpoint!(self.cov, 7);
                if referenced[b as usize] {
                    byte[0] |= 1 << (b % 8);
                } else {
                    byte[0] &= !(1 << (b % 8));
                }
                self.cache.write(&self.dev, blk, byte_idx, &byte, BlockClass::Meta);
            }
        }
    }

    fn alloc_inode(&mut self, ftype: u64) -> FsResult<u64> {
        for ino in 1..=self.geo.inode_count {
            if self.iget(ino, ioff::FTYPE) == itype::FREE {
                // Clear the whole inode, then set type and link count.
                let (blk, off) = self.inode_loc(ino, 0);
                self.cache.write(
                    &self.dev,
                    blk,
                    off,
                    &vec![0u8; INODE_SIZE as usize],
                    BlockClass::Meta,
                );
                self.iset(ino, ioff::FTYPE, ftype);
                self.iset(ino, ioff::NLINK, if ftype == itype::DIR { 2 } else { 1 });
                return Ok(ino);
            }
        }
        Err(FsError::NoSpace)
    }

    // ---- file block mapping ----

    /// Validates a block pointer read from the (possibly corrupt) device:
    /// crash states can contain arbitrary bytes, and a garbage pointer must
    /// surface as detectable corruption, never as an out-of-range access.
    fn valid_blk(&self, b: u64) -> Option<u64> {
        (b >= self.geo.data_start && b < self.geo.total_blocks).then_some(b)
    }

    /// Collects the allocated `(file index, block)` pairs of `ino` from
    /// index `start` up, in index order. Equivalent to probing
    /// [`Ext4Dax::get_block`] per index, but reads the indirect pointer
    /// once and the indirect block with one bulk read — the per-slot
    /// re-reads dominated mount, stat, and release scans.
    fn mapped_from(&self, ino: u64, start: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for idx in start.min(NDIRECT as u64)..NDIRECT as u64 {
            if let Some(b) = self.valid_blk(self.iget(ino, ioff::DIRECT + idx * 8)) {
                out.push((idx, b));
            }
        }
        let Some(ind) = self.valid_blk(self.iget(ino, ioff::INDIRECT)) else {
            return out;
        };
        let mut raw = [0u8; BLOCK as usize];
        self.read_cached(ind, 0, &mut raw);
        for e in start.saturating_sub(NDIRECT as u64)..PTRS_PER_BLOCK {
            let b = u64::from_le_bytes(
                raw[(e * 8) as usize..(e * 8 + 8) as usize].try_into().expect("8-byte slot"),
            );
            if let Some(b) = self.valid_blk(b) {
                out.push((NDIRECT as u64 + e, b));
            }
        }
        out
    }

    fn get_block(&self, ino: u64, idx: u64) -> Option<u64> {
        if idx < NDIRECT as u64 {
            self.valid_blk(self.iget(ino, ioff::DIRECT + idx * 8))
        } else if idx < MAX_FILE_BLOCKS {
            let ind = self.valid_blk(self.iget(ino, ioff::INDIRECT))?;
            self.valid_blk(self.read_cached_u64(ind, (idx - NDIRECT as u64) * 8))
        } else {
            None
        }
    }

    fn set_block(&mut self, ino: u64, idx: u64, blkno: u64) -> FsResult<()> {
        if idx < NDIRECT as u64 {
            self.iset(ino, ioff::DIRECT + idx * 8, blkno);
            Ok(())
        } else if idx < MAX_FILE_BLOCKS {
            let mut ind = self.iget(ino, ioff::INDIRECT);
            if ind == 0 {
                if blkno == 0 {
                    return Ok(());
                }
                ind = self.alloc_block()?;
                self.cache.zero_block(ind, BlockClass::Meta);
                self.iset(ino, ioff::INDIRECT, ind);
            }
            self.cache.write_u64(&self.dev, ind, (idx - NDIRECT as u64) * 8, blkno, BlockClass::Meta);
            Ok(())
        } else {
            Err(FsError::NoSpace)
        }
    }

    /// Allocates (zeroed) the block at file index `idx` if unmapped.
    fn ensure_block(&mut self, ino: u64, idx: u64) -> FsResult<u64> {
        if let Some(b) = self.get_block(ino, idx) {
            return Ok(b);
        }
        let b = self.alloc_block()?;
        self.cache.zero_block(b, BlockClass::Data);
        self.set_block(ino, idx, b)?;
        Ok(b)
    }

    fn allocated_blocks(&self, ino: u64) -> u64 {
        self.mapped_from(ino, 0).len() as u64
    }

    // ---- file data I/O ----

    fn write_at(&mut self, ino: u64, off: u64, data: &[u8], class: BlockClass) -> FsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let end = off + data.len() as u64;
        if end.div_ceil(BLOCK) > MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        let mut pos = 0usize;
        while pos < data.len() {
            let cur = off + pos as u64;
            let idx = cur / BLOCK;
            let in_blk = cur % BLOCK;
            let n = ((BLOCK - in_blk) as usize).min(data.len() - pos);
            let blk = self.ensure_block(ino, idx)?;
            self.cache.write(&self.dev, blk, in_blk, &data[pos..pos + n], class);
            pos += n;
        }
        if end > self.iget(ino, ioff::SIZE) {
            self.iset(ino, ioff::SIZE, end);
        }
        Ok(data.len())
    }

    fn read_at(&self, ino: u64, off: u64, buf: &mut [u8]) -> usize {
        let size = self.iget(ino, ioff::SIZE);
        if off >= size {
            return 0;
        }
        let n = buf.len().min((size - off) as usize);
        let mut pos = 0usize;
        while pos < n {
            let cur = off + pos as u64;
            let idx = cur / BLOCK;
            let in_blk = cur % BLOCK;
            let step = ((BLOCK - in_blk) as usize).min(n - pos);
            match self.get_block(ino, idx) {
                Some(blk) => {
                    self.read_cached(blk, in_blk, &mut buf[pos..pos + step]);
                }
                None => {
                    buf[pos..pos + step].fill(0); // hole
                }
            }
            pos += step;
        }
        n
    }

    // ---- directories ----

    /// Dentry slots are laid out `SLOTS_PER_BLOCK` to a block so that no
    /// entry straddles a block boundary; the directory size field counts
    /// used slots (× `DENTRY_SIZE`).
    fn slot_loc(slot: u64) -> (u64, u64) {
        const SLOTS_PER_BLOCK: u64 = BLOCK / DENTRY_SIZE;
        (slot / SLOTS_PER_BLOCK, (slot % SLOTS_PER_BLOCK) * DENTRY_SIZE)
    }

    fn dir_slots(&self, dir: u64) -> u64 {
        // Clamp: a corrupt size field must not send scans (or allocations)
        // off the end of the world.
        let max = MAX_FILE_BLOCKS * (BLOCK / DENTRY_SIZE);
        (self.iget(dir, ioff::SIZE) / DENTRY_SIZE).min(max)
    }

    fn dentry_at(&self, dir: u64, slot: u64) -> Option<RawDentry> {
        let (idx, off) = Self::slot_loc(slot);
        let blk = self.get_block(dir, idx)?;
        let mut buf = [0u8; DENTRY_SIZE as usize];
        self.read_cached(blk, off, &mut buf);
        RawDentry::decode(&buf)
    }

    fn dir_lookup(&self, dir: u64, name: &str) -> Option<(u64, u64)> {
        for slot in 0..self.dir_slots(dir) {
            if let Some(d) = self.dentry_at(dir, slot) {
                if d.name == name {
                    return Some((slot, d.ino));
                }
            }
        }
        None
    }

    fn dir_live_count(&self, dir: u64) -> u64 {
        (0..self.dir_slots(dir)).filter(|&s| self.dentry_at(dir, s).is_some()).count() as u64
    }

    fn dir_insert(&mut self, dir: u64, name: &str, ino: u64) -> FsResult<()> {
        if name.len() > DENTRY_NAME_MAX {
            return Err(FsError::NameTooLong);
        }
        let enc = RawDentry { ino, name: name.to_string() }.encode();
        // Reuse a free slot if one exists.
        for slot in 0..self.dir_slots(dir) {
            if self.dentry_at(dir, slot).is_none() {
                let (idx, off) = Self::slot_loc(slot);
                let blk = self.ensure_block(dir, idx)?;
                self.cache.write(&self.dev, blk, off, &enc, BlockClass::Meta);
                return Ok(());
            }
        }
        // Append a new slot.
        let slot = self.dir_slots(dir);
        let (idx, off) = Self::slot_loc(slot);
        if idx >= MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        let blk = self.ensure_block(dir, idx)?;
        self.cache.write(&self.dev, blk, off, &enc, BlockClass::Meta);
        self.iset(dir, ioff::SIZE, (slot + 1) * DENTRY_SIZE);
        Ok(())
    }

    fn dir_remove_slot(&mut self, dir: u64, slot: u64) {
        let (idx, off) = Self::slot_loc(slot);
        if let Some(blk) = self.get_block(dir, idx) {
            self.cache.write(&self.dev, blk, off, &[0u8; DENTRY_SIZE as usize], BlockClass::Meta);
        }
    }

    // ---- path resolution ----

    fn valid_ino(&self, ino: u64) -> FsResult<u64> {
        if ino >= 1 && ino <= self.geo.inode_count {
            Ok(ino)
        } else {
            Err(FsError::Corrupt(format!("directory entry references invalid inode {ino}")))
        }
    }

    fn resolve(&self, path: &str) -> FsResult<u64> {
        let mut cur = ROOT_INO;
        for c in components(path)? {
            if self.ftype_of(cur) != itype::DIR {
                return Err(FsError::NotDir);
            }
            cur = self.valid_ino(self.dir_lookup(cur, c).ok_or(FsError::NotFound)?.1)?;
        }
        Ok(cur)
    }

    fn resolve_parent<'p>(&self, path: &'p str) -> FsResult<(u64, &'p str)> {
        let (parents, name) = split_parent(path)?;
        let mut cur = ROOT_INO;
        for c in parents {
            if self.ftype_of(cur) != itype::DIR {
                return Err(FsError::NotDir);
            }
            cur = self.valid_ino(self.dir_lookup(cur, c).ok_or(FsError::NotFound)?.1)?;
        }
        if self.ftype_of(cur) != itype::DIR {
            return Err(FsError::NotDir);
        }
        Ok((cur, name))
    }

    // ---- deletion ----

    fn open_count(&self, ino: u64) -> usize {
        self.fds.values().filter(|f| f.ino == ino).count()
    }

    /// Frees all data blocks and the indirect block (not the xattr block).
    fn free_file_blocks(&mut self, ino: u64) {
        for (_, b) in self.mapped_from(ino, 0) {
            self.free_block(b);
            // The caller clears or resets the pointers.
        }
        let ind = self.iget(ino, ioff::INDIRECT);
        if ind != 0 {
            self.free_block(ind);
        }
    }

    fn release_inode(&mut self, ino: u64) {
        self.free_file_blocks(ino);
        let x = self.iget(ino, ioff::XATTR);
        if x != 0 {
            self.free_block(x);
        }
        self.iset(ino, ioff::FTYPE, itype::FREE);
        self.iset(ino, ioff::SIZE, 0);
        self.iset(ino, ioff::INDIRECT, 0);
        self.iset(ino, ioff::XATTR, 0);
        for i in 0..NDIRECT as u64 {
            self.iset(ino, ioff::DIRECT + i * 8, 0);
        }
    }

    fn drop_if_unused(&mut self, ino: u64) {
        if self.iget(ino, ioff::NLINK) == 0 && self.open_count(ino) == 0 {
            self.release_inode(ino);
        }
    }

    // ---- commit machinery ----

    fn writeback_file_data(&mut self, ino: u64) {
        let mut blocks = Vec::new();
        for (_, b) in self.mapped_from(ino, 0) {
            if self.cache.is_dirty(b) {
                blocks.push(b);
            }
        }
        for b in blocks {
            let data = self.cache.dirty_block(b);
            self.dev.memcpy_nt(b * BLOCK, data);
            self.cache.mark_clean(b);
        }
        self.dev.fence();
    }

    fn writeback_all_data(&mut self) {
        for b in self.cache.dirty_of(BlockClass::Data) {
            let data = self.cache.dirty_block(b);
            self.dev.memcpy_nt(b * BLOCK, data);
            self.cache.mark_clean(b);
        }
        self.dev.fence();
    }

    fn commit_metadata(&mut self) -> FsResult<()> {
        // Pending frees become part of this commit: once it is durable, no
        // committed state references the blocks, so reuse is safe.
        let pf = std::mem::take(&mut self.pending_free);
        for b in pf {
            self.clear_bitmap_bit(b);
        }
        let dirty = self.cache.dirty_of(BlockClass::Meta);
        if dirty.is_empty() {
            return Ok(());
        }
        let blocks: Vec<JournalBlock<'_>> = dirty
            .iter()
            .map(|&b| JournalBlock { blkno: b, data: self.cache.dirty_block(b) })
            .collect();
        journal::commit_and_checkpoint(&mut self.dev, &self.geo, &blocks)?;
        for b in dirty {
            self.cache.mark_clean(b);
        }
        Ok(())
    }
}

impl<D: PmBackend> FileSystem for Ext4Dax<D> {
    fn open(&mut self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        covpoint!(self.cov);
        let ino = match self.resolve(path) {
            Ok(ino) => {
                if flags.create && flags.excl {
                    return Err(FsError::Exists);
                }
                if self.ftype_of(ino) == itype::DIR {
                    return Err(FsError::IsDir);
                }
                if flags.trunc {
                    covpoint!(self.cov);
                    self.free_file_blocks(ino);
                    for i in 0..NDIRECT as u64 {
                        self.iset(ino, ioff::DIRECT + i * 8, 0);
                    }
                    self.iset(ino, ioff::INDIRECT, 0);
                    self.iset(ino, ioff::SIZE, 0);
                }
                ino
            }
            Err(FsError::NotFound) if flags.create => {
                covpoint!(self.cov);
                let (parent, name) = self.resolve_parent(path)?;
                let ino = self.alloc_inode(itype::FILE)?;
                self.dir_insert(parent, name, ino)?;
                ino
            }
            Err(e) => return Err(e),
        };
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(fd, OpenFile { ino, offset: 0, append: flags.append });
        Ok(Fd(fd))
    }

    fn close(&mut self, fd: Fd) -> FsResult<()> {
        let of = self.fds.remove(&fd.0).ok_or(FsError::BadFd)?;
        self.drop_if_unused(of.ino);
        Ok(())
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, name) = self.resolve_parent(path)?;
        if self.dir_lookup(parent, name).is_some() {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_inode(itype::DIR)?;
        self.dir_insert(parent, name, ino)?;
        let pn = self.iget(parent, ioff::NLINK);
        self.iset(parent, ioff::NLINK, pn + 1);
        Ok(())
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, name) = self.resolve_parent(path)?;
        let (slot, ino) = self.dir_lookup(parent, name).ok_or(FsError::NotFound)?;
        if self.ftype_of(ino) != itype::DIR {
            return Err(FsError::NotDir);
        }
        if self.dir_live_count(ino) != 0 {
            return Err(FsError::NotEmpty);
        }
        self.dir_remove_slot(parent, slot);
        self.release_inode(ino);
        let pn = self.iget(parent, ioff::NLINK);
        self.iset(parent, ioff::NLINK, pn - 1);
        Ok(())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, name) = self.resolve_parent(path)?;
        let (slot, ino) = self.dir_lookup(parent, name).ok_or(FsError::NotFound)?;
        if self.ftype_of(ino) == itype::DIR {
            return Err(FsError::IsDir);
        }
        self.dir_remove_slot(parent, slot);
        let n = self.iget(ino, ioff::NLINK);
        self.iset(ino, ioff::NLINK, n - 1);
        self.drop_if_unused(ino);
        Ok(())
    }

    fn link(&mut self, old: &str, new: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.resolve(old)?;
        if self.ftype_of(ino) == itype::DIR {
            return Err(FsError::IsDir);
        }
        let (parent, name) = self.resolve_parent(new)?;
        if self.dir_lookup(parent, name).is_some() {
            return Err(FsError::Exists);
        }
        let n = self.iget(ino, ioff::NLINK);
        self.iset(ino, ioff::NLINK, n + 1);
        self.dir_insert(parent, name, ino)?;
        Ok(())
    }

    fn rename(&mut self, old: &str, new: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let src_ino = self.resolve(old)?;
        let src_is_dir = self.ftype_of(src_ino) == itype::DIR;
        if src_is_dir && is_path_prefix(old, new) && old != new {
            return Err(FsError::Invalid);
        }
        if old == new {
            return Ok(());
        }
        let (src_parent, src_name) = self.resolve_parent(old)?;
        let (dst_parent, dst_name) = self.resolve_parent(new)?;
        let (src_slot, _) = self.dir_lookup(src_parent, src_name).ok_or(FsError::NotFound)?;

        if let Some((dst_slot, dst_ino)) = self.dir_lookup(dst_parent, dst_name) {
            if dst_ino == src_ino {
                return Ok(());
            }
            let dst_is_dir = self.ftype_of(dst_ino) == itype::DIR;
            match (src_is_dir, dst_is_dir) {
                (true, true) => {
                    if self.dir_live_count(dst_ino) != 0 {
                        return Err(FsError::NotEmpty);
                    }
                    self.dir_remove_slot(dst_parent, dst_slot);
                    self.release_inode(dst_ino);
                    let pn = self.iget(dst_parent, ioff::NLINK);
                    self.iset(dst_parent, ioff::NLINK, pn - 1);
                }
                (true, false) => return Err(FsError::NotDir),
                (false, true) => return Err(FsError::IsDir),
                (false, false) => {
                    self.dir_remove_slot(dst_parent, dst_slot);
                    let n = self.iget(dst_ino, ioff::NLINK);
                    self.iset(dst_ino, ioff::NLINK, n - 1);
                    self.drop_if_unused(dst_ino);
                }
            }
        }
        self.dir_remove_slot(src_parent, src_slot);
        self.dir_insert(dst_parent, dst_name, src_ino)?;
        if src_is_dir && src_parent != dst_parent {
            let a = self.iget(src_parent, ioff::NLINK);
            self.iset(src_parent, ioff::NLINK, a - 1);
            let b = self.iget(dst_parent, ioff::NLINK);
            self.iset(dst_parent, ioff::NLINK, b + 1);
        }
        Ok(())
    }

    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.resolve(path)?;
        if self.ftype_of(ino) == itype::DIR {
            return Err(FsError::IsDir);
        }
        if size.div_ceil(BLOCK) > MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        let old = self.iget(ino, ioff::SIZE);
        if size < old {
            // Free whole blocks beyond the new size and zero the partial
            // tail of the boundary block.
            let keep = size.div_ceil(BLOCK);
            for (idx, b) in self.mapped_from(ino, keep) {
                self.free_block(b);
                self.set_block(ino, idx, 0)?;
            }
            if !size.is_multiple_of(BLOCK) {
                if let Some(b) = self.get_block(ino, size / BLOCK) {
                    let in_blk = size % BLOCK;
                    let zeros = vec![0u8; (BLOCK - in_blk) as usize];
                    self.cache.write(&self.dev, b, in_blk, &zeros, BlockClass::Data);
                }
            }
        }
        self.iset(ino, ioff::SIZE, size);
        Ok(())
    }

    fn fallocate(&mut self, fd: Fd, mode: FallocMode, off: u64, len: u64) -> FsResult<()> {
        covpoint!(self.cov);
        if len == 0 {
            return Err(FsError::Invalid);
        }
        let ino = self.fds.get(&fd.0).ok_or(FsError::BadFd)?.ino;
        let end = off + len;
        if end.div_ceil(BLOCK) > MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        match mode {
            FallocMode::Allocate | FallocMode::KeepSize => {
                for idx in off / BLOCK..end.div_ceil(BLOCK) {
                    self.ensure_block(ino, idx)?;
                }
                if mode == FallocMode::Allocate && end > self.iget(ino, ioff::SIZE) {
                    self.iset(ino, ioff::SIZE, end);
                }
            }
            FallocMode::ZeroRange | FallocMode::PunchHole => {
                let size = self.iget(ino, ioff::SIZE);
                let z_end = end.min(size);
                let mut cur = off;
                while cur < z_end {
                    let idx = cur / BLOCK;
                    let in_blk = cur % BLOCK;
                    let n = (BLOCK - in_blk).min(z_end - cur);
                    if mode == FallocMode::PunchHole && in_blk == 0 && n == BLOCK {
                        if let Some(b) = self.get_block(ino, idx) {
                            self.free_block(b);
                            self.set_block(ino, idx, 0)?;
                        }
                    } else if let Some(b) = self.get_block(ino, idx) {
                        self.cache.write(
                            &self.dev,
                            b,
                            in_blk,
                            &vec![0u8; n as usize],
                            BlockClass::Data,
                        );
                    }
                    cur += n;
                }
            }
        }
        Ok(())
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        covpoint!(self.cov);
        let of = *self.fds.get(&fd.0).ok_or(FsError::BadFd)?;
        let off = if of.append { self.iget(of.ino, ioff::SIZE) } else { of.offset };
        let n = self.write_at(of.ino, off, data, BlockClass::Data)?;
        if let Some(f) = self.fds.get_mut(&fd.0) {
            f.offset = off + n as u64;
        }
        Ok(n)
    }

    fn pwrite(&mut self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        covpoint!(self.cov);
        let ino = self.fds.get(&fd.0).ok_or(FsError::BadFd)?.ino;
        self.write_at(ino, off, data, BlockClass::Data)
    }

    fn pread(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let ino = self.fds.get(&fd.0).ok_or(FsError::BadFd)?.ino;
        Ok(self.read_at(ino, off, buf))
    }

    fn fsync(&mut self, fd: Fd) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.fds.get(&fd.0).ok_or(FsError::BadFd)?.ino;
        // Ordered mode: data in place first, then the metadata journal.
        self.writeback_file_data(ino);
        self.commit_metadata()
    }

    fn sync(&mut self) -> FsResult<()> {
        covpoint!(self.cov);
        self.writeback_all_data();
        self.commit_metadata()
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let ino = self.resolve(path)?;
        let ftype = self.ftype_of(ino);
        Ok(Metadata {
            ino,
            ftype: if ftype == itype::DIR { FileType::Directory } else { FileType::Regular },
            nlink: self.iget(ino, ioff::NLINK),
            size: if ftype == itype::DIR {
                self.dir_live_count(ino)
            } else {
                self.iget(ino, ioff::SIZE)
            },
            blocks: if ftype == itype::DIR { 1 } else { self.allocated_blocks(ino) },
        })
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let ino = self.resolve(path)?;
        if self.ftype_of(ino) != itype::DIR {
            return Err(FsError::NotDir);
        }
        let mut out = Vec::new();
        for slot in 0..self.dir_slots(ino) {
            if let Some(d) = self.dentry_at(ino, slot) {
                let child = self.valid_ino(d.ino)?;
                let ftype = if self.ftype_of(child) == itype::DIR {
                    FileType::Directory
                } else {
                    FileType::Regular
                };
                out.push(DirEntry { name: d.name, ino: child, ftype });
            }
        }
        out.sort();
        Ok(out)
    }

    fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        let ino = self.resolve(path)?;
        if self.ftype_of(ino) == itype::DIR {
            return Err(FsError::IsDir);
        }
        let size = self.iget(ino, ioff::SIZE);
        if size > MAX_FILE_BLOCKS * BLOCK {
            return Err(FsError::Corrupt(format!(
                "inode {ino} size {size} exceeds the maximum file size"
            )));
        }
        let mut buf = vec![0u8; size as usize];
        self.read_at(ino, 0, &mut buf);
        Ok(buf)
    }

    fn setxattr(&mut self, path: &str, name: &str, value: &[u8]) -> FsResult<()> {
        covpoint!(self.cov);
        if name.len() > 30 || value.len() > 88 {
            return Err(FsError::Invalid);
        }
        let ino = self.resolve(path)?;
        let mut xblk = self.iget(ino, ioff::XATTR);
        if xblk == 0 {
            xblk = self.alloc_block()?;
            self.cache.zero_block(xblk, BlockClass::Meta);
            self.iset(ino, ioff::XATTR, xblk);
        }
        // Entry format: [name_len u8][val_len u8][name 30][value 88] = 120.
        let mut free_slot = None;
        for slot in 0..(BLOCK / 120) {
            let off = slot * 120;
            let mut hdr = [0u8; 32];
            self.cache.read(&self.dev, xblk, off, &mut hdr);
            let nlen = hdr[0] as usize;
            if nlen == 0 {
                free_slot.get_or_insert(slot);
                continue;
            }
            if &hdr[2..2 + nlen.min(30)] == name.as_bytes() {
                free_slot = Some(slot); // overwrite in place
                break;
            }
        }
        let slot = free_slot.ok_or(FsError::NoSpace)?;
        let mut entry = [0u8; 120];
        entry[0] = name.len() as u8;
        entry[1] = value.len() as u8;
        entry[2..2 + name.len()].copy_from_slice(name.as_bytes());
        entry[32..32 + value.len()].copy_from_slice(value);
        self.cache.write(&self.dev, xblk, slot * 120, &entry, BlockClass::Meta);
        Ok(())
    }

    fn removexattr(&mut self, path: &str, name: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.resolve(path)?;
        let xblk = self.iget(ino, ioff::XATTR);
        if xblk == 0 {
            return Err(FsError::NotFound);
        }
        for slot in 0..(BLOCK / 120) {
            let off = slot * 120;
            let mut hdr = [0u8; 32];
            self.cache.read(&self.dev, xblk, off, &mut hdr);
            let nlen = hdr[0] as usize;
            if nlen != 0 && &hdr[2..2 + nlen.min(30)] == name.as_bytes() {
                self.cache.write(&self.dev, xblk, off, &[0u8; 120], BlockClass::Meta);
                return Ok(());
            }
        }
        Err(FsError::NotFound)
    }
}
