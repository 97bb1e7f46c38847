//! The XFS-DAX file-system implementation.

use std::collections::HashMap;

use pmem::PmBackend;
use vfs::{
    covpoint,
    cov::block_sum,
    fs::{FileSystem, FsOptions},
    pagecache::{BlockClass, PageCache},
    path::{components, is_path_prefix, split_parent},
    Cov, DirEntry, FallocMode, Fd, FileType, FsError, FsResult, Metadata, OpenFlags,
};

use crate::{
    extents::ExtentMap,
    layout::{
        ioff, itype, sboff, Geometry, RawDentry, BLOCK, DENTRY_NAME_MAX, DENTRY_SIZE, INODE_SIZE,
        MAGIC, MAX_FILE_BLOCKS, NEXTENTS, ROOT_INO,
    },
};

/// Log record tags.
const LOG_DESC: u64 = u64::from_le_bytes(*b"XLOGDESC");
const LOG_COMMIT: u64 = u64::from_le_bytes(*b"XLOGCMMT");

#[derive(Debug, Clone, Copy)]
struct OpenFile {
    ino: u64,
    offset: u64,
    append: bool,
}

/// The XFS-DAX-style file system (see the crate docs).
#[derive(Clone)]
pub struct XfsDax<D> {
    dev: D,
    geo: Geometry,
    cache: PageCache,
    fds: HashMap<u64, OpenFile>,
    next_fd: u64,
    cov: Cov,
    /// Freed blocks awaiting the commit that unreferences them (the same
    /// ordered-mode reuse rule the ext4-DAX sibling enforces).
    pending_free: Vec<u64>,
}

impl<D: PmBackend> XfsDax<D> {
    /// Formats `dev` and mounts the fresh file system.
    pub fn mkfs(mut dev: D, opts: &FsOptions) -> FsResult<Self> {
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
        let root = geo.inode_off(ROOT_INO);
        let mut ri = [0u8; 16];
        ri[0..8].copy_from_slice(&itype::DIR.to_le_bytes());
        ri[8..16].copy_from_slice(&2u64.to_le_bytes());
        dev.memcpy_nt(root, &ri);
        dev.fence();
        Ok(XfsDax {
            dev,
            geo,
            cache: PageCache::new(),
            fds: HashMap::new(),
            next_fd: 3,
            cov: opts.cov.clone(),
            pending_free: Vec::new(),
        })
    }

    /// Mounts `dev`, replaying the log and reconciling the AG bitmaps.
    pub fn mount(mut dev: D, opts: &FsOptions) -> FsResult<Self> {
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
        let cov = opts.cov.clone();
        let replayed = Self::recover_log(&mut dev, &geo)?;
        covpoint!(cov, u64::from(replayed > 0));
        let mut fs = XfsDax {
            dev,
            geo,
            cache: PageCache::new(),
            fds: HashMap::new(),
            next_fd: 3,
            cov,
            pending_free: Vec::new(),
        };
        if fs.iget(ROOT_INO, ioff::FTYPE) != itype::DIR {
            return Err(FsError::Unmountable("root inode is not a directory".into()));
        }
        fs.reconcile_bitmaps();
        Ok(fs)
    }

    /// Returns the underlying device.
    pub fn into_device(self) -> D {
        self.dev
    }

    // ---- the write-ahead log ----

    fn log_capacity(geo: &Geometry) -> usize {
        ((BLOCK as usize - 24) / 8).min(geo.log_blocks as usize - 2)
    }

    fn log_checksum<B: AsRef<[u8]>>(blocks: &[(u64, B)]) -> u64 {
        let mut acc: u64 = 0x786c_6f67; // "xlog"
        for (blkno, data) in blocks {
            acc = acc.rotate_left(9) ^ blkno ^ block_sum(data.as_ref());
        }
        acc
    }

    /// Commits `blocks` (home block number, contents — borrowed from the
    /// page cache) through the log and checkpoints them home.
    fn log_commit(dev: &mut D, geo: &Geometry, blocks: &[(u64, &[u8])]) -> FsResult<()> {
        let cap = Self::log_capacity(geo).max(1);
        for chunk in blocks.chunks(cap) {
            Self::log_commit_one(dev, geo, chunk)?;
        }
        Ok(())
    }

    fn log_commit_one(dev: &mut D, geo: &Geometry, blocks: &[(u64, &[u8])]) -> FsResult<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        let seq = dev.read_u64(sboff::LOG_SEQ);
        let lbase = geo.log_start * BLOCK;
        let mut desc = vec![0u8; BLOCK as usize];
        desc[0..8].copy_from_slice(&LOG_DESC.to_le_bytes());
        desc[8..16].copy_from_slice(&seq.to_le_bytes());
        desc[16..24].copy_from_slice(&(blocks.len() as u64).to_le_bytes());
        for (i, (blkno, _)) in blocks.iter().enumerate() {
            desc[24 + i * 8..32 + i * 8].copy_from_slice(&blkno.to_le_bytes());
        }
        dev.memcpy_nt(lbase, &desc);
        for (i, (_, data)) in blocks.iter().enumerate() {
            dev.memcpy_nt(lbase + (1 + i as u64) * BLOCK, data);
        }
        dev.fence();
        let mut commit = [0u8; 24];
        commit[0..8].copy_from_slice(&LOG_COMMIT.to_le_bytes());
        commit[8..16].copy_from_slice(&seq.to_le_bytes());
        commit[16..24].copy_from_slice(&Self::log_checksum(blocks).to_le_bytes());
        dev.memcpy_nt(lbase + (1 + blocks.len() as u64) * BLOCK, &commit);
        dev.fence();
        for (blkno, data) in blocks {
            dev.memcpy_nt(blkno * BLOCK, data);
        }
        dev.fence();
        dev.persist_u64(sboff::LOG_SEQ, seq + 1);
        Ok(())
    }

    fn recover_log(dev: &mut D, geo: &Geometry) -> FsResult<u64> {
        let seq = dev.read_u64(sboff::LOG_SEQ);
        let lbase = geo.log_start * BLOCK;
        if dev.read_u64(lbase) != LOG_DESC || dev.read_u64(lbase + 8) != seq {
            return Ok(0);
        }
        let n = dev.read_u64(lbase + 16);
        if n == 0 || n > Self::log_capacity(geo) as u64 {
            return Err(FsError::Unmountable(format!(
                "log descriptor claims {n} blocks, exceeding log capacity"
            )));
        }
        let commit_off = lbase + (1 + n) * BLOCK;
        if dev.read_u64(commit_off) != LOG_COMMIT || dev.read_u64(commit_off + 8) != seq {
            return Ok(0); // uncommitted transaction: discard
        }
        let mut blocks = Vec::with_capacity(n as usize);
        for i in 0..n {
            let blkno = dev.read_u64(lbase + 24 + i * 8);
            if blkno >= geo.total_blocks {
                return Err(FsError::Unmountable(format!(
                    "log record targets out-of-range block {blkno}"
                )));
            }
            blocks.push((blkno, dev.read_vec(lbase + (1 + i) * BLOCK, BLOCK)));
        }
        if dev.read_u64(commit_off + 16) != Self::log_checksum(&blocks) {
            return Ok(0); // torn commit: discard
        }
        for (blkno, data) in &blocks {
            dev.memcpy_nt(blkno * BLOCK, data);
        }
        dev.fence();
        dev.persist_u64(sboff::LOG_SEQ, seq + 1);
        Ok(n)
    }

    // ---- inode access through the cache ----

    fn read_cached(&self, blk: u64, off: u64, buf: &mut [u8]) {
        if let Some(page) = self.cache.peek(blk) {
            buf.copy_from_slice(&page[off as usize..off as usize + buf.len()]);
        } else {
            self.dev.read(blk * BLOCK + off, buf);
        }
    }

    fn read_cached_u64(&self, blk: u64, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_cached(blk, off, &mut b);
        u64::from_le_bytes(b)
    }

    fn inode_loc(&self, ino: u64, field: u64) -> (u64, u64) {
        let off = self.geo.inode_off(ino) + field;
        (off / BLOCK, off % BLOCK)
    }

    fn iget(&self, ino: u64, field: u64) -> u64 {
        let (blk, off) = self.inode_loc(ino, field);
        self.read_cached_u64(blk, off)
    }

    fn iset(&mut self, ino: u64, field: u64, v: u64) {
        let (blk, off) = self.inode_loc(ino, field);
        self.cache.write_u64(&self.dev, blk, off, v, BlockClass::Meta);
    }

    fn ftype_of(&self, ino: u64) -> u64 {
        self.iget(ino, ioff::FTYPE)
    }

    fn valid_blk(&self, b: u64) -> Option<u64> {
        (b >= self.geo.data_start && b < self.geo.total_blocks).then_some(b)
    }

    fn valid_ino(&self, ino: u64) -> FsResult<u64> {
        if ino >= 1 && ino <= self.geo.inode_count {
            Ok(ino)
        } else {
            Err(FsError::Corrupt(format!("directory entry references invalid inode {ino}")))
        }
    }

    // ---- extent maps ----

    /// Decodes the inode's extent records, dropping corrupt ones (crash
    /// states can hold arbitrary bytes; garbage must surface as detectable
    /// inconsistency, not out-of-range access).
    fn ext_load(&self, ino: u64) -> ExtentMap {
        let n = (self.iget(ino, ioff::NEXTENTS) as usize).min(NEXTENTS);
        let mut map = ExtentMap::default();
        for i in 0..n {
            let base = ioff::EXTENTS + i as u64 * 24;
            let file_blk = self.iget(ino, base);
            let start = self.iget(ino, base + 8);
            let len = self.iget(ino, base + 16);
            let end_ok = len > 0
                && len <= MAX_FILE_BLOCKS
                && file_blk < MAX_FILE_BLOCKS
                && self.valid_blk(start).is_some()
                && start + len <= self.geo.total_blocks;
            if end_ok && (file_blk..file_blk + len).all(|fb| map.lookup(fb).is_none()) {
                for k in 0..len {
                    map.insert(file_blk + k, start + k);
                }
            }
        }
        map
    }

    fn ext_store(&mut self, ino: u64, map: &ExtentMap) -> FsResult<()> {
        if map.extents.len() > NEXTENTS {
            return Err(FsError::NoSpace); // EFBIG: inline extent map is full
        }
        self.iset(ino, ioff::NEXTENTS, map.extents.len() as u64);
        for (i, e) in map.extents.iter().enumerate() {
            let base = ioff::EXTENTS + i as u64 * 24;
            self.iset(ino, base, e.file_blk);
            self.iset(ino, base + 8, e.start);
            self.iset(ino, base + 16, e.len);
        }
        Ok(())
    }

    // ---- allocation groups ----

    fn ag_bit(&mut self, blk: u64) -> (u64, u64, u8) {
        let ag = self.geo.ag_of(blk);
        let (start, _) = self.geo.ag_range(ag);
        let idx = blk - start;
        (self.geo.agf_block(ag), idx / 8, 1u8 << (idx % 8))
    }

    fn is_allocated(&mut self, blk: u64) -> bool {
        let (ablk, byte, mask) = self.ag_bit(blk);
        let mut b = [0u8; 1];
        self.cache.read(&self.dev, ablk, byte, &mut b);
        b[0] & mask != 0
    }

    fn set_allocated(&mut self, blk: u64, on: bool) {
        let (ablk, byte, mask) = self.ag_bit(blk);
        let mut b = [0u8; 1];
        self.cache.read(&self.dev, ablk, byte, &mut b);
        if on {
            b[0] |= mask;
        } else {
            b[0] &= !mask;
        }
        self.cache.write(&self.dev, ablk, byte, &b, BlockClass::Meta);
    }

    /// Allocates one block, preferring `after + 1` (extent growth), then the
    /// hint AG, then any AG.
    fn alloc_block(&mut self, hint_ag: u64, after: Option<u64>) -> FsResult<u64> {
        if let Some(prev) = after {
            let next = prev + 1;
            if next < self.geo.total_blocks
                && next >= self.geo.data_start
                && self.geo.ag_of(next) == self.geo.ag_of(prev)
                && !self.is_allocated(next)
            {
                self.set_allocated(next, true);
                return Ok(next);
            }
        }
        for probe in 0..self.geo.nags {
            let ag = (hint_ag + probe) % self.geo.nags;
            let (start, end) = self.geo.ag_range(ag);
            for blk in start..end {
                if !self.is_allocated(blk) {
                    covpoint!(self.cov, probe);
                    self.set_allocated(blk, true);
                    return Ok(blk);
                }
            }
        }
        Err(FsError::NoSpace)
    }

    fn free_block(&mut self, blk: u64) {
        self.pending_free.push(blk);
        self.cache.evict(blk);
    }

    /// Mount-time AG-bitmap reconciliation (crash can strand bits whose
    /// freeing commit never landed).
    fn reconcile_bitmaps(&mut self) {
        let mut referenced = vec![false; self.geo.total_blocks as usize];
        for ino in 1..=self.geo.inode_count {
            if self.ftype_of(ino) == itype::FREE {
                continue;
            }
            for b in self.ext_load(ino).device_blocks() {
                referenced[b as usize] = true;
            }
            if let Some(x) = self.valid_blk(self.iget(ino, ioff::XATTR)) {
                referenced[x as usize] = true;
            }
        }
        for blk in self.geo.data_start..self.geo.total_blocks {
            if self.is_allocated(blk) != referenced[blk as usize] {
                covpoint!(self.cov, 7);
                self.set_allocated(blk, referenced[blk as usize]);
            }
        }
    }

    fn alloc_inode(&mut self, ftype: u64) -> FsResult<u64> {
        for ino in 1..=self.geo.inode_count {
            if self.iget(ino, ioff::FTYPE) == itype::FREE {
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

    // ---- file data ----

    fn ensure_block(&mut self, ino: u64, idx: u64) -> FsResult<u64> {
        let mut map = self.ext_load(ino);
        if let Some(b) = map.lookup(idx) {
            return Ok(b);
        }
        // Grow contiguously after the block backing idx-1 when possible.
        let after = idx.checked_sub(1).and_then(|p| map.lookup(p));
        let blk = self.alloc_block(ino % self.geo.nags, after)?;
        self.cache.zero_block(blk, BlockClass::Data);
        map.insert(idx, blk);
        match self.ext_store(ino, &map) {
            Ok(()) => Ok(blk),
            Err(e) => {
                // Roll the allocation back; the map on disk is unchanged.
                self.set_allocated(blk, false);
                self.cache.evict(blk);
                Err(e)
            }
        }
    }

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
        let size = self.iget(ino, ioff::SIZE).min(MAX_FILE_BLOCKS * BLOCK);
        if off >= size {
            return 0;
        }
        let map = self.ext_load(ino);
        let n = buf.len().min((size - off) as usize);
        let mut pos = 0usize;
        while pos < n {
            let cur = off + pos as u64;
            let idx = cur / BLOCK;
            let in_blk = cur % BLOCK;
            let step = ((BLOCK - in_blk) as usize).min(n - pos);
            match map.lookup(idx) {
                Some(b) => self.read_cached(b, in_blk, &mut buf[pos..pos + step]),
                None => buf[pos..pos + step].fill(0),
            }
            pos += step;
        }
        n
    }

    // ---- directories (shared slot format) ----

    fn dir_slots(&self, dir: u64) -> u64 {
        let max = MAX_FILE_BLOCKS * (BLOCK / DENTRY_SIZE);
        (self.iget(dir, ioff::SIZE) / DENTRY_SIZE).min(max)
    }

    fn dentry_at(&self, dir: u64, slot: u64) -> Option<RawDentry> {
        let (idx, off) = Geometry::slot_loc(slot);
        let blk = self.ext_load(dir).lookup(idx)?;
        let mut buf = [0u8; DENTRY_SIZE as usize];
        self.read_cached(blk, off, &mut buf);
        RawDentry::decode(&buf)
    }

    fn dir_lookup(&self, dir: u64, name: &str) -> Option<(u64, u64)> {
        (0..self.dir_slots(dir))
            .find_map(|s| self.dentry_at(dir, s).filter(|d| d.name == name).map(|d| (s, d.ino)))
    }

    fn dir_live_count(&self, dir: u64) -> u64 {
        (0..self.dir_slots(dir)).filter(|&s| self.dentry_at(dir, s).is_some()).count() as u64
    }

    fn dir_insert(&mut self, dir: u64, name: &str, ino: u64) -> FsResult<()> {
        if name.len() > DENTRY_NAME_MAX {
            return Err(FsError::NameTooLong);
        }
        let enc = RawDentry { ino, name: name.to_string() }.encode();
        for slot in 0..self.dir_slots(dir) {
            if self.dentry_at(dir, slot).is_none() {
                let (idx, off) = Geometry::slot_loc(slot);
                let blk = self.ensure_block(dir, idx)?;
                self.cache.write(&self.dev, blk, off, &enc, BlockClass::Meta);
                return Ok(());
            }
        }
        let slot = self.dir_slots(dir);
        let (idx, off) = Geometry::slot_loc(slot);
        let blk = self.ensure_block(dir, idx)?;
        self.cache.write(&self.dev, blk, off, &enc, BlockClass::Meta);
        self.iset(dir, ioff::SIZE, (slot + 1) * DENTRY_SIZE);
        Ok(())
    }

    fn dir_remove_slot(&mut self, dir: u64, slot: u64) {
        let (idx, off) = Geometry::slot_loc(slot);
        if let Some(blk) = self.ext_load(dir).lookup(idx) {
            self.cache.write(&self.dev, blk, off, &[0u8; DENTRY_SIZE as usize], BlockClass::Meta);
        }
    }

    // ---- path resolution ----

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

    fn release_inode(&mut self, ino: u64) {
        let map = self.ext_load(ino);
        let blocks: Vec<u64> = map.device_blocks().collect();
        for b in blocks {
            self.free_block(b);
        }
        if let Some(x) = self.valid_blk(self.iget(ino, ioff::XATTR)) {
            self.free_block(x);
        }
        let (blk, off) = self.inode_loc(ino, 0);
        self.cache.write(&self.dev, blk, off, &vec![0u8; INODE_SIZE as usize], BlockClass::Meta);
    }

    fn drop_if_unused(&mut self, ino: u64) {
        if self.iget(ino, ioff::NLINK) == 0 && self.open_count(ino) == 0 {
            self.release_inode(ino);
        }
    }

    // ---- commit machinery ----

    fn writeback_file_data(&mut self, ino: u64) {
        let map = self.ext_load(ino);
        let dirty: Vec<u64> =
            map.device_blocks().filter(|&b| self.cache.is_dirty(b)).collect();
        for b in dirty {
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
        let pf = std::mem::take(&mut self.pending_free);
        for b in pf {
            self.set_allocated(b, false);
        }
        let dirty = self.cache.dirty_of(BlockClass::Meta);
        if dirty.is_empty() {
            return Ok(());
        }
        let blocks: Vec<(u64, &[u8])> = dirty
            .iter()
            .map(|&b| (b, self.cache.dirty_block(b)))
            .collect();
        Self::log_commit(&mut self.dev, &self.geo, &blocks)?;
        for b in dirty {
            self.cache.mark_clean(b);
        }
        Ok(())
    }
}

impl<D: PmBackend> FileSystem for XfsDax<D> {
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
                    let mut map = self.ext_load(ino);
                    for b in map.truncate_from(0) {
                        self.free_block(b);
                    }
                    self.ext_store(ino, &map)?;
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
        self.iset(parent, ioff::NLINK, self.iget(parent, ioff::NLINK) + 1);
        Ok(())
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, name) = self.resolve_parent(path)?;
        let (slot, ino) = self.dir_lookup(parent, name).ok_or(FsError::NotFound)?;
        let ino = self.valid_ino(ino)?;
        if self.ftype_of(ino) != itype::DIR {
            return Err(FsError::NotDir);
        }
        if self.dir_live_count(ino) != 0 {
            return Err(FsError::NotEmpty);
        }
        self.dir_remove_slot(parent, slot);
        self.release_inode(ino);
        self.iset(parent, ioff::NLINK, self.iget(parent, ioff::NLINK) - 1);
        Ok(())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, name) = self.resolve_parent(path)?;
        let (slot, ino) = self.dir_lookup(parent, name).ok_or(FsError::NotFound)?;
        let ino = self.valid_ino(ino)?;
        if self.ftype_of(ino) == itype::DIR {
            return Err(FsError::IsDir);
        }
        self.dir_remove_slot(parent, slot);
        self.iset(ino, ioff::NLINK, self.iget(ino, ioff::NLINK) - 1);
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
        self.iset(ino, ioff::NLINK, self.iget(ino, ioff::NLINK) + 1);
        self.dir_insert(parent, name, ino)
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
            let dst_ino = self.valid_ino(dst_ino)?;
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
                    self.iset(dst_parent, ioff::NLINK, self.iget(dst_parent, ioff::NLINK) - 1);
                }
                (true, false) => return Err(FsError::NotDir),
                (false, true) => return Err(FsError::IsDir),
                (false, false) => {
                    self.dir_remove_slot(dst_parent, dst_slot);
                    self.iset(dst_ino, ioff::NLINK, self.iget(dst_ino, ioff::NLINK) - 1);
                    self.drop_if_unused(dst_ino);
                }
            }
        }
        self.dir_remove_slot(src_parent, src_slot);
        self.dir_insert(dst_parent, dst_name, src_ino)?;
        if src_is_dir && src_parent != dst_parent {
            self.iset(src_parent, ioff::NLINK, self.iget(src_parent, ioff::NLINK) - 1);
            self.iset(dst_parent, ioff::NLINK, self.iget(dst_parent, ioff::NLINK) + 1);
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
            let keep = size.div_ceil(BLOCK);
            let mut map = self.ext_load(ino);
            for b in map.truncate_from(keep) {
                self.free_block(b);
            }
            // Zero the kept boundary tail so later extension reads zeros.
            if !size.is_multiple_of(BLOCK) {
                if let Some(b) = map.lookup(size / BLOCK) {
                    let in_blk = size % BLOCK;
                    let zeros = vec![0u8; (BLOCK - in_blk) as usize];
                    self.cache.write(&self.dev, b, in_blk, &zeros, BlockClass::Data);
                }
            }
            self.ext_store(ino, &map)?;
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
        let end = off.checked_add(len).ok_or(FsError::Invalid)?;
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
                    let mut map = self.ext_load(ino);
                    if mode == FallocMode::PunchHole && in_blk == 0 && n == BLOCK {
                        if let Some(b) = map.remove(idx) {
                            // A split may overflow the inline map; fall back
                            // to zeroing in place.
                            if self.ext_store(ino, &map).is_ok() {
                                self.free_block(b);
                            } else {
                                let zeros = vec![0u8; BLOCK as usize];
                                self.cache.write(&self.dev, b, 0, &zeros, BlockClass::Data);
                            }
                        }
                    } else if let Some(b) = map.lookup(idx) {
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
            blocks: if ftype == itype::DIR { 1 } else { self.ext_load(ino).mapped_blocks() },
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
        if self.valid_blk(xblk).is_none() {
            xblk = self.alloc_block(ino % self.geo.nags, None)?;
            self.cache.zero_block(xblk, BlockClass::Meta);
            self.iset(ino, ioff::XATTR, xblk);
        }
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
                free_slot = Some(slot);
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
        let Some(xblk) = self.valid_blk(self.iget(ino, ioff::XATTR)) else {
            return Err(FsError::NotFound);
        };
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

#[cfg(test)]
mod tests {
    use pmem::PmDevice;
    use pmlog::{LogEntry, LogHandle, LoggingPm};

    use super::*;

    const SIZE: u64 = 8 * 1024 * 1024;
    type Fs = XfsDax<PmDevice>;

    fn descriptor(seq: u64, blknos: &[u64]) -> Vec<u8> {
        let mut desc = vec![0u8; BLOCK as usize];
        desc[0..8].copy_from_slice(&LOG_DESC.to_le_bytes());
        desc[8..16].copy_from_slice(&seq.to_le_bytes());
        desc[16..24].copy_from_slice(&(blknos.len() as u64).to_le_bytes());
        for (i, b) in blknos.iter().enumerate() {
            desc[24 + i * 8..32 + i * 8].copy_from_slice(&b.to_le_bytes());
        }
        desc
    }

    fn commit_record(seq: u64, blocks: &[(u64, &[u8])]) -> [u8; 24] {
        let mut commit = [0u8; 24];
        commit[0..8].copy_from_slice(&LOG_COMMIT.to_le_bytes());
        commit[8..16].copy_from_slice(&seq.to_le_bytes());
        commit[16..24].copy_from_slice(&Fs::log_checksum(blocks).to_le_bytes());
        commit
    }

    #[test]
    fn committed_but_uncheckpointed_transaction_replays_unless_a_payload_word_is_torn() {
        let geo = Geometry::for_device(SIZE).unwrap();
        let mut dev = PmDevice::new(SIZE);
        let blk = geo.data_start + 1;
        let lbase = geo.log_start * BLOCK;
        let old: Vec<u8> = (0..BLOCK).map(|i| (i * 7 + 3) as u8).collect();
        let data: Vec<u8> = (0..BLOCK).map(|i| (i * 13 + 5) as u8).collect();
        let home = dev.read_vec(blk * BLOCK, BLOCK);
        // A crash right after the commit record: log written, home not
        // updated, sequence not bumped.
        let seq = dev.read_u64(sboff::LOG_SEQ);
        dev.memcpy_nt(lbase, &descriptor(seq, &[blk]));
        dev.memcpy_nt(lbase + BLOCK, &data);
        dev.memcpy_nt(lbase + 2 * BLOCK, &commit_record(seq, &[(blk, &data)]));
        dev.fence();
        // One 8-byte store of the payload never reached the media (the log
        // block still holds its old bytes there): the checksum must tell.
        for word in [0usize, 1, 3, 255, 510, 511] {
            let at = word * 8;
            dev.memcpy_nt(lbase + BLOCK + at as u64, &old[at..at + 8]);
            dev.fence();
            assert_eq!(Fs::recover_log(&mut dev, &geo).unwrap(), 0, "word {word} torn");
            assert_eq!(dev.read_vec(blk * BLOCK, BLOCK), home, "home block untouched");
            assert_eq!(dev.read_u64(sboff::LOG_SEQ), seq);
            dev.memcpy_nt(lbase + BLOCK + at as u64, &data[at..at + 8]);
            dev.fence();
        }
        assert_eq!(Fs::recover_log(&mut dev, &geo).unwrap(), 1);
        assert_eq!(dev.read_vec(blk * BLOCK, BLOCK), data);
        assert_eq!(dev.read_u64(sboff::LOG_SEQ), seq + 1);
    }

    /// The commit path borrows its blocks instead of copying them; the
    /// device must see what it always saw — every store, in order, byte for
    /// byte, the whole 4 KiB descriptor block included.
    #[test]
    fn log_commit_issues_the_same_stores_in_the_same_order() {
        let geo = Geometry::for_device(SIZE).unwrap();
        let log = LogHandle::new();
        let mut dev = LoggingPm::new(PmDevice::new(SIZE), log.clone());
        let a: Vec<u8> = (0..BLOCK).map(|i| (i * 3 + 1) as u8).collect();
        let b: Vec<u8> = (0..BLOCK).map(|i| (i * 5 + 2) as u8).collect();
        let (home_a, home_b) = (geo.data_start + 9, geo.data_start + 3);
        let blocks: [(u64, &[u8]); 2] = [(home_a, &a), (home_b, &b)];
        XfsDax::log_commit(&mut dev, &geo, &blocks).unwrap();

        let lbase = geo.log_start * BLOCK;
        let nt = |off: u64, data: &[u8]| LogEntry::Nt { off, data: data.to_vec() };
        // The retired sequence number lands with its whole cache line.
        let line = sboff::LOG_SEQ / 64 * 64;
        let mut seq_line = vec![0u8; 64];
        let at = (sboff::LOG_SEQ - line) as usize;
        seq_line[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
        let expected = [
            nt(lbase, &descriptor(0, &[home_a, home_b])),
            nt(lbase + BLOCK, &a),
            nt(lbase + 2 * BLOCK, &b),
            LogEntry::Fence,
            nt(lbase + 3 * BLOCK, &commit_record(0, &blocks)),
            LogEntry::Fence,
            nt(home_a * BLOCK, &a),
            nt(home_b * BLOCK, &b),
            LogEntry::Fence,
            LogEntry::Flush { off: line, data: seq_line },
            LogEntry::Fence,
        ];
        let got = log.take();
        assert_eq!(got.len(), expected.len());
        for (i, (got, want)) in got.entries().iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "log entry {i}");
        }
    }
}
