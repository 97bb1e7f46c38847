//! The page-cached journaling file system — the "mature shared non-DAX
//! code" both DAX controls run (§2, §4.4).
//!
//! ext4-DAX and XFS-DAX are one POSIX machine over two on-media formats.
//! [`PagedFs`] is that machine: the open-file table, path resolution, the
//! dentry-slot directories, file I/O through the [`PageCache`], ordered-mode
//! write-back and the commit driver, and the one `FileSystem` implementation.
//! Nothing is durable before `fsync`/`fdatasync`/`sync`; a commit writes the
//! file data in place, then hands every dirty metadata block to the format's
//! log, which makes them durable atomically.
//!
//! What genuinely differs between the two lives behind [`Media`], implemented
//! by each format's geometry: where inodes sit and how large they are, the
//! block map (per-block pointers vs. inline extents), the allocator (one
//! first-fit bitmap vs. allocation groups), how an inode is released, mkfs,
//! log recovery, the mount-time bitmap reconciliation, and the log protocol.
//!
//! The device calls this module issues — reads included, in order — are
//! pinned by the root `dax_trace` suite: the read-footprint layer and the
//! recovery fuel meter both count them.

use std::{collections::HashMap, ops::Range};

use pmem::PmBackend;

use crate::{
    covpoint,
    fs::{FileSystem, FsOptions},
    pagecache::{BlockClass, PageCache, BLOCK},
    path::{components, is_path_prefix, split_parent, NAME_MAX},
    Cov, DirEntry, FallocMode, Fd, FileType, FsError, FsResult, Metadata, OpenFlags,
};

/// The root directory's inode number.
pub const ROOT_INO: u64 = 1;

/// Size of an on-media directory entry.
pub const DENTRY_SIZE: u64 = 56;

/// Maximum name length in a directory entry: what a path component may be.
const DENTRY_NAME_MAX: usize = NAME_MAX;

/// Dentry slots per directory block: no entry straddles a block boundary.
const SLOTS_PER_BLOCK: u64 = BLOCK / DENTRY_SIZE;

/// Bytes of one xattr entry: `[name_len u8][val_len u8][name 30][value 88]`.
const XATTR_ENTRY: u64 = 120;

/// File type tags stored in inodes.
pub mod itype {
    /// Free inode slot.
    pub const FREE: u64 = 0;
    /// Regular file.
    pub const FILE: u64 = 1;
    /// Directory.
    pub const DIR: u64 = 2;
}

/// Offsets of the fields every format's inode starts with.
pub mod ioff {
    /// File type tag (u64).
    pub const FTYPE: u64 = 0;
    /// Link count (u64).
    pub const NLINK: u64 = 8;
    /// Size in bytes (u64); for a directory, used dentry slots × `DENTRY_SIZE`.
    pub const SIZE: u64 = 16;
}

/// Serialized directory entry (ino 0 = free slot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDentry {
    /// Target inode.
    pub ino: u64,
    /// Entry name.
    pub name: String,
}

impl RawDentry {
    /// Encodes into the fixed 56-byte on-media form.
    pub fn encode(&self) -> [u8; DENTRY_SIZE as usize] {
        let mut buf = [0u8; DENTRY_SIZE as usize];
        buf[0..8].copy_from_slice(&self.ino.to_le_bytes());
        let name = self.name.as_bytes();
        debug_assert!(name.len() <= DENTRY_NAME_MAX);
        buf[8] = name.len() as u8;
        buf[9..9 + name.len()].copy_from_slice(name);
        buf
    }

    /// Decodes from the on-media form. Returns `None` for a free slot.
    pub fn decode(buf: &[u8]) -> Option<RawDentry> {
        let ino = u64::from_le_bytes(buf[0..8].try_into().ok()?);
        if ino == 0 {
            return None;
        }
        let len = (buf[8] as usize).min(DENTRY_NAME_MAX);
        let name = String::from_utf8_lossy(&buf[9..9 + len]).into_owned();
        Some(RawDentry { ino, name })
    }
}

/// Dentry slot location: (file block index, offset within the block).
fn slot_loc(slot: u64) -> (u64, u64) {
    (slot / SLOTS_PER_BLOCK, (slot % SLOTS_PER_BLOCK) * DENTRY_SIZE)
}

/// An on-media format under [`PagedFs`], implemented by its geometry.
///
/// Functions that touch the cache or the device take the file system; what
/// they read and write, and in which order, is part of the format.
pub trait Media: Sized {
    /// Inode size in bytes.
    const INODE_SIZE: u64;
    /// Offset of the xattr block pointer within an inode (u64; 0 = none).
    const XATTR: u64;
    /// Maximum file size in blocks.
    const MAX_FILE_BLOCKS: u64;

    /// Number of inodes; valid inode numbers are `1..=inode_count`.
    fn inode_count(&self) -> u64;
    /// Device byte offset of inode `ino`.
    fn inode_off(&self, ino: u64) -> u64;
    /// The general-purpose blocks: everything an inode may point at.
    fn data_blocks(&self) -> Range<u64>;

    /// mkfs: writes an empty file system and returns its geometry.
    fn format<D: PmBackend>(dev: &mut D) -> FsResult<Self>;
    /// First half of mount: reads the superblock and replays the log.
    fn recover<D: PmBackend>(dev: &mut D, cov: &Cov) -> FsResult<Self>;
    /// Second half of mount, a light fsck: [`PagedFs::check_root`] and the
    /// reconciliation of the allocation bitmap with what inodes reference.
    fn reconcile<D: PmBackend>(fs: &mut PagedFs<D, Self>) -> FsResult<()>;
    /// Makes `blocks` (home block number, contents) durable atomically
    /// through the log and checkpoints them home.
    fn log_commit<D: PmBackend>(&self, dev: &mut D, blocks: &[(u64, &[u8])]) -> FsResult<()>;

    /// Allocates one block on behalf of `ino` that continues no extent.
    fn alloc_block<D: PmBackend>(fs: &mut PagedFs<D, Self>, ino: u64) -> FsResult<u64>;
    /// Clears `blk`'s bitmap bit (in cache): called for every
    /// [`PagedFs::free_block`] by the commit that unreferences the block.
    fn mark_free<D: PmBackend>(fs: &mut PagedFs<D, Self>, blk: u64);

    /// A lookup from file block index to device block for `ino`. Whatever
    /// the format reads once per inode it reads here, the rest per lookup.
    fn block_map<'a, D: PmBackend>(
        fs: &'a PagedFs<D, Self>,
        ino: u64,
    ) -> impl Fn(u64) -> Option<u64> + 'a;
    /// Every device block mapped into `ino`'s file, in write-back order.
    fn mapped<D: PmBackend>(fs: &PagedFs<D, Self>, ino: u64) -> Vec<u64>;
    /// The block at file index `idx`, allocated (zeroed) if unmapped.
    fn ensure_block<D: PmBackend>(fs: &mut PagedFs<D, Self>, ino: u64, idx: u64)
        -> FsResult<u64>;
    /// Truncation to a smaller `size`: frees the whole blocks beyond it and
    /// zeroes the tail of the boundary block. The size field is the caller's.
    fn shrink<D: PmBackend>(fs: &mut PagedFs<D, Self>, ino: u64, size: u64) -> FsResult<()>;
    /// `O_TRUNC`: frees every block of the file.
    fn clear<D: PmBackend>(fs: &mut PagedFs<D, Self>, ino: u64) -> FsResult<()> {
        Self::shrink(fs, ino, 0)
    }
    /// Punches the whole block at file index `idx`, if mapped.
    fn punch_block<D: PmBackend>(fs: &mut PagedFs<D, Self>, ino: u64, idx: u64) -> FsResult<()>;
    /// Frees everything `ino` owns and marks the inode free.
    fn release_inode<D: PmBackend>(fs: &mut PagedFs<D, Self>, ino: u64);
}

/// A format that reserves one journaled block for a checkpoint epoch, which
/// becomes durable atomically with the next commit. SplitFS's user-space
/// component uses it to make operation-log truncation race-free against the
/// kernel commit.
pub trait EpochBlock: Media {
    /// The block whose first word is the epoch.
    const EPOCH_BLOCK: u64;
}

#[derive(Debug, Clone, Copy)]
struct OpenFile {
    ino: u64,
    offset: u64,
    append: bool,
}

/// A mounted page-cached file system over device `D` in format `M`.
#[derive(Clone)]
pub struct PagedFs<D, M> {
    /// The device.
    pub dev: D,
    /// The on-media format.
    pub geo: M,
    /// The volatile page cache.
    pub cache: PageCache,
    /// Coverage sink.
    pub cov: Cov,
    fds: HashMap<u64, OpenFile>,
    next_fd: u64,
    /// Blocks freed since the last commit. Their bitmap bits stay set until
    /// the commit that unreferences them, so they cannot be reallocated and
    /// overwritten in place while a committed state still maps them (the
    /// ordered-mode reuse hazard).
    pending_free: Vec<u64>,
}

impl<D: PmBackend, M: Media> PagedFs<D, M> {
    fn new(dev: D, geo: M, opts: &FsOptions) -> Self {
        PagedFs {
            dev,
            geo,
            cache: PageCache::new(),
            cov: opts.cov.clone(),
            fds: HashMap::new(),
            next_fd: 3,
            pending_free: Vec::new(),
        }
    }

    /// Formats `dev` and mounts the fresh file system.
    pub fn mkfs(mut dev: D, opts: &FsOptions) -> FsResult<Self> {
        let geo = M::format(&mut dev)?;
        Ok(Self::new(dev, geo, opts))
    }

    /// Mounts `dev`, replaying the log if a committed transaction was not
    /// checkpointed before the crash.
    pub fn mount(mut dev: D, opts: &FsOptions) -> FsResult<Self> {
        let geo = M::recover(&mut dev, &opts.cov)?;
        let mut fs = Self::new(dev, geo, opts);
        M::reconcile(&mut fs)?;
        Ok(fs)
    }

    /// Returns the underlying device (consuming the mount).
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Mount-time sanity: the root inode must be a directory.
    pub fn check_root(&self) -> FsResult<()> {
        if self.iget(ROOT_INO, ioff::FTYPE) != itype::DIR {
            return Err(FsError::Unmountable("root inode is not a directory".into()));
        }
        Ok(())
    }

    // ---- cached reads and inode fields ----

    /// Reads from block `blk` at `off`: the cached page if there is one,
    /// the device otherwise (`&self` readers never populate the cache).
    pub fn read_cached(&self, blk: u64, off: u64, buf: &mut [u8]) {
        if let Some(page) = self.cache.peek(blk) {
            buf.copy_from_slice(&page[off as usize..off as usize + buf.len()]);
        } else {
            self.dev.read(blk * BLOCK + off, buf);
        }
    }

    /// [`PagedFs::read_cached`] of a little-endian u64.
    pub fn read_cached_u64(&self, blk: u64, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_cached(blk, off, &mut b);
        u64::from_le_bytes(b)
    }

    fn inode_loc(&self, ino: u64, field: u64) -> (u64, u64) {
        let off = self.geo.inode_off(ino) + field;
        (off / BLOCK, off % BLOCK)
    }

    /// Reads the u64 inode field at offset `field`.
    pub fn iget(&self, ino: u64, field: u64) -> u64 {
        let (blk, off) = self.inode_loc(ino, field);
        self.read_cached_u64(blk, off)
    }

    /// Writes the u64 inode field at offset `field` (in cache, journaled).
    pub fn iset(&mut self, ino: u64, field: u64, v: u64) {
        let (blk, off) = self.inode_loc(ino, field);
        self.cache.write_u64(&self.dev, blk, off, v, BlockClass::Meta);
    }

    /// Zeroes the whole inode (in cache, journaled).
    pub fn zero_inode(&mut self, ino: u64) {
        let (blk, off) = self.inode_loc(ino, 0);
        self.cache.write(&self.dev, blk, off, &vec![0u8; M::INODE_SIZE as usize], BlockClass::Meta);
    }

    fn is_dir(&self, ino: u64) -> bool {
        self.iget(ino, ioff::FTYPE) == itype::DIR
    }

    /// Validates a block pointer read from the (possibly corrupt) device:
    /// crash states can contain arbitrary bytes, and a garbage pointer must
    /// surface as detectable corruption, never as an out-of-range access.
    pub fn valid_blk(&self, b: u64) -> Option<u64> {
        self.geo.data_blocks().contains(&b).then_some(b)
    }

    /// The same for an inode number read from a directory entry.
    fn valid_ino(&self, ino: u64) -> FsResult<u64> {
        if ino >= 1 && ino <= self.geo.inode_count() {
            Ok(ino)
        } else {
            Err(FsError::Corrupt(format!("directory entry references invalid inode {ino}")))
        }
    }

    /// Frees `blk`: the cache page is dropped immediately, the bitmap clear
    /// is deferred to the next commit (see `pending_free`).
    pub fn free_block(&mut self, blk: u64) {
        debug_assert!(self.geo.data_blocks().contains(&blk));
        self.pending_free.push(blk);
        self.cache.evict(blk);
    }

    /// Zeroes `len` bytes of file-data block `blk` from `off` (in cache).
    pub fn zero_range(&mut self, blk: u64, off: u64, len: u64) {
        self.cache.write(&self.dev, blk, off, &vec![0u8; len as usize], BlockClass::Data);
    }

    fn alloc_inode(&mut self, ftype: u64) -> FsResult<u64> {
        for ino in 1..=self.geo.inode_count() {
            if self.iget(ino, ioff::FTYPE) == itype::FREE {
                self.zero_inode(ino);
                self.iset(ino, ioff::FTYPE, ftype);
                self.iset(ino, ioff::NLINK, if ftype == itype::DIR { 2 } else { 1 });
                return Ok(ino);
            }
        }
        Err(FsError::NoSpace)
    }

    fn add_nlink(&mut self, ino: u64, delta: i64) {
        let n = self.iget(ino, ioff::NLINK);
        self.iset(ino, ioff::NLINK, n.wrapping_add_signed(delta));
    }

    // ---- file data I/O ----

    fn get_block(&self, ino: u64, idx: u64) -> Option<u64> {
        M::block_map(self, ino)(idx)
    }

    fn write_at(&mut self, ino: u64, off: u64, data: &[u8]) -> FsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let end = off + data.len() as u64;
        if end.div_ceil(BLOCK) > M::MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        let mut pos = 0usize;
        while pos < data.len() {
            let cur = off + pos as u64;
            let in_blk = cur % BLOCK;
            let n = ((BLOCK - in_blk) as usize).min(data.len() - pos);
            let blk = M::ensure_block(self, ino, cur / BLOCK)?;
            self.cache.write(&self.dev, blk, in_blk, &data[pos..pos + n], BlockClass::Data);
            pos += n;
        }
        if end > self.iget(ino, ioff::SIZE) {
            self.iset(ino, ioff::SIZE, end);
        }
        Ok(data.len())
    }

    fn read_at(&self, ino: u64, off: u64, buf: &mut [u8]) -> usize {
        let size = self.iget(ino, ioff::SIZE).min(M::MAX_FILE_BLOCKS * BLOCK);
        if off >= size {
            return 0;
        }
        let map = M::block_map(self, ino);
        let n = buf.len().min((size - off) as usize);
        let mut pos = 0usize;
        while pos < n {
            let cur = off + pos as u64;
            let in_blk = cur % BLOCK;
            let step = ((BLOCK - in_blk) as usize).min(n - pos);
            match map(cur / BLOCK) {
                Some(blk) => self.read_cached(blk, in_blk, &mut buf[pos..pos + step]),
                None => buf[pos..pos + step].fill(0), // hole
            }
            pos += step;
        }
        n
    }

    // ---- directories ----

    /// Used dentry slots. Clamped: a corrupt size field must not send scans
    /// (or allocations) off the end of the world.
    fn dir_slots(&self, dir: u64) -> u64 {
        (self.iget(dir, ioff::SIZE) / DENTRY_SIZE).min(M::MAX_FILE_BLOCKS * SLOTS_PER_BLOCK)
    }

    fn dentry_at(&self, dir: u64, slot: u64) -> Option<RawDentry> {
        let (idx, off) = slot_loc(slot);
        let blk = self.get_block(dir, idx)?;
        let mut buf = [0u8; DENTRY_SIZE as usize];
        self.read_cached(blk, off, &mut buf);
        RawDentry::decode(&buf)
    }

    /// The (slot, inode number) of `name` in `dir`. The number is whatever
    /// the entry holds: callers that index the inode table validate it.
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
        // Reuse a free slot if one exists, else append one. (Appending reads
        // the slot count a second time; the device-read sequence is pinned.)
        let free = (0..self.dir_slots(dir)).find(|&s| self.dentry_at(dir, s).is_none());
        let slot = free.unwrap_or_else(|| self.dir_slots(dir));
        let (idx, off) = slot_loc(slot);
        if idx >= M::MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        let blk = M::ensure_block(self, dir, idx)?;
        let enc = RawDentry { ino, name: name.to_string() }.encode();
        self.cache.write(&self.dev, blk, off, &enc, BlockClass::Meta);
        if free.is_none() {
            self.iset(dir, ioff::SIZE, (slot + 1) * DENTRY_SIZE);
        }
        Ok(())
    }

    fn dir_remove_slot(&mut self, dir: u64, slot: u64) {
        let (idx, off) = slot_loc(slot);
        if let Some(blk) = self.get_block(dir, idx) {
            self.cache.write(&self.dev, blk, off, &[0u8; DENTRY_SIZE as usize], BlockClass::Meta);
        }
    }

    // ---- path resolution ----

    /// Walks `names` down from the root; every step must be a directory.
    fn walk(&self, names: &[&str]) -> FsResult<u64> {
        let mut cur = ROOT_INO;
        for c in names {
            if !self.is_dir(cur) {
                return Err(FsError::NotDir);
            }
            cur = self.valid_ino(self.dir_lookup(cur, c).ok_or(FsError::NotFound)?.1)?;
        }
        Ok(cur)
    }

    fn resolve(&self, path: &str) -> FsResult<u64> {
        self.walk(&components(path)?)
    }

    fn resolve_parent<'p>(&self, path: &'p str) -> FsResult<(u64, &'p str)> {
        let (parents, name) = split_parent(path)?;
        let dir = self.walk(&parents)?;
        if !self.is_dir(dir) {
            return Err(FsError::NotDir);
        }
        Ok((dir, name))
    }

    /// The parent, slot and validated inode number of the entry at `path`.
    fn resolve_entry(&self, path: &str) -> FsResult<(u64, u64, u64)> {
        let (parent, name) = self.resolve_parent(path)?;
        let (slot, ino) = self.dir_lookup(parent, name).ok_or(FsError::NotFound)?;
        Ok((parent, slot, self.valid_ino(ino)?))
    }

    fn fd_ino(&self, fd: Fd) -> FsResult<u64> {
        Ok(self.fds.get(&fd.0).ok_or(FsError::BadFd)?.ino)
    }

    // ---- deletion ----

    fn drop_if_unused(&mut self, ino: u64) {
        let open = self.fds.values().any(|f| f.ino == ino);
        if self.iget(ino, ioff::NLINK) == 0 && !open {
            M::release_inode(self, ino);
        }
    }

    /// Drops one name of the file `ino`: the dentry, a link, and the inode
    /// with its last link unless a descriptor holds it open.
    fn remove_file_entry(&mut self, dir: u64, slot: u64, ino: u64) {
        self.dir_remove_slot(dir, slot);
        self.add_nlink(ino, -1);
        self.drop_if_unused(ino);
    }

    /// Drops the (empty) directory `ino` from `dir`.
    fn remove_dir_entry(&mut self, dir: u64, slot: u64, ino: u64) -> FsResult<()> {
        if self.dir_live_count(ino) != 0 {
            return Err(FsError::NotEmpty);
        }
        self.dir_remove_slot(dir, slot);
        M::release_inode(self, ino);
        self.add_nlink(dir, -1);
        Ok(())
    }

    // ---- commit machinery ----

    /// Ordered mode: file data goes in place before the journal commits.
    fn write_back(&mut self, blocks: Vec<u64>) {
        for b in blocks {
            self.dev.memcpy_nt(b * BLOCK, self.cache.dirty_block(b));
            self.cache.mark_clean(b);
        }
        self.dev.fence();
    }

    fn commit_metadata(&mut self) -> FsResult<()> {
        // Pending frees become part of this commit: once it is durable, no
        // committed state references the blocks, so reuse is safe.
        for b in std::mem::take(&mut self.pending_free) {
            M::mark_free(self, b);
        }
        let dirty = self.cache.dirty_of(BlockClass::Meta);
        if dirty.is_empty() {
            return Ok(());
        }
        let blocks: Vec<(u64, &[u8])> =
            dirty.iter().map(|&b| (b, self.cache.dirty_block(b))).collect();
        self.geo.log_commit(&mut self.dev, &blocks)?;
        for b in dirty {
            self.cache.mark_clean(b);
        }
        Ok(())
    }

    // ---- xattrs ----

    /// Finds `name` in xattr block `xblk`: its slot offset if present, and
    /// the first free slot offset seen before it.
    fn xattr_find(&mut self, xblk: u64, name: &str) -> (Option<u64>, Option<u64>) {
        let mut free = None;
        for off in (0..BLOCK / XATTR_ENTRY).map(|slot| slot * XATTR_ENTRY) {
            let mut hdr = [0u8; 32];
            self.cache.read(&self.dev, xblk, off, &mut hdr);
            let nlen = hdr[0] as usize;
            if nlen == 0 {
                free.get_or_insert(off);
            } else if &hdr[2..2 + nlen.min(30)] == name.as_bytes() {
                return (Some(off), free);
            }
        }
        (None, free)
    }
}

impl<D: PmBackend, M: EpochBlock> PagedFs<D, M> {
    /// Sets the checkpoint epoch (journaled: the new value becomes durable
    /// atomically with the next `sync`/`fsync` commit).
    pub fn set_epoch(&mut self, v: u64) {
        self.cache.write_u64(&self.dev, M::EPOCH_BLOCK, 0, v, BlockClass::Meta);
    }

    /// Reads the checkpoint epoch (cached view).
    pub fn epoch(&self) -> u64 {
        self.read_cached_u64(M::EPOCH_BLOCK, 0)
    }
}

impl<D: PmBackend, M: Media> FileSystem for PagedFs<D, M> {
    fn open(&mut self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        covpoint!(self.cov);
        let ino = match self.resolve(path) {
            Ok(ino) => {
                if flags.create && flags.excl {
                    return Err(FsError::Exists);
                }
                if self.is_dir(ino) {
                    return Err(FsError::IsDir);
                }
                if flags.trunc {
                    M::clear(self, ino)?;
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
        self.add_nlink(parent, 1);
        Ok(())
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, slot, ino) = self.resolve_entry(path)?;
        if !self.is_dir(ino) {
            return Err(FsError::NotDir);
        }
        self.remove_dir_entry(parent, slot, ino)
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, slot, ino) = self.resolve_entry(path)?;
        if self.is_dir(ino) {
            return Err(FsError::IsDir);
        }
        self.remove_file_entry(parent, slot, ino);
        Ok(())
    }

    fn link(&mut self, old: &str, new: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.resolve(old)?;
        if self.is_dir(ino) {
            return Err(FsError::IsDir);
        }
        let (parent, name) = self.resolve_parent(new)?;
        if self.dir_lookup(parent, name).is_some() {
            return Err(FsError::Exists);
        }
        self.add_nlink(ino, 1);
        self.dir_insert(parent, name, ino)
    }

    fn rename(&mut self, old: &str, new: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let src_ino = self.resolve(old)?;
        let src_is_dir = self.is_dir(src_ino);
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
            match (src_is_dir, self.is_dir(dst_ino)) {
                (true, true) => self.remove_dir_entry(dst_parent, dst_slot, dst_ino)?,
                (true, false) => return Err(FsError::NotDir),
                (false, true) => return Err(FsError::IsDir),
                (false, false) => self.remove_file_entry(dst_parent, dst_slot, dst_ino),
            }
        }
        self.dir_remove_slot(src_parent, src_slot);
        self.dir_insert(dst_parent, dst_name, src_ino)?;
        if src_is_dir && src_parent != dst_parent {
            self.add_nlink(src_parent, -1);
            self.add_nlink(dst_parent, 1);
        }
        Ok(())
    }

    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.resolve(path)?;
        if self.is_dir(ino) {
            return Err(FsError::IsDir);
        }
        if size.div_ceil(BLOCK) > M::MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        if size < self.iget(ino, ioff::SIZE) {
            M::shrink(self, ino, size)?;
        }
        self.iset(ino, ioff::SIZE, size);
        Ok(())
    }

    fn fallocate(&mut self, fd: Fd, mode: FallocMode, off: u64, len: u64) -> FsResult<()> {
        covpoint!(self.cov);
        if len == 0 {
            return Err(FsError::Invalid);
        }
        let ino = self.fd_ino(fd)?;
        let end = off.checked_add(len).ok_or(FsError::Invalid)?;
        if end.div_ceil(BLOCK) > M::MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        match mode {
            FallocMode::Allocate | FallocMode::KeepSize => {
                for idx in off / BLOCK..end.div_ceil(BLOCK) {
                    M::ensure_block(self, ino, idx)?;
                }
                if mode == FallocMode::Allocate && end > self.iget(ino, ioff::SIZE) {
                    self.iset(ino, ioff::SIZE, end);
                }
            }
            FallocMode::ZeroRange | FallocMode::PunchHole => {
                let z_end = end.min(self.iget(ino, ioff::SIZE));
                let mut cur = off;
                while cur < z_end {
                    let idx = cur / BLOCK;
                    let in_blk = cur % BLOCK;
                    let n = (BLOCK - in_blk).min(z_end - cur);
                    if mode == FallocMode::PunchHole && n == BLOCK {
                        M::punch_block(self, ino, idx)?;
                    } else if let Some(b) = self.get_block(ino, idx) {
                        self.zero_range(b, in_blk, n);
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
        let n = self.write_at(of.ino, off, data)?;
        if let Some(f) = self.fds.get_mut(&fd.0) {
            f.offset = off + n as u64;
        }
        Ok(n)
    }

    fn pwrite(&mut self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        covpoint!(self.cov);
        let ino = self.fd_ino(fd)?;
        self.write_at(ino, off, data)
    }

    fn pread(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        Ok(self.read_at(self.fd_ino(fd)?, off, buf))
    }

    fn fsync(&mut self, fd: Fd) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.fd_ino(fd)?;
        let dirty = M::mapped(self, ino).into_iter().filter(|&b| self.cache.is_dirty(b)).collect();
        self.write_back(dirty);
        self.commit_metadata()
    }

    fn sync(&mut self) -> FsResult<()> {
        covpoint!(self.cov);
        self.write_back(self.cache.dirty_of(BlockClass::Data));
        self.commit_metadata()
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let ino = self.resolve(path)?;
        let dir = self.is_dir(ino);
        Ok(Metadata {
            ino,
            ftype: if dir { FileType::Directory } else { FileType::Regular },
            nlink: self.iget(ino, ioff::NLINK),
            size: if dir { self.dir_live_count(ino) } else { self.iget(ino, ioff::SIZE) },
            blocks: if dir { 1 } else { M::mapped(self, ino).len() as u64 },
        })
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let ino = self.resolve(path)?;
        if !self.is_dir(ino) {
            return Err(FsError::NotDir);
        }
        let mut out = Vec::new();
        for slot in 0..self.dir_slots(ino) {
            if let Some(d) = self.dentry_at(ino, slot) {
                let child = self.valid_ino(d.ino)?;
                let ftype =
                    if self.is_dir(child) { FileType::Directory } else { FileType::Regular };
                out.push(DirEntry { name: d.name, ino: child, ftype });
            }
        }
        out.sort();
        Ok(out)
    }

    fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        let ino = self.resolve(path)?;
        if self.is_dir(ino) {
            return Err(FsError::IsDir);
        }
        let size = self.iget(ino, ioff::SIZE);
        if size > M::MAX_FILE_BLOCKS * BLOCK {
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
        let mut xblk = self.iget(ino, M::XATTR);
        if self.valid_blk(xblk).is_none() {
            xblk = M::alloc_block(self, ino)?;
            self.cache.zero_block(xblk, BlockClass::Meta);
            self.iset(ino, M::XATTR, xblk);
        }
        // An existing entry of that name is overwritten in place.
        let (found, free) = self.xattr_find(xblk, name);
        let off = found.or(free).ok_or(FsError::NoSpace)?;
        let mut entry = [0u8; XATTR_ENTRY as usize];
        entry[0] = name.len() as u8;
        entry[1] = value.len() as u8;
        entry[2..2 + name.len()].copy_from_slice(name.as_bytes());
        entry[32..32 + value.len()].copy_from_slice(value);
        self.cache.write(&self.dev, xblk, off, &entry, BlockClass::Meta);
        Ok(())
    }

    fn removexattr(&mut self, path: &str, name: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.resolve(path)?;
        let xblk = self.valid_blk(self.iget(ino, M::XATTR)).ok_or(FsError::NotFound)?;
        let off = self.xattr_find(xblk, name).0.ok_or(FsError::NotFound)?;
        self.cache.write(&self.dev, xblk, off, &[0u8; XATTR_ENTRY as usize], BlockClass::Meta);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dentry_round_trip() {
        let d = RawDentry { ino: 42, name: "hello.txt".into() };
        assert_eq!(RawDentry::decode(&d.encode()), Some(d));
        assert_eq!(RawDentry::decode(&[0u8; DENTRY_SIZE as usize]), None);
        assert_eq!(slot_loc(SLOTS_PER_BLOCK), (1, 0), "no entry straddles a block");
    }
}
