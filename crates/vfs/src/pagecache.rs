//! The volatile page cache — shared "kernel" infrastructure.
//!
//! The DAX-mode controls (ext4-DAX, XFS-DAX) keep their disk-era
//! architecture: every read and write goes through DRAM pages, and
//! persistent media is only touched when a commit point (fsync-family call)
//! writes data blocks in place and metadata blocks through a journal. Both
//! file systems use this cache, just as they share the Linux page cache;
//! it tracks which blocks are dirty and whether they are metadata
//! (journaled) or file data (written in place, ordered mode).

use pmem::{FxHashMap, PmBackend};

/// Cache block size (one page).
pub const BLOCK: u64 = 4096;

/// Classification of a cached block, deciding its commit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockClass {
    /// Journaled at commit: superblock, bitmap, inode table, directory
    /// data, indirect and xattr blocks.
    Meta,
    /// Written in place before the journal commits (ordered mode).
    Data,
}

#[derive(Debug, Clone)]
struct Page {
    buf: Box<[u8]>,
    dirty: bool,
    class: BlockClass,
}

/// A write-back page cache over device blocks.
#[derive(Debug, Clone, Default)]
pub struct PageCache {
    pages: FxHashMap<u64, Page>,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PageCache::default()
    }

    fn load<D: PmBackend>(&mut self, dev: &D, blk: u64, class: BlockClass) -> &mut Page {
        self.pages.entry(blk).or_insert_with(|| {
            let mut buf = vec![0u8; BLOCK as usize].into_boxed_slice();
            dev.read(blk * BLOCK, &mut buf);
            Page { buf, dirty: false, class }
        })
    }

    /// Reads `buf.len()` bytes from block `blk` at `off` within the block.
    pub fn read<D: PmBackend>(&mut self, dev: &D, blk: u64, off: u64, buf: &mut [u8]) {
        debug_assert!(off + buf.len() as u64 <= BLOCK);
        let p = self.load(dev, blk, BlockClass::Meta);
        buf.copy_from_slice(&p.buf[off as usize..off as usize + buf.len()]);
    }

    /// Writes into block `blk` at `off`, marking it dirty with `class`.
    pub fn write<D: PmBackend>(
        &mut self,
        dev: &D,
        blk: u64,
        off: u64,
        data: &[u8],
        class: BlockClass,
    ) {
        debug_assert!(off + data.len() as u64 <= BLOCK);
        let p = self.load(dev, blk, class);
        p.buf[off as usize..off as usize + data.len()].copy_from_slice(data);
        p.dirty = true;
        p.class = class;
    }

    /// Reads a little-endian u64.
    pub fn read_u64<D: PmBackend>(&mut self, dev: &D, blk: u64, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(dev, blk, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64 with the given class.
    pub fn write_u64<D: PmBackend>(
        &mut self,
        dev: &D,
        blk: u64,
        off: u64,
        v: u64,
        class: BlockClass,
    ) {
        self.write(dev, blk, off, &v.to_le_bytes(), class);
    }

    /// Zero-fills a whole block in cache (marking it dirty) without reading
    /// it from the device first.
    pub fn zero_block(&mut self, blk: u64, class: BlockClass) {
        self.pages.insert(
            blk,
            Page { buf: vec![0u8; BLOCK as usize].into_boxed_slice(), dirty: true, class },
        );
    }

    /// Whole contents of a dirty block. A dirty block is always cached, so
    /// the commit path can borrow several of them while it writes to the
    /// device, instead of copying each out.
    pub fn dirty_block(&self, blk: u64) -> &[u8] {
        &self.pages.get(&blk).expect("a dirty block is cached").buf
    }

    /// Cached contents of `blk` without loading on miss (for `&self`
    /// readers, which fall back to the device themselves).
    pub fn peek(&self, blk: u64) -> Option<&[u8]> {
        self.pages.get(&blk).map(|p| &*p.buf)
    }

    /// Dirty blocks of the given class, sorted by block number.
    pub fn dirty_of(&self, class: BlockClass) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, p)| p.dirty && p.class == class)
            .map(|(&b, _)| b)
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether the given block is dirty.
    pub fn is_dirty(&self, blk: u64) -> bool {
        self.pages.get(&blk).is_some_and(|p| p.dirty)
    }

    /// Marks a block clean after it has been committed.
    pub fn mark_clean(&mut self, blk: u64) {
        if let Some(p) = self.pages.get_mut(&blk) {
            p.dirty = false;
        }
    }

    /// Drops a block from the cache entirely (used when freeing it).
    pub fn evict(&mut self, blk: u64) {
        self.pages.remove(&blk);
    }

    /// Number of dirty blocks.
    pub fn dirty_count(&self) -> usize {
        self.pages.values().filter(|p| p.dirty).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmDevice;

    #[test]
    fn cache_reads_through_and_buffers_writes() {
        let mut dev = PmDevice::new(16 * BLOCK);
        dev.store(2 * BLOCK, b"on-media");
        let mut c = PageCache::new();
        let mut buf = [0u8; 8];
        c.read(&dev, 2, 0, &mut buf);
        assert_eq!(&buf, b"on-media");
        c.write(&dev, 2, 0, b"buffered", BlockClass::Data);
        c.read(&dev, 2, 0, &mut buf);
        assert_eq!(&buf, b"buffered");
        // The device itself is untouched.
        let mut raw = [0u8; 8];
        dev.read(2 * BLOCK, &mut raw);
        assert_eq!(&raw, b"on-media");
    }

    #[test]
    fn dirty_tracking_by_class() {
        let dev = PmDevice::new(16 * BLOCK);
        let mut c = PageCache::new();
        c.write(&dev, 1, 0, b"m", BlockClass::Meta);
        c.write(&dev, 5, 0, b"d", BlockClass::Data);
        assert_eq!(c.dirty_of(BlockClass::Meta), vec![1]);
        assert_eq!(c.dirty_of(BlockClass::Data), vec![5]);
        c.mark_clean(5);
        assert!(c.dirty_of(BlockClass::Data).is_empty());
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn zero_block_skips_device_read() {
        let mut dev = PmDevice::new(16 * BLOCK);
        dev.store(3 * BLOCK, &[0xff; 16]);
        let mut c = PageCache::new();
        c.zero_block(3, BlockClass::Data);
        let mut buf = [0u8; 16];
        c.read(&dev, 3, 0, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert!(c.is_dirty(3));
    }
}
