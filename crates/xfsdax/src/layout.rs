//! On-device layout: superblock, write-ahead log, allocation groups,
//! extent-based inodes. The inode header (type, links, size) and the
//! directory-entry format are the shared core's ([`vfs::pagedfs`]).

use vfs::{FsError, FsResult};

/// Block size in bytes.
pub const BLOCK: u64 = 4096;

/// Superblock magic ("XFSDAX01").
pub const MAGIC: u64 = u64::from_le_bytes(*b"XFSDAX01");

/// Inode size in bytes.
pub const INODE_SIZE: u64 = 512;

/// Inline extents per inode.
pub const NEXTENTS: usize = 12;

/// Maximum file size in blocks (bounded by the inline extent map: twelve
/// extents of arbitrary length — the practical bound below keeps reads
/// sane on corrupt images).
pub const MAX_FILE_BLOCKS: u64 = 4096;

/// Superblock field offsets.
pub mod sboff {
    /// Magic (u64).
    pub const MAGIC: u64 = 0;
    /// Total blocks (u64).
    pub const TOTAL_BLOCKS: u64 = 8;
    /// Inode count (u64).
    pub const INODE_COUNT: u64 = 16;
    /// First log block (u64).
    pub const LOG_START: u64 = 24;
    /// Log length in blocks (u64).
    pub const LOG_BLOCKS: u64 = 32;
    /// Number of allocation groups (u64).
    pub const NAGS: u64 = 40;
    /// Blocks per allocation group (u64).
    pub const AG_SIZE: u64 = 48;
    /// First AG-bitmap block (one block per AG) (u64).
    pub const AGF_START: u64 = 56;
    /// Inode table start block (u64).
    pub const ITABLE: u64 = 64;
    /// First allocatable (data) block (u64).
    pub const DATA_START: u64 = 72;
    /// Log sequence number: next transaction id expected at recovery (u64).
    pub const LOG_SEQ: u64 = 80;
}

/// Inode field offsets.
pub mod ioff {
    pub use vfs::pagedfs::ioff::{FTYPE, NLINK, SIZE};
    /// Number of live extents (u64).
    pub const NEXTENTS: u64 = 24;
    /// Xattr block (u64; 0 = none).
    pub const XATTR: u64 = 32;
    /// First extent record: 3 × u64 per record (file block, start, len).
    pub const EXTENTS: u64 = 40;
}

/// Computed device geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Total blocks.
    pub total_blocks: u64,
    /// Inode count.
    pub inode_count: u64,
    /// First log block.
    pub log_start: u64,
    /// Log length in blocks.
    pub log_blocks: u64,
    /// Number of allocation groups.
    pub nags: u64,
    /// Blocks per allocation group.
    pub ag_size: u64,
    /// First AG-bitmap block.
    pub agf_start: u64,
    /// Inode table start block.
    pub itable: u64,
    /// First allocatable block.
    pub data_start: u64,
}

impl Geometry {
    /// Computes the layout for `size` bytes.
    pub fn for_device(size: u64) -> FsResult<Geometry> {
        let total_blocks = size / BLOCK;
        if total_blocks < 64 {
            return Err(FsError::NoSpace);
        }
        let log_start = 1;
        let log_blocks = (total_blocks / 16).clamp(8, 256);
        let nags = 4u64;
        let agf_start = log_start + log_blocks;
        let inode_count = (total_blocks / 4).clamp(64, 2048);
        let itable = agf_start + nags;
        let itable_blocks = (inode_count * INODE_SIZE).div_ceil(BLOCK);
        let data_start = itable + itable_blocks;
        if data_start + nags * 2 > total_blocks {
            return Err(FsError::NoSpace);
        }
        let ag_size = (total_blocks - data_start).div_ceil(nags);
        Ok(Geometry {
            total_blocks,
            inode_count,
            log_start,
            log_blocks,
            nags,
            ag_size,
            agf_start,
            itable,
            data_start,
        })
    }

    /// Device byte offset of inode `ino`.
    pub fn inode_off(&self, ino: u64) -> u64 {
        debug_assert!(ino >= 1 && ino <= self.inode_count);
        self.itable * BLOCK + (ino - 1) * INODE_SIZE
    }

    /// The allocation group a device block belongs to.
    pub fn ag_of(&self, blk: u64) -> u64 {
        debug_assert!(blk >= self.data_start);
        ((blk - self.data_start) / self.ag_size).min(self.nags - 1)
    }

    /// The device-block range of allocation group `ag`.
    pub fn ag_range(&self, ag: u64) -> (u64, u64) {
        let start = self.data_start + ag * self.ag_size;
        let end = (start + self.ag_size).min(self.total_blocks);
        (start, end)
    }

    /// The bitmap block of allocation group `ag`.
    pub fn agf_block(&self, ag: u64) -> u64 {
        self.agf_start + ag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_partitions_the_device() {
        let g = Geometry::for_device(8 << 20).unwrap();
        assert_eq!(g.nags, 4);
        assert!(g.agf_start >= g.log_start + g.log_blocks);
        assert!(g.itable >= g.agf_start + g.nags);
        assert!(g.data_start < g.total_blocks);
        // Every data block maps to a valid AG.
        assert_eq!(g.ag_of(g.data_start), 0);
        assert_eq!(g.ag_of(g.total_blocks - 1), g.nags - 1);
        let (s0, e0) = g.ag_range(0);
        assert_eq!(s0, g.data_start);
        assert!(e0 > s0);
    }

    #[test]
    fn inode_fits_its_extent_records() {
        assert!(ioff::EXTENTS + NEXTENTS as u64 * 24 <= INODE_SIZE);
    }
}
