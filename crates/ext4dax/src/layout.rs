//! On-device layout: superblock, journal, bitmap, inode table. The inode
//! header (type, links, size) and the directory-entry format are the shared
//! core's ([`vfs::pagedfs`]).

use vfs::{FsError, FsResult};

/// Block size in bytes.
pub const BLOCK: u64 = 4096;

/// Superblock magic ("EXT4DAXC" as little-endian u64).
pub const MAGIC: u64 = u64::from_le_bytes(*b"EXT4DAXC");

/// Inode size in bytes.
pub const INODE_SIZE: u64 = 256;

/// Number of direct block pointers per inode.
pub const NDIRECT: usize = 12;

/// Pointers per indirect block.
pub const PTRS_PER_BLOCK: u64 = BLOCK / 8;

/// Maximum file size in blocks (direct + one indirect).
pub const MAX_FILE_BLOCKS: u64 = NDIRECT as u64 + PTRS_PER_BLOCK;

/// Field offsets within an inode.
pub mod ioff {
    pub use vfs::pagedfs::ioff::{FTYPE, NLINK, SIZE};
    /// Xattr block number, 0 if none (u64).
    pub const XATTR: u64 = 24;
    /// First direct pointer (12 × u64).
    pub const DIRECT: u64 = 32;
    /// Indirect block pointer (u64).
    pub const INDIRECT: u64 = 128;
}

/// Computed region geometry for a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Total device blocks.
    pub total_blocks: u64,
    /// Number of inodes.
    pub inode_count: u64,
    /// First journal block.
    pub journal_start: u64,
    /// Journal length in blocks.
    pub journal_blocks: u64,
    /// First bitmap block.
    pub bitmap_start: u64,
    /// Bitmap length in blocks.
    pub bitmap_blocks: u64,
    /// First inode-table block.
    pub itable_start: u64,
    /// Inode table length in blocks.
    pub itable_blocks: u64,
    /// First general-purpose data block.
    pub data_start: u64,
}

impl Geometry {
    /// Computes the layout for a device of `size` bytes.
    pub fn for_device(size: u64) -> FsResult<Geometry> {
        let total_blocks = size / BLOCK;
        if total_blocks < 32 {
            return Err(FsError::NoSpace);
        }
        // Block 1 is the epoch block (see `Ext4Dax::set_epoch`).
        let journal_start = 2;
        let journal_blocks = (total_blocks / 16).clamp(8, 256);
        let bitmap_start = journal_start + journal_blocks;
        let bitmap_blocks = total_blocks.div_ceil(BLOCK * 8).max(1);
        let itable_start = bitmap_start + bitmap_blocks;
        let inode_count = (total_blocks / 4).clamp(64, 4096);
        let itable_blocks = (inode_count * INODE_SIZE).div_ceil(BLOCK);
        let data_start = itable_start + itable_blocks;
        if data_start + 8 > total_blocks {
            return Err(FsError::NoSpace);
        }
        Ok(Geometry {
            total_blocks,
            inode_count,
            journal_start,
            journal_blocks,
            bitmap_start,
            bitmap_blocks,
            itable_start,
            itable_blocks,
            data_start,
        })
    }

    /// Device byte offset of inode `ino`.
    pub fn inode_off(&self, ino: u64) -> u64 {
        debug_assert!(ino >= 1 && ino <= self.inode_count);
        self.itable_start * BLOCK + (ino - 1) * INODE_SIZE
    }
}

/// Superblock field offsets (block 0).
pub mod sboff {
    /// Magic (u64).
    pub const MAGIC: u64 = 0;
    /// Total blocks (u64).
    pub const TOTAL_BLOCKS: u64 = 8;
    /// Inode count (u64).
    pub const INODE_COUNT: u64 = 16;
    /// Journal start block (u64).
    pub const JOURNAL_START: u64 = 24;
    /// Journal length in blocks (u64).
    pub const JOURNAL_BLOCKS: u64 = 32;
    /// Bitmap start block (u64).
    pub const BITMAP_START: u64 = 40;
    /// Bitmap length (u64).
    pub const BITMAP_BLOCKS: u64 = 48;
    /// Inode table start block (u64).
    pub const ITABLE_START: u64 = 56;
    /// Inode table length (u64).
    pub const ITABLE_BLOCKS: u64 = 64;
    /// First data block (u64).
    pub const DATA_START: u64 = 72;
    /// Journal head: next transaction id expected at recovery (u64).
    pub const JOURNAL_SEQ: u64 = 80;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_partitions_do_not_overlap() {
        let g = Geometry::for_device(8 * 1024 * 1024).unwrap();
        assert!(g.journal_start >= 1);
        assert!(g.bitmap_start >= g.journal_start + g.journal_blocks);
        assert!(g.itable_start >= g.bitmap_start + g.bitmap_blocks);
        assert!(g.data_start >= g.itable_start + g.itable_blocks);
        assert!(g.data_start < g.total_blocks);
        assert!(g.inode_count >= 64);
    }

    #[test]
    fn tiny_device_rejected() {
        assert_eq!(Geometry::for_device(16 * 1024), Err(FsError::NoSpace));
    }

    #[test]
    fn inode_offsets_are_disjoint() {
        let g = Geometry::for_device(8 * 1024 * 1024).unwrap();
        assert_eq!(g.inode_off(2) - g.inode_off(1), INODE_SIZE);
        assert!(g.inode_off(g.inode_count) + INODE_SIZE <= g.data_start * BLOCK);
    }
}
