#![warn(missing_docs)]

//! An XFS-DAX-style file system with *weak* crash-consistency guarantees —
//! the paper's second mature control alongside ext4-DAX (§4.1; like its
//! sibling, the paper found no bugs in it).
//!
//! The POSIX machine — system calls, directories, file I/O through the
//! volatile page cache, write-back, the commit driver — is the one the
//! `ext4dax` crate runs too, [`vfs::pagedfs`]; nothing is durable before
//! `fsync`/`fdatasync`/`sync`, so Chipmunk places crash points only after
//! those calls. This crate is the on-media format
//! ([`vfs::pagedfs::Media`] for [`layout::Geometry`]), the structures that
//! make XFS XFS, in miniature:
//!
//! * **Allocation groups** — the device's data area is divided into
//!   independent allocation groups, each with its own free-space bitmap;
//!   files allocate from the group their inode hashes to, falling back
//!   round-robin when a group fills. Extents try to grow contiguously
//!   within a group.
//! * **Extent-based inodes** — files map their blocks with a small inline
//!   array of `(file block, start block, length)` extents instead of
//!   ext4-style per-block pointers; a hole punch that would need a
//!   thirteenth extent zeroes the block in place instead.
//! * **A write-ahead log** with commit records and checkpointing, replayed
//!   at mount. Like ext4-DAX's journal in this reproduction the log carries
//!   metadata block images (real XFS logs logical items; the crash-visible
//!   contract — committed or ignored — is the same).

pub mod extents;
pub mod fsimpl;
pub mod layout;

pub use fsimpl::XfsDax;

use pmem::PmBackend;
use vfs::{
    fs::{FsKind, FsOptions, Guarantees},
    FsName, FsResult,
};

/// Factory for [`XfsDax`] instances.
#[derive(Debug, Clone, Default)]
pub struct XfsDaxKind {
    /// Construction options (no injected bugs; carries coverage config).
    pub opts: FsOptions,
}

impl FsKind for XfsDaxKind {
    type Fs<D: PmBackend> = XfsDax<D>;

    fn name(&self) -> FsName {
        FsName::XfsDax
    }

    fn options(&self) -> &FsOptions {
        &self.opts
    }

    fn with_options(&self, opts: FsOptions) -> Self {
        Self { opts }
    }

    fn guarantees(&self) -> Guarantees {
        Guarantees { strong: false, atomic_data_writes: false, data_checksums: false }
    }

    fn mkfs<D: PmBackend>(&self, dev: D) -> FsResult<Self::Fs<D>> {
        XfsDax::mkfs(dev, &self.opts)
    }

    fn mount<D: PmBackend>(&self, dev: D) -> FsResult<Self::Fs<D>> {
        XfsDax::mount(dev, &self.opts)
    }

    fn fork_fs<D: PmBackend + Clone>(&self, fs: &Self::Fs<D>) -> Option<Self::Fs<D>> {
        Some(fs.clone())
    }
}
