#![warn(missing_docs)]

//! An ext4-DAX-style file system with *weak* crash-consistency guarantees.
//!
//! The paper tests ext4-DAX and XFS-DAX as mature baselines: disk-era file
//! systems run in DAX mode, retaining their original crash-consistency
//! contract — **nothing is guaranteed durable until
//! `fsync`/`fdatasync`/`sync`** (§2, "weak guarantees"). The paper found no
//! bugs in them, attributing this to the maturity of the shared non-DAX
//! code; here that shared code is literally shared: [`vfs::pagedfs`] is the
//! page-cached journaling file system (system calls, directories, file I/O,
//! write-back, commit driver) and this crate is one of its two on-media
//! formats — and the kernel-component substrate that `splitfs` builds on.
//!
//! What is ext4 about it ([`vfs::pagedfs::Media`] for [`layout::Geometry`]):
//!
//! * **Per-block pointers** — twelve direct pointers and one indirect block
//!   per inode.
//! * **One first-fit block bitmap** for the whole device, reconciled at
//!   mount against what the inodes reference.
//! * **A physical redo journal** ([`journal`], jbd2-style): descriptor
//!   block, payload blocks, commit block with checksum; committed
//!   transactions are checkpointed home and retired, mount replays a
//!   committed-but-uncheckpointed one and ignores a torn tail.
//! * **An epoch block** (block 1), journaled with everything else, for
//!   SplitFS ([`vfs::pagedfs::EpochBlock`]).

pub mod fsimpl;
pub mod journal;
pub mod layout;

pub use fsimpl::Ext4Dax;

use pmem::PmBackend;
use vfs::{
    fs::{FsKind, FsOptions, Guarantees},
    FsName, FsResult,
};

/// Factory for [`Ext4Dax`] instances.
#[derive(Debug, Clone, Default)]
pub struct Ext4DaxKind {
    /// Construction options (ext4-DAX has no injected bugs; options carry
    /// coverage config).
    pub opts: FsOptions,
}

impl FsKind for Ext4DaxKind {
    type Fs<D: PmBackend> = Ext4Dax<D>;

    fn name(&self) -> FsName {
        FsName::Ext4Dax
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
        Ext4Dax::mkfs(dev, &self.opts)
    }

    fn mount<D: PmBackend>(&self, dev: D) -> FsResult<Self::Fs<D>> {
        Ext4Dax::mount(dev, &self.opts)
    }

    fn fork_fs<D: PmBackend + Clone>(&self, fs: &Self::Fs<D>) -> Option<Self::Fs<D>> {
        Some(fs.clone())
    }
}
