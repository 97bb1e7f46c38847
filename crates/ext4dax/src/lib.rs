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
//! * **A physical redo journal** (jbd2-style): the shared
//!   [`vfs::pagedfs::RedoLog`] protocol under this format's constants
//!   (`J4DESC`/`J4COMMIT` tags, its own checksum seed and rotation, the
//!   sequence number at superblock offset 80, blocks `2..` after the epoch
//!   block). Descriptor block, payload blocks, commit block with checksum;
//!   committed transactions are checkpointed home and retired, mount replays
//!   a committed-but-uncheckpointed one and ignores a torn tail.
//! * **An epoch block** (block 1), journaled with everything else, for
//!   SplitFS ([`vfs::pagedfs::EpochBlock`]).

pub mod fsimpl;
pub mod layout;

pub use fsimpl::Ext4Dax;

/// Factory for [`Ext4Dax`] instances: the shared [`vfs::pagedfs::PagedKind`]
/// over this crate's format.
pub type Ext4DaxKind = vfs::pagedfs::PagedKind<layout::Geometry>;
