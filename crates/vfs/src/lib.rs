#![warn(missing_docs)]

//! Shared file-system abstractions for chipmunk-rs.
//!
//! This crate defines everything the test framework and the five PM file
//! systems have in common:
//!
//! * [`FileSystem`] — the POSIX-subset interface every tested file system
//!   implements (the set of system calls the paper tests, §4.1);
//! * [`FsKind`] — a factory trait tying a file-system implementation to the
//!   device it runs on (`mkfs` for fresh devices, `mount` for recovery on
//!   crash images);
//! * [`FsError`]/[`FsResult`] — errno-style error handling;
//! * [`bugs`] — the registry of the paper's 23 unique crash-consistency bugs
//!   (25 instances, Table 1), each individually switchable;
//! * [`cov`] — lightweight coverage instrumentation (the analogue of KCOV
//!   for the Syzkaller-style fuzzer);
//! * [`freemap`] — the free-block bitmap the PM file systems rebuild at
//!   mount;
//! * [`pagecache`] and [`pagedfs`] — the volatile page cache and the
//!   page-cached journaling file system the two DAX controls are (one POSIX
//!   machine; `ext4dax` and `xfsdax` supply the on-media formats);
//! * [`workload`] — the operation vocabulary shared by the ACE generator,
//!   the fuzzer, and the test harness;
//! * [`model`] — a plain in-memory reference file system used as the ground
//!   truth for crash-free semantics in property tests.

pub mod bugs;
pub mod chaos;
pub mod cov;
pub mod error;
pub mod freemap;
pub mod fs;
pub mod model;
pub mod pagecache;
pub mod pagedfs;
pub mod path;
pub mod trace;
pub mod types;
pub mod workload;

pub use bugs::{BugId, BugInfo, BugKind, BugSet, FsName};
pub use chaos::{ChaosFs, ChaosKind};
pub use cov::Cov;
pub use error::{FsError, FsResult};
pub use freemap::FreeMap;
pub use fs::{FileSystem, FsKind, Guarantees};
pub use trace::BugTrace;
pub use types::{DirEntry, FallocMode, Fd, FileType, Metadata, OpenFlags};
pub use workload::{Op, Workload};
