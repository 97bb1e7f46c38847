#![warn(missing_docs)]

//! Chipmunk: a crash-consistency testing framework for PM file systems.
//!
//! This crate is the reproduction of the paper's primary contribution (§3):
//! a record-and-replay framework that, given a workload and a target file
//! system,
//!
//! 1. **records** the workload's PM write stream through the gray-box logger
//!    (`pmlog`), with markers delimiting each system call;
//! 2. **constructs crash states**: at every store fence (strong-guarantee
//!    file systems) or after every fsync-family call (weak guarantees), it
//!    replays subsets of the in-flight writes — in increasing subset size,
//!    optionally capped — on top of the last known-persistent image;
//! 3. **checks** each crash state by mounting the target file system on it
//!    (recovery itself being the first check) and comparing the recovered
//!    tree against oracle states captured from a crash-free run: atomicity
//!    for crashes during a system call, synchrony for crashes after one,
//!    stability of unrelated files, and a usability probe; and
//! 4. **reports** violations, with triage clustering for fuzzing campaigns.
//!
//! The crate is generic over [`vfs::FsKind`], so the same machinery tests
//! every file system in this workspace, exactly as Chipmunk tests any POSIX
//! PM file system.
//!
//! # Example
//!
//! ```
//! use chipmunk::{test_workload, TestConfig};
//! use ext4dax::Ext4DaxKind;
//! use vfs::{Op, Workload};
//!
//! let kind = Ext4DaxKind::default();
//! let w = Workload::new(
//!     "demo",
//!     vec![
//!         Op::Creat { path: "/foo".into() },
//!         Op::WritePath { path: "/foo".into(), off: 0, size: 100 },
//!         Op::FsyncPath { path: "/foo".into() },
//!     ],
//! );
//! let outcome = test_workload(&kind, &w, &TestConfig::default());
//! assert!(outcome.reports.is_empty(), "{:?}", outcome.reports);
//! assert!(outcome.crash_states > 0);
//! ```

pub mod checker;
pub mod config;
pub mod crashgen;
pub mod exec;
pub(crate) mod footprint;
pub mod harness;
pub mod oracle;
pub mod prefix;
pub mod reference;
pub mod report;
pub mod sandbox;
pub mod shrink;

pub use config::TestConfig;
pub use harness::{
    check_one_state, test_on_fresh_sinks, test_workload, PhaseTimings, StateProbe, TestOutcome,
};
pub use oracle::Scope;
pub use prefix::PrefixCache;
pub use report::{exemplar, triage, BugReport, CrashPhase, Stage, Violation};
pub use shrink::{shrink, ShrinkStats, Shrunk};
