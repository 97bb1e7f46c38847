#![warn(missing_docs)]

//! Persistent-memory (PM) device simulation for chipmunk-rs.
//!
//! This crate models the storage substrate that the Chipmunk paper tests on:
//! byte-addressable persistent memory accessed through processor stores,
//! cache-line write-back instructions (`clwb`/`clflushopt`), non-temporal
//! stores (`movnt`), and store fences (`sfence`) — the x86 *epoch persistence
//! model*. The key property the model captures is the one the paper's
//! crash-state constructor relies on:
//!
//! * A write becomes *in-flight* when its cache line is written back or when
//!   it is issued as a non-temporal store.
//! * In-flight writes become *persistent* only once a subsequent store fence
//!   executes; until then, a crash may persist any subset of them, in any
//!   order (with 8-byte atomicity on real hardware).
//! * Plain cached stores that were never written back are assumed lost on a
//!   crash. (Real hardware may evict them, but the PM file systems under test
//!   route every durable write through centralized persistence functions, so
//!   — exactly as in the paper — only flushed/non-temporal data participates
//!   in crash-state construction.)
//!
//! The crate provides:
//!
//! * [`PmBackend`] — the trait file systems write against. Its methods mirror
//!   the centralized persistence functions the paper describes (non-temporal
//!   memcpy, non-temporal memset, buffer flush, store fence) plus plain
//!   cached stores and reads.
//! * [`PmDevice`] — a concrete simulated device with cache/in-flight
//!   tracking, a deterministic simulated-time cost model, and direct crash
//!   simulation for property tests.
//! * [`CowDevice`] — a copy-on-write overlay over an immutable base image,
//!   used by the test harness to mount file systems on crash states cheaply
//!   (the analogue of CrashMonkey's copy-on-write device).
//! * [`ForkDevice`] — a page-sparse zero-initialized device with cheap
//!   `Clone`, which every crash-free phase (oracle run, recorded run) of the
//!   harness executes on.
//! * [`ImageLease`] — the dense persisted base image crash-state overlays
//!   borrow, leased all-zero from a process-wide free list instead of
//!   allocated per workload.
//! * [`SharedDev`] / [`Window`] — shared handles and sub-ranges of a device,
//!   used by hybrid file systems (SplitFS) that split one device between a
//!   user-space component and a kernel-component region.

pub mod backend;
pub mod cost;
pub mod cow;
pub mod device;
pub mod fault;
pub mod fork;
pub mod fxmap;
pub mod hash;
pub mod lease;
pub mod shared;
pub mod track;

pub use backend::{PmBackend, CACHE_LINE, WORD};
pub use cost::{fuel_remaining, FuelExhausted, FuelGuard, PmStats, SimCost};
pub use fault::{FaultDevice, FaultPlan, FaultRole};
pub use cow::{CowDevice, UndoMark};
pub use device::{InflightKind, InflightWrite, PmDevice};
pub use fork::ForkDevice;
pub use fxmap::{FxBuildHasher, FxHashMap};
pub use lease::ImageLease;
pub use hash::{byte_term, image_key, run_term, snap_key, span_key, word_term, write_delta, ImageKey};
pub use shared::{SharedDev, Window};
pub use track::{insert_range, ReadTracker};
