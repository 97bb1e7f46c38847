//! Allocator regression for the per-workload path: no device-sized buffers.
//!
//! A workload touches a few dozen KiB of a 4 MiB device, so the harness
//! must not allocate (and zero-fill, and fault in) anything proportional to
//! `device_size` per workload: the crash-free phases run on the page-sparse
//! `pmem::ForkDevice`, and the one dense image a workload needs — the
//! persisted base that crash-state overlays borrow — is a `pmem::ImageLease`
//! handed back zeroed and reused. The property this test pins is the one the
//! benchmark's `proc.minor_faults` row measures but cannot assert: once one
//! warm-up workload has populated the free list, every entry point on the
//! per-workload path performs **zero** allocations of `device_size / 4`
//! bytes or more — uncached (`test_workload`, all seven file systems),
//! cached (`PrefixCache::run`, also across a `reset`), single-state
//! (`check_one_state`, the shrinker's and repro replay's primitive) and
//! scheduled (`Scheduler::run` at `threads` 1 and 2, whose per-worker caches
//! re-lease their images every batch from scoped threads that have died).
//!
//! One test function in its own binary: the counting global allocator is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use bench::{dispatch, mode_for, Scheduler, WithKind};
use chipmunk::{check_one_state, test_workload, PrefixCache, TestConfig};
use vfs::{
    fs::{FsKind, FsOptions},
    BugSet, FsName, Workload,
};
use workloads::ace::{seq1, seq2};

/// Allocations at least this large count as device-sized.
const BIG: usize = (4 << 20) / 4;

struct CountingAlloc;

static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if size >= BIG {
        BIG_ALLOCS.fetch_add(1, Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    // `vec![0u8; n]` lands here; the default implementation would turn the
    // system's lazily-zeroed pages into an eager memset.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn big_allocs_during(f: impl FnOnce()) -> u64 {
    let before = BIG_ALLOCS.load(Relaxed);
    f();
    BIG_ALLOCS.load(Relaxed) - before
}

/// The uncached, cached and single-state entry points on one file system.
struct PerWorkload<'a>(&'a TestConfig);

impl WithKind for PerWorkload<'_> {
    type Out = ();

    fn call<K: FsKind>(self, kind: K) {
        let cfg = self.0;
        let fs = kind.name();
        let ws: Vec<Workload> = seq1(mode_for(fs)).into_iter().take(6).collect();

        test_workload(&kind, &ws[0], cfg);
        let n = big_allocs_during(|| {
            for w in &ws[1..] {
                let out = test_workload(&kind, w, cfg);
                assert!(out.reports.is_empty(), "{fs:?} {}: {:#?}", w.name, out.reports);
            }
        });
        assert_eq!(n, 0, "{fs:?}: test_workload made {n} device-sized allocations");

        let mut cache = PrefixCache::new(&kind);
        cache.run(&ws[0], cfg);
        let n = big_allocs_during(|| {
            for w in &ws[1..] {
                cache.run(w, cfg);
            }
            cache.reset();
            cache.run(&ws[0], cfg);
        });
        assert_eq!(n, 0, "{fs:?}: PrefixCache::run made {n} device-sized allocations");
        drop(cache);

        let n = big_allocs_during(|| {
            for w in &ws[1..] {
                // Weak-guarantee workloads without an fsync have no crash
                // point 0; the oracle and record stages ran either way.
                let _ = check_one_state(&kind, w, cfg, 0, &[]);
            }
        });
        assert_eq!(n, 0, "{fs:?}: check_one_state made {n} device-sized allocations");
    }
}

/// Two 64-workload scheduled batches; the second must allocate nothing big.
struct Scheduled<'a>(&'a TestConfig);

impl WithKind for Scheduled<'_> {
    type Out = ();

    fn call<K: FsKind>(self, kind: K) {
        let cfg = self.0;
        let ws: Vec<Workload> = seq2(mode_for(kind.name())).step_by(7).take(128).collect();
        let mut sched = Scheduler::new(&kind, cfg);
        sched.run(&ws[..64], cfg);
        let n = big_allocs_during(|| {
            let results = sched.run(&ws[64..], cfg);
            assert_eq!(results.len(), 64);
        });
        assert_eq!(
            n, 0,
            "threads {}: a scheduled batch made {n} device-sized allocations",
            cfg.threads
        );
    }
}

#[test]
fn per_workload_path_allocates_nothing_device_sized() {
    let cfg = TestConfig::default();
    assert_eq!(cfg.device_size as usize / 4, BIG);
    for fs in [
        FsName::Nova,
        FsName::NovaFortis,
        FsName::Pmfs,
        FsName::WineFs,
        FsName::SplitFs,
        FsName::Ext4Dax,
        FsName::XfsDax,
    ] {
        dispatch(fs, FsOptions::with_bugs(BugSet::fixed()), PerWorkload(&cfg));
    }
    for threads in [1, 2] {
        let cfg = TestConfig { threads, ..TestConfig::default() };
        dispatch(FsName::Nova, FsOptions::with_bugs(BugSet::fixed()), Scheduled(&cfg));
    }
}
