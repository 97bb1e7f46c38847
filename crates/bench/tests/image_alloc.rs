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
//! One test function in its own binary: the shared counting global
//! allocator's largest-request mark is process-wide, so the scheduler's
//! worker threads are measured too.

#[path = "../../pmem/tests/support/counting_alloc.rs"]
mod counting_alloc;

use bench::{dispatch, mode_for, Scheduler, WithKind};
use chipmunk::{check_one_state, test_workload, PrefixCache, TestConfig};
use vfs::{
    fs::{FsKind, FsOptions},
    BugSet, FsName, Workload,
};
use workloads::ace::{seq1, seq2};

/// Allocations at least this large count as device-sized: a span of work
/// made none exactly when its largest request, on any thread, stays below.
const BIG: usize = (4 << 20) / 4;

/// The uncached, cached and single-state entry points on one file system.
struct PerWorkload<'a>(&'a TestConfig);

impl WithKind for PerWorkload<'_> {
    type Out = ();

    fn call<K: FsKind>(self, kind: K) {
        let cfg = self.0;
        let fs = kind.name();
        let ws: Vec<Workload> = seq1(mode_for(fs)).into_iter().take(6).collect();

        test_workload(&kind, &ws[0], cfg);
        let n = counting_alloc::process_max_during(|| {
            for w in &ws[1..] {
                let out = test_workload(&kind, w, cfg);
                assert!(out.reports.is_empty(), "{fs:?} {}: {:#?}", w.name, out.reports);
            }
        });
        assert!(n < BIG, "{fs:?}: test_workload made a device-sized allocation of {n} bytes");

        let mut cache = PrefixCache::new(&kind);
        cache.run(&ws[0], cfg);
        let n = counting_alloc::process_max_during(|| {
            for w in &ws[1..] {
                cache.run(w, cfg);
            }
            cache.reset();
            cache.run(&ws[0], cfg);
        });
        assert!(n < BIG, "{fs:?}: PrefixCache::run made a device-sized allocation of {n} bytes");
        drop(cache);

        let n = counting_alloc::process_max_during(|| {
            for w in &ws[1..] {
                // Weak-guarantee workloads without an fsync have no crash
                // point 0; the oracle and record stages ran either way.
                let _ = check_one_state(&kind, w, cfg, 0, &[]);
            }
        });
        assert!(n < BIG, "{fs:?}: check_one_state made a device-sized allocation of {n} bytes");
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
        let n = counting_alloc::process_max_during(|| {
            let results = sched.run(&ws[64..], cfg);
            assert_eq!(results.len(), 64);
        });
        assert!(
            n < BIG,
            "threads {}: a scheduled batch made a device-sized allocation of {n} bytes",
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
