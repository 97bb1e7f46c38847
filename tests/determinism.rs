//! Determinism witnesses for the sharded batch runners.
//!
//! Sharding workloads over `TestConfig::threads` workers must be
//! *observationally identical* to the serial loop: for a fixed seed and
//! workload stream, every report, counter, and stop-on-first winner is
//! byte-identical no matter how many workers the batches are spread over.

use bench::{hunt_with_ace, hunt_with_fuzzer, run_suite, HuntResult, SuiteStats};
use chipmunk::TestConfig;
use vfs::{BugId, BugSet, FsName, Workload};
use workloads::ace::{seq2, AceMode};

const THREADS: [usize; 3] = [1, 2, 8];

fn ace_slice() -> Vec<Workload> {
    // A spread of seq-2 workloads: cheap enough for CI, varied enough to
    // exercise many crash points and subset shapes.
    seq2(AceMode::Strong).step_by(7).take(24).collect()
}

/// Strips the wall-clock field so two [`SuiteStats`] can be compared.
fn suite_fingerprint(s: &SuiteStats) -> (u64, u64, u64, u64, u64, Vec<usize>, String) {
    (
        s.workloads,
        s.crash_points,
        s.crash_states,
        s.dedup_hits,
        s.reports,
        s.inflight.clone(),
        format!("{:?}", s.bug_reports),
    )
}

#[test]
fn ace_suite_is_identical_across_thread_counts() {
    let runs: Vec<SuiteStats> = THREADS
        .iter()
        .map(|&t| {
            let cfg = TestConfig::default().with_threads(t);
            run_suite(FsName::Nova, BugSet::as_released(), ace_slice(), &cfg)
        })
        .collect();
    assert!(runs[0].reports > 0, "the slice must surface at least one violation");
    assert!(!runs[0].bug_reports.is_empty());
    let want = suite_fingerprint(&runs[0]);
    for (t, s) in THREADS.iter().zip(&runs).skip(1) {
        assert_eq!(suite_fingerprint(s), want, "threads={t} diverged from threads=1");
    }
}

/// Strips the wall-clock field so two [`HuntResult`]s can be compared.
fn hunt_fingerprint(h: &Option<HuntResult>) -> Option<(u64, u64, String, String, bool, u64)> {
    h.as_ref().map(|h| {
        (h.workloads, h.states, h.class.clone(), h.detail.clone(), h.traced, h.dedup_hits)
    })
}

#[test]
fn ace_hunt_winner_is_identical_across_thread_counts() {
    let hunts: Vec<_> = THREADS
        .iter()
        .map(|&t| {
            let cfg =
                TestConfig { stop_on_first: true, ..TestConfig::default() }.with_threads(t);
            hunt_with_ace(BugId::B04, &cfg, 0)
        })
        .collect();
    assert!(hunts[0].0.is_some(), "bug 4 must fall to ACE");
    for (t, (h, w, s)) in THREADS.iter().zip(&hunts).skip(1) {
        assert_eq!(hunt_fingerprint(h), hunt_fingerprint(&hunts[0].0), "threads={t}");
        assert_eq!((*w, *s), (hunts[0].1, hunts[0].2), "threads={t}");
    }
}

#[test]
fn seeded_fuzz_campaign_is_identical_across_thread_counts() {
    let hunts: Vec<_> = THREADS
        .iter()
        .map(|&t| {
            let cfg = TestConfig::fuzzing().with_threads(t);
            hunt_with_fuzzer(BugId::B04, &cfg, 0xdecaf, 400)
        })
        .collect();
    assert!(
        hunts[0].0.is_some(),
        "seed 0xdecaf must find bug 4 within 400 workloads (found after {} workloads)",
        hunts[0].1
    );
    for (t, (h, w, s)) in THREADS.iter().zip(&hunts).skip(1) {
        assert_eq!(hunt_fingerprint(h), hunt_fingerprint(&hunts[0].0), "threads={t}");
        assert_eq!((*w, *s), (hunts[0].1, hunts[0].2), "threads={t}");
    }
}
