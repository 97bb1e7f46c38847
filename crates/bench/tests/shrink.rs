//! Soundness and monotonicity of the delta-debugging shrinker
//! (`chipmunk::shrink`), across random fuzzer workloads on the injected-bug
//! corpus:
//!
//! * **sound** — the shrunk pair still triggers a violation of the same
//!   class (and stage);
//! * **monotone** — the shrunk ops are a subsequence of the original ops,
//!   and the shrunk crash subset is a subset of the one the minimized
//!   workload's first matching report carries.

use bench::{dispatch, WithKind};
use chipmunk::{shrink, shrink::matches_class, test_workload, TestConfig};
use proptest::prelude::*;
use vfs::{
    fs::{FsKind, FsOptions},
    BugId, BugSet,
};
use workloads::fuzz::{FuzzConfig, Fuzzer};

/// Is `small` a subsequence of `big`?
fn subsequence<T: PartialEq>(small: &[T], big: &[T]) -> bool {
    let mut it = big.iter();
    small.iter().all(|x| it.any(|y| y == x))
}

struct ShrinkCase {
    seed: u64,
    budget: usize,
}

impl WithKind for ShrinkCase {
    /// `Some(original op count)` when a find was shrunk, `None` otherwise.
    type Out = Option<usize>;

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        // Large-first subsets so the find carries a non-minimal crash
        // subset whenever the bug admits one — real work for pass 2.
        let cfg = TestConfig { large_first_subsets: true, ..TestConfig::fuzzing() };
        let mut fuzzer = Fuzzer::new(self.seed, FuzzConfig::default());
        for _ in 0..self.budget {
            let w = fuzzer.next_workload();
            let out = test_workload(&kind, &w, &cfg);
            let Some(r) = out.reports.first() else { continue };

            let s = shrink(&kind, &w, r, &cfg).expect("finding must shrink");
            // Sound: same violation class and stage.
            assert_eq!(s.report.violation.class(), r.violation.class(), "{}", w.name);
            assert_eq!(s.report.violation.stage(), r.violation.stage(), "{}", w.name);
            // Monotone in the ops: a subsequence, never longer.
            assert!(subsequence(&s.workload.ops, &w.ops), "{}", w.name);
            assert_eq!(s.stats.ops_before, w.ops.len());
            assert_eq!(s.stats.ops_after, s.workload.ops.len());
            assert!(s.stats.ops_after <= s.stats.ops_before);
            assert!(s.stats.subset_after <= s.stats.subset_before);

            // Monotone in the subset: re-check the minimized workload; its
            // first report of the preserved class is the state pass 2
            // started from, so the shrunk subset must be contained in it.
            let confirm = test_workload(&kind, &s.workload, &cfg);
            let base = confirm
                .reports
                .iter()
                .find(|b| matches_class(r.violation.class(), r.violation.stage(), &b.violation))
                .expect("minimized workload still reproduces");
            assert_eq!(base.point, s.report.point, "{}", w.name);
            assert!(
                s.report.subset_ids.iter().all(|i| base.subset_ids.contains(i)),
                "{}: shrunk subset {:?} not within base {:?}",
                w.name,
                s.report.subset_ids,
                base.subset_ids
            );

            return Some(w.ops.len());
        }
        None
    }
}

fn run_case(bug: BugId, seed: u64, budget: usize) -> Option<usize> {
    let opts = FsOptions::with_bugs(BugSet::only(&[bug]));
    dispatch(bug.info().fs, opts, ShrinkCase { seed, budget })
}

/// Deterministic corpus sweep: every injected bug gets a short fuzzing
/// budget; every find must shrink soundly and monotonically, and enough of
/// the corpus must actually fall for the sweep to mean something.
#[test]
fn corpus_sweep_shrinks_soundly() {
    let mut found = 0;
    for (i, &bug) in BugId::ALL.iter().enumerate() {
        if run_case(bug, 0xdd + i as u64, 24).is_some() {
            found += 1;
        }
    }
    assert!(found >= 5, "only {found} of 25 bugs fell within budget");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random (bug, seed) pairs: whatever the fuzzer finds, shrinking is
    /// sound and monotone (both asserted inside the case).
    #[test]
    fn random_finds_shrink_soundly(bug_idx in 0usize..25, seed in 1u64..1 << 48) {
        run_case(BugId::ALL[bug_idx], seed, 12);
    }
}

/// A guaranteed non-vacuous case: bug 4 falls to a handful of fuzz
/// workloads, so this pins at least one real shrink into every test run
/// independent of the sweep's budgets.
#[test]
fn bug4_always_yields_a_shrink() {
    let ops_before = run_case(BugId::B04, 0xf16 + 4, 48).expect("bug 4 must fall");
    assert!(ops_before >= 1);
}
