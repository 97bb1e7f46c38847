//! Differential witnesses for representative-state checking
//! (`TestConfig::rep_check`): clustering crash states by behavioral
//! signature and checking one representative per class is a pure
//! performance optimization — a sweep with it on must find exactly the
//! same violations, from the same states, as the exhaustive sweep.

use std::collections::HashSet;

use bench::{dispatch, hunt_with_ace, run_batch, run_reference, WithKind};
use chipmunk::{TestConfig, TestOutcome};
use vfs::{
    bugs::bug_table,
    fs::{FsKind, FsOptions},
    BugSet, FsName, Workload,
};
use workloads::fuzz::{FuzzConfig, Fuzzer};

use proptest::prelude::*;

/// The whole injected-bug corpus, hunted with ACE twice per bug —
/// representatives on vs exhaustive — must agree on every observable:
/// found-ness, violation class, the full first report, and the
/// workload/state counts to the find. Zero missed bugs, zero extra bugs.
#[test]
fn corpus_rep_on_vs_off_identical_verdicts() {
    let on = TestConfig { stop_on_first: true, ..TestConfig::default() };
    let off = TestConfig { stop_on_first: true, rep_check: false, ..TestConfig::default() };
    let mut seen_groups = std::collections::BTreeSet::new();
    let mut found = 0u64;
    let mut skipped_total = 0u64;
    for info in bug_table().iter().filter(|b| seen_groups.insert(b.fix_group)) {
        if !info.ace_findable {
            continue;
        }
        let bug = info.id.number();
        let (a, aw, astates) = hunt_with_ace(info.id, &on, 400);
        let (b, bw, bstates) = hunt_with_ace(info.id, &off, 400);
        assert_eq!(a.is_some(), b.is_some(), "bug {bug}: found-ness diverged");
        assert_eq!(aw, bw, "bug {bug}: workloads to the find diverged");
        assert_eq!(astates, bstates, "bug {bug}: crash states diverged");
        if let (Some(a), Some(b)) = (&a, &b) {
            assert_eq!(a.class, b.class, "bug {bug}: violation class diverged");
            assert_eq!(
                format!("{:?}", a.report),
                format!("{:?}", b.report),
                "bug {bug}: first report diverged"
            );
            assert_eq!(a.dedup_hits, b.dedup_hits, "bug {bug}");
            assert_eq!(b.rep_skipped, 0, "bug {bug}: rep off must not skip");
            found += 1;
            skipped_total += a.rep_skipped;
        }
    }
    assert!(found > 0, "the corpus hunt must find bugs");
    assert!(skipped_total > 0, "rep_check must have engaged across the corpus");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The behavioral signature is a checker congruence on *random*
    /// workloads, not just ACE shapes: production with `rep_check` on must
    /// report exactly what the literal reference checker — which mounts and
    /// fully compares every state — reports, from the same crash points and
    /// states.
    #[test]
    fn production_matches_reference_on_random_workloads(seed in any::<u64>()) {
        let mut fz = Fuzzer::new(seed, FuzzConfig::default());
        let ws = vec![fz.next_workload()];
        let cfg = TestConfig::default();
        let (got, want) = dispatch(
            FsName::Nova,
            FsOptions::with_bugs(BugSet::fixed()),
            Both { ws: &ws, cfg: &cfg },
        );
        let (a, b) = (&got[0].0, &want[0].0);
        prop_assert_eq!(a.crash_points, b.crash_points);
        prop_assert_eq!(a.crash_states, b.crash_states);
        prop_assert_eq!(&a.inflight_sizes, &b.inflight_sizes);
        prop_assert_eq!(
            format!("{:?}", a.reports),
            format!("{:?}", b.reports),
            "rep_check changed a verdict on a random workload"
        );
    }
}

/// One batch through production and through the reference, each on its own
/// fresh sinks.
struct Both<'a> {
    ws: &'a [Workload],
    cfg: &'a TestConfig,
}

type Batch = Vec<(TestOutcome, HashSet<u64>)>;

impl WithKind for Both<'_> {
    type Out = (Batch, Batch);

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        let fresh = || kind.with_options(kind.options().with_fresh_sinks());
        (run_batch(&fresh(), self.ws, self.cfg), run_reference(&fresh(), self.ws, self.cfg))
    }
}
