//! The differential witness for the production pipeline: every fast path it
//! composes (in-point dedup, cross-point memo, representative classes, read
//! footprints, delta replay, scoped walks, the shared oracle, the prefix
//! cache and the subtree scheduler) is a pure performance layer, so at every
//! thread count production must report exactly what the literal reference
//! checker (`chipmunk::reference`) reports — and its own counters must not
//! depend on the thread count.

use bench::{dispatch, plan_subtrees, run_batch_cached, run_reference, Scheduler, WithKind};
use chipmunk::{TestConfig, TestOutcome};
use vfs::{
    fs::{FsKind, FsOptions},
    BugSet, FsName, Workload,
};
use workloads::ace::{seq1, seq2, AceMode};

use proptest::prelude::*;

/// What was checked and what was found: the fields production and the
/// reference must agree on byte for byte.
fn semantic(o: &TestOutcome) -> String {
    format!(
        "{:?}|{}|{}|{:?}|{:?}",
        o.reports, o.crash_points, o.crash_states, o.inflight_sizes, o.traced_bugs
    )
}

/// Every deterministic fast-path counter; a pure function of the batch and
/// the config, never of `threads`.
fn counters(o: &TestOutcome) -> [u64; 15] {
    [
        o.dedup_hits,
        o.memo_hits,
        o.rep_classes,
        o.rep_skipped,
        o.rep_expansions,
        o.prefix_hits,
        o.prefix_ops_saved,
        o.sched_subtrees,
        o.sched_subtree_max_depth,
        o.recovery_panics,
        o.recovery_hangs,
        o.sandbox_retries,
        o.fuel_exhausted,
        o.oracle_subtrees_pruned,
        o.oracle_snap_bytes_shared,
    ]
}

struct Witness {
    suite: &'static str,
    ws: Vec<Workload>,
}

impl WithKind for Witness {
    /// Per `rep_check` setting (on, off), the production counters summed
    /// over the suite.
    type Out = [[u64; 15]; 2];

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        let fresh = || kind.with_options(kind.options().with_fresh_sinks());
        // The reference ignores `rep_check` and `threads`: one run serves
        // every cell.
        let want = run_reference(&fresh(), &self.ws, &TestConfig::default());
        let mut sums = [[0u64; 15]; 2];
        for (ri, rep_check) in [true, false].into_iter().enumerate() {
            let mut first: Option<Vec<[u64; 15]>> = None;
            for threads in [1usize, 2, 4, 8] {
                let cell = format!("{} rep_check={rep_check} threads={threads}", self.suite);
                let cfg = TestConfig { rep_check, ..TestConfig::default().with_threads(threads) };
                let prod = fresh();
                let mut sched = Scheduler::new(&prod, &cfg);
                let got = run_batch_cached(&prod, &self.ws, &cfg, Some(&mut sched));
                assert_eq!(got.len(), want.len(), "{cell}");
                for (w, ((a, cov_a), (b, cov_b))) in self.ws.iter().zip(got.iter().zip(&want)) {
                    assert_eq!(semantic(a), semantic(b), "{cell}: {} diverged", w.name);
                    // A representative skip never mounts, so coverage is
                    // only comparable when every state is checked.
                    if !rep_check {
                        assert_eq!(cov_a, cov_b, "{cell}: coverage diverged on {}", w.name);
                    }
                }
                let mine: Vec<_> = got.iter().map(|(o, _)| counters(o)).collect();
                match &first {
                    None => first = Some(mine),
                    Some(f) => assert_eq!(&mine, f, "{cell}: counters depend on threads"),
                }
            }
            for c in first.expect("thread axis is non-empty") {
                for (sum, v) in sums[ri].iter_mut().zip(c) {
                    *sum += v;
                }
            }
        }
        sums
    }
}

fn witness(suite: &'static str, bugs: BugSet, ws: Vec<Workload>) -> [[u64; 15]; 2] {
    dispatch(FsName::Nova, FsOptions::with_bugs(bugs), Witness { suite, ws })
}

/// Full ACE seq-1 on NOVA with the fixed-bug corpus, a write-led seq-2
/// slice, and a seq-2 spread on as-released (buggy) NOVA: `{threads 1, 2, 4,
/// 8} × {rep_check on, off}` production runs, each equal to the one
/// reference run.
#[test]
fn production_matches_reference_at_every_thread_count() {
    let [on, off] = witness("seq-1", BugSet::fixed(), seq1(AceMode::Strong));
    // Vacuity guards: each layer must actually have engaged. Indices follow
    // `counters`.
    assert!(on[0] > 0 && off[0] > 0, "in-point dedup must engage");
    assert!(off[1] > 0, "the cross-point memo must engage");
    assert!(on[2] > 0 && on[3] > 0, "representative classes must form and skip");
    assert_eq!(off[2..5], [0, 0, 0], "rep_check off must leave its counters at zero");
    assert!(on[5] > 0 && on[6] > 0, "the prefix cache must engage");
    assert!(on[7] > 0, "the scheduler must have partitioned the suite");

    // Write-led seq-2 pairs, not seq-1: oracle sharing needs a snapshot
    // advance across an op that leaves some earlier file's *data*
    // untouched. One-op workloads never have one, and the creat-led pairs
    // at the head of seq-2 only ever hold empty files. Pair index 15*56
    // starts the (write, op_j) block.
    let slice = seq2(AceMode::Strong).skip(15 * 56).take(16).collect();
    for s in witness("seq-2", BugSet::fixed(), slice) {
        assert!(s[13] > 0, "hash pruning must engage");
        assert!(s[14] > 0, "snapshot sharing must engage");
    }

    // The fast paths must also agree with the reference where there are
    // violations to report (hundreds, on the as-released bug set): every
    // report byte for byte, so no layer replays, skips or prunes a verdict
    // it should not.
    let spread = seq2(AceMode::Strong).step_by(7).take(24).collect();
    let [on, _] = witness("seq-2 as-released", BugSet::as_released(), spread);
    assert!(on[0] > 0, "coalesced subsets should collide often");
    assert!(on[4] > 0, "violated classes must expand");
}

/// The scheduler's worker-count rule, `min(threads, subtrees)` and at least
/// one, seen through `Scheduler::run`: threads beyond the subtree count add
/// no worker slot and change no outcome.
#[test]
fn scheduler_uses_one_worker_per_subtree_at_most() {
    use vfs::Op;
    let kind = novafs::NovaKind { opts: FsOptions::default(), fortis: false };
    let mkdir = |p: &str| Op::Mkdir { path: p.into() };
    let creat = |p: &str| Op::Creat { path: p.into() };
    // Two subtrees: `creat /x` (one member), then `mkdir /A` (two members).
    let batch = vec![
        Workload::new("a0", vec![mkdir("/A"), creat("/A/f")]),
        Workload::new("x0", vec![creat("/x"), Op::Rename { old: "/x".into(), new: "/y".into() }]),
        Workload::new("a1", vec![mkdir("/A"), mkdir("/A/d")]),
    ];
    let run = |threads: usize, batch: &[Workload]| {
        let cfg = TestConfig { threads, ..TestConfig::default() };
        let mut sched = Scheduler::new(&kind, &cfg);
        let outs: Vec<_> = sched
            .run(batch, &cfg)
            .into_iter()
            .map(|(o, cov, trace)| {
                let mut cov: Vec<u64> = cov.into_iter().collect();
                cov.sort_unstable();
                (semantic(&o), counters(&o), cov, trace)
            })
            .collect();
        (outs, sched.subtrees, sched.per_worker_hits)
    };
    let (serial, subtrees, hits1) = run(1, &batch);
    assert_eq!((serial.len(), subtrees, hits1), (3, 2, vec![3]));
    let (wide, _, hits8) = run(8, &batch);
    assert_eq!(wide, serial, "outcomes depend on threads");
    assert_eq!(hits8, vec![1, 2], "one worker per subtree, none for the spare threads");
    let (zero, _, hits0) = run(0, &batch);
    assert_eq!((zero, hits0), (serial, vec![3]), "threads = 0 runs like 1");
    for threads in [0, 1, 8] {
        let (outs, subtrees, hits) = run(threads, &[]);
        assert!(outs.is_empty());
        assert_eq!((subtrees, hits), (0, vec![0]), "an empty batch is harmless");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Subtree planning is a true partition: every batch index appears in
    /// exactly one group.
    #[test]
    fn subtree_plan_is_a_partition(
        keys in proptest::collection::vec(
            proptest::collection::vec((0u8..6).prop_map(|b| format!("op{b}")), 0..5),
            0..24,
        )
    ) {
        let plan = plan_subtrees(&keys);
        let mut seen = vec![false; keys.len()];
        for g in &plan.groups {
            prop_assert!(!g.is_empty(), "no empty groups");
            for &i in g {
                prop_assert!(i < keys.len());
                prop_assert!(!seen[i], "index {i} assigned twice");
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every workload assigned");
        // Workloads sharing a group share their first op; distinct groups
        // have distinct roots.
        for g in &plan.groups {
            for &i in g {
                prop_assert_eq!(keys[i].first(), keys[g[0]].first());
            }
        }
        let roots: Vec<_> = plan.groups.iter().map(|g| keys[g[0]].first()).collect();
        let mut dedup = roots.clone();
        dedup.dedup();
        prop_assert_eq!(roots, dedup);
    }

    /// Planning is invariant under permutation of the batch input order:
    /// the same key multiset always yields the same groups-of-keys, whatever
    /// order the workloads arrived in.
    #[test]
    fn subtree_plan_is_permutation_invariant(
        keys in proptest::collection::vec(
            proptest::collection::vec((0u8..4).prop_map(|b| format!("op{b}")), 0..4),
            0..16,
        ),
        seed in any::<u64>(),
    ) {
        // Deterministic Fisher–Yates from the seed.
        let mut perm: Vec<usize> = (0..keys.len()).collect();
        let mut state = seed | 1;
        for i in (1..perm.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        let shuffled: Vec<Vec<String>> = perm.iter().map(|&i| keys[i].clone()).collect();
        let to_keys = |p: &bench::SubtreePlan, ks: &[Vec<String>]| -> Vec<Vec<Vec<String>>> {
            p.groups.iter().map(|g| g.iter().map(|&i| ks[i].clone()).collect()).collect()
        };
        let a = plan_subtrees(&keys);
        let b = plan_subtrees(&shuffled);
        prop_assert_eq!(to_keys(&a, &keys), to_keys(&b, &shuffled));
        prop_assert_eq!(a.max_depth, b.max_depth);
    }
}
