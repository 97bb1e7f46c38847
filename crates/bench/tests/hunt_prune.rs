//! Differential witnesses for stopping an ACE hunt at its find
//! (`Scheduler::run_to_find`): a hunt that skips the lookahead window past
//! the first report must commit exactly what a hunt that runs every window
//! in full commits — the same find and the same counters, prefix counters
//! included — at any thread count.

use std::time::Duration;

use bench::{
    dispatch, hunt_with_ace, mode_for, run_batch_cached, sched_batch_len, HuntResult, PhaseTotals,
    Scheduler, WithKind, WorkloadResult,
};
use chipmunk::{TestConfig, TestOutcome};
use novafs::NovaKind;
use vfs::{
    bugs::bug_table,
    fs::{FsKind, FsOptions},
    BugId, BugSet, Op, Workload,
};
use workloads::{seq1, seq2, seq3_metadata, AceMode};

const MAX_SEQ3: usize = 400;

/// The hunt loop before it stopped at the find: every 64-workload window
/// runs in full through `Scheduler::run` (via `run_batch_cached`), and the
/// results are committed in batch order up to the first report.
struct FullWindowHunt<'a> {
    bug: BugId,
    cfg: &'a TestConfig,
}

impl WithKind for FullWindowHunt<'_> {
    type Out = Option<HuntResult>;

    fn call<K: FsKind>(self, kind: K) -> Option<HuntResult> {
        let mode = mode_for(kind.name());
        let seq3: Box<dyn Iterator<Item = Workload>> = if mode == AceMode::Strong {
            Box::new(seq3_metadata().step_by(37).take(MAX_SEQ3))
        } else {
            Box::new(std::iter::empty())
        };
        let mut stream = seq1(mode).into_iter().chain(seq2(mode)).chain(seq3);
        let mut sched = Scheduler::new(&kind, self.cfg);
        let batch_len = sched_batch_len(self.cfg.threads, sched.is_active(), None);
        let mut committed: Vec<TestOutcome> = Vec::new();
        loop {
            let batch: Vec<Workload> = stream.by_ref().take(batch_len).collect();
            if batch.is_empty() {
                return None;
            }
            for (w, (out, _cov)) in
                batch.iter().zip(run_batch_cached(&kind, &batch, self.cfg, Some(&mut sched)))
            {
                committed.push(out);
                let out = committed.last().expect("just pushed");
                if let Some(r) = out.reports.first() {
                    let sum = |f: fn(&TestOutcome) -> u64| committed.iter().map(f).sum::<u64>();
                    return Some(HuntResult {
                        elapsed: Duration::ZERO,
                        workloads: committed.len() as u64,
                        states: sum(|o| o.crash_states),
                        class: r.violation.class().to_string(),
                        detail: format!("{} @ {}", r.op_desc, r.violation.detail()),
                        workload: w.clone(),
                        report: r.clone(),
                        traced: out.traced_bugs.contains(&self.bug),
                        dedup_hits: sum(|o| o.dedup_hits),
                        memo_hits: sum(|o| o.memo_hits),
                        rep_classes: sum(|o| o.rep_classes),
                        rep_skipped: sum(|o| o.rep_skipped),
                        rep_expansions: sum(|o| o.rep_expansions),
                        prefix_hits: sum(|o| o.prefix_hits),
                        prefix_ops_saved: sum(|o| o.prefix_ops_saved),
                        sched_subtrees: sum(|o| o.sched_subtrees),
                        sched_subtree_max_depth: committed
                            .iter()
                            .map(|o| o.sched_subtree_max_depth)
                            .max()
                            .unwrap_or(0),
                        per_worker_prefix_hits: sched.per_worker_hits,
                        recovery_panics: sum(|o| o.recovery_panics),
                        recovery_hangs: sum(|o| o.recovery_hangs),
                        sandbox_retries: sum(|o| o.sandbox_retries),
                        fuel_exhausted: sum(|o| o.fuel_exhausted),
                        oracle_subtrees_pruned: sum(|o| o.oracle_subtrees_pruned),
                        oracle_snap_bytes_shared: sum(|o| o.oracle_snap_bytes_shared),
                        phase: PhaseTotals::default(),
                    });
                }
            }
        }
    }
}

/// Every field but the host-dependent ones (`elapsed`, `phase`) and the
/// schedule-dependent `per_worker_prefix_hits`.
fn committed_fields(h: &HuntResult) -> String {
    let mut h = h.clone();
    h.elapsed = Duration::ZERO;
    h.phase = PhaseTotals::default();
    h.per_worker_prefix_hits.clear();
    format!("{h:?}")
}

/// Every ACE-findable corpus bug, at threads 1, 2 and 4: the hunt that
/// stops at the find commits exactly what the full-window hunt commits,
/// and its per-worker prefix hits now sum to `prefix_hits` (the full-window
/// hunt's also count the discarded speculative runs).
#[test]
fn stopping_at_the_find_commits_what_full_windows_commit() {
    let mut speculated = 0u64;
    for info in bug_table().iter().filter(|b| b.ace_findable) {
        let bug = info.id.number();
        for threads in [1usize, 2, 4] {
            let cfg =
                TestConfig { stop_on_first: true, ..TestConfig::default() }.with_threads(threads);
            let (hit, workloads, states) = hunt_with_ace(info.id, &cfg, MAX_SEQ3);
            let opts = FsOptions::with_bugs(BugSet::only(&[info.id]));
            let want = dispatch(info.fs, opts, FullWindowHunt { bug: info.id, cfg: &cfg });
            let (hit, want) = (
                hit.unwrap_or_else(|| panic!("bug {bug}, threads {threads}: not found")),
                want.unwrap_or_else(|| {
                    panic!("bug {bug}, threads {threads}: reference did not find")
                }),
            );
            assert_eq!(
                committed_fields(&hit),
                committed_fields(&want),
                "bug {bug}, threads {threads}"
            );
            assert_eq!(
                (workloads, states),
                (want.workloads, want.states),
                "bug {bug}, threads {threads}"
            );
            assert_eq!(
                hit.per_worker_prefix_hits.iter().sum::<u64>(),
                hit.prefix_hits,
                "bug {bug}, threads {threads}: per-worker hits must count committed runs only"
            );
            let full: u64 = want.per_worker_prefix_hits.iter().sum();
            assert!(full >= hit.prefix_hits, "bug {bug}, threads {threads}");
            speculated += full - hit.prefix_hits;
        }
    }
    assert!(speculated > 0, "some hunt must have had a window past its find");
}

fn creat(p: &str) -> Op {
    Op::Creat { path: p.into() }
}

fn mkdir(p: &str) -> Op {
    Op::Mkdir { path: p.into() }
}

/// A result with its wall times zeroed, coverage sorted.
fn fingerprint((out, cov, trace): &WorkloadResult) -> String {
    let mut out = out.clone();
    out.timing = Default::default();
    let mut cov: Vec<u64> = cov.iter().copied().collect();
    cov.sort_unstable();
    format!("{out:?}|{cov:?}|{trace:?}")
}

/// A hand-built window on as-released bug 4 (NOVA rename atomicity). In
/// op-lexicographic order the `creat(/foo)` subtree runs `find`, then
/// `skipped`, then `committed`; in batch order `committed` comes first, so
/// it is committed while `skipped` lies past the find. `skipped` shares
/// three ops with `committed` and `find` only one, so `committed` resumes at
/// depth 3 only if the skipped member still advanced the worker's cache.
#[test]
fn skipped_member_still_advances_the_cache_for_a_later_committed_one() {
    let unlink = Op::Unlink { path: "/foo".into() };
    let committed =
        Workload::new("committed", vec![creat("/foo"), unlink.clone(), mkdir("/A"), mkdir("/A/y")]);
    let find = Workload::new(
        "find",
        vec![creat("/foo"), Op::Rename { old: "/foo".into(), new: "/bar".into() }],
    );
    let skipped = Workload::new("skipped", vec![creat("/foo"), unlink, mkdir("/A"), mkdir("/A/x")]);
    let other_subtree = Workload::new("other", vec![mkdir("/B"), creat("/B/f")]);
    let batch = vec![committed, find, skipped, other_subtree];
    let kind = NovaKind { opts: FsOptions::with_bugs(BugSet::only(&[BugId::B04])), fortis: false };
    for threads in [1usize, 2, 4] {
        let cfg = TestConfig { stop_on_first: true, ..TestConfig::default() }.with_threads(threads);
        let full = Scheduler::new(&kind, &cfg).run(&batch, &cfg);
        let mut sched = Scheduler::new(&kind, &cfg);
        let got = sched.run_to_find(&batch, &cfg);
        assert!(full[0].0.reports.is_empty(), "`committed` must stay clean");
        assert!(!full[1].0.reports.is_empty(), "`find` must report bug 4");
        assert_eq!(got.len(), 2, "threads {threads}: results end at the find");
        assert_eq!(got[0].0.prefix_ops_saved, 2 * 3, "threads {threads}: resumed at depth 3");
        for (i, (g, f)) in got.iter().zip(&full).enumerate() {
            assert_eq!(fingerprint(g), fingerprint(f), "threads {threads}, item {i}");
        }
        assert_eq!(
            sched.per_worker_hits.iter().sum::<u64>(),
            got.iter().map(|r| r.0.prefix_hits).sum::<u64>(),
            "threads {threads}"
        );
    }
}
