#![warn(missing_docs)]

//! Shared machinery for the evaluation harnesses: the batch runners, the
//! single-bug hunts, the campaign store and the JSON layer behind the
//! `chipmunk` binary's subcommands (one per paper table/figure — see
//! DESIGN.md §4 for the index).

use std::{
    collections::HashSet,
    time::{Duration, Instant},
};

use chipmunk::{reference, test_on_fresh_sinks, BugReport, TestConfig, TestOutcome};
use ext4dax::Ext4DaxKind;
use novafs::NovaKind;
use pmfs::PmfsKind;
use splitfs::SplitFsKind;
use vfs::{
    fs::{FsKind, FsOptions},
    BugId, BugSet, Cov, FsName, Workload,
};
use winefs::WineFsKind;
use xfsdax::XfsDaxKind;
use workloads::{
    ace::{seq1, seq2, seq3_metadata, AceMode},
    fuzz::{FuzzConfig, Fuzzer},
};

pub mod campaign;
pub mod jsonout;
pub mod repro;
pub mod sched;

pub use repro::{shrink_to_bundle, ReplayOutcome, ReproBundle};
pub use sched::{plan_subtrees, Scheduler, SubtreePlan, WorkloadResult};

/// Rank-2 helper: run a generic closure against the `FsKind` for a given
/// file system (the kinds are distinct types, so plain closures cannot be
/// generic over them).
pub trait WithKind {
    /// The result type.
    type Out;
    /// Invoked with the concrete kind.
    fn call<K: FsKind>(self, kind: K) -> Self::Out;
}

/// Dispatches `w` to the concrete [`FsKind`] for `fs` built from `opts`.
pub fn dispatch<W: WithKind>(fs: FsName, opts: FsOptions, w: W) -> W::Out {
    match fs {
        FsName::Nova => w.call(NovaKind { opts, fortis: false }),
        FsName::NovaFortis => w.call(NovaKind { opts, fortis: true }),
        FsName::Pmfs => w.call(PmfsKind { opts }),
        FsName::WineFs => w.call(WineFsKind { opts, strict: true }),
        FsName::SplitFs => w.call(SplitFsKind { opts }),
        FsName::Ext4Dax => w.call(Ext4DaxKind::new(opts)),
        FsName::XfsDax => w.call(XfsDaxKind::new(opts)),
    }
}

/// The ACE mode appropriate for a file system.
pub fn mode_for(fs: FsName) -> AceMode {
    if matches!(fs, FsName::Ext4Dax | FsName::XfsDax) {
        AceMode::Weak
    } else {
        AceMode::Strong
    }
}

/// Runs a batch of workloads through [`test_on_fresh_sinks`] across
/// `cfg.threads` workers, returning `(outcome, per-workload coverage)`
/// pairs **in batch order** — byte-identical to what a serial loop over the
/// same batch would produce. This is [`sched::run_shards`] over contiguous
/// chunks of the batch with no per-worker state: a workload is checked
/// entirely on its worker's thread, a call never runs more than
/// `cfg.threads` threads, and a panic escaping one workload's run fails that
/// workload only (see the `sched` module docs).
///
/// Each workload is tested on fresh coverage/trace sinks, so workers never
/// race on shared instrumentation; the results are then [`commit`]ted to
/// `kind`'s shared sinks in batch order — reproducing exactly the
/// cumulative semantics of a serial run on a shared sink.
pub fn run_batch<K: FsKind>(
    kind: &K,
    batch: &[Workload],
    cfg: &TestConfig,
) -> Vec<(TestOutcome, HashSet<u64>)> {
    let per = batch.len().div_ceil(cfg.threads.max(1)).max(1);
    let indices: Vec<usize> = (0..batch.len()).collect();
    let shards: Vec<Vec<usize>> = indices.chunks(per).map(<[usize]>::to_vec).collect();
    let mut no_state = vec![(); shards.len()];
    let test = |_: &mut (), w: &Workload| test_on_fresh_sinks(kind, w, cfg);
    sched::run_shards(batch, &shards, &mut no_state, None, test, |_, _, _| {})
        .into_iter()
        .map(|r| commit(kind, r))
        .collect()
}

/// Commits one workload's result to `kind`'s shared sinks: absorbs its
/// private coverage and trace, then re-snapshots `traced_bugs` from the
/// shared trace. Every batch runner calls this once per workload, in batch
/// order, whatever order the workloads ran in.
fn commit<K: FsKind>(
    kind: &K,
    (mut out, cov, trace): WorkloadResult,
) -> (TestOutcome, HashSet<u64>) {
    kind.options().cov.absorb(&cov);
    kind.options().trace.absorb(&trace);
    out.traced_bugs = kind.options().trace.snapshot();
    (out, cov)
}

/// [`run_batch`]'s shape for the literal reference checker
/// ([`chipmunk::reference`]): serial, every workload on a fresh-sink factory
/// clone, results [`commit`]ted in batch order — so a production batch and a
/// reference batch compare element by element.
pub fn run_reference<K: FsKind>(
    kind: &K,
    batch: &[Workload],
    cfg: &TestConfig,
) -> Vec<(TestOutcome, HashSet<u64>)> {
    batch
        .iter()
        .map(|w| {
            let fresh = kind.with_options(kind.options().with_fresh_sinks());
            let out = reference::check_workload(&fresh, w, cfg);
            let (cov, trace) = (fresh.options().cov.snapshot(), fresh.options().trace.snapshot());
            commit(kind, (out, cov, trace))
        })
        .collect()
}

/// [`run_batch`] with an optional prefix-tree scheduler: when the scheduler
/// is live, workloads are *executed* grouped by prefix subtree, each group
/// op-lexicographically sorted (adjacent workloads then share the longest op
/// prefixes, which is what each worker's cache exploits — ACE emits
/// dependency-setup ops first, so sorted neighbours typically share their
/// whole setup) while results are still *committed* in batch order. With
/// `cfg.threads > 1` whole subtrees run on parallel workers (see
/// [`Scheduler`]). Without a live scheduler (none passed, or a kind that
/// cannot fork) the plain sharded [`run_batch`] path is used. Per-workload
/// outputs are pure functions of the workload, so the returned vector is
/// byte-identical to [`run_batch`]'s for every thread count.
pub fn run_batch_cached<K: FsKind>(
    kind: &K,
    batch: &[Workload],
    cfg: &TestConfig,
    sched: Option<&mut Scheduler<K>>,
) -> Vec<(TestOutcome, HashSet<u64>)> {
    let sched = match sched {
        Some(s) if s.is_active() => s,
        _ => return run_batch(kind, batch, cfg),
    };
    sched.run(batch, cfg).into_iter().map(|r| commit(kind, r)).collect()
}

/// The one batch-sizing rule for the scheduled batch runners (the ACE hunt
/// stream loop and the suite runner used to each have their own).
///
/// * `total = Some(n)`: the whole workload set is known up front (suites) —
///   schedule it as a single batch; the scheduler partitions it internally,
///   so pre-chunking would only cut subtrees and cost prefix reuse.
/// * `total = None`, cache active: a fixed 64-workload lookahead window,
///   independent of the thread count so batch boundaries (and with them all
///   prefix counters) are identical for every `threads` value.
/// * `total = None`, cache inactive: `threads * 2`, just enough lookahead to
///   keep the sharded [`run_batch`] workers busy without over-speculating
///   past a stop-on-first winner. The ACE hunt does not get this window: it
///   sizes its window once, before the first batch, and a cache only finds
///   out that its kind cannot fork on first use — so a SplitFS hunt's
///   windows are 64 wide too (its first window goes through the scheduler,
///   whose caches disable themselves, and is counted in `sched_subtrees`).
pub fn sched_batch_len(threads: usize, cache_active: bool, total: Option<usize>) -> usize {
    let threads = threads.max(1);
    match total {
        Some(n) => n.max(1),
        None if cache_active => 64,
        None => threads * 2,
    }
}

/// Result of hunting one bug with one frontend.
#[derive(Debug, Clone)]
pub struct HuntResult {
    /// Wall time until the first violation (measured with `Instant`).
    pub elapsed: Duration,
    /// Workloads committed, in stream order, up to and including the one
    /// that reported. Workloads run speculatively past it are not counted.
    pub workloads: u64,
    /// Crash states checked until then.
    pub states: u64,
    /// The first report's violation class.
    pub class: String,
    /// The first report's one-line description.
    pub detail: String,
    /// The workload that triggered the find (input to shrinking and repro
    /// bundles).
    pub workload: Workload,
    /// The full first report.
    pub report: chipmunk::BugReport,
    /// Whether the injected bug's code path was traced during the finding
    /// run (ground-truth attribution).
    pub traced: bool,
    /// Crash states served from the dedup cache until the find.
    pub dedup_hits: u64,
    /// Crash states that reused cross-point artifacts until the find.
    pub memo_hits: u64,
    /// Behavioral classes claimed by a representative state until the find
    /// (see `TestConfig::rep_check`).
    pub rep_classes: u64,
    /// Crash states skipped because their class representative already
    /// checked clean, until the find.
    pub rep_skipped: u64,
    /// Crash states checked because their class representative reported a
    /// violation (class expansion), until the find.
    pub rep_expansions: u64,
    /// Workloads resumed from a cached execution prefix until the find.
    pub prefix_hits: u64,
    /// Oracle + record operations skipped by prefix resumes until the find.
    pub prefix_ops_saved: u64,
    /// Prefix subtrees the scheduler partitioned the batches into (summed
    /// over batches; thread-count-invariant).
    pub sched_subtrees: u64,
    /// Deepest within-subtree shared op prefix seen in any batch.
    pub sched_subtree_max_depth: u64,
    /// Cumulative `prefix_hits` per scheduler worker slot over the
    /// committed workloads, so for an ACE hunt it sums to `prefix_hits`.
    /// Describes the schedule, so (unlike every other field) it varies with
    /// the thread count. Empty when the scheduler never engaged.
    pub per_worker_prefix_hits: Vec<u64>,
    /// Checker-stage panics converted into `recovery-panic` findings until
    /// the find (see `chipmunk::sandbox`).
    pub recovery_panics: u64,
    /// Fuel-watchdog hangs converted into `recovery-hang` findings until
    /// the find.
    pub recovery_hangs: u64,
    /// Sandbox findings re-checked on the slow fresh-device path before
    /// being reported.
    pub sandbox_retries: u64,
    /// Crash states whose committed verdict involved an exhausted fuel
    /// budget.
    pub fuel_exhausted: u64,
    /// Oracle-diff node comparisons skipped by the shared-oracle hash fast
    /// path until the find (see `TestConfig::shared_oracle`).
    pub oracle_subtrees_pruned: u64,
    /// File-data bytes oracle snapshots shared with their predecessor
    /// instead of re-copying, until the find.
    pub oracle_snap_bytes_shared: u64,
    /// Cumulative per-phase wall time over the committed workloads.
    pub phase: PhaseTotals,
}

/// Summed per-phase wall times across a set of workload runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotals {
    /// Stage 1: crash-free oracle runs.
    pub oracle: Duration,
    /// Stage 2: recorded runs through the write logger.
    pub record: Duration,
    /// Stage 3: crash-state construction and checking.
    pub check: Duration,
}

impl PhaseTotals {
    /// Adds one workload's timings.
    pub fn add(&mut self, t: &chipmunk::PhaseTimings) {
        self.oracle += t.oracle;
        self.record += t.record;
        self.check += t.check;
    }
}

/// `(the find, workloads examined, crash states examined)`.
type HuntOut = (Option<HuntResult>, u64, u64);

/// A hunt that ended at `r`, the first report of `out` — the outcome of
/// `w`, the last one added to `sum`.
fn hunt_found(
    sum: SuiteStats,
    start: Instant,
    bug: BugId,
    w: &Workload,
    out: &TestOutcome,
    r: &BugReport,
) -> HuntOut {
    let (workloads, states) = (sum.workloads, sum.crash_states);
    let find = HuntResult {
        elapsed: start.elapsed(),
        workloads,
        states,
        class: r.violation.class().to_string(),
        detail: format!("{} @ {}", r.op_desc, r.violation.detail()),
        workload: w.clone(),
        report: r.clone(),
        traced: out.traced_bugs.contains(&bug),
        dedup_hits: sum.dedup_hits,
        memo_hits: sum.memo_hits,
        rep_classes: sum.rep_classes,
        rep_skipped: sum.rep_skipped,
        rep_expansions: sum.rep_expansions,
        prefix_hits: sum.prefix_hits,
        prefix_ops_saved: sum.prefix_ops_saved,
        sched_subtrees: sum.sched_subtrees,
        sched_subtree_max_depth: sum.sched_subtree_max_depth,
        per_worker_prefix_hits: sum.per_worker_prefix_hits,
        recovery_panics: sum.recovery_panics,
        recovery_hangs: sum.recovery_hangs,
        sandbox_retries: sum.sandbox_retries,
        fuel_exhausted: sum.fuel_exhausted,
        oracle_subtrees_pruned: sum.oracle_subtrees_pruned,
        oracle_snap_bytes_shared: sum.oracle_snap_bytes_shared,
        phase: sum.phase,
    };
    (Some(find), workloads, states)
}

struct AceHunt<'a> {
    bug: BugId,
    cfg: &'a TestConfig,
    max_seq3: usize,
}

impl WithKind for AceHunt<'_> {
    type Out = HuntOut;

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        let start = Instant::now();
        let mode = mode_for(kind.name());
        let mut sum = SuiteStats::default();
        let seq3: Box<dyn Iterator<Item = Workload>> = if mode == AceMode::Strong {
            Box::new(seq3_metadata().step_by(37).take(self.max_seq3))
        } else {
            Box::new(std::iter::empty())
        };
        let mut stream = seq1(mode).into_iter().chain(seq2(mode)).chain(seq3);
        // The ACE stream is a pure iterator (no feedback), so the batch size
        // is pure lookahead — it never affects which workload wins: the walk
        // below commits counters in stream order and stops at the first
        // report. `run_to_find` does not run the window past that report
        // (skipped workloads only advance a worker's cache along the ops the
        // next committed one shares), and every committed counter is what
        // running the whole window would give; see "Stopping at the find" in
        // the `sched` module docs. A kind that cannot fork takes the plain
        // `run_batch` path once its caches have disabled themselves.
        let mut sched = Scheduler::new(&kind, self.cfg);
        let batch_len = sched_batch_len(self.cfg.threads, sched.is_active(), None);
        loop {
            let batch: Vec<Workload> = stream.by_ref().take(batch_len).collect();
            if batch.is_empty() {
                return (None, sum.workloads, sum.crash_states);
            }
            let results = if sched.is_active() {
                let done = sched.run_to_find(&batch, self.cfg);
                done.into_iter().map(|r| commit(&kind, r)).collect()
            } else {
                run_batch(&kind, &batch, self.cfg)
            };
            for (w, (out, _cov)) in batch.iter().zip(results) {
                sum.add(&out);
                if let Some(r) = out.reports.first() {
                    sum.per_worker_prefix_hits = sched.per_worker_hits;
                    return hunt_found(sum, start, self.bug, w, &out, r);
                }
            }
        }
    }
}

/// Hunts `bug` (enabled in isolation) with the ACE frontend: seq-1, then
/// seq-2, then a deterministic sample of seq-3-metadata. Returns the find
/// (if any) plus total workloads and crash states examined.
pub fn hunt_with_ace(bug: BugId, cfg: &TestConfig, max_seq3: usize) -> (Option<HuntResult>, u64, u64) {
    let opts = FsOptions::with_bugs(BugSet::only(&[bug]));
    dispatch(bug.info().fs, opts, AceHunt { bug, cfg, max_seq3 })
}

struct FuzzHunt<'a> {
    bug: BugId,
    cfg: &'a TestConfig,
    seed: u64,
    budget: u64,
}

/// Fuzzer batch size. The fuzzer is *batch-synchronous*: it generates this
/// many workloads up front, tests them (possibly in parallel), then applies
/// coverage feedback in generation order before generating the next batch.
/// Fixed — never derived from the thread count — so the generation
/// trajectory is identical for every `TestConfig::threads` value.
pub(crate) const FUZZ_BATCH: usize = 8;

impl WithKind for FuzzHunt<'_> {
    type Out = HuntOut;

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        let start = Instant::now();
        let mut fuzzer = Fuzzer::new(self.seed, FuzzConfig::default());
        let mut seen = std::collections::HashSet::new();
        let mut sum = SuiteStats::default();
        while sum.workloads < self.budget {
            let n = FUZZ_BATCH.min((self.budget - sum.workloads) as usize);
            let batch: Vec<Workload> = (0..n).map(|_| fuzzer.next_workload()).collect();
            let results = run_batch(&kind, &batch, self.cfg);
            for (w, (out, cov)) in batch.iter().zip(results) {
                sum.add(&out);
                let mut new = 0;
                for &h in &cov {
                    if seen.insert(h) {
                        new += 1;
                    }
                }
                fuzzer.feedback(w, new);
                if let Some(r) = out.reports.first() {
                    return hunt_found(sum, start, self.bug, w, &out, r);
                }
            }
        }
        (None, sum.workloads, sum.crash_states)
    }
}

/// Hunts `bug` (enabled in isolation) with the fuzzer frontend under the
/// paper's fuzzing configuration (crash-state cap of two, early exit).
pub fn hunt_with_fuzzer(
    bug: BugId,
    cfg: &TestConfig,
    seed: u64,
    budget: u64,
) -> (Option<HuntResult>, u64, u64) {
    let opts = FsOptions {
        bugs: BugSet::only(&[bug]),
        cov: Cov::enabled(),
        ..Default::default()
    };
    dispatch(bug.info().fs, opts, FuzzHunt { bug, cfg, seed, budget })
}

struct SuiteRun<'a> {
    workloads: Vec<Workload>,
    cfg: &'a TestConfig,
}

/// Aggregate counters from running a suite.
#[derive(Debug, Default, Clone)]
pub struct SuiteStats {
    /// Workloads executed.
    pub workloads: u64,
    /// Crash points visited.
    pub crash_points: u64,
    /// Crash states checked.
    pub crash_states: u64,
    /// Violations reported.
    pub reports: u64,
    /// Crash states served from the dedup cache.
    pub dedup_hits: u64,
    /// Crash states that reused cross-point artifacts.
    pub memo_hits: u64,
    /// Behavioral classes claimed by a representative state (see
    /// `TestConfig::rep_check`).
    pub rep_classes: u64,
    /// Crash states skipped because their class representative already
    /// checked clean.
    pub rep_skipped: u64,
    /// Crash states checked because their class representative reported a
    /// violation (class expansion).
    pub rep_expansions: u64,
    /// Workloads resumed from a cached execution prefix.
    pub prefix_hits: u64,
    /// Oracle + record operations skipped by prefix resumes.
    pub prefix_ops_saved: u64,
    /// Prefix subtrees the scheduler partitioned the suite into (summed over
    /// batches; thread-count-invariant).
    pub sched_subtrees: u64,
    /// Deepest within-subtree shared op prefix seen in any batch.
    pub sched_subtree_max_depth: u64,
    /// Cumulative `prefix_hits` per scheduler worker slot. Varies with the
    /// thread count by nature (it describes the schedule, not the results) —
    /// keep it out of determinism fingerprints.
    pub per_worker_prefix_hits: Vec<u64>,
    /// Checker-stage panics converted into `recovery-panic` findings.
    pub recovery_panics: u64,
    /// Fuel-watchdog hangs converted into `recovery-hang` findings.
    pub recovery_hangs: u64,
    /// Sandbox findings re-checked on the slow fresh-device path.
    pub sandbox_retries: u64,
    /// Crash states whose committed verdict involved an exhausted fuel
    /// budget.
    pub fuel_exhausted: u64,
    /// Oracle-diff node comparisons skipped by the shared-oracle hash fast
    /// path (see `TestConfig::shared_oracle`).
    pub oracle_subtrees_pruned: u64,
    /// File-data bytes oracle snapshots shared with their predecessor
    /// instead of re-copying.
    pub oracle_snap_bytes_shared: u64,
    /// Cumulative per-phase wall times.
    pub phase: PhaseTotals,
    /// Every violation report, in workload order (determinism witnesses
    /// compare these across thread counts).
    pub bug_reports: Vec<BugReport>,
    /// In-flight write counts at each crash point.
    pub inflight: Vec<usize>,
    /// Wall time.
    pub elapsed: Duration,
}

impl SuiteStats {
    /// Adds one workload's counters and phase times: everything but the
    /// per-report and per-crash-point vectors. The one place in this file
    /// that sums `TestOutcome` fields — the suite runner and both hunts
    /// accumulate through it.
    fn add(&mut self, out: &TestOutcome) {
        self.workloads += 1;
        self.crash_points += out.crash_points;
        self.crash_states += out.crash_states;
        self.reports += out.reports.len() as u64;
        self.dedup_hits += out.dedup_hits;
        self.memo_hits += out.memo_hits;
        self.rep_classes += out.rep_classes;
        self.rep_skipped += out.rep_skipped;
        self.rep_expansions += out.rep_expansions;
        self.prefix_hits += out.prefix_hits;
        self.prefix_ops_saved += out.prefix_ops_saved;
        self.sched_subtrees += out.sched_subtrees;
        self.sched_subtree_max_depth =
            self.sched_subtree_max_depth.max(out.sched_subtree_max_depth);
        self.recovery_panics += out.recovery_panics;
        self.recovery_hangs += out.recovery_hangs;
        self.sandbox_retries += out.sandbox_retries;
        self.fuel_exhausted += out.fuel_exhausted;
        self.oracle_subtrees_pruned += out.oracle_subtrees_pruned;
        self.oracle_snap_bytes_shared += out.oracle_snap_bytes_shared;
        self.phase.add(&out.timing);
    }
}

impl WithKind for SuiteRun<'_> {
    type Out = SuiteStats;

    fn call<K: FsKind>(self, kind: K) -> SuiteStats {
        let start = Instant::now();
        let mut s = SuiteStats::default();
        let mut sched = Scheduler::new(&kind, self.cfg);
        // The whole suite is one scheduled batch (`total = Some(..)`): the
        // scheduler partitions it into subtrees internally, so pre-chunking
        // would only cut subtrees at arbitrary boundaries and lose reuse.
        let chunk = sched_batch_len(self.cfg.threads, sched.is_active(), Some(self.workloads.len()));
        for batch in self.workloads.chunks(chunk) {
            for (out, _cov) in run_batch_cached(&kind, batch, self.cfg, Some(&mut sched)) {
                s.add(&out);
                s.bug_reports.extend(out.reports);
                s.inflight.extend(out.inflight_sizes);
            }
        }
        s.per_worker_prefix_hits = sched.per_worker_hits;
        s.elapsed = start.elapsed();
        s
    }
}

/// Runs a workload suite on `fs` with the given bug set, returning
/// aggregate statistics.
pub fn run_suite(
    fs: FsName,
    bugs: BugSet,
    workloads: Vec<Workload>,
    cfg: &TestConfig,
) -> SuiteStats {
    dispatch(fs, FsOptions::with_bugs(bugs), SuiteRun { workloads, cfg })
}

/// The five strong-guarantee systems of the evaluation, in Table 1 order.
pub const STRONG_SYSTEMS: [FsName; 5] = [
    FsName::Nova,
    FsName::NovaFortis,
    FsName::Pmfs,
    FsName::WineFs,
    FsName::SplitFs,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_reaches_each_fs() {
        struct NameOf;
        impl WithKind for NameOf {
            type Out = FsName;
            fn call<K: FsKind>(self, kind: K) -> FsName {
                kind.name()
            }
        }
        for fs in STRONG_SYSTEMS.into_iter().chain([FsName::Ext4Dax, FsName::XfsDax]) {
            assert_eq!(dispatch(fs, FsOptions::fixed(), NameOf), fs);
        }
    }

    #[test]
    fn ace_hunt_finds_an_easy_bug_quickly() {
        let cfg = TestConfig { stop_on_first: true, ..TestConfig::default() };
        let (hit, workloads, _) = hunt_with_ace(BugId::B04, &cfg, 0);
        let hit = hit.expect("bug 4 must fall to ACE");
        assert!(hit.traced);
        assert_eq!(hit.class, "atomicity");
        assert!(workloads <= 56 + 3136);
    }

    #[test]
    fn one_batch_sizing_rule() {
        // Known totals (suites): the whole set, whatever the threads.
        assert_eq!(sched_batch_len(1, true, Some(3192)), 3192);
        assert_eq!(sched_batch_len(8, false, Some(10)), 10);
        assert_eq!(sched_batch_len(4, true, Some(0)), 1, "empty suites stay harmless");
        // Streams with a live cache: a fixed lookahead window, independent
        // of the thread count so prefix counters match across thread counts.
        for t in [0, 1, 2, 8, 32] {
            assert_eq!(sched_batch_len(t, true, None), 64);
        }
        // Streams without a cache: just enough lookahead for the shards.
        assert_eq!(sched_batch_len(1, false, None), 2);
        assert_eq!(sched_batch_len(8, false, None), 16);
        assert_eq!(sched_batch_len(0, false, None), 2, "threads are clamped to 1");
    }

    #[test]
    fn suite_stats_accumulate() {
        let cfg = TestConfig::default();
        let ws = seq1(AceMode::Strong).into_iter().take(5).collect();
        let s = run_suite(FsName::Nova, BugSet::fixed(), ws, &cfg);
        assert_eq!(s.workloads, 5);
        assert!(s.crash_states > 0);
        assert_eq!(s.reports, 0);
        assert_eq!(s.inflight.len() as u64, s.crash_points);
    }
}
