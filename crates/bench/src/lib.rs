#![warn(missing_docs)]

//! Shared machinery for the evaluation harnesses (one binary per paper
//! table/figure — see DESIGN.md §4 for the index).

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
pub mod cli;
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
        FsName::Ext4Dax => w.call(Ext4DaxKind { opts }),
        FsName::XfsDax => w.call(XfsDaxKind { opts }),
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
    sched::run_shards(batch, cfg, &shards, &mut no_state, |_, w| test_on_fresh_sinks(kind, w, cfg))
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
///   past a stop-on-first winner.
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
    /// CPU time until the first violation.
    pub elapsed: Duration,
    /// Workloads executed until then.
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
    /// Cumulative `prefix_hits` per scheduler worker slot — describes the
    /// schedule, so (unlike every other field) it varies with the thread
    /// count. Empty when the scheduler never engaged.
    pub per_worker_prefix_hits: Vec<u64>,
    /// Checker-stage panics converted into `recovery-panic` findings until
    /// the find (see `TestConfig::sandbox`).
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
        // report, discarding speculative results past it.
        let mut sched = Scheduler::new(&kind, self.cfg);
        let batch_len = sched_batch_len(self.cfg.threads, sched.is_active(), None);
        loop {
            let batch: Vec<Workload> = stream.by_ref().take(batch_len).collect();
            if batch.is_empty() {
                return (None, sum.workloads, sum.crash_states);
            }
            let results = run_batch_cached(&kind, &batch, self.cfg, Some(&mut sched));
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

/// Prints one line per triage cluster of `reports`: its minimal exemplar
/// (fewest ops, then smallest replayed subset) — the report a developer
/// would debug first, and the one `hunt --shrink` would package as the
/// bundle. `campaign` prints its live rounds through here and `campaignd`
/// its merged store.
pub fn print_cluster_exemplars(reports: &[BugReport], clusters: &[Vec<usize>]) {
    for cluster in clusters {
        let e = &reports[chipmunk::exemplar(reports, cluster)];
        println!(
            "    [{} x{}] {} | {} @ op {} | {} in subset",
            e.violation.class(),
            cluster.len(),
            e.workload,
            e.op_desc,
            e.op_seq,
            e.subset_ids.len(),
        );
    }
}

/// Formats a duration compactly for tables.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    }
}

/// Minimal JSON document builder for the binaries' `--json` flags (the
/// workspace is dependency-frozen, so no serde).
pub mod jsonout {
    /// Writes `contents` to `path` atomically: the bytes go to a `.tmp`
    /// sibling first and are renamed over the target only once fully
    /// written, so a failure mid-write leaves any existing file at `path`
    /// untouched (the binaries overwrite baseline artifacts in place).
    ///
    /// The temp file is fsynced before the rename and the parent directory
    /// after it — without the directory fsync the rename itself is not
    /// durable, so a real crash could lose the "atomically" written file
    /// (the very bug class this workspace exists to catch).
    ///
    /// Delegates to the process-wide passthrough
    /// [`crate::campaign::hostio::HostCtx`], so every artifact emitter in
    /// the workspace goes through the same audited write path as the
    /// campaign store (fault injection exercises that path directly in the
    /// `hostio` tests).
    pub fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
        write_atomic_bytes(path, contents.as_bytes())
    }

    /// [`write_atomic`] for binary contents (the campaign store's coverage
    /// bitmaps are raw bit arrays, not JSON).
    pub fn write_atomic_bytes(path: &str, contents: &[u8]) -> std::io::Result<()> {
        crate::campaign::hostio::default_ctx()
            .write_atomic(std::path::Path::new(path), contents)
            .map_err(std::io::Error::other)
    }

    /// A JSON value. Objects preserve field order.
    pub enum Json {
        /// A float, rendered with millisecond-scale precision.
        F(f64),
        /// An unsigned integer.
        U(u64),
        /// A boolean.
        B(bool),
        /// A string (escaped on render).
        S(String),
        /// `null`.
        Null,
        /// An array.
        Arr(Vec<Json>),
        /// An object.
        Obj(Vec<(&'static str, Json)>),
    }

    /// Escapes `v` into `out` as a JSON string literal (quotes included).
    /// Shared by both emitters so object keys and values escape identically.
    fn escape_str(out: &mut String, v: &str) {
        out.push('"');
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    impl Json {
        /// Renders the document with two-space indentation and a trailing
        /// newline.
        pub fn render(&self) -> String {
            let mut s = String::new();
            self.write(&mut s, 0);
            s.push('\n');
            s
        }

        fn write(&self, out: &mut String, ind: usize) {
            let pad = |n: usize| "  ".repeat(n);
            match self {
                Json::F(v) => out.push_str(&format!("{v:.6}")),
                Json::U(v) => out.push_str(&v.to_string()),
                Json::B(v) => out.push_str(if *v { "true" } else { "false" }),
                Json::Null => out.push_str("null"),
                Json::S(v) => escape_str(out, v),
                Json::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad(ind + 1));
                        item.write(out, ind + 1);
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&pad(ind));
                    out.push(']');
                }
                Json::Obj(fields) => {
                    if fields.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push_str("{\n");
                    for (i, (k, v)) in fields.iter().enumerate() {
                        out.push_str(&pad(ind + 1));
                        escape_str(out, k);
                        out.push_str(": ");
                        v.write(out, ind + 1);
                        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&pad(ind));
                    out.push('}');
                }
            }
        }
    }

    /// A parsed JSON value, as read back from a document on disk. Distinct
    /// from the writer type [`Json`] (whose object keys are `&'static str`,
    /// which parser output cannot provide).
    #[derive(Debug, Clone, PartialEq)]
    pub enum JVal {
        /// Any number (integers included; JSON does not distinguish).
        Num(f64),
        /// A string.
        Str(String),
        /// A boolean.
        Bool(bool),
        /// `null`.
        Null,
        /// An array.
        Arr(Vec<JVal>),
        /// An object (field order preserved).
        Obj(Vec<(String, JVal)>),
    }

    impl JVal {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&JVal> {
            match self {
                JVal::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JVal::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload as an unsigned integer, if exact.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                JVal::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                    Some(*n as u64)
                }
                _ => None,
            }
        }

        /// The numeric payload.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JVal::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The array payload, if this is an array.
        pub fn as_arr(&self) -> Option<&[JVal]> {
            match self {
                JVal::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// The boolean payload, if this is a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                JVal::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// Renders the value back to compact (single-line) JSON such that
        /// `parse(v.render()) == v` for every parseable value. The campaign
        /// journal depends on this: each checkpoint is one line, so the
        /// emitter must never produce embedded newlines (strings escape
        /// them) and numbers must round-trip exactly — floats use Rust's
        /// shortest-exact `Display` form, not a fixed precision. Non-finite
        /// floats (which [`parse`] can never produce) render as `null`.
        pub fn render(&self) -> String {
            let mut s = String::new();
            self.render_into(&mut s);
            s
        }

        fn render_into(&self, out: &mut String) {
            match self {
                JVal::Num(n) if n.is_finite() => {
                    out.push_str(&format!("{n}"));
                }
                JVal::Num(_) => out.push_str("null"),
                JVal::Str(s) => escape_str(out, s),
                JVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                JVal::Null => out.push_str("null"),
                JVal::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.render_into(out);
                    }
                    out.push(']');
                }
                JVal::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        escape_str(out, k);
                        out.push(':');
                        v.render_into(out);
                    }
                    out.push('}');
                }
            }
        }
    }

    /// Parses a JSON document (recursive descent; the workspace is
    /// dependency-frozen, so no serde). Trailing garbage is an error.
    pub fn parse(s: &str) -> Result<JVal, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<JVal, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(JVal::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = match parse_value(b, pos)? {
                        JVal::Str(s) => s,
                        _ => return Err(format!("object key must be a string at byte {}", *pos)),
                    };
                    skip_ws(b, pos);
                    expect(b, pos, b':')?;
                    // Duplicate keys are ambiguous (which one does `get`
                    // mean?) and a classic smuggling vector; the journal and
                    // corpus readers must never see them resolve silently.
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(format!("duplicate object key {key:?} at byte {}", *pos));
                    }
                    fields.push((key, parse_value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(JVal::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(JVal::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(JVal::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                    }
                }
            }
            Some(b'"') => parse_string(b, pos).map(JVal::Str),
            Some(b't') => parse_lit(b, pos, "true").map(|_| JVal::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false").map(|_| JVal::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null").map(|_| JVal::Null),
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<JVal, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number bytes");
        // Reject forms `f64::from_str` accepts but JSON does not (leading
        // zeros, bare '.', 'inf', ...): digits with optional sign, fraction,
        // exponent only.
        let ok = {
            let t = text.strip_prefix('-').unwrap_or(text);
            let (mant, exp) = match t.split_once(['e', 'E']) {
                Some((m, e)) => (m, Some(e)),
                None => (t, None),
            };
            let (int, frac) = match mant.split_once('.') {
                Some((i, f)) => (i, Some(f)),
                None => (mant, None),
            };
            let int_ok = int == "0"
                || (!int.is_empty()
                    && !int.starts_with('0')
                    && int.bytes().all(|c| c.is_ascii_digit()));
            let frac_ok =
                frac.is_none_or(|f| !f.is_empty() && f.bytes().all(|c| c.is_ascii_digit()));
            let exp_ok = exp.is_none_or(|e| {
                let e = e.strip_prefix(['+', '-']).unwrap_or(e);
                !e.is_empty() && e.bytes().all(|c| c.is_ascii_digit())
            });
            int_ok && frac_ok && exp_ok
        };
        if !ok {
            return Err(format!("invalid number {text:?} at byte {start}"));
        }
        text.parse::<f64>()
            .map(JVal::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = Vec::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return String::from_utf8(out).map_err(|_| "invalid UTF-8".into());
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // The writer only emits \u for control chars, so
                            // surrogate pairs are out of scope; reject them
                            // rather than decode wrongly.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| format!("unpaired surrogate \\u{cp:04x}"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    out.push(c);
                    *pos += 1;
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn atomic_write_survives_mid_write_failure() {
            // The mid-write fault matrix (short writes, EIO, torn appends,
            // lying writes) lives in `campaign::hostio`'s tests against the
            // same context this function delegates to; here we only pin the
            // caller-visible contract: overwrite-in-place works and leaves
            // no temp file behind.
            let dir = std::env::temp_dir();
            let path = dir
                .join(format!("chipmunk-atomic-{}.json", std::process::id()))
                .to_string_lossy()
                .into_owned();
            write_atomic(&path, "{\"old\": true}\n").expect("initial write");
            write_atomic(&path, "{\"new\": true}\n").expect("second write");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"new\": true}\n");
            assert!(
                !std::path::Path::new(&format!("{path}.tmp")).exists(),
                "temp file must not outlive the rename"
            );
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn atomic_write_syncs_parent_directory() {
            // The rename is only durable once the parent directory is
            // fsynced; exercise both parent shapes (explicit directory and
            // a bare filename, whose parent resolves to ".").
            let dir = std::env::temp_dir().join(format!("chipmunk-dirsync-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let nested = dir.join("out.json").to_string_lossy().into_owned();
            write_atomic(&nested, "{}\n").expect("write in fresh directory");
            assert_eq!(std::fs::read_to_string(&nested).unwrap(), "{}\n");
            let bare = format!("chipmunk-bare-{}.json", std::process::id());
            write_atomic(&bare, "{}\n").expect("'.' parent fallback must sync");
            let _ = std::fs::remove_file(&bare);
            let _ = std::fs::remove_file(&nested);
            let _ = std::fs::remove_dir(&dir);
        }

        #[test]
        fn parse_round_trips_rendered_documents() {
            let doc = Json::Obj(vec![
                ("num", Json::U(42)),
                ("neg", Json::F(-1.5)),
                ("s", Json::S("a \"quoted\"\nline\ttab \\ unicode \u{1f600}".into())),
                ("b", Json::B(true)),
                ("nothing", Json::Null),
                ("arr", Json::Arr(vec![Json::U(1), Json::U(2), Json::Arr(vec![])])),
                ("obj", Json::Obj(vec![("k", Json::S("v".into()))])),
                ("empty", Json::Obj(vec![])),
            ]);
            let v = parse(&doc.render()).expect("parse rendered doc");
            assert_eq!(v.get("num").and_then(JVal::as_u64), Some(42));
            assert_eq!(v.get("neg").and_then(JVal::as_f64), Some(-1.5));
            assert_eq!(
                v.get("s").and_then(JVal::as_str),
                Some("a \"quoted\"\nline\ttab \\ unicode \u{1f600}")
            );
            assert_eq!(v.get("b"), Some(&JVal::Bool(true)));
            assert_eq!(v.get("nothing"), Some(&JVal::Null));
            let arr = v.get("arr").and_then(JVal::as_arr).unwrap();
            assert_eq!(arr.len(), 3);
            assert_eq!(v.get("obj").and_then(|o| o.get("k")).and_then(JVal::as_str), Some("v"));
            assert!(v.get("missing").is_none());
        }

        #[test]
        fn parse_rejects_malformed_documents() {
            for bad in [
                "", "{", "}", "[1,", "{\"k\": }", "{\"k\" 1}", "tru", "\"unterminated",
                "\"bad \\q escape\"", "01x", "{\"a\":1} trailing",
            ] {
                assert!(parse(bad).is_err(), "{bad:?} must not parse");
            }
        }
    }
}

/// Serializes one frontend's hunt result (or a miss) for the `--json`
/// outputs: per-phase wall times, cache-layer hit counters, and throughput.
pub fn hunt_json(hit: Option<&HuntResult>, workloads: u64, states: u64) -> jsonout::Json {
    use jsonout::Json;
    let mut f = vec![
        ("found", Json::B(hit.is_some())),
        ("workloads", Json::U(workloads)),
        ("states", Json::U(states)),
    ];
    if let Some(h) = hit {
        let secs = h.elapsed.as_secs_f64();
        f.extend([
            ("seconds", Json::F(secs)),
            ("states_per_sec", Json::F(h.states as f64 / secs.max(1e-9))),
            ("class", Json::S(h.class.clone())),
            ("detail", Json::S(h.detail.clone())),
            ("traced", Json::B(h.traced)),
            ("dedup_hits", Json::U(h.dedup_hits)),
            ("memo_hits", Json::U(h.memo_hits)),
            ("rep_classes", Json::U(h.rep_classes)),
            ("rep_skipped", Json::U(h.rep_skipped)),
            ("rep_expansions", Json::U(h.rep_expansions)),
            ("prefix_hits", Json::U(h.prefix_hits)),
            ("prefix_ops_saved", Json::U(h.prefix_ops_saved)),
            ("subtrees", Json::U(h.sched_subtrees)),
            ("subtree_max_depth", Json::U(h.sched_subtree_max_depth)),
            ("recovery_panics", Json::U(h.recovery_panics)),
            ("recovery_hangs", Json::U(h.recovery_hangs)),
            ("sandbox_retries", Json::U(h.sandbox_retries)),
            ("fuel_exhausted", Json::U(h.fuel_exhausted)),
            ("oracle_subtrees_pruned", Json::U(h.oracle_subtrees_pruned)),
            ("oracle_snap_bytes_shared", Json::U(h.oracle_snap_bytes_shared)),
            (
                "per_worker_prefix_hits",
                Json::Arr(h.per_worker_prefix_hits.iter().map(|&v| Json::U(v)).collect()),
            ),
            ("oracle_seconds", Json::F(h.phase.oracle.as_secs_f64())),
            ("record_seconds", Json::F(h.phase.record.as_secs_f64())),
            ("check_seconds", Json::F(h.phase.check.as_secs_f64())),
        ]);
    }
    Json::Obj(f)
}

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
