//! The top-level test harness: record, replay, check (§3.3, Figure 2).
//!
//! One workload is one serial pipeline on the calling thread, and the crash
//! states of a crash point are checked one after another (the paper's §3.3;
//! Observation 7 is why there is little to shard inside a point). Parallelism
//! lives a level up, in the batch runners of the `bench` crate, which shard
//! *workloads* over [`TestConfig::threads`] workers.
//!
//! Each stage has one step, shared by every runner: an oracle op is
//! `oracle_step`, a recorded op is `record_op` on the device
//! `logging_device` picks, and the crash-state stage is `ReplayEngine`,
//! production's only replay. Between syscalls the engine is wholly
//! described by its durable `BaseImage` and one `ReplayState` value, which
//! is what the [`PrefixCache`](crate::PrefixCache) checkpoints and resumes.
//! Each crash state it builds is settled by one `StateDecision`: `decide`
//! picks it from the point's tables, `execute` runs and commits it.
//! Replaying a single `(point, subset)` state ([`check_one_state`]) is not
//! the engine's job: it is the literal reference walk
//! ([`mod@reference`]), stopped at that state.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem::{ForkDevice, FxHashMap, ImageKey, ImageLease, PmBackend};
use pmlog::{LogEntry, LogHandle, LoggingPm, Marker, OpRecord};
use vfs::{fs::SyscallKind, BugId, FileSystem, FsKind, Op, Workload};

use crate::{
    checker::{check_crash_state, probe_state, walk_scope, CheckKind, DataRelax},
    config::TestConfig,
    crashgen::{
        coalesce, coalesce_into, data_shadowing_unsafe, describe_subset, enumerate_subsets_into,
        PendingWrite, SigCache, SubsetList, SubsetWalker,
    },
    exec::{Executor, OpResult},
    footprint::{FpSet, FP_MIN_STATES, FP_WORD_CAP},
    oracle::{alias_set, build_oracle, op_paths, Oracle, Scope, Tree},
    reference,
    report::{BugReport, CrashPhase, Stage, Violation},
    sandbox,
};

/// Wall time spent in each stage of the pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Stage 1: the crash-free oracle run.
    pub oracle: Duration,
    /// Stage 2: the recorded run through the write logger.
    pub record: Duration,
    /// Stage 3: crash-state construction and checking.
    pub check: Duration,
}

/// Everything a test run produced.
#[derive(Debug, Clone, Default)]
pub struct TestOutcome {
    /// Detected violations (deduplicated within the run, capped).
    pub reports: Vec<BugReport>,
    /// Number of crash points visited (fences + syscall boundaries).
    pub crash_points: u64,
    /// Number of crash states constructed and checked.
    pub crash_states: u64,
    /// Of `crash_states`, how many reused an earlier check's result because
    /// their replayed bytes produced an identical image at the same crash
    /// point (coalesced subsets frequently collide).
    pub dedup_hits: u64,
    /// Of `crash_states`, how many reused the mount/walk/probe artifacts of
    /// an identical image first seen at an *earlier crash point*; the oracle
    /// comparison still ran.
    pub memo_hits: u64,
    /// How many times this workload resumed from a cached execution prefix
    /// instead of re-running mkfs and the shared ops (see
    /// [`PrefixCache`](crate::PrefixCache); only the batched runners
    /// populate it).
    pub prefix_hits: u64,
    /// Total operations (oracle + record, counted once each) skipped by
    /// prefix-cache resumes.
    pub prefix_ops_saved: u64,
    /// Prefix subtrees the scheduler partitioned this workload's batch into.
    /// Set on the first outcome of each scheduled batch (0 elsewhere), so
    /// summing over outcomes gives the total across batches. A pure function
    /// of the batch contents — identical for every thread count.
    pub sched_subtrees: u64,
    /// Deepest op prefix shared within any subtree of this workload's batch
    /// (same first-outcome convention as `sched_subtrees`).
    pub sched_subtree_max_depth: u64,
    /// Crash states whose committed verdict was a
    /// [`Violation::RecoveryPanic`] — the file system panicked while the
    /// sandbox was checking the state (see [`crate::sandbox`]).
    pub recovery_panics: u64,
    /// Crash states whose committed verdict was a
    /// [`Violation::RecoveryHang`] — the deterministic fuel watchdog fired
    /// (see [`TestConfig::recovery_fuel`]).
    pub recovery_hangs: u64,
    /// Crash states re-checked once through the literal single-state
    /// primitive ([`check_crash_state`]) because the production pipeline
    /// first saw a panic/hang, so fast-path artifacts are never mislabeled
    /// as FS bugs.
    pub sandbox_retries: u64,
    /// Crash states whose check hit fuel exhaustion at any point, including
    /// hangs that the slow-path re-check subsequently cleared.
    pub fuel_exhausted: u64,
    /// Node comparisons the oracle diffs skipped because the two nodes'
    /// content hashes matched (see [`TestConfig::shared_oracle`]).
    pub oracle_subtrees_pruned: u64,
    /// File-data bytes oracle snapshots shared with their predecessor
    /// instead of re-reading and re-storing (see
    /// [`TestConfig::shared_oracle`]; 0 with the knob off).
    pub oracle_snap_bytes_shared: u64,
    /// Behavioral classes created by representative-state checking (see
    /// [`TestConfig::rep_check`]): each counts one state that was checked on
    /// the full path as its class's representative.
    pub rep_classes: u64,
    /// Crash states skipped because their behavioral class already had a
    /// violation-free representative; they commit a synthesized clean
    /// verdict without mounting.
    pub rep_skipped: u64,
    /// Crash states force-checked because their class's representative (or a
    /// later checked member) reported a violation — the class expanded back
    /// to exhaustive checking.
    pub rep_expansions: u64,
    /// In-flight write counts observed at each crash point (before
    /// coalescing) — the data behind Observation 7.
    pub inflight_sizes: Vec<usize>,
    /// Content keys (folded to 64 bits) of every committed crash state, in
    /// canonical commit order — one entry per `crash_states` increment.
    /// Populated only under [`TestConfig::collect_state_keys`]; the campaign
    /// store ORs them into its persistent per-FS crash-state bitmaps.
    pub state_keys: Vec<u64>,
    /// Injected-bug code paths that executed during the run (ground truth
    /// for attribution; detection never uses this).
    pub traced_bugs: BTreeSet<BugId>,
    /// Per-phase wall times.
    pub timing: PhaseTimings,
    /// The workload name.
    pub workload: String,
}

impl TestOutcome {
    /// Whether any violation was found.
    pub fn found_bug(&self) -> bool {
        !self.reports.is_empty()
    }
}

const MAX_REPORTS: usize = 200;

pub(crate) fn push_report(out: &mut TestOutcome, report: BugReport) {
    if out.reports.len() >= MAX_REPORTS {
        return;
    }
    // Exact-duplicate suppression (same op + same violation).
    if out
        .reports
        .iter()
        .any(|r| r.op_seq == report.op_seq && r.violation == report.violation)
    {
        return;
    }
    out.reports.push(report);
}

/// A report that belongs to no crash state: pipeline failures (oracle,
/// mkfs), runtime errors and functional divergence of the recorded run.
fn plain_report(
    workload: &Workload,
    op_seq: usize,
    op_desc: String,
    violation: Violation,
) -> BugReport {
    BugReport {
        workload: workload.name.clone(),
        op_seq,
        op_desc,
        phase: CrashPhase::DuringSyscall,
        subset: "-".into(),
        point: None,
        subset_ids: Vec::new(),
        violation,
    }
}

/// Functional divergence between the recorded run and the oracle, and
/// non-benign runtime errors, are reported even though they are not
/// crash-consistency violations (§4.4, non-crash-consistency bugs).
pub(crate) fn report_divergence(
    workload: &Workload,
    rec_results: &[OpResult],
    oracle_results: &[OpResult],
    out: &mut TestOutcome,
) {
    for (seq, (rec, ora)) in rec_results.iter().zip(oracle_results).enumerate() {
        let desc = workload.ops[seq].describe();
        if let Err(e) = &rec.result {
            if !e.is_benign() {
                let v = Violation::RuntimeError(e.to_string());
                push_report(out, plain_report(workload, seq, desc.clone(), v));
            }
        }
        if rec.result.is_ok() != ora.result.is_ok() {
            let v = Violation::OracleDivergence(format!(
                "recorded run returned {:?}, oracle returned {:?}",
                rec.result, ora.result
            ));
            push_report(out, plain_report(workload, seq, desc, v));
        }
    }
}

/// The recorded run's device: `dev` behind the write logger, or behind the
/// eADR logger under `cfg.eadr`.
pub(crate) fn logging_device<D: PmBackend>(
    dev: D,
    log: &LogHandle,
    cfg: &TestConfig,
) -> LoggingPm<D> {
    if cfg.eadr {
        LoggingPm::new_eadr(dev, log.clone())
    } else {
        LoggingPm::new(dev, log.clone())
    }
}

/// One op of the recorded run, bracketed by its syscall markers.
pub(crate) fn record_op<F: FileSystem>(
    log: &LogHandle,
    ex: &mut Executor,
    fs: &mut F,
    op: &Op,
    seq: usize,
) -> OpResult {
    log.marker(Marker::SyscallBegin(OpRecord { seq, desc: op.describe() }));
    let r = ex.exec(fs, op, seq);
    log.marker(Marker::SyscallEnd { seq, ok: r.result.is_ok() });
    r
}

/// Stages 1–2 of the pipeline: the crash-free oracle run, the recorded run,
/// and the divergence reports between them, with both stage timings. A
/// stage that cannot run at all (oracle failure, mkfs failure) is reported
/// into `out` and yields `None`.
///
/// Both stages run on a fresh device from `new_dev`. Production passes the
/// page-sparse [`ForkDevice`] (a workload touches a few dozen KiB of the
/// device, so nothing device-sized is allocated); the literal reference's
/// whole-workload walk passes the dense [`pmem::PmDevice`], which makes the
/// production ≡ reference matrix also pin "log recorded on a sparse device
/// ≡ log recorded on the dense device".
pub(crate) fn oracle_and_record<K: FsKind, D: PmBackend>(
    kind: &K,
    workload: &Workload,
    cfg: &TestConfig,
    new_dev: impl Fn(u64) -> D,
    out: &mut TestOutcome,
) -> Option<(Oracle, Vec<OpResult>, pmlog::Log)> {
    let t_oracle = Instant::now();
    let oracle = match build_oracle(kind, workload, cfg, &new_dev) {
        Ok(o) => o,
        Err(e) => {
            let v = Violation::RuntimeError(format!("oracle run failed: {e}"));
            push_report(out, plain_report(workload, 0, "(oracle run)".into(), v));
            return None;
        }
    };
    out.timing.oracle = t_oracle.elapsed();
    out.oracle_snap_bytes_shared = oracle.snap_bytes_shared;

    let t_record = Instant::now();
    let log = LogHandle::new();
    let mut fs = match kind.mkfs(logging_device(new_dev(cfg.device_size), &log, cfg)) {
        Ok(fs) => fs,
        Err(e) => {
            let v = Violation::RuntimeError(format!("mkfs failed: {e}"));
            push_report(out, plain_report(workload, 0, "(mkfs)".into(), v));
            return None;
        }
    };
    let mut ex = Executor::new();
    let rec_results: Vec<OpResult> = workload
        .ops
        .iter()
        .enumerate()
        .map(|(seq, op)| record_op(&log, &mut ex, &mut fs, op, seq))
        .collect();
    drop(fs);
    let log = log.take();
    out.timing.record = t_record.elapsed();
    report_divergence(workload, &rec_results, &oracle.results, out);
    Some((oracle, rec_results, log))
}

/// Runs the full Chipmunk pipeline on one workload:
///
/// 1. oracle run (crash-free, snapshots around every op);
/// 2. recorded run through the write logger;
/// 3. crash-state construction and checking at every crash point.
pub fn test_workload<K: FsKind>(kind: &K, workload: &Workload, cfg: &TestConfig) -> TestOutcome {
    run_workload(kind, workload, cfg, None).0
}

/// [`test_workload`] under the skip audit, a test of the fast paths: each
/// state not checked from scratch is also checked the literal way, and
/// nothing of that is committed. It panics on a dedup or memo hit whose
/// verdict is not the literal one or whose image does not digest as the
/// one its key was first seen with, and on a violated footprint skip.
/// Class skips are lossy by design ([`TestConfig::rep_check`]), so it counts
/// the violated ones.
#[doc(hidden)]
pub fn audit_skips<K: FsKind>(
    kind: &K,
    workload: &Workload,
    cfg: &TestConfig,
) -> (TestOutcome, SkipAudit) {
    let (out, audit) = run_workload(kind, workload, cfg, Some(SkipAudit::default()));
    (out, audit.unwrap_or_default())
}

fn run_workload<K: FsKind>(
    kind: &K,
    workload: &Workload,
    cfg: &TestConfig,
    audit: Option<SkipAudit>,
) -> (TestOutcome, Option<SkipAudit>) {
    let mut out = TestOutcome { workload: workload.name.clone(), ..Default::default() };
    kind.options().trace.clear();

    let Some((oracle, rec_results, log)) =
        oracle_and_record(kind, workload, cfg, ForkDevice::new, &mut out)
    else {
        return (out, audit);
    };

    let t_check = Instant::now();
    let base = BaseImage::zeroed(cfg.device_size);
    let mut engine =
        ReplayEngine::new(kind, workload, cfg, &oracle, &rec_results, base, ReplayState::default());
    engine.scratch.audit = audit;
    for entry in log.entries() {
        if engine.stop {
            // Replaying to completion is unnecessary once stopping.
            break;
        }
        engine.step(entry, &mut out);
    }
    out.timing.check = t_check.elapsed();

    out.traced_bugs = kind.options().trace.snapshot();
    (out, engine.scratch.audit)
}

/// [`test_workload`] on a factory clone of `kind` carrying fresh coverage and
/// trace sinks, returning the outcome with the workload's private coverage
/// ids and traced bugs. The batch runners, the campaign's fuzz tasks and
/// [`PrefixCache`](crate::PrefixCache)'s uncached fallback all test a
/// workload through here, so parallel workers never share instrumentation
/// and callers absorb the sinks in whatever order they commit results.
pub fn test_on_fresh_sinks<K: FsKind>(
    kind: &K,
    workload: &Workload,
    cfg: &TestConfig,
) -> (TestOutcome, HashSet<u64>, BTreeSet<BugId>) {
    let fresh = kind.with_options(kind.options().with_fresh_sinks());
    let out = test_workload(&fresh, workload, cfg);
    let cov = fresh.options().cov.snapshot();
    let trace = fresh.options().trace.snapshot();
    (out, cov, trace)
}

/// Picks the data-relaxation mode for a mid-syscall atomicity check: data
/// writes may legally be torn (or must be all-or-nothing when the FS claims
/// atomic data writes), and the path-addressed `fallocate` bundles an
/// `O_CREAT` open, so the created-but-empty intermediate state is allowed.
pub(crate) fn atomicity_relax<'a>(
    op: &vfs::Op,
    target: Option<&'a str>,
    guarantees: vfs::Guarantees,
) -> DataRelax<'a> {
    let is_data = matches!(op.kind(), SyscallKind::Write | SyscallKind::Pwrite);
    let is_falloc = matches!(op.kind(), SyscallKind::Falloc);
    match (target, is_data) {
        (Some(t), true) if guarantees.atomic_data_writes => DataRelax::Atomic(t),
        (Some(t), true) => DataRelax::Torn(t),
        (Some(t), false) if is_falloc => DataRelax::Atomic(t),
        _ => DataRelax::None,
    }
}

/// The paths a crash point's in-flight writes can legally affect: the
/// targets of every op with writes still pending plus the current op, their
/// parent directories, and hard-link aliases in the bracketing oracle
/// trees. Any op whose footprint cannot be named (`sync`, an unresolved
/// slot) widens the scope to `Full`.
fn crash_scope(
    workload: &Workload,
    rec_results: &[OpResult],
    oracle: &Oracle,
    seq: usize,
    pending_seqs: &BTreeSet<usize>,
    pending_unknown: bool,
    cfg: &TestConfig,
) -> Scope {
    if !cfg.scoped_check || pending_unknown {
        return Scope::Full;
    }
    let mut set = BTreeSet::new();
    for s in pending_seqs.iter().copied().chain(std::iter::once(seq)) {
        let op = &workload.ops[s];
        let target = rec_results[s].target.as_deref();
        let Some(paths) = op_paths(op, target) else { return Scope::Full };
        for p in paths {
            insert_with_parent(&mut set, p);
            for tree in [oracle.before(s), oracle.after(s)] {
                for a in alias_set(tree, p) {
                    insert_with_parent(&mut set, &a);
                }
            }
        }
    }
    Scope::Paths(set)
}

fn insert_with_parent(set: &mut BTreeSet<String>, p: &str) {
    set.insert(p.to_string());
    if let Some(idx) = p.rfind('/') {
        set.insert(if idx == 0 { "/".to_string() } else { p[..idx].to_string() });
    }
}

/// The replay's last-known-persistent image (every write a fence, or under
/// eADR landing at all, made durable) with its running content hash. While
/// taping, every write also records the bytes it overwrote, so the prefix
/// cache can step the image back across syscall boundaries.
pub(crate) struct BaseImage {
    image: ImageLease,
    /// Incremental content hash of `image`.
    key: ImageKey,
    tape: Option<TapeSeg>,
}

/// The undo records of one stretch of writes to a [`BaseImage`], and the
/// image's key before them.
pub(crate) struct TapeSeg {
    undo: Vec<(u64, Vec<u8>)>,
    key_before: ImageKey,
}

impl BaseImage {
    /// The all-zero image (which hashes to 0), not taping.
    pub fn zeroed(len: u64) -> Self {
        BaseImage { image: ImageLease::zeroed(len), key: 0, tape: None }
    }

    /// The image's length in bytes.
    pub fn len(&self) -> u64 {
        self.image.len() as u64
    }

    /// Applies one write, maintaining the hash (the write's carried key
    /// replaces the bytes it overwrites) and the open tape segment.
    fn apply(&mut self, w: &PendingWrite) {
        let o = w.off as usize;
        let old = &self.image[o..o + w.data.len()];
        self.key ^= w.key() ^ pmem::span_key(w.off, old);
        if let Some(seg) = &mut self.tape {
            seg.undo.push((w.off, old.to_vec()));
        }
        self.image.write(w.off, &w.data);
    }

    /// Starts taping: opens an empty segment at the current image.
    pub fn start_tape(&mut self) {
        self.tape = Some(TapeSeg { undo: Vec::new(), key_before: self.key });
    }

    /// Closes the open tape segment, returning it, and opens the next.
    pub fn cut(&mut self) -> TapeSeg {
        let next = TapeSeg { undo: Vec::new(), key_before: self.key };
        std::mem::replace(self.tape.as_mut().expect("taping"), next)
    }

    /// Stops taping, rolling back the writes of the open segment so the
    /// image rests where the last [`cut`](BaseImage::cut) left it.
    pub fn end_tape(&mut self) {
        if let Some(seg) = self.tape.take() {
            self.rewind(&seg);
        }
    }

    /// Undoes the writes of `seg`, the segment cut last.
    pub fn rewind(&mut self, seg: &TapeSeg) {
        for (off, old) in seg.undo.iter().rev() {
            self.image.write(*off, old);
        }
        self.key = seg.key_before;
    }
}

/// Everything the replay carries from one syscall boundary to the next
/// besides the durable image: the one value the prefix cache checkpoints.
#[derive(Clone, Default)]
pub(crate) struct ReplayState {
    /// In-flight writes since the last fence.
    pending: Vec<PendingWrite>,
    /// Writes absorbed into the base image (fences crossed, or eADR stores
    /// applied) since the current op began — cleared at every
    /// `SyscallBegin`. The behavioral signature hashes these alongside a
    /// state's subset so the signature is anchored at the base image *as of
    /// op start*: the state after fence `k` absorbs signs identically whether
    /// its writes are still pending or already in the base. Kept in the same
    /// coalesced/uncoalesced form the subset enumeration uses.
    op_absorbed: Vec<PendingWrite>,
    /// Which ops still have writes in `pending` (for scope computation).
    pending_seqs: BTreeSet<usize>,
    /// Whether any pending write predates the first marker.
    pending_unknown: bool,
    /// The last completed op.
    last_done: Option<usize>,
    /// Whether the first syscall marker has been seen (mkfs writes precede
    /// it and are never crash points).
    started: bool,
    /// Cross-point artifact memo.
    memo: CrossMemo,
    /// Behavioral classes ([`TestConfig::rep_check`]): signature → violated.
    rep: FxHashMap<u128, bool>,
}

impl ReplayState {
    /// The state's half of [`ReplayEngine::step`]: moves one log entry into
    /// the state and `base` without visiting any crash point. `cur_op` is
    /// the op in progress. Returns whether the entry was a store made
    /// durable on landing (eADR), which is a crash point of its own.
    pub fn advance(
        &mut self,
        entry: &LogEntry,
        cur_op: Option<usize>,
        base: &mut BaseImage,
        cfg: &TestConfig,
    ) -> bool {
        match entry {
            LogEntry::Marker(Marker::SyscallBegin(_)) => {
                self.started = true;
                self.op_absorbed.clear();
            }
            LogEntry::Marker(Marker::SyscallEnd { seq, .. }) => self.last_done = Some(*seq),
            // eADR fences order stores that are already durable.
            LogEntry::Fence if cfg.eadr => {}
            LogEntry::Fence => {
                let pending = std::mem::take(&mut self.pending);
                for w in &pending {
                    base.apply(w);
                }
                // Absorbed writes keep contributing to behavioral signatures
                // (in the same shape the subset enumeration saw them) until
                // the next op begins.
                if cfg.coalesce_data {
                    self.op_absorbed.extend(coalesce(&pending));
                } else {
                    self.op_absorbed.extend(pending);
                }
                self.pending_seqs.clear();
                self.pending_unknown = false;
            }
            e => {
                let Some(w) = PendingWrite::from_entry(e) else { return false };
                if cfg.eadr {
                    // Persistent caches: durable the moment it lands.
                    base.apply(&w);
                    self.op_absorbed.push(w);
                    return true;
                }
                match cur_op.or(self.last_done) {
                    Some(s) => {
                        self.pending_seqs.insert(s);
                    }
                    None => self.pending_unknown = true,
                }
                self.pending.push(w);
            }
        }
        false
    }
}

/// The crash-state construction and checking stage as a resumable machine:
/// [`step`](ReplayEngine::step) consumes one log entry at a time, and
/// between syscalls the engine is wholly described by its [`BaseImage`] and
/// its [`ReplayState`]. The prefix cache checkpoints both at every syscall
/// boundary and starts a later workload's engine from them.
pub(crate) struct ReplayEngine<'a, K: FsKind> {
    kind: &'a K,
    workload: &'a Workload,
    cfg: &'a TestConfig,
    oracle: &'a Oracle,
    rec_results: &'a [OpResult],
    guarantees: vfs::Guarantees,
    /// The last-known-persistent image (all pending writes drained).
    pub base: BaseImage,
    /// The resumable rest of the replay.
    pub state: ReplayState,
    /// The last crash scope built, keyed by what it depends on besides the
    /// engine's fixed inputs: `(seq, pending_seqs, pending_unknown)`. The
    /// crash points of one op share it until a write of another op is left
    /// pending, so it is built about once per op rather than once per point,
    /// and every memo entry walked under it shares it too.
    scope: Option<(usize, BTreeSet<usize>, bool, Arc<Scope>)>,
    scratch: PointScratch,
    cur_op: Option<usize>,
    /// Stop-on-first fired; no further entries should be fed.
    pub stop: bool,
}

/// The verdict of replaying exactly one crash state (see [`check_one_state`]).
#[derive(Debug, Clone)]
pub struct StateProbe {
    /// The check's verdict (`None`: the state is consistent).
    pub violation: Option<Violation>,
    /// Index of the system call the crash point belongs to.
    pub op_seq: usize,
    /// Description of that system call.
    pub op_desc: String,
    /// Crash point position.
    pub phase: CrashPhase,
    /// Number of (coalesced) in-flight writes at the point — the universe
    /// the subset indexes into.
    pub n_writes: usize,
}

impl<'a, K: FsKind> ReplayEngine<'a, K> {
    /// An engine resuming from `base` and `state` (a fresh run passes the
    /// zeroed image and the default state).
    pub fn new(
        kind: &'a K,
        workload: &'a Workload,
        cfg: &'a TestConfig,
        oracle: &'a Oracle,
        rec_results: &'a [OpResult],
        base: BaseImage,
        state: ReplayState,
    ) -> Self {
        ReplayEngine {
            kind,
            workload,
            cfg,
            oracle,
            rec_results,
            guarantees: kind.guarantees(),
            base,
            state,
            scope: None,
            scratch: PointScratch::default(),
            cur_op: None,
            stop: false,
        }
    }

    /// The crash scope of a point at op `seq` with the current pending
    /// writes: the cached one when its key still holds, else built and
    /// cached.
    fn scope_for(&mut self, seq: usize) -> Arc<Scope> {
        let build = |e: &Self| {
            crash_scope(
                e.workload,
                e.rec_results,
                e.oracle,
                seq,
                &e.state.pending_seqs,
                e.state.pending_unknown,
                e.cfg,
            )
        };
        let st = &self.state;
        if let Some((s, seqs, unknown, scope)) = &self.scope {
            if *s == seq && *seqs == st.pending_seqs && *unknown == st.pending_unknown {
                debug_assert_eq!(**scope, build(self), "cached crash scope is stale");
                return Arc::clone(scope);
            }
        }
        let scope = Arc::new(build(self));
        self.scope =
            Some((seq, st.pending_seqs.clone(), st.pending_unknown, Arc::clone(&scope)));
        scope
    }

    /// Consumes one log entry, visiting the crash points it creates and
    /// committing their results into `out`.
    pub fn step(&mut self, entry: &LogEntry, out: &mut TestOutcome) {
        let strong = self.guarantees.strong;
        match entry {
            LogEntry::Marker(Marker::SyscallBegin(OpRecord { seq, .. })) => {
                self.cur_op = Some(*seq)
            }
            LogEntry::Marker(Marker::SyscallEnd { .. }) => self.cur_op = None,
            // An ADR fence with writes in flight is a crash point before it
            // drains them into the base image.
            LogEntry::Fence
                if !self.cfg.eadr
                    && strong
                    && self.state.started
                    && !self.state.pending.is_empty() =>
            {
                self.visit_mid_op(false, out)
            }
            _ => {}
        }
        let durable_store = self.state.advance(entry, self.cur_op, &mut self.base, self.cfg);
        if let LogEntry::Marker(Marker::SyscallEnd { seq, .. }) = entry {
            self.visit_op_end(*seq, out);
        } else if durable_store && strong && self.state.started {
            // eADR: the instant after any store is a real crash state — not
            // just fence boundaries. (A torn in-place update is only visible
            // *between* the stores that make it up; see bug 19.) Fences are
            // pure ordering points: the state at one equals the state after
            // the last store, already checked there.
            self.visit_mid_op(true, out);
        }
    }

    /// The crash point at the end of op `seq`: synchrony of every mutating
    /// op under strong guarantees, of `fsync`/`sync` under weak ones.
    fn visit_op_end(&mut self, seq: usize, out: &mut TestOutcome) {
        let op = &self.workload.ops[seq];
        if !op.is_mutating() {
            return;
        }
        if self.guarantees.strong {
            let check = CheckKind::Synchrony { cur: self.oracle.after(seq) };
            self.visit(seq, CrashPhase::AfterSyscall, &check, true, false, out);
        } else if matches!(op.kind(), SyscallKind::Fsync | SyscallKind::Sync) {
            let target = self.rec_results[seq].target.as_deref();
            let target = if op.kind() == SyscallKind::Sync { None } else { target };
            let check = CheckKind::WeakFsync { cur: self.oracle.after(seq), target };
            self.visit(seq, CrashPhase::AfterFsync, &check, true, false, out);
        }
    }

    /// The crash point a fence (ADR) or a store (eADR, `durable`) creates:
    /// inside a syscall the mid-syscall atomicity check; between syscalls
    /// (deferred work) the durable state must still be the post-state of the
    /// last completed op. A `durable` store is already in `base`, so the base
    /// image is the one crash state and nothing is in flight; the stores of a
    /// non-mutating op are not crash points.
    fn visit_mid_op(&mut self, durable: bool, out: &mut TestOutcome) {
        match self.cur_op {
            Some(seq) => {
                let op = &self.workload.ops[seq];
                if durable && !op.is_mutating() {
                    return;
                }
                let relax =
                    atomicity_relax(op, self.rec_results[seq].target.as_deref(), self.guarantees);
                let check = CheckKind::Atomicity {
                    prev: self.oracle.before(seq),
                    cur: self.oracle.after(seq),
                    relax,
                };
                self.visit(seq, CrashPhase::DuringSyscall, &check, durable, durable, out);
            }
            None => {
                if let Some(seq) = self.state.last_done {
                    let check = CheckKind::Synchrony { cur: self.oracle.after(seq) };
                    self.visit(seq, CrashPhase::AfterSyscall, &check, durable, durable, out);
                }
            }
        }
    }

    /// Checks all crash states at one crash point: optionally the bare base
    /// state, then, unless `no_pending`, every enumerated subset of the
    /// in-flight writes, in canonical order on one undo-logged overlay
    /// (delta replay, [`SubsetWalker`]) that the file system is mounted on
    /// directly. Each state is decided ([`decide`]), then settled and
    /// committed ([`execute`]) before the next one is built.
    fn visit(
        &mut self,
        seq: usize,
        phase: CrashPhase,
        check: &CheckKind<'_>,
        check_base: bool,
        no_pending: bool,
        out: &mut TestOutcome,
    ) {
        let Some((mut p, mut walker)) =
            PointCtx::new(self, seq, phase, check, check_base, no_pending, out)
        else {
            return;
        };
        let stopped = p.subsets.iter().any(|subset| {
            walker.goto(p.writes, subset);
            let d = decide(&p, walker.key(), subset);
            execute(&mut p, d, &mut walker, subset, out)
        });
        drop(walker); // it borrows the engine's base image
        self.stop |= stopped;
    }
}

/// Replays exactly one crash state of a workload: the crash point with
/// global ordinal `point` (a full run's [`BugReport::point`]), with the
/// in-flight write subset `subset` applied — the primitive behind
/// repro-bundle replay and the shrinker's crash-subset ddmin pass. It is
/// the literal reference's single-state walk ([`mod@reference`]) on the
/// page-sparse [`ForkDevice`]: one oracle run and one recorded run, then a
/// log walk that counts crash points up to the target and checks that one
/// state through [`check_crash_state`].
///
/// Errors are infrastructure problems (oracle/mkfs failure, ordinal or
/// subset index out of range), not violations.
pub fn check_one_state<K: FsKind>(
    kind: &K,
    workload: &Workload,
    cfg: &TestConfig,
    point: u64,
    subset: &[usize],
) -> Result<StateProbe, String> {
    reference::check_one(kind, workload, cfg, ForkDevice::new, point, subset)
}

/// Memoized artifacts of one checked crash-state *image*, keyed by content
/// hash in [`CrossMemo`]: a later crash point that reconstructs the same
/// bytes reuses the mount/walk (and probe) results instead of remounting.
/// Only the oracle comparison depends on the crash point, so it always
/// re-runs.
#[derive(Clone)]
struct StateArtifacts {
    /// Mount + tree-walk outcome (check stages 1–2).
    pre: Result<Arc<Tree>, Violation>,
    /// The scope the memoized walk ran under, shared with the crash points
    /// that built it. Reuse at a later point requires compatibility (see
    /// [`decide`]).
    walked: Arc<Scope>,
    /// Coverage hit during mount + walk.
    cov_mw: Arc<HashSet<u64>>,
    /// Injected-bug trace hit during mount + walk.
    trace_mw: Arc<BTreeSet<BugId>>,
    /// Probe outcome (stage 4), filled lazily the first time a state with
    /// this image passes its oracle comparison.
    probe: Option<ProbeArtifacts>,
}

#[derive(Clone)]
struct ProbeArtifacts {
    violation: Option<Violation>,
    /// Coverage snapshot of the run that filled the probe. Absorption is by
    /// set union, so it may be a superset of the probe-only hits (the fresh
    /// fill includes mount + walk) without affecting the merged totals.
    cov: Arc<HashSet<u64>>,
    trace: Arc<BTreeSet<BugId>>,
}

/// Per-workload cross-point memo: crash states whose *content* (base image
/// plus replayed subset) recurs at a later crash point reuse the memoized
/// mount/walk/probe artifacts instead of remounting. Bounded: new keys are
/// refused once [`MEMO_CAP`] is reached; updates of existing keys (probe
/// fills) always land. A key repeated *within* a crash point never reaches
/// the memo — in-point dedup replays the first occurrence's result. Keyed
/// by image keys, which are hashes already: the map only folds them.
type CrossMemo = FxHashMap<ImageKey, StateArtifacts>;

const MEMO_CAP: usize = 4096;

/// At most this many behavioral classes per workload ([`ReplayState::rep`]):
/// past the cap, states of a new class check normally with no class
/// accounting.
const REP_CAP: usize = 1 << 16;

// Distinct term namespaces for the crash-point context hash.
const CTX_SEQ: u64 = 0x7b4d_1f2e_9c6a_5d30;
const CTX_CHECK: u64 = 0x1c9a_7e55_3b21_d6f4;
const CTX_TARGET: u64 = 0x642e_0b8a_f17c_3d59;
const CTX_SCOPE: u64 = 0xd3ab_56c1_88ee_0f27;
const CTX_DROP: u64 = 0x21f7_c4e9_0a5d_b863;

fn path_term(tag: u64, p: &str) -> u128 {
    pmem::span_key(0, p.as_bytes()) ^ pmem::run_term(tag, p.len() as u64)
}

/// The check-context half of a behavioral signature: everything besides the
/// replayed overlay that can change a state's verdict. Two states may share
/// a class only when they are checked at the same op (`seq` pins the oracle
/// trees the check references), under the same check kind and relaxation,
/// and with the same comparison scope. Together with
/// [`crashgen::behavior_sig`]'s anchoring at the base image as of op start,
/// equal signatures mean "same check applied to behaviorally equal images".
fn rep_context(seq: usize, phase: CrashPhase, check: &CheckKind<'_>, scope: &Scope) -> u128 {
    let mut h = pmem::run_term(CTX_SEQ ^ (seq as u64), phase as u64);
    let (ck, relax, target) = match check {
        CheckKind::Synchrony { .. } => (1u64, 0u64, None),
        CheckKind::Atomicity { relax, .. } => match relax {
            DataRelax::None => (2, 0, None),
            DataRelax::Torn(t) => (2, 1, Some(*t)),
            DataRelax::Atomic(t) => (2, 2, Some(*t)),
        },
        CheckKind::WeakFsync { target, .. } => (3, 0, *target),
    };
    h ^= pmem::run_term(CTX_CHECK ^ ck, relax);
    if let Some(t) = target {
        h ^= path_term(CTX_TARGET, t);
    }
    match scope {
        Scope::Full => h ^= pmem::run_term(CTX_SCOPE, u64::MAX),
        Scope::Paths(set) => {
            for p in set {
                h ^= path_term(CTX_SCOPE, p);
            }
        }
    }
    h
}

/// The result of checking one crash state on a fresh-sink factory clone:
/// the violation (if any) plus the instrumentation the check produced, so
/// the caller can merge it back at commit. The default is the committed
/// result of a skip: clean, no artifacts, no instrumentation (the state was
/// never mounted).
#[derive(Default)]
struct CheckRes {
    violation: Option<Violation>,
    cov: Vec<Arc<HashSet<u64>>>,
    trace: Vec<Arc<BTreeSet<BugId>>>,
    /// Memo entry to store at commit: fresh artifacts, or a probe fill for
    /// an existing entry.
    art: Option<StateArtifacts>,
    /// This state was re-checked on the slow full-walk fresh-device path
    /// after a sandbox violation under a fast path (see [`finalize_check`]).
    sandbox_retry: bool,
    /// The fuel watchdog fired while checking this state (pre- or
    /// post-retry).
    fuel_fired: bool,
    /// Node comparisons skipped by the shared-oracle hash fast path while
    /// checking this state (see [`TestConfig::shared_oracle`]).
    pruned: u64,
}

/// Whether a staged verdict came from the sandbox (panic/hang) rather than
/// from a consistency check. Sandbox verdicts are never memoized — they may
/// be fast-path artifacts until the slow-path retry confirms them.
fn is_sandbox_violation(v: &Violation) -> bool {
    matches!(v, Violation::RecoveryPanic { .. } | Violation::RecoveryHang { .. })
}

/// Check stages 1–4 on a prepared device, walking and comparing under `ws`.
/// `fresh` must carry private coverage/trace sinks. Non-sandbox verdicts
/// carry their artifacts for the cross-point memo.
fn check_staged<K: FsKind, D: pmem::PmBackend>(
    fresh: &K,
    dev: D,
    check: &CheckKind<'_>,
    cfg: &TestConfig,
    ws: &Arc<Scope>,
) -> CheckRes {
    let sinks = || {
        let o = fresh.options();
        (Arc::new(o.cov.snapshot()), Arc::new(o.trace.snapshot()))
    };
    let (pre, mut fs) = match sandbox::mount_walk(fresh, dev, ws, cfg) {
        Ok((fs, tree)) => (Ok(Arc::new(tree)), Some(fs)),
        Err(v) => (Err(v), None),
    };
    let (cov_mw, trace_mw) = sinks();
    let mut pruned = 0;
    let mut probe = None;
    let violation = match (&pre, fs.as_mut()) {
        (Ok(tree), Some(fs)) => match sandbox::compare(tree, check, cfg, ws, &mut pruned) {
            None if cfg.probe => {
                let violation = sandbox::probe(fs, tree, cfg);
                let (cov, trace) = sinks();
                probe.insert(ProbeArtifacts { violation, cov, trace }).violation.clone()
            }
            v => v,
        },
        (pre, _) => pre.clone().err(),
    };
    let (cov, trace) = match &probe {
        Some(p) => (p.cov.clone(), p.trace.clone()),
        None => (cov_mw.clone(), trace_mw.clone()),
    };
    let memoizable = !violation.as_ref().is_some_and(is_sandbox_violation);
    let art = StateArtifacts { pre, walked: Arc::clone(ws), cov_mw, trace_mw, probe };
    let art = memoizable.then_some(art);
    CheckRes { violation, cov: vec![cov], trace: vec![trace], art, pruned, ..Default::default() }
}

/// Replays a memo hit at this crash point: mount/walk artifacts come from
/// the memo and the oracle comparison re-runs. If the comparison passes and
/// no probe outcome was recorded yet, `dev` is mounted again for the probe.
fn resolve_memo_hit<K: FsKind, D: pmem::PmBackend>(
    art: &StateArtifacts,
    fresh: &K,
    dev: D,
    check: &CheckKind<'_>,
    cfg: &TestConfig,
    scope: &Scope,
) -> CheckRes {
    let mut res = CheckRes {
        cov: vec![art.cov_mw.clone()],
        trace: vec![art.trace_mw.clone()],
        ..Default::default()
    };
    res.violation = match &art.pre {
        Err(v) => Some(v.clone()),
        Ok(tree) => match sandbox::compare(tree, check, cfg, scope, &mut res.pruned) {
            None if cfg.probe => {
                let p = art.probe.clone().unwrap_or_else(|| {
                    // One fuel budget covers the re-mount and the probe,
                    // mirroring the fresh check's mount+walk / probe budgets.
                    let fuel = pmem::FuelGuard::arm(cfg.recovery_fuel);
                    let violation = match sandbox::guarded(Stage::Mount, || fresh.mount(dev)) {
                        Err(v) => Some(v),
                        // Identical bytes mounted before; defensive.
                        Ok(Err(e)) => Some(Violation::Unmountable(e.to_string())),
                        Ok(Ok(mut fs)) => {
                            sandbox::guarded(Stage::Probe, || probe_state(&mut fs, tree))
                                .unwrap_or_else(Some)
                        }
                    };
                    drop(fuel);
                    let o = fresh.options();
                    let (cov, trace) = (Arc::new(o.cov.snapshot()), Arc::new(o.trace.snapshot()));
                    let p = ProbeArtifacts { violation, cov, trace };
                    // A sandboxed probe verdict may be a fast-path artifact;
                    // keep it out of the memo so later points re-probe (and
                    // re-verify) rather than inherit it.
                    if !p.violation.as_ref().is_some_and(is_sandbox_violation) {
                        res.art = Some(StateArtifacts { probe: Some(p.clone()), ..art.clone() });
                    }
                    p
                });
                res.cov.push(p.cov);
                res.trace.push(p.trace);
                p.violation
            }
            v => v,
        },
    };
    res
}

/// Per-point buffers, engine-owned: the prefix cache clones [`ReplayState`].
#[derive(Default)]
struct PointScratch {
    writes: Vec<PendingWrite>,
    subsets: SubsetList,
    seen: FxHashMap<ImageKey, CheckRes>,
    audit: Option<SkipAudit>,
}

/// One crash point, built once per point: the tables [`decide`] reads and
/// what [`execute`] checks and commits with.
struct PointCtx<'a, K: FsKind> {
    kind: &'a K,
    workload: &'a Workload,
    cfg: &'a TestConfig,
    seq: usize,
    phase: CrashPhase,
    check: &'a CheckKind<'a>,
    /// Global crash-point ordinal (0-based), stamped into reports so a
    /// single state can be re-targeted.
    point: u64,
    /// The crash scope, which folds `cfg.scoped_check` in and so is also
    /// the walk scope of every state at the point.
    scope: Arc<Scope>,
    base: &'a [u8],
    /// The in-flight writes (coalesced under `cfg.coalesce_data`).
    writes: &'a [PendingWrite],
    subsets: &'a SubsetList,
    /// In-point dedup: the results committed at the point, by image key.
    seen: &'a mut FxHashMap<ImageKey, CheckRes>,
    memo: &'a mut CrossMemo,
    rep: &'a mut FxHashMap<u128, bool>,
    /// The point's half of every state's behavioral signature (context
    /// hash, per-write terms); `None` without [`TestConfig::rep_check`].
    signer: Option<(u128, SigCache<'a>)>,
    /// The read footprints ([`crate::footprint`]); `None` at a point with
    /// no signer or too few states.
    fp: Option<FpSet>,
    audit: Option<&'a mut SkipAudit>,
}

impl<'a, K: FsKind> PointCtx<'a, K> {
    /// The crash point of op `seq` over the engine's base image and its
    /// in-flight writes (none with `no_pending`), counted into `out`, with
    /// the walker over its states; `None` when it has no state to check.
    fn new(
        e: &'a mut ReplayEngine<'_, K>,
        seq: usize,
        phase: CrashPhase,
        check: &'a CheckKind<'a>,
        check_base: bool,
        no_pending: bool,
        out: &mut TestOutcome,
    ) -> Option<(Self, SubsetWalker<'a>)> {
        let (scope, cfg) = (e.scope_for(seq), e.cfg);
        let st = &mut e.state;
        let pending: &[PendingWrite] = if no_pending { &[] } else { &st.pending };
        out.crash_points += 1;
        out.inflight_sizes.push(pending.len());
        let PointScratch { writes, subsets, seen, audit } = &mut e.scratch;
        coalesce_into(pending, cfg.coalesce_data, writes);
        let writes: &[PendingWrite] = writes;
        let (cap, max, large) = (cfg.cap, cfg.max_states_per_point, cfg.large_first_subsets);
        enumerate_subsets_into(writes.len(), cap, max, large, check_base, subsets);
        if subsets.len() == 0 {
            return None;
        }
        debug_assert_eq!(*scope, walk_scope(cfg, &scope));
        let signer = cfg.rep_check.then(|| {
            // Torn-data drop (see [`crashgen::behavior_sig`]): the check
            // tolerates any old/new/zero byte mix in the written file, the FS
            // cannot turn torn data into a read error, every in-flight write
            // is the relaxed op's, and no data write leaves a value a later
            // one replaces. The mode is folded into the context hash so a
            // dropped-data class never aliases an exact-data one.
            let drop = matches!(check, CheckKind::Atomicity { relax: DataRelax::Torn(_), .. })
                && !e.guarantees.data_checksums
                && !st.pending_unknown
                && st.pending_seqs.iter().all(|&s| s == seq)
                && !data_shadowing_unsafe(writes);
            let mut ctx = rep_context(seq, phase, check, &scope);
            if drop {
                ctx ^= pmem::run_term(CTX_DROP, 1);
            }
            (ctx, SigCache::new(writes, &st.op_absorbed, drop))
        });
        seen.clear();
        let footprints = signer.is_some() && subsets.len() >= FP_MIN_STATES;
        let p = PointCtx {
            kind: e.kind,
            workload: e.workload,
            cfg,
            seq,
            phase,
            check,
            point: out.crash_points - 1,
            scope,
            base: &e.base.image,
            writes,
            subsets,
            seen,
            memo: &mut st.memo,
            rep: &mut st.rep,
            signer,
            fp: footprints.then(FpSet::default),
            audit: audit.as_mut(),
        };
        Some((p, SubsetWalker::new(&e.base.image, e.base.key)))
    }

    /// `subset`'s state checked the literal way on a fresh-sink clone, and
    /// that clone: [`check_crash_state`] under [`reference::literal`].
    fn literal(&self, subset: &[usize]) -> (Option<Violation>, K) {
        let fresh = self.kind.with_options(self.kind.options().with_fresh_sinks());
        let lit = reference::literal(self.cfg);
        (check_crash_state(&fresh, self.base, self.writes, subset, self.check, &lit), fresh)
    }
}

/// How one crash state is settled. A `Some` claim is the signature of the
/// behavioral class the state opens, violated or not by its own verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StateDecision {
    /// Its image was committed earlier at the point: replay that result.
    Dedup,
    /// Its image agrees with a recorded clean footprint on every word that
    /// check read, so the check would replay the recorder's: commit clean.
    FootprintSkip(Option<u128>),
    /// Its class has a violation-free representative: commit clean. The
    /// one lossy layer ([`TestConfig::rep_check`]).
    ClassSkip,
    /// Its image was checked at an earlier point under a compatible walk:
    /// reuse that mount/walk/probe and re-run only the comparison.
    MemoHit(Option<u128>),
    Check(Option<u128>),
    /// Check it under a read tracker, recording a footprint.
    CheckAndRecord(Option<u128>),
    /// Its class is known violated: check it, through a compatible memo
    /// entry when `memo`.
    Expand { memo: bool },
}

/// The one per-state decision: a pure function of the point's tables and
/// the state's image key and subset. Dedup comes first; a violated class
/// expands; a footprint match beats the class plan (a skipped claimer still
/// opens its class, clean, but never checked, so it is not a counted
/// class); a clean class skips; then a compatible memo entry, and the
/// recorder while the point still wants one.
///
/// A memoized *successful* walk under a covering scope read (at least) every
/// byte this point's comparison can touch, so its tree substitutes exactly.
/// A *failed* walk is only equivalent when the scopes match: a wider walk
/// may fail on corrupt file data that a narrower walk never reads. A walk
/// under this very scope (the same `Arc`, built for an earlier point of the
/// op) is both.
fn decide<K: FsKind>(p: &PointCtx<'_, K>, key: ImageKey, subset: &[usize]) -> StateDecision {
    if p.seen.contains_key(&key) {
        return StateDecision::Dedup;
    }
    let sig = p.signer.as_ref().map(|(ctx, cache)| ctx ^ cache.sig(subset));
    let class = sig.and_then(|s| p.rep.get(&s).copied());
    let memo = p.memo.get(&key).is_some_and(|a| match &a.pre {
        _ if Arc::ptr_eq(&a.walked, &p.scope) => true,
        Ok(_) => a.walked.covers(&p.scope),
        Err(_) => a.walked == p.scope,
    });
    if class == Some(true) {
        return StateDecision::Expand { memo };
    }
    let claim = sig.filter(|_| class.is_none() && p.rep.len() < REP_CAP);
    match &p.fp {
        Some(fp) if fp.matches(p.base, p.writes, subset) => StateDecision::FootprintSkip(claim),
        _ if class.is_some() => StateDecision::ClassSkip,
        _ if memo => StateDecision::MemoHit(claim),
        Some(fp) if fp.want_record() => StateDecision::CheckAndRecord(claim),
        _ => StateDecision::Check(claim),
    }
}

/// The executor: settles the state under `walker` as `d` says, commits it
/// and updates the point's tables. Returns whether stop-on-first fired.
fn execute<K: FsKind>(
    p: &mut PointCtx<'_, K>,
    d: StateDecision,
    walker: &mut SubsetWalker<'_>,
    subset: &[usize],
    out: &mut TestOutcome,
) -> bool {
    use StateDecision::*;
    let key = walker.key();
    let mut fresh = None;
    let res = match d {
        Dedup => &p.seen[&key],
        FootprintSkip(_) | ClassSkip => &fresh.insert((CheckRes::default(), None)).0,
        _ => {
            let kind = p.kind.with_options(p.kind.options().with_fresh_sinks());
            let (cfg, check, scope) = (p.cfg, p.check, &p.scope);
            let mark = walker.mark();
            let (staged, words) = match d {
                MemoHit(_) | Expand { memo: true } => {
                    let dev = &mut *walker.device();
                    (resolve_memo_hit(&p.memo[&key], &kind, dev, check, cfg, scope), None)
                }
                CheckAndRecord(_) => {
                    let mut tracker = pmem::ReadTracker::new(walker.device(), FP_WORD_CAP);
                    let r = check_staged(&kind, &mut tracker, check, cfg, scope);
                    (r, tracker.clean_words())
                }
                _ => (check_staged(&kind, &mut *walker.device(), check, cfg, scope), None),
            };
            walker.undo_to(mark);
            &fresh.insert((finalize_check(p, subset, staged), words)).0
        }
    };
    if let Some(audit) = p.audit.take() {
        audit.audit_state(p, d, &res.violation, walker, subset);
        p.audit = Some(audit);
    }
    let stopped = commit_state(p, d, res, key, subset, out);
    let Some((mut res, words)) = fresh else { return stopped };
    let room = p.memo.len() < MEMO_CAP || p.memo.contains_key(&key);
    if let Some(a) = res.art.take().filter(|_| room) {
        p.memo.insert(key, a);
    }
    if stopped {
        return true;
    }
    if let (CheckAndRecord(_), Some(fp)) = (d, p.fp.as_mut()) {
        // Only a clean, unretried check whose reads fit the cap seeds a
        // footprint; any other outcome closes recording for the point.
        match words.filter(|_| !res.sandbox_retry && res.violation.is_none()) {
            Some(w) => fp.record(w, p.base, p.writes, subset),
            None => fp.give_up(),
        }
    }
    if let FootprintSkip(Some(sig)) | MemoHit(Some(sig)) | Check(Some(sig))
    | CheckAndRecord(Some(sig)) = d
    {
        p.rep.insert(sig, res.violation.is_some());
    }
    p.seen.insert(key, res);
    false
}

/// Applies the slow-path retry rule to a freshly checked state: a sandbox
/// verdict (panic/hang) is re-checked once the literal way (private
/// overlay, full walk, full unpruned compare) and the slow verdict wins.
/// The sandbox stays on for the retry, so a deterministic FS panic still
/// surfaces as a `RecoveryPanic` — now provably not a fast-path artifact.
fn finalize_check<K: FsKind>(p: &PointCtx<'_, K>, subset: &[usize], mut res: CheckRes) -> CheckRes {
    res.fuel_fired = matches!(res.violation, Some(Violation::RecoveryHang { .. }));
    if !res.violation.as_ref().is_some_and(is_sandbox_violation) {
        return res;
    }
    let (violation, fresh) = p.literal(subset);
    CheckRes {
        fuel_fired: res.fuel_fired || matches!(violation, Some(Violation::RecoveryHang { .. })),
        violation,
        cov: vec![Arc::new(fresh.options().cov.snapshot())],
        trace: vec![Arc::new(fresh.options().trace.snapshot())],
        sandbox_retry: true,
        ..Default::default()
    }
}

/// Commits one crash state's result in canonical order: counters (the
/// fast-path ones a fold over `d`), sink absorption, report. Returns `true`
/// when stop-on-first fires.
fn commit_state<K: FsKind>(
    p: &PointCtx<'_, K>,
    d: StateDecision,
    res: &CheckRes,
    key: ImageKey,
    subset: &[usize],
    out: &mut TestOutcome,
) -> bool {
    use StateDecision::*;
    out.crash_states += 1;
    if p.cfg.collect_state_keys {
        out.state_keys.push((key as u64) ^ ((key >> 64) as u64));
    }
    // A memo hit the sandbox retry re-checked from scratch reused nothing.
    let memo = !res.sandbox_retry as u64;
    match d {
        Dedup => out.dedup_hits += 1,
        FootprintSkip(_) | ClassSkip => out.rep_skipped += 1,
        MemoHit(c) => {
            out.memo_hits += memo;
            out.rep_classes += c.is_some() as u64;
        }
        Check(c) | CheckAndRecord(c) => out.rep_classes += c.is_some() as u64,
        Expand { memo: m } => {
            out.memo_hits += memo * m as u64;
            out.rep_expansions += 1;
        }
    }
    // Dup replays recount like any other replayed verdict.
    let v = res.violation.as_ref();
    out.recovery_panics += matches!(v, Some(Violation::RecoveryPanic { .. })) as u64;
    out.recovery_hangs += matches!(v, Some(Violation::RecoveryHang { .. })) as u64;
    out.sandbox_retries += res.sandbox_retry as u64;
    out.fuel_exhausted += res.fuel_fired as u64;
    out.oracle_subtrees_pruned += res.pruned;
    for c in &res.cov {
        p.kind.options().cov.absorb(c);
    }
    for t in &res.trace {
        p.kind.options().trace.absorb(t);
    }
    let Some(v) = v else { return false };
    push_report(
        out,
        BugReport {
            workload: p.workload.name.clone(),
            op_seq: p.seq,
            op_desc: p.workload.ops[p.seq].describe(),
            phase: p.phase,
            subset: describe_subset(p.writes, subset),
            point: Some(p.point),
            subset_ids: subset.to_vec(),
            violation: v.clone(),
        },
    );
    p.cfg.stop_on_first
}

/// What [`audit_skips`] re-checked on one workload.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct SkipAudit {
    /// Dedup and memo hits: each verdict equals the literal one, and each
    /// image digests as the image its key was first seen with.
    pub hash_hits: u64,
    /// Footprint skips, each literally clean.
    pub footprint_skips: u64,
    /// Class skips.
    pub class_skips: u64,
    /// Class skips the literal check finds violated.
    pub class_violated: u64,
    /// Each key's full-image digest: std's `DefaultHasher`, not `pmem`'s.
    digests: FxHashMap<ImageKey, u64>,
    /// Class skips' `(point, key)`: a dedup of one audits only its digest.
    class_keys: HashSet<(u64, ImageKey)>,
}

impl SkipAudit {
    fn audit_state<K: FsKind>(
        &mut self,
        p: &PointCtx<'_, K>,
        d: StateDecision,
        verdict: &Option<Violation>,
        walker: &mut SubsetWalker<'_>,
        subset: &[usize],
    ) {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        use StateDecision::*;
        let (key, mut image) = (walker.key(), vec![0; p.base.len()]);
        walker.device().read(0, &mut image);
        let digest = BuildHasherDefault::<DefaultHasher>::default().hash_one(&image);
        let first = *self.digests.entry(key).or_insert(digest);
        let at = (&p.workload.name, p.point, subset);
        match d {
            Check(_) | CheckAndRecord(_) | Expand { memo: false } => {}
            Dedup | MemoHit(_) | Expand { memo: true } => {
                self.hash_hits += 1;
                assert_eq!(first, digest, "{at:?}: image key {key:#x} names two images");
                if !self.class_keys.contains(&(p.point, key)) {
                    assert_eq!(*verdict, p.literal(subset).0, "{at:?}: {d:?} is not literal");
                }
            }
            FootprintSkip(_) => {
                self.footprint_skips += 1;
                assert_eq!(p.literal(subset).0, None, "{at:?}: footprint skip of a violated state");
            }
            ClassSkip => {
                self.class_skips += 1;
                self.class_violated += p.literal(subset).0.is_some() as u64;
                self.class_keys.insert((p.point, key));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ext4dax::Ext4DaxKind;
    use vfs::Op;

    fn w(name: &str, ops: Vec<Op>) -> Workload {
        Workload::new(name, ops)
    }

    #[test]
    fn ext4dax_clean_workload_passes() {
        let kind = Ext4DaxKind::default();
        let wl = w(
            "basic",
            vec![
                Op::Mkdir { path: "/d".into() },
                Op::Creat { path: "/d/f".into() },
                Op::WritePath { path: "/d/f".into(), off: 0, size: 1000 },
                Op::FsyncPath { path: "/d/f".into() },
                Op::Rename { old: "/d/f".into(), new: "/g".into() },
                Op::Sync,
            ],
        );
        let out = test_workload(&kind, &wl, &TestConfig::default());
        assert!(out.reports.is_empty(), "{:#?}", out.reports);
        // Weak guarantees: crash points only at the fsync and the sync.
        assert_eq!(out.crash_points, 2);
        assert!(out.crash_states >= 2);
    }

    #[test]
    fn weak_mode_ignores_unsynced_loss() {
        // Without any fsync, no crash points exist and nothing is checked —
        // matching the paper's handling of ext4-DAX.
        let kind = Ext4DaxKind::default();
        let wl = w("nosync", vec![Op::Creat { path: "/x".into() }]);
        let out = test_workload(&kind, &wl, &TestConfig::default());
        assert_eq!(out.crash_points, 0);
        assert!(out.reports.is_empty());
    }

    #[test]
    fn failing_ops_are_consistent_with_oracle() {
        let kind = Ext4DaxKind::default();
        let wl = w(
            "enoent",
            vec![
                Op::Unlink { path: "/missing".into() },
                Op::Creat { path: "/f".into() },
                Op::FsyncPath { path: "/f".into() },
            ],
        );
        let out = test_workload(&kind, &wl, &TestConfig::default());
        assert!(out.reports.is_empty(), "{:#?}", out.reports);
    }

    /// What the production ≡ reference matrix relies on: the device under
    /// the crash-free phases is invisible to everything downstream of them.
    #[test]
    fn sparse_and_dense_devices_record_the_same_log() {
        fn both<K: FsKind>(kind: &K, wl: &Workload, cfg: &TestConfig) {
            let mut out = TestOutcome::default();
            let (so, sr, slog) =
                oracle_and_record(kind, wl, cfg, ForkDevice::new, &mut out).expect("sparse run");
            let (d_o, dr, dlog) =
                oracle_and_record(kind, wl, cfg, pmem::PmDevice::new, &mut out).expect("dense run");
            assert_eq!(slog.entries(), dlog.entries(), "{:?} eadr={}", kind.name(), cfg.eadr);
            assert_eq!(sr, dr);
            assert_eq!(so.snaps, d_o.snaps);
            assert!(out.reports.is_empty(), "{:#?}", out.reports);
        }
        let wl = w(
            "mixed",
            vec![
                Op::Mkdir { path: "/d".into() },
                Op::Creat { path: "/d/f".into() },
                Op::WritePath { path: "/d/f".into(), off: 100, size: 9000 },
                Op::FsyncPath { path: "/d/f".into() },
                Op::Rename { old: "/d/f".into(), new: "/g".into() },
                Op::Truncate { path: "/g".into(), size: 10 },
            ],
        );
        for eadr in [false, true] {
            let cfg = TestConfig { eadr, ..TestConfig::default() };
            both(&novafs::NovaKind { opts: Default::default(), fortis: true }, &wl, &cfg);
            both(&splitfs::SplitFsKind { opts: Default::default() }, &wl, &cfg);
            both(&Ext4DaxKind::default(), &wl, &cfg);
        }
    }

    #[test]
    fn outcome_counters_populate() {
        let kind = Ext4DaxKind::default();
        let wl = w(
            "counts",
            vec![
                Op::Creat { path: "/f".into() },
                Op::WritePath { path: "/f".into(), off: 0, size: 8192 },
                Op::Sync,
            ],
        );
        let out = test_workload(&kind, &wl, &TestConfig::default());
        assert!(out.reports.is_empty(), "{:#?}", out.reports);
        assert_eq!(out.inflight_sizes.len() as u64, out.crash_points);
    }

    /// [`decide`]'s precedence, one row per case: the tables a state meets
    /// and the decision they must give.
    #[test]
    fn decide_precedence() {
        use StateDecision::*;
        #[derive(Clone, Copy, PartialEq)]
        enum Fp {
            Off,
            Match,
            Record,
            GaveUp,
        }
        let (kind, wl, cfg) = (Ext4DaxKind::default(), w("t", vec![]), TestConfig::default());
        let tree = Tree::new();
        let check = CheckKind::Synchrony { cur: &tree };
        let base = vec![0u8; 64];
        let writes =
            vec![PendingWrite::new(0, vec![1; 8], false), PendingWrite::new(8, vec![2; 8], false)];
        let (key, subset, subsets) = (7, &[1][..], SubsetList::default());
        let sig = SigCache::new(&writes, &[], false).sig(subset);
        let (same, other) = (Arc::new(Scope::Full), Arc::new(Scope::Paths(BTreeSet::new())));
        // (in the dedup map, class table (`Some(violated)`, `None`: absent,
        // or at its cap), signer, footprints, memo entry (a failed walk,
        // under this or another scope), decision).
        type Row<'r> =
            (bool, Option<Option<bool>>, bool, Fp, Option<&'r Arc<Scope>>, StateDecision);
        let rows: &[Row<'_>] = &[
            // Dedup first, whatever else holds.
            (true, Some(Some(true)), true, Fp::Match, Some(&same), Dedup),
            // A footprint skip beats the class plan; a first member still
            // claims its class.
            (false, Some(Some(false)), true, Fp::Match, None, FootprintSkip(None)),
            (false, Some(None), true, Fp::Match, Some(&same), FootprintSkip(Some(sig))),
            (false, Some(Some(false)), true, Fp::Record, Some(&same), ClassSkip),
            // ...but not for a violated class, which expands, through a
            // compatible memo entry only.
            (false, Some(Some(true)), true, Fp::Match, None, Expand { memo: false }),
            (false, Some(Some(true)), true, Fp::Match, Some(&same), Expand { memo: true }),
            (false, Some(Some(true)), true, Fp::Match, Some(&other), Expand { memo: false }),
            // The memo stands in only for a compatible walk.
            (false, Some(None), true, Fp::Record, Some(&same), MemoHit(Some(sig))),
            (false, Some(None), true, Fp::Off, Some(&other), Check(Some(sig))),
            (false, Some(None), false, Fp::Off, Some(&same), MemoHit(None)),
            // The recorder runs with no memo hit, at a footprinting point
            // that still wants one.
            (false, Some(None), true, Fp::Record, Some(&other), CheckAndRecord(Some(sig))),
            (false, Some(None), true, Fp::Record, None, CheckAndRecord(Some(sig))),
            (false, Some(None), true, Fp::GaveUp, None, Check(Some(sig))),
            (false, Some(None), true, Fp::Off, None, Check(Some(sig))),
            (false, Some(None), false, Fp::Off, None, Check(None)),
            // A full class table opens no class.
            (false, None, true, Fp::Record, None, CheckAndRecord(None)),
            (false, None, true, Fp::Match, None, FootprintSkip(None)),
        ];
        for (i, &(dup, class, signed, fp, walked, want)) in rows.iter().enumerate() {
            let mut seen = FxHashMap::default();
            if dup {
                seen.insert(key, CheckRes::default());
            }
            let mut rep: FxHashMap<u128, bool> = match class {
                Some(c) => c.map(|v| (sig, v)).into_iter().collect(),
                None => (1..=REP_CAP as u128).map(|s| (sig.wrapping_add(s), false)).collect(),
            };
            let mut memo = CrossMemo::default();
            if let Some(ws) = walked {
                let (cov_mw, trace_mw) = Default::default();
                let pre = Err(Violation::Unmountable(String::new()));
                let walked = Arc::clone(ws);
                memo.insert(key, StateArtifacts { pre, walked, cov_mw, trace_mw, probe: None });
            }
            let mut fps = FpSet::default();
            match fp {
                // An empty footprint: every image agrees with it.
                Fp::Match => fps.record(Vec::new(), &base, &writes, &[0]),
                Fp::GaveUp => fps.give_up(),
                _ => {}
            }
            let p = PointCtx {
                kind: &kind,
                workload: &wl,
                cfg: &cfg,
                seq: 0,
                phase: CrashPhase::AfterSyscall,
                check: &check,
                point: 0,
                scope: Arc::clone(&same),
                base: &base,
                writes: &writes,
                subsets: &subsets,
                seen: &mut seen,
                memo: &mut memo,
                rep: &mut rep,
                signer: signed.then(|| (0, SigCache::new(&writes, &[], false))),
                fp: (fp != Fp::Off).then_some(fps),
                audit: None,
            };
            assert_eq!(decide(&p, key, subset), want, "row {i}");
        }
    }
}
