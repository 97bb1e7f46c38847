//! The top-level test harness: record, replay, check (§3.3, Figure 2).
//!
//! One workload is one serial pipeline on the calling thread, and the crash
//! states of a crash point are checked one after another (the paper's §3.3;
//! Observation 7 is why there is little to shard inside a point). Parallelism
//! lives a level up, in the batch runners of the `bench` crate, which shard
//! *workloads* over [`TestConfig::threads`] workers.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem::{write_delta, ForkDevice, ImageKey, ImageLease, PmBackend};
use pmlog::{LogEntry, LogHandle, LoggingPm, Marker, OpRecord};
use vfs::{
    fs::SyscallKind,
    BugId, FsKind, Workload,
};

use crate::{
    checker::{check_crash_state, probe_state, walk_scope, CheckKind, DataRelax},
    config::TestConfig,
    crashgen::{
        coalesce, data_shadowing_unsafe, describe_subset, enumerate_subsets_ordered,
        PendingWrite, SigCache, SubsetWalker,
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
    /// sandbox was checking the state (see [`TestConfig::sandbox`]).
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

/// Stages 1–2 of the pipeline: the crash-free oracle run, the recorded run,
/// and the divergence reports between them, with both stage timings. A
/// stage that cannot run at all (oracle failure, mkfs failure) is reported
/// into `out` and yields `None`.
///
/// Both stages run on a fresh device from `new_dev`. Production passes the
/// page-sparse [`ForkDevice`] (a workload touches a few dozen KiB of the
/// device, so nothing device-sized is allocated); the literal reference
/// passes the dense [`pmem::PmDevice`], which makes the production ≡
/// reference matrix also pin "log recorded on a sparse device ≡ log
/// recorded on the dense device".
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

    // Recorded run: a fresh device behind the write logger (the eADR logger
    // under `cfg.eadr`), every op bracketed by syscall markers.
    let t_record = Instant::now();
    let log = LogHandle::new();
    let dev = new_dev(cfg.device_size);
    let lp = if cfg.eadr {
        LoggingPm::new_eadr(dev, log.clone())
    } else {
        LoggingPm::new(dev, log.clone())
    };
    let mut fs = match kind.mkfs(lp) {
        Ok(fs) => fs,
        Err(e) => {
            let v = Violation::RuntimeError(format!("mkfs failed: {e}"));
            push_report(out, plain_report(workload, 0, "(mkfs)".into(), v));
            return None;
        }
    };
    let mut ex = Executor::new();
    let mut rec_results = Vec::with_capacity(workload.ops.len());
    for (seq, op) in workload.ops.iter().enumerate() {
        log.marker(Marker::SyscallBegin(OpRecord { seq, desc: op.describe() }));
        let r = ex.exec(&mut fs, op, seq);
        log.marker(Marker::SyscallEnd { seq, ok: r.result.is_ok() });
        rec_results.push(r);
    }
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
    let mut out = TestOutcome { workload: workload.name.clone(), ..Default::default() };
    let guarantees = kind.guarantees();
    kind.options().trace.clear();

    let Some((oracle, rec_results, log)) =
        oracle_and_record(kind, workload, cfg, ForkDevice::new, &mut out)
    else {
        return out;
    };

    let t_check = Instant::now();
    // The all-zero image hashes to 0.
    let base = ImageLease::zeroed(cfg.device_size);
    let mut engine =
        ReplayEngine::new(kind, workload, cfg, &oracle, &rec_results, guarantees, base, 0);
    for entry in log.entries() {
        if engine.stop {
            // Replaying to completion is unnecessary once stopping.
            break;
        }
        engine.step(entry, Some(&mut out));
    }
    out.timing.check = t_check.elapsed();

    out.traced_bugs = kind.options().trace.snapshot();
    out
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

/// The crash-state construction and checking stage as a resumable machine:
/// [`step`](ReplayEngine::step) consumes one log entry at a time, so the
/// prefix cache can fast-forward through a shared prefix (checkpointed
/// counters stand in for the skipped checks), snapshot the mutable state at
/// any syscall boundary, and hand the suffix to a later workload.
pub(crate) struct ReplayEngine<'a, K: FsKind> {
    kind: &'a K,
    workload: &'a Workload,
    cfg: &'a TestConfig,
    oracle: &'a Oracle,
    rec_results: &'a [OpResult],
    guarantees: vfs::Guarantees,
    /// The last-known-persistent image (all pending writes drained).
    pub base: ImageLease,
    /// Incremental content hash of `base`.
    pub base_key: ImageKey,
    /// Cross-point artifact memo.
    pub memo: CrossMemo,
    /// In-flight writes since the last fence.
    pub pending: Vec<PendingWrite>,
    /// Writes absorbed into `base` (fences crossed, or eADR stores applied)
    /// since the current op began — cleared at every `SyscallBegin`. The
    /// behavioral signature hashes these alongside a state's subset so the
    /// signature is anchored at the base image *as of op start*: the state
    /// after fence `k` absorbs signs identically whether its writes are
    /// still pending or already in `base`. Kept in the same
    /// coalesced/uncoalesced form the subset enumeration uses.
    pub op_absorbed: Vec<PendingWrite>,
    /// Behavioral class table ([`TestConfig::rep_check`]).
    pub rep: RepTable,
    /// Which ops still have writes in `pending` (for scope computation).
    pub pending_seqs: BTreeSet<usize>,
    /// Whether any pending write predates the first marker.
    pub pending_unknown: bool,
    cur_op: Option<usize>,
    /// The last completed op.
    pub last_done: Option<usize>,
    /// Whether the first syscall marker has been seen (mkfs writes precede
    /// it and are never crash points).
    pub started: bool,
    /// Stop-on-first fired; no further entries should be fed.
    pub stop: bool,
    /// When set, every mutation of `base` records `(off, old bytes)` here so
    /// the caller can roll the image back (the prefix cache's base tape).
    pub undo: Option<Vec<(u64, Vec<u8>)>>,
    /// When set, the engine is in single-state mode: crash points are only
    /// counted until the target ordinal is reached, where exactly one subset
    /// state is built and checked (see [`check_one_state`]).
    single: Option<SingleTarget>,
}

/// Target and result slot for the engine's single-state mode.
struct SingleTarget {
    point: u64,
    subset: Vec<usize>,
    result: Option<StateProbe>,
    error: Option<String>,
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
    /// An engine positioned at `base` (whose content hash is `base_key`)
    /// with nothing in flight.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: &'a K,
        workload: &'a Workload,
        cfg: &'a TestConfig,
        oracle: &'a Oracle,
        rec_results: &'a [OpResult],
        guarantees: vfs::Guarantees,
        base: ImageLease,
        base_key: ImageKey,
    ) -> Self {
        ReplayEngine {
            kind,
            workload,
            cfg,
            oracle,
            rec_results,
            guarantees,
            base,
            base_key,
            memo: CrossMemo::default(),
            pending: Vec::new(),
            op_absorbed: Vec::new(),
            rep: RepTable::default(),
            pending_seqs: BTreeSet::new(),
            pending_unknown: false,
            cur_op: None,
            last_done: None,
            started: false,
            stop: false,
            undo: None,
            single: None,
        }
    }

    /// Applies one write to `base`, maintaining the incremental hash and the
    /// undo tape.
    fn apply_base(&mut self, off: u64, data: &[u8]) {
        let o = off as usize;
        let old = &self.base[o..o + data.len()];
        self.base_key ^= write_delta(off, old, data);
        if let Some(u) = &mut self.undo {
            u.push((off, old.to_vec()));
        }
        self.base.write(off, data);
    }

    fn scope_for(&self, seq: usize) -> Scope {
        crash_scope(
            self.workload,
            self.rec_results,
            self.oracle,
            seq,
            &self.pending_seqs,
            self.pending_unknown,
            self.cfg,
        )
    }

    /// Consumes one log entry. With `out` present, crash points are visited
    /// and results committed into it; with `None` the entry only advances
    /// the replay state (fast-forward through an already-checked prefix).
    pub fn step(&mut self, entry: &LogEntry, out: Option<&mut TestOutcome>) {
        match entry {
            LogEntry::Marker(Marker::SyscallBegin(OpRecord { seq, .. })) => {
                self.started = true;
                self.cur_op = Some(*seq);
                self.op_absorbed.clear();
            }
            LogEntry::Marker(Marker::SyscallEnd { seq, .. }) => {
                self.cur_op = None;
                self.last_done = Some(*seq);
                let op = &self.workload.ops[*seq];
                if !op.is_mutating() {
                    return;
                }
                let Some(out) = out else { return };
                if self.guarantees.strong {
                    let check = CheckKind::Synchrony { cur: self.oracle.after(*seq) };
                    self.visit(*seq, CrashPhase::AfterSyscall, &check, true, false, out);
                } else if matches!(op.kind(), SyscallKind::Fsync | SyscallKind::Sync) {
                    let target = self.rec_results[*seq].target.as_deref();
                    let target = if op.kind() == SyscallKind::Sync { None } else { target };
                    let check = CheckKind::WeakFsync { cur: self.oracle.after(*seq), target };
                    self.visit(*seq, CrashPhase::AfterFsync, &check, true, false, out);
                }
            }
            LogEntry::Fence => {
                if self.cfg.eadr {
                    // eADR: fences are pure ordering points. Every store has
                    // already been visited as its own crash state, and the
                    // state at the fence equals the state after the last
                    // store, so there is nothing new to check here.
                    return;
                }
                if self.started && self.guarantees.strong && !self.pending.is_empty() {
                    if let Some(out) = out {
                        self.visit_mid_op(false, out);
                    }
                }
                let pending = std::mem::take(&mut self.pending);
                for w in &pending {
                    self.apply_base(w.off, &w.data);
                }
                // Absorbed writes keep contributing to behavioral signatures
                // (in the same shape the subset enumeration saw them) until
                // the next op begins.
                if self.cfg.coalesce_data {
                    self.op_absorbed.extend(coalesce(&pending));
                } else {
                    self.op_absorbed.extend(pending);
                }
                self.pending_seqs.clear();
                self.pending_unknown = false;
            }
            e => {
                let Some(w) = PendingWrite::from_entry(e) else { return };
                if self.cfg.eadr {
                    // Persistent caches: durable the moment it lands, and the
                    // instant after any store is a real crash state — not
                    // just fence boundaries. (A torn in-place update is only
                    // visible *between* the stores that make it up; see bug
                    // 19.)
                    self.apply_base(w.off, &w.data);
                    self.op_absorbed.push(w);
                    if self.started && self.guarantees.strong {
                        let Some(out) = out else { return };
                        self.visit_mid_op(true, out);
                    }
                } else {
                    match self.cur_op.or(self.last_done) {
                        Some(s) => {
                            self.pending_seqs.insert(s);
                        }
                        None => self.pending_unknown = true,
                    }
                    self.pending.push(w);
                }
            }
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
                if let Some(seq) = self.last_done {
                    let check = CheckKind::Synchrony { cur: self.oracle.after(seq) };
                    self.visit(seq, CrashPhase::AfterSyscall, &check, durable, durable, out);
                }
            }
        }
    }

    /// Visits one crash point (the base image plus, unless `no_pending`, the
    /// enumerated subsets of the in-flight writes).
    fn visit(
        &mut self,
        seq: usize,
        phase: CrashPhase,
        check: &CheckKind<'_>,
        check_base: bool,
        no_pending: bool,
        out: &mut TestOutcome,
    ) {
        if self.single.is_some() {
            self.visit_single(seq, phase, check, no_pending, out);
            return;
        }
        let scope = self.scope_for(seq);
        let pending: &[PendingWrite] = if no_pending { &[] } else { &self.pending };
        // Torn-data drop precondition (see [`crashgen::behavior_sig`]): the
        // check tolerates any old/new/zero byte mix in the written file, the
        // FS cannot turn torn data into a read error, and every in-flight
        // write is attributable to the relaxed op (a leftover unfenced write
        // from an earlier op could belong to a different, exactly-compared
        // file). `visit_crash_point` still vetoes it if data writes shadow
        // each other at this point.
        let torn_drop = self.cfg.rep_check
            && matches!(check, CheckKind::Atomicity { relax: DataRelax::Torn(_), .. })
            && !self.guarantees.data_checksums
            && !self.pending_unknown
            && self.pending_seqs.iter().all(|&s| s == seq);
        visit_crash_point(
            self.kind,
            self.workload,
            self.cfg,
            &self.base,
            self.base_key,
            pending,
            &self.op_absorbed,
            seq,
            phase,
            check,
            check_base,
            torn_drop,
            &scope,
            &mut self.memo,
            &mut self.rep,
            out,
            &mut self.stop,
        );
    }

    /// Single-state mode: counts crash points exactly like
    /// [`visit_crash_point`] does, and at the target ordinal checks the one
    /// requested subset state through the literal single-state primitive
    /// ([`check_crash_state`]) instead of enumerating.
    fn visit_single(
        &mut self,
        seq: usize,
        phase: CrashPhase,
        check: &CheckKind<'_>,
        no_pending: bool,
        out: &mut TestOutcome,
    ) {
        out.crash_points += 1;
        let ordinal = out.crash_points - 1;
        let tgt = self.single.as_ref().expect("single mode");
        if ordinal != tgt.point {
            return;
        }
        let pending: &[PendingWrite] = if no_pending { &[] } else { &self.pending };
        let writes = if self.cfg.coalesce_data { coalesce(pending) } else { pending.to_vec() };
        let subset = tgt.subset.clone();
        if let Some(&bad) = subset.iter().find(|&&i| i >= writes.len()) {
            let tgt = self.single.as_mut().expect("single mode");
            tgt.error = Some(format!(
                "subset index {bad} out of range ({} in-flight writes at point {ordinal})",
                writes.len()
            ));
            self.stop = true;
            return;
        }
        let violation = check_crash_state(
            self.kind,
            &self.base,
            &writes,
            &subset,
            check,
            &reference::literal(self.cfg),
        );
        out.crash_states += 1;
        let probe = StateProbe {
            violation,
            op_seq: seq,
            op_desc: self.workload.ops[seq].describe(),
            phase,
            n_writes: writes.len(),
        };
        let tgt = self.single.as_mut().expect("single mode");
        tgt.result = Some(probe);
        self.stop = true;
    }
}

/// Replays exactly one crash state of a workload: the crash point with
/// global ordinal `point` (a full run's [`BugReport::point`]), with the
/// in-flight write subset `subset` applied. One oracle run and one recorded
/// run, then a replay that fast-forwards to the target point and checks a
/// single state instead of enumerating all subsets — the primitive behind
/// repro-bundle replay and the shrinker's crash-subset ddmin pass.
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
    let guarantees = kind.guarantees();
    kind.options().trace.clear();
    let mut out = TestOutcome { workload: workload.name.clone(), ..Default::default() };
    let Some((oracle, rec_results, log)) =
        oracle_and_record(kind, workload, cfg, ForkDevice::new, &mut out)
    else {
        let failure = out.reports.pop().expect("a stage that cannot run reports why");
        return Err(failure.violation.detail().to_string());
    };
    let base = ImageLease::zeroed(cfg.device_size);
    let mut engine =
        ReplayEngine::new(kind, workload, cfg, &oracle, &rec_results, guarantees, base, 0);
    engine.single =
        Some(SingleTarget { point, subset: subset.to_vec(), result: None, error: None });
    for entry in log.entries() {
        if engine.stop {
            break;
        }
        engine.step(entry, Some(&mut out));
    }
    let tgt = engine.single.take().expect("single mode");
    if let Some(e) = tgt.error {
        return Err(e);
    }
    tgt.result.ok_or_else(|| {
        format!("crash point ordinal {point} out of range ({} points)", out.crash_points)
    })
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
    /// The scope the memoized walk ran under. Reuse at a later point
    /// requires compatibility (see [`memo_walk_compatible`]).
    walked: Scope,
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
/// mount/walk/probe artifacts instead of remounting. Bounded:
/// new keys are refused once the cap is reached; updates of existing keys
/// (probe fills) always land. A key repeated *within* a crash point never
/// reaches the memo — in-point dedup replays the first occurrence's result.
#[derive(Default, Clone)]
pub(crate) struct CrossMemo {
    map: HashMap<ImageKey, StateArtifacts>,
}

const MEMO_CAP: usize = 4096;

impl CrossMemo {
    fn get(&self, key: &ImageKey) -> Option<&StateArtifacts> {
        self.map.get(key)
    }

    fn insert(&mut self, key: ImageKey, art: StateArtifacts) {
        if self.map.len() >= MEMO_CAP && !self.map.contains_key(&key) {
            return;
        }
        self.map.insert(key, art);
    }
}

/// Per-workload class table for representative-state checking
/// ([`TestConfig::rep_check`]): behavioral signature → whether the class's
/// representative reported a violation. Bounded like [`CrossMemo`]: once the
/// cap is reached no new classes form (those states simply check normally).
#[derive(Default, Clone)]
pub(crate) struct RepTable {
    map: HashMap<u128, bool>,
}

const REP_CAP: usize = 1 << 16;

/// How the representative layer treats one crash state. `NoRep` states (rep
/// off, table at cap) check normally with no class accounting.
#[derive(Clone, Copy, PartialEq)]
enum RepPlan {
    NoRep,
    /// First member of a new class: checked as its representative.
    Claim,
    /// Class has a violation-free representative: commit synthesized clean.
    Skip,
    /// Class is known violated: force-check (graceful degradation).
    Expand,
}

impl RepTable {
    fn plan(&self, sig: u128) -> RepPlan {
        match self.map.get(&sig) {
            Some(true) => RepPlan::Expand,
            Some(false) => RepPlan::Skip,
            None if self.map.len() >= REP_CAP => RepPlan::NoRep,
            None => RepPlan::Claim,
        }
    }

    /// Opens the class a [`RepPlan::Claim`] state represents, keyed by that
    /// state's committed verdict.
    fn claim(&mut self, sig: u128, violated: bool) {
        self.map.insert(sig, violated);
    }
}

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
/// result of a representative or footprint skip: clean, no artifacts, no
/// instrumentation (the state was never mounted).
#[derive(Default)]
struct CheckRes {
    violation: Option<Violation>,
    cov: Vec<Arc<HashSet<u64>>>,
    trace: Vec<Arc<BTreeSet<BugId>>>,
    /// Memo entry to store at commit: fresh artifacts, or a probe fill for
    /// an existing entry.
    art: Option<StateArtifacts>,
    memo_hit: bool,
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

/// Whether a memoized walk can stand in for this point's walk under `ws`. A
/// *successful* walk under a covering scope read (at least) every byte this
/// point's comparison can touch, so its tree substitutes exactly. A *failed*
/// walk is only equivalent when the scopes match: a wider walk may fail on
/// corrupt file data that a narrower walk never reads.
fn memo_walk_compatible(a: &StateArtifacts, ws: &Scope) -> bool {
    match &a.pre {
        Ok(_) => a.walked.covers(ws),
        Err(_) => &a.walked == ws,
    }
}

/// Check stages 1–4 on a prepared device. `fresh` must carry private
/// coverage/trace sinks. Non-sandbox verdicts carry their artifacts for the
/// cross-point memo.
fn check_staged<K: FsKind, D: pmem::PmBackend>(
    fresh: &K,
    dev: D,
    check: &CheckKind<'_>,
    cfg: &TestConfig,
    scope: &Scope,
) -> CheckRes {
    let ws = walk_scope(cfg, scope);
    let (mut fs, tree) = match sandbox::mount_walk(fresh, dev, &ws, cfg) {
        Ok(x) => x,
        Err(v) => {
            let cov_mw = Arc::new(fresh.options().cov.snapshot());
            let trace_mw = Arc::new(fresh.options().trace.snapshot());
            let memoizable = !is_sandbox_violation(&v);
            return CheckRes {
                violation: Some(v.clone()),
                cov: vec![cov_mw.clone()],
                trace: vec![trace_mw.clone()],
                art: memoizable.then_some(StateArtifacts {
                    pre: Err(v),
                    walked: ws,
                    cov_mw,
                    trace_mw,
                    probe: None,
                }),
                ..Default::default()
            };
        }
    };
    let cov_mw = Arc::new(fresh.options().cov.snapshot());
    let trace_mw = Arc::new(fresh.options().trace.snapshot());
    let tree = Arc::new(tree);
    let mut pruned = 0;
    let verdict = sandbox::compare(&tree, check, cfg, &ws, &mut pruned);
    let mut probe_art = None;
    let violation = match verdict {
        Some(v) => Some(v),
        None if cfg.probe => {
            let pv = sandbox::probe(&mut fs, &tree, cfg);
            probe_art = Some(ProbeArtifacts {
                violation: pv.clone(),
                cov: Arc::new(fresh.options().cov.snapshot()),
                trace: Arc::new(fresh.options().trace.snapshot()),
            });
            pv
        }
        None => None,
    };
    let (cov, trace) = match &probe_art {
        Some(p) => (vec![p.cov.clone()], vec![p.trace.clone()]),
        None => (vec![cov_mw.clone()], vec![trace_mw.clone()]),
    };
    let memoizable = !violation.as_ref().is_some_and(is_sandbox_violation);
    CheckRes {
        violation,
        cov,
        trace,
        art: memoizable
            .then_some(StateArtifacts { pre: Ok(tree), walked: ws, cov_mw, trace_mw, probe: probe_art }),
        pruned,
        ..Default::default()
    }
}

/// Mounts an image and runs only the usability probe against a memoized
/// tree — the fill path for a memo hit whose comparison passed before any
/// probe outcome was recorded.
fn probe_on<K: FsKind, D: pmem::PmBackend>(
    fresh: &K,
    dev: D,
    tree: &Tree,
    cfg: &TestConfig,
) -> ProbeArtifacts {
    let violation = if cfg.sandbox {
        // One fuel budget covers the re-mount and the probe, mirroring the
        // fresh-check path's mount+walk / probe budgets.
        let _fuel = pmem::FuelGuard::arm(cfg.recovery_fuel);
        match sandbox::guarded(Stage::Mount, || fresh.mount(dev)) {
            Err(v) => Some(v),
            // Identical bytes mounted before; defensive.
            Ok(Err(e)) => Some(Violation::Unmountable(e.to_string())),
            Ok(Ok(mut fs)) => match sandbox::guarded(Stage::Probe, || probe_state(&mut fs, tree)) {
                Ok(v) => v,
                Err(v) => Some(v),
            },
        }
    } else {
        match fresh.mount(dev) {
            Ok(mut fs) => probe_state(&mut fs, tree),
            Err(e) => Some(Violation::Unmountable(e.to_string())),
        }
    };
    ProbeArtifacts {
        violation,
        cov: Arc::new(fresh.options().cov.snapshot()),
        trace: Arc::new(fresh.options().trace.snapshot()),
    }
}

/// Replays a memo hit at this crash point: mount/walk artifacts come from
/// the memo, the oracle comparison re-runs, and `probe_fill` is invoked at
/// most once if the probe outcome is still missing.
fn resolve_memo_hit(
    art: &StateArtifacts,
    check: &CheckKind<'_>,
    cfg: &TestConfig,
    scope: &Scope,
    probe_fill: impl FnOnce(&Tree) -> ProbeArtifacts,
) -> CheckRes {
    let plain = |violation: Option<Violation>, pruned: u64| CheckRes {
        violation,
        cov: vec![art.cov_mw.clone()],
        trace: vec![art.trace_mw.clone()],
        memo_hit: true,
        pruned,
        ..Default::default()
    };
    let mut pruned = 0;
    match &art.pre {
        Err(v) => plain(Some(v.clone()), 0),
        Ok(tree) => match sandbox::compare(tree, check, cfg, scope, &mut pruned) {
            Some(v) => plain(Some(v), pruned),
            None if cfg.probe => {
                let (p, fill) = match &art.probe {
                    Some(p) => (p.clone(), None),
                    None => {
                        let p = probe_fill(tree);
                        // A sandboxed probe verdict may be a fast-path
                        // artifact; keep it out of the memo so later points
                        // re-probe (and re-verify) rather than inherit it.
                        let fill = if p.violation.as_ref().is_some_and(is_sandbox_violation) {
                            None
                        } else {
                            let mut updated = art.clone();
                            updated.probe = Some(p.clone());
                            Some(updated)
                        };
                        (p, fill)
                    }
                };
                CheckRes {
                    violation: p.violation.clone(),
                    cov: vec![art.cov_mw.clone(), p.cov],
                    trace: vec![art.trace_mw.clone(), p.trace],
                    art: fill,
                    memo_hit: true,
                    pruned,
                    ..Default::default()
                }
            }
            None => plain(None, pruned),
        },
    }
}

/// Applies the slow-path retry rule to a freshly checked state: when the
/// verdict is a sandbox violation (panic/hang), the state is re-checked
/// exactly once through the literal single-state primitive
/// ([`check_crash_state`] under [`reference::literal`] — private overlay,
/// full walk, full unpruned compare), and the slow verdict wins. The sandbox
/// itself stays on for the retry, so a deterministic FS panic still surfaces
/// as a `RecoveryPanic` — now provably not a fast-path artifact.
fn finalize_check<K: FsKind>(
    kind: &K,
    base: &[u8],
    writes: &[PendingWrite],
    subset: &[usize],
    check: &CheckKind<'_>,
    cfg: &TestConfig,
    mut res: CheckRes,
) -> CheckRes {
    res.fuel_fired = matches!(res.violation, Some(Violation::RecoveryHang { .. }));
    if !res.violation.as_ref().is_some_and(is_sandbox_violation) {
        return res;
    }
    let fresh = kind.with_options(kind.options().with_fresh_sinks());
    let lit = reference::literal(cfg);
    let violation = check_crash_state(&fresh, base, writes, subset, check, &lit);
    CheckRes {
        fuel_fired: res.fuel_fired || matches!(violation, Some(Violation::RecoveryHang { .. })),
        violation,
        cov: vec![Arc::new(fresh.options().cov.snapshot())],
        trace: vec![Arc::new(fresh.options().trace.snapshot())],
        sandbox_retry: true,
        ..Default::default()
    }
}

/// Invariant context for committing one crash point's states.
struct PointCtx<'a> {
    workload: &'a str,
    seq: usize,
    op_desc: &'a str,
    phase: CrashPhase,
    /// Global crash-point ordinal (0-based; `out.crash_points - 1` at point
    /// entry). Stamped into reports so a single state can be re-targeted.
    point: u64,
    stop_on_first: bool,
    collect_keys: bool,
}

/// Commits one crash state's result in canonical order: counters, sink
/// absorption, memo insertion, report. Returns `true` when stop-on-first
/// fires.
#[allow(clippy::too_many_arguments)]
fn commit_state<K: FsKind>(
    kind: &K,
    ctx: &PointCtx<'_>,
    res: &CheckRes,
    key: ImageKey,
    dup: bool,
    subset_ids: &[usize],
    subset_desc: impl FnOnce() -> String,
    memo: &mut CrossMemo,
    out: &mut TestOutcome,
) -> bool {
    out.crash_states += 1;
    if ctx.collect_keys {
        out.state_keys.push((key as u64) ^ ((key >> 64) as u64));
    }
    if dup {
        out.dedup_hits += 1;
    } else if res.memo_hit {
        out.memo_hits += 1;
    }
    // Dup replays recount like any other replayed verdict.
    match &res.violation {
        Some(Violation::RecoveryPanic { .. }) => out.recovery_panics += 1,
        Some(Violation::RecoveryHang { .. }) => out.recovery_hangs += 1,
        _ => {}
    }
    if res.sandbox_retry {
        out.sandbox_retries += 1;
    }
    if res.fuel_fired {
        out.fuel_exhausted += 1;
    }
    out.oracle_subtrees_pruned += res.pruned;
    for c in &res.cov {
        kind.options().cov.absorb(c);
    }
    for t in &res.trace {
        kind.options().trace.absorb(t);
    }
    if !dup {
        if let Some(a) = &res.art {
            memo.insert(key, a.clone());
        }
    }
    if let Some(v) = res.violation.clone() {
        push_report(
            out,
            BugReport {
                workload: ctx.workload.to_string(),
                op_seq: ctx.seq,
                op_desc: ctx.op_desc.to_string(),
                phase: ctx.phase,
                subset: subset_desc(),
                point: Some(ctx.point),
                subset_ids: subset_ids.to_vec(),
                violation: v,
            },
        );
        if ctx.stop_on_first {
            return true;
        }
    }
    false
}

/// Checks all crash states at one crash point: optionally the bare base
/// state, then every enumerated subset of the in-flight writes.
///
/// The states are visited in canonical enumeration order by a single
/// undo-logged overlay that steps between adjacent subsets by applying and
/// undoing only the writes they differ in (delta replay); the file system
/// is mounted directly on that overlay and every checker mutation (mount
/// recovery, probe) is rolled back through the same undo marks. Each state
/// is decided, checked and committed before the next one is built.
///
/// Every state's image is content-hashed (incrementally, from the base
/// image's running hash plus per-write deltas). The hash drives two exact
/// reuse layers:
///
/// * in-point dedup: a repeated key replays the first occurrence's
///   committed result;
/// * cross-point memo: a key first seen at an earlier crash point reuses
///   that state's mount/walk/probe artifacts, re-running only the
///   (point-specific) oracle comparison.
///
/// On top of the exact layers sits representative-state checking
/// ([`TestConfig::rep_check`]): states are clustered by behavioral
/// signature ([`rep_context`] ⊕ [`crashgen::behavior_sig`]); only the first
/// member of each class is checked, later members commit a synthesized
/// clean verdict while the class stays violation-free, and a violated class
/// expands back to exhaustive checking. Below it, the read-footprint layer
/// ([`crate::footprint`]) skips a state whose image agrees with an earlier
/// clean check at this point on every word that check read.
#[allow(clippy::too_many_arguments)]
fn visit_crash_point<K: FsKind>(
    kind: &K,
    workload: &Workload,
    cfg: &TestConfig,
    base: &[u8],
    base_key: ImageKey,
    pending: &[PendingWrite],
    absorbed: &[PendingWrite],
    seq: usize,
    phase: CrashPhase,
    check: &CheckKind<'_>,
    check_base: bool,
    torn_drop: bool,
    scope: &Scope,
    memo: &mut CrossMemo,
    rep: &mut RepTable,
    out: &mut TestOutcome,
    stop: &mut bool,
) {
    out.crash_points += 1;
    out.inflight_sizes.push(pending.len());
    let writes = if cfg.coalesce_data { coalesce(pending) } else { pending.to_vec() };
    let op_desc = workload.ops[seq].describe();

    let mut subsets: Vec<Vec<usize>> = Vec::new();
    if check_base {
        subsets.push(Vec::new());
    }
    subsets.extend(enumerate_subsets_ordered(
        writes.len(),
        cfg.cap,
        cfg.max_states_per_point,
        cfg.large_first_subsets,
    ));
    if subsets.is_empty() {
        return;
    }

    let ctx = PointCtx {
        workload: &workload.name,
        seq,
        op_desc: &op_desc,
        phase,
        point: out.crash_points - 1,
        stop_on_first: cfg.stop_on_first,
        collect_keys: cfg.collect_state_keys,
    };
    let ws = walk_scope(cfg, scope);

    // Representative layer: the point's half of every state's behavioral
    // signature (context hash, per-write terms).
    let signer = cfg.rep_check.then(|| {
        // The torn-data drop additionally requires that no data write
        // leaves an intermediate value a later data write replaces (zero
        // fill and same-byte rewrites are tolerated; anything else would
        // escape the old/new/zero tolerance). Membership-independent, so
        // decided per point; the drop mode is folded into the context hash
        // so a dropped-data class can never alias an exact-data one.
        let drop_data = torn_drop && !data_shadowing_unsafe(&writes);
        let mut ctx_h = rep_context(seq, phase, check, scope);
        if drop_data {
            ctx_h ^= pmem::run_term(CTX_DROP, 1);
        }
        (ctx_h, SigCache::new(&writes, absorbed, drop_data))
    });
    let mut fp = FpSet::default();
    let mut walker = SubsetWalker::new(base, base_key);
    // In-point dedup: the results committed at this point, by image key.
    let mut seen: HashMap<ImageKey, CheckRes> = HashMap::with_capacity(subsets.len());

    for subset in &subsets {
        walker.goto(&writes, subset);
        let key = walker.key();
        let describe = || describe_subset(&writes, subset);
        if let Some(r) = seen.get(&key) {
            if commit_state(kind, &ctx, r, key, true, subset, describe, memo, out) {
                *stop = true;
                return;
            }
            continue;
        }
        let sig = signer.as_ref().map(|(ctx_h, cache)| ctx_h ^ cache.sig(subset));
        let plan = sig.map_or(RepPlan::NoRep, |s| rep.plan(s));
        // Footprint layer: a state whose image agrees with a recorded clean
        // footprint on every word that check actually read provably replays
        // the recorder's execution bit for bit — skip it clean. Members of
        // a violated class are excluded: they expand to a full check.
        let fp_eligible =
            sig.is_some() && subsets.len() >= FP_MIN_STATES && plan != RepPlan::Expand;
        let skip = plan == RepPlan::Skip || (fp_eligible && fp.matches(base, &writes, subset));
        let res = if skip {
            CheckRes::default()
        } else {
            let fresh = kind.with_options(kind.options().with_fresh_sinks());
            let art = memo.get(&key).filter(|a| memo_walk_compatible(a, &ws));
            // A from-scratch check doubles as a footprint recorder while
            // the point still wants one: the same check under a read tracker.
            let record = art.is_none() && fp_eligible && fp.want_record();
            let mark = walker.mark();
            let (staged, words) = match art {
                Some(art) => {
                    let r = resolve_memo_hit(art, check, cfg, &ws, |tree| {
                        probe_on(&fresh, &mut *walker.device(), tree, cfg)
                    });
                    (r, None)
                }
                None if record => {
                    let mut tracker = pmem::ReadTracker::new(walker.device(), FP_WORD_CAP);
                    let r = check_staged(&fresh, &mut tracker, check, cfg, scope);
                    (r, tracker.clean_words())
                }
                None => (check_staged(&fresh, &mut *walker.device(), check, cfg, scope), None),
            };
            walker.undo_to(mark);
            let res = finalize_check(kind, base, &writes, subset, check, cfg, staged);
            // Only a clean, unretried check whose reads fit the cap seeds a
            // footprint; any other outcome closes recording for the point.
            if record {
                match words {
                    Some(w) if !res.sandbox_retry && res.violation.is_none() => {
                        fp.record(w, base, &writes, subset)
                    }
                    _ => fp.give_up(),
                }
            }
            res
        };
        let stopped = commit_state(kind, &ctx, &res, key, false, subset, describe, memo, out);
        // A footprint skip trumps the class plan: a skipped claimer still
        // opens its class (clean), but it never checked, so it is not a
        // counted class.
        match plan {
            _ if skip => out.rep_skipped += 1,
            RepPlan::Claim => out.rep_classes += 1,
            RepPlan::Expand => out.rep_expansions += 1,
            _ => {}
        }
        if stopped {
            *stop = true;
            return;
        }
        if let (RepPlan::Claim, Some(sig)) = (plan, sig) {
            rep.claim(sig, res.violation.is_some());
        }
        seen.insert(key, res);
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
}
