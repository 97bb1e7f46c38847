//! The check pipeline of paper §3, driven by hand with one span per call.
//!
//! The production harness (`chipmunk::test_workload`) fuses oracle, record,
//! crash-state construction and checking behind one entry point and reports
//! three phase totals. This module replays the same steps through the
//! crates' public building blocks — `advance_snapshot`, `Executor::exec` over
//! `LoggingPm<PmDevice>`, `coalesce`/`enumerate_subsets_ordered`,
//! `SubsetWalker::goto`, `state_key`, `SigCache::sig`, then `kind.mount` →
//! `snapshot_tree_scoped` → `compare_state` → `probe_state` — so each gets
//! its own unit cost. It mounts only a sample of the crash states and skips
//! none of them through dedup, memo or representatives: it measures what a
//! check costs, not how many the production run avoids.
//!
//! Every sampled state's verdict is compared with what the production run
//! said about the same workload, and the crash points and states enumerated
//! here must equal the production counts, so a drift between this replica
//! and the harness shows as a failure, not as a wrong number.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;

use chipmunk::{
    checker::{compare_state, probe_state, walk_scope, CheckKind, DataRelax},
    crashgen::{
        coalesce, data_shadowing_unsafe, enumerate_subsets_ordered, state_key, PendingWrite,
        SigCache, SubsetWalker,
    },
    exec::{Executor, OpResult},
    oracle::{
        advance_snapshot, alias_set, diff_trees_pruned, snapshot_tree, snapshot_tree_scoped,
        Oracle, Scope,
    },
    sandbox::guarded,
    test_workload, CrashPhase, Stage, Violation,
};
use pmem::{fuel_remaining, write_delta, FuelGuard, ImageKey, PmDevice};
use pmlog::{LogEntry, LogHandle, LoggingPm, Marker, OpRecord};
use vfs::{
    fs::{FsKind, FsOptions, SyscallKind},
    Guarantees, Op,
};

use crate::trace::Tracer;
use crate::workloads::{Expect, Sample};

/// What the staged pipeline counted over all its inputs.
#[derive(Debug, Default)]
pub struct Staged {
    /// Inputs replayed.
    pub inputs: u64,
    /// Crash points visited.
    pub crash_points: u64,
    /// Crash states enumerated.
    pub states: u64,
    /// Crash states mounted and checked.
    pub checked: u64,
    /// Checked states whose verdict was compared with the production run's.
    pub verdicts_compared: u64,
    /// Where this pipeline and the production run disagree.
    pub disagreements: Vec<String>,
    /// Fuel spent by mount + recovery, `(file-system key, units)` per mount.
    pub mount_fuel: Vec<(&'static str, u64)>,
    /// In-flight write counts per crash point.
    pub inflight: Vec<usize>,
    /// Bytes the walker replays stepping through every enumerated state.
    pub bytes_replayed: u64,
    /// Log entries, logged write bytes and fences of the recorded runs.
    pub log_entries: u64,
    /// See `log_entries`.
    pub bytes_logged: u64,
    /// See `log_entries`.
    pub fences: u64,
    /// Production `timing.check` of the inputs (uncached `test_workload`),
    /// and the states it had to mount, for the accounting check.
    pub production_check_ns: u64,
    /// See `production_check_ns`.
    pub production_mounts: std::collections::BTreeMap<&'static str, u64>,
    /// The first recorded log, kept for the `pmlog.replay_mbps` lane.
    pub first_log: Option<(pmlog::Log, u64)>,
}

/// Runs the staged pipeline over `samples`.
pub fn run(samples: &[Sample], state_stride: usize, tr: &mut Tracer) -> Staged {
    struct One<'a>(&'a Sample, usize, &'a mut Staged, &'a mut Tracer);
    impl bench::WithKind for One<'_> {
        type Out = ();
        fn call<K: FsKind>(self, kind: K) {
            let input = self
                .3
                .input(crate::metrics::fs_key(kind.name()), &self.0.workload.name);
            staged_workload(&kind, self.0, self.1, input, self.2, self.3);
        }
    }
    let mut st = Staged::default();
    for s in samples {
        bench::dispatch(
            s.fs,
            FsOptions::with_bugs(s.bugs),
            One(s, state_stride, &mut st, tr),
        );
    }
    st
}

/// The paths an op addresses (`None`: unbounded or unresolved, so the scope
/// widens to the whole tree). Mirrors the harness's private footprint rule;
/// a narrower answer could only make a scoped walk read less, never turn a
/// clean state into a violation.
fn op_paths<'a>(op: &'a Op, target: Option<&'a str>) -> Option<Vec<&'a str>> {
    match op {
        Op::Sync | Op::SetCpu { .. } => None,
        Op::Link { old, new } | Op::Rename { old, new } => Some(vec![old, new]),
        _ => target.map(|t| vec![t]),
    }
}

fn insert_with_parent(set: &mut BTreeSet<String>, p: &str) {
    set.insert(p.to_string());
    if let Some(idx) = p.rfind('/') {
        set.insert(if idx == 0 {
            "/".to_string()
        } else {
            p[..idx].to_string()
        });
    }
}

/// Replay state between crash points: the persistent image and what is in
/// flight on top of it.
struct Replay {
    base: Vec<u8>,
    base_key: ImageKey,
    pending: Vec<PendingWrite>,
    /// Writes absorbed into `base` since the current op began.
    op_absorbed: Vec<PendingWrite>,
    pending_seqs: BTreeSet<usize>,
    pending_unknown: bool,
    cur_op: Option<usize>,
    last_done: Option<usize>,
    started: bool,
}

/// One workload through oracle, record, replay and check.
fn staged_workload<K: FsKind>(
    kind: &K,
    sample: &Sample,
    state_stride: usize,
    input: u32,
    st: &mut Staged,
    tr: &mut Tracer,
) {
    let (w, cfg) = (&sample.workload, &sample.cfg);
    st.inputs += 1;
    let root = tr.enter("staged.workload", input);

    // The production run of the same workload, uncached, as the reference
    // for counts, verdicts and the accounting of its check phase.
    let fresh = kind.with_options(kind.options().with_fresh_sinks());
    let prod = tr.span("harness.test_workload", input, || {
        test_workload(&fresh, w, cfg)
    });
    st.production_check_ns += prod.timing.check.as_nanos() as u64;
    *st.production_mounts
        .entry(crate::metrics::fs_key(kind.name()))
        .or_default() += prod.crash_states - prod.dedup_hits - prod.memo_hits - prod.rep_skipped;

    // ---- 1. Oracle: crash-free run, one snapshot per op ----
    let span = tr.enter("oracle.build", input);
    let oracle = (|| {
        let mut fs = kind
            .mkfs(PmDevice::new(cfg.device_size))
            .map_err(|e| e.to_string())?;
        let mut ex = Executor::new();
        let mut snaps = vec![Arc::new(snapshot_tree(&fs)?)];
        let mut results = Vec::with_capacity(w.ops.len());
        let mut snap_bytes_shared = 0;
        for (seq, op) in w.ops.iter().enumerate() {
            let r = tr.span("exec.op", input, || ex.exec(&mut fs, op, seq));
            let prev = snaps.last().expect("initial snapshot");
            let (next, shared) = tr.span("oracle.advance", input, || {
                advance_snapshot(&fs, prev, op, r.target.as_deref())
            })?;
            snap_bytes_shared += shared;
            snaps.push(next);
            results.push(r);
        }
        Ok::<_, String>(Oracle {
            snaps,
            results,
            snap_bytes_shared,
        })
    })();
    tr.exit(span);
    let oracle = match oracle {
        Ok(o) => o,
        Err(e) => {
            st.disagreements
                .push(format!("{}: staged oracle run failed: {e}", w.name));
            tr.exit(root);
            return;
        }
    };
    for k in 0..w.ops.len() {
        let mut pruned = 0;
        tr.span("oracle.diff", input, || {
            black_box(diff_trees_pruned(
                oracle.after(k),
                oracle.before(k),
                cfg.compare_ino,
                &Scope::Full,
                cfg.shared_oracle,
                &mut pruned,
            ))
        });
    }

    // ---- 2. Record: the same ops through the write logger ----
    let span = tr.enter("pmlog.record", input);
    let log = LogHandle::new();
    let lp = LoggingPm::new(PmDevice::new(cfg.device_size), log.clone());
    let mut rec_results: Vec<OpResult> = Vec::with_capacity(w.ops.len());
    match kind.mkfs(lp) {
        Ok(mut fs) => {
            let mut ex = Executor::new();
            for (seq, op) in w.ops.iter().enumerate() {
                log.marker(Marker::SyscallBegin(OpRecord {
                    seq,
                    desc: op.describe(),
                }));
                let r = tr.span("exec.op_logged", input, || ex.exec(&mut fs, op, seq));
                log.marker(Marker::SyscallEnd {
                    seq,
                    ok: r.result.is_ok(),
                });
                rec_results.push(r);
            }
        }
        Err(e) => st
            .disagreements
            .push(format!("{}: staged mkfs failed: {e}", w.name)),
    }
    let log = log.take();
    tr.exit(span);
    st.log_entries += log.len() as u64;
    st.fences += log.fence_count() as u64;
    st.bytes_logged += log
        .entries()
        .iter()
        .filter_map(|e| e.as_write())
        .map(|(_, d)| d.len() as u64)
        .sum::<u64>();

    // ---- 3. Replay: walk the log, visiting every crash point ----
    let span = tr.enter("staged.replay", input);
    let guarantees = kind.guarantees();
    let mut rp = Replay {
        base: vec![0u8; cfg.device_size as usize],
        base_key: 0, // the all-zero image hashes to 0
        pending: Vec::new(),
        op_absorbed: Vec::new(),
        pending_seqs: BTreeSet::new(),
        pending_unknown: false,
        cur_op: None,
        last_done: None,
        started: false,
    };
    let mut v = Visitor {
        kind,
        sample,
        oracle: &oracle,
        rec_results: &rec_results,
        guarantees,
        state_stride,
        input,
        points: 0,
        states: 0,
        stop: false,
    };
    for entry in log.entries() {
        if v.stop || rec_results.len() != w.ops.len() {
            break;
        }
        match entry {
            LogEntry::Marker(Marker::SyscallBegin(OpRecord { seq, .. })) => {
                rp.started = true;
                rp.cur_op = Some(*seq);
                rp.op_absorbed.clear();
            }
            LogEntry::Marker(Marker::SyscallEnd { seq, .. }) => {
                rp.cur_op = None;
                rp.last_done = Some(*seq);
                let op = &w.ops[*seq];
                if !op.is_mutating() {
                    continue;
                }
                if guarantees.strong {
                    let check = CheckKind::Synchrony {
                        cur: oracle.after(*seq),
                    };
                    v.visit(&rp, *seq, CrashPhase::AfterSyscall, &check, true, st, tr);
                } else if matches!(op.kind(), SyscallKind::Fsync | SyscallKind::Sync) {
                    let target = rec_results[*seq].target.as_deref();
                    let target = if op.kind() == SyscallKind::Sync {
                        None
                    } else {
                        target
                    };
                    let check = CheckKind::WeakFsync {
                        cur: oracle.after(*seq),
                        target,
                    };
                    v.visit(&rp, *seq, CrashPhase::AfterFsync, &check, true, st, tr);
                }
            }
            LogEntry::Fence => {
                if rp.started && guarantees.strong && !rp.pending.is_empty() {
                    match (rp.cur_op, rp.last_done) {
                        (Some(seq), _) => {
                            let relax = atomicity_relax(
                                &w.ops[seq],
                                rec_results[seq].target.as_deref(),
                                guarantees,
                            );
                            let check = CheckKind::Atomicity {
                                prev: oracle.before(seq),
                                cur: oracle.after(seq),
                                relax,
                            };
                            v.visit(&rp, seq, CrashPhase::DuringSyscall, &check, false, st, tr);
                        }
                        // A fence between syscalls: the state must still be
                        // the post-state of the last completed op.
                        (None, Some(seq)) => {
                            let check = CheckKind::Synchrony {
                                cur: oracle.after(seq),
                            };
                            v.visit(&rp, seq, CrashPhase::AfterSyscall, &check, false, st, tr);
                        }
                        (None, None) => {}
                    }
                }
                let pending = std::mem::take(&mut rp.pending);
                for pw in &pending {
                    let o = pw.off as usize;
                    rp.base_key ^= write_delta(pw.off, &rp.base[o..o + pw.data.len()], &pw.data);
                    rp.base[o..o + pw.data.len()].copy_from_slice(&pw.data);
                }
                rp.op_absorbed.extend(coalesce(&pending));
                rp.pending_seqs.clear();
                rp.pending_unknown = false;
            }
            e => {
                let Some(pw) = PendingWrite::from_entry(e) else {
                    continue;
                };
                match rp.cur_op.or(rp.last_done) {
                    Some(s) => {
                        rp.pending_seqs.insert(s);
                    }
                    None => rp.pending_unknown = true,
                }
                rp.pending.push(pw);
            }
        }
    }
    tr.exit(span);
    tr.exit(root);

    // The replica must enumerate exactly what the harness did. A hunt stops
    // at its first report, so only the clean inputs have full counts.
    if matches!(sample.expect, Expect::Clean) {
        if !prod.reports.is_empty() {
            st.disagreements.push(format!(
                "{}: production run reports on a clean input",
                w.name
            ));
        }
        if (v.points, v.states) != (prod.crash_points, prod.crash_states) {
            st.disagreements.push(format!(
                "{}: staged pipeline saw {} points / {} states, harness {} / {}",
                w.name, v.points, v.states, prod.crash_points, prod.crash_states
            ));
        }
    } else if matches!(sample.expect, Expect::Report { .. }) && !v.stop {
        st.disagreements.push(format!(
            "{}: staged pipeline never reached the reported state",
            w.name
        ));
    }
    st.crash_points += v.points;
    st.states += v.states;
    if st.first_log.is_none() {
        st.first_log = Some((log, cfg.device_size));
    }
}

/// The data-relaxation mode of a mid-syscall atomicity check: data writes
/// may tear (or must be all-or-nothing where the FS promises atomic data
/// writes), and path-addressed `fallocate` bundles an `O_CREAT` open.
fn atomicity_relax<'a>(op: &Op, target: Option<&'a str>, g: Guarantees) -> DataRelax<'a> {
    let is_data = matches!(op.kind(), SyscallKind::Write | SyscallKind::Pwrite);
    let is_falloc = matches!(op.kind(), SyscallKind::Falloc);
    match (target, is_data) {
        (Some(t), true) if g.atomic_data_writes => DataRelax::Atomic(t),
        (Some(t), true) => DataRelax::Torn(t),
        (Some(t), false) if is_falloc => DataRelax::Atomic(t),
        _ => DataRelax::None,
    }
}

struct Visitor<'a, K: FsKind> {
    kind: &'a K,
    sample: &'a Sample,
    oracle: &'a Oracle,
    rec_results: &'a [OpResult],
    guarantees: Guarantees,
    state_stride: usize,
    input: u32,
    points: u64,
    states: u64,
    /// The reported state of a hunt was reached; nothing after it was
    /// checked by the production run.
    stop: bool,
}

impl<K: FsKind> Visitor<'_, K> {
    /// The paths this point's in-flight writes can affect: targets of every
    /// op with writes pending plus the current op, their parents, and
    /// hard-link aliases in the bracketing oracle trees.
    fn scope(&self, rp: &Replay, seq: usize) -> Scope {
        let cfg = &self.sample.cfg;
        if !cfg.scoped_check || rp.pending_unknown {
            return Scope::Full;
        }
        let mut set = BTreeSet::new();
        for s in rp.pending_seqs.iter().copied().chain(std::iter::once(seq)) {
            let target = self.rec_results[s].target.as_deref();
            let Some(paths) = op_paths(&self.sample.workload.ops[s], target) else {
                return Scope::Full;
            };
            for p in paths {
                insert_with_parent(&mut set, p);
                for tree in [self.oracle.before(s), self.oracle.after(s)] {
                    for a in alias_set(tree, p) {
                        insert_with_parent(&mut set, &a);
                    }
                }
            }
        }
        Scope::Paths(set)
    }

    /// One crash point: enumerate, key and sign every state; mount, walk,
    /// compare and probe the sampled ones.
    #[allow(clippy::too_many_arguments)]
    fn visit(
        &mut self,
        rp: &Replay,
        seq: usize,
        phase: CrashPhase,
        check: &CheckKind<'_>,
        check_base: bool,
        st: &mut Staged,
        tr: &mut Tracer,
    ) {
        let (cfg, input) = (&self.sample.cfg, self.input);
        let point = self.points;
        self.points += 1;
        st.inflight.push(rp.pending.len());

        let span = tr.enter("crashgen.enumerate", input);
        let writes = coalesce(&rp.pending);
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
        tr.exit(span);
        if subsets.is_empty() {
            return;
        }
        let n = subsets.len();
        self.states += n as u64;
        let scope = self.scope(rp, seq);
        let ws = walk_scope(cfg, &scope);

        // Key pass: the walker steps through every state once, as the
        // harness does, maintaining the image key incrementally.
        let mut walker = SubsetWalker::new(&rp.base, rp.base_key);
        let span = tr.enter("crashgen.replay", input);
        for s in &subsets {
            walker.goto(&writes, s);
            black_box(walker.key());
        }
        tr.exit_calls(span, n);
        let mut prev: &[usize] = &[];
        for s in &subsets {
            let common = prev.iter().zip(s).take_while(|(a, b)| a == b).count();
            st.bytes_replayed += s[common..]
                .iter()
                .map(|&i| writes[i].data.len() as u64)
                .sum::<u64>();
            prev = s;
        }
        let span = tr.enter("crashgen.state_key", input);
        for s in &subsets {
            black_box(state_key(&writes, s));
        }
        tr.exit_calls(span, n);

        // Behavioral signatures, with the harness's torn-data drop rule.
        let torn_drop = cfg.rep_check
            && matches!(
                check,
                CheckKind::Atomicity {
                    relax: DataRelax::Torn(_),
                    ..
                }
            )
            && !self.guarantees.data_checksums
            && !rp.pending_unknown
            && rp.pending_seqs.iter().all(|&s| s == seq);
        let span = tr.enter("crashgen.behavior_sig", input);
        let drop_data = torn_drop && !data_shadowing_unsafe(&writes);
        let sigs = SigCache::new(&writes, &rp.op_absorbed, drop_data);
        for s in &subsets {
            black_box(sigs.sig(s));
        }
        tr.exit_calls(span, n);

        for (i, s) in subsets.iter().enumerate() {
            let reported = matches!(&self.sample.expect,
                Expect::Report { point: p, subset, .. } if *p == point && subset == s);
            // A fixed residue of the running state ordinal: the same states
            // are mounted whatever the seed, so their counts can be pinned.
            let ordinal = self.states - n as u64 + i as u64;
            if !reported && !ordinal.is_multiple_of(self.state_stride as u64) {
                continue;
            }
            // One span per checked state; its self time is the glue around
            // the four stages (stepping the overlay, fresh sinks, undo).
            let state_span = tr.enter("checker.state", input);
            walker.goto(&writes, s);
            let mark = walker.mark();
            let fresh = self
                .kind
                .with_options(self.kind.options().with_fresh_sinks());
            let verdict = {
                // As in the harness, one fuel budget covers mount and walk.
                let fuel = FuelGuard::arm(cfg.recovery_fuel);
                let span = tr.enter("checker.mount", input);
                let mounted = guarded(Stage::Mount, || fresh.mount(&mut *walker.device()));
                tr.exit(span);
                if let (Some(budget), Some(left)) = (cfg.recovery_fuel, fuel_remaining()) {
                    st.mount_fuel
                        .push((crate::metrics::fs_key(self.kind.name()), budget - left));
                }
                match mounted {
                    Err(v) => Some(v),
                    Ok(Err(e)) => Some(Violation::Unmountable(e.to_string())),
                    Ok(Ok(mut fs)) => {
                        let span = tr.enter("checker.walk", input);
                        let tree = guarded(Stage::Walk, || snapshot_tree_scoped(&fs, &ws));
                        tr.exit(span);
                        drop(fuel);
                        match tree {
                            Err(v) => Some(v),
                            Ok(Err(e)) => Some(Violation::CorruptState(e)),
                            Ok(Ok(tree)) => {
                                let mut pruned = 0;
                                let span = tr.enter("checker.compare", input);
                                let v = compare_state(&tree, check, cfg, &scope, &mut pruned);
                                tr.exit(span);
                                v.or_else(|| {
                                    let _fuel = FuelGuard::arm(cfg.recovery_fuel);
                                    let span = tr.enter("checker.probe", input);
                                    let v = guarded(Stage::Probe, || probe_state(&mut fs, &tree));
                                    tr.exit(span);
                                    v.unwrap_or_else(Some)
                                })
                            }
                        }
                    }
                }
            };
            walker.undo_to(mark);
            tr.exit(state_span);
            st.checked += 1;

            let name = &self.sample.workload.name;
            let at = || format!("{name}: point {point} ({phase}, op {seq}) subset {s:?}");
            match (&self.sample.expect, reported) {
                (Expect::Unchecked, _) => {}
                (Expect::Report { class, .. }, true) => {
                    st.verdicts_compared += 1;
                    if verdict.as_ref().map(Violation::class) != Some(*class) {
                        st.disagreements.push(format!(
                            "{}: harness reported {class}, staged pipeline {:?}",
                            at(),
                            verdict.as_ref().map(Violation::class)
                        ));
                    }
                    self.stop = true;
                    return;
                }
                (Expect::Clean | Expect::Report { .. }, _) => {
                    st.verdicts_compared += 1;
                    if let Some(v) = verdict {
                        st.disagreements.push(format!(
                            "{}: harness clean, staged pipeline {}: {}",
                            at(),
                            v.class(),
                            v.detail()
                        ));
                    }
                }
            }
        }
    }
}
