//! Prefix-shared workload execution (the incremental engine's outer layer).
//!
//! ACE-style suites re-execute enormous shared op prefixes: the seq-2 sweep
//! runs each first op once per pair, and every workload of a sweep repeats
//! the same `mkfs` and dependency-setup ops. [`PrefixCache`] exploits this by
//! keeping, for the most recently tested workload, a checkpoint at **every
//! syscall boundary** of all three pipeline stages:
//!
//! * a live, forked oracle file system (plus executor and per-op tree
//!   snapshots) on a [`ForkDevice`];
//! * a live, forked recording file system (plus the write log and per-op
//!   results);
//! * the crash-replay state — persisted base image (kept as one mutable
//!   image plus an undo tape between boundaries), pending writes, the
//!   cross-point artifact memo, and the check counters/reports accumulated
//!   through that boundary.
//!
//! Testing the next workload resumes every stage from the deepest checkpoint
//! whose op prefix matches, re-running only the suffix. Checked results for
//! the shared prefix are *spliced* (re-labelled with the new workload's
//! name), never re-computed — and because all three stages are deterministic
//! functions of the op prefix, the spliced outcome is bit-identical to an
//! uncached run (`tests` below and `tests/determinism.rs` enforce this).
//!
//! Anything the cache cannot handle exactly — a file system whose
//! [`FsKind::fork_fs`] returns `None` (SplitFS's window device aliases its
//! sibling), `mkfs`/oracle failures — falls back to the plain
//! [`test_on_fresh_sinks`] path.
//!
//! A cache (and all its live checkpoints) is `Send`: the bench scheduler
//! gives each of its workers a private one. Nothing here reads
//! [`TestConfig::threads`] — a workload runs on the thread that calls
//! [`PrefixCache::run`].

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use pmem::{ForkDevice, ImageKey, ImageLease};
use pmlog::{LogEntry, LogHandle, LoggingPm, Marker, OpRecord};
use vfs::{BugId, FsKind, Op, Workload};

use crate::{
    config::TestConfig,
    crashgen::PendingWrite,
    exec::{Executor, OpResult},
    harness::{
        push_report, report_divergence, test_on_fresh_sinks, CrossMemo, RepTable, ReplayEngine,
        TestOutcome,
    },
    oracle::{advance_snapshot, snapshot_tree, Oracle, Tree},
};

/// A checkpoint of one crash-free stage (oracle or record) at a syscall
/// boundary: the live file system (forked again on each resume), the
/// executor's slot table, and the stage's cumulative instrumentation.
struct PhaseCkpt<F> {
    fs: F,
    ex: Executor,
    cov: HashSet<u64>,
    trace: BTreeSet<BugId>,
}

/// Undo data to step the persisted base image back across one boundary.
struct TapeSeg {
    undo: Vec<(u64, Vec<u8>)>,
    key_before: ImageKey,
}

/// The crash-replay stage's state at a syscall boundary, plus the check
/// results accumulated through it (spliced on resume instead of re-checked).
#[derive(Clone)]
struct ReplayCkpt {
    pending: Vec<PendingWrite>,
    /// Writes absorbed since the current op began (behavioral-signature
    /// anchoring; see `ReplayEngine::op_absorbed`).
    op_absorbed: Vec<PendingWrite>,
    pending_seqs: BTreeSet<usize>,
    pending_unknown: bool,
    last_done: Option<usize>,
    started: bool,
    memo: CrossMemo,
    /// Behavioral class table — checkpointed so prefix splices preserve the
    /// classes the shared prefix established.
    rep: RepTable,
    /// The check stage's outcome through this boundary: its counters,
    /// in-flight sizes, state keys and reports, nothing of the other stages.
    /// Reports carry the *cached* workload's name; splicing re-labels them.
    chk: TestOutcome,
    cov: HashSet<u64>,
    trace: BTreeSet<BugId>,
    /// Stop-on-first fired at or before this boundary; resumes from here
    /// splice and skip the suffix entirely.
    stopped: bool,
}

/// Everything cached about the most recently tested workload. Index
/// convention: boundary `k` is the state after `ops[0..k]` have executed
/// (`k = 0` is right after `mkfs`), so every `*_ckpts` vector has
/// `ops.len() + 1` entries.
struct CacheState<K: FsKind> {
    ops: Vec<Op>,
    /// `snaps[j]` is the oracle tree after `j` ops (`ops.len() + 1` trees).
    /// With [`TestConfig::shared_oracle`] adjacent trees structurally share
    /// unchanged nodes, so keeping every boundary costs O(changes), not
    /// O(tree) per op.
    snaps: Vec<Arc<Tree>>,
    /// Cumulative [`Oracle::snap_bytes_shared`] through boundary `j`
    /// (`ops.len() + 1` entries), so a spliced resume reports the same
    /// counter as an uncached run.
    snap_shared: Vec<u64>,
    results: Vec<OpResult>,
    rec_results: Vec<OpResult>,
    /// The full recorded write log, and for each boundary the index of the
    /// first log entry past it.
    log: Vec<LogEntry>,
    boundary_pos: Vec<usize>,
    log_handle: LogHandle,
    oracle_ckpts: Vec<PhaseCkpt<K::Fs<ForkDevice>>>,
    record_ckpts: Vec<PhaseCkpt<K::Fs<LoggingPm<ForkDevice>>>>,
    replay: Vec<ReplayCkpt>,
    /// The persisted base image, positioned at boundary `tape.len()`;
    /// popping a segment rewinds it one boundary. Leased, so `reset` and
    /// `drop` hand the buffer back zeroed instead of freeing it, and the
    /// next genesis (every scheduled batch) costs no device-sized calloc.
    base: ImageLease,
    base_key: ImageKey,
    tape: Vec<TapeSeg>,
}

/// Cross-workload execution cache: resumes each pipeline stage from the
/// deepest checkpoint shared with the previously tested workload. One cache
/// serves one `(FsKind, TestConfig)` stream — create it next to the batch
/// loop and feed every workload through [`PrefixCache::run`].
pub struct PrefixCache<K: FsKind> {
    origin: K,
    oracle_kind: K,
    record_kind: K,
    check_kind: K,
    state: Option<CacheState<K>>,
    disabled: bool,
}

impl<K: FsKind> PrefixCache<K> {
    /// Creates an empty cache for workloads tested under `kind`. The first
    /// [`run`](PrefixCache::run) formats the cached devices.
    pub fn new(kind: &K) -> Self {
        let fresh = || kind.with_options(kind.options().with_fresh_sinks());
        PrefixCache {
            origin: kind.clone(),
            oracle_kind: fresh(),
            record_kind: fresh(),
            check_kind: fresh(),
            state: None,
            disabled: false,
        }
    }

    /// Whether the cache is live (false once a fallback condition — no fork
    /// support, mkfs failure — was hit; every run then takes the plain path).
    pub fn is_active(&self) -> bool {
        !self.disabled
    }

    /// Drops all cached state (the next run re-formats from genesis) while
    /// keeping the disabled flag. The scheduler resets its per-worker caches
    /// at the start of every scheduled batch so counters are a pure function
    /// of the batch, not of what ran before it on the same worker.
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Tests `w`, resuming from the deepest cached prefix when possible.
    /// Returns the outcome plus the workload's private coverage and trace
    /// sets — the same triple [`test_on_fresh_sinks`] yields.
    pub fn run(
        &mut self,
        w: &Workload,
        cfg: &TestConfig,
    ) -> (TestOutcome, HashSet<u64>, BTreeSet<BugId>) {
        if self.disabled {
            return test_on_fresh_sinks(&self.origin, w, cfg);
        }
        if self.state.is_none() && !self.init_genesis(cfg) {
            self.disabled = true;
            return test_on_fresh_sinks(&self.origin, w, cfg);
        }
        match self.run_cached(w, cfg) {
            Some(r) => r,
            None => {
                // Mid-run anomaly (fork refused, oracle suffix failed): the
                // partially updated state is discarded and the workload
                // re-runs uncached, which reproduces the exact failure
                // reports of the plain path.
                self.state = None;
                test_on_fresh_sinks(&self.origin, w, cfg)
            }
        }
    }

    fn clear_sinks(&self) {
        for k in [&self.oracle_kind, &self.record_kind, &self.check_kind] {
            k.options().cov.clear();
            k.options().trace.clear();
        }
    }

    /// Builds the depth-0 state: mkfs on both lineages, the mkfs portion of
    /// the write log, and the base image fast-forwarded through it.
    fn init_genesis(&mut self, cfg: &TestConfig) -> bool {
        self.clear_sinks();

        // Oracle lineage.
        let Ok(ofs) = self.oracle_kind.mkfs(ForkDevice::new(cfg.device_size)) else {
            return false;
        };
        if self.oracle_kind.fork_fs(&ofs).is_none() {
            return false; // No fork support (SplitFS): cache permanently off.
        }
        let Ok(root_snap) = snapshot_tree(&ofs) else { return false };
        let o_cov = self.oracle_kind.options().cov.snapshot();
        let o_trace = self.oracle_kind.options().trace.snapshot();

        // Record lineage.
        let log_handle = LogHandle::new();
        let ldev = ForkDevice::new(cfg.device_size);
        let lp = if cfg.eadr {
            LoggingPm::new_eadr(ldev, log_handle.clone())
        } else {
            LoggingPm::new(ldev, log_handle.clone())
        };
        let Ok(rfs) = self.record_kind.mkfs(lp) else { return false };
        let log: Vec<LogEntry> = log_handle.take().entries().to_vec();
        let r_cov = self.record_kind.options().cov.snapshot();
        let r_trace = self.record_kind.options().trace.snapshot();

        // Replay stage: fast-forward the base image through the mkfs writes
        // (no markers yet, so no crash points exist in this span).
        let dummy_w = Workload::new("", vec![]);
        let dummy_oracle = Oracle { snaps: vec![], results: vec![], snap_bytes_shared: 0 };
        let guarantees = self.check_kind.guarantees();
        // The all-zero image hashes to 0.
        let base = ImageLease::zeroed(cfg.device_size);
        let mut engine = ReplayEngine::new(
            &self.check_kind, &dummy_w, cfg, &dummy_oracle, &[], guarantees, base, 0,
        );
        for e in &log {
            engine.step(e, None);
        }

        self.state = Some(CacheState {
            ops: Vec::new(),
            snaps: vec![Arc::new(root_snap)],
            snap_shared: vec![0],
            results: Vec::new(),
            rec_results: Vec::new(),
            boundary_pos: vec![log.len()],
            log,
            log_handle,
            oracle_ckpts: vec![PhaseCkpt { fs: ofs, ex: Executor::new(), cov: o_cov, trace: o_trace }],
            record_ckpts: vec![PhaseCkpt { fs: rfs, ex: Executor::new(), cov: r_cov, trace: r_trace }],
            replay: vec![ReplayCkpt {
                pending: engine.pending.clone(),
                op_absorbed: engine.op_absorbed.clone(),
                pending_seqs: engine.pending_seqs.clone(),
                pending_unknown: engine.pending_unknown,
                last_done: engine.last_done,
                started: engine.started,
                memo: CrossMemo::default(),
                rep: RepTable::default(),
                chk: TestOutcome::default(),
                cov: HashSet::new(),
                trace: BTreeSet::new(),
                stopped: false,
            }],
            base_key: engine.base_key,
            base: engine.base,
            tape: Vec::new(),
        });
        true
    }

    /// The cached pipeline. `None` = anomaly, caller falls back.
    #[allow(clippy::too_many_lines)]
    fn run_cached(
        &mut self,
        w: &Workload,
        cfg: &TestConfig,
    ) -> Option<(TestOutcome, HashSet<u64>, BTreeSet<BugId>)> {
        let mut st = self.state.take()?;
        debug_assert_eq!(st.base.len() as u64, cfg.device_size, "one cache per TestConfig");

        // Deepest shared boundary.
        let max = st.ops.len().min(w.ops.len());
        let mut k = 0;
        while k < max && st.ops[k] == w.ops[k] {
            k += 1;
        }
        let n = w.ops.len();

        let mut out = TestOutcome { workload: w.name.clone(), ..Default::default() };
        out.prefix_hits = 1;
        out.prefix_ops_saved = 2 * k as u64;
        self.clear_sinks();

        // ---- 1. Oracle: resume from boundary k ----
        let t_oracle = Instant::now();
        self.oracle_kind.options().cov.absorb(&st.oracle_ckpts[k].cov);
        self.oracle_kind.options().trace.absorb(&st.oracle_ckpts[k].trace);
        let mut snaps: Vec<Arc<Tree>> = st.snaps[..=k].to_vec();
        let mut snap_shared: Vec<u64> = st.snap_shared[..=k].to_vec();
        let mut results: Vec<OpResult> = st.results[..k].to_vec();
        let mut ofs = self.oracle_kind.fork_fs(&st.oracle_ckpts[k].fs)?;
        let mut oex = st.oracle_ckpts[k].ex.clone();
        st.oracle_ckpts.truncate(k + 1);
        for (seq, op) in w.ops.iter().enumerate().skip(k) {
            let r = oex.exec(&mut ofs, op, seq);
            // An oracle snapshot failure is reported by the plain path with
            // its own early-return shape; fall back rather than imitate it.
            let (next, shared) = if cfg.shared_oracle {
                let prev = snaps.last().expect("root snapshot present");
                advance_snapshot(&ofs, prev, op, r.target.as_deref()).ok()?
            } else {
                (Arc::new(snapshot_tree(&ofs).ok()?), 0)
            };
            snaps.push(next);
            snap_shared.push(snap_shared.last().expect("root entry present") + shared);
            results.push(r);
            let fork = self.oracle_kind.fork_fs(&ofs)?;
            st.oracle_ckpts.push(PhaseCkpt {
                fs: std::mem::replace(&mut ofs, fork),
                ex: oex.clone(),
                cov: self.oracle_kind.options().cov.snapshot(),
                trace: self.oracle_kind.options().trace.snapshot(),
            });
        }
        out.timing.oracle = t_oracle.elapsed();
        let snap_bytes_shared = *snap_shared.last().expect("root entry present");
        let oracle = Oracle { snaps, results, snap_bytes_shared };
        out.oracle_snap_bytes_shared = oracle.snap_bytes_shared;

        // ---- 2. Record: resume from boundary k ----
        let t_record = Instant::now();
        self.record_kind.options().cov.absorb(&st.record_ckpts[k].cov);
        self.record_kind.options().trace.absorb(&st.record_ckpts[k].trace);
        let mut rec_results: Vec<OpResult> = st.rec_results[..k].to_vec();
        let mut rfs = self.record_kind.fork_fs(&st.record_ckpts[k].fs)?;
        let mut rex = st.record_ckpts[k].ex.clone();
        st.record_ckpts.truncate(k + 1);
        let pos_k = st.boundary_pos[k];
        st.log.truncate(pos_k);
        st.boundary_pos.truncate(k + 1);
        debug_assert!(st.log_handle.with(|l| l.is_empty()), "log not drained between runs");
        for (seq, op) in w.ops.iter().enumerate().skip(k) {
            st.log_handle
                .marker(Marker::SyscallBegin(OpRecord { seq, desc: op.describe() }));
            let r = rex.exec(&mut rfs, op, seq);
            st.log_handle.marker(Marker::SyscallEnd { seq, ok: r.result.is_ok() });
            rec_results.push(r);
            st.boundary_pos.push(pos_k + st.log_handle.with(|l| l.len()));
            let fork = self.record_kind.fork_fs(&rfs)?;
            st.record_ckpts.push(PhaseCkpt {
                fs: std::mem::replace(&mut rfs, fork),
                ex: rex.clone(),
                cov: self.record_kind.options().cov.snapshot(),
                trace: self.record_kind.options().trace.snapshot(),
            });
        }
        let suffix = st.log_handle.take();
        st.log.extend(suffix.entries().iter().cloned());
        out.timing.record = t_record.elapsed();

        // Functional divergence / runtime errors over *all* ops, exactly as
        // the plain path reports them.
        report_divergence(w, &rec_results, &oracle.results, &mut out);

        // ---- 3. Replay and check: splice boundary k, check the suffix ----
        let t_check = Instant::now();
        st.replay.truncate(k + 1);
        // Rewind the base image to boundary k.
        while st.tape.len() > k {
            let seg = st.tape.pop().expect("len checked");
            for (off, old) in seg.undo.iter().rev() {
                st.base.write(*off, old);
            }
            st.base_key = seg.key_before;
        }

        let ck = &st.replay[k];
        let ck_stopped = ck.stopped;
        self.check_kind.options().cov.absorb(&ck.cov);
        self.check_kind.options().trace.absorb(&ck.trace);
        // The check stage's own outcome: seeded with the spliced prefix,
        // merged into `out` below (after the record-phase reports, matching
        // the plain path's report order).
        let mut chk = ck.chk.clone();
        for r in &mut chk.reports {
            r.workload = w.name.clone();
        }

        if !ck_stopped {
            let guarantees = self.check_kind.guarantees();
            // The engine takes the cache's image for the suffix; it moves
            // back below.
            let mut engine = ReplayEngine::new(
                &self.check_kind, w, cfg, &oracle, &rec_results, guarantees, st.base, st.base_key,
            );
            engine.memo = ck.memo.clone();
            engine.rep = ck.rep.clone();
            engine.pending = ck.pending.clone();
            engine.op_absorbed = ck.op_absorbed.clone();
            engine.pending_seqs = ck.pending_seqs.clone();
            engine.pending_unknown = ck.pending_unknown;
            engine.last_done = ck.last_done;
            engine.started = ck.started;
            engine.undo = Some(Vec::new());
            let mut seg_key = engine.base_key;

            for pos in pos_k..st.log.len() {
                if engine.stop {
                    break;
                }
                let entry = &st.log[pos];
                engine.step(entry, Some(&mut chk));
                if let LogEntry::Marker(Marker::SyscallEnd { .. }) = entry {
                    // A stop *at* this boundary keeps its full segment; only
                    // mid-op partial segments are rolled back below.
                    st.tape.push(TapeSeg {
                        undo: engine.undo.replace(Vec::new()).expect("undo enabled"),
                        key_before: seg_key,
                    });
                    seg_key = engine.base_key;
                    st.replay.push(Self::snap_replay(&engine, &chk, &self.check_kind));
                    if engine.stop {
                        break;
                    }
                }
            }
            if engine.stop {
                // Roll back any partial segment so the tape rests exactly at
                // a boundary, then pad the remaining boundaries with the
                // frozen stop state (any workload sharing a deeper prefix
                // stops at the same earlier point).
                if let Some(undo) = engine.undo.take() {
                    for (off, old) in undo.iter().rev() {
                        engine.base.write(*off, old);
                    }
                    engine.base_key = seg_key;
                }
                while st.replay.len() < n + 1 {
                    st.replay.push(Self::snap_replay(&engine, &chk, &self.check_kind));
                }
            } else {
                engine.undo = None;
            }
            st.base_key = engine.base_key;
            st.base = engine.base;
        } else {
            // A workload sharing this prefix stops at the same earlier
            // point: every later boundary freezes the spliced stop state.
            let frozen = st.replay[k].clone();
            while st.replay.len() < n + 1 {
                st.replay.push(frozen.clone());
            }
        }
        debug_assert_eq!(st.replay.len(), n + 1);
        out.timing.check = t_check.elapsed();

        // Everything else is the check stage's.
        let check_reports = std::mem::take(&mut chk.reports);
        let mut out = TestOutcome {
            workload: out.workload,
            reports: out.reports,
            prefix_hits: out.prefix_hits,
            prefix_ops_saved: out.prefix_ops_saved,
            oracle_snap_bytes_shared: out.oracle_snap_bytes_shared,
            timing: out.timing,
            ..chk
        };
        for r in check_reports {
            push_report(&mut out, r);
        }

        // ---- Commit the new cache state ----
        st.ops = w.ops.clone();
        st.snaps.truncate(k + 1);
        st.snaps.extend(oracle.snaps[k + 1..].iter().cloned());
        st.snap_shared.truncate(k + 1);
        st.snap_shared.extend(snap_shared[k + 1..].iter().copied());
        st.results.truncate(k);
        st.results.extend(oracle.results[k..].iter().cloned());
        st.rec_results = rec_results;
        self.state = Some(st);

        let cov = self.phase_cov();
        let trace = self.phase_trace();
        out.traced_bugs = trace.clone();
        Some((out, cov, trace))
    }

    /// Snapshots the replay stage at a boundary (stop-state padding reuses
    /// the same shape with `stopped = true`).
    fn snap_replay(engine: &ReplayEngine<'_, K>, chk: &TestOutcome, check_kind: &K) -> ReplayCkpt {
        ReplayCkpt {
            pending: engine.pending.clone(),
            op_absorbed: engine.op_absorbed.clone(),
            pending_seqs: engine.pending_seqs.clone(),
            pending_unknown: engine.pending_unknown,
            last_done: engine.last_done,
            started: engine.started,
            memo: engine.memo.clone(),
            rep: engine.rep.clone(),
            chk: chk.clone(),
            cov: check_kind.options().cov.snapshot(),
            trace: check_kind.options().trace.snapshot(),
            stopped: engine.stop,
        }
    }

    fn phase_cov(&self) -> HashSet<u64> {
        let mut cov = self.oracle_kind.options().cov.snapshot();
        cov.extend(self.record_kind.options().cov.snapshot());
        cov.extend(self.check_kind.options().cov.snapshot());
        cov
    }

    fn phase_trace(&self) -> BTreeSet<BugId> {
        let mut t = self.oracle_kind.options().trace.snapshot();
        t.extend(self.record_kind.options().trace.snapshot());
        t.extend(self.check_kind.options().trace.snapshot());
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ext4dax::Ext4DaxKind;
    use novafs::NovaKind;
    use vfs::fs::FsOptions;

    /// The whole cache — live forked file systems, log handles, replay
    /// checkpoints — must be movable to a scheduler worker thread.
    #[test]
    fn prefix_cache_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<PrefixCache<NovaKind>>();
        assert_send::<PrefixCache<Ext4DaxKind>>();
    }

    /// Everything a cached run must reproduce: the whole outcome except the
    /// prefix counters (which describe the cache itself) and wall times —
    /// so a field added to the checkpoint is compared without being listed.
    fn fingerprint(o: &TestOutcome) -> String {
        let o = TestOutcome {
            prefix_hits: 0,
            prefix_ops_saved: 0,
            timing: Default::default(),
            ..o.clone()
        };
        format!("{o:?}")
    }

    /// State keys on: the checkpoint carries them, so the differentials
    /// must see them.
    fn keyed(cfg: TestConfig) -> TestConfig {
        TestConfig { collect_state_keys: true, ..cfg }
    }

    fn uncached<K: FsKind>(kind: &K, w: &Workload, cfg: &TestConfig) -> TestOutcome {
        test_on_fresh_sinks(kind, w, cfg).0
    }

    #[test]
    fn resumed_runs_match_uncached_bit_for_bit() {
        let kind = NovaKind { opts: FsOptions::default(), fortis: false };
        let cfg = keyed(TestConfig::default());
        let mut cache = PrefixCache::new(&kind);
        let shared = vec![
            Op::Mkdir { path: "/A".into() },
            Op::Creat { path: "/A/foo".into() },
        ];
        let mk = |name: &str, tail: Op| {
            let mut ops = shared.clone();
            ops.push(tail);
            Workload::new(name, ops)
        };
        let ws = [
            mk("w0", Op::WritePath { path: "/A/foo".into(), off: 0, size: 600 }),
            mk("w1", Op::Link { old: "/A/foo".into(), new: "/A/bar".into() }),
            mk("w2", Op::Unlink { path: "/A/foo".into() }),
        ];
        for w in &ws {
            let (got, _, _) = cache.run(w, &cfg);
            let want = uncached(&kind, w, &cfg);
            assert_eq!(fingerprint(&got), fingerprint(&want), "{}", w.name);
            assert!(!got.state_keys.is_empty(), "{}", w.name);
        }
        // The cache now holds w2, which shares the 2-op setup prefix.
        let (o1, _, _) = cache.run(&ws[1], &cfg);
        assert_eq!(o1.prefix_hits, 1);
        assert_eq!(o1.prefix_ops_saved, 2 * 2, "resumes past the shared setup ops");
        // An identical rerun resumes past every op.
        let (o1b, _, _) = cache.run(&ws[1], &cfg);
        assert_eq!(o1b.prefix_ops_saved, 2 * 3);
        assert_eq!(fingerprint(&o1), fingerprint(&o1b));
        // A write, then an op that leaves the written file alone: the oracle
        // shares the file's bytes, so a resume past both ops splices nonzero
        // oracle counters.
        let mut ops = ws[0].ops.clone();
        ops.push(Op::Creat { path: "/A/baz".into() });
        let deep = Workload::new("w3", ops);
        let want = uncached(&kind, &deep, &cfg);
        assert!(want.oracle_snap_bytes_shared > 0 && want.oracle_subtrees_pruned > 0);
        cache.run(&deep, &cfg);
        let (again, _, _) = cache.run(&deep, &cfg);
        assert_eq!(again.prefix_ops_saved, 2 * 4);
        assert_eq!(fingerprint(&again), fingerprint(&want));
    }

    #[test]
    fn weak_fs_and_repeat_workloads_resume() {
        let kind = Ext4DaxKind::default();
        let cfg = keyed(TestConfig::default());
        let mut cache = PrefixCache::new(&kind);
        let w = Workload::new(
            "ext4",
            vec![
                Op::Creat { path: "/f".into() },
                Op::WritePath { path: "/f".into(), off: 0, size: 1000 },
                Op::FsyncPath { path: "/f".into() },
            ],
        );
        let (a, cov_a, _) = cache.run(&w, &cfg);
        let (b, cov_b, _) = cache.run(&w, &cfg);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(cov_a, cov_b);
        let want = uncached(&kind, &w, &cfg);
        assert_eq!(fingerprint(&a), fingerprint(&want));
    }

    #[test]
    fn fallback_when_fork_unsupported() {
        let kind = splitfs::SplitFsKind { opts: FsOptions::default() };
        let cfg = keyed(TestConfig::default());
        let mut cache = PrefixCache::new(&kind);
        let w = Workload::new(
            "split",
            vec![Op::Creat { path: "/f".into() }, Op::WritePath { path: "/f".into(), off: 0, size: 64 }],
        );
        let (got, _, _) = cache.run(&w, &cfg);
        assert!(!cache.is_active(), "SplitFS cannot fork; cache must disable itself");
        let want = uncached(&kind, &w, &cfg);
        assert_eq!(fingerprint(&got), fingerprint(&want));
    }

    #[test]
    fn stop_on_first_prefix_splices_the_find() {
        // The injected NOVA rename-atomicity bug fires inside the shared
        // prefix; the resumed workload must splice the identical
        // (re-labelled) violation and frozen counters.
        let kind = NovaKind {
            opts: FsOptions::with_bugs(vfs::BugSet::only(&[BugId::B04])),
            fortis: false,
        };
        let cfg = keyed(TestConfig { stop_on_first: true, ..TestConfig::default() });
        let mut cache = PrefixCache::new(&kind);
        let base_ops = vec![
            Op::Creat { path: "/a".into() },
            Op::Rename { old: "/a".into(), new: "/b".into() },
        ];
        let mut ops2 = base_ops.clone();
        ops2.push(Op::Creat { path: "/c".into() });
        let w1 = Workload::new("first", base_ops);
        let w2 = Workload::new("second", ops2);
        let (o1, _, _) = cache.run(&w1, &cfg);
        let (o2, _, _) = cache.run(&w2, &cfg);
        let want1 = uncached(&kind, &w1, &cfg);
        let want2 = uncached(&kind, &w2, &cfg);
        assert_eq!(fingerprint(&o1), fingerprint(&want1));
        assert_eq!(fingerprint(&o2), fingerprint(&want2));
        // And a *differing* prefix after a stop still resumes correctly.
        let w3 = Workload::new(
            "third",
            vec![Op::Creat { path: "/a".into() }, Op::Mkdir { path: "/d".into() }],
        );
        let (o3, _, _) = cache.run(&w3, &cfg);
        let want3 = uncached(&kind, &w3, &cfg);
        assert_eq!(fingerprint(&o3), fingerprint(&want3));
    }
}
