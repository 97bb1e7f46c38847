//! The campaign worker: claims tasks off the queue, runs them with the
//! existing scheduling machinery, journals per-workload checkpoints, and
//! commits results; plus the canonical-order merge that folds all task
//! results into the deterministic campaign document.
//!
//! ## Why a resumed campaign is byte-identical *and* warm
//!
//! An ACE task is one scheduled batch: [`crate::plan_subtrees`] partitions
//! it into prefix subtrees and the workloads run group by group through one
//! [`PrefixCache`] — exactly the `Scheduler`'s single-worker execution
//! order, so per-workload outcomes (including `prefix_hits` /
//! `prefix_ops_saved`) are pure functions of the task. On resume, journaled
//! workloads are spliced from their checkpoints; at the first missing
//! workload the runner **re-warms** the cache by re-running the last
//! journaled workload of that group (discarding its result — the journal
//! already has it): cache state is a pure function of the workload that
//! produced it, so the next live workload resumes from precisely the op
//! prefix it would have seen uninterrupted. Resumed runs therefore re-earn
//! 100% of the serial `prefix_ops_saved`, not ≥ 90%.
//!
//! A fuzz task resumes by *replay*: generation is deterministic given the
//! seed and the feedback sequence, and every checkpoint records the exact
//! new-coverage hashes its workload contributed, so re-running
//! `next_workload`/`feedback` over the journaled prefix puts the RNG
//! stream, corpus, and seen-set exactly where the killed worker left them.

use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

use chipmunk::{test_on_fresh_sinks, PrefixCache, TestConfig};
use vfs::{
    fs::{FsKind, FsOptions},
    BugSet, Cov, Workload,
};
use workloads::fuzz::{FuzzConfig, Fuzzer};

use crate::jsonout::{self, JVal};
use crate::sched::guarded_run;
use crate::{dispatch, plan_subtrees, SubtreePlan, WithKind};

use super::hostio::StoreError;
use super::queue::{Claim, Lease, WorkQueue};
use super::store::{CampaignStore, TaskJournal};
use super::wire::{counter_slot, fnv1a, ju, WRes, COUNTER_NAMES};
use super::{CampaignSpec, TaskKind, FUZZ_TASK_LEN};

/// Worker runtime options (everything *not* in the spec: these may differ
/// between runs of the same campaign without affecting its results). There
/// is no thread count here: a worker runs its task's workloads one after
/// another, one workload is checked by one thread, and a store campaign's
/// parallelism is its worker processes (`campaignd --workers N`).
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Lease heartbeat TTL for stale-lease reclamation.
    pub ttl: Duration,
    /// Worker id (lease files, summary file name).
    pub worker_id: String,
    /// Test hook: stop after this many journal checkpoint appends —
    /// `hard_kill` aborts the process (a genuine SIGKILL-shaped death, no
    /// destructors), otherwise the worker returns with `interrupted` set,
    /// leaving its lease behind exactly as a kill would.
    pub kill_after_checkpoints: Option<u64>,
    /// Abort instead of returning when the kill hook fires.
    pub hard_kill: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            ttl: Duration::from_secs(5),
            worker_id: format!("w{}", std::process::id()),
            kill_after_checkpoints: None,
            hard_kill: false,
        }
    }
}

/// What one worker did (written to `journal/worker-<id>.json` on clean
/// exit; purely observability — never part of the deterministic document).
#[derive(Debug, Default, Clone)]
pub struct WorkerSummary {
    /// Tasks this worker completed.
    pub tasks_run: u64,
    /// Of those, tasks resumed from a non-empty journal.
    pub tasks_resumed: u64,
    /// Workload results spliced from journals instead of re-run.
    pub journal_workloads_replayed: u64,
    /// Cache re-warm runs (re-executions of an already-journaled workload
    /// to rebuild `PrefixCache` state mid-group).
    pub rewarm_runs: u64,
    /// Tasks abandoned (lease released, task left for a re-claim) because
    /// of a recoverable host-I/O error.
    pub tasks_abandoned: u64,
    /// Host-I/O retries this worker's context performed.
    pub io_retries: u64,
    /// Simulated-clock ticks spent in retry backoff.
    pub backoff_ticks: u64,
    /// Corrupt committed artifacts moved to `quarantine/`.
    pub tasks_quarantined: u64,
    /// Faults the host-I/O injector produced (0 outside torture runs).
    pub faults_injected: u64,
    /// The store entered read-only degraded mode (ENOSPC).
    pub degraded: bool,
    /// The kill hook fired (test runs only).
    pub interrupted: bool,
}

impl WorkerSummary {
    /// Serializes the summary.
    pub fn to_jval(&self, worker_id: &str) -> JVal {
        JVal::Obj(vec![
            ("worker".into(), JVal::Str(worker_id.to_string())),
            ("tasks_run".into(), ju(self.tasks_run)),
            ("tasks_resumed".into(), ju(self.tasks_resumed)),
            ("journal_workloads_replayed".into(), ju(self.journal_workloads_replayed)),
            ("rewarm_runs".into(), ju(self.rewarm_runs)),
            ("tasks_abandoned".into(), ju(self.tasks_abandoned)),
            ("io_retries".into(), ju(self.io_retries)),
            ("backoff_ticks".into(), ju(self.backoff_ticks)),
            ("tasks_quarantined".into(), ju(self.tasks_quarantined)),
            ("faults_injected".into(), ju(self.faults_injected)),
            ("degraded".into(), JVal::Bool(self.degraded)),
            ("interrupted".into(), JVal::Bool(self.interrupted)),
        ])
    }

    /// Copies the host-I/O observability counters out of the store's
    /// context (called once, when the worker stops).
    fn absorb_io(&mut self, store: &CampaignStore) {
        self.io_retries = store.io.io_retries();
        self.backoff_ticks = store.io.backoff_ticks();
        self.tasks_quarantined = store.io.tasks_quarantined();
        self.faults_injected = store.io.faults_injected();
        self.degraded = store.io.degraded();
    }
}

enum TaskRun {
    Complete(Vec<WRes>),
    Interrupted,
}

/// Times one task may be abandoned (recoverable host-I/O failure) before
/// the worker gives up on the campaign: a task that keeps failing under
/// retry + re-lease is not going to heal itself.
const MAX_TASK_ATTEMPTS: u32 = 5;

/// Consecutive no-progress queue passes before the worker declares a
/// livelock. Generous — each pass sleeps 25ms, so this is minutes of a
/// genuinely wedged store, never a slow sibling worker (their completed
/// tasks count as progress on our next pass).
const MAX_STALLED_PASSES: u32 = 12_000;

/// Runs one worker over the store until every task has a committed result
/// (or the kill hook fires). Safe to run concurrently with any number of
/// other workers, in this process or others, on the same store.
///
/// Error policy: Transient (retry-exhausted) and quarantined-Corrupt
/// failures **abandon the task** — the lease is released, the failure
/// counted, and the task re-claimed on a later pass (by this or any other
/// worker); a task that fails [`MAX_TASK_ATTEMPTS`] times escalates to
/// Fatal. Exhausted (ENOSPC → degraded read-only store) and Fatal (host
/// death, unusable store) stop the worker immediately.
pub fn run_worker(store: &CampaignStore, opts: &RunOpts) -> Result<WorkerSummary, StoreError> {
    let spec = &store.spec;
    let ace_ws = spec.ace_workloads();
    let total = spec.total_tasks();
    let queue = WorkQueue::new(store, &opts.worker_id, opts.ttl);
    let mut budget = opts.kill_after_checkpoints;
    let mut sum = WorkerSummary::default();
    let mut attempts: BTreeMap<usize, u32> = BTreeMap::new();
    let mut stalled = 0u32;

    loop {
        let mut progressed = false;
        let mut all_done = true;
        for id in 0..total {
            if store.result_exists(id) {
                continue;
            }
            all_done = false;
            let kind = spec.task_kind(id, ace_ws.len());
            if let TaskKind::Fuzz { index } = kind {
                // Fuzz batches are sequentially dependent: generation of
                // batch k replays batches 0..k.
                if index > 0 && !store.result_exists(id - 1) {
                    continue;
                }
            }
            let lease = match queue.claim(id) {
                Claim::Claimed(l) => l,
                Claim::Busy | Claim::Done => continue,
            };
            let step = run_task(store, id, kind, &ace_ws, &lease, opts, &mut budget, &mut sum)
                .and_then(|run| match run {
                    TaskRun::Complete(results) => {
                        store.write_result(id, &results)?;
                        Ok(true)
                    }
                    TaskRun::Interrupted => Ok(false),
                });
            match step {
                Ok(true) => {
                    lease.release();
                    sum.tasks_run += 1;
                    progressed = true;
                }
                Ok(false) => {
                    // Drop the lease without releasing it (`Lease` has no
                    // Drop) — that is what a kill does; a successor (often
                    // this very process) reclaims it via the stale check.
                    sum.interrupted = true;
                    sum.absorb_io(store);
                    return Ok(sum);
                }
                Err(e) if e.task_recoverable() => {
                    // Abandon: release the lease and let the normal claim
                    // loop re-run the task (journaled progress is kept —
                    // the successor splices it). A quarantined dependency
                    // lands here too: its completion marker is gone, so
                    // the id-order pass re-runs the dependency first.
                    lease.release();
                    sum.tasks_abandoned += 1;
                    let n = attempts.entry(id).or_insert(0);
                    *n += 1;
                    if *n >= MAX_TASK_ATTEMPTS {
                        sum.absorb_io(store);
                        return Err(StoreError::fatal(format!(
                            "task {id} abandoned {n} times; last error: {e}"
                        )));
                    }
                    progressed = true; // re-claim next pass without sleeping
                }
                Err(e) => {
                    sum.absorb_io(store);
                    return Err(e);
                }
            }
        }
        if all_done {
            break;
        }
        if progressed {
            stalled = 0;
        } else {
            // Someone else holds the remaining leases (or a fuzz dependency
            // is still running elsewhere): wait for heartbeats to resolve.
            // A dead injector or wedged store must not spin forever.
            if store.io.crashed() {
                sum.absorb_io(store);
                return Err(StoreError::fatal("host crashed; worker cannot make progress"));
            }
            // ENOSPC surfacing through the lease path is swallowed by the
            // claim loop (a refused create just means "not ours"), so the
            // degraded flag is the only signal — a full disk can never
            // un-stall us.
            if store.io.degraded() {
                sum.absorb_io(store);
                return Err(StoreError::Exhausted {
                    op: "claim",
                    path: store.dir.display().to_string(),
                    detail: "store is out of space; switching to read-only degraded mode".into(),
                });
            }
            stalled += 1;
            if stalled > MAX_STALLED_PASSES {
                sum.absorb_io(store);
                return Err(StoreError::fatal(format!(
                    "queue made no progress for {MAX_STALLED_PASSES} passes; giving up"
                )));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    sum.absorb_io(store);
    Ok(sum)
}

/// Writes the worker's summary file (observability only).
pub fn write_summary(store: &CampaignStore, opts: &RunOpts, sum: &WorkerSummary) {
    let path = store.dir.join("journal").join(format!("worker-{}.json", opts.worker_id));
    let _ = jsonout::write_atomic(
        &path.to_string_lossy(),
        &(sum.to_jval(&opts.worker_id).render() + "\n"),
    );
}

#[allow(clippy::too_many_arguments)]
fn run_task(
    store: &CampaignStore,
    id: usize,
    kind: TaskKind,
    ace_ws: &[Workload],
    lease: &Lease,
    opts: &RunOpts,
    budget: &mut Option<u64>,
    sum: &mut WorkerSummary,
) -> Result<TaskRun, StoreError> {
    match kind {
        TaskKind::Ace { start, len } => {
            let ws = &ace_ws[start..start + len];
            let keys: Vec<Vec<String>> =
                ws.iter().map(|w| w.ops.iter().map(|o| o.describe()).collect()).collect();
            let plan = plan_subtrees(&keys);
            let sig = ace_plan_sig(id, &keys, &plan);
            let state = TaskJournal::recover(&store.io, &store.journal_path(id), sig)?;
            if !state.done.is_empty() {
                sum.tasks_resumed += 1;
                sum.journal_workloads_replayed += state.done.len() as u64;
            }
            let mut journal = TaskJournal::open(&store.io, &store.journal_path(id), &state, sig)?;
            let cfg = store.spec.ace_cfg();
            dispatch(
                store.spec.fs,
                campaign_opts(&store.spec),
                AceTask {
                    ws,
                    plan: &plan,
                    cfg: &cfg,
                    bitmap_bits: store.spec.bitmap_bits,
                    done: state.done,
                    journal: &mut journal,
                    lease,
                    budget,
                    hard_kill: opts.hard_kill,
                    rewarms: &mut sum.rewarm_runs,
                },
            )
        }
        TaskKind::Fuzz { index } => {
            let sig = fuzz_plan_sig(id, &store.spec, index);
            let state = TaskJournal::recover(&store.io, &store.journal_path(id), sig)?;
            if !state.done.is_empty() {
                sum.tasks_resumed += 1;
                sum.journal_workloads_replayed += state.done.len() as u64;
            }
            let mut journal = TaskJournal::open(&store.io, &store.journal_path(id), &state, sig)?;
            // Replay material: every earlier fuzz batch's committed results,
            // in order (their existence gates claiming this task). The
            // verified loader quarantines a corrupt dependency, clearing its
            // completion marker — the abandon path then re-runs it first.
            let first_fuzz = id - index as usize;
            let mut prior = Vec::new();
            for t in first_fuzz..id {
                prior.push(store.load_result_verified(t)?.ok_or(StoreError::Transient {
                    op: "load-dependency",
                    path: store.result_path(t).display().to_string(),
                    detail: format!("fuzz task {t} lost its result while task {id} was claimed"),
                })?);
            }
            let len = FUZZ_TASK_LEN.min(store.spec.fuzz_budget - index * FUZZ_TASK_LEN) as usize;
            let cfg = store.spec.fuzz_cfg();
            dispatch(
                store.spec.fs,
                campaign_opts(&store.spec),
                FuzzTask {
                    spec: &store.spec,
                    len,
                    prior,
                    cfg: &cfg,
                    done: state.done,
                    journal: &mut journal,
                    lease,
                    budget,
                    hard_kill: opts.hard_kill,
                },
            )
        }
    }
}

/// Campaigns hunt the as-released file system with coverage on (the fuzzer
/// feeds on it; ACE coverage enriches the store's bitmap for free). A spec
/// targeting one Table 1 bug (`campaignd --bug N`) injects only that bug.
fn campaign_opts(spec: &CampaignSpec) -> FsOptions {
    let bugs = match spec.bug {
        Some(n) => {
            let id = vfs::bugs::bug_table()
                .iter()
                .find(|b| b.id.number() == n)
                .expect("spec.bug validated at parse time")
                .id;
            BugSet::only(&[id])
        }
        None => BugSet::as_released(),
    };
    FsOptions { bugs, cov: Cov::enabled(), ..Default::default() }
}

/// Ticks the kill-hook budget after a checkpoint append. Returns `true`
/// when the worker must stop now.
fn kill_tick(budget: &mut Option<u64>, hard_kill: bool) -> bool {
    let Some(b) = budget else { return false };
    *b = b.saturating_sub(1);
    if *b > 0 {
        return false;
    }
    if hard_kill {
        // A real SIGKILL runs no destructors; neither does abort. The lease
        // and any torn journal tail stay exactly as they are.
        std::process::abort();
    }
    true
}

fn ace_plan_sig(task: usize, keys: &[Vec<String>], plan: &SubtreePlan) -> u64 {
    let mut h = fnv1a(b"ace-plan", 0);
    h = fnv1a(&(task as u64).to_le_bytes(), h);
    for g in &plan.groups {
        h = fnv1a(b"G", h);
        for &i in g {
            h = fnv1a(&(i as u64).to_le_bytes(), h);
            for k in &keys[i] {
                h = fnv1a(k.as_bytes(), h);
                h = fnv1a(b";", h);
            }
        }
    }
    fnv1a(&plan.max_depth.to_le_bytes(), h)
}

fn fuzz_plan_sig(task: usize, spec: &CampaignSpec, index: u64) -> u64 {
    let mut h = fnv1a(b"fuzz-plan", 0);
    h = fnv1a(&(task as u64).to_le_bytes(), h);
    h = fnv1a(&spec.fuzz_seed.to_le_bytes(), h);
    h = fnv1a(&index.to_le_bytes(), h);
    fnv1a(&spec.fuzz_budget.to_le_bytes(), h)
}

struct AceTask<'a> {
    ws: &'a [Workload],
    plan: &'a SubtreePlan,
    cfg: &'a TestConfig,
    bitmap_bits: u64,
    done: BTreeMap<usize, WRes>,
    journal: &'a mut TaskJournal,
    lease: &'a Lease,
    budget: &'a mut Option<u64>,
    hard_kill: bool,
    rewarms: &'a mut u64,
}

impl WithKind for AceTask<'_> {
    type Out = Result<TaskRun, StoreError>;

    fn call<K: FsKind>(mut self, kind: K) -> Self::Out {
        let mut cache = PrefixCache::new(&kind);
        let mut slots: Vec<Option<WRes>> = Vec::with_capacity(self.ws.len());
        slots.resize_with(self.ws.len(), || None);
        for g in &self.plan.groups {
            // `warm` = the cache currently holds the state of this group's
            // previous workload (the serial invariant a journal skip breaks).
            let mut warm = false;
            for (pos, &i) in g.iter().enumerate() {
                if let Some(r) = self.done.remove(&i) {
                    slots[i] = Some(r);
                    warm = false;
                    continue;
                }
                if !warm && pos > 0 && cache.is_active() {
                    // Re-warm: re-run the group's previous (journaled)
                    // workload, discarding its result. Cache state is a pure
                    // function of the workload that produced it, so the next
                    // live run splices from exactly the prefix depth it
                    // would have seen uninterrupted.
                    let prev = &self.ws[g[pos - 1]];
                    let _ = guarded_run(prev, || cache.run(prev, self.cfg));
                    *self.rewarms += 1;
                }
                // Guarded, as every batch item is (`sched::run_shards`): a
                // panic escaping the run fails this workload only.
                let w = &self.ws[i];
                let (out, cov, _trace) = guarded_run(w, || cache.run(w, self.cfg));
                let mut res = WRes::from_outcome(&out, &cov, self.bitmap_bits, Vec::new(), None);
                if i == 0 {
                    // The scheduler stamps subtree stats on the batch's
                    // first outcome; the plan is known up front, so the
                    // stamp lands even when index 0 runs after a resume.
                    res.counters[counter_slot("sched_subtrees")] = self.plan.groups.len() as u64;
                    res.counters[MAX_DEPTH] = self.plan.max_depth;
                }
                self.journal.checkpoint(i, &res)?;
                self.lease.heartbeat();
                slots[i] = Some(res);
                warm = true;
                if kill_tick(self.budget, self.hard_kill) {
                    return Ok(TaskRun::Interrupted);
                }
            }
        }
        Ok(TaskRun::Complete(slots.into_iter().map(|s| s.expect("slot filled")).collect()))
    }
}

struct FuzzTask<'a> {
    spec: &'a CampaignSpec,
    len: usize,
    prior: Vec<Vec<WRes>>,
    cfg: &'a TestConfig,
    done: BTreeMap<usize, WRes>,
    journal: &'a mut TaskJournal,
    lease: &'a Lease,
    budget: &'a mut Option<u64>,
    hard_kill: bool,
}

impl WithKind for FuzzTask<'_> {
    type Out = Result<TaskRun, StoreError>;

    fn call<K: FsKind>(mut self, kind: K) -> Self::Out {
        let mut fuzzer = Fuzzer::new(self.spec.fuzz_seed, FuzzConfig::default());
        let mut seen: HashSet<u64> = HashSet::new();
        // Rebuild the generation trajectory: every prior batch, then this
        // task's journaled prefix, replaying the recorded feedback.
        let replay = |fuzzer: &mut Fuzzer, seen: &mut HashSet<u64>, r: &WRes| {
            let w = fuzzer.next_workload();
            debug_assert_eq!(w.name, r.name, "fuzz replay diverged from the journal");
            seen.extend(r.cov_new.iter().copied());
            fuzzer.feedback(&w, r.cov_new.len());
        };
        for batch in &self.prior {
            for r in batch {
                replay(&mut fuzzer, &mut seen, r);
            }
        }
        let mut slots: Vec<Option<WRes>> = Vec::with_capacity(self.len);
        slots.resize_with(self.len, || None);
        for (i, slot) in slots.iter_mut().enumerate() {
            if let Some(r) = self.done.remove(&i) {
                replay(&mut fuzzer, &mut seen, &r);
                *slot = Some(r);
                continue;
            }
            let w = fuzzer.next_workload();
            // `run_batch`'s per-workload semantics: fresh sinks, the whole
            // run guarded so an FS panic fails one workload only.
            let (out, cov, _trace) =
                guarded_run(&w, || test_on_fresh_sinks(&kind, &w, self.cfg));
            let mut new: Vec<u64> = cov.iter().filter(|h| !seen.contains(h)).copied().collect();
            new.sort_unstable();
            seen.extend(new.iter().copied());
            fuzzer.feedback(&w, new.len());
            // Corpus-worthy: new coverage (what the fuzzer itself keeps) or
            // a violation (what a developer wants preserved).
            let keep = !new.is_empty() || !out.reports.is_empty();
            let res = WRes::from_outcome(
                &out,
                &cov,
                self.spec.bitmap_bits,
                new,
                keep.then(|| w.to_wire_lines()),
            );
            self.journal.checkpoint(i, &res)?;
            self.lease.heartbeat();
            *slot = Some(res);
            if kill_tick(self.budget, self.hard_kill) {
                return Ok(TaskRun::Interrupted);
            }
        }
        Ok(TaskRun::Complete(slots.into_iter().map(|s| s.expect("slot filled")).collect()))
    }
}

/// The merged campaign: totals in canonical task order plus the rendered
/// deterministic document.
#[derive(Debug)]
pub struct Merged {
    /// Rendered `campaign.json` contents (deterministic: byte-identical for
    /// any worker count or kill/resume pattern).
    pub doc: String,
    /// Workloads merged.
    pub workloads: u64,
    /// Summed counters, one per [`COUNTER_NAMES`] slot — index them with
    /// [`counter_slot`], never by position.
    pub totals: [u64; 20],
    /// Total violation reports.
    pub reports: u64,
    /// Bits set in the persistent crash-state bitmap.
    pub state_bits_set: u64,
    /// Bits set in the persistent coverage bitmap.
    pub cov_bits_set: u64,
    /// Corpus entries written.
    pub corpus_entries: u64,
    /// FNV-1a chain over every workload result line, in canonical order.
    pub fingerprint: u64,
}

/// The one counter that merges as a max; every other slot sums.
const MAX_DEPTH: usize = counter_slot("sched_subtree_max_depth");

/// Merges all committed task results in canonical (task, batch-index)
/// order, writes `campaign.json`, the coverage bitmaps, and the corpus
/// entries, and returns the totals. Fails if any task is incomplete; a
/// corrupt result file is quarantined (clearing that task's completion
/// marker) and reported as Corrupt so the caller can re-run the task.
pub fn merge(store: &CampaignStore) -> Result<Merged, StoreError> {
    let spec = &store.spec;
    let total = spec.total_tasks();
    let mut totals = [0u64; 20];
    let mut workloads = 0u64;
    let mut fingerprint = 0u64;
    let mut reports: Vec<JVal> = Vec::new();
    let mut state_map = vec![0u8; (spec.bitmap_bits / 8) as usize];
    let mut cov_map = vec![0u8; (spec.bitmap_bits / 8) as usize];
    let mut corpus_entries = 0u64;
    let set = |map: &mut [u8], bit: u64| map[(bit / 8) as usize] |= 1 << (bit % 8);

    for id in 0..total {
        let results = store.load_result_verified(id)?.ok_or_else(|| {
            StoreError::fatal(format!("task {id} has no committed result; campaign incomplete"))
        })?;
        for res in &results {
            workloads += 1;
            fingerprint = fnv1a(res.to_jval().render().as_bytes(), fingerprint);
            for (idx, c) in res.counters.iter().enumerate() {
                if idx == MAX_DEPTH {
                    // sched_subtree_max_depth is a max, everything else sums.
                    totals[idx] = totals[idx].max(*c);
                } else {
                    totals[idx] += c;
                }
            }
            for &b in &res.state_bits {
                set(&mut state_map, b);
            }
            for &b in &res.cov_bits {
                set(&mut cov_map, b);
            }
            for r in &res.reports {
                reports.push(r.to_jval());
            }
            if let Some(ops) = &res.ops {
                let entry = JVal::Obj(vec![
                    ("name".into(), JVal::Str(res.name.clone())),
                    ("fs".into(), JVal::Str(spec.fs.to_string())),
                    ("ops".into(), JVal::Arr(ops.iter().map(|l| JVal::Str(l.clone())).collect())),
                ]);
                let path = store.dir.join("corpus").join(format!("{}.json", res.name));
                store.io.write_atomic(&path, (entry.render() + "\n").as_bytes())?;
                corpus_entries += 1;
            }
        }
    }
    let state_bits_set = state_map.iter().map(|b| b.count_ones() as u64).sum();
    let cov_bits_set = cov_map.iter().map(|b| b.count_ones() as u64).sum();
    store.io.write_atomic(&store.dir.join("coverage/state.bits"), &state_map)?;
    store.io.write_atomic(&store.dir.join("coverage/cov.bits"), &cov_map)?;

    let totals_obj = JVal::Obj(
        COUNTER_NAMES
            .iter()
            .zip(totals)
            .map(|(n, v)| (n.to_string(), ju(v)))
            .collect(),
    );
    let n_reports = reports.len() as u64;
    let doc = JVal::Obj(vec![
        ("chipmunk_campaign".into(), ju(super::store::STORE_VERSION)),
        ("spec".into(), spec.to_jval()),
        ("tasks".into(), ju(total as u64)),
        ("workloads".into(), ju(workloads)),
        ("totals".into(), totals_obj),
        ("state_bits_set".into(), ju(state_bits_set)),
        ("cov_bits_set".into(), ju(cov_bits_set)),
        ("reports".into(), JVal::Arr(reports)),
        ("fingerprint".into(), JVal::Str(format!("{fingerprint:016x}"))),
    ])
    .render()
        + "\n";
    store.io.write_atomic(&store.dir.join("campaign.json"), doc.as_bytes())?;

    Ok(Merged {
        doc,
        workloads,
        totals,
        reports: n_reports,
        state_bits_set,
        cov_bits_set,
        corpus_entries,
        fingerprint,
    })
}

/// What [`merge_read_only`] found: the store's health, without writing a
/// single byte. This is the triage surface for a degraded (read-only)
/// store — ENOSPC stops [`merge`], not the operator's ability to see what
/// survived.
#[derive(Debug, Default)]
pub struct MergeAudit {
    /// Tasks with a parseable committed result.
    pub committed: u64,
    /// Tasks whose result file exists but does not parse (left in place —
    /// a read-only audit never quarantines).
    pub corrupt: Vec<usize>,
    /// Tasks with no committed result.
    pub missing: Vec<usize>,
    /// Violation reports across all parseable results.
    pub reports: u64,
    /// Workloads across all parseable results.
    pub workloads: u64,
}

/// Read-only audit of the store: counts committed/corrupt/missing tasks
/// and surviving reports without writing anything. Serves `--resume`
/// triage when the store is in degraded (read-only) mode.
pub fn merge_read_only(store: &CampaignStore) -> MergeAudit {
    let total = store.spec.total_tasks();
    let mut audit = MergeAudit::default();
    for id in 0..total {
        match store.load_result(id) {
            Ok(Some(results)) => {
                audit.committed += 1;
                audit.workloads += results.len() as u64;
                audit.reports += results.iter().map(|r| r.reports.len() as u64).sum::<u64>();
            }
            Ok(None) => audit.missing.push(id),
            Err(_) => audit.corrupt.push(id),
        }
    }
    audit
}

/// Rounds of worker + merge before [`run_and_merge`] concludes the store
/// cannot converge. Each round only recurs when merge found (and
/// quarantined) a corrupt artifact, so this bounds healing, not work.
const MAX_MERGE_ROUNDS: u32 = 4;

/// Runs a worker to completion, then merges — and if the merge finds a
/// corrupt committed result (quarantining it), runs another worker pass to
/// re-produce the quarantined task and merges again, up to
/// [`MAX_MERGE_ROUNDS`] rounds. The returned summary is the final round's;
/// its host-I/O counters are cumulative (they live on the shared context).
pub fn run_and_merge(
    store: &CampaignStore,
    opts: &RunOpts,
) -> Result<(WorkerSummary, Merged), StoreError> {
    let mut rounds = 0u32;
    loop {
        let sum = run_worker(store, opts)?;
        if sum.interrupted {
            return Err(StoreError::fatal("worker interrupted before the campaign completed"));
        }
        match merge(store) {
            Ok(merged) => return Ok((sum, merged)),
            Err(e @ StoreError::Corrupt { .. }) if e.task_recoverable() => {
                rounds += 1;
                if rounds >= MAX_MERGE_ROUNDS {
                    return Err(StoreError::fatal(format!(
                        "merge kept finding corrupt results after {rounds} repair rounds; \
                         last error: {e}"
                    )));
                }
            }
            Err(e) => return Err(e),
        }
    }
}
