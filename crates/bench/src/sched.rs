//! The one batch executor, and the prefix-tree-aware scheduling built on it.
//!
//! ## The executor
//!
//! "Run these workloads on N workers, fill the slots in batch order, lose
//! only the workload that panicked" is [`run_shards`], and nothing else in
//! this crate spawns a thread. A caller hands it *shards* (the batch indices
//! each worker runs, in order), one private state per shard, and a per-item
//! closure. [`crate::run_batch`] is the executor over contiguous chunks with
//! no state; [`Scheduler::run`] is the executor over prefix subtrees with a
//! [`PrefixCache`] per worker, and [`Scheduler::run_to_find`] is that run
//! stopped at the first report (see "Stopping at the find" below). Every
//! item runs under [`guarded_run`], so a panic escaping a workload's whole
//! run (while recording, say — outside the checker's per-stage guards)
//! commits a `<worker>` report for that workload and the shard carries on,
//! at any worker count. A worker thread can then die only of a harness bug,
//! and the join re-raises that panic on the caller's thread.
//!
//! The campaign's tasks keep their own loops (journal splice, re-warm and
//! kill tick are theirs) and call [`guarded_run`] per workload.
//!
//! ## The scheduler
//!
//! Plain sharding scatters a batch's workloads across workers by arrival
//! position, destroying the adjacent shared op prefixes the incremental
//! engine's [`PrefixCache`] feeds on. The [`Scheduler`] composes the two:
//!
//! 1. [`plan_subtrees`] partitions a batch into **prefix subtrees** — the
//!    groups of workloads sharing their first operation, each sorted
//!    op-lexicographically so neighbours inside a group share the deepest
//!    possible prefixes. Workloads in *different* groups share no ops at
//!    all, so cutting the batch at group boundaries loses zero prefix reuse.
//! 2. Whole groups are assigned to workers round-robin **by sorted group
//!    key**, never by arrival order, and each worker owns a private
//!    [`PrefixCache`] (the caches are `Send`; checkpoints move with their
//!    worker). Results commit in canonical batch order.
//! 3. A batch uses `min(threads, subtrees)` workers. Threads beyond the
//!    subtree count idle: a workload's crash states are checked by one
//!    serial walk (see `chipmunk::harness`), so there is nothing finer to
//!    hand them.
//!
//! Determinism across thread counts falls out of three invariants: each
//! workload's outcome is a pure function of the workload (the cache's
//! differential tests pin cached ≡ uncached); a group's internal execution
//! order is the same whichever worker runs it; and the first workload of a
//! group always resumes from depth 0 (no ops shared with any other group),
//! so per-workload `prefix_hits`/`prefix_ops_saved` cannot depend on which
//! groups preceded it on the same worker. Per-worker caches are [`reset`]
//! at the start of every scheduled call so counters are a pure function of
//! the batch, not of scheduling history.
//!
//! ## Stopping at the find
//!
//! A hunt commits results in batch order up to and including the first
//! workload that reports, and discards the rest of its lookahead window.
//! [`Scheduler::run_to_find`] does not run that rest. Its workers share the
//! lowest reporting batch index seen so far (an `AtomicUsize` lowered with
//! `fetch_min`); a worker reaching an item above it skips the item. Skipping
//! must not move a committed workload's counters, and it does not, because
//! of two facts:
//!
//! * a cached boundary-`k` state is a pure function of `ops[0..k]` (the
//!   [`PrefixCache`] invariant), so a cache that ran only a skipped
//!   workload's first `t` ops resumes the next workload exactly as one that
//!   ran all of them, as long as the two share no more than `t` ops;
//! * in op-lexicographic shard order, `LCP(P, W) <= LCP(P, W_next)` for
//!   every `W` after `W_next`, so the next item still at or below the find
//!   shares the deepest prefix any later item can share with `P`.
//!
//! So for a skipped item `P`, a worker with a live cache runs `P`'s ops
//! shared with that next item through the cache and drops the result; the
//! next item then resumes at exactly the depth it resumed at when `P` ran
//! in full. The shared index only decreases, so every item at or below the
//! final find runs. Without a live cache (SplitFS) a skipped item is simply
//! not run. The one difference: a cache anomaly (`run` falling back to the
//! plain path) inside a skipped item's unshared suffix would have reset the
//! cache.
//!
//! [`reset`]: PrefixCache::reset

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use chipmunk::{
    sandbox, BugReport, CrashPhase, PrefixCache, Stage, TestConfig, TestOutcome, Violation,
};
use vfs::{BugId, FsKind, Workload};

/// What one workload produces: its outcome, the coverage ids it recorded,
/// and the bug ids it tripped.
pub type WorkloadResult = (TestOutcome, HashSet<u64>, BTreeSet<BugId>);

/// The outcome committed for a workload whose whole run panicked outside
/// the per-stage checker sandbox (e.g. while recording): one worker-stage
/// report carrying the panic diagnostic, so a batch loses only the affected
/// item.
fn worker_failure_outcome(w: &Workload, v: Violation) -> TestOutcome {
    let mut out = TestOutcome { workload: w.name.clone(), ..Default::default() };
    match &v {
        Violation::RecoveryPanic { .. } => out.recovery_panics = 1,
        Violation::RecoveryHang { .. } => out.recovery_hangs = 1,
        _ => {}
    }
    out.reports.push(BugReport {
        workload: w.name.clone(),
        op_seq: 0,
        op_desc: "<worker>".to_string(),
        phase: CrashPhase::DuringSyscall,
        subset: String::new(),
        point: None,
        subset_ids: Vec::new(),
        violation: v,
    });
    out
}

/// Runs `test` — one workload's whole run — so that a panic escaping it
/// fails only `w`: the result is then [`worker_failure_outcome`] with empty
/// sinks, and the caller moves on to its next workload.
pub(crate) fn guarded_run(w: &Workload, test: impl FnOnce() -> WorkloadResult) -> WorkloadResult {
    sandbox::guarded(Stage::Worker, test)
        .unwrap_or_else(|v| (worker_failure_outcome(w, v), HashSet::new(), BTreeSet::new()))
}

/// The batch executor (see the module docs). `shards[w]` lists the batch
/// indices worker `w` runs, in its execution order, and `states[w]` is that
/// worker's private state; every index of `batch` belongs to exactly one
/// shard. Returns one result per workload **in batch order**. One shard (or
/// none) runs on the caller's thread; more run on one scoped thread each.
///
/// With `first_find` given, the executor stops at the find (see "Stopping
/// at the find" in the module docs): an item whose batch index is above the
/// value is not run — `skip(state, item, next)` is called instead, `next`
/// being the shard's next item still at or below the value — and a run item
/// that reports lowers the value to its index. The results then end at the
/// first reporting workload in batch order.
pub(crate) fn run_shards<S: Send>(
    batch: &[Workload],
    shards: &[Vec<usize>],
    states: &mut [S],
    first_find: Option<&AtomicUsize>,
    test: impl Fn(&mut S, &Workload) -> WorkloadResult + Sync,
    skip: impl Fn(&mut S, &Workload, Option<&Workload>) + Sync,
) -> Vec<WorkloadResult> {
    debug_assert_eq!(shards.len(), states.len());
    // The value publishes no other data and only decreases, so a relaxed
    // load never skips an item at or below the final find; the final read
    // below comes after every worker has joined.
    let past_find = |i: usize| first_find.is_some_and(|f| i > f.load(Ordering::Relaxed));
    // One shard's results, in the shard's order; `None` for a skipped item.
    let run_shard = |state: &mut S, shard: &[usize]| -> Vec<Option<WorkloadResult>> {
        shard
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let w = &batch[i];
                if past_find(i) {
                    let next = shard[pos + 1..].iter().find(|&&j| !past_find(j));
                    let next = next.map(|&j| &batch[j]);
                    let _ = sandbox::guarded(Stage::Worker, || skip(state, w, next));
                    return None;
                }
                let r = guarded_run(w, || test(state, w));
                if let Some(f) = first_find.filter(|_| !r.0.reports.is_empty()) {
                    f.fetch_min(i, Ordering::Relaxed);
                }
                Some(r)
            })
            .collect()
    };
    let done: Vec<Vec<Option<WorkloadResult>>> = if shards.len() <= 1 {
        states.iter_mut().zip(shards).map(|(st, sh)| run_shard(st, sh)).collect()
    } else {
        let run_shard = &run_shard;
        std::thread::scope(|sc| {
            let handles: Vec<_> = states
                .iter_mut()
                .zip(shards)
                .map(|(st, sh)| sc.spawn(move || run_shard(st, sh)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    let mut slots: Vec<Option<WorkloadResult>> = Vec::with_capacity(batch.len());
    slots.resize_with(batch.len(), || None);
    for (&i, r) in shards.iter().flatten().zip(done.into_iter().flatten()) {
        slots[i] = r;
    }
    if let Some(f) = first_find {
        slots.truncate(f.load(Ordering::Relaxed).saturating_add(1));
    }
    slots.into_iter().map(|s| s.expect("every item up to the find ran")).collect()
}

/// How many leading ops `a` and `b` share.
fn shared_ops(a: &Workload, b: &Workload) -> usize {
    a.ops.iter().zip(&b.ops).take_while(|(x, y)| x == y).count()
}

/// A deterministic partition of one batch into prefix subtrees.
///
/// Produced by [`plan_subtrees`]; a pure function of the op-description
/// keys, invariant under permutation of the batch (group membership and
/// intra-group order depend only on the keys and their batch indices as
/// tie-breaks).
pub struct SubtreePlan {
    /// Batch indices per subtree. Groups are ordered by their root op
    /// description; members are ordered op-lexicographically (batch index
    /// breaks exact-duplicate ties). Concatenating the groups reproduces
    /// exactly the global op-lexicographic execution order the serial cached
    /// runner has always used.
    pub groups: Vec<Vec<usize>>,
    /// Deepest common op prefix within any single group (a singleton
    /// group's depth is its own op count).
    pub max_depth: u64,
}

/// Groups a batch (given each workload's op-description key) into prefix
/// subtrees keyed by the first operation. See [`SubtreePlan`].
pub fn plan_subtrees(keys: &[Vec<String>]) -> SubtreePlan {
    let mut by_root: BTreeMap<Option<&String>, Vec<usize>> = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        by_root.entry(k.first()).or_default().push(i);
    }
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(by_root.len());
    let mut max_depth = 0u64;
    for (_, mut members) in by_root {
        members.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
        let mut depth = keys[members[0]].len();
        for &m in &members[1..] {
            let lcp = keys[members[0]]
                .iter()
                .zip(&keys[m])
                .take_while(|(a, b)| a == b)
                .count();
            depth = depth.min(lcp);
        }
        max_depth = max_depth.max(depth as u64);
        groups.push(members);
    }
    SubtreePlan { groups, max_depth }
}

/// A prefix-tree-aware batch scheduler: per-worker [`PrefixCache`]s plus the
/// deterministic subtree partitioning that keeps them effective under
/// `threads > 1`. Create one next to a batch loop (where a bare
/// `PrefixCache` used to live) and feed batches through [`Scheduler::run`]
/// — or through [`crate::run_batch_cached`], which also absorbs sinks. A
/// hunt, which keeps nothing past its first find, feeds them through
/// [`Scheduler::run_to_find`].
pub struct Scheduler<K: FsKind> {
    kind: K,
    caches: Vec<PrefixCache<K>>,
    /// Cumulative subtree count across all scheduled batches.
    pub subtrees: u64,
    /// Deepest within-subtree shared prefix seen in any batch.
    pub subtree_max_depth: u64,
    /// Cumulative `prefix_hits` per worker slot, over the returned results
    /// only (a workload [`Scheduler::run_to_find`] skipped, or whose result
    /// it did not return, adds nothing). Length = the most workers any batch
    /// used; unlike every other counter this *is* a function of the thread
    /// count (it describes the schedule, not the results), so it stays out
    /// of determinism fingerprints.
    pub per_worker_hits: Vec<u64>,
}

impl<K: FsKind> Scheduler<K> {
    /// Creates a scheduler testing workloads under `kind`. The config
    /// parameter is unused — it stays because the frozen `benchmark/`
    /// package compiles against this signature.
    pub fn new(kind: &K, _cfg: &TestConfig) -> Self {
        Scheduler {
            kind: kind.clone(),
            caches: vec![PrefixCache::new(kind)],
            subtrees: 0,
            subtree_max_depth: 0,
            per_worker_hits: Vec::new(),
        }
    }

    /// Whether the caches are live (see [`PrefixCache::is_active`]; a kind
    /// that cannot fork disables its cache on first use, after which every
    /// batch should take the plain sharded path).
    pub fn is_active(&self) -> bool {
        self.caches.iter().all(|c| c.is_active())
    }

    /// Runs `batch` through [`run_shards`] — whole subtrees per worker, one
    /// cache each — returning per-workload `(outcome, coverage, trace)`
    /// triples **in batch order**, byte-identical for every `cfg.threads`.
    /// Sinks are private per workload — callers absorb them in batch order
    /// (see [`crate::run_batch_cached`]).
    pub fn run(
        &mut self,
        batch: &[Workload],
        cfg: &TestConfig,
    ) -> Vec<WorkloadResult> {
        self.run_scheduled(batch, cfg, false)
    }

    /// The hunt entry point: [`Scheduler::run`] that stops at the find. The
    /// results end at the first workload, in batch order, that reports
    /// (a `<worker>` report counts); workloads past it are skipped as
    /// "Stopping at the find" in the module docs describes. Every returned
    /// result, and `per_worker_hits`, equals what `run` would give for that
    /// prefix of the batch.
    pub fn run_to_find(&mut self, batch: &[Workload], cfg: &TestConfig) -> Vec<WorkloadResult> {
        self.run_scheduled(batch, cfg, true)
    }

    fn run_scheduled(
        &mut self,
        batch: &[Workload],
        cfg: &TestConfig,
        to_find: bool,
    ) -> Vec<WorkloadResult> {
        let keys: Vec<Vec<String>> = batch
            .iter()
            .map(|w| w.ops.iter().map(|o| o.describe()).collect())
            .collect();
        let plan = plan_subtrees(&keys);
        self.subtrees += plan.groups.len() as u64;
        self.subtree_max_depth = self.subtree_max_depth.max(plan.max_depth);

        let workers = cfg.threads.min(plan.groups.len()).max(1);
        while self.caches.len() < workers {
            self.caches.push(PrefixCache::new(&self.kind));
        }
        if self.per_worker_hits.len() < workers {
            self.per_worker_hits.resize(workers, 0);
        }
        for c in &mut self.caches {
            c.reset();
        }

        // Round-robin whole groups over workers by sorted-group index.
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (g, members) in plan.groups.iter().enumerate() {
            shards[g % workers].extend(members);
        }
        let first_find = AtomicUsize::new(usize::MAX);
        let mut out = run_shards(
            batch,
            &shards,
            &mut self.caches[..workers],
            to_find.then_some(&first_find),
            |cache, w| cache.run(w, cfg),
            // Advance the cache along the ops the skipped workload shares
            // with the next one that runs, and drop the result.
            |cache, skipped, next| {
                let t = next.map_or(0, |n| shared_ops(skipped, n));
                if t > 0 && cache.is_active() {
                    let prefix = Workload::new(skipped.name.clone(), skipped.ops[..t].to_vec());
                    let _ = cache.run(&prefix, cfg);
                }
            },
        );
        // Skipped workloads, and run ones past the find, have no result.
        for (total, shard) in self.per_worker_hits.iter_mut().zip(&shards) {
            let committed = shard.iter().filter_map(|&i| out.get(i));
            *total += committed.map(|r| r.0.prefix_hits).sum::<u64>();
        }
        if let Some(first) = out.first_mut() {
            first.0.sched_subtrees = plan.groups.len() as u64;
            first.0.sched_subtree_max_depth = plan.max_depth;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(ops: &[&str]) -> Vec<String> {
        ops.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn plan_is_a_partition_grouped_by_root() {
        let keys = vec![
            k(&["mkdir /a", "creat /a/f"]),
            k(&["creat /x", "fsync /x"]),
            k(&["mkdir /a", "creat /a/g"]),
            k(&[]),
            k(&["creat /x"]),
        ];
        let plan = plan_subtrees(&keys);
        // Groups ordered by root key: empty first, then creat, then mkdir.
        assert_eq!(plan.groups, vec![vec![3], vec![4, 1], vec![0, 2]]);
        let mut all: Vec<usize> = plan.groups.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn concatenated_groups_equal_global_sort() {
        let keys = vec![
            k(&["b", "x"]),
            k(&["a", "z"]),
            k(&["b", "a"]),
            k(&["a", "a"]),
            k(&["a", "z"]),
        ];
        let plan = plan_subtrees(&keys);
        let concat: Vec<usize> = plan.groups.concat();
        let mut global: Vec<usize> = (0..keys.len()).collect();
        global.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        assert_eq!(concat, global);
    }

    #[test]
    fn max_depth_is_deepest_shared_prefix() {
        let keys = vec![
            k(&["a", "b", "c"]),
            k(&["a", "b", "d"]),
            k(&["x"]),
        ];
        let plan = plan_subtrees(&keys);
        // Group "a" shares ["a", "b"] (depth 2); singleton "x" has depth 1.
        assert_eq!(plan.max_depth, 2);
        let single = plan_subtrees(&[k(&["p", "q", "r"])]);
        assert_eq!(single.max_depth, 3, "a singleton chain is its own depth");
    }

    #[test]
    fn plan_is_permutation_invariant_modulo_duplicate_ties() {
        let keys = vec![k(&["m", "n"]), k(&["m"]), k(&["q", "r"]), k(&["q", "r", "s"])];
        let plan = plan_subtrees(&keys);
        // Reverse the batch; the groups must contain the same key multisets
        // in the same order.
        let rev: Vec<Vec<String>> = keys.iter().rev().cloned().collect();
        let plan_rev = plan_subtrees(&rev);
        let names = |p: &SubtreePlan, ks: &[Vec<String>]| -> Vec<Vec<Vec<String>>> {
            p.groups.iter().map(|g| g.iter().map(|&i| ks[i].clone()).collect()).collect()
        };
        assert_eq!(names(&plan, &keys), names(&plan_rev, &rev));
    }
}
