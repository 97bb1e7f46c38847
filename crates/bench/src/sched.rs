//! Prefix-tree-aware deterministic scheduling of workload batches.
//!
//! Plain multi-thread sharding scatters a batch's workloads across workers
//! by arrival position, destroying the adjacent shared op prefixes the
//! incremental engine's [`PrefixCache`] feeds on. The [`Scheduler`] composes
//! the two:
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
//! [`reset`]: PrefixCache::reset

use std::collections::{BTreeMap, BTreeSet, HashSet};

use chipmunk::{sandbox, PrefixCache, Stage, TestConfig, TestOutcome};
use vfs::{BugId, FsKind, Workload};

/// What one scheduled workload produces: its outcome, the crash-state
/// coverage keys it visited, and the bug ids it tripped.
pub type WorkloadResult = (TestOutcome, HashSet<u64>, BTreeSet<BugId>);

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
/// — or through [`crate::run_batch_cached`], which also absorbs sinks.
pub struct Scheduler<K: FsKind> {
    kind: K,
    caches: Vec<PrefixCache<K>>,
    /// Cumulative subtree count across all scheduled batches.
    pub subtrees: u64,
    /// Deepest within-subtree shared prefix seen in any batch.
    pub subtree_max_depth: u64,
    /// Cumulative `prefix_hits` per worker slot. Length = the most workers
    /// any batch used; unlike every other counter this *is* a function of
    /// the thread count (it describes the schedule, not the results), so it
    /// stays out of determinism fingerprints.
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

    /// Runs `batch`, returning per-workload `(outcome, coverage, trace)`
    /// triples **in batch order**, byte-identical for every `cfg.threads`.
    /// Sinks are private per workload — callers absorb them in batch order
    /// (see [`crate::run_batch_cached`]).
    pub fn run(
        &mut self,
        batch: &[Workload],
        cfg: &TestConfig,
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

        let mut slots: Vec<Option<WorkloadResult>> = Vec::with_capacity(batch.len());
        slots.resize_with(batch.len(), || None);
        let mut hits = vec![0u64; workers];

        if workers <= 1 {
            let cache = &mut self.caches[0];
            for g in &plan.groups {
                for &i in g {
                    let r = cache.run(&batch[i], cfg);
                    hits[0] += r.0.prefix_hits;
                    slots[i] = Some(r);
                }
            }
        } else {
            // Round-robin whole groups over workers by sorted-group index.
            let mut assign: Vec<Vec<usize>> = vec![Vec::new(); workers];
            for g in 0..plan.groups.len() {
                assign[g % workers].push(g);
            }
            type WorkerOut = (u64, Vec<(usize, WorkloadResult)>);
            let plan2 = &plan;
            let worker_results: Vec<std::thread::Result<WorkerOut>> =
                std::thread::scope(|sc| {
                    let handles: Vec<_> = self
                        .caches
                        .iter_mut()
                        .take(workers)
                        .zip(&assign)
                        .map(|(cache, gs)| {
                            sc.spawn(move || {
                                let mut out = Vec::new();
                                let mut h = 0u64;
                                for &g in gs {
                                    for &i in &plan2.groups[g] {
                                        let r = cache.run(&batch[i], cfg);
                                        h += r.0.prefix_hits;
                                        out.push((i, r));
                                    }
                                }
                                (h, out)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join()).collect()
                });
            for (w, res) in worker_results.into_iter().enumerate() {
                match res {
                    Ok((h, rs)) => {
                        hits[w] = h;
                        for (i, r) in rs {
                            slots[i] = Some(r);
                        }
                    }
                    Err(_) => {
                        // The worker died mid-group; its cache dropped its
                        // live state during the unwind (the next run falls
                        // back to genesis). Re-run its items one at a time
                        // so only the panicking workload fails, with a
                        // worker-stage diagnostic.
                        let cache = &mut self.caches[w];
                        for &g in &assign[w] {
                            for &i in &plan.groups[g] {
                                let r = sandbox::guarded(Stage::Worker, || {
                                    cache.run(&batch[i], cfg)
                                })
                                .unwrap_or_else(|v| {
                                    (
                                        crate::worker_failure_outcome(&batch[i], v),
                                        HashSet::new(),
                                        BTreeSet::new(),
                                    )
                                });
                                hits[w] += r.0.prefix_hits;
                                slots[i] = Some(r);
                            }
                        }
                    }
                }
            }
        }
        for (w, h) in hits.into_iter().enumerate() {
            self.per_worker_hits[w] += h;
        }

        let mut out: Vec<_> =
            slots.into_iter().map(|s| s.expect("every batch slot filled")).collect();
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
