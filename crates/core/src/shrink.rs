//! Delta-debugging minimization of violating `(workload, crash subset)`
//! pairs (ROADMAP item 3).
//!
//! A fuzzing find is typically heavyweight: dozens of ops, a large replayed
//! subset. [`shrink`] reduces it in two ddmin passes while preserving the
//! violation *class* (and, for sandbox classes, the checker stage) — not the
//! exact message bytes, which legitimately change as the workload shrinks:
//!
//! 1. **ops**: ddmin over the workload's operations, re-running the full
//!    checker per candidate through a shared [`PrefixCache`] so candidates
//!    that share an op prefix reuse oracle/record/replay work;
//! 2. **subset**: ddmin over the reported crash subset, re-checking one
//!    crash state per candidate via [`check_one_state`] instead of
//!    enumerating the point.
//!
//! Both passes only ever *remove* elements, so the result is monotone by
//! construction: shrunk ops are a subsequence of the original ops and the
//! shrunk subset is a subset of the original subset.

use vfs::{FsKind, Op, Workload};

use crate::{
    config::TestConfig,
    harness::check_one_state,
    prefix::PrefixCache,
    report::{BugReport, Stage, Violation},
};

/// Whether a violation belongs to the class (and stage) being preserved.
pub fn matches_class(class: &str, stage: Option<Stage>, v: &Violation) -> bool {
    v.class() == class && v.stage() == stage
}

/// Work counters of one shrink run — the data behind the "shrink factor"
/// numbers in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Workload ops before / after the op pass.
    pub ops_before: usize,
    /// Workload ops after the op pass.
    pub ops_after: usize,
    /// Crash-subset size before / after the subset pass.
    pub subset_before: usize,
    /// Crash-subset size after the subset pass.
    pub subset_after: usize,
    /// Full-checker candidate runs during the op pass (including the
    /// confirmation runs).
    pub op_candidates: u64,
    /// Single-state checks during the subset pass.
    pub state_candidates: u64,
}

/// A minimized repro: the shrunk workload plus the report its full-checker
/// run produced for the preserved class (carrying the crash-point ordinal
/// and the shrunk subset in `point` / `subset_ids`).
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimized workload (a subsequence of the original ops).
    pub workload: Workload,
    /// The violation report on the minimized pair.
    pub report: BugReport,
    /// Work counters.
    pub stats: ShrinkStats,
}

/// Runs the full checker on `ops` and returns the first report matching the
/// preserved class, if any.
fn first_match<K: FsKind>(
    cache: &mut PrefixCache<K>,
    name: &str,
    ops: &[Op],
    cfg: &TestConfig,
    class: &str,
    stage: Option<Stage>,
    candidates: &mut u64,
) -> Option<BugReport> {
    *candidates += 1;
    let wl = Workload::new(name, ops.to_vec());
    let (out, _, _) = cache.run(&wl, cfg);
    out.reports.into_iter().find(|r| matches_class(class, stage, &r.violation))
}

/// Splits `items` into `n` contiguous chunks (the last ones may be shorter).
fn chunk_bounds(len: usize, n: usize) -> Vec<(usize, usize)> {
    let n = n.min(len).max(1);
    let per = len.div_ceil(n);
    (0..len).step_by(per).map(|lo| (lo, (lo + per).min(len))).collect()
}

/// Classic ddmin over `items`: `test` returns `true` when the candidate
/// still triggers. Only removals are attempted, so the result is a
/// subsequence of the input. `items` itself must trigger.
fn ddmin<T: Clone>(items: &[T], mut test: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut cur: Vec<T> = items.to_vec();
    let mut n = 2usize;
    while cur.len() >= 2 {
        let bounds = chunk_bounds(cur.len(), n);
        let mut reduced = false;
        // Reduce to a single chunk.
        for &(lo, hi) in &bounds {
            if hi - lo == cur.len() {
                continue;
            }
            let cand = cur[lo..hi].to_vec();
            if test(&cand) {
                cur = cand;
                n = 2;
                reduced = true;
                break;
            }
        }
        if !reduced {
            // Reduce to a complement (remove one chunk).
            for &(lo, hi) in &bounds {
                if hi - lo == cur.len() {
                    continue;
                }
                let cand: Vec<T> =
                    cur[..lo].iter().chain(cur[hi..].iter()).cloned().collect();
                if test(&cand) {
                    cur = cand;
                    n = (n - 1).max(2);
                    reduced = true;
                    break;
                }
            }
        }
        if !reduced {
            if n >= cur.len() {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }
    cur
}

/// Minimizes a violating `(workload, crash subset)` pair while preserving
/// `report.violation`'s class and stage.
///
/// `cfg` supplies the semantic knobs (cap, device size, eADR, ...); shrink
/// candidates run with `stop_on_first` forced off so an earlier violation of
/// a *different* class can never shadow the preserved one, and reuse the
/// prefix cache, delta replay and scoped checking exactly as a sweep would.
///
/// Errors are infrastructure problems: the original pair not reproducing
/// under `cfg`, or a report without a crash-point ordinal.
pub fn shrink<K: FsKind>(
    kind: &K,
    workload: &Workload,
    report: &BugReport,
    cfg: &TestConfig,
) -> Result<Shrunk, String> {
    let class = report.violation.class();
    let stage = report.violation.stage();
    let mut cfg = cfg.clone();
    cfg.stop_on_first = false;
    let mut stats = ShrinkStats {
        ops_before: workload.ops.len(),
        subset_before: report.subset_ids.len(),
        ..Default::default()
    };

    // ---- Pass 1: ddmin over workload ops ----
    let mut cache = PrefixCache::new(kind);
    let mut n_cand = 0u64;
    if first_match(&mut cache, &workload.name, &workload.ops, &cfg, class, stage, &mut n_cand)
        .is_none()
    {
        return Err(format!(
            "workload {:?} does not reproduce a {class} violation under this config",
            workload.name
        ));
    }
    let ops = ddmin(&workload.ops, |cand| {
        first_match(&mut cache, &workload.name, cand, &cfg, class, stage, &mut n_cand).is_some()
    });
    // Confirmation run: the report whose point/subset the subset pass
    // minimizes (identical to the last successful candidate run — the
    // checker is deterministic — but re-obtained for clarity).
    let min_wl = Workload::new(&workload.name, ops);
    let base = first_match(
        &mut cache, &workload.name, &min_wl.ops, &cfg, class, stage, &mut n_cand,
    )
    .expect("minimized workload reproduces by construction");
    stats.ops_after = min_wl.ops.len();
    stats.op_candidates = n_cand;

    // ---- Pass 2: ddmin over the crash subset ----
    let point = base
        .point
        .ok_or_else(|| "report carries no crash-point ordinal to minimize".to_string())?;
    let mut s_cand = 0u64;
    let mut try_subset = |sub: &[usize]| -> bool {
        s_cand += 1;
        match check_one_state(kind, &min_wl, &cfg, point, sub) {
            Ok(p) => p.violation.as_ref().is_some_and(|v| matches_class(class, stage, v)),
            Err(_) => false,
        }
    };
    // ddmin never tests the empty candidate; the bare base image at the
    // point is a legal crash state, so try it explicitly.
    let subset = if base.subset_ids.is_empty() || try_subset(&[]) {
        Vec::new()
    } else {
        ddmin(&base.subset_ids, |cand| try_subset(cand))
    };
    stats.subset_after = subset.len();
    stats.state_candidates = s_cand;

    // Final verdict on the minimized pair, for the report's detail text.
    let probe = check_one_state(kind, &min_wl, &cfg, point, &subset)?;
    let violation = probe
        .violation
        .filter(|v| matches_class(class, stage, v))
        .ok_or_else(|| "minimized state no longer reproduces (nondeterminism?)".to_string())?;
    let report = BugReport {
        workload: min_wl.name.clone(),
        op_seq: probe.op_seq,
        op_desc: probe.op_desc,
        phase: probe.phase,
        subset: format!("{:?} of {} in-flight (shrunk)", subset, probe.n_writes),
        point: Some(point),
        subset_ids: subset,
        violation,
    };
    Ok(Shrunk { workload: min_wl, report, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_finds_single_culprit() {
        let items: Vec<u32> = (0..32).collect();
        let mut calls = 0;
        let out = ddmin(&items, |c| {
            calls += 1;
            c.contains(&17)
        });
        assert_eq!(out, vec![17]);
        // Binary-search-like behavior, not a linear scan of singletons.
        assert!(calls < 64, "{calls} calls");
    }

    #[test]
    fn ddmin_keeps_conjunction_of_culprits() {
        let items: Vec<u32> = (0..16).collect();
        let out = ddmin(&items, |c| c.contains(&3) && c.contains(&12));
        assert_eq!(out, vec![3, 12]);
    }

    #[test]
    fn ddmin_result_is_a_subsequence() {
        let items: Vec<u32> = (0..20).collect();
        let out = ddmin(&items, |c| c.iter().filter(|&&x| x % 3 == 0).count() >= 3);
        let mut it = items.iter();
        assert!(out.iter().all(|x| it.any(|y| y == x)), "{out:?}");
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        for len in 1..20usize {
            for n in 1..25usize {
                let b = chunk_bounds(len, n);
                assert_eq!(b[0].0, 0);
                assert_eq!(b.last().unwrap().1, len);
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }
}
