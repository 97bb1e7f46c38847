//! The Automatic Crash Explorer (ACE), adapted for PM file systems.
//!
//! ACE systematically generates every workload of a given length ("seq-n")
//! over a small predetermined file set, then satisfies dependencies by
//! prepending the creations the core operations need (§3.4.1). Two modes
//! mirror the paper:
//!
//! * **strong** (PM file systems): no fsync-family calls — the systems are
//!   synchronous. 56 seq-1 workloads, 56² = 3136 seq-2 workloads, and
//!   37³ = 50,653 seq-3 "metadata" workloads (the paper reports 50,650 —
//!   its exact pruning rules are unspecified; the three-workload delta is
//!   recorded in EXPERIMENTS.md).
//! * **weak** (ext4-DAX): every workload carries at least one fsync-family
//!   call, since crash points only exist there.

use vfs::{FallocMode, Op, Workload};

/// Which crash-consistency regime the generated workloads target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AceMode {
    /// Strong guarantees: no fsync inserted.
    Strong,
    /// Weak guarantees: fsync/sync inserted so crash points exist.
    Weak,
}

/// The regular files of the ACE file set.
pub const FILES: [&str; 4] = ["/foo", "/bar", "/A/foo", "/A/bar"];

/// The directories of the ACE file set.
pub const DIRS: [&str; 3] = ["/A", "/B", "/A/C"];

/// Write variants: (path, offset, size). Offsets and sizes are 8-byte
/// aligned in value but deliberately include non-cache-line-multiple sizes
/// (1000, 5000) — the paper's bugs 17/18 need them. Non-8-byte-aligned
/// sizes are out of ACE's vocabulary (the fuzzer's job, Observation 6).
fn write_variants() -> Vec<Op> {
    let mut v = Vec::new();
    for (path, ranges) in [
        ("/foo", &[(0u64, 1000u64), (0, 4096), (2048, 4096), (4096, 5000), (8192, 1000)][..]),
        ("/A/foo", &[(0, 1000), (0, 4096), (2048, 4096), (4096, 5000)][..]),
    ] {
        for &(off, size) in ranges {
            v.push(Op::WritePath { path: path.into(), off, size });
        }
    }
    v
}

fn link_variants() -> Vec<Op> {
    let mut v = Vec::new();
    for old in FILES {
        for new in FILES {
            if old != new {
                v.push(Op::Link { old: old.into(), new: new.into() });
            }
        }
    }
    v
}

fn rename_variants() -> Vec<Op> {
    let mut v = Vec::new();
    for old in FILES {
        for new in FILES {
            if old != new {
                v.push(Op::Rename { old: old.into(), new: new.into() });
            }
        }
    }
    v
}

fn unlink_variants() -> Vec<Op> {
    FILES.iter().map(|f| Op::Unlink { path: (*f).into() }).collect()
}

/// The 56 core operations of the strong-mode seq-1 space.
pub fn core_ops_strong() -> Vec<Op> {
    let mut ops: Vec<Op> = Vec::new();
    // creat × 4
    ops.extend(FILES.iter().map(|f| Op::Creat { path: (*f).into() }));
    // mkdir × 3
    ops.extend(DIRS.iter().map(|d| Op::Mkdir { path: (*d).into() }));
    // fallocate × 6
    for mode in FallocMode::ALL {
        ops.push(Op::FallocPath { path: "/foo".into(), mode, off: 0, len: 8192 });
    }
    for mode in [FallocMode::Allocate, FallocMode::ZeroRange] {
        ops.push(Op::FallocPath { path: "/A/foo".into(), mode, off: 0, len: 8192 });
    }
    // write × 9
    ops.extend(write_variants());
    // link × 12
    ops.extend(link_variants());
    // unlink × 4
    ops.extend(unlink_variants());
    // remove × 1
    ops.push(Op::Remove { path: "/A".into() });
    // rename × 12
    ops.extend(rename_variants());
    // truncate × 2
    ops.push(Op::Truncate { path: "/foo".into(), size: 0 });
    ops.push(Op::Truncate { path: "/foo".into(), size: 2500 });
    // rmdir × 3
    ops.extend(DIRS.iter().map(|d| Op::Rmdir { path: (*d).into() }));
    ops
}

/// The 37 metadata operations of the seq-3 space (pwrite, link, unlink,
/// rename only — §3.4.1).
pub fn core_ops_metadata() -> Vec<Op> {
    let mut ops = write_variants();
    ops.extend(link_variants());
    ops.extend(unlink_variants());
    ops.extend(rename_variants());
    ops
}

/// The weak-mode core space: the strong ops plus the xattr calls the paper
/// adds for ext4-DAX/XFS-DAX.
pub fn core_ops_weak() -> Vec<Op> {
    let mut ops = core_ops_strong();
    for f in ["/foo", "/bar"] {
        ops.push(Op::SetXattr { path: f.into(), name: "user.k".into(), value: b"v".to_vec() });
        ops.push(Op::RemoveXattr { path: f.into(), name: "user.k".into() });
    }
    ops
}

/// Prepends the operations a core-op sequence depends on: parent
/// directories, then source files. Matches ACE's dependency satisfaction.
pub fn satisfy_dependencies(core: &[Op]) -> Vec<Op> {
    let mut setup: Vec<Op> = Vec::new();
    let have_dir = |setup: &mut Vec<Op>, path: &str| {
        // Create ancestors in order.
        for d in DIRS {
            if (path == d || is_under(path, d))
                && !setup.iter().any(|o| matches!(o, Op::Mkdir { path: p } if p == d))
            {
                setup.push(Op::Mkdir { path: d.into() });
            }
        }
    };
    let have_file = |setup: &mut Vec<Op>, path: &str| {
        if !setup.iter().any(|o| matches!(o, Op::Creat { path: p } if p == path)) {
            setup.push(Op::Creat { path: path.into() });
        }
    };
    for op in core {
        match op {
            Op::Creat { path } => {
                have_dir(&mut setup, path);
            }
            Op::WritePath { path, .. } | Op::FallocPath { path, .. } => {
                // pwrite/fallocate operate on an open descriptor of an
                // existing file: ACE satisfies the dependency with a creat.
                have_dir(&mut setup, path);
                have_file(&mut setup, path);
            }
            Op::Mkdir { path } => {
                // Only ancestors, not the target.
                for d in DIRS {
                    if is_under(path, d)
                        && !setup.iter().any(|o| matches!(o, Op::Mkdir { path: p } if p == d))
                    {
                        setup.push(Op::Mkdir { path: d.into() });
                    }
                }
            }
            Op::Rmdir { path } | Op::Remove { path } if DIRS.contains(&path.as_str()) => {
                have_dir(&mut setup, path);
                if !setup.iter().any(|o| matches!(o, Op::Mkdir { path: p } if p == path)) {
                    setup.push(Op::Mkdir { path: path.clone() });
                }
            }
            Op::Unlink { path } | Op::Truncate { path, .. } | Op::Remove { path } => {
                have_dir(&mut setup, path);
                have_file(&mut setup, path);
            }
            Op::Link { old, new } | Op::Rename { old, new } => {
                have_dir(&mut setup, old);
                have_dir(&mut setup, new);
                have_file(&mut setup, old);
            }
            _ => {}
        }
    }
    // Deduplicate mkdir of the same dir emitted twice and drop setup ops
    // that the core sequence itself performs first.
    let mut out: Vec<Op> = Vec::new();
    for s in setup {
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out.extend(core.iter().cloned());
    out
}

/// Whether `path` lies strictly below directory `dir`.
fn is_under(path: &str, dir: &str) -> bool {
    path.strip_prefix(dir).is_some_and(|rest| rest.starts_with('/'))
}

/// Appends the weak-mode persistence suffix: fsync of the op's target (when
/// it still exists) or a full sync, ensuring at least one crash point.
fn weak_suffix(core: &[Op], variant: usize) -> Vec<Op> {
    let mut ops = core.to_vec();
    match variant {
        0 => ops.push(Op::Sync),
        _ => {
            // fsync the last touched file if identifiable, else sync.
            let target = core.iter().rev().find_map(|o| match o {
                Op::Creat { path }
                | Op::WritePath { path, .. }
                | Op::Truncate { path, .. }
                | Op::FallocPath { path, .. } => Some(path.clone()),
                Op::Rename { new, .. } | Op::Link { new, .. } => Some(new.clone()),
                _ => None,
            });
            match target {
                Some(path) => ops.push(Op::FsyncPath { path }),
                None => ops.push(Op::Sync),
            }
        }
    }
    ops
}

/// All seq-1 workloads for `mode`.
pub fn seq1(mode: AceMode) -> Vec<Workload> {
    match mode {
        AceMode::Strong => core_ops_strong()
            .into_iter()
            .enumerate()
            .map(|(i, op)| Workload::new(format!("seq1-{i:03}"), satisfy_dependencies(&[op])))
            .collect(),
        AceMode::Weak => {
            let mut out = Vec::new();
            for (i, op) in core_ops_weak().into_iter().enumerate() {
                for v in 0..2 {
                    let core = [op.clone()];
                    let with_deps = satisfy_dependencies(&core);
                    out.push(Workload::new(
                        format!("seq1w-{i:03}-{v}"),
                        weak_suffix(&with_deps, v),
                    ));
                }
            }
            out
        }
    }
}

/// `seq1(mode).len()`, without building the workloads.
pub fn seq1_len(mode: AceMode) -> usize {
    match mode {
        AceMode::Strong => core_ops_strong().len(),
        AceMode::Weak => 2 * core_ops_weak().len(),
    }
}

/// All seq-2 workloads for `mode`, generated lazily (3136 strong).
pub fn seq2(mode: AceMode) -> AceSeq {
    let core = match mode {
        AceMode::Strong => core_ops_strong(),
        AceMode::Weak => core_ops_weak(),
    };
    AceSeq::new(core, 2, mode == AceMode::Weak)
}

/// All seq-3 metadata workloads (strong mode only), generated lazily
/// (37³ = 50,653).
pub fn seq3_metadata() -> AceSeq {
    AceSeq::new(core_ops_metadata(), 3, false)
}

/// A seq-2 or seq-3 workload space, generated lazily and addressed by
/// index: workload `k` is the core-op tuple whose indices are the base-`n`
/// digits of `k`, most significant first (seq-2 `k` is `(k / n, k % n)`).
/// Only the workloads handed out are built, so `nth`, and with it `skip`
/// and `step_by`, jump over the others, and `len` is exact.
#[derive(Debug, Clone)]
pub struct AceSeq {
    core: Vec<Op>,
    arity: u32,
    weak: bool,
    next: usize,
    end: usize,
}

impl AceSeq {
    fn new(core: Vec<Op>, arity: u32, weak: bool) -> Self {
        let end = core.len().pow(arity);
        AceSeq { core, arity, weak, next: 0, end }
    }

    /// The workload at index `k` of the space.
    fn build(&self, k: usize) -> Workload {
        let n = self.core.len();
        if self.arity == 2 {
            let (i, j) = (k / n, k % n);
            let ops = satisfy_dependencies(&[self.core[i].clone(), self.core[j].clone()]);
            let ops = if self.weak { weak_suffix(&ops, 1) } else { ops };
            Workload::new(format!("seq2-{i:03}x{j:03}"), ops)
        } else {
            let (i, j, l) = (k / (n * n), (k / n) % n, k % n);
            let triple = [self.core[i].clone(), self.core[j].clone(), self.core[l].clone()];
            Workload::new(format!("seq3-{i:02}x{j:02}x{l:02}"), satisfy_dependencies(&triple))
        }
    }
}

impl Iterator for AceSeq {
    type Item = Workload;

    fn next(&mut self) -> Option<Workload> {
        if self.next >= self.end {
            return None;
        }
        self.next += 1;
        Some(self.build(self.next - 1))
    }

    fn nth(&mut self, skip: usize) -> Option<Workload> {
        self.next = self.next.saturating_add(skip).min(self.end);
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.next;
        (left, Some(left))
    }

    fn count(self) -> usize {
        self.len()
    }
}

impl ExactSizeIterator for AceSeq {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_seq1_space_is_exactly_56() {
        // §3.4.1: "we generate 56 seq-1 tests".
        assert_eq!(core_ops_strong().len(), 56);
        assert_eq!(seq1(AceMode::Strong).len(), 56);
    }

    #[test]
    fn strong_seq2_space_is_exactly_3136() {
        // §3.4.1: "3136 seq-2 tests" = 56².
        assert_eq!(seq2(AceMode::Strong).count(), 3136);
    }

    #[test]
    fn seq3_metadata_space_matches_paper_within_pruning() {
        // §3.4.1 reports 50,650; the enumerated space here is 37³ = 50,653.
        assert_eq!(core_ops_metadata().len(), 37);
        assert_eq!(37usize.pow(3), 50_653);
    }

    #[test]
    fn metadata_ops_only_use_the_four_kinds() {
        use vfs::fs::SyscallKind;
        for op in core_ops_metadata() {
            assert!(matches!(
                op.kind(),
                SyscallKind::Pwrite | SyscallKind::Link | SyscallKind::Unlink | SyscallKind::Rename
            ));
        }
    }

    #[test]
    fn dependencies_make_workloads_runnable() {
        use vfs::model::ModelFs;
        use vfs::FsError;
        // Every strong seq-1 workload must run without ENOENT on a fresh
        // file system (EEXIST from a creat-after-setup is acceptable ACE
        // behaviour; missing dependencies are not).
        for w in seq1(AceMode::Strong) {
            let mut fs = ModelFs::new();
            let mut ex = chipmunk::exec::Executor::new();
            for (i, op) in w.ops.iter().enumerate() {
                let r = ex.exec(&mut fs, op, i);
                assert!(
                    !matches!(r.result, Err(FsError::NotFound)),
                    "{}: {op:?} hit ENOENT",
                    w.name
                );
            }
        }
    }

    #[test]
    fn weak_workloads_always_have_a_persistence_point() {
        for w in seq1(AceMode::Weak) {
            assert!(
                w.ops
                    .iter()
                    .any(|o| matches!(o, Op::Sync | Op::FsyncPath { .. } | Op::Fsync { .. })),
                "{} has no fsync/sync",
                w.name
            );
        }
    }

    /// `satisfy_dependencies` as it was before it stopped allocating a
    /// `"{d}/"` string per directory per op: the reference the production
    /// function must match op for op.
    fn satisfy_dependencies_v0(core: &[Op]) -> Vec<Op> {
        let mut setup: Vec<Op> = Vec::new();
        let have_dir = |setup: &mut Vec<Op>, path: &str| {
            // Create ancestors in order.
            for d in DIRS {
                if (path.starts_with(&format!("{d}/")) || path == d)
                    && !setup.iter().any(|o| matches!(o, Op::Mkdir { path: p } if p == d))
                {
                    setup.push(Op::Mkdir { path: d.into() });
                }
            }
        };
        let have_file = |setup: &mut Vec<Op>, path: &str| {
            if !setup.iter().any(|o| matches!(o, Op::Creat { path: p } if p == path)) {
                setup.push(Op::Creat { path: path.into() });
            }
        };
        for op in core {
            match op {
                Op::Creat { path } => {
                    have_dir(&mut setup, path);
                }
                Op::WritePath { path, .. } | Op::FallocPath { path, .. } => {
                    // pwrite/fallocate operate on an open descriptor of an
                    // existing file: ACE satisfies the dependency with a creat.
                    have_dir(&mut setup, path);
                    have_file(&mut setup, path);
                }
                Op::Mkdir { path } => {
                    // Only ancestors, not the target.
                    for d in DIRS {
                        if path.starts_with(&format!("{d}/"))
                            && !setup.iter().any(|o| matches!(o, Op::Mkdir { path: p } if p == d))
                        {
                            setup.push(Op::Mkdir { path: d.into() });
                        }
                    }
                }
                Op::Rmdir { path } | Op::Remove { path } if DIRS.contains(&path.as_str()) => {
                    have_dir(&mut setup, path);
                    if !setup.iter().any(|o| matches!(o, Op::Mkdir { path: p } if p == path)) {
                        setup.push(Op::Mkdir { path: path.clone() });
                    }
                }
                Op::Unlink { path } | Op::Truncate { path, .. } | Op::Remove { path } => {
                    have_dir(&mut setup, path);
                    have_file(&mut setup, path);
                }
                Op::Link { old, new } | Op::Rename { old, new } => {
                    have_dir(&mut setup, old);
                    have_dir(&mut setup, new);
                    have_file(&mut setup, old);
                }
                _ => {}
            }
        }
        // Deduplicate mkdir of the same dir emitted twice and drop setup ops
        // that the core sequence itself performs first.
        let mut out: Vec<Op> = Vec::new();
        for s in setup {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out.extend(core.iter().cloned());
        out
    }

    /// The seq-2 space as it was generated before [`AceSeq`]: a `map` over
    /// `0..n²` through [`satisfy_dependencies_v0`].
    fn seq2_v0(mode: AceMode) -> Vec<Workload> {
        let core = match mode {
            AceMode::Strong => core_ops_strong(),
            AceMode::Weak => core_ops_weak(),
        };
        let n = core.len();
        (0..n * n)
            .map(|k| {
                let (i, j) = (k / n, k % n);
                let pair = [core[i].clone(), core[j].clone()];
                let ops = satisfy_dependencies_v0(&pair);
                let ops = if mode == AceMode::Weak { weak_suffix(&ops, 1) } else { ops };
                Workload::new(format!("seq2-{i:03}x{j:03}"), ops)
            })
            .collect()
    }

    /// The seq-3 metadata space as it was generated before [`AceSeq`].
    fn seq3_v0() -> Vec<Workload> {
        let core = core_ops_metadata();
        let n = core.len();
        (0..n * n * n)
            .map(|k| {
                let (i, j, l) = (k / (n * n), (k / n) % n, k % n);
                let triple = [core[i].clone(), core[j].clone(), core[l].clone()];
                Workload::new(
                    format!("seq3-{i:02}x{j:02}x{l:02}"),
                    satisfy_dependencies_v0(&triple),
                )
            })
            .collect()
    }

    fn assert_same(what: &str, got: &[Workload], want: &[Workload]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.name, w.name, "{what}");
            assert_eq!(g.ops, w.ops, "{what}: {}", w.name);
        }
    }

    #[test]
    fn generators_match_the_materialised_spaces() {
        for (mode, n) in [(AceMode::Strong, 3136), (AceMode::Weak, 3600)] {
            let all = seq2_v0(mode);
            assert_eq!(all.len(), n);
            assert_eq!(seq2(mode).len(), n, "{mode:?} len");
            assert_eq!(seq2(mode).count(), n, "{mode:?} count");
            assert_same(&format!("{mode:?} seq2"), &seq2(mode).collect::<Vec<_>>(), &all);
            for s in [1, 7, 96, 97, 3137] {
                let want: Vec<Workload> = all.iter().step_by(s).cloned().collect();
                let it = seq2(mode).step_by(s);
                assert_eq!(it.len(), want.len(), "{mode:?} step_by({s}) len");
                assert_same(&format!("{mode:?} step_by({s})"), &it.collect::<Vec<_>>(), &want);
            }
            for k in [0, 1, 55, 56, 57, 1000, n - 1, n, n + 1, usize::MAX] {
                let got = seq2(mode).nth(k);
                assert_eq!(got.map(|w| w.name), all.get(k).map(|w| w.name.clone()), "nth({k})");
                let mut it = seq2(mode).skip(k);
                assert_eq!(it.len(), n.saturating_sub(k), "skip({k}) len");
                let got = it.next();
                assert_eq!(got.as_ref().map(|w| &w.ops), all.get(k).map(|w| &w.ops), "skip({k})");
            }
            // Mixed jumps and steps from a partly consumed generator.
            let mut it = seq2(mode);
            assert_eq!(it.nth(10).unwrap().name, all[10].name);
            assert_eq!(it.next().unwrap().name, all[11].name);
            assert_eq!(it.len(), n - 12);
        }
        let all = seq3_v0();
        assert_eq!(all.len(), 50_653);
        assert_eq!(seq3_metadata().len(), 50_653);
        assert_eq!(seq3_metadata().count(), 50_653);
        assert_same("seq3", &seq3_metadata().collect::<Vec<_>>(), &all);
        let want: Vec<Workload> = all.iter().step_by(37).take(400).cloned().collect();
        assert_same(
            "seq3 step_by(37).take(400)",
            &seq3_metadata().step_by(37).take(400).collect::<Vec<_>>(),
            &want,
        );
        assert_eq!(seq3_metadata().nth(50_652).unwrap().name, all[50_652].name);
        assert!(seq3_metadata().nth(50_653).is_none());
    }

    #[test]
    fn dependency_satisfaction_matches_the_allocating_original() {
        for mode in [AceMode::Strong, AceMode::Weak] {
            let core = match mode {
                AceMode::Strong => core_ops_strong(),
                AceMode::Weak => core_ops_weak(),
            };
            for a in &core {
                assert_eq!(
                    satisfy_dependencies(std::slice::from_ref(a)),
                    satisfy_dependencies_v0(std::slice::from_ref(a))
                );
                for b in &core {
                    let pair = [a.clone(), b.clone()];
                    assert_eq!(satisfy_dependencies(&pair), satisfy_dependencies_v0(&pair));
                }
            }
        }
        let core = core_ops_metadata();
        for a in &core {
            for b in &core {
                for c in &core {
                    let triple = [a.clone(), b.clone(), c.clone()];
                    assert_eq!(satisfy_dependencies(&triple), satisfy_dependencies_v0(&triple));
                }
            }
        }
        // Prefix look-alikes: `/A` must not claim `/AB`, and mkdir of a
        // directory needs only its ancestors.
        for core in [
            vec![Op::Creat { path: "/AB/x".into() }],
            vec![Op::Mkdir { path: "/A/C".into() }],
            vec![Op::Mkdir { path: "/A".into() }],
            vec![Op::Link { old: "/A/C/f".into(), new: "/B/g".into() }],
        ] {
            assert_eq!(satisfy_dependencies(&core), satisfy_dependencies_v0(&core), "{core:?}");
        }
    }

    #[test]
    fn seq1_len_counts_without_building() {
        for mode in [AceMode::Strong, AceMode::Weak] {
            assert_eq!(seq1_len(mode), seq1(mode).len(), "{mode:?}");
        }
    }

    #[test]
    fn seq2_sample_has_deps_of_both_ops() {
        // unlink(/A/foo) ; rename(/bar, /foo): needs /A, /A/foo, /bar.
        let w = seq2(AceMode::Strong)
            .find(|w| w.name == "seq2-031x045")
            .or_else(|| seq2(AceMode::Strong).nth(100))
            .unwrap();
        // Just verify it runs cleanly on the model.
        let mut fs = vfs::model::ModelFs::new();
        let mut ex = chipmunk::exec::Executor::new();
        for (i, op) in w.ops.iter().enumerate() {
            let _ = ex.exec(&mut fs, op, i);
        }
    }
}
