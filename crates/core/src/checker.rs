//! Consistency checking of a single crash state (§3.3, "Testing crash
//! states").
//!
//! A crash state is checked in four stages, in order:
//!
//! 1. **Mount** — the target file system runs its crash recovery; failure is
//!    itself a bug ("a useful consistency check").
//! 2. **Tree walk** — every file and directory is read; corruption surfaced
//!    here (failed checksums, unreadable entries) is a bug.
//! 3. **Oracle comparison** — atomicity for mid-syscall crashes (the state
//!    must match the pre- or post-op oracle, consistently across all files),
//!    synchrony for post-syscall crashes (the state must match the current
//!    oracle), or the weak-guarantee fsync check.
//! 4. **Usability probe** — create a file in every directory, then delete
//!    every file. Mutations land in the crash state's copy-on-write overlay,
//!    which the caller discards — the analogue of the paper's undo log for
//!    checker mutations.

use pmem::CowDevice;
use vfs::{FileSystem, FsKind};

use crate::{
    config::TestConfig,
    crashgen::{apply_subset, PendingWrite},
    oracle::{
        diff_atomic_write_pruned, diff_relaxed_write_pruned, diff_trees_pruned, NodeSnap, Scope,
        Tree,
    },
    report::Violation,
};

/// How the checker relaxes the atomicity comparison for a data write in
/// flight at the crash point.
#[derive(Debug, Clone, Copy)]
pub enum DataRelax<'a> {
    /// No relaxation: the operation is fully atomic.
    None,
    /// The target file's contents may tear byte-wise (file systems without
    /// atomic data writes; the paper exempts `write` from atomicity).
    Torn(&'a str),
    /// The target must be exactly the old version, the new version, or a
    /// freshly created empty file (strict/atomic-write modes).
    Atomic(&'a str),
}

/// Which property a crash state must satisfy, given where the crash was
/// injected.
#[derive(Debug, Clone, Copy)]
pub enum CheckKind<'a> {
    /// Crash during a system call: state must match `prev` or `cur`. If
    /// `relax_target` is set (non-atomic data write), the target file's
    /// contents may be torn.
    Atomicity {
        /// Oracle tree before the op.
        prev: &'a Tree,
        /// Oracle tree after the op.
        cur: &'a Tree,
        /// Data-write relaxation, if the crash is inside a data write.
        relax: DataRelax<'a>,
    },
    /// Crash after a system call on a strong-guarantee file system: state
    /// must match `cur` exactly.
    Synchrony {
        /// Oracle tree after the op.
        cur: &'a Tree,
    },
    /// Crash after an fsync-family call on a weak-guarantee file system:
    /// only the synced file (or, for `sync`, everything) is guaranteed.
    WeakFsync {
        /// Oracle tree after the op.
        cur: &'a Tree,
        /// The synced path; `None` means whole-filesystem `sync`.
        target: Option<&'a str>,
    },
}

/// The literal single-state check: builds the crash state (base + replayed
/// subset) on a private overlay, mounts the file system on it, walks the
/// whole tree, compares all of it against the oracle, and probes. Returns
/// the first violation, if any. This is the one entry point shared by the
/// [`reference`](crate::reference) checker's loop and production's
/// slow-path retry of sandbox verdicts; callers that want literal semantics
/// end to end (unpruned diffs too) pass
/// [`reference::literal`](crate::reference::literal)'s config.
pub fn check_crash_state<K: FsKind>(
    kind: &K,
    base: &[u8],
    writes: &[PendingWrite],
    subset: &[usize],
    check: &CheckKind<'_>,
    cfg: &TestConfig,
) -> Option<Violation> {
    let mut cow = CowDevice::new(base);
    apply_subset(&mut cow, writes, subset);
    let (mut fs, tree) = match crate::sandbox::mount_walk(kind, cow, &Scope::Full, cfg) {
        Ok(x) => x,
        Err(v) => return Some(v),
    };
    let mut pruned = 0;
    if let Some(v) = crate::sandbox::compare(&tree, check, cfg, &Scope::Full, &mut pruned) {
        return Some(v);
    }
    if cfg.probe {
        return crate::sandbox::probe(&mut fs, &tree, cfg);
    }
    None
}

/// The scope the tree walk and the comparison use: the crash point's scope
/// under scoped checking, the whole tree otherwise.
pub fn walk_scope(cfg: &TestConfig, scope: &Scope) -> Scope {
    if cfg.scoped_check {
        scope.clone()
    } else {
        Scope::Full
    }
}

/// Runs the usability probe (stage 4) on a mounted crash state.
pub fn probe_state<F: FileSystem>(fs: &mut F, tree: &Tree) -> Option<Violation> {
    probe(fs, tree)
}

/// Pure oracle comparison of a walked tree; file contents outside `scope`
/// are not compared (structure and metadata always are). With
/// `cfg.shared_oracle` the tree diffs skip hash-equal node pairs, counting
/// each skip into `pruned` — verdicts are identical either way.
pub fn compare_state(
    tree: &Tree,
    check: &CheckKind<'_>,
    cfg: &TestConfig,
    scope: &Scope,
    pruned: &mut u64,
) -> Option<Violation> {
    let prune = cfg.shared_oracle;
    match check {
        CheckKind::Atomicity { prev, cur, relax } => {
            let vs_cur = diff_trees_pruned(tree, cur, cfg.compare_ino, scope, prune, pruned);
            let vs_cur = vs_cur?; // matches post-state: atomic
            let vs_prev = diff_trees_pruned(tree, prev, cfg.compare_ino, scope, prune, pruned);
            let Some(vs_prev) = vs_prev else {
                return None; // matches pre-state: atomic
            };
            match relax {
                DataRelax::Torn(target) => {
                    let relaxed = diff_relaxed_write_pruned(
                        tree,
                        prev,
                        cur,
                        target,
                        cfg.compare_ino,
                        scope,
                        prune,
                        pruned,
                    )?;
                    Some(Violation::AtomicityViolation(format!(
                        "torn data write exceeds allowed states: {relaxed}"
                    )))
                }
                DataRelax::Atomic(target) => {
                    let relaxed = diff_atomic_write_pruned(
                        tree,
                        prev,
                        cur,
                        target,
                        cfg.compare_ino,
                        scope,
                        prune,
                        pruned,
                    )?;
                    Some(Violation::AtomicityViolation(relaxed))
                }
                DataRelax::None => Some(Violation::AtomicityViolation(format!(
                    "state matches neither post-op oracle ({vs_cur}) nor pre-op oracle \
                     ({vs_prev})"
                ))),
            }
        }
        CheckKind::Synchrony { cur } => {
            diff_trees_pruned(tree, cur, cfg.compare_ino, scope, prune, pruned).map(|d| {
                Violation::SynchronyViolation(format!("completed syscall not durable: {d}"))
            })
        }
        CheckKind::WeakFsync { cur, target } => match target {
            None => diff_trees_pruned(tree, cur, cfg.compare_ino, scope, prune, pruned).map(|d| {
                Violation::SynchronyViolation(format!("state after sync() not durable: {d}"))
            }),
            Some(path) => {
                let expect = cur.get(*path);
                let actual = tree.get(*path);
                match (actual, expect) {
                    (None, Some(_)) => Some(Violation::SynchronyViolation(format!(
                        "{path} missing after fsync"
                    ))),
                    (Some(a), Some(e)) => diff_file_weak(path, &a.node, &e.node).map(|d| {
                        Violation::SynchronyViolation(format!("fsynced file not durable: {d}"))
                    }),
                    // The file does not exist in the oracle either (fsync of
                    // a deleted path cannot happen; defensive).
                    (_, None) => None,
                }
            }
        },
    }
}

/// Weak-mode comparison of the fsynced file: data and size must be durable.
/// The link count is a parent-directory property ext4 only guarantees via
/// the journal, which commits at fsync too — so compare it as well.
fn diff_file_weak(path: &str, actual: &NodeSnap, expect: &NodeSnap) -> Option<String> {
    match (actual, expect) {
        (
            NodeSnap::File { nlink: an, size: asz, data: ad, .. },
            NodeSnap::File { nlink: en, size: esz, data: ed, .. },
        ) => {
            if asz != esz {
                return Some(format!("{path}: size {asz} != expected {esz}"));
            }
            if an != en {
                return Some(format!("{path}: nlink {an} != expected {en}"));
            }
            if ad != ed {
                return Some(format!("{path}: contents differ"));
            }
            None
        }
        _ => Some(format!("{path}: type mismatch after fsync")),
    }
}

/// The usability probe: create a file in every directory, then delete every
/// file (§3.3). Exercises allocation, directory insertion, and deletion on
/// the recovered state — catching "unusable but superficially consistent"
/// states such as undeletable files.
fn probe<F: FileSystem>(fs: &mut F, tree: &Tree) -> Option<Violation> {
    let mut n = 0;
    let mut probes = Vec::new();
    for (path, node) in tree {
        if matches!(node.node.as_ref(), NodeSnap::Dir { .. }) {
            let p = if path == "/" {
                format!("/probe_{n}")
            } else {
                format!("{path}/probe_{n}")
            };
            if let Err(e) = fs.creat(&p) {
                return Some(Violation::UnusableState(format!(
                    "probe creat({p}) failed: {e}"
                )));
            }
            probes.push(p);
            n += 1;
        }
    }
    // Delete every pre-existing file, then the probe files.
    for (path, node) in tree {
        if matches!(node.node.as_ref(), NodeSnap::File { .. }) {
            if let Err(e) = fs.unlink(path) {
                return Some(Violation::UnusableState(format!(
                    "probe unlink({path}) failed: {e}"
                )));
            }
        }
    }
    for p in probes {
        if let Err(e) = fs.unlink(&p) {
            return Some(Violation::UnusableState(format!("probe unlink({p}) failed: {e}")));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::snapshot_tree;
    use ext4dax::Ext4DaxKind;
    use pmem::PmDevice;
    use vfs::FileSystem;

    /// End-to-end smoke test: a clean ext4-DAX image passes every check
    /// against a matching oracle tree.
    #[test]
    fn clean_image_passes_checks() {
        let kind = Ext4DaxKind::default();
        let mut fs = kind.mkfs(PmDevice::new(4 << 20)).unwrap();
        fs.mkdir("/d").unwrap();
        fs.creat("/d/f").unwrap();
        fs.sync().unwrap();
        let expect = snapshot_tree(&fs).unwrap();
        let base = {
            let dev = fs.into_device();
            dev.persistent_image().to_vec()
        };
        let cfg = TestConfig::default();
        let check = CheckKind::Synchrony { cur: &expect };
        assert_eq!(check_crash_state(&kind, &base, &[], &[], &check, &cfg), None);
    }

    #[test]
    fn synchrony_violation_detected() {
        let kind = Ext4DaxKind::default();
        let mut fs = kind.mkfs(PmDevice::new(4 << 20)).unwrap();
        fs.sync().unwrap();
        // The oracle expects a file that the image does not have.
        let mut expect = snapshot_tree(&fs).unwrap();
        fs.creat("/ghost").unwrap();
        // (Not synced: image lacks it.)
        let with_ghost = {
            let mut t = Tree::new();
            std::mem::swap(&mut t, &mut expect);
            let mut fs2 = vfs::model::ModelFs::new();
            fs2.creat("/ghost").unwrap();
            snapshot_tree(&fs2).unwrap()
        };
        let base = fs.into_device().persistent_image().to_vec();
        let cfg = TestConfig::default();
        let check = CheckKind::Synchrony { cur: &with_ghost };
        let v = check_crash_state(&kind, &base, &[], &[], &check, &cfg).unwrap();
        assert!(matches!(v, Violation::SynchronyViolation(_)), "{v:?}");
    }

    #[test]
    fn garbage_image_is_unmountable() {
        let kind = Ext4DaxKind::default();
        let base = vec![0u8; 4 << 20];
        let cfg = TestConfig::default();
        let empty = Tree::new();
        let check = CheckKind::Synchrony { cur: &empty };
        let v = check_crash_state(&kind, &base, &[], &[], &check, &cfg).unwrap();
        assert!(matches!(v, Violation::Unmountable(_)));
    }

    #[test]
    fn probe_mutations_do_not_leak_into_base() {
        let kind = Ext4DaxKind::default();
        let mut fs = kind.mkfs(PmDevice::new(4 << 20)).unwrap();
        fs.creat("/keep").unwrap();
        fs.sync().unwrap();
        let expect = snapshot_tree(&fs).unwrap();
        let base = fs.into_device().persistent_image().to_vec();
        let cfg = TestConfig::default();
        let check = CheckKind::Synchrony { cur: &expect };
        // Run twice: if the probe leaked into `base`, the second run's
        // comparison would fail (probe deletes /keep in its overlay).
        assert_eq!(check_crash_state(&kind, &base, &[], &[], &check, &cfg), None);
        assert_eq!(check_crash_state(&kind, &base, &[], &[], &check, &cfg), None);
    }
}
