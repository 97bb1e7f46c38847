//! The oracle: legal post-crash states captured from a crash-free run.
//!
//! Chipmunk's checker compares each crash state against oracle versions of
//! the file-system tree (§3.3). The oracle runs the same workload on a
//! fresh instance of the same file system (on its own device, never
//! crashed) and snapshots the whole tree before every system call plus once
//! at the end, so snapshot *k* is the legal state "before op *k*" and
//! snapshot *k+1* the legal state "after op *k*".
//!
//! Snapshots are persistent, structurally-shared trees: every node is an
//! `Arc`-shared [`SnapEntry`] carrying a content hash ([`pmem::snap_key`]),
//! and [`advance_snapshot`] builds snapshot *k+1* from snapshot *k* by
//! re-walking only the paths op *k* could have touched — consecutive
//! snapshots share every untouched node, so an *n*-op oracle holds each
//! file's bytes once instead of *n* times. The content hashes double as a
//! diff fast path: [`diff_trees_pruned`] skips node comparisons whose
//! hashes match (equality-only, so verdicts and messages are byte-identical
//! to the exhaustive diff). Both behaviours are gated by
//! [`TestConfig::shared_oracle`]; with the knob off, every snapshot is an
//! independent full walk and the diffs compare every field.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pmem::PmBackend;
use vfs::{FileSystem, FileType, FsError, FsKind, Workload};

use crate::config::TestConfig;
use crate::exec::{Executor, OpResult};

/// The set of paths a crash point's in-flight operations can affect —
/// the targets themselves, their parent directories (entry lists and link
/// counts change there), and every hard-link alias of a target file.
///
/// Scoped checking (§ [`crate::TestConfig::scoped_check`]) compares file
/// *contents* against the oracle only inside the scope; structure and
/// metadata (presence, type, size, link counts, directory entries) are
/// always compared everywhere. `Full` is the escape hatch: everything is
/// in scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scope {
    /// Every path is in scope (full comparison).
    Full,
    /// Only the listed paths are in scope for data comparison.
    Paths(BTreeSet<String>),
}

impl Scope {
    /// Whether `path`'s file contents are compared.
    pub fn contains(&self, path: &str) -> bool {
        match self {
            Scope::Full => true,
            Scope::Paths(set) => set.contains(path),
        }
    }

    /// Whether every path in scope for `other` is also in scope here.
    ///
    /// Used by cross-state artifact reuse: a tree walked under scope `a` can
    /// stand in for a walk under scope `b` only when `a.covers(&b)` — the
    /// wider walk compared file contents everywhere the narrower one would.
    pub fn covers(&self, other: &Scope) -> bool {
        match (self, other) {
            (Scope::Full, _) => true,
            (Scope::Paths(_), Scope::Full) => false,
            (Scope::Paths(a), Scope::Paths(b)) => b.is_subset(a),
        }
    }
}

/// Snapshot of one file or directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeSnap {
    /// A regular file: metadata and full contents.
    File {
        /// Inode number (compared only when configured).
        ino: u64,
        /// Link count.
        nlink: u64,
        /// Size in bytes.
        size: u64,
        /// Full contents.
        data: Vec<u8>,
    },
    /// A directory: link count and child names.
    Dir {
        /// Inode number.
        ino: u64,
        /// Link count.
        nlink: u64,
        /// Sorted child names.
        entries: Vec<String>,
    },
}

/// One tree node plus its content hash, shared (`Arc`) across every
/// snapshot that holds it unchanged.
///
/// The hash is a pure function of the node's stored content (kind, ino,
/// nlink, size, data bytes, sorted entry names — see [`node_hash`]), so key
/// equality is treated as node equality by the diff pruner, under the same
/// 128-bit-collision assumption the crash-state dedup and memo layers
/// already make. Equality compares node *content* (two entries with the
/// same node are equal whether or not they share the allocation).
#[derive(Debug, Clone)]
pub struct SnapEntry {
    /// Content hash of `node` (see [`node_hash`]).
    pub hash: pmem::ImageKey,
    /// The node itself.
    pub node: Arc<NodeSnap>,
}

impl SnapEntry {
    /// Wraps `node`, computing its content hash.
    pub fn new(node: NodeSnap) -> SnapEntry {
        SnapEntry { hash: node_hash(&node), node: Arc::new(node) }
    }
}

impl PartialEq for SnapEntry {
    fn eq(&self, other: &SnapEntry) -> bool {
        self.node == other.node
    }
}

impl Eq for SnapEntry {}

/// Content hash of one snapshot node over its serialized form: a fixed
/// 25-byte header (kind tag, ino, nlink, size or entry count) framing the
/// payload (file bytes, or the sorted length-prefixed entry names), hashed
/// by [`pmem::snap_key`]'s word-wide kernel in its own seed namespace.
/// Node hashes are only ever compared with each other. The serialization is
/// injective, and it covers exactly the fields the diffs compare — sorted
/// entries, because that is how [`diff_trees_pruned`] compares them — so
/// hash equality implies the exhaustive node diff finds no difference.
pub fn node_hash(node: &NodeSnap) -> pmem::ImageKey {
    let mut head = [0u8; 25];
    match node {
        NodeSnap::File { ino, nlink, size, data } => {
            head[0] = b'F';
            head[1..9].copy_from_slice(&ino.to_le_bytes());
            head[9..17].copy_from_slice(&nlink.to_le_bytes());
            head[17..25].copy_from_slice(&size.to_le_bytes());
            pmem::snap_key(&head, data)
        }
        NodeSnap::Dir { ino, nlink, entries } => {
            head[0] = b'D';
            head[1..9].copy_from_slice(&ino.to_le_bytes());
            head[9..17].copy_from_slice(&nlink.to_le_bytes());
            head[17..25].copy_from_slice(&(entries.len() as u64).to_le_bytes());
            let mut sorted: Vec<&String> = entries.iter().collect();
            sorted.sort();
            let mut body = Vec::with_capacity(entries.iter().map(|n| n.len() + 4).sum());
            for name in sorted {
                body.extend_from_slice(&(name.len() as u32).to_le_bytes());
                body.extend_from_slice(name.as_bytes());
            }
            pmem::snap_key(&head, &body)
        }
    }
}

/// A whole-tree snapshot: path → hashed, structurally-shared node.
pub type Tree = BTreeMap<String, SnapEntry>;

/// Walks the file system from the root, producing a [`Tree`].
///
/// Any corruption error surfaced during the walk is returned as `Err` with
/// a description — on a crash state this is itself a consistency violation.
pub fn snapshot_tree<F: FileSystem>(fs: &F) -> Result<Tree, String> {
    snapshot_tree_scoped(fs, &Scope::Full)
}

/// [`snapshot_tree`], but file *contents* are read only for paths inside
/// `scope` — out-of-scope files get their real metadata (ino, nlink, size)
/// and empty placeholder data. Such a tree may only be compared with the
/// same scope (the scoped diffs skip exactly those bytes).
pub fn snapshot_tree_scoped<F: FileSystem>(fs: &F, scope: &Scope) -> Result<Tree, String> {
    let mut tree = Tree::new();
    walk_into(fs, "/".to_string(), scope, &mut tree)?;
    Ok(tree)
}

/// Walks the subtree rooted at `root` (which must name a directory) into
/// `tree`. Single pass per directory: entry names move from the `readdir`
/// result straight into the `Dir` node after their child paths are built —
/// no per-entry name clone, no second walk over the entry list.
fn walk_into<F: FileSystem>(
    fs: &F,
    root: String,
    scope: &Scope,
    tree: &mut Tree,
) -> Result<(), String> {
    let mut queue = vec![root];
    while let Some(dir) = queue.pop() {
        pmem::fault::walk_probe();
        let entries = fs
            .readdir(&dir)
            .map_err(|e| format!("readdir({dir}) failed during tree walk: {e}"))?;
        pmem::fault::walk_probe();
        let meta =
            fs.stat(&dir).map_err(|e| format!("stat({dir}) failed during tree walk: {e}"))?;
        let mut names = Vec::with_capacity(entries.len());
        for e in entries {
            let path = if dir == "/" { format!("/{}", e.name) } else { format!("{dir}/{}", e.name) };
            match e.ftype {
                FileType::Directory => queue.push(path),
                FileType::Regular => {
                    snap_file(fs, path, scope, tree)?;
                }
            }
            names.push(e.name);
        }
        tree.insert(
            dir,
            SnapEntry::new(NodeSnap::Dir { ino: meta.ino, nlink: meta.nlink, entries: names }),
        );
    }
    Ok(())
}

/// Stats and (in scope) reads one regular file into `tree`.
fn snap_file<F: FileSystem>(
    fs: &F,
    path: String,
    scope: &Scope,
    tree: &mut Tree,
) -> Result<(), String> {
    pmem::fault::walk_probe();
    let meta = fs.stat(&path).map_err(|e| format!("stat({path}) failed during tree walk: {e}"))?;
    let data = if scope.contains(&path) {
        fs.read_file(&path).map_err(|e| format!("read({path}) failed during tree walk: {e}"))?
    } else {
        Vec::new()
    };
    tree.insert(
        path,
        SnapEntry::new(NodeSnap::File { ino: meta.ino, nlink: meta.nlink, size: meta.size, data }),
    );
    Ok(())
}

/// The oracle for one workload: per-op snapshots and results.
#[derive(Debug)]
pub struct Oracle {
    /// `snaps[k]` is the tree before op `k`; `snaps[n]` the final tree.
    /// With [`TestConfig::shared_oracle`] on, consecutive snapshots
    /// structurally share every node op `k` could not have touched.
    pub snaps: Vec<Arc<Tree>>,
    /// Per-op results from the crash-free run.
    pub results: Vec<OpResult>,
    /// File-data bytes each snapshot shares with its predecessor instead of
    /// re-reading and re-storing (0 with `shared_oracle` off).
    pub snap_bytes_shared: u64,
}

impl Oracle {
    /// The legal state before op `k`.
    pub fn before(&self, k: usize) -> &Tree {
        &self.snaps[k]
    }

    /// The legal state after op `k`.
    pub fn after(&self, k: usize) -> &Tree {
        &self.snaps[k + 1]
    }
}

/// Runs `workload` crash-free on a fresh `kind` instance formatted on
/// `new_dev(cfg.device_size)`, capturing snapshots (`oracle_step`).
/// Production passes [`pmem::ForkDevice::new`] (page-sparse), the literal
/// reference's whole-workload walk [`pmem::PmDevice::new`] (dense).
pub fn build_oracle<K: FsKind, D: PmBackend>(
    kind: &K,
    workload: &Workload,
    cfg: &TestConfig,
    new_dev: impl Fn(u64) -> D,
) -> Result<Oracle, FsError> {
    let mut fs = kind.mkfs(new_dev(cfg.device_size))?;
    let mut ex = Executor::new();
    let mut snaps = Vec::with_capacity(workload.ops.len() + 1);
    let mut results = Vec::with_capacity(workload.ops.len());
    let mut snap_bytes_shared = 0u64;
    snaps.push(Arc::new(snapshot_tree(&fs).map_err(FsError::Corrupt)?));
    for (seq, op) in workload.ops.iter().enumerate() {
        let prev = snaps.last().expect("root snapshot present");
        let (r, next, shared) =
            oracle_step(&mut ex, &mut fs, op, seq, prev, cfg).map_err(FsError::Corrupt)?;
        snap_bytes_shared += shared;
        snaps.push(next);
        results.push(r);
    }
    Ok(Oracle { snaps, results, snap_bytes_shared })
}

/// One op of the oracle run: executes `op` on the crash-free `fs`, then
/// snapshots the tree from `prev`, the snapshot before the op — advanced
/// incrementally ([`advance_snapshot`]) under `cfg.shared_oracle`, else an
/// independent full walk. Returns the op's result, the new snapshot and the
/// file-data bytes it shares with `prev`.
pub(crate) fn oracle_step<F: FileSystem>(
    ex: &mut Executor,
    fs: &mut F,
    op: &vfs::Op,
    seq: usize,
    prev: &Arc<Tree>,
    cfg: &TestConfig,
) -> Result<(OpResult, Arc<Tree>, u64), String> {
    let r = ex.exec(fs, op, seq);
    let (next, shared) = if cfg.shared_oracle {
        advance_snapshot(fs, prev, op, r.target.as_deref())?
    } else {
        (Arc::new(snapshot_tree(fs)?), 0)
    };
    Ok((r, next, shared))
}

/// The paths an op addresses, or `None` when its footprint is unbounded
/// (`sync`) or unresolvable (a slot op whose descriptor never resolved).
pub(crate) fn op_paths<'a>(op: &'a vfs::Op, target: Option<&'a str>) -> Option<Vec<&'a str>> {
    use vfs::Op;
    match op {
        Op::Sync | Op::SetCpu { .. } => None,
        Op::Creat { path }
        | Op::Mkdir { path }
        | Op::Rmdir { path }
        | Op::Unlink { path }
        | Op::Remove { path }
        | Op::Truncate { path, .. }
        | Op::WritePath { path, .. }
        | Op::FallocPath { path, .. }
        | Op::FsyncPath { path }
        | Op::Open { path, .. }
        | Op::SetXattr { path, .. }
        | Op::RemoveXattr { path, .. } => Some(vec![path]),
        Op::Link { old, new } | Op::Rename { old, new } => Some(vec![old, new]),
        Op::Close { .. }
        | Op::Write { .. }
        | Op::Pwrite { .. }
        | Op::Falloc { .. }
        | Op::Fsync { .. }
        | Op::Fdatasync { .. }
        | Op::Read { .. } => target.map(|t| vec![t]),
    }
}

/// The paths whose oracle nodes op `op` could have changed: empty for ops
/// with no logical-tree effect (`sync` only flushes; reads and CPU pins
/// mutate nothing), [`op_paths`] otherwise. `None` means the footprint is
/// unknown and the caller must fall back to a full walk.
fn oracle_footprint<'a>(op: &'a vfs::Op, target: Option<&'a str>) -> Option<Vec<&'a str>> {
    use vfs::Op;
    match op {
        Op::Sync | Op::SetCpu { .. } | Op::Read { .. } => Some(Vec::new()),
        _ => op_paths(op, target),
    }
}

/// The parent directory of `p`, or `None` for the root.
fn parent_of(p: &str) -> Option<&str> {
    match p.rfind('/') {
        Some(0) if p.len() > 1 => Some("/"),
        Some(i) => Some(&p[..i]),
        None => None,
    }
}

/// Whether `k` lies strictly inside the subtree rooted at directory `d`
/// (`d` itself excluded; `d` must not be `"/"`, which the callers special-
/// case into a full walk).
fn under(k: &str, d: &str) -> bool {
    k.len() > d.len() && k.starts_with(d) && k.as_bytes()[d.len()] == b'/'
}

/// Total file-data bytes stored in `tree`.
fn tree_data_bytes(tree: &Tree) -> u64 {
    tree.values()
        .map(|e| match e.node.as_ref() {
            NodeSnap::File { data, .. } => data.len() as u64,
            NodeSnap::Dir { .. } => 0,
        })
        .sum()
}

/// Builds the snapshot after `op` from the snapshot before it, re-walking
/// only the paths `op` could have touched. Returns the new tree plus the
/// file-data bytes it shares with `prev`.
///
/// Dirty-set construction: each footprint path is re-walked as a whole
/// subtree (a directory rename or rmdir moves or drops everything beneath
/// it); each footprint path's parent and every hard-link alias the previous
/// snapshot knows for it are refreshed as single nodes (entry lists, link
/// counts, and — for aliases of a written inode — data change there without
/// the path itself moving). Everything else is carried over by `Arc` clone.
/// A footprint of `"/"` or an unknown footprint falls back to a full walk,
/// so the result is always *observationally identical* to `snapshot_tree`.
pub fn advance_snapshot<F: FileSystem>(
    fs: &F,
    prev: &Arc<Tree>,
    op: &vfs::Op,
    target: Option<&str>,
) -> Result<(Arc<Tree>, u64), String> {
    let Some(footprint) = oracle_footprint(op, target) else {
        return Ok((Arc::new(snapshot_tree(fs)?), 0));
    };
    if footprint.is_empty() {
        // No logical-tree effect: the previous snapshot is the new snapshot.
        return Ok((Arc::clone(prev), tree_data_bytes(prev)));
    }
    let mut subtree_dirty: BTreeSet<String> = BTreeSet::new();
    let mut node_dirty: BTreeSet<String> = BTreeSet::new();
    for p in &footprint {
        subtree_dirty.insert((*p).to_string());
        if let Some(par) = parent_of(p) {
            node_dirty.insert(par.to_string());
        }
        for a in alias_set(prev, p) {
            node_dirty.insert(a);
        }
    }
    if subtree_dirty.contains("/") {
        return Ok((Arc::new(snapshot_tree(fs)?), 0));
    }
    // Start from the previous snapshot (an Arc-bump per node), drop every
    // dirty path, then rebuild the dropped parts from the live tree.
    let mut next: Tree = (**prev).clone();
    next.retain(|k, _| {
        !(node_dirty.contains(k) || subtree_dirty.iter().any(|d| k == d || under(k, d)))
    });
    for d in &subtree_dirty {
        if subtree_dirty.iter().any(|o| o != d && under(d, o)) {
            continue; // an enclosing dirty subtree re-walks this one
        }
        match fs.stat(d) {
            // Gone in the new state — including a prefix component that is
            // now a regular file; a full walk reaches paths only through
            // readdir, so it would never visit this one.
            Err(FsError::NotFound | FsError::NotDir) => {}
            Err(e) => return Err(format!("stat({d}) failed during tree walk: {e}")),
            Ok(meta) => match meta.ftype {
                FileType::Directory => walk_into(fs, d.clone(), &Scope::Full, &mut next)?,
                FileType::Regular => snap_file(fs, d.clone(), &Scope::Full, &mut next)?,
            },
        }
    }
    for p in &node_dirty {
        if next.contains_key(p.as_str()) {
            continue; // already rebuilt by a subtree walk
        }
        match fs.stat(p) {
            Err(FsError::NotFound | FsError::NotDir) => {} // gone in the new state
            Err(e) => return Err(format!("stat({p}) failed during tree walk: {e}")),
            Ok(meta) => match meta.ftype {
                FileType::Directory => {
                    // Node-only refresh: the children were not dirtied, only
                    // this directory's entry list / link count / identity.
                    let entries = fs
                        .readdir(p)
                        .map_err(|e| format!("readdir({p}) failed during tree walk: {e}"))?;
                    let names = entries.into_iter().map(|e| e.name).collect();
                    next.insert(
                        p.clone(),
                        SnapEntry::new(NodeSnap::Dir {
                            ino: meta.ino,
                            nlink: meta.nlink,
                            entries: names,
                        }),
                    );
                }
                FileType::Regular => snap_file(fs, p.clone(), &Scope::Full, &mut next)?,
            },
        }
    }
    // Re-share rebuilt nodes that came back unchanged (hash equality), then
    // total up the bytes the new snapshot shares with the old one.
    let mut shared = 0u64;
    for (k, e) in next.iter_mut() {
        if let Some(pe) = prev.get(k) {
            if !Arc::ptr_eq(&e.node, &pe.node) && e.hash == pe.hash {
                *e = pe.clone();
            }
            if Arc::ptr_eq(&e.node, &pe.node) {
                if let NodeSnap::File { data, .. } = e.node.as_ref() {
                    shared += data.len() as u64;
                }
            }
        }
    }
    Ok((Arc::new(next), shared))
}

/// Compares a crash-state tree against an oracle tree.
///
/// Returns `None` on a match, or a human-readable first difference.
pub fn diff_trees(actual: &Tree, expect: &Tree, compare_ino: bool) -> Option<String> {
    diff_trees_pruned(actual, expect, compare_ino, &Scope::Full, false, &mut 0)
}

/// [`diff_trees`], but file *contents* are compared only for paths inside
/// `scope` — structure (presence, type, ino when configured, nlink, size,
/// directory entries) is still compared for every path — and with an
/// optional hash fast path: when `prune` is set, a node pair whose content
/// hashes match (or that share the same allocation) is skipped without
/// field-by-field comparison, and `pruned` is incremented. Pruning is equality-only — hash equality implies the
/// exhaustive node diff returns `None` — so verdicts and messages are
/// byte-identical with pruning on or off.
pub fn diff_trees_pruned(
    actual: &Tree,
    expect: &Tree,
    compare_ino: bool,
    scope: &Scope,
    prune: bool,
    pruned: &mut u64,
) -> Option<String> {
    for (path, enode) in expect {
        match actual.get(path) {
            None => return Some(format!("{path} missing (expected to exist)")),
            Some(anode) => {
                if prune && nodes_hash_equal(anode, enode) {
                    *pruned += 1;
                    continue;
                }
                if let Some(d) = diff_nodes_scoped(
                    path,
                    &anode.node,
                    &enode.node,
                    compare_ino,
                    scope.contains(path),
                ) {
                    return Some(d);
                }
            }
        }
    }
    for path in actual.keys() {
        if !expect.contains_key(path) {
            return Some(format!("{path} present (expected not to exist)"));
        }
    }
    None
}

/// The pruning test: same allocation, or same content hash.
#[inline]
fn nodes_hash_equal(a: &SnapEntry, b: &SnapEntry) -> bool {
    Arc::ptr_eq(&a.node, &b.node) || a.hash == b.hash
}

fn diff_nodes_scoped(
    path: &str,
    actual: &NodeSnap,
    expect: &NodeSnap,
    compare_ino: bool,
    compare_data: bool,
) -> Option<String> {
    match (actual, expect) {
        (
            NodeSnap::File { ino: ai, nlink: an, size: asz, data: ad },
            NodeSnap::File { ino: ei, nlink: en, size: esz, data: ed },
        ) => {
            if compare_ino && ai != ei {
                return Some(format!("{path}: ino {ai} != expected {ei}"));
            }
            if an != en {
                return Some(format!("{path}: nlink {an} != expected {en}"));
            }
            if asz != esz {
                return Some(format!("{path}: size {asz} != expected {esz}"));
            }
            if compare_data && ad != ed {
                let first = ad.iter().zip(ed.iter()).position(|(a, b)| a != b);
                return Some(format!(
                    "{path}: contents differ (first difference at offset {})",
                    first.map_or_else(|| ad.len().min(ed.len()).to_string(), |o| o.to_string())
                ));
            }
            None
        }
        (
            NodeSnap::Dir { ino: ai, nlink: an, entries: ae },
            NodeSnap::Dir { ino: ei, nlink: en, entries: ee },
        ) => {
            if compare_ino && ai != ei {
                return Some(format!("{path}: ino {ai} != expected {ei}"));
            }
            if an != en {
                return Some(format!("{path}: dir nlink {an} != expected {en}"));
            }
            let (mut a, mut e) = (ae.clone(), ee.clone());
            a.sort();
            e.sort();
            if a != e {
                return Some(format!("{path}: entries {a:?} != expected {e:?}"));
            }
            None
        }
        _ => Some(format!("{path}: file/directory type mismatch")),
    }
}

/// All paths that name the same inode as `target` in `tree` — the write's
/// alias set. A data write through one name is equally visible through
/// every hard link, so the relaxation must cover them all. Always contains
/// `target` itself; inode 0 is treated as "unknown" and never grouped.
fn write_aliases<'t>(tree: &'t Tree, target: &'t str) -> BTreeSet<&'t str> {
    let mut set = BTreeSet::new();
    set.insert(target);
    if let Some(NodeSnap::File { ino, .. }) = tree.get(target).map(|e| e.node.as_ref()) {
        if *ino != 0 {
            for (p, n) in tree {
                if matches!(n.node.as_ref(), NodeSnap::File { ino: i, .. } if i == ino) {
                    set.insert(p.as_str());
                }
            }
        }
    }
    set
}

/// Owned alias set for scope construction: every path in `tree` that names
/// the same inode as `target` (plus `target` itself). Used by the harness
/// to expand a crash point's scope across hard links.
pub fn alias_set(tree: &Tree, target: &str) -> BTreeSet<String> {
    write_aliases(tree, target).into_iter().map(str::to_string).collect()
}

/// The untouched-files half of the write-relaxed diffs: every node of `cur`
/// outside the written inode's `aliases` must match `actual` (data compared
/// inside `scope`, hash-pruned as in [`diff_trees_pruned`]), and `actual` may
/// hold nothing outside `aliases` that `cur` lacks.
fn diff_untouched(
    actual: &Tree,
    cur: &Tree,
    aliases: &BTreeSet<&str>,
    compare_ino: bool,
    scope: &Scope,
    prune: bool,
    pruned: &mut u64,
) -> Option<String> {
    for (path, enode) in cur {
        if aliases.contains(path.as_str()) {
            continue;
        }
        match actual.get(path) {
            None => return Some(format!("{path} missing (untouched by the data write)")),
            Some(anode) => {
                if prune && nodes_hash_equal(anode, enode) {
                    *pruned += 1;
                    continue;
                }
                if let Some(d) = diff_nodes_scoped(
                    path,
                    &anode.node,
                    &enode.node,
                    compare_ino,
                    scope.contains(path),
                ) {
                    return Some(format!("untouched file changed: {d}"));
                }
            }
        }
    }
    for path in actual.keys() {
        if !aliases.contains(path.as_str()) && !cur.contains_key(path) {
            return Some(format!("{path} appeared (untouched by the data write)"));
        }
    }
    None
}

/// Relaxed comparison for crashes in the middle of a non-atomic data write:
/// every file other than the written inode (under any of its hard-linked
/// names) must match `cur`, while the written file's size must be the old
/// or new size and every byte must be explainable as the old byte, the new
/// byte, or zero (an allocated-but-unwritten block).
pub fn diff_relaxed_write(
    actual: &Tree,
    prev: &Tree,
    cur: &Tree,
    target: &str,
    compare_ino: bool,
) -> Option<String> {
    let full = &Scope::Full;
    diff_relaxed_write_pruned(actual, prev, cur, target, compare_ino, full, false, &mut 0)
}

/// [`diff_relaxed_write`] with scoped data comparison and the hash fast path
/// of [`diff_trees_pruned`] for the untouched files (the written inode's
/// aliases are always fully checked, byte-wise; the caller must have them in
/// scope so the walk read their bytes).
#[allow(clippy::too_many_arguments)]
pub fn diff_relaxed_write_pruned(
    actual: &Tree,
    prev: &Tree,
    cur: &Tree,
    target: &str,
    compare_ino: bool,
    scope: &Scope,
    prune: bool,
    pruned: &mut u64,
) -> Option<String> {
    let aliases = write_aliases(cur, target);
    if let Some(d) = diff_untouched(actual, cur, &aliases, compare_ino, scope, prune, pruned) {
        return Some(d);
    }
    // Check the written file byte-wise, under each of its names.
    for &alias in &aliases {
        let pn = prev.get(alias).map(|e| e.node.as_ref());
        let cn = cur.get(alias).map(|e| e.node.as_ref());
        let (pd, cd) = match (pn, cn) {
            (Some(NodeSnap::File { data: pd, .. }), Some(NodeSnap::File { data: cd, .. })) => {
                (pd, cd)
            }
            // Created by this write: treat missing previous as empty.
            (None, Some(NodeSnap::File { data: cd, .. })) => {
                static EMPTY: Vec<u8> = Vec::new();
                (&EMPTY, cd)
            }
            _ => return Some(format!("{alias}: not a regular file in the oracle")),
        };
        match actual.get(alias).map(|e| e.node.as_ref()) {
            None if pd.is_empty() => {} // file not yet created: previous state
            None => return Some(format!("{alias} missing (had data before the write)")),
            Some(NodeSnap::File { size, data, .. }) => {
                if *size != pd.len() as u64 && *size != cd.len() as u64 {
                    return Some(format!(
                        "{alias}: size {size} is neither old ({}) nor new ({})",
                        pd.len(),
                        cd.len()
                    ));
                }
                for (i, &b) in data.iter().enumerate() {
                    let old = pd.get(i).copied().unwrap_or(0);
                    let new = cd.get(i).copied().unwrap_or(0);
                    if b != old && b != new && b != 0 {
                        return Some(format!(
                            "{alias}: byte {i} = {b:#04x} is neither old ({old:#04x}), new \
                             ({new:#04x}), nor zero"
                        ));
                    }
                }
            }
            Some(NodeSnap::Dir { .. }) => return Some(format!("{alias}: became a directory")),
        }
    }
    None
}

/// Atomic-data-write comparison (WineFS/SplitFS strict modes): every file
/// other than `target` must match `cur`, and `target` must be *exactly* the
/// previous version, the new version, or the freshly created empty file (a
/// bundled create-then-write op legitimately crashes between its two
/// underlying system calls) — torn contents are violations.
pub fn diff_atomic_write(
    actual: &Tree,
    prev: &Tree,
    cur: &Tree,
    target: &str,
    compare_ino: bool,
) -> Option<String> {
    let full = &Scope::Full;
    diff_atomic_write_pruned(actual, prev, cur, target, compare_ino, full, false, &mut 0)
}

/// [`diff_atomic_write`] with scoped data comparison and the hash fast path
/// of [`diff_trees_pruned`] for the untouched files (the written inode's
/// aliases are always fully checked; the caller must have them in scope so
/// the walk read their bytes).
#[allow(clippy::too_many_arguments)]
pub fn diff_atomic_write_pruned(
    actual: &Tree,
    prev: &Tree,
    cur: &Tree,
    target: &str,
    compare_ino: bool,
    scope: &Scope,
    prune: bool,
    pruned: &mut u64,
) -> Option<String> {
    let aliases = write_aliases(cur, target);
    if let Some(d) = diff_untouched(actual, cur, &aliases, compare_ino, scope, prune, pruned) {
        return Some(d);
    }
    for &alias in &aliases {
        let ok = match actual.get(alias).map(|e| e.node.as_ref()) {
            None => !prev.contains_key(alias),
            Some(NodeSnap::File { size, data, .. }) => {
                let is_prev = matches!(
                    prev.get(alias).map(|e| e.node.as_ref()),
                    Some(NodeSnap::File { data: pd, .. }) if pd == data
                );
                let is_cur = matches!(
                    cur.get(alias).map(|e| e.node.as_ref()),
                    Some(NodeSnap::File { data: cd, .. }) if cd == data
                );
                let is_fresh_empty = *size == 0 && !prev.contains_key(alias);
                is_prev || is_cur || is_fresh_empty
            }
            Some(NodeSnap::Dir { .. }) => false,
        };
        if !ok {
            return Some(format!(
                "{alias}: contents are neither the old version, the new version, nor a freshly \
                 created empty file — the atomic write tore"
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmDevice;
    use vfs::model::ModelFs;
    use vfs::Op;

    fn file(nlink: u64, data: &[u8]) -> SnapEntry {
        SnapEntry::new(NodeSnap::File {
            ino: 0,
            nlink,
            size: data.len() as u64,
            data: data.to_vec(),
        })
    }

    fn dir(ino: u64, nlink: u64, entries: &[&str]) -> SnapEntry {
        SnapEntry::new(NodeSnap::Dir {
            ino,
            nlink,
            entries: entries.iter().map(|s| s.to_string()).collect(),
        })
    }

    #[test]
    fn snapshot_walks_nested_dirs() {
        let mut m = ModelFs::new();
        m.mkdir("/a").unwrap();
        m.mkdir("/a/b").unwrap();
        m.creat("/a/b/f").unwrap();
        let t = snapshot_tree(&m).unwrap();
        assert_eq!(t.len(), 4);
        assert!(matches!(t.get("/a/b/f").map(|e| e.node.as_ref()), Some(NodeSnap::File { .. })));
        assert!(matches!(t.get("/a/b").map(|e| e.node.as_ref()), Some(NodeSnap::Dir { .. })));
    }

    #[test]
    fn diff_detects_everything() {
        let mut a = Tree::new();
        let mut b = Tree::new();
        a.insert("/f".into(), file(1, b"xx"));
        b.insert("/f".into(), file(1, b"xx"));
        assert_eq!(diff_trees(&a, &b, false), None);
        b.insert("/f".into(), file(2, b"xx"));
        assert!(diff_trees(&a, &b, false).unwrap().contains("nlink"));
        b.insert("/f".into(), file(1, b"xy"));
        assert!(diff_trees(&a, &b, false).unwrap().contains("contents"));
        b.insert("/f".into(), file(1, b"xxx"));
        assert!(diff_trees(&a, &b, false).unwrap().contains("size"));
        b.remove("/f");
        assert!(diff_trees(&a, &b, false).unwrap().contains("present"));
        a.remove("/f");
        b.insert("/g".into(), file(1, b""));
        assert!(diff_trees(&a, &b, false).unwrap().contains("missing"));
    }

    #[test]
    fn oracle_snapshots_bracket_ops() {
        let kind = TestModelKind;
        let w = Workload::new(
            "t",
            vec![Op::Creat { path: "/f".into() }, Op::Unlink { path: "/f".into() }],
        );
        let cfg = TestConfig { device_size: 1024, ..TestConfig::default() };
        let o = build_oracle(&kind, &w, &cfg, PmDevice::new).unwrap();
        assert_eq!(o.snaps.len(), 3);
        assert!(!o.before(0).contains_key("/f"));
        assert!(o.after(0).contains_key("/f"));
        assert!(!o.after(1).contains_key("/f"));
    }

    #[test]
    fn relaxed_write_accepts_torn_data() {
        let mut prev = Tree::new();
        let mut cur = Tree::new();
        prev.insert("/".into(), dir(1, 2, &["f"]));
        cur.insert("/".into(), dir(1, 2, &["f"]));
        prev.insert("/f".into(), file(1, &[1, 1, 1, 1]));
        cur.insert("/f".into(), file(1, &[2, 2, 2, 2]));
        let mut actual = cur.clone();
        // Torn: half old, half new — allowed.
        actual.insert("/f".into(), file(1, &[1, 1, 2, 2]));
        assert_eq!(diff_relaxed_write(&actual, &prev, &cur, "/f", false), None);
        // Zeros (unwritten allocated block) — allowed.
        actual.insert("/f".into(), file(1, &[0, 0, 2, 2]));
        assert_eq!(diff_relaxed_write(&actual, &prev, &cur, "/f", false), None);
        // Garbage — rejected.
        actual.insert("/f".into(), file(1, &[9, 9, 9, 9]));
        assert!(diff_relaxed_write(&actual, &prev, &cur, "/f", false).is_some());
        // Wrong size — rejected.
        actual.insert("/f".into(), file(1, &[1, 1]));
        assert!(diff_relaxed_write(&actual, &prev, &cur, "/f", false)
            .unwrap()
            .contains("size"));
    }

    fn file_ino(ino: u64, nlink: u64, data: &[u8]) -> SnapEntry {
        SnapEntry::new(NodeSnap::File { ino, nlink, size: data.len() as u64, data: data.to_vec() })
    }

    #[test]
    fn relaxed_write_covers_hard_link_aliases() {
        // /f and /d/g are the same inode; a write through /f tears both
        // names identically. The relaxation must accept the alias too.
        let mut prev = Tree::new();
        let mut cur = Tree::new();
        for t in [&mut prev, &mut cur] {
            t.insert("/".into(), dir(1, 3, &["d", "f"]));
            t.insert("/d".into(), dir(2, 2, &["g"]));
        }
        prev.insert("/f".into(), file_ino(7, 2, &[1, 1, 1, 1]));
        prev.insert("/d/g".into(), file_ino(7, 2, &[1, 1, 1, 1]));
        cur.insert("/f".into(), file_ino(7, 2, &[2, 2, 2, 2]));
        cur.insert("/d/g".into(), file_ino(7, 2, &[2, 2, 2, 2]));
        let mut actual = cur.clone();
        actual.insert("/f".into(), file_ino(7, 2, &[1, 1, 2, 2]));
        actual.insert("/d/g".into(), file_ino(7, 2, &[1, 1, 2, 2]));
        assert_eq!(diff_relaxed_write(&actual, &prev, &cur, "/f", false), None);
        // The torn mix is fine for the relaxed check but not the atomic one.
        assert!(diff_atomic_write(&actual, &prev, &cur, "/f", false).is_some());
        // Old version under both names passes the atomic check.
        actual.insert("/f".into(), file_ino(7, 2, &[1, 1, 1, 1]));
        actual.insert("/d/g".into(), file_ino(7, 2, &[1, 1, 1, 1]));
        assert_eq!(diff_atomic_write(&actual, &prev, &cur, "/f", false), None);
        // A garbage alias is still rejected.
        actual.insert("/d/g".into(), file_ino(7, 2, &[9, 9, 9, 9]));
        assert!(diff_relaxed_write(&actual, &prev, &cur, "/f", false).is_some());
        // A changed *unrelated* file (different inode) is still rejected.
        let mut actual = cur.clone();
        actual.insert("/f".into(), file_ino(7, 2, &[1, 1, 2, 2]));
        actual.insert("/d/g".into(), file_ino(8, 1, &[5, 5, 5, 5]));
        let mut cur2 = cur.clone();
        cur2.insert("/d/g".into(), file_ino(8, 1, &[2, 2, 2, 2]));
        let mut prev2 = prev.clone();
        prev2.insert("/d/g".into(), file_ino(8, 1, &[2, 2, 2, 2]));
        assert!(diff_relaxed_write(&actual, &prev2, &cur2, "/f", false)
            .unwrap()
            .contains("untouched"));
    }

    #[test]
    fn advance_snapshot_tracks_structural_ops() {
        // Walk an op mix that stresses every dirty-set rule: parent entry
        // lists, hard-link aliases (nlink and data visible through the
        // other name), whole-subtree moves, and deletions. After every op
        // the incremental snapshot must equal an independent full walk.
        let mut fs = ModelFs::new();
        let mut ex = Executor::new();
        let ops = vec![
            Op::Mkdir { path: "/d".into() },
            Op::Creat { path: "/d/x".into() },
            Op::WritePath { path: "/d/x".into(), off: 0, size: 24 },
            Op::Link { old: "/d/x".into(), new: "/l".into() },
            Op::WritePath { path: "/l".into(), off: 8, size: 8 },
            Op::Rename { old: "/d".into(), new: "/e".into() },
            Op::Unlink { path: "/l".into() },
            Op::Truncate { path: "/e/x".into(), size: 4 },
            Op::Sync,
            Op::Remove { path: "/e/x".into() },
            Op::Rmdir { path: "/e".into() },
        ];
        let mut prev = Arc::new(snapshot_tree(&fs).unwrap());
        for (seq, op) in ops.iter().enumerate() {
            let r = ex.exec(&mut fs, op, seq);
            let (next, _) = advance_snapshot(&fs, &prev, op, r.target.as_deref()).unwrap();
            let full = snapshot_tree(&fs).unwrap();
            assert_eq!(diff_trees(&next, &full, true), None, "op {seq}: {}", op.describe());
            assert_eq!(&*next, &full, "op {seq}: {}", op.describe());
            prev = next;
        }
    }

    #[test]
    fn advance_snapshot_shares_untouched_file_data() {
        let mut fs = ModelFs::new();
        let mut ex = Executor::new();
        for (seq, op) in [
            Op::Creat { path: "/big".into() },
            Op::WritePath { path: "/big".into(), off: 0, size: 4096 },
        ]
        .iter()
        .enumerate()
        {
            ex.exec(&mut fs, op, seq);
        }
        let prev = Arc::new(snapshot_tree(&fs).unwrap());
        // An op that does not touch /big: its data Arc must carry over.
        let op = Op::Creat { path: "/small".into() };
        let r = ex.exec(&mut fs, &op, 2);
        let (next, shared) = advance_snapshot(&fs, &prev, &op, r.target.as_deref()).unwrap();
        assert!(Arc::ptr_eq(&next.get("/big").unwrap().node, &prev.get("/big").unwrap().node));
        assert_eq!(shared, 4096);
        // Sync shares the whole tree by handle.
        let r = ex.exec(&mut fs, &Op::Sync, 3);
        let (next2, shared2) =
            advance_snapshot(&fs, &next, &Op::Sync, r.target.as_deref()).unwrap();
        assert!(Arc::ptr_eq(&next2, &next));
        assert_eq!(shared2, 4096);
    }

    #[test]
    fn pruned_diff_is_equivalent_and_counts() {
        let mut actual = Tree::new();
        let mut expect = Tree::new();
        actual.insert("/".into(), dir(1, 3, &["d", "f"]));
        expect.insert("/".into(), dir(1, 3, &["d", "f"]));
        actual.insert("/d".into(), dir(2, 2, &[]));
        expect.insert("/d".into(), dir(2, 2, &[]));
        actual.insert("/f".into(), file(1, b"same"));
        expect.insert("/f".into(), file(1, b"same"));
        let mut pruned = 0;
        assert_eq!(
            diff_trees_pruned(&actual, &expect, true, &Scope::Full, true, &mut pruned),
            None
        );
        assert_eq!(pruned, 3);
        // A mismatching node is still compared exhaustively: same message,
        // and only the matching nodes are pruned.
        actual.insert("/f".into(), file(1, b"diff"));
        let unpruned = diff_trees(&actual, &expect, true);
        let mut pruned = 0;
        let fast = diff_trees_pruned(&actual, &expect, true, &Scope::Full, true, &mut pruned);
        assert_eq!(fast, unpruned);
        assert!(fast.unwrap().contains("contents differ"));
        assert_eq!(pruned, 2);
    }

    #[test]
    fn node_hash_distinguishes_all_compared_fields() {
        let base = file_ino(7, 1, b"abc");
        assert_ne!(base.hash, file_ino(8, 1, b"abc").hash, "ino");
        assert_ne!(base.hash, file_ino(7, 2, b"abc").hash, "nlink");
        assert_ne!(base.hash, file_ino(7, 1, b"abd").hash, "data");
        assert_ne!(base.hash, file_ino(7, 1, b"abcd").hash, "size");
        // Scoped-walk placeholder (empty data, real size) hashes unlike the
        // full node — pruning against a full oracle stays conservative.
        let placeholder = SnapEntry::new(NodeSnap::File {
            ino: 7,
            nlink: 1,
            size: 3,
            data: Vec::new(),
        });
        assert_ne!(base.hash, placeholder.hash);
        let d = dir(7, 2, &["a", "b"]);
        assert_ne!(d.hash, dir(7, 2, &["a"]).hash, "entry count");
        assert_ne!(d.hash, dir(7, 2, &["a", "c"]).hash, "entry names");
        assert_ne!(d.hash, file_ino(7, 2, b"ab").hash, "kind");
        // Entry order is not compared by the diff, so it must not change
        // the hash either.
        assert_eq!(d.hash, dir(7, 2, &["b", "a"]).hash);
    }

    use proptest::prelude::*;

    /// Nodes from a small space, so that equal pairs are common: both
    /// kinds, tiny inode/link/size ranges, two-letter file bytes, and
    /// entry names whose concatenations collide without their length
    /// prefixes.
    fn arb_node() -> impl Strategy<Value = NodeSnap> {
        let name = prop::sample::select(vec!["a", "b", "ab", "ba", ""]);
        prop_oneof![
            (0u64..2, 1u64..3, prop::collection::vec(0u8..2, 0..20), any::<bool>()).prop_map(
                |(ino, nlink, data, placeholder)| NodeSnap::File {
                    ino,
                    nlink,
                    size: data.len() as u64,
                    data: if placeholder { Vec::new() } else { data },
                }
            ),
            (0u64..2, 1u64..3, prop::collection::vec(name, 0..4)).prop_map(
                |(ino, nlink, names)| NodeSnap::Dir {
                    ino,
                    nlink,
                    entries: names.into_iter().map(String::from).collect(),
                }
            ),
        ]
    }

    /// Node content as the diffs compare it: entry order does not count.
    fn normalized(node: &NodeSnap) -> NodeSnap {
        let mut n = node.clone();
        if let NodeSnap::Dir { entries, .. } = &mut n {
            entries.sort();
        }
        n
    }

    proptest! {
        /// For random node pairs — independent, or the same node with its
        /// entries reversed — hashes are equal exactly when the compared
        /// content is.
        #[test]
        fn node_hash_equality_is_content_equality(
            a in arb_node(),
            b in arb_node(),
            same in any::<bool>(),
        ) {
            let b = if same {
                let mut b = a.clone();
                if let NodeSnap::Dir { entries, .. } = &mut b {
                    entries.reverse();
                }
                b
            } else {
                b
            };
            prop_assert_eq!(node_hash(&a) == node_hash(&b), normalized(&a) == normalized(&b));
        }
    }

    fn arb_path() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("/a".to_string()),
            Just("/b".to_string()),
            Just("/d".to_string()),
            Just("/d/x".to_string()),
            Just("/d/y".to_string()),
            Just("/e".to_string()),
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_path().prop_map(|path| Op::Creat { path }),
            arb_path().prop_map(|path| Op::Mkdir { path }),
            arb_path().prop_map(|path| Op::Rmdir { path }),
            arb_path().prop_map(|path| Op::Unlink { path }),
            arb_path().prop_map(|path| Op::Remove { path }),
            (arb_path(), arb_path()).prop_map(|(old, new)| Op::Link { old, new }),
            (arb_path(), arb_path()).prop_map(|(old, new)| Op::Rename { old, new }),
            (arb_path(), 0u64..64).prop_map(|(path, size)| Op::Truncate { path, size }),
            (arb_path(), 0u64..32, 1u64..48)
                .prop_map(|(path, off, size)| Op::WritePath { path, off, size }),
            arb_path().prop_map(|path| Op::FsyncPath { path }),
            Just(Op::Sync),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The structurally-shared oracle is observationally identical to
        /// the deep-copy oracle on arbitrary op sequences, and building
        /// later snapshots never reaches back into earlier ones (each
        /// incremental snapshot still equals its independently-walked
        /// ground truth after the whole sequence was built).
        #[test]
        fn shared_oracle_matches_deep_copy(
            ops in proptest::collection::vec(arb_op(), 1..20),
        ) {
            let kind = TestModelKind;
            let w = Workload::new("p", ops);
            let shared_cfg = TestConfig {
                device_size: 1 << 20,
                shared_oracle: true,
                ..TestConfig::default()
            };
            let deep_cfg = TestConfig { shared_oracle: false, ..shared_cfg.clone() };
            let a = build_oracle(&kind, &w, &shared_cfg, PmDevice::new).unwrap();
            let b = build_oracle(&kind, &w, &deep_cfg, PmDevice::new).unwrap();
            prop_assert_eq!(a.snaps.len(), b.snaps.len());
            for k in 0..a.snaps.len() {
                prop_assert_eq!(
                    diff_trees(&a.snaps[k], &b.snaps[k], true), None, "snapshot {}", k
                );
                prop_assert_eq!(&*a.snaps[k], &*b.snaps[k], "snapshot {}", k);
            }
            prop_assert_eq!(a.results, b.results);
            prop_assert_eq!(b.snap_bytes_shared, 0);
        }

        /// Mutating a clone of one snapshot never aliases into another:
        /// the `Arc`s share storage, but the trees are value-semantic.
        #[test]
        fn snapshot_clones_do_not_alias(
            ops in proptest::collection::vec(arb_op(), 1..12),
        ) {
            let kind = TestModelKind;
            let w = Workload::new("p", ops);
            let cfg = TestConfig {
                device_size: 1 << 20,
                shared_oracle: true,
                ..TestConfig::default()
            };
            let o = build_oracle(&kind, &w, &cfg, PmDevice::new).unwrap();
            let rendered: Vec<String> =
                o.snaps.iter().map(|t| format!("{t:?}")).collect();
            for k in 0..o.snaps.len() {
                let mut clone = (*o.snaps[k]).clone();
                clone.insert("/mutant".into(), file(1, b"zzz"));
                clone.remove("/");
            }
            for (snap, before) in o.snaps.iter().zip(&rendered) {
                prop_assert_eq!(format!("{snap:?}"), before.clone());
            }
        }
    }

    /// A trivial FsKind over the in-memory model, for oracle unit tests.
    #[derive(Clone)]
    struct TestModelKind;

    struct ModelWithDev(ModelFs);

    impl FileSystem for ModelWithDev {
        fn open(&mut self, p: &str, f: vfs::OpenFlags) -> Result<vfs::Fd, FsError> {
            self.0.open(p, f)
        }
        fn close(&mut self, fd: vfs::Fd) -> Result<(), FsError> {
            self.0.close(fd)
        }
        fn mkdir(&mut self, p: &str) -> Result<(), FsError> {
            self.0.mkdir(p)
        }
        fn rmdir(&mut self, p: &str) -> Result<(), FsError> {
            self.0.rmdir(p)
        }
        fn unlink(&mut self, p: &str) -> Result<(), FsError> {
            self.0.unlink(p)
        }
        fn link(&mut self, a: &str, b: &str) -> Result<(), FsError> {
            self.0.link(a, b)
        }
        fn rename(&mut self, a: &str, b: &str) -> Result<(), FsError> {
            self.0.rename(a, b)
        }
        fn truncate(&mut self, p: &str, s: u64) -> Result<(), FsError> {
            self.0.truncate(p, s)
        }
        fn fallocate(
            &mut self,
            fd: vfs::Fd,
            m: vfs::FallocMode,
            o: u64,
            l: u64,
        ) -> Result<(), FsError> {
            self.0.fallocate(fd, m, o, l)
        }
        fn write(&mut self, fd: vfs::Fd, d: &[u8]) -> Result<usize, FsError> {
            self.0.write(fd, d)
        }
        fn pwrite(&mut self, fd: vfs::Fd, o: u64, d: &[u8]) -> Result<usize, FsError> {
            self.0.pwrite(fd, o, d)
        }
        fn pread(&self, fd: vfs::Fd, o: u64, b: &mut [u8]) -> Result<usize, FsError> {
            self.0.pread(fd, o, b)
        }
        fn fsync(&mut self, fd: vfs::Fd) -> Result<(), FsError> {
            self.0.fsync(fd)
        }
        fn sync(&mut self) -> Result<(), FsError> {
            self.0.sync()
        }
        fn stat(&self, p: &str) -> Result<vfs::Metadata, FsError> {
            self.0.stat(p)
        }
        fn readdir(&self, p: &str) -> Result<Vec<vfs::DirEntry>, FsError> {
            self.0.readdir(p)
        }
        fn read_file(&self, p: &str) -> Result<Vec<u8>, FsError> {
            self.0.read_file(p)
        }
    }

    impl FsKind for TestModelKind {
        type Fs<D: PmBackend> = ModelWithDev;
        fn name(&self) -> vfs::FsName {
            vfs::FsName::Ext4Dax
        }
        fn options(&self) -> &vfs::fs::FsOptions {
            static OPTS: std::sync::OnceLock<vfs::fs::FsOptions> = std::sync::OnceLock::new();
            OPTS.get_or_init(vfs::fs::FsOptions::default)
        }
        fn with_options(&self, _opts: vfs::fs::FsOptions) -> Self {
            self.clone()
        }
        fn guarantees(&self) -> vfs::Guarantees {
            vfs::Guarantees { strong: false, atomic_data_writes: false, data_checksums: false }
        }
        fn mkfs<D: PmBackend>(&self, _dev: D) -> Result<Self::Fs<D>, FsError> {
            Ok(ModelWithDev(ModelFs::new()))
        }
        fn mount<D: PmBackend>(&self, _dev: D) -> Result<Self::Fs<D>, FsError> {
            Ok(ModelWithDev(ModelFs::new()))
        }
    }
}
