//! The WineFS implementation: PMFS-style metadata under per-CPU journals,
//! with strict-mode atomic (copy-on-write) data writes.

use std::collections::{BTreeSet, HashMap};

use pmem::{backend::CACHE_LINE, PmBackend};
use vfs::{
    covpoint,
    fs::{FileSystem, FsOptions},
    path::{components, is_path_prefix, split_parent},
    BugId, BugSet, BugTrace, Cov, DirEntry, FallocMode, Fd, FileType, FreeMap, FsError,
    FsResult, Metadata, OpenFlags,
};

use crate::{
    journal,
    layout::{
        ioff, itype, sboff, tlist, Geometry, RawDentry, BLOCK, DEFAULT_CPUS, DENTRY_NAME_MAX,
        DENTRY_SIZE, INODE_SIZE, MAGIC, MAX_FILE_BLOCKS, NDIRECT, PTRS_PER_BLOCK, ROOT_INO,
    },
};

/// Planned journaled updates (see the PMFS sibling for the pattern).
#[derive(Default)]
struct UpdatePlan {
    ranges: Vec<(u64, u64)>,
    sets: Vec<(u64, u64)>,
}

impl UpdatePlan {
    fn word(&mut self, addr: u64, val: u64) {
        self.ranges.push((addr, 8));
        self.sets.push((addr, val));
    }

    fn word_fresh(&mut self, addr: u64, val: u64) {
        self.sets.push((addr, val));
    }
}

/// The WineFS file system.
#[derive(Clone)]
pub struct WineFs<D> {
    dev: D,
    geo: Geometry,
    free: FreeMap,
    fds: HashMap<u64, (u64, u64, bool)>,
    next_fd: u64,
    cpu: usize,
    strict: bool,
    bugs: BugSet,
    cov: Cov,
    trace: BugTrace,
}

impl<D: PmBackend> WineFs<D> {
    /// Formats `dev` and mounts the fresh file system.
    pub fn mkfs(mut dev: D, opts: &FsOptions, strict: bool) -> FsResult<Self> {
        let cpus = if opts.cpus == 0 { DEFAULT_CPUS } else { opts.cpus };
        let geo = Geometry::for_device(dev.len(), cpus)?;
        let mut sb = vec![0u8; 80];
        let mut put = |o: u64, v: u64| sb[o as usize..o as usize + 8]
            .copy_from_slice(&v.to_le_bytes());
        put(sboff::MAGIC, MAGIC);
        put(sboff::TOTAL_BLOCKS, geo.total_blocks);
        put(sboff::INODE_COUNT, geo.inode_count);
        put(sboff::JOURNALS, geo.journals);
        put(sboff::NJOURNALS, geo.njournals);
        put(sboff::TLIST, geo.tlist);
        put(sboff::ITABLE, geo.itable);
        put(sboff::DATA_START, geo.data_start);
        put(sboff::STRICT, u64::from(strict));
        dev.memcpy_nt(0, &sb);
        dev.memset_nt(geo.journals * BLOCK, 0, (geo.data_start - geo.journals) * BLOCK);
        let root = geo.inode_off(ROOT_INO);
        let mut ri = [0u8; 16];
        ri[0..8].copy_from_slice(&itype::DIR.to_le_bytes());
        ri[8..16].copy_from_slice(&2u64.to_le_bytes());
        dev.memcpy_nt(root, &ri);
        dev.fence();
        let free = FreeMap::full(geo.data_start, geo.total_blocks);
        Ok(WineFs {
            dev,
            geo,
            free,
            fds: HashMap::new(),
            next_fd: 3,
            cpu: 0,
            strict,
            bugs: opts.bugs,
            cov: opts.cov.clone(),
            trace: opts.trace.clone(),
        })
    }

    /// Mounts `dev`: per-CPU journal recovery, truncate-list replay, orphan
    /// reclamation, ghost poisoning, free-list rebuild.
    pub fn mount(mut dev: D, opts: &FsOptions, strict: bool) -> FsResult<Self> {
        if dev.read_u64(sboff::MAGIC) != MAGIC {
            return Err(FsError::Unmountable("bad superblock magic".into()));
        }
        let geo = Geometry {
            total_blocks: dev.read_u64(sboff::TOTAL_BLOCKS),
            inode_count: dev.read_u64(sboff::INODE_COUNT),
            journals: dev.read_u64(sboff::JOURNALS),
            njournals: dev.read_u64(sboff::NJOURNALS),
            tlist: dev.read_u64(sboff::TLIST),
            itable: dev.read_u64(sboff::ITABLE),
            data_start: dev.read_u64(sboff::DATA_START),
        };
        if geo.total_blocks * BLOCK > dev.len()
            || geo.data_start >= geo.total_blocks
            || geo.njournals == 0
        {
            return Err(FsError::Unmountable("superblock geometry out of range".into()));
        }
        let cov = opts.cov.clone();
        let trace = opts.trace.clone();
        journal::recover_all(&mut dev, &geo, opts.bugs, &cov, &trace)?;

        let mut fs = WineFs {
            dev,
            geo,
            free: FreeMap::default(),
            fds: HashMap::new(),
            next_fd: 3,
            cpu: 0,
            strict,
            bugs: opts.bugs,
            cov,
            trace: trace.clone(),
        };

        // Truncate-list replay (WineFS inherits the mechanism; unlike PMFS
        // it runs in the right order, so there is no bug-13 twin here).
        let trec = fs.geo.tlist * BLOCK;
        let tino = fs.dev.read_u64(trec + tlist::INO);
        if tino != 0 {
            covpoint!(fs.cov, 1);
            let tsize = fs.dev.read_u64(trec + tlist::SIZE);
            let tflags = fs.dev.read_u64(trec + tlist::FLAGS);
            if tino <= fs.geo.inode_count
                && fs.dev.read_u64(fs.geo.inode_off(tino) + ioff::FTYPE) != itype::FREE
            {
                fs.replay_truncate(tino, tsize, tflags & tlist::F_FREE_INODE != 0)?;
            }
            fs.dev.persist_u64(trec + tlist::INO, 0);
        }

        // Namespace scan: poison dangling dentries (the visible form of the
        // half-applied transactions bug 19 leaves behind).
        let mut referenced: BTreeSet<u64> = BTreeSet::new();
        for ino in 1..=fs.geo.inode_count {
            if fs.dev.read_u64(fs.geo.inode_off(ino) + ioff::FTYPE) != itype::DIR {
                continue;
            }
            for slot in 0..fs.dir_slots(ino) {
                if let Some(d) = fs.dentry_at(ino, slot) {
                    let live = d.ino >= 1 && d.ino <= fs.geo.inode_count && {
                        let t = fs.dev.read_u64(fs.geo.inode_off(d.ino) + ioff::FTYPE);
                        t == itype::FILE || t == itype::DIR
                    };
                    if !live {
                        covpoint!(fs.cov, 2);
                        if d.ino >= 1 && d.ino <= fs.geo.inode_count {
                            let addr = fs.geo.inode_off(d.ino) + ioff::FTYPE;
                            fs.dev.store_u64(addr, itype::POISONED);
                            fs.dev.flush(addr, 8);
                            fs.dev.fence();
                        }
                    }
                    referenced.insert(d.ino);
                }
            }
        }

        // Inode scan: orphans + used blocks.
        let mut free = FreeMap::full(fs.geo.data_start, fs.geo.total_blocks);
        for ino in 1..=fs.geo.inode_count {
            let base = fs.geo.inode_off(ino);
            let ftype = fs.dev.read_u64(base + ioff::FTYPE);
            if ftype == itype::FREE || ftype == itype::POISONED {
                continue;
            }
            if ftype != itype::FILE && ftype != itype::DIR {
                return Err(FsError::Unmountable(format!(
                    "inode {ino} has invalid type tag {ftype}"
                )));
            }
            let orphan = (ftype == itype::FILE && fs.dev.read_u64(base + ioff::NLINK) == 0)
                || (ino != ROOT_INO && !referenced.contains(&ino));
            if orphan {
                covpoint!(fs.cov, 3);
                fs.clear_inode_raw(ino);
                continue;
            }
            for (_, b) in fs.mapped_from(ino, 0) {
                if b >= fs.geo.total_blocks {
                    return Err(FsError::Unmountable(format!(
                        "inode {ino} maps out-of-range block {b}"
                    )));
                }
                free.remove(b);
            }
            let ind = fs.dev.read_u64(base + ioff::INDIRECT);
            if ind != 0 {
                free.remove(ind);
            }
        }
        fs.free = free;
        Ok(fs)
    }

    /// Returns the underlying device.
    pub fn into_device(self) -> D {
        self.dev
    }

    // ---- raw helpers ----

    fn iget(&self, ino: u64, field: u64) -> u64 {
        self.dev.read_u64(self.geo.inode_off(ino) + field)
    }

    fn iaddr(&self, ino: u64, field: u64) -> u64 {
        self.geo.inode_off(ino) + field
    }

    fn iset(&mut self, ino: u64, field: u64, v: u64) {
        let off = self.iaddr(ino, field);
        self.dev.store_u64(off, v);
        self.dev.flush(off, 8);
    }

    fn check_live(&self, ino: u64) -> FsResult<u64> {
        let t = self.iget(ino, ioff::FTYPE);
        if t == itype::POISONED {
            return Err(FsError::Corrupt(format!(
                "inode {ino} references uninitialized or corrupt metadata"
            )));
        }
        Ok(t)
    }

    /// Allocates the lowest free block.
    fn alloc_block(&mut self) -> FsResult<u64> {
        let b = self.free.first().ok_or(FsError::NoSpace)?;
        self.free.remove(b);
        Ok(b)
    }

    /// Alignment-aware run allocation: prefers a run whose start is
    /// naturally aligned to the (power-of-two rounded) run length — the
    /// hugepage-friendly placement WineFS is built around.
    pub fn alloc_aligned_run(&mut self, n: u64) -> FsResult<Vec<u64>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let align = n.next_power_of_two();
        let mut found: Option<u64> = None;
        'outer: for start in self.free.iter() {
            if start % align != 0 {
                continue;
            }
            for b in start..start + n {
                if !self.free.contains(b) {
                    continue 'outer;
                }
            }
            found = Some(start);
            break;
        }
        match found {
            Some(start) => {
                covpoint!(self.cov, 4);
                for b in start..start + n {
                    self.free.remove(b);
                }
                Ok((start..start + n).collect())
            }
            None => {
                // Fragmented fallback.
                if (self.free.len() as u64) < n {
                    return Err(FsError::NoSpace);
                }
                let picked: Vec<u64> = self.free.iter().take(n as usize).collect();
                for &b in &picked {
                    self.free.remove(b);
                }
                Ok(picked)
            }
        }
    }

    fn free_block(&mut self, b: u64) -> FsResult<()> {
        if !self.free.insert(b) {
            return Err(FsError::Detected(format!(
                "attempt to deallocate already-free block {b}"
            )));
        }
        Ok(())
    }

    fn alloc_ino(&self) -> FsResult<u64> {
        (1..=self.geo.inode_count)
            .find(|&i| self.iget(i, ioff::FTYPE) == itype::FREE)
            .ok_or(FsError::NoSpace)
    }

    /// Collects the allocated `(file index, block)` pairs of `ino` from
    /// index `start` up, in index order. Equivalent to probing
    /// [`Winefs::get_block`] per index, but reads the indirect pointer once
    /// and the indirect block with one bulk read — the per-slot re-reads
    /// dominated mount, stat, and release scans (512 redundant word reads
    /// per inode).
    fn mapped_from(&self, ino: u64, start: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for idx in start.min(NDIRECT as u64)..NDIRECT as u64 {
            let b = self.iget(ino, ioff::DIRECT + idx * 8);
            if b != 0 {
                out.push((idx, b));
            }
        }
        let ind = self.iget(ino, ioff::INDIRECT);
        if ind == 0 {
            return out;
        }
        let first = start.saturating_sub(NDIRECT as u64);
        if ind >= self.geo.total_blocks {
            // Corrupt indirect pointer: issue the exact per-slot reads the
            // unbatched path would have, so out-of-range faults (and their
            // payloads) are unchanged.
            for e in first..PTRS_PER_BLOCK {
                let b = self.dev.read_u64(ind * BLOCK + e * 8);
                if b != 0 {
                    out.push((NDIRECT as u64 + e, b));
                }
            }
            return out;
        }
        let raw = self.dev.read_vec(ind * BLOCK, BLOCK);
        for e in first..PTRS_PER_BLOCK {
            let b = u64::from_le_bytes(
                raw[(e * 8) as usize..(e * 8 + 8) as usize].try_into().expect("8-byte slot"),
            );
            if b != 0 {
                out.push((NDIRECT as u64 + e, b));
            }
        }
        out
    }

    fn get_block(&self, ino: u64, idx: u64) -> Option<u64> {
        if idx < NDIRECT as u64 {
            let b = self.iget(ino, ioff::DIRECT + idx * 8);
            (b != 0).then_some(b)
        } else if idx < MAX_FILE_BLOCKS {
            let ind = self.iget(ino, ioff::INDIRECT);
            if ind == 0 {
                return None;
            }
            let b = self.dev.read_u64(ind * BLOCK + (idx - NDIRECT as u64) * 8);
            (b != 0).then_some(b)
        } else {
            None
        }
    }

    fn plan_map(
        &mut self,
        ino: u64,
        idx: u64,
        blkno: u64,
        plan: &mut UpdatePlan,
        fresh_ind: &mut Option<u64>,
    ) -> FsResult<()> {
        if idx < NDIRECT as u64 {
            plan.word(self.iaddr(ino, ioff::DIRECT + idx * 8), blkno);
            return Ok(());
        }
        if idx >= MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        let slot = idx - NDIRECT as u64;
        let existing = self.iget(ino, ioff::INDIRECT);
        match (*fresh_ind, existing) {
            (Some(f), _) => plan.word_fresh(f * BLOCK + slot * 8, blkno),
            (None, 0) => {
                let f = self.alloc_block()?;
                self.dev.memset_nt(f * BLOCK, 0, BLOCK);
                self.dev.fence();
                *fresh_ind = Some(f);
                plan.word(self.iaddr(ino, ioff::INDIRECT), f);
                plan.word_fresh(f * BLOCK + slot * 8, blkno);
            }
            (None, ind) => plan.word(ind * BLOCK + slot * 8, blkno),
        }
        Ok(())
    }

    /// Runs a planned transaction in the current CPU's journal. `commit_fence`
    /// is false on the bug-15 write path.
    ///
    /// Unlike its PMFS ancestor, WineFS batches the in-place updates: all
    /// stores are issued first and each touched word is written back
    /// afterwards, so words sharing a cache line write back once. This is
    /// why WineFS presents the fewest in-flight writes (and so the fewest
    /// crash states) of the tested systems (§4.3).
    fn run_txn(
        &mut self,
        plan: UpdatePlan,
        commit_fence: bool,
        extra: impl FnOnce(&mut Self),
    ) -> FsResult<()> {
        let txn = journal::txn_begin(&mut self.dev, &self.geo, self.cpu, &plan.ranges)?;
        for (addr, val) in &plan.sets {
            self.dev.store_u64(*addr, *val);
        }
        for (addr, _) in &plan.sets {
            self.dev.flush(*addr, 8);
        }
        extra(self);
        self.dev.fence();
        if commit_fence {
            journal::txn_commit(&mut self.dev, txn);
        } else {
            journal::txn_commit_nofence(&mut self.dev, txn);
        }
        Ok(())
    }

    /// The inherited PM copy helper (bug 18 = PMFS bug 17).
    fn pm_copy_data(&mut self, addr: u64, data: &[u8]) {
        let head = (data.len() as u64 / CACHE_LINE) * CACHE_LINE;
        if head > 0 {
            self.dev.memcpy_nt(addr, &data[..head as usize]);
        }
        if head < data.len() as u64 {
            self.dev.store(addr + head, &data[head as usize..]);
            if self.bugs.has(BugId::B18) {
                // BUG 18 (PM): missing clwb of the partial tail line.
                self.trace.hit(BugId::B18);
            } else {
                self.dev.flush(addr + head, data.len() as u64 - head);
            }
        }
    }

    // ---- directories (PMFS-inherited) ----

    fn dir_slots(&self, dir: u64) -> u64 {
        self.iget(dir, ioff::SIZE) / DENTRY_SIZE
    }

    fn dentry_at(&self, dir: u64, slot: u64) -> Option<RawDentry> {
        let (idx, off) = Geometry::slot_loc(slot);
        let blk = self.get_block(dir, idx)?;
        RawDentry::decode(&self.dev.read_vec(blk * BLOCK + off, DENTRY_SIZE))
    }

    fn dentry_addr(&self, dir: u64, slot: u64) -> Option<u64> {
        let (idx, off) = Geometry::slot_loc(slot);
        self.get_block(dir, idx).map(|b| b * BLOCK + off)
    }

    fn dir_lookup(&self, dir: u64, name: &str) -> Option<(u64, u64)> {
        (0..self.dir_slots(dir))
            .find_map(|s| self.dentry_at(dir, s).filter(|d| d.name == name).map(|d| (s, d.ino)))
    }

    fn dir_live_count(&self, dir: u64) -> u64 {
        (0..self.dir_slots(dir)).filter(|&s| self.dentry_at(dir, s).is_some()).count() as u64
    }

    fn plan_dentry_insert(&mut self, dir: u64, plan: &mut UpdatePlan) -> FsResult<u64> {
        for slot in 0..self.dir_slots(dir) {
            if self.dentry_at(dir, slot).is_none() {
                if let Some(addr) = self.dentry_addr(dir, slot) {
                    return Ok(addr);
                }
            }
        }
        let slot = self.dir_slots(dir);
        let (idx, off) = Geometry::slot_loc(slot);
        if idx >= MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        plan.word(self.iaddr(dir, ioff::SIZE), (slot + 1) * DENTRY_SIZE);
        match self.get_block(dir, idx) {
            Some(b) => Ok(b * BLOCK + off),
            None => {
                let nb = self.alloc_block()?;
                self.dev.memset_nt(nb * BLOCK, 0, BLOCK);
                self.dev.fence();
                let mut fresh = None;
                self.plan_map(dir, idx, nb, plan, &mut fresh)?;
                Ok(nb * BLOCK + off)
            }
        }
    }

    fn write_dentry(&mut self, addr: u64, d: &RawDentry) {
        let enc = d.encode();
        self.dev.store(addr, &enc);
        self.dev.flush(addr, DENTRY_SIZE);
    }

    fn clear_dentry(&mut self, addr: u64) {
        self.dev.store(addr, &[0u8; DENTRY_SIZE as usize]);
        self.dev.flush(addr, DENTRY_SIZE);
    }

    // ---- path resolution ----

    fn resolve(&self, path: &str) -> FsResult<u64> {
        let mut cur = ROOT_INO;
        for c in components(path)? {
            if self.check_live(cur)? != itype::DIR {
                return Err(FsError::NotDir);
            }
            cur = self.dir_lookup(cur, c).ok_or(FsError::NotFound)?.1;
        }
        self.check_live(cur)?;
        Ok(cur)
    }

    fn resolve_parent<'p>(&self, path: &'p str) -> FsResult<(u64, &'p str)> {
        let (parents, name) = split_parent(path)?;
        if name.len() > DENTRY_NAME_MAX {
            return Err(FsError::NameTooLong);
        }
        let mut cur = ROOT_INO;
        for c in parents {
            if self.check_live(cur)? != itype::DIR {
                return Err(FsError::NotDir);
            }
            cur = self.dir_lookup(cur, c).ok_or(FsError::NotFound)?.1;
        }
        if self.check_live(cur)? != itype::DIR {
            return Err(FsError::NotDir);
        }
        Ok((cur, name))
    }

    // ---- truncation (PMFS-inherited) ----

    fn zero_tail_beyond(&mut self, ino: u64, size: u64) {
        if !size.is_multiple_of(BLOCK) {
            if let Some(b) = self.get_block(ino, size / BLOCK) {
                let in_blk = size % BLOCK;
                self.dev.memset_nt(b * BLOCK + in_blk, 0, BLOCK - in_blk);
                self.dev.fence();
            }
        }
    }

    fn do_truncate_shrink(&mut self, ino: u64, size: u64) -> FsResult<()> {
        let keep = size.div_ceil(BLOCK);
        let ind = self.iget(ino, ioff::INDIRECT);
        let freed: Vec<u64> = self.mapped_from(ino, keep).into_iter().map(|(_, b)| b).collect();
        let mut plan = UpdatePlan::default();
        plan.word(self.iaddr(ino, ioff::SIZE), size);
        for idx in keep..NDIRECT as u64 {
            plan.word(self.iaddr(ino, ioff::DIRECT + idx * 8), 0);
        }
        let mut free_old_ind = false;
        if ind != 0 {
            if keep > NDIRECT as u64 {
                let new_ind = self.alloc_block()?;
                let mut content = self.dev.read_vec(ind * BLOCK, BLOCK);
                for e in (keep - NDIRECT as u64)..(BLOCK / 8) {
                    content[(e * 8) as usize..(e * 8 + 8) as usize].fill(0);
                }
                self.dev.memcpy_nt(new_ind * BLOCK, &content);
                self.dev.fence();
                plan.word(self.iaddr(ino, ioff::INDIRECT), new_ind);
            } else {
                plan.word(self.iaddr(ino, ioff::INDIRECT), 0);
            }
            free_old_ind = true;
        }
        self.run_txn(plan, true, |_| {})?;
        for b in freed {
            self.free_block(b)?;
        }
        if free_old_ind {
            self.free_block(ind)?;
        }
        self.zero_tail_beyond(ino, size);
        Ok(())
    }

    fn replay_truncate(&mut self, ino: u64, size: u64, free_inode: bool) -> FsResult<()> {
        covpoint!(self.cov, 5);
        if free_inode {
            self.clear_inode_raw(ino);
            return Ok(());
        }
        let cur = self.iget(ino, ioff::SIZE);
        if cur > size {
            let keep = size.div_ceil(BLOCK);
            for idx in keep..NDIRECT as u64 {
                self.iset(ino, ioff::DIRECT + idx * 8, 0);
            }
            let ind = self.iget(ino, ioff::INDIRECT);
            if ind != 0 {
                if keep <= NDIRECT as u64 {
                    self.iset(ino, ioff::INDIRECT, 0);
                } else {
                    for e in (keep - NDIRECT as u64)..(BLOCK / 8) {
                        self.dev.store_u64(ind * BLOCK + e * 8, 0);
                    }
                    self.dev.flush(ind * BLOCK, BLOCK);
                }
            }
            self.iset(ino, ioff::SIZE, size);
            self.dev.fence();
            self.zero_tail_beyond(ino, size);
        }
        Ok(())
    }

    fn clear_inode_raw(&mut self, ino: u64) {
        self.dev.memset_nt(self.geo.inode_off(ino), 0, INODE_SIZE);
        self.dev.fence();
    }

    fn with_trecord(
        &mut self,
        ino: u64,
        size: u64,
        free_inode: bool,
        f: impl FnOnce(&mut Self) -> FsResult<()>,
    ) -> FsResult<()> {
        let trec = self.geo.tlist * BLOCK;
        self.dev.store_u64(trec + tlist::SIZE, size);
        self.dev
            .store_u64(trec + tlist::FLAGS, if free_inode { tlist::F_FREE_INODE } else { 0 });
        self.dev.flush(trec + 8, 16);
        self.dev.fence();
        self.dev.persist_u64(trec + tlist::INO, ino);
        f(self)?;
        self.dev.persist_u64(trec + tlist::INO, 0);
        Ok(())
    }

    fn deferred_release(&mut self, ino: u64) -> FsResult<()> {
        covpoint!(self.cov);
        self.with_trecord(ino, 0, true, |fs| {
            let freed: Vec<u64> =
                fs.mapped_from(ino, 0).into_iter().map(|(_, b)| b).collect();
            let ind = fs.iget(ino, ioff::INDIRECT);
            fs.clear_inode_raw(ino);
            for b in freed {
                fs.free_block(b)?;
            }
            if ind != 0 {
                fs.free_block(ind)?;
            }
            Ok(())
        })
    }

    fn open_count(&self, ino: u64) -> usize {
        self.fds.values().filter(|(i, _, _)| *i == ino).count()
    }

    // ---- strict-mode atomic data writes ----

    /// Writes `data` at `off` atomically: every covered block is replaced
    /// by a freshly written copy, and all pointer/size words swap in one
    /// per-CPU journal transaction.
    ///
    /// Bug 20: a non-8-byte-aligned tail is written in place *after* the
    /// transaction commits. Bug 15: the commit itself is not fenced.
    fn write_atomic(&mut self, ino: u64, off: u64, data: &[u8]) -> FsResult<usize> {
        let end = off + data.len() as u64;
        let size = self.iget(ino, ioff::SIZE);
        let first = off / BLOCK;
        let last = (end - 1) / BLOCK;

        // Bug 20: split off the unaligned tail (the atomic machinery works
        // in 8-byte words; the remainder takes the legacy in-place path).
        let (atomic_data, tail_bytes) = if self.bugs.has(BugId::B20) && !data.len().is_multiple_of(8) {
            self.trace.hit(BugId::B20);
            covpoint!(self.cov, 6);
            let cut = data.len() - data.len() % 8;
            (&data[..cut], &data[cut..])
        } else {
            (data, &data[..0])
        };
        let a_end = off + atomic_data.len() as u64;

        let run = self.alloc_aligned_run(last - first + 1)?;
        let mut plan = UpdatePlan::default();
        let mut fresh_ind = None;
        let mut old_blocks = Vec::new();
        for (i, &nb) in run.iter().enumerate() {
            let idx = first + i as u64;
            let blk_start = idx * BLOCK;
            // Base content: the old block (or zeros).
            match self.get_block(ino, idx) {
                Some(ob) => {
                    let content = self.dev.read_vec(ob * BLOCK, BLOCK);
                    self.dev.memcpy_nt(nb * BLOCK, &content);
                    old_blocks.push(ob);
                }
                None => self.dev.memset_nt(nb * BLOCK, 0, BLOCK),
            }
            // Overlay the new data range through the copy helper.
            if atomic_data.is_empty() {
                // Everything went to the tail path; nothing to overlay.
            } else {
                let s = off.max(blk_start);
                let e = a_end.min(blk_start + BLOCK);
                if s < e {
                    self.pm_copy_data(
                        nb * BLOCK + (s - blk_start),
                        &atomic_data[(s - off) as usize..(e - off) as usize],
                    );
                }
            }
            self.plan_map(ino, idx, nb, &mut plan, &mut fresh_ind)?;
        }
        if end > size {
            plan.word(self.iaddr(ino, ioff::SIZE), end);
        }
        self.dev.fence();
        let commit_fence = !self.bugs.has(BugId::B15);
        if !commit_fence {
            // BUG 15 (PM): the write path's commit is not fenced.
            self.trace.hit(BugId::B15);
        }
        self.run_txn(plan, commit_fence, |_| {})?;
        for ob in old_blocks {
            self.free_block(ob)?;
        }

        // Bug 20's tail: lands after the commit, outside the transaction,
        // and without a fence of its own.
        if !tail_bytes.is_empty() {
            let t_off = a_end;
            if let Some(b) = self.get_block(ino, t_off / BLOCK) {
                self.dev.store(b * BLOCK + t_off % BLOCK, tail_bytes);
                self.dev.flush(b * BLOCK + t_off % BLOCK, tail_bytes.len() as u64);
            }
        }
        Ok(data.len())
    }

    fn write_inode_data(&mut self, ino: u64, off: u64, data: &[u8]) -> FsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let end = off + data.len() as u64;
        if end.div_ceil(BLOCK) > MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        if self.strict {
            return self.write_atomic(ino, off, data);
        }
        // Relaxed mode: PMFS-style in-place writes (kept for completeness;
        // the evaluation runs strict mode).
        let size = self.iget(ino, ioff::SIZE);
        let mut plan = UpdatePlan::default();
        let mut fresh_ind = None;
        let mut new_idx: BTreeSet<u64> = BTreeSet::new();
        for idx in off / BLOCK..=(end - 1) / BLOCK {
            if self.get_block(ino, idx).is_none() {
                let nb = self.alloc_block()?;
                self.dev.memset_nt(nb * BLOCK, 0, BLOCK);
                let blk_start = idx * BLOCK;
                let s = off.max(blk_start);
                let e = end.min(blk_start + BLOCK);
                self.pm_copy_data(
                    nb * BLOCK + (s - blk_start),
                    &data[(s - off) as usize..(e - off) as usize],
                );
                self.plan_map(ino, idx, nb, &mut plan, &mut fresh_ind)?;
                new_idx.insert(idx);
            }
        }
        if end > size {
            plan.word(self.iaddr(ino, ioff::SIZE), end);
        }
        if !plan.sets.is_empty() {
            self.dev.fence();
            self.run_txn(plan, true, |_| {})?;
        }
        let mut wrote = false;
        for idx in off / BLOCK..=(end - 1) / BLOCK {
            if new_idx.contains(&idx) {
                continue;
            }
            if let Some(b) = self.get_block(ino, idx) {
                let blk_start = idx * BLOCK;
                let s = off.max(blk_start);
                let e = end.min(blk_start + BLOCK);
                self.pm_copy_data(
                    b * BLOCK + (s - blk_start),
                    &data[(s - off) as usize..(e - off) as usize],
                );
                wrote = true;
            }
        }
        if wrote {
            if self.bugs.has(BugId::B15) {
                self.trace.hit(BugId::B15);
            } else {
                self.dev.fence();
            }
        }
        Ok(data.len())
    }

    fn read_inode_data(&self, ino: u64, off: u64, buf: &mut [u8]) -> usize {
        let size = self.iget(ino, ioff::SIZE);
        if off >= size {
            return 0;
        }
        let n = buf.len().min((size - off) as usize);
        let mut pos = 0usize;
        while pos < n {
            let cur = off + pos as u64;
            let idx = cur / BLOCK;
            let in_blk = cur % BLOCK;
            let step = ((BLOCK - in_blk) as usize).min(n - pos);
            match self.get_block(ino, idx) {
                Some(b) => self.dev.read(b * BLOCK + in_blk, &mut buf[pos..pos + step]),
                None => buf[pos..pos + step].fill(0),
            }
            pos += step;
        }
        n
    }
}

impl<D: PmBackend> FileSystem for WineFs<D> {
    fn open(&mut self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        covpoint!(self.cov);
        let ino = match self.resolve(path) {
            Ok(ino) => {
                if flags.create && flags.excl {
                    return Err(FsError::Exists);
                }
                if self.check_live(ino)? == itype::DIR {
                    return Err(FsError::IsDir);
                }
                if flags.trunc && self.iget(ino, ioff::SIZE) > 0 {
                    self.with_trecord(ino, 0, false, |fs| fs.do_truncate_shrink(ino, 0))?;
                }
                ino
            }
            Err(FsError::NotFound) if flags.create => {
                covpoint!(self.cov);
                let (parent, name) = self.resolve_parent(path)?;
                let name = name.to_string();
                let ino = self.alloc_ino()?;
                let mut plan = UpdatePlan::default();
                let daddr = self.plan_dentry_insert(parent, &mut plan)?;
                plan.ranges.push((daddr, DENTRY_SIZE));
                plan.ranges.push((self.iaddr(ino, 0), 32));
                plan.sets.push((self.iaddr(ino, ioff::FTYPE), itype::FILE));
                plan.sets.push((self.iaddr(ino, ioff::NLINK), 1));
                plan.sets.push((self.iaddr(ino, ioff::SIZE), 0));
                self.run_txn(plan, true, |fs| {
                    fs.write_dentry(daddr, &RawDentry { ino, name });
                })?;
                ino
            }
            Err(e) => return Err(e),
        };
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(fd, (ino, 0, flags.append));
        Ok(Fd(fd))
    }

    fn close(&mut self, fd: Fd) -> FsResult<()> {
        let (ino, _, _) = self.fds.remove(&fd.0).ok_or(FsError::BadFd)?;
        if self.iget(ino, ioff::FTYPE) == itype::FILE
            && self.iget(ino, ioff::NLINK) == 0
            && self.open_count(ino) == 0
        {
            self.deferred_release(ino)?;
        }
        Ok(())
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, name) = self.resolve_parent(path)?;
        if self.dir_lookup(parent, name).is_some() {
            return Err(FsError::Exists);
        }
        let name = name.to_string();
        let ino = self.alloc_ino()?;
        let mut plan = UpdatePlan::default();
        let daddr = self.plan_dentry_insert(parent, &mut plan)?;
        plan.ranges.push((daddr, DENTRY_SIZE));
        plan.ranges.push((self.iaddr(ino, 0), 32));
        plan.sets.push((self.iaddr(ino, ioff::FTYPE), itype::DIR));
        plan.sets.push((self.iaddr(ino, ioff::NLINK), 2));
        plan.sets.push((self.iaddr(ino, ioff::SIZE), 0));
        plan.word(self.iaddr(parent, ioff::NLINK), self.iget(parent, ioff::NLINK) + 1);
        self.run_txn(plan, true, |fs| {
            fs.write_dentry(daddr, &RawDentry { ino, name });
        })
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, name) = self.resolve_parent(path)?;
        let (slot, ino) = self.dir_lookup(parent, name).ok_or(FsError::NotFound)?;
        if self.check_live(ino)? != itype::DIR {
            return Err(FsError::NotDir);
        }
        if self.dir_live_count(ino) != 0 {
            return Err(FsError::NotEmpty);
        }
        let daddr = self.dentry_addr(parent, slot).ok_or(FsError::NotFound)?;
        let mut plan = UpdatePlan::default();
        plan.ranges.push((daddr, DENTRY_SIZE));
        plan.word(self.iaddr(parent, ioff::NLINK), self.iget(parent, ioff::NLINK) - 1);
        self.run_txn(plan, true, |fs| fs.clear_dentry(daddr))?;
        self.deferred_release(ino)
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, name) = self.resolve_parent(path)?;
        let (slot, ino) = self.dir_lookup(parent, name).ok_or(FsError::NotFound)?;
        if self.check_live(ino)? != itype::FILE {
            return Err(FsError::IsDir);
        }
        let daddr = self.dentry_addr(parent, slot).ok_or(FsError::NotFound)?;
        let nlink = self.iget(ino, ioff::NLINK);
        let mut plan = UpdatePlan::default();
        plan.ranges.push((daddr, DENTRY_SIZE));
        plan.word(self.iaddr(ino, ioff::NLINK), nlink - 1);
        self.run_txn(plan, true, |fs| fs.clear_dentry(daddr))?;
        if nlink - 1 == 0 && self.open_count(ino) == 0 {
            self.deferred_release(ino)?;
        }
        Ok(())
    }

    fn link(&mut self, old: &str, new: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.resolve(old)?;
        if self.check_live(ino)? != itype::FILE {
            return Err(FsError::IsDir);
        }
        let (parent, name) = self.resolve_parent(new)?;
        if self.dir_lookup(parent, name).is_some() {
            return Err(FsError::Exists);
        }
        let name = name.to_string();
        let mut plan = UpdatePlan::default();
        let daddr = self.plan_dentry_insert(parent, &mut plan)?;
        plan.ranges.push((daddr, DENTRY_SIZE));
        plan.word(self.iaddr(ino, ioff::NLINK), self.iget(ino, ioff::NLINK) + 1);
        self.run_txn(plan, true, |fs| {
            fs.write_dentry(daddr, &RawDentry { ino, name });
        })
    }

    fn rename(&mut self, old: &str, new: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let src_ino = self.resolve(old)?;
        let src_is_dir = self.check_live(src_ino)? == itype::DIR;
        if src_is_dir && is_path_prefix(old, new) && old != new {
            return Err(FsError::Invalid);
        }
        if old == new {
            return Ok(());
        }
        let (src_parent, src_name) = self.resolve_parent(old)?;
        let (dst_parent, dst_name) = self.resolve_parent(new)?;
        let dst_name = dst_name.to_string();
        let (src_slot, _) = self.dir_lookup(src_parent, src_name).ok_or(FsError::NotFound)?;
        let src_daddr = self.dentry_addr(src_parent, src_slot).ok_or(FsError::NotFound)?;

        let victim = self.dir_lookup(dst_parent, &dst_name);
        if let Some((_, v)) = victim {
            if v == src_ino {
                return Ok(());
            }
            let vdir = self.check_live(v)? == itype::DIR;
            match (src_is_dir, vdir) {
                (true, true) => {
                    if self.dir_live_count(v) != 0 {
                        return Err(FsError::NotEmpty);
                    }
                }
                (true, false) => return Err(FsError::NotDir),
                (false, true) => return Err(FsError::IsDir),
                (false, false) => {}
            }
        }

        let mut plan = UpdatePlan::default();
        plan.ranges.push((src_daddr, DENTRY_SIZE));
        let mut nlink_delta: std::collections::BTreeMap<u64, i64> = Default::default();
        let dst_daddr = match victim {
            Some((vslot, v)) => {
                let addr = self.dentry_addr(dst_parent, vslot).ok_or(FsError::NotFound)?;
                plan.ranges.push((addr, DENTRY_SIZE));
                if src_is_dir {
                    *nlink_delta.entry(dst_parent).or_default() -= 1;
                } else {
                    *nlink_delta.entry(v).or_default() -= 1;
                }
                addr
            }
            None => {
                let addr = self.plan_dentry_insert(dst_parent, &mut plan)?;
                plan.ranges.push((addr, DENTRY_SIZE));
                addr
            }
        };
        if src_is_dir && src_parent != dst_parent {
            *nlink_delta.entry(src_parent).or_default() -= 1;
            *nlink_delta.entry(dst_parent).or_default() += 1;
        }
        for (target, delta) in nlink_delta {
            if delta != 0 {
                let v = (self.iget(target, ioff::NLINK) as i64 + delta) as u64;
                plan.word(self.iaddr(target, ioff::NLINK), v);
            }
        }
        let dst_dentry = RawDentry { ino: src_ino, name: dst_name };
        self.run_txn(plan, true, |fs| {
            fs.clear_dentry(src_daddr);
            fs.write_dentry(dst_daddr, &dst_dentry);
        })?;

        if let Some((_, v)) = victim {
            if src_is_dir || (self.iget(v, ioff::NLINK) == 0 && self.open_count(v) == 0) {
                self.deferred_release(v)?;
            }
        }
        Ok(())
    }

    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.resolve(path)?;
        if self.check_live(ino)? != itype::FILE {
            return Err(FsError::IsDir);
        }
        if size.div_ceil(BLOCK) > MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        let cur = self.iget(ino, ioff::SIZE);
        if size == cur {
            return Ok(());
        }
        if size < cur {
            self.with_trecord(ino, size, false, |fs| fs.do_truncate_shrink(ino, size))
        } else {
            let mut plan = UpdatePlan::default();
            plan.word(self.iaddr(ino, ioff::SIZE), size);
            self.run_txn(plan, true, |_| {})
        }
    }

    fn fallocate(&mut self, fd: Fd, mode: FallocMode, off: u64, len: u64) -> FsResult<()> {
        covpoint!(self.cov);
        if len == 0 {
            return Err(FsError::Invalid);
        }
        let (ino, _, _) = *self.fds.get(&fd.0).ok_or(FsError::BadFd)?;
        if self.check_live(ino)? != itype::FILE {
            return Err(FsError::IsDir);
        }
        let end = off + len;
        if end.div_ceil(BLOCK) > MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        let size = self.iget(ino, ioff::SIZE);
        match mode {
            FallocMode::Allocate | FallocMode::KeepSize => {
                let mut plan = UpdatePlan::default();
                let mut fresh = None;
                let mut any = false;
                for idx in off / BLOCK..end.div_ceil(BLOCK) {
                    if self.get_block(ino, idx).is_none() {
                        let nb = self.alloc_block()?;
                        self.dev.memset_nt(nb * BLOCK, 0, BLOCK);
                        self.plan_map(ino, idx, nb, &mut plan, &mut fresh)?;
                        any = true;
                    }
                }
                let grow = mode == FallocMode::Allocate && end > size;
                if grow {
                    plan.word(self.iaddr(ino, ioff::SIZE), end);
                }
                if any || grow {
                    self.dev.fence();
                    self.run_txn(plan, true, |_| {})?;
                }
            }
            FallocMode::ZeroRange | FallocMode::PunchHole => {
                let z_end = end.min(size);
                let mut plan = UpdatePlan::default();
                let mut fresh = None;
                let mut old_blocks = Vec::new();
                let mut cur = off;
                while cur < z_end {
                    let idx = cur / BLOCK;
                    let in_blk = cur % BLOCK;
                    let n = (BLOCK - in_blk).min(z_end - cur);
                    if let Some(b) = self.get_block(ino, idx) {
                        if mode == FallocMode::PunchHole && in_blk == 0 && n == BLOCK {
                            self.plan_map(ino, idx, 0, &mut plan, &mut fresh)?;
                        } else {
                            let mut content = self.dev.read_vec(b * BLOCK, BLOCK);
                            content[in_blk as usize..(in_blk + n) as usize].fill(0);
                            let nb = self.alloc_block()?;
                            self.dev.memcpy_nt(nb * BLOCK, &content);
                            self.plan_map(ino, idx, nb, &mut plan, &mut fresh)?;
                        }
                        old_blocks.push(b);
                    }
                    cur += n;
                }
                if !old_blocks.is_empty() {
                    self.dev.fence();
                    self.run_txn(plan, true, |_| {})?;
                    for b in old_blocks {
                        self.free_block(b)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        covpoint!(self.cov);
        let (ino, offset, append) = *self.fds.get(&fd.0).ok_or(FsError::BadFd)?;
        let off = if append { self.iget(ino, ioff::SIZE) } else { offset };
        let n = self.write_inode_data(ino, off, data)?;
        if let Some(f) = self.fds.get_mut(&fd.0) {
            f.1 = off + n as u64;
        }
        Ok(n)
    }

    fn pwrite(&mut self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        covpoint!(self.cov);
        let (ino, _, _) = *self.fds.get(&fd.0).ok_or(FsError::BadFd)?;
        self.write_inode_data(ino, off, data)
    }

    fn pread(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let (ino, _, _) = *self.fds.get(&fd.0).ok_or(FsError::BadFd)?;
        Ok(self.read_inode_data(ino, off, buf))
    }

    fn fsync(&mut self, _fd: Fd) -> FsResult<()> {
        Ok(())
    }

    fn sync(&mut self) -> FsResult<()> {
        Ok(())
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let ino = self.resolve(path)?;
        let ftype = self.check_live(ino)?;
        let blocks = self.mapped_from(ino, 0).len();
        Ok(Metadata {
            ino,
            ftype: if ftype == itype::DIR { FileType::Directory } else { FileType::Regular },
            nlink: self.iget(ino, ioff::NLINK),
            size: if ftype == itype::DIR {
                self.dir_live_count(ino)
            } else {
                self.iget(ino, ioff::SIZE)
            },
            blocks: if ftype == itype::DIR { 1 } else { blocks as u64 },
        })
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let ino = self.resolve(path)?;
        if self.check_live(ino)? != itype::DIR {
            return Err(FsError::NotDir);
        }
        let mut out = Vec::new();
        for slot in 0..self.dir_slots(ino) {
            if let Some(d) = self.dentry_at(ino, slot) {
                let t = self.iget(d.ino, ioff::FTYPE);
                if t == itype::POISONED {
                    return Err(FsError::Corrupt(format!(
                        "directory entry {} references corrupt inode {}",
                        d.name, d.ino
                    )));
                }
                out.push(DirEntry {
                    name: d.name,
                    ino: d.ino,
                    ftype: if t == itype::DIR { FileType::Directory } else { FileType::Regular },
                });
            }
        }
        out.sort();
        Ok(out)
    }

    fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        let ino = self.resolve(path)?;
        if self.check_live(ino)? != itype::FILE {
            return Err(FsError::IsDir);
        }
        let size = self.iget(ino, ioff::SIZE);
        let mut buf = vec![0u8; size as usize];
        self.read_inode_data(ino, 0, &mut buf);
        Ok(buf)
    }

    fn set_cpu(&mut self, cpu: usize) {
        covpoint!(self.cov, cpu as u64);
        self.cpu = cpu;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use pmem::PmDevice;
    use proptest::prelude::*;

    use super::*;

    /// `alloc_aligned_run` as it was over the sorted free list.
    fn list_alloc_aligned_run(free: &mut BTreeSet<u64>, n: u64) -> FsResult<Vec<u64>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let align = n.next_power_of_two();
        let found = free
            .iter()
            .copied()
            .find(|&s| s % align == 0 && (s..s + n).all(|b| free.contains(&b)));
        let picked: Vec<u64> = match found {
            Some(start) => (start..start + n).collect(),
            None if (free.len() as u64) < n => return Err(FsError::NoSpace),
            None => free.iter().take(n as usize).copied().collect(),
        };
        for b in &picked {
            free.remove(b);
        }
        Ok(picked)
    }

    proptest! {
        /// Aligned hit, fragmented fallback and `NoSpace`: block for block
        /// what the sorted list returned, over random fragmentation.
        #[test]
        fn aligned_runs_are_the_blocks_the_sorted_list_picked(
            used in proptest::collection::vec(0u64..1024, 0..900),
            runs in proptest::collection::vec(0u64..20, 1..12),
        ) {
            let mut fs = WineFs::mkfs(PmDevice::new(4 << 20), &FsOptions::fixed(), true).unwrap();
            for &b in &used {
                fs.free.remove(b);
            }
            let mut list: BTreeSet<u64> = fs.free.iter().collect();
            for n in runs {
                match (fs.alloc_aligned_run(n), list_alloc_aligned_run(&mut list, n)) {
                    (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                    (Err(FsError::NoSpace), Err(FsError::NoSpace)) => {}
                    (got, want) => panic!("alloc_aligned_run({n}): {got:?} vs {want:?}"),
                }
                prop_assert!(fs.free.iter().eq(list.iter().copied()));
            }
        }
    }
}
