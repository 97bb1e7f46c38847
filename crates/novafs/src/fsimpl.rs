//! The NOVA file-system implementation: system calls over per-inode logs.
//!
//! Persistence discipline (matching the paper's description of NOVA):
//! every operation appends entries to the affected inode logs, makes them
//! durable, and then publishes them with 8-byte in-place tail updates —
//! journaled when more than one word must change atomically. A generation
//! counter pair brackets each mutating call (bug 1's recovery assertion
//! reads it). All volatile state is kept strictly derivable from the logs.

use pmem::PmBackend;
use vfs::{
    covpoint,
    fs::{FileSystem, FsOptions},
    path::{components, is_path_prefix, split_parent},
    BugId, BugSet, BugTrace, Cov, DirEntry, FallocMode, Fd, FileType, FsError, FsResult,
    Metadata, OpenFlags,
};

use crate::{
    journal,
    layout::{
        data_csum, dealloc, inode_csum, ioff, itype, sboff, Geometry, LogRecord, BLOCK,
        ENTRY_SIZE, MAGIC, NAME_MAX, PAGE_HDR, ROOT_INO,
    },
    rebuild::{self, RebuildCtx, POISONED},
    state::{InodeState, Volatile},
};

/// Maximum file size in blocks (bounded by the DRAM map only; generous).
const MAX_FILE_BLOCKS: u64 = 1 << 20;

/// The NOVA / NOVA-Fortis file system.
#[derive(Clone)]
pub struct Nova<D> {
    dev: D,
    geo: Geometry,
    vol: Volatile,
    bugs: BugSet,
    fortis: bool,
    cov: Cov,
    trace: BugTrace,
    extra_bugs: bool,
}

impl<D: PmBackend> Nova<D> {
    /// Formats `dev` and mounts the fresh file system.
    pub fn mkfs(mut dev: D, opts: &FsOptions, fortis: bool) -> FsResult<Self> {
        let geo = Geometry::for_device(dev.len())?;
        let mut sb = vec![0u8; 128];
        let mut put = |o: u64, v: u64| sb[o as usize..o as usize + 8]
            .copy_from_slice(&v.to_le_bytes());
        put(sboff::MAGIC, MAGIC);
        put(sboff::TOTAL_BLOCKS, geo.total_blocks);
        put(sboff::INODE_COUNT, geo.inode_count);
        put(sboff::JOURNAL, geo.journal);
        put(sboff::ITABLE, geo.itable);
        put(sboff::ITABLE2, geo.itable2);
        put(sboff::DATA_START, geo.data_start);
        put(sboff::FORTIS, u64::from(fortis));
        dev.memcpy_nt(0, &sb);
        // Zero the journal block and both inode tables.
        dev.memset_nt(geo.journal * BLOCK, 0, BLOCK);
        let itable_bytes = geo.itable_end() - geo.itable * BLOCK;
        dev.memset_nt(geo.itable * BLOCK, 0, itable_bytes);
        dev.fence();
        let mut fs = Nova {
            dev,
            geo,
            vol: Volatile { next_fd: 3, ..Default::default() },
            bugs: opts.bugs,
            fortis,
            cov: opts.cov.clone(),
            trace: opts.trace.clone(),
            extra_bugs: opts.extra_bugs,
        };
        // Root directory: inode + empty log.
        let page = fs.raw_alloc_for_mkfs()?;
        fs.init_inode(ROOT_INO, itype::DIR, page, true);
        fs.dev.fence();
        if fortis {
            fs.sync_replica(ROOT_INO);
            fs.dev.fence();
        }
        fs.vol.inodes.insert(
            ROOT_INO,
            InodeState {
                ftype: itype::DIR,
                nlink: 2,
                log_head: page,
                log_tail: page * BLOCK + PAGE_HDR,
                ..Default::default()
            },
        );
        Ok(fs)
    }

    /// Mounts `dev`, running journal recovery and the rebuild scan.
    pub fn mount(mut dev: D, opts: &FsOptions, fortis: bool) -> FsResult<Self> {
        if dev.read_u64(sboff::MAGIC) != MAGIC {
            return Err(FsError::Unmountable("bad superblock magic".into()));
        }
        let geo = Geometry {
            total_blocks: dev.read_u64(sboff::TOTAL_BLOCKS),
            inode_count: dev.read_u64(sboff::INODE_COUNT),
            journal: dev.read_u64(sboff::JOURNAL),
            itable: dev.read_u64(sboff::ITABLE),
            itable2: dev.read_u64(sboff::ITABLE2),
            data_start: dev.read_u64(sboff::DATA_START),
        };
        if geo.total_blocks * BLOCK > dev.len() || geo.data_start >= geo.total_blocks {
            return Err(FsError::Unmountable("superblock geometry out of range".into()));
        }
        if dev.read_u64(sboff::FORTIS) != u64::from(fortis) {
            return Err(FsError::Unmountable(
                "mount mode does not match on-device format (fortis flag)".into(),
            ));
        }
        let cov = opts.cov.clone();
        let trace = opts.trace.clone();
        let had_active = journal::recover(&mut dev, &geo, opts.bugs, &cov, &trace)?;
        covpoint!(cov, u64::from(had_active));
        let ctx = RebuildCtx {
            geo: &geo,
            bugs: opts.bugs,
            fortis,
            cov: &cov,
            trace: &trace,
            had_active_txn: had_active,
        };
        let vol = rebuild::rebuild(&mut dev, &ctx)?;
        Ok(Nova { dev, geo, vol, bugs: opts.bugs, fortis, cov, trace, extra_bugs: opts.extra_bugs })
    }

    /// Returns the underlying device (consuming the mount).
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Current simulated-time cost (for the fix-cost benchmarks).
    pub fn sim_cost(&self) -> pmem::SimCost {
        self.dev.sim_cost()
    }

    // ---- generation counter (bug 1's observable) ----

    fn gen_begin(&mut self) {
        self.vol.gen += 1;
        self.dev.store_u64(sboff::GEN_A, self.vol.gen);
        self.dev.flush(sboff::GEN_A, 8);
        // No fence: rides the operation's first fence.
    }

    fn gen_end(&mut self) {
        self.dev.store_u64(sboff::GEN_B, self.vol.gen);
        self.dev.flush(sboff::GEN_B, 8);
        self.dev.fence();
    }

    // ---- inode helpers ----

    fn init_inode(&mut self, ino: u64, ftype: u64, log_page: u64, flush: bool) {
        let base = self.geo.inode_off(ino);
        // Fresh log page: zero next-pointer.
        self.dev.store_u64(log_page * BLOCK, 0);
        self.dev.flush(log_page * BLOCK, 8);
        // eADR-hardened ordering: every field (and the Fortis checksum)
        // lands before the type tag, whose store is the commit point that
        // makes the slot visible to recovery. Under ADR the fields share a
        // cache line and become durable together, so the store order is
        // unobservable there; under eADR each store is individually durable
        // and a tag-first order exposes a typed inode with torn log
        // pointers.
        self.dev.store_u64(base + ioff::NLINK, if ftype == itype::DIR { 2 } else { 1 });
        self.dev.store_u64(base + ioff::LOG_HEAD, log_page);
        self.dev.store_u64(base + ioff::LOG_TAIL, log_page * BLOCK + PAGE_HDR);
        if self.fortis {
            // Checksum over the *final* field values (the tag store below
            // must not invalidate it).
            let mut bytes = self.dev.read_vec(base, 32);
            bytes[ioff::FTYPE as usize..ioff::FTYPE as usize + 8]
                .copy_from_slice(&ftype.to_le_bytes());
            self.dev.store_u64(base + ioff::CSUM, inode_csum(&bytes));
        }
        self.dev.store_u64(base + ioff::FTYPE, ftype);
        if flush {
            self.dev.flush(base, 40);
            if self.fortis {
                self.dev.flush(base + ioff::CSUM, 8);
            }
        }
    }

    /// Stores one inode field in place and refreshes the Fortis checksum.
    /// `csum_flush = false` is the bug-9 path: the checksum store stays in
    /// the cache with no write-back.
    fn iset(&mut self, ino: u64, field: u64, val: u64, csum_flush: bool) {
        let base = self.geo.inode_off(ino);
        self.dev.store_u64(base + field, val);
        self.dev.flush(base + field, 8);
        if self.fortis {
            let bytes = self.dev.read_vec(base, 32);
            self.dev.store_u64(base + ioff::CSUM, inode_csum(&bytes));
            if csum_flush {
                self.dev.flush(base + ioff::CSUM, 8);
            } else {
                self.trace.hit(BugId::B09);
            }
        }
    }

    fn iget(&self, ino: u64, field: u64) -> u64 {
        self.dev.read_u64(self.geo.inode_off(ino) + field)
    }

    /// Copies the primary inode (fields + checksum) to the replica.
    /// Caller fences.
    fn sync_replica(&mut self, ino: u64) {
        if !self.fortis {
            return;
        }
        let p = self.geo.inode_off(ino);
        let r = self.geo.replica_off(ino);
        let bytes = self.dev.read_vec(p, 32);
        self.dev.store(r, &bytes);
        self.dev.store_u64(r + ioff::CSUM, self.dev.read_u64(p + ioff::CSUM));
        self.dev.flush(r, 8 + ioff::CSUM);
    }

    /// Bug-9 variant: replica fields stored and flushed, replica checksum
    /// stored but not flushed.
    fn sync_replica_stale_csum(&mut self, ino: u64) {
        if !self.fortis {
            return;
        }
        let p = self.geo.inode_off(ino);
        let r = self.geo.replica_off(ino);
        let bytes = self.dev.read_vec(p, 32);
        self.dev.store(r, &bytes);
        self.dev.flush(r, 32);
        self.dev.store_u64(r + ioff::CSUM, self.dev.read_u64(p + ioff::CSUM));
        // Missing: flush of the replica checksum line.
        self.trace.hit(BugId::B09);
    }

    /// The words a journal transaction over this inode's tail (and
    /// optionally link count) must cover, including the Fortis checksum.
    fn journal_words(&self, ino: u64, fields: &[u64]) -> Vec<u64> {
        let base = self.geo.inode_off(ino);
        let mut w: Vec<u64> = fields.iter().map(|f| base + f).collect();
        if self.fortis {
            w.push(base + ioff::CSUM);
        }
        w
    }

    // ---- allocation ----

    fn raw_alloc_for_mkfs(&mut self) -> FsResult<u64> {
        // During mkfs the allocator is empty; data blocks start fresh: all of
        // `[data_start, total)` is free.
        if self.vol.alloc.free_count() == 0 {
            let geo = &self.geo;
            self.vol.alloc = crate::state::Allocator::new(geo.data_start, geo.total_blocks, &[]);
        }
        self.vol.alloc.alloc()
    }

    fn alloc_ino(&mut self) -> FsResult<u64> {
        for ino in 1..=self.geo.inode_count {
            if !self.vol.inodes.contains_key(&ino) {
                return Ok(ino);
            }
        }
        Err(FsError::NoSpace)
    }

    // ---- path resolution (volatile directory tables) ----

    fn resolve(&self, path: &str) -> FsResult<u64> {
        let mut cur = ROOT_INO;
        for c in components(path)? {
            let st = self.vol.inode(cur)?;
            if st.ftype == POISONED {
                return Err(FsError::Corrupt(format!("inode {cur} failed validation")));
            }
            if st.ftype != itype::DIR {
                return Err(FsError::NotDir);
            }
            cur = *st.children.get(c).ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    }

    fn resolve_parent<'p>(&self, path: &'p str) -> FsResult<(u64, &'p str)> {
        let (parents, name) = split_parent(path)?;
        if name.len() > NAME_MAX {
            return Err(FsError::NameTooLong);
        }
        let mut cur = ROOT_INO;
        for c in parents {
            let st = self.vol.inode(cur)?;
            if st.ftype == POISONED {
                return Err(FsError::Corrupt(format!("inode {cur} failed validation")));
            }
            if st.ftype != itype::DIR {
                return Err(FsError::NotDir);
            }
            cur = *st.children.get(c).ok_or(FsError::NotFound)?;
        }
        let st = self.vol.inode(cur)?;
        if st.ftype == POISONED {
            return Err(FsError::Corrupt(format!("inode {cur} failed validation")));
        }
        if st.ftype != itype::DIR {
            return Err(FsError::NotDir);
        }
        Ok((cur, name))
    }

    fn check_live(&self, ino: u64) -> FsResult<&InodeState> {
        let st = self.vol.inode(ino)?;
        if st.ftype == POISONED {
            return Err(FsError::Corrupt(format!(
                "inode {ino} references uninitialized or corrupt metadata"
            )));
        }
        Ok(st)
    }

    // ---- log machinery ----

    /// Appends `recs` to `ino`'s log: writes and flushes the entries
    /// (allocating and linking pages as needed) without advancing the tail.
    /// Returns (entry positions, new tail). The caller fences, then
    /// publishes the new tail.
    fn log_append(&mut self, ino: u64, recs: &[LogRecord]) -> FsResult<(Vec<u64>, u64)> {
        let mut pos = self.vol.inode(ino)?.log_tail;
        let mut positions = Vec::with_capacity(recs.len());
        for rec in recs {
            let page = pos / BLOCK;
            if pos + ENTRY_SIZE > (page + 1) * BLOCK {
                covpoint!(self.cov);
                let new_page = self.vol.alloc.alloc()?;
                self.dev.store_u64(new_page * BLOCK, 0);
                self.dev.flush(new_page * BLOCK, 8);
                self.dev.store_u64(page * BLOCK, new_page);
                self.dev.flush(page * BLOCK, 8);
                pos = new_page * BLOCK + PAGE_HDR;
            }
            let bytes = rec.encode();
            self.dev.store(pos, &bytes);
            self.dev.flush(pos, ENTRY_SIZE);
            positions.push(pos);
            pos += ENTRY_SIZE;
        }
        Ok((positions, pos))
    }

    /// Publishes a new tail with an in-place store (+ checksum refresh).
    fn publish_tail(&mut self, ino: u64, new_tail: u64, csum_flush: bool) {
        self.iset(ino, ioff::LOG_TAIL, new_tail, csum_flush);
        if let Ok(st) = self.vol.inode_mut(ino) {
            st.log_tail = new_tail;
        }
    }

    fn cur_gen(&self) -> u64 {
        self.vol.gen
    }

    // ---- file data ----

    fn read_block_or_zeros(&self, st: &InodeState, idx: u64) -> Vec<u8> {
        match st.blocks.get(&idx) {
            Some(&b) => self.dev.read_vec(b * BLOCK, BLOCK),
            None => vec![0u8; BLOCK as usize],
        }
    }

    /// Copy-on-write write of `data` at byte offset `off`: allocates fresh
    /// blocks, writes them non-temporally, fences, then appends one
    /// file-write record per block and publishes the tail under a journal
    /// transaction.
    fn write_inode(&mut self, ino: u64, off: u64, data: &[u8]) -> FsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let end = off + data.len() as u64;
        // §4.4 extra (non-crash-consistency): NOVA "does not properly handle
        // write calls where the number of bytes to write is extremely large;
        // it will allocate all remaining space for the file, causing most
        // subsequent operations to fail". The analogue drains the allocator
        // before failing; the internal invariant check reports it like
        // KASAN would.
        if self.extra_bugs {
            let needed = end.div_ceil(BLOCK) - off / BLOCK;
            if needed > self.vol.alloc.free_count() as u64 {
                while self.vol.alloc.alloc().is_ok() {}
                return Err(FsError::Detected(format!(
                    "write of {} bytes exhausted the allocator ({} blocks requested)",
                    data.len(),
                    needed
                )));
            }
        }
        if end.div_ceil(BLOCK) > MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        let st = self.check_live(ino)?;
        if st.ftype != itype::FILE {
            return Err(FsError::IsDir);
        }
        let first_idx = off / BLOCK;
        let last_idx = (end - 1) / BLOCK;
        let n = last_idx - first_idx + 1;
        let old_size = st.size;

        self.gen_begin();
        // 1. Compose and write the new data blocks (copy-on-write).
        let new_blocks = self.vol.alloc.alloc_run(n)?;
        let mut recs = Vec::with_capacity(n as usize);
        let mut freed = Vec::new();
        for (i, &blk) in new_blocks.iter().enumerate() {
            let idx = first_idx + i as u64;
            let st = self.vol.inode(ino)?;
            let mut content = self.read_block_or_zeros(st, idx);
            let blk_start = idx * BLOCK;
            let s = off.max(blk_start);
            let e = end.min(blk_start + BLOCK);
            content[(s - blk_start) as usize..(e - blk_start) as usize]
                .copy_from_slice(&data[(s - off) as usize..(e - off) as usize]);
            self.dev.memcpy_nt(blk * BLOCK, &content);
            recs.push(LogRecord::FileWrite {
                gen: self.cur_gen(),
                off: idx * BLOCK,
                nblocks: 1,
                block: blk,
                size_after: old_size.max(end.min((idx + 1) * BLOCK)),
                csum: if self.fortis { data_csum(&content) } else { 0 },
            });
            if let Some(&old) = self.vol.inode(ino)?.blocks.get(&idx) {
                freed.push(old);
            }
        }
        self.dev.fence();

        // 2. Append the records and publish the tail. A single record is
        // made visible atomically by the 8-byte tail store; a multi-record
        // append runs under the lite journal so a partially published batch
        // rolls back (the bug-3 recovery path services these transactions).
        if recs.len() > 1 {
            let words = self.journal_words(ino, &[ioff::LOG_TAIL]);
            let txn = journal::txn_begin(&mut self.dev, &self.geo, &words)?;
            let (_, new_tail) = self.log_append(ino, &recs)?;
            self.dev.fence();
            self.publish_tail(ino, new_tail, true);
            self.dev.fence();
            journal::txn_commit(&mut self.dev, &self.geo, txn);
        } else {
            let (_, new_tail) = self.log_append(ino, &recs)?;
            self.dev.fence();
            self.publish_tail(ino, new_tail, true);
            self.dev.fence();
        }

        // 3. Volatile state.
        {
            let st = self.vol.inode_mut(ino)?;
            for (i, &blk) in new_blocks.iter().enumerate() {
                let idx = first_idx + i as u64;
                st.blocks.insert(idx, blk);
                st.fresh_runs.insert(idx);
                if self.fortis {
                    st.run_csums.remove(&idx);
                }
            }
            st.size = st.size.max(end);
        }
        for b in freed {
            self.vol.alloc.free(b)?;
        }
        self.sync_replica(ino);
        self.gen_end();
        Ok(data.len())
    }

    /// Fortis read-path validation of one block.
    fn validate_block(&self, ino: u64, idx: u64, st: &InodeState) -> FsResult<()> {
        if !self.fortis || st.fresh_runs.contains(&idx) {
            return Ok(());
        }
        if let (Some(&blk), Some(&(_, csum))) = (st.blocks.get(&idx), st.run_csums.get(&idx)) {
            let content = self.dev.read_vec(blk * BLOCK, BLOCK);
            if data_csum(&content) != csum {
                return Err(FsError::Corrupt(format!(
                    "inode {ino}: file data checksum mismatch at block index {idx}"
                )));
            }
        }
        Ok(())
    }

    fn read_inode(&self, ino: u64, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let st = self.check_live(ino)?;
        if st.ftype != itype::FILE {
            return Err(FsError::IsDir);
        }
        if off >= st.size {
            return Ok(0);
        }
        let n = buf.len().min((st.size - off) as usize);
        let mut pos = 0usize;
        while pos < n {
            let cur = off + pos as u64;
            let idx = cur / BLOCK;
            let in_blk = cur % BLOCK;
            let step = ((BLOCK - in_blk) as usize).min(n - pos);
            self.validate_block(ino, idx, st)?;
            match st.blocks.get(&idx) {
                Some(&b) => self.dev.read(b * BLOCK + in_blk, &mut buf[pos..pos + step]),
                None => buf[pos..pos + step].fill(0),
            }
            pos += step;
        }
        Ok(n)
    }

    // ---- deletion ----

    fn release_file(&mut self, ino: u64) -> FsResult<()> {
        // Free blocks and log pages in DRAM, then free the inode slot
        // persistently. A crash before the slot update leaves an orphan
        // that the rebuild scan reclaims.
        covpoint!(self.cov);
        let st = self.vol.inodes.remove(&ino).ok_or(FsError::NotFound)?;
        for &b in st.blocks.values() {
            self.vol.alloc.free(b)?;
        }
        let mut page = st.log_head;
        while page != 0 {
            let next = self.dev.read_u64(page * BLOCK);
            self.vol.alloc.free(page)?;
            page = next;
        }
        self.iset(ino, ioff::FTYPE, itype::FREE, true);
        self.dev.fence();
        self.sync_replica(ino);
        self.dev.fence();
        Ok(())
    }

    fn unlink_common(&mut self, parent: u64, name: &str, ino: u64) -> FsResult<()> {
        // Journal: parent tail + child nlink (+ checksums).
        let mut words = self.journal_words(parent, &[ioff::LOG_TAIL]);
        words.extend(self.journal_words(ino, &[ioff::NLINK]));
        let txn = journal::txn_begin(&mut self.dev, &self.geo, &words)?;
        let rec = LogRecord::Dentry {
            valid: false,
            gen: self.cur_gen(),
            ino,
            name: name.to_string(),
        };
        let (_, new_tail) = self.log_append(parent, &[rec])?;
        self.dev.fence();
        let nlink = self.iget(ino, ioff::NLINK) - 1;
        // Bug 9: the checksum refreshes on this path lack write-backs.
        let stale = self.fortis && self.bugs.has(BugId::B09);
        self.publish_tail(parent, new_tail, !stale);
        self.iset(ino, ioff::NLINK, nlink, !stale);
        self.dev.fence();
        journal::txn_commit(&mut self.dev, &self.geo, txn);

        {
            let pst = self.vol.inode_mut(parent)?;
            pst.children.remove(name);
            pst.dentry_pos.remove(name);
        }
        self.vol.inode_mut(ino)?.nlink = nlink;
        if stale {
            self.sync_replica_stale_csum(parent);
            self.sync_replica_stale_csum(ino);
        } else {
            self.sync_replica(parent);
            self.sync_replica(ino);
        }
        self.dev.fence();
        if nlink == 0 && self.vol.open_count(ino) == 0 {
            self.release_file(ino)?;
        }
        Ok(())
    }

    /// Fortis bug-10 strict comparison on the delete path.
    fn fortis_delete_check(&self, ino: u64) -> FsResult<()> {
        if !self.fortis || !self.bugs.has(BugId::B10) {
            return Ok(());
        }
        let p = self.dev.read_vec(self.geo.inode_off(ino), 32);
        let r = self.dev.read_vec(self.geo.replica_off(ino), 32);
        if p != r {
            self.trace.hit(BugId::B10);
            return Err(FsError::Corrupt(format!(
                "inode {ino}: primary and replica disagree; refusing to delete"
            )));
        }
        Ok(())
    }

    fn create_object(&mut self, path: &str, ftype: u64) -> FsResult<u64> {
        let (parent, name) = self.resolve_parent(path)?;
        if self.vol.inode(parent)?.children.contains_key(name) {
            return Err(FsError::Exists);
        }
        self.gen_begin();
        let ino = self.alloc_ino()?;
        let page = self.vol.alloc.alloc()?;
        if self.bugs.has(BugId::B02) {
            // BUG 2 (PM): the new inode is initialized with plain cached
            // stores and never written back; only the parent's dentry and
            // tail become durable.
            self.trace.hit(BugId::B02);
            self.init_inode(ino, ftype, page, false);
        } else {
            self.init_inode(ino, ftype, page, true);
        }
        let rec = LogRecord::Dentry {
            valid: true,
            gen: self.cur_gen(),
            ino,
            name: name.to_string(),
        };
        let (positions, new_tail) = self.log_append(parent, &[rec])?;
        self.dev.fence();
        self.publish_tail(parent, new_tail, true);
        self.dev.fence();

        self.vol.inodes.insert(
            ino,
            InodeState {
                ftype,
                nlink: if ftype == itype::DIR { 2 } else { 1 },
                log_head: page,
                log_tail: page * BLOCK + PAGE_HDR,
                ..Default::default()
            },
        );
        {
            let pst = self.vol.inode_mut(parent)?;
            pst.children.insert(name.to_string(), ino);
            pst.dentry_pos.insert(name.to_string(), positions[0]);
            if ftype == itype::DIR {
                pst.nlink += 1;
            }
        }
        self.sync_replica(ino);
        self.sync_replica(parent);
        self.dev.fence();
        self.gen_end();
        Ok(ino)
    }

    fn truncate_ino(&mut self, ino: u64, size: u64) -> FsResult<()> {
        let st = self.check_live(ino)?;
        if st.ftype != itype::FILE {
            return Err(FsError::IsDir);
        }
        if size.div_ceil(BLOCK) > MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        let old = st.size;
        if size == old {
            return Ok(());
        }
        self.gen_begin();
        if size > old {
            covpoint!(self.cov);
            // Extension: a set-attribute record is all that is needed
            // (reads beyond the old size fall into holes or the zeroed
            // block tail).
            let rec = LogRecord::SetAttr { gen: self.cur_gen(), size };
            let (_, new_tail) = self.log_append(ino, &[rec])?;
            self.dev.fence();
            self.publish_tail(ino, new_tail, true);
            self.dev.fence();
            self.vol.inode_mut(ino)?.size = size;
            self.sync_replica(ino);
            self.dev.fence();
            self.gen_end();
            return Ok(());
        }

        // Shrink.
        covpoint!(self.cov);
        let keep = size.div_ceil(BLOCK);
        let freed: Vec<(u64, u64)> = self
            .vol
            .inode(ino)?
            .blocks
            .range(keep..)
            .map(|(&i, &b)| (i, b))
            .collect();
        let stale = self.fortis && self.bugs.has(BugId::B09);

        // Fortis resilience machinery: record the deallocation intent
        // (bug 11 replays this record at mount).
        if self.fortis && !freed.is_empty() {
            let rec = self.geo.journal * BLOCK + dealloc::OFF;
            let count = freed.len().min(dealloc::CAP) as u64;
            self.dev.store_u64(rec + 8, count);
            for (i, (_, blk)) in freed.iter().take(dealloc::CAP).enumerate() {
                self.dev.store_u64(rec + 16 + i as u64 * 8, *blk);
            }
            self.dev.flush(rec, 16 + count * 8);
            self.dev.fence();
            self.dev.persist_u64(rec, ino); // arm the record last
        }

        let zero_tail = |fs: &mut Self| -> FsResult<()> {
            // Zero the kept boundary block's tail so a later extension
            // reads zeros.
            if !size.is_multiple_of(BLOCK) {
                let idx = size / BLOCK;
                if let Some(&blk) = fs.vol.inode(ino)?.blocks.get(&idx) {
                    let in_blk = size % BLOCK;
                    if fs.fortis && !fs.bugs.has(BugId::B12) {
                        // Fixed Fortis: copy-on-write the boundary block and
                        // log it with a fresh checksum.
                        let mut content = fs.dev.read_vec(blk * BLOCK, BLOCK);
                        content[in_blk as usize..].fill(0);
                        let nb = fs.vol.alloc.alloc()?;
                        fs.dev.memcpy_nt(nb * BLOCK, &content);
                        fs.dev.fence();
                        let rec = LogRecord::FileWrite {
                            gen: fs.cur_gen(),
                            off: idx * BLOCK,
                            nblocks: 1,
                            block: nb,
                            size_after: size,
                            csum: data_csum(&content),
                        };
                        let (_, t) = fs.log_append(ino, &[rec])?;
                        fs.dev.fence();
                        fs.publish_tail(ino, t, true);
                        fs.dev.fence();
                        let old_blk = blk;
                        let st = fs.vol.inode_mut(ino)?;
                        st.blocks.insert(idx, nb);
                        st.fresh_runs.insert(idx);
                        st.run_csums.remove(&idx);
                        fs.vol.alloc.free(old_blk)?;
                    } else {
                        // Plain NOVA (or bug 12): zero in place. With
                        // bug 12 the stale block checksum is left behind.
                        if fs.fortis {
                            fs.trace.hit(BugId::B12);
                        }
                        fs.dev.memset_nt(blk * BLOCK + in_blk, 0, BLOCK - in_blk);
                        fs.dev.fence();
                        let st = fs.vol.inode_mut(ino)?;
                        st.fresh_runs.insert(idx);
                    }
                }
            }
            Ok(())
        };

        if self.bugs.has(BugId::B07) {
            // BUG 7 (logic): the boundary block is zeroed *before* the
            // set-attribute record is durable; a crash in between leaves
            // the old size with zeroed data — data loss.
            self.trace.hit(BugId::B07);
            zero_tail(self)?;
        }
        let rec = LogRecord::SetAttr { gen: self.cur_gen(), size };
        let (_, new_tail) = self.log_append(ino, &[rec])?;
        self.dev.fence();
        self.publish_tail(ino, new_tail, !stale);
        self.dev.fence();
        if !self.bugs.has(BugId::B07) {
            zero_tail(self)?;
        }

        // Volatile: drop the freed mappings, return the blocks.
        {
            let st = self.vol.inode_mut(ino)?;
            st.size = size;
            for (i, _) in &freed {
                st.blocks.remove(i);
                st.run_csums.remove(i);
                st.fresh_runs.remove(i);
            }
        }
        for (_, b) in &freed {
            self.vol.alloc.free(*b)?;
        }
        // Disarm the deallocation record.
        if self.fortis && !freed.is_empty() {
            self.dev.persist_u64(self.geo.journal * BLOCK + dealloc::OFF, 0);
        }
        if stale {
            self.sync_replica_stale_csum(ino);
        } else {
            self.sync_replica(ino);
        }
        self.dev.fence();
        self.gen_end();
        Ok(())
    }
}

impl<D: PmBackend> FileSystem for Nova<D> {
    fn open(&mut self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        covpoint!(self.cov);
        let ino = match self.resolve(path) {
            Ok(ino) => {
                if flags.create && flags.excl {
                    return Err(FsError::Exists);
                }
                let st = self.check_live(ino)?;
                if st.ftype == itype::DIR {
                    return Err(FsError::IsDir);
                }
                if flags.trunc {
                    self.truncate_ino(ino, 0)?;
                }
                ino
            }
            Err(FsError::NotFound) if flags.create => {
                covpoint!(self.cov);
                self.create_object(path, itype::FILE)?
            }
            Err(e) => return Err(e),
        };
        let fd = self.vol.next_fd;
        self.vol.next_fd += 1;
        self.vol.fds.insert(fd, (ino, 0, flags.append));
        Ok(Fd(fd))
    }

    fn close(&mut self, fd: Fd) -> FsResult<()> {
        let (ino, _, _) = self.vol.fds.remove(&fd.0).ok_or(FsError::BadFd)?;
        if let Ok(st) = self.vol.inode(ino) {
            if st.ftype == itype::FILE && st.nlink == 0 && self.vol.open_count(ino) == 0 {
                self.gen_begin();
                self.release_file(ino)?;
                self.gen_end();
            }
        }
        Ok(())
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        self.create_object(path, itype::DIR).map(|_| ())
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, name) = self.resolve_parent(path)?;
        let ino = *self.vol.inode(parent)?.children.get(name).ok_or(FsError::NotFound)?;
        let st = self.check_live(ino)?;
        if st.ftype != itype::DIR {
            return Err(FsError::NotDir);
        }
        if !st.children.is_empty() {
            return Err(FsError::NotEmpty);
        }
        self.fortis_delete_check(ino)?;
        self.gen_begin();
        // Tombstone in the parent, then release the directory.
        let words = self.journal_words(parent, &[ioff::LOG_TAIL]);
        let txn = journal::txn_begin(&mut self.dev, &self.geo, &words)?;
        let rec = LogRecord::Dentry {
            valid: false,
            gen: self.cur_gen(),
            ino,
            name: name.to_string(),
        };
        let (_, new_tail) = self.log_append(parent, &[rec])?;
        self.dev.fence();
        let stale = self.fortis && self.bugs.has(BugId::B09);
        self.publish_tail(parent, new_tail, !stale);
        self.dev.fence();
        journal::txn_commit(&mut self.dev, &self.geo, txn);
        {
            let pst = self.vol.inode_mut(parent)?;
            pst.children.remove(name);
            pst.dentry_pos.remove(name);
            pst.nlink -= 1;
        }
        // Free the directory inode and its log.
        let st = self.vol.inodes.remove(&ino).ok_or(FsError::NotFound)?;
        let mut page = st.log_head;
        while page != 0 {
            let next = self.dev.read_u64(page * BLOCK);
            self.vol.alloc.free(page)?;
            page = next;
        }
        self.iset(ino, ioff::FTYPE, itype::FREE, !stale);
        self.dev.fence();
        if stale {
            self.sync_replica_stale_csum(parent);
        } else {
            self.sync_replica(parent);
            self.sync_replica(ino);
        }
        self.dev.fence();
        self.gen_end();
        Ok(())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let (parent, name) = self.resolve_parent(path)?;
        let ino = *self.vol.inode(parent)?.children.get(name).ok_or(FsError::NotFound)?;
        let st = self.check_live(ino)?;
        if st.ftype != itype::FILE {
            return Err(FsError::IsDir);
        }
        self.fortis_delete_check(ino)?;
        self.gen_begin();
        self.unlink_common(parent, name, ino)?;
        self.gen_end();
        Ok(())
    }

    fn link(&mut self, old: &str, new: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.resolve(old)?;
        let st = self.check_live(ino)?;
        if st.ftype != itype::FILE {
            return Err(FsError::IsDir);
        }
        let (parent, name) = self.resolve_parent(new)?;
        if self.vol.inode(parent)?.children.contains_key(name) {
            return Err(FsError::Exists);
        }
        self.gen_begin();
        let nlink = self.iget(ino, ioff::NLINK) + 1;
        if self.bugs.has(BugId::B06) {
            // BUG 6 (logic): the link count is bumped with an in-place
            // update — after a safety check that reads the inode back from
            // media — *before* the dentry transaction commits.
            self.trace.hit(BugId::B06);
            self.dev.note_media_read(32);
            self.iset(ino, ioff::NLINK, nlink, true);
            self.dev.fence();
            let words = self.journal_words(parent, &[ioff::LOG_TAIL]);
            let txn = journal::txn_begin(&mut self.dev, &self.geo, &words)?;
            let rec = LogRecord::Dentry {
                valid: true,
                gen: self.cur_gen(),
                ino,
                name: name.to_string(),
            };
            let (positions, new_tail) = self.log_append(parent, &[rec])?;
            self.dev.fence();
            self.publish_tail(parent, new_tail, true);
            self.dev.fence();
            journal::txn_commit(&mut self.dev, &self.geo, txn);
            let pst = self.vol.inode_mut(parent)?;
            pst.children.insert(name.to_string(), ino);
            pst.dentry_pos.insert(name.to_string(), positions[0]);
        } else {
            // Fixed: one transaction covers the dentry tail and the link
            // count.
            let mut words = self.journal_words(parent, &[ioff::LOG_TAIL]);
            words.extend(self.journal_words(ino, &[ioff::NLINK]));
            let txn = journal::txn_begin(&mut self.dev, &self.geo, &words)?;
            let rec = LogRecord::Dentry {
                valid: true,
                gen: self.cur_gen(),
                ino,
                name: name.to_string(),
            };
            let (positions, new_tail) = self.log_append(parent, &[rec])?;
            self.dev.fence();
            self.publish_tail(parent, new_tail, true);
            self.iset(ino, ioff::NLINK, nlink, true);
            self.dev.fence();
            journal::txn_commit(&mut self.dev, &self.geo, txn);
            let pst = self.vol.inode_mut(parent)?;
            pst.children.insert(name.to_string(), ino);
            pst.dentry_pos.insert(name.to_string(), positions[0]);
        }
        self.vol.inode_mut(ino)?.nlink = nlink;
        self.sync_replica(ino);
        self.sync_replica(parent);
        self.dev.fence();
        self.gen_end();
        Ok(())
    }

    fn rename(&mut self, old: &str, new: &str) -> FsResult<()> {
        covpoint!(self.cov);
        let src_ino = self.resolve(old)?;
        let src_is_dir = self.check_live(src_ino)?.ftype == itype::DIR;
        if src_is_dir && is_path_prefix(old, new) && old != new {
            return Err(FsError::Invalid);
        }
        if old == new {
            return Ok(());
        }
        let (src_parent, src_name) = self.resolve_parent(old)?;
        let (dst_parent, dst_name) = self.resolve_parent(new)?;
        let src_name = src_name.to_string();
        let dst_name = dst_name.to_string();

        // Validate the destination.
        let victim = self.vol.inode(dst_parent)?.children.get(&dst_name).copied();
        if let Some(v) = victim {
            if v == src_ino {
                return Ok(());
            }
            let vst = self.check_live(v)?;
            match (src_is_dir, vst.ftype == itype::DIR) {
                (true, true) => {
                    if !vst.children.is_empty() {
                        return Err(FsError::NotEmpty);
                    }
                }
                (true, false) => return Err(FsError::NotDir),
                (false, true) => return Err(FsError::IsDir),
                (false, false) => self.fortis_delete_check(v)?,
            }
        }

        self.gen_begin();
        let same_parent = src_parent == dst_parent;
        let gen = self.cur_gen();

        if same_parent && self.bugs.has(BugId::B04) {
            // BUG 4 (logic): the in-place fast path. The old dentry is
            // invalidated *in place* — durable immediately — and the new
            // dentry is published with a bare tail store, skipping the lite
            // journal entirely. That is exactly the performance win the
            // paper's Observation 2 describes, and exactly why a crash
            // between the invalidation and the tail publish loses the file.
            self.trace.hit(BugId::B04);
            covpoint!(self.cov);
            let pos = *self
                .vol
                .inode(src_parent)?
                .dentry_pos
                .get(&src_name)
                .ok_or(FsError::NotFound)?;
            self.dev.store(pos + 1, &[0u8]); // clear the valid byte
            self.dev.flush(pos + 1, 1);
            self.dev.fence();
            let rec = LogRecord::Dentry { valid: true, gen, ino: src_ino, name: dst_name.clone() };
            let (positions, new_tail) = self.log_append(src_parent, &[rec])?;
            self.dev.fence();
            self.publish_tail(src_parent, new_tail, true);
            if let Some(v) = victim {
                if !src_is_dir {
                    let n = self.iget(v, ioff::NLINK) - 1;
                    self.iset(v, ioff::NLINK, n, true);
                }
            }
            self.dev.fence();
            self.finish_rename(
                src_parent, &src_name, dst_parent, &dst_name, src_ino, src_is_dir, victim,
                positions[0],
            )?;
            self.gen_end();
            return Ok(());
        }

        if !same_parent && self.bugs.has(BugId::B05) {
            // BUG 5 (logic): the transaction covers only the destination
            // side; the tombstone for the old name is appended after the
            // commit, outside the transaction. A crash in between leaves
            // the file under both names.
            self.trace.hit(BugId::B05);
            covpoint!(self.cov);
            let mut words = self.journal_words(dst_parent, &[ioff::LOG_TAIL]);
            if let Some(v) = victim {
                if !src_is_dir {
                    words.extend(self.journal_words(v, &[ioff::NLINK]));
                }
            }
            let txn = journal::txn_begin(&mut self.dev, &self.geo, &words)?;
            let rec = LogRecord::Dentry { valid: true, gen, ino: src_ino, name: dst_name.clone() };
            let (positions, new_tail) = self.log_append(dst_parent, &[rec])?;
            self.dev.fence();
            self.publish_tail(dst_parent, new_tail, true);
            if let Some(v) = victim {
                if !src_is_dir {
                    let n = self.iget(v, ioff::NLINK) - 1;
                    self.iset(v, ioff::NLINK, n, true);
                }
            }
            self.dev.fence();
            journal::txn_commit(&mut self.dev, &self.geo, txn);
            // Post-commit, unprotected: remove the old name.
            let tomb =
                LogRecord::Dentry { valid: false, gen, ino: src_ino, name: src_name.clone() };
            let (_, old_tail) = self.log_append(src_parent, &[tomb])?;
            self.dev.fence();
            self.publish_tail(src_parent, old_tail, true);
            self.dev.fence();
            self.finish_rename(
                src_parent, &src_name, dst_parent, &dst_name, src_ino, src_is_dir, victim,
                positions[0],
            )?;
            self.gen_end();
            return Ok(());
        }

        // Correct implementation: one transaction covers both directory
        // tails (and the victim's link count).
        let mut words = self.journal_words(src_parent, &[ioff::LOG_TAIL]);
        if !same_parent {
            words.extend(self.journal_words(dst_parent, &[ioff::LOG_TAIL]));
        }
        if let Some(v) = victim {
            if !src_is_dir {
                words.extend(self.journal_words(v, &[ioff::NLINK]));
            }
        }
        let txn = journal::txn_begin(&mut self.dev, &self.geo, &words)?;
        let tomb = LogRecord::Dentry { valid: false, gen, ino: src_ino, name: src_name.clone() };
        let newrec = LogRecord::Dentry { valid: true, gen, ino: src_ino, name: dst_name.clone() };
        let (positions, new_pos) = if same_parent {
            // The fix persists the invalidating entry before the new name
            // is written — the extra ordering fence is part of the fix's
            // cost (Observation 2: "fixing these bugs often requires
            // journalling more data"). The volatile tail is advanced past
            // the tombstone so the second append lands after it; the real
            // publish happens below, once, under the journal.
            let (_, mid) = self.log_append(src_parent, &[tomb])?;
            self.dev.fence();
            self.vol.inode_mut(src_parent)?.log_tail = mid;
            let (p, t) = self.log_append(src_parent, &[newrec])?;
            (vec![p[0]], t)
        } else {
            let (_, src_tail) = self.log_append(src_parent, &[tomb])?;
            let (p, dst_tail) = self.log_append(dst_parent, &[newrec])?;
            self.dev.fence();
            self.publish_tail(src_parent, src_tail, true);
            self.publish_tail(dst_parent, dst_tail, true);
            if let Some(v) = victim {
                if !src_is_dir {
                    let n = self.iget(v, ioff::NLINK) - 1;
                    self.iset(v, ioff::NLINK, n, true);
                }
            }
            self.dev.fence();
            journal::txn_commit(&mut self.dev, &self.geo, txn);
            self.finish_rename(
                src_parent, &src_name, dst_parent, &dst_name, src_ino, src_is_dir, victim, p[0],
            )?;
            self.gen_end();
            return Ok(());
        };
        self.dev.fence();
        self.publish_tail(src_parent, new_pos, true);
        if let Some(v) = victim {
            if !src_is_dir {
                let n = self.iget(v, ioff::NLINK) - 1;
                self.iset(v, ioff::NLINK, n, true);
            }
        }
        self.dev.fence();
        journal::txn_commit(&mut self.dev, &self.geo, txn);
        self.finish_rename(
            src_parent, &src_name, dst_parent, &dst_name, src_ino, src_is_dir, victim,
            positions[0],
        )?;
        self.gen_end();
        Ok(())
    }

    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        covpoint!(self.cov);
        let ino = self.resolve(path)?;
        self.truncate_ino(ino, size)
    }

    fn fallocate(&mut self, fd: Fd, mode: FallocMode, off: u64, len: u64) -> FsResult<()> {
        covpoint!(self.cov);
        if len == 0 {
            return Err(FsError::Invalid);
        }
        let (ino, _, _) = *self.vol.fds.get(&fd.0).ok_or(FsError::BadFd)?;
        let st = self.check_live(ino)?;
        if st.ftype != itype::FILE {
            return Err(FsError::IsDir);
        }
        let end = off + len;
        if end.div_ceil(BLOCK) > MAX_FILE_BLOCKS {
            return Err(FsError::NoSpace);
        }
        let size = st.size;
        self.gen_begin();
        let gen = self.cur_gen();
        match mode {
            FallocMode::Allocate | FallocMode::KeepSize => {
                let new_size = if mode == FallocMode::Allocate { size.max(end) } else { size };
                let range = off / BLOCK..end.div_ceil(BLOCK);
                let wanted: Vec<u64> = if self.bugs.has(BugId::B08) {
                    // BUG 8 (logic): the log records cover the whole range,
                    // including already-mapped blocks; replaying them at
                    // mount replaces real data with fresh zero blocks.
                    self.trace.hit(BugId::B08);
                    range.collect()
                } else {
                    let st = self.vol.inode(ino)?;
                    range.filter(|i| !st.blocks.contains_key(i)).collect()
                };
                let mut recs = Vec::new();
                let mut mapped = Vec::new();
                for &idx in &wanted {
                    let b = self.vol.alloc.alloc()?;
                    self.dev.memset_nt(b * BLOCK, 0, BLOCK);
                    recs.push(LogRecord::FileWrite {
                        gen,
                        off: idx * BLOCK,
                        nblocks: 1,
                        block: b,
                        size_after: new_size,
                        csum: if self.fortis { data_csum(&vec![0u8; BLOCK as usize]) } else { 0 },
                    });
                    mapped.push((idx, b));
                }
                if recs.is_empty() && new_size != size {
                    recs.push(LogRecord::SetAttr { gen, size: new_size });
                }
                if !recs.is_empty() {
                    self.dev.fence();
                    let (_, new_tail) = self.log_append(ino, &recs)?;
                    self.dev.fence();
                    self.publish_tail(ino, new_tail, true);
                    self.dev.fence();
                }
                let already = self.vol.inode(ino)?.blocks.clone();
                let st = self.vol.inode_mut(ino)?;
                st.size = new_size;
                for (idx, b) in mapped {
                    if already.contains_key(&idx) {
                        // Buggy path logged a replacement it must not apply
                        // while running (crash-free semantics stay correct;
                        // the divergence only shows after recovery). The
                        // fresh zero block stays allocated — the log
                        // references it.
                    } else {
                        st.blocks.insert(idx, b);
                        st.fresh_runs.insert(idx);
                    }
                }
            }
            FallocMode::ZeroRange | FallocMode::PunchHole => {
                let z_end = end.min(size);
                let mut recs = Vec::new();
                let mut dram: Vec<(u64, Option<u64>)> = Vec::new();
                let mut cur = off;
                while cur < z_end {
                    let idx = cur / BLOCK;
                    let in_blk = cur % BLOCK;
                    let n = (BLOCK - in_blk).min(z_end - cur);
                    let st = self.vol.inode(ino)?;
                    if mode == FallocMode::PunchHole && in_blk == 0 && n == BLOCK {
                        if st.blocks.contains_key(&idx) {
                            recs.push(LogRecord::FileWrite {
                                gen,
                                off: idx * BLOCK,
                                nblocks: 1,
                                block: 0,
                                size_after: size,
                                csum: 0,
                            });
                            dram.push((idx, None));
                        }
                    } else if st.blocks.contains_key(&idx) {
                        // Copy-on-write zeroing of a partial (or zero-range)
                        // block.
                        let mut content = self.read_block_or_zeros(st, idx);
                        content[in_blk as usize..(in_blk + n) as usize].fill(0);
                        let b = self.vol.alloc.alloc()?;
                        self.dev.memcpy_nt(b * BLOCK, &content);
                        recs.push(LogRecord::FileWrite {
                            gen,
                            off: idx * BLOCK,
                            nblocks: 1,
                            block: b,
                            size_after: size,
                            csum: if self.fortis { data_csum(&content) } else { 0 },
                        });
                        dram.push((idx, Some(b)));
                    }
                    cur += n;
                }
                if !recs.is_empty() {
                    self.dev.fence();
                    let (_, new_tail) = self.log_append(ino, &recs)?;
                    self.dev.fence();
                    self.publish_tail(ino, new_tail, true);
                    self.dev.fence();
                    let mut freed = Vec::new();
                    {
                        let st = self.vol.inode_mut(ino)?;
                        for (idx, nb) in dram {
                            let old = match nb {
                                Some(b) => {
                                    let old = st.blocks.insert(idx, b);
                                    st.fresh_runs.insert(idx);
                                    st.run_csums.remove(&idx);
                                    old
                                }
                                None => {
                                    st.fresh_runs.remove(&idx);
                                    st.run_csums.remove(&idx);
                                    st.blocks.remove(&idx)
                                }
                            };
                            if let Some(o) = old {
                                freed.push(o);
                            }
                        }
                    }
                    for b in freed {
                        self.vol.alloc.free(b)?;
                    }
                }
            }
        }
        self.sync_replica(ino);
        self.dev.fence();
        self.gen_end();
        Ok(())
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        covpoint!(self.cov);
        let (ino, offset, append) = *self.vol.fds.get(&fd.0).ok_or(FsError::BadFd)?;
        let off = if append { self.vol.inode(ino)?.size } else { offset };
        let n = self.write_inode(ino, off, data)?;
        if let Some(f) = self.vol.fds.get_mut(&fd.0) {
            f.1 = off + n as u64;
        }
        Ok(n)
    }

    fn pwrite(&mut self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        covpoint!(self.cov);
        let (ino, _, _) = *self.vol.fds.get(&fd.0).ok_or(FsError::BadFd)?;
        self.write_inode(ino, off, data)
    }

    fn pread(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let (ino, _, _) = *self.vol.fds.get(&fd.0).ok_or(FsError::BadFd)?;
        self.read_inode(ino, off, buf)
    }

    fn fsync(&mut self, _fd: Fd) -> FsResult<()> {
        // NOVA is synchronous: every operation is durable on return.
        Ok(())
    }

    fn sync(&mut self) -> FsResult<()> {
        Ok(())
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let ino = self.resolve(path)?;
        let st = self.check_live(ino)?;
        Ok(Metadata {
            ino,
            ftype: if st.ftype == itype::DIR { FileType::Directory } else { FileType::Regular },
            nlink: st.nlink,
            size: if st.ftype == itype::DIR { st.children.len() as u64 } else { st.size },
            blocks: if st.ftype == itype::DIR { 1 } else { st.blocks.len() as u64 },
        })
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let ino = self.resolve(path)?;
        let st = self.check_live(ino)?;
        if st.ftype != itype::DIR {
            return Err(FsError::NotDir);
        }
        let mut out = Vec::with_capacity(st.children.len());
        for (name, &child) in &st.children {
            let ftype = match self.vol.inode(child) {
                Ok(cst) if cst.ftype == itype::DIR => FileType::Directory,
                Ok(cst) if cst.ftype == POISONED => {
                    return Err(FsError::Corrupt(format!(
                        "directory entry {name} references corrupt inode {child}"
                    )))
                }
                Ok(_) => FileType::Regular,
                Err(_) => {
                    return Err(FsError::Corrupt(format!(
                        "directory entry {name} references missing inode {child}"
                    )))
                }
            };
            out.push(DirEntry { name: name.clone(), ino: child, ftype });
        }
        Ok(out)
    }

    fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        let ino = self.resolve(path)?;
        let st = self.check_live(ino)?;
        if st.ftype != itype::FILE {
            return Err(FsError::IsDir);
        }
        let mut buf = vec![0u8; st.size as usize];
        self.read_inode(ino, 0, &mut buf)?;
        Ok(buf)
    }
}

impl<D: PmBackend> Nova<D> {
    /// Shared volatile-state update after any rename flavour.
    #[allow(clippy::too_many_arguments)]
    fn finish_rename(
        &mut self,
        src_parent: u64,
        src_name: &str,
        dst_parent: u64,
        dst_name: &str,
        src_ino: u64,
        src_is_dir: bool,
        victim: Option<u64>,
        new_dentry_pos: u64,
    ) -> FsResult<()> {
        if let Some(v) = victim {
            if src_is_dir {
                // Empty directory victim: release it.
                let vst = self.vol.inodes.remove(&v).ok_or(FsError::NotFound)?;
                let mut page = vst.log_head;
                while page != 0 {
                    let next = self.dev.read_u64(page * BLOCK);
                    self.vol.alloc.free(page)?;
                    page = next;
                }
                self.iset(v, ioff::FTYPE, itype::FREE, true);
                self.dev.fence();
            } else {
                let n = self.iget(v, ioff::NLINK);
                self.vol.inode_mut(v)?.nlink = n;
                if n == 0 && self.vol.open_count(v) == 0 {
                    self.release_file(v)?;
                } else {
                    // The victim survives (hard links or open descriptors):
                    // its link count changed, so its replica must follow —
                    // a stale replica would resurrect the old count at
                    // recovery.
                    self.sync_replica(v);
                    self.dev.fence();
                }
            }
        }
        {
            let sp = self.vol.inode_mut(src_parent)?;
            sp.children.remove(src_name);
            sp.dentry_pos.remove(src_name);
            if src_is_dir && src_parent != dst_parent {
                sp.nlink -= 1;
            }
        }
        {
            let dp = self.vol.inode_mut(dst_parent)?;
            let had_victim_dir = victim.is_some() && src_is_dir;
            dp.children.insert(dst_name.to_string(), src_ino);
            dp.dentry_pos.insert(dst_name.to_string(), new_dentry_pos);
            if src_is_dir && src_parent != dst_parent && !had_victim_dir {
                dp.nlink += 1;
            } else if src_is_dir && src_parent == dst_parent && had_victim_dir {
                dp.nlink -= 1;
            }
        }
        self.sync_replica(src_parent);
        if src_parent != dst_parent {
            self.sync_replica(dst_parent);
        }
        self.dev.fence();
        Ok(())
    }
}
