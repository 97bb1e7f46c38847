//! Mount-time recovery: scanning the persistent logs to rebuild all
//! volatile state.
//!
//! This is the code path Observation 3 of the paper is about: "rebuilding
//! volatile state during crash recovery is error-prone". The scan must
//! tolerate every partial state an (otherwise correct) crash can leave:
//! typed inodes whose log never became visible, orphaned inodes whose last
//! dentry was removed, logs whose tail points mid-page, and (in Fortis
//! mode) inodes whose primary and replica copies disagree.
//!
//! Injected bugs hosted here:
//! * **Bug 1** — a too-strict assertion: if the entry generation counter
//!   says a system call was in flight but neither an active journal
//!   transaction nor a log entry of that generation exists, recovery
//!   declares the image corrupt instead of recognizing a benign
//!   nothing-persisted-yet crash.
//! * **Bug 2 (manifestation)** — a live dentry referencing an uninitialized
//!   inode produces a *poisoned* inode: visible in the namespace, but
//!   unreadable and undeletable.
//! * **Bug 10 (manifestation)** — with the bug present, the scan skips the
//!   tick-tock repair that would resynchronize a stale replica inode.
//! * **Bug 11** — the Fortis deallocation-record replay re-frees blocks the
//!   crashed truncate already freed.

use std::collections::BTreeMap;

use pmem::PmBackend;
use vfs::{covpoint, BugId, BugSet, BugTrace, Cov, FreeMap, FsError, FsResult};

use crate::{
    layout::{
        inode_csum, ioff, itype, sboff, Geometry, LogRecord, BLOCK, ENTRY_SIZE, INODE_SIZE,
        PAGE_HDR,
    },
    state::{Allocator, InodeState, Volatile},
};

/// Poisoned-inode marker type (dentry references an uninitialized inode, or
/// both Fortis copies failed their checksums).
pub const POISONED: u64 = 99;

/// Context shared by the rebuild passes.
pub struct RebuildCtx<'a> {
    /// Device geometry.
    pub geo: &'a Geometry,
    /// Enabled bugs.
    pub bugs: BugSet,
    /// Fortis mode.
    pub fortis: bool,
    /// Coverage sink.
    pub cov: &'a Cov,
    /// Ground-truth bug trace.
    pub trace: &'a BugTrace,
    /// Whether journal recovery rolled back an active transaction.
    pub had_active_txn: bool,
}

/// Scans the device and rebuilds the volatile state.
pub fn rebuild<D: PmBackend>(dev: &mut D, ctx: &RebuildCtx<'_>) -> FsResult<Volatile> {
    let geo = ctx.geo;
    let mut vol = Volatile { next_fd: 3, ..Default::default() };
    let mut unclaimed = FreeMap::full(0, geo.total_blocks);
    let gen_a = dev.read_u64(sboff::GEN_A);
    let gen_b = dev.read_u64(sboff::GEN_B);
    vol.gen = gen_a.max(gen_b);
    let mut found_gen_a = false;

    // Fortis: validate inode checksums first (tick-tock), possibly
    // restoring from the replica or repairing it.
    if ctx.fortis {
        fortis_validate_inodes(dev, ctx)?;
    }

    // Pass 1: scan every inode and its log.
    for ino in 1..=geo.inode_count {
        let base = geo.inode_off(ino);
        let ftype = dev.read_u64(base + ioff::FTYPE);
        if ftype == itype::FREE {
            continue;
        }
        if ftype == POISONED {
            vol.inodes.insert(ino, InodeState { ftype: POISONED, ..Default::default() });
            continue;
        }
        if ftype != itype::FILE && ftype != itype::DIR {
            covpoint!(ctx.cov, 1);
            return Err(FsError::Unmountable(format!(
                "inode {ino} has invalid type tag {ftype}"
            )));
        }
        let log_head = dev.read_u64(base + ioff::LOG_HEAD);
        let log_tail = dev.read_u64(base + ioff::LOG_TAIL);
        if log_head == 0 {
            // The inode was typed but its log never became visible: the
            // creating call's dentry cannot have committed either (the tail
            // advance is ordered after the inode init), so the allocation
            // simply never happened. Treat the slot as free.
            covpoint!(ctx.cov, 2);
            continue;
        }
        let mut st = InodeState {
            ftype,
            nlink: dev.read_u64(base + ioff::NLINK),
            log_head,
            log_tail,
            ..Default::default()
        };
        scan_log(dev, ctx, ino, &mut st, &mut unclaimed, &mut found_gen_a, gen_a)?;
        vol.inodes.insert(ino, st);
    }

    // Bug 1: the strict recovery assertion. A crash between the entry and
    // exit generation bumps is normal (the op simply did not complete), but
    // the buggy check insists that such a crash must have left either an
    // active journal transaction or a visible log entry of that generation.
    if ctx.bugs.has(BugId::B01) && gen_a != gen_b && !ctx.had_active_txn && !found_gen_a {
        ctx.trace.hit(BugId::B01);
        covpoint!(ctx.cov, 3);
        return Err(FsError::Unmountable(format!(
            "generation counters disagree (entry {gen_a}, exit {gen_b}) with no trace of the \
             in-flight operation"
        )));
    }

    // Pass 2: resolve the namespace — ghost children (bug 2) and link
    // counts; collect orphans.
    let mut referenced: BTreeMap<u64, u64> = BTreeMap::new();
    let mut ghost: Vec<u64> = Vec::new();
    for st in vol.inodes.values() {
        if st.ftype != itype::DIR {
            continue;
        }
        for &child in st.children.values() {
            *referenced.entry(child).or_insert(0) += 1;
            let missing = match vol.inodes.get(&child) {
                None => true,
                Some(c) => c.ftype == POISONED,
            };
            if missing {
                covpoint!(ctx.cov, 4);
                ghost.push(child);
            }
        }
    }
    for g in ghost {
        vol.inodes.insert(g, InodeState { ftype: POISONED, ..Default::default() });
    }

    // Orphans: files with no referencing dentry and link count zero were
    // mid-deletion; reclaim them.
    let orphans: Vec<u64> = vol
        .inodes
        .iter()
        .filter(|(ino, st)| {
            st.ftype == itype::FILE && st.nlink == 0 && !referenced.contains_key(ino)
        })
        .map(|(&ino, _)| ino)
        .collect();
    for ino in orphans {
        covpoint!(ctx.cov, 5);
        let st = vol.inodes.remove(&ino).expect("orphan exists");
        release_scanned(dev, geo, ino, &st, &mut unclaimed);
    }

    // Directory link counts are derived (2 + subdirectories).
    let subdir_counts: BTreeMap<u64, u64> = vol
        .inodes
        .iter()
        .filter(|(_, st)| st.ftype == itype::DIR)
        .map(|(&ino, st)| {
            let n = st
                .children
                .values()
                .filter(|c| vol.inodes.get(c).is_some_and(|cs| cs.ftype == itype::DIR))
                .count() as u64;
            (ino, n)
        })
        .collect();
    for (ino, n) in subdir_counts {
        if let Some(st) = vol.inodes.get_mut(&ino) {
            st.nlink = 2 + n;
        }
    }

    // Block accounting from the final maps (the scan only tracked log
    // pages).
    for (ino, st) in vol.inodes.iter() {
        for &b in st.blocks.values() {
            if !unclaimed.remove(b) {
                covpoint!(ctx.cov, 14);
                return Err(FsError::Unmountable(format!(
                    "block {b} mapped by inode {ino} is already claimed"
                )));
            }
        }
    }

    // Fortis: replay the deallocation record (bug 11).
    if ctx.fortis {
        replay_dealloc_record(dev, ctx, &mut vol, &mut unclaimed)?;
    }

    vol.alloc = Allocator::from_unclaimed(unclaimed, geo.data_start);
    Ok(vol)
}

/// Walks one inode's log, applying records to its volatile state.
fn scan_log<D: PmBackend>(
    dev: &D,
    ctx: &RebuildCtx<'_>,
    ino: u64,
    st: &mut InodeState,
    unclaimed: &mut FreeMap,
    found_gen_a: &mut bool,
    gen_a: u64,
) -> FsResult<()> {
    let geo = ctx.geo;
    let mut page = st.log_head;
    let mut pos = page * BLOCK + PAGE_HDR;
    loop {
        unclaimed.remove(page);
        if pos == st.log_tail {
            break;
        }
        // Page exhausted: follow the next-page pointer.
        if pos + ENTRY_SIZE > (page + 1) * BLOCK {
            let next = dev.read_u64(page * BLOCK);
            if next == 0 || next >= geo.total_blocks {
                covpoint!(ctx.cov, 6);
                return Err(FsError::Unmountable(format!(
                    "inode {ino}: log tail {:#x} unreachable (broken page chain at block \
                     {page})",
                    st.log_tail
                )));
            }
            page = next;
            pos = page * BLOCK + PAGE_HDR;
            continue;
        }
        let raw = dev.read_vec(pos, ENTRY_SIZE);
        let Some(rec) = LogRecord::decode(&raw) else {
            covpoint!(ctx.cov, 7);
            return Err(FsError::Unmountable(format!(
                "inode {ino}: unparseable log entry at {pos:#x} before tail"
            )));
        };
        if rec.gen() == gen_a {
            *found_gen_a = true;
        }
        apply_record(ino, st, &rec, pos);
        pos += ENTRY_SIZE;
    }
    Ok(())
}

/// Applies one log record to the inode's volatile state.
///
/// Block-usage accounting deliberately happens *after* the whole scan, from
/// the final block maps: a block can be freed by one inode and recycled by
/// another within the same history, so incremental used-set updates would
/// depend on inode scan order.
pub fn apply_record(_ino: u64, st: &mut InodeState, rec: &LogRecord, pos: u64) {
    match rec {
        LogRecord::Dentry { valid, ino: child, name, .. } => {
            if *valid {
                st.children.insert(name.clone(), *child);
                st.dentry_pos.insert(name.clone(), pos);
            } else {
                st.children.remove(name);
                st.dentry_pos.remove(name);
            }
        }
        LogRecord::FileWrite { off, nblocks, block, size_after, csum, .. } => {
            let start_idx = off / BLOCK;
            for i in 0..*nblocks {
                if *block == 0 {
                    st.blocks.remove(&(start_idx + i));
                } else {
                    st.blocks.insert(start_idx + i, block + i);
                }
            }
            if *block != 0 && *nblocks == 1 {
                st.run_csums.insert(start_idx, (1, *csum));
            }
            st.size = *size_after;
        }
        LogRecord::SetAttr { size, .. } => {
            if *size < st.size {
                let keep = size.div_ceil(BLOCK);
                let drop: Vec<u64> = st.blocks.range(keep..).map(|(&k, _)| k).collect();
                for k in drop {
                    st.blocks.remove(&k);
                    st.run_csums.remove(&k);
                }
            }
            st.size = *size;
        }
    }
}

/// Returns an orphan's blocks and log pages to the free pool (marks them
/// unclaimed so the allocator reclaims them) and frees the inode slot.
fn release_scanned<D: PmBackend>(
    dev: &mut D,
    geo: &Geometry,
    ino: u64,
    st: &InodeState,
    unclaimed: &mut FreeMap,
) {
    let mut page = st.log_head;
    while page != 0 && page < geo.total_blocks {
        unclaimed.insert(page);
        page = dev.read_u64(page * BLOCK);
    }
    dev.store_u64(geo.inode_off(ino) + ioff::FTYPE, itype::FREE);
    dev.flush(geo.inode_off(ino), 8);
    dev.fence();
}

/// Fortis tick-tock validation: check every live inode's primary checksum;
/// fall back to the replica when the primary is damaged; poison the inode
/// when both copies are bad. Without bug 10, a stale replica is repaired
/// from a healthy primary.
fn fortis_validate_inodes<D: PmBackend>(dev: &mut D, ctx: &RebuildCtx<'_>) -> FsResult<()> {
    let geo = ctx.geo;
    for ino in 1..=geo.inode_count {
        let p = geo.inode_off(ino);
        let r = geo.replica_off(ino);
        let pbytes = inode_bytes(dev, p);
        let rbytes = inode_bytes(dev, r);
        let pty = u64::from_le_bytes(pbytes[0..8].try_into().expect("fixed slice"));
        let rty = u64::from_le_bytes(rbytes[0..8].try_into().expect("fixed slice"));
        if pty == itype::FREE && rty == itype::FREE {
            continue;
        }
        let p_ok = dev.read_u64(p + ioff::CSUM) == inode_csum(&pbytes);
        let r_ok = dev.read_u64(r + ioff::CSUM) == inode_csum(&rbytes);
        match (p_ok, r_ok) {
            (true, true) => {
                if pbytes != rbytes {
                    covpoint!(ctx.cov, 8);
                    if ctx.bugs.has(BugId::B10) {
                        // BUG 10 (logic): the scan omits the tick-tock
                        // repair; the divergence persists and the strict
                        // delete-path comparison will later fail.
                        ctx.trace.hit(BugId::B10);
                    } else {
                        // Repair: the primary (updated transactionally) is
                        // authoritative.
                        dev.store(r, &pbytes);
                        dev.store_u64(r + ioff::CSUM, inode_csum(&pbytes));
                        dev.flush(r, INODE_SIZE);
                        dev.fence();
                    }
                }
            }
            (true, false) => {
                covpoint!(ctx.cov, 9);
                dev.store(r, &pbytes);
                dev.store_u64(r + ioff::CSUM, inode_csum(&pbytes));
                dev.flush(r, INODE_SIZE);
                dev.fence();
            }
            (false, true) => {
                // Restore the primary from the replica (the pre-crash
                // state).
                covpoint!(ctx.cov, 10);
                dev.store(p, &rbytes);
                dev.store_u64(p + ioff::CSUM, inode_csum(&rbytes));
                dev.flush(p, INODE_SIZE);
                dev.fence();
            }
            (false, false) => {
                // Both copies damaged: media loss. Poison the inode — the
                // manifestation of bug 9's missing checksum flushes.
                covpoint!(ctx.cov, 11);
                dev.store_u64(p + ioff::FTYPE, POISONED);
                dev.flush(p, 8);
                dev.fence();
            }
        }
    }
    Ok(())
}

/// Fortis deallocation-record replay (bug 11): re-frees the blocks a
/// crashed truncate recorded. With the bug, blocks the truncate already
/// freed (the set-attribute entry became durable, so the scan never marked
/// them used) are freed again; the double-free detection aborts the mount.
fn replay_dealloc_record<D: PmBackend>(
    dev: &mut D,
    ctx: &RebuildCtx<'_>,
    _vol: &mut Volatile,
    unclaimed: &mut FreeMap,
) -> FsResult<()> {
    let rec = ctx.geo.journal * BLOCK + crate::layout::dealloc::OFF;
    let ino = dev.read_u64(rec);
    if ino == 0 {
        return Ok(());
    }
    covpoint!(ctx.cov, 12);
    let count = dev.read_u64(rec + 8).min(crate::layout::dealloc::CAP as u64);
    for i in 0..count {
        let blk = dev.read_u64(rec + 16 + i * 8);
        if ctx.bugs.has(BugId::B11) {
            // BUG 11 (logic): replay unconditionally frees every recorded
            // block. If the truncate's set-attribute entry became durable,
            // the scan above never marked these blocks used — this "free"
            // is a double free.
            ctx.trace.hit(BugId::B11);
            if blk < ctx.geo.data_start || blk >= ctx.geo.total_blocks || !unclaimed.insert(blk) {
                return Err(FsError::Unmountable(format!(
                    "deallocation replay attempts to free block {blk}, which is already free"
                )));
            }
        } else {
            // Fixed: replay is idempotent — a block still referenced by a
            // scanned mapping stays allocated; anything else is already
            // free. Either way there is nothing to do but clear the record.
            covpoint!(ctx.cov, 13);
        }
    }
    dev.persist_u64(rec, 0);
    Ok(())
}

/// The 32 checksummed bytes of the inode copy at `off` (on the stack: the
/// validation pass reads two per inode slot at every Fortis mount).
fn inode_bytes<D: PmBackend>(dev: &D, off: u64) -> [u8; 32] {
    let mut bytes = [0u8; 32];
    dev.read(off, &mut bytes);
    bytes
}
