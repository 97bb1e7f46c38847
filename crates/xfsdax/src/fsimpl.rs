//! The XFS-DAX on-media format under [`vfs::pagedfs`]: mkfs and mount, the
//! write-ahead log, the allocation groups, and the inline extent map.

use std::ops::Range;

use pmem::PmBackend;
use vfs::{
    cov::block_sum,
    covpoint,
    pagecache::BlockClass,
    pagedfs::{itype, Media, PagedFs, ROOT_INO},
    Cov, FsError, FsResult,
};

use crate::{
    extents::ExtentMap,
    layout::{ioff, sboff, Geometry, BLOCK, INODE_SIZE, MAGIC, MAX_FILE_BLOCKS, NEXTENTS},
};

/// Log record tags.
const LOG_DESC: u64 = u64::from_le_bytes(*b"XLOGDESC");
const LOG_COMMIT: u64 = u64::from_le_bytes(*b"XLOGCMMT");

/// The XFS-DAX-style file system (see the crate docs): the shared
/// page-cached core over this crate's format.
pub type XfsDax<D> = PagedFs<D, Geometry>;

impl Media for Geometry {
    const INODE_SIZE: u64 = INODE_SIZE;
    const XATTR: u64 = ioff::XATTR;
    const MAX_FILE_BLOCKS: u64 = MAX_FILE_BLOCKS;

    fn inode_count(&self) -> u64 {
        self.inode_count
    }

    fn inode_off(&self, ino: u64) -> u64 {
        Geometry::inode_off(self, ino)
    }

    fn data_blocks(&self) -> Range<u64> {
        self.data_start..self.total_blocks
    }

    fn format<D: PmBackend>(dev: &mut D) -> FsResult<Self> {
        let geo = Geometry::for_device(dev.len())?;
        let mut sb = vec![0u8; 128];
        let mut put = |o: u64, v: u64| sb[o as usize..o as usize + 8]
            .copy_from_slice(&v.to_le_bytes());
        put(sboff::MAGIC, MAGIC);
        put(sboff::TOTAL_BLOCKS, geo.total_blocks);
        put(sboff::INODE_COUNT, geo.inode_count);
        put(sboff::LOG_START, geo.log_start);
        put(sboff::LOG_BLOCKS, geo.log_blocks);
        put(sboff::NAGS, geo.nags);
        put(sboff::AG_SIZE, geo.ag_size);
        put(sboff::AGF_START, geo.agf_start);
        put(sboff::ITABLE, geo.itable);
        put(sboff::DATA_START, geo.data_start);
        put(sboff::LOG_SEQ, 0);
        dev.memcpy_nt(0, &sb);
        // AG bitmaps and the inode table start empty.
        dev.memset_nt(geo.agf_start * BLOCK, 0, (geo.data_start - geo.agf_start) * BLOCK);
        // Root inode.
        let mut ri = [0u8; 16];
        ri[0..8].copy_from_slice(&itype::DIR.to_le_bytes());
        ri[8..16].copy_from_slice(&2u64.to_le_bytes());
        dev.memcpy_nt(geo.inode_off(ROOT_INO), &ri);
        dev.fence();
        Ok(geo)
    }

    fn recover<D: PmBackend>(dev: &mut D, cov: &Cov) -> FsResult<Self> {
        if dev.read_u64(sboff::MAGIC) != MAGIC {
            return Err(FsError::Unmountable("bad superblock magic".into()));
        }
        let geo = Geometry {
            total_blocks: dev.read_u64(sboff::TOTAL_BLOCKS),
            inode_count: dev.read_u64(sboff::INODE_COUNT),
            log_start: dev.read_u64(sboff::LOG_START),
            log_blocks: dev.read_u64(sboff::LOG_BLOCKS),
            nags: dev.read_u64(sboff::NAGS),
            ag_size: dev.read_u64(sboff::AG_SIZE),
            agf_start: dev.read_u64(sboff::AGF_START),
            itable: dev.read_u64(sboff::ITABLE),
            data_start: dev.read_u64(sboff::DATA_START),
        };
        if geo.total_blocks * BLOCK > dev.len()
            || geo.data_start >= geo.total_blocks
            || geo.nags == 0
            || geo.ag_size == 0
        {
            return Err(FsError::Unmountable("superblock geometry out of range".into()));
        }
        let replayed = recover_log(dev, &geo)?;
        covpoint!(cov, u64::from(replayed > 0));
        Ok(geo)
    }

    /// A crash can strand AG-bitmap bits whose freeing commit never landed.
    fn reconcile<D: PmBackend>(fs: &mut XfsDax<D>) -> FsResult<()> {
        fs.check_root()?;
        let mut referenced = vec![false; fs.geo.total_blocks as usize];
        for ino in 1..=fs.geo.inode_count {
            if fs.iget(ino, ioff::FTYPE) == itype::FREE {
                continue;
            }
            for b in ext_load(fs, ino).device_blocks() {
                referenced[b as usize] = true;
            }
            if let Some(x) = fs.valid_blk(fs.iget(ino, ioff::XATTR)) {
                referenced[x as usize] = true;
            }
        }
        for blk in fs.geo.data_blocks() {
            if is_allocated(fs, blk) != referenced[blk as usize] {
                covpoint!(fs.cov, 7);
                set_allocated(fs, blk, referenced[blk as usize]);
            }
        }
        Ok(())
    }

    fn log_commit<D: PmBackend>(&self, dev: &mut D, blocks: &[(u64, &[u8])]) -> FsResult<()> {
        log_commit(dev, self, blocks)
    }

    /// From the allocation group the inode hashes to.
    fn alloc_block<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64) -> FsResult<u64> {
        alloc_in_ag(fs, ino % fs.geo.nags, None)
    }

    fn mark_free<D: PmBackend>(fs: &mut XfsDax<D>, blk: u64) {
        set_allocated(fs, blk, false);
    }

    /// The inode's extent records are decoded once, up front.
    fn block_map<'a, D: PmBackend>(
        fs: &'a XfsDax<D>,
        ino: u64,
    ) -> impl Fn(u64) -> Option<u64> + 'a {
        let map = ext_load(fs, ino);
        move |idx| map.lookup(idx)
    }

    fn mapped<D: PmBackend>(fs: &XfsDax<D>, ino: u64) -> Vec<u64> {
        ext_load(fs, ino).device_blocks().collect()
    }

    fn ensure_block<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64, idx: u64) -> FsResult<u64> {
        let mut map = ext_load(fs, ino);
        if let Some(b) = map.lookup(idx) {
            return Ok(b);
        }
        // Grow contiguously after the block backing idx-1 when possible.
        let after = idx.checked_sub(1).and_then(|p| map.lookup(p));
        let blk = alloc_in_ag(fs, ino % fs.geo.nags, after)?;
        fs.cache.zero_block(blk, BlockClass::Data);
        map.insert(idx, blk);
        match ext_store(fs, ino, &map) {
            Ok(()) => Ok(blk),
            Err(e) => {
                // Roll the allocation back; the map on disk is unchanged.
                set_allocated(fs, blk, false);
                fs.cache.evict(blk);
                Err(e)
            }
        }
    }

    fn shrink<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64, size: u64) -> FsResult<()> {
        let mut map = ext_load(fs, ino);
        for b in map.truncate_from(size.div_ceil(BLOCK)) {
            fs.free_block(b);
        }
        // Zero the kept boundary tail so later extension reads zeros.
        if !size.is_multiple_of(BLOCK) {
            if let Some(b) = map.lookup(size / BLOCK) {
                fs.zero_range(b, size % BLOCK, BLOCK - size % BLOCK);
            }
        }
        ext_store(fs, ino, &map)
    }

    fn punch_block<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64, idx: u64) -> FsResult<()> {
        let mut map = ext_load(fs, ino);
        if let Some(b) = map.remove(idx) {
            // A split may overflow the inline map; fall back to zeroing in
            // place.
            if ext_store(fs, ino, &map).is_ok() {
                fs.free_block(b);
            } else {
                fs.zero_range(b, 0, BLOCK);
            }
        }
        Ok(())
    }

    fn release_inode<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64) {
        for b in Self::mapped(fs, ino) {
            fs.free_block(b);
        }
        if let Some(x) = fs.valid_blk(fs.iget(ino, ioff::XATTR)) {
            fs.free_block(x);
        }
        fs.zero_inode(ino);
    }
}

// ---- the write-ahead log ----

fn log_capacity(geo: &Geometry) -> usize {
    ((BLOCK as usize - 24) / 8).min(geo.log_blocks as usize - 2)
}

fn log_checksum<B: AsRef<[u8]>>(blocks: &[(u64, B)]) -> u64 {
    let mut acc: u64 = 0x786c_6f67; // "xlog"
    for (blkno, data) in blocks {
        acc = acc.rotate_left(9) ^ blkno ^ block_sum(data.as_ref());
    }
    acc
}

/// Commits `blocks` (home block number, contents — borrowed from the
/// page cache) through the log and checkpoints them home.
fn log_commit<D: PmBackend>(dev: &mut D, geo: &Geometry, blocks: &[(u64, &[u8])]) -> FsResult<()> {
    let cap = log_capacity(geo).max(1);
    for chunk in blocks.chunks(cap) {
        log_commit_one(dev, geo, chunk)?;
    }
    Ok(())
}

fn log_commit_one<D: PmBackend>(
    dev: &mut D,
    geo: &Geometry,
    blocks: &[(u64, &[u8])],
) -> FsResult<()> {
    if blocks.is_empty() {
        return Ok(());
    }
    let seq = dev.read_u64(sboff::LOG_SEQ);
    let lbase = geo.log_start * BLOCK;
    let mut desc = vec![0u8; BLOCK as usize];
    desc[0..8].copy_from_slice(&LOG_DESC.to_le_bytes());
    desc[8..16].copy_from_slice(&seq.to_le_bytes());
    desc[16..24].copy_from_slice(&(blocks.len() as u64).to_le_bytes());
    for (i, (blkno, _)) in blocks.iter().enumerate() {
        desc[24 + i * 8..32 + i * 8].copy_from_slice(&blkno.to_le_bytes());
    }
    dev.memcpy_nt(lbase, &desc);
    for (i, (_, data)) in blocks.iter().enumerate() {
        dev.memcpy_nt(lbase + (1 + i as u64) * BLOCK, data);
    }
    dev.fence();
    let mut commit = [0u8; 24];
    commit[0..8].copy_from_slice(&LOG_COMMIT.to_le_bytes());
    commit[8..16].copy_from_slice(&seq.to_le_bytes());
    commit[16..24].copy_from_slice(&log_checksum(blocks).to_le_bytes());
    dev.memcpy_nt(lbase + (1 + blocks.len() as u64) * BLOCK, &commit);
    dev.fence();
    for (blkno, data) in blocks {
        dev.memcpy_nt(blkno * BLOCK, data);
    }
    dev.fence();
    dev.persist_u64(sboff::LOG_SEQ, seq + 1);
    Ok(())
}

fn recover_log<D: PmBackend>(dev: &mut D, geo: &Geometry) -> FsResult<u64> {
    let seq = dev.read_u64(sboff::LOG_SEQ);
    let lbase = geo.log_start * BLOCK;
    if dev.read_u64(lbase) != LOG_DESC || dev.read_u64(lbase + 8) != seq {
        return Ok(0);
    }
    let n = dev.read_u64(lbase + 16);
    if n == 0 || n > log_capacity(geo) as u64 {
        return Err(FsError::Unmountable(format!(
            "log descriptor claims {n} blocks, exceeding log capacity"
        )));
    }
    let commit_off = lbase + (1 + n) * BLOCK;
    if dev.read_u64(commit_off) != LOG_COMMIT || dev.read_u64(commit_off + 8) != seq {
        return Ok(0); // uncommitted transaction: discard
    }
    let mut blocks = Vec::with_capacity(n as usize);
    for i in 0..n {
        let blkno = dev.read_u64(lbase + 24 + i * 8);
        if blkno >= geo.total_blocks {
            return Err(FsError::Unmountable(format!(
                "log record targets out-of-range block {blkno}"
            )));
        }
        blocks.push((blkno, dev.read_vec(lbase + (1 + i) * BLOCK, BLOCK)));
    }
    if dev.read_u64(commit_off + 16) != log_checksum(&blocks) {
        return Ok(0); // torn commit: discard
    }
    for (blkno, data) in &blocks {
        dev.memcpy_nt(blkno * BLOCK, data);
    }
    dev.fence();
    dev.persist_u64(sboff::LOG_SEQ, seq + 1);
    Ok(n)
}

// ---- extent maps ----

/// Decodes the inode's extent records, dropping corrupt ones (crash states
/// can hold arbitrary bytes; garbage must surface as detectable
/// inconsistency, not out-of-range access).
fn ext_load<D: PmBackend>(fs: &XfsDax<D>, ino: u64) -> ExtentMap {
    let n = (fs.iget(ino, ioff::NEXTENTS) as usize).min(NEXTENTS);
    let mut map = ExtentMap::default();
    for i in 0..n {
        let base = ioff::EXTENTS + i as u64 * 24;
        let file_blk = fs.iget(ino, base);
        let start = fs.iget(ino, base + 8);
        let len = fs.iget(ino, base + 16);
        let end_ok = len > 0
            && len <= MAX_FILE_BLOCKS
            && file_blk < MAX_FILE_BLOCKS
            && fs.valid_blk(start).is_some()
            && start + len <= fs.geo.total_blocks;
        if end_ok && (file_blk..file_blk + len).all(|fb| map.lookup(fb).is_none()) {
            for k in 0..len {
                map.insert(file_blk + k, start + k);
            }
        }
    }
    map
}

fn ext_store<D: PmBackend>(fs: &mut XfsDax<D>, ino: u64, map: &ExtentMap) -> FsResult<()> {
    if map.extents.len() > NEXTENTS {
        return Err(FsError::NoSpace); // EFBIG: inline extent map is full
    }
    fs.iset(ino, ioff::NEXTENTS, map.extents.len() as u64);
    for (i, e) in map.extents.iter().enumerate() {
        let base = ioff::EXTENTS + i as u64 * 24;
        fs.iset(ino, base, e.file_blk);
        fs.iset(ino, base + 8, e.start);
        fs.iset(ino, base + 16, e.len);
    }
    Ok(())
}

// ---- allocation groups ----

/// AG-bitmap block, byte within it and bit mask of block `blk`.
fn ag_bit(geo: &Geometry, blk: u64) -> (u64, u64, u8) {
    let ag = geo.ag_of(blk);
    let idx = blk - geo.ag_range(ag).0;
    (geo.agf_block(ag), idx / 8, 1u8 << (idx % 8))
}

fn is_allocated<D: PmBackend>(fs: &mut XfsDax<D>, blk: u64) -> bool {
    let (ablk, byte, mask) = ag_bit(&fs.geo, blk);
    let mut b = [0u8; 1];
    fs.cache.read(&fs.dev, ablk, byte, &mut b);
    b[0] & mask != 0
}

fn set_allocated<D: PmBackend>(fs: &mut XfsDax<D>, blk: u64, on: bool) {
    let (ablk, byte, mask) = ag_bit(&fs.geo, blk);
    let mut b = [0u8; 1];
    fs.cache.read(&fs.dev, ablk, byte, &mut b);
    if on {
        b[0] |= mask;
    } else {
        b[0] &= !mask;
    }
    fs.cache.write(&fs.dev, ablk, byte, &b, BlockClass::Meta);
}

/// Allocates one block, preferring `after + 1` (extent growth), then the
/// hint AG, then any AG.
fn alloc_in_ag<D: PmBackend>(
    fs: &mut XfsDax<D>,
    hint_ag: u64,
    after: Option<u64>,
) -> FsResult<u64> {
    if let Some(prev) = after {
        let next = prev + 1;
        if next < fs.geo.total_blocks
            && next >= fs.geo.data_start
            && fs.geo.ag_of(next) == fs.geo.ag_of(prev)
            && !is_allocated(fs, next)
        {
            set_allocated(fs, next, true);
            return Ok(next);
        }
    }
    for probe in 0..fs.geo.nags {
        let ag = (hint_ag + probe) % fs.geo.nags;
        let (start, end) = fs.geo.ag_range(ag);
        for blk in start..end {
            if !is_allocated(fs, blk) {
                covpoint!(fs.cov, probe);
                set_allocated(fs, blk, true);
                return Ok(blk);
            }
        }
    }
    Err(FsError::NoSpace)
}

#[cfg(test)]
mod tests {
    use pmem::PmDevice;
    use pmlog::{LogEntry, LogHandle, LoggingPm};

    use super::*;

    const SIZE: u64 = 8 * 1024 * 1024;

    fn descriptor(seq: u64, blknos: &[u64]) -> Vec<u8> {
        let mut desc = vec![0u8; BLOCK as usize];
        desc[0..8].copy_from_slice(&LOG_DESC.to_le_bytes());
        desc[8..16].copy_from_slice(&seq.to_le_bytes());
        desc[16..24].copy_from_slice(&(blknos.len() as u64).to_le_bytes());
        for (i, b) in blknos.iter().enumerate() {
            desc[24 + i * 8..32 + i * 8].copy_from_slice(&b.to_le_bytes());
        }
        desc
    }

    fn commit_record(seq: u64, blocks: &[(u64, &[u8])]) -> [u8; 24] {
        let mut commit = [0u8; 24];
        commit[0..8].copy_from_slice(&LOG_COMMIT.to_le_bytes());
        commit[8..16].copy_from_slice(&seq.to_le_bytes());
        commit[16..24].copy_from_slice(&log_checksum(blocks).to_le_bytes());
        commit
    }

    #[test]
    fn committed_but_uncheckpointed_transaction_replays_unless_a_payload_word_is_torn() {
        let geo = Geometry::for_device(SIZE).unwrap();
        let mut dev = PmDevice::new(SIZE);
        let blk = geo.data_start + 1;
        let lbase = geo.log_start * BLOCK;
        let old: Vec<u8> = (0..BLOCK).map(|i| (i * 7 + 3) as u8).collect();
        let data: Vec<u8> = (0..BLOCK).map(|i| (i * 13 + 5) as u8).collect();
        let home = dev.read_vec(blk * BLOCK, BLOCK);
        // A crash right after the commit record: log written, home not
        // updated, sequence not bumped.
        let seq = dev.read_u64(sboff::LOG_SEQ);
        dev.memcpy_nt(lbase, &descriptor(seq, &[blk]));
        dev.memcpy_nt(lbase + BLOCK, &data);
        dev.memcpy_nt(lbase + 2 * BLOCK, &commit_record(seq, &[(blk, &data)]));
        dev.fence();
        // One 8-byte store of the payload never reached the media (the log
        // block still holds its old bytes there): the checksum must tell.
        for word in [0usize, 1, 3, 255, 510, 511] {
            let at = word * 8;
            dev.memcpy_nt(lbase + BLOCK + at as u64, &old[at..at + 8]);
            dev.fence();
            assert_eq!(recover_log(&mut dev, &geo).unwrap(), 0, "word {word} torn");
            assert_eq!(dev.read_vec(blk * BLOCK, BLOCK), home, "home block untouched");
            assert_eq!(dev.read_u64(sboff::LOG_SEQ), seq);
            dev.memcpy_nt(lbase + BLOCK + at as u64, &data[at..at + 8]);
            dev.fence();
        }
        assert_eq!(recover_log(&mut dev, &geo).unwrap(), 1);
        assert_eq!(dev.read_vec(blk * BLOCK, BLOCK), data);
        assert_eq!(dev.read_u64(sboff::LOG_SEQ), seq + 1);
    }

    /// The commit path borrows its blocks instead of copying them; the
    /// device must see what it always saw — every store, in order, byte for
    /// byte, the whole 4 KiB descriptor block included.
    #[test]
    fn log_commit_issues_the_same_stores_in_the_same_order() {
        let geo = Geometry::for_device(SIZE).unwrap();
        let log = LogHandle::new();
        let mut dev = LoggingPm::new(PmDevice::new(SIZE), log.clone());
        let a: Vec<u8> = (0..BLOCK).map(|i| (i * 3 + 1) as u8).collect();
        let b: Vec<u8> = (0..BLOCK).map(|i| (i * 5 + 2) as u8).collect();
        let (home_a, home_b) = (geo.data_start + 9, geo.data_start + 3);
        let blocks: [(u64, &[u8]); 2] = [(home_a, &a), (home_b, &b)];
        log_commit(&mut dev, &geo, &blocks).unwrap();

        let lbase = geo.log_start * BLOCK;
        let nt = |off: u64, data: &[u8]| LogEntry::Nt { off, data: data.to_vec() };
        // The retired sequence number lands with its whole cache line.
        let line = sboff::LOG_SEQ / 64 * 64;
        let mut seq_line = vec![0u8; 64];
        let at = (sboff::LOG_SEQ - line) as usize;
        seq_line[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
        let expected = [
            nt(lbase, &descriptor(0, &[home_a, home_b])),
            nt(lbase + BLOCK, &a),
            nt(lbase + 2 * BLOCK, &b),
            LogEntry::Fence,
            nt(lbase + 3 * BLOCK, &commit_record(0, &blocks)),
            LogEntry::Fence,
            nt(home_a * BLOCK, &a),
            nt(home_b * BLOCK, &b),
            LogEntry::Fence,
            LogEntry::Flush { off: line, data: seq_line },
            LogEntry::Fence,
        ];
        let got = log.take();
        assert_eq!(got.len(), expected.len());
        for (i, (got, want)) in got.entries().iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "log entry {i}");
        }
    }
}
