//! Physical redo journal (jbd2-style, simplified).
//!
//! A transaction is laid out from the start of the journal region as a
//! descriptor block (magic, transaction id, home block numbers), the payload
//! blocks, and a commit block carrying a checksum over the payload. The
//! transaction id must match the superblock's journal sequence number to be
//! live; checkpointing bumps the sequence, which retires the transaction
//! without erasing it.
//!
//! Crash safety is the classic redo argument: a transaction missing its
//! commit block (or failing its checksum) is ignored at mount, leaving the
//! pre-`fsync` state — allowed under weak guarantees because the `fsync`
//! never returned. A committed transaction is idempotently replayable.

use pmem::PmBackend;
use vfs::{cov::block_sum, FsError, FsResult};

use crate::layout::{sboff, Geometry, BLOCK};

/// Magic tag of a descriptor block.
pub const DESC_MAGIC: u64 = u64::from_le_bytes(*b"J4DESC\0\0");

/// Magic tag of a commit block.
pub const COMMIT_MAGIC: u64 = u64::from_le_bytes(*b"J4COMMIT");

/// Maximum home blocks per transaction (descriptor capacity).
pub fn max_blocks_per_txn(geo: &Geometry) -> usize {
    // Descriptor block holds magic, txid, nblocks, then block numbers.
    let desc_cap = (BLOCK as usize - 24) / 8;
    // Journal must fit descriptor + payload + commit.
    desc_cap.min(geo.journal_blocks as usize - 2)
}

fn checksum<B: AsRef<[u8]>>(blocks: &[(u64, B)]) -> u64 {
    let mut acc: u64 = 0x6a64_6273; // "jdbs"
    for (blkno, data) in blocks {
        acc = acc.rotate_left(7) ^ blkno ^ block_sum(data.as_ref());
    }
    acc
}

/// Commits `blocks` (home block number, contents — borrowed from the page
/// cache) through the journal and checkpoints them home.
///
/// On return everything is persistent and the journal is retired.
pub fn commit_and_checkpoint<D: PmBackend>(
    dev: &mut D,
    geo: &Geometry,
    blocks: &[(u64, &[u8])],
) -> FsResult<()> {
    for chunk in blocks.chunks(max_blocks_per_txn(geo).max(1)) {
        commit_one(dev, geo, chunk)?;
    }
    Ok(())
}

fn commit_one<D: PmBackend>(
    dev: &mut D,
    geo: &Geometry,
    blocks: &[(u64, &[u8])],
) -> FsResult<()> {
    if blocks.is_empty() {
        return Ok(());
    }
    let seq = dev.read_u64(sboff::JOURNAL_SEQ);
    let jbase = geo.journal_start * BLOCK;

    // 1. Descriptor + payload.
    let mut desc = vec![0u8; BLOCK as usize];
    desc[0..8].copy_from_slice(&DESC_MAGIC.to_le_bytes());
    desc[8..16].copy_from_slice(&seq.to_le_bytes());
    desc[16..24].copy_from_slice(&(blocks.len() as u64).to_le_bytes());
    for (i, (blkno, _)) in blocks.iter().enumerate() {
        let o = 24 + i * 8;
        desc[o..o + 8].copy_from_slice(&blkno.to_le_bytes());
    }
    dev.memcpy_nt(jbase, &desc);
    for (i, (_, data)) in blocks.iter().enumerate() {
        dev.memcpy_nt(jbase + (1 + i as u64) * BLOCK, data);
    }
    dev.fence();

    // 2. Commit record.
    let mut commit = [0u8; 24];
    commit[0..8].copy_from_slice(&COMMIT_MAGIC.to_le_bytes());
    commit[8..16].copy_from_slice(&seq.to_le_bytes());
    commit[16..24].copy_from_slice(&checksum(blocks).to_le_bytes());
    dev.memcpy_nt(jbase + (1 + blocks.len() as u64) * BLOCK, &commit);
    dev.fence();

    // 3. Checkpoint home.
    for (blkno, data) in blocks {
        dev.memcpy_nt(blkno * BLOCK, data);
    }
    dev.fence();

    // 4. Retire the transaction.
    dev.persist_u64(sboff::JOURNAL_SEQ, seq + 1);
    Ok(())
}

/// Replays a committed-but-unretired transaction at mount, if present.
///
/// Returns the number of blocks replayed.
pub fn recover<D: PmBackend>(dev: &mut D, geo: &Geometry) -> FsResult<u64> {
    let seq = dev.read_u64(sboff::JOURNAL_SEQ);
    let jbase = geo.journal_start * BLOCK;
    if dev.read_u64(jbase) != DESC_MAGIC || dev.read_u64(jbase + 8) != seq {
        return Ok(0); // empty or retired journal
    }
    let nblocks = dev.read_u64(jbase + 16);
    if nblocks == 0 || nblocks > max_blocks_per_txn(geo) as u64 {
        return Err(FsError::Unmountable(format!(
            "journal descriptor claims {nblocks} blocks, exceeding journal capacity"
        )));
    }
    let commit_off = jbase + (1 + nblocks) * BLOCK;
    if dev.read_u64(commit_off) != COMMIT_MAGIC || dev.read_u64(commit_off + 8) != seq {
        return Ok(0); // uncommitted: discard
    }
    // Gather payload and verify the checksum.
    let mut blocks = Vec::with_capacity(nblocks as usize);
    for i in 0..nblocks {
        let blkno = dev.read_u64(jbase + 24 + i * 8);
        if blkno >= geo.total_blocks {
            return Err(FsError::Unmountable(format!(
                "journal entry targets out-of-range block {blkno}"
            )));
        }
        blocks.push((blkno, dev.read_vec(jbase + (1 + i) * BLOCK, BLOCK)));
    }
    if dev.read_u64(commit_off + 16) != checksum(&blocks) {
        return Ok(0); // torn commit: discard
    }
    for (blkno, data) in &blocks {
        dev.memcpy_nt(blkno * BLOCK, data);
    }
    dev.fence();
    dev.persist_u64(sboff::JOURNAL_SEQ, seq + 1);
    Ok(nblocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmDevice;
    use pmlog::{LogEntry, LogHandle, LoggingPm};

    fn setup() -> (PmDevice, Geometry) {
        let size = 8 * 1024 * 1024;
        let geo = Geometry::for_device(size).unwrap();
        let dev = PmDevice::new(size);
        (dev, geo)
    }

    #[test]
    fn commit_checkpoints_home() {
        let (mut dev, geo) = setup();
        let blk = geo.data_start;
        let data = vec![0xabu8; BLOCK as usize];
        commit_and_checkpoint(&mut dev, &geo, &[(blk, &data)]).unwrap();
        assert_eq!(dev.read_vec(blk * BLOCK, BLOCK), data);
        assert_eq!(dev.read_u64(sboff::JOURNAL_SEQ), 1);
        // Journal now retired: recovery is a no-op.
        assert_eq!(recover(&mut dev, &geo).unwrap(), 0);
    }

    fn descriptor(seq: u64, blknos: &[u64]) -> Vec<u8> {
        let mut desc = vec![0u8; BLOCK as usize];
        desc[0..8].copy_from_slice(&DESC_MAGIC.to_le_bytes());
        desc[8..16].copy_from_slice(&seq.to_le_bytes());
        desc[16..24].copy_from_slice(&(blknos.len() as u64).to_le_bytes());
        for (i, b) in blknos.iter().enumerate() {
            desc[24 + i * 8..32 + i * 8].copy_from_slice(&b.to_le_bytes());
        }
        desc
    }

    fn commit_record(seq: u64, blocks: &[(u64, &[u8])]) -> [u8; 24] {
        let mut commit = [0u8; 24];
        commit[0..8].copy_from_slice(&COMMIT_MAGIC.to_le_bytes());
        commit[8..16].copy_from_slice(&seq.to_le_bytes());
        commit[16..24].copy_from_slice(&checksum(blocks).to_le_bytes());
        commit
    }

    /// Simulates a crash right after the commit record: journal written,
    /// home not updated, seq not bumped. Returns the live sequence number.
    fn crash_after_commit_record(dev: &mut PmDevice, geo: &Geometry, blk: u64, data: &[u8]) -> u64 {
        let seq = dev.read_u64(sboff::JOURNAL_SEQ);
        let jbase = geo.journal_start * BLOCK;
        dev.memcpy_nt(jbase, &descriptor(seq, &[blk]));
        dev.memcpy_nt(jbase + BLOCK, data);
        dev.memcpy_nt(jbase + 2 * BLOCK, &commit_record(seq, &[(blk, data)]));
        dev.fence();
        seq
    }

    #[test]
    fn committed_but_uncheckpointed_txn_replays() {
        let (mut dev, geo) = setup();
        let blk = geo.data_start + 1;
        let data = vec![0x5au8; BLOCK as usize];
        let seq = crash_after_commit_record(&mut dev, &geo, blk, &data);

        assert_eq!(recover(&mut dev, &geo).unwrap(), 1);
        assert_eq!(dev.read_vec(blk * BLOCK, BLOCK), data);
        assert_eq!(dev.read_u64(sboff::JOURNAL_SEQ), seq + 1);
    }

    /// The commit record made it to the media but one 8-byte store of the
    /// payload did not (the journal block still holds its old bytes there):
    /// the checksum must tell, whichever word it is.
    #[test]
    fn torn_payload_word_discards_the_commit() {
        let (mut dev, geo) = setup();
        let blk = geo.data_start + 1;
        let jbase = geo.journal_start * BLOCK;
        let old: Vec<u8> = (0..BLOCK).map(|i| (i * 7 + 3) as u8).collect();
        let data: Vec<u8> = (0..BLOCK).map(|i| (i * 13 + 5) as u8).collect();
        let home = dev.read_vec(blk * BLOCK, BLOCK);
        let seq = crash_after_commit_record(&mut dev, &geo, blk, &data);
        for word in [0usize, 1, 3, 255, 510, 511] {
            let at = word * 8;
            dev.memcpy_nt(jbase + BLOCK + at as u64, &old[at..at + 8]);
            dev.fence();
            assert_eq!(recover(&mut dev, &geo).unwrap(), 0, "word {word} torn");
            assert_eq!(dev.read_vec(blk * BLOCK, BLOCK), home, "home block untouched");
            assert_eq!(dev.read_u64(sboff::JOURNAL_SEQ), seq);
            dev.memcpy_nt(jbase + BLOCK + at as u64, &data[at..at + 8]);
            dev.fence();
        }
        // Whole again, it replays.
        assert_eq!(recover(&mut dev, &geo).unwrap(), 1);
        assert_eq!(dev.read_vec(blk * BLOCK, BLOCK), data);
    }

    /// The commit path borrows its blocks instead of copying them; the
    /// device must see what it always saw — every store, in order, byte for
    /// byte, the whole 4 KiB descriptor block included.
    #[test]
    fn commit_issues_the_same_stores_in_the_same_order() {
        let size = 8 * 1024 * 1024;
        let geo = Geometry::for_device(size).unwrap();
        let log = LogHandle::new();
        let mut dev = LoggingPm::new(PmDevice::new(size), log.clone());
        let a: Vec<u8> = (0..BLOCK).map(|i| (i * 3 + 1) as u8).collect();
        let b: Vec<u8> = (0..BLOCK).map(|i| (i * 5 + 2) as u8).collect();
        let (home_a, home_b) = (geo.data_start + 9, geo.data_start + 3);
        let blocks: [(u64, &[u8]); 2] = [(home_a, &a), (home_b, &b)];
        commit_and_checkpoint(&mut dev, &geo, &blocks).unwrap();

        let jbase = geo.journal_start * BLOCK;
        let nt = |off: u64, data: &[u8]| LogEntry::Nt { off, data: data.to_vec() };
        // The retired sequence number lands with its whole cache line.
        let line = sboff::JOURNAL_SEQ / 64 * 64;
        let mut seq_line = vec![0u8; 64];
        let at = (sboff::JOURNAL_SEQ - line) as usize;
        seq_line[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
        let expected = [
            nt(jbase, &descriptor(0, &[home_a, home_b])),
            nt(jbase + BLOCK, &a),
            nt(jbase + 2 * BLOCK, &b),
            LogEntry::Fence,
            nt(jbase + 3 * BLOCK, &commit_record(0, &blocks)),
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

    #[test]
    fn torn_transaction_is_ignored() {
        let (mut dev, geo) = setup();
        let jbase = geo.journal_start * BLOCK;
        let seq = dev.read_u64(sboff::JOURNAL_SEQ);
        dev.memcpy_nt(jbase, &descriptor(seq, &[geo.data_start]));
        dev.fence();
        // No commit block.
        assert_eq!(recover(&mut dev, &geo).unwrap(), 0);
    }

    #[test]
    fn oversized_descriptor_rejected() {
        let (mut dev, geo) = setup();
        let jbase = geo.journal_start * BLOCK;
        let mut desc = vec![0u8; 32];
        desc[0..8].copy_from_slice(&DESC_MAGIC.to_le_bytes());
        desc[8..16].copy_from_slice(&0u64.to_le_bytes());
        desc[16..24].copy_from_slice(&100_000u64.to_le_bytes());
        dev.memcpy_nt(jbase, &desc);
        dev.fence();
        assert!(matches!(recover(&mut dev, &geo), Err(FsError::Unmountable(_))));
    }

    #[test]
    fn multi_chunk_commit() {
        let (mut dev, geo) = setup();
        let n = max_blocks_per_txn(&geo) + 3;
        let payload: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; BLOCK as usize]).collect();
        let blocks: Vec<(u64, &[u8])> = payload
            .iter()
            .enumerate()
            .map(|(i, data)| (geo.data_start + i as u64, &data[..]))
            .collect();
        commit_and_checkpoint(&mut dev, &geo, &blocks).unwrap();
        for (i, (blkno, _)) in blocks.iter().enumerate() {
            assert_eq!(dev.read_vec(blkno * BLOCK, BLOCK), vec![i as u8; BLOCK as usize]);
        }
        assert_eq!(dev.read_u64(sboff::JOURNAL_SEQ), 2);
    }
}
