//! The physical redo log both DAX controls commit through: ext4-DAX's
//! jbd2-style journal and XFS-DAX's write-ahead log are one protocol with
//! different constants.
//!
//! A transaction is laid out from the start of the log region as a
//! descriptor block (magic, transaction id, home block numbers), the payload
//! blocks, and a commit record carrying a checksum over the payload. The
//! transaction id must match the superblock's sequence number to be live;
//! checkpointing bumps the sequence, which retires the transaction without
//! erasing it.
//!
//! Crash safety is the classic redo argument: a transaction missing its
//! commit record (or failing its checksum) is ignored at mount, leaving the
//! pre-`fsync` state — allowed under weak guarantees because the `fsync`
//! never returned. A committed transaction is idempotently replayable.

use std::ops::Range;

use pmem::PmBackend;

use crate::{cov::block_sum, pagecache::BLOCK, FsError, FsResult};

/// One format of the redo log: the constants that tell ext4-DAX's journal
/// from XFS-DAX's log. The protocol is [`RedoLog::commit`] and
/// [`RedoLog::recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedoLog {
    /// Tag of a descriptor block.
    pub desc_magic: u64,
    /// Tag of a commit record.
    pub commit_magic: u64,
    /// Initial value of the payload checksum.
    pub seed: u64,
    /// Left rotation of the checksum before each payload block folds in.
    pub rotate: u32,
    /// Superblock byte offset of the sequence number: the id of the next
    /// transaction recovery accepts (u64).
    pub seq_off: u64,
}

impl RedoLog {
    /// Home blocks one transaction in the log region `log` can carry: what
    /// the descriptor block holds after its 24-byte header, and what fits
    /// between the descriptor and the commit record.
    fn capacity(log: &Range<u64>) -> usize {
        ((BLOCK as usize - 24) / 8).min((log.end - log.start) as usize - 2)
    }

    fn checksum<B: AsRef<[u8]>>(&self, blocks: &[(u64, B)]) -> u64 {
        let mut acc = self.seed;
        for (blkno, data) in blocks {
            acc = acc.rotate_left(self.rotate) ^ blkno ^ block_sum(data.as_ref());
        }
        acc
    }

    /// Commits `blocks` (home block number, contents — borrowed from the
    /// page cache) through the log region `log` and checkpoints them home,
    /// one transaction per capacity-sized chunk.
    ///
    /// On return everything is persistent and the log is retired.
    pub fn commit<D: PmBackend>(&self, dev: &mut D, log: Range<u64>, blocks: &[(u64, &[u8])]) {
        for chunk in blocks.chunks(Self::capacity(&log).max(1)) {
            self.commit_one(dev, log.start * BLOCK, chunk);
        }
    }

    fn commit_one<D: PmBackend>(&self, dev: &mut D, base: u64, blocks: &[(u64, &[u8])]) {
        if blocks.is_empty() {
            return;
        }
        let seq = dev.read_u64(self.seq_off);

        // 1. Descriptor + payload.
        let mut desc = vec![0u8; BLOCK as usize];
        desc[0..8].copy_from_slice(&self.desc_magic.to_le_bytes());
        desc[8..16].copy_from_slice(&seq.to_le_bytes());
        desc[16..24].copy_from_slice(&(blocks.len() as u64).to_le_bytes());
        for (i, (blkno, _)) in blocks.iter().enumerate() {
            desc[24 + i * 8..32 + i * 8].copy_from_slice(&blkno.to_le_bytes());
        }
        dev.memcpy_nt(base, &desc);
        for (i, (_, data)) in blocks.iter().enumerate() {
            dev.memcpy_nt(base + (1 + i as u64) * BLOCK, data);
        }
        dev.fence();

        // 2. Commit record.
        let mut commit = [0u8; 24];
        commit[0..8].copy_from_slice(&self.commit_magic.to_le_bytes());
        commit[8..16].copy_from_slice(&seq.to_le_bytes());
        commit[16..24].copy_from_slice(&self.checksum(blocks).to_le_bytes());
        dev.memcpy_nt(base + (1 + blocks.len() as u64) * BLOCK, &commit);
        dev.fence();

        // 3. Checkpoint home.
        for (blkno, data) in blocks {
            dev.memcpy_nt(blkno * BLOCK, data);
        }
        dev.fence();

        // 4. Retire the transaction.
        dev.persist_u64(self.seq_off, seq + 1);
    }

    /// Replays a committed-but-unretired transaction in the log region
    /// `log` at mount, if there is one; home blocks must lie below
    /// `total_blocks`.
    ///
    /// Returns the number of blocks replayed.
    pub fn recover<D: PmBackend>(
        &self,
        dev: &mut D,
        log: Range<u64>,
        total_blocks: u64,
    ) -> FsResult<u64> {
        let seq = dev.read_u64(self.seq_off);
        let base = log.start * BLOCK;
        if dev.read_u64(base) != self.desc_magic || dev.read_u64(base + 8) != seq {
            return Ok(0); // empty or retired log
        }
        let n = dev.read_u64(base + 16);
        if n == 0 || n > Self::capacity(&log) as u64 {
            return Err(FsError::Unmountable(format!(
                "log descriptor claims {n} blocks, exceeding log capacity"
            )));
        }
        let commit_off = base + (1 + n) * BLOCK;
        if dev.read_u64(commit_off) != self.commit_magic || dev.read_u64(commit_off + 8) != seq {
            return Ok(0); // uncommitted: discard
        }
        // Gather the payload and verify the checksum.
        let mut blocks = Vec::with_capacity(n as usize);
        for i in 0..n {
            let blkno = dev.read_u64(base + 24 + i * 8);
            if blkno >= total_blocks {
                return Err(FsError::Unmountable(format!(
                    "log record targets out-of-range block {blkno}"
                )));
            }
            blocks.push((blkno, dev.read_vec(base + (1 + i) * BLOCK, BLOCK)));
        }
        if dev.read_u64(commit_off + 16) != self.checksum(&blocks) {
            return Ok(0); // torn commit: discard
        }
        for (blkno, data) in &blocks {
            dev.memcpy_nt(blkno * BLOCK, data);
        }
        dev.fence();
        dev.persist_u64(self.seq_off, seq + 1);
        Ok(n)
    }
}

/// Every case runs against both formats. Expected descriptor and commit
/// bytes are built here by hand from each row's constants, never through
/// the code under test.
#[cfg(test)]
mod tests {
    use pmem::PmDevice;
    use pmlog::{LogEntry, LogHandle, LoggingPm};

    use super::*;

    const SIZE: u64 = 8 * 1024 * 1024;
    const TOTAL: u64 = SIZE / BLOCK;

    /// One format as its crate lays it out on an 8 MiB device.
    struct Format {
        name: &'static str,
        log: RedoLog,
        region: Range<u64>,
    }

    /// ext4-DAX's journal and XFS-DAX's log.
    const FORMATS: [Format; 2] = [
        Format {
            name: "ext4-dax",
            log: RedoLog {
                desc_magic: u64::from_le_bytes(*b"J4DESC\0\0"),
                commit_magic: u64::from_le_bytes(*b"J4COMMIT"),
                seed: 0x6a64_6273,
                rotate: 7,
                seq_off: 80,
            },
            region: 2..130,
        },
        Format {
            name: "xfs-dax",
            log: RedoLog {
                desc_magic: u64::from_le_bytes(*b"XLOGDESC"),
                commit_magic: u64::from_le_bytes(*b"XLOGCMMT"),
                seed: 0x786c_6f67,
                rotate: 9,
                seq_off: 80,
            },
            region: 1..129,
        },
    ];

    /// A home block well clear of every format's log.
    const HOME: u64 = 200;

    fn base(f: &Format) -> u64 {
        f.region.start * BLOCK
    }

    fn live_seq<D: PmBackend>(dev: &D, f: &Format) -> u64 {
        dev.read_u64(f.log.seq_off)
    }

    fn descriptor(f: &Format, seq: u64, blknos: &[u64]) -> Vec<u8> {
        let mut desc = vec![0u8; BLOCK as usize];
        desc[0..8].copy_from_slice(&f.log.desc_magic.to_le_bytes());
        desc[8..16].copy_from_slice(&seq.to_le_bytes());
        desc[16..24].copy_from_slice(&(blknos.len() as u64).to_le_bytes());
        for (i, b) in blknos.iter().enumerate() {
            desc[24 + i * 8..32 + i * 8].copy_from_slice(&b.to_le_bytes());
        }
        desc
    }

    fn commit_record(f: &Format, seq: u64, blocks: &[(u64, &[u8])]) -> [u8; 24] {
        let mut sum = f.log.seed;
        for (blkno, data) in blocks {
            sum = sum.rotate_left(f.log.rotate) ^ blkno ^ block_sum(data);
        }
        let mut commit = [0u8; 24];
        commit[0..8].copy_from_slice(&f.log.commit_magic.to_le_bytes());
        commit[8..16].copy_from_slice(&seq.to_le_bytes());
        commit[16..24].copy_from_slice(&sum.to_le_bytes());
        commit
    }

    fn recover<D: PmBackend>(dev: &mut D, f: &Format) -> FsResult<u64> {
        f.log.recover(dev, f.region.clone(), TOTAL)
    }

    /// A crash right after the commit record: log written, home not
    /// updated, sequence not bumped. Returns the live sequence number.
    fn crash_after_commit_record(dev: &mut PmDevice, f: &Format, blk: u64, data: &[u8]) -> u64 {
        let seq = live_seq(dev, f);
        dev.memcpy_nt(base(f), &descriptor(f, seq, &[blk]));
        dev.memcpy_nt(base(f) + BLOCK, data);
        dev.memcpy_nt(base(f) + 2 * BLOCK, &commit_record(f, seq, &[(blk, data)]));
        dev.fence();
        seq
    }

    /// The commit path borrows its blocks instead of copying them; the
    /// device must see every store, in order, byte for byte, the whole
    /// 4 KiB descriptor block included. After it the blocks are home, the
    /// transaction is retired and recovery has nothing to do.
    #[test]
    fn commit_issues_every_store_in_order() {
        for f in &FORMATS {
            let log = LogHandle::new();
            let mut dev = LoggingPm::new(PmDevice::new(SIZE), log.clone());
            let a: Vec<u8> = (0..BLOCK).map(|i| (i * 3 + 1) as u8).collect();
            let b: Vec<u8> = (0..BLOCK).map(|i| (i * 5 + 2) as u8).collect();
            let (home_a, home_b) = (HOME + 9, HOME + 3);
            let blocks: [(u64, &[u8]); 2] = [(home_a, &a), (home_b, &b)];
            f.log.commit(&mut dev, f.region.clone(), &blocks);

            let nt = |off: u64, data: &[u8]| LogEntry::Nt { off, data: data.to_vec() };
            // The retired sequence number lands with its whole cache line.
            let line = f.log.seq_off / 64 * 64;
            let mut seq_line = vec![0u8; 64];
            let at = (f.log.seq_off - line) as usize;
            seq_line[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
            let expected = [
                nt(base(f), &descriptor(f, 0, &[home_a, home_b])),
                nt(base(f) + BLOCK, &a),
                nt(base(f) + 2 * BLOCK, &b),
                LogEntry::Fence,
                nt(base(f) + 3 * BLOCK, &commit_record(f, 0, &blocks)),
                LogEntry::Fence,
                nt(home_a * BLOCK, &a),
                nt(home_b * BLOCK, &b),
                LogEntry::Fence,
                LogEntry::Flush { off: line, data: seq_line },
                LogEntry::Fence,
            ];
            let got = log.take();
            assert_eq!(got.len(), expected.len(), "{}", f.name);
            for (i, (got, want)) in got.entries().iter().zip(&expected).enumerate() {
                assert_eq!(got, want, "{}: log entry {i}", f.name);
            }

            assert_eq!(dev.read_vec(home_a * BLOCK, BLOCK), a, "{}", f.name);
            assert_eq!(live_seq(&dev, f), 1, "{}", f.name);
            assert_eq!(recover(&mut dev, f).unwrap(), 0, "{}: retired", f.name);
        }
    }

    #[test]
    fn committed_transaction_replays() {
        for f in &FORMATS {
            let mut dev = PmDevice::new(SIZE);
            let data = vec![0x5au8; BLOCK as usize];
            let seq = crash_after_commit_record(&mut dev, f, HOME, &data);
            assert_eq!(recover(&mut dev, f).unwrap(), 1, "{}", f.name);
            assert_eq!(dev.read_vec(HOME * BLOCK, BLOCK), data, "{}", f.name);
            assert_eq!(live_seq(&dev, f), seq + 1, "{}", f.name);
            assert_eq!(recover(&mut dev, f).unwrap(), 0, "{}: replays once", f.name);
        }
    }

    /// The commit record made it to the media but one 8-byte store of the
    /// payload did not (the log block still holds its old bytes there): the
    /// checksum must tell, whichever word it is.
    #[test]
    fn torn_payload_word_discards_the_commit() {
        for f in &FORMATS {
            let mut dev = PmDevice::new(SIZE);
            let old: Vec<u8> = (0..BLOCK).map(|i| (i * 7 + 3) as u8).collect();
            let data: Vec<u8> = (0..BLOCK).map(|i| (i * 13 + 5) as u8).collect();
            let home = dev.read_vec(HOME * BLOCK, BLOCK);
            let seq = crash_after_commit_record(&mut dev, f, HOME, &data);
            let payload = base(f) + BLOCK;
            for word in [0usize, 1, 3, 255, 510, 511] {
                let at = word * 8;
                dev.memcpy_nt(payload + at as u64, &old[at..at + 8]);
                dev.fence();
                assert_eq!(recover(&mut dev, f).unwrap(), 0, "{}: word {word} torn", f.name);
                assert_eq!(dev.read_vec(HOME * BLOCK, BLOCK), home, "{}: home untouched", f.name);
                assert_eq!(live_seq(&dev, f), seq, "{}", f.name);
                dev.memcpy_nt(payload + at as u64, &data[at..at + 8]);
                dev.fence();
            }
            // Whole again, it replays.
            assert_eq!(recover(&mut dev, f).unwrap(), 1, "{}", f.name);
            assert_eq!(dev.read_vec(HOME * BLOCK, BLOCK), data, "{}", f.name);
        }
    }

    /// A descriptor and payload without their commit record: the crash hit
    /// before the second fence, and the transaction is ignored.
    #[test]
    fn torn_tail_is_ignored() {
        for f in &FORMATS {
            let mut dev = PmDevice::new(SIZE);
            let data = vec![0x77u8; BLOCK as usize];
            let home = dev.read_vec(HOME * BLOCK, BLOCK);
            dev.memcpy_nt(base(f), &descriptor(f, 0, &[HOME]));
            dev.memcpy_nt(base(f) + BLOCK, &data);
            dev.fence();
            assert_eq!(recover(&mut dev, f).unwrap(), 0, "{}", f.name);
            assert_eq!(dev.read_vec(HOME * BLOCK, BLOCK), home, "{}", f.name);
            assert_eq!(live_seq(&dev, f), 0, "{}", f.name);
        }
    }

    #[test]
    fn oversized_descriptor_is_unmountable() {
        for f in &FORMATS {
            let mut dev = PmDevice::new(SIZE);
            let mut desc = vec![0u8; 32];
            desc[0..8].copy_from_slice(&f.log.desc_magic.to_le_bytes());
            desc[16..24].copy_from_slice(&100_000u64.to_le_bytes());
            dev.memcpy_nt(base(f), &desc);
            dev.fence();
            assert!(
                matches!(recover(&mut dev, f), Err(FsError::Unmountable(_))),
                "{}",
                f.name
            );
        }
    }

    /// A committed transaction naming a block past the device end must not
    /// be replayed anywhere.
    #[test]
    fn out_of_range_block_is_unmountable() {
        for f in &FORMATS {
            let mut dev = PmDevice::new(SIZE);
            let data = vec![0x11u8; BLOCK as usize];
            crash_after_commit_record(&mut dev, f, TOTAL, &data);
            assert!(
                matches!(recover(&mut dev, f), Err(FsError::Unmountable(_))),
                "{}",
                f.name
            );
            assert_eq!(live_seq(&dev, f), 0, "{}", f.name);
        }
    }

    /// More blocks than one transaction carries go out as several, each
    /// retiring one sequence number.
    #[test]
    fn multi_chunk_commit() {
        for f in &FORMATS {
            let mut dev = PmDevice::new(SIZE);
            let n = RedoLog::capacity(&f.region) + 3;
            let payload: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; BLOCK as usize]).collect();
            let blocks: Vec<(u64, &[u8])> = payload
                .iter()
                .enumerate()
                .map(|(i, data)| (HOME + i as u64, &data[..]))
                .collect();
            f.log.commit(&mut dev, f.region.clone(), &blocks);
            for (i, (blkno, _)) in blocks.iter().enumerate() {
                let want = vec![i as u8; BLOCK as usize];
                assert_eq!(dev.read_vec(blkno * BLOCK, BLOCK), want, "{}", f.name);
            }
            assert_eq!(live_seq(&dev, f), 2, "{}", f.name);
        }
    }
}
