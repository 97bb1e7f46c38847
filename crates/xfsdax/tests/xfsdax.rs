//! Functional and crash tests for the XFS-DAX analogue.

use pmem::PmDevice;
use vfs::{
    fs::{FileSystem, FsKind, FsOptions},
    FsError, FileType, Op, OpenFlags, Workload,
};
use xfsdax::{XfsDax, XfsDaxKind};

const DEV: u64 = 8 * 1024 * 1024;

fn fresh() -> XfsDax<PmDevice> {
    XfsDax::mkfs(PmDevice::new(DEV), &FsOptions::default()).unwrap()
}

fn crash_and_remount(fs: XfsDax<PmDevice>) -> Result<XfsDax<PmDevice>, FsError> {
    let img = fs.into_device().persistent_image().to_vec();
    XfsDax::mount(PmDevice::from_image(img), &FsOptions::default())
}

#[test]
fn create_write_read_roundtrip() {
    let mut fs = fresh();
    let fd = fs.open("/f", OpenFlags::CREAT_TRUNC).unwrap();
    fs.pwrite(fd, 10, b"xfs extents").unwrap();
    fs.close(fd).unwrap();
    let data = fs.read_file("/f").unwrap();
    assert_eq!(&data[10..], b"xfs extents");
    assert_eq!(fs.stat("/f").unwrap().ftype, FileType::Regular);
}

#[test]
fn contiguous_writes_build_one_extent() {
    let mut fs = fresh();
    let fd = fs.open("/f", OpenFlags::CREAT_TRUNC).unwrap();
    // 5 sequential blocks: the allocator should grow one extent.
    fs.pwrite(fd, 0, &vec![7u8; 5 * 4096]).unwrap();
    fs.close(fd).unwrap();
    let st = fs.stat("/f").unwrap();
    assert_eq!(st.blocks, 5);
    assert_eq!(fs.read_file("/f").unwrap(), vec![7u8; 5 * 4096]);
}

#[test]
fn sync_persists_and_remount_recovers() {
    let mut fs = fresh();
    fs.mkdir("/d").unwrap();
    let fd = fs.open("/d/f", OpenFlags::CREAT_TRUNC).unwrap();
    fs.pwrite(fd, 0, &vec![3u8; 10_000]).unwrap();
    fs.close(fd).unwrap();
    fs.link("/d/f", "/g").unwrap();
    fs.sync().unwrap();
    let fs2 = crash_and_remount(fs).unwrap();
    assert_eq!(fs2.read_file("/d/f").unwrap(), vec![3u8; 10_000]);
    assert_eq!(fs2.stat("/g").unwrap().nlink, 2);
}

#[test]
fn unsynced_state_lost_but_mountable() {
    let mut fs = fresh();
    fs.creat("/gone").unwrap();
    let fs2 = crash_and_remount(fs).unwrap();
    assert_eq!(fs2.stat("/gone"), Err(FsError::NotFound));
}

#[test]
fn truncate_and_punch_and_zero() {
    let mut fs = fresh();
    let fd = fs.open("/f", OpenFlags::CREAT_TRUNC).unwrap();
    fs.pwrite(fd, 0, &vec![9u8; 12_288]).unwrap();
    fs.fallocate(fd, vfs::FallocMode::PunchHole, 4096, 4096).unwrap();
    assert_eq!(fs.stat("/f").unwrap().blocks, 2);
    fs.fallocate(fd, vfs::FallocMode::ZeroRange, 0, 100).unwrap();
    let data = fs.read_file("/f").unwrap();
    assert!(data[..100].iter().all(|&b| b == 0));
    assert!(data[4096..8192].iter().all(|&b| b == 0));
    assert_eq!(data[100], 9);
    fs.truncate("/f", 5).unwrap();
    fs.truncate("/f", 100).unwrap();
    let data = fs.read_file("/f").unwrap();
    assert_eq!(&data[..5], &[0u8; 5][..]); // zero-ranged earlier
    assert!(data[5..].iter().all(|&b| b == 0));
    fs.close(fd).unwrap();
}

#[test]
fn allocation_groups_spread_files() {
    let mut fs = fresh();
    // Different inodes hash to different AGs; all writes must still work
    // and be disjoint.
    for i in 0..8 {
        let p = format!("/f{i}");
        let fd = fs.open(&p, OpenFlags::CREAT_TRUNC).unwrap();
        fs.pwrite(fd, 0, &vec![i as u8 + 1; 8192]).unwrap();
        fs.close(fd).unwrap();
    }
    fs.sync().unwrap();
    let fs2 = crash_and_remount(fs).unwrap();
    for i in 0..8 {
        assert_eq!(fs2.read_file(&format!("/f{i}")).unwrap(), vec![i as u8 + 1; 8192]);
    }
}

#[test]
fn block_reuse_waits_for_commit() {
    // The ordered-mode reuse rule: blocks freed by an uncommitted unlink
    // must not be recycled for in-place data before the commit lands.
    let mut fs = fresh();
    let fd = fs.open("/victim", OpenFlags::CREAT_TRUNC).unwrap();
    fs.pwrite(fd, 0, &vec![1u8; 8192]).unwrap();
    fs.close(fd).unwrap();
    fs.sync().unwrap();
    fs.unlink("/victim").unwrap();
    let fd = fs.open("/new", OpenFlags::CREAT_TRUNC).unwrap();
    fs.pwrite(fd, 0, &vec![2u8; 8192]).unwrap();
    fs.close(fd).unwrap();
    // Crash before any post-unlink sync: /victim must be fully intact.
    let fs2 = crash_and_remount(fs).unwrap();
    assert_eq!(fs2.read_file("/victim").unwrap(), vec![1u8; 8192]);
}

#[test]
fn xattrs_roundtrip() {
    let mut fs = fresh();
    fs.creat("/f").unwrap();
    fs.setxattr("/f", "user.a", b"1").unwrap();
    fs.setxattr("/f", "user.b", b"2").unwrap();
    fs.removexattr("/f", "user.a").unwrap();
    assert_eq!(fs.removexattr("/f", "user.a"), Err(FsError::NotFound));
}

#[test]
fn chipmunk_weak_suite_is_clean() {
    use chipmunk::{test_workload, TestConfig};
    let kind = XfsDaxKind::default();
    assert!(!kind.guarantees().strong);
    let workloads = vec![
        Workload::new(
            "w1",
            vec![
                Op::Mkdir { path: "/d".into() },
                Op::WritePath { path: "/d/f".into(), off: 0, size: 3000 },
                Op::FsyncPath { path: "/d/f".into() },
                Op::Rename { old: "/d/f".into(), new: "/g".into() },
                Op::Sync,
            ],
        ),
        Workload::new(
            "w2",
            vec![
                Op::WritePath { path: "/f".into(), off: 0, size: 9000 },
                Op::Truncate { path: "/f".into(), size: 100 },
                Op::FsyncPath { path: "/f".into() },
            ],
        ),
    ];
    for w in &workloads {
        let out = test_workload(&kind, w, &TestConfig::default());
        assert!(
            out.reports.is_empty(),
            "XFS-DAX violated {}:\n{}",
            w.name,
            out.reports.iter().map(|r| r.to_text()).collect::<String>()
        );
        assert!(out.crash_states > 0);
    }
}

/// A commit hands the device the page-cache blocks themselves rather than
/// copies: the log of one `fsync` must still be the ordered-mode protocol,
/// entry for entry — file data in place, fence, the whole 4 KiB descriptor,
/// the payload, fence, commit record, fence, the same payload bytes at their
/// home blocks, fence, sequence bump — and what was stored is what the
/// device holds afterwards.
#[test]
fn fsync_stores_the_cached_blocks_in_protocol_order() {
    use pmem::PmBackend;
    use pmlog::{LogEntry, LogHandle, LoggingPm};
    use xfsdax::layout::{Geometry, BLOCK};

    let log = LogHandle::new();
    let dev = LoggingPm::new(PmDevice::new(DEV), log.clone());
    let mut fs = XfsDax::mkfs(dev, &FsOptions::default()).unwrap();
    fs.mkdir("/d").unwrap();
    let fd = fs.open("/d/f", OpenFlags::CREAT_TRUNC).unwrap();
    let payload: Vec<u8> = (0..3 * BLOCK + 100).map(|i| (i % 251) as u8).collect();
    fs.pwrite(fd, 0, &payload).unwrap();
    log.take(); // mkfs; nothing since reaches the device before the commit
    fs.fsync(fd).unwrap();
    let taken = log.take();
    let image = fs.into_device().into_inner();
    let geo = Geometry::for_device(DEV).unwrap();
    let jbase = geo.log_start * BLOCK;

    // The stores in order (the fences between them are checked at the end).
    let mut stores = taken.entries().iter().filter_map(|e| match e {
        LogEntry::Nt { off, data } => Some((*off, data.clone())),
        _ => None,
    });
    let mut next_nt = |what: &str| stores.next().unwrap_or_else(|| panic!("{what}: log ended"));
    // Ordered mode: the four dirty data blocks first, in place.
    let mut file = Vec::new();
    for i in 0..4 {
        let (off, data) = next_nt("data block");
        assert_eq!((off % BLOCK, data.len() as u64), (0, BLOCK), "data block {i}");
        assert_eq!(image.read_vec(off, BLOCK), data);
        file.extend_from_slice(&data);
    }
    assert_eq!(file[..payload.len()], payload[..]);
    assert!(file[payload.len()..].iter().all(|&b| b == 0));
    let (off, desc) = next_nt("descriptor");
    let n = u64::from_le_bytes(desc[16..24].try_into().unwrap());
    assert_eq!((off, desc.len() as u64), (jbase, BLOCK));
    assert!(n >= 2, "inode table and directory block at least");
    assert!(desc[24 + 8 * n as usize..].iter().all(|&b| b == 0), "descriptor padding");
    let homes: Vec<u64> = (0..n as usize)
        .map(|i| u64::from_le_bytes(desc[24 + 8 * i..32 + 8 * i].try_into().unwrap()))
        .collect();
    assert!(homes.windows(2).all(|w| w[0] < w[1]), "ascending home blocks");
    let journaled: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let (off, data) = next_nt("journal payload");
            assert_eq!((off, data.len() as u64), (jbase + (1 + i) * BLOCK, BLOCK));
            data
        })
        .collect();
    let (off, commit) = next_nt("commit record");
    assert_eq!((off, commit.len()), (jbase + (1 + n) * BLOCK, 24));
    for (home, data) in homes.iter().zip(&journaled) {
        assert_eq!(next_nt("checkpoint"), (home * BLOCK, data.clone()));
        assert_eq!(&image.read_vec(home * BLOCK, BLOCK), data);
    }
    // And the fences fall between the phases, with nothing else in the log.
    let kinds: Vec<&str> = taken
        .entries()
        .iter()
        .map(|e| match e {
            LogEntry::Nt { .. } => "nt",
            LogEntry::Fence => "fence",
            LogEntry::Flush { .. } => "flush",
            _ => "other",
        })
        .collect();
    let n = n as usize;
    let protocol = [
        vec!["nt"; 4], // file data, in place
        vec!["fence"],
        vec!["nt"; 1 + n], // descriptor + payload
        vec!["fence", "nt", "fence"], // commit record
        vec!["nt"; n], // checkpoint
        vec!["fence", "flush", "fence"], // sequence bump
    ]
    .concat();
    assert_eq!(kinds, protocol);
}

/// A directory entry whose inode number lies outside the inode table (a
/// crash state can hold arbitrary bytes) must surface as detected
/// corruption from every call that looks the entry up — never as an
/// out-of-range index into the inode table.
#[test]
fn out_of_range_dentry_inode_is_corrupt_not_a_panic() {
    use pmem::PmBackend;
    use vfs::pagedfs::RawDentry;
    use xfsdax::layout::Geometry;

    let mut fs = fresh();
    fs.creat("/victim").unwrap();
    fs.mkdir("/vdir").unwrap();
    fs.creat("/src").unwrap();
    fs.sync().unwrap();
    let inos = ["/victim", "/vdir"].map(|p| fs.stat(p).unwrap().ino);
    let mut dev = fs.into_device();
    let bogus = Geometry::for_device(DEV).unwrap().inode_count + 5;
    for (name, ino) in ["victim", "vdir"].into_iter().zip(inos) {
        let enc = RawDentry { ino, name: name.into() }.encode();
        let image = dev.read_vec(0, DEV);
        // The last copy is the home block; earlier ones are retired log payload.
        let at = image.windows(enc.len()).rposition(|w| w == enc).expect("dentry on media");
        dev.persist(at as u64, &bogus.to_le_bytes());
    }
    let mut fs = XfsDax::mount(dev, &FsOptions::default()).unwrap();
    assert!(matches!(fs.unlink("/victim"), Err(FsError::Corrupt(_))));
    assert!(matches!(fs.rmdir("/vdir"), Err(FsError::Corrupt(_))));
    assert!(matches!(fs.rename("/src", "/victim"), Err(FsError::Corrupt(_))));
    assert!(matches!(fs.stat("/victim"), Err(FsError::Corrupt(_))));
    assert!(fs.stat("/src").is_ok(), "the refused rename left its source alone");
}

#[test]
fn fallocate_range_overflow_is_invalid() {
    let mut fs = fresh();
    let fd = fs.open("/f", OpenFlags::CREAT_TRUNC).unwrap();
    for mode in vfs::FallocMode::ALL {
        assert_eq!(fs.fallocate(fd, mode, u64::MAX - 1, 4), Err(FsError::Invalid), "{mode:?}");
    }
}
