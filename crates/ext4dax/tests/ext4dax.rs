//! Functional and crash tests for the ext4-DAX analogue.

use ext4dax::{Ext4Dax, Ext4DaxKind};
use pmem::PmDevice;
use vfs::{
    fs::{FileSystem, FsKind, FsOptions},
    model::ModelFs,
    FsError, FileType, OpenFlags,
};

const DEV: u64 = 8 * 1024 * 1024;

fn fresh() -> Ext4Dax<PmDevice> {
    Ext4Dax::mkfs(PmDevice::new(DEV), &FsOptions::default()).unwrap()
}

/// Crashes the file system right now (dropping everything not yet fenced)
/// and remounts on the resulting image.
fn crash_and_remount(fs: Ext4Dax<PmDevice>) -> Result<Ext4Dax<PmDevice>, FsError> {
    let dev = fs.into_device();
    let img = dev.persistent_image().to_vec();
    Ext4Dax::mount(PmDevice::from_image(img), &FsOptions::default())
}

#[test]
fn create_write_read() {
    let mut fs = fresh();
    let fd = fs.open("/foo", OpenFlags::CREAT_TRUNC).unwrap();
    fs.pwrite(fd, 0, b"hello world").unwrap();
    fs.close(fd).unwrap();
    assert_eq!(fs.read_file("/foo").unwrap(), b"hello world");
    let st = fs.stat("/foo").unwrap();
    assert_eq!(st.size, 11);
    assert_eq!(st.ftype, FileType::Regular);
    assert_eq!(st.nlink, 1);
}

#[test]
fn directories_and_links() {
    let mut fs = fresh();
    fs.mkdir("/d").unwrap();
    fs.creat("/d/f").unwrap();
    fs.link("/d/f", "/d/g").unwrap();
    assert_eq!(fs.stat("/d/f").unwrap().nlink, 2);
    assert_eq!(fs.stat("/d").unwrap().nlink, 2);
    fs.mkdir("/d/sub").unwrap();
    assert_eq!(fs.stat("/d").unwrap().nlink, 3);
    let names: Vec<String> = fs.readdir("/d").unwrap().into_iter().map(|e| e.name).collect();
    assert_eq!(names, vec!["f", "g", "sub"]);
    assert_eq!(fs.rmdir("/d"), Err(FsError::NotEmpty));
    fs.unlink("/d/f").unwrap();
    fs.unlink("/d/g").unwrap();
    fs.rmdir("/d/sub").unwrap();
    fs.rmdir("/d").unwrap();
    assert_eq!(fs.stat("/d"), Err(FsError::NotFound));
}

#[test]
fn rename_replaces_target() {
    let mut fs = fresh();
    let fd = fs.open("/a", OpenFlags::CREAT_TRUNC).unwrap();
    fs.pwrite(fd, 0, b"AAA").unwrap();
    fs.close(fd).unwrap();
    fs.creat("/b").unwrap();
    fs.rename("/a", "/b").unwrap();
    assert_eq!(fs.stat("/a"), Err(FsError::NotFound));
    assert_eq!(fs.read_file("/b").unwrap(), b"AAA");
}

#[test]
fn sync_persists_remount_sees_state() {
    let mut fs = fresh();
    fs.mkdir("/d").unwrap();
    let fd = fs.open("/d/f", OpenFlags::CREAT_TRUNC).unwrap();
    fs.pwrite(fd, 100, b"persistent").unwrap();
    fs.close(fd).unwrap();
    fs.sync().unwrap();
    let fs2 = crash_and_remount(fs).unwrap();
    assert_eq!(fs2.stat("/d").unwrap().ftype, FileType::Directory);
    let data = fs2.read_file("/d/f").unwrap();
    assert_eq!(data.len(), 110);
    assert_eq!(&data[100..], b"persistent");
}

#[test]
fn unsynced_state_lost_but_fs_mountable() {
    let mut fs = fresh();
    fs.creat("/gone").unwrap();
    // No sync: a crash loses the file, which weak guarantees allow.
    let fs2 = crash_and_remount(fs).unwrap();
    assert_eq!(fs2.stat("/gone"), Err(FsError::NotFound));
    assert_eq!(fs2.readdir("/").unwrap().len(), 0);
}

#[test]
fn fsync_persists_one_file() {
    let mut fs = fresh();
    let fd = fs.open("/f", OpenFlags::CREAT_TRUNC).unwrap();
    fs.pwrite(fd, 0, b"synced data").unwrap();
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
    let fs2 = crash_and_remount(fs).unwrap();
    assert_eq!(fs2.read_file("/f").unwrap(), b"synced data");
}

#[test]
fn truncate_then_extend_reads_zeros() {
    let mut fs = fresh();
    let fd = fs.open("/f", OpenFlags::CREAT_TRUNC).unwrap();
    fs.pwrite(fd, 0, &[7u8; 5000]).unwrap();
    fs.close(fd).unwrap();
    fs.truncate("/f", 100).unwrap();
    fs.truncate("/f", 200).unwrap();
    let data = fs.read_file("/f").unwrap();
    assert_eq!(&data[..100], &[7u8; 100][..]);
    assert_eq!(&data[100..], &[0u8; 100][..]);
}

#[test]
fn multiblock_and_indirect_files() {
    let mut fs = fresh();
    let fd = fs.open("/big", OpenFlags::CREAT_TRUNC).unwrap();
    // Beyond the 12 direct blocks (48 KiB) into the indirect range.
    let data: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
    fs.pwrite(fd, 0, &data).unwrap();
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
    let fs2 = crash_and_remount(fs).unwrap();
    assert_eq!(fs2.read_file("/big").unwrap(), data);
}

#[test]
fn xattrs_roundtrip() {
    let mut fs = fresh();
    fs.creat("/f").unwrap();
    fs.setxattr("/f", "user.tag", b"value1").unwrap();
    fs.setxattr("/f", "user.other", b"v2").unwrap();
    fs.removexattr("/f", "user.tag").unwrap();
    assert_eq!(fs.removexattr("/f", "user.tag"), Err(FsError::NotFound));
    assert_eq!(fs.removexattr("/f", "user.missing"), Err(FsError::NotFound));
}

#[test]
fn append_mode_and_offsets() {
    let mut fs = fresh();
    let fd = fs.open("/f", OpenFlags::CREAT_TRUNC).unwrap();
    fs.write(fd, b"one").unwrap();
    fs.write(fd, b"two").unwrap();
    fs.close(fd).unwrap();
    let fd = fs.open("/f", OpenFlags::APPEND).unwrap();
    fs.write(fd, b"!").unwrap();
    fs.close(fd).unwrap();
    assert_eq!(fs.read_file("/f").unwrap(), b"onetwo!");
}

#[test]
fn block_reuse_after_delete() {
    let mut fs = fresh();
    for round in 0..5 {
        let path = format!("/f{round}");
        let fd = fs.open(&path, OpenFlags::CREAT_TRUNC).unwrap();
        fs.pwrite(fd, 0, &vec![round as u8; 20_000]).unwrap();
        fs.close(fd).unwrap();
        fs.unlink(&path).unwrap();
    }
    fs.sync().unwrap();
    let fs2 = crash_and_remount(fs).unwrap();
    assert!(fs2.readdir("/").unwrap().is_empty());
}

#[test]
fn mount_rejects_garbage() {
    let dev = PmDevice::new(DEV);
    assert!(matches!(
        Ext4Dax::mount(dev, &FsOptions::default()),
        Err(FsError::Unmountable(_))
    ));
}

#[test]
fn kind_factory_roundtrip() {
    let kind = Ext4DaxKind::default();
    assert!(!kind.guarantees().strong);
    let mut fs = kind.mkfs(PmDevice::new(DEV)).unwrap();
    fs.creat("/x").unwrap();
    fs.sync().unwrap();
    let img = fs.into_device().persistent_image().to_vec();
    let fs2 = kind.mount(PmDevice::from_image(img)).unwrap();
    assert!(fs2.stat("/x").is_ok());
}

/// Crash-free behavioural parity with the reference model over a scripted
/// op mix (the full randomized version lives in the property-test suite).
#[test]
fn model_parity_scripted() {
    let mut fs = fresh();
    let mut model = ModelFs::new();
    type Step = Box<dyn Fn(&mut dyn FileSystem) -> Result<(), FsError>>;
    let script: Vec<Step> = vec![
        Box::new(|f| f.mkdir("/A")),
        Box::new(|f| f.creat("/A/x")),
        Box::new(|f| f.link("/A/x", "/y")),
        Box::new(|f| {
            let fd = f.open("/y", OpenFlags::RDWR)?;
            f.pwrite(fd, 10, b"abc")?;
            f.close(fd)
        }),
        Box::new(|f| f.rename("/A/x", "/z")),
        Box::new(|f| f.truncate("/z", 5)),
        Box::new(|f| f.unlink("/y")),
        Box::new(|f| f.mkdir("/A/B")),
        Box::new(|f| f.rename("/A/B", "/B")),
        Box::new(|f| f.rmdir("/A")),
    ];
    for step in &script {
        let r1 = step(&mut fs);
        let r2 = step(&mut model);
        assert_eq!(r1.is_ok(), r2.is_ok());
    }
    for path in ["/z", "/B", "/A", "/y"] {
        match (fs.stat(path), model.stat(path)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.ftype, b.ftype, "{path}");
                assert_eq!(a.size, b.size, "{path}");
                assert_eq!(a.nlink, b.nlink, "{path}");
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{path}: fs={a:?} model={b:?}"),
        }
    }
    assert_eq!(fs.read_file("/z").unwrap(), model.read_file("/z").unwrap());
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
    use ext4dax::layout::{Geometry, BLOCK};

    let log = LogHandle::new();
    let dev = LoggingPm::new(PmDevice::new(DEV), log.clone());
    let mut fs = Ext4Dax::mkfs(dev, &FsOptions::default()).unwrap();
    fs.mkdir("/d").unwrap();
    let fd = fs.open("/d/f", OpenFlags::CREAT_TRUNC).unwrap();
    let payload: Vec<u8> = (0..3 * BLOCK + 100).map(|i| (i % 251) as u8).collect();
    fs.pwrite(fd, 0, &payload).unwrap();
    log.take(); // mkfs; nothing since reaches the device before the commit
    fs.fsync(fd).unwrap();
    let taken = log.take();
    let image = fs.into_device().into_inner();
    let geo = Geometry::for_device(DEV).unwrap();
    let jbase = geo.journal_start * BLOCK;

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
    use ext4dax::layout::Geometry;

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
    let mut fs = Ext4Dax::mount(dev, &FsOptions::default()).unwrap();
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
