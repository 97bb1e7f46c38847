//! Trace equivalence of the page-cached targets: ext4-DAX, XFS-DAX and
//! SplitFS (whose kernel component is ext4-DAX) must stay the same machines,
//! device call for device call.
//!
//! A fixed script touching every `FileSystem` method runs over a `PmBackend`
//! wrapper that folds every call — kind, offset, length, stored bytes, reads
//! included — into one FNV-1a digest, together with everything the file
//! system answered. The read-footprint layer records device reads and every
//! `CowDevice` read ticks recovery fuel, so a refactor that only reorders or
//! repeats a read already moves counters pinned in `benchmark/expected.json`;
//! this suite says so in a second instead of after a benchmark pass.
//!
//! The digests below were captured at the commit *before* the two controls
//! were folded into `vfs::pagedfs`. An edit that changes one on purpose (a new
//! on-media field, a different commit order) re-captures it with
//! `cargo test --test dax_trace -- --nocapture` and says why in the commit.

use std::{
    fmt::Debug,
    sync::{
        atomic::{AtomicU64, Ordering},
        Arc,
    },
};

use ext4dax::Ext4DaxKind;
use pmem::{PmBackend, PmDevice, SimCost};
use splitfs::SplitFsKind;
use vfs::{
    fs::{FileSystem, FsKind},
    FallocMode, FileType, OpenFlags,
};
use xfsdax::XfsDaxKind;

const DEV: u64 = 8 * 1024 * 1024;
const BLOCK: u64 = 4096;

/// The running digest, shared between the device wrapper (moved into the
/// file system) and the script (which folds in every answer).
#[derive(Clone)]
struct Digest(Arc<AtomicU64>);

impl Digest {
    fn new() -> Self {
        Digest(Arc::new(AtomicU64::new(0xcbf2_9ce4_8422_2325)))
    }

    fn bytes(&self, data: &[u8]) {
        let mut h = self.0.load(Ordering::Relaxed);
        for &b in data {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.0.store(h, Ordering::Relaxed);
    }

    fn call(&self, kind: u8, off: u64, len: u64) {
        self.bytes(&[kind]);
        self.bytes(&off.to_le_bytes());
        self.bytes(&len.to_le_bytes());
    }

    /// Folds in what the file system answered.
    fn answer(&self, r: &impl Debug) {
        self.bytes(format!("{r:?}").as_bytes());
    }

    fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Forwards to the device and digests the call. Only the required methods are
/// implemented, so the provided helpers (`read_u64`, `persist_u64`, ...) show
/// up as the primitive calls they are made of.
struct Traced<'a> {
    dev: &'a mut PmDevice,
    digest: Digest,
}

impl PmBackend for Traced<'_> {
    fn len(&self) -> u64 {
        self.digest.call(b'l', 0, 0);
        self.dev.len()
    }

    fn read(&self, off: u64, buf: &mut [u8]) {
        self.digest.call(b'r', off, buf.len() as u64);
        self.dev.read(off, buf);
    }

    fn store(&mut self, off: u64, data: &[u8]) {
        self.digest.call(b's', off, data.len() as u64);
        self.digest.bytes(data);
        self.dev.store(off, data);
    }

    fn memcpy_nt(&mut self, off: u64, data: &[u8]) {
        self.digest.call(b'n', off, data.len() as u64);
        self.digest.bytes(data);
        self.dev.memcpy_nt(off, data);
    }

    fn memset_nt(&mut self, off: u64, val: u8, len: u64) {
        self.digest.call(b'z', off, len);
        self.digest.bytes(&[val]);
        self.dev.memset_nt(off, val, len);
    }

    fn flush(&mut self, off: u64, len: u64) {
        self.digest.call(b'f', off, len);
        self.dev.flush(off, len);
    }

    fn fence(&mut self) {
        self.digest.call(b'F', 0, 0);
        self.dev.fence();
    }

    fn note_media_read(&mut self, len: u64) {
        self.digest.call(b'm', 0, len);
        self.dev.note_media_read(len);
    }

    fn sim_cost(&self) -> SimCost {
        self.digest.call(b'c', 0, 0);
        self.dev.sim_cost()
    }
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
}

/// Every `FileSystem` method, the block-map shapes both formats treat
/// specially (ext4's indirect block, XFS's extent splits and the inline-map
/// overflow, where a thirteenth extent is refused and rolled back), a
/// directory spilling into a second block, and commits with different dirty
/// sets. Ends with un-synced changes the crash must lose.
fn script<F: FileSystem>(fs: &mut F, d: &Digest) {
    d.answer(&fs.mkdir("/d"));
    d.answer(&fs.mkdir("/d/sub"));
    d.answer(&fs.mkdir("/e"));
    d.answer(&fs.mkdir("/d"));
    d.answer(&fs.creat("/a"));
    d.answer(&fs.creat("/d/b"));
    d.answer(&fs.creat("/nope/x"));

    // write / pwrite / append / pread, past the twelve direct pointers.
    let fa = fs.open("/a", OpenFlags::RDWR).expect("open /a");
    d.answer(&fs.write(fa, &pattern(5000, 1)));
    d.answer(&fs.write(fa, &pattern(3000, 2)));
    d.answer(&fs.pwrite(fa, 14 * BLOCK + 100, &pattern(2 * BLOCK as usize, 3)));
    d.answer(&fs.pwrite(fa, 40 * BLOCK, &pattern(10, 4)));
    d.answer(&fs.fsync(fa));
    let ap = fs.open("/a", OpenFlags::APPEND).expect("open /a for append");
    d.answer(&fs.write(ap, &pattern(700, 5)));
    d.answer(&fs.close(ap));
    let mut buf = vec![0u8; 6000];
    d.answer(&fs.pread(fa, 4000, &mut buf));
    d.answer(&buf);
    d.answer(&fs.pread(fa, 1 << 40, &mut buf));
    d.answer(&fs.fdatasync(fa));

    // truncate down (mid-block, into the indirect range) and up.
    d.answer(&fs.truncate("/a", 13 * BLOCK + 17));
    d.answer(&fs.truncate("/a", 3 * BLOCK + 1000));
    d.answer(&fs.truncate("/a", 9 * BLOCK));
    d.answer(&fs.truncate("/d", 0));
    d.answer(&fs.read_file("/a").map(|v| v.len()));

    // fallocate, every mode; punch-hole splits extents until the inline map
    // overflows and the punch falls back to zeroing.
    let fb = fs.open("/d/b", OpenFlags::RDWR).expect("open /d/b");
    d.answer(&fs.fallocate(fb, FallocMode::Allocate, 0, 30 * BLOCK));
    d.answer(&fs.fallocate(fb, FallocMode::KeepSize, 30 * BLOCK, 2 * BLOCK + 5));
    d.answer(&fs.pwrite(fb, 0, &pattern(30 * BLOCK as usize, 6)));
    d.answer(&fs.fallocate(fb, FallocMode::ZeroRange, 100, 2 * BLOCK));
    for i in 0..14 {
        d.answer(&fs.fallocate(fb, FallocMode::PunchHole, (2 * i + 1) * BLOCK, BLOCK));
    }
    d.answer(&fs.fallocate(fb, FallocMode::PunchHole, 500, 3 * BLOCK));
    d.answer(&fs.fallocate(fb, FallocMode::Allocate, 0, 0));
    d.answer(&fs.fallocate(fb, FallocMode::Allocate, 1 << 40, 8));
    d.answer(&fs.pwrite(fb, 200 * BLOCK, &pattern(9, 7)));
    d.answer(&fs.pwrite(fb, 300 * BLOCK, &pattern(9, 7)));
    d.answer(&fs.stat("/d/b"));
    d.answer(&fs.fsync(fb));
    d.answer(&fs.close(fb));

    // link, rename over a file and over an empty directory, across parents.
    d.answer(&fs.link("/a", "/d/a2"));
    d.answer(&fs.link("/d", "/dlink"));
    d.answer(&fs.link("/a", "/d/b"));
    d.answer(&fs.creat("/c"));
    d.answer(&fs.rename("/c", "/d/b"));
    d.answer(&fs.rename("/d/sub", "/e"));
    d.answer(&fs.rename("/e", "/e/inside"));
    d.answer(&fs.rename("/d/a2", "/d/a2"));
    d.answer(&fs.rename("/d/a2", "/a"));
    d.answer(&fs.rename("/a", "/e"));
    d.answer(&fs.rename("/e", "/a"));
    d.answer(&fs.rename("/e", "/d/moved"));
    d.answer(&fs.sync());

    // unlink of an open file, rmdir, O_TRUNC, O_EXCL.
    d.answer(&fs.unlink("/d/a2"));
    d.answer(&fs.unlink("/a"));
    d.answer(&fs.write(fa, &pattern(100, 8)));
    d.answer(&fs.pread(fa, 0, &mut buf[..64]));
    d.answer(&fs.close(fa));
    d.answer(&fs.close(fa));
    d.answer(&fs.unlink("/d"));
    d.answer(&fs.rmdir("/d"));
    d.answer(&fs.rmdir("/d/b"));
    d.answer(&fs.rmdir("/d/moved"));
    d.answer(&fs.open("/d/b", OpenFlags { excl: true, ..OpenFlags::CREATE }).map(|_| ()));
    d.answer(&fs.open("/d", OpenFlags::RDWR).map(|_| ()));
    let ft = fs.open("/d/b", OpenFlags::CREAT_TRUNC).expect("open /d/b with O_TRUNC");
    d.answer(&fs.write(ft, &pattern(2 * BLOCK as usize + 9, 9)));
    d.answer(&fs.close(ft));

    // xattrs: add, replace, remove, miss.
    d.answer(&fs.setxattr("/d/b", "user.k", b"v1"));
    d.answer(&fs.setxattr("/d/b", "user.k", b"value-two"));
    d.answer(&fs.setxattr("/d/b", "user.other", b"x"));
    d.answer(&fs.removexattr("/d/b", "user.k"));
    d.answer(&fs.removexattr("/d/b", "user.k"));
    d.answer(&fs.removexattr("/d", "user.none"));

    // A directory that needs a second dentry block, with slot reuse.
    d.answer(&fs.mkdir("/big"));
    for i in 0..80 {
        d.answer(&fs.creat(&format!("/big/f{i:02}")));
    }
    for i in (0..80).step_by(7) {
        d.answer(&fs.unlink(&format!("/big/f{i:02}")));
    }
    d.answer(&fs.creat("/big/reuse"));
    d.answer(&fs.creat(&format!("/big/{}", "n".repeat(60))));
    d.answer(&fs.readdir("/big").map(|v| v.len()));
    d.answer(&fs.sync());

    // Lost by the crash: never synced.
    d.answer(&fs.creat("/lost"));
    d.answer(&fs.mkdir("/big/lostdir"));
    let fl = fs.open("/d/b", OpenFlags::RDWR).expect("open /d/b");
    d.answer(&fs.pwrite(fl, 0, &pattern(BLOCK as usize, 10)));
}

/// `stat` / `readdir` / `read_file` over the whole tree; returns every
/// directory found.
fn walk<F: FileSystem>(fs: &F, d: &Digest) -> Vec<String> {
    let mut dirs = vec!["/".to_string()];
    let mut next = 0;
    while next < dirs.len() {
        let dir = dirs[next].clone();
        next += 1;
        d.answer(&fs.stat(&dir));
        let entries = fs.readdir(&dir).expect("readdir");
        d.answer(&entries);
        for e in entries {
            let path = format!("{}/{}", dir.trim_end_matches('/'), e.name);
            d.answer(&fs.stat(&path));
            match e.ftype {
                FileType::Directory => dirs.push(path),
                FileType::Regular => d.answer(&fs.read_file(&path)),
            }
        }
    }
    dirs
}

fn trace<K: FsKind>(kind: &K) -> u64 {
    let digest = Digest::new();
    let mut dev = PmDevice::new(DEV);
    {
        let traced = Traced { dev: &mut dev, digest: digest.clone() };
        let mut fs = kind.mkfs(traced).expect("mkfs");
        script(&mut fs, &digest);
        // Dropped without a sync: the crash.
    }
    let traced = Traced { dev: &mut dev, digest: digest.clone() };
    let mut fs = kind.mount(traced).expect("mount");
    for dir in walk(&fs, &digest) {
        let path = format!("{}/probe", dir.trim_end_matches('/'));
        digest.answer(&fs.creat(&path));
        digest.answer(&fs.unlink(&path));
    }
    digest.answer(&fs.sync());
    digest.value()
}

#[test]
fn ext4dax_trace_is_unchanged() {
    let got = trace(&Ext4DaxKind::default());
    println!("ext4-dax digest: {got:#018x}");
    assert_eq!(got, 0x9a3c_14ed_e856_486d, "ext4-DAX issues different device calls or answers");
}

#[test]
fn xfsdax_trace_is_unchanged() {
    let got = trace(&XfsDaxKind::default());
    println!("xfs-dax digest: {got:#018x}");
    assert_eq!(got, 0xcf70_d30c_5e5b_bab2, "XFS-DAX issues different device calls or answers");
}

#[test]
fn splitfs_trace_is_unchanged() {
    let got = trace(&SplitFsKind::default());
    println!("splitfs digest: {got:#018x}");
    assert_eq!(got, 0x2e13_78e9_26f1_331e, "SplitFS issues different device calls or answers");
}
