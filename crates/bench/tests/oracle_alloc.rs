//! Allocator regression for the incremental oracle-snapshot path.
//!
//! `chipmunk::oracle::advance_snapshot` advances an oracle snapshot across
//! one op by re-probing only the op's footprint and structurally sharing
//! every untouched node with the previous snapshot. The property this test
//! pins is the one the benchmark's `oracle.*` lanes time but cannot assert:
//! advancing across an op that touches one small file allocates
//! independently of the *total data* held in the tree. The deep-copy
//! implementation it replaced re-read and re-stored every file's contents
//! on every snapshot — proportional to the 8 MiB parked in the untouched
//! files here — while the incremental path allocates only the cloned node
//! map, the touched file's bytes, and hash scratch.
//!
//! The test runs in its own binary so it can install the shared counting
//! global allocator without affecting other suites.

#[path = "../../pmem/tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::Arc;

use chipmunk::oracle::{advance_snapshot, snapshot_tree};
use vfs::model::ModelFs;
use vfs::{FileSystem, Op, OpenFlags};

#[test]
fn advance_snapshot_allocation_is_independent_of_tree_data() {
    // 16 files x 512 KiB of bulk data that no subsequent op touches, plus
    // one small file the loop rewrites.
    const BULK: usize = 16;
    const BULK_SIZE: usize = 512 * 1024;
    let mut fs = ModelFs::new();
    fs.mkdir("/bulk").unwrap();
    for i in 0..BULK {
        let path = format!("/bulk/f{i}");
        let fd = fs.open(&path, OpenFlags::CREATE).unwrap();
        fs.pwrite(fd, 0, &vec![i as u8; BULK_SIZE]).unwrap();
        fs.close(fd).unwrap();
    }
    fs.creat("/small").unwrap();

    // A full walk must materialize every file's data: its allocation floor
    // is the bulk payload itself.
    let mut full = None;
    let full_alloc = counting_alloc::during(|| full = Some(Arc::new(snapshot_tree(&fs).unwrap())))
        .bytes;
    let full = full.unwrap();
    assert!(
        full_alloc >= BULK * BULK_SIZE,
        "full snapshot allocated {full_alloc} bytes — expected at least the 8 MiB of file data"
    );

    // Warm up one advance so lazy one-time allocations don't skew the loop.
    let op = Op::WritePath { path: "/small".into(), off: 0, size: 64 };
    let fd = fs.open("/small", OpenFlags::RDWR).unwrap();
    fs.pwrite(fd, 0, &[1u8; 64]).unwrap();
    let (mut prev, _) = advance_snapshot(&fs, &full, &op, Some("/small")).unwrap();

    const ITERS: usize = 50;
    let bytes = counting_alloc::during(|| {
        for i in 0..ITERS {
            fs.pwrite(fd, 0, &[i as u8; 64]).unwrap();
            let (next, _) = advance_snapshot(&fs, &prev, &op, Some("/small")).unwrap();
            prev = next;
        }
    })
    .bytes;
    fs.close(fd).unwrap();

    let per_advance = bytes / ITERS;
    // One advance clones the ~18-entry node map, re-reads the 64-byte file,
    // and hashes the dirty path — a few KiB. 128 KiB gives generous headroom
    // while staying 60x under what re-reading the bulk data would cost.
    assert!(
        per_advance < 128 * 1024,
        "advance_snapshot allocated {per_advance} bytes/op — is it deep-copying the tree?"
    );
}
