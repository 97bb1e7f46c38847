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
//! The test runs in its own binary so it can install a counting global
//! allocator without affecting other suites.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use chipmunk::oracle::{advance_snapshot, snapshot_tree};
use vfs::model::ModelFs;
use vfs::{FileSystem, Op, OpenFlags};

struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

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
    let before = ALLOCATED.load(Relaxed);
    let full = Arc::new(snapshot_tree(&fs).unwrap());
    let full_alloc = ALLOCATED.load(Relaxed) - before;
    assert!(
        full_alloc >= (BULK * BULK_SIZE) as u64,
        "full snapshot allocated {full_alloc} bytes — expected at least the 8 MiB of file data"
    );

    // Warm up one advance so lazy one-time allocations don't skew the loop.
    let op = Op::WritePath { path: "/small".into(), off: 0, size: 64 };
    let fd = fs.open("/small", OpenFlags::RDWR).unwrap();
    fs.pwrite(fd, 0, &[1u8; 64]).unwrap();
    let (mut prev, _) = advance_snapshot(&fs, &full, &op, Some("/small")).unwrap();

    const ITERS: u64 = 50;
    let before = ALLOCATED.load(Relaxed);
    for i in 0..ITERS {
        fs.pwrite(fd, 0, &[i as u8; 64]).unwrap();
        let (next, _) = advance_snapshot(&fs, &prev, &op, Some("/small")).unwrap();
        prev = next;
    }
    let after = ALLOCATED.load(Relaxed);
    fs.close(fd).unwrap();

    let per_advance = (after - before) / ITERS;
    // One advance clones the ~18-entry node map, re-reads the 64-byte file,
    // and hashes the dirty path — a few KiB. 128 KiB gives generous headroom
    // while staying 60x under what re-reading the bulk data would cost.
    assert!(
        per_advance < 128 * 1024,
        "advance_snapshot allocated {per_advance} bytes/op — is it deep-copying the tree?"
    );
}
