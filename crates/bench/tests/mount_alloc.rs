//! Allocator regression for the per-mount path: nothing per device block.
//!
//! The checker mounts the file system under test on every crash state, so
//! whatever a mount allocates is paid eleven thousand times per benchmark
//! pass. NOVA, NOVA-Fortis, PMFS and WineFS rebuild their volatile free-block
//! set at mount, clone it in `fork_fs` and drop it with every checked state;
//! as a sorted set of block numbers that was one B-tree node per eleven free
//! blocks, each a `malloc`/`free` pair. As a [`vfs::FreeMap`] it is one
//! buffer, so `mkfs` + `mount` + `fork_fs` + drop make the same number of
//! allocations on a 16 MiB device as on a 4 MiB one.
//!
//! One test function in its own binary: the counting global allocator is
//! process-wide (it counts per thread, so the harness's own threads are not
//! measured).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bench::{dispatch, WithKind};
use pmem::{PmDevice, SharedDev};
use vfs::{
    fs::{FsKind, FsOptions},
    BugSet, FsName,
};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    ALLOCS.with(|a| a.set(a.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Allocations of one file system's `mkfs` + `mount` + `fork_fs` + drop on a
/// device of `size` bytes.
struct MountLife(u64);

impl WithKind for MountLife {
    type Out = usize;

    fn call<K: FsKind>(self, kind: K) -> usize {
        let dev = SharedDev::new(PmDevice::new(self.0));
        ALLOCS.set(0);
        drop(kind.mkfs(dev.clone()).expect("mkfs"));
        let fs = kind.mount(dev.clone()).expect("mount");
        let fork = kind.fork_fs(&fs).expect("the PM file systems fork");
        drop(fork);
        drop(fs);
        ALLOCS.get()
    }
}

#[test]
fn mounting_allocates_nothing_per_device_block() {
    for fs in [FsName::Nova, FsName::NovaFortis, FsName::Pmfs, FsName::WineFs] {
        let life = |size| dispatch(fs, FsOptions::with_bugs(BugSet::fixed()), MountLife(size));
        let (small, large) = (life(4 << 20), life(16 << 20));
        // 3 072 more blocks were ~280 more B-tree nodes, twice over (mount
        // and fork).
        assert!(
            large <= small + 8,
            "{fs:?}: {small} allocations on 4 MiB, {large} on 16 MiB"
        );
    }
}
