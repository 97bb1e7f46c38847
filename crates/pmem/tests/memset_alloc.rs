//! Regression test: `CowDevice::memset_nt` must not allocate a buffer
//! proportional to the memset length (it used to build `vec![val; len]` per
//! call, which dominated large fallocate replays).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pmem::{CowDevice, PmBackend, PmDevice};

/// System allocator wrapper recording the largest single allocation and the
/// total bytes requested — per thread, because the tests of this binary run
/// on parallel threads and each measures only its own allocations.
struct MaxTracking;

thread_local! {
    static MAX_ALLOC: Cell<usize> = const { Cell::new(0) };
    static TOTAL_ALLOC: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    MAX_ALLOC.with(|m| m.set(m.get().max(size)));
    TOTAL_ALLOC.with(|t| t.set(t.get() + size));
}

unsafe impl GlobalAlloc for MaxTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: MaxTracking = MaxTracking;

const LEN: u64 = 4 * 1024 * 1024;

#[test]
fn cow_memset_allocates_pages_not_the_whole_range() {
    let base = vec![0u8; LEN as usize];
    let mut cow = CowDevice::new(&base);
    MAX_ALLOC.set(0);
    cow.memset_nt(0, 0xab, LEN);
    let peak = MAX_ALLOC.get();
    // Overlay pages are 4 KiB; allow generous slack for HashMap growth, but
    // nothing near the 4 MiB the old `vec![val; len]` implementation hit.
    assert!(
        peak <= 256 * 1024,
        "memset_nt allocated {peak} bytes in one request (len {LEN})"
    );
    // The write itself must still be correct, including an unaligned tail.
    let mut buf = vec![0u8; 8192];
    cow.read(LEN - 8192, &mut buf);
    assert!(buf.iter().all(|&b| b == 0xab));
    cow.memset_nt(100, 7, 5000);
    let mut buf = vec![0u8; 5000];
    cow.read(100, &mut buf);
    assert!(buf.iter().all(|&b| b == 7));
}

#[test]
#[should_panic(expected = "out of range")]
fn cow_memset_out_of_range_panics_before_writing() {
    let base = vec![0u8; 4096];
    let mut cow = CowDevice::new(&base);
    cow.memset_nt(4000, 1, 200);
}

#[test]
fn cow_page_fault_allocates_one_page_without_zero_prefill() {
    // `page_mut` used to zero-fill a fresh 4 KiB buffer and then overwrite
    // the whole thing with the base copy. The page is now built from the
    // base slice directly, so faulting a page costs exactly one page-sized
    // allocation (plus small HashMap bookkeeping), with no transient second
    // buffer and no reallocation.
    let base = vec![0x5au8; 64 * 4096];
    let mut cow = CowDevice::new(&base);
    cow.store(0, &[1]); // warm up the overlay HashMap
    let pages = 32usize;
    TOTAL_ALLOC.set(0);
    MAX_ALLOC.set(0);
    for p in 1..=pages {
        cow.store(p as u64 * 4096, &[2]); // one fresh page fault each
    }
    let total = TOTAL_ALLOC.get();
    let peak = MAX_ALLOC.get();
    // One 4096-byte buffer per faulted page + bounded map growth slack.
    assert!(
        total <= pages * 4096 + 16 * 1024,
        "{pages} page faults allocated {total} bytes in total"
    );
    assert!(peak <= 16 * 1024, "largest single allocation was {peak} bytes");
    // Faulted pages must still carry the base content.
    let mut b = [0u8; 2];
    cow.read(4096, &mut b);
    assert_eq!(b, [2, 0x5a]);
}

#[test]
fn device_memset_still_records_one_inflight_write() {
    // PmDevice::memset_nt legitimately allocates the in-flight record (the
    // log needs the bytes), but only once — and the write must stay a single
    // logical in-flight entry so crash-state enumeration is unchanged.
    let mut dev = PmDevice::new(64 * 1024);
    dev.memset_nt(0, 9, 64 * 1024);
    assert_eq!(dev.inflight().len(), 1);
    let mut buf = vec![0u8; 64 * 1024];
    dev.read(0, &mut buf);
    assert!(buf.iter().all(|&b| b == 9));
}
