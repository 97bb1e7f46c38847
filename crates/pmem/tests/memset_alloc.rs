//! Allocation regressions of the crash-state overlay: `CowDevice::memset_nt`
//! must not allocate a buffer proportional to the memset length (it used to
//! build `vec![val; len]` per call, which dominated large fallocate
//! replays), a page fault costs one page at most, and the overlay scratch a
//! thread lends from one overlay to the next makes a warm overlay's faults,
//! undo records and rewinds allocation-free while keeping only a capped
//! amount of memory between overlays.
//!
//! The shared counting allocator counts per thread, because the tests of
//! this binary run on parallel threads and each measures only its own
//! allocations.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counts, reset};
use pmem::{CowDevice, PmBackend, PmDevice};

const LEN: u64 = 4 * 1024 * 1024;

#[test]
fn cow_memset_allocates_pages_not_the_whole_range() {
    let base = vec![0u8; LEN as usize];
    let mut cow = CowDevice::new(&base);
    let peak = counting_alloc::during(|| cow.memset_nt(0, 0xab, LEN)).max;
    // The chunked memset dirties exactly one overlay page per 4 KiB.
    assert_eq!(cow.dirty_pages(), 1024);
    // Overlay pages are 4 KiB slots; allow generous slack for the page table
    // and slot lists (8 KiB each for this device), but nothing near the
    // 4 MiB the old `vec![val; len]` implementation hit.
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
    // allocation (plus the growth of the overlay's list of live pages), with
    // no transient second buffer and no reallocation.
    let base = vec![0x5au8; 64 * 4096];
    let mut cow = CowDevice::new(&base);
    cow.store(0, &[1]); // warm up the overlay's live-page list
    let pages = 32usize;
    let n = counting_alloc::during(|| {
        for p in 1..=pages {
            cow.store(p as u64 * 4096, &[2]); // one fresh page fault each
        }
    });
    let (total, peak) = (n.bytes, n.max);
    // One 4096-byte slot per faulted page + bounded list growth slack.
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

/// One crash state's worth of overlay traffic: faults on eight pages,
/// overwrites of faulted pages (undo pre-images), a page-crossing write, and
/// a rewind of the check's writes and then of the state's.
fn crash_state_cycle(cow: &mut CowDevice<'_>) {
    let state = cow.mark();
    for p in 0..8u64 {
        cow.apply(p * 4096 + 40, &[1; 64]);
    }
    let check = cow.mark();
    cow.store(40, &[2; 16]);
    cow.memcpy_nt(4096 - 8, &[3; 16]);
    cow.memset_nt(2 * 4096, 0, 4096);
    let mut b = [0u8; 8];
    cow.read(4096 - 4, &mut b);
    assert_eq!(b, [3; 8]);
    cow.undo_to(check);
    cow.read(40, &mut b);
    assert_eq!(b, [1; 8]);
    cow.undo_to(state);
    cow.read(40, &mut b);
    assert_eq!(b, [0x5a; 8]);
}

#[test]
fn warm_overlay_faults_undoes_and_rewinds_without_allocating() {
    let base = vec![0x5au8; 64 * 4096];
    // The thread's first overlay grows the scratch its successors borrow.
    let mut warm = CowDevice::new_with_undo(&base);
    crash_state_cycle(&mut warm);
    drop(warm);
    let mut cow = CowDevice::new_with_undo(&base);
    reset();
    crash_state_cycle(&mut cow);
    crash_state_cycle(&mut cow);
    assert_eq!(counts().calls, 0, "a warm overlay allocated");
    drop(cow);
    assert_eq!(counts().calls, 0, "dropping an overlay allocated");
}

#[test]
fn dropped_overlay_leaves_only_capped_scratch_on_the_thread() {
    let base = vec![0u8; LEN as usize];
    reset();
    let mut cow = CowDevice::new_with_undo(&base);
    cow.memset_nt(0, 0xab, LEN);
    cow.memset_nt(0, 0xcd, LEN); // a page-sized undo pre-image per page
    assert!(counts().live > 2 * LEN as isize, "the memset faulted every page");
    drop(cow);
    let kept = counts().live;
    // The caps: 32 page slots (128 KiB), 256 KiB of undo bytes and 1024
    // undo records (16 KiB), plus one page-table pointer per page of the
    // device (8 KiB here) and the slot lists' room.
    assert!(kept <= 416 * 1024, "the thread kept {kept} bytes of overlay scratch");
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
