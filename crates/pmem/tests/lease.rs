//! Properties of [`ImageLease`]: whatever a holder wrote, however the lease
//! ended, the next holder of a buffer of that length sees all zeroes.
//!
//! The free list is process-wide and some tests assert that a buffer really
//! was reused (otherwise "the next lease is zero" would hold vacuously for a
//! fresh allocation), so every test here holds [`SERIAL`] while it runs. The
//! lengths used across the file keep the list below its retention bound.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard};

use proptest::prelude::*;

use pmem::ImageLease;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed assertion in one test must not cascade into the others.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Device lengths: sub-page (the oracle unit tests use 1024), a last partial
/// page, and whole pages.
const LENS: [u64; 3] = [1024, 5000, 3 * 4096];

fn all_zero(l: &ImageLease) -> bool {
    l.iter().all(|&b| b == 0)
}

proptest! {
    /// Random writes — page-straddling ones and ones ending in the last
    /// partial page included — read back through `Deref` like writes to a
    /// plain vector, and after the drop the same buffer comes back zeroed.
    #[test]
    fn next_lease_of_a_length_is_all_zero(
        len_ix in 0usize..3,
        writes in proptest::collection::vec((0u64..1 << 20, 1usize..6000, 1u8..=255), 0..12),
    ) {
        let _g = serial();
        let len = LENS[len_ix];
        let mut lease = ImageLease::zeroed(len);
        prop_assert_eq!(lease.len() as u64, len);
        prop_assert!(all_zero(&lease));
        let mut model = vec![0u8; len as usize];
        for &(off, n, val) in &writes {
            let off = off % len;
            let n = n.min((len - off) as usize);
            lease.write(off, &vec![val; n]);
            model[off as usize..off as usize + n].fill(val);
        }
        prop_assert_eq!(&lease[..], &model[..]);
        let ptr = lease.as_ptr();
        drop(lease);
        let next = ImageLease::zeroed(len);
        prop_assert_eq!(next.as_ptr(), ptr, "the returned buffer is the next lease");
        prop_assert!(all_zero(&next));
    }
}

#[test]
fn write_to_the_last_byte_of_a_partial_page_is_undone() {
    let _g = serial();
    let mut lease = ImageLease::zeroed(5000);
    lease.write(4090, &[9u8; 910]); // straddles into the 904-byte tail page
    assert_eq!(lease[4999], 9);
    drop(lease);
    assert!(all_zero(&ImageLease::zeroed(5000)));
}

#[test]
fn two_lengths_never_cross() {
    let _g = serial();
    let mut a = ImageLease::zeroed(1024);
    let mut b = ImageLease::zeroed(5000);
    a.write(0, &[1u8; 1024]);
    b.write(0, &[2u8; 5000]);
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    drop(a);
    drop(b);
    let b2 = ImageLease::zeroed(5000);
    let a2 = ImageLease::zeroed(1024);
    assert_eq!((a2.len(), b2.len()), (1024, 5000));
    assert_eq!((a2.as_ptr(), b2.as_ptr()), (pa, pb));
    assert!(all_zero(&a2) && all_zero(&b2));
}

/// The sandbox catches checker panics while a lease is live: the unwind
/// must hand back a zeroed buffer (or none), never a dirty one.
#[test]
fn panic_unwinding_through_a_live_lease_returns_it_zeroed() {
    let _g = serial();
    let mut ptr = std::ptr::null();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut lease = ImageLease::zeroed(5000);
        lease.write(100, &[7u8; 4800]);
        ptr = lease.as_ptr();
        panic!("checker panic with a lease live");
    }));
    assert!(caught.is_err());
    let next = ImageLease::zeroed(5000);
    assert_eq!(next.as_ptr(), ptr);
    assert!(all_zero(&next));
}

#[test]
#[should_panic(expected = "PM access out of range: off=1020 len=8 device=1024")]
fn out_of_range_write_panics_like_a_device() {
    let _g = serial();
    ImageLease::zeroed(1024).write(1020, &[0u8; 8]);
}

/// Two threads holding leases of one length at the same moment (the barrier
/// forces the overlap) hold distinct buffers and never see each other's
/// bytes.
#[test]
fn concurrent_leases_are_distinct_buffers() {
    let _g = serial();
    const LEN: u64 = 3 * 4096;
    let barrier = Barrier::new(2);
    let hold = |val: u8| {
        let mut lease = ImageLease::zeroed(LEN);
        lease.write(0, &vec![val; LEN as usize]);
        barrier.wait(); // both leases are live and written
        let intact = lease.iter().all(|&b| b == val);
        let ptr = lease.as_ptr() as usize;
        barrier.wait(); // neither is dropped before both were inspected
        (ptr, intact)
    };
    let ((p1, ok1), (p2, ok2)) = std::thread::scope(|sc| {
        let t = sc.spawn(|| hold(1));
        let here = hold(2);
        (t.join().expect("lease holder thread"), here)
    });
    assert_ne!(p1, p2);
    assert!(ok1 && ok2);
    assert!(all_zero(&ImageLease::zeroed(LEN)));
}
