//! Regression test: after a thread's first recorder, a [`ReadTracker`]
//! allocates nothing that grows with the number of reads or with the device
//! (the clean set used to be a `BTreeMap` of intervals — a node or a key
//! vector per read — and a per-recorder bitmap would cost a sixty-fourth of
//! the device each time).
//!
//! The shared counting allocator counts the calling thread's allocations and
//! records its largest (the test harness's own threads are not measured).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use pmem::{PmBackend, PmDevice, ReadTracker, WORD};

const LEN: u64 = 4 * 1024 * 1024;
const FP_WORD_CAP: usize = 32768;

/// One recorder's life over `dev`: wrap, `reads` scattered 8-byte reads
/// (a multiplicative walk over every region of the device), collect, drop.
/// Returns (allocations, largest allocation in bytes, words collected).
fn recorder(dev: &mut PmDevice, reads: u64) -> (usize, usize, usize) {
    let mut words = 0;
    let n = counting_alloc::during(|| {
        let t = ReadTracker::new(dev, FP_WORD_CAP);
        let mut b = [0u8; 8];
        for i in 0..reads {
            t.read(i.wrapping_mul(0x9e37_79b9) % (LEN / WORD) * WORD, &mut b);
        }
        words = t.clean_words().expect("below the cap").len();
    });
    (n.calls, n.max, words)
}

#[test]
fn recorder_allocations_do_not_scale_with_reads_or_device() {
    let mut dev = PmDevice::new(LEN);
    recorder(&mut dev, 10_000); // warm-up: the thread's bitmap now spans the device
    let (few_allocs, _, few_words) = recorder(&mut dev, 100);
    let (many_allocs, many_peak, many_words) = recorder(&mut dev, 10_000);
    assert!(few_words <= 100 && many_words > 9_000, "{few_words} / {many_words} words");
    assert_eq!(
        few_allocs, many_allocs,
        "100 reads made {few_allocs} allocations, 10 000 made {many_allocs}"
    );
    assert!(
        many_peak < (LEN / 64) as usize,
        "one allocation of {many_peak} bytes on a {LEN}-byte device"
    );
}
