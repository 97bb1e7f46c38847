//! Allocator regression for the incremental `state_key` path.
//!
//! `chipmunk::crashgen::state_key` hashes each crash state's surviving
//! bytes straight out of the borrowed pending-write data, one 8-byte word
//! per step (`pmem::span_key`). The property this test pins is the one the
//! benchmark's `pmem.hash_*_mbps` lanes time but cannot assert: keying a
//! subset never materializes the crash image. An implementation that
//! rebuilt the byte range spanned by the writes — the natural naive one —
//! would allocate proportionally to the *span* (here, a gigabyte); the
//! incremental scan allocates only small per-subset scratch (the sorted
//! index order and the segment list), independent of where on the device
//! the writes landed.
//!
//! The test runs in its own binary so it can install the shared counting
//! global allocator without affecting other suites.

#[path = "../../pmem/tests/support/counting_alloc.rs"]
mod counting_alloc;

use chipmunk::crashgen::{state_key, PendingWrite};

#[test]
fn state_key_allocation_is_independent_of_write_span() {
    // 16 in-flight writes of 64 bytes each, spread across a 1 GiB device
    // span. Any image-materializing implementation has to touch the span.
    const SPAN: u64 = 1 << 30;
    const NW: usize = 16;
    let writes: Vec<PendingWrite> = (0..NW as u64)
        .map(|i| {
            let data = (0..64).map(|b| (i as u8).wrapping_mul(31).wrapping_add(b)).collect();
            PendingWrite::new(i * (SPAN / NW as u64), data, true)
        })
        .collect();

    // Warm up once so one-time lazy allocations don't skew the measurement.
    let warm = state_key(&writes, &[0, 5, 11]);

    let subsets: Vec<Vec<usize>> =
        (0..200).map(|s| (0..NW).filter(|i| (s >> (i % 8)) & 1 == 1).collect()).collect();
    let mut acc = warm;
    let bytes = counting_alloc::during(|| {
        for subset in &subsets {
            acc ^= state_key(&writes, subset);
        }
    })
    .bytes;
    assert_ne!(acc, 0, "keys must actually be computed");

    let per_call = bytes / subsets.len();
    // Scratch per call is O(subset length): a sorted index vector and a
    // segment list — a few hundred bytes. Give 100x headroom; rebuilding
    // even one write's span of the image would blow through it, and a full
    // span materialization is five orders of magnitude over.
    assert!(
        per_call < 64 * 1024,
        "state_key allocated {per_call} bytes/call — is it materializing images?"
    );
}
