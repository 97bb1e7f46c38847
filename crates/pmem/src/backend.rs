//! The [`PmBackend`] trait: the interface between a PM file system and the
//! storage media.
//!
//! The methods of this trait correspond one-to-one to the *centralized
//! persistence functions* the Chipmunk paper observes in every tested PM file
//! system (§3.2): non-temporal memcpy, non-temporal memset, flushing the
//! cache lines of a buffer, and issuing store fences. Routing all PM I/O
//! through this trait is this reproduction's substitute for hooking those
//! functions with Kprobes/Uprobes — the interception point and the
//! information it yields (operation kind, destination, contents) are the
//! same.

use crate::cost::SimCost;

/// Size of a cache line in bytes (the flush granularity).
pub const CACHE_LINE: u64 = 64;

/// Unit of write atomicity on Intel PM (8 bytes).
pub const WORD: u64 = 8;

/// Interface to a byte-addressable persistent-memory device.
///
/// File systems are generic over this trait so the same implementation can
/// run on a plain [`crate::PmDevice`], a logging wrapper (recording mode), or
/// a [`crate::CowDevice`] crash image (checking mode).
///
/// `Send` is a supertrait so that a mounted file system — and with it a whole
/// prefix checkpoint — can be handed to a scheduler worker thread. Backends
/// are still owned by one thread at a time; nothing here implies `Sync`.
pub trait PmBackend: Send {
    /// Total size of the device in bytes.
    fn len(&self) -> u64;

    /// Returns `true` if the device has zero length.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads `buf.len()` bytes starting at `off`.
    ///
    /// Reads observe the most recent store, whether or not it has been
    /// flushed (stores are visible through the cache hierarchy).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds; the simulated device is the
    /// bottom of the stack and an out-of-range access is always a harness or
    /// file-system bug.
    fn read(&self, off: u64, buf: &mut [u8]);

    /// Plain cached store of `data` at `off`. Not durable until the affected
    /// cache lines are flushed and a fence executes.
    fn store(&mut self, off: u64, data: &[u8]);

    /// Non-temporal copy of `data` to `off`: bypasses the cache, entering the
    /// in-flight set directly. Durable after the next fence.
    fn memcpy_nt(&mut self, off: u64, data: &[u8]);

    /// Non-temporal fill of `len` bytes of `val` at `off`.
    fn memset_nt(&mut self, off: u64, val: u8, len: u64);

    /// Writes back (`clwb`) every cache line overlapping `[off, off + len)`.
    /// Dirty data in those lines enters the in-flight set.
    fn flush(&mut self, off: u64, len: u64);

    /// Store fence (`sfence`): all in-flight writes become persistent.
    fn fence(&mut self);

    /// Accounts for a validation read that must come from media rather than
    /// a DRAM copy (used by file systems that read back persistent state to
    /// decide whether an in-place update is safe). Default: no cost model.
    fn note_media_read(&mut self, _len: u64) {}

    /// Deterministic simulated-time cost accumulated so far, if this backend
    /// models cost. Default: zero.
    fn sim_cost(&self) -> SimCost {
        SimCost::default()
    }

    // ---- Convenience helpers shared by all file-system implementations ----

    /// Reads a little-endian `u64` at `off`.
    fn read_u64(&self, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `u32` at `off`.
    fn read_u32(&self, off: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(off, &mut b);
        u32::from_le_bytes(b)
    }

    /// Cached store of a little-endian `u64` at `off`.
    fn store_u64(&mut self, off: u64, v: u64) {
        self.store(off, &v.to_le_bytes());
    }

    /// Cached store of a little-endian `u32` at `off`.
    fn store_u32(&mut self, off: u64, v: u32) {
        self.store(off, &v.to_le_bytes());
    }

    /// Stores a `u64` and flushes its cache line (not yet fenced).
    fn store_u64_flush(&mut self, off: u64, v: u64) {
        self.store_u64(off, v);
        self.flush(off, 8);
    }

    /// Stores, flushes, and fences a `u64`: the classic 8-byte atomic
    /// persistent pointer update.
    fn persist_u64(&mut self, off: u64, v: u64) {
        self.store_u64(off, v);
        self.flush(off, 8);
        self.fence();
    }

    /// Stores `data`, flushes the covered lines, and fences.
    fn persist(&mut self, off: u64, data: &[u8]) {
        self.store(off, data);
        self.flush(off, data.len() as u64);
        self.fence();
    }

    /// Reads `len` bytes at `off` into a fresh vector.
    fn read_vec(&self, off: u64, len: u64) -> Vec<u8> {
        let mut v = vec![0u8; len as usize];
        self.read(off, &mut v);
        v
    }
}

/// A mutable reference to a backend is itself a backend. This lets the
/// harness mount a file system on `&mut CowDevice` without giving up
/// ownership, so the same overlay (and its undo log) survives across the
/// mount/check/unmount cycle of many crash states.
impl<T: PmBackend + ?Sized> PmBackend for &mut T {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn read(&self, off: u64, buf: &mut [u8]) {
        (**self).read(off, buf);
    }

    fn store(&mut self, off: u64, data: &[u8]) {
        (**self).store(off, data);
    }

    fn memcpy_nt(&mut self, off: u64, data: &[u8]) {
        (**self).memcpy_nt(off, data);
    }

    fn memset_nt(&mut self, off: u64, val: u8, len: u64) {
        (**self).memset_nt(off, val, len);
    }

    fn flush(&mut self, off: u64, len: u64) {
        (**self).flush(off, len);
    }

    fn fence(&mut self) {
        (**self).fence();
    }

    fn note_media_read(&mut self, len: u64) {
        (**self).note_media_read(len);
    }

    fn sim_cost(&self) -> SimCost {
        (**self).sim_cost()
    }
}

/// Panics unless `[off, off + len)` lies inside a device of `dev_len` bytes.
///
/// Every concrete device asserts through this one helper, so the diagnostic
/// a buggy file system produces reads the same whichever device the harness
/// happened to run it on (dense, copy-on-write overlay or forkable).
#[track_caller]
pub fn assert_in_range(off: u64, len: u64, dev_len: u64) {
    assert!(
        off.checked_add(len).is_some_and(|end| end <= dev_len),
        "PM access out of range: off={off} len={len} device={dev_len}"
    );
}

/// Rounds `off` down to its cache-line base.
pub fn line_base(off: u64) -> u64 {
    off & !(CACHE_LINE - 1)
}

/// Enumerates the cache-line bases overlapping `[off, off + len)`.
pub fn lines_overlapping(off: u64, len: u64) -> impl Iterator<Item = u64> {
    let start = line_base(off);
    let end = if len == 0 { start } else { line_base(off + len - 1) + CACHE_LINE };
    (start..end).step_by(CACHE_LINE as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_base_rounds_down() {
        assert_eq!(line_base(0), 0);
        assert_eq!(line_base(63), 0);
        assert_eq!(line_base(64), 64);
        assert_eq!(line_base(65), 64);
        assert_eq!(line_base(1000), 960);
    }

    #[test]
    fn lines_overlapping_counts() {
        assert_eq!(lines_overlapping(0, 64).count(), 1);
        assert_eq!(lines_overlapping(0, 65).count(), 2);
        assert_eq!(lines_overlapping(63, 2).count(), 2);
        assert_eq!(lines_overlapping(10, 0).count(), 0);
        assert_eq!(lines_overlapping(128, 128).count(), 2);
    }

    /// A worker-stage diagnostic quotes the device's panic message; it must
    /// not depend on which device the harness ran the file system on.
    #[test]
    fn every_device_reports_out_of_range_identically() {
        use crate::{CowDevice, ForkDevice, PmDevice};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn accesses<D: PmBackend>(mut dev: D) -> Vec<String> {
            let mut msgs = Vec::new();
            let mut record = |f: &mut dyn FnMut(&mut D)| {
                let payload = catch_unwind(AssertUnwindSafe(|| f(&mut dev)))
                    .expect_err("out-of-range access must panic");
                msgs.push(payload.downcast_ref::<String>().expect("formatted message").clone());
            };
            record(&mut |d| d.read(60, &mut [0u8; 8]));
            record(&mut |d| d.store(60, &[1u8; 8]));
            record(&mut |d| d.memcpy_nt(60, &[1u8; 8]));
            record(&mut |d| d.memset_nt(60, 1, 8));
            record(&mut |d| d.read(u64::MAX, &mut [0u8; 8]));
            msgs
        }

        let base = [0u8; 64];
        let want = accesses(PmDevice::new(64));
        assert_eq!(want[0], "PM access out of range: off=60 len=8 device=64");
        assert!(want[..4].iter().all(|m| m == &want[0]), "{want:?}");
        assert_eq!(want[4], format!("PM access out of range: off={} len=8 device=64", u64::MAX));
        assert_eq!(accesses(CowDevice::new(&base)), want);
        assert_eq!(accesses(ForkDevice::new(64)), want);
    }
}
