//! Leased all-zero device images.
//!
//! The harness tracks each workload's *persisted base image* — the bytes a
//! crash is guaranteed to preserve — as one dense, device-sized buffer that
//! crash-state overlays ([`crate::CowDevice`]) borrow. A workload writes a
//! few dozen KiB of it, so allocating and zero-filling a fresh buffer per
//! workload costs far more than the workload's own writes (glibc serves a
//! multi-MiB `calloc` from recycled heap it must memset and re-fault).
//!
//! [`ImageLease`] is that buffer on loan from a small process-wide free list:
//! a lease starts all-zero, records which 4 KiB pages its one mutator
//! dirtied, and on `Drop` re-zeroes exactly those pages before handing the
//! buffer back. The list is process-wide rather than thread-local because
//! the scheduler's workers are scoped threads that die with each batch.

use std::ops::Deref;
use std::sync::Mutex;

use crate::backend::assert_in_range;

/// Dirty-tracking granularity.
const PAGE: usize = 4096;

/// Most buffers the free list retains (over all lengths). Live leases are
/// one per prefix cache plus one per uncached workload in flight, i.e. about
/// the thread count; a buffer returned to a full list is simply freed.
const POOL_CAP: usize = 8;

/// Returned buffers, every byte zero.
static POOL: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// An all-zero-initialized image of a fixed length, on loan from the free
/// list. Read it as a byte slice; mutate it only through
/// [`write`](ImageLease::write), which is what lets `Drop` restore the
/// all-zero state in time proportional to the pages touched.
pub struct ImageLease {
    buf: Vec<u8>,
    /// One bit per [`PAGE`] of `buf` that `write` has touched.
    dirty: Vec<u64>,
}

impl ImageLease {
    /// Leases an all-zero image of `len` bytes: a returned buffer of exactly
    /// that length when the free list holds one, a fresh allocation
    /// otherwise.
    pub fn zeroed(len: u64) -> Self {
        let len = usize::try_from(len).expect("image length fits the address space");
        // A poisoned list (a panic while pushing or popping) is treated as
        // empty; its buffers are dropped with the process.
        let pooled = POOL.lock().ok().and_then(|mut pool| {
            // Newest first: the buffer returned last is the cache-warmest.
            let i = pool.iter().rposition(|b| b.len() == len)?;
            Some(pool.remove(i))
        });
        let buf = match pooled {
            Some(buf) => {
                debug_assert!(buf.iter().all(|&b| b == 0), "pooled image is not all-zero");
                buf
            }
            None => vec![0u8; len],
        };
        ImageLease { buf, dirty: vec![0u64; len.div_ceil(PAGE).div_ceil(64)] }
    }

    /// Copies `data` to `off`, marking the pages it touches.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (see [`assert_in_range`]).
    pub fn write(&mut self, off: u64, data: &[u8]) {
        assert_in_range(off, data.len() as u64, self.buf.len() as u64);
        if data.is_empty() {
            return;
        }
        let start = off as usize;
        let end = start + data.len();
        for page in start / PAGE..=(end - 1) / PAGE {
            self.dirty[page / 64] |= 1 << (page % 64);
        }
        self.buf[start..end].copy_from_slice(data);
    }
}

impl Deref for ImageLease {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for ImageLease {
    /// Re-zeroes the dirtied pages and returns the buffer to the free list.
    /// Runs during unwinding too (the sandbox catches checker panics with
    /// leases live), so nothing here can panic: a poisoned or full list just
    /// frees the buffer.
    fn drop(&mut self) {
        let len = self.buf.len();
        for (w, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let start = (w * 64 + bits.trailing_zeros() as usize) * PAGE;
                self.buf[start..(start + PAGE).min(len)].fill(0);
                bits &= bits - 1;
            }
        }
        if let Ok(mut pool) = POOL.lock() {
            if pool.len() < POOL_CAP {
                pool.push(std::mem::take(&mut self.buf));
            }
        }
    }
}
