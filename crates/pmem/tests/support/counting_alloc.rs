//! The counting global allocator of the allocation-regression tests, shared
//! by every `*_alloc.rs` binary of the workspace. Including the module
//! installs it:
//!
//! ```ignore
//! #[path = "support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! Counts are kept per thread, because the tests of one binary run on
//! parallel threads and each measures only its own allocations. The largest
//! request is also kept for the whole process, for tests whose work runs on
//! threads they do not own.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// What one thread has allocated since its last [`reset`].
#[derive(Clone, Copy, Debug)]
pub struct Counts {
    /// Allocation requests: `alloc`, `alloc_zeroed` and `realloc` calls.
    pub calls: usize,
    /// Bytes those requests asked for (a `realloc` asks for its new size).
    pub bytes: usize,
    /// The largest single request.
    pub max: usize,
    /// Bytes allocated minus bytes freed.
    pub live: isize,
}

const ZERO: Counts = Counts { calls: 0, bytes: 0, max: 0, live: 0 };

thread_local! {
    static COUNTS: Cell<Counts> = const { Cell::new(ZERO) };
}

static PROCESS_MAX: AtomicUsize = AtomicUsize::new(0);

/// This thread's counts since its last [`reset`].
pub fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// Zeroes this thread's counts.
pub fn reset() {
    COUNTS.with(|c| c.set(ZERO));
}

/// Runs `f` and returns what this thread allocated in it.
pub fn during(f: impl FnOnce()) -> Counts {
    reset();
    f();
    counts()
}

/// Runs `f` and returns the largest single request any thread made in it.
pub fn process_max_during(f: impl FnOnce()) -> usize {
    PROCESS_MAX.store(0, Relaxed);
    f();
    PROCESS_MAX.load(Relaxed)
}

fn note(size: usize, live: isize) {
    // `try_with`: the allocator also serves this thread's TLS teardown.
    let _ = COUNTS.try_with(|c| {
        let n = c.get();
        c.set(Counts {
            calls: n.calls + 1,
            bytes: n.bytes + size,
            max: n.max.max(size),
            live: n.live + live,
        });
    });
    PROCESS_MAX.fetch_max(size, Relaxed);
}

fn freed(size: usize) {
    let _ = COUNTS.try_with(|c| {
        let n = c.get();
        c.set(Counts { live: n.live - size as isize, ..n });
    });
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as isize);
        System.alloc(layout)
    }

    // `vec![0u8; n]` lands here; the default implementation would turn the
    // system's lazily-zeroed pages into an eager memset.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;
