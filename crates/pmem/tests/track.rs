//! Differential properties of [`ReadTracker`]: its word bitmap against a
//! literal per-byte model, the cap edge, and the state a tracker leaves its
//! thread's bitmap in.
//!
//! The bitmap is on loan from the test's own thread, so tests running on
//! parallel threads share nothing.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use pmem::{PmBackend, PmDevice, ReadTracker, WORD};

/// Not a multiple of [`WORD`]: the last word (1024) is 5 bytes long. 1025
/// words span 17 bitmap words, so long ranges cross several of them.
const DEV: u64 = 8 * 1024 + 5;

#[derive(Debug, Clone)]
enum Op {
    Read { off: u64, len: u64 },
    Store { off: u64, len: u64 },
    MemcpyNt { off: u64, len: u64 },
    MemsetNt { off: u64, len: u64 },
}

/// Ranges anywhere in the device, the last partial word included: empty,
/// sub-word, word-straddling, and longer than 64 words (512 bytes).
fn range() -> impl Strategy<Value = (u64, u64)> {
    let len = prop_oneof![Just(0u64), 1u64..8, 1u64..40, 500u64..1400];
    (0u64..=DEV, len).prop_map(|(off, len)| (off.min(DEV - len.min(DEV)), len.min(DEV)))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => range().prop_map(|(off, len)| Op::Read { off, len }),
        1 => range().prop_map(|(off, len)| Op::Store { off, len }),
        1 => range().prop_map(|(off, len)| Op::MemcpyNt { off, len }),
        1 => range().prop_map(|(off, len)| Op::MemsetNt { off, len }),
    ]
}

/// The tracking rule, literally: a read records the word of every byte not
/// yet written; a write dirties exactly its bytes.
struct Model {
    dirty: Vec<bool>,
    words: BTreeSet<u32>,
}

impl Model {
    fn new() -> Self {
        Model { dirty: vec![false; DEV as usize], words: BTreeSet::new() }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Read { off, len } => {
                for b in off..off + len {
                    if !self.dirty[b as usize] {
                        self.words.insert((b / WORD) as u32);
                    }
                }
            }
            Op::Store { off, len } | Op::MemcpyNt { off, len } | Op::MemsetNt { off, len } => {
                self.dirty[off as usize..(off + len) as usize].fill(true);
            }
        }
    }

    fn clean_words(&self, cap: usize) -> Option<Vec<u32>> {
        (self.words.len() <= cap).then(|| self.words.iter().copied().collect())
    }
}

fn apply(t: &mut ReadTracker<PmDevice>, op: &Op) {
    match *op {
        Op::Read { off, len } => t.read(off, &mut vec![0u8; len as usize]),
        Op::Store { off, len } => t.store(off, &vec![1u8; len as usize]),
        Op::MemcpyNt { off, len } => t.memcpy_nt(off, &vec![2u8; len as usize]),
        Op::MemsetNt { off, len } => t.memset_nt(off, 3, len),
    }
}

/// Reads the first and the last device word through a new tracker on this
/// thread: the collection scans the whole bitmap, so any bit an earlier
/// tracker left behind would show up beside the two.
fn assert_idle_bitmap_is_zero() {
    let t = ReadTracker::new(PmDevice::new(DEV), usize::MAX);
    t.read(0, &mut [0u8; 1]);
    t.read(DEV - 1, &mut [0u8; 1]);
    assert_eq!(t.clean_words(), Some(vec![0, ((DEV - 1) / WORD) as u32]));
}

proptest! {
    /// After every operation the tracker reports exactly the model's set —
    /// or `None` exactly when the model holds more than `cap` words — and
    /// whatever it recorded, the bitmap goes back to its thread all-zero.
    #[test]
    fn clean_words_equal_the_per_byte_model(
        ops in proptest::collection::vec(op(), 0..40),
        cap in prop_oneof![Just(usize::MAX), 1usize..300],
    ) {
        let mut t = ReadTracker::new(PmDevice::new(DEV), cap);
        let mut model = Model::new();
        for op in &ops {
            apply(&mut t, op);
            model.apply(op);
            prop_assert_eq!(t.clean_words(), model.clean_words(cap), "after {:?}", op);
        }
        drop(t);
        assert_idle_bitmap_is_zero();
    }
}

#[test]
fn exactly_cap_words_fit_and_one_more_overflows_for_good() {
    let cap = 130; // crosses two bitmap-word boundaries
    let mut t = ReadTracker::new(PmDevice::new(DEV), cap);
    t.read(3 * WORD, &mut vec![0u8; cap * WORD as usize]);
    assert_eq!(t.clean_words(), Some((3..3 + cap as u32).collect()));
    t.read(3 * WORD, &mut [0u8; 64]); // re-reading adds nothing
    assert_eq!(t.clean_words().map(|w| w.len()), Some(cap));
    t.read(0, &mut [0u8; 1]);
    assert_eq!(t.clean_words(), None);
    // Neither dirtying the recorded words nor further reads bring it back.
    t.memset_nt(0, 0, DEV);
    t.read(4096, &mut [0u8; 8]);
    assert_eq!(t.clean_words(), None);
    drop(t);
    assert_idle_bitmap_is_zero();
}

#[test]
fn a_tracker_unwound_mid_check_returns_a_zero_bitmap() {
    // The sandbox catches checker panics with the tracker live; here the
    // panic is the inner device rejecting an out-of-range read.
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let t = ReadTracker::new(PmDevice::new(DEV), usize::MAX);
        t.read(100, &mut [0u8; 3000]);
        t.read(DEV - 4, &mut [0u8; 8]);
    }));
    assert!(unwound.is_err());
    assert_idle_bitmap_is_zero();
}
