//! The crash-state overlay against a flat model: random writes, reads,
//! undo marks, rewinds and rollbacks on a [`CowDevice`] must read exactly
//! like the same history applied to a `Vec<u8>` copy of the base — across
//! page boundaries, on devices whose length is not a multiple of the 4 KiB
//! page, with two overlays alive at once on one thread (the slow-path
//! re-check runs under the delta replayer's overlay), and after an overlay
//! is dropped mid-history or while unwinding. Whatever scratch an overlay
//! hands back to its thread, the thread's next overlay must read pure base
//! bytes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use pmem::{CowDevice, FuelGuard, PmBackend, UndoMark};

/// Device lengths, none a multiple of the page: a short tail page, a
/// one-byte tail page, a tail page one word short of full.
const LENS: [usize; 3] = [3 * 4096 + 1234, 4096 + 1, 5 * 4096 - 8];

/// One overlay operation. Offsets and lengths are raw draws, folded into
/// the device at run time; lengths reach past two pages.
#[derive(Debug, Clone)]
enum Op {
    Apply { at: u32, len: u16, val: u8 },
    Store { at: u32, len: u16, val: u8 },
    Memset { at: u32, len: u16, val: u8 },
    Read { at: u32, len: u16 },
    Mark,
    UndoTo { pick: u8 },
    Rollback,
}

fn op() -> impl Strategy<Value = Op> {
    let span = || (any::<u32>(), 1u16..9000, any::<u8>());
    prop_oneof![
        4 => span().prop_map(|(at, len, val)| Op::Apply { at, len, val }),
        4 => span().prop_map(|(at, len, val)| Op::Store { at, len, val }),
        2 => span().prop_map(|(at, len, val)| Op::Memset { at, len, val }),
        4 => (any::<u32>(), 1u16..9000).prop_map(|(at, len)| Op::Read { at, len }),
        3 => Just(Op::Mark),
        2 => any::<u8>().prop_map(|pick| Op::UndoTo { pick }),
        1 => Just(Op::Rollback),
    ]
}

/// A base image with distinct bytes on every page, so a page read from the
/// wrong place shows.
fn base_image(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ (i / 4096) as u8 ^ salt).collect()
}

/// `(off, len)` of a raw draw, folded into a device of `dev` bytes.
fn span(dev: usize, at: u32, len: u16) -> (usize, usize) {
    let off = at as usize % dev;
    (off, (len as usize).min(dev - off))
}

/// An overlay and the model it must agree with: the expected image, and
/// for every live undo mark the image it must rewind to.
struct Twin<'a> {
    cow: CowDevice<'a>,
    base: &'a [u8],
    img: Vec<u8>,
    marks: Vec<(UndoMark, Vec<u8>)>,
    undo: bool,
}

impl<'a> Twin<'a> {
    fn new(base: &'a [u8], undo: bool) -> Self {
        let cow = if undo { CowDevice::new_with_undo(base) } else { CowDevice::new(base) };
        Twin { cow, base, img: base.to_vec(), marks: Vec::new(), undo }
    }

    fn step(&mut self, op: &Op) -> Result<(), TestCaseError> {
        let dev = self.img.len();
        match *op {
            Op::Apply { at, len, val } | Op::Store { at, len, val } => {
                let (off, n) = span(dev, at, len);
                let data: Vec<u8> = (0..n).map(|i| val.wrapping_add(i as u8)).collect();
                if matches!(op, Op::Apply { .. }) {
                    self.cow.apply(off as u64, &data);
                } else {
                    self.cow.store(off as u64, &data);
                }
                self.img[off..off + n].copy_from_slice(&data);
            }
            Op::Memset { at, len, val } => {
                let (off, n) = span(dev, at, len);
                self.cow.memset_nt(off as u64, val, n as u64);
                self.img[off..off + n].fill(val);
            }
            Op::Read { at, len } => {
                let (off, n) = span(dev, at, len);
                let mut got = vec![0u8; n];
                self.cow.read(off as u64, &mut got);
                prop_assert_eq!(&got[..], &self.img[off..off + n], "read of {} bytes at {}", n, off);
            }
            Op::Mark if self.undo => self.marks.push((self.cow.mark(), self.img.clone())),
            Op::Mark => prop_assert_eq!(self.cow.mark(), 0, "an overlay without undo marks 0"),
            Op::UndoTo { pick } if !self.marks.is_empty() => {
                let i = pick as usize % self.marks.len();
                let (mark, img) = self.marks[i].clone();
                self.cow.undo_to(mark);
                self.img = img;
                // Marks past the rewound-to one no longer exist.
                self.marks.truncate(i + 1);
            }
            // Without undo, a rewind to the start is a no-op.
            Op::UndoTo { .. } if !self.undo => self.cow.undo_to(0),
            // With undo but no live mark, rewind to where the log is now.
            Op::UndoTo { .. } => self.cow.undo_to(self.cow.mark()),
            Op::Rollback => {
                self.cow.rollback();
                self.img.copy_from_slice(self.base);
                self.marks.clear();
            }
        }
        Ok(())
    }

    fn check_whole(&self) -> Result<(), TestCaseError> {
        let mut got = vec![0u8; self.img.len()];
        self.cow.read(0, &mut got);
        prop_assert!(got == self.img, "whole-device read differs from the model");
        prop_assert!(self.cow.dirty_pages() <= self.img.len().div_ceil(4096));
        Ok(())
    }
}

/// The thread's next overlay over `base` reads `base` exactly, owns no page
/// and has an empty log.
fn fresh_overlay_reads_base(base: &[u8]) -> Result<(), TestCaseError> {
    let cow = CowDevice::new_with_undo(base);
    let mut got = vec![0u8; base.len()];
    cow.read(0, &mut got);
    prop_assert!(got == base, "a fresh overlay read bytes its predecessor wrote");
    prop_assert_eq!(cow.dirty_pages(), 0);
    prop_assert_eq!(cow.mark(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn overlay_matches_flat_model(
        len in prop::sample::select(LENS.to_vec()),
        undo in any::<bool>(),
        ops in prop::collection::vec(op(), 1..80),
    ) {
        let base = base_image(len, 0);
        let mut twin = Twin::new(&base, undo);
        for op in &ops {
            twin.step(op)?;
        }
        twin.check_whole()?;
        drop(twin);
        fresh_overlay_reads_base(&base)?;
    }

    #[test]
    fn two_live_overlays_on_one_thread_stay_independent(
        lens in (prop::sample::select(LENS.to_vec()), prop::sample::select(LENS.to_vec())),
        ops in prop::collection::vec((any::<bool>(), op()), 1..100),
        drop_first_first in any::<bool>(),
    ) {
        let (a, b) = (base_image(lens.0, 0x11), base_image(lens.1, 0x77));
        // The first overlay borrows the thread's scratch, the second starts
        // from empty; both hand theirs back, in either order.
        let mut first = Twin::new(&a, true);
        let mut second = Twin::new(&b, true);
        for (to_first, op) in &ops {
            if *to_first { first.step(op)? } else { second.step(op)? }
        }
        first.check_whole()?;
        second.check_whole()?;
        if drop_first_first {
            drop(first);
            fresh_overlay_reads_base(&a)?;
            second.check_whole()?;
            drop(second);
        } else {
            drop(second);
            fresh_overlay_reads_base(&b)?;
            first.check_whole()?;
            drop(first);
        }
        fresh_overlay_reads_base(&a)?;
        fresh_overlay_reads_base(&b)?;
    }

    #[test]
    fn overlay_dropped_while_unwinding_leaves_clean_scratch(
        len in prop::sample::select(LENS.to_vec()),
        ops in prop::collection::vec(op(), 0..40),
        fuel_pct in 0u64..100,
    ) {
        // The memset below costs one unit per page chunk plus one per 64
        // bytes; this budget runs dry somewhere inside it.
        let fuel = 1 + (len as u64 / 64) * fuel_pct / 100;
        let base = base_image(len, 0x3c);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut twin = Twin::new(&base, true);
            for op in &ops {
                let _ = twin.step(op);
            }
            // The recovery fuel watchdog unwinds out of the middle of a
            // whole-device memset, the way a hanging recovery is cut off.
            let _fuel = FuelGuard::arm(Some(fuel));
            twin.cow.memset_nt(0, 0xff, len as u64);
        }));
        prop_assert!(caught.is_err(), "the watchdog must fire within a whole-device memset");
        fresh_overlay_reads_base(&base)?;
    }
}

#[test]
fn overlay_dropped_mid_history_leaves_clean_scratch() {
    let base = base_image(LENS[0], 0x5a);
    let mut cow = CowDevice::new_with_undo(&base);
    cow.apply(4000, &[1; 300]); // two pages
    let m = cow.mark();
    cow.store(4090, &[2; 20]); // pre-images on both
    cow.memset_nt(3 * 4096, 3, 1234); // the tail page
    cow.undo_to(m);
    cow.store(0, &[4; 8]);
    drop(cow); // live pages, undo records and arena bytes outstanding
    fresh_overlay_reads_base(&base).unwrap();
}
