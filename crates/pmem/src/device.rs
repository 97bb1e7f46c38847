//! The simulated persistent-memory device.

use std::collections::BTreeSet;

use crate::{
    backend::{assert_in_range, line_base, lines_overlapping, PmBackend, CACHE_LINE},
    cost::{
        PmStats, SimCost, FENCE_NS, FLUSH_LINE_NS, MEDIA_READ_LINE_NS, NT_LINE_NS, STORE_WORD_NS,
    },
};

/// How a write entered the in-flight set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InflightKind {
    /// A cache-line write-back of dirty cached data.
    Flush,
    /// A non-temporal store.
    NonTemporal,
}

/// A write that has left the cache (or bypassed it) but has not yet been
/// ordered by a store fence. On a crash, any subset of the in-flight writes
/// may have reached media.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InflightWrite {
    /// Destination offset on the device.
    pub off: u64,
    /// The bytes in flight.
    pub data: Vec<u8>,
    /// How the write entered the in-flight set.
    pub kind: InflightKind,
}

/// A simulated byte-addressable PM device with an x86-style epoch
/// persistence model.
///
/// The device tracks three layers of state:
///
/// * `view` — the logical contents: what loads observe (most recent stores,
///   flushed or not).
/// * `persistent` — the contents guaranteed to be on media (everything
///   ordered by a past fence).
/// * the *in-flight set* — flushed or non-temporal writes not yet fenced;
///   a crash persists an arbitrary subset of these on top of `persistent`.
///
/// Dirty cached data that was never flushed is treated as lost on a crash
/// (see the crate docs for why this matches the paper's model).
#[derive(Debug, Clone)]
pub struct PmDevice {
    view: Vec<u8>,
    persistent: Vec<u8>,
    /// Cache-line bases with dirty (stored but not written back) bytes.
    dirty_lines: BTreeSet<u64>,
    inflight: Vec<InflightWrite>,
    stats: PmStats,
    cost: SimCost,
}

impl PmDevice {
    /// Creates a zero-filled device of `len` bytes.
    pub fn new(len: u64) -> Self {
        PmDevice {
            view: vec![0u8; len as usize],
            persistent: vec![0u8; len as usize],
            dirty_lines: BTreeSet::new(),
            inflight: Vec::new(),
            stats: PmStats::default(),
            cost: SimCost::default(),
        }
    }

    /// Creates a device whose persistent contents are `image` (e.g. a crash
    /// state produced by a replayer). The cache starts clean.
    pub fn from_image(image: Vec<u8>) -> Self {
        PmDevice {
            view: image.clone(),
            persistent: image,
            dirty_lines: BTreeSet::new(),
            inflight: Vec::new(),
            stats: PmStats::default(),
            cost: SimCost::default(),
        }
    }

    /// The current logical contents (what a running program reads).
    pub fn view(&self) -> &[u8] {
        &self.view
    }

    /// The contents guaranteed to be on media right now.
    pub fn persistent_image(&self) -> &[u8] {
        &self.persistent
    }

    /// The writes currently in flight (flushed or non-temporal, unfenced).
    pub fn inflight(&self) -> &[InflightWrite] {
        &self.inflight
    }

    /// Operation counters.
    pub fn stats(&self) -> &PmStats {
        &self.stats
    }

    /// Simulates a crash that persists exactly the in-flight writes whose
    /// indices appear in `subset` (applied in program order), returning the
    /// resulting media image. Dirty unflushed cache lines are lost.
    pub fn crash_image_with(&self, subset: &[usize]) -> Vec<u8> {
        let mut img = self.persistent.clone();
        let mut order: Vec<usize> = subset.to_vec();
        order.sort_unstable();
        order.dedup();
        for &i in &order {
            let w = &self.inflight[i];
            img[w.off as usize..w.off as usize + w.data.len()].copy_from_slice(&w.data);
        }
        img
    }

    /// Simulates a crash with a random subset of in-flight writes persisted,
    /// driven by `pick(i)` returning whether in-flight write `i` survives.
    pub fn crash_image_where(&self, mut pick: impl FnMut(usize) -> bool) -> Vec<u8> {
        let subset: Vec<usize> = (0..self.inflight.len()).filter(|&i| pick(i)).collect();
        self.crash_image_with(&subset)
    }

    fn check_range(&self, off: u64, len: usize) {
        assert_in_range(off, len as u64, self.view.len() as u64);
    }
}

impl PmBackend for PmDevice {
    fn len(&self) -> u64 {
        self.view.len() as u64
    }

    fn read(&self, off: u64, buf: &mut [u8]) {
        self.check_range(off, buf.len());
        buf.copy_from_slice(&self.view[off as usize..off as usize + buf.len()]);
    }

    fn store(&mut self, off: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.check_range(off, data.len());
        self.view[off as usize..off as usize + data.len()].copy_from_slice(data);
        for line in lines_overlapping(off, data.len() as u64) {
            self.dirty_lines.insert(line);
        }
        self.stats.store_bytes += data.len() as u64;
        self.cost.charge(STORE_WORD_NS * (data.len() as u64).div_ceil(8));
    }

    fn memcpy_nt(&mut self, off: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.check_range(off, data.len());
        self.view[off as usize..off as usize + data.len()].copy_from_slice(data);
        self.inflight.push(InflightWrite {
            off,
            data: data.to_vec(),
            kind: InflightKind::NonTemporal,
        });
        self.stats.nt_bytes += data.len() as u64;
        self.cost.charge(NT_LINE_NS * (data.len() as u64).div_ceil(CACHE_LINE));
    }

    fn memset_nt(&mut self, off: u64, val: u8, len: u64) {
        if len == 0 {
            return;
        }
        // One allocation for the in-flight record; going through memcpy_nt
        // would build a temporary fill buffer and then copy it again.
        self.check_range(off, len as usize);
        let data = vec![val; len as usize];
        self.view[off as usize..off as usize + len as usize].copy_from_slice(&data);
        self.inflight.push(InflightWrite { off, data, kind: InflightKind::NonTemporal });
        self.stats.nt_bytes += len;
        self.cost.charge(NT_LINE_NS * len.div_ceil(CACHE_LINE));
    }

    fn flush(&mut self, off: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.check_range(off, len as usize);
        self.stats.flush_calls += 1;
        // Write back each dirty line overlapping the range. The flushed data
        // is the line's *current* contents — the same thing the paper's
        // logger records when it intercepts a flush call.
        let mut flushed: Option<(u64, u64)> = None;
        for line in lines_overlapping(off, len) {
            if self.dirty_lines.remove(&line) {
                self.stats.flush_lines += 1;
                self.cost.charge(FLUSH_LINE_NS);
                flushed = Some(match flushed {
                    None => (line, line + CACHE_LINE),
                    Some((s, e)) if line == e => (s, line + CACHE_LINE),
                    Some(prev) => {
                        self.push_flush_range(prev.0, prev.1);
                        (line, line + CACHE_LINE)
                    }
                });
            }
        }
        if let Some((s, e)) = flushed {
            self.push_flush_range(s, e);
        }
    }

    fn fence(&mut self) {
        self.stats.fences += 1;
        self.stats.max_inflight = self.stats.max_inflight.max(self.inflight.len() as u64);
        self.cost.charge(FENCE_NS);
        for w in self.inflight.drain(..) {
            self.persistent[w.off as usize..w.off as usize + w.data.len()]
                .copy_from_slice(&w.data);
        }
    }

    fn note_media_read(&mut self, len: u64) {
        self.stats.media_read_bytes += len;
        self.cost.charge(MEDIA_READ_LINE_NS * len.div_ceil(CACHE_LINE));
    }

    fn sim_cost(&self) -> SimCost {
        self.cost
    }
}

impl PmDevice {
    fn push_flush_range(&mut self, start: u64, end: u64) {
        // Clamp to device bounds: the last line of the device may extend past
        // the end if the device length is not line-aligned.
        let end = end.min(self.view.len() as u64);
        let base = line_base(start);
        let data = self.view[base as usize..end as usize].to_vec();
        self.inflight.push(InflightWrite {
            off: base,
            data,
            kind: InflightKind::Flush,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_is_visible_but_not_persistent() {
        let mut d = PmDevice::new(4096);
        d.store(100, b"hello");
        let mut buf = [0u8; 5];
        d.read(100, &mut buf);
        assert_eq!(&buf, b"hello");
        assert_eq!(&d.persistent_image()[100..105], &[0; 5]);
    }

    #[test]
    fn flush_without_fence_is_in_flight() {
        let mut d = PmDevice::new(4096);
        d.store(0, b"abc");
        d.flush(0, 3);
        assert_eq!(d.inflight().len(), 1);
        assert_eq!(&d.persistent_image()[0..3], &[0; 3]);
        d.fence();
        assert!(d.inflight().is_empty());
        assert_eq!(&d.persistent_image()[0..3], b"abc");
    }

    #[test]
    fn unflushed_store_lost_on_crash() {
        let mut d = PmDevice::new(4096);
        d.store(0, b"abc");
        let img = d.crash_image_with(&[]);
        assert_eq!(&img[0..3], &[0; 3]);
    }

    #[test]
    fn nt_store_is_in_flight_immediately() {
        let mut d = PmDevice::new(4096);
        d.memcpy_nt(64, b"xyz");
        assert_eq!(d.inflight().len(), 1);
        assert_eq!(d.inflight()[0].kind, InflightKind::NonTemporal);
        // Crash persisting the NT store.
        let img = d.crash_image_with(&[0]);
        assert_eq!(&img[64..67], b"xyz");
        // Crash losing it.
        let img = d.crash_image_with(&[]);
        assert_eq!(&img[64..67], &[0; 3]);
    }

    #[test]
    fn crash_subsets_respect_program_order() {
        let mut d = PmDevice::new(4096);
        d.memcpy_nt(0, &[1u8; 8]);
        d.memcpy_nt(0, &[2u8; 8]);
        // Both applied in program order: later write wins.
        let img = d.crash_image_with(&[0, 1]);
        assert_eq!(&img[0..8], &[2u8; 8]);
        let img = d.crash_image_with(&[1, 0]);
        assert_eq!(&img[0..8], &[2u8; 8]);
        let img = d.crash_image_with(&[0]);
        assert_eq!(&img[0..8], &[1u8; 8]);
    }

    #[test]
    fn flush_captures_line_contents_at_flush_time() {
        let mut d = PmDevice::new(4096);
        d.store(0, &[7u8; 8]);
        d.flush(0, 8);
        // Overwrite the same line after the flush, without flushing again.
        d.store(0, &[9u8; 8]);
        // The in-flight entry holds the value at flush time.
        let img = d.crash_image_with(&[0]);
        assert_eq!(&img[0..8], &[7u8; 8]);
    }

    #[test]
    fn flush_of_clean_lines_is_a_noop() {
        let mut d = PmDevice::new(4096);
        d.flush(0, 128);
        assert!(d.inflight().is_empty());
        d.store(0, &[1u8]);
        d.flush(0, 1);
        d.flush(0, 1); // second flush: line already written back
        assert_eq!(d.inflight().len(), 1);
    }

    #[test]
    fn contiguous_dirty_lines_coalesce_into_one_inflight_entry() {
        let mut d = PmDevice::new(4096);
        d.store(0, &vec![5u8; 256]);
        d.flush(0, 256);
        assert_eq!(d.inflight().len(), 1);
        assert_eq!(d.inflight()[0].data.len(), 256);
    }

    #[test]
    fn non_contiguous_dirty_lines_split() {
        let mut d = PmDevice::new(4096);
        d.store(0, &[1u8; 8]);
        d.store(256, &[2u8; 8]);
        d.flush(0, 512);
        assert_eq!(d.inflight().len(), 2);
    }

    #[test]
    fn fence_applies_in_program_order() {
        let mut d = PmDevice::new(4096);
        d.memcpy_nt(0, &[1u8; 8]);
        d.memcpy_nt(0, &[2u8; 8]);
        d.fence();
        assert_eq!(&d.persistent_image()[0..8], &[2u8; 8]);
    }

    #[test]
    fn stats_and_cost_accumulate() {
        let mut d = PmDevice::new(4096);
        d.store(0, &[0u8; 64]);
        d.flush(0, 64);
        d.fence();
        d.memcpy_nt(64, &[0u8; 128]);
        d.fence();
        let s = d.stats();
        assert_eq!(s.store_bytes, 64);
        assert_eq!(s.nt_bytes, 128);
        assert_eq!(s.flush_lines, 1);
        assert_eq!(s.fences, 2);
        assert!(d.sim_cost().ns > 0);
    }

    #[test]
    fn from_image_round_trips() {
        let mut img = vec![0u8; 1024];
        img[10] = 42;
        let d = PmDevice::from_image(img);
        let mut b = [0u8; 1];
        d.read(10, &mut b);
        assert_eq!(b[0], 42);
        assert_eq!(d.persistent_image()[10], 42);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_store_panics() {
        let mut d = PmDevice::new(64);
        d.store(60, &[0u8; 8]);
    }

    #[test]
    fn persist_u64_is_durable() {
        let mut d = PmDevice::new(4096);
        d.persist_u64(8, 0xdead_beef);
        assert_eq!(
            u64::from_le_bytes(d.persistent_image()[8..16].try_into().unwrap()),
            0xdead_beef
        );
        assert_eq!(d.read_u64(8), 0xdead_beef);
    }

    #[test]
    fn unaligned_device_tail_flush_ok() {
        // Device length not line-aligned: flushing the final partial line
        // must not run past the end.
        let mut d = PmDevice::new(100);
        d.store(96, &[3u8; 4]);
        d.flush(96, 4);
        d.fence();
        assert_eq!(&d.persistent_image()[96..100], &[3u8; 4]);
    }
}
