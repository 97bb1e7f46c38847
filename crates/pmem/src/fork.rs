//! A page-sparse, forkable zero-initialized device: what every crash-free
//! phase (oracle run, recorded run) of the harness executes on.
//!
//! Pages exist only once written, so creating a device costs nothing
//! proportional to its length — a workload touches a few dozen KiB of a
//! 4 MiB device, and the uncached pipeline creates two devices per workload.
//!
//! ACE suites re-execute enormous shared op prefixes (the seq-2 sweep runs
//! op 1 once per pair). The prefix cache keeps *live* mounted file systems
//! at each cached prefix depth and resumes workloads from them — which
//! requires cloning a mounted file system, and therefore cloning its
//! device, in (amortized) far less time than re-executing the prefix.
//!
//! [`ForkDevice`] makes `Clone` cheap with layered copy-on-write: the page
//! overlay is a stack of `Arc`-shared layers. A clone shares every layer;
//! the first write on either side after a clone notices the shared top
//! layer (strong count > 1) and pushes a fresh private layer to write into.
//! `Arc` (not `Rc`) so a forked checkpoint — and with it a whole
//! `PrefixCache` — can move across scheduler worker threads; ownership of a
//! device still stays with one thread at a time, so the single-owner write
//! path remains lock-free (`Arc::get_mut` on the uniquely held top layer).
//! Cloning an entry that is never written again is therefore O(depth), and
//! re-cloning the same cached entry many times — the prefix-cache hot path —
//! never copies page data at all.
//!
//! Reads probe layers top-down and fall through to zeros (devices start
//! zeroed, exactly like a fresh [`crate::PmDevice`]). Layer depth is bounded
//! by the number of clone points with intervening writes, i.e. the cached
//! prefix depth — single digits in practice.

use std::sync::Arc;

use crate::{
    backend::{assert_in_range, PmBackend},
    cost::SimCost,
    fxmap::FxHashMap,
};

/// Overlay page size.
const PAGE: u64 = 4096;

/// Writes flatten the layer stack once it grows past this depth. Long fork
/// *chains* (each cached workload forking from the previous one's
/// checkpoints, thousands of times over an ACE sweep) would otherwise make
/// every read walk an ever-growing stack.
const MAX_LAYERS: usize = 48;

/// A zero-initialized PM device with O(1)-amortized cloning.
///
/// Semantics match [`crate::CowDevice`]: all writes (cached stores and
/// non-temporal alike) apply directly; `flush`/`fence` are no-ops. The
/// harness only runs *crash-free* phases (oracle, record) on this device —
/// in-flight tracking for crash-state construction lives in the logging
/// wrapper, never here.
pub struct ForkDevice {
    len: u64,
    /// Overlay layers, oldest first. The last layer is written to when
    /// uniquely owned; a shared last layer is frozen by pushing a new one.
    layers: Vec<Arc<FxHashMap<u64, Box<[u8]>>>>,
}

impl ForkDevice {
    /// Creates a zeroed device of `len` bytes.
    pub fn new(len: u64) -> Self {
        ForkDevice { len, layers: Vec::new() }
    }

    /// Number of overlay layers (diagnostics; clones add at most one).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The full current image as a fresh vector. O(len).
    pub fn image(&self) -> Vec<u8> {
        let mut img = vec![0u8; self.len as usize];
        // Apply oldest layer first so newer pages win.
        for layer in &self.layers {
            for (&pno, page) in layer.iter() {
                let start = (pno * PAGE) as usize;
                let end = (start + PAGE as usize).min(img.len());
                img[start..end].copy_from_slice(&page[..end - start]);
            }
        }
        img
    }

    /// Reads the current content of page `pno` into an owned box.
    fn read_page(&self, pno: u64) -> Box<[u8]> {
        for layer in self.layers.iter().rev() {
            if let Some(p) = layer.get(&pno) {
                return p.clone();
            }
        }
        vec![0u8; PAGE as usize].into_boxed_slice()
    }

    fn page_mut(&mut self, pno: u64) -> &mut [u8] {
        let top_unique = self.layers.last().is_some_and(|l| Arc::strong_count(l) == 1);
        let top_has = top_unique && self.layers.last().expect("checked").contains_key(&pno);
        if !top_has {
            let content = self.read_page(pno);
            if !top_unique {
                self.layers.push(Arc::new(FxHashMap::default()));
            }
            let top = Arc::get_mut(self.layers.last_mut().expect("pushed")).expect("unique top");
            top.insert(pno, content);
        }
        Arc::get_mut(self.layers.last_mut().expect("present"))
            .expect("unique top")
            .get_mut(&pno)
            .expect("inserted")
    }

    /// Merges every layer into one privately-owned bottom layer.
    fn flatten(&mut self) {
        let mut merged: FxHashMap<u64, Box<[u8]>> = FxHashMap::default();
        for layer in &self.layers {
            for (&pno, page) in layer.iter() {
                merged.insert(pno, page.clone());
            }
        }
        self.layers = vec![Arc::new(merged)];
    }

    fn write_bytes(&mut self, off: u64, data: &[u8]) {
        if self.layers.len() >= MAX_LAYERS {
            self.flatten();
        }
        assert_in_range(off, data.len() as u64, self.len);
        let mut pos = 0usize;
        while pos < data.len() {
            let cur = off + pos as u64;
            let pno = cur / PAGE;
            let in_page = (cur % PAGE) as usize;
            let n = (PAGE as usize - in_page).min(data.len() - pos);
            self.page_mut(pno)[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    fn read_bytes(&self, off: u64, buf: &mut [u8]) {
        assert_in_range(off, buf.len() as u64, self.len);
        let mut pos = 0usize;
        while pos < buf.len() {
            let cur = off + pos as u64;
            let pno = cur / PAGE;
            let in_page = (cur % PAGE) as usize;
            let n = (PAGE as usize - in_page).min(buf.len() - pos);
            let mut found = false;
            for layer in self.layers.iter().rev() {
                if let Some(p) = layer.get(&pno) {
                    buf[pos..pos + n].copy_from_slice(&p[in_page..in_page + n]);
                    found = true;
                    break;
                }
            }
            if !found {
                buf[pos..pos + n].fill(0);
            }
            pos += n;
        }
    }
}

impl Clone for ForkDevice {
    /// Shares every layer with `self`; both sides copy-on-write afterwards.
    fn clone(&self) -> Self {
        ForkDevice { len: self.len, layers: self.layers.clone() }
    }
}

impl PmBackend for ForkDevice {
    fn len(&self) -> u64 {
        self.len
    }

    fn read(&self, off: u64, buf: &mut [u8]) {
        self.read_bytes(off, buf);
    }

    fn store(&mut self, off: u64, data: &[u8]) {
        self.write_bytes(off, data);
    }

    fn memcpy_nt(&mut self, off: u64, data: &[u8]) {
        self.write_bytes(off, data);
    }

    fn memset_nt(&mut self, off: u64, val: u8, len: u64) {
        assert_in_range(off, len, self.len);
        let buf = [val; PAGE as usize];
        let mut pos = 0u64;
        while pos < len {
            let n = (len - pos).min(PAGE) as usize;
            self.write_bytes(off + pos, &buf[..n]);
            pos += n as u64;
        }
    }

    fn flush(&mut self, _off: u64, _len: u64) {}

    fn fence(&mut self) {}

    fn sim_cost(&self) -> SimCost {
        SimCost::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed_and_round_trips() {
        let mut d = ForkDevice::new(16384);
        let mut b = [1u8; 64];
        d.read(8000, &mut b);
        assert_eq!(b, [0u8; 64]);
        d.store(8000, &[7u8; 64]);
        d.read(8000, &mut b);
        assert_eq!(b, [7u8; 64]);
    }

    #[test]
    fn clones_diverge_independently() {
        let mut a = ForkDevice::new(8192);
        a.store(0, &[1u8; 16]);
        let mut b = a.clone();
        b.store(0, &[2u8; 16]);
        a.store(4096, &[3u8; 16]);
        let mut buf = [0u8; 16];
        a.read(0, &mut buf);
        assert_eq!(buf, [1u8; 16], "clone's write invisible to original");
        b.read(0, &mut buf);
        assert_eq!(buf, [2u8; 16]);
        b.read(4096, &mut buf);
        assert_eq!(buf, [0u8; 16], "original's later write invisible to clone");
    }

    #[test]
    fn repeated_clones_of_a_frozen_entry_add_no_layers() {
        let mut a = ForkDevice::new(8192);
        a.store(0, &[1u8; 16]);
        let b = a.clone();
        let c = a.clone();
        let d = a.clone();
        assert_eq!(b.depth(), 1);
        assert_eq!(c.depth(), 1);
        assert_eq!(d.depth(), 1);
        // Only a side that writes pushes a layer.
        let mut e = a.clone();
        e.store(64, &[5u8; 8]);
        assert_eq!(e.depth(), 2);
        assert_eq!(a.depth(), 1);
    }

    #[test]
    fn cross_page_writes_and_partial_overwrite_in_layers() {
        let mut a = ForkDevice::new(3 * 4096);
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        a.memcpy_nt(3000, &data);
        let b = a.clone();
        let mut c = b.clone();
        c.store(4000, &[0xee; 2000]);
        let mut got = vec![0u8; 5000];
        c.read(3000, &mut got);
        let mut want = data.clone();
        want[1000..3000].fill(0xee);
        assert_eq!(got, want);
        a.read(3000, &mut got);
        assert_eq!(got, data);
    }

    #[test]
    fn image_matches_reads() {
        let mut a = ForkDevice::new(8192);
        a.store(100, &[9u8; 300]);
        let b = a.clone();
        let mut c = b.clone();
        c.memset_nt(4000, 4, 200);
        let img = c.image();
        let mut buf = vec![0u8; 8192];
        c.read(0, &mut buf);
        assert_eq!(img, buf);
    }

    #[test]
    fn memset_unaligned_tail() {
        let mut d = ForkDevice::new(4096 * 2);
        d.memset_nt(4090, 3, 12);
        let mut b = [0u8; 12];
        d.read(4090, &mut b);
        assert_eq!(b, [3u8; 12]);
    }
}
