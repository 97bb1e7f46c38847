//! The volatile free-block bitmap NOVA, NOVA-Fortis, PMFS and WineFS
//! rebuild at every mount.
//!
//! One bit per device block, set when the block is free. It is a drop-in
//! for the sorted set of free block numbers it replaces — same `first`,
//! ascending `iter`, `false` on a double `insert` — so the allocation
//! routines written over it (lowest-free-first, NOVA's first-fit runs,
//! WineFS's aligned runs) pick the blocks they always picked: the bug
//! analogues depend on *which* block an allocation returns and on a double
//! free being noticed, not on the container. What it drops is the cost: a
//! mount builds it with a word fill instead of one tree node per eleven
//! blocks, a fork copies a few words, and a drop frees one buffer.

/// A set of free block numbers below a fixed device size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FreeMap {
    /// Bit `b % 64` of word `b / 64` is set when block `b` is free. Bits at
    /// and above `total` are never set.
    words: Vec<u64>,
    /// Device size in blocks.
    total: u64,
    /// Number of set bits.
    len: usize,
}

impl FreeMap {
    /// A map over a device of `total` blocks with all of
    /// `[data_start, total)` free.
    pub fn full(data_start: u64, total: u64) -> Self {
        let mut words = vec![!0u64; total.div_ceil(64) as usize];
        if !total.is_multiple_of(64) {
            *words.last_mut().expect("total > 0") = (1u64 << (total % 64)) - 1;
        }
        let mut map = FreeMap { words, total, len: 0 };
        map.clear_below(data_start);
        map
    }

    /// Marks every block below `data_start` as not free (the metadata
    /// region a mount-time scan must never hand out).
    pub fn clear_below(&mut self, data_start: u64) {
        let lo = data_start.min(self.total);
        let word = (lo / 64) as usize;
        self.words[..word].fill(0);
        if !lo.is_multiple_of(64) {
            self.words[word] &= !0u64 << (lo % 64);
        }
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Number of free blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no block is free.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether block `b` is free.
    pub fn contains(&self, b: u64) -> bool {
        b < self.total && self.words[(b / 64) as usize] & (1 << (b % 64)) != 0
    }

    /// Marks `b` free. Returns `false` if it already was — or if `b` lies
    /// outside the device, which can never become allocatable.
    pub fn insert(&mut self, b: u64) -> bool {
        if b >= self.total || self.contains(b) {
            return false;
        }
        self.words[(b / 64) as usize] |= 1 << (b % 64);
        self.len += 1;
        true
    }

    /// Marks `b` in use. Returns whether it was free.
    pub fn remove(&mut self, b: u64) -> bool {
        if !self.contains(b) {
            return false;
        }
        self.words[(b / 64) as usize] &= !(1 << (b % 64));
        self.len -= 1;
        true
    }

    /// The lowest free block.
    pub fn first(&self) -> Option<u64> {
        self.next_free(0)
    }

    /// The free blocks in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::successors(self.first(), |&b| self.next_free(b + 1))
    }

    /// The lowest free block at or above `from`.
    fn next_free(&self, from: u64) -> Option<u64> {
        if from >= self.total {
            return None;
        }
        let mut word = (from / 64) as usize;
        let mut bits = self.words[word] & (!0u64 << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.words.get(word)?;
        }
        Some(word as u64 * 64 + u64::from(bits.trailing_zeros()))
    }
}
