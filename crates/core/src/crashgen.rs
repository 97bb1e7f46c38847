//! Crash-state generation: in-flight tracking, coalescing, subset
//! enumeration (§3.3), and the delta replayer that steps between adjacent
//! crash states instead of rebuilding each from scratch.
//!
//! Every logged byte is hashed once. A [`PendingWrite`] carries the content
//! key of its bytes (`pmem::span_key(off, data)`), computed when the write is
//! read from the log and XOR-combined when [`coalesce`] merges pieces (span
//! keys compose positionally, so the merged key is exact). Everything that
//! keys or signs a crash state starts from that carried key:
//!
//! * image keys: a write's delta is its carried key XOR the key of the bytes
//!   it lands on. [`SubsetWalker`] computes it once per crash point for every
//!   write that no earlier write at the point overlaps (it lands on base
//!   bytes in every subset) and reuses it on every push;
//! * behavioral signatures: [`SigCache`] splits a point's in-flight and
//!   absorbed writes into *overlap clusters* — maximal groups connected by
//!   overlapping byte ranges. A lone write signs by one precomputed term,
//!   a cluster of absorbed writes only is a per-point constant, and only a
//!   cluster mixing in-flight writes with others is re-segmented per state;
//! * a write cut into pieces by later writers hashes whichever side is
//!   smaller: its surviving pieces, or the carried key minus the shadowed
//!   gaps.
//!
//! None of this changes a value: image keys stay bit-identical to
//! `pmem::image_key` of the materialised state, and signatures to
//! [`behavior_sig`].

use std::cell::RefCell;

use pmem::{span_key, write_delta, CowDevice, ImageKey, PmBackend, UndoMark};
use pmlog::LogEntry;

/// One logical in-flight write awaiting a fence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingWrite {
    /// Destination offset.
    pub off: u64,
    /// Data.
    pub data: Vec<u8>,
    /// Whether the write came from a non-temporal store (candidate for
    /// data-write coalescing).
    pub nt: bool,
    /// `span_key(off, data)`, computed once (see the module docs).
    key: ImageKey,
}

impl PendingWrite {
    /// A write of `data` at `off`, hashing its bytes once.
    pub fn new(off: u64, data: Vec<u8>, nt: bool) -> PendingWrite {
        let key = span_key(off, &data);
        PendingWrite { off, data, nt, key }
    }

    /// Builds from a log write entry.
    pub fn from_entry(e: &LogEntry) -> Option<PendingWrite> {
        match e {
            LogEntry::Nt { off, data } => Some(PendingWrite::new(*off, data.clone(), true)),
            LogEntry::Flush { off, data } => Some(PendingWrite::new(*off, data.clone(), false)),
            // Plain stores appear only in eADR logs, where they are durable
            // on landing.
            LogEntry::Store { off, data } => Some(PendingWrite::new(*off, data.clone(), false)),
            _ => None,
        }
    }

    /// The content key of the write's bytes at its offset:
    /// `pmem::span_key(off, data)`, carried rather than recomputed.
    pub fn key(&self) -> ImageKey {
        debug_assert_eq!(self.key, span_key(self.off, &self.data), "stale carried key");
        self.key
    }

    /// One past the last byte written.
    fn end(&self) -> u64 {
        self.off + self.data.len() as u64
    }

    /// The written bytes of `[s, e)`, which must lie inside the write.
    fn bytes(&self, s: u64, e: u64) -> &[u8] {
        &self.data[(s - self.off) as usize..(e - self.off) as usize]
    }
}

/// Coalesces address-contiguous consecutive non-temporal writes into single
/// logical writes — the paper's file-data heuristic: a large non-temporal
/// memcpy "usually indicates a file data write", and replaying its pieces
/// independently adds states without adding bugs found. The merged write's
/// key is the XOR of its pieces' keys.
pub fn coalesce(writes: &[PendingWrite]) -> Vec<PendingWrite> {
    let mut out = Vec::with_capacity(writes.len());
    coalesce_into(writes, true, &mut out);
    out
}

/// `writes` copied into `out`, [`coalesce`]d when `merge`, reusing the data
/// buffers of the writes `out` held.
pub(crate) fn coalesce_into(writes: &[PendingWrite], merge: bool, out: &mut Vec<PendingWrite>) {
    let mut n = 0;
    for w in writes {
        let last = out[..n].last_mut().filter(|l| merge && l.nt && w.nt && l.end() == w.off);
        if let Some(last) = last {
            last.data.extend_from_slice(&w.data);
            last.key ^= w.key;
            continue;
        }
        match out.get_mut(n) {
            Some(slot) => {
                slot.data.clone_from(&w.data);
                (slot.off, slot.nt, slot.key) = (w.off, w.nt, w.key);
            }
            None => out.push(w.clone()),
        }
        n += 1;
    }
    out.truncate(n);
}

/// Enumerates the subsets of `n` in-flight writes to replay, by subset size:
/// increasing (Observation 7: buggy crash states usually involve few writes,
/// so small subsets first finds bugs quickly) or, with `large_first`,
/// decreasing — the ablation control for Observation 7 (with stop-on-first,
/// small-first should reach the buggy state in far fewer mounts).
///
/// The empty subset is excluded (it equals the already-checked base state).
/// With a `cap`, subsets larger than the cap are skipped but the *full* set
/// is always included — it is the state an actual crash immediately before
/// the fence would most plausibly leave, and it is the next base. At most
/// `max_states` subsets are returned.
pub fn enumerate_subsets_ordered(
    n: usize,
    cap: Option<usize>,
    max_states: u64,
    large_first: bool,
) -> Vec<Vec<usize>> {
    let mut out = SubsetList::default();
    enumerate_subsets_into(n, cap, max_states, large_first, false, &mut out);
    out.iter().map(<[usize]>::to_vec).collect()
}

/// [`enumerate_subsets_ordered`] into `out`, after the empty subset when
/// `with_base`.
pub(crate) fn enumerate_subsets_into(
    n: usize,
    cap: Option<usize>,
    max_states: u64,
    large_first: bool,
    with_base: bool,
    out: &mut SubsetList,
) {
    out.idx.clear();
    out.ends.clear();
    if with_base {
        out.ends.push(0);
    }
    if n == 0 {
        return;
    }
    let limit = cap.unwrap_or(n).min(n);
    let sizes = (0..limit).map(|i| if large_first { limit - i } else { i + 1 });
    // The full set must always be present (it is the state a crash
    // immediately before the fence would most plausibly leave, and it is the
    // next base). Unless the enumeration itself reaches it within budget, a
    // slot is reserved for it up front so appending it never exceeds
    // `max_states` and never overwrites an already-enumerated subset.
    let available: u64 = sizes.clone().fold(0u64, |acc, k| acc.saturating_add(binom(n, k)));
    let full_within_enum = limit == n && (large_first || available <= max_states);
    let budget = if full_within_enum { max_states } else { max_states.saturating_sub(1) };
    let mut count = 0u64;
    'outer: for size in sizes {
        // The first combination, `0..size`; each next one is built in place
        // on a copy of the last.
        out.idx.extend(0..size);
        loop {
            let from = out.idx.len();
            if count >= budget {
                out.idx.truncate(from - size);
                break 'outer;
            }
            out.ends.push(from);
            count += 1;
            out.idx.extend_from_within(from - size..);
            let cur = &mut out.idx[from..];
            let Some(i) = (0..size).rev().find(|&i| cur[i] < n - (size - i)) else {
                out.idx.truncate(from);
                continue 'outer;
            };
            cur[i] += 1;
            for j in i + 1..size {
                cur[j] = cur[j - 1] + 1;
            }
        }
    }
    if !full_within_enum {
        out.idx.extend(0..n);
        out.ends.push(out.idx.len());
    }
}

/// Subsets in one flat buffer, reused from one crash point to the next.
#[derive(Default)]
pub(crate) struct SubsetList {
    idx: Vec<usize>,
    /// One past each subset's last index in `idx`.
    ends: Vec<usize>,
}

impl SubsetList {
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.ends.iter().scan(0, |start, &end| Some(&self.idx[std::mem::replace(start, end)..end]))
    }
}

/// Binomial coefficient with saturating arithmetic (only compared against
/// state budgets, so saturation on huge inputs is harmless).
fn binom(n: usize, k: usize) -> u64 {
    let k = k.min(n - k);
    let mut r: u64 = 1;
    for i in 0..k {
        r = r.saturating_mul((n - i) as u64) / (i as u64 + 1);
    }
    r
}

/// Applies the writes selected by `subset` (in program order) onto `img`.
pub fn apply_subset(img: &mut pmem::CowDevice<'_>, writes: &[PendingWrite], subset: &[usize]) {
    let mut order = subset.to_vec();
    order.sort_unstable();
    for &i in &order {
        img.apply(writes[i].off, &writes[i].data);
    }
}

/// Delta replayer over the crash states of one crash point.
///
/// Holds a single undo-logged [`CowDevice`] over the point's base image and
/// steps it between subsets with [`SubsetWalker::goto`]: the applied writes
/// form a stack, and moving to the next subset pops to the common prefix
/// and pushes the rest — consecutive subsets in the canonical enumeration
/// share long prefixes, so transitions replay O(1) writes on average rather
/// than rebuilding the whole overlay.
///
/// Alongside the device, the walker maintains the state's [`ImageKey`]
/// incrementally (the XOR-composable content hash — see [`pmem::hash`]):
/// each applied write XORs in its byte-level delta, and each pop restores
/// the key snapshot taken at push time. The key therefore always equals
/// `pmem::image_key` of the materialized state, independent of the path
/// taken to reach it. A write that no earlier write at the point overlaps
/// lands on base bytes in every subset, so its delta is computed once, on
/// its first push, from its carried key and the base bytes under it; only
/// a write some earlier write overlaps reads its delta off the overlay at
/// every push. All `goto` calls of one walker therefore take the same
/// write list: one walker serves one crash point.
///
/// Checker mutations (mount-time recovery, the usability probe) roll back
/// through the same undo log: take a [`SubsetWalker::mark`] before
/// mounting, mount on `&mut *walker.device()`, and
/// [`SubsetWalker::undo_to`] afterwards. The key is untouched by this —
/// it tracks the *replayed* state, not transient checker writes.
pub struct SubsetWalker<'a> {
    base: &'a [u8],
    cow: CowDevice<'a>,
    /// Applied write indices with, per entry, the undo mark and key value
    /// captured just before applying it.
    stack: Vec<(usize, UndoMark, ImageKey)>,
    key: ImageKey,
    scratch: Vec<u8>,
    /// Per write of the point, filled on the first `goto`.
    landing: Vec<Landing>,
}

/// What lies under one write of a crash point when it is pushed.
#[derive(Clone, Copy)]
enum Landing {
    /// Base bytes, in every subset; the key delta once computed.
    Base(Option<ImageKey>),
    /// Whatever the overlapping earlier writes of the subset left.
    Stacked,
}

impl<'a> SubsetWalker<'a> {
    /// A walker positioned at the bare base state. `base_key` must be the
    /// [`ImageKey`] of `base` (maintained incrementally by the caller as
    /// the base evolves across fences; `pmem::image_key(base)` to seed).
    pub fn new(base: &'a [u8], base_key: ImageKey) -> Self {
        SubsetWalker {
            base,
            cow: CowDevice::new_with_undo(base),
            stack: Vec::new(),
            key: base_key,
            scratch: Vec::new(),
            landing: Vec::new(),
        }
    }

    /// Moves the device to the state `base + subset`. `subset` must be
    /// sorted ascending (enumeration order), matching program-order replay.
    pub fn goto(&mut self, writes: &[PendingWrite], subset: &[usize]) {
        debug_assert!(subset.windows(2).all(|w| w[0] < w[1]), "subset must be sorted");
        if self.landing.len() != writes.len() {
            debug_assert!(self.landing.is_empty(), "one walker serves one write list");
            self.landing = landings(writes);
        }
        // Pop to the longest stack prefix that is also a prefix of `subset`.
        let mut common = 0;
        while common < self.stack.len()
            && common < subset.len()
            && self.stack[common].0 == subset[common]
        {
            common += 1;
        }
        while self.stack.len() > common {
            let (_, mark, key) = self.stack.pop().expect("len > common >= 0");
            self.cow.undo_to(mark);
            self.key = key;
        }
        for &i in &subset[common..] {
            self.push_write(writes, i);
        }
    }

    fn push_write(&mut self, writes: &[PendingWrite], i: usize) {
        let w = &writes[i];
        let mark = self.cow.mark();
        let key = self.key;
        self.key ^= match self.landing[i] {
            Landing::Base(Some(delta)) => delta,
            Landing::Base(None) => {
                let under = &self.base[w.off as usize..w.end() as usize];
                let delta = w.key() ^ span_key(w.off, under);
                self.landing[i] = Landing::Base(Some(delta));
                delta
            }
            Landing::Stacked => {
                self.scratch.resize(w.data.len(), 0);
                self.cow.read(w.off, &mut self.scratch);
                write_delta(w.off, &self.scratch, &w.data)
            }
        };
        self.cow.apply(w.off, &w.data);
        self.stack.push((i, mark, key));
    }

    /// The [`ImageKey`] of the current state.
    pub fn key(&self) -> ImageKey {
        self.key
    }

    /// The device, positioned at the current state. Mount on `&mut *dev`
    /// (not by value) so the walker keeps ownership.
    pub fn device(&mut self) -> &mut CowDevice<'a> {
        &mut self.cow
    }

    /// Undo mark protecting subsequent checker mutations.
    pub fn mark(&self) -> UndoMark {
        self.cow.mark()
    }

    /// Rolls checker mutations back to `mark`.
    pub fn undo_to(&mut self, mark: UndoMark) {
        self.cow.undo_to(mark);
    }
}

/// Whether two byte ranges share a byte.
fn overlaps(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// The [`Landing`] of every write: [`Landing::Stacked`] exactly when an
/// earlier write overlaps it.
fn landings(writes: &[PendingWrite]) -> Vec<Landing> {
    let mut landing = vec![Landing::Base(None); writes.len()];
    for_each_cluster(writes.iter().map(|w| (w.off, w.end())), |members| {
        for &i in members {
            let span = (writes[i].off, writes[i].end());
            if members.iter().any(|&j| j < i && overlaps((writes[j].off, writes[j].end()), span)) {
                landing[i] = Landing::Stacked;
            }
        }
    });
    landing
}

/// Calls `f` once per overlap cluster of the non-empty `spans` — a maximal
/// group of spans connected by overlapping (not merely touching) byte
/// ranges — with its members' indices in `spans`, ordered by start.
fn for_each_cluster(spans: impl Iterator<Item = (u64, u64)>, mut f: impl FnMut(&[usize])) {
    let mut order: Vec<(u64, u64, usize)> =
        spans.enumerate().filter(|(_, (s, e))| s < e).map(|(i, (s, e))| (s, e, i)).collect();
    order.sort_unstable();
    let ids: Vec<usize> = order.iter().map(|&(_, _, i)| i).collect();
    let mut first = 0;
    let mut reach = 0;
    for (k, &(s, e, _)) in order.iter().enumerate() {
        if k > first && s >= reach {
            f(&ids[first..k]);
            first = k;
        }
        reach = if k == first { e } else { reach.max(e) };
    }
    if first < ids.len() {
        f(&ids[first..]);
    }
}

/// Latest-writer-wins layering of writes visited in *reverse* program order:
/// each write is laid under every write laid before it, and the pieces of it
/// that stay visible are what the crash image shows of it.
#[derive(Default)]
struct Lww {
    /// The union of the writes laid so far: sorted, disjoint, coalesced
    /// `[start, end)` ranges.
    covered: Vec<(u64, u64)>,
    /// The visible pieces of the write laid last.
    pieces: Vec<(u64, u64)>,
}

impl Lww {
    fn clear(&mut self) {
        self.covered.clear();
    }

    /// Lays `w` under the writes laid so far and returns its visible
    /// pieces, ascending.
    fn lay(&mut self, w: &PendingWrite) -> &[(u64, u64)] {
        self.pieces.clear();
        let (ws, we) = (w.off, w.end());
        if ws < we {
            let mut cur = ws;
            let first = self.covered.partition_point(|&(_, ce)| ce <= ws);
            for &(cs, ce) in &self.covered[first..] {
                if cs >= we {
                    break;
                }
                if cur < cs {
                    self.pieces.push((cur, cs));
                }
                cur = cur.max(ce);
                if cur >= we {
                    break;
                }
            }
            if cur < we {
                self.pieces.push((cur, we));
            }
            pmem::insert_range(&mut self.covered, ws, we);
        }
        &self.pieces
    }
}

/// `span_key` of the visible `pieces` of `w`: the pieces hashed directly
/// while they are at most half the write, otherwise the carried key with
/// the shadowed gaps hashed out.
fn pieces_key(w: &PendingWrite, pieces: &[(u64, u64)]) -> ImageKey {
    let visible: u64 = pieces.iter().map(|&(s, e)| e - s).sum();
    if 2 * visible <= w.data.len() as u64 {
        return pieces.iter().fold(0, |k, &(s, e)| k ^ span_key(s, w.bytes(s, e)));
    }
    let mut key = w.key();
    let mut cur = w.off;
    for &(s, e) in pieces.iter().chain(std::iter::once(&(w.end(), w.end()))) {
        if cur < s {
            key ^= span_key(cur, w.bytes(cur, s));
        }
        cur = e;
    }
    key
}

/// 128-bit key identifying the *effective* bytes a subset lays over the
/// base image — the byte image after program-order replay, independent of
/// which particular writes produced it.
///
/// Two subsets that overlay identical bytes at identical offsets get equal
/// keys even when they differ as index sets (e.g. `{1}` vs `{0, 1}` when
/// write 1 fully covers write 0, or adjacent writes vs one coalesced write
/// spanning both ranges): the key is the content key of every visible byte
/// XOR a structural term per maximal contiguous written run, which keeps an
/// all-zero run distinct from an unwritten one. No image is materialised.
pub fn state_key(writes: &[PendingWrite], subset: &[usize]) -> u128 {
    let mut order = subset.to_vec();
    order.sort_unstable();
    let mut lww = Lww::default();
    let mut key: ImageKey = 0;
    for &i in order.iter().rev() {
        let w = &writes[i];
        key ^= pieces_key(w, lww.lay(w));
    }
    // Once every write is laid, the covered ranges are the maximal runs.
    lww.covered.iter().fold(key, |k, &(s, e)| k ^ pmem::run_term(s, e - s))
}

/// A non-temporal write at least this large is treated as file data by the
/// behavioral signature, mirroring the paper's file-data heuristic in
/// [`coalesce`]. When the crash point's check relaxes data tears
/// (`DataRelax::Torn` on an FS without read-path data checksums, with every
/// in-flight write attributable to the relaxed op), data-classed writes are
/// dropped from the signature entirely — the comparison accepts any mix of
/// their old/new/zero bytes, so neither their content nor their membership
/// can change a verdict. Everywhere else they sign content-exact, like
/// metadata.
pub const DATA_SIG_BYTES: usize = 256;

/// Behavioral signature of a crash state, for representative-state
/// clustering ([`TestConfig::rep_check`](crate::TestConfig)): the state is
/// described as the *cumulative* overlay the current op has laid over its
/// entry image — every write absorbed at a fence since the op began
/// (`absorbed`), plus the chosen `subset` of the still-in-flight `writes`.
///
/// Anchoring the signature at the op's entry image makes it comparable
/// across the crash points *inside* one op (which share the same oracle
/// references): the base state at fence k+1 signs identically to the full
/// in-flight set at fence k, because both are the same cumulative overlay.
///
/// The overlay is segmented latest-writer-wins (program order: `absorbed`,
/// then the subset): every visible piece of a write is one segment.
/// Metadata-classed segments (small or store/flush-sourced) contribute
/// exact position + content terms — a journal commit word with a different
/// value is a behaviorally different state. Data-classed segments (large
/// non-temporal writes, see [`DATA_SIG_BYTES`]) depend on `drop_data`: when
/// the caller has proven the point's check tolerates every byte the data
/// writes can leave (torn-data relaxation on the written file, no read-path
/// checksums, all in-flight writes issued by the relaxed op, no data write
/// shadowing another), they are omitted — content *and* membership — so the
/// `2^k` data-membership choices collapse into one class per metadata
/// shape. Otherwise data segments sign content-exact like metadata, under a
/// distinct tag so a data run can never alias a metadata run.
pub fn behavior_sig(
    writes: &[PendingWrite],
    subset: &[usize],
    absorbed: &[PendingWrite],
    drop_data: bool,
) -> u128 {
    let mut order = subset.to_vec();
    order.sort_unstable();
    let mut lww = Lww::default();
    let mut sig: u128 = 0;
    for w in order.iter().rev().map(|&i| &writes[i]).chain(absorbed.iter().rev()) {
        sig ^= pieces_sig(w, lww.lay(w), drop_data);
    }
    sig
}

/// The signature contribution of the visible `pieces` of `w`.
fn pieces_sig(w: &PendingWrite, pieces: &[(u64, u64)], drop_data: bool) -> u128 {
    let data_class = w.nt && w.data.len() >= DATA_SIG_BYTES;
    if pieces.is_empty() || (data_class && drop_data) {
        return 0;
    }
    let tag = if data_class { DATA_TAG } else { META_TAG };
    pieces.iter().fold(pieces_key(w, pieces), |sig, &(s, e)| sig ^ pmem::run_term(tag ^ s, e - s))
}

/// Signature tag for metadata-classed segments.
const META_TAG: u64 = 0x5da2_7d06_a1b2_c3d4;
/// Signature tag for data-classed segments.
const DATA_TAG: u64 = 0x9e11_83c5_4f6e_7a80;

/// Per-crash-point cache for [`behavior_sig`].
///
/// A crash point signs every one of its (often hundreds of) subsets, and a
/// write's visible pieces depend only on the writes that overlap it. So the
/// point's in-flight and absorbed writes are split once into overlap
/// clusters (see the module docs): an in-flight write that overlaps nothing
/// signs by one precomputed term when it is in the subset, clusters of
/// absorbed writes only fold into one constant, and only clusters that mix
/// in-flight writes with others are segmented per subset — over their own
/// members alone. The signature is bit-identical to [`behavior_sig`].
pub struct SigCache<'a> {
    writes: &'a [PendingWrite],
    absorbed: &'a [PendingWrite],
    drop_data: bool,
    /// Per in-flight write: its term when it overlaps no other write, else 0.
    terms: Vec<u128>,
    /// The folded signature of every cluster without in-flight writes.
    fixed: u128,
    /// The clusters mixing in-flight writes with others: their in-flight
    /// and absorbed members, each ascending.
    mixed: Vec<(Vec<usize>, Vec<usize>)>,
    /// Layering scratch for the mixed clusters.
    lww: RefCell<Lww>,
}

impl<'a> SigCache<'a> {
    /// Splits one crash point's writes into overlap clusters and signs the
    /// fixed ones.
    pub fn new(writes: &'a [PendingWrite], absorbed: &'a [PendingWrite], drop_data: bool) -> Self {
        let n = writes.len();
        let mut terms = vec![0; n];
        let mut fixed = 0;
        let mut mixed = Vec::new();
        let mut lww = Lww::default();
        let spans = writes.iter().chain(absorbed).map(|w| (w.off, w.end()));
        for_each_cluster(spans, |members| {
            if let [i] = *members {
                let w = if i < n { &writes[i] } else { &absorbed[i - n] };
                let term = pieces_sig(w, &[(w.off, w.end())], drop_data);
                if i < n {
                    terms[i] = term;
                } else {
                    fixed ^= term;
                }
                return;
            }
            let (mut inflight, mut held): (Vec<usize>, Vec<usize>) =
                members.iter().partition(|&&i| i < n);
            held.iter_mut().for_each(|j| *j -= n);
            inflight.sort_unstable();
            held.sort_unstable();
            if inflight.is_empty() {
                lww.clear();
                for w in held.iter().rev().map(|&j| &absorbed[j]) {
                    fixed ^= pieces_sig(w, lww.lay(w), drop_data);
                }
            } else {
                mixed.push((inflight, held));
            }
        });
        SigCache { writes, absorbed, drop_data, terms, fixed, mixed, lww: RefCell::new(lww) }
    }

    /// [`behavior_sig`] of `subset` (sorted ascending).
    pub fn sig(&self, subset: &[usize]) -> u128 {
        debug_assert!(subset.windows(2).all(|w| w[0] < w[1]), "subset must be sorted");
        let mut sig = subset.iter().fold(self.fixed, |a, &i| a ^ self.terms[i]);
        if self.mixed.is_empty() {
            return sig;
        }
        let mut lww = self.lww.borrow_mut();
        for (inflight, held) in &self.mixed {
            lww.clear();
            let chosen = inflight.iter().rev().filter(|i| subset.binary_search(i).is_ok());
            let chosen = chosen.map(|&i| &self.writes[i]);
            for w in chosen.chain(held.iter().rev().map(|&j| &self.absorbed[j])) {
                sig ^= pieces_sig(w, lww.lay(w), self.drop_data);
            }
        }
        sig
    }
}

/// Whether dropping the in-flight data-classed writes from a behavioral
/// signature could hide an intermediate value the torn-data relaxation does
/// not tolerate.
///
/// Within a class all metadata writes are fixed and only data membership
/// varies, so a member state's byte at any position is either whatever the
/// representative (the fewest-data-writes member) already exposed there —
/// any violation in that is caught on the representative and expands the
/// class — or the value of the last applied data write covering it. The
/// latter is always tolerated when it is the position's *final* data value
/// (the checker's `new`), zero (explicitly tolerated, the zero-fill of a
/// freshly allocated block), or equal to every later writer's byte. So the
/// drop is only unsafe when an earlier data write holds, somewhere a later
/// data write also covers, a byte that is neither zero nor the later
/// write's byte: a subset applying the earlier but not the later writer
/// would surface it. Absorbed writes need no veto — they are applied in
/// every member, representative included.
///
/// Membership in `subset` cannot influence any of this, so it is decided
/// once per crash point.
pub fn data_shadowing_unsafe(writes: &[PendingWrite]) -> bool {
    let data: Vec<&PendingWrite> =
        writes.iter().filter(|w| w.nt && w.data.len() >= DATA_SIG_BYTES).collect();
    for (i, early) in data.iter().enumerate() {
        for late in &data[i + 1..] {
            let s = early.off.max(late.off);
            let e = (early.off + early.data.len() as u64).min(late.off + late.data.len() as u64);
            for p in s..e {
                let a = early.data[(p - early.off) as usize];
                if a != 0 && a != late.data[(p - late.off) as usize] {
                    return true;
                }
            }
        }
    }
    false
}

/// Human-readable description of a subset for bug reports.
pub fn describe_subset(writes: &[PendingWrite], subset: &[usize]) -> String {
    let parts: Vec<String> = subset
        .iter()
        .map(|&i| {
            let w = &writes[i];
            format!(
                "{}#{i}@{:#x}+{}",
                if w.nt { "nt" } else { "flush" },
                w.off,
                w.data.len()
            )
        })
        .collect();
    format!("[{}] of {} in-flight", parts.join(", "), writes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The latest-writer-wins byte image of `absorbed ++ writes[subset]`
    /// (program order), literally: offset → (writer's position in that
    /// sequence, byte).
    fn owners(
        writes: &[PendingWrite],
        subset: &[usize],
        absorbed: &[PendingWrite],
    ) -> (Vec<PendingWrite>, std::collections::BTreeMap<u64, (usize, u8)>) {
        let mut order = subset.to_vec();
        order.sort_unstable();
        let seq: Vec<PendingWrite> =
            absorbed.iter().cloned().chain(order.iter().map(|&i| writes[i].clone())).collect();
        let mut img = std::collections::BTreeMap::new();
        for (k, w) in seq.iter().enumerate() {
            for (i, &b) in w.data.iter().enumerate() {
                img.insert(w.off + i as u64, (k, b));
            }
        }
        (seq, img)
    }

    /// Maximal runs of consecutive offsets whose owner satisfies `same`.
    fn runs(
        img: &std::collections::BTreeMap<u64, (usize, u8)>,
        same: impl Fn(usize, usize) -> bool,
    ) -> Vec<(u64, u64, usize)> {
        let mut out: Vec<(u64, u64, usize)> = Vec::new();
        for (&off, &(k, _)) in img {
            match out.last_mut() {
                Some(r) if r.1 == off && same(r.2, k) => r.1 += 1,
                _ => out.push((off, off + 1, k)),
            }
        }
        out
    }

    /// [`behavior_sig`] by its definition: one segment per maximal run of
    /// bytes one write left visible, hashed byte by byte.
    fn behavior_sig_model(
        writes: &[PendingWrite],
        subset: &[usize],
        absorbed: &[PendingWrite],
        drop_data: bool,
    ) -> u128 {
        let (seq, img) = owners(writes, subset, absorbed);
        let mut sig = 0;
        for (s, e, k) in runs(&img, |a, b| a == b) {
            let data_class = seq[k].nt && seq[k].data.len() >= DATA_SIG_BYTES;
            if data_class && drop_data {
                continue;
            }
            let tag = if data_class { DATA_TAG } else { META_TAG };
            sig ^= pmem::run_term(tag ^ s, e - s);
            for off in s..e {
                sig ^= pmem::byte_term(off, img[&off].1);
            }
        }
        sig
    }

    /// [`state_key`] by its definition: every visible byte's term plus one
    /// run term per maximal written run.
    fn state_key_model(writes: &[PendingWrite], subset: &[usize]) -> u128 {
        let (_, img) = owners(writes, subset, &[]);
        let bytes = img.iter().fold(0, |k, (&off, &(_, b))| k ^ pmem::byte_term(off, b));
        runs(&img, |_, _| true).iter().fold(bytes, |k, &(s, e, _)| k ^ pmem::run_term(s, e - s))
    }

    /// Random writes packed into 700 bytes: overlapping, shadowing, empty,
    /// touching, and data-classed (≥ 256-byte non-temporal) ones.
    fn random_writes(next: &mut impl FnMut() -> u64, n: usize) -> Vec<PendingWrite> {
        (0..n)
            .map(|_| {
                let off = next() % 600;
                let len = match next() % 6 {
                    0 => 0,
                    1 => 256 + next() % 64,
                    2 => 8,
                    _ => 1 + next() % 48,
                } as usize;
                let fill = next() % 3;
                let data =
                    (0..len).map(|_| if fill == 0 { 0 } else { (next() % 4) as u8 }).collect();
                PendingWrite::new(off, data, !next().is_multiple_of(3))
            })
            .collect()
    }

    /// An xorshift stream from a seed.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(192))]

        /// Over random in-flight and absorbed writes, the cluster-split
        /// cache, the direct signature and the per-byte definition agree
        /// on every subset under both drop modes; so do [`state_key`] and
        /// its per-byte definition.
        #[test]
        fn sig_cache_matches_behavior_sig_exactly(
            seed in 0u64..1_000_000,
            n_writes in 0usize..7,
            n_absorbed in 0usize..5,
        ) {
            let mut next = xorshift(seed);
            let writes = random_writes(&mut next, n_writes);
            let absorbed = random_writes(&mut next, n_absorbed);
            let mut subsets = enumerate_subsets_ordered(writes.len(), None, u64::MAX, false);
            subsets.push(Vec::new());
            for drop_data in [false, true] {
                let cache = SigCache::new(&writes, &absorbed, drop_data);
                for subset in &subsets {
                    let want = behavior_sig_model(&writes, subset, &absorbed, drop_data);
                    proptest::prop_assert_eq!(
                        behavior_sig(&writes, subset, &absorbed, drop_data), want,
                        "direct: subset {:?} drop {}", subset, drop_data
                    );
                    proptest::prop_assert_eq!(
                        cache.sig(subset), want,
                        "cache: subset {:?} drop {}", subset, drop_data
                    );
                }
            }
            for subset in &subsets {
                proptest::prop_assert_eq!(
                    state_key(&writes, subset), state_key_model(&writes, subset),
                    "state_key: subset {:?}", subset
                );
            }
        }

        /// A coalesced write's carried key is the span key of its merged
        /// bytes, over runs of contiguous and broken non-temporal pieces.
        #[test]
        fn coalesced_keys_equal_span_keys(seed in 0u64..1_000_000, n in 0usize..12) {
            let mut next = xorshift(seed);
            let mut at = next() % 64;
            let writes: Vec<PendingWrite> = (0..n)
                .map(|_| {
                    if next().is_multiple_of(3) {
                        at = next() % 4096;
                    }
                    let len = (next() % 40) as usize;
                    let data = (0..len).map(|_| (next() % 3) as u8).collect();
                    let w = PendingWrite::new(at, data, !next().is_multiple_of(4));
                    at += len as u64;
                    w
                })
                .collect();
            let merged = coalesce(&writes);
            proptest::prop_assert!(merged.len() <= writes.len());
            for w in &merged {
                proptest::prop_assert_eq!(w.key, pmem::span_key(w.off, &w.data));
            }
            let bytes: usize = merged.iter().map(|w| w.data.len()).sum();
            proptest::prop_assert_eq!(bytes, writes.iter().map(|w| w.data.len()).sum::<usize>());
        }
    }

    #[test]
    fn subsets_of_three_exhaustive() {
        let s = enumerate_subsets_ordered(3, None, 1 << 20, false);
        // 2^3 - 1 = 7 non-empty subsets.
        assert_eq!(s.len(), 7);
        // Ordered by size.
        assert!(s[0].len() == 1 && s[1].len() == 1 && s[2].len() == 1);
        assert!(s[3].len() == 2 && s[6].len() == 3);
        // All distinct.
        let set: std::collections::HashSet<Vec<usize>> = s.iter().cloned().collect();
        assert_eq!(set.len(), 7);
    }

    #[test]
    fn paper_counts_hold() {
        // "For n in-flight writes, there will be 2^n - 1 crash states."
        for n in 1..=10 {
            let s = enumerate_subsets_ordered(n, None, u64::MAX, false);
            assert_eq!(s.len(), (1usize << n) - 1, "n={n}");
        }
    }

    #[test]
    fn cap_keeps_small_subsets_plus_full() {
        let s = enumerate_subsets_ordered(5, Some(2), 1 << 20, false);
        // C(5,1) + C(5,2) + full = 5 + 10 + 1.
        assert_eq!(s.len(), 16);
        assert_eq!(s.last().unwrap().len(), 5);
        assert!(s[..15].iter().all(|c| c.len() <= 2));
    }

    #[test]
    fn cap_equal_to_n_is_exhaustive_without_duplicate_full() {
        let s = enumerate_subsets_ordered(3, Some(3), 1 << 20, false);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn large_first_reverses_size_order_only() {
        let small = enumerate_subsets_ordered(4, None, u64::MAX, false);
        let large = enumerate_subsets_ordered(4, None, u64::MAX, true);
        assert_eq!(small.len(), 15);
        assert_eq!(large.len(), 15);
        // Same subsets, opposite size progression.
        let a: std::collections::HashSet<Vec<usize>> = small.iter().cloned().collect();
        let b: std::collections::HashSet<Vec<usize>> = large.iter().cloned().collect();
        assert_eq!(a, b);
        assert_eq!(small[0].len(), 1);
        assert_eq!(large[0].len(), 4);
        assert_eq!(small.last().unwrap().len(), 4);
        assert_eq!(large.last().unwrap().len(), 1);
    }

    #[test]
    fn large_first_with_cap_still_includes_full_set() {
        let s = enumerate_subsets_ordered(5, Some(2), 1 << 20, true);
        assert!(s.iter().any(|c| c.len() == 5));
        assert_eq!(s[0].len(), 2);
    }

    #[test]
    fn max_states_truncates() {
        let s = enumerate_subsets_ordered(10, None, 20, false);
        assert_eq!(s.len(), 20);
    }

    #[test]
    fn zero_inflight_yields_nothing() {
        assert!(enumerate_subsets_ordered(0, None, 100, false).is_empty());
    }

    #[test]
    fn truncation_with_cap_preserves_budget_without_losing_enumerated_subsets() {
        // Regression: `out.len() == max_states && limit < n` used to
        // overwrite the last enumerated subset with the full set. The budget
        // now reserves the full set's slot up front instead.
        let s = enumerate_subsets_ordered(5, Some(2), 4, false);
        assert_eq!(s.len(), 4, "budget must hold exactly");
        assert_eq!(*s.last().unwrap(), vec![0, 1, 2, 3, 4], "full set present");
        // The enumerated prefix is exactly the first budget-1 subsets of the
        // untruncated enumeration — nothing skipped, nothing overwritten.
        let untruncated = enumerate_subsets_ordered(5, Some(2), u64::MAX, false);
        assert_eq!(&s[..3], &untruncated[..3]);
        let set: std::collections::HashSet<Vec<usize>> = s.iter().cloned().collect();
        assert_eq!(set.len(), 4, "no duplicates");
    }

    #[test]
    fn truncation_without_cap_still_includes_full_set() {
        // With no cap but a state budget, small-first enumeration never
        // reaches the full set on its own; it must still be included.
        let s = enumerate_subsets_ordered(10, None, 20, false);
        assert_eq!(s.len(), 20);
        assert_eq!(*s.last().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn large_first_truncation_keeps_budget_and_full_set() {
        let s = enumerate_subsets_ordered(10, None, 20, true);
        assert_eq!(s.len(), 20);
        // Large-first emits the full set first; no slot is reserved.
        assert_eq!(s[0].len(), 10);
    }

    #[test]
    fn budget_of_one_with_cap_yields_only_the_full_set() {
        let s = enumerate_subsets_ordered(5, Some(2), 1, false);
        assert_eq!(s, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn state_key_equates_overwritten_and_coalesced_subsets() {
        let writes = vec![
            PendingWrite::new(0, vec![7u8; 8], true),
            PendingWrite::new(0, vec![9u8; 8], true),   // covers #0
            PendingWrite::new(8, vec![3u8; 8], true),
            PendingWrite::new(0, {
                let mut d = vec![9u8; 8];
                d.extend_from_slice(&[3u8; 8]);
                d
            }, true),                                            // == #1 then #2
        ];
        // Write 1 fully covers write 0: {1} and {0,1} leave identical bytes.
        assert_eq!(state_key(&writes, &[1]), state_key(&writes, &[0, 1]));
        // Adjacent writes {1,2} equal the single spanning write {3}.
        assert_eq!(state_key(&writes, &[1, 2]), state_key(&writes, &[3]));
        // Genuinely different images differ.
        assert_ne!(state_key(&writes, &[0]), state_key(&writes, &[1]));
        assert_ne!(state_key(&writes, &[1]), state_key(&writes, &[1, 2]));
        // Index order never matters (program order is recovered internally).
        assert_eq!(state_key(&writes, &[1, 0]), state_key(&writes, &[0, 1]));
    }

    #[test]
    fn state_key_distinguishes_offset_and_gap_layouts() {
        let writes = vec![
            PendingWrite::new(0, vec![5u8; 4], true),
            PendingWrite::new(4, vec![5u8; 4], true),
            PendingWrite::new(8, vec![5u8; 4], true),
        ];
        // Same bytes at a different offset is a different state.
        assert_ne!(state_key(&writes, &[0]), state_key(&writes, &[1]));
        // Contiguous [0,8) differs from gapped {[0,4), [8,12)}.
        assert_ne!(state_key(&writes, &[0, 1]), state_key(&writes, &[0, 2]));
        // The empty subset is the base state and keys consistently.
        assert_eq!(state_key(&writes, &[]), state_key(&writes, &[]));
        assert_ne!(state_key(&writes, &[]), state_key(&writes, &[0]));
    }

    #[test]
    fn behavior_sig_is_cumulative_across_fence_absorption() {
        // The op writes A then B with a fence between them. At the fence,
        // pending {A, B}'s full-set state must sign identically to the base
        // state of the next point, where A and B are already absorbed.
        let a = PendingWrite::new(64, vec![7u8; 8], false);
        let b = PendingWrite::new(128, vec![9u8; 8], false);
        let both = vec![a.clone(), b.clone()];
        let full_at_fence = behavior_sig(&both, &[0, 1], &[], false);
        let base_after = behavior_sig(&[], &[], &both, false);
        assert_eq!(full_at_fence, base_after);
        // Partial absorption composes the same way.
        let half = behavior_sig(std::slice::from_ref(&b), &[0], std::slice::from_ref(&a), false);
        assert_eq!(half, full_at_fence);
        // And subsets remain distinct from the full set.
        assert_ne!(behavior_sig(&both, &[0], &[], false), full_at_fence);
    }

    #[test]
    fn behavior_sig_drops_data_writes_under_torn_relaxation() {
        let meta = PendingWrite::new(0, 3u64.to_le_bytes().to_vec(), false);
        let data_a = PendingWrite::new(4096, vec![1u8; 4096], true);
        let data_b = PendingWrite::new(4096, vec![2u8; 4096], true);
        let md_a = vec![meta.clone(), data_a.clone()];
        // With the torn-data drop, data membership is invisible: the
        // metadata-only subset and the metadata+data subset are one class...
        assert_eq!(behavior_sig(&md_a, &[0], &[], true), behavior_sig(&md_a, &[0, 1], &[], true));
        // ...as is the same shape with different data content...
        let md_b = vec![meta.clone(), data_b.clone()];
        assert_eq!(behavior_sig(&md_a, &[0, 1], &[], true), behavior_sig(&md_b, &[0, 1], &[], true));
        // ...but the exact image key still tells the states apart.
        assert_ne!(state_key(&md_a, &[0, 1]), state_key(&md_b, &[0, 1]));
        // A data-only subset signs like the absorbed-only base.
        assert_eq!(behavior_sig(&md_a, &[1], &[], true), behavior_sig(&[], &[], &[], true));
    }

    #[test]
    fn behavior_sig_keeps_data_content_exact_without_the_relaxation() {
        // Outside a proven-tolerant point (fortis checksums, foreign pending
        // writes, overlapping data writes) data bytes sign exactly.
        let data_a = PendingWrite::new(4096, vec![1u8; 4096], true);
        let data_b = PendingWrite::new(4096, vec![2u8; 4096], true);
        assert_ne!(
            behavior_sig(std::slice::from_ref(&data_a), &[0], &[], false),
            behavior_sig(std::slice::from_ref(&data_b), &[0], &[], false)
        );
    }

    #[test]
    fn behavior_sig_keeps_metadata_content_exact() {
        // An 8-byte store with a different value (journal tail: n vs 0) is a
        // behaviorally different state and must never share a class.
        let tail_set = PendingWrite::new(0, 3u64.to_le_bytes().to_vec(), false);
        let tail_clear = PendingWrite::new(0, 0u64.to_le_bytes().to_vec(), false);
        assert_ne!(
            behavior_sig(std::slice::from_ref(&tail_set), &[0], &[], true),
            behavior_sig(std::slice::from_ref(&tail_clear), &[0], &[], true)
        );
        // Small nt writes count as metadata too, even under the data drop.
        let nt_small_a = PendingWrite::new(64, vec![5u8; 32], true);
        let nt_small_b = PendingWrite::new(64, vec![6u8; 32], true);
        assert_ne!(
            behavior_sig(std::slice::from_ref(&nt_small_a), &[0], &[], true),
            behavior_sig(std::slice::from_ref(&nt_small_b), &[0], &[], true)
        );
    }

    #[test]
    fn data_shadowing_unsafe_tolerates_zero_fill_but_not_rewrites() {
        let d = |off: u64, byte: u8| PendingWrite::new(off, vec![byte; 4096], true);
        let meta = PendingWrite::new(0, vec![1u8; 8], false);
        // Disjoint data writes (and any number of metadata writes) are fine.
        assert!(!data_shadowing_unsafe(&[d(4096, 1), meta.clone(), d(8192, 2)]));
        // Zero-fill of a fresh block later covered by content is tolerated
        // (a subset applying only the fill leaves tolerated zero bytes), as
        // is rewriting the same bytes.
        assert!(!data_shadowing_unsafe(&[d(4096, 0), d(4096, 7)]));
        assert!(!data_shadowing_unsafe(&[d(4096, 7), d(4096, 7)]));
        // A nonzero intermediate value a later data write replaces is not:
        // a subset with only the earlier write would surface it.
        assert!(data_shadowing_unsafe(&[d(4096, 5), d(4096, 7)]));
        assert!(data_shadowing_unsafe(&[d(4096, 5), d(6144, 7)]));
        // Metadata overlapping data is not a data/data shadow.
        let small = PendingWrite::new(4100, vec![2u8; 8], false);
        assert!(!data_shadowing_unsafe(&[d(4096, 3), small]));
    }

    #[test]
    fn coalesce_merges_contiguous_nt_runs() {
        let w = |off: u64, len: usize, nt: bool| PendingWrite::new(off, vec![1u8; len], nt);
        let v = vec![w(0, 64, true), w(64, 64, true), w(128, 64, true), w(512, 8, false)];
        let c = coalesce(&v);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].data.len(), 192);
        assert!(!c[1].nt);
    }

    #[test]
    fn coalesce_keeps_non_contiguous_and_flush_separate() {
        let w = |off: u64, len: usize, nt: bool| PendingWrite::new(off, vec![1u8; len], nt);
        let v = vec![w(0, 64, true), w(128, 64, true), w(192, 64, false), w(256, 64, false)];
        assert_eq!(coalesce(&v).len(), 4);
    }

    proptest::proptest! {
        /// Large-first enumeration is always a permutation of small-first
        /// (same subsets, same cap semantics, full set always present when
        /// capped) for any n/cap combination.
        #[test]
        fn ordered_enumeration_is_a_permutation(
            n in 1usize..10,
            cap in proptest::option::of(1usize..10),
        ) {
            let a = enumerate_subsets_ordered(n, cap, u64::MAX, false);
            let b = enumerate_subsets_ordered(n, cap, u64::MAX, true);
            let sa: std::collections::HashSet<Vec<usize>> = a.iter().cloned().collect();
            let sb: std::collections::HashSet<Vec<usize>> = b.iter().cloned().collect();
            proptest::prop_assert_eq!(a.len(), b.len());
            proptest::prop_assert_eq!(&sa, &sb);
            proptest::prop_assert!(sa.contains(&(0..n).collect::<Vec<_>>()));
        }
    }

    fn materialize(base: &[u8], writes: &[PendingWrite], subset: &[usize]) -> Vec<u8> {
        let mut cow = pmem::CowDevice::new(base);
        apply_subset(&mut cow, writes, subset);
        use pmem::PmBackend;
        cow.read_vec(0, base.len() as u64)
    }

    #[test]
    fn walker_tracks_device_and_key_across_transitions() {
        let mut base = vec![0u8; 8192];
        base[100] = 42;
        let writes = vec![
            PendingWrite::new(0, vec![1u8; 16], true),
            PendingWrite::new(8, vec![2u8; 16], true), // overlaps #0
            PendingWrite::new(4000, vec![3u8; 200], true), // crosses page
            PendingWrite::new(100, vec![0u8; 4], false), // zeroes base bytes
        ];
        let subsets = enumerate_subsets_ordered(writes.len(), None, u64::MAX, false);
        let mut walker = SubsetWalker::new(&base, pmem::image_key(&base));
        use pmem::PmBackend;
        for s in &subsets {
            walker.goto(&writes, s);
            let want = materialize(&base, &writes, s);
            let got = walker.device().read_vec(0, base.len() as u64);
            assert_eq!(got, want, "device mismatch at subset {s:?}");
            assert_eq!(walker.key(), pmem::image_key(&want), "key mismatch at {s:?}");
        }
        // Jump back to an early subset: pops must restore exactly.
        walker.goto(&writes, &[1]);
        assert_eq!(walker.key(), pmem::image_key(&materialize(&base, &writes, &[1])));
    }

    #[test]
    fn walker_checker_mutations_roll_back_without_touching_key() {
        let base = vec![0u8; 4096];
        let writes = vec![PendingWrite::new(0, vec![7u8; 8], true)];
        let mut walker = SubsetWalker::new(&base, 0);
        walker.goto(&writes, &[0]);
        let key = walker.key();
        let m = walker.mark();
        use pmem::PmBackend;
        walker.device().store(2000, &[9u8; 64]); // "recovery" mutation
        walker.device().store(4, &[5u8; 8]); // overlapping the replayed write
        walker.undo_to(m);
        assert_eq!(walker.key(), key);
        let img = walker.device().read_vec(0, 4096);
        assert_eq!(img, materialize(&base, &writes, &[0]));
    }

    proptest::proptest! {
        /// Delta replay + undo is byte-identical to a from-scratch
        /// `CowDevice::new` + `apply_subset` for random write sets and
        /// random subset visit sequences, and the incrementally maintained
        /// image key always equals the recomputed one. Several crash points
        /// run in a row, each on a fresh walker over the base the previous
        /// point's fence left, with its key maintained from the carried
        /// write keys as the harness's base image maintains it.
        #[test]
        fn delta_replay_matches_from_scratch(
            seed in 0u64..1000,
            n_points in 1usize..4,
            n_writes in 1usize..6,
            n_visits in 1usize..12,
        ) {
            // Deterministic pseudo-random writes and visit order from the seed.
            let mut next = xorshift(seed);
            let mut base: Vec<u8> = (0..4096u64).map(|i| (i % 251) as u8).collect();
            let mut base_key = pmem::image_key(&base);
            use pmem::PmBackend;
            for _ in 0..n_points {
                let writes: Vec<PendingWrite> = (0..n_writes)
                    .map(|_| {
                        let off = next() % 4000;
                        let len = 1 + (next() % 96) as usize;
                        let data: Vec<u8> = (0..len).map(|_| (next() % 256) as u8).collect();
                        PendingWrite::new(off, data, next().is_multiple_of(2))
                    })
                    .collect();
                let mut walker = SubsetWalker::new(&base, base_key);
                for _ in 0..n_visits {
                    // Random subset, sorted ascending.
                    let mask = next() as usize % (1 << n_writes);
                    let subset: Vec<usize> =
                        (0..n_writes).filter(|i| mask & (1 << i) != 0).collect();
                    walker.goto(&writes, &subset);
                    // Random checker-style mutation, rolled back via a mark.
                    let m = walker.mark();
                    walker.device().store(next() % 4000, &[(next() % 256) as u8; 8]);
                    walker.undo_to(m);
                    let want = materialize(&base, &writes, &subset);
                    let got = walker.device().read_vec(0, base.len() as u64);
                    proptest::prop_assert_eq!(&got, &want);
                    proptest::prop_assert_eq!(walker.key(), pmem::image_key(&want));
                }
                // The fence: every write lands on the base, in order.
                drop(walker);
                for w in &writes {
                    let under = &mut base[w.off as usize..w.end() as usize];
                    base_key ^= w.key() ^ pmem::span_key(w.off, under);
                    under.copy_from_slice(&w.data);
                }
                proptest::prop_assert_eq!(base_key, pmem::image_key(&base));
            }
        }
    }

    #[test]
    fn apply_subset_respects_program_order() {
        let base = vec![0u8; 4096];
        let writes = vec![
            PendingWrite::new(0, vec![1u8; 8], true),
            PendingWrite::new(0, vec![2u8; 8], true),
        ];
        let mut cow = pmem::CowDevice::new(&base);
        // Pass indices out of order: program order must still hold.
        apply_subset(&mut cow, &writes, &[1, 0]);
        let mut buf = [0u8; 8];
        use pmem::PmBackend;
        cow.read(0, &mut buf);
        assert_eq!(buf, [2u8; 8]);
    }
}
