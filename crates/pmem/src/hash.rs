//! XOR-composable content hashing of device images.
//!
//! Crash-state deduplication needs a key that identifies the *post-crash
//! device content*. The original implementation recomputed a latest-writer-
//! wins interval hash per subset, which is O(total in-flight bytes) per
//! state. This module provides an incrementally maintainable alternative:
//! the key of an image is the XOR over all offsets of a per-`(offset, byte)`
//! term, with the term of a zero byte defined as 0. Properties:
//!
//! * **Content-determined**: the key depends only on the final bytes, not on
//!   the write order or on how the key was maintained. A delta replayer and
//!   a from-scratch construction agree exactly.
//! * **O(changed bytes) updates**: changing a byte `old → new` at `off`
//!   updates the key with `key ^= term(off, old) ^ term(off, new)`.
//! * **Zero images hash to 0** for every device size, so no per-size
//!   baseline needs precomputing.
//!
//! The 128-bit key is two independent 64-bit mixes, making accidental
//! collisions (which would merge distinct crash states) negligible for the
//! non-adversarial images the harness produces.
//!
//! Because keys compose positionally, a span's key computed once can stand
//! in for its bytes from then on: `chipmunk::crashgen` hashes each logged
//! write once ([`span_key`]) and derives every later image delta from that
//! carried key plus the bytes it lands on.
//!
//! Two further families share the splitmix mixer under their own seeds:
//! [`run_term`] (structural run markers) and [`word_term`] (footprint
//! projections). The snapshot-node family, [`snap_key`], is different in
//! kind: a word-wide multiply-fold over whole records, **not**
//! XOR-composable — its keys are only ever compared whole, with each other.

/// Content key of a device image (see module docs).
pub type ImageKey = u128;

const SEED_LO: u64 = 0x243f_6a88_85a3_08d3;
const SEED_HI: u64 = 0x1319_8a2e_0370_7344;

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The XOR term contributed by `byte` at `off`. Zero bytes contribute 0.
///
/// `off` must be below 2^56 (device offsets are far smaller), so
/// `(off << 8) | byte` is injective over `(off, byte)`.
#[inline]
pub fn byte_term(off: u64, byte: u8) -> ImageKey {
    if byte == 0 {
        return 0;
    }
    debug_assert!(off < 1 << 56);
    let x = (off << 8) | byte as u64;
    let lo = splitmix64(x ^ SEED_LO);
    let hi = splitmix64(x ^ SEED_HI);
    ((hi as ImageKey) << 64) | lo as ImageKey
}

/// Full-image key: XOR of [`byte_term`] over every offset. O(len) — used to
/// seed incremental maintenance and to cross-check it in tests.
///
/// Scans 8-byte words (`u64::from_le_bytes`) and skips zero words without
/// touching individual bytes; device images are overwhelmingly zero, so the
/// inner `byte_term` mix runs only on the sparse nonzero residue. The key is
/// bit-identical to the per-byte definition.
pub fn image_key(img: &[u8]) -> ImageKey {
    span_key(0, img)
}

/// Content key of the contiguous span `data` placed at absolute offset
/// `off`: XOR of [`byte_term`] over the span. This is [`image_key`]
/// re-based to an arbitrary offset, with the same word-wise zero-skipping
/// scan, for hashing one replayed run at a time (`crashgen::state_key`
/// keys each latest-writer-wins run without materializing a full image).
/// Bit-identical to the per-byte definition.
pub fn span_key(off: u64, data: &[u8]) -> ImageKey {
    let mut key = 0;
    let mut chunks = data.chunks_exact(8);
    let mut at = off;
    for w in chunks.by_ref() {
        if u64::from_le_bytes(w.try_into().expect("8-byte chunk")) != 0 {
            for (i, &b) in w.iter().enumerate() {
                if b != 0 {
                    key ^= byte_term(at + i as u64, b);
                }
            }
        }
        at += 8;
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        if b != 0 {
            key ^= byte_term(at + i as u64, b);
        }
    }
    key
}

const SEED_RUN_LO: u64 = 0xa409_3822_299f_31d0;
const SEED_RUN_HI: u64 = 0x082e_fa98_ec4e_6c89;

/// Structural term for "the run `[off, off + len)` holds replayed bytes",
/// independent of the bytes themselves. XORed alongside [`span_key`] when
/// keying crash states so a run of all-zero content (whose byte terms are
/// all 0) is still distinguished from the run never having been written.
#[inline]
pub fn run_term(off: u64, len: u64) -> ImageKey {
    let lo = splitmix64(splitmix64(off ^ SEED_RUN_LO) ^ len);
    let hi = splitmix64(splitmix64(off ^ SEED_RUN_HI) ^ len);
    ((hi as ImageKey) << 64) | lo as ImageKey
}

const SEED_WORD_LO: u64 = 0x4528_21e6_38d0_1377;
const SEED_WORD_HI: u64 = 0xbe54_66cf_34e9_0c6c;

/// Content term for the 8-byte word holding `val` at absolute offset `off`:
/// the word-granular analogue of [`byte_term`], one splitmix cascade per
/// word instead of one per nonzero byte. Unlike [`byte_term`], a zero word
/// contributes a nonzero term, so a XOR of word terms also certifies *which*
/// words it covers. Seeded independently of every other term family and
/// never mixed with them — word-term keys are only ever compared to other
/// word-term keys (`chipmunk`'s footprint projections).
#[inline]
pub fn word_term(off: u64, val: u64) -> ImageKey {
    let lo = splitmix64(splitmix64(off ^ SEED_WORD_LO) ^ val);
    let hi = splitmix64(splitmix64(off ^ SEED_WORD_HI) ^ val);
    ((hi as ImageKey) << 64) | lo as ImageKey
}

const SEED_SNAP_LO: u64 = 0xc0ac_29b7_c97c_50dd;
const SEED_SNAP_HI: u64 = 0x3f84_d5b5_b547_0917;
const SNAP_K0: u64 = 0x9216_d5d9_8979_fb1b;
const SNAP_K1: u64 = 0xd131_0ba6_98df_b5ac;
const SNAP_K2: u64 = 0x2ffd_72db_d01a_dfb7;
const SNAP_K3: u64 = 0xb8e1_afed_6a26_7e96;

/// The full 128-bit product of `a` and `b`, folded to 64 bits.
#[inline]
fn mum(a: u64, b: u64) -> u64 {
    let r = (a as u128) * (b as u128);
    (r as u64) ^ ((r >> 64) as u64)
}

/// Content key of a framed record — `head` followed by `body` — for the
/// oracle's snapshot-node hashes (`chipmunk::oracle`).
///
/// A word-wide kernel: each part is read in 16-byte blocks (the last one
/// zero-padded), and every block is folded into two independent 64-bit
/// lanes by one 64×64→128 multiply each. Both part lengths are folded in
/// first, so the padding and the split between the parts are part of the
/// key: equal keys certify equal `(head, body)` pairs, trailing zero bytes
/// included. The two lanes pair the block's halves with the constants the
/// other way round, so no single block value can cancel both.
///
/// Unlike the image family above, these keys are *not* XOR-composable:
/// they are only ever compared whole, with each other, never with
/// `image_key` dedup keys or `word_term` footprint projections. The
/// constants are this family's own.
pub fn snap_key(head: &[u8], body: &[u8]) -> ImageKey {
    let (h, b) = (head.len() as u64, body.len() as u64);
    let mut lo = mum(h ^ SEED_SNAP_LO, b ^ SNAP_K0);
    let mut hi = mum(b ^ SEED_SNAP_HI, h ^ SNAP_K2);
    let mut fold = |blk: &[u8]| {
        let x = u64::from_le_bytes(blk[..8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(blk[8..].try_into().expect("8 bytes"));
        lo = mum(x ^ SNAP_K0, y ^ lo);
        hi = mum(y ^ SNAP_K2, x ^ hi ^ SNAP_K3);
    };
    for part in [head, body] {
        let mut blocks = part.chunks_exact(16);
        blocks.by_ref().for_each(&mut fold);
        let rest = blocks.remainder();
        if !rest.is_empty() {
            let mut pad = [0u8; 16];
            pad[..rest.len()].copy_from_slice(rest);
            fold(&pad);
        }
    }
    let lo = mum(lo ^ SNAP_K1, h.wrapping_add(b) ^ SNAP_K3);
    let hi = mum(hi ^ SNAP_K3, h.wrapping_add(b) ^ SNAP_K1);
    ((hi as ImageKey) << 64) | lo as ImageKey
}

/// Key delta for overwriting the bytes `old` at `off` with `new`
/// (`old.len() == new.len()`). XOR the result into a maintained key.
///
/// Compares 8-byte words first and only descends to byte terms inside words
/// that actually differ — the incremental `state_key` path mostly re-applies
/// bytes that are already in place, so whole words short-circuit.
pub fn write_delta(off: u64, old: &[u8], new: &[u8]) -> ImageKey {
    debug_assert_eq!(old.len(), new.len());
    let mut d = 0;
    let mut o_chunks = old.chunks_exact(8);
    let mut n_chunks = new.chunks_exact(8);
    let mut pos = 0u64;
    for (ow, nw) in o_chunks.by_ref().zip(n_chunks.by_ref()) {
        let owv = u64::from_le_bytes(ow.try_into().expect("8-byte chunk"));
        let nwv = u64::from_le_bytes(nw.try_into().expect("8-byte chunk"));
        if owv != nwv {
            for (i, (&o, &n)) in ow.iter().zip(nw).enumerate() {
                if o != n {
                    let at = off + pos + i as u64;
                    d ^= byte_term(at, o) ^ byte_term(at, n);
                }
            }
        }
        pos += 8;
    }
    for (i, (&o, &n)) in o_chunks.remainder().iter().zip(n_chunks.remainder()).enumerate() {
        if o != n {
            let at = off + pos + i as u64;
            d ^= byte_term(at, o) ^ byte_term(at, n);
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_images_hash_to_zero() {
        assert_eq!(image_key(&[0u8; 100]), 0);
        assert_eq!(image_key(&[0u8; 9000]), 0);
        assert_eq!(image_key(&[]), 0);
    }

    #[test]
    fn key_is_content_determined() {
        let mut a = vec![0u8; 512];
        a[10] = 3;
        a[500] = 7;
        let mut b = vec![0u8; 512];
        b[500] = 7;
        b[10] = 3;
        assert_eq!(image_key(&a), image_key(&b));
        b[10] = 4;
        assert_ne!(image_key(&a), image_key(&b));
    }

    #[test]
    fn position_matters() {
        let mut a = vec![0u8; 64];
        a[1] = 5;
        let mut b = vec![0u8; 64];
        b[2] = 5;
        assert_ne!(image_key(&a), image_key(&b));
    }

    #[test]
    fn incremental_matches_full() {
        let mut img: Vec<u8> = (0..1000).map(|i| (i * 7 % 256) as u8).collect();
        let mut key = image_key(&img);
        let new = [9u8, 0, 255, 3, 3];
        let off = 123u64;
        key ^= write_delta(off, &img[123..128], &new);
        img[123..128].copy_from_slice(&new);
        assert_eq!(key, image_key(&img));
    }

    #[test]
    fn write_delta_of_identical_bytes_is_zero() {
        let old = [1u8, 2, 3];
        assert_eq!(write_delta(40, &old, &old), 0);
    }

    /// Per-byte reference implementations: the word-scanning fast paths must
    /// be bit-identical to these on every length and alignment.
    fn image_key_naive(img: &[u8]) -> ImageKey {
        let mut key = 0;
        for (i, &b) in img.iter().enumerate() {
            key ^= byte_term(i as u64, b);
        }
        key
    }

    fn write_delta_naive(off: u64, old: &[u8], new: &[u8]) -> ImageKey {
        let mut d = 0;
        for (i, (&o, &n)) in old.iter().zip(new).enumerate() {
            let at = off + i as u64;
            d ^= byte_term(at, o) ^ byte_term(at, n);
        }
        d
    }

    #[test]
    fn word_scan_matches_naive_on_all_lengths() {
        // Lengths straddling word boundaries, with zero runs and dense data.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 63, 64, 100, 257] {
            let img: Vec<u8> =
                (0..len).map(|i| if i % 5 == 0 { 0 } else { (i * 31 % 256) as u8 }).collect();
            assert_eq!(image_key(&img), image_key_naive(&img), "len={len}");
        }
    }

    fn span_key_naive(off: u64, data: &[u8]) -> ImageKey {
        let mut key = 0;
        for (i, &b) in data.iter().enumerate() {
            key ^= byte_term(off + i as u64, b);
        }
        key
    }

    #[test]
    fn span_key_matches_naive_on_all_lengths_and_offsets() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 63, 64, 100, 257] {
            let data: Vec<u8> =
                (0..len).map(|i| if i % 5 == 0 { 0 } else { (i * 31 % 256) as u8 }).collect();
            // Unaligned offsets must not change the scan result: terms are
            // per absolute byte position, not per word boundary.
            for off in [0u64, 1, 3, 8, 13, 4096] {
                assert_eq!(span_key(off, &data), span_key_naive(off, &data), "len={len} off={off}");
            }
        }
    }

    #[test]
    fn span_key_composes_into_image_key() {
        let img: Vec<u8> = (0..200).map(|i| (i * 7 % 256) as u8).collect();
        let (a, b) = img.split_at(77);
        assert_eq!(span_key(0, a) ^ span_key(77, b), image_key(&img));
    }

    #[test]
    fn run_term_distinguishes_offset_and_length() {
        assert_ne!(run_term(0, 8), run_term(8, 8));
        assert_ne!(run_term(0, 8), run_term(0, 16));
        assert_ne!(run_term(0, 0), run_term(0, 1));
        // And it never degenerates to zero for a zero-length run at 0.
        assert_ne!(run_term(0, 0), 0);
    }

    #[test]
    fn snap_key_frames_and_namespaces() {
        // Framing: the head/body split and both lengths are part of the key.
        assert_eq!(snap_key(b"ab", b"cd"), snap_key(b"ab", b"cd"));
        assert_ne!(snap_key(b"ab", b"cd"), snap_key(b"abc", b"d"));
        assert_ne!(snap_key(b"ab", b"cd"), snap_key(b"ab", b"ce"));
        // Trailing zeros are padding inside a block but not to the key.
        assert_ne!(snap_key(b"a", b"\0"), snap_key(b"a", b""));
        assert_ne!(snap_key(b"a\0", b""), snap_key(b"a", b""));
        assert_ne!(snap_key(&[0; 16], b""), snap_key(&[0; 15], b""));
        assert_ne!(snap_key(b"", b""), 0);
    }

    #[test]
    fn snap_key_is_its_own_namespace() {
        // Identical bytes key differently than in the image family and the
        // word family, at every length around the block size.
        for len in [1usize, 7, 8, 15, 16, 17, 32, 100] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 % 251 + 1) as u8).collect();
            let k = snap_key(b"", &data);
            assert_ne!(k, span_key(0, &data), "len {len}");
            assert_ne!(k, image_key(&data), "len {len}");
            let w = u64::from_le_bytes({
                let mut b = [0u8; 8];
                b[..len.min(8)].copy_from_slice(&data[..len.min(8)]);
                b
            });
            assert_ne!(k, word_term(0, w), "len {len}");
        }
    }

    proptest::proptest! {
        /// A random record against itself, a one-byte edit, an appended
        /// zero byte and a moved head/body split: keys are equal exactly
        /// when the records are.
        #[test]
        fn snap_key_equality_is_content_equality(
            a in proptest::collection::vec(0u8..3, 0..48),
            split in 0usize..48,
            edit in 0u8..5,
            at in 0usize..48,
        ) {
            let split = split.min(a.len());
            let mut b = a.clone();
            let mut split_b = split;
            match edit {
                0 => {}
                1 if !b.is_empty() => {
                    let i = at % b.len();
                    b[i] = (b[i] + 1) % 3;
                }
                2 => b.push(0),
                3 => split_b = at.min(b.len()),
                _ => b = a.iter().rev().copied().collect(),
            }
            let (ha, ba) = a.split_at(split);
            let (hb, bb) = b.split_at(split_b);
            proptest::prop_assert_eq!(
                snap_key(ha, ba) == snap_key(hb, bb),
                (ha, ba) == (hb, bb)
            );
        }
    }

    #[test]
    fn write_delta_matches_naive_on_all_lengths() {
        for len in [0usize, 1, 7, 8, 9, 17, 40, 129] {
            let old: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            // Differs only sparsely so most words short-circuit.
            let new: Vec<u8> =
                old.iter().enumerate().map(|(i, &b)| if i % 11 == 3 { b ^ 0x40 } else { b }).collect();
            for off in [0u64, 1, 8, 4096] {
                assert_eq!(
                    write_delta(off, &old, &new),
                    write_delta_naive(off, &old, &new),
                    "len={len} off={off}"
                );
            }
        }
    }
}
