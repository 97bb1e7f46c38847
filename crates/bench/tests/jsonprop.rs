//! Property tests for the hand-rolled JSON layer (`bench::jsonout`): the
//! campaign store's journals, results, and merged document all depend on
//! `parse` ∘ `render` being the identity (and the `--json` outputs and repro
//! bundles on `parse` ∘ `render_pretty`), and on the parser rejecting
//! malformed input *deterministically* (journal recovery truncates at the
//! first unparsable line — a parser that flip-flops would make resume
//! nondeterministic).
//!
//! The vendored proptest shim has no recursive strategies, so value trees
//! are built by a seeded `StdRng` recursive builder driven by a `u64` seed
//! strategy — every case is still fully reproducible from its seed.

use bench::jsonout::{parse, JVal};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A generated string exercising escapes: quotes, backslashes, control
/// characters, newlines/tabs, and multi-byte unicode.
fn gen_string(rng: &mut StdRng) -> String {
    let alphabet: &[&str] = &[
        "a", "Z", "0", " ", "\"", "\\", "\n", "\t", "\r", "\u{1}", "\u{1f}", "é", "質", "🦀",
        "/", "{", "}", "[", "]", ":", ",",
    ];
    let len = rng.gen_range(0usize..12);
    (0..len).map(|_| alphabet[rng.gen_range(0usize..alphabet.len())]).collect()
}

/// A finite f64 that is interesting but exactly representable: integers,
/// dyadic fractions, and a few extremes. (`render` emits the shortest exact
/// decimal form, so any finite value round-trips; NaN is excluded because
/// `JVal` equality is derived.)
fn gen_num(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..6) {
        0 => 0.0,
        1 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
        2 => rng.gen_range(0u64..(1 << 53)) as f64,
        3 => rng.gen_range(-4096i64..4096) as f64 / 1024.0,
        4 => -0.0,
        _ => 1.5e12,
    }
}

/// Recursive value builder: depth-bounded, with distinct object keys (the
/// parser rejects duplicates, so a generated tree must not contain any).
fn gen_jval(rng: &mut StdRng, depth: usize) -> JVal {
    let max = if depth == 0 { 3 } else { 5 };
    match rng.gen_range(0u32..=max) {
        0 => JVal::Null,
        1 => JVal::Bool(rng.gen_bool(0.5)),
        2 => JVal::Num(gen_num(rng)),
        3 => JVal::Str(gen_string(rng)),
        4 => {
            let n = rng.gen_range(0usize..4);
            JVal::Arr((0..n).map(|_| gen_jval(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0usize..4);
            let mut fields: Vec<(String, JVal)> = Vec::new();
            for i in 0..n {
                let mut key = gen_string(rng);
                key.push_str(&format!("#{i}")); // force uniqueness
                let val = gen_jval(rng, depth - 1);
                fields.push((key, val));
            }
            JVal::Obj(fields)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse(render(v)) == v` and `parse(render_pretty(v)) == v` for
    /// arbitrary value trees, and both renderers are pure functions (same
    /// tree → same bytes).
    #[test]
    fn parse_render_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = gen_jval(&mut rng, 4);
        for text in [v.render(), v.render_pretty()] {
            let again = if text.ends_with('\n') { v.render_pretty() } else { v.render() };
            prop_assert_eq!(&text, &again, "render must be deterministic");
            let back = parse(&text);
            prop_assert!(back.is_ok(), "{:?} failed to parse back: {:?}", text, back);
            prop_assert_eq!(back.unwrap(), v.clone(), "round trip through {}", text);
        }
    }

    /// A duplicated object key is rejected wherever it occurs — top level
    /// or nested — and the error is deterministic.
    #[test]
    fn duplicate_keys_rejected(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = gen_string(&mut rng);
        let inner = JVal::Obj(vec![
            (key.clone(), JVal::Num(1.0)),
            (key.clone(), JVal::Num(2.0)),
        ]);
        let nested = JVal::Arr(vec![JVal::Null, inner.clone()]);
        for v in [inner, nested] {
            let text = v.render();
            let e1 = parse(&text).expect_err("duplicate key must be rejected");
            let e2 = parse(&text).expect_err("duplicate key must be rejected");
            prop_assert_eq!(&e1, &e2, "rejection must be deterministic");
            prop_assert!(e1.contains("duplicate"), "unexpected error {}", e1);
        }
    }

    /// Garbage never panics the parser, and accept/reject (with the exact
    /// error text) is stable across calls — the property journal recovery
    /// leans on.
    #[test]
    fn garbage_is_rejected_deterministically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Mutate a valid rendering: truncate, splice bytes, or inject junk.
        let v = gen_jval(&mut rng, 3);
        let mut text = v.render();
        let snap = |s: &str, mut i: usize| {
            while !s.is_char_boundary(i) {
                i -= 1;
            }
            i
        };
        match rng.gen_range(0u32..3) {
            0 => {
                let cut = snap(&text, rng.gen_range(0usize..=text.len()));
                text.truncate(cut);
            }
            1 => {
                let junk: &[&str] = &["}", "]", ",,", "tru", "01", "+5", "\"", "{\"a\":}", "nul"];
                text.push_str(junk[rng.gen_range(0usize..junk.len())]);
            }
            _ => {
                let pos = snap(&text, rng.gen_range(0usize..=text.len()));
                text.insert(pos, '\u{0}');
            }
        }
        let r1 = parse(&text);
        let r2 = parse(&text);
        prop_assert_eq!(r1, r2, "parser must be deterministic on {:?}", text);
    }
}

/// Fixed malformed inputs the fuzz loop above may not always hit: these are
/// the exact shapes torn journal tails take.
#[test]
fn known_garbage_rejected() {
    for bad in [
        "",
        "{",
        "{\"i\":1",
        "{\"i\":1,\"res\":{\"name\":\"to",
        "[1,]",
        "{\"a\":1,}",
        "01",
        "1.",
        "-",
        "\"\\x\"",
        "\"unterminated",
        "truefalse",
        "{\"a\":1}{\"b\":2}",
        "{\"a\":1,\"a\":2}",
    ] {
        assert!(parse(bad).is_err(), "must reject {bad:?}");
    }
}

/// Golden bytes of the compact renderer: numbers in Rust's shortest
/// round-trip `Display` form (integers exact below 2^53, digits then zeros
/// above it, `-0` signed, no exponent), non-finite values as `null`, every
/// escape, and non-ASCII text copied through. Campaign fingerprints hash
/// these bytes, so any change here moves every pinned fingerprint.
#[test]
fn render_golden_bytes() {
    let nums: &[(f64, &str)] = &[
        (0.0, "0"),
        (-0.0, "-0"),
        (1.0, "1"),
        (-1.0, "-1"),
        (4096.0, "4096"),
        (1.5e12, "1500000000000"),
        (9_007_199_254_740_991.0, "9007199254740991"),
        (-9_007_199_254_740_991.0, "-9007199254740991"),
        (9_007_199_254_740_992.0, "9007199254740992"),
        (9_007_199_254_740_994.0, "9007199254740994"),
        (-9_007_199_254_740_994.0, "-9007199254740994"),
        (18_014_398_509_481_988.0, "18014398509481988"),
        ((1u64 << 60) as f64, "1152921504606847000"),
        (u64::MAX as f64, "18446744073709552000"),
        (1e21, "1000000000000000000000"),
        (0.5, "0.5"),
        (-2.25, "-2.25"),
        (0.1, "0.1"),
        (1e-7, "0.0000001"),
        (123_456.789, "123456.789"),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
        (f64::NEG_INFINITY, "null"),
    ];
    for &(n, want) in nums {
        assert_eq!(JVal::Num(n).render(), want, "{n:e}");
        if n.is_finite() {
            assert_eq!(JVal::Num(n).render(), format!("{n}"), "{n:e}");
        }
    }
    let strs: &[(&str, &str)] = &[
        ("", r#""""#),
        ("plain", r#""plain""#),
        ("a\"b", r#""a\"b""#),
        ("a\\b", r#""a\\b""#),
        ("l1\nl2", r#""l1\nl2""#),
        ("\tx\t", r#""\tx\t""#),
        ("\r", r#""\u000d""#),
        ("\u{0}\u{1}\u{1f}", r#""\u0000\u0001\u001f""#),
        ("\u{7f} /{}[]:,", "\"\u{7f} /{}[]:,\""),
        ("é質🦀", "\"é質🦀\""),
        ("é\"質\n🦀\\", r#""é\"質\n🦀\\""#),
    ];
    for &(s, want) in strs {
        assert_eq!(JVal::Str(s.to_string()).render(), want, "{s:?}");
    }
    let doc = JVal::Obj(vec![
        ("k\"1".to_string(), JVal::Arr(vec![JVal::Num(-0.0), JVal::Num(2.5), JVal::Null])),
        ("ü".to_string(), JVal::Bool(true)),
    ]);
    assert_eq!(doc.render(), r#"{"k\"1":[-0,2.5,null],"ü":true}"#);
}

/// The integral fast path is exact: every integer-valued float renders as
/// `format!("{n}")` does, across the 2^53 boundary and at random bit
/// patterns.
#[test]
fn numbers_render_as_display() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let edge = (1u64 << 53) as f64;
    let check = |n: f64| {
        if n.is_finite() {
            assert_eq!(JVal::Num(n).render(), format!("{n}"), "{n:e}");
        }
    };
    for d in -4i64..=4 {
        check(edge + d as f64);
        check(-edge + d as f64);
        check(2.0 * edge + 2.0 * d as f64);
    }
    for _ in 0..20_000 {
        check(f64::from_bits(rng.gen::<u64>()));
        check(rng.gen_range(-(1i64 << 54)..(1i64 << 54)) as f64);
        check(rng.gen_range(-100_000i64..100_000) as f64 / 8.0);
    }
}

/// The indented layout: two-space indent, `"k": v`, `[]` / `{}` when
/// empty, a trailing newline, and scalars exactly as the compact form
/// writes them.
#[test]
fn render_pretty_golden_bytes() {
    let doc = JVal::Obj(vec![
        ("n".to_string(), JVal::Num(0.25)),
        ("big".to_string(), JVal::Num(4096.0)),
        ("s\n".to_string(), JVal::Str("a\"b".into())),
        ("none".to_string(), JVal::Arr(vec![])),
        ("empty".to_string(), JVal::Obj(vec![])),
        (
            "arr".to_string(),
            JVal::Arr(vec![JVal::Num(-0.0), JVal::Obj(vec![("k".to_string(), JVal::Null)])]),
        ),
        ("inf".to_string(), JVal::Num(f64::INFINITY)),
    ]);
    let want = "{\n  \"n\": 0.25,\n  \"big\": 4096,\n  \"s\\n\": \"a\\\"b\",\n  \"none\": [],\n  \
                \"empty\": {},\n  \"arr\": [\n    -0,\n    {\n      \"k\": null\n    }\n  ],\n  \
                \"inf\": null\n}\n";
    assert_eq!(doc.render_pretty(), want);
    assert_eq!(JVal::Bool(true).render_pretty(), "true\n");
    assert_eq!(JVal::Arr(vec![]).render_pretty(), "[]\n");
}

/// Every committed repro bundle is in the indented layout already: parsing
/// one and rendering it again gives its bytes back.
#[test]
fn committed_repro_bundles_re_render_byte_for_byte() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../repros");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("repros/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            let v = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(v.render_pretty(), text, "{}", path.display());
            seen += 1;
        }
    }
    assert!(seen > 0, "no bundles under {dir}");
}

/// `as_u64` takes exactly the integers of `u64`: 2^64 (which is what
/// `u64::MAX as f64` rounds to) is one past the range.
#[test]
fn as_u64_takes_exact_integers_in_range() {
    let two_53 = (1u64 << 53) as f64;
    assert_eq!(JVal::Num(two_53).as_u64(), Some(1 << 53));
    assert_eq!(JVal::Num(-0.0).as_u64(), Some(0));
    assert_eq!(JVal::Num(18_446_744_073_709_551_616.0).as_u64(), None);
    assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    assert_eq!(parse("18446744073709551615").unwrap().as_u64(), None, "rounds to 2^64");
    assert_eq!(JVal::Num(((1u64 << 63) + (1 << 62)) as f64).as_u64(), Some((1 << 63) + (1 << 62)));
    for bad in [-1.0, 0.5, f64::NAN, f64::INFINITY] {
        assert_eq!(JVal::Num(bad).as_u64(), None, "{bad}");
    }
}
