//! The workspace's one JSON layer (it is dependency-frozen, so no serde):
//! one value type, [`JVal`], with a compact renderer (campaign journal
//! lines, committed results and the fingerprints that hash them), an
//! indented one (`--json` outputs and repro bundles), a strict parser, and
//! the atomic file writer every emitter goes through.

use std::fmt::Write as _;

/// Writes `contents` to `path` atomically: the bytes go to a `.tmp`
/// sibling first and are renamed over the target only once fully
/// written, so a failure mid-write leaves any existing file at `path`
/// untouched (the subcommands overwrite baseline artifacts in place).
///
/// The temp file is fsynced before the rename and the parent directory
/// after it — without the directory fsync the rename itself is not
/// durable, so a real crash could lose the "atomically" written file
/// (the very bug class this workspace exists to catch).
///
/// Delegates to the process-wide passthrough
/// [`crate::campaign::hostio::HostCtx`], so every artifact emitter in
/// the workspace goes through the same audited write path as the
/// campaign store (fault injection exercises that path directly in the
/// `hostio` tests).
pub fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    write_atomic_bytes(path, contents.as_bytes())
}

/// [`write_atomic`] for binary contents (the campaign store's coverage
/// bitmaps are raw bit arrays, not JSON).
pub fn write_atomic_bytes(path: &str, contents: &[u8]) -> std::io::Result<()> {
    crate::campaign::hostio::default_ctx()
        .write_atomic(std::path::Path::new(path), contents)
        .map_err(std::io::Error::other)
}

/// Escapes `v` into `out` as a JSON string literal (quotes included).
/// Shared by both renderers so object keys and values escape identically.
fn escape_str(out: &mut String, v: &str) {
    out.push('"');
    // Every character that needs escaping is ASCII, so scanning bytes
    // never splits a multi-byte character; the runs between escapes
    // are copied whole.
    let mut run = 0;
    for (i, b) in v.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&v[run..i]);
        match short {
            Some(esc) => out.push_str(esc),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&v[run..]);
    out.push('"');
}

/// Writes a finite `n` exactly as `format!("{n}")` would (the shortest
/// form that round-trips). Integral values below 2^53 go through the
/// integer formatter: every such value is an exact integer, so its
/// shortest form is its integer digits. `-0.0` keeps its sign.
fn write_num(out: &mut String, n: f64) {
    const EXACT: f64 = (1u64 << 53) as f64;
    if n.fract() == 0.0 && n.abs() < EXACT && !(n == 0.0 && n.is_sign_negative()) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// A JSON value: what [`parse`] reads and what every emitter builds.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// Any number (integers included; JSON does not distinguish).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<JVal>),
    /// An object (field order preserved).
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    /// An object from literal field names, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, JVal)>) -> JVal {
        JVal::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JVal> {
        match self {
            JVal::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if exact. `u64::MAX as
    /// f64` is 2^64 itself, one past the range, so the bound is exclusive.
    pub fn as_u64(&self) -> Option<u64> {
        const END: f64 = u64::MAX as f64;
        match self {
            JVal::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < END => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric payload.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JVal::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[JVal]> {
        match self {
            JVal::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value back to compact (single-line) JSON such that
    /// `parse(v.render()) == v` for every parseable value. The campaign
    /// journal depends on this: each checkpoint is one line, so the
    /// emitter must never produce embedded newlines (strings escape
    /// them) and numbers must round-trip exactly — floats use Rust's
    /// shortest-exact `Display` form, not a fixed precision. Non-finite
    /// floats (which [`parse`] can never produce) render as `null`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None);
        s
    }

    /// Renders the value as an indented document: two-space indentation,
    /// `"k": v`, `[]` / `{}` when empty, and a trailing newline — the layout
    /// of the `--json` outputs and repro bundles. Scalars are written as
    /// [`Self::render`] writes them, so `parse(v.render_pretty()) == v` too.
    pub fn render_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(0));
        s.push('\n');
        s
    }

    /// Writes the value compactly (`ind` is `None`) or indented at level
    /// `ind`.
    fn write(&self, out: &mut String, ind: Option<usize>) {
        match self {
            JVal::Num(n) if n.is_finite() => write_num(out, *n),
            JVal::Num(_) | JVal::Null => out.push_str("null"),
            JVal::Str(s) => escape_str(out, s),
            JVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JVal::Arr(items) => write_block(out, ind, "[]", items.iter().map(|v| (None, v))),
            JVal::Obj(fields) => {
                write_block(out, ind, "{}", fields.iter().map(|(k, v)| (Some(k.as_str()), v)))
            }
        }
    }
}

/// One array or object: entries (with their keys, in an object) between
/// `brackets`, separated by commas. Indented, each entry sits on a line of
/// its own one level in, and an empty container stays `[]` / `{}`.
fn write_block<'a>(
    out: &mut String,
    ind: Option<usize>,
    brackets: &str,
    entries: impl Iterator<Item = (Option<&'a str>, &'a JVal)>,
) {
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        (0..level).for_each(|_| out.push_str("  "));
    };
    out.push_str(&brackets[..1]);
    let mut empty = true;
    for (key, v) in entries {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(ind) = ind {
            newline(out, ind + 1);
        }
        if let Some(k) = key {
            escape_str(out, k);
            out.push_str(if ind.is_some() { ": " } else { ":" });
        }
        v.write(out, ind.map(|i| i + 1));
    }
    if let (Some(ind), false) = (ind, empty) {
        newline(out, ind);
    }
    out.push_str(&brackets[1..]);
}

/// JSON number from a small unsigned integer. `JVal` numbers are `f64`, so
/// this is exact only below 2^53 — counters, indices and bitmap bits all
/// are; full 64-bit hashes travel as hex strings instead.
pub fn ju(n: u64) -> JVal {
    debug_assert!(n < (1u64 << 53), "u64 too large for exact JSON number");
    JVal::Num(n as f64)
}

/// Required u64 field lookup.
pub(crate) fn jval_u64(v: &JVal, key: &str) -> Result<u64, String> {
    v.get(key).and_then(JVal::as_u64).ok_or_else(|| format!("missing/bad field {key:?}"))
}

/// Required string field lookup.
pub(crate) fn jstr<'a>(v: &'a JVal, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(JVal::as_str).ok_or_else(|| format!("missing/bad field {key:?}"))
}

/// Parses a JSON document (recursive descent; the workspace is
/// dependency-frozen, so no serde). Trailing garbage is an error.
pub fn parse(s: &str) -> Result<JVal, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JVal, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JVal::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    JVal::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {}", *pos)),
                };
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                // Duplicate keys are ambiguous (which one does `get`
                // mean?) and a classic smuggling vector; the journal and
                // corpus readers must never see them resolve silently.
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate object key {key:?} at byte {}", *pos));
                }
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JVal::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JVal::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JVal::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(JVal::Str),
        Some(b't') => parse_lit(b, pos, "true").map(|_| JVal::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|_| JVal::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|_| JVal::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JVal, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number bytes");
    // Reject forms `f64::from_str` accepts but JSON does not (leading
    // zeros, bare '.', 'inf', ...): digits with optional sign, fraction,
    // exponent only.
    let ok = {
        let t = text.strip_prefix('-').unwrap_or(text);
        let (mant, exp) = match t.split_once(['e', 'E']) {
            Some((m, e)) => (m, Some(e)),
            None => (t, None),
        };
        let (int, frac) = match mant.split_once('.') {
            Some((i, f)) => (i, Some(f)),
            None => (mant, None),
        };
        let int_ok = int == "0"
            || (!int.is_empty()
                && !int.starts_with('0')
                && int.bytes().all(|c| c.is_ascii_digit()));
        let frac_ok =
            frac.is_none_or(|f| !f.is_empty() && f.bytes().all(|c| c.is_ascii_digit()));
        let exp_ok = exp.is_none_or(|e| {
            let e = e.strip_prefix(['+', '-']).unwrap_or(e);
            !e.is_empty() && e.bytes().all(|c| c.is_ascii_digit())
        });
        int_ok && frac_ok && exp_ok
    };
    if !ok {
        return Err(format!("invalid number {text:?} at byte {start}"));
    }
    text.parse::<f64>()
        .map(JVal::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8".into());
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let cp = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        // The writer only emits \u for control chars, so
                        // surrogate pairs are out of scope; reject them
                        // rather than decode wrongly.
                        let c = char::from_u32(cp)
                            .ok_or_else(|| format!("unpaired surrogate \\u{cp:04x}"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_survives_mid_write_failure() {
        // The mid-write fault matrix (short writes, EIO, torn appends,
        // lying writes) lives in `campaign::hostio`'s tests against the
        // same context this function delegates to; here we only pin the
        // caller-visible contract: overwrite-in-place works and leaves
        // no temp file behind.
        let dir = std::env::temp_dir();
        let path = dir
            .join(format!("chipmunk-atomic-{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        write_atomic(&path, "{\"old\": true}\n").expect("initial write");
        write_atomic(&path, "{\"new\": true}\n").expect("second write");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"new\": true}\n");
        assert!(
            !std::path::Path::new(&format!("{path}.tmp")).exists(),
            "temp file must not outlive the rename"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_syncs_parent_directory() {
        // The rename is only durable once the parent directory is
        // fsynced; exercise both parent shapes (explicit directory and
        // a bare filename, whose parent resolves to ".").
        let dir = std::env::temp_dir().join(format!("chipmunk-dirsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let nested = dir.join("out.json").to_string_lossy().into_owned();
        write_atomic(&nested, "{}\n").expect("write in fresh directory");
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "{}\n");
        let bare = format!("chipmunk-bare-{}.json", std::process::id());
        write_atomic(&bare, "{}\n").expect("'.' parent fallback must sync");
        let _ = std::fs::remove_file(&bare);
        let _ = std::fs::remove_file(&nested);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = JVal::obj([
            ("num", ju(42)),
            ("neg", JVal::Num(-1.5)),
            ("s", JVal::Str("a \"quoted\"\nline\ttab \\ unicode \u{1f600}".into())),
            ("b", JVal::Bool(true)),
            ("nothing", JVal::Null),
            ("arr", JVal::Arr(vec![ju(1), ju(2), JVal::Arr(vec![])])),
            ("obj", JVal::obj([("k", JVal::Str("v".into()))])),
            ("empty", JVal::Obj(vec![])),
        ]);
        assert_eq!(parse(&doc.render()), Ok(doc.clone()));
        let v = parse(&doc.render_pretty()).expect("parse rendered doc");
        assert_eq!(v, doc);
        assert_eq!(v.get("num").and_then(JVal::as_u64), Some(42));
        assert_eq!(v.get("neg").and_then(JVal::as_f64), Some(-1.5));
        assert_eq!(
            v.get("s").and_then(JVal::as_str),
            Some("a \"quoted\"\nline\ttab \\ unicode \u{1f600}")
        );
        assert_eq!(v.get("b"), Some(&JVal::Bool(true)));
        assert_eq!(v.get("nothing"), Some(&JVal::Null));
        let arr = v.get("arr").and_then(JVal::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(v.get("obj").and_then(|o| o.get("k")).and_then(JVal::as_str), Some("v"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "", "{", "}", "[1,", "{\"k\": }", "{\"k\" 1}", "tru", "\"unterminated",
            "\"bad \\q escape\"", "01x", "{\"a\":1} trailing",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
