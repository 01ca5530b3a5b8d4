//! The workspace's one JSON lexical layer (it vendors no `serde_json`): one
//! string-literal decoder, one escaper, one number validator and one
//! `skip_ws`, under two data models whose traffic differs —
//!
//! * [`scan_flat_object`]: borrowed and flat, for 17 MB journals. The
//!   summarizer reads a line's members as they are scanned, with no copy
//!   unless a string holds an escape.
//! * [`Json`]: owned and nested, for 100-byte request lines, with the
//!   **canonical** serialization the serve protocol hashes for content
//!   addressing: object keys sorted bytewise, numbers normalized through
//!   `f64` round-trip formatting (`1e3`, `1000` and `1000.0` all canonicalize
//!   to `1000.0`), strings re-escaped minimally. Two requests that differ
//!   only in key order, whitespace or number spelling hash identically.
//!
//! One scanner serving both would have to branch on its caller at every
//! value; they share every token rule instead. A request line never needs the
//! tree to be routed: [`object_spans`] validates it (over `skip_value`, the
//! tree parser's walk minus the tree) into `(key, source span)` members, and
//! [`write_canonical_spans`] canonicalizes those spans in one more pass; the
//! tree writer shares its member loop and number rule and is its oracle.
//! Floats are formatted with `{:?}` (shortest round-trip), so a value
//! survives emit → parse exactly — the property the 1e-9 J
//! energy-reconstruction audit relies on.

use std::borrow::Cow;
use std::fmt::{self, Write};

/// Append `s` to `out`, escaped for a JSON string literal; stretches that
/// need no escape (every label, kind and state in a journal) are copied whole.
pub fn push_escaped<W: Write>(out: &mut W, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `run..i` ends on a char boundary.
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])
}

/// [`push_escaped`] into a `String`, whose `fmt::Write` never fails.
pub(crate) fn push_escaped_str(out: &mut String, s: &str) {
    let _ = push_escaped(out, s);
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped_str(&mut out, s);
    out
}

/// Append `v` in round-trippable float formatting; non-finite values become
/// `null`.
pub fn push_f64<W: Write>(out: &mut W, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v:?}")
    } else {
        out.write_str("null")
    }
}

/// Round-trippable float formatting; non-finite values become `null`.
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    // `String`'s `fmt::Write` never fails.
    let _ = push_f64(&mut out, v);
    out
}

/// A scalar borrowed from one journal line. A number keeps its raw text, so
/// only the fields a caller reads are converted and none loses precision; a
/// string is a slice of the line unless it held an escape.
#[derive(Debug, PartialEq)]
pub(crate) enum Scalar<'a> {
    /// Raw token of a valid JSON number, e.g. `"1500000000"` or `"0.25"`.
    Num(&'a str),
    /// Decoded string contents.
    Str(Cow<'a, str>),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Scan a single-line flat JSON object (string/number/bool/null values, no
/// nesting) in one pass, handing each member to `member` in source order:
/// no copy unless a string holds an escape, and what it hands out borrows
/// from `line`. This is all the journal format needs; anything else is a
/// malformed line.
pub(crate) fn scan_flat_object<'a>(
    line: &'a str,
    member: impl FnMut(Cow<'a, str>, Scalar<'a>),
) -> Result<(), String> {
    let line = line.trim();
    if !line.starts_with('{') {
        return Err("expected '{' at byte 0".to_string());
    }
    let end = scan_members(line, 0, |at| scan_value(line, at), member)?;
    if skip_ws(line.as_bytes(), end) != line.len() {
        return Err(format!("trailing garbage at byte {end}"));
    }
    Ok(())
}

/// A parsed JSON value. Numbers keep their raw source token so integer
/// callers (`as_u64`) lose no precision; canonicalization is where the
/// float normalization happens.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Raw number token, e.g. `"42"` or `"1.5e3"`.
    Num(String),
    /// Decoded string contents.
    Str(String),
    /// Array of values.
    Arr(Vec<Json>),
    /// Object members in source order.
    Obj(Vec<(String, Json)>),
}

/// Parser recursion limit; a request nested deeper than this is rejected
/// rather than allowed to exhaust the connection thread's stack.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parse one JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let (value, next) = Json::parse_at(text, skip_ws(bytes, 0), 0)?;
        let end = skip_ws(bytes, next);
        if end != bytes.len() {
            return Err(format!("trailing garbage at byte {end}"));
        }
        Ok(value)
    }

    /// The value opening at byte `i`, and the byte after it.
    fn parse_at(text: &str, i: usize, depth: usize) -> Result<(Json, usize), String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        let bytes = text.as_bytes();
        let nested = |at| Json::parse_at(text, at, depth + 1);
        match bytes.get(i) {
            Some(b'{') => {
                let mut members = Vec::new();
                let member = |k: Cow<'_, str>, v| members.push((k.into_owned(), v));
                let next = scan_members(text, i, nested, member)?;
                Ok((Json::Obj(members), next))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                let next = scan_items(text, i, nested, |item| items.push(item))?;
                Ok((Json::Arr(items), next))
            }
            _ => {
                let (scalar, next) = scan_value(text, i)?;
                let value = match scalar {
                    Scalar::Num(raw) => Json::Num(raw.to_string()),
                    Scalar::Str(s) => Json::Str(s.into_owned()),
                    Scalar::Bool(b) => Json::Bool(b),
                    Scalar::Null => Json::Null,
                };
                Ok((value, next))
            }
        }
    }

    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number as `u64` (integral tokens only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize preserving source member order and number tokens (used to
    /// echo request ids).
    pub fn to_string_raw(&self) -> String {
        let mut out = String::new();
        // `String`'s `fmt::Write` never fails.
        let _ = self.write(false, &mut out);
        out
    }

    fn write<W: Write>(&self, canonical: bool, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Num(raw) if canonical => push_f64(out, raw.parse().unwrap_or(f64::NAN)),
            Json::Num(raw) => out.write_str(raw),
            Json::Str(s) => write_quoted(s, out),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(canonical, out)?;
                }
                out.write_char(']')
            }
            Json::Obj(members) if canonical => write_sorted(members.iter().collect(), out),
            Json::Obj(members) => write_members(members, out, |v, out| v.write(false, out)),
        }
    }
}

/// Stream the canonical form of an object with the given members (an
/// already-filtered view, e.g. minus non-semantic keys) into `out`, without
/// cloning the members into a temporary [`Json::Obj`].
pub fn write_canonical_object<W: Write>(members: &[&(String, Json)], out: &mut W) -> fmt::Result {
    write_sorted(members.to_vec(), out)
}

/// `members` as a canonical object: keys in bytewise order.
fn write_sorted<W: Write>(mut members: Vec<&(String, Json)>, out: &mut W) -> fmt::Result {
    members.sort_by(|a, b| a.0.cmp(&b.0));
    write_members(members, out, |v, out| v.write(true, out))
}

/// One object member as [`object_spans`] reads it: the decoded key, and the
/// slice of the source that spells the (validated) value.
pub type SpanMember<'a> = (Cow<'a, str>, &'a str);

/// What [`write_canonical_object`] streams for the same members parsed,
/// appended to `out` from their source spans with no tree in between:
/// `members` is stable-sorted by key in place (duplicates kept, as the tree
/// writer keeps them). A span that does not spell exactly one JSON value is
/// an `Err`, and leaves `out` unspecified.
pub fn write_canonical_spans(members: &mut [SpanMember], out: &mut String) -> fmt::Result {
    members.sort_by(|a, b| a.0.cmp(&b.0));
    write_members(&*members, out, |span, out| {
        match write_canonical_at(span, 0, 0, out) {
            Ok(end) if end == span.len() => Ok(()),
            _ => Err(fmt::Error),
        }
    })
}

/// Append the canonical form of the value opening at byte `at` to `out` and
/// return the byte after it: one pass that validates as [`Json::parse`] does
/// and writes the tree's canonical form (sorted keys, normalized numbers).
/// An object's values are written as they are scanned and then put in key
/// order, so however deep the nesting, every byte is scanned once.
fn write_canonical_at(
    text: &str,
    at: usize,
    depth: usize,
    out: &mut String,
) -> Result<usize, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    match text.as_bytes().get(at) {
        Some(b'{') => {
            let base = out.len();
            let mut members = Vec::new();
            let value = |at| {
                let start = out.len() - base;
                let next = write_canonical_at(text, at, depth + 1, out)?;
                Ok((start..out.len() - base, next))
            };
            let next = scan_members(text, at, value, |k, range| members.push((k, range)))?;
            let values = out.split_off(base);
            members.sort_by(|a, b| a.0.cmp(&b.0));
            let value = |range: &std::ops::Range<usize>, out: &mut String| {
                out.push_str(&values[range.clone()]);
                Ok(())
            };
            write_members(&members, out, value).map_err(|e| e.to_string())?;
            Ok(next)
        }
        Some(b'[') => {
            out.push('[');
            let mut separator = "";
            let item = |at| {
                out.push_str(separator);
                separator = ",";
                write_canonical_at(text, at, depth + 1, out).map(|next| ((), next))
            };
            let next = scan_items(text, at, item, |()| {})?;
            out.push(']');
            Ok(next)
        }
        _ => {
            let (scalar, next) = scan_value(text, at)?;
            let written = match scalar {
                Scalar::Num(raw) => write_canonical_number(raw, out),
                Scalar::Str(s) => write_quoted(&s, out),
                Scalar::Bool(b) => out.write_str(if b { "true" } else { "false" }),
                Scalar::Null => out.write_str("null"),
            };
            written.map_err(|e| e.to_string())?;
            Ok(next)
        }
    }
}

/// A valid number token as `{:?}` prints the `f64` it parses to — what the
/// tree writer does for every token. Up to fifteen plain digits are below
/// 2^53, so exact in an `f64`, and below 1e16, where `{:?}` turns to
/// exponent form: they print as themselves plus `.0`.
fn write_canonical_number(token: &str, out: &mut String) -> fmt::Result {
    if token.len() <= 15 && token.bytes().all(|b| b.is_ascii_digit()) {
        out.push_str(token);
        out.push_str(".0");
        Ok(())
    } else {
        push_f64(out, token.parse().unwrap_or(f64::NAN))
    }
}

/// `{"key":value,...}` over `members` in the order given, each value written
/// by `value` — the member loop of the tree writer and of the span writer.
fn write_members<'a, K: AsRef<str> + 'a, V: 'a, W: Write>(
    members: impl IntoIterator<Item = &'a (K, V)>,
    out: &mut W,
    mut value: impl FnMut(&'a V, &mut W) -> fmt::Result,
) -> fmt::Result {
    out.write_char('{')?;
    for (i, (k, v)) in members.into_iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write_quoted(k.as_ref(), out)?;
        out.write_char(':')?;
        value(v, out)?;
    }
    out.write_char('}')
}

fn write_quoted<W: Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    push_escaped(out, s)?;
    out.write_char('"')
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// The members of the object opening at byte `i`, each value read by `value`
/// and handed to `member` in source order; returns the byte after the
/// closing brace.
fn scan_members<'a, V>(
    line: &'a str,
    mut i: usize,
    mut value: impl FnMut(usize) -> Result<(V, usize), String>,
    mut member: impl FnMut(Cow<'a, str>, V),
) -> Result<usize, String> {
    let bytes = line.as_bytes();
    i = skip_ws(bytes, i + 1);
    if bytes.get(i) == Some(&b'}') {
        return Ok(i + 1);
    }
    loop {
        let (key, next) = scan_string(line, i)?;
        i = skip_ws(bytes, next);
        if bytes.get(i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}"));
        }
        let (v, next) = value(skip_ws(bytes, i + 1))?;
        member(key, v);
        i = skip_ws(bytes, next);
        match bytes.get(i) {
            Some(b',') => i = skip_ws(bytes, i + 1),
            Some(b'}') => return Ok(i + 1),
            _ => return Err(format!("expected ',' or '}}' at byte {i}")),
        }
    }
}

/// The items of the array opening at byte `i`, each read by `value` and
/// handed to `item` in source order; returns the byte after the closing
/// bracket.
fn scan_items<V>(
    text: &str,
    mut i: usize,
    mut value: impl FnMut(usize) -> Result<(V, usize), String>,
    mut item: impl FnMut(V),
) -> Result<usize, String> {
    let bytes = text.as_bytes();
    i = skip_ws(bytes, i + 1);
    if bytes.get(i) == Some(&b']') {
        return Ok(i + 1);
    }
    loop {
        let (v, next) = value(i)?;
        item(v);
        i = skip_ws(bytes, next);
        match bytes.get(i) {
            Some(b',') => i = skip_ws(bytes, i + 1),
            Some(b']') => return Ok(i + 1),
            _ => return Err(format!("expected ',' or ']' at byte {i}")),
        }
    }
}

/// Validate the value opening at byte `i` and return the byte after it,
/// building nothing: [`Json::parse`]'s walk — the same loops, depth cap,
/// token rules, messages and byte offsets — minus the tree.
fn skip_value(text: &str, i: usize, depth: usize) -> Result<usize, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    let nested = |at| skip_value(text, at, depth + 1).map(|next| ((), next));
    match text.as_bytes().get(i) {
        Some(b'{') => scan_members(text, i, nested, |_, ()| {}),
        Some(b'[') => scan_items(text, i, nested, |()| {}),
        _ => scan_value(text, i).map(|(_, next)| next),
    }
}

/// The members of the JSON document `text` in source order, each value
/// validated and kept as the slice of `text` that spells it; `None` when the
/// document is anything but an object. Accepts exactly what [`Json::parse`]
/// accepts and fails with the same message where it fails.
pub fn object_spans(text: &str) -> Result<Option<Vec<SpanMember<'_>>>, String> {
    let bytes = text.as_bytes();
    let start = skip_ws(bytes, 0);
    let mut members = Vec::with_capacity(8);
    let is_object = bytes.get(start) == Some(&b'{');
    let next = if is_object {
        let spanned = |at| skip_value(text, at, 1).map(|next| (&text[at..next], next));
        scan_members(text, start, spanned, |k, v| members.push((k, v)))?
    } else {
        skip_value(text, start, 0)?
    };
    let end = skip_ws(bytes, next);
    if end != bytes.len() {
        return Err(format!("trailing garbage at byte {end}"));
    }
    Ok(is_object.then_some(members))
}

/// The decoded contents of `span` when it spells a string literal — a slice
/// of it unless the literal holds an escape.
pub fn string_span(span: &str) -> Option<Cow<'_, str>> {
    let (s, next) = span.starts_with('"').then(|| scan_string(span, 0))?.ok()?;
    (next == span.len()).then_some(s)
}

/// A validated JSON value read in place: the slice of source that spells it,
/// as [`object_spans`] hands each member out. Each reader answers what the
/// reader of the same name on [`Json`] answers for the parsed value, and
/// builds no tree; on a slice that is not one valid value the answers are
/// unspecified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span<'a>(pub &'a str);

impl<'a> Span<'a> {
    /// String contents, if this is a string: a slice of the source unless
    /// the literal holds an escape.
    pub fn as_str(self) -> Option<Cow<'a, str>> {
        string_span(self.0)
    }

    /// Number as `u64` (integral tokens only).
    pub fn as_u64(self) -> Option<u64> {
        self.number()?.parse().ok()
    }

    /// Number as `f64`.
    pub fn as_f64(self) -> Option<f64> {
        self.number()?.parse().ok()
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(self) -> Option<bool> {
        match self.0 {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn items(self) -> Option<Vec<Span<'a>>> {
        let text = self.0;
        if !text.starts_with('[') {
            return None;
        }
        let mut items = Vec::new();
        let spanned = |at| skip_value(text, at, 1).map(|next| (Span(&text[at..next]), next));
        scan_items(text, 0, spanned, |item| items.push(item)).ok()?;
        Some(items)
    }

    /// The raw token, if this is a number: the text [`Json::Num`] keeps.
    fn number(self) -> Option<&'a str> {
        let first = self.0.bytes().next()?;
        (first == b'-' || first.is_ascii_digit()).then_some(self.0)
    }
}

/// The string literal opening at byte `i`, and the byte after its closing
/// quote. Quotes and backslashes are ASCII: every slice is on char boundaries.
fn scan_string(line: &str, mut i: usize) -> Result<(Cow<'_, str>, usize), String> {
    let bytes = line.as_bytes();
    if bytes.get(i) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {i}"));
    }
    i += 1;
    // Allocated at the first escape; `run` starts the stretch not yet copied.
    let mut decoded: Option<String> = None;
    let mut run = i;
    // Jump from one quote or backslash to the next: the bytes between them
    // are copied whole, or borrowed when the literal holds no escape.
    while let Some(len) = bytes[i..].iter().position(|&b| b == b'"' || b == b'\\') {
        i += len;
        if bytes[i] == b'"' {
            let tail = &line[run..i];
            let s = decoded.map_or(Cow::Borrowed(tail), |s| Cow::Owned(s + tail));
            return Ok((s, i + 1));
        }
        let s = decoded.get_or_insert_with(String::new);
        s.push_str(&line[run..i]);
        i += 1;
        match bytes.get(i) {
            Some(c @ (b'"' | b'\\' | b'/')) => s.push(*c as char),
            Some(b'n') => s.push('\n'),
            Some(b'r') => s.push('\r'),
            Some(b't') => s.push('\t'),
            Some(b'b') => s.push('\u{8}'),
            Some(b'f') => s.push('\u{c}'),
            Some(b'u') => {
                let code = line
                    .get(i + 1..i + 5)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {i}"))?;
                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                i += 4;
            }
            _ => return Err(format!("bad escape at byte {i}")),
        }
        i += 1;
        run = i;
    }
    Err("unterminated string".to_string())
}

/// The scalar opening at byte `i`, and the byte after it.
fn scan_value(line: &str, i: usize) -> Result<(Scalar<'_>, usize), String> {
    let bytes = line.as_bytes();
    match bytes.get(i) {
        Some(b'"') => scan_string(line, i).map(|(s, next)| (Scalar::Str(s), next)),
        Some(b't') if bytes[i..].starts_with(b"true") => Ok((Scalar::Bool(true), i + 4)),
        Some(b'f') if bytes[i..].starts_with(b"false") => Ok((Scalar::Bool(false), i + 5)),
        Some(b'n') if bytes[i..].starts_with(b"null") => Ok((Scalar::Null, i + 4)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            // A token is the longest run of number bytes; it must be one
            // number, so a number followed by more number bytes is bad.
            let is_number_byte =
                |b: &u8| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
            match json_number_end(bytes, i) {
                Some(end) if !bytes.get(end).is_some_and(is_number_byte) => {
                    Ok((Scalar::Num(&line[i..end]), end))
                }
                _ => Err(format!("bad number at byte {i}")),
            }
        }
        _ => Err(format!("unexpected value at byte {i}")),
    }
}

/// The byte after the longest RFC 8259 number opening at byte `i`
/// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`), in one pass; `None`
/// when no number opens there.
fn json_number_end(bytes: &[u8], mut i: usize) -> Option<usize> {
    let digits = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    if bytes.get(i) == Some(&b'-') {
        i += 1;
    }
    i = match bytes.get(i)? {
        b'0' => i + 1,
        b'1'..=b'9' => digits(i + 1),
        _ => return None,
    };
    if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        i = digits(i + 1);
    }
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(bytes.get(i + 1), Some(b'+' | b'-')));
        if bytes.get(i + 1 + sign).is_some_and(u8::is_ascii_digit) {
            i = digits(i + 1 + sign);
        }
    }
    Some(i)
}

#[cfg(test)]
/// The owned journal parser and the allocating formatters this module had
/// before the borrowed scanner and the `push_*` writers, verbatim: the
/// oracles for the tests here, in `sink` and in `summarize`.
pub(crate) mod reference {
    /// Escape a string for embedding in a JSON string literal.
    pub fn escape_json(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Round-trippable float formatting; non-finite values become `null`.
    pub fn fmt_f64(v: f64) -> String {
        if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".to_string()
        }
    }

    /// A scalar from a flat JSON object. Numbers keep their raw text so callers
    /// can choose integer or float interpretation without precision loss.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        /// Raw number token, e.g. `"1500000000"` or `"0.25"`.
        Num(String),
        /// Decoded string contents.
        Str(String),
        /// `true` / `false`.
        Bool(bool),
        /// `null`.
        Null,
    }

    impl JsonValue {
        /// Number as f64 (exact for round-trip `{:?}` output).
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// Number as u64 (integral tokens only).
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                JsonValue::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// String contents.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    /// Parse a single-line flat JSON object (string/number/bool/null values, no
    /// nesting) into key/value pairs in source order. This is all the journal
    /// format needs; anything else is a malformed line.
    pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
        let bytes = line.trim().as_bytes();
        let mut i = 0usize;
        let err = |msg: &str, at: usize| format!("{msg} at byte {at}");
        let skip_ws = |bytes: &[u8], mut i: usize| {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            i
        };
        i = skip_ws(bytes, i);
        if i >= bytes.len() || bytes[i] != b'{' {
            return Err(err("expected '{'", i));
        }
        i += 1;
        let mut out = Vec::new();
        loop {
            i = skip_ws(bytes, i);
            if i < bytes.len() && bytes[i] == b'}' {
                i += 1;
                break;
            }
            let (key, next) = parse_string(bytes, i)?;
            i = skip_ws(bytes, next);
            if i >= bytes.len() || bytes[i] != b':' {
                return Err(err("expected ':'", i));
            }
            i = skip_ws(bytes, i + 1);
            let (value, next) = parse_value(bytes, i)?;
            out.push((key, value));
            i = skip_ws(bytes, next);
            match bytes.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => {
                    i += 1;
                    break;
                }
                _ => return Err(err("expected ',' or '}'", i)),
            }
        }
        if skip_ws(bytes, i) != bytes.len() {
            return Err(err("trailing garbage", i));
        }
        Ok(out)
    }

    fn parse_string(bytes: &[u8], mut i: usize) -> Result<(String, usize), String> {
        if bytes.get(i) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {i}"));
        }
        i += 1;
        let mut s = String::new();
        while i < bytes.len() {
            match bytes[i] {
                b'"' => return Ok((s, i + 1)),
                b'\\' => {
                    i += 1;
                    match bytes.get(i) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(i + 1..i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {i}"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {i}"))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {i}")),
                    }
                    i += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (journal strings are UTF-8).
                    let rest = std::str::from_utf8(&bytes[i..])
                        .map_err(|_| format!("invalid UTF-8 at byte {i}"))?;
                    let c = rest.chars().next().ok_or("truncated string")?;
                    s.push(c);
                    i += c.len_utf8();
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_value(bytes: &[u8], i: usize) -> Result<(JsonValue, usize), String> {
        match bytes.get(i) {
            Some(b'"') => {
                let (s, next) = parse_string(bytes, i)?;
                Ok((JsonValue::Str(s), next))
            }
            Some(b't') if bytes[i..].starts_with(b"true") => Ok((JsonValue::Bool(true), i + 4)),
            Some(b'f') if bytes[i..].starts_with(b"false") => Ok((JsonValue::Bool(false), i + 5)),
            Some(b'n') if bytes[i..].starts_with(b"null") => Ok((JsonValue::Null, i + 4)),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_digit()
                        || matches!(bytes[j], b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    j += 1;
                }
                let raw = std::str::from_utf8(&bytes[i..j]).expect("ascii");
                Ok((JsonValue::Num(raw.to_string()), j))
            }
            _ => Err(format!("unexpected value at byte {i}")),
        }
    }

    /// The recursive-descent parser `greenness-serve` had before it moved
    /// onto this module's scanner, verbatim: it took any token `f64::from_str`
    /// accepts as a number, and its `parse_string` re-validated the rest of the
    /// line once per character.
    pub mod serve {
        use super::super::Json;

        const MAX_DEPTH: usize = 64;

        /// Parse one JSON document (trailing garbage is an error).
        pub fn parse(text: &str) -> Result<Json, String> {
            let bytes = text.as_bytes();
            let mut i = skip_ws(bytes, 0);
            let (value, next) = parse_value(bytes, i, 0)?;
            i = skip_ws(bytes, next);
            if i != bytes.len() {
                return Err(format!("trailing garbage at byte {i}"));
            }
            Ok(value)
        }

        fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            i
        }

        fn parse_value(bytes: &[u8], i: usize, depth: usize) -> Result<(Json, usize), String> {
            if depth > MAX_DEPTH {
                return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
            }
            match bytes.get(i) {
                Some(b'{') => parse_object(bytes, i, depth),
                Some(b'[') => parse_array(bytes, i, depth),
                Some(b'"') => {
                    let (s, next) = parse_string(bytes, i)?;
                    Ok((Json::Str(s), next))
                }
                Some(b't') if bytes[i..].starts_with(b"true") => Ok((Json::Bool(true), i + 4)),
                Some(b'f') if bytes[i..].starts_with(b"false") => Ok((Json::Bool(false), i + 5)),
                Some(b'n') if bytes[i..].starts_with(b"null") => Ok((Json::Null, i + 4)),
                Some(c) if c.is_ascii_digit() || *c == b'-' => {
                    let mut j = i + 1;
                    while j < bytes.len()
                        && (bytes[j].is_ascii_digit()
                            || matches!(bytes[j], b'+' | b'-' | b'.' | b'e' | b'E'))
                    {
                        j += 1;
                    }
                    // The scan above only admits ASCII bytes, so this cannot fail;
                    // report a parse error rather than panic if it somehow does.
                    let Ok(raw) = std::str::from_utf8(&bytes[i..j]) else {
                        return Err(format!("malformed number at byte {i}"));
                    };
                    if raw.parse::<f64>().is_err() {
                        return Err(format!("malformed number '{raw}' at byte {i}"));
                    }
                    Ok((Json::Num(raw.to_string()), j))
                }
                _ => Err(format!("unexpected value at byte {i}")),
            }
        }

        fn parse_object(bytes: &[u8], mut i: usize, depth: usize) -> Result<(Json, usize), String> {
            i = skip_ws(bytes, i + 1);
            let mut members = Vec::new();
            if bytes.get(i) == Some(&b'}') {
                return Ok((Json::Obj(members), i + 1));
            }
            loop {
                let (key, next) = parse_string(bytes, i)?;
                i = skip_ws(bytes, next);
                if bytes.get(i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                i = skip_ws(bytes, i + 1);
                let (value, next) = parse_value(bytes, i, depth + 1)?;
                members.push((key, value));
                i = skip_ws(bytes, next);
                match bytes.get(i) {
                    Some(b',') => i = skip_ws(bytes, i + 1),
                    Some(b'}') => return Ok((Json::Obj(members), i + 1)),
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }

        fn parse_array(bytes: &[u8], mut i: usize, depth: usize) -> Result<(Json, usize), String> {
            i = skip_ws(bytes, i + 1);
            let mut items = Vec::new();
            if bytes.get(i) == Some(&b']') {
                return Ok((Json::Arr(items), i + 1));
            }
            loop {
                let (value, next) = parse_value(bytes, i, depth + 1)?;
                items.push(value);
                i = skip_ws(bytes, next);
                match bytes.get(i) {
                    Some(b',') => i = skip_ws(bytes, i + 1),
                    Some(b']') => return Ok((Json::Arr(items), i + 1)),
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }

        fn parse_string(bytes: &[u8], mut i: usize) -> Result<(String, usize), String> {
            if bytes.get(i) != Some(&b'"') {
                return Err(format!("expected '\"' at byte {i}"));
            }
            i += 1;
            let mut s = String::new();
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => return Ok((s, i + 1)),
                    b'\\' => {
                        i += 1;
                        match bytes.get(i) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(i + 1..i + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| format!("bad \\u escape at byte {i}"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape at byte {i}"))?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                i += 4;
                            }
                            _ => return Err(format!("bad escape at byte {i}")),
                        }
                        i += 1;
                    }
                    _ => {
                        let rest = std::str::from_utf8(&bytes[i..])
                            .map_err(|_| format!("invalid UTF-8 at byte {i}"))?;
                        let c = rest.chars().next().ok_or("truncated string")?;
                        s.push(c);
                        i += c.len_utf8();
                    }
                }
            }
            Err("unterminated string".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{parse_flat_object, JsonValue};
    use super::*;
    use proptest::prelude::*;

    /// Why a `fmt::Result` from writing into a `String` is unwrapped here.
    const INFALLIBLE: &str = "a String accepts every write";

    /// The tree's canonical serialization, the oracle
    /// [`write_canonical_spans`] is checked against.
    impl Json {
        /// Canonical serialization: sorted object keys, normalized numbers.
        fn to_canonical(&self) -> String {
            let mut out = String::new();
            self.write_canonical(&mut out).expect(INFALLIBLE);
            out
        }

        /// Stream the canonical serialization into any [`fmt::Write`] sink.
        fn write_canonical<W: Write>(&self, out: &mut W) -> fmt::Result {
            self.write(true, out)
        }
    }

    type Pairs<'a> = Vec<(Cow<'a, str>, Scalar<'a>)>;

    /// What `scan_flat_object` hands out for `line`, in source order.
    fn scan(line: &str) -> Result<Pairs<'_>, String> {
        let mut pairs = Vec::new();
        scan_flat_object(line, |k, v| pairs.push((k, v))).map(|()| pairs)
    }

    /// The string under `key`'s first pair.
    fn str_of<'p>(pairs: &'p Pairs<'_>, key: &str) -> Option<&'p str> {
        match pairs.iter().find(|(k, _)| k == key)? {
            (_, Scalar::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The number under `key`'s first pair, as `T`.
    fn num_of<T: std::str::FromStr>(pairs: &Pairs<'_>, key: &str) -> Option<T> {
        match pairs.iter().find(|(k, _)| k == key)? {
            (_, Scalar::Num(raw)) => raw.parse().ok(),
            _ => None,
        }
    }

    #[test]
    fn flat_object_round_trips() {
        let line =
            r#"{"t_ns":1500000000,"ev":"event","name":"activity","secs":0.25,"ok":true,"x":null}"#;
        let kv = scan(line).unwrap();
        assert_eq!(num_of::<u64>(&kv, "t_ns"), Some(1_500_000_000));
        assert_eq!(str_of(&kv, "ev"), Some("event"));
        assert_eq!(num_of::<f64>(&kv, "secs"), Some(0.25));
        assert_eq!(
            (str_of(&kv, "t_ns"), num_of::<u64>(&kv, "ev")),
            (None, None)
        );
        assert_eq!(kv[0].0, "t_ns");
        assert_eq!(kv[4].1, Scalar::Bool(true));
        assert_eq!(kv[5].1, Scalar::Null);
        // Escape-free keys and strings are slices of the line, not copies.
        assert!(matches!(
            kv[1],
            (Cow::Borrowed("ev"), Scalar::Str(Cow::Borrowed("event")))
        ));
    }

    #[test]
    fn escaped_strings_decode() {
        let line = "{\"k\":\"a\\\"b\\\\c\\n\\u0041\"}";
        let kv = scan(line).unwrap();
        assert_eq!(kv[0].1, Scalar::Str("a\"b\\c\nA".into()));
    }

    #[test]
    fn f64_round_trip_is_exact() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 123456.789012345, -0.0, 15.258789e-6] {
            let s = fmt_f64(v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(scan("not json").is_err());
        assert!(scan("{\"a\":1").is_err());
        assert!(scan("{\"a\":{}}").is_err());
    }

    /// The old parser took any run of `[0-9+-.eE]` as a number, and
    /// `summarize` then read a token it could not convert as 0 J.
    #[test]
    fn malformed_numbers_are_rejected() {
        for token in [
            "-", "1-2", "1e", "1.", "1e+", "01", "-01", "1.e3", "1e1.5", "--1",
        ] {
            let line = format!("{{\"dur_ns\":{token}}}");
            assert_eq!(
                scan(&line),
                Err("bad number at byte 10".to_string()),
                "{token}"
            );
            // The intended difference from the parser this one replaced.
            assert!(parse_flat_object(&line).is_ok(), "{token}");
        }
        // These never looked like a number, before or now.
        for token in [".5", "+1", "e5"] {
            let line = format!("{{\"dur_ns\":{token}}}");
            assert_eq!(scan(&line), Err("unexpected value at byte 10".to_string()));
        }
        for token in [
            "0",
            "-0",
            "-0.0",
            "10",
            "1e-300",
            "1E+5",
            "1.5e7",
            "123456.789012345",
        ] {
            let line = format!("{{\"dur_ns\":{token}}}");
            assert_eq!(scan(&line).unwrap()[0].1, Scalar::Num(token), "{token}");
        }
    }

    #[test]
    fn nested_documents_round_trip() {
        let text =
            r#"{"op":"sweep","params":{"cases":[1,2,3],"scale":"small"},"flag":true,"x":null}"#;
        let v = Json::parse(text).expect("parses");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("sweep"));
        let cases = v
            .get("params")
            .and_then(|p| p.get("cases"))
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(
            cases.iter().filter_map(Json::as_u64).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert_eq!(v.to_string_raw(), text);
    }

    #[test]
    fn canonical_sorts_keys_and_normalizes_numbers() {
        let a = Json::parse(r#"{"b":1000, "a":{"y":2, "x":1e3}}"#).unwrap();
        let b = Json::parse(r#"{"a":{"x":1000.0,"y":2.0},"b":1.0e3}"#).unwrap();
        assert_eq!(a.to_canonical(), b.to_canonical());
        assert_eq!(a.to_canonical(), r#"{"a":{"x":1000.0,"y":2.0},"b":1000.0}"#);
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1} extra",
            "nul",
            "1..2",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} accepted");
        }
        // `f64::from_str` takes these; JSON does not, and neither parser
        // does any more.
        for bad in ["01", "1.", "-.5", "1.e5"] {
            assert!(reference::serve::parse(bad).is_ok(), "{bad}");
            assert_eq!(Json::parse(bad), Err("bad number at byte 0".to_string()));
        }
    }

    #[test]
    fn streamed_escaping_matches_the_allocating_escape() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\slashes\\",
            "line\nbreaks\tand\rreturns",
            "control \u{1} \u{1f} edge",
            "unicode → snowman ☃ and emoji 🦀",
            "\"\\\n\u{0}",
        ] {
            let mut streamed = String::new();
            push_escaped(&mut streamed, s).expect("write to String");
            assert_eq!(streamed, reference::escape_json(s), "{s:?}");
        }
    }

    #[test]
    fn canonical_streaming_into_a_hasher_matches_the_string_path() {
        let doc = Json::parse(
            r#"{"op":"sweep","params":{"cases":[1,2,3],"txt":"a\"b\\c\nd","z":1e3},"id":7}"#,
        )
        .expect("parses");
        let via_string = crate::hash::blake2s256(doc.to_canonical().as_bytes());
        let mut hasher = crate::hash::Blake2s256::default();
        doc.write_canonical(&mut hasher).expect("stream");
        assert_eq!(hasher.finalize(), via_string);
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(64)).is_ok());
        assert_eq!(
            Json::parse(&nested(200)),
            Err("nesting deeper than 64 levels".to_string())
        );
    }

    /// The per-character `from_utf8(&bytes[i..])` of both old parsers made a
    /// long string quadratic: 28 s for 1 MiB in a release build.
    #[test]
    fn a_long_string_parses_in_linear_time() {
        let pad = "é\\n".repeat(1 << 20);
        let text = format!("{{\"pad\":\"{pad}\"}}");
        assert!(text.len() > 4 << 20);
        let start = std::time::Instant::now();
        let doc = Json::parse(&text).expect("parses");
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs() < 2, "4 MiB took {elapsed:?}");
        let decoded = doc.get("pad").and_then(Json::as_str).expect("a string");
        assert_eq!(decoded, "é\n".repeat(1 << 20));
    }

    /// A JSON-number check written by splitting instead of scanning, so the
    /// oracle below does not lean on `json_number_end` itself.
    fn json_number_by_splitting(raw: &str) -> bool {
        let all_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let unsigned = raw.strip_prefix('-').unwrap_or(raw);
        let (mantissa, exponent) = match unsigned.find(['e', 'E']) {
            Some(at) => (&unsigned[..at], Some(&unsigned[at + 1..])),
            None => (unsigned, None),
        };
        let (int, frac) = match mantissa.split_once('.') {
            Some((int, frac)) => (int, Some(frac)),
            None => (mantissa, None),
        };
        all_digits(int)
            && (int == "0" || !int.starts_with('0'))
            && frac.map_or(true, all_digits)
            && exponent.map_or(true, |e| {
                all_digits(e.strip_prefix(['+', '-']).unwrap_or(e))
            })
    }

    /// New scanner against the retained parser on one line: both reject it,
    /// or both accept it with equal pairs. Two intended differences, either
    /// of which the scanner may therefore report ahead of a later syntax
    /// error: a number token that is not a JSON number, and a comma before
    /// the closing brace — only the scanner rejects them.
    fn assert_matches_reference(line: &str) {
        let new = scan(line);
        let bad_number = |e: &str| e.starts_with("bad number at byte ");
        let trailing_comma = |e: &str| {
            let at = e.strip_prefix("expected '\"' at byte ");
            at.and_then(|at| at.parse().ok()).is_some_and(|at: usize| {
                let line = line.trim();
                line.as_bytes().get(at) == Some(&b'}') && line[..at].trim_end().ends_with(',')
            })
        };
        match parse_flat_object(line) {
            Ok(old) => {
                let numbers_ok = old.iter().all(|(_, v)| match v {
                    JsonValue::Num(raw) => json_number_by_splitting(raw),
                    _ => true,
                });
                let new = match new {
                    Ok(new) => new,
                    Err(e) => {
                        let intended = trailing_comma(&e) || (bad_number(&e) && !numbers_ok);
                        assert!(intended, "{line:?}: {e}");
                        return;
                    }
                };
                assert!(numbers_ok, "{line:?}");
                assert_eq!(new.len(), old.len(), "{line:?}");
                for ((k, v), (old_k, old_v)) in new.iter().zip(&old) {
                    assert_eq!(k, old_k, "{line:?}");
                    let same = match (v, old_v) {
                        (Scalar::Num(a), JsonValue::Num(b)) => a == b,
                        (Scalar::Str(a), JsonValue::Str(b)) => a == b,
                        (Scalar::Bool(a), JsonValue::Bool(b)) => a == b,
                        (Scalar::Null, JsonValue::Null) => true,
                        _ => false,
                    };
                    assert!(same, "{line:?}: {v:?} vs {old_v:?}");
                    // Lookups: the first pair under a repeated key wins.
                    let (_, first) = old.iter().find(|(k, _)| k == old_k).expect("present");
                    assert_eq!(str_of(&new, k), first.as_str());
                    assert_eq!(num_of::<u64>(&new, k), first.as_u64());
                    assert_eq!(
                        num_of::<f64>(&new, k).map(f64::to_bits),
                        first.as_f64().map(f64::to_bits)
                    );
                }
            }
            Err(old) => {
                let e = new.expect_err(line);
                assert!(
                    e == old || bad_number(&e) || trailing_comma(&e),
                    "{line:?}: {e} vs {old}"
                );
            }
        }
    }

    fn has_bad_number(v: &Json) -> bool {
        match v {
            Json::Num(raw) => !json_number_by_splitting(raw),
            Json::Arr(items) => items.iter().any(has_bad_number),
            Json::Obj(members) => members.iter().any(|(_, v)| has_bad_number(v)),
            _ => false,
        }
    }

    /// One lexer under both data models, on one line. Where the owned tree
    /// is a flat object the borrowed scanner reads the same pairs; where it
    /// is anything else the scanner rejects the line; what the tree parser
    /// rejects the scanner rejects, with the same message unless a nested
    /// value or a missing brace stopped it first. The parser serve had agrees
    /// on every line both accept, and accepted nothing more than number
    /// tokens JSON forbids.
    fn assert_one_lexer(line: &str) {
        let line = line.trim();
        let flat = scan(line);
        let tree = Json::parse(line);
        let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
        match &tree {
            Ok(Json::Obj(members)) if members.iter().all(|(_, v)| scalar(v)) => {
                let flat = flat.unwrap_or_else(|e| panic!("{line:?}: {e}"));
                assert_eq!(flat.len(), members.len(), "{line:?}");
                for ((k, v), (tree_k, tree_v)) in flat.iter().zip(members) {
                    assert_eq!(k, tree_k, "{line:?}");
                    let same = match (v, tree_v) {
                        (Scalar::Num(a), Json::Num(b)) => a == b,
                        (Scalar::Str(a), Json::Str(b)) => a == b,
                        (Scalar::Bool(a), Json::Bool(b)) => a == b,
                        (Scalar::Null, Json::Null) => true,
                        _ => false,
                    };
                    assert!(same, "{line:?}: {v:?} vs {tree_v:?}");
                }
            }
            Ok(_) => assert!(flat.is_err(), "{line:?}"),
            Err(e) => {
                let flat = flat.expect_err(line);
                // The scanner points at the first byte after the brace, the
                // tree parser at the first that is not whitespace.
                let garbage = "trailing garbage at byte ";
                let stopped_first = flat.starts_with("unexpected value at byte ")
                    || flat == "expected '{' at byte 0";
                let same = flat == *e || (flat.starts_with(garbage) && e.starts_with(garbage));
                assert!(same || stopped_first, "{line:?}: {flat} vs {e}");
            }
        }
        match (reference::serve::parse(line), &tree) {
            (Ok(old), Ok(new)) => assert_eq!(&old, new, "{line:?}"),
            (Ok(old), Err(e)) => assert!(
                e.starts_with("bad number at byte ") && has_bad_number(&old),
                "{line:?}: {e}"
            ),
            (Err(old), Ok(_)) => panic!("{line:?}: only the old parser rejects it: {old}"),
            (Err(old), Err(e)) => assert!(
                *e == old || e.starts_with("bad number at byte "),
                "{line:?}: {e} vs {old}"
            ),
        }
    }

    /// `select` over both lists, the well-formed atoms eight times as likely
    /// each, so that most generated lines get past the first pair.
    fn mostly(
        well_formed: &[&'static str],
        malformed: &[&'static str],
    ) -> impl Strategy<Value = &'static str> {
        let mut atoms = malformed.to_vec();
        for _ in 0..8 {
            atoms.extend_from_slice(well_formed);
        }
        prop::sample::select(atoms)
    }

    /// Escapes only the serve parser knew before the two data models shared
    /// a lexer (the retained journal parser rejects `\b` and `\f`), and the
    /// same control range spelled `\u00XX`.
    const SERVE_ESCAPES: &[&str] = &["\\b", "\\f", "\\u0008", "\\u000c", "\\u0000", "\\u007F"];

    /// A string literal as a writer might spell it: plain and multi-byte
    /// text, raw control characters, every short escape the journal reader
    /// has always taken plus `more`, `\u` escapes (control, BMP, surrogates
    /// alone and paired, the sign `from_str_radix` lets through); rarely, an
    /// escape no writer produces.
    fn arb_string(more: &'static [&'static str]) -> impl Strategy<Value = String> {
        let well_formed = [
            &[
                "a",
                "phase",
                " ",
                "é",
                "日本",
                "🔥",
                "/",
                "}",
                "\u{1}",
                "\t",
                "\\\"",
                "\\\\",
                "\\/",
                "\\n",
                "\\r",
                "\\t",
                "\\u0041",
                "\\u001f",
                "\\u00e9",
                "\\ud800",
                "\\uDFFF",
                "\\ud83d\\udd25",
                "\\u+041",
            ],
            more,
        ]
        .concat();
        let atom = || mostly(&well_formed, &["\\u12", "\\u00é", "\\x", "\\"]);
        prop::collection::vec(atom(), 0..6).prop_map(|atoms| format!("\"{}\"", atoms.concat()))
    }

    fn arb_value(more: &'static [&'static str]) -> impl Strategy<Value = String> {
        prop_oneof![
            arb_string(more),
            arb_string(more),
            mostly(
                &[
                    "0",
                    "-0.0",
                    "1e-300",
                    "1500000000",
                    "18446744073709551615",
                    "-42",
                    "0.25",
                    "1E+5",
                    "1.5e-7",
                    "true",
                    "false",
                    "null",
                ],
                &[
                    "-", "1-2", "1e", "1.", "1e+", "007", "1.2.3", ".5", "+1", "nul", "{}", "[1]",
                    ""
                ],
            )
            .prop_map(str::to_string),
            any::<u64>().prop_map(|v| v.to_string()),
            any::<i64>().prop_map(|v| v.to_string()),
            any::<u64>().prop_map(|bits| fmt_f64(f64::from_bits(bits))),
        ]
    }

    /// A flat event line, with optional whitespace wherever JSON allows it.
    fn arb_line(more: &'static [&'static str]) -> impl Strategy<Value = String> {
        let pad = || prop::sample::select(vec!["", "", "", " ", "\t", " \r"]);
        let pair = (pad(), arb_string(more), pad(), arb_value(more), pad());
        prop::collection::vec(pair, 0..7).prop_map(|pairs| {
            let body: Vec<String> = pairs
                .iter()
                .map(|(a, k, b, v, c)| format!("{a}{k}{b}:{c}{v}{a}"))
                .collect();
            format!("{{{}}}", body.join(","))
        })
    }

    /// `line` truncated at a fraction `cut` of its characters, and with the
    /// character there overwritten by `garble`.
    fn damaged(line: &str, cut: f64, garble: char) -> [String; 2] {
        let mut chars: Vec<char> = line.chars().collect();
        let at = (cut * chars.len() as f64) as usize;
        let truncated = chars[..at].iter().collect();
        chars[at] = garble;
        [truncated, chars.into_iter().collect()]
    }

    fn arb_garble(more: &[char]) -> impl Strategy<Value = char> {
        let always = ['"', '\\', ',', ':', '}', '{', 'e', '-', '9', ' ', 'é'];
        prop::sample::select([&always, more].concat())
    }

    /// A nested document drawn from `seed`: scalars as [`arb_value`] spells
    /// them (well-formed ones), arrays and objects to depth 4, duplicate and
    /// escaped keys, keys out of order, optional whitespace.
    fn nested_doc(seed: &mut u64, depth: usize) -> String {
        let mut draw = |n: u64| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*seed >> 33) % n
        };
        const SCALARS: &[&str] = &[
            "0",
            "-0",
            "-0.0",
            "7",
            "42",
            "1e3",
            "1000",
            "1000.0",
            "1E+5",
            "1.5e-7",
            "0.1",
            "999999999999999",
            "1000000000000000",
            "9007199254740992",
            "9007199254740993",
            "18446744073709551615",
            "123456789012345678901234567890",
            "1e999",
            "-1e999",
            "1e-999",
            "true",
            "false",
            "null",
            "\"\"",
            "\"a\"",
            "\"é🔥\"",
            "\"\\n\\\"\\\\\\/\"",
            "\"\\u0041\\ud83d\\udd25\\ud800\"",
            "\"tab\there\"",
        ];
        const KEYS: &[&str] = &[
            "a",
            "b",
            "B",
            "aa",
            "",
            "é",
            "k\\u0065y",
            "key",
            "z\\\"",
            "\\u0061",
        ];
        let pad = ["", "", "", " ", "\t"][draw(5) as usize];
        let kind = if depth >= 4 { 0 } else { draw(4) };
        match kind {
            0 | 1 => SCALARS[draw(SCALARS.len() as u64) as usize].to_string(),
            2 => {
                let items: Vec<String> =
                    (0..draw(4)).map(|_| nested_doc(seed, depth + 1)).collect();
                format!("[{pad}{}{pad}]", items.join(&format!("{pad},{pad}")))
            }
            _ => {
                let members: Vec<String> = (0..draw(5))
                    .map(|_| {
                        let key = KEYS[(*seed >> 40) as usize % KEYS.len()];
                        format!("\"{key}\"{pad}:{pad}{}", nested_doc(seed, depth + 1))
                    })
                    .collect();
                format!("{{{pad}{}{pad}}}", members.join(&format!("{pad},{pad}")))
            }
        }
    }

    /// The span path against the tree path on one text: `object_spans`
    /// accepts what `Json::parse` accepts and fails with its message; the
    /// canonical form written from validated spans is the tree's.
    fn assert_spans_match_the_tree(text: &str) {
        let spans = object_spans(text);
        let tree = match Json::parse(text) {
            Ok(tree) => tree,
            Err(e) => {
                assert_eq!(spans, Err(e), "{text:?}");
                return;
            }
        };
        let mut from_span = String::from("kept:");
        let end = write_canonical_at(text, skip_ws(text.as_bytes(), 0), 0, &mut from_span);
        assert_eq!(end, Ok(text.trim_end().len()), "{text:?}");
        assert_eq!(
            from_span,
            format!("kept:{}", tree.to_canonical()),
            "{text:?}"
        );
        let Json::Obj(members) = &tree else {
            assert_eq!(spans, Ok(None), "{text:?}");
            return;
        };
        let mut spans = spans.expect("parses").expect("an object");
        assert_eq!(spans.len(), members.len(), "{text:?}");
        for ((k, span), (tree_k, tree_v)) in spans.iter().zip(members) {
            assert_eq!(k, tree_k, "{text:?}");
            assert_eq!(Json::parse(span).as_ref(), Ok(tree_v), "{text:?}: {span:?}");
            assert_reads_like_the_tree(Span(span), tree_v);
        }
        // Minus a key, as the request path filters `id` out.
        let semantic: Vec<&(String, Json)> = members.iter().filter(|(k, _)| k != "a").collect();
        let mut from_tree = String::new();
        write_canonical_object(&semantic, &mut from_tree).expect(INFALLIBLE);
        spans.retain(|(k, _)| k != "a");
        let mut from_spans = String::new();
        write_canonical_spans(&mut spans, &mut from_spans).expect("validated spans");
        assert_eq!(from_spans, from_tree, "{text:?}");
    }

    /// Every reader of `span` answers what the same reader of `tree`, the
    /// value parsed from it, answers — into arrays, element by element.
    fn assert_reads_like_the_tree(span: Span, tree: &Json) {
        assert_eq!(span.as_str().as_deref(), tree.as_str(), "{span:?}");
        assert_eq!(span.as_u64(), tree.as_u64(), "{span:?}");
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        assert_eq!(bits(span.as_f64()), bits(tree.as_f64()), "{span:?}");
        assert_eq!(span.as_bool(), tree.as_bool(), "{span:?}");
        match (span.items(), tree.as_arr()) {
            (Some(items), Some(tree_items)) => {
                assert_eq!(items.len(), tree_items.len(), "{span:?}");
                for (item, tree_item) in items.into_iter().zip(tree_items) {
                    assert_reads_like_the_tree(item, tree_item);
                }
            }
            (None, None) => {}
            (items, tree_items) => panic!("{span:?}: {items:?} vs {tree_items:?}"),
        }
    }

    #[test]
    fn skip_value_refuses_what_the_tree_parser_refuses() {
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        for depth in [0, 1, 64, 65, 66, 200, 100_000] {
            assert_spans_match_the_tree(&nested(depth));
            assert_spans_match_the_tree(&format!("{{\"k\":{}}}", nested(depth)));
        }
        for bad in [
            "",
            " ",
            "{",
            "[1,",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1} extra",
            "nul",
            "1..2",
            "01",
            "1.",
            "-.5",
            "1.e5",
            "{\"a\":[01]}",
            "{\"a\":{\"b\":1.}}",
            "{\"a\" 1}",
            "{a:1}",
            "{\"a\":\"\\x\"}",
            "{\"a\":\"unterminated}",
            "[1 2]",
            "{\"a\":1 \"b\":2}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
            assert_spans_match_the_tree(bad);
        }
        // A span that is not one value is an error from the writer, not a panic.
        for span in ["", "[1,", "{\"a\":}", "\"open", "1 2", &nested(100)] {
            let mut members = [(Cow::Borrowed("k"), span)];
            let written = write_canonical_spans(&mut members, &mut String::new());
            assert!(written.is_err(), "{span:?}");
        }
    }

    #[test]
    fn plain_digit_tokens_take_the_exact_fast_path() {
        for token in [
            "0",
            "7",
            "10",
            "4294967296",
            "999999999999999",
            "1000000000000000",
            "9007199254740992",
            "9007199254740993",
            "18446744073709551615",
        ] {
            let mut fast = String::new();
            write_canonical_number(token, &mut fast).expect(INFALLIBLE);
            let value: f64 = token.parse().expect("digits");
            assert_eq!(fast, format!("{value:?}"), "{token}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn scanner_matches_the_reference_parser(line in arb_line(&[])) {
            assert_matches_reference(&line);
        }

        /// Truncated anywhere, or with one character overwritten.
        #[test]
        fn scanner_matches_the_reference_parser_on_damaged_lines(
            line in arb_line(&[]),
            cut in 0.0..1.0f64,
            garble in arb_garble(&[]),
        ) {
            for line in damaged(&line, cut, garble) {
                assert_matches_reference(&line);
            }
        }

        #[test]
        fn flat_scanner_owned_tree_and_the_old_serve_parser_agree(
            line in arb_line(SERVE_ESCAPES),
            cut in 0.0..1.0f64,
            garble in arb_garble(&['b', 'f', '[']),
        ) {
            assert_one_lexer(&line);
            for line in damaged(&line, cut, garble) {
                assert_one_lexer(&line);
            }
        }

        /// Nested documents, whole, truncated and with one character
        /// overwritten: validated spans and the owned tree agree on what is
        /// JSON, on every message and on every canonical byte.
        #[test]
        fn validated_spans_canonicalize_like_the_owned_tree(
            seed in any::<u64>(),
            cut in 0.0..1.0f64,
            garble in arb_garble(&['[', ']', '0', '.']),
            digits in any::<u64>(),
        ) {
            let mut seed = seed;
            let doc = nested_doc(&mut seed, 0);
            assert_spans_match_the_tree(&doc);
            for doc in damaged(&format!(" {doc}"), cut, garble) {
                assert_spans_match_the_tree(&doc);
            }
            // Every width of plain-digit token, on both sides of the fast
            // path's edge, prints as `{:?}` prints its `f64`.
            let token = (digits >> (digits % 64)).to_string();
            let mut canonical = String::new();
            write_canonical_number(&token, &mut canonical).expect(INFALLIBLE);
            prop_assert_eq!(canonical, format!("{:?}", token.parse::<f64>().expect("digits")));
        }

        #[test]
        fn push_escaped_and_push_f64_match_the_reference_formatters(
            atoms in prop::collection::vec(
                prop::sample::select(vec![
                    "a", "phase", "é", "🔥", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}",
                ]),
                0..12,
            ),
            bits in any::<u64>(),
        ) {
            let s = atoms.concat();
            prop_assert_eq!(escape_json(&s), reference::escape_json(&s));
            let v = f64::from_bits(bits);
            prop_assert_eq!(fmt_f64(v), reference::fmt_f64(v));
        }
    }
}
