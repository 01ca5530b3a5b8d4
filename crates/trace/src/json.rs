//! Hand-rolled JSON helpers: the workspace vendors no `serde_json`, so the
//! journal writer renders lines straight into its buffer and the summarizer
//! reads them back with a borrowed flat-object scanner. Floats are formatted
//! with `{:?}` (shortest round-trip), so a value survives emit → parse
//! exactly — the property the 1e-9 J energy-reconstruction audit relies on.

use std::borrow::Cow;
use std::fmt::Write;

/// Append `s` to `out`, escaped for a JSON string literal; stretches that
/// need no escape (every label, kind and state in a journal) are copied whole.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `run..i` ends on a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("a String accepts every write"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Append `v` in round-trippable float formatting; non-finite values become
/// `null`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v:?}").expect("a String accepts every write");
    } else {
        out.push_str("null");
    }
}

/// Round-trippable float formatting; non-finite values become `null`.
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
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

/// The key/value pairs of one flat object, in source order. [`Self::scan`]
/// replaces them, so one buffer serves a whole journal and what it holds
/// borrows from the journal, not from the line.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct FlatObject<'a>(Vec<(Cow<'a, str>, Scalar<'a>)>);

impl<'a> FlatObject<'a> {
    /// The first value under `key`.
    pub(crate) fn get(&self, key: &str) -> Option<&Scalar<'a>> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string under `key`.
    pub(crate) fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number under `key` as `T`: `u64` takes integral tokens only,
    /// `f64` is exact for round-trip `{:?}` output.
    pub(crate) fn num<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        match self.get(key)? {
            Scalar::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Scan a single-line flat JSON object (string/number/bool/null values,
    /// no nesting): one pass, and no copy unless a string holds an escape.
    /// This is all the journal format needs; anything else is a malformed
    /// line.
    pub(crate) fn scan(&mut self, line: &'a str) -> Result<(), String> {
        self.0.clear();
        let line = line.trim();
        let bytes = line.as_bytes();
        let err = |msg: &str, at: usize| format!("{msg} at byte {at}");
        let skip_ws = |mut i: usize| {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            i
        };
        let mut i = skip_ws(0);
        if bytes.get(i) != Some(&b'{') {
            return Err(err("expected '{'", i));
        }
        i += 1;
        // Leaves `i` on the closing brace.
        loop {
            i = skip_ws(i);
            if bytes.get(i) == Some(&b'}') {
                break;
            }
            let (key, next) = scan_string(line, i)?;
            i = skip_ws(next);
            if bytes.get(i) != Some(&b':') {
                return Err(err("expected ':'", i));
            }
            let (value, next) = scan_value(line, skip_ws(i + 1))?;
            self.0.push((key, value));
            i = skip_ws(next);
            match bytes.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => break,
                _ => return Err(err("expected ',' or '}'", i)),
            }
        }
        if skip_ws(i + 1) != bytes.len() {
            return Err(err("trailing garbage", i + 1));
        }
        Ok(())
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
    while let Some(&b) = bytes.get(i) {
        match b {
            b'"' => {
                let tail = &line[run..i];
                let s = decoded.map_or(Cow::Borrowed(tail), |s| Cow::Owned(s + tail));
                return Ok((s, i + 1));
            }
            b'\\' => {
                let s = decoded.get_or_insert_with(String::new);
                s.push_str(&line[run..i]);
                i += 1;
                match bytes.get(i) {
                    Some(c @ (b'"' | b'\\' | b'/')) => s.push(*c as char),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
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
            _ => i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn scan_value(line: &str, i: usize) -> Result<(Scalar<'_>, usize), String> {
    let bytes = line.as_bytes();
    match bytes.get(i) {
        Some(b'"') => scan_string(line, i).map(|(s, next)| (Scalar::Str(s), next)),
        Some(b't') if bytes[i..].starts_with(b"true") => Ok((Scalar::Bool(true), i + 4)),
        Some(b'f') if bytes[i..].starts_with(b"false") => Ok((Scalar::Bool(false), i + 5)),
        Some(b'n') if bytes[i..].starts_with(b"null") => Ok((Scalar::Null, i + 4)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let is_number_byte =
                |b: &u8| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
            let len = bytes[i..].iter().take_while(|b| is_number_byte(b)).count();
            let raw = &line[i..i + len];
            if !is_json_number(raw.as_bytes()) {
                return Err(format!("bad number at byte {i}"));
            }
            Ok((Scalar::Num(raw), i + len))
        }
        _ => Err(format!("unexpected value at byte {i}")),
    }
}

/// RFC 8259's number: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(token: &[u8]) -> bool {
    let digits = |t: &[u8]| t.iter().take_while(|b| b.is_ascii_digit()).count();
    let unsigned = token.strip_prefix(b"-").unwrap_or(token);
    let int = digits(unsigned);
    let (frac_ok, rest) = match &unsigned[int..] {
        [b'.', frac @ ..] => (digits(frac) > 0, &frac[digits(frac)..]),
        rest => (true, rest),
    };
    let exp_ok = match rest {
        [] => true,
        [b'e' | b'E', b'+' | b'-', exp @ ..] | [b'e' | b'E', exp @ ..] => {
            !exp.is_empty() && digits(exp) == exp.len()
        }
        _ => false,
    };
    int > 0 && (int == 1 || unsigned[0] != b'0') && frac_ok && exp_ok
}

/// The owned journal parser and the allocating formatters this module had
/// before the borrowed scanner and the `push_*` writers, verbatim: the
/// oracles for the tests here, in `sink` and in `summarize`.
#[cfg(test)]
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
}

#[cfg(test)]
mod tests {
    use super::reference::{parse_flat_object, JsonValue};
    use super::*;
    use proptest::prelude::*;

    fn scan(line: &str) -> Result<FlatObject<'_>, String> {
        let mut object = FlatObject::default();
        object.scan(line).map(|()| object)
    }

    #[test]
    fn flat_object_round_trips() {
        let line =
            r#"{"t_ns":1500000000,"ev":"event","name":"activity","secs":0.25,"ok":true,"x":null}"#;
        let object = scan(line).unwrap();
        assert_eq!(object.num::<u64>("t_ns"), Some(1_500_000_000));
        assert_eq!(object.str("ev"), Some("event"));
        assert_eq!(object.num::<f64>("secs"), Some(0.25));
        assert_eq!((object.str("t_ns"), object.num::<u64>("ev")), (None, None));
        let kv = object.0;
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
        let kv = scan(line).unwrap().0;
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
            assert_eq!(scan(&line).unwrap().0[0].1, Scalar::Num(token), "{token}");
        }
    }

    /// A JSON-number check written by splitting instead of scanning, so the
    /// oracle below does not lean on `is_json_number` itself.
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
    /// or both accept it with equal pairs. The one intended difference is a
    /// number token that is not a JSON number, which only the scanner
    /// rejects (and may therefore report ahead of a later syntax error).
    fn assert_matches_reference(line: &str) {
        let new = scan(line);
        match parse_flat_object(line) {
            Ok(old) => {
                let numbers_ok = old.iter().all(|(_, v)| match v {
                    JsonValue::Num(raw) => json_number_by_splitting(raw),
                    _ => true,
                });
                if !numbers_ok {
                    let e = new.expect_err(line);
                    assert!(e.starts_with("bad number at byte "), "{line:?}: {e}");
                    return;
                }
                let new = new.unwrap_or_else(|e| panic!("{line:?}: {e}"));
                assert_eq!(new.0.len(), old.len(), "{line:?}");
                for ((k, v), (old_k, old_v)) in new.0.iter().zip(&old) {
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
                    assert_eq!(new.str(k), first.as_str());
                    assert_eq!(new.num::<u64>(k), first.as_u64());
                    assert_eq!(
                        new.num::<f64>(k).map(f64::to_bits),
                        first.as_f64().map(f64::to_bits)
                    );
                }
            }
            Err(old) => {
                let e = new.expect_err(line);
                assert!(
                    e == old || e.starts_with("bad number at byte "),
                    "{line:?}: {e} vs {old}"
                );
            }
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

    /// A string literal as a writer might spell it: plain and multi-byte
    /// text, raw control characters, every short escape, `\u` escapes
    /// (control, BMP, unpaired surrogates, the sign `from_str_radix` lets
    /// through); rarely, an escape no writer produces.
    fn arb_string() -> impl Strategy<Value = String> {
        let atom = || {
            mostly(
                &[
                    "a", "phase", " ", "é", "日本", "🔥", "/", "}", "\u{1}", "\t", "\\\"", "\\\\",
                    "\\/", "\\n", "\\r", "\\t", "\\u0041", "\\u001f", "\\u00e9", "\\ud800",
                    "\\uDFFF", "\\u+041",
                ],
                &["\\u12", "\\u00é", "\\x", "\\"],
            )
        };
        prop::collection::vec(atom(), 0..6).prop_map(|atoms| format!("\"{}\"", atoms.concat()))
    }

    fn arb_value() -> impl Strategy<Value = String> {
        prop_oneof![
            arb_string(),
            arb_string(),
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
    fn arb_line() -> impl Strategy<Value = String> {
        let pad = || prop::sample::select(vec!["", "", "", " ", "\t", " \r"]);
        prop::collection::vec((pad(), arb_string(), pad(), arb_value(), pad()), 0..7).prop_map(
            |pairs| {
                let body: Vec<String> = pairs
                    .iter()
                    .map(|(a, k, b, v, c)| format!("{a}{k}{b}:{c}{v}{a}"))
                    .collect();
                format!("{{{}}}", body.join(","))
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn scanner_matches_the_reference_parser(line in arb_line()) {
            assert_matches_reference(&line);
        }

        /// Truncated anywhere, or with one character overwritten.
        #[test]
        fn scanner_matches_the_reference_parser_on_damaged_lines(
            line in arb_line(),
            cut in 0.0..1.0f64,
            garble in prop::sample::select(vec!['"', '\\', ',', ':', '}', '{', 'e', '-', '9', ' ', 'é']),
        ) {
            let chars: Vec<char> = line.chars().collect();
            let at = (cut * chars.len() as f64) as usize;
            let truncated: String = chars[..at].iter().collect();
            assert_matches_reference(&truncated);
            let mut garbled = chars;
            garbled[at] = garble;
            assert_matches_reference(&garbled.into_iter().collect::<String>());
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
