//! The `greenness-serve/v1` wire protocol: newline-delimited JSON.
//!
//! Request: `{"schema":"greenness-serve/v1","id":1,"op":"compare",
//! "params":{...},"deadline_ms":2000}`. `id` (null, a number or a string) and
//! `deadline_ms` are **non-semantic**: they are echoed / enforced but
//! stripped before the request is canonicalized and hashed, so retries with
//! fresh ids still hit the cache. A `steer.*` op is stateful and never
//! cached, so it is neither canonicalized nor hashed.
//!
//! A router that sees the same requests again and again parses through a
//! [`KeyMemo`]: a repeated request, byte for byte in its semantic members,
//! gets its content address back without being canonicalized or hashed.
//!
//! Response envelopes — deliberately WITHOUT any cached/fresh marker, so a
//! repeated request is answered byte-identically whether it hit the cache
//! or not (hits are observable only through the metrics counters):
//!
//! * ok:    `{"schema":"greenness-serve/v1","id":1,"ok":true,"result":{...}}`
//! * error: `{"schema":"greenness-serve/v1","id":1,"ok":false,
//!           "error":{"code":"overloaded","message":"..."}}`

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::sync::Mutex;

use greenness_faults::{checksum64, splitmix64};
use greenness_trace::escape_json;
use greenness_trace::hash::blake2s256;

use crate::json::{self, Span, SpanMember};

/// The protocol schema tag, required on every request.
pub const SCHEMA: &str = "greenness-serve/v1";

/// Structured error codes of the `greenness-serve/v1` protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, unknown op, or invalid parameters.
    BadRequest,
    /// Admission queue full: the request was shed, try again later.
    Overloaded,
    /// The request's `deadline_ms` elapsed while it was queued.
    DeadlineExceeded,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The analysis itself failed.
    Internal,
}

impl ErrorCode {
    /// The wire label of this code.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parsed, validated request line, borrowing from it: a warm hit reads
/// `id`, `op` and `cache_key` and never splits the parameter object.
#[derive(Debug, Clone)]
pub struct Request<'a> {
    /// The raw JSON of the client's `id`, echoed verbatim (`"null"` when
    /// absent): its source token, re-escaped only when that is a string
    /// holding an escape or a control byte.
    pub id: Cow<'a, str>,
    /// The operation name.
    pub op: Cow<'a, str>,
    /// The validated source text of the op's parameter object (`{}` when
    /// absent), and its members, which [`Request::params`] splits it into on
    /// first use.
    params_src: &'a str,
    params: OnceCell<Vec<SpanMember<'a>>>,
    /// Queueing deadline, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Content address: BLAKE2s-256 of the canonical request minus the
    /// non-semantic `id` / `deadline_ms` members. All zeros for a `steer.*`
    /// op, which carries no content address.
    pub cache_key: [u8; 32],
}

impl Request<'_> {
    /// The op's parameter object (empty when absent), split into members at
    /// most once and only when an op executes — a miss or a `steer.*` op.
    pub fn params(&self) -> Params<'_> {
        let members = self.params.get_or_init(|| {
            // `parse_request` validated the object: this cannot fail.
            json::object_spans(self.params_src)
                .ok()
                .flatten()
                .unwrap_or_default()
        });
        Params(members)
    }

    /// The steering session a `steer.*` op names in its parameters (`""`
    /// when it names none, which every op refuses).
    pub fn session(&self) -> Cow<'_, str> {
        let named = self.params().get("session");
        named.and_then(Span::as_str).unwrap_or_default()
    }
}

/// A request's parameter object, read member by member in place.
#[derive(Debug, Clone, Copy)]
pub struct Params<'r>(&'r [SpanMember<'r>]);

impl<'r> Params<'r> {
    /// The first member under `key`, as [`crate::json::Json::get`] finds it.
    pub fn get(self, key: &str) -> Option<Span<'r>> {
        first(self.0, key).map(Span)
    }
}

/// The span of the first member under `key`.
fn first<'a>(members: &[SpanMember<'a>], key: &str) -> Option<&'a str> {
    members
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, span)| *span)
}

/// Parse one request line. On error, returns the best-effort echoed id and
/// a message for a `bad_request` reply.
pub fn parse_request(line: &str) -> Result<Request<'_>, (String, String)> {
    parse(line, None)
}

/// [`parse_request`], with the content address looked up in `memo` first.
fn parse<'a>(line: &'a str, memo: Option<&KeyMemo>) -> Result<Request<'a>, (String, String)> {
    let no_id = || "null".to_string();
    let mut members = match json::object_spans(line) {
        Ok(Some(members)) => members,
        Ok(None) => return Err((no_id(), "request must be a JSON object".to_string())),
        Err(e) => return Err((no_id(), format!("malformed JSON: {e}"))),
    };
    let id = match first(&members, "id") {
        None => Cow::Borrowed("null"),
        Some(span) => match span.as_bytes().first() {
            Some(b'n' | b'-' | b'0'..=b'9') => Cow::Borrowed(span),
            // An escape-free string is its own minimal escaping.
            Some(b'"') if !span.bytes().any(|b| b == b'\\' || b < 0x20) => Cow::Borrowed(span),
            Some(b'"') => {
                let decoded = json::string_span(span).unwrap_or_default();
                Cow::Owned(format!("\"{}\"", escape_json(&decoded)))
            }
            _ => return Err((no_id(), "id must be a scalar".to_string())),
        },
    };
    let err = |msg: &str| (id.to_string(), msg.to_string());
    match first(&members, "schema").and_then(json::string_span) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(err(&format!("unsupported schema '{s}' (want {SCHEMA})"))),
        None => return Err(err(&format!("missing schema (want \"{SCHEMA}\")"))),
    }
    let op = first(&members, "op")
        .and_then(json::string_span)
        .ok_or_else(|| err("missing op"))?;
    let params_src = match first(&members, "params") {
        None => "{}",
        Some(span) if span.starts_with('{') => span,
        Some(_) => return Err(err("params must be an object")),
    };
    let deadline_ms = match first(&members, "deadline_ms") {
        None => None,
        // A number span is its token; no other span parses as a `u64`.
        Some(span) => Some(
            span.parse()
                .map_err(|_| err("deadline_ms must be a non-negative integer"))?,
        ),
    };
    let cache_key = if op.starts_with("steer.") {
        [0; 32]
    } else {
        // Canonicalize the semantic members (everything but the
        // non-semantic `id` / `deadline_ms`) from their source spans into
        // one buffer, and hash it in one shot.
        members.retain(|(k, _)| k != "id" && k != "deadline_ms");
        let address = |members: &mut [SpanMember]| {
            let mut canonical = String::with_capacity(line.len() + 16);
            // Infallible: a `String` takes every write and `object_spans`
            // validated every span — ignore the `fmt::Result` plumbing.
            let _ = json::write_canonical_spans(members, &mut canonical);
            blake2s256(canonical.as_bytes())
        };
        match memo {
            Some(memo) => memo.address(&mut members, address),
            None => address(&mut members),
        }
    };
    Ok(Request {
        id,
        op,
        params_src,
        params: OnceCell::new(),
        deadline_ms,
        cache_key,
    })
}

/// The most a [`KeyMemo`] holds: member bytes plus [`MEMO_ENTRY_COST`] per
/// entry, about 6,000 requests of the size the benchmark's fleet sends.
const MEMO_BUDGET: usize = 1 << 20;

/// The longest semantic member list, in memo bytes, a [`KeyMemo`] stores: a
/// longer request is canonicalized every time it comes, so the line cap never
/// becomes an entry.
const MEMO_ENTRY_CAP: usize = 1 << 10;

/// What an entry costs beside its member bytes: its content address, its
/// lookup hash, and its map and queue slots.
const MEMO_ENTRY_COST: usize = 64;

/// Ends each key and value in a memo entry. UTF-8 never holds the byte
/// `0xFF`, so no key or value can spell it, and the entry of one member list
/// spells no other.
const MEMO_SEP: u8 = 0xFF;

/// A bounded content-address memo: a request's semantic members (what
/// [`parse_request`] canonicalizes: each decoded key and the source span of
/// its value, in source order) to the content address the canonical path
/// computed for them. Equal member lists have equal canonical forms, so a
/// hit is exact by construction; a 64-bit hash only picks the candidate, and
/// a hit also compares the stored bytes, so a forged collision costs a miss,
/// never another request's address. Entries leave in insertion order to keep
/// within [`MEMO_BUDGET`]; an unused memo holds no heap. The lock is taken to
/// look up and to insert, never across a canonicalization, and a poisoned
/// lock is a miss.
#[derive(Default)]
pub struct KeyMemo(Mutex<Memo>);

#[derive(Default)]
struct Memo {
    /// Member bytes and content address, by lookup hash.
    entries: HashMap<u64, (Box<[u8]>, [u8; 32])>,
    /// Lookup hashes in insertion order, oldest first.
    order: VecDeque<u64>,
    /// What the entries cost, [`MEMO_ENTRY_COST`] each included.
    bytes: usize,
}

impl KeyMemo {
    /// [`parse_request`], answering a repeated request's content address from
    /// the memo. Every check runs as there, and the result is the same.
    pub fn parse<'a>(&self, line: &'a str) -> Result<Request<'a>, (String, String)> {
        parse(line, Some(self))
    }

    /// The content address of `members`: the stored one when the memo holds
    /// exactly these members, else `canonical(members)`, stored when it fits.
    fn address(
        &self,
        members: &mut [SpanMember],
        canonical: impl FnOnce(&mut [SpanMember]) -> [u8; 32],
    ) -> [u8; 32] {
        let len: usize = parts(members).map(|part| part.len() + 1).sum();
        if len > MEMO_ENTRY_CAP {
            return canonical(members);
        }
        let hash = parts(members).fold(0, |h, part| splitmix64(h ^ checksum64(part)));
        if let Ok(memo) = self.0.lock().as_deref() {
            if let Some((spelled, key)) = memo.entries.get(&hash) {
                if spells(spelled, members) {
                    return *key;
                }
            }
        }
        // Spelled before `canonical` sorts `members` in place.
        let mut spelled = Vec::with_capacity(len);
        for part in parts(members) {
            spelled.extend_from_slice(part);
            spelled.push(MEMO_SEP);
        }
        let key = canonical(members);
        if let Ok(memo) = self.0.lock().as_deref_mut() {
            memo.insert(hash, spelled.into_boxed_slice(), key);
        }
        key
    }
}

impl Memo {
    /// Store `spelled` under `hash`, evicting the oldest entries until it
    /// fits. A hash already taken keeps its entry: a colliding request stays
    /// a miss.
    fn insert(&mut self, hash: u64, spelled: Box<[u8]>, key: [u8; 32]) {
        if self.entries.contains_key(&hash) {
            return;
        }
        let cost = spelled.len() + MEMO_ENTRY_COST;
        while self.bytes + cost > MEMO_BUDGET {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some((gone, _)) = self.entries.remove(&oldest) {
                self.bytes -= gone.len() + MEMO_ENTRY_COST;
            }
        }
        self.bytes += cost;
        self.order.push_back(hash);
        self.entries.insert(hash, (spelled, key));
    }
}

/// Each member's key and then its value, as bytes.
fn parts<'m>(members: &'m [SpanMember]) -> impl Iterator<Item = &'m [u8]> {
    members
        .iter()
        .flat_map(|(k, v)| [k.as_bytes(), v.as_bytes()])
}

/// Whether the memo entry `spelled` holds exactly `members`.
fn spells(spelled: &[u8], members: &[SpanMember]) -> bool {
    let mut rest = spelled;
    for part in parts(members) {
        match rest
            .strip_prefix(part)
            .and_then(|r| r.strip_prefix(&[MEMO_SEP]))
        {
            Some(tail) => rest = tail,
            None => return false,
        }
    }
    rest.is_empty()
}

/// A success envelope. `result` must already be serialized JSON.
pub fn ok_line(id: &str, result: &str) -> String {
    ok_line_with(id, result.len(), |line| line.push_str(result))
}

/// [`ok_line`] with the result written straight into the envelope by
/// `result`, which is expected to write about `len` bytes.
pub(crate) fn ok_line_with(id: &str, len: usize, result: impl FnOnce(&mut String)) -> String {
    let mut line = ok_head(id, len + 1);
    result(&mut line);
    line.push('}');
    line
}

/// The prefix of a success envelope, up to and including `"result":`, with
/// room for `more` bytes after it — the payload and the closing `}` follow,
/// as separate [`Response`] segments or written in place.
/// `ok_head(id) + result + "}"` is byte-identical to [`ok_line`], which the
/// envelope tests pin.
fn ok_head(id: &str, more: usize) -> String {
    const FIXED: usize = "{\"schema\":\"\",\"id\":,\"ok\":true,\"result\":".len() + SCHEMA.len();
    let mut head = String::with_capacity(FIXED + id.len() + more);
    // `String`'s `fmt::Write` never fails.
    let _ = write!(
        head,
        "{{\"schema\":\"{SCHEMA}\",\"id\":{id},\"ok\":true,\"result\":"
    );
    head
}

/// A response envelope split into wire segments, so a cached result is
/// written to the socket straight from the shared cache payload — no
/// intermediate `format!` copy of potentially megabytes of result JSON.
/// Responses without a shared payload (errors, control ops) are a single
/// head segment.
#[derive(Debug, Clone)]
pub struct Response {
    head: String,
    payload: Option<std::sync::Arc<Vec<u8>>>,
}

impl Response {
    /// A response that is already one complete line.
    pub fn whole(line: String) -> Response {
        Response {
            head: line,
            payload: None,
        }
    }

    /// A success response whose result is the shared `payload` — the very
    /// allocation the cache holds, so hit responses copy nothing.
    pub fn enveloped(id: &str, payload: std::sync::Arc<Vec<u8>>) -> Response {
        Response {
            head: ok_head(id, 0),
            payload: Some(payload),
        }
    }

    /// The shared result payload, when this response carries one. The fleet
    /// router clones this `Arc` to fill replica caches without re-serializing
    /// (or even re-reading) the result.
    pub fn payload(&self) -> Option<&std::sync::Arc<Vec<u8>>> {
        self.payload.as_ref()
    }

    /// The wire segments in write order. The final newline is the writer's
    /// job ([`Response::write_to`] appends it).
    pub fn segments(&self) -> [&[u8]; 3] {
        match &self.payload {
            Some(payload) => [self.head.as_bytes(), payload, b"}"],
            None => [self.head.as_bytes(), b"", b""],
        }
    }

    /// Write the newline-terminated response to `w` segment by segment —
    /// the zero-copy path the server uses. Segments of one stream are
    /// written in order by its single connection thread, so framing is
    /// never torn.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        for segment in self.segments() {
            if !segment.is_empty() {
                w.write_all(segment)?;
            }
        }
        w.write_all(b"\n")
    }

    /// [`to_line`](Self::to_line), consuming the response: a whole line is
    /// handed over as it is, not copied.
    pub fn into_line(self) -> String {
        match self.payload {
            None => self.head,
            Some(_) => self.to_line(),
        }
    }

    /// Materialize the full line (tests and the replay harness; the server
    /// streams [`Response::segments`] instead).
    pub fn to_line(&self) -> String {
        let [head, payload, tail] = self.segments();
        let mut line = Vec::with_capacity(head.len() + payload.len() + tail.len());
        line.extend_from_slice(head);
        line.extend_from_slice(payload);
        line.extend_from_slice(tail);
        // Segments are built from `String`s and cached UTF-8 payloads; a
        // corrupt payload is replaced rather than allowed to panic a worker.
        String::from_utf8(line)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

/// An error envelope.
pub fn error_line(id: &str, code: ErrorCode, message: &str) -> String {
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"id\":{id},\"ok\":false,\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
        code.label(),
        escape_json(message)
    )
}

/// `parse_request` as it was before it borrowed from the line, verbatim: one
/// owned `Json` tree per line, the envelope read off it, the canonical form
/// streamed into the hasher from the tree. The oracle for the differential
/// tests below.
#[cfg(test)]
pub(crate) mod reference {
    use super::SCHEMA;
    use crate::json::Json;
    use greenness_trace::hash::Blake2s256;

    /// A parsed, validated request line.
    #[derive(Debug, Clone)]
    pub struct Request {
        pub id: String,
        pub op: String,
        pub params: Json,
        pub deadline_ms: Option<u64>,
        pub cache_key: [u8; 32],
    }

    pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
        let no_id = || "null".to_string();
        let doc = Json::parse(line).map_err(|e| (no_id(), format!("malformed JSON: {e}")))?;
        let members = match &doc {
            Json::Obj(members) => members,
            _ => return Err((no_id(), "request must be a JSON object".to_string())),
        };
        let id = doc.get("id").map_or_else(no_id, Json::to_string_raw);
        match doc.get("id") {
            None | Some(Json::Null | Json::Num(_) | Json::Str(_)) => {}
            Some(_) => {
                return Err((no_id(), "id must be a scalar".to_string()));
            }
        }
        let err = |msg: &str| (id.clone(), msg.to_string());
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == SCHEMA => {}
            Some(s) => return Err(err(&format!("unsupported schema '{s}' (want {SCHEMA})"))),
            None => return Err(err(&format!("missing schema (want \"{SCHEMA}\")"))),
        }
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing op"))?
            .to_string();
        let params = match doc.get("params") {
            None => Json::Obj(Vec::new()),
            Some(p @ Json::Obj(_)) => p.clone(),
            Some(_) => return Err(err("params must be an object")),
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| err("deadline_ms must be a non-negative integer"))?,
            ),
        };
        let semantic: Vec<&(String, Json)> = members
            .iter()
            .filter(|(k, _)| k != "id" && k != "deadline_ms")
            .collect();
        let mut hasher = Blake2s256::default();
        let _ = crate::json::write_canonical_object(&semantic, &mut hasher);
        let cache_key = hasher.finalize();
        Ok(Request {
            id,
            op,
            params,
            deadline_ms,
            cache_key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use proptest::prelude::*;

    #[test]
    fn ids_and_deadlines_do_not_change_the_cache_key() {
        let a = parse_request(
            r#"{"schema":"greenness-serve/v1","id":1,"op":"run","params":{"case":2}}"#,
        )
        .unwrap();
        let b = parse_request(
            r#"{"schema":"greenness-serve/v1","id":"retry-99","deadline_ms":50,"op":"run","params":{"case":2}}"#,
        )
        .unwrap();
        assert_eq!(a.cache_key, b.cache_key);
        assert_eq!(a.id, "1");
        assert_eq!(b.id, "\"retry-99\"");
        assert_eq!(b.deadline_ms, Some(50));
    }

    #[test]
    fn number_spellings_share_a_cache_key_and_ids_echo_their_source_token() {
        // The echoed id and the cache key of a `whatif` spelled this way.
        let request = |id: &str, bytes: &str| {
            let line = format!(
                r#"{{"schema":"greenness-serve/v1","id":{id},"op":"whatif","params":{{"bytes":{bytes}}}}}"#
            );
            let request = parse_request(&line).expect("parses");
            (request.id.into_owned(), request.cache_key)
        };
        let spelled = [
            request("1e3", "1e3"),
            request("1000", "1000"),
            request("1000.0", "1000.0"),
        ];
        assert_eq!(spelled[0].1, spelled[1].1);
        assert_eq!(spelled[0].1, spelled[2].1);
        let ids: Vec<&str> = spelled.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["1e3", "1000", "1000.0"]);
        assert_eq!(request("-0.50E+01", "1").0, "-0.50E+01");
        assert_eq!(
            request(r#""a\u0041\/""#, "1").0,
            r#""aA/""#,
            "strings re-escape"
        );
        // A raw control byte is re-escaped too; anything else echoes as sent.
        assert_eq!(request("\"a\tb\"", "1").0, r#""a\tb""#);
        assert_eq!(request(r#""é 🔥 /""#, "1").0, r#""é 🔥 /""#);
    }

    #[test]
    fn a_warm_hit_never_builds_the_parameter_tree() {
        let line = r#"{"schema":"greenness-serve/v1","id":"a","op":"run","params":{"case":2}}"#;
        let request = parse_request(line).expect("parses");
        assert!(request.params.get().is_none(), "split before any op ran");
        // `id` and `op` are slices of the line, not copies.
        assert!(matches!(request.id, Cow::Borrowed("\"a\"")));
        assert!(matches!(request.op, Cow::Borrowed("run")));
        assert_eq!(request.params().get("case").and_then(Span::as_u64), Some(2));
        assert!(
            std::ptr::eq(request.params().0, request.params().0),
            "split once"
        );
        let bare = parse_request(r#"{"schema":"greenness-serve/v1","op":"run"}"#).expect("parses");
        assert!(bare.params().0.is_empty());
    }

    #[test]
    fn a_steering_op_is_neither_canonicalized_nor_hashed() {
        let steer = |params: &str| {
            let line = format!(
                r#"{{"schema":"greenness-serve/v1","id":3,"op":"steer.render","params":{params}}}"#
            );
            let request = parse_request(&line).expect("parses");
            assert_eq!(request.cache_key, [0; 32], "{line}");
            (
                request.session().into_owned(),
                request.params().get("seq").and_then(Span::as_u64),
            )
        };
        assert_eq!(
            steer(r#"{"session":"s1","seq":4}"#),
            ("s1".to_string(), Some(4))
        );
        assert_eq!(
            steer(r#"{"seq":"4","session":"s\u0031"}"#),
            ("s1".to_string(), None)
        );
        assert_eq!(steer(r#"{"session":7}"#), (String::new(), None));
        // The same parameters under a cached op are addressed as before.
        let run = parse_request(r#"{"schema":"greenness-serve/v1","op":"run","params":{"seq":4}}"#)
            .expect("parses");
        assert_ne!(run.cache_key, [0; 32]);
    }

    #[test]
    fn different_params_change_the_cache_key() {
        let a = parse_request(r#"{"schema":"greenness-serve/v1","op":"run","params":{"case":1}}"#)
            .unwrap();
        let b = parse_request(r#"{"schema":"greenness-serve/v1","op":"run","params":{"case":2}}"#)
            .unwrap();
        assert_ne!(a.cache_key, b.cache_key);
    }

    #[test]
    fn schema_is_mandatory() {
        let (_, msg) = parse_request(r#"{"op":"run"}"#).unwrap_err();
        assert!(msg.contains("schema"), "{msg}");
    }

    #[test]
    fn envelopes_are_wellformed_json() {
        let ok = ok_line("7", "{\"x\":1}");
        let err = error_line("null", ErrorCode::Overloaded, "queue \"full\"");
        for line in [&ok, &err] {
            crate::json::Json::parse(line).expect("envelope parses");
        }
        assert!(err.contains("\"code\":\"overloaded\""));
    }

    #[test]
    fn segmented_response_is_byte_identical_to_ok_line() {
        let payload = std::sync::Arc::new(b"{\"x\":1}".to_vec());
        let response = Response::enveloped("7", std::sync::Arc::clone(&payload));
        assert_eq!(response.to_line(), ok_line("7", "{\"x\":1}"));
        let mut wire = Vec::new();
        response.write_to(&mut wire).expect("write");
        assert_eq!(
            wire,
            format!("{}\n", ok_line("7", "{\"x\":1}")).into_bytes()
        );
        // The payload segment is the cache's own allocation, not a copy.
        let [_, seg, _] = response.segments();
        assert!(std::ptr::eq(seg.as_ptr(), payload.as_slice().as_ptr()));
        // Whole-line responses pass through untouched.
        let whole = Response::whole(error_line("1", ErrorCode::Internal, "x"));
        assert_eq!(whole.to_line(), error_line("1", ErrorCode::Internal, "x"));
        let mut wire = Vec::new();
        whole.write_to(&mut wire).expect("write");
        assert_eq!(wire.pop(), Some(b'\n'));
        assert_eq!(wire, whole.to_line().into_bytes());
    }

    /// New parser against the retained one on one line: the same request
    /// (echoed id, op, deadline, cache key, parameters) or the same refusal
    /// (echoed id, message). A `steer.*` op has no cache key.
    fn assert_matches_reference(line: &str) {
        match (parse_request(line), reference::parse_request(line)) {
            (Ok(new), Ok(old)) => {
                assert_eq!(new.id, old.id, "{line:?}");
                assert_eq!(new.op, old.op, "{line:?}");
                assert_eq!(new.deadline_ms, old.deadline_ms, "{line:?}");
                if new.op.starts_with("steer.") {
                    assert_eq!(new.cache_key, [0; 32], "{line:?}");
                } else {
                    assert_eq!(new.cache_key, old.cache_key, "{line:?}");
                }
                let Json::Obj(members) = &old.params else {
                    panic!("{line:?}: params is an object")
                };
                assert_eq!(new.params().0.len(), members.len(), "{line:?}");
                for (key, _) in members {
                    let value = new.params().get(key).map(|span| Json::parse(span.0));
                    assert_eq!(value, old.params.get(key).cloned().map(Ok), "{line:?}");
                }
            }
            (Err(new), Err(old)) => assert_eq!(new, old, "{line:?}"),
            (new, old) => panic!("{line:?}: {new:?} vs {old:?}"),
        }
    }

    /// `select` over one member's spellings: `common` four times as likely
    /// each, so that most generated lines get past the envelope checks.
    fn member(
        common: &[&'static str],
        rare: &[&'static str],
    ) -> prop::sample::Select<&'static str> {
        let mut options = rare.to_vec();
        for _ in 0..4 {
            options.extend_from_slice(common);
        }
        prop::sample::select(options)
    }

    /// A request line as a client might spell it: the five envelope members
    /// (each sometimes absent, mistyped, escaped, or under an escaped key),
    /// unknown and repeated members, in any order, with optional whitespace.
    fn arb_line() -> impl Strategy<Value = String> {
        let schema = member(
            &[r#""schema":"greenness-serve/v1""#],
            &[
                "",
                r#""schema":"greenness-serve\/v1""#,
                r#""sch\u0065ma":"greenness-serve/v1""#,
                r#""schema":"greenness-serve/v2""#,
                r#""schema":7"#,
            ],
        );
        let id = member(
            &["", r#""id":1"#, r#""id":"retry-99""#],
            &[
                r#""id":1e3"#,
                r#""id":-0.50E+01"#,
                r#""id":null"#,
                r#""id":"a\u0041\/\"""#,
                "\"id\":\"tab\there\"",
                r#""id":"é🔥""#,
                r#""i\u0064":"escaped key""#,
                r#""id":true"#,
                r#""id":[1]"#,
                r#""id":{"a":1}"#,
            ],
        );
        let op = member(
            &[r#""op":"run""#, r#""op":"advisor""#],
            &[
                "",
                r#""op":"ste\u0065r.attach""#,
                r#""op":"o\"p""#,
                r#""\u006fp":"whatif""#,
                r#""op":5"#,
                r#""op":null"#,
            ],
        );
        let params = member(
            &[
                "",
                r#""params":{}"#,
                r#""params":{"case":2}"#,
                r#""params":{"bytes":1e3,"device":"hdd"}"#,
                r#""params":{"device":"hdd","bytes":1000.0}"#,
                r#""params":{"bytes":1000,"device":"hdd"}"#,
            ],
            &[
                r#""params":{"b":1,"a":{"y":[1,2,{"z":null,"k":[]}],"x":"s\n"}}"#,
                r#""params":{"a":1,"a":2,"A":[true,false]}"#,
                r#""params":{"k\u0065y":true,"key":"\u00e9\ud83d\udd25"}"#,
                r#""params":{"n":9007199254740993,"m":123456789012345,"o":1234567890123456,"f":-0.0,"e":1E+5,"big":1e999,"z":0}"#,
                r#""params":{"range":[0.0,0.3],"cases":[1,2,3]}"#,
                r#""params":[1]"#,
                r#""params":"str""#,
                r#""params":{"bytes":01}"#,
                r#""p\u0061rams":{"case":3}"#,
            ],
        );
        let deadline = member(
            &["", r#""deadline_ms":50"#],
            &[
                r#""deadline_ms":0"#,
                r#""deadline_ms":-1"#,
                r#""deadline_ms":1.5"#,
                r#""deadline_ms":"5""#,
                r#""deadline_ms":18446744073709551616"#,
            ],
        );
        let extra = prop::sample::select(vec![
            "",
            "",
            r#""extra":[1,{"q":"x"}]"#,
            r#""zz":{"q":1e0}"#,
            r#""id":2"#,
            r#""op":"compare""#,
            r#""params":{"case":3}"#,
            r#""schema":"other""#,
            r#""deadline_ms":7"#,
        ]);
        let pad = prop::sample::select(vec!["", "", "", " ", "\t", " \r"]);
        ((schema, id, op, params, deadline, extra), 0usize..6, pad).prop_map(
            |((schema, id, op, params, deadline, extra), rotate, pad)| {
                let mut members: Vec<&str> = [schema, id, op, params, deadline, extra]
                    .into_iter()
                    .filter(|m| !m.is_empty())
                    .collect();
                let len = members.len().max(1);
                members.rotate_left(rotate % len);
                let body = members.join(&format!("{pad},{pad}"));
                format!("{pad}{{{pad}{body}{pad}}}{pad}")
            },
        )
    }

    /// `line` parsed through `memo`, twice, against [`parse_request`] (and so,
    /// through [`assert_matches_reference`], against the owned reference):
    /// the same request, parameters included, or the same refusal. Returns
    /// whether the memo now answers `line` from an entry, as the second
    /// parse was answered.
    fn assert_memo_parses_alike(memo: &KeyMemo, line: &str) -> bool {
        assert_matches_reference(line);
        for _ in 0..2 {
            match (memo.parse(line), parse_request(line)) {
                (Ok(memo), Ok(plain)) => {
                    assert_eq!(memo.id, plain.id, "{line:?}");
                    assert_eq!(memo.op, plain.op, "{line:?}");
                    assert_eq!(memo.deadline_ms, plain.deadline_ms, "{line:?}");
                    assert_eq!(memo.cache_key, plain.cache_key, "{line:?}");
                    assert_eq!(memo.params().0, plain.params().0, "{line:?}");
                }
                (Err(memo), Err(plain)) => assert_eq!(memo, plain, "{line:?}"),
                (memo, plain) => panic!("{line:?}: {memo:?} vs {plain:?}"),
            }
        }
        answers_from_an_entry(memo, line)
    }

    /// Whether `memo` answers `line` with a stored content address: every
    /// stored address is swapped for a marker while `line` is parsed (a
    /// miss stores it, as any miss does), and only a hit can hand the
    /// marker back.
    fn answers_from_an_entry(memo: &KeyMemo, line: &str) -> bool {
        const MARKER: [u8; 32] = [0xA5; 32];
        let stored: HashMap<u64, [u8; 32]> = {
            let mut held = memo.0.lock().expect("not poisoned");
            let entries = held.entries.iter_mut();
            entries
                .map(|(hash, (_, key))| (*hash, std::mem::replace(key, MARKER)))
                .collect()
        };
        let hit = memo.parse(line).is_ok_and(|r| r.cache_key == MARKER);
        let mut held = memo.0.lock().expect("not poisoned");
        for (hash, (_, key)) in held.entries.iter_mut() {
            if let Some(was) = stored.get(hash) {
                *key = *was;
            }
        }
        hit
    }

    /// What a memo holds: entries and the bytes they are charged.
    struct Stats {
        entries: usize,
        bytes: usize,
    }

    fn stats(memo: &KeyMemo) -> Stats {
        let memo = memo.0.lock().expect("not poisoned");
        let charged = memo
            .entries
            .values()
            .map(|(b, _)| b.len() + MEMO_ENTRY_COST);
        assert_eq!(charged.sum::<usize>(), memo.bytes, "the charge adds up");
        assert_eq!(memo.order.len(), memo.entries.len());
        Stats {
            entries: memo.entries.len(),
            bytes: memo.bytes,
        }
    }

    #[test]
    fn hostile_lines_are_refused_like_the_reference_refuses_them() {
        // Every line below also goes through one memo.
        let memo = KeyMemo::default();
        let assert_matches_reference = |line: &str| {
            assert_memo_parses_alike(&memo, line);
        };
        let line = |params: &str| {
            format!(r#"{{"schema":"greenness-serve/v1","id":1,"op":"run","params":{params}}}"#)
        };
        // A member of `params` sits at depth 2: 62 more levels are within the
        // cap, 63 are one too many, for arrays and objects alike.
        let arrays = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        for nested in [arrays, objects] {
            let ok = line(&format!("{{\"x\":{}}}", nested(62)));
            assert!(parse_request(&ok).is_ok());
            assert_matches_reference(&ok);
            for depth in [63, 64, 100_000] {
                let deep = line(&format!("{{\"x\":{}}}", nested(depth)));
                let (id, message) = parse_request(&deep).expect_err("too deep");
                assert_eq!(id, "null");
                assert_eq!(message, "malformed JSON: nesting deeper than 64 levels");
                assert_matches_reference(&deep);
            }
        }
        for number in ["01", "1.", "-.5", "1.e5"] {
            let bad = line(&format!("{{\"x\":{number}}}"));
            let (_, message) = parse_request(&bad).expect_err("not a JSON number");
            assert!(message.starts_with("malformed JSON: "), "{message}");
            assert_matches_reference(&bad);
        }
        // 1 MiB strings, plain and all escapes, wherever a string can sit.
        for pad in ["x".repeat(1 << 20), "\\n".repeat(1 << 19)] {
            let start = std::time::Instant::now();
            for long in [
                line(&format!("{{\"pad\":\"{pad}\"}}")),
                line(&format!("{{\"{pad}\":1}}")),
                line("{}").replace("\"id\":1", &format!("\"id\":\"{pad}\"")),
                line("{}").replace("\"run\"", &format!("\"{pad}\"")),
                line("{}").replace("\"id\":1", &format!("\"{pad}\":[]")),
            ] {
                assert!(long.len() > 1 << 20);
                assert!(parse_request(&long).is_ok());
                assert_matches_reference(&long);
            }
            let elapsed = start.elapsed();
            assert!(elapsed.as_secs() < 5, "5 MiB took {elapsed:?}");
        }
    }

    /// A `compare` line with the given id and `params`.
    fn compare(id: u64, params: &str) -> String {
        format!(r#"{{"schema":"greenness-serve/v1","id":{id},"op":"compare","params":{params}}}"#)
    }

    #[test]
    fn a_lookup_hash_collision_is_a_miss() {
        let (a, b) = (compare(1, r#"{"case":1}"#), compare(2, r#"{"case":2}"#));
        // `a`'s lookup hash, from a memo that holds only `a`.
        let alone = KeyMemo::default();
        alone.parse(&a).expect("parses");
        let hash_a = *alone.0.lock().expect("lock").order.front().expect("stored");
        // File `b`'s entry under `a`'s hash, as a forged collision would.
        let memo = KeyMemo::default();
        let key_b = memo.parse(&b).expect("parses").cache_key;
        {
            let mut held = memo.0.lock().expect("lock");
            let hash_b = held.order.pop_front().expect("stored");
            let entry = held.entries.remove(&hash_b).expect("stored");
            held.entries.insert(hash_a, entry);
            held.order.push_back(hash_a);
        }
        let key_a = memo.parse(&a).expect("parses").cache_key;
        assert_eq!(key_a, parse_request(&a).expect("parses").cache_key);
        assert_ne!(key_a, key_b);
        // The colliding request is not stored over the entry it met: it
        // stays a miss.
        assert_eq!(stats(&memo).entries, 1);
        assert!(!answers_from_an_entry(&memo, &a));
        assert_eq!(memo.parse(&a).expect("parses").cache_key, key_a);
    }

    #[test]
    fn a_stream_of_distinct_requests_stays_within_the_budget() {
        let memo = KeyMemo::default();
        let pad = "x".repeat(800);
        let lines: Vec<String> = (0..3000)
            .map(|i| compare(i, &format!(r#"{{"case":{i},"pad":"{pad}"}}"#)))
            .collect();
        let mut most = 0;
        for line in &lines {
            memo.parse(line).expect("parses");
            let held = stats(&memo);
            assert!(held.bytes <= MEMO_BUDGET, "{} bytes", held.bytes);
            most = most.max(held.entries);
        }
        assert!(most > 1000, "the budget was reached: {most} entries");
        assert!(most < lines.len(), "old entries left");
        // Oldest out first: the newest request hits, the first one misses.
        assert!(answers_from_an_entry(&memo, &lines[2999]));
        assert!(!answers_from_an_entry(&memo, &lines[0]));
        assert!(assert_memo_parses_alike(&memo, &lines[0]), "stored again");
    }

    #[test]
    fn an_oversized_request_is_never_stored() {
        let memo = KeyMemo::default();
        let pad = "x".repeat(MEMO_ENTRY_CAP);
        let long = compare(1, &format!(r#"{{"pad":"{pad}"}}"#));
        assert!(!assert_memo_parses_alike(&memo, &long));
        let held = stats(&memo);
        assert_eq!((held.entries, held.bytes), (0, 0));
        let unused = KeyMemo::default();
        assert_eq!(unused.0.lock().expect("lock").entries.capacity(), 0);
    }

    #[test]
    fn respellings_miss_and_still_share_a_key() {
        let memo = KeyMemo::default();
        let spellings = [
            compare(1, r#"{"case":2,"pipeline":"insitu"}"#),
            compare(2, r#"{"pipeline":"insitu","case":2}"#),
            compare(3, r#"{"case":2.0,"pipeline":"insitu"}"#),
            compare(4, r#"{ "case" : 2 , "pipeline" : "insitu" }"#),
            format!(
                r#"{{ "params":{{"pipeline":"insitu","case":2.0}}, "op":"compare", "id":5, "schema":"{SCHEMA}" }}"#
            ),
        ];
        let key = parse_request(&spellings[0]).expect("parses").cache_key;
        for line in &spellings {
            // Each spelling is new to the memo: a miss, then a hit.
            assert!(!answers_from_an_entry(&memo, line), "{line}");
            assert!(assert_memo_parses_alike(&memo, line), "{line}");
            assert_eq!(memo.parse(line).expect("parses").cache_key, key, "{line}");
        }
        assert_eq!(stats(&memo).entries, spellings.len());
        // Only the id differs: the same entry.
        let again = compare(99, r#"{"case":2,"pipeline":"insitu"}"#);
        assert!(answers_from_an_entry(&memo, &again));
        assert_eq!(stats(&memo).entries, spellings.len());
    }

    /// Build a request JSON string with the given member order.
    fn request_with_order(pairs: &[(String, u64)], rotate: usize) -> String {
        let mut members: Vec<String> = pairs.iter().map(|(k, v)| format!("\"p{k}\":{v}")).collect();
        let len = members.len().max(1);
        members.rotate_left(rotate % len);
        format!(
            "{{\"op\":\"run\",\"schema\":\"{SCHEMA}\",\"params\":{{{}}}}}",
            members.join(",")
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn cache_key_is_stable_under_member_reordering(
            keys in prop::collection::vec((0u64..1000, 0u64..1_000_000), 1..8),
            rotate in 0usize..8,
        ) {
            // Dedup keys so both spellings describe the same object.
            let mut pairs: Vec<(String, u64)> = keys
                .into_iter()
                .map(|(k, v)| (format!("{k}"), v))
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            pairs.dedup_by(|a, b| a.0 == b.0);
            let natural = request_with_order(&pairs, 0);
            let shuffled = request_with_order(&pairs, rotate);
            let a = parse_request(&natural).expect("natural parses");
            let b = parse_request(&shuffled).expect("shuffled parses");
            prop_assert_eq!(a.cache_key, b.cache_key);
        }

        /// The borrowed parser against the retained owned one, on generated
        /// lines and on each truncated or with one character overwritten.
        #[test]
        fn borrowed_parse_matches_the_owned_reference(
            line in arb_line(),
            cut in 0.0..1.0f64,
            garble in prop::sample::select(vec![
                '"', '\\', ',', ':', '}', '{', '[', ']', 'e', '-', '0', '9', '.', ' ', 'é', 'u',
            ]),
        ) {
            assert_matches_reference(&line);
            let mut chars: Vec<char> = line.chars().collect();
            let at = (cut * chars.len() as f64) as usize;
            assert_matches_reference(&chars[..at].iter().collect::<String>());
            chars[at] = garble;
            assert_matches_reference(&chars.into_iter().collect::<String>());
        }

        /// Through a fresh memo each generated line parses as
        /// `parse_request` parses it, a miss and then, when it has a
        /// content address to keep, a hit.
        #[test]
        fn a_memo_parses_like_parse_request(line in arb_line()) {
            let memo = KeyMemo::default();
            let hit = assert_memo_parses_alike(&memo, &line);
            let kept = parse_request(&line).is_ok_and(|r| !r.op.starts_with("steer."));
            prop_assert_eq!(hit, kept);
        }

        #[test]
        fn cache_key_distinguishes_values(
            k in 0u64..50,
            v1 in 0u64..1_000_000,
            delta in 1u64..1_000_000,
        ) {
            let a = request_with_order(&[(format!("{k}"), v1)], 0);
            let b = request_with_order(&[(format!("{k}"), v1 + delta)], 0);
            let ra = parse_request(&a).expect("parses");
            let rb = parse_request(&b).expect("parses");
            prop_assert_ne!(ra.cache_key, rb.cache_key);
        }
    }
}
