//! The `greenness-serve/v1` wire protocol: newline-delimited JSON.
//!
//! Request: `{"schema":"greenness-serve/v1","id":1,"op":"compare",
//! "params":{...},"deadline_ms":2000}`. `id` (any scalar) and `deadline_ms`
//! are **non-semantic**: they are echoed / enforced but stripped before the
//! request is canonicalized and hashed, so retries with fresh ids still hit
//! the cache.
//!
//! Response envelopes — deliberately WITHOUT any cached/fresh marker, so a
//! repeated request is answered byte-identically whether it hit the cache
//! or not (hits are observable only through the metrics counters):
//!
//! * ok:    `{"schema":"greenness-serve/v1","id":1,"ok":true,"result":{...}}`
//! * error: `{"schema":"greenness-serve/v1","id":1,"ok":false,
//!           "error":{"code":"overloaded","message":"..."}}`

use greenness_trace::escape_json;

use crate::hash::Blake2s256;
use crate::json::Json;

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

/// A parsed, validated request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// The raw JSON of the client's `id`, echoed verbatim (`"null"` when
    /// absent).
    pub id: String,
    /// The operation name.
    pub op: String,
    /// The op's parameter object (empty object when absent).
    pub params: Json,
    /// Queueing deadline, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Content address: BLAKE2s-256 of the canonical request minus the
    /// non-semantic `id` / `deadline_ms` members.
    pub cache_key: [u8; 32],
}

/// Parse one request line. On error, returns the best-effort echoed id and
/// a message for a `bad_request` reply.
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
    // Single pass: canonicalize the semantic members (everything but the
    // non-semantic `id` / `deadline_ms`) straight into the hasher — no
    // cloned Json tree, no intermediate canonical String.
    let semantic: Vec<&(String, Json)> = members
        .iter()
        .filter(|(k, _)| k != "id" && k != "deadline_ms")
        .collect();
    let mut hasher = Blake2s256::default();
    // Infallible: the hasher's `fmt::Write` never errors, so the canonical
    // serialization cannot fail — ignore the `fmt::Result` plumbing.
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

/// A success envelope. `result` must already be serialized JSON.
pub fn ok_line(id: &str, result: &str) -> String {
    format!("{{\"schema\":\"{SCHEMA}\",\"id\":{id},\"ok\":true,\"result\":{result}}}")
}

/// The prefix of a success envelope, up to and including `"result":` — the
/// payload and the closing `}` follow as separate [`Response`] segments.
/// `ok_head(id) + result + "}"` is byte-identical to [`ok_line`], which the
/// envelope tests pin.
pub fn ok_head(id: &str) -> String {
    format!("{{\"schema\":\"{SCHEMA}\",\"id\":{id},\"ok\":true,\"result\":")
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
            head: ok_head(id),
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

#[cfg(test)]
mod tests {
    use super::*;
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
        let request = |id: &str, bytes: &str| {
            let line = format!(
                r#"{{"schema":"greenness-serve/v1","id":{id},"op":"whatif","params":{{"bytes":{bytes}}}}}"#
            );
            parse_request(&line).expect("parses")
        };
        let spelled = [
            request("1e3", "1e3"),
            request("1000", "1000"),
            request("1000.0", "1000.0"),
        ];
        assert_eq!(spelled[0].cache_key, spelled[1].cache_key);
        assert_eq!(spelled[0].cache_key, spelled[2].cache_key);
        let ids: Vec<&str> = spelled.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["1e3", "1000", "1000.0"]);
        assert_eq!(request("-0.50E+01", "1").id, "-0.50E+01");
        assert_eq!(
            request(r#""a\u0041\/""#, "1").id,
            r#""aA/""#,
            "strings re-escape"
        );
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
        #![proptest_config(ProptestConfig::with_cases(128))]

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
