//! Nested JSON for the serve protocol: the owned [`Json`] tree and its
//! canonical (content-addressing) serialization live in
//! `greenness_trace::json`, beside the journal scanner and on the same
//! lexer; this module only keeps their `greenness_serve::json` path.

pub use greenness_trace::json::{
    object_spans, string_span, write_canonical_object, write_canonical_spans, Json, Span,
    SpanMember,
};
