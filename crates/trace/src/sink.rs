//! Trace events and the sinks that receive them.

use std::fmt::Write;
use std::sync::{Arc, Mutex};

use crate::json::{push_escaped, push_f64, INFALLIBLE};

/// A field value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (byte counts, block indices, nanoseconds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (seconds, watts, joules) — rendered round-trippably.
    F64(f64),
    /// String (phase labels, activity kinds, device states).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Span boundary or instant event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opens at `t_ns`.
    Begin,
    /// Span closes at `t_ns` (must match the innermost open span's name).
    End,
    /// Point event.
    Instant,
}

impl EventKind {
    /// The `ev` field value in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "event",
        }
    }
}

/// One journal entry: a virtual timestamp, a kind, a name, and flat fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time in integer nanoseconds (same representation as
    /// `platform::SimTime`).
    pub t_ns: u64,
    /// Span boundary or instant.
    pub kind: EventKind,
    /// Event name (e.g. `"phase"`, `"activity"`, `"rapl.poll"`).
    pub name: &'static str,
    /// Flat key/value payload, emitted in order.
    pub fields: Vec<(&'static str, Value)>,
}

impl TraceEvent {
    /// Append this event to `buf` as one JSONL line (no trailing newline).
    /// The one place an event becomes JSON: it renders in place, with no
    /// intermediate string per event, field or value.
    fn write_jsonl(&self, buf: &mut String) {
        let (ev, name) = (self.kind.label(), self.name);
        write!(
            buf,
            "{{\"t_ns\":{},\"ev\":\"{ev}\",\"name\":\"{name}\"",
            self.t_ns
        )
        .expect(INFALLIBLE);
        for (k, v) in &self.fields {
            buf.push_str(",\"");
            buf.push_str(k);
            buf.push_str("\":");
            match v {
                Value::U64(v) => write!(buf, "{v}").expect(INFALLIBLE),
                Value::I64(v) => write!(buf, "{v}").expect(INFALLIBLE),
                Value::F64(v) => push_f64(buf, *v).expect(INFALLIBLE),
                Value::Str(s) => {
                    buf.push('"');
                    push_escaped(buf, s).expect(INFALLIBLE);
                    buf.push('"');
                }
                Value::Bool(b) => buf.push_str(if *b { "true" } else { "false" }),
            }
        }
        buf.push('}');
    }

    /// Render as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut line = String::new();
        self.write_jsonl(&mut line);
        line
    }
}

/// Receives trace events. Implementations must be cheap: the tracer already
/// guards every call behind its on/off branch.
pub trait TraceSink: Send {
    /// Record one event.
    fn record(&mut self, ev: &TraceEvent);
    /// Take the accumulated JSONL buffer (empty for sinks that do not
    /// render, e.g. [`MemorySink`]).
    fn drain_jsonl(&mut self) -> String {
        String::new()
    }
}

/// Renders each event immediately into an in-memory JSONL buffer. The
/// buffer contains event lines only — the `greenness-trace/v1` schema header
/// is prepended by whoever writes the journal file (see
/// [`crate::journal_header`]), so per-job buffers can be concatenated.
#[derive(Debug, Default)]
pub struct JsonlSink {
    buf: String,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        JsonlSink::default()
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, ev: &TraceEvent) {
        ev.write_jsonl(&mut self.buf);
        self.buf.push('\n');
    }

    fn drain_jsonl(&mut self) -> String {
        std::mem::take(&mut self.buf)
    }
}

/// Shared handle onto a [`MemorySink`]'s event list (for tests and
/// in-process inspection).
#[derive(Debug, Clone, Default)]
pub struct MemoryHandle {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemoryHandle {
    /// Snapshot of all recorded events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("memory sink lock").clone()
    }
}

/// Stores structured events for inspection instead of rendering them.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// A new sink plus the handle that observes it.
    pub fn new() -> (Self, MemoryHandle) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (
            MemorySink {
                events: Arc::clone(&events),
            },
            MemoryHandle { events },
        )
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events
            .lock()
            .expect("memory sink lock")
            .push(ev.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::reference::{escape_json, fmt_f64};
    use proptest::prelude::*;

    /// `TraceEvent::to_jsonl` as it was: a `format!` per event, per field and
    /// per value over the allocating formatters. The oracle for the writer.
    fn to_jsonl_reference(ev: &TraceEvent) -> String {
        let mut s = format!(
            "{{\"t_ns\":{},\"ev\":\"{}\",\"name\":\"{}\"",
            ev.t_ns,
            ev.kind.label(),
            ev.name
        );
        for (k, v) in &ev.fields {
            let rendered = match v {
                Value::U64(v) => v.to_string(),
                Value::I64(v) => v.to_string(),
                Value::F64(v) => fmt_f64(*v),
                Value::Str(s) => format!("\"{}\"", escape_json(s)),
                Value::Bool(b) => b.to_string(),
            };
            s.push_str(&format!(",\"{k}\":{rendered}"));
        }
        s.push('}');
        s
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let text = prop::collection::vec(
            prop::sample::select(vec![
                "simulation",
                "disk_read",
                " ",
                "é",
                "日本",
                "🔥",
                "\"",
                "\\",
                "/",
                "\n",
                "\r",
                "\t",
                "\u{0}",
                "\u{8}",
                "\u{1f}",
                "\u{7f}",
            ]),
            0..6,
        );
        prop_oneof![
            any::<u64>().prop_map(Value::U64),
            prop::sample::select(vec![0, 1, u64::MAX]).prop_map(Value::U64),
            any::<i64>().prop_map(Value::I64),
            prop::sample::select(vec![0, -1, i64::MIN, i64::MAX]).prop_map(Value::I64),
            any::<u64>().prop_map(|bits| Value::F64(f64::from_bits(bits))),
            prop::sample::select(vec![
                0.0,
                -0.0,
                0.25,
                1e-300,
                1e21,
                143.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ])
            .prop_map(Value::F64),
            text.prop_map(|atoms| Value::Str(atoms.concat())),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        (
            any::<u64>(),
            prop::sample::select(vec![EventKind::Begin, EventKind::End, EventKind::Instant]),
            prop::sample::select(vec!["run", "phase", "activity", "rapl.poll", "segment"]),
            prop::collection::vec(
                (
                    prop::sample::select(vec!["phase", "bytes", "secs", "watts", "ok"]),
                    arb_value(),
                ),
                0..9,
            ),
        )
            .prop_map(|(t_ns, kind, name, fields)| TraceEvent {
                t_ns,
                kind,
                name,
                fields,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// What lands in the sink is the old `to_jsonl` plus a newline, event
        /// after event into one buffer, and `to_jsonl` is that same line.
        #[test]
        fn sink_bytes_match_the_reference_rendering(
            events in prop::collection::vec(arb_event(), 1..6),
        ) {
            let mut sink = JsonlSink::new();
            let mut want = String::new();
            for ev in &events {
                sink.record(ev);
                want.push_str(&to_jsonl_reference(ev));
                want.push('\n');
                prop_assert_eq!(ev.to_jsonl(), to_jsonl_reference(ev));
            }
            prop_assert_eq!(sink.drain_jsonl(), want);
        }
    }
}
