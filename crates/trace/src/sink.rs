//! Trace events and the JSONL sink that renders them.

use std::borrow::Cow;

use crate::json::{push_escaped_str, push_f64};

/// A field value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (byte counts, block indices, nanoseconds).
    U64(u64),
    /// Float (seconds, watts, joules) — rendered round-trippably.
    F64(f64),
    /// String (phase labels, activity kinds, device states): borrowed when
    /// it is a [`Value::label`], owned otherwise.
    Str(Cow<'static, str>),
}

impl Value {
    /// A `'static` label (a phase, an activity kind, a disk state, a fault
    /// site), held without a copy. `From<&str>` takes any lifetime, so it
    /// must copy.
    pub fn label(text: &'static str) -> Self {
        Value::Str(Cow::Borrowed(text))
    }
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
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Cow::Owned(v.to_string()))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}

/// Span boundary or instant event.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// Span opens at `t_ns`.
    Begin,
    /// Span closes at `t_ns` (must match the innermost open span's name).
    End,
    /// Point event.
    Instant,
}

impl EventKind {
    /// The `ev` field value in the JSONL encoding.
    fn label(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "event",
        }
    }
}

/// One journal entry: a virtual timestamp, a kind, a name, and flat fields.
#[derive(Debug)]
pub(crate) struct TraceEvent {
    /// Virtual time in integer nanoseconds (same representation as
    /// `platform::SimTime`).
    pub(crate) t_ns: u64,
    /// Span boundary or instant.
    pub(crate) kind: EventKind,
    /// Event name (e.g. `"phase"`, `"activity"`, `"rapl.poll"`).
    pub(crate) name: &'static str,
    /// Flat key/value payload, emitted in order.
    pub(crate) fields: Vec<(&'static str, Value)>,
}

impl TraceEvent {
    /// Append this event to `buf` as one JSONL line (no trailing newline).
    /// The one place an event becomes JSON: it renders in place, with no
    /// intermediate string per event, field or value. Floats go through
    /// `floats`, the sink's memo across events.
    fn write_jsonl(&self, buf: &mut String, floats: &mut FloatMemo) {
        buf.push_str("{\"t_ns\":");
        push_u64(buf, self.t_ns);
        buf.push_str(",\"ev\":\"");
        buf.push_str(self.kind.label());
        buf.push_str("\",\"name\":\"");
        buf.push_str(self.name);
        buf.push('"');
        for (k, v) in &self.fields {
            buf.push_str(",\"");
            buf.push_str(k);
            buf.push_str("\":");
            match v {
                Value::U64(v) => push_u64(buf, *v),
                Value::F64(v) => floats.push(buf, *v),
                Value::Str(s) => {
                    buf.push('"');
                    push_escaped_str(buf, s);
                    buf.push('"');
                }
            }
        }
        buf.push('}');
    }
}

/// Append `v` in decimal, as `{v}` prints it.
fn push_u64(buf: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Slots in a [`FloatMemo`]. A journal repeats few distinct floats (the
/// single-node pipelines print ≈6.6k distinct values in ≈369k), so 4096
/// direct-mapped slots hit ≈97 % of them.
const MEMO_SLOTS: usize = 4096;

/// The longest float text a slot holds; a longer one (a negative value with
/// a three-digit exponent and seventeen digits) is printed every time.
const MEMO_TEXT: usize = 23;

/// One memoized float: its bits and the text [`push_f64`] printed for them
/// (`len == 0` marks an empty slot: no float prints as nothing).
#[derive(Debug, Clone, Copy, Default)]
struct MemoSlot {
    bits: u64,
    len: u8,
    text: [u8; MEMO_TEXT],
}

/// The text std's shortest round-trip printer wrote for recently seen `f64`
/// bit patterns, one direct-mapped slot per hash of the bits. A hit replays
/// the bytes printed for the very same bits, so it is exact by construction;
/// a miss prints and takes the slot over. The table is allocated at the
/// first float.
#[derive(Debug, Default)]
struct FloatMemo {
    slots: Vec<MemoSlot>,
}

impl FloatMemo {
    /// Append `v` in round-trippable float formatting, non-finite values as
    /// `null`: exactly what [`crate::fmt_f64`] returns.
    fn push(&mut self, buf: &mut String, v: f64) {
        if self.slots.is_empty() {
            self.slots = vec![MemoSlot::default(); MEMO_SLOTS];
        }
        let bits = v.to_bits();
        let slot = &mut self.slots[memo_slot(bits)];
        let len = usize::from(slot.len);
        if len > 0 && slot.bits == bits {
            buf.extend(slot.text[..len].iter().map(|&b| char::from(b)));
            return;
        }
        let start = buf.len();
        // `String`'s `fmt::Write` never fails.
        let _ = push_f64(buf, v);
        let printed = &buf.as_bytes()[start..];
        if let Some(text) = slot.text.get_mut(..printed.len()) {
            text.copy_from_slice(printed);
            slot.bits = bits;
            slot.len = printed.len() as u8;
        }
    }
}

/// The slot a float's bits map to. Fibonacci hashing: the top bits of the
/// product depend on every bit of `bits`, so values that differ only low in
/// the mantissa spread as well as round ones.
fn memo_slot(bits: u64) -> usize {
    (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// Renders each event immediately into an in-memory JSONL buffer. The
/// buffer contains event lines only — the `greenness-trace/v1` schema header
/// is prepended by whoever writes the journal file (see
/// [`crate::journal_header`]), so per-job buffers can be concatenated.
#[derive(Debug, Default)]
pub(crate) struct JsonlSink {
    buf: String,
    floats: FloatMemo,
}

impl JsonlSink {
    /// Append one event line.
    pub(crate) fn record(&mut self, ev: &TraceEvent) {
        ev.write_jsonl(&mut self.buf, &mut self.floats);
        self.buf.push('\n');
    }

    /// The journal, its capacity trimmed to its length: a run's journal
    /// outlives the run, and the buffer's doubling slack would outlive it
    /// too.
    pub(crate) fn drain_jsonl(&mut self) -> String {
        let mut journal = std::mem::take(&mut self.buf);
        journal.shrink_to_fit();
        journal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::reference::{escape_json, fmt_f64};
    use proptest::prelude::*;

    /// An event line as the writer once rendered it: a `format!` per event,
    /// per field and per value over the allocating formatters. The oracle for
    /// the writer.
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
                Value::F64(v) => fmt_f64(*v),
                Value::Str(s) => format!("\"{}\"", escape_json(s)),
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
            text.prop_map(|atoms| Value::from(atoms.concat())),
            colliding_floats().prop_map(Value::F64),
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

    /// `n` floats after `seed` that share its memo slot.
    fn slot_mates(seed: f64, n: usize) -> Vec<f64> {
        let slot = memo_slot(seed.to_bits());
        (1..)
            .map(|k: u64| f64::from_bits(seed.to_bits() ^ k.wrapping_mul(0x2545_f491_4f6c_dd1d)))
            .filter(|v| v.is_finite() && memo_slot(v.to_bits()) == slot)
            .take(n)
            .collect()
    }

    /// A small pool, so a stream repeats values: round and ragged watts,
    /// three values on one slot, signed zeros, subnormals, the finite
    /// extremes, a text too long for a slot, and the non-finite values.
    fn colliding_floats() -> impl Strategy<Value = f64> {
        let mut pool = vec![
            0.0,
            -0.0,
            143.0,
            15.258789e-6,
            3.2768e-7,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            -1.234_567_890_123_456_7e-300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        pool.extend(slot_mates(143.0, 2));
        prop::sample::select(pool)
    }

    #[test]
    fn the_float_memo_replays_exactly_what_std_prints() {
        let mut pool = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            5e-324,
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            -1.234_567_890_123_456_7e-300,
            (u64::MAX as f64),
            0.1,
            1.0 / 3.0,
        ];
        pool.extend(slot_mates(0.25, 3));
        pool.extend(slot_mates(-0.0, 2));
        let longest = fmt_f64(-1.234_567_890_123_456_7e-300).len();
        assert!(longest > MEMO_TEXT, "a text no slot holds: {longest} bytes");
        // Every value, then every pair in both orders: each repeat is a
        // hit, each slot mate evicts the one before it.
        let mut stream: Vec<f64> = pool.clone();
        for a in &pool {
            for b in &pool {
                stream.extend([*a, *b, *a]);
            }
        }
        let mut sink = JsonlSink::default();
        let mut want = String::new();
        for (t_ns, v) in stream.iter().enumerate() {
            let ev = TraceEvent {
                t_ns: t_ns as u64,
                kind: EventKind::Instant,
                name: "rapl.poll",
                fields: vec![("watts", Value::F64(*v)), ("bytes", Value::U64(u64::MAX))],
            };
            sink.record(&ev);
            want.push_str(&to_jsonl_reference(&ev));
            want.push('\n');
        }
        let got = sink.drain_jsonl();
        assert_eq!(got, want);
        assert!(got.contains(":-0.0,") && got.contains(":null,") && got.contains("e-324"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// What lands in the sink is the reference line plus a newline, event
        /// after event into one buffer.
        #[test]
        fn sink_bytes_match_the_reference_rendering(
            events in prop::collection::vec(arb_event(), 1..6),
        ) {
            let mut sink = JsonlSink::default();
            let mut want = String::new();
            for ev in &events {
                sink.record(ev);
                want.push_str(&to_jsonl_reference(ev));
                want.push('\n');
            }
            prop_assert_eq!(sink.drain_jsonl(), want);
        }
    }
}
