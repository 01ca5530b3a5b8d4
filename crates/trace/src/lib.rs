//! Deterministic observability for the greenness simulator.
//!
//! The paper's argument is an *attribution* argument — a joule belongs to a
//! phase, a device, a byte movement (§V-C's static-vs-dynamic split). The
//! simulator computes those attributions on virtual time, which means a trace
//! of the run can be **exactly** reproducible: no wall clocks, no thread
//! interleavings, no sampling jitter. This crate provides the two halves of
//! that observability layer:
//!
//! * an **event journal** — virtual-timestamped JSONL spans
//!   (`begin`/`end`) and instant events, rendered by the [`Tracer`] into one
//!   in-memory JSONL buffer as they are emitted. When tracing is off the hot
//!   path costs a single branch on an `Option`.
//! * a **metrics registry** — named monotonic counters and gauges
//!   ([`MetricsRegistry`]), snapshotted per phase and per sweep job.
//!
//! The [`summarize`] module parses a journal back, reconstructs per-phase
//! power/energy tables with bit-identical arithmetic to
//! `Timeline::phase_energy`, and audits span nesting and timestamp
//! monotonicity — a built-in consistency check on the measurement path.
//!
//! The [`json`] module is the workspace's one JSON lexer: the journal's
//! borrowed line scanner and the serve protocol's owned request tree share
//! its string, number and whitespace rules.
//!
//! The crate is dependency-free and sits at the bottom of the workspace
//! stack so every other crate can emit into it. Timestamps are integer
//! nanoseconds of virtual time (the same representation as
//! `platform::SimTime`), names are plain strings, and all JSON is emitted
//! with round-trippable `{:?}` float formatting so journals are
//! byte-identical across `--jobs` values.

pub mod hash;
pub mod json;
mod metrics;
mod sink;
pub mod summarize;
mod tracer;

pub use json::{escape_json, fmt_f64, push_escaped, push_f64};
pub use metrics::{percentile_nearest_rank, Histogram, MetricsRegistry};
pub use sink::Value;
pub use tracer::{TraceOutput, Tracer};

/// Version tag written as the first line of every journal file.
pub const TRACE_SCHEMA: &str = "greenness-trace/v1";
/// Version tag embedded in every metrics file.
const METRICS_SCHEMA: &str = "greenness-metrics/v1";

/// The header line (with trailing newline) that starts a journal file.
pub fn journal_header() -> String {
    format!("{{\"schema\":\"{TRACE_SCHEMA}\"}}\n")
}

/// Wrap one or more drained metrics registries into a versioned metrics
/// file. Each entry is a `(label, registry)` pair — a single run uses one
/// entry, a sweep uses one entry per job in job-id order.
pub fn metrics_file_json(entries: &[(String, MetricsRegistry)]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{METRICS_SCHEMA}\",\n"));
    s.push_str("  \"runs\": [\n");
    for (i, (label, reg)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"label\": \"{}\", \"metrics\": {}}}{}\n",
            escape_json(label),
            reg.to_json(),
            comma
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_is_inert_and_cheap() {
        let t = Tracer::off();
        assert!(!t.is_on());
        t.count("cache.hits", 3);
        t.begin(0, "phase", vec![("phase", Value::from("simulation"))]);
        t.end(10, "phase", vec![]);
        assert_eq!(t.counter("cache.hits"), 0);
        assert!(t.drain().is_none());
    }

    #[test]
    fn jsonl_sink_renders_deterministic_lines() {
        let t = Tracer::jsonl();
        t.begin(0, "run", vec![("pipeline", Value::from("post"))]);
        t.instant(
            1_500_000_000,
            "activity",
            vec![
                ("kind", Value::from("disk_read")),
                ("bytes", Value::from(4096u64)),
                ("secs", Value::from(0.25f64)),
            ],
        );
        t.count("disk.bytes_read", 4096);
        t.end(2_000_000_000, "run", vec![]);
        let out = t.drain().expect("on");
        assert_eq!(
            out.journal,
            "{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"run\",\"pipeline\":\"post\"}\n\
             {\"t_ns\":1500000000,\"ev\":\"event\",\"name\":\"activity\",\"kind\":\"disk_read\",\"bytes\":4096,\"secs\":0.25}\n\
             {\"t_ns\":2000000000,\"ev\":\"end\",\"name\":\"run\"}\n"
        );
        assert_eq!(out.metrics.counter("disk.bytes_read"), 4096);
        // Drained: a second drain sees an empty journal.
        assert_eq!(t.drain().expect("still on").journal, "");
    }

    #[test]
    fn metrics_registry_counts_and_snapshots() {
        let mut m = MetricsRegistry::default();
        m.incr("solver.steps", 10);
        m.incr("solver.steps", 5);
        m.set_gauge("energy.system_j", 42.5);
        m.snapshot("phase:simulation");
        m.incr("solver.steps", 1);
        assert_eq!(m.counter("solver.steps"), 16);
        assert_eq!(m.snapshots().len(), 1);
        assert_eq!(m.snapshots()[0].counters["solver.steps"], 15);
        let json = m.to_json();
        assert!(json.contains("\"solver.steps\":16"));
        assert!(json.contains("\"energy.system_j\":42.5"));
        assert!(json.contains("\"phase:simulation\""));
    }

    #[test]
    fn metrics_file_wraps_schema() {
        let mut m = MetricsRegistry::default();
        m.incr("a", 1);
        let f = metrics_file_json(&[("job:0".to_string(), m)]);
        assert!(f.contains(METRICS_SCHEMA));
        assert!(f.contains("\"label\": \"job:0\""));
    }
}
