//! The cloneable tracer handle threaded through the simulator.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::metrics::MetricsRegistry;
use crate::sink::{EventKind, JsonlSink, TraceEvent, Value};

#[derive(Default)]
struct Inner {
    sink: JsonlSink,
    metrics: MetricsRegistry,
}

/// A shared handle to one run's journal sink and metrics registry.
///
/// `Tracer::off()` (the default) is a `None` inside — every emit/count call
/// then costs exactly one branch and touches nothing else, so instrumented
/// hot paths stay hot. Clones share the same sink and registry;
/// `Arc<Mutex<_>>` keeps types like `Node` `Send` even though a tracer is
/// only ever used from the worker thread that owns its run.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Inner>>>,
    /// Lane id stamped on every event this handle emits (see
    /// [`Self::with_node`]); `None` everywhere but on a cluster node.
    node: Option<u64>,
}

/// Everything a traced run produced, taken by [`Tracer::drain`].
#[derive(Debug, Clone)]
pub struct TraceOutput {
    /// JSONL event lines (no schema header; see [`crate::journal_header`]).
    pub journal: String,
    /// The drained metrics registry.
    pub metrics: MetricsRegistry,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("on", &self.is_on()).finish()
    }
}

impl Tracer {
    /// The disabled tracer: records nothing, costs one branch per call.
    pub fn off() -> Self {
        Tracer::default()
    }

    /// A tracer rendering JSONL lines into an in-memory buffer.
    pub fn jsonl() -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(Inner::default()))),
            node: None,
        }
    }

    /// A handle onto the same journal and registry whose events all carry a
    /// trailing `"node": node` field. Nodes of one cluster run share a
    /// journal but each keeps its own virtual clock, so each is a lane:
    /// `summarize` audits timestamps and span nesting per lane.
    pub fn with_node(&self, node: usize) -> Self {
        Tracer {
            inner: self.inner.clone(),
            node: Some(node as u64),
        }
    }

    /// Whether tracing is enabled.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Inner>> {
        // A panic under the lock leaves a journal and a registry that are
        // still well-formed values: keep recording into them.
        self.inner
            .as_ref()
            .map(|i| i.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn record(
        &self,
        t_ns: u64,
        kind: EventKind,
        name: &'static str,
        mut fields: Vec<(&'static str, Value)>,
    ) {
        if let Some(mut inner) = self.lock() {
            if let Some(node) = self.node {
                fields.push(("node", Value::U64(node)));
            }
            inner.sink.record(&TraceEvent {
                t_ns,
                kind,
                name,
                fields,
            });
        }
    }

    /// Open a span.
    pub fn begin(&self, t_ns: u64, name: &'static str, fields: Vec<(&'static str, Value)>) {
        self.record(t_ns, EventKind::Begin, name, fields);
    }

    /// Close the innermost open span (must carry the same `name`).
    pub fn end(&self, t_ns: u64, name: &'static str, fields: Vec<(&'static str, Value)>) {
        self.record(t_ns, EventKind::End, name, fields);
    }

    /// Record an instant event.
    pub fn instant(&self, t_ns: u64, name: &'static str, fields: Vec<(&'static str, Value)>) {
        self.record(t_ns, EventKind::Instant, name, fields);
    }

    /// Add `by` to counter `name`.
    pub fn count(&self, name: &'static str, by: u64) {
        if let Some(mut inner) = self.lock() {
            inner.metrics.incr(name, by);
        }
    }

    /// Set gauge `name`.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(mut inner) = self.lock() {
            inner.metrics.set_gauge(name, value);
        }
    }

    /// Current counter value (0 when off or never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().map_or(0, |inner| inner.metrics.counter(name))
    }

    /// Record a labelled metrics snapshot.
    pub fn snapshot(&self, label: &str) {
        if let Some(mut inner) = self.lock() {
            inner.metrics.snapshot(label);
        }
    }

    /// Take the journal buffer and metrics registry out of the tracer.
    /// Returns `None` when tracing is off.
    pub fn drain(&self) -> Option<TraceOutput> {
        self.lock().map(|mut inner| TraceOutput {
            journal: inner.sink.drain_jsonl(),
            metrics: std::mem::take(&mut inner.metrics),
        })
    }
}
