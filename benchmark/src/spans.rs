//! In-memory wall-clock spans recorded by the traced pass, from the
//! benchmark's side of each layer boundary.
//!
//! A span is `{name, start, end, parent}`; the recorder belongs to one
//! workload. Nothing is written while a pass runs: totals are computed and
//! printed when the pass ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Totals {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Span recorder for one workload's traced pass (single-threaded: spans
/// nest strictly).
pub struct Recorder {
    pub workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = end_ns;
    }

    /// Record `f` as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Append an already-measured interval under the innermost open span
    /// (client threads time their own round trips and hand them in after
    /// they join).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals(&self.spans)
    }

    /// Self time of all spans named `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, Totals::self_s)
    }

    /// For each top-level span (one per replayed iteration), the self time
    /// of the spans under it whose name `keep` accepts, seconds.
    pub fn self_s_by_root(&self, keep: impl Fn(&str) -> bool) -> Vec<f64> {
        let own = self_times(&self.spans);
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let root = span.parent.map_or(i, |p| root_of[p]);
            root_of.push(root);
            let sum = sums.entry(root).or_default();
            if keep(span.name) {
                *sum += own[i];
            }
        }
        sums.values().map(|&ns| ns as f64 / 1e9).collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every span as one JSON object per line:
    /// `{workload, id, name, start_ns, end_ns, parent}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"workload\":\"{}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                self.workload, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }

    /// One line per span name, for the end-of-pass report.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, t) in self.totals() {
            out.push_str(&format!(
                "  span {:<28} n={:<8} total={:>10.6}s self={:>10.6}s\n",
                format!("{}/{}", self.workload, name),
                t.count,
                t.total_s(),
                t.self_s()
            ));
        }
        out
    }
}

/// Per-span self time: the span's duration minus the part of it covered by
/// its direct children (clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for child in spans {
        if let Some(p) = child.parent {
            let parent = &spans[p];
            let start = child.start_ns.max(parent.start_ns);
            let end = child.end_ns.min(parent.end_ns);
            own[p] = own[p].saturating_sub(end.saturating_sub(start));
        }
    }
    own
}

/// Totals by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let t = by_name.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root 0..100; a 10..40 (holding b 20..30); c 40..70 adjacent to a.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30]);
        let t = totals(&spans);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["root"].self_ns, 40);
        assert_eq!(t["a"].self_ns, 20);
        // Self times partition the root interval exactly.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![
            span("iter", 0, 50, None),
            span("x", 0, 10, Some(0)),
            span("x", 10, 25, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["x"].count, 2);
        assert_eq!(t["x"].total_ns, 25);
        assert_eq!(t["iter"].self_ns, 25);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        let spans = vec![span("p", 0, 10, None), span("c", 5, 20, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let mut rec = Recorder::new("test");
        let root = rec.enter("root");
        rec.leaf("leaf", || std::hint::black_box(1 + 1));
        let mid = rec.enter("mid");
        rec.leaf("leaf", || ());
        rec.exit(mid);
        rec.exit(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.totals()["leaf"].count, 2);
    }

    #[test]
    fn per_root_sums_follow_ancestry() {
        let mut rec = Recorder::new("test");
        for _ in 0..2 {
            let root = rec.enter("iteration");
            let cell = rec.enter("cell");
            rec.leaf("layer", || ());
            rec.exit(cell);
            rec.leaf("layer", || ());
            rec.exit(root);
        }
        let layers = rec.self_s_by_root(|name| name == "layer");
        assert_eq!(layers.len(), 2, "one sum per top-level span");
        let all: f64 = rec.self_s_by_root(|_| true).iter().sum();
        let total: u64 = rec.totals()["iteration"].total_ns;
        assert!(
            (all - total as f64 / 1e9).abs() < 1e-9,
            "self times partition the roots"
        );
        assert!(layers.iter().sum::<f64>() <= all);
    }
}
